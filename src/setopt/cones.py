"""Polyhedral ordering cones and dual direction bases.

A cone is described twice: by primal generators (the cone is their conic
hull) and by dual generators (the dual cone is the conic hull of those).
Both descriptions are user supplied and cross-validated at construction;
the exact planar machinery downstream relies on the dual list generating
the full dual cone, which the planar basis checks.  A cone also owns the
geometry derived from it; the planar basis and the d >= 3 certificate
directions are computed on first use, so a cone whose planar geometry is
degenerate still constructs.

All vectors are numpy float arrays.  Cones are immutable after
construction.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import (
    InconsistentConeError,
    InvalidAnchorError,
    InvalidDimensionError,
    InvalidDirectionError,
    NonPointedConeError,
    UnsupportedDimensionError,
)

#: Geometric slack used by containment and validation tests.
TOL_GEOM = 1e-9

#: Simplex-grid resolution used by the pointedness witness search.
_WITNESS_RESOLUTION = 8

#: Decimals of the rounded coordinates that identify a point.
KEY_DECIMALS = 9


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a read-only 1-D float vector, checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise InvalidDimensionError(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise InvalidDimensionError(
            f"expected a vector of length {dim}, got length {v.shape[0]}"
        )
    if not np.isfinite(v).all():
        raise InvalidDimensionError("vector entries must be finite")
    v = v.copy()
    v.flags.writeable = False
    return v


def as_matrix(rows, dim: int | None = None) -> np.ndarray:
    """Coerce ``rows`` to a read-only (k, dim) float matrix, k >= 1."""
    m = np.asarray(rows, dtype=float)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2 or m.shape[0] == 0:
        raise InvalidDimensionError("expected a nonempty list of vectors")
    if dim is not None and m.shape[1] != dim:
        raise InvalidDimensionError(
            f"expected vectors of length {dim}, got length {m.shape[1]}"
        )
    if not np.isfinite(m).all():
        raise InvalidDimensionError("vector entries must be finite")
    m = m.copy()
    m.flags.writeable = False
    return m


def point_key(x) -> tuple:
    """The identity of a point: its coordinates rounded to KEY_DECIMALS."""
    return tuple(np.round(np.asarray(x, dtype=float), KEY_DECIMALS).tolist())


def unique_rows(rows: np.ndarray) -> np.ndarray:
    """The rows with distinct keys, first occurrences kept in their order."""
    _, keep = np.unique(np.round(rows, KEY_DECIMALS), axis=0, return_index=True)
    return rows[np.sort(keep)]


def simplex_grid(parts: int, resolution: int) -> np.ndarray:
    """Barycentric weight grid: all nonnegative integer ``parts``-tuples
    summing to ``resolution``, divided by ``resolution``.  Shape (N, parts).
    """
    if parts < 1 or resolution < 1:
        raise InvalidDimensionError("parts and resolution must be positive")
    combos = itertools.combinations(range(resolution + parts - 1), parts - 1)
    rows = []
    for cut in combos:
        prev = -1
        counts = []
        for c in cut:
            counts.append(c - prev - 1)
            prev = c
        counts.append(resolution + parts - 2 - prev)
        rows.append(counts)
    return np.asarray(rows, dtype=float) / float(resolution)


class Cone:
    """A closed convex pointed polyhedral ordering cone in R^d.

    Parameters
    ----------
    primal : array_like, shape (k, d)
        Nonzero generators of the cone.
    dual : array_like, shape (m, d)
        Nonzero generators of the dual cone.
    kind : str
        ``"orthant"`` or ``"generated"``.

    Raises
    ------
    InconsistentConeError
        If some dual generator has a negative inner product with some
        primal generator (beyond the geometric slack).
    NonPointedConeError
        If no convex combination of dual generators is strictly positive
        on every primal generator (searched on a coarse simplex grid).
    """

    def __init__(self, primal, dual, kind: str = "generated"):
        self.primal = as_matrix(primal)
        self.dim = self.primal.shape[1]
        self.dual = as_matrix(dual, self.dim)
        self.kind = kind
        norms_p = np.linalg.norm(self.primal, axis=1)
        norms_d = np.linalg.norm(self.dual, axis=1)
        if np.any(norms_p <= TOL_GEOM) or np.any(norms_d <= TOL_GEOM):
            raise InvalidDimensionError("cone generators must be nonzero")
        self.unit_primal = self.primal / norms_p[:, None]
        self.unit_primal.flags.writeable = False
        cross = self.dual @ self.primal.T  # (m, k)
        scale = np.outer(norms_d, norms_p)
        if np.min(cross / scale) < -TOL_GEOM:
            i, j = np.unravel_index(np.argmin(cross / scale), cross.shape)
            raise InconsistentConeError(
                f"dual generator {self.dual[i]} is negative on primal "
                f"generator {self.primal[j]}"
            )
        self._witness = self._find_pointedness_witness()
        self._witness.flags.writeable = False

    def _find_pointedness_witness(self) -> np.ndarray:
        """Search a coarse simplex grid of dual combinations for a functional
        strictly positive on every primal generator."""
        weights = simplex_grid(self.dual.shape[0], _WITNESS_RESOLUTION)
        combos = weights @ self.dual
        for z in combos:
            nz = np.linalg.norm(z)
            if nz <= TOL_GEOM:
                continue
            if np.min((z / nz) @ self.unit_primal.T) > TOL_GEOM:
                return z / nz
        raise NonPointedConeError(
            "no dual combination is strictly positive on all primal "
            "generators; the cone is not certified pointed"
        )

    @property
    def pointedness_witness(self) -> np.ndarray:
        """A dual vector strictly positive on every primal generator."""
        return self._witness

    @functools.cached_property
    def planar_basis(self) -> np.ndarray:
        """Rows are the unit extreme dual rays; maps z to staircase
        coordinates u = B @ z in which a planar cone is the nonnegative
        quadrant."""
        lo, hi = extreme_rays_2d(self.dual)
        b = np.stack([lo / np.linalg.norm(lo), hi / np.linalg.norm(hi)])
        if abs(np.linalg.det(b)) <= TOL_GEOM:
            raise UnsupportedDimensionError(
                "planar cone has dependent extreme dual rays; exact geometry "
                "needs a full-dimensional cone"
            )
        # The dual list generates C+ iff its extreme rays are the normals of
        # C's extreme rays; otherwise the staircase is wrong.
        normal = np.abs(b @ np.stack(extreme_rays_2d(self.unit_primal)).T) <= TOL_GEOM
        if not (normal.any(axis=0).all() and normal.any(axis=1).all()):
            raise InconsistentConeError(
                "dual generators do not generate the dual cone: its extreme rays "
                "must be normal to the extreme primal rays"
            )
        b.flags.writeable = False
        return b

    @functools.cached_property
    def certificate_directions(self) -> np.ndarray:
        """Unit dual directions used for sampled containment tests (d >= 3)."""
        base = base_directions(self, default_anchor(self), resolution=6)
        dirs = base.directions / np.linalg.norm(base.directions, axis=1)[:, None]
        dirs.flags.writeable = False
        return dirs

    def __repr__(self) -> str:
        return f"Cone(kind={self.kind!r}, dim={self.dim}, primal={self.primal.tolist()})"

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Cone)
            and self.dim == other.dim
            and self.primal.shape == other.primal.shape
            and self.dual.shape == other.dual.shape
            and np.array_equal(self.primal, other.primal)
            and np.array_equal(self.dual, other.dual)
        )

    def __hash__(self):
        return hash((self.dim, self.primal.tobytes(), self.dual.tobytes()))


def cone_orthant(dim: int) -> Cone:
    """The nonnegative orthant of R^dim (self-dual)."""
    if not isinstance(dim, int) or dim < 1:
        raise InvalidDimensionError(f"dimension must be a positive integer, got {dim!r}")
    eye = np.eye(dim)
    return Cone(eye, eye, kind="orthant")


def cone_generated(primal, dual) -> Cone:
    """A cone from user-supplied primal and dual generator lists.

    The two descriptions are validated against each other: every dual
    generator must be nonnegative on every primal generator, and a
    pointedness witness must exist (a convex combination of dual
    generators strictly positive on all primal generators).
    """
    return Cone(primal, dual, kind="generated")


def dual_contains(cone: Cone, zstar) -> bool:
    """True iff ``zstar`` lies in the dual cone, i.e. has inner product
    >= -TOL_GEOM with every primal generator (scaled by the vector norms)."""
    z = as_vector(zstar, cone.dim)
    nz = np.linalg.norm(z)
    if nz == 0.0:
        return True
    return bool(np.min(cone.unit_primal @ (z / nz)) >= -TOL_GEOM)


class DualBase:
    """A finite family of dual directions normalized against an anchor.

    Every direction w satisfies ``w @ anchor == 1`` and lies in the dual
    cone.  Bases produced by :func:`base_directions` additionally contain
    the normalized dual generators (extreme directions are never dropped
    by deduplication); trimmed interior bases drop them on purpose for
    problems whose extreme scalarizations are non-attaining.
    """

    def __init__(self, cone: Cone, anchor, directions):
        self.cone = cone
        self.anchor = as_vector(anchor, cone.dim)
        dirs = as_matrix(directions, cone.dim)
        prods = dirs @ self.anchor
        if np.any(np.abs(prods - 1.0) > 1e-9):
            raise InvalidDirectionError("directions must be normalized to w @ anchor == 1")
        for w in dirs:
            if not dual_contains(cone, w):
                raise InvalidDirectionError(
                    f"direction {w} lies outside the dual cone"
                )
        self.directions = dirs

    def __len__(self) -> int:
        return self.directions.shape[0]

    def __iter__(self):
        return iter(self.directions)

    def alpha_coordinates(self) -> np.ndarray | None:
        """Barycentric coordinate of each direction against the first
        normalized dual generator (planar cones only, else None)."""
        if self.cone.dim != 2 or self.cone.dual.shape[0] < 2:
            return None
        lo, hi = extreme_rays_2d(self.cone.dual)
        w0 = _normalize_to_anchor(lo, self.anchor)
        w1 = _normalize_to_anchor(hi, self.anchor)
        basis = np.stack([w0, w1], axis=1)
        if abs(np.linalg.det(basis)) <= TOL_GEOM:
            return None
        coords = np.linalg.solve(basis, self.directions.T).T
        return coords[:, 0]


def _normalize_to_anchor(z: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    p = float(z @ anchor)
    if p <= TOL_GEOM * np.linalg.norm(z) * np.linalg.norm(anchor):
        raise InvalidAnchorError(
            f"anchor {anchor} is not strictly positive on dual generator {z}"
        )
    return z / p


def base_directions(cone: Cone, anchor, resolution: int) -> DualBase:
    """Barycentric grid of dual directions on the base ``{w : w @ anchor = 1}``.

    The dual generators are normalized against the anchor and every convex
    combination on the simplex grid with ``resolution`` levels per edge is
    emitted once per point key (see :func:`point_key`).  The normalized dual
    generators themselves always survive deduplication.
    """
    if not isinstance(resolution, int) or resolution < 1:
        raise InvalidDimensionError(
            f"resolution must be a positive integer, got {resolution!r}"
        )
    return _simplex_base(cone, anchor, resolution, interior=False)


def interior_base(cone: Cone, anchor, resolution: int) -> DualBase:
    """Like :func:`base_directions` but keeping only strictly interior
    combinations (every barycentric weight positive).  Used for problems
    whose extreme-direction scalarizations do not attain their infimum.
    """
    if not isinstance(resolution, int) or resolution < 2:
        raise InvalidDimensionError(
            f"interior bases need resolution >= 2, got {resolution!r}"
        )
    return _simplex_base(cone, anchor, resolution, interior=True)


def _simplex_base(cone: Cone, anchor, resolution: int, interior: bool) -> DualBase:
    """The deduplicated simplex-grid combinations of the anchor-normalized
    dual generators (only those with every weight positive when
    ``interior``), planar bases sorted by barycentric coordinate."""
    anchor = as_vector(anchor, cone.dim)
    normalized = np.stack([_normalize_to_anchor(z, anchor) for z in cone.dual])
    weights = simplex_grid(normalized.shape[0], resolution)
    if interior:
        weights = weights[np.all(weights > 0.0, axis=1)]
        if weights.shape[0] == 0:
            raise InvalidDimensionError("resolution too small for an interior base")
    # Put the pure generators first so deduplication keeps them.
    corners_first = np.argsort(weights.max(axis=1) < 1.0, kind="stable")
    kept_arr = unique_rows((weights @ normalized)[corners_first])
    # Stable report order: sort planar bases by barycentric coordinate.
    base = DualBase(cone, anchor, kept_arr)
    alphas = base.alpha_coordinates()
    if alphas is not None:
        base = DualBase(cone, anchor, kept_arr[np.argsort(alphas)])
    return base


def extreme_rays_2d(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two angular extreme rays of a pointed planar generator family.

    The family must fit in an open half-plane (pointedness); the extremes
    are the endpoints around the largest cyclic angular gap.
    """
    vs = as_matrix(vectors, 2)
    angles = np.arctan2(vs[:, 1], vs[:, 0])
    order = np.argsort(angles)
    sorted_angles = angles[order]
    gaps = np.diff(np.concatenate([sorted_angles, [sorted_angles[0] + 2 * math.pi]]))
    widest = int(np.argmax(gaps))
    if gaps[widest] <= math.pi - TOL_GEOM:
        raise NonPointedConeError(
            "generator family spans a half-plane or more; no extreme ray pair"
        )
    lo = vs[order[(widest + 1) % len(order)]]
    hi = vs[order[widest]]
    return lo, hi


def default_anchor(cone: Cone) -> np.ndarray:
    """An interior anchor for dual-base construction: the sum of the
    normalized primal generators (the all-ones vector for orthants),
    validated to be strictly positive on every dual generator.
    """
    anchor = np.sum(cone.unit_primal, axis=0)
    for z in cone.dual:
        if float(z @ anchor) <= TOL_GEOM * np.linalg.norm(z) * np.linalg.norm(anchor):
            raise InvalidAnchorError(
                "no default anchor available: supply one strictly positive "
                "on every dual generator"
            )
    return anchor
