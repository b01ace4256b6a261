"""Finitely generated upper sets and their lattice operations.

A value is ``co(P) (+) C``: the closed convex hull of finitely many
generator points, fattened by the ordering cone.  The empty set is a
legitimate value (the top element); the whole-space bottom element is not
representable and never arises from these operations.

Dimensions 1 and 2 run on exact vertex/facet geometry.  The planar case
is normalized into dual-ray coordinates (the cone's ``planar_basis``),
where the cone becomes the nonnegative orthant and the minimal boundary
is a southwest staircase.  For d >= 3 containment falls back to a
sampled-direction support certificate over the cone's
``certificate_directions``.  That certificate is approximate: a point
outside a value can pass every sampled direction, so :func:`prune` can
drop a generator the value needs (it does on the benchmark's
``fixed_table1`` table).  Each value computes its minimal frontier once,
and :func:`prune` returns it.

Containment runs one family at a time: the inequalities of many values
(planar staircase facets, the d = 1 lower bound, or the d >= 3 certificate
minima) are stacked into one table, and one comparison tells which rows
of a point array lie in which value.  :func:`lattice_minimal` tests each
value's minimal generators against the table of all its rivals at once;
:func:`contains_point` and :func:`order_geq` are the one-value cases of
the same kernel, so every containment verdict comes from one rule.
"""

from __future__ import annotations

import math

import numpy as np

from .cones import Cone, TOL_GEOM, as_matrix, as_vector, dual_contains
from .errors import (
    ConeMismatchError,
    EmptyFamilyError,
    GeneratorLimitError,
    InvalidScalarError,
    UnsupportedDimensionError,
)

#: Hard cap on raw generator counts fed through lattice operations.
GENERATOR_LIMIT = 10000


def _staircase_frontier(u: np.ndarray, tol: float) -> list[int]:
    """Indices of the minimal vertices of ``co(u) + R^2_+``.

    Pareto staircase filter followed by a convexity filter; input rows in
    staircase coordinates, output ordered by first coordinate ascending.
    Tolerances are local (edge-length scaled) so dense samplings of smooth
    curves are not cascade-thinned.
    """
    order = np.lexsort((u[:, 1], u[:, 0]))
    staircase: list[int] = []
    best = math.inf
    for i in order:
        local = tol * max(1.0, abs(u[i, 0]), abs(u[i, 1]))
        if u[i, 1] < best - local:
            staircase.append(int(i))
            best = u[i, 1]
    hull: list[int] = []
    for i in staircase:
        while len(hull) >= 2:
            a, b, c = u[hull[-2]], u[hull[-1]], u[i]
            e1 = b - a
            e2 = c - b
            cross = e1[0] * e2[1] - e1[1] * e2[0]
            # Angle-based collinearity: drop b when the turn is below tol.
            if cross <= tol * float(np.linalg.norm(e1) * np.linalg.norm(e2)):
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _staircase_facets(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Facet inequalities ``N @ u >= h`` of ``co(verts) + R^2_+``: unit
    normals as the rows of N, offsets as h; ``verts`` ordered by first
    coordinate ascending."""
    normals = [np.array([1.0, 0.0])]
    offsets = [float(verts[0, 0])]
    for a, b in zip(verts[:-1], verts[1:]):
        e = b - a
        n = np.array([-e[1], e[0]])
        n /= np.linalg.norm(n)
        normals.append(n)
        offsets.append(float(n @ a))
    normals.append(np.array([0.0, 1.0]))
    offsets.append(float(verts[-1, 1]))
    return np.stack(normals), np.array(offsets)


class UpperSet:
    """An ordering-cone upper set with a finite generator description.

    Instances are immutable; the generator array is stored as given
    (validated, not pruned) and geometric queries work off the lazily
    computed minimal frontier.  Use :func:`prune` for a minimal
    description.
    """

    def __init__(self, cone: Cone, generators=None):
        self.cone = cone
        gens = np.asarray([] if generators is None else generators, dtype=float)
        if gens.size == 0:
            gens = np.empty((0, cone.dim))
            gens.flags.writeable = False
        else:
            gens = as_matrix(gens, cone.dim)  # a read-only copy
        self._adopt(gens)

    @classmethod
    def _of_rows(cls, cone: Cone, rows: np.ndarray) -> "UpperSet":
        """A value over rows that were validated for this cone already
        (finite, read-only, of its dimension): only the budget is checked."""
        a = cls.__new__(cls)
        a.cone = cone
        a._adopt(rows)
        return a

    def _adopt(self, gens: np.ndarray) -> None:
        if gens.shape[0] > GENERATOR_LIMIT:
            raise GeneratorLimitError(
                f"{gens.shape[0]} generators exceed the budget {GENERATOR_LIMIT}"
            )
        self.generators = gens
        self._frontier_idx: list[int] | None = None
        self._minimal: np.ndarray | None = None
        self._facets: tuple[np.ndarray, np.ndarray] | None = None
        # max(1, largest |staircase coordinate| of any generator), set with
        # the facets: the planar containment tolerance scales with it
        self._u_scale = 1.0

    @classmethod
    def empty(cls, cone: Cone) -> "UpperSet":
        return cls(cone, None)

    @classmethod
    def from_point(cls, cone: Cone, point) -> "UpperSet":
        return cls(cone, [as_vector(point, cone.dim)])

    @property
    def is_empty(self) -> bool:
        return self.generators.shape[0] == 0

    @property
    def tag(self) -> str:
        return "Empty" if self.is_empty else "Proper"

    @property
    def dim(self) -> int:
        return self.cone.dim

    # -- internal geometry ------------------------------------------------

    def _u(self) -> np.ndarray:
        return self.generators @ self.cone.planar_basis.T

    def _frontier(self) -> list[int]:
        if self._frontier_idx is None:
            if self.dim == 1:
                self._frontier_idx = [int(np.argmin(self.generators[:, 0]))]
            elif self.dim == 2:
                self._frontier_idx = _staircase_frontier(self._u(), TOL_GEOM)
            else:
                self._frontier_idx = _certificate_frontier(self)
        return self._frontier_idx

    def facets(self) -> tuple[np.ndarray, np.ndarray]:
        """Planar facet inequalities ``normals @ u >= offsets`` in staircase
        coordinates, as the pair (normals, offsets)."""
        if self.dim != 2:
            raise UnsupportedDimensionError("facets are a planar concept here")
        if self._facets is None:
            u = self._u()
            self._facets = _staircase_facets(u[self._frontier()])
            self._u_scale = max(1.0, float(np.max(np.abs(u))))
        return self._facets

    def minimal_generators(self) -> np.ndarray:
        """The pruned generator array, frontier-ordered for d <= 2
        (read-only, computed once)."""
        if self.is_empty:
            return self.generators
        if self._minimal is None:
            self._minimal = self.generators[self._frontier()]
            self._minimal.flags.writeable = False
        return self._minimal

    def __repr__(self) -> str:
        if self.is_empty:
            return f"UpperSet(Empty, dim={self.dim})"
        return f"UpperSet({self.generators.shape[0]} generators, dim={self.dim})"


def _certificate_frontier(a: UpperSet) -> list[int]:
    """Greedy redundancy filter for d >= 3 via sampled support dominance."""
    dirs = a.cone.certificate_directions
    gens = a.generators
    prods = gens @ dirs.T  # (k, ndirs)
    scale = max(1.0, float(np.max(np.abs(gens))))
    active = list(range(gens.shape[0]))
    i = 0
    while i < len(active):
        others = [j for j in active if j != active[i]]
        if not others:
            break
        mins = prods[others].min(axis=0)
        if np.all(prods[active[i]] >= mins - TOL_GEOM * scale):
            active.pop(i)
        else:
            i += 1
    return active


def _require_same_cone(*values: UpperSet) -> Cone:
    cone = values[0].cone
    for v in values[1:]:
        if v.cone != cone:
            raise ConeMismatchError("values were built over different cones")
    return cone


def oplus(a: UpperSet, b: UpperSet) -> UpperSet:
    """Minkowski sum followed by closure: pairwise generator sums, pruned.
    The empty set absorbs."""
    cone = _require_same_cone(a, b)
    if a.is_empty or b.is_empty:
        return UpperSet.empty(cone)
    ka, kb = a.generators.shape[0], b.generators.shape[0]
    if ka * kb > GENERATOR_LIMIT:
        raise GeneratorLimitError(
            f"{ka * kb} pairwise sums exceed the budget {GENERATOR_LIMIT}"
        )
    sums = (a.generators[:, None, :] + b.generators[None, :, :]).reshape(-1, cone.dim)
    return prune(UpperSet(cone, sums))


def scale(t: float, a: UpperSet) -> UpperSet:
    """Conlinear scaling: elementwise for t > 0, and 0 * A = cl C for every
    value A, including the empty set."""
    if not np.isfinite(t) or t < 0:
        raise InvalidScalarError(f"scale factor must be finite and >= 0, got {t!r}")
    if t == 0.0:
        return UpperSet(a.cone, np.zeros((1, a.cone.dim)))
    if a.is_empty:
        return UpperSet.empty(a.cone)
    return UpperSet(a.cone, t * a.generators)


def lattice_inf(values) -> UpperSet:
    """Lattice infimum: closed convex hull of the union, as pruned
    generators.  An all-Empty family yields Empty."""
    values = list(values)
    if not values:
        raise EmptyFamilyError("lattice_inf needs a nonempty family")
    cone = _require_same_cone(*values)
    gens = [v.generators for v in values if not v.is_empty]
    if not gens:
        return UpperSet.empty(cone)
    union = np.concatenate(gens, axis=0)
    union.flags.writeable = False
    return prune(UpperSet._of_rows(cone, union))


def support(a: UpperSet, zstar) -> float:
    """Lower support value ``inf {z* @ z : z in A}``.

    +inf on the empty set; -inf when z* leaves the dual cone on a proper
    value; otherwise the minimum over generators.
    """
    z = as_vector(zstar, a.dim)
    if a.is_empty:
        return math.inf
    if not dual_contains(a.cone, z):
        return -math.inf
    return float(np.min(a.generators @ z))


def _facet_table(values: list) -> tuple:
    """The containment inequalities of proper values over one cone,
    stacked into one table: for d = 1 each value's lower bound; for d = 2
    each value's staircase facets, the containment scale of the value each
    facet belongs to, and where each value's facets start; for d >= 3 each
    value's minima along the certificate directions and its scale."""
    dim = values[0].dim
    if dim == 1:
        return (np.array([float(np.min(v.generators[:, 0])) for v in values]),)
    if dim == 2:
        facets = [v.facets() for v in values]
        sizes = [h.shape[0] for _, h in facets]
        return (np.concatenate([n for n, _ in facets]), np.concatenate([h for _, h in facets]),
                np.repeat([v._u_scale for v in values], sizes),
                np.cumsum([0] + sizes[:-1]))
    dirs = values[0].cone.certificate_directions
    return (np.stack([(v.generators @ dirs.T).min(axis=0) for v in values]),
            np.array([max(1.0, float(np.max(np.abs(v.generators)))) for v in values]))


def _inside(cone: Cone, table: tuple, q: np.ndarray, tol: float) -> np.ndarray:
    """Which rows of q lie in each value of a :func:`_facet_table`, all in
    one comparison, as a (values, rows) array: exact facet arithmetic for
    d <= 2, the sampled support certificate for d >= 3.  A value's verdict
    on a row does not depend on the other values in the table, and for
    d >= 2 each row's tolerance scales with its own magnitude."""
    if cone.dim == 1:
        (lo,) = table
        return q[None, :, 0] >= (lo - tol * np.maximum(1.0, np.abs(lo)))[:, None]
    if cone.dim == 2:
        normals, offsets, scales, starts = table
        u = q @ cone.planar_basis.T
        # elementwise, not a matrix product, so that a facet's products do
        # not depend on where the facet sits in the table
        prods = u[:, :1] * normals[:, 0] + u[:, 1:] * normals[:, 1]
        scale_ = np.maximum(np.abs(u).max(axis=1)[:, None], scales)
        ok = prods >= offsets - tol * scale_
        return np.logical_and.reduceat(ok, starts, axis=1).T
    mins, scales = table
    scale_ = np.maximum(scales[:, None], np.abs(q).max(axis=1))
    prods = q @ cone.certificate_directions.T
    return (prods[None] >= mins[:, None, :] - tol * scale_[:, :, None]).all(axis=2)


def contains_point(a: UpperSet, q, tol: float = TOL_GEOM) -> bool:
    """Membership test, the one-row case of :func:`order_geq`'s kernel.
    Always false on the empty set."""
    if a.is_empty:
        return False
    return bool(_inside(a.cone, _facet_table([a]), as_vector(q, a.dim)[None, :], tol)[0, 0])


def order_geq(a: UpperSet, b: UpperSet, tol: float = TOL_GEOM) -> bool:
    """Lattice order ``a >= b`` for minimization: a is the larger (worse)
    value iff a is contained in b as a set, tested on all of a's minimal
    generators at once; the one-rival case of :func:`lattice_minimal`'s
    kernel.  Empty is the top element."""
    _require_same_cone(a, b)
    if a.is_empty:
        return True
    if b.is_empty:
        return False
    return bool(_inside(a.cone, _facet_table([b]), a.minimal_generators(), tol).all())


def equals(a: UpperSet, b: UpperSet, tol: float = TOL_GEOM) -> bool:
    """Set equality via mutual containment."""
    return order_geq(a, b, tol) and order_geq(b, a, tol)


def lattice_minimal(values, rivals) -> list[bool]:
    """For each value a, whether no rival v is strictly smaller in the
    lattice: ``order_geq(a, v) and not order_geq(v, a)`` holds for none.
    No value is strictly smaller than itself, so ``values`` may be among
    the rivals.

    One value at a time, its minimal generators are tested against the
    stacked facet table of all proper rivals in one comparison; only the
    rivals that contain the value get the reverse test, by
    :func:`order_geq`.  The empty value lies above every proper rival."""
    values, rivals = list(values), list(rivals)
    if not values:
        return []
    _require_same_cone(*values, *rivals)
    proper = [v for v in rivals if not v.is_empty]
    if not proper:
        return [True] * len(values)
    cone = proper[0].cone
    table = _facet_table(proper)
    out = []
    for a in values:
        if a.is_empty:
            out.append(False)
            continue
        below = _inside(cone, table, a.minimal_generators(), TOL_GEOM).all(axis=1)
        out.append(all(order_geq(v, a) for v, b in zip(proper, below) if b))
    return out


def prune(a: UpperSet) -> UpperSet:
    """Minimal generator description: drops every generator contained in
    the upper set spanned by the others."""
    return UpperSet._of_rows(a.cone, a.minimal_generators())


def boundary_polyline(a: UpperSet) -> tuple[np.ndarray, np.ndarray]:
    """Ordered minimal vertices plus the unit recession directions of the
    two unbounded boundary edges (planar values only)."""
    if a.dim != 2:
        raise UnsupportedDimensionError("boundary polylines are planar output")
    if a.is_empty:
        return np.empty((0, 2)), np.empty((0, 2))
    verts = a.minimal_generators()
    basis = a.cone.planar_basis
    # u-axis rays map back to the unbounded edge directions.
    ray_start = np.linalg.solve(basis, np.array([0.0, 1.0]))
    ray_end = np.linalg.solve(basis, np.array([1.0, 0.0]))
    rays = np.stack([
        ray_start / np.linalg.norm(ray_start),
        ray_end / np.linalg.norm(ray_end),
    ])
    return verts, rays

