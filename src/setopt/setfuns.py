"""Set-valued objectives on boxes and finite grids.

A set function maps variable-space points to upper-set values over a
fixed cone.  Evaluators must be pure: same point in, same value out,
no shared mutable state.  Three evaluator families are provided:
vector maps extended by the cone, finite generator maps, and explicit
tables on grids.

The inf-translation of a function by a candidate set M is the pointwise
lattice infimum of its M-translates; the sup-translation is the
pointwise supremum.  Translated points that leave the variable space
contribute the empty value, and the translated function lives on the
correspondingly extended space, which keeps the global infimum exactly
invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import (Cone, DualBase, TOL_GEOM, as_matrix, as_vector, dual_contains, point_key,
                    reflected, unique_rows)
from .errors import (
    ConeMismatchError,
    EmptyCandidateError,
    InvalidDimensionError,
    InvalidDirectionError,
    OutOfDomainError,
    UnsupportedDimensionError,
)
from .uppersets import UpperSet, lattice_inf, lattice_sup_2d, support


class Box:
    """An axis-aligned box ``{x : lower <= x <= upper}``."""

    kind = "box"

    def __init__(self, lower, upper):
        self.lower = as_vector(lower)
        self.upper = as_vector(upper, self.lower.shape[0])
        if np.any(self.lower > self.upper):
            raise InvalidDimensionError("box needs lower <= upper componentwise")
        self.dim = self.lower.shape[0]

    def contains(self, x, tol: float = 1e-12) -> bool:
        x = as_vector(x, self.dim)
        slack = tol * np.maximum(1.0, np.abs(self.upper - self.lower))
        return bool(np.all(x >= self.lower - slack) and np.all(x <= self.upper + slack))

    def clip(self, x) -> np.ndarray:
        return np.clip(as_vector(x, self.dim), self.lower, self.upper)

    def __repr__(self) -> str:
        return f"Box({self.lower.tolist()}, {self.upper.tolist()})"


class Grid:
    """An explicit finite point family.  Points are identified by their
    keys (coordinates rounded to 9 decimals, :func:`cones.point_key`), and
    two points with one key are an input error."""

    kind = "grid"

    def __init__(self, points):
        self.points = as_matrix(points)
        self.dim = self.points.shape[1]
        self._index = {point_key(p): i for i, p in enumerate(self.points)}
        if len(self._index) != self.points.shape[0]:
            raise InvalidDimensionError("grid points must be pairwise distinct")

    def index_of(self, x) -> int | None:
        """Index of the point with x's key, None when there is none.  x is
        a float vector; one of another length is simply not found."""
        return self._index.get(point_key(x))

    def contains(self, x) -> bool:
        return self.index_of(x) is not None

    def __len__(self) -> int:
        return self.points.shape[0]

    def __repr__(self) -> str:
        return f"Grid({self.points.shape[0]} points, dim={self.dim})"


VarSpace = Box | Grid


class SetFunction:
    """A set-valued objective: variable space, cone, and a pure evaluator.

    ``vector_map`` is an optional fast path for values of the form
    ``{F(x)} (+) C``; it returns the vector F(x) or None where the value
    is empty.
    """

    def __init__(self, space: VarSpace, cone: Cone, evaluator, vector_map=None,
                 label: str = "setfn"):
        self.space = space
        self.cone = cone
        self._evaluator = evaluator
        self.vector_map = vector_map
        self.label = label

    @classmethod
    def from_vector_map(cls, space: VarSpace, cone: Cone, fn, label: str = "setfn"):
        """Cone extension of a vector map: value {fn(x)} (+) C, Empty where
        fn returns None."""
        def evaluator(x: np.ndarray) -> UpperSet:
            v = fn(x)
            if v is None:
                return UpperSet.empty(cone)
            return UpperSet.from_point(cone, v)
        return cls(space, cone, evaluator, vector_map=fn, label=label)

    @classmethod
    def from_generator_map(cls, space: VarSpace, cone: Cone, fn, label: str = "setfn"):
        """Finitely generated values: fn returns a generator list, or an
        empty list / None for the empty value."""
        def evaluator(x: np.ndarray) -> UpperSet:
            gens = fn(x)
            if gens is None or len(gens) == 0:
                return UpperSet.empty(cone)
            return UpperSet(cone, gens)
        return cls(space, cone, evaluator, label=label)

    @classmethod
    def from_table(cls, cone: Cone, points, values, label: str = "table"):
        """Explicit grid-to-value table."""
        grid = Grid(points)
        values = list(values)
        if len(values) != len(grid):
            raise InvalidDimensionError("table needs one value per grid point")
        def evaluator(x: np.ndarray) -> UpperSet:
            i = grid.index_of(x)
            if i is None:
                raise OutOfDomainError(f"{x} is not a grid point")
            return values[i]
        return cls(grid, cone, evaluator, label=label)


def _in_space(f: SetFunction, x) -> np.ndarray:
    """x as a variable-space vector; raises OutOfDomainError outside the space."""
    x = as_vector(x, f.space.dim)
    if not f.space.contains(x):
        raise OutOfDomainError(f"{x.tolist()} lies outside the variable space")
    return x


def evaluate(f: SetFunction, x) -> UpperSet:
    """Evaluate at an in-space point; raises OutOfDomainError otherwise."""
    return f._evaluator(_in_space(f, x))


def evaluate_or_empty(f: SetFunction, x) -> UpperSet:
    """Evaluate with the translation convention: points outside the space
    yield the empty value instead of an error."""
    x = as_vector(x, f.space.dim)
    if not f.space.contains(x):
        return UpperSet.empty(f.cone)
    return f._evaluator(x)


def scalarize(f: SetFunction, zstar, x) -> float:
    """The scalarization ``inf {z* @ z : z in f(x)}``: +inf on empty
    values; equals z* @ F(x) for cone-extended vector maps."""
    z = as_vector(zstar, f.cone.dim)
    if not dual_contains(f.cone, z):
        raise InvalidDirectionError(f"{z.tolist()} lies outside the dual cone")
    return _scalarize_in_space(f, z, _in_space(f, x))


def _scalarize_or_inf(f: SetFunction, z: np.ndarray, x: np.ndarray) -> float:
    """Scalarization under the translation convention (off-space -> +inf)."""
    if not f.space.contains(x):
        return math.inf
    return _scalarize_in_space(f, z, x)


def _scalarize_in_space(f: SetFunction, z: np.ndarray, x: np.ndarray) -> float:
    """Scalarization at an in-space point, through the vector map when
    there is one."""
    if f.vector_map is not None:
        v = f.vector_map(x)
        return math.inf if v is None else float(z @ as_vector(v, f.cone.dim))
    return support(f._evaluator(x), z)


@dataclass(frozen=True)
class CandidateSet:
    """A finite family of variable-space points, optionally standing for
    its convex hull (realized by barycentric sampling downstream)."""

    points: np.ndarray
    convexified: bool = False
    label: str = "candidate"

    def __post_init__(self):
        if np.asarray(self.points).size == 0:
            raise EmptyCandidateError("a candidate set needs at least one point")
        object.__setattr__(self, "points", as_matrix(self.points))

    def __len__(self) -> int:
        return self.points.shape[0]


def convex_sample_points(points: np.ndarray, extra: int = 32, seed: int = 0) -> np.ndarray:
    """Barycentric samples of the convex hull of ``points``: the points,
    all pairwise midpoints, and ``extra`` seeded random convex combinations."""
    pts = as_matrix(points)
    k = pts.shape[0]
    out = [pts]
    if k >= 2:
        mids = [(pts[i] + pts[j]) / 2.0 for i in range(k) for j in range(i + 1, k)]
        out.append(np.stack(mids))
        if extra > 0:
            rng = np.random.default_rng(seed)
            weights = rng.dirichlet(np.ones(k), size=extra)
            out.append(weights @ pts)
    return np.concatenate(out, axis=0)


def _translation_points(f: SetFunction, m: CandidateSet, co_extra: int, seed: int) -> np.ndarray:
    if len(m) == 0:
        raise EmptyCandidateError("translation needs a nonempty candidate set")
    if m.points.shape[1] != f.space.dim:
        raise InvalidDimensionError("candidate points must live in the variable space")
    if m.convexified:
        return convex_sample_points(m.points, extra=co_extra, seed=seed)
    return m.points


def _translated_space(space: VarSpace, ys: np.ndarray) -> VarSpace:
    """The natural domain of a translated function: every original point
    stays reachable, so global infima are preserved exactly."""
    if isinstance(space, Box):
        return Box(space.lower - ys.max(axis=0), space.upper - ys.min(axis=0))
    shifted = space.points[None, :, :] - ys[:, None, :]
    return Grid(unique_rows(shifted.reshape(-1, space.dim)))


def inf_translation(f: SetFunction, m: CandidateSet, *, co_extra: int = 32,
                    seed: int = 0) -> SetFunction:
    """The pointwise lattice infimum of the M-translates
    ``x -> inf {f(x + y) : y in M}``."""
    ys = _translation_points(f, m, co_extra, seed)
    space = _translated_space(f.space, ys)

    def evaluator(x: np.ndarray) -> UpperSet:
        return lattice_inf([evaluate_or_empty(f, x + y) for y in ys])

    return SetFunction(space, f.cone, evaluator,
                       label=f"inf-translation of {f.label} by {m.label}")


def scalarized_inf_translation(f: SetFunction, m: CandidateSet, zstar, x, *,
                               co_extra: int = 32, seed: int = 0) -> float:
    """The scalarized inf-translation ``min {phi(x + y) : y in M}`` where
    phi is the z*-scalarization of f.  Commutes exactly with scalarizing
    the set-level inf-translation."""
    z = as_vector(zstar, f.cone.dim)
    if not dual_contains(f.cone, z):
        raise InvalidDirectionError(f"{z.tolist()} lies outside the dual cone")
    ys = _translation_points(f, m, co_extra, seed)
    x = as_vector(x, f.space.dim)
    return min(_scalarize_or_inf(f, z, x + y) for y in ys)


def _join_via_reflected_min(cone: Cone, points: np.ndarray) -> np.ndarray:
    """Cone-order join of vectors for simplicial cones: negate, take the
    cone-coordinate minimum in the reflected problem, negate back."""
    g = cone.primal.T
    if g.shape[0] != g.shape[1] or abs(np.linalg.det(g)) <= TOL_GEOM:
        raise UnsupportedDimensionError(
            "vector-level joins need a simplicial cone (d independent generators)"
        )
    coords = np.linalg.solve(g, points.T).T
    reflected_min = np.min(-coords, axis=0)
    return g @ (-reflected_min)


def sup_translation(f: SetFunction, m: CandidateSet, *, co_extra: int = 32,
                    seed: int = 0) -> SetFunction:
    """The pointwise lattice supremum of the M-translates
    ``x -> sup {f(x + y) : y in M}`` (intersection of values).

    Planar values intersect exactly; in other dimensions only
    singleton-generated values over simplicial cones are supported, via
    the reflected-minimization join.
    """
    ys = _translation_points(f, m, co_extra, seed)
    space = _translated_space(f.space, ys)
    cone = f.cone
    # Constructed eagerly so invalid reflections fail at build time.
    _ = reflected(cone)

    def evaluator(x: np.ndarray) -> UpperSet:
        family = [evaluate_or_empty(f, x + y) for y in ys]
        if any(v.is_empty for v in family):
            return UpperSet.empty(cone)
        if cone.dim == 2:
            return lattice_sup_2d(family)
        if all(v.generators.shape[0] == 1 for v in family):
            pts = np.concatenate([v.generators for v in family], axis=0)
            return UpperSet.from_point(cone, _join_via_reflected_min(cone, pts))
        raise UnsupportedDimensionError(
            "sup-translation outside the plane needs singleton-generated values"
        )

    return SetFunction(space, cone, evaluator,
                       label=f"sup-translation of {f.label} by {m.label}")


class ScalarizationProfile:
    """A frozen table of scalarization values over a direction base and a
    point family.  ``values[i, j]`` is the i-th direction at the j-th
    point; entries may be +inf.  ``sets[j]`` is the value f took at the
    j-th point (empty off the space), held so that checks on the same
    points need not evaluate f again."""

    def __init__(self, base: DualBase, points: np.ndarray, values: np.ndarray, sets):
        self.base = base
        self.points = as_matrix(points)
        self.values = np.asarray(values, dtype=float)
        self.sets = tuple(sets)
        if (self.values.shape != (len(base), self.points.shape[0])
                or len(self.sets) != self.points.shape[0]):
            raise InvalidDimensionError("profile shape mismatch")
        self.values.flags.writeable = False

    @classmethod
    def build(cls, f: SetFunction, base: DualBase, points) -> "ScalarizationProfile":
        """Evaluate f once per point; the point's column is the minimum of
        its generators' products with every base direction (+inf on empty
        values).  The base has already checked its directions against the
        cone, so they need no per-entry dual-cone test."""
        if base.cone != f.cone:
            raise ConeMismatchError("the direction base and the function use different cones")
        pts = as_matrix(points, f.space.dim)
        sets = [evaluate_or_empty(f, x) for x in pts]
        values = np.full((len(base), pts.shape[0]), math.inf)
        for j, v in enumerate(sets):
            if not v.is_empty:
                values[:, j] = np.min(v.generators @ base.directions.T, axis=0)
        return cls(base, pts, values, sets)
