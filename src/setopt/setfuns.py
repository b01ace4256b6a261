"""Set-valued objectives on boxes and finite grids.

A set function maps variable-space points to upper-set values over a
fixed cone.  Evaluators must be pure: same point in, same value out,
no shared mutable state.  Three evaluator families are provided:
vector maps extended by the cone, finite generator maps, and explicit
tables on grids (:class:`FiniteInstance`, which the oracle reads too).

The inf-translation of a function by a candidate set M is the pointwise
lattice infimum of its M-translates.  Translated points that leave the
variable space contribute the empty value, and the translated function
lives on the correspondingly extended space, which keeps the global
infimum exactly invariant.  :func:`translated_values` is the one
implementation: it evaluates every translate ``x + y`` through one
:meth:`SetFunction.values_at` call (one batched key lookup on a table)
and takes one lattice infimum per point.  :func:`inf_translation` is its
one-point case, and the oracle checks the translation identities on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import (KEY_DECIMALS, Cone, DualBase, as_matrix, as_vector, dual_contains,
                    point_key, unique_rows)
from .errors import (
    ConeMismatchError,
    EmptyCandidateError,
    InputFormatError,
    InvalidDimensionError,
    InvalidDirectionError,
    OutOfDomainError,
)
from .uppersets import UpperSet, lattice_inf, support

#: Seeded random convex combinations that sample a candidate's hull in
#: the verifier's hull gap.
CO_SAMPLES = 32


class Box:
    """An axis-aligned box ``{x : lower <= x <= upper}``."""

    kind = "box"

    def __init__(self, lower, upper):
        self.lower = as_vector(lower)
        self.upper = as_vector(upper, self.lower.shape[0])
        if np.any(self.lower > self.upper):
            raise InvalidDimensionError("box needs lower <= upper componentwise")
        self.dim = self.lower.shape[0]

    def contains_rows(self, points) -> np.ndarray:
        """Which rows of points lie in the box, up to a slack of 1e-12 times
        each side's length (at least 1e-12), in one comparison."""
        xs = as_matrix(points, self.dim)
        slack = 1e-12 * np.maximum(1.0, np.abs(self.upper - self.lower))
        return ((xs >= self.lower - slack) & (xs <= self.upper + slack)).all(axis=1)

    def contains(self, x) -> bool:
        """The one-row case of :meth:`contains_rows`."""
        return bool(self.contains_rows(as_vector(x, self.dim))[0])

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

    def indices_of(self, points) -> np.ndarray:
        """Index of the point with each row's key, -1 where there is none:
        one rounding pass (the :func:`cones.point_key` rule) and one dict
        lookup per row.  A vector is one row; rows of another length are
        simply not found."""
        rows = np.round(np.asarray(points, dtype=float), KEY_DECIMALS)
        get = self._index.get
        return np.array([get(tuple(r), -1) for r in rows.reshape(-1, rows.shape[-1]).tolist()],
                        dtype=np.intp)

    def index_of(self, x) -> int | None:
        """Index of the point with x's key, None when there is none: the
        one-row case of :meth:`indices_of`."""
        i = int(self.indices_of(x)[0])
        return None if i < 0 else i

    def contains_rows(self, points) -> np.ndarray:
        """Which rows of points are grid points: one :meth:`indices_of` batch."""
        return self.indices_of(points) >= 0

    def contains(self, x) -> bool:
        """The one-row case of :meth:`contains_rows`."""
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

    def values_at(self, points) -> list:
        """The value at each row of points, the empty value off the space:
        one membership test over all rows, then one evaluation per row in
        the space."""
        xs = as_matrix(points, self.space.dim)
        empty = UpperSet.empty(self.cone)
        return [self._evaluator(x) if inside else empty
                for x, inside in zip(xs, self.space.contains_rows(xs))]

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


class FiniteInstance(SetFunction):
    """A fully tabulated set function: grid points, one upper-set value per
    point, indexed through a :class:`Grid` (two points with one key are an
    input error).  Off the grid, evaluation raises; :meth:`values_at`, and
    so every translation, reads the empty value there."""

    def __init__(self, grid, values, cone: Cone, label: str = "instance"):
        space = Grid(grid)
        self.grid = space.points
        self.values = values = tuple(values)
        if len(values) != len(space):
            raise InvalidDimensionError("every grid point needs a value")
        for v in values:
            if not isinstance(v, UpperSet):
                raise InvalidDimensionError("values must be upper sets")

        def evaluator(x: np.ndarray) -> UpperSet:
            i = space.index_of(x)
            if i is None:
                raise OutOfDomainError(f"{x} is not a grid point")
            return values[i]
        super().__init__(space, cone, evaluator, label=label)

    @property
    def size(self) -> int:
        return self.grid.shape[0]

    def values_at(self, points) -> list:
        """The table value at each row of points, the empty value off the
        grid, from one :meth:`Grid.indices_of` batch."""
        empty = UpperSet.empty(self.cone)
        return [self.values[i] if i >= 0 else empty
                for i in self.space.indices_of(as_matrix(points, self.space.dim))]

    def index_of(self, point) -> int:
        """Grid index of a point, or -1 when it is off the grid."""
        i = self.space.index_of(point)
        return -1 if i is None else i

    def subset_indices(self, points) -> tuple:
        pts = as_matrix(points, self.grid.shape[1])
        out = []
        for p in pts:
            i = self.index_of(p)
            if i < 0:
                raise OutOfDomainError(f"subset point {p.tolist()} is off the grid")
            out.append(i)
        return tuple(dict.fromkeys(out))


def _require_in_space(f: SetFunction, points) -> None:
    """Raise OutOfDomainError naming the first row of points that lies
    outside the variable space, after one membership test over all rows."""
    xs = as_matrix(points, f.space.dim)
    inside = f.space.contains_rows(xs)
    if not inside.all():
        raise OutOfDomainError(
            f"{xs[int(np.argmin(inside))].tolist()} lies outside the variable space")


def _in_space(f: SetFunction, x) -> np.ndarray:
    """x as a variable-space vector; raises OutOfDomainError outside the
    space: the one-row case of :func:`_require_in_space`."""
    x = as_vector(x, f.space.dim)
    _require_in_space(f, x)
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
    """A finite family of variable-space points.  Translations use the
    points themselves; the verifier samples their convex hull."""

    points: np.ndarray
    label: str = "candidate"

    def __post_init__(self):
        if np.asarray(self.points).size == 0:
            raise EmptyCandidateError("a candidate set needs at least one point")
        object.__setattr__(self, "points", as_matrix(self.points))

    def __len__(self) -> int:
        return self.points.shape[0]


def _check_hull_samples(extra: int) -> None:
    if extra < 0:
        raise InputFormatError(f"the hull sample count must be nonnegative, got {extra}")


def convex_sample_points(points: np.ndarray, extra: int = CO_SAMPLES, seed: int = 0) -> np.ndarray:
    """Barycentric samples of the convex hull of ``points``: the points,
    all pairwise midpoints, and ``extra`` (at least 0) seeded random ones."""
    _check_hull_samples(extra)
    pts = as_matrix(points)
    k = pts.shape[0]
    out = [pts]
    if k >= 2:
        mids = [(pts[i] + pts[j]) / 2.0 for i in range(k) for j in range(i + 1, k)]
        out.append(np.stack(mids))
        weights = np.random.default_rng(seed).dirichlet(np.ones(k), size=extra)
        out.append(weights @ pts)
    return np.concatenate(out, axis=0)


def _translation_points(f: SetFunction, m: CandidateSet) -> np.ndarray:
    # a CandidateSet is never empty
    if m.points.shape[1] != f.space.dim:
        raise InvalidDimensionError("candidate points must live in the variable space")
    return m.points


def translated_domain(points: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Every ``p - y`` for p in points and y in ys, deduplicated by key.
    Translating by ys from these points reaches every one of the points,
    so the translated function keeps their infimum exactly."""
    diffs = points[None, :, :] - ys[:, None, :]
    return unique_rows(diffs.reshape(-1, points.shape[1]))


def _translated_space(space: VarSpace, ys: np.ndarray) -> VarSpace:
    """The natural domain of a translated function: every original point
    stays reachable, so global infima are preserved exactly."""
    if isinstance(space, Box):
        return Box(space.lower - ys.max(axis=0), space.upper - ys.min(axis=0))
    return Grid(translated_domain(space.points, ys))


def translated_values(f: SetFunction, xs, ys) -> list:
    """The inf-translation ``inf {f(x + y) : y in ys}`` at every row x of
    xs: every translate goes through one :meth:`SetFunction.values_at`
    call (off the space it is the empty value), then one lattice infimum
    per row."""
    xs = as_matrix(xs, f.space.dim)
    ys = as_matrix(ys, f.space.dim)
    values = f.values_at((xs[:, None, :] + ys[None, :, :]).reshape(-1, f.space.dim))
    k = ys.shape[0]
    return [lattice_inf(values[i:i + k]) for i in range(0, len(values), k)]


def inf_translation(f: SetFunction, m: CandidateSet) -> SetFunction:
    """The pointwise lattice infimum of the M-translates
    ``x -> inf {f(x + y) : y in M}``: the one-row case of
    :func:`translated_values`."""
    ys = _translation_points(f, m)
    space = _translated_space(f.space, ys)

    def evaluator(x: np.ndarray) -> UpperSet:
        return translated_values(f, x, ys)[0]

    return SetFunction(space, f.cone, evaluator,
                       label=f"inf-translation of {f.label} by {m.label}")


def scalarized_inf_translation(f: SetFunction, m: CandidateSet, zstar, x) -> float:
    """The scalarized inf-translation ``min {phi(x + y) : y in M}`` where
    phi is the z*-scalarization of f.  Commutes exactly with scalarizing
    the set-level inf-translation."""
    z = as_vector(zstar, f.cone.dim)
    if not dual_contains(f.cone, z):
        raise InvalidDirectionError(f"{z.tolist()} lies outside the dual cone")
    ys = _translation_points(f, m)
    x = as_vector(x, f.space.dim)
    return min(_scalarize_or_inf(f, z, x + y) for y in ys)


def _profile_points(f: SetFunction, base: DualBase, points) -> np.ndarray:
    """The points of a profile of f over base, as a matrix, after the
    checks that a profile makes before it evaluates f."""
    if base.cone != f.cone:
        raise ConeMismatchError("the direction base and the function use different cones")
    return as_matrix(points, f.space.dim)


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
        pts = _profile_points(f, base, points)
        sets = f.values_at(pts)
        values = np.full((len(base), pts.shape[0]), math.inf)
        for j, v in enumerate(sets):
            if not v.is_empty:
                values[:, j] = np.min(v.generators @ base.directions.T, axis=0)
        return cls(base, pts, values, sets)
