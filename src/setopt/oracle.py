"""Brute-force ground truth on finite instances.

A finite instance pins a set-valued function down to a desk-scale table:
a finite grid of argument points, one planar upper-set value per point.
Everything here is exhaustive arithmetic over that table: exact lattice
infima in both the union form and the convexified form, enumeration of
lattice minimizers by pairwise comparison, and clause-by-clause checks
of the translation identities that the fast modules rely on.

Translations that leave the grid evaluate to the empty value (the top of
the lattice), the same convention the set-function module uses, so the
identities are exact on finite data.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cones import Cone, cone_orthant, cone_generated, as_matrix, as_vector, unique_rows
from .errors import InvalidDimensionError, OutOfDomainError
from .setfuns import Grid
from .uppersets import UpperSet, equals, lattice_inf, oplus, order_geq, support

@dataclass(frozen=True)
class FiniteInstance:
    """A fully tabulated problem: grid points, one value per point.  The
    points are indexed through a :class:`setfuns.Grid`, so two points with
    one key are an input error."""

    grid: np.ndarray
    values: tuple
    cone: Cone
    label: str = "instance"

    def __post_init__(self):
        points = Grid(self.grid)
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "grid", points.points)
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != len(points):
            raise InvalidDimensionError("every grid point needs a value")
        if self.cone.dim != 2:
            raise InvalidDimensionError(
                "finite instances require planar values for exact hulls")
        for v in self.values:
            if not isinstance(v, UpperSet):
                raise InvalidDimensionError("values must be upper sets")

    @property
    def size(self) -> int:
        return self.grid.shape[0]

    def index_of(self, point) -> int:
        """Grid index of a point, or -1 when it is off the grid."""
        i = self._points.index_of(point)
        return -1 if i is None else i

    def value_at(self, point) -> UpperSet:
        """The tabulated value, or the empty value off the grid."""
        i = self.index_of(point)
        return self.values[i] if i >= 0 else UpperSet.empty(self.cone)

    def subset_indices(self, points) -> tuple:
        pts = as_matrix(points, self.grid.shape[1])
        out = []
        for p in pts:
            i = self.index_of(p)
            if i < 0:
                raise OutOfDomainError(f"subset point {p.tolist()} is off the grid")
            out.append(i)
        return tuple(dict.fromkeys(out))


def exact_inf(inst: FiniteInstance, subset=None):
    """Exact lattice infimum over a subset (default: whole grid).

    Returns the convexified infimum as an upper set together with the raw
    generator union (the vertex data of the unconvexified infimum); the
    two differ exactly when convexification adds points, which is the gap
    a convex solver glosses over.
    """
    if subset is None:
        idx = tuple(range(inst.size))
    else:
        idx = inst.subset_indices(subset)
    if not idx:
        raise InvalidDimensionError("subset must be nonempty")
    vals = [inst.values[i] for i in idx]
    g_inf = lattice_inf(vals)
    gens = [v.minimal_generators() for v in vals if not v.is_empty]
    f_gens = unique_rows(np.vstack(gens)) if gens else np.zeros((0, inst.cone.dim))
    return g_inf, f_gens


def enumerate_lattice_minimizers(inst: FiniteInstance, tol: float = 1e-9) -> np.ndarray:
    """All grid points with no strictly smaller value anywhere on the grid,
    by exhaustive pairwise comparison."""
    keep = []
    for i in range(inst.size):
        vi = inst.values[i]
        minimal = True
        for j in range(inst.size):
            if i == j:
                continue
            vj = inst.values[j]
            if order_geq(vi, vj, tol) and not equals(vi, vj, tol):
                minimal = False
                break
        if minimal:
            keep.append(i)
    return inst.grid[keep]


def minimizers_form_infimizer(inst: FiniteInstance, tol: float = 1e-9) -> bool:
    """Whether the enumerated minimizers already attain the grid infimum."""
    mins = enumerate_lattice_minimizers(inst, tol)
    if mins.shape[0] == 0:
        return False
    total, _ = exact_inf(inst)
    part, _ = exact_inf(inst, mins)
    return equals(total, part, tol)


def inf_translate(inst: FiniteInstance, x, subset_idx) -> UpperSet:
    """Value of the translation-infimum at x for the given index subset."""
    x = as_vector(x, inst.grid.shape[1])
    return lattice_inf([inst.value_at(x + inst.grid[i]) for i in subset_idx])


def translated_domain(inst: FiniteInstance, subset_idx) -> np.ndarray:
    """All points of the form (grid point) - (subset point), deduplicated.
    Restricting the translated function to this set preserves the exact
    infimum: every grid point stays reachable."""
    diffs = inst.grid[None, :, :] - inst.grid[list(subset_idx), None, :]
    return unique_rows(diffs.reshape(-1, inst.grid.shape[1]))


def _translated_value(inst: FiniteInstance, x, subset_idx,
                      fhat_override=None) -> UpperSet:
    """The translated value at x for an index subset, unless
    ``fhat_override`` supplies one (it returns None to defer)."""
    if fhat_override is not None:
        v = fhat_override(np.asarray(x, dtype=float), frozenset(subset_idx))
        if v is not None:
            return v
    return inf_translate(inst, x, subset_idx)


@dataclass
class ClauseResult:
    name: str
    passed: bool
    witness: str | None = None


@dataclass
class LemmaReport:
    """Per-clause verdicts for the translation-identity checks."""

    clauses: list
    infimizer: bool
    supersets_mode: str
    supersets_checked: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "infimizer": self.infimizer,
            "supersets_mode": self.supersets_mode,
            "supersets_checked": self.supersets_checked,
            "clauses": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in self.clauses
            ],
        }


def _superset_family(inst: FiniteInstance, m_idx, power_limit: int,
                     sample_count: int, seed: int, extra=()):
    """Index subsets between m and the grid: the full power set of the
    complement when small enough, otherwise a seeded sample (always
    including m, the grid, and any explicitly requested sets)."""
    rest = [i for i in range(inst.size) if i not in m_idx]
    if 2 ** len(rest) <= power_limit:
        fams = []
        for r in range(len(rest) + 1):
            for combo in itertools.combinations(rest, r):
                fams.append(tuple(sorted(set(m_idx) | set(combo))))
        return fams, "exhaustive"
    rng = np.random.default_rng(seed)
    fams = {tuple(sorted(m_idx)), tuple(range(inst.size))}
    for e in extra:
        fams.add(tuple(sorted(e)))
    while len(fams) < sample_count:
        mask = rng.random(len(rest)) < rng.uniform(0.1, 0.9)
        fams.add(tuple(sorted(set(m_idx) | {rest[i] for i in np.nonzero(mask)[0]})))
    return sorted(fams), "sampled"


def check_inf_translation_lemma(inst: FiniteInstance, m, n=None, *,
                                power_limit: int = 4096, sample_count: int = 64,
                                seed: int = 0, tol: float = 1e-9,
                                fhat_override=None) -> LemmaReport:
    """Exhaustively check the translation identities on a finite instance.

    m and n are point subsets of the grid with m contained in n (n
    defaults to the whole grid).  Clause c4 asks that the origin value of
    each tested superset equals the grid infimum exactly when m attains
    it.  ``fhat_override``, when given, is
    consulted for every translated value (returning None defers to the
    honest computation); it exists so tests can corrupt the table and
    confirm the clauses actually detect it.
    """
    m_idx = inst.subset_indices(m)
    n_idx = inst.subset_indices(n) if n is not None else tuple(range(inst.size))
    if not set(m_idx) <= set(n_idx):
        raise OutOfDomainError("m must be a subset of n")

    fhat = functools.partial(_translated_value, inst, fhat_override=fhat_override)
    clauses: list[ClauseResult] = []
    zero = np.zeros(inst.grid.shape[1])

    # (a) growing the translation set can only improve every value
    dom_m = translated_domain(inst, m_idx)
    dom_n = translated_domain(inst, n_idx)
    dom_union = unique_rows(np.vstack([dom_m, dom_n]))
    witness = None
    for x in dom_union:
        if not order_geq(fhat(x, m_idx), fhat(x, n_idx), tol):
            witness = f"antitonicity fails at x={x.tolist()}"
            break
    clauses.append(ClauseResult("a_antitone", witness is None, witness))

    # (b) translating never changes the reachable infimum
    total_inf, _ = exact_inf(inst)
    hat_inf = lattice_inf([fhat(x, m_idx) for x in dom_m])
    ok = equals(hat_inf, total_inf, tol)
    clauses.append(ClauseResult(
        "b_inf_preserved", ok,
        None if ok else "translated infimum differs from the grid infimum"))

    # (c1) <=> (c2): m attains the infimum iff the translated function
    # attains it at the origin
    m_inf, _ = exact_inf(inst, inst.grid[list(m_idx)])
    c1 = equals(m_inf, total_inf, tol)
    at_zero = fhat(zero, m_idx)
    c2 = equals(at_zero, hat_inf, tol)
    ok = c1 == c2
    clauses.append(ClauseResult(
        "c1_iff_c2", ok,
        None if ok else f"c1={c1} but c2={c2}"))

    fams, mode = _superset_family(inst, m_idx, power_limit, sample_count, seed,
                                  extra=[n_idx])

    # origin values of the tested supersets, shared by c3 and c4
    origins = [fhat(zero, s) for s in fams] if c1 else []

    # (c3): the value at the origin is stable under every tested superset
    # exactly when m attains the infimum
    witness = None
    if c1:
        for s, origin in zip(fams, origins):
            if not equals(at_zero, origin, tol):
                witness = f"origin value moved for superset {list(s)}"
                break
        ok = witness is None
    else:
        ok = any(not equals(at_zero, fhat(zero, s), tol) for s in fams)
        witness = None if ok else "no tested superset separates a non-infimizer"
    clauses.append(ClauseResult("c3_supersets", ok, witness))

    # (c4): the origin value of each tested superset equals the grid
    # infimum exactly when m attains the infimum (the translated infimum
    # of any nonempty subset is the grid infimum: x = g_k - g_i reaches
    # every g_k)
    witness = None
    if c1:
        for s, origin in zip(fams, origins):
            if not equals(origin, total_inf, tol):
                witness = f"origin misses the translated infimum for superset {list(s)}"
                break
        ok = witness is None
    else:
        ok = not equals(at_zero, total_inf, tol)
        witness = None if ok else "origin attains the translated infimum despite c1 failing"
    clauses.append(ClauseResult("c4_supersets", ok, witness))

    return LemmaReport(clauses, bool(c1), mode, len(fams))


def check_commutation(inst: FiniteInstance, m, directions,
                      fhat_override=None) -> float:
    """Largest gap between scalarizing the translated value and translating
    the scalarization, over the translated domain and the given directions.
    Both routes use the +infinity convention for empty values; two infinite
    values count as a zero gap."""
    m_idx = inst.subset_indices(m)
    dirs = as_matrix(directions, inst.cone.dim)
    dom = translated_domain(inst, m_idx)
    worst = 0.0
    for x in dom:
        v = _translated_value(inst, x, m_idx, fhat_override)
        parts = [inst.value_at(x + inst.grid[i]) for i in m_idx]
        for z in dirs:
            lhs = support(v, z)
            rhs = min(support(p, z) for p in parts)
            if math.isinf(lhs) and math.isinf(rhs) and lhs == rhs:
                continue
            worst = max(worst, abs(lhs - rhs))
    return worst


def corrupting_override(inst: FiniteInstance, m, shift: float = -0.5):
    """An override that falsifies the translated value at the origin for
    the given subset (shifting it strictly down the ordering).  The checks
    recompute everything honestly, so a corrupted precomputed value is the
    only way to exercise their failure reporting."""
    target = frozenset(inst.subset_indices(m))
    bump = UpperSet.from_point(inst.cone, np.full(inst.cone.dim, shift))

    def override(x, subset):
        if subset == target and float(np.max(np.abs(x))) < 1e-12:
            honest = inf_translate(inst, x, tuple(sorted(subset)))
            return oplus(honest, bump)
        return None

    return override


def random_cone_2d(rng: np.random.Generator, orthant_rate: float = 0.5) -> Cone:
    """A seeded planar ordering cone: the orthant, or a pointed cone spanned
    by two rays separated by an angle in (0.2 pi, 0.8 pi)."""
    if rng.random() < orthant_rate:
        return cone_orthant(2)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    spread = rng.uniform(0.2 * math.pi, 0.8 * math.pi)
    g1 = np.array([math.cos(theta), math.sin(theta)])
    g2 = np.array([math.cos(theta + spread), math.sin(theta + spread)])
    n1 = np.array([-g1[1], g1[0]])
    if n1 @ g2 < 0:
        n1 = -n1
    n2 = np.array([-g2[1], g2[0]])
    if n2 @ g1 < 0:
        n2 = -n2
    return cone_generated([g1, g2], [n1, n2])


def random_instance(rng: np.random.Generator, max_points: int = 20,
                    max_gens: int = 5, empty_rate: float = 0.1):
    """A seeded random finite instance plus a random nonempty subset and
    a few directions from the dual cone."""
    cone = random_cone_2d(rng)
    k = int(rng.integers(3, max_points + 1))
    grid = rng.uniform(-3.0, 3.0, size=(k, 2))
    values = []
    for _ in range(k):
        if rng.random() < empty_rate:
            values.append(UpperSet.empty(cone))
        else:
            g = rng.normal(0.0, 2.0, size=(int(rng.integers(1, max_gens + 1)), 2))
            values.append(UpperSet(cone, g))
    inst = FiniteInstance(grid, values, cone, label="random")
    msize = int(rng.integers(1, min(5, k) + 1))
    m = grid[rng.choice(k, size=msize, replace=False)]
    w = rng.uniform(0.05, 1.0, size=(3, cone.dual.shape[0]))
    dirs = w @ cone.dual
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    return inst, m, dirs


@dataclass
class CampaignReport:
    """Aggregate result of a seeded campaign over random instances."""

    count: int
    seed: int
    max_gap: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {"count": self.count, "seed": self.seed, "max_gap": self.max_gap,
                "passed": self.passed, "failures": self.failures}


def campaign_commutation(count: int = 200, seed: int = 7,
                         max_points: int = 20, tol: float = 1e-12) -> CampaignReport:
    """Seeded sweep of random instances; records the worst commutation gap."""
    rng = np.random.default_rng(seed)
    rep = CampaignReport(count=count, seed=seed)
    for i in range(count):
        inst, m, dirs = random_instance(rng, max_points=max_points)
        gap = check_commutation(inst, m, dirs)
        rep.max_gap = max(rep.max_gap, gap)
        if gap > tol:
            rep.failures.append({"instance": i, "gap": gap})
    return rep


def campaign_lemma(count: int = 100, seed: int = 11,
                   max_points: int = 16) -> CampaignReport:
    """Seeded sweep of random instances through every lemma clause."""
    rng = np.random.default_rng(seed)
    rep = CampaignReport(count=count, seed=seed)
    for i in range(count):
        inst, m, _ = random_instance(rng, max_points=max_points)
        report = check_inf_translation_lemma(inst, m, seed=seed + i)
        if not report.passed:
            rep.failures.append({
                "instance": i,
                "clauses": [c.name for c in report.clauses if not c.passed],
            })
    return rep
