"""Brute-force ground truth on finite instances.

A finite instance (:class:`setfuns.FiniteInstance`, the table type the
solver sweeps too) pins a set-valued function down to a desk-scale table:
a finite grid of argument points, one upper-set value per point.
Everything here is exhaustive arithmetic over that table: exact lattice
infima, enumeration of lattice minimizers by pairwise comparison
(:func:`uppersets.lattice_minimal`), and clause-by-clause checks of the
translation identities that the fast modules rely on.  Hulls are exact in
the plane only, so each of these refuses non-planar values.

The translation identities are checked on the library's own
inf-translation, :func:`setfuns.translated_values`: translates that
leave the grid evaluate to the empty value (the top of the lattice), so
the identities are exact on finite data.  The commutation check
scalarizes those values and compares them with a brute-force route of
its own: one table of per-value supports, one row per grid value and one
column per direction, read at the grid index of every translate
``x + g_i`` from one batched key lookup (:meth:`setfuns.Grid.indices_of`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cones import (KEY_DECIMALS, Cone, cone_orthant, cone_generated, as_matrix,
                    dual_contains, unique_rows)
from .errors import InvalidDimensionError, InvalidDirectionError
from .setfuns import FiniteInstance, translated_domain, translated_values
from .uppersets import UpperSet, equals, lattice_inf, lattice_minimal, oplus, order_geq

#: Largest commutation gap that still counts as commuting.
COMMUTATION_TOL = 1e-12

#: Instances in a commutation campaign unless the caller says otherwise.
CAMPAIGN_SIZE = 200


def _require_planar(inst: FiniteInstance) -> None:
    if inst.cone.dim != 2:
        raise InvalidDimensionError("finite instances require planar values for exact hulls")


def exact_inf(inst: FiniteInstance, subset=None) -> UpperSet:
    """Exact lattice infimum (the convex hull of the union) over a subset
    of the grid, by default the whole grid."""
    _require_planar(inst)
    idx = range(inst.size) if subset is None else inst.subset_indices(subset)
    return lattice_inf([inst.values[i] for i in idx])


def enumerate_lattice_minimizers(inst: FiniteInstance) -> np.ndarray:
    """All grid points with no strictly smaller value anywhere on the grid,
    by exhaustive pairwise comparison."""
    _require_planar(inst)
    return inst.grid[lattice_minimal(inst.values, inst.values)]


def minimizers_form_infimizer(inst: FiniteInstance) -> bool:
    """Whether the enumerated minimizers already attain the grid infimum."""
    mins = enumerate_lattice_minimizers(inst)
    if mins.shape[0] == 0:
        return False
    return equals(exact_inf(inst), exact_inf(inst, mins))


def _translated_values(inst: FiniteInstance, xs, subset_idx, fhat_override=None) -> list:
    """The inf-translation by the subset's points at every row of xs
    (:func:`setfuns.translated_values`), unless ``fhat_override`` supplies
    a row's value (it returns None to defer)."""
    values = translated_values(inst, xs, inst.grid[list(subset_idx)])
    if fhat_override is None:
        return values
    key = frozenset(subset_idx)
    patched = [fhat_override(x, key) for x in xs]
    return [v if p is None else p for v, p in zip(values, patched)]


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


def _superset_family(inst: FiniteInstance, m_idx, seed: int):
    """Index subsets between m and the grid: the full power set of the
    complement when it has at most 4096 members, otherwise 64 seeded
    samples (always including m and the grid)."""
    rest = [i for i in range(inst.size) if i not in m_idx]
    if 2 ** len(rest) <= 4096:
        fams = [tuple(sorted(set(m_idx) | set(combo)))
                for r in range(len(rest) + 1) for combo in itertools.combinations(rest, r)]
        return fams, "exhaustive"
    rng = np.random.default_rng(seed)
    fams = {tuple(sorted(m_idx)), tuple(range(inst.size))}
    while len(fams) < 64:
        mask = rng.random(len(rest)) < rng.uniform(0.1, 0.9)
        fams.add(tuple(sorted(set(m_idx) | {rest[i] for i in np.nonzero(mask)[0]})))
    return sorted(fams), "sampled"


def check_inf_translation_lemma(inst: FiniteInstance, m, *, seed: int = 0,
                                fhat_override=None) -> LemmaReport:
    """Exhaustively check the translation identities on a finite instance.

    m is a point subset of the grid; clause (a) compares its translation
    with the whole grid's over the union of their domains, evaluating each
    once per point (one evaluation serves both when m is the whole grid)
    through :func:`setfuns.translated_values`.  Clause
    c4 asks that the origin value of each tested superset equals the grid
    infimum exactly when m attains it.  ``fhat_override``, when given, is
    consulted for every translated value (returning None defers to the
    honest computation); it exists so tests can corrupt the table and
    confirm the clauses actually detect it.
    """
    _require_planar(inst)
    m_idx = inst.subset_indices(m)
    grid_idx = tuple(range(inst.size))
    clauses: list[ClauseResult] = []
    zero = np.zeros(inst.grid.shape[1])

    def origin_value(subset):
        # x = 0 translates each grid point onto itself: no lookup needed
        v = None if fhat_override is None else fhat_override(zero, frozenset(subset))
        return lattice_inf([inst.values[i] for i in subset]) if v is None else v

    # (a) growing the translation set can only improve every value.  The
    # m-translation is evaluated once per point of the union domain; its
    # rows on dom_m, the first rows of dom_union, serve (b) and (c2), and
    # when m is the whole grid it is the grid's translation as well
    m_pts = inst.grid[list(m_idx)]
    dom_m = translated_domain(inst.grid, m_pts)
    dom_union = unique_rows(np.vstack([dom_m, translated_domain(inst.grid, inst.grid)]))
    at_union = _translated_values(inst, dom_union, m_idx, fhat_override)
    at_grid = (at_union if set(m_idx) == set(grid_idx)
               else _translated_values(inst, dom_union, grid_idx, fhat_override))
    witness = None
    for x, v_m, v_grid in zip(dom_union, at_union, at_grid):
        if not order_geq(v_m, v_grid):
            witness = f"antitonicity fails at x={x.tolist()}"
            break
    clauses.append(ClauseResult("a_antitone", witness is None, witness))
    at_m = at_union[:dom_m.shape[0]]

    # (b) translating never changes the reachable infimum
    total_inf = exact_inf(inst)
    hat_inf = lattice_inf(at_m)
    ok = equals(hat_inf, total_inf)
    clauses.append(ClauseResult(
        "b_inf_preserved", ok,
        None if ok else "translated infimum differs from the grid infimum"))

    # (c1) <=> (c2): m attains the infimum iff the translated function
    # attains it at the origin
    m_inf = exact_inf(inst, m_pts)
    c1 = equals(m_inf, total_inf)
    # the origin is the row of dom_m whose key is zero (x = g_i - g_i)
    at_zero = at_m[np.flatnonzero(~np.round(dom_m, KEY_DECIMALS).any(axis=1))[0]]
    c2 = equals(at_zero, hat_inf)
    ok = c1 == c2
    clauses.append(ClauseResult(
        "c1_iff_c2", ok,
        None if ok else f"c1={c1} but c2={c2}"))

    fams, mode = _superset_family(inst, m_idx, seed)

    # origin values of the tested supersets, shared by c3 and c4
    origins = [origin_value(s) for s in fams] if c1 else []

    # (c3): the value at the origin is stable under every tested superset
    # exactly when m attains the infimum
    witness = None
    if c1:
        for s, origin in zip(fams, origins):
            if not equals(at_zero, origin):
                witness = f"origin value moved for superset {list(s)}"
                break
        ok = witness is None
    else:
        ok = any(not equals(at_zero, origin_value(s)) for s in fams)
        witness = None if ok else "no tested superset separates a non-infimizer"
    clauses.append(ClauseResult("c3_supersets", ok, witness))

    # (c4): the origin value of each tested superset equals the grid
    # infimum exactly when m attains the infimum (the translated infimum
    # of any nonempty subset is the grid infimum: x = g_k - g_i reaches
    # every g_k)
    witness = None
    if c1:
        for s, origin in zip(fams, origins):
            if not equals(origin, total_inf):
                witness = f"origin misses the translated infimum for superset {list(s)}"
                break
        ok = witness is None
    else:
        ok = not equals(at_zero, total_inf)
        witness = None if ok else "origin attains the translated infimum despite c1 failing"
    clauses.append(ClauseResult("c4_supersets", ok, witness))

    return LemmaReport(clauses, bool(c1), mode, len(fams))


def _supports(gens: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """``min(gens @ z)`` for every direction z (row of dirs) at once.  The
    column-vector matmul runs one matrix-vector product per direction, the
    same arithmetic as :func:`uppersets.support`, so the values agree to
    the last bit."""
    return np.matmul(gens, dirs[:, :, None])[:, :, 0].min(axis=1)


def check_commutation(inst: FiniteInstance, m, directions,
                      fhat_override=None) -> float:
    """Largest gap between scalarizing the translated value and translating
    the scalarization, over the translated domain and the given directions.

    One table holds every grid value's support along every direction (+inf
    for the empty value and off the grid), and one batched lookup finds the
    grid index of every translate ``x + g_i``, so the translate-then-
    scalarize side is a minimum over table rows.  The other side scalarizes
    the translated value at each point along all directions at once.  Both
    use the +infinity convention for empty values; two infinite values
    count as a zero gap.  A zero direction, or one outside the dual cone
    (where both routes are -infinity), would make every gap vanish, so
    either is an error."""
    _require_planar(inst)
    m_idx = inst.subset_indices(m)
    dirs = as_matrix(directions, inst.cone.dim)
    for z in dirs:
        if not z.any():
            raise InvalidDirectionError(
                f"direction {z.tolist()} is zero: every proper value scalarizes to 0 along it")
        if not dual_contains(inst.cone, z):
            raise InvalidDirectionError(f"direction {z.tolist()} lies outside the dual cone")
    # row -1 (off the grid) is the empty value's row
    table = np.full((inst.size + 1, dirs.shape[0]), math.inf)
    for i, v in enumerate(inst.values):
        if not v.is_empty:
            table[i] = _supports(v.generators, dirs)
    m_pts = inst.grid[list(m_idx)]
    dom = translated_domain(inst.grid, m_pts)
    idx = inst.space.indices_of((dom[:, None, :] + m_pts[None, :, :]).reshape(-1, dom.shape[1]))
    translate_side = table[idx.reshape(dom.shape[0], -1)].min(axis=1)
    worst = 0.0
    for v, rhs in zip(_translated_values(inst, dom, m_idx, fhat_override), translate_side):
        lhs = _supports(v.generators, dirs) if not v.is_empty else math.inf
        gap = np.subtract(lhs, rhs, out=np.zeros_like(rhs), where=lhs != rhs)
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def corrupting_override(inst: FiniteInstance, m):
    """An override that falsifies the translated value at the origin for
    the given subset (shifting it by -0.5 per axis, strictly down the
    ordering).  The checks
    recompute everything honestly, so a corrupted precomputed value is the
    only way to exercise their failure reporting."""
    target = frozenset(inst.subset_indices(m))
    bump = UpperSet.from_point(inst.cone, np.full(inst.cone.dim, -0.5))

    def override(x, subset):
        if subset == target and float(np.max(np.abs(x))) < 1e-12:
            honest = translated_values(inst, x, inst.grid[sorted(subset)])[0]
            return oplus(honest, bump)
        return None

    return override


def random_cone_2d(rng: np.random.Generator) -> Cone:
    """A seeded planar ordering cone: the orthant, or a pointed cone spanned
    by two rays separated by an angle in (0.2 pi, 0.8 pi)."""
    if rng.random() < 0.5:
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


def random_instance(rng: np.random.Generator, max_points: int = 20):
    """A seeded random finite instance plus a random nonempty subset and
    a few directions from the dual cone."""
    cone = random_cone_2d(rng)
    k = int(rng.integers(3, max_points + 1))
    grid = rng.uniform(-3.0, 3.0, size=(k, 2))
    values = []
    for _ in range(k):
        if rng.random() < 0.1:
            values.append(UpperSet.empty(cone))
        else:
            g = rng.normal(0.0, 2.0, size=(int(rng.integers(1, 6)), 2))
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
    """Aggregate result of a seeded campaign over random instances.  A
    campaign of no instances would pass vacuously, so it is refused."""

    count: int
    seed: int
    max_gap: float = 0.0
    failures: list = field(default_factory=list)

    def __post_init__(self):
        if self.count < 1:
            raise InvalidDimensionError(f"a campaign needs at least one instance, got {self.count}")

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {"count": self.count, "seed": self.seed, "max_gap": self.max_gap,
                "passed": self.passed, "failures": self.failures}


def campaign_commutation(count: int = CAMPAIGN_SIZE, seed: int = 7) -> CampaignReport:
    """Seeded sweep of random instances; records the worst commutation gap."""
    rng = np.random.default_rng(seed)
    rep = CampaignReport(count=count, seed=seed)
    for i in range(count):
        inst, m, dirs = random_instance(rng)
        gap = check_commutation(inst, m, dirs)
        rep.max_gap = max(rep.max_gap, gap)
        if gap > COMMUTATION_TOL:
            rep.failures.append({"instance": i, "gap": gap})
    return rep


def campaign_lemma(count: int = 100, seed: int = 11) -> CampaignReport:
    """Seeded sweep of random instances through every lemma clause."""
    rng = np.random.default_rng(seed)
    rep = CampaignReport(count=count, seed=seed)
    for i in range(count):
        inst, m, _ = random_instance(rng, max_points=16)
        report = check_inf_translation_lemma(inst, m, seed=seed + i)
        if not report.passed:
            rep.failures.append({
                "instance": i,
                "clauses": [c.name for c in report.clauses if not c.passed],
            })
    return rep
