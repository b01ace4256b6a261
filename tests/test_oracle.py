from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from setopt.catalog import chain_instance, hyperbola_instance, pair_instance
from setopt.cones import cone_orthant, point_key, unique_rows
from setopt.errors import InvalidDimensionError, InvalidDirectionError, OutOfDomainError
from setopt.oracle import (FiniteInstance, campaign_commutation, campaign_lemma,
                           check_commutation, check_inf_translation_lemma,
                           corrupting_override, enumerate_lattice_minimizers,
                           exact_inf, minimizers_form_infimizer, random_instance)
from setopt.setfuns import Grid, translated_domain, translated_values
from setopt.uppersets import UpperSet, contains_point, equals, lattice_inf


def test_instance_lookup_and_bounds():
    inst = chain_instance()
    assert inst.size == 3
    assert inst.index_of(np.array([1.0])) == 1
    assert inst.index_of(np.array([7.0])) == -1
    # 7 + 0 is off the grid, so the translate there is the empty value
    assert translated_values(inst, np.array([7.0]), inst.grid[:1])[0].is_empty
    with pytest.raises(OutOfDomainError):
        inst.subset_indices(np.array([[7.0]]))


def test_instance_rejects_points_with_one_key():
    # 0 and 1e-12 share a key, so a lookup of 0 could read the other value
    cone = cone_orthant(2)
    values = [UpperSet.from_point(cone, [float(i), 0.0]) for i in range(3)]
    with pytest.raises(InvalidDimensionError):
        FiniteInstance([[0.0], [1e-12], [1.0]], values, cone)
    inst = FiniteInstance([[0.0], [1e-6], [1.0]], values, cone)
    assert [inst.index_of([x]) for x in (0.0, 1e-6, 1.0)] == [0, 1, 2]


@pytest.mark.parametrize("check", [
    exact_inf,
    enumerate_lattice_minimizers,
    minimizers_form_infimizer,
    lambda inst: check_inf_translation_lemma(inst, inst.grid),
    lambda inst: check_commutation(inst, inst.grid, np.ones((1, 3))),
], ids=["exact_inf", "minimizers", "form_infimizer", "lemma", "commutation"])
def test_checks_refuse_values_outside_the_plane(check):
    # a 3-D table is a valid instance; only the exact planar hulls refuse it
    c3 = cone_orthant(3)
    inst = FiniteInstance([[0.0], [1.0]], [UpperSet.from_point(c3, [1.0, 0.0, 0.0]),
                                           UpperSet.from_point(c3, [0.0, 1.0, 0.0])], c3)
    with pytest.raises(InvalidDimensionError, match="require planar values"):
        check(inst)


def test_chain_minimizer_is_bottom_of_chain():
    inst = chain_instance()
    mins = enumerate_lattice_minimizers(inst)
    assert_allclose(mins, [[2.0]])
    assert minimizers_form_infimizer(inst)


def test_pair_minimizers_and_infimum():
    inst = pair_instance()
    mins = enumerate_lattice_minimizers(inst)
    assert mins.shape[0] == 2  # the two incomparable vertices
    ginf = exact_inf(inst)
    # the infimum is the convex hull of the union: it contains the midpoint
    # of the two vertices, which no single value does
    mid = np.array([0.5, 0.5])
    assert contains_point(ginf, mid)
    assert not any(contains_point(v, mid) for v in inst.values)


def test_exact_inf_subset_matches_manual():
    inst = chain_instance()
    ginf = exact_inf(inst, np.array([[0.0], [1.0]]))
    assert equals(ginf, inst.values[1])  # (1,1) + C absorbs (2,2) + C
    assert ginf.generators.shape[0] == 1


def test_translated_domain_reaches_whole_grid():
    # Every grid point is reachable from the translated domain of any
    # nonempty subset, so the translated infimum is the grid infimum.
    cases = [(hyperbola_instance(), (3, 7))]
    rng = np.random.default_rng(5)
    for _ in range(30):
        inst, _, _ = random_instance(rng)
        size = int(rng.integers(1, inst.size + 1))
        cases.append((inst, tuple(rng.choice(inst.size, size=size, replace=False))))
    for inst, m_idx in cases:
        ys = inst.grid[list(m_idx)]
        dom = translated_domain(inst.grid, ys)
        reached = set()
        for x in dom:
            for y in ys:
                j = inst.index_of(x + y)
                if j >= 0:
                    reached.add(j)
        assert reached == set(range(inst.size))
        hat_inf = lattice_inf(translated_values(inst, dom, ys))
        assert equals(hat_inf, exact_inf(inst))


def test_inf_translate_at_origin_is_subset_inf():
    inst = pair_instance()
    v = translated_values(inst, np.zeros(2), inst.grid)[0]
    assert equals(v, exact_inf(inst))


def test_lemma_passes_on_infimizer_subset():
    inst = chain_instance()
    rep = check_inf_translation_lemma(inst, np.array([[2.0]]), seed=0)
    assert rep.passed
    assert rep.infimizer
    names = {c.name for c in rep.clauses}
    assert names == {"a_antitone", "b_inf_preserved", "c1_iff_c2",
                     "c3_supersets", "c4_supersets"}
    assert rep.supersets_mode == "exhaustive"


def test_lemma_on_non_infimizer_subset_still_consistent():
    # a dominated singleton is not an infimizer; the lemma's equivalences
    # must still hold (all clauses report the same negative verdict)
    inst = chain_instance()
    rep = check_inf_translation_lemma(inst, np.array([[0.0]]), seed=0)
    assert rep.passed
    assert not rep.infimizer


def test_lemma_pair_full_grid():
    inst = pair_instance()
    rep = check_inf_translation_lemma(inst, inst.grid, seed=0)
    assert rep.passed
    assert rep.infimizer


def test_lemma_detects_corrupted_translation():
    inst = chain_instance()
    m = np.array([[2.0]])
    bad = corrupting_override(inst, m)
    rep = check_inf_translation_lemma(inst, m, seed=0, fhat_override=bad)
    assert not rep.passed
    failed = [c.name for c in rep.clauses if not c.passed]
    assert "b_inf_preserved" in failed or "c4_supersets" in failed
    # witnesses carry enough context to locate the failure
    bad_clause = next(c for c in rep.clauses if not c.passed)
    assert bad_clause.witness


def test_commutation_exact_and_corrupted():
    inst = pair_instance()
    m = inst.grid
    dirs = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    assert check_commutation(inst, m, dirs) <= 1e-12
    bad = corrupting_override(inst, m)
    assert check_commutation(inst, m, dirs, fhat_override=bad) >= 0.2


def test_lemma_evaluates_the_m_translation_once_per_point():
    # the override hook sees every translated value the lemma asks for: one
    # m-translation value per union-domain point, shared by (a), (b) and
    # (c2) (and by the grid side of (a) when m is the whole grid), plus one
    # at the origin as the value of m among its own supersets
    inst = pair_instance()
    dom_union = unique_rows(np.vstack([translated_domain(inst.grid, inst.grid[:2]),
                                       translated_domain(inst.grid, inst.grid)]))
    expect = Counter(point_key(x) for x in dom_union)
    expect[point_key(np.zeros(2))] += 1
    for m in (inst.grid[:2], inst.grid):
        m_idx = frozenset(inst.subset_indices(m))
        seen = Counter()

        def counting(x, subset):
            if subset == m_idx:
                seen[point_key(x)] += 1
            return None

        rep = check_inf_translation_lemma(inst, m, seed=0, fhat_override=counting)
        assert rep.passed and rep.infimizer
        assert seen == expect


def test_commutation_looks_each_translate_up_once(monkeypatch):
    # |m| per-point lookups index the subset; every (domain point, subset
    # point) translate is then looked up in two batches: one inside
    # setfuns.translated_values for the translated values, one for the
    # support table of the scalarize-then-translate side
    inst = pair_instance()
    m = inst.grid[:2]
    dom = translated_domain(inst.grid, m)
    lookups, batches = [], []
    index_of, indices_of = FiniteInstance.index_of, Grid.indices_of
    monkeypatch.setattr(FiniteInstance, "index_of",
                        lambda self, p: lookups.append(p) or index_of(self, p))
    monkeypatch.setattr(Grid, "indices_of",
                        lambda self, p: batches.append(np.atleast_2d(p).shape[0])
                        or indices_of(self, p))
    dirs = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    assert check_commutation(inst, m, dirs) <= 1e-12
    assert len(lookups) == len(m)
    assert batches == [1] * len(m) + [len(dom) * len(m)] * 2
    bad = corrupting_override(inst, m)
    assert check_commutation(inst, m, dirs, fhat_override=bad) >= 0.2


def test_commutation_refuses_directions_outside_the_dual_cone():
    # Outside C+ both routes scalarize to -inf, so a gap of 0 would say nothing.
    inst = pair_instance()
    with pytest.raises(InvalidDirectionError, match="outside the dual cone"):
        check_commutation(inst, inst.grid, np.array([[1.0, -1.0], [-1.0, 0.5]]))
    with pytest.raises(InvalidDirectionError):
        check_commutation(inst, inst.grid, np.array([[0.5, 0.5], [-1.0, 0.5]]))


@pytest.mark.parametrize("zero", [[0.0, 0.0], [-0.0, 0.0]])
def test_commutation_refuses_the_zero_direction(zero):
    # dual_contains accepts z = 0, but every proper value scalarizes to 0
    # along it, so both routes would agree vacuously
    inst = pair_instance()
    with pytest.raises(InvalidDirectionError, match="is zero"):
        check_commutation(inst, inst.grid, np.array([[0.5, 0.5], zero]))


def test_report_serialization_round_trip():
    inst = chain_instance()
    rep = check_inf_translation_lemma(inst, np.array([[2.0]]), seed=0)
    d = rep.as_dict()
    assert d["passed"] is True
    assert len(d["clauses"]) == 5
    assert all(set(c) >= {"name", "passed"} for c in d["clauses"])


def test_random_instance_is_deterministic():
    a = random_instance(np.random.default_rng(42))
    b = random_instance(np.random.default_rng(42))
    inst_a, m_a, dirs_a = a
    inst_b, m_b, dirs_b = b
    assert_allclose(inst_a.grid, inst_b.grid)
    assert_allclose(m_a, m_b)
    assert_allclose(dirs_a, dirs_b)
    for va, vb in zip(inst_a.values, inst_b.values):
        assert equals(va, vb)


def test_random_instance_directions_live_in_dual():
    from setopt.cones import dual_contains
    for seed in range(10):
        inst, m, dirs = random_instance(np.random.default_rng(seed))
        for z in dirs:
            assert dual_contains(inst.cone, z)
        assert m.shape[0] >= 1
        assert inst.size >= 3


def test_small_commutation_campaign():
    rep = campaign_commutation(count=20, seed=7)
    assert rep.passed
    assert rep.count == 20
    assert rep.max_gap <= 1e-12
    assert rep.failures == []


@pytest.mark.parametrize("campaign", [campaign_commutation, campaign_lemma])
@pytest.mark.parametrize("count", [0, -3])
def test_campaigns_refuse_nonpositive_sizes(campaign, count):
    with pytest.raises(InvalidDimensionError, match="at least one instance"):
        campaign(count=count)


def test_small_lemma_campaign():
    rep = campaign_lemma(count=10, seed=11)
    assert rep.passed
    assert rep.count == 10
