import numpy as np
import pytest
from numpy.testing import assert_allclose

from setopt.catalog import chain_instance, hyperbola_instance, pair_instance
from setopt.cones import cone_orthant
from setopt.errors import InvalidDimensionError, OutOfDomainError
from setopt.oracle import (FiniteInstance, campaign_commutation, campaign_lemma,
                           check_commutation, check_inf_translation_lemma,
                           corrupting_override, enumerate_lattice_minimizers,
                           exact_inf, inf_translate,
                           minimizers_form_infimizer, random_instance,
                           translated_domain)
from setopt.uppersets import UpperSet, contains_point, equals, lattice_inf


def test_instance_lookup_and_bounds():
    inst = chain_instance()
    assert inst.size == 3
    assert inst.index_of(np.array([1.0])) == 1
    assert inst.index_of(np.array([7.0])) == -1
    assert inst.value_at(np.array([7.0])).is_empty
    with pytest.raises(OutOfDomainError):
        inst.subset_indices(np.array([[7.0]]))


def test_instance_rejects_points_with_one_key():
    # 0 and 1e-12 share a key, so value_at(0) could read the other value
    cone = cone_orthant(2)
    values = [UpperSet.from_point(cone, [float(i), 0.0]) for i in range(3)]
    with pytest.raises(InvalidDimensionError):
        FiniteInstance([[0.0], [1e-12], [1.0]], values, cone)
    inst = FiniteInstance([[0.0], [1e-6], [1.0]], values, cone)
    assert [inst.index_of([x]) for x in (0.0, 1e-6, 1.0)] == [0, 1, 2]


def test_chain_minimizer_is_bottom_of_chain():
    inst = chain_instance()
    mins = enumerate_lattice_minimizers(inst)
    assert_allclose(mins, [[2.0]])
    assert minimizers_form_infimizer(inst)


def test_pair_minimizers_and_infimum():
    inst = pair_instance()
    mins = enumerate_lattice_minimizers(inst)
    assert mins.shape[0] == 2  # the two incomparable vertices
    ginf, fgens = exact_inf(inst)
    # convexified infimum contains the midpoint, the raw union does not
    mid = np.array([0.5, 0.5])
    assert contains_point(ginf, mid)
    assert not any(np.allclose(g, mid) for g in fgens)


def test_exact_inf_subset_matches_manual():
    inst = chain_instance()
    ginf, fgens = exact_inf(inst, np.array([[0.0], [1.0]]))
    assert equals(ginf, inst.values[1])  # (1,1) + C absorbs (2,2) + C
    assert fgens.shape[0] == 2


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
        dom = translated_domain(inst, m_idx)
        reached = set()
        for x in dom:
            for i in m_idx:
                j = inst.index_of(x + inst.grid[i])
                if j >= 0:
                    reached.add(j)
        assert reached == set(range(inst.size))
        hat_inf = lattice_inf([inf_translate(inst, x, m_idx) for x in dom])
        assert equals(hat_inf, exact_inf(inst)[0])


def test_inf_translate_at_origin_is_subset_inf():
    inst = pair_instance()
    m_idx = tuple(range(inst.size))
    v = inf_translate(inst, np.zeros(2), m_idx)
    ginf, _ = exact_inf(inst)
    assert equals(v, ginf)


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


def test_small_lemma_campaign():
    rep = campaign_lemma(count=10, seed=11)
    assert rep.passed
    assert rep.count == 10
