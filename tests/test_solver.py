import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from setopt.catalog import make_problem, pair_instance
from setopt.cones import base_directions, cone_orthant, default_anchor, interior_base
from setopt.errors import EmptyCandidateError, InfeasibleProblemError, InvalidDirectionError
from setopt.oracle import enumerate_lattice_minimizers, random_instance
from setopt.setfuns import (Box, CandidateSet, Grid, SetFunction,
                            convex_sample_points, evaluate, scalarize)
from setopt.solver import (ScalarMinResult, SearchOptions,
                           collect_candidate, probe_points, scalar_minimize,
                           sweep, verify_infimizer, verify_lattice_minimizer,
                           verify_sc_solution)
from setopt.uppersets import UpperSet, equals, lattice_inf

C2 = cone_orthant(2)


def hyperbola():
    return make_problem("hyperbola")


def test_grid_minimize_is_exact():
    pts = np.linspace(0.5, 3.0, 26)[:, None]
    f = SetFunction.from_vector_map(Grid(pts), C2,
                                    lambda x: np.array([x[0], 1.0 / x[0]]))
    r = scalar_minimize(f, np.array([0.5, 0.5]))
    vals = 0.5 * pts[:, 0] + 0.5 / pts[:, 0]
    assert r.converged
    assert r.value == pytest.approx(vals.min())
    assert r.minimizer[0] == pytest.approx(pts[np.argmin(vals), 0])


def test_grid_minimize_all_infeasible():
    f = SetFunction.from_table(C2, np.array([[0.0], [1.0]]),
                               [UpperSet.empty(C2), UpperSet.empty(C2)])
    with pytest.raises(InfeasibleProblemError):
        scalar_minimize(f, np.array([1.0, 1.0]))


def _loop_minima(f, base):
    """Reference: the per-point, per-direction scalarize argmin loop."""
    out = []
    for z in base.directions:
        values = np.array([scalarize(f, z, x) for x in f.space.points])
        i = int(np.argmin(values))
        out.append((f.space.points[i], float(values[i]), len(values)))
    return out


def _vector_map_grid(calls):
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.2, 3.0, size=(40, 2))

    def fn(x):
        calls.append(x)
        if x[0] + x[1] > 5.0:
            return None
        return np.array([x[0] ** 2 + x[1], (x[1] - 1.0) ** 2 + np.sin(x[0])])
    f = SetFunction.from_vector_map(Grid(pts), C2, fn)
    return f, base_directions(C2, [1.0, 1.0], 40)


def _table3d_grid(calls):
    rng = np.random.default_rng(1)
    c3 = cone_orthant(3)
    xs = rng.uniform(0.0, 10.0, size=(30, 2))
    values = [UpperSet(c3, rng.uniform(0.0, 4.0, size=(4, 3))) for _ in xs]
    values[5] = UpperSet.empty(c3)
    table = SetFunction.from_table(c3, xs, values)

    def evaluator(x):
        calls.append(x)
        return evaluate(table, x)
    f = SetFunction(table.space, c3, evaluator)
    return f, base_directions(c3, default_anchor(c3), 7)


@pytest.mark.parametrize("make", [_vector_map_grid, _table3d_grid],
                         ids=["vector-map", "table3d"])
def test_grid_sweep_matches_point_loop(make):
    calls = []
    f, base = make(calls)
    results = sweep(f, base)
    # one profile: each grid point evaluated once for all directions
    assert len(calls) == len(f.space)
    for r, (x, value, count) in zip(results, _loop_minima(f, base)):
        assert np.array_equal(r.minimizer, x)
        assert r.iterations == count and r.converged
        assert abs(r.value - value) <= 4.5e-16 * abs(value)
    z = base.directions[len(base) // 2]
    one = scalar_minimize(f, z)
    assert np.array_equal(one.minimizer, results[len(base) // 2].minimizer)
    assert one.value == results[len(base) // 2].value
    with pytest.raises(InvalidDirectionError):
        scalar_minimize(f, -z)
    with pytest.raises(InvalidDirectionError):
        scalar_minimize(f, 0.0 * z)


def test_box_minimize_hyperbola_interior_direction():
    prob = hyperbola()
    z = np.array([0.25, 0.75])
    r = scalar_minimize(prob.setfn, z, SearchOptions(start=prob.start))
    # argmin of a*x + (1-a)/x is sqrt((1-a)/a); optimum 2 sqrt(a(1-a))
    a = 0.25
    assert r.converged
    assert r.minimizer[0] == pytest.approx(math.sqrt((1 - a) / a), abs=1e-5)
    assert r.value == pytest.approx(2 * math.sqrt(a * (1 - a)), abs=1e-9)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_box_minimize_flags_non_attainment_at_extremes(alpha):
    prob = hyperbola()
    z = np.array([alpha, 1.0 - alpha])
    r = scalar_minimize(prob.setfn, z, SearchOptions(start=prob.start))
    assert not r.converged
    assert "non-attainment" in r.note


def test_sweep_matches_closed_form():
    prob = hyperbola()
    base = interior_base(prob.setfn.cone, prob.anchor, 12)
    results = sweep(prob.setfn, base, SearchOptions(start=prob.start))
    alphas = base.alpha_coordinates()
    expect = 2 * np.sqrt(alphas * (1 - alphas))
    got = np.array([r.value for r in results])
    assert_allclose(got, expect, atol=1e-8)
    assert all(r.converged for r in results)


def test_linear_vop_sweep_attains_vertex_values():
    prob = make_problem("linear_vop")
    base = base_directions(prob.setfn.cone, prob.anchor, 20)
    results = sweep(prob.setfn, base, SearchOptions(start=prob.start))
    alphas = base.alpha_coordinates()
    # the scalar minimum over the wedge sits at a vertex for every direction
    expect = np.minimum(alphas, 1 - alphas)
    got = np.array([r.value for r in results])
    assert_allclose(got, expect, atol=1e-7)
    cand = collect_candidate(results)
    for target in ([1.0, 0.0], [0.0, 1.0]):
        d = np.min(np.linalg.norm(cand.points - np.array(target), axis=1))
        assert d <= 1e-4


def test_collect_candidate_merges_nearby_minimizers():
    z = np.array([0.5, 0.5])
    mk = lambda x: ScalarMinResult(z, np.array(x), 0.0, 1, 0.0, True)
    rs = [mk([1.0, 1.0]), mk([1.0 + 4e-6, 1.0]), mk([2.0, 2.0]),
          ScalarMinResult(z, None, math.inf, 1, 0.0, False)]
    cand = collect_candidate(rs, merge_tol=1e-5)
    assert cand.points.shape == (2, 2)
    assert_allclose(cand.points[0], [1.0 + 2e-6, 1.0], atol=1e-9)


def test_collect_candidate_requires_a_convergent_result():
    z = np.array([0.5, 0.5])
    rs = [ScalarMinResult(z, None, math.inf, 1, 0.0, False)]
    with pytest.raises(EmptyCandidateError):
        collect_candidate(rs)


def test_probe_points_deterministic_and_interior():
    box = Box([0.0, 0.0], [1.0, 2.0])
    a = probe_points(box, resolution=9, seed=5)
    b = probe_points(box, resolution=9, seed=5)
    assert_allclose(a, b)
    assert a.shape == (2 * 81, 2)
    assert np.all(a >= [0.0, 0.0]) and np.all(a <= [1.0, 2.0])
    g = Grid(np.array([[0.0], [1.0]]))
    assert probe_points(g) is g.points


def test_verify_infimizer_gaps_vanish_on_true_infimizer():
    prob = make_problem("linear_vop")
    base = base_directions(prob.setfn.cone, prob.anchor, 40)
    m = CandidateSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    probe = probe_points(prob.setfn.space, 21)
    gaps = verify_infimizer(prob.setfn, m, base, probe)
    assert gaps.max_gap <= 1e-9
    assert gaps.co_gap <= 1e-9


def test_verify_infimizer_detects_removed_point():
    prob = make_problem("linear_vop")
    base = base_directions(prob.setfn.cone, prob.anchor, 40)
    m = CandidateSet(np.array([[1.0, 0.0]]))
    probe = probe_points(prob.setfn.space, 21)
    gaps = verify_infimizer(prob.setfn, m, base, probe)
    assert gaps.max_gap >= 0.2


def test_verify_infimizer_co_gap_matches_direct_scalarization():
    prob = hyperbola()
    f = prob.setfn
    base = interior_base(f.cone, prob.anchor, 8)
    m = CandidateSet(np.array([[0.5], [2.0]]))
    gaps = verify_infimizer(f, m, base, probe_points(f.space, 9), co_extra=8, seed=3)
    co_pts = convex_sample_points(m.points, extra=8, seed=3)
    expected = max(min(scalarize(f, z, p) for p in m.points)
                   - min(scalarize(f, z, p) for p in co_pts) for z in base.directions)
    assert expected > 0.1  # the midpoint x = 1 beats both candidate points
    assert gaps.co_gap == expected


def test_verify_lattice_minimizer_on_exhaustive_grid():
    from setopt.catalog import chain_instance
    probe_values = chain_instance().values
    top, middle, bottom = probe_values
    # the bottom of the chain is minimal, the others are not
    assert verify_lattice_minimizer(bottom, probe_values)
    assert not verify_lattice_minimizer(top, probe_values)
    assert not verify_lattice_minimizer(middle, probe_values)


@pytest.mark.parametrize("make", [
    pair_instance,
    lambda: random_instance(np.random.default_rng(11))[0],
], ids=["pair", "random11"])
def test_verify_sc_solution_evaluates_each_point_once(make):
    inst = make()
    table = SetFunction.from_table(inst.cone, inst.grid, list(inst.values))
    calls = []

    def evaluator(x):
        calls.append(x)
        return evaluate(table, x)

    f = SetFunction(table.space, table.cone, evaluator)
    m = CandidateSet(inst.grid)
    base = base_directions(inst.cone, default_anchor(inst.cone), 6)
    rep = verify_sc_solution(f, m, base, inst.grid, co_extra=8, seed=2)
    # hull samples off the grid score +inf without an evaluation
    hull = convex_sample_points(m.points, extra=8, seed=2)
    in_space = sum(f.space.contains(x) for x in hull)
    assert len(calls) == len(m) + len(inst.grid) + in_space
    minimizers = enumerate_lattice_minimizers(inst)
    expect = [any(np.array_equal(p, q) for q in minimizers) for p in inst.grid]
    assert rep.lattice_min_verdicts == expect
    if inst.label == "pair":
        assert expect == [True, True, False]
    assert not all(expect)  # a dominated point, so the check can fail


def test_build_infimum_linear_vop():
    # the report's infimum is the lattice infimum of the candidate values
    prob = make_problem("linear_vop")
    base = base_directions(prob.setfn.cone, prob.anchor, 40)
    m = CandidateSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    rep = verify_sc_solution(prob.setfn, m, base, probe_points(prob.setfn.space, 21),
                             check_lattice_min=False)
    expect = UpperSet(C2, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert equals(rep.infimum, expect)
    assert equals(rep.infimum, lattice_inf([evaluate(prob.setfn, p) for p in m.points]))


def test_verify_sc_solution_full_verdict():
    prob = make_problem("linear_vop")
    base = base_directions(prob.setfn.cone, prob.anchor, 40)
    m = CandidateSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    probe = probe_points(prob.setfn.space, 21)
    rep = verify_sc_solution(prob.setfn, m, base, probe)
    assert rep.verdict == "sc-solution"
    assert rep.max_gap <= rep.tol
    assert rep.max_residual <= rep.tol
    assert len(rep.lattice_min_verdicts) == 2


def test_verify_sc_solution_fail_verdict():
    prob = make_problem("linear_vop")
    base = base_directions(prob.setfn.cone, prob.anchor, 40)
    m = CandidateSet(np.array([[1.0, 0.0]]))
    probe = probe_points(prob.setfn.space, 21)
    rep = verify_sc_solution(prob.setfn, m, base, probe)
    assert rep.verdict == "fail"


def test_verify_sc_solution_infimizer_only_verdict():
    # pad a true infimizer with a redundant interior point: gaps stay
    # zero but the extra point minimizes no direction
    prob = make_problem("linear_vop")
    base = base_directions(prob.setfn.cone, prob.anchor, 40)
    m = CandidateSet(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
    probe = probe_points(prob.setfn.space, 21)
    rep = verify_sc_solution(prob.setfn, m, base, probe)
    assert rep.verdict == "infimizer-only"
    assert rep.max_gap <= rep.tol
    assert rep.max_residual > rep.tol


def test_scalar_identity_reduces_to_scalar_minimization():
    prob = make_problem("scalar_identity")
    base = base_directions(prob.setfn.cone, prob.anchor, 1)
    results = sweep(prob.setfn, base, SearchOptions(start=prob.start))
    # g(x) = (x - 2)^2 on [-5, 5]: minimum 0 at x = 2
    assert results[0].value == pytest.approx(0.0, abs=1e-9)
    assert results[0].minimizer[0] == pytest.approx(2.0, abs=1e-4)
