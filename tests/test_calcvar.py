import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from setopt import calcvar
from setopt.calcvar import (Arc, Boundary, Lagrangian, TestDirection,
                            cvp_sweep, first_order_residual, linear_arc,
                            objective, random_test_directions,
                            scalar_gradient, scalar_objective, solve_sccvp)
from setopt.catalog import make_cvp, make_lagrangian
from setopt.errors import DerivativeMismatchError, InputFormatError, InvalidDimensionError


def energy_arc_values(alpha, omega=None):
    """Closed-form objective components of the sinh extremal for the
    (kinetic, potential) Lagrangian under direction (alpha, 1 - alpha)."""
    w = math.sqrt((1.0 - alpha) / alpha) if omega is None else omega
    s = math.sinh(w)
    f1 = w * w / (s * s) * (0.5 + math.sinh(2 * w) / (4 * w))
    f2 = 1.0 / (s * s) * (math.sinh(2 * w) / (4 * w) - 0.5)
    return np.array([f1, f2])


def quad_lagrangian():
    return make_lagrangian("quadratic")


def test_checked_lagrangian_accepts_consistent_derivatives():
    lag = quad_lagrangian()
    assert lag.n == 1 and lag.d == 2


def test_checked_lagrangian_rejects_wrong_derivative():
    def fn(t, y, p):
        return np.stack([p[:, 0] ** 2, y[:, 0] ** 2], axis=1)

    def d_y(t, y, p):
        out = np.zeros((t.shape[0], 2, 1))
        out[:, 1, 0] = 3.0 * y[:, 0]  # wrong factor
        return out

    def d_p(t, y, p):
        out = np.zeros((t.shape[0], 2, 1))
        out[:, 0, 0] = 2.0 * p[:, 0]
        return out

    with pytest.raises(DerivativeMismatchError):
        Lagrangian.checked(fn, d_y, d_p, n=1, d=2)


def test_boundary_and_arc_validation():
    with pytest.raises(InvalidDimensionError):
        Boundary(1.0, 0.0, [0.0], [1.0])
    with pytest.raises(InvalidDimensionError):
        Arc(np.array([0.0, 0.0, 1.0]), np.zeros((3, 1)))
    a = Arc(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.3, 1.0]))
    assert a.states.shape == (3, 1)
    assert a.intervals == 2


def test_single_interval_midpoint_objective():
    lag = quad_lagrangian()
    arc = linear_arc(Boundary(0.0, 1.0, [0.0], [1.0]), 1)
    # one interval: velocity 1, midpoint state 1/2
    assert_allclose(objective(lag, arc), [1.0, 0.25])


def test_scalar_objective_is_direction_dot_objective():
    lag = quad_lagrangian()
    arc = linear_arc(Boundary(0.0, 1.0, [0.0], [1.0]), 7)
    zeta = np.array([0.3, 0.7])
    assert scalar_objective(lag, zeta, arc) == pytest.approx(
        float(zeta @ objective(lag, arc)))


def test_gradient_matches_finite_differences():
    lag = quad_lagrangian()
    b = Boundary(0.0, 1.0, [0.0], [1.0])
    # a deliberately non-uniform mesh
    times = np.array([0.0, 0.13, 0.29, 0.55, 0.81, 1.0])
    rng = np.random.default_rng(3)
    states = np.concatenate([[0.0], rng.uniform(-0.5, 1.5, 4), [1.0]])
    arc = Arc(times, states)
    zeta = np.array([0.4, 0.6])
    g = scalar_gradient(lag, zeta, arc)
    eps = 1e-6
    for k in range(1, 5):
        up = arc.states.copy()
        dn = arc.states.copy()
        up[k, 0] += eps
        dn[k, 0] -= eps
        num = (scalar_objective(lag, zeta, Arc(times, up))
               - scalar_objective(lag, zeta, Arc(times, dn))) / (2 * eps)
        assert abs(g[k - 1, 0] - num) <= 1e-6 * max(1.0, abs(num))


def test_solver_matches_sinh_extremal():
    lag = quad_lagrangian()
    b = Boundary(0.0, 1.0, [0.0], [1.0])
    for alpha in (0.2, 0.5, 0.8):
        res = solve_sccvp(lag, np.array([alpha, 1 - alpha]), b, 200)
        assert res.converged
        w = math.sqrt((1 - alpha) / alpha)
        exact = np.sinh(w * res.arc.times) / math.sinh(w)
        assert np.max(np.abs(res.arc.states[:, 0] - exact)) <= 2e-3
        expect = energy_arc_values(alpha)
        assert_allclose(objective(lag, res.arc), expect, atol=5e-4)


def test_solver_flags_divergence():
    lag = make_lagrangian("drift")
    b = Boundary(0.0, 1.0, [0.0], [1.0])
    res = solve_sccvp(lag, np.array([0.0, 1.0]), b, 50)
    assert not res.converged
    assert "non-attainment" in res.note


@pytest.mark.parametrize("grad_tol", [0.0, -1.0, math.nan])
def test_solver_refuses_a_gradient_tolerance_it_cannot_meet(grad_tol):
    b = Boundary(0.0, 1.0, [0.0], [1.0])
    with pytest.raises(InputFormatError, match="must be positive"):
        solve_sccvp(quad_lagrangian(), np.array([0.5, 0.5]), b, 8, grad_tol=grad_tol)


def test_residual_vanishes_at_solution():
    lag = quad_lagrangian()
    b = Boundary(0.0, 1.0, [0.0], [1.0])
    zeta = np.array([0.5, 0.5])
    res = solve_sccvp(lag, zeta, b, 100)
    dirs = random_test_directions(100, 1, 20, seed=4)
    r = first_order_residual(lag, zeta, res.arc, dirs)
    assert np.max(np.abs(r)) <= 1e-6


def test_residual_nonzero_away_from_solution():
    lag = quad_lagrangian()
    b = Boundary(0.0, 1.0, [0.0], [1.0])
    zeta = np.array([0.5, 0.5])
    arc = linear_arc(b, 100)  # straight line is not the extremal
    dirs = random_test_directions(100, 1, 20, seed=4)
    r = first_order_residual(lag, zeta, arc, dirs)
    assert np.max(np.abs(r)) > 1e-3


def test_mesh_refinement_shrinks_state_error():
    lag = quad_lagrangian()
    b = Boundary(0.0, 1.0, [0.0], [1.0])
    zeta = np.array([0.5, 0.5])
    errs = []
    for N in (50, 100):
        res = solve_sccvp(lag, zeta, b, N)
        assert res.converged
        w = 1.0
        exact = np.sinh(w * res.arc.times) / math.sinh(w)
        errs.append(float(np.max(np.abs(res.arc.states[:, 0] - exact))))
    assert errs[0] / errs[1] >= 3.0


def test_test_direction_endpoint_rules():
    u = np.zeros((5, 1))
    u[2] = 1.0
    td = TestDirection(u)
    assert td.states[0, 0] == 0.0 and td.states[-1, 0] == 0.0
    bad = u.copy()
    bad[0] = 0.5
    with pytest.raises(InvalidDimensionError):
        TestDirection(bad)


def test_random_test_directions_seeded_and_admissible():
    a = random_test_directions(20, 1, 8, seed=9)
    b = random_test_directions(20, 1, 8, seed=9)
    for da, db in zip(a, b):
        assert_allclose(da.states, db.states)
        assert da.states[0, 0] == 0.0 and da.states[-1, 0] == 0.0
        assert np.max(np.abs(da.states)) <= 1.0 + 1e-12


def test_sweep_report_shapes_and_translation():
    cvp = make_cvp("quadratic_cvp")
    rep = cvp_sweep(cvp.lagrangian, cvp.directions[:3], cvp.boundary,
                    60, phi_tol=1e-4)
    assert rep.all_converged
    assert rep.values.shape == (3, 2)
    assert rep.max_residual <= 1e-6
    assert rep.translation_pass
    assert rep.translation_margin >= -1e-4
    assert len(rep.arcs) == 3


def test_sweep_translation_check_evaluates_each_shifted_arc_once(monkeypatch):
    # 10 probes at 2 scales: one vector objective per solved arc each,
    # shared by every direction; the solved arcs' own values come from the
    # solves.  The margin equals the per-direction scalar computation.
    cvp = make_cvp("quadratic_cvp")
    lag, dirs, N = cvp.lagrangian, cvp.directions[:3], 12
    calls, solving = [], []
    objective_, solve_ = calcvar.objective, calcvar.solve_sccvp

    def counted(lag_, arc):
        if not solving:
            calls.append(arc)
        return objective_(lag_, arc)

    def solve(*args, **kwargs):
        solving.append(True)
        try:
            return solve_(*args, **kwargs)
        finally:
            solving.pop()

    monkeypatch.setattr(calcvar, "objective", counted)
    monkeypatch.setattr(calcvar, "solve_sccvp", solve)
    rep = cvp_sweep(lag, dirs, cvp.boundary, N)
    assert rep.all_converged
    assert len(calls) == 20 * len(dirs)
    probe = random_test_directions(N, lag.n, 10, seed=7 + 9001)
    best = [min(scalar_objective(lag, z, a) for a in rep.arcs) for z in dirs]
    expect = min(min(scalar_objective(lag, z, Arc(a.times, a.states + s * td.states))
                     for a in rep.arcs) - b
                 for z, b in zip(dirs, best) for td in probe for s in (0.3, 1.0))
    assert rep.translation_margin == expect


@pytest.mark.parametrize("N", [1, 0, -3])
def test_sweep_refuses_a_mesh_without_an_interior_node(N):
    # one interval has no interior node, so no test direction can be built
    # there and the residual and translation checks would be vacuous
    cvp = make_cvp("quadratic_cvp")
    with pytest.raises(InputFormatError, match=f"mesh needs at least 2 intervals.*got {N}"):
        cvp_sweep(cvp.lagrangian, cvp.directions[:1], cvp.boundary, N)
    assert linear_arc(cvp.boundary, 1).intervals == 1  # the arc itself stays valid


def test_sweep_flags_divergent_direction():
    lag = make_lagrangian("drift")
    b = Boundary(0.0, 1.0, [0.0], [1.0])
    rep = cvp_sweep(lag, np.array([[0.0, 1.0], [0.5, 0.5]]), b, 40)
    assert not rep.all_converged
    assert math.isinf(rep.residuals[0]) or not rep.converged[0]
