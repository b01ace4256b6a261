"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single PASS/FAIL line in
the terminal summary (see conftest).  Numbers, tolerances, and runtime
budgets here are the product contract; loosening them is a release
decision, not a test fix.
"""

import json
import math
import time

import numpy as np

from setopt.calcvar import (Arc, linear_arc, objective,
                            random_test_directions, first_order_residual,
                            scalar_gradient, scalar_objective, solve_sccvp)
from setopt.catalog import (chain_instance, hyperbola_instance, make_cvp,
                            make_problem, pair_instance)
from setopt.cli import main as cli_main
from setopt.cones import base_directions, cone_orthant
from setopt.oracle import (campaign_commutation, campaign_lemma,
                           check_inf_translation_lemma, random_instance)
from setopt.setfuns import CandidateSet, scalarized_inf_translation
from setopt.solver import (collect_candidate, probe_points, scalar_minimize, sweep,
                           verify_sc_solution)
from setopt.uppersets import UpperSet, equals

from test_properties import random_dual_dirs, random_upper_set, support_gap
from setopt.oracle import random_cone_2d
from setopt.uppersets import lattice_inf, oplus, scale, support


def log_translation_set(count=2000, lo=1e-3, hi=100.0) -> CandidateSet:
    return CandidateSet(np.geomspace(lo, hi, count)[:, None],
                        label="log translation grid")


def test_criterion_01_hyperbola_translation_closed_form(criterion):
    with criterion(1, "hyperbola inf-translation closed form") as c:
        t0 = time.perf_counter()
        prob = make_problem("hyperbola")
        m = log_translation_set()
        origin = np.array([0.0])
        worst = 0.0
        for alpha in np.linspace(0.1, 0.9, 9):
            z = np.array([alpha, 1.0 - alpha])
            got = scalarized_inf_translation(prob.setfn, m, z, origin)
            want = 2.0 * math.sqrt(alpha * (1.0 - alpha))
            worst = max(worst, abs(got - want))
        elapsed = time.perf_counter() - t0
        c.set(worst <= 1e-3 and elapsed < 5.0,
              f"max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_hyperbola_translation_piecewise(criterion):
    with criterion(2, "hyperbola translated scalarization profile") as c:
        prob = make_problem("hyperbola")
        m = log_translation_set()
        z = np.array([0.5, 0.5])
        worst = 0.0
        for x in (0.5, 1.0, 2.0, 3.0):
            got = scalarized_inf_translation(prob.setfn, m, z, np.array([x]))
            want = 1.0 if x <= 1.0 else 0.5 * (x + 1.0 / x)
            worst = max(worst, abs(got - want))
        c.set(worst <= 1e-3, f"max err {worst:.2e}")


def test_criterion_03_non_attainment_vs_interior_convergence(criterion):
    with criterion(3, "extreme directions flagged, interior ones solved") as c:
        prob = make_problem("hyperbola")
        flagged = []
        for alpha in (0.0, 1.0):
            r = scalar_minimize(prob.setfn, np.array([alpha, 1 - alpha]),
                                start=prob.start)
            flagged.append(not r.converged)
        worst = 0.0
        solved = []
        for alpha in np.linspace(0.1, 0.9, 9):
            r = scalar_minimize(prob.setfn, np.array([alpha, 1 - alpha]),
                                start=prob.start)
            solved.append(r.converged)
            worst = max(worst,
                        abs(r.minimizer[0] - math.sqrt((1 - alpha) / alpha)))
        c.set(all(flagged) and all(solved) and worst <= 1e-3,
              f"flags {flagged}, interior max argmin err {worst:.2e}")


def test_criterion_04_polyhedral_infimizer_verification(criterion):
    with criterion(4, "two-point infimizer verified, removal detected") as c:
        rep = verify_cli("1,0;0,1")
        max_gap = rep["gaps"]["max"]
        gens = np.asarray(rep["infimum"]["generators"], dtype=float)
        cone = cone_orthant(2)
        inf_ok = equals(UpperSet(cone, gens),
                        UpperSet(cone, np.array([[1.0, 0.0], [0.0, 1.0]])))
        removal = min(verify_cli("1,0")["gaps"]["max"],
                      verify_cli("0,1")["gaps"]["max"])
        c.set(max_gap <= 1e-9 and inf_ok and removal >= 0.2,
              f"max gap {max_gap:.1e}, removal gap {removal:.2f}, "
              f"infimum generators {'ok' if inf_ok else 'wrong'}")


def verify_cli(m_text):
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as tmp:
        cli_main(["verify", "--catalog", "linear_vop", "--m", m_text,
                  "--base-res", "181", "--out", tmp, "--format", "json"])
        return json.loads((Path(tmp) / "verify_report.json").read_text())


def test_criterion_05_scalarization_commutes_with_translation(criterion):
    with criterion(5, "scalarization/translation commutation campaign") as c:
        t0 = time.perf_counter()
        rep = campaign_commutation(count=200, seed=7)
        elapsed = time.perf_counter() - t0
        c.set(rep.max_gap <= 1e-12 and not rep.failures and elapsed < 10.0,
              f"200 instances, max gap {rep.max_gap:.2e}, {elapsed:.2f}s")


def test_criterion_06_translation_lemma_clauses(criterion):
    with criterion(6, "inf-translation equivalence clauses") as c:
        problems = []
        for inst in (chain_instance(), pair_instance(), hyperbola_instance()):
            subsets = [inst.grid[:1]]
            subsets.append(inst.grid if inst.size <= 12 else inst.grid[:3])
            for m in subsets:
                rep = check_inf_translation_lemma(inst, m, seed=0)
                if not rep.passed:
                    problems.append(f"catalog {inst.label}")
        camp = campaign_lemma(count=100, seed=11)
        if not camp.passed:
            problems.append(f"campaign failures {camp.failures}")
        modes = set()
        for k in range(25):
            inst, m, _ = random_instance(np.random.default_rng(1000 + k),
                                         max_points=12)
            rep = check_inf_translation_lemma(inst, m, seed=k)
            modes.add(rep.supersets_mode)
            if not rep.passed or rep.supersets_mode != "exhaustive":
                problems.append(f"small instance {k}")
        c.set(not problems,
              "catalog + 100 random pass, power-set supersets on small grids"
              if not problems else "; ".join(problems[:3]))


def test_criterion_07_lattice_algebra_laws(criterion):
    with criterion(7, "four lattice algebra laws, 1000 cases each") as c:
        tol, cases, worst = 1e-10, 1000, 0.0

        rng = np.random.default_rng(101)
        for _ in range(cases):
            cone = random_cone_2d(rng)
            a = random_upper_set(rng, cone)
            s, t = rng.uniform(0.1, 3.0, size=2)
            lhs, rhs = scale(s + t, a), oplus(scale(s, a), scale(t, a))
            assert equals(lhs, rhs, tol)
            worst = max(worst, support_gap(lhs, rhs, random_dual_dirs(rng, cone)))

        rng = np.random.default_rng(202)
        for _ in range(cases):
            cone = random_cone_2d(rng)
            fam = [random_upper_set(rng, cone, empty_rate=0.15)
                   for _ in range(int(rng.integers(2, 6)))]
            w = UpperSet.from_point(cone, rng.normal(0.0, 2.0, size=2))
            lhs = oplus(w, lattice_inf(fam))
            rhs = lattice_inf([oplus(w, v) for v in fam])
            assert equals(lhs, rhs, tol)
            worst = max(worst, support_gap(lhs, rhs, random_dual_dirs(rng, cone)))

        rng = np.random.default_rng(303)
        for _ in range(cases):
            cone = random_cone_2d(rng)
            a = random_upper_set(rng, cone, empty_rate=0.1)
            b = random_upper_set(rng, cone, empty_rate=0.1)
            ab = oplus(a, b)
            for z in random_dual_dirs(rng, cone):
                lhs, rhs = support(ab, z), support(a, z) + support(b, z)
                if np.isinf(lhs) or np.isinf(rhs):
                    assert lhs == rhs
                else:
                    worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))

        rng = np.random.default_rng(404)
        for _ in range(cases):
            cone = random_cone_2d(rng)
            fam = [random_upper_set(rng, cone, empty_rate=0.1)
                   for _ in range(int(rng.integers(2, 6)))]
            inf_v = lattice_inf(fam)
            for z in random_dual_dirs(rng, cone):
                lhs = support(inf_v, z)
                rhs = min(support(v, z) for v in fam)
                if np.isinf(lhs) or np.isinf(rhs):
                    assert lhs == rhs
                else:
                    worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))

        c.set(worst <= tol, f"worst support gap {worst:.2e} over 4x1000 cases")


def sinh_family_values(alpha) -> np.ndarray:
    """Objective components of the continuum extremal sinh(wt)/sinh(w)."""
    w = math.sqrt((1.0 - alpha) / alpha)
    s = math.sinh(w)
    f1 = w * w / (s * s) * (0.5 + math.sinh(2 * w) / (4 * w))
    f2 = 1.0 / (s * s) * (math.sinh(2 * w) / (4 * w) - 0.5)
    return np.array([f1, f2])


def test_criterion_08_variational_sweep_against_closed_form(criterion):
    with criterion(8, "variational sweep matches the sinh family") as c:
        t0 = time.perf_counter()
        cvp = make_cvp("quadratic_cvp")
        lag, boundary = cvp.lagrangian, cvp.boundary
        alphas = np.linspace(0.1, 0.9, 9)

        def solve(alpha, N):
            zeta = np.array([alpha, 1 - alpha])
            res = solve_sccvp(lag, zeta, boundary, N)
            assert res.converged, f"alpha {alpha} did not converge at N={N}"
            # scalarized objective error against the closed form; unlike the
            # state error this is insensitive to the stopping rule, so it
            # isolates the quadrature order
            val_err = abs(float(zeta @ objective(lag, res.arc))
                          - float(zeta @ sinh_family_values(alpha)))
            w = math.sqrt((1 - alpha) / alpha)
            exact = np.sinh(w * res.arc.times) / math.sinh(w)
            state_err = float(np.max(np.abs(res.arc.states[:, 0] - exact)))
            return res.arc, state_err, val_err

        arc_err = 0.0
        res_err = 0.0
        ratios = []
        for k, alpha in enumerate(alphas):
            zeta = np.array([alpha, 1 - alpha])
            arc, state100, val100 = solve(alpha, 100)
            arc_err = max(arc_err, state100)
            dirs = random_test_directions(100, 1, 20, seed=100 + k)
            res_err = max(res_err, float(np.max(np.abs(
                first_order_residual(lag, zeta, arc, dirs)))))
            _, _, val200 = solve(alpha, 200)
            ratios.append(val100 / val200)

        # gradient check away from stationarity, at the straight start arc
        zeta = np.array([0.5, 0.5])
        arc0 = linear_arc(boundary, 100)
        g = scalar_gradient(lag, zeta, arc0)
        eps, grad_err = 1e-6, 0.0
        for k in range(1, 100):
            up, dn = arc0.states.copy(), arc0.states.copy()
            up[k, 0] += eps
            dn[k, 0] -= eps
            num = (scalar_objective(lag, zeta, Arc(arc0.times, up))
                   - scalar_objective(lag, zeta, Arc(arc0.times, dn))) / (2 * eps)
            grad_err = max(grad_err,
                           abs(g[k - 1, 0] - num) / max(1.0, abs(num)))

        elapsed = time.perf_counter() - t0
        c.set(arc_err <= 2e-3 and res_err <= 1e-6 and grad_err <= 1e-6
              and min(ratios) >= 3.0 and elapsed < 30.0,
              f"arc err {arc_err:.2e}, residual {res_err:.2e}, "
              f"grad err {grad_err:.2e}, refinement x{min(ratios):.1f}, "
              f"{elapsed:.1f}s")


def test_criterion_09_scalar_problem_reduction(criterion):
    with criterion(9, "one-dimensional case reduces to scalar minimization") as c:
        prob = make_problem("scalar_identity")
        base = base_directions(prob.setfn.cone, prob.anchor, 1)
        results = sweep(prob.setfn, base, start=prob.start)
        cand = collect_candidate(results)
        probe = probe_points(prob.setfn.space, 33)
        rep = verify_sc_solution(prob.setfn, cand, base, probe)
        argmin_err = float(np.max(np.abs(cand.points - 2.0)))
        c.set(rep.verdict == "sc-solution" and argmin_err <= 1e-3,
              f"verdict {rep.verdict}, argmin err {argmin_err:.2e}")


def test_criterion_10_byte_identical_reports(criterion, tmp_path):
    with criterion(10, "reports byte-identical across reruns") as c:
        names = ("solve_report.json", "support.csv", "infimum_polyline.csv",
                 "cvp_report.json", "front.csv", "arcs.csv")
        dirs = []
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            cli_main(["solve", "--catalog", "hyperbola", "--seed", "3",
                      "--out", str(d)])
            cli_main(["cvp", "--catalog", "quadratic_cvp", "--mesh", "50",
                      "--seed", "3", "--out", str(d)])
            dirs.append(d)
        same = [(dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes()
                for n in names]
        c.set(all(same), f"{sum(same)}/{len(names)} artifacts identical")
