"""Tests of the benchmark's checkers: corrupted reports must fail.

Run from the repository root:  python3 -m pytest benchmark/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from run import Runner

SRC = Path(__file__).resolve().parent.parent / "src"


def vop_report():
    alphas = np.linspace(0.0, 1.0, 11)
    dirs = np.stack([alphas, 1.0 - alphas], axis=1)
    return {"verdict": "sc-solution", "tol": 1e-3, "directions": dirs.tolist(),
            "gaps": {"candidate_minima": dirs.min(axis=1).tolist()},
            "infimum": {"generators": [[0.0, 1.0], [1.0, 0.0]]}}


def test_vop_accepts_the_closed_form():
    assert checks.check_vop(0, vop_report()) == []


def test_vop_dropped_generator_fails():
    rep = vop_report()
    rep["infimum"]["generators"] = [[1.0, 0.0]]
    assert checks.check_vop(0, rep)


def test_vop_inflated_tolerance_fails():
    rep = vop_report()
    rep["tol"] = 0.1
    rep["gaps"]["candidate_minima"] = [m + 0.05 for m in rep["gaps"]["candidate_minima"]]
    problems = checks.check_vop(0, rep)
    assert any("verdict tolerance" in p for p in problems)
    assert any("candidate minima" in p for p in problems)


def table_case():
    rng = np.random.default_rng(3)
    gens = rng.uniform(0.0, 4.0, size=(60, 3))
    w = np.array([[a, b, 6 - a - b] for a in range(7) for b in range(7 - a)]) / 6.0
    report = {"verdict": "sc-solution", "directions": w.tolist(),
              "gaps": {"per_direction": [0.0] * len(w), "co_gap": 0.0},
              "infimum": {"generators": gens.tolist()}}
    return report, gens, w


def test_table_accepts_every_generator():
    report, gens, _ = table_case()
    assert checks.check_table(0, report, gens) == []


def test_table_dropped_generator_fails():
    report, gens, w = table_case()
    needed = int(np.argmin(gens @ w[5]))
    report["infimum"]["generators"] = np.delete(gens, needed, axis=0).tolist()
    assert any("support law" in p for p in checks.check_table(0, report, gens))


def cvp_case(mesh=40):
    alphas = np.linspace(0.1, 0.9, 5)
    times = np.linspace(0.0, 1.0, mesh + 1)
    values, columns = [], [times]
    for a in alphas:
        arc, exact = checks.sinh_extremal(float(a))
        values.append(list(exact))
        columns.append(arc(times))
    report = {"converged": [True] * len(alphas),
              "directions": np.stack([alphas, 1.0 - alphas], axis=1).tolist(),
              "values": values}
    return report, np.stack(columns, axis=1), mesh


def test_cvp_accepts_the_closed_form():
    assert checks.check_cvp(0, *cvp_case()) == []


def test_cvp_shifted_value_fails():
    report, arcs, mesh = cvp_case()
    report["values"][2][0] += 10.0 / mesh ** 2
    assert any("value off" in p for p in checks.check_cvp(0, report, arcs, mesh))


def test_cvp_shifted_arc_fails():
    report, arcs, mesh = cvp_case()
    arcs[mesh // 2, 3] += 10.0 / mesh ** 2
    assert any("arc off" in p for p in checks.check_cvp(0, report, arcs, mesh))


def campaign_report():
    return {"commutation_campaign": {"count": 8, "failures": [], "passed": True,
                                     "max_gap": 0.0},
            "lemma_campaign": {"count": 4, "failures": [], "passed": True}}


def test_campaign_accepts_a_clean_report():
    assert checks.check_campaign(0, campaign_report(), 8) == []


def test_campaign_failure_fails():
    rep = campaign_report()
    rep["lemma_campaign"]["failures"] = [{"instance": 2, "clauses": ["c4_supersets"]}]
    rep["lemma_campaign"]["passed"] = False
    assert checks.check_campaign(3, rep, 8)


def test_orthant_minimizers_by_hand():
    values = [np.array([[0.0, 3.0], [3.0, 0.0]]),   # hull misses (1, 1)
              np.array([[1.0, 1.0]]),                # incomparable with 0
              np.array([[1.0, 1.5]]),                # dominated by 1
              np.array([[0.0, 0.0], [5.0, 5.0]])]    # below everything
    assert checks.orthant_minimizers(values) == [3]
    assert checks.orthant_minimizers(values[:3]) == [0, 1]


class FakeCli:
    """Stands in for setopt.cli: writes a fixed report per call."""

    def __init__(self, payloads):
        self.payloads = list(payloads)

    def main(self, argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True, exist_ok=True)
        (out / "solve_report.json").write_text(json.dumps(self.payloads.pop(0)))
        return 0


def _vop_op(known_fault=None):
    return workloads.Op("vop", ["solve"], lambda rc, out: checks.check_vop(
        rc, json.loads((out / "solve_report.json").read_text())), known_fault)


def test_runner_counts_a_corrupted_report_as_failed(tmp_path):
    bad = vop_report()
    bad["infimum"]["generators"] = [[0.0, 1.0]]
    runner = Runner(FakeCli([bad]), workloads.Workload([_vop_op()], []), tmp_path)
    runner.run_pass()
    assert (runner.attempted, runner.failed, runner.correct) == (1, 1, False)


def test_runner_counts_a_crash_as_failed(tmp_path):
    class CrashingCli:
        def main(self, argv):
            raise RuntimeError("boom")

    runner = Runner(CrashingCli(), workloads.Workload([_vop_op()], []), tmp_path)
    runner.run_pass()
    assert (runner.attempted, runner.failed, runner.correct) == (1, 1, False)
    assert "raised RuntimeError" in runner.unexpected[0]


def test_runner_keeps_known_faults_correct(tmp_path):
    bad = vop_report()
    bad["infimum"]["generators"] = [[0.0, 1.0]]
    runner = Runner(FakeCli([bad]),
                    workloads.Workload([_vop_op(known_fault="infimum support")], []),
                    tmp_path)
    runner.run_pass()
    assert (runner.attempted, runner.failed, runner.correct) == (1, 1, True)


def test_runner_flags_other_problems_on_a_known_fault(tmp_path):
    bad = vop_report()
    bad["verdict"] = "not-a-solution"
    runner = Runner(FakeCli([bad]),
                    workloads.Workload([_vop_op(known_fault="infimum support")], []),
                    tmp_path)
    runner.run_pass()
    assert (runner.attempted, runner.failed, runner.correct) == (1, 1, False)


def test_runner_fails_a_report_that_changes_between_passes(tmp_path):
    second = vop_report()
    second["tol"] = 2e-3
    runner = Runner(FakeCli([vop_report(), second]), workloads.Workload([_vop_op()], []),
                    tmp_path)
    runner.run_pass()
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "differ" in runner.unexpected[0]


@pytest.fixture
def program():
    sys.path.insert(0, str(SRC))
    from setopt import cli
    yield cli
    sys.path.remove(str(SRC))


def test_program_fixed_tables_fail_as_named(program, tmp_path):
    wl = workloads.build("solve-table3d", 1, tmp_path)
    fixed = [op for op in wl.ops if op.name.startswith("fixed_table")]
    assert len(fixed) == workloads.FIXED_TABLES
    runner = Runner(program, workloads.Workload(fixed, []), tmp_path)
    runner.run_pass()
    assert runner.correct and runner.failed == len(workloads.FAULTY_FIXED_TABLES)
    assert {line.split(":")[0] for line in runner.known} == workloads.FAULTY_FIXED_TABLES


def test_program_injected_fault_is_detected(program, tmp_path):
    wl = workloads.build("oracle-campaign", 1, tmp_path)
    ops = [op for op in wl.ops if op.name == "pair_inject_fault"]
    runner = Runner(program, workloads.Workload(ops, []), tmp_path)
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (1, 0)


def test_traced_counts_repeat_and_uninstall_restores(program, tmp_path):
    from setopt import solver
    from tracing import PER_LAYER, Tracer

    wl = workloads.build("oracle-campaign", 1, tmp_path)
    ops = [op for op in wl.ops if op.name == "pair_inject_fault"]
    original = solver.sweep
    counts = []
    for _ in range(2):
        tracer = Tracer()
        runner = Runner(program, workloads.Workload(ops, []), tmp_path, tracer)
        tracer.install()
        try:
            runner.run_pass()
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(0.0)
        assert list(metrics) == [name for name, _ in PER_LAYER]
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["oracle.lemma_checks"] == 1 and counts[0]["calcvar.iterations"] == 0
    assert program.sweep is original and solver.sweep is original
