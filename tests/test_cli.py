import json

import numpy as np
import pytest

from setopt.catalog import make_problem
from setopt.cli import main
from setopt.cones import base_directions, cone_orthant, interior_base
from setopt.errors import OutOfDomainError
from setopt.setfuns import CandidateSet
from setopt.solver import probe_points, verify_sc_solution


def run(argv):
    return main([str(a) for a in argv])


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def outdir(tmp_path):
    d = tmp_path / "out"
    d.mkdir()
    return d


def test_solve_hyperbola(outdir):
    assert run(["solve", "--catalog", "hyperbola", "--out", outdir]) == 0
    rep = json.loads((outdir / "solve_report.json").read_text())
    assert rep["verdict"] == "sc-solution"
    assert (outdir / "support.csv").exists()
    assert (outdir / "infimum_polyline.csv").exists()


def test_solve_writes_only_requested_formats(outdir):
    assert run(["solve", "--catalog", "hyperbola", "--out", outdir,
                "--format", "json"]) == 0
    assert (outdir / "solve_report.json").exists()
    assert not (outdir / "support.csv").exists()


def test_solve_deterministic_bytes(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    for d in (d1, d2):
        assert run(["solve", "--catalog", "linear_vop", "--out", d,
                    "--base-res", 21]) == 0
    for name in ("solve_report.json", "support.csv", "infimum_polyline.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_solve_scalar_identity_single_direction(outdir):
    assert run(["solve", "--catalog", "scalar_identity", "--out", outdir]) == 0
    rep = json.loads((outdir / "solve_report.json").read_text())
    assert len(rep["condition3"]["directions"]) >= 1
    x = rep["candidate"]["points"][0][0]
    assert abs(x - 2.0) <= 1e-3


def test_solve_custom_anchor_bases(tmp_path):
    cases = [
        (["linear_vop", "--base-res", 21, "--anchor", "1,2"],
         base_directions(cone_orthant(2), [1.0, 2.0], 20)),
        (["hyperbola", "--base-res", 5, "--anchor", "2,1"],
         interior_base(cone_orthant(2), [2.0, 1.0], 6)),
        # --base-res 0 keeps the catalog's direction count
        (["hyperbola", "--base-res", 0, "--anchor", "2,1"],
         interior_base(cone_orthant(2), [2.0, 1.0], 10)),
    ]
    for i, (argv, expected) in enumerate(cases):
        out = tmp_path / str(i)
        assert run(["solve", "--catalog", *argv, "--out", out]) == 0
        rep = json.loads((out / "solve_report.json").read_text())
        dirs = np.array(rep["directions"], dtype=float)
        assert np.array_equal(dirs, expected.directions)
        np.testing.assert_allclose(dirs @ expected.anchor, 1.0, rtol=0, atol=1e-12)


def test_verify_true_infimizer(outdir):
    assert run(["verify", "--catalog", "linear_vop", "--m", "1,0;0,1",
                "--out", outdir, "--base-res", 181]) == 0
    rep = json.loads((outdir / "verify_report.json").read_text())
    assert rep["verdict"] == "sc-solution"
    assert rep["gaps"]["max"] <= 1e-9
    gens = np.array(rep["infimum"]["generators"], dtype=float)
    assert sorted(map(tuple, np.round(gens, 9))) == [(0.0, 1.0), (1.0, 0.0)]


def test_verify_detects_missing_point(outdir):
    assert run(["verify", "--catalog", "linear_vop", "--m", "1,0",
                "--out", outdir, "--base-res", 181]) == 3
    rep = json.loads((outdir / "verify_report.json").read_text())
    assert rep["verdict"] == "fail"
    assert rep["gaps"]["max"] >= 0.2


def test_verify_m_from_problem_file(tmp_path, outdir):
    prob = write_json(tmp_path / "p.json", {
        "objective": {"catalog": "linear_vop"},
        "m": [[1.0, 0.0], [0.0, 1.0]],
    })
    assert run(["verify", "--problem", prob, "--out", outdir]) == 0


def test_verify_without_m_is_an_input_error(outdir, capsys):
    assert run(["verify", "--catalog", "linear_vop", "--out", outdir]) == 1
    assert "candidate" in capsys.readouterr().err


def test_verify_off_space_candidate_is_an_input_error(outdir, capsys):
    assert run(["verify", "--catalog", "linear_vop", "--m", "5,5;1,0",
                "--out", outdir]) == 1
    assert ("error: [5.0, 5.0] lies outside the variable space"
            in capsys.readouterr().err)
    assert not (outdir / "verify_report.json").exists()
    prob = make_problem("linear_vop")
    f, base = prob.setfn, base_directions(prob.setfn.cone, prob.anchor, 8)
    probe = probe_points(f.space, 5)
    with pytest.raises(OutOfDomainError, match=r"\[5.0, 5.0\] lies outside"):
        verify_sc_solution(f, CandidateSet(np.array([[5.0, 5.0], [1.0, 0.0]])),
                           base, probe)
    # the probe must lie in the space too
    m = CandidateSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    off_probe = np.concatenate([probe, [[5.0, 5.0]]])
    with pytest.raises(OutOfDomainError, match=r"\[5.0, 5.0\] lies outside"):
        verify_sc_solution(f, m, base, off_probe)


def test_oracle_chain_instance(tmp_path, outdir):
    inst = write_json(tmp_path / "chain.json", {
        "cone": {"kind": "orthant", "dim": 2},
        "table": [
            {"x": [0.0], "generators": [[2.0, 2.0]]},
            {"x": [1.0], "generators": [[1.0, 1.0]]},
            {"x": [2.0], "generators": [[0.0, 0.0]]},
        ],
    })
    assert run(["oracle", "--problem", inst, "--out", outdir]) == 0
    rep = json.loads((outdir / "oracle_report.json").read_text())
    assert rep["lemma"]["passed"] is True
    assert rep["commutation_gap"] <= 1e-12
    assert rep["lattice_minimizers"] == [[2.0]]
    assert rep["fault_injected"] is False


def test_oracle_fault_injection_fails(tmp_path, outdir):
    inst = write_json(tmp_path / "chain.json", {
        "cone": {"kind": "orthant", "dim": 2},
        "table": [
            {"x": [0.0], "generators": [[2.0, 2.0]]},
            {"x": [1.0], "generators": [[1.0, 1.0]]},
            {"x": [2.0], "generators": [[0.0, 0.0]]},
        ],
    })
    assert run(["oracle", "--problem", inst, "--inject-fault",
                "--out", outdir]) == 3
    rep = json.loads((outdir / "oracle_report.json").read_text())
    assert rep["fault_injected"] is True
    assert rep["lemma"]["passed"] is False or rep["commutation_gap"] > 1e-12


def test_oracle_duplicate_points_are_an_input_error(tmp_path, outdir, capsys):
    inst = write_json(tmp_path / "dup.json", {
        "cone": {"kind": "orthant", "dim": 2},
        "table": [
            {"x": [0.0], "generators": [[2.0, 2.0]]},
            {"x": [1.0], "generators": [[1.0, 1.0]]},
            {"x": [0.0], "generators": [[0.0, 0.0]]},
        ],
    })
    assert run(["oracle", "--problem", inst, "--out", outdir]) == 1
    assert "distinct" in capsys.readouterr().err
    assert not (outdir / "oracle_report.json").exists()


def test_oracle_directions_outside_the_dual_cone_are_an_input_error(tmp_path, outdir, capsys):
    inst = write_json(tmp_path / "outside.json", {
        "cone": {"kind": "orthant", "dim": 2},
        "table": [
            {"x": [0.0], "generators": [[2.0, 2.0]]},
            {"x": [1.0], "generators": [[1.0, 1.0]]},
        ],
        "directions": [[1.0, -1.0], [-1.0, 0.5]],
    })
    assert run(["oracle", "--problem", inst, "--out", outdir]) == 1
    assert "outside the dual cone" in capsys.readouterr().err
    assert not (outdir / "oracle_report.json").exists()


@pytest.mark.parametrize("field, value, message", [
    # along z = 0 every proper value scalarizes to 0, so the gap would be 0
    ("directions", [[0.0, 0.0]], "error: direction [0.0, 0.0] is zero"),
    ("directions", [], "error: 'directions' must list at least one point\n"),
    ("m", [], "error: 'm' must list at least one point\n"),
], ids=["zero_direction", "no_directions", "no_m"])
def test_oracle_zero_or_empty_check_inputs_are_input_errors(tmp_path, outdir, capsys,
                                                            field, value, message):
    inst = write_json(tmp_path / "inst.json", {
        "cone": {"kind": "orthant", "dim": 2},
        "table": [
            {"x": [0.0], "generators": [[2.0, 2.0]]},
            {"x": [1.0], "generators": [[1.0, 1.0]]},
        ],
        field: value,
    })
    assert run(["oracle", "--problem", inst, "--out", outdir]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not (outdir / "oracle_report.json").exists()


def test_oracle_three_dimensional_instance_is_an_input_error(tmp_path, outdir, capsys):
    inst = write_json(tmp_path / "d3.json", {
        "cone": {"kind": "orthant", "dim": 3},
        "table": [
            {"x": [0.0], "generators": [[1.0, 0.0, 0.0]]},
            {"x": [1.0], "generators": [[0.0, 1.0, 0.0]]},
        ],
    })
    assert run(["oracle", "--problem", inst, "--out", outdir]) == 1
    assert (capsys.readouterr().err
            == "error: finite instances require planar values for exact hulls\n")
    assert not any(outdir.iterdir())


@pytest.mark.parametrize("count", [0, -3])
def test_oracle_nonpositive_campaign_size_is_an_input_error(outdir, capsys, count):
    assert run(["oracle", "--instances", count, "--out", outdir]) == 1
    assert "at least one instance" in capsys.readouterr().err
    assert not (outdir / "oracle_report.json").exists()


def test_oracle_campaign(outdir):
    assert run(["oracle", "--instances", 10, "--seed", 7,
                "--out", outdir]) == 0
    rep = json.loads((outdir / "oracle_report.json").read_text())
    assert rep["commutation_campaign"]["count"] == 10
    assert rep["commutation_campaign"]["max_gap"] <= 1e-12
    assert rep["lemma_campaign"]["passed"] is True


def test_cvp_catalog(outdir):
    assert run(["cvp", "--catalog", "quadratic_cvp", "--mesh", 60,
                "--out", outdir]) == 0
    rep = json.loads((outdir / "cvp_report.json").read_text())
    assert all(rep["converged"])
    assert max(rep["residuals"]) <= 1e-6
    assert rep["translation"]["pass"] is True
    front = (outdir / "front.csv").read_text().splitlines()
    assert len(front) == 10  # header + 9 directions
    assert (outdir / "arcs.csv").exists()


def test_cvp_divergent_direction_flagged(tmp_path, outdir):
    prob = write_json(tmp_path / "drift.json", {
        "a": 0.0, "b": 1.0, "A": [0.0], "B": [1.0], "N": 40,
        "lagrangian": "drift", "alphas": [0.0, 0.5],
    })
    assert run(["cvp", "--problem", prob, "--out", outdir]) == 2
    rep = json.loads((outdir / "cvp_report.json").read_text())
    assert not all(rep["converged"])
    notes = " ".join(rep["notes"])
    assert "non-attainment" in notes


@pytest.mark.parametrize("mesh", [1, 0, -4])
def test_cvp_mesh_without_an_interior_node_is_an_input_error(tmp_path, outdir, capsys, mesh):
    # --mesh 0 is refused too, not read as "the problem's default mesh"
    prob = write_json(tmp_path / "one.json", {
        "a": 0.0, "b": 1.0, "A": [0.0], "B": [1.0], "N": mesh,
        "lagrangian": "drift", "alphas": [0.5],
    })
    for argv in (["cvp", "--mesh", mesh], ["cvp", "--problem", prob]):
        assert run(argv + ["--base-res", 1, "--out", outdir]) == 1
        err = capsys.readouterr().err
        assert f"mesh needs at least 2 intervals (an interior node), got {mesh}" in err
        assert not (outdir / "cvp_report.json").exists()


@pytest.mark.parametrize("grad_tol", [-1, 0])
def test_cvp_nonpositive_grad_tol_is_an_input_error(outdir, capsys, grad_tol):
    assert run(["cvp", "--grad-tol", grad_tol, "--base-res", 1, "--mesh", 8,
                "--out", outdir]) == 1
    assert "gradient tolerance must be positive" in capsys.readouterr().err
    assert not (outdir / "cvp_report.json").exists()


VERIFY_VOP = ["verify", "--catalog", "linear_vop", "--m", "1,0;0,1", "--base-res", 5]


@pytest.mark.parametrize("argv", [
    VERIFY_VOP + ["--tol", -1],
    VERIFY_VOP + ["--tol", "nan"],
    VERIFY_VOP + ["--probe-res", -4],
    VERIFY_VOP + ["--co-samples", -5],
    ["verify", "--catalog", "linear_vop", "--m", "1,0", "--base-res", 5, "--co-samples", -5],
    ["cvp", "--tol", -1, "--base-res", 1, "--mesh", 8],
    ["cvp", "--tol", "nan", "--base-res", 1, "--mesh", 8],
], ids=["tol-negative", "tol-nan", "probe-res", "co-samples", "co-samples-one-point",
        "cvp-tol-negative", "cvp-tol-nan"])
def test_negative_or_nan_tolerances_and_sample_counts_are_input_errors(outdir, capsys, argv):
    assert run(argv + ["--out", outdir]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be nonnegative" in err
    assert not any(outdir.iterdir())


def test_zero_tolerances_and_sample_counts_stay_valid(outdir):
    assert run(VERIFY_VOP + ["--tol", 0, "--probe-res", 0, "--co-samples", 0,
                             "--out", outdir]) != 1
    assert (outdir / "verify_report.json").exists()
    assert run(["cvp", "--tol", 0, "--base-res", 1, "--mesh", 8, "--out", outdir]) == 0
    assert (outdir / "cvp_report.json").exists()


def test_cvp_negative_base_res_is_an_input_error(outdir, capsys):
    assert run(["cvp", "--base-res", -2, "--mesh", 8, "--out", outdir]) == 1
    assert "error: need at least one direction" in capsys.readouterr().err
    assert not any(outdir.iterdir())
    # zero keeps the default nine directions, as it does for solve
    assert run(["cvp", "--base-res", 0, "--mesh", 8, "--out", outdir]) == 0
    assert len(json.loads((outdir / "cvp_report.json").read_text())["directions"]) == 9


def test_catalog_lists_everything(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("hyperbola", "linear_vop", "scalar_identity",
                 "quadratic_cvp", "chain", "pair"):
        assert name in out


def test_malformed_json_is_input_error(tmp_path, outdir, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"objective": }')
    assert run(["solve", "--problem", bad, "--out", outdir]) == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_unknown_catalog_name_is_input_error(outdir, capsys):
    assert run(["solve", "--catalog", "nope", "--out", outdir]) == 1
    assert "nope" in capsys.readouterr().err


def test_infeasible_table_is_input_error(tmp_path, outdir, capsys):
    prob = write_json(tmp_path / "empty.json", {
        "cone": {"kind": "orthant", "dim": 2},
        "objective": {"table": [
            {"x": [0.0], "generators": []},
            {"x": [1.0], "generators": []},
        ]},
    })
    assert run(["solve", "--problem", prob, "--out", outdir]) == 1
    assert capsys.readouterr().err != ""


def test_cone_whose_dual_list_misses_part_of_the_dual_cone_is_input_error(
        tmp_path, outdir, capsys):
    prob = write_json(tmp_path / "cone.json", {
        "cone": {"kind": "generated", "primal": [[1.0, 0.0], [0.0, 1.0]],
                 "dual": [[1.0, 1.0], [1.0, 2.0]]},
        "objective": {"table": [
            {"x": [0.0], "generators": [[0.0, 0.0]]},
            {"x": [1.0], "generators": [[2.0, -0.5]]},
        ]},
    })
    assert run(["solve", "--problem", prob, "--out", outdir]) == 1
    assert "do not generate the dual cone" in capsys.readouterr().err
    assert not any(outdir.iterdir())


def test_solve_needs_exactly_one_source(outdir, capsys):
    assert run(["solve", "--out", outdir]) == 1
    assert run(["solve", "--catalog", "hyperbola", "--problem", "x.json",
                "--out", outdir]) == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--catalog", "linear_vop", "--bogus", 1],
    ["solve", "--catalog", "linear_vop", "--base-res", "abc"],
    ["verify", "--catalog", "linear_vop", "--m", "1,0;0,1", "--bogus", 1],
    ["oracle", "--catalog", "pair", "--bogus", 1],
    ["cvp", "--mesh", 8, "--bogus", 1],
    ["catalog", "--bogus", 1],
    [],
], ids=["solve", "solve-base-res", "verify", "oracle", "cvp", "catalog", "no-command"])
def test_usage_errors_are_input_errors(tmp_path, monkeypatch, capsys, argv):
    # exit 2 means infimizer-only; a malformed command line is an input error
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["oracle", "--catalog", "pair", "--tol", 1],
    ["catalog", "--out", "x"],
    ["oracle", "--catalog", "pair", "--format", "csv"],
], ids=["oracle-tol", "catalog-out", "oracle-format"])
def test_flags_a_command_does_not_read_are_refused(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("fmt", ["xml", "json,xml", ",", ""])
def test_unknown_format_names_are_refused_before_any_work(outdir, capsys, fmt):
    assert run(VERIFY_VOP + ["--format", fmt, "--out", outdir]) == 1
    assert "argument --format" in capsys.readouterr().err
    assert not any(outdir.iterdir())


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["oracle", "--help"]])
def test_help_and_version_exit_zero(argv):
    with pytest.raises(SystemExit) as stop:
        run(argv)
    assert stop.value.code == 0
