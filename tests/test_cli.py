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
                           base, probe, check_lattice_min=False)
    # the probe must lie in the space only when the lattice check reads it
    m = CandidateSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    off_probe = np.concatenate([probe, [[5.0, 5.0]]])
    with pytest.raises(OutOfDomainError, match=r"\[5.0, 5.0\] lies outside"):
        verify_sc_solution(f, m, base, off_probe)
    assert verify_sc_solution(f, m, base, off_probe,
                              check_lattice_min=False).verdict == "sc-solution"


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


def test_solve_needs_exactly_one_source(outdir, capsys):
    assert run(["solve", "--out", outdir]) == 1
    assert run(["solve", "--catalog", "hyperbola", "--problem", "x.json",
                "--out", outdir]) == 1
