import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from setopt import catalog, jsonio
from setopt.catalog import make_cvp
from setopt.cones import DualBase, base_directions, cone_generated, cone_orthant, default_anchor
from setopt.errors import InputFormatError
from setopt.setfuns import Box, FiniteInstance, Grid
from setopt.uppersets import UpperSet, equals


def test_load_json_reports_line_and_column(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"a": 1,\n "b": }')
    with pytest.raises(InputFormatError) as err:
        jsonio.load_json(p)
    assert "line 2" in str(err.value)
    assert "column" in str(err.value)


def test_load_json_missing_file():
    with pytest.raises(InputFormatError):
        jsonio.load_json("/nonexistent/path.json")


def test_load_json_top_level_must_be_object(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2]")
    with pytest.raises(InputFormatError):
        jsonio.load_json(p)


def test_cone_round_trip():
    for cone in (cone_orthant(3),
                 cone_generated([[1.0, 0.0], [1.0, 1.0]],
                                [[0.0, 1.0], [1.0, -1.0]])):
        back = jsonio.cone_from_dict(jsonio.cone_to_dict(cone))
        assert back == cone


def test_cone_from_dict_errors():
    with pytest.raises(InputFormatError):
        jsonio.cone_from_dict({"dim": 2})
    with pytest.raises(InputFormatError):
        jsonio.cone_from_dict({"kind": "orthant"})
    with pytest.raises(InputFormatError):
        jsonio.cone_from_dict({"kind": "generated", "primal": [[1, 0]]})
    with pytest.raises(InputFormatError):
        jsonio.cone_from_dict({"kind": "simplex"})


def test_value_round_trip():
    cone = cone_orthant(2)
    v = UpperSet(cone, np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
    back = jsonio.value_from_dict(jsonio.value_to_dict(v), cone)
    assert equals(v, back)
    empty = jsonio.value_from_dict({"generators": []}, cone)
    assert empty.is_empty
    assert jsonio.value_to_dict(empty) == {"generators": []}


def test_problem_from_dict_catalog_with_space_override():
    prob, m = jsonio.problem_from_dict({
        "objective": {"catalog": "hyperbola"},
        "space": {"kind": "box", "lower": [0.5], "upper": [2.0]},
        "m": [[1.0]],
    })
    assert isinstance(prob.setfn.space, Box)
    assert prob.setfn.space.upper[0] == 2.0
    assert_allclose(m, [[1.0]])
    ref = catalog.make_problem("hyperbola")
    assert (prob.name, prob.base_kind, prob.default_directions, prob.description) == \
        (ref.name, ref.base_kind, ref.default_directions, ref.description)
    assert np.array_equal(prob.anchor, ref.anchor) and np.array_equal(prob.start, ref.start)


def test_problem_from_dict_table():
    prob, m = jsonio.problem_from_dict({
        "cone": {"kind": "orthant", "dim": 2},
        "objective": {"table": [
            {"x": [0.0], "generators": [[1.0, 1.0]]},
            {"x": [1.0], "generators": []},
        ]},
    })
    assert isinstance(prob.setfn.space, Grid)
    assert m is None


@pytest.mark.parametrize("dim, directions", [(2, catalog.PLANAR_DIRECTIONS), (3, 1)])
def test_table_file_gets_the_catalog_table_defaults(dim, directions):
    prob, _ = jsonio.problem_from_dict({
        "label": "two points",
        "cone": {"kind": "orthant", "dim": dim},
        "objective": {"table": [
            {"x": [0.0, 1.0], "generators": [[0.0] * (dim - 1) + [1.0]]},
            {"x": [1.0, 0.0], "generators": [[1.0] + [0.0] * (dim - 1)]},
        ]},
    })
    assert (prob.name, prob.base_kind, prob.default_directions, prob.description) == \
        ("two points", "full", directions, "table problem")
    assert np.array_equal(prob.anchor, np.ones(dim))
    assert np.array_equal(prob.start, np.zeros(2))
    assert len(catalog.directions_for(prob)) == directions


def test_problem_from_dict_errors():
    with pytest.raises(InputFormatError):
        jsonio.problem_from_dict({})
    with pytest.raises(InputFormatError):
        jsonio.problem_from_dict({"objective": {"table": []}})
    with pytest.raises(InputFormatError):
        jsonio.problem_from_dict({"objective": {"neither": 1}})


def test_instance_from_dict():
    inst, m, dirs = jsonio.instance_from_dict({
        "cone": {"kind": "orthant", "dim": 2},
        "table": [
            {"x": [0.0, 0.0], "generators": [[1.0, 0.0], [0.0, 1.0]]},
            {"x": [1.0, 0.0], "generators": [[1.0, 1.0]]},
        ],
        "m": [[0.0, 0.0]],
        "directions": [[1.0, 0.0]],
    })
    assert inst.size == 2
    assert_allclose(m, [[0.0, 0.0]])
    assert_allclose(dirs, [[1.0, 0.0]])
    with pytest.raises(InputFormatError):
        jsonio.instance_from_dict({"cone": {"kind": "orthant", "dim": 2}})


def test_table_problem_and_instance_files_load_to_one_type():
    cone = {"kind": "orthant", "dim": 2}
    rows = [{"x": [0.0, 1.0], "generators": [[1.0, 2.0], [2.0, 1.0]]},
            {"x": [1.0, 0.0], "generators": []},
            {"x": [1.0, 1.0], "generators": [[0.5, 3.0]]}]
    prob, _ = jsonio.problem_from_dict({"cone": cone, "objective": {"table": rows}})
    inst, _, _ = jsonio.instance_from_dict({"cone": cone, "table": rows})
    assert type(prob.setfn) is type(inst) is FiniteInstance
    assert np.array_equal(prob.setfn.grid, inst.grid)
    assert len(prob.setfn.values) == len(inst.values) == 3
    assert all(equals(a, b) for a, b in zip(prob.setfn.values, inst.values))
    assert (prob.setfn.label, inst.label) == ("table", "instance")


@pytest.mark.parametrize("cone", [
    {"kind": "orthant", "dim": 2},
    {"kind": "generated", "primal": [[1.0, 0.0], [1.0, 1.0]], "dual": [[0.0, 1.0], [1.0, -1.0]]},
])
def test_instance_file_without_m_or_directions_gets_the_defaults(cone):
    inst, m, dirs = jsonio.instance_from_dict({
        "cone": cone,
        "table": [{"x": [0.0], "generators": [[1.0, 0.0]]},
                  {"x": [1.0], "generators": [[0.0, 1.0]]}],
    })
    assert np.array_equal(m, inst.grid)
    expected = base_directions(inst.cone, default_anchor(inst.cone), 4).directions
    assert dirs.shape == (5, 2) and np.array_equal(dirs, expected)


def test_cvp_from_dict_defaults_and_validation():
    base = {"a": 0.0, "b": 1.0, "A": [0.0], "B": [1.0], "N": 10,
            "lagrangian": "quadratic"}
    cvp = jsonio.cvp_from_dict(base)
    assert cvp.mesh == 10
    assert cvp.directions.shape == (9, 2)  # default alphas 0.1 .. 0.9
    assert_allclose(cvp.directions.sum(axis=1), 1.0)
    assert_allclose(jsonio.cvp_from_dict({**base, "alphas": [0.5]}).directions, [[0.5, 0.5]])
    with pytest.raises(InputFormatError):
        jsonio.cvp_from_dict({**base, "n": 2})
    with pytest.raises(InputFormatError):
        jsonio.cvp_from_dict({**base, "lagrangian": 7})
    missing = dict(base)
    del missing["N"]
    with pytest.raises(InputFormatError):
        jsonio.cvp_from_dict(missing)


def test_cvp_file_of_the_catalog_problem_loads_to_its_fields():
    ref = make_cvp("quadratic_cvp")
    got = jsonio.cvp_from_dict({"a": 0.0, "b": 1.0, "A": [0.0], "B": [1.0], "N": 100,
                                "lagrangian": {"catalog": "quadratic"}})
    assert isinstance(got, catalog.CvpProblem)
    assert got.lagrangian == ref.lagrangian
    for field in ("a", "b", "A", "B"):
        assert np.array_equal(getattr(got.boundary, field), getattr(ref.boundary, field))
    assert got.mesh == ref.mesh
    assert np.array_equal(got.directions, ref.directions)


def test_write_json_is_sorted_and_non_finite_safe(tmp_path):
    p = tmp_path / "out.json"
    jsonio.write_json(p, {"b": math.inf, "a": np.float64(1.5),
                          "c": [-math.inf, math.nan, np.int64(2)],
                          "d": np.array([1.0, 2.0])})
    text = p.read_text()
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["b"] == "inf"
    assert data["c"] == ["-inf", "nan", 2]
    assert data["d"] == [1.0, 2.0]
    assert list(data) == sorted(data)


def test_write_json_deterministic_bytes(tmp_path):
    payload = {"z": 1.0 / 3.0, "a": {"y": [1, 2], "x": True}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    jsonio.write_json(p1, payload)
    jsonio.write_json(p2, payload)
    assert p1.read_bytes() == p2.read_bytes()


def test_base_report_carries_version():
    from setopt import __version__
    rep = jsonio.base_report({"seed": 3})
    assert rep["version"] == __version__
    assert rep["config"] == {"seed": 3}


def test_support_csv(tmp_path):
    p = tmp_path / "support.csv"
    base = DualBase(cone_orthant(2), np.array([1.0, 1.0]),
                    np.array([[0.5, 0.5], [0.25, 0.75]]))
    jsonio.support_csv(p, base, [1.0, math.inf])
    lines = p.read_text().splitlines()
    assert lines[0] == "z1,z2,value"
    assert lines[1].startswith("0.5,0.5,")
    assert lines[2].endswith("inf")


def test_polyline_csv(tmp_path):
    p = tmp_path / "poly.csv"
    v = UpperSet(cone_orthant(2), np.array([[1.0, 0.0], [0.0, 1.0]]))
    jsonio.polyline_csv(p, v)
    lines = p.read_text().splitlines()
    assert lines[0] == "kind,z1,z2"
    kinds = [ln.split(",")[0] for ln in lines[1:]]
    assert kinds.count("vertex") == 2
    assert kinds.count("ray") == 2
    # the empty set writes a bare header
    p2 = tmp_path / "empty.csv"
    jsonio.polyline_csv(p2, UpperSet.empty(cone_orthant(2)))
    assert p2.read_text() == "kind,z1,z2\n"


def test_front_and_arcs_csv(tmp_path):
    from setopt.calcvar import cvp_sweep
    cvp = make_cvp("quadratic_cvp")
    rep = cvp_sweep(cvp.lagrangian, cvp.directions[:2], cvp.boundary, 8)
    front = tmp_path / "front.csv"
    jsonio.front_csv(front, rep)
    lines = front.read_text().splitlines()
    assert lines[0].split(",")[:3] == ["alpha", "z1", "z2"]
    assert len(lines) == 3
    assert lines[1].split(",")[-1] == "true"
    arcs = tmp_path / "arcs.csv"
    jsonio.arcs_csv(arcs, rep)
    lines = arcs.read_text().splitlines()
    assert lines[0] == "t,x_dir1_1,x_dir2_1"
    assert len(lines) == 1 + 9  # header plus N + 1 nodes
