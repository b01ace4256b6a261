"""Problem ingestion and report emission.

JSON in, JSON and CSV out.  Every writer is deterministic: keys are
sorted, floats go through ``repr``, newlines are explicit, and no
timestamps or environment data are embedded.  Reports carry the
configuration, seed, tolerances and truncation parameters that produced
them, plus the library version.

Schemas:
  cone      {"kind": "orthant", "dim": d}
            {"kind": "generated", "primal": [[...]], "dual": [[...]]}
  value     {"generators": [[...], ...]}        empty list means the empty set
  problem   {"cone": ..., "space": {"kind": "box", "lower": [...], "upper": [...]}
                          | {"kind": "grid", "points": [[...]]},
             "objective": {"catalog": name, "params": {...}}
                          | {"table": [{"x": [...], "generators": [[...]]}]},
             "m": [[...]]                        optional translation/verify set
  instance  {"cone": ..., "table": [...], "m": [[...]], "directions": [[...]]}
  cvp       {"a":, "b":, "A": [...], "B": [...], "n":, "d":, "N":,
             "lagrangian": {"catalog": name}, "alphas": [...] optional}
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from . import catalog
from ._version import __version__
from .calcvar import Boundary
from .cones import Cone, cone_generated, cone_orthant
from .errors import InputFormatError
from .setfuns import Box, FiniteInstance, Grid, SetFunction
from .uppersets import UpperSet, boundary_polyline


def load_json(path) -> dict:
    """Parse a JSON file, turning syntax errors into input errors that
    carry the line and column."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(data, dict):
        raise InputFormatError(f"{path}: expected a JSON object at the top level")
    return data


def cone_from_dict(d) -> Cone:
    if not isinstance(d, dict) or "kind" not in d:
        raise InputFormatError("cone needs a 'kind' field")
    kind = d["kind"]
    if kind == "orthant":
        if "dim" not in d:
            raise InputFormatError("orthant cone needs 'dim'")
        return cone_orthant(int(d["dim"]))
    if kind == "generated":
        if "primal" not in d or "dual" not in d:
            raise InputFormatError("generated cone needs 'primal' and 'dual'")
        return cone_generated(d["primal"], d["dual"])
    raise InputFormatError(f"unknown cone kind {kind!r}")


def cone_to_dict(cone: Cone) -> dict:
    if cone.kind == "orthant":
        return {"kind": "orthant", "dim": cone.dim}
    return {"kind": "generated", "primal": cone.primal.tolist(),
            "dual": cone.dual.tolist()}


def value_from_dict(d, cone: Cone) -> UpperSet:
    if not isinstance(d, dict) or "generators" not in d:
        raise InputFormatError("value needs a 'generators' field")
    gens = d["generators"]
    if not gens:
        return UpperSet.empty(cone)
    return UpperSet(cone, np.asarray(gens, dtype=float))


def value_to_dict(value: UpperSet) -> dict:
    if value.is_empty:
        return {"generators": []}
    return {"generators": value.minimal_generators().tolist()}


def _space_from_dict(d):
    if not isinstance(d, dict) or "kind" not in d:
        raise InputFormatError("space needs a 'kind' field")
    if d["kind"] == "box":
        if "lower" not in d or "upper" not in d:
            raise InputFormatError("box space needs 'lower' and 'upper'")
        return Box(d["lower"], d["upper"])
    if d["kind"] == "grid":
        if "points" not in d:
            raise InputFormatError("grid space needs 'points'")
        return Grid(np.asarray(d["points"], dtype=float))
    raise InputFormatError(f"unknown space kind {d['kind']!r}")


def _table_instance(d: dict, table, default_label: str) -> FiniteInstance:
    """The file's ``table`` rows over its ``cone`` as a finite instance."""
    cone = cone_from_dict(d["cone"])
    xs, vals = [], []
    for row in table:
        if not isinstance(row, dict) or "x" not in row or "generators" not in row:
            raise InputFormatError("table rows need 'x' and 'generators'")
        xs.append(np.atleast_1d(np.asarray(row["x"], dtype=float)))
        vals.append(value_from_dict({"generators": row["generators"]}, cone))
    if not xs:
        raise InputFormatError("table must be nonempty")
    return FiniteInstance(np.stack(xs), vals, cone, label=d.get("label", default_label))


def _points(d: dict, key: str):
    """The optional point list ``d[key]`` as rows, or None.  A present but
    empty list is refused by name."""
    if key not in d:
        return None
    rows = np.atleast_2d(np.asarray(d[key], dtype=float))
    if rows.size == 0:
        raise InputFormatError(f"'{key}' must list at least one point")
    return rows


def problem_from_dict(d: dict):
    """A problem file as (catalog Problem, verify set ``m`` or None).  A
    catalog objective keeps its catalog defaults, on the file's ``space``
    when one is given; a table gets :func:`catalog.table_problem`'s."""
    if "objective" not in d:
        raise InputFormatError("problem needs an 'objective' field")
    obj = d["objective"]
    if isinstance(obj, dict) and "catalog" in obj:
        params = obj.get("params", {}) or {}
        prob = catalog.make_problem(obj["catalog"], **params)
        if "space" in d:
            fn = SetFunction.from_vector_map(_space_from_dict(d["space"]), prob.setfn.cone,
                                             prob.setfn.vector_map, label=prob.name)
            prob = dataclasses.replace(prob, setfn=fn)
        return prob, _points(d, "m")
    if isinstance(obj, dict) and "table" in obj:
        if "cone" not in d:
            raise InputFormatError("table problems need a 'cone' field")
        fn = _table_instance(d, obj["table"], "table")
        return catalog.table_problem(fn), _points(d, "m")
    raise InputFormatError("objective needs either 'catalog' or 'table'")


def instance_from_dict(d: dict):
    """Finite oracle instance as (instance, m, directions), the two absent
    fields defaulted by :func:`catalog.instance_inputs`."""
    if "cone" not in d or "table" not in d:
        raise InputFormatError("instance needs 'cone' and 'table'")
    inst = _table_instance(d, d["table"], "instance")
    return catalog.instance_inputs(inst, _points(d, "m"), _points(d, "directions"))


def cvp_from_dict(d: dict) -> catalog.CvpProblem:
    """Variational problem file as a :class:`catalog.CvpProblem`; the
    directions default to :func:`catalog.cvp_directions` of the file's
    optional ``alphas``."""
    for key in ("a", "b", "A", "B", "N", "lagrangian"):
        if key not in d:
            raise InputFormatError(f"variational problem needs {key!r}")
    lag_field = d["lagrangian"]
    if isinstance(lag_field, dict) and "catalog" in lag_field:
        lag = catalog.make_lagrangian(lag_field["catalog"])
    elif isinstance(lag_field, str):
        lag = catalog.make_lagrangian(lag_field)
    else:
        raise InputFormatError("lagrangian needs a catalog id")
    if "n" in d and int(d["n"]) != lag.n:
        raise InputFormatError("state dimension disagrees with the Lagrangian")
    if "d" in d and int(d["d"]) != lag.d:
        raise InputFormatError("value dimension disagrees with the Lagrangian")
    boundary = Boundary(float(d["a"]), float(d["b"]), d["A"], d["B"])
    if boundary.A.shape[0] != lag.n:
        raise InputFormatError("endpoint dimension disagrees with the Lagrangian")
    dirs = _points(d, "directions")
    if dirs is None:
        dirs = catalog.cvp_directions(d.get("alphas"))
    return catalog.CvpProblem(lag.label, lag, boundary, int(d["N"]), dirs,
                              "variational problem file")


def _clean(obj):
    """Make a structure JSON-safe: arrays to lists, non-finite floats to
    strings, numpy scalars to Python ones."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _clean(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path, payload: dict) -> None:
    """Sorted-key JSON with a trailing newline; byte-stable for equal input."""
    text = json.dumps(_clean(payload), sort_keys=True, indent=2)
    Path(path).write_text(text + "\n")


def base_report(config: dict) -> dict:
    """Common report envelope: configuration echo plus library version."""
    return {"version": __version__, "config": _clean(config)}


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    f = float(x)
    if math.isnan(f):
        return "nan"
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    return repr(f)


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def support_csv(path, base, values) -> None:
    """Direction table mapping each scalarization to its optimal value: the
    support data of the infimum."""
    header = [f"z{i + 1}" for i in range(base.cone.dim)] + ["value"]
    rows = [list(z) + [v] for z, v in zip(base.directions, values)]
    write_csv(path, header, rows)


def polyline_csv(path, value: UpperSet) -> None:
    """Planar boundary polyline: ordered vertices then the two recession
    directions, marked by the row kind."""
    header = ["kind", "z1", "z2"]
    rows = []
    if not value.is_empty:
        verts, rays = boundary_polyline(value)
        for v in verts:
            rows.append(["vertex", v[0], v[1]])
        for r in rays:
            rows.append(["ray", r[0], r[1]])
    write_csv(path, header, rows)


def front_csv(path, report) -> None:
    """Variational sweep table: direction, objective components, residual,
    convergence flag."""
    d = report.directions.shape[1]
    alphas = report.directions[:, 0] if d == 2 else None
    header = (["alpha"] if alphas is not None else []) \
        + [f"z{i + 1}" for i in range(d)] \
        + [f"F{i + 1}" for i in range(report.values.shape[1])] \
        + ["residual", "iterations", "converged"]
    rows = []
    for i in range(report.directions.shape[0]):
        row = []
        if alphas is not None:
            row.append(alphas[i])
        row += list(report.directions[i]) + list(report.values[i])
        row += [report.residuals[i], report.iterations[i], report.converged[i]]
        rows.append(row)
    write_csv(path, header, rows)


def arcs_csv(path, report) -> None:
    """Node-by-node dump of every swept arc: time column then one state
    column per direction."""
    times = report.arcs[0].times
    header = ["t"] + [f"x_dir{i + 1}_{j + 1}"
                      for i in range(len(report.arcs))
                      for j in range(report.arcs[i].states.shape[1])]
    rows = []
    for k in range(times.shape[0]):
        row = [times[k]]
        for arc in report.arcs:
            row += list(arc.states[k])
        rows.append(row)
    write_csv(path, header, rows)
