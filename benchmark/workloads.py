"""The four workloads: generated inputs, CLI calls and their checks.

A workload is a list of operations.  An operation is one call of
``setopt.cli.main`` with its own output directory, plus the checker that
judges the files it wrote.  ``build`` writes the generated input files
for a seed and returns the operations together with the loader calls
that the set-up probe repeats in a fresh process.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# Input sizes (see README.md for how they were chosen).
VOP_BASE_RES = 41
VOP_PROBE_RES = 33
TABLES = 4
TABLE_POINTS = 30
TABLE_GENERATORS = 4
TABLE_BASE_RES = 7          # 28 directions: the d = 3 certificate sample
FIXED_TABLES = 2
FIXED_TABLE_SEED = 2
FIXED_BASE_RES = 13         # 91 directions, refining the certificate sample
#: Fixed tables whose pruned infimum breaks the support law.
FAULTY_FIXED_TABLES = frozenset({"fixed_table1"})
CAMPAIGN_INSTANCES = 8
CAMPAIGN_SEED = 7
INSTANCE_POINTS = 10
INSTANCE_GENERATORS = 3
CVP_MESH = 120

WORKLOADS = ("solve-vop", "solve-table3d", "oracle-campaign", "cvp-quadratic")


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[int, Path], list[str]]
    #: Start of the one problem a known program fault makes this
    #: operation report; any other problem is unexpected.
    known_fault: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    #: Loader calls for the set-up probe: [kind, argument] pairs.
    setup: list[list[str]]


def _report(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, sort_keys=True))
    return str(path)


def _solve_vop(seed: int, _inputs: Path) -> Workload:
    op = Op("linear_vop",
            ["solve", "--catalog", "linear_vop", "--base-res", str(VOP_BASE_RES),
             "--probe-res", str(VOP_PROBE_RES), "--seed", str(seed)],
            lambda rc, out: checks.check_vop(rc, _report(out, "solve_report.json")))
    return Workload([op], [["problem", "linear_vop"]])


def _table_op(name: str, path: str, gens: np.ndarray, base_res: int, seed: int,
              known_fault: bool = False) -> Op:
    return Op(name,
              ["solve", "--problem", path, "--base-res", str(base_res),
               "--seed", str(seed)],
              lambda rc, out: checks.check_table(rc, _report(out, "solve_report.json"), gens),
              checks.SUPPORT_LAW if known_fault else None)


def _random_table(rng: np.random.Generator, label: str) -> dict:
    xs = rng.uniform(0.0, 10.0, size=(TABLE_POINTS, 2))
    gens = rng.uniform(0.0, 4.0, size=(TABLE_POINTS, TABLE_GENERATORS, 3))
    return {"label": label, "cone": {"kind": "orthant", "dim": 3},
            "objective": {"table": [{"x": x.tolist(), "generators": g.tolist()}
                                    for x, g in zip(xs, gens)]}}


def _table_generators(problem: dict) -> np.ndarray:
    return np.concatenate([np.asarray(r["generators"], dtype=float)
                           for r in problem["objective"]["table"]])


def _solve_table3d(seed: int, inputs: Path) -> Workload:
    """Seeded tables at the certificate resolution, then the fixed tables
    at a finer base, where the d >= 3 pruning fault shows."""
    ops, setup = [], []
    for prefix, count, table_seed, base_res in (
            ("table", TABLES, seed, TABLE_BASE_RES),
            ("fixed_table", FIXED_TABLES, FIXED_TABLE_SEED, FIXED_BASE_RES)):
        rng = np.random.default_rng(table_seed)
        for t in range(count):
            name = f"{prefix}{t}"
            problem = _random_table(rng, name)
            path = _write(inputs / f"{name}.json", problem)
            ops.append(_table_op(name, path, _table_generators(problem), base_res,
                                 table_seed, known_fault=name in FAULTY_FIXED_TABLES))
            setup.append(["table", path])
    return Workload(ops, setup)


def _instance(rng: np.random.Generator, m_count: int, m_offset: float):
    """Orthant instance whose first m_count points carry values shifted by
    m_offset: far below the rest makes m an infimizer, far above makes it
    not one."""
    grid = rng.uniform(-3.0, 3.0, size=(INSTANCE_POINTS, 2))
    values = [rng.normal(0.0, 2.0, size=(INSTANCE_GENERATORS, 2))
              for _ in range(INSTANCE_POINTS)]
    for i in range(m_count):
        values[i] = m_offset + rng.normal(0.0, 0.5, size=(INSTANCE_GENERATORS, 2))
    payload = {"label": "seeded instance", "cone": {"kind": "orthant", "dim": 2},
               "table": [{"x": x.tolist(), "generators": v.tolist()}
                         for x, v in zip(grid, values)],
               "m": grid[:m_count].tolist(),
               "directions": [[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]]}
    return payload, grid, values


def _oracle_campaign(seed: int, inputs: Path) -> Workload:
    rng = np.random.default_rng(seed)
    n = CAMPAIGN_INSTANCES
    ops = [Op("campaign", ["oracle", "--instances", str(n), "--seed", str(CAMPAIGN_SEED)],
              lambda rc, out: checks.check_campaign(rc, _report(out, "oracle_report.json"), n))]
    setup = []
    for name, m_count, offset, infimizer in (("infimizer_instance", 3, -10.0, True),
                                             ("plain_instance", 2, 10.0, False)):
        payload, grid, values = _instance(rng, m_count, offset)
        path = _write(inputs / f"{name}.json", payload)
        ops.append(Op(name, ["oracle", "--problem", path, "--seed", str(seed)],
                      lambda rc, out, g=grid, v=values, e=infimizer: checks.check_instance(
                          rc, _report(out, "oracle_report.json"), g, v, e)))
        setup.append(["instance", path])
    ops.append(Op("hyperbola_instance", ["oracle", "--catalog", "hyperbola_instance"],
                  lambda rc, out: checks.check_hyperbola_instance(
                      rc, _report(out, "oracle_report.json"))))
    ops.append(Op("pair_inject_fault", ["oracle", "--catalog", "pair", "--inject-fault"],
                  lambda rc, out: checks.check_injected_fault(
                      rc, _report(out, "oracle_report.json"))))
    setup += [["catalog_instance", "hyperbola_instance"], ["catalog_instance", "pair"]]
    return Workload(ops, setup)


def _read_arcs(path: Path) -> np.ndarray:
    with path.open() as fh:
        rows = list(csv.reader(fh))
    return np.asarray(rows[1:], dtype=float)


def _cvp_quadratic(seed: int, _inputs: Path) -> Workload:
    op = Op("quadratic_cvp",
            ["cvp", "--catalog", "quadratic_cvp", "--mesh", str(CVP_MESH), "--seed", str(seed)],
            lambda rc, out: checks.check_cvp(rc, _report(out, "cvp_report.json"),
                                             _read_arcs(out / "arcs.csv"), CVP_MESH))
    return Workload([op], [["cvp", "quadratic_cvp"]])


_BUILDERS = {"solve-vop": _solve_vop, "solve-table3d": _solve_table3d,
             "oracle-campaign": _oracle_campaign, "cvp-quadratic": _cvp_quadratic}


def build(name: str, seed: int, inputs: Path) -> Workload:
    """Write the workload's generated inputs under ``inputs`` and return
    its operations."""
    return _BUILDERS[name](seed, inputs)
