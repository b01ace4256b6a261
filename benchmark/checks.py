"""Independent checks of the reports the CLI writes.

Each checker takes the exit code and the parsed report (plus whatever it
needs to recompute the answer on its own) and returns a list of problems;
an empty list means the operation is correct.  Nothing here calls into
``setopt``: expected values come from closed forms or from numpy
arithmetic on the generated inputs.
"""

from __future__ import annotations

import math

import numpy as np

#: Dense nonnegative directions used to compare supports in the plane.
_PLANAR_DIRS = np.stack([np.linspace(0.0, 1.0, 201), 1.0 - np.linspace(0.0, 1.0, 201)],
                        axis=1)


def _expect_rc(rc: int, want: int) -> list[str]:
    return [] if rc == want else [f"exit code {rc}, expected {want}"]


# -- solve-vop -------------------------------------------------------------

#: The verdict tolerance ``solve`` uses on box spaces when no ``--tol``
#: is given; fixed here so that a looser program default cannot loosen
#: the checks below.
VOP_TOL = 1e-3


def check_vop(rc: int, report: dict) -> list[str]:
    """linear_vop: the infimum is co{(1,0),(0,1)} + R^2_+, whose support
    along z >= 0 is min(z1, z2)."""
    problems = _expect_rc(rc, 0)
    if report.get("verdict") != "sc-solution":
        problems.append(f"verdict {report.get('verdict')!r}, expected 'sc-solution'")
    tol = VOP_TOL
    if report.get("tol") != tol:
        problems.append(f"verdict tolerance {report.get('tol')!r}, expected {tol}")
    gens = np.asarray(report["infimum"]["generators"], dtype=float).reshape(-1, 2)
    if gens.shape[0] == 0:
        return problems + ["empty infimum"]
    support = (gens @ _PLANAR_DIRS.T).min(axis=0)
    exact = _PLANAR_DIRS.min(axis=1)
    worst = float(np.max(np.abs(support - exact)))
    if worst > tol:
        problems.append(f"infimum support misses min(z1, z2) by {worst:.3g} > {tol}")
    dirs = np.asarray(report["directions"], dtype=float)
    cand = np.asarray(report["gaps"]["candidate_minima"], dtype=float)
    worst = float(np.max(np.abs(cand - dirs.min(axis=1))))
    if worst > tol:
        problems.append(f"candidate minima miss min(z1, z2) by {worst:.3g} > {tol}")
    return problems


# -- solve-table3d -----------------------------------------------------------

#: How the table check reports a broken support law.
SUPPORT_LAW = "support law broken"


def check_table(rc: int, report: dict, table_generators: np.ndarray,
                rel_tol: float = 1e-9) -> list[str]:
    """Grid tables: exact enumeration gives zero gaps, and the reported
    infimum obeys support(inf A_i) = min_i support(A_i) along every base
    direction, the right side computed from the table file."""
    problems = _expect_rc(rc, 0)
    if report.get("verdict") != "sc-solution":
        problems.append(f"verdict {report.get('verdict')!r}, expected 'sc-solution'")
    gaps = report["gaps"]
    if any(float(g) != 0.0 for g in gaps["per_direction"]) or float(gaps["co_gap"]) != 0.0:
        problems.append("nonzero gap on an exactly enumerated grid")
    dirs = np.asarray(report["directions"], dtype=float)
    gens = np.asarray(report["infimum"]["generators"], dtype=float)
    if gens.size == 0:
        return problems + ["empty infimum"]
    gens = gens.reshape(-1, dirs.shape[1])
    law = (table_generators @ dirs.T).min(axis=0)
    got = (gens @ dirs.T).min(axis=0)
    scale = max(1.0, float(np.max(np.abs(table_generators))))
    excess = got - law
    worst = int(np.argmax(np.abs(excess)))
    if abs(excess[worst]) > rel_tol * scale:
        problems.append(
            f"{SUPPORT_LAW} along {dirs[worst].tolist()}: infimum "
            f"{float(got[worst])!r} vs table minimum {float(law[worst])!r} "
            f"({gens.shape[0]} generators reported)")
    return problems


# -- oracle-campaign ----------------------------------------------------------

def check_campaign(rc: int, report: dict, instances: int) -> list[str]:
    problems = _expect_rc(rc, 0)
    com, lem = report["commutation_campaign"], report["lemma_campaign"]
    if com["count"] != instances or lem["count"] != max(1, instances // 2):
        problems.append(f"campaign counts {com['count']}/{lem['count']} for "
                        f"--instances {instances}")
    for name, camp in (("commutation", com), ("lemma", lem)):
        if camp["failures"] or not camp["passed"]:
            problems.append(f"{name} campaign failures: {camp['failures']}")
    if float(com["max_gap"]) > 1e-12:
        problems.append(f"commutation max gap {com['max_gap']!r} > 1e-12")
    return problems


def _planar_support(gens: np.ndarray, ts: np.ndarray) -> np.ndarray:
    z = np.stack([ts, 1.0 - ts], axis=1)
    return (gens @ z.T).min(axis=0)


def _breakpoints(gens: np.ndarray) -> np.ndarray:
    """Parameters t in [0, 1] where two generator lines t -> g.(t, 1-t)
    cross: the support function is linear between them."""
    a = gens[:, None, :] - gens[None, :, :]
    den = a[..., 0] - a[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -a[..., 1] / den
    t = t[np.isfinite(t) & (t > 0.0) & (t < 1.0)]
    return np.concatenate([[0.0, 1.0], t])


def orthant_minimizers(values: list[np.ndarray], tol: float = 1e-9) -> list[int]:
    """Lattice minimizers of planar orthant values co(P_i) + R^2_+.

    A_j is strictly below A_i when A_j contains A_i and differs from it,
    i.e. support_j <= support_i on the dual cone with strict inequality
    somewhere.  Both supports are piecewise linear in t for z = (t, 1-t),
    so comparing them at every crossing of two generator lines is exact.
    """
    keep = []
    for i, gi in enumerate(values):
        minimal = True
        for j, gj in enumerate(values):
            if i == j:
                continue
            ts = _breakpoints(np.vstack([gi, gj]))
            si, sj = _planar_support(gi, ts), _planar_support(gj, ts)
            scale = max(1.0, float(np.max(np.abs(np.vstack([gi, gj])))))
            if np.all(sj <= si + tol * scale) and np.any(sj < si - tol * scale):
                minimal = False
                break
        if minimal:
            keep.append(i)
    return keep


def _same_points(got, want, tol: float = 1e-12) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.size == 0 or want.size == 0:
        return got.size == want.size
    got = got.reshape(-1, want.shape[1])
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol))


def check_instance(rc: int, report: dict, grid: np.ndarray, values: list[np.ndarray],
                   expect_infimizer: bool) -> list[str]:
    """Seeded orthant instance: every lemma clause passes, m is an
    infimizer exactly when the instance was built so, the commutation gap
    is zero, and the lattice minimizers match the exact recomputation."""
    problems = _expect_rc(rc, 0)
    lemma = report["lemma"]
    if not lemma["passed"]:
        problems.append("failed clauses: " + ", ".join(
            c["name"] for c in lemma["clauses"] if not c["passed"]))
    if bool(lemma["infimizer"]) != expect_infimizer:
        problems.append(f"infimizer={lemma['infimizer']}, built as {expect_infimizer}")
    if float(report["commutation_gap"]) > 1e-12 or not report["commutation_pass"]:
        problems.append(f"commutation gap {report['commutation_gap']!r} > 1e-12")
    want = grid[orthant_minimizers(values)]
    if not _same_points(report["lattice_minimizers"], want):
        problems.append(f"lattice minimizers {report['lattice_minimizers']} != {want.tolist()}")
    return problems


def check_hyperbola_instance(rc: int, report: dict) -> list[str]:
    """Points (y, 1/y) are pairwise incomparable, so all 50 grid points are
    lattice minimizers."""
    problems = _expect_rc(rc, 0)
    if not report["lemma"]["passed"]:
        problems.append("a lemma clause failed")
    if float(report["commutation_gap"]) > 1e-12:
        problems.append(f"commutation gap {report['commutation_gap']!r} > 1e-12")
    ys = np.linspace(0.2, 10.0, 50)[:, None]
    if not _same_points(report["lattice_minimizers"], ys):
        problems.append(f"{len(report['lattice_minimizers'])} lattice minimizers, "
                        "expected all 50 grid points")
    return problems


#: Clauses the origin corruption of ``pair --inject-fault`` must trip.
INJECTED_CLAUSES = {"b_inf_preserved", "c4_supersets"}


def check_injected_fault(rc: int, report: dict) -> list[str]:
    problems = _expect_rc(rc, 3)
    if not report.get("fault_injected"):
        problems.append("report does not record the injected fault")
    failed = {c["name"] for c in report["lemma"]["clauses"] if not c["passed"]}
    if failed != INJECTED_CLAUSES:
        problems.append(f"failed clauses {sorted(failed)}, expected "
                        f"{sorted(INJECTED_CLAUSES)}")
    if report["commutation_pass"]:
        problems.append("commutation check missed the corrupted origin value")
    return problems


# -- cvp-quadratic -------------------------------------------------------------

def sinh_extremal(alpha: float):
    """Closed form for min alpha*int y'^2 + (1-alpha)*int y^2, y(0)=0,
    y(1)=1: y = sinh(k t)/sinh(k) with k = sqrt((1-alpha)/alpha).
    Returns (arc function, (F1, F2))."""
    k = math.sqrt((1.0 - alpha) / alpha)
    s2, sh2 = math.sinh(2.0 * k) / (4.0 * k), math.sinh(k) ** 2
    values = (k * k * (s2 + 0.5) / sh2, (s2 - 0.5) / sh2)
    return (lambda t: np.sinh(k * t) / math.sinh(k)), values


def check_cvp(rc: int, report: dict, arcs: np.ndarray, mesh: int) -> list[str]:
    """Every direction converged, and values and arcs agree with the sinh
    extremal within h^2 (the midpoint rule is second order; the observed
    constants are below 0.3)."""
    problems = _expect_rc(rc, 0)
    if not all(report["converged"]):
        problems.append("a direction did not converge")
    h2 = (1.0 / mesh) ** 2
    dirs = np.asarray(report["directions"], dtype=float)
    vals = np.asarray(report["values"], dtype=float)
    times = arcs[:, 0]
    if arcs.shape != (mesh + 1, 1 + dirs.shape[0]):
        return problems + [f"arcs.csv has shape {arcs.shape}"]
    for i, (zeta, f) in enumerate(zip(dirs, vals)):
        arc, exact = sinh_extremal(float(zeta[0]))
        exact = np.asarray(exact)
        err = max(abs(float(zeta @ f) - float(zeta @ exact)),
                  float(np.max(np.abs(f - exact))))
        if err > h2:
            problems.append(f"direction {i}: value off the sinh extremal by "
                            f"{err:.3g} > h^2 = {h2:.3g}")
        err = float(np.max(np.abs(arcs[:, 1 + i] - arc(times))))
        if err > h2:
            problems.append(f"direction {i}: arc off the sinh extremal by "
                            f"{err:.3g} > h^2 = {h2:.3g}")
    return problems
