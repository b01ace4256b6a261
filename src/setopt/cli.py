"""Command-line surface.

Five commands: ``solve`` sweeps a scalarization base and verifies the
collected minimizers, ``verify`` checks a user-supplied candidate set,
``oracle`` runs the brute-force finite-instance checks, ``cvp`` solves
a discretized variational sweep, and ``catalog`` lists the built-in
problems.

Exit codes carry the mathematical verdict so pipelines can branch on it:
0 for a verified sc-solution (or all checks passing), 2 for an
infimizer-only verdict (or a flagged non-attaining direction), 3 for a
failed verification, 1 for input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import catalog, jsonio
from ._version import __version__
from .calcvar import GRAD_TOL, PHI_TOL, cvp_sweep
from .errors import SetOptError
from .oracle import (CAMPAIGN_SIZE, COMMUTATION_TOL, campaign_commutation, campaign_lemma,
                     check_commutation, check_inf_translation_lemma, corrupting_override,
                     enumerate_lattice_minimizers)
from .setfuns import CO_SAMPLES, CandidateSet
from .solver import (MERGE_TOL, PROBE_RESOLUTION, collect_candidate, probe_points, sweep,
                     verify_sc_solution)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PARTIAL = 2
EXIT_FAIL = 3

_VERDICT_CODE = {"sc-solution": EXIT_OK, "infimizer-only": EXIT_PARTIAL,
                 "fail": EXIT_FAIL}


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",") if t.strip() != ""])
    except ValueError as exc:
        raise SetOptError(f"cannot parse vector {text!r}") from exc


def _parse_points(text: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip() != ""]
    if not rows:
        raise SetOptError("empty point list")
    return np.stack([_parse_vector(r) for r in rows])


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: :func:`main` reports them and exits 1."""

    def error(self, message):
        raise SetOptError(message)


def _format_list(text: str) -> set:
    names = {t.strip() for t in text.split(",") if t.strip()}
    if not names or not names <= {"json", "csv"}:
        raise argparse.ArgumentTypeError(f"expected a comma list of json and csv, got {text!r}")
    return names


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", help="problem JSON path")
    p.add_argument("--catalog", help="catalog problem name")
    p.add_argument("--seed", type=int, default=1, help="seed for all sampling")
    p.add_argument("--out", default=".", help="output directory")


def _add_solve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None, help="verdict tolerance")
    p.add_argument("--base-res", type=int, default=None,
                   help="number of scalarization directions")
    p.add_argument("--anchor", default=None,
                   help="base anchor, comma separated")
    p.add_argument("--probe-res", type=int, default=PROBE_RESOLUTION,
                   help="verification probe resolution per axis")
    p.add_argument("--co-samples", type=int, default=CO_SAMPLES,
                   help="extra convex-combination samples in verification")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="setopt",
        description="Scalarization sweeps, verification and brute-force "
                    "checks for lattice-valued minimization.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="sweep a base and verify the minimizers")
    _add_common(ps)
    _add_solve_flags(ps)

    pv = sub.add_parser("verify", help="verify a given candidate point set")
    _add_common(pv)
    _add_solve_flags(pv)
    pv.add_argument("--m", default=None,
                    help="candidate points, semicolon separated (else from JSON)")

    po = sub.add_parser("oracle", help="finite-instance brute-force checks")
    _add_common(po)
    po.add_argument("--instances", type=int, default=CAMPAIGN_SIZE,
                    help="campaign size when no instance is given")
    po.add_argument("--inject-fault", action="store_true",
                    help="corrupt one translated value to exercise detection")

    pc = sub.add_parser("cvp", help="discretized variational sweep")
    _add_common(pc)
    pc.add_argument("--tol", type=float, default=PHI_TOL, help="translation check tolerance")
    pc.add_argument("--base-res", type=int, default=None,
                    help="number of scalarization directions")
    pc.add_argument("--mesh", type=int, default=None, help="mesh intervals")
    pc.add_argument("--grad-tol", type=float, default=GRAD_TOL,
                    help="gradient sup-norm stopping tolerance")

    # oracle writes its one JSON report, so it takes no --format
    for q in (ps, pv, pc):
        q.add_argument("--format", type=_format_list, default="json,csv",
                       help="comma list of output formats (json, csv)")

    sub.add_parser("catalog", help="list built-in problems")
    return p


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_problem(args):
    """(problem, verify set or None) from either --problem or --catalog."""
    if args.problem:
        return jsonio.problem_from_dict(jsonio.load_json(args.problem))
    if args.catalog:
        return catalog.make_problem(args.catalog), None
    raise SetOptError("need --problem or --catalog")


def _base_for(prob, args):
    return catalog.directions_for(prob, args.base_res or None,
                                  _parse_vector(args.anchor) if args.anchor else None)


def _sweep_rows(results, alphas):
    rows = []
    for i, r in enumerate(results):
        rows.append({
            "direction": r.direction,
            "alpha": None if alphas is None else alphas[i],
            "minimizer": r.minimizer,
            "value": r.value,
            "iterations": r.iterations,
            "converged": r.converged,
            "note": r.note,
        })
    return rows


def _solution_payload(report, config, sweep_rows=None) -> dict:
    payload = jsonio.base_report(config)
    payload.update({
        "verdict": report.verdict,
        "tol": report.tol,
        "directions": report.directions,
        "alphas": report.alphas,
        "candidate": {"points": report.candidate.points,
                      "label": report.candidate.label},
        "gaps": {"per_direction": report.gaps,
                 "max": report.max_gap,
                 "co_gap": report.co_gap,
                 "candidate_minima": report.candidate_minima,
                 "probe_minima": report.probe_minima},
        "condition3": {"residuals": report.condition3_residuals,
                       "max": report.max_residual,
                       "directions": report.condition3_direction},
        "lattice_minimizers": report.lattice_min_verdicts,
        "infimum": jsonio.value_to_dict(report.infimum),
        "sampling": report.sampling,
    })
    if sweep_rows is not None:
        payload["sweep"] = sweep_rows
    return payload


def _verify_and_emit(args, prob, base, cand, results, prefix) -> int:
    """Verify the candidate on the flags' probe, write the artifacts, and
    return the verdict's exit code; ``results`` is the sweep, if any."""
    probe = probe_points(prob.setfn.space, resolution=args.probe_res, seed=args.seed)
    report = verify_sc_solution(prob.setfn, cand, base, probe, tol=args.tol,
                                co_extra=args.co_samples, seed=args.seed)
    sweep_rows = None if results is None else _sweep_rows(results, report.alphas)
    out = _outdir(args)
    config = {
        "command": prefix,
        "problem": args.problem or args.catalog,
        "base_res": len(base),
        "anchor": base.anchor,
        "tol": report.tol,
        "seed": args.seed,
        "probe_res": args.probe_res,
        "co_samples": args.co_samples,
        "merge_tol": MERGE_TOL,
    }
    if "json" in args.format:
        jsonio.write_json(out / f"{prefix}_report.json",
                          _solution_payload(report, config, sweep_rows))
    if "csv" in args.format:
        jsonio.support_csv(out / "support.csv", base, report.candidate_minima)
        if prob.setfn.cone.dim == 2:
            jsonio.polyline_csv(out / "infimum_polyline.csv", report.infimum)
    return _VERDICT_CODE[report.verdict]


def run_solve(args) -> int:
    prob, _ = _load_problem(args)
    base = _base_for(prob, args)
    results = sweep(prob.setfn, base, start=prob.start)
    return _verify_and_emit(args, prob, base, collect_candidate(results), results, "solve")


def run_verify(args) -> int:
    prob, m = _load_problem(args)
    if args.m is not None:
        m = _parse_points(args.m)
    elif m is None:
        raise SetOptError("verify needs candidate points (--m or an 'm' field)")
    if m.size == 0:
        raise SetOptError("candidate set is empty")
    cand = CandidateSet(points=m, label="given")
    return _verify_and_emit(args, prob, _base_for(prob, args), cand, None, "verify")


def _oracle_instance_payload(inst, m, dirs, args) -> tuple:
    override = corrupting_override(inst, m) if args.inject_fault else None
    lemma = check_inf_translation_lemma(inst, m, seed=args.seed,
                                        fhat_override=override)
    gap = check_commutation(inst, m, dirs, fhat_override=override)
    minimizers = enumerate_lattice_minimizers(inst)
    gap_ok = gap <= COMMUTATION_TOL
    payload = {
        "instance": {"label": inst.label, "points": inst.size},
        "lemma": lemma.as_dict(),
        "commutation_gap": gap,
        "commutation_pass": gap_ok,
        "lattice_minimizers": minimizers,
        "fault_injected": bool(args.inject_fault),
    }
    return payload, (lemma.passed and gap_ok)


def run_oracle(args) -> int:
    out = _outdir(args)
    config = {"command": "oracle", "seed": args.seed,
              "instances": args.instances,
              "problem": args.problem or args.catalog,
              "inject_fault": bool(args.inject_fault)}
    payload = jsonio.base_report(config)
    if args.problem or args.catalog:
        if args.problem:
            inst, m, dirs = jsonio.instance_from_dict(jsonio.load_json(args.problem))
        else:
            inst, m, dirs = catalog.instance_inputs(catalog.make_instance(args.catalog))
        body, ok = _oracle_instance_payload(inst, m, dirs, args)
        payload.update(body)
    else:
        com = campaign_commutation(args.instances, seed=args.seed)
        lem = campaign_lemma(max(1, args.instances // 2), seed=args.seed + 4)
        ok = com.passed and lem.passed
        payload.update({"commutation_campaign": com.as_dict(),
                        "lemma_campaign": lem.as_dict()})
    jsonio.write_json(out / "oracle_report.json", payload)
    return EXIT_OK if ok else EXIT_FAIL


def run_cvp(args) -> int:
    if args.problem:
        cvp = jsonio.cvp_from_dict(jsonio.load_json(args.problem))
    else:
        cvp = catalog.make_cvp(args.catalog or "quadratic_cvp")
    if args.mesh is not None:
        cvp = dataclasses.replace(cvp, mesh=args.mesh)
    if args.base_res:
        cvp = dataclasses.replace(cvp, directions=catalog.cvp_directions(count=args.base_res))
    report = cvp_sweep(cvp.lagrangian, cvp.directions, cvp.boundary, cvp.mesh,
                       grad_tol=args.grad_tol, phi_tol=args.tol, seed=args.seed)
    out = _outdir(args)
    config = {"command": "cvp", "problem": args.problem or cvp.name, "mesh": cvp.mesh,
              "grad_tol": args.grad_tol, "phi_tol": args.tol, "seed": args.seed,
              "directions": len(cvp.directions)}
    if "json" in args.format:
        payload = jsonio.base_report(config)
        payload.update({
            "directions": report.directions,
            "values": report.values,
            "grad_norms": report.grad_norms,
            "iterations": report.iterations,
            "converged": report.converged,
            "residuals": report.residuals,
            "notes": report.notes,
            "translation": {"margin": report.translation_margin,
                            "pass": report.translation_pass},
        })
        jsonio.write_json(out / "cvp_report.json", payload)
    if "csv" in args.format:
        jsonio.front_csv(out / "front.csv", report)
        jsonio.arcs_csv(out / "arcs.csv", report)
    if not report.all_converged:
        return EXIT_PARTIAL
    if report.max_residual > 1e-6 or not report.translation_pass:
        return EXIT_FAIL
    return EXIT_OK


def run_catalog(args) -> int:
    lines = ["solve/verify problems:"]
    for name in catalog.SOLVE_NAMES:
        lines.append(f"  {name}: {catalog.make_problem(name).description}")
    lines.append("variational problems:")
    for name in catalog.CVP_NAMES:
        lines.append(f"  {name}: {catalog.make_cvp(name).description}")
    lines.append("finite oracle instances:")
    for name in catalog.INSTANCE_NAMES:
        inst = catalog.make_instance(name)
        lines.append(f"  {name}: {inst.label}, {inst.size} points")
    print("\n".join(lines))
    return EXIT_OK


def main(argv=None) -> int:
    handlers = {"solve": run_solve, "verify": run_verify, "oracle": run_oracle,
                "cvp": run_cvp, "catalog": run_catalog}
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SetOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
