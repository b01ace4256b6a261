"""Benchmark of the four setopt pipelines.

Usage (from the root of a checkout):

    python3 benchmark/run.py --workload solve-vop --seed 1 --seconds 20 --trace 0

Runs one workload's CLI calls in-process through ``setopt.cli.main``,
checks every report against values computed apart from the program,
and prints one JSON object as the last line of standard output.  With
``--trace 0`` it reports the end-to-end metrics (``verdict_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it runs traced passes
and reports the per-layer metrics, writing the spans to
``benchmark/out/``.  See README.md.
"""

from __future__ import annotations

import os

# One thread everywhere: pin numeric-library pools before numpy is imported.
PINNED_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 7
MIN_PASSES = 3
TRACE_RUN_PASSES = 3   # untraced, then traced, for the overhead figure
PROBE_TIMEOUT_S = 60


def _import_program():
    """Import setopt from this checkout's sources, never from elsewhere."""
    if not (SRC / "setopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no setopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import setopt
    from setopt import cli

    if Path(setopt.__file__).resolve().parent != (SRC / "setopt").resolve():
        raise SystemExit(f"error: imported setopt from {setopt.__file__}, not {SRC}")
    return cli


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs passes over a workload's operations and keeps the tallies."""

    def __init__(self, cli, workload, work: Path, tracer=None):
        self.cli = cli
        self.ops = workload.ops
        self.outs = [work / f"op{i}-{op.name}" for i, op in enumerate(self.ops)]
        self.digests: list[str | None] = [None] * len(self.ops)
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: set[str] = set()

    def run_pass(self) -> float:
        """One pass over every operation; returns the summed wall time of
        the CLI calls (checks run outside the timed region)."""
        total = 0.0
        for i, (op, out) in enumerate(zip(self.ops, self.outs)):
            if self.tracer is not None:
                self.tracer.op = i
            argv = op.argv + ["--out", str(out)]
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not a dead run
                total += time.perf_counter() - t0
                self._tally(op, [f"raised {type(exc).__name__}: {exc}"])
                continue
            total += time.perf_counter() - t0
            try:
                problems = op.check(rc, out)
            except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
                problems = [f"unreadable report: {type(exc).__name__}: {exc}"]
            digest = _digest(out)
            if self.digests[i] is None:
                self.digests[i] = digest
            elif digest != self.digests[i]:
                problems.append("reports differ from the first pass")
            self._tally(op, problems)
        return total

    def _tally(self, op, problems: list[str]) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        line = f"{op.name}: {'; '.join(problems)}"
        if op.known_fault and all(p.startswith(op.known_fault) for p in problems):
            self.known.add(line)
        else:
            self.unexpected.append(line)

    @property
    def correct(self) -> bool:
        return not self.unexpected


def setup_probe(spec_path: Path) -> float:
    """One fresh interpreter importing setopt and building the workload's
    inputs through the program's loaders; returns its own timing."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(spec_path)],
        capture_output=True, text=True, env=dict(os.environ, **PINNED_ENV), cwd=ROOT,
        timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    cli = _import_program()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        inputs = work / "inputs"
        inputs.mkdir()
        wl = workloads.build(args.workload, args.seed, inputs)
        runner = Runner(cli, wl, work)
        runner.run_pass()  # warm-up: caches, lazy imports, first report files
        times, probes = [], []
        if not args.trace:
            spec_path = work / "setup_spec.json"
            spec_path.write_text(json.dumps(wl.setup))
            # One set-up probe after each pass, so that the probes sample
            # the whole run rather than one moment of it.
            while len(times) < MIN_PASSES or sum(times) < args.seconds:
                times.append(runner.run_pass())
                probes.append(setup_probe(spec_path))
            while len(probes) < SETUP_PROBES:
                probes.append(setup_probe(spec_path))
        else:
            from tracing import Tracer

            times = [runner.run_pass() for _ in range(TRACE_RUN_PASSES)]
            # Every traced pass gets a fresh tracer; the first one's spans
            # and counts are reported, the others only time the overhead.
            tracers, traced = [], []
            for _ in range(TRACE_RUN_PASSES):
                tracers.append(Tracer())
                tracers[-1].install()
                runner.tracer = tracers[-1]
                try:
                    traced.append(runner.run_pass())
                finally:
                    tracers[-1].uninstall()
            tracer, traced_s = tracers[0], statistics.median(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Medians, not minima: over 30 runs per workload the fastest pass and
    # the fastest probe spread more between runs (README, "Run-to-run
    # spread").
    verdict_s = statistics.median(times)
    print(f"workload {args.workload}, seed {args.seed}: {len(wl.ops)} operations per pass, "
          f"{runner.attempted} attempted, {runner.failed} failed "
          f"({len(runner.unexpected)} unexpectedly)")
    for line in sorted(runner.known):
        print(f"  known fault, {line}")
    for line in runner.unexpected[:10]:
        print(f"  FAILED {line}")
    if not args.trace:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = statistics.median(probes)
        metrics = {"verdict_s": _metric(verdict_s, "s"), "setup_s": _metric(setup_s, "s"),
                   "peak_rss_mb": _metric(peak_rss_mb, "MiB")}
        print(f"verdict_s {verdict_s:.4f} s (median of {len(times)} passes, "
              f"min {min(times):.4f}, max {max(times):.4f})")
        print(f"setup_s {setup_s:.4f} s (median of {len(probes)} fresh processes, "
              f"min {min(probes):.4f})")
        print(f"peak_rss_mb {peak_rss_mb:.1f} MiB")
    else:
        metrics = tracer.metrics(traced_s - verdict_s)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                 "ops": [op.name for op in wl.ops],
                                 "untraced_verdict_s": verdict_s,
                                 "traced_verdict_s": traced_s}, metrics)
        for name, m in metrics.items():
            print(f"{name} {m['value']} {m['unit']}")
        print(f"traced passes {traced_s:.4f} s vs untraced {verdict_s:.4f} s (medians of {TRACE_RUN_PASSES}); "
              f"spans in {trace_path.relative_to(ROOT)}")
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
