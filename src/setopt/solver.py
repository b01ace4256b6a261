"""Scalarization sweeps and solution verification.

The pipeline: minimize every direction of a dual base (from one profile
on grids, by compass pattern search on boxes), collect the converged
minimizers into a candidate set, then verify the candidate against an
independent probe family: per-direction infimizer gaps, a convex-hull
gap, and the per-point requirement that every candidate point minimizes
some direction.  Each candidate and probe point is evaluated once; every
verdict is read off those held values.

Verification probes are generated independently of anything the search
touched (offset lattice plus a seeded uniform sample).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cones import DualBase, as_vector
from .errors import (EmptyCandidateError, InfeasibleProblemError, InputFormatError,
                     InvalidDirectionError)
from .setfuns import (
    Box,
    CandidateSet,
    CO_SAMPLES,
    Grid,
    ScalarizationProfile,
    SetFunction,
    convex_sample_points,
    _check_hull_samples,
    _profile_points,
    _require_in_space,
    _scalarize_in_space,
)
from .uppersets import UpperSet, lattice_inf, lattice_minimal

#: Default value tolerances by space kind.
TOL_VAL_GRID = 1e-6
TOL_VAL_BOX = 1e-3

#: Distance within which sweep minimizers merge into one candidate point.
MERGE_TOL = 1e-5

#: The compass search on boxes stops once its relative step is below this.
STEP_TOL = 1e-8

#: Offset-lattice points per axis of a box verification probe.
PROBE_RESOLUTION = 33


def default_tol(space) -> float:
    return TOL_VAL_GRID if isinstance(space, Grid) else TOL_VAL_BOX


@dataclass
class ScalarMinResult:
    direction: np.ndarray
    minimizer: np.ndarray | None
    value: float
    iterations: int
    converged: bool
    note: str = ""


def scalar_minimize(f: SetFunction, zstar, *, start=None) -> ScalarMinResult:
    """Minimize the z*-scalarization of f over its variable space.

    A grid is a one-direction :func:`sweep`.  Boxes run a compass pattern
    search (axis and paired-diagonal directions, expansion x2, contraction
    x0.5, relative step from 0.25 down to ``STEP_TOL``, at most 200000
    evaluations) from ``start`` when feasible, else from the best
    point of a 17-per-axis scan; a minimizer pinned to a box face with the
    descent direction pointing out of the box is flagged as suspected
    non-attainment (``converged=False``).
    """
    z = as_vector(zstar, f.cone.dim)
    if isinstance(f.space, Grid):
        if not np.any(z):
            raise InvalidDirectionError("the zero direction scalarizes nothing")
        # Anchored at z / |z|^2, the one-direction base holds z itself.
        return sweep(f, DualBase(f.cone, z / (z @ z), [z]))[0]
    return _compass_search(f, z, start)


def _feasible_start(f: SetFunction, z: np.ndarray, start) -> tuple[np.ndarray, float]:
    box: Box = f.space
    # Clipped or meshed into the box, every point evaluated here is in the
    # space, so none is tested for membership again.
    if start is not None:
        x0 = box.clip(start)
        v0 = _scalarize_in_space(f, z, x0)
        if math.isfinite(v0):
            return x0, v0
    axes = [np.linspace(lo, hi, 17)
            for lo, hi in zip(box.lower, box.upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    best_x, best_v = None, math.inf
    for x in pts:
        v = _scalarize_in_space(f, z, x)
        if v < best_v:
            best_x, best_v = x, v
    if best_x is None or not math.isfinite(best_v):
        raise InfeasibleProblemError("all probed values scalarize to +inf")
    return best_x.copy(), best_v


def _pattern_directions(n: int) -> np.ndarray:
    """Axis moves plus the two-coordinate diagonals.  The diagonals let the
    search slide along constraint faces expressed through infeasibility,
    where axis-only moves stall at face corners."""
    dirs = list(np.eye(n)) + list(-np.eye(n))
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    d = np.zeros(n)
                    d[i], d[j] = si, sj
                    dirs.append(d / math.sqrt(2.0))
    return np.stack(dirs)


def _compass_search(f: SetFunction, z: np.ndarray, start) -> ScalarMinResult:
    box: Box = f.space
    n = box.dim
    scale = np.maximum(box.upper - box.lower, 1e-30) / 2.0
    x, value = _feasible_start(f, z, start)
    # step is always a power of two, so step * (d * scale) equals
    # step * d * scale exactly and the moves can be scaled once.
    moves = _pattern_directions(n) * scale
    step = 0.25
    evals = 0
    while step >= STEP_TOL and evals < 200000:
        improved = False
        for move in moves:
            # clipped into the box, so evaluated without a membership test
            cand = (x + step * move).clip(box.lower, box.upper)
            if (cand == x).all():
                continue
            v = _scalarize_in_space(f, z, cand)
            evals += 1
            if v < value:
                x, value = cand, v
                improved = True
        if improved:
            step = min(step * 2.0, 1.0)
        else:
            step *= 0.5
    converged = step < STEP_TOL
    note = "" if converged else "evaluation budget exhausted"
    if converged and _pinned_descending(f, z, x, value):
        converged = False
        note = "suspected non-attainment: descent pinned at the box boundary"
    return ScalarMinResult(z, x, value, iterations=evals, converged=converged, note=note)


def _pinned_descending(f: SetFunction, z: np.ndarray, x: np.ndarray, value: float) -> bool:
    """True when x sits on a box face and moving back inside strictly
    worsens the value: the infimum is suspected to live outside the box."""
    box: Box = f.space
    scale = np.maximum(box.upper - box.lower, 1e-30) / 2.0
    face_tol = np.maximum(10.0 * STEP_TOL * scale, 1e-12)
    probe_step = 1e-4 * scale
    for i in range(box.dim):
        if box.upper[i] - box.lower[i] <= 0:
            continue
        for lo_side in (True, False):
            dist = (x[i] - box.lower[i]) if lo_side else (box.upper[i] - x[i])
            if dist > face_tol[i]:
                continue
            inward = x.copy()
            inward[i] += probe_step[i] if lo_side else -probe_step[i]
            inward = np.clip(inward, box.lower, box.upper)
            v = _scalarize_in_space(f, z, inward)
            if v > value + 1e-15 * max(1.0, abs(value)):
                return True
    return False


def sweep(f: SetFunction, base: DualBase, *, start=None) -> list[ScalarMinResult]:
    """Minimize every base direction: on a grid, read each direction's
    minimum off one profile of the grid points; on a box, run
    :func:`scalar_minimize` from ``start``.  Per-direction infeasibility
    becomes a flagged result, never an abort."""
    grid = isinstance(f.space, Grid)
    rows = ScalarizationProfile.build(f, base, f.space.points).values if grid else [None] * len(base)
    results = []
    for z, row in zip(base.directions, rows):
        try:
            results.append(_row_minimum(f, z, row) if grid else scalar_minimize(f, z, start=start))
        except InfeasibleProblemError as exc:
            results.append(ScalarMinResult(np.asarray(z, dtype=float), None, math.inf,
                                           iterations=0, converged=False, note=str(exc)))
    if all(r.minimizer is None for r in results):
        raise InfeasibleProblemError("every direction was infeasible")
    return results


def _row_minimum(f: SetFunction, z: np.ndarray, row: np.ndarray) -> ScalarMinResult:
    """The first grid point attaining the minimum of a profile row."""
    i = int(np.argmin(row))
    if math.isinf(row[i]):
        raise InfeasibleProblemError("all grid values scalarize to +inf")
    return ScalarMinResult(z, f.space.points[i].copy(), float(row[i]),
                           iterations=len(row), converged=True)


def collect_candidate(results: list[ScalarMinResult]) -> CandidateSet:
    """Merge the converged minimizers within ``MERGE_TOL`` (cluster
    centroids, deterministic in sweep order)."""
    mins = [r.minimizer for r in results if r.converged and r.minimizer is not None]
    if not mins:
        raise EmptyCandidateError("no direction converged; nothing to collect")
    clusters: list[list[np.ndarray]] = []
    for p in mins:
        for cl in clusters:
            center = np.mean(cl, axis=0)
            if np.linalg.norm(p - center) <= MERGE_TOL:
                cl.append(p)
                break
        else:
            clusters.append([p])
    points = np.stack([np.mean(cl, axis=0) for cl in clusters])
    return CandidateSet(points, label="sweep minimizers")


def probe_points(space, resolution: int = PROBE_RESOLUTION, seed: int = 1) -> np.ndarray:
    """An independent verification probe: grids probe themselves; boxes get
    an interior offset lattice plus an equally sized seeded uniform sample."""
    if resolution < 0:
        raise InputFormatError(f"the probe resolution must be nonnegative, got {resolution}")
    if isinstance(space, Grid):
        return space.points
    box: Box = space
    n = box.dim
    per_axis = max(2, min(resolution, int(round(100000 ** (1.0 / n)))))
    offset = 0.3819660112501051  # complementary golden-ratio fraction
    axes = [box.lower[i] + (np.arange(per_axis) + offset) / per_axis
            * (box.upper[i] - box.lower[i]) for i in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    lattice = np.stack([m.ravel() for m in mesh], axis=1)
    rng = np.random.default_rng(seed)
    uniforms = rng.uniform(box.lower, box.upper, size=(lattice.shape[0], n))
    return np.concatenate([lattice, uniforms], axis=0)


@dataclass
class InfimizerGaps:
    """Per-direction scalarization gaps of a candidate set against a probe,
    with the two profiles they were read from."""

    gaps: np.ndarray
    co_gap: float
    candidate_minima: np.ndarray
    probe_minima: np.ndarray
    candidate: ScalarizationProfile
    probe: ScalarizationProfile

    @property
    def max_gap(self) -> float:
        return float(np.max(self.gaps)) if self.gaps.size else 0.0


def _gaps_above(minima: np.ndarray, rivals: np.ndarray) -> np.ndarray:
    """How far each minimum lies above its rival; two infinite values
    count as no gap."""
    with np.errstate(invalid="ignore"):  # inf - inf, masked out below
        above = np.maximum(minima - rivals, 0.0)
    return np.where(np.isinf(minima) & np.isinf(rivals), 0.0, above)


def verify_infimizer(f: SetFunction, m: CandidateSet, base: DualBase, probe, *,
                     co_extra: int = CO_SAMPLES, seed: int = 1) -> InfimizerGaps:
    """Scalarization gap test: for every base direction, how far the
    candidate's best value lies above the probe's best value (callers
    compare ``max_gap`` against their tolerance).  The convex-hull gap
    compares the candidate against barycentric samples of its own hull
    beyond the candidate points, whose minima ``min_m`` already holds (the
    gap is the same with or without them)."""
    co_pts = convex_sample_points(m.points, extra=co_extra, seed=seed)[len(m):]
    prof_m = ScalarizationProfile.build(f, base, m.points)
    prof_p = ScalarizationProfile.build(f, base, probe)
    min_m = np.min(prof_m.values, axis=1)
    min_p = np.min(prof_p.values, axis=1)
    co_gap = 0.0
    if len(co_pts):
        best_co = np.min(ScalarizationProfile.build(f, base, co_pts).values, axis=1)
        co_gap = float(np.max(_gaps_above(min_m, best_co)))
    return InfimizerGaps(gaps=_gaps_above(min_m, min_p), co_gap=co_gap,
                         candidate_minima=min_m, probe_minima=min_p,
                         candidate=prof_m, probe=prof_p)


def verify_lattice_minimizer(values, probe_values) -> list[bool]:
    """For each value, whether no probe value is strictly smaller in the
    lattice (a strictly larger upper set): :func:`uppersets.lattice_minimal`."""
    return lattice_minimal(values, probe_values)


@dataclass
class SolutionReport:
    """Verification verdict for a candidate set.

    verdict: ``sc-solution`` when all infimizer gaps, the convex-hull gap,
    and every per-point minimality residual pass the tolerance;
    ``infimizer-only`` when only the residuals fail; ``fail`` otherwise.
    """

    verdict: str
    tol: float
    directions: np.ndarray
    alphas: np.ndarray | None
    gaps: np.ndarray
    co_gap: float
    candidate: CandidateSet
    candidate_minima: np.ndarray
    probe_minima: np.ndarray
    condition3_residuals: np.ndarray
    condition3_direction: np.ndarray
    lattice_min_verdicts: list[bool]
    infimum: UpperSet
    sampling: dict = field(default_factory=dict)

    @property
    def max_gap(self) -> float:
        return float(np.max(self.gaps)) if self.gaps.size else 0.0

    @property
    def max_residual(self) -> float:
        return float(np.max(self.condition3_residuals)) if self.condition3_residuals.size else 0.0


def verify_sc_solution(f: SetFunction, m: CandidateSet, base: DualBase, probe,
                       tol: float | None = None, *, co_extra: int = CO_SAMPLES,
                       seed: int = 1) -> SolutionReport:
    """Full verdict: infimizer gaps, convex-hull gap, and the sc-condition
    that every candidate point minimizes some scalarization direction
    (residual = min over directions of its value above the probe's best)."""
    if tol is None:
        tol = default_tol(f.space)
    if not tol >= 0:
        raise InputFormatError(f"the verdict tolerance must be nonnegative, got {tol!r}")
    # The profiles score off-space points as empty values; the candidate
    # and the probe, which the lattice check reads, must lie in the space.
    # They are tested before any profile is evaluated, after the checks
    # that come first in building the profiles, so a bad input keeps its
    # error.
    _check_hull_samples(co_extra)
    _require_in_space(f, np.concatenate([_profile_points(f, base, m.points),
                                         _profile_points(f, base, probe)]))
    gaps = verify_infimizer(f, m, base, probe, co_extra=co_extra, seed=seed)
    probe = gaps.probe.points
    per_dir = gaps.candidate.values - gaps.probe_minima[:, None]
    per_dir = np.where(np.isnan(per_dir), math.inf, per_dir)
    best = np.argmin(per_dir, axis=0)
    residuals = per_dir[best, np.arange(len(m))]
    res_dir = base.directions[best]
    lattice_ok = verify_lattice_minimizer(gaps.candidate.sets, gaps.probe.sets)
    gaps_pass = gaps.max_gap <= tol and gaps.co_gap <= tol
    cond3_pass = bool(np.all(residuals <= tol))
    if gaps_pass and cond3_pass:
        verdict = "sc-solution"
    elif gaps_pass:
        verdict = "infimizer-only"
    else:
        verdict = "fail"
    return SolutionReport(
        verdict=verdict,
        tol=tol,
        directions=base.directions,
        alphas=base.alpha_coordinates(),
        gaps=gaps.gaps,
        co_gap=gaps.co_gap,
        candidate=m,
        candidate_minima=gaps.candidate_minima,
        probe_minima=gaps.probe_minima,
        condition3_residuals=residuals,
        condition3_direction=res_dir,
        lattice_min_verdicts=lattice_ok,
        infimum=lattice_inf(gaps.candidate.sets),
        sampling={"probe_points": int(probe.shape[0]), "co_extra": co_extra, "seed": seed},
    )
