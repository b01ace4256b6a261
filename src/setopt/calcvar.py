"""Discretized multi-criteria variational problems.

Arcs with fixed endpoints are discretized on a uniform mesh; the vector
objective integrates the Lagrangian by the midpoint rule per interval
(midpoint states, forward-difference velocities).  Scalarized problems
are minimized over the interior states by gradient descent with a
backtracking line search (trial steps follow the previous accepted
geometry, so quadratic problems converge at spectral-gradient speed).

Lagrangians are vectorized: ``fn(t, y, p)`` maps arrays of shape (m,),
(m, n), (m, n) to values of shape (m, d); the derivative callbacks return
(m, d, n) arrays and are validated against central differences at
registration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DerivativeMismatchError, InputFormatError, InvalidDimensionError

#: Descent stops at this sup-norm gradient.
GRAD_TOL = 1e-8

#: A probed perturbation may beat the collected values by at most this.
PHI_TOL = 1e-4


@dataclass(frozen=True)
class Lagrangian:
    """A vector Lagrangian with analytic partial derivatives."""

    fn: object
    d_y: object
    d_p: object
    n: int
    d: int
    label: str = "lagrangian"

    @classmethod
    def checked(cls, fn, d_y, d_p, n: int, d: int, label: str = "lagrangian") -> "Lagrangian":
        """Construct and validate the derivatives against central
        differences at the sample points of :func:`check_derivatives`."""
        lag = cls(fn, d_y, d_p, n, d, label)
        check_derivatives(lag)
        return lag


def check_derivatives(lag: Lagrangian) -> None:
    """Compare analytic Lagrangian derivatives with central differences at
    8 points drawn with seed 0; raises DerivativeMismatchError on a
    mismatch beyond 1e-6 relative."""
    samples = 8
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, 1.0, size=samples)
    y = rng.uniform(-2.0, 2.0, size=(samples, lag.n))
    p = rng.uniform(-2.0, 2.0, size=(samples, lag.n))
    ana_y = np.asarray(lag.d_y(t, y, p), dtype=float)
    ana_p = np.asarray(lag.d_p(t, y, p), dtype=float)
    if ana_y.shape != (samples, lag.d, lag.n) or ana_p.shape != (samples, lag.d, lag.n):
        raise InvalidDimensionError("derivative callbacks must return (m, d, n) arrays")
    h = 1e-5
    for j in range(lag.n):
        dy = np.zeros_like(y)
        dy[:, j] = h
        for name, ana, plus, minus in (("d_y", ana_y, (y + dy, p), (y - dy, p)),
                                       ("d_p", ana_p, (y, p + dy), (y, p - dy))):
            num = (np.asarray(lag.fn(t, *plus)) - np.asarray(lag.fn(t, *minus))) / (2 * h)
            scale = np.maximum(1.0, np.abs(num))
            if np.max(np.abs(num - ana[:, :, j]) / scale) > 1e-6:
                raise DerivativeMismatchError(f"{name}[{j}] disagrees with central differences")


@dataclass(frozen=True)
class Boundary:
    """Fixed-endpoint data: arcs run from x(a) = A to x(b) = B."""

    a: float
    b: float
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.atleast_1d(np.asarray(self.A, dtype=float)))
        object.__setattr__(self, "B", np.atleast_1d(np.asarray(self.B, dtype=float)))
        if self.b <= self.a:
            raise InvalidDimensionError("boundary needs b > a")
        if self.A.shape != self.B.shape:
            raise InvalidDimensionError("endpoint dimensions disagree")


@dataclass
class Arc:
    """A discretized arc: node times and states, shape (N+1,), (N+1, n)."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim == 1:
            self.states = self.states[:, None]
        if self.times.ndim != 1 or self.states.shape[0] != self.times.shape[0]:
            raise InvalidDimensionError("arc needs one state per node time")
        if np.any(np.diff(self.times) <= 0):
            raise InvalidDimensionError("node times must be strictly increasing")

    @property
    def intervals(self) -> int:
        return self.times.shape[0] - 1


@dataclass
class TestDirection:
    """An admissible perturbation: interior values, zero at both endpoints."""

    __test__ = False  # bare perturbation data, not a pytest fixture

    states: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float).copy()
        if self.states.ndim == 1:
            self.states = self.states[:, None]
        sup = float(np.max(np.abs(self.states))) if self.states.size else 0.0
        edge = max(float(np.max(np.abs(self.states[0]))),
                   float(np.max(np.abs(self.states[-1]))))
        if edge > 1e-12 * max(sup, 1.0):
            raise InvalidDimensionError("test directions vanish at the endpoints")
        self.states[0] = 0.0
        self.states[-1] = 0.0


def linear_arc(boundary: Boundary, N: int) -> Arc:
    """The straight-line interpolant between the endpoint states."""
    if N < 1:
        raise InvalidDimensionError("need at least one mesh interval")
    times = np.linspace(boundary.a, boundary.b, N + 1)
    lam = (times - boundary.a) / (boundary.b - boundary.a)
    states = boundary.A[None, :] + lam[:, None] * (boundary.B - boundary.A)[None, :]
    return Arc(times, states)


def _interval_data(lag: Lagrangian, arc: Arc):
    h = np.diff(arc.times)
    tm = (arc.times[:-1] + arc.times[1:]) / 2.0
    ym = (arc.states[:-1] + arc.states[1:]) / 2.0
    p = (arc.states[1:] - arc.states[:-1]) / h[:, None]
    return h, tm, ym, p


def objective(lag: Lagrangian, arc: Arc) -> np.ndarray:
    """Midpoint-rule vector objective, shape (d,)."""
    h, tm, ym, p = _interval_data(lag, arc)
    vals = np.asarray(lag.fn(tm, ym, p), dtype=float)
    return h @ vals


def scalar_objective(lag: Lagrangian, zeta: np.ndarray, arc: Arc) -> float:
    return float(np.asarray(zeta, dtype=float) @ objective(lag, arc))


def _scalarized_partials(lag: Lagrangian, zeta, arc: Arc):
    """Interval widths and the zeta-scalarized Lagrangian partials in y
    and p at every interval midpoint, each of shape (N, n)."""
    zeta = np.asarray(zeta, dtype=float)
    h, tm, ym, p = _interval_data(lag, arc)
    ly = np.einsum("j,mjn->mn", zeta, np.asarray(lag.d_y(tm, ym, p), dtype=float))
    lp = np.einsum("j,mjn->mn", zeta, np.asarray(lag.d_p(tm, ym, p), dtype=float))
    return h, ly, lp


def scalar_gradient(lag: Lagrangian, zeta: np.ndarray, arc: Arc) -> np.ndarray:
    """Gradient of the scalarized objective in the interior states,
    shape (N-1, n)."""
    h, ly, lp = _scalarized_partials(lag, zeta, arc)
    # d/dx_k: each interior node sees its two adjacent intervals.
    return 0.5 * (h[:-1, None] * ly[:-1] + h[1:, None] * ly[1:]) + (lp[:-1] - lp[1:])


@dataclass
class CvpSolveResult:
    direction: np.ndarray
    arc: Arc
    value: np.ndarray
    grad_norm: float
    iterations: int
    converged: bool
    note: str = ""


def solve_sccvp(lag: Lagrangian, zeta, boundary: Boundary, N: int, *,
                grad_tol: float = GRAD_TOL) -> CvpSolveResult:
    """Minimize the zeta-scalarized objective over interior states by
    gradient descent with backtracking from the straight-line arc, stopping
    at sup-norm gradient ``grad_tol`` (which must be positive) within 50000
    iterations.  Unbounded descent and exhausted budgets come back with
    ``converged=False``."""
    if not grad_tol > 0:
        raise InputFormatError(f"the gradient tolerance must be positive, got {grad_tol!r}")
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (lag.d,):
        raise InvalidDimensionError(f"direction must have length {lag.d}")
    arc = linear_arc(boundary, N)
    times, x = arc.times, arc.states

    def value_of(states: np.ndarray) -> float:
        return scalar_objective(lag, zeta, Arc(times, states))

    val = value_of(x)
    recent = [val]
    step = 1.0
    prev_x = None
    prev_g = None
    converged = False
    note = ""
    iterations = 0
    while iterations < 50000:
        g = scalar_gradient(lag, zeta, Arc(times, x))
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if gnorm <= grad_tol:
            converged = True
            break
        if prev_x is not None:
            s = x[1:-1] - prev_x[1:-1]
            yy = g - prev_g
            denom = float(np.sum(s * yy))
            if denom > 0:
                step = float(np.sum(s * s)) / denom
            else:
                step = step * 2.0
        step = min(max(step, 1e-12), 1e12)
        gsq = float(np.sum(g * g))
        # Backtracking against the worst of the recent accepted values keeps
        # the trial-step geometry effective on badly conditioned meshes.
        ref = max(recent)
        t = step
        while True:
            trial = x.copy()
            trial[1:-1] = x[1:-1] - t * g
            tval = value_of(trial)
            if tval <= ref - 1e-4 * t * gsq:
                break
            t *= 0.5
            if t < 1e-20:
                note = "line search collapsed"
                break
        if note:
            break
        prev_x, prev_g = x, g
        x, val = trial, tval
        recent.append(val)
        if len(recent) > 10:
            recent.pop(0)
        iterations += 1
        if val < -1e12:
            note = "objective diverging below the floor; suspected non-attainment"
            break
    else:
        note = "iteration budget exhausted"
    final_arc = Arc(times, x)
    g = scalar_gradient(lag, zeta, final_arc)
    gnorm = float(np.max(np.abs(g))) if g.size else 0.0
    return CvpSolveResult(zeta, final_arc, objective(lag, final_arc), gnorm,
                          iterations, converged, note)


def first_order_residual(lag: Lagrangian, zeta, arc: Arc, directions) -> np.ndarray:
    """Discrete first-variation residuals, one per test direction,
    normalized by the direction's sup norm."""
    h, ly, lp = _scalarized_partials(lag, zeta, arc)
    out = []
    for d in directions:
        u = d.states
        if u.shape != arc.states.shape:
            raise InvalidDimensionError("test direction shape mismatch")
        umid = (u[:-1] + u[1:]) / 2.0
        du = u[1:] - u[:-1]
        r = float(np.sum(h[:, None] * ly * umid) + np.sum(lp * du))
        out.append(r / max(float(np.max(np.abs(u))), 1e-30))
    return np.asarray(out)


def random_test_directions(N: int, n: int, count: int, seed: int = 0) -> list[TestDirection]:
    """Seeded admissible perturbations: smooth sine combinations and coarse
    random interior arcs, sup-normalized."""
    rng = np.random.default_rng(seed)
    tau = np.linspace(0.0, 1.0, N + 1)
    dirs: list[TestDirection] = []
    for i in range(count):
        if i % 2 == 0:
            coef = rng.normal(size=(4, n))
            u = np.zeros((N + 1, n))
            for m in range(coef.shape[0]):
                u += coef[m][None, :] * np.sin((m + 1) * math.pi * tau)[:, None]
        else:
            u = rng.uniform(-1.0, 1.0, size=(N + 1, n))
            u[0] = 0.0
            u[-1] = 0.0
        sup = float(np.max(np.abs(u)))
        if sup > 0:
            u = u / sup
        dirs.append(TestDirection(u))
    return dirs


@dataclass
class CvpReport:
    """Sweep report: one row per direction plus the translation check."""

    directions: np.ndarray
    values: np.ndarray
    grad_norms: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residuals: np.ndarray
    arcs: list[Arc]
    notes: list[str]
    translation_margin: float
    translation_pass: bool

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))

    @property
    def max_residual(self) -> float:
        finite = self.residuals[np.isfinite(self.residuals)]
        return float(np.max(np.abs(finite))) if finite.size else math.inf


def cvp_sweep(lag: Lagrangian, directions, boundary: Boundary, N: int, *,
              grad_tol: float = GRAD_TOL, phi_tol: float = PHI_TOL,
              seed: int = 7) -> CvpReport:
    """Solve every scalarized direction, check first-order residuals on 20
    seeded test directions per arc, and check that no perturbation of the
    collected arcs along 10 seeded probes beats the collected optimal
    values by more than ``phi_tol``, which must be nonnegative (the
    scalarized translation test at the zero perturbation).  The mesh needs
    at least 2 intervals: with one there is no interior node to test."""
    if N < 2:
        raise InputFormatError(
            f"the mesh needs at least 2 intervals (an interior node), got {N}")
    if not phi_tol >= 0:
        raise InputFormatError(f"the translation tolerance must be nonnegative, got {phi_tol!r}")
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    rows: list[CvpSolveResult] = []
    residuals = []
    for k, zeta in enumerate(dirs):
        res = solve_sccvp(lag, zeta, boundary, N, grad_tol=grad_tol)
        rows.append(res)
        if res.converged:
            tds = random_test_directions(N, lag.n, 20, seed=seed + k)
            residuals.append(float(np.max(np.abs(
                first_order_residual(lag, zeta, res.arc, tds)))))
        else:
            residuals.append(math.inf)
    solved = [r for r in rows if r.converged]
    margin = math.inf
    if solved:
        probe = random_test_directions(N, lag.n, 10, seed=seed + 9001)
        # each perturbed arc's vector objective, once for all directions
        shifted = [[objective(lag, Arc(r.arc.times, r.arc.states + s * td.states))
                    for r in solved]
                   for td in probe for s in (0.3, 1.0)]
        for zeta in dirs:
            best0 = min(float(zeta @ r.value) for r in solved)
            for values in shifted:
                margin = min(margin, min(float(zeta @ v) for v in values) - best0)
    return CvpReport(
        directions=dirs,
        values=np.stack([r.value for r in rows]),
        grad_norms=np.asarray([r.grad_norm for r in rows]),
        iterations=np.asarray([r.iterations for r in rows]),
        converged=np.asarray([r.converged for r in rows]),
        residuals=np.asarray(residuals),
        arcs=[r.arc for r in rows],
        notes=[r.note for r in rows],
        translation_margin=float(margin),
        translation_pass=bool(margin >= -phi_tol),
    )
