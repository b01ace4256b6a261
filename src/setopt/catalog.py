"""Named example problems, and the defaults of problems read from files.

Each entry wires a set-valued objective to the box or grid it lives on,
a default scalarization base, and a sensible starting point, so the
command line and the tests speak about the same objects.  Tables and
oracle instances are one type, :class:`setfuns.FiniteInstance`; from
files they get theirs from :func:`table_problem` and :func:`instance_inputs`.

Catalog names: ``hyperbola``, ``linear_vop``, ``scalar_identity`` for the
solve and verify commands, ``quadratic_cvp`` for the variational command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calcvar import Boundary, Lagrangian
from .cones import (Cone, DualBase, as_vector, base_directions, cone_orthant, default_anchor,
                    interior_base)
from .errors import InputFormatError
from .setfuns import Box, FiniteInstance, SetFunction
from .uppersets import UpperSet

#: Directions of a full base on a planar cone: the linear problem and
#: planar tables.
PLANAR_DIRECTIONS = 181


@dataclass(frozen=True)
class Problem:
    """A catalog problem: objective plus solver defaults."""

    name: str
    setfn: SetFunction
    anchor: np.ndarray
    base_kind: str
    default_directions: int
    start: np.ndarray
    description: str


def _hyperbola_map(x):
    if x[0] <= 0:
        return None
    return np.array([x[0], 1.0 / x[0]])


def _linear_vop_map(x):
    if x[0] >= -1e-12 and x[1] >= -1e-12 and x[0] + x[1] >= 1.0 - 1e-12:
        return np.array([x[0], x[1]])
    return None


def _scalar_identity_map(x):
    return np.array([(x[0] - 2.0) ** 2])


def make_problem(name: str, *, lower=None, upper=None) -> Problem:
    """Build a catalog problem, optionally overriding the box bounds."""
    if name == "hyperbola":
        box = Box(lower if lower is not None else [1e-4],
                  upper if upper is not None else [100.0])
        cone = cone_orthant(2)
        f = SetFunction.from_vector_map(box, cone, _hyperbola_map, label=name)
        return Problem(name, f, np.array([1.0, 1.0]), "interior", 9,
                       np.array([1.0]),
                       "reciprocal curve x -> {(x, 1/x)} + C on a positive box; "
                       "endpoint directions are not attained")
    if name == "linear_vop":
        box = Box(lower if lower is not None else [-1.0, -1.0],
                  upper if upper is not None else [3.0, 3.0])
        cone = cone_orthant(2)
        f = SetFunction.from_vector_map(box, cone, _linear_vop_map, label=name)
        return Problem(name, f, np.array([1.0, 1.0]), "full", PLANAR_DIRECTIONS,
                       np.array([1.0, 1.0]),
                       "identity map on the wedge {x >= 0, x1 + x2 >= 1}; the "
                       "two vertices generate the infimum")
    if name == "scalar_identity":
        box = Box(lower if lower is not None else [-5.0],
                  upper if upper is not None else [5.0])
        cone = cone_orthant(1)
        f = SetFunction.from_vector_map(box, cone, _scalar_identity_map, label=name)
        return Problem(name, f, np.array([1.0]), "full", 1,
                       np.array([0.0]),
                       "scalar reduction: g(x) = (x - 2)^2 with the ray ordering; "
                       "one direction carries all the information")
    raise InputFormatError(f"unknown catalog problem {name!r}")


def table_problem(setfn: SetFunction) -> Problem:
    """A finite table with the defaults of a file problem: the cone's
    default anchor, a full base (``PLANAR_DIRECTIONS`` directions on
    planar cones, the anchor alone otherwise) and a zero start."""
    cone = setfn.cone
    return Problem(setfn.label, setfn, default_anchor(cone), "full",
                   PLANAR_DIRECTIONS if cone.dim == 2 else 1,
                   np.zeros(setfn.space.dim), "table problem")


SOLVE_NAMES = ("hyperbola", "linear_vop", "scalar_identity")
CVP_NAMES = ("quadratic_cvp",)


def directions_for(problem: Problem, count: int | None = None,
                   anchor=None) -> DualBase:
    """The scalarization base for a problem at the requested direction
    count and anchor (defaults: the problem's own)."""
    cone = problem.setfn.cone
    anchor = problem.anchor if anchor is None else as_vector(anchor, cone.dim)
    return _base(cone, anchor, problem.base_kind,
                 count if count is not None else problem.default_directions)


def _base(cone: Cone, anchor: np.ndarray, kind: str, count: int) -> DualBase:
    """``count`` directions of the given kind.  Interior bases drop the
    non-attaining extreme directions; a single direction, or a scalar
    objective, gets the anchor itself scaled to ``w @ anchor == 1``."""
    if count < 1:
        raise InputFormatError("need at least one direction")
    if kind == "interior":
        return interior_base(cone, anchor, count + 1)
    if cone.dim == 1 or count == 1:
        return DualBase(cone, anchor, np.atleast_2d(anchor / (anchor @ anchor)))
    return base_directions(cone, anchor, count - 1)


def _quadratic_fn(t, y, p):
    return np.stack([p[:, 0] ** 2, y[:, 0] ** 2], axis=1)


def _quadratic_dy(t, y, p):
    out = np.zeros((t.shape[0], 2, 1))
    out[:, 1, 0] = 2.0 * y[:, 0]
    return out


def _quadratic_dp(t, y, p):
    out = np.zeros((t.shape[0], 2, 1))
    out[:, 0, 0] = 2.0 * p[:, 0]
    return out


def _drift_fn(t, y, p):
    return np.stack([p[:, 0] ** 2, y[:, 0]], axis=1)


def _drift_dy(t, y, p):
    out = np.zeros((t.shape[0], 2, 1))
    out[:, 1, 0] = 1.0
    return out


def make_lagrangian(name: str) -> Lagrangian:
    """Registered Lagrangians with validated derivatives."""
    if name == "quadratic":
        return Lagrangian.checked(_quadratic_fn, _quadratic_dy, _quadratic_dp,
                                  n=1, d=2, label="quadratic")
    if name == "drift":
        return Lagrangian.checked(_drift_fn, _drift_dy, _quadratic_dp,
                                  n=1, d=2, label="drift")
    raise InputFormatError(f"unknown Lagrangian {name!r}")


def cvp_directions(alphas=None, count: int = 9) -> np.ndarray:
    """Planar directions ``(alpha, 1 - alpha)``; the alphas default to
    ``count`` (at least 1) values evenly spaced on [0.1, 0.9]."""
    if count < 1:
        raise InputFormatError(f"need at least one direction, got {count}")
    a = np.linspace(0.1, 0.9, count) if alphas is None else np.asarray(alphas, dtype=float)
    return np.stack([a, 1.0 - a], axis=1)


@dataclass(frozen=True)
class CvpProblem:
    """A catalog variational problem: Lagrangian, endpoints, mesh and
    default direction grid."""

    name: str
    lagrangian: Lagrangian
    boundary: Boundary
    mesh: int
    directions: np.ndarray
    description: str


def make_cvp(name: str) -> CvpProblem:
    if name == "quadratic_cvp":
        return CvpProblem(name, make_lagrangian("quadratic"),
                          Boundary(0.0, 1.0, [0.0], [1.0]), 100, cvp_directions(),
                          "curve energy vs displacement; every interior "
                          "scalarization has a hyperbolic-sine solution")
    raise InputFormatError(f"unknown catalog variational problem {name!r}")


def chain_instance() -> FiniteInstance:
    """Three points with strictly ordered values; the bottom of the chain
    is the unique lattice minimizer."""
    cone = cone_orthant(2)
    grid = np.array([[0.0], [1.0], [2.0]])
    values = [UpperSet.from_point(cone, [2.0, 2.0]),
              UpperSet.from_point(cone, [1.0, 1.0]),
              UpperSet.from_point(cone, [0.0, 0.0])]
    return FiniteInstance(grid, values, cone, label="chain")


def pair_instance() -> FiniteInstance:
    """The two wedge vertices plus a dominated interior point; the vertex
    pair is an exact infimizer."""
    cone = cone_orthant(2)
    grid = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    values = [UpperSet.from_point(cone, g) for g in grid]
    return FiniteInstance(grid, values, cone, label="pair")


def hyperbola_instance() -> FiniteInstance:
    """The reciprocal curve sampled at 50 points of [0.2, 10]; all values
    are pairwise incomparable, so every point is a lattice minimizer."""
    cone = cone_orthant(2)
    ys = np.linspace(0.2, 10.0, 50)
    values = [UpperSet.from_point(cone, [y, 1.0 / y]) for y in ys]
    return FiniteInstance(ys[:, None], values, cone, label="hyperbola-instance")


INSTANCE_NAMES = ("chain", "pair", "hyperbola_instance")


def make_instance(name: str) -> FiniteInstance:
    if name == "chain":
        return chain_instance()
    if name == "pair":
        return pair_instance()
    if name == "hyperbola_instance":
        return hyperbola_instance()
    raise InputFormatError(f"unknown catalog instance {name!r}")


def instance_inputs(inst: FiniteInstance, m=None, directions=None) -> tuple:
    """An oracle instance with its check inputs: the subset ``m`` (default:
    the whole grid) and the commutation directions (default: a full base
    of five directions at the cone's default anchor)."""
    if m is None:
        m = inst.grid
    if directions is None:
        directions = _base(inst.cone, default_anchor(inst.cone), "full", 5).directions
    return inst, m, directions
