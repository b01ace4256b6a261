"""Set optimization over complete lattices of cone upper sets.

The package minimizes set-valued and vector-valued objectives by
scalarizing along a base of dual directions, collecting the scalar
minimizers into a candidate set, and verifying that the candidate is an
infimizer (and ideally a full scalarization solution) of the original
lattice problem.  Translation infima, the identities that make the
scalarization exact, a brute-force finite-instance oracle and a
discretized variational front end round out the toolkit.
"""

from ._version import __version__
from .cones import (Cone, DualBase, base_directions, cone_generated,
                    cone_orthant, default_anchor, dual_contains, interior_base)
from .errors import (ConeMismatchError, DerivativeMismatchError,
                     EmptyCandidateError, EmptyFamilyError,
                     GeneratorLimitError, InconsistentConeError,
                     InfeasibleProblemError, InputFormatError,
                     InvalidAnchorError, InvalidDimensionError,
                     InvalidDirectionError, InvalidScalarError,
                     NonPointedConeError, OutOfDomainError, SetOptError,
                     UnsupportedDimensionError)
from .uppersets import (UpperSet, boundary_polyline, contains_point, equals,
                        lattice_inf, lattice_minimal, oplus, order_geq, prune, scale,
                        support)
from .setfuns import (Box, CandidateSet, FiniteInstance, Grid, ScalarizationProfile,
                      SetFunction, convex_sample_points, evaluate,
                      evaluate_or_empty, inf_translation, scalarize,
                      scalarized_inf_translation, translated_domain, translated_values)
from .solver import (InfimizerGaps, ScalarMinResult, SolutionReport,
                     collect_candidate, default_tol, probe_points,
                     scalar_minimize, sweep, verify_infimizer,
                     verify_lattice_minimizer, verify_sc_solution)
from .oracle import (CampaignReport, LemmaReport,
                     campaign_commutation, campaign_lemma, check_commutation,
                     check_inf_translation_lemma, corrupting_override,
                     enumerate_lattice_minimizers, exact_inf,
                     minimizers_form_infimizer, random_cone_2d, random_instance)
from .calcvar import (Arc, Boundary, CvpReport, CvpSolveResult,
                      Lagrangian, TestDirection, check_derivatives, cvp_sweep,
                      first_order_residual, linear_arc, objective,
                      random_test_directions, scalar_gradient,
                      scalar_objective, solve_sccvp)
from . import catalog, jsonio
