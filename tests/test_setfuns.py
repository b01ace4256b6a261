import numpy as np
import pytest
from numpy.testing import assert_allclose

from setopt.cones import base_directions, cone_generated, cone_orthant, interior_base
from setopt.errors import (ConeMismatchError, EmptyCandidateError,
                           InvalidDimensionError,
                           InvalidDirectionError, OutOfDomainError,
                           UnsupportedDimensionError)
from setopt.setfuns import (Box, CandidateSet, Grid, ScalarizationProfile,
                            SetFunction, convex_sample_points, evaluate,
                            evaluate_or_empty, inf_translation, scalarize,
                            scalarized_inf_translation, sup_translation)
from setopt.uppersets import UpperSet, contains_point, equals, support

C2 = cone_orthant(2)


def hyper(x):
    if x[0] <= 0:
        return None
    return np.array([x[0], 1.0 / x[0]])


def hyper_fn(lo=1e-4, hi=100.0):
    return SetFunction.from_vector_map(Box([lo], [hi]), C2, hyper, label="hyper")


def test_box_contains_and_clip():
    b = Box([0.0, -1.0], [2.0, 1.0])
    assert b.dim == 2
    assert b.contains(np.array([1.0, 0.0]))
    assert b.contains(np.array([0.0, 1.0]))
    assert not b.contains(np.array([2.1, 0.0]))
    assert_allclose(b.clip(np.array([-5.0, 5.0])), [0.0, 1.0])
    with pytest.raises(InvalidDimensionError):
        Box([1.0], [0.0])


def test_grid_membership_and_duplicates():
    g = Grid(np.array([[0.0], [1.0], [2.0]]))
    assert len(g) == 3
    assert g.index_of(np.array([1.0])) == 1
    assert g.index_of(np.array([1.5])) is None
    with pytest.raises(InvalidDimensionError):
        Grid(np.array([[0.0], [0.0]]))
    # one key per point: coordinates rounded to 9 decimals
    with pytest.raises(InvalidDimensionError):
        Grid(np.array([[0.0], [1e-12], [1.0]]))
    with pytest.raises(InvalidDimensionError):
        Grid(np.array([[1.0, 2.0], [1.0 + 1e-12, 2.0]]))
    p = np.array([0.7, 0.1])
    g2 = Grid(np.stack([p, [0.0, 0.0]]))
    centroid = np.mean([p, p, p], axis=0)  # as collect_candidate merges them
    assert not np.array_equal(centroid, p)
    assert g2.index_of(centroid) == 0
    assert g2.index_of(np.nextafter(p, 1.0)) == 0
    assert g2.index_of(p + 1e-6) is None
    # a lookup of the wrong length is simply not found
    assert g.index_of(np.array([1.0, 0.0])) is None
    assert not g2.contains(np.array([0.7]))


def test_from_vector_map_and_empty():
    f = hyper_fn()
    v = evaluate(f, np.array([2.0]))
    assert_allclose(v.generators, [[2.0, 0.5]])
    with pytest.raises(OutOfDomainError):
        evaluate(f, np.array([200.0]))
    assert evaluate_or_empty(f, np.array([200.0])).is_empty


def test_from_generator_map():
    def gens(x):
        if x[0] < 0:
            return None
        return [[x[0], 0.0], [0.0, x[0]]]

    f = SetFunction.from_generator_map(Box([-1.0], [1.0]), C2, gens)
    v = evaluate(f, np.array([1.0]))
    assert v.generators.shape == (2, 2)
    assert evaluate(f, np.array([-0.5])).is_empty


def test_from_table():
    pts = np.array([[0.0], [1.0]])
    vals = [UpperSet.from_point(C2, [1.0, 1.0]), UpperSet.empty(C2)]
    f = SetFunction.from_table(C2, pts, vals)
    assert equals(evaluate(f, np.array([0.0])), vals[0])
    assert evaluate(f, np.array([1.0])).is_empty
    with pytest.raises(OutOfDomainError):
        evaluate(f, np.array([0.5]))


def test_scalarize_matches_support():
    f = hyper_fn()
    x = np.array([2.0])
    z = np.array([0.3, 0.7])
    assert scalarize(f, z, x) == pytest.approx(0.3 * 2.0 + 0.7 * 0.5)
    assert scalarize(f, z, x) == pytest.approx(support(evaluate(f, x), z))


def test_scalarize_rejects_directions_off_dual():
    f = hyper_fn()
    with pytest.raises(InvalidDirectionError):
        scalarize(f, np.array([1.0, -0.2]), np.array([1.0]))


def test_convex_sample_points_deterministic():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    a = convex_sample_points(pts, extra=16, seed=3)
    b = convex_sample_points(pts, extra=16, seed=3)
    assert_allclose(a, b)
    assert a.shape[0] == 3 + 3 + 16
    # all samples stay in the hull of the inputs
    assert np.all(a >= -1e-12) and np.all(a.sum(axis=1) <= 1.0 + 1e-12)


def test_inf_translation_box_extends_space():
    f = hyper_fn(lo=0.5, hi=4.0)
    m = CandidateSet(np.array([[1.0], [2.0]]))
    fhat = inf_translation(f, m)
    assert isinstance(fhat.space, Box)
    # x + y must reach the whole original box from the translated one
    assert fhat.space.lower[0] == pytest.approx(0.5 - 2.0)
    assert fhat.space.upper[0] == pytest.approx(4.0 - 1.0)
    v = evaluate(fhat, np.array([0.0]))
    # inf of f(1), f(2): both points generate
    assert contains_point(v, np.array([1.0, 1.0]))
    assert contains_point(v, np.array([2.0, 0.5]))


def test_inf_translation_preserves_grid_infimum():
    pts = np.linspace(0.5, 3.0, 11)[:, None]
    f = SetFunction.from_vector_map(Grid(pts), C2, hyper)
    m = CandidateSet(pts[3:5])
    fhat = inf_translation(f, m)
    total = [evaluate_or_empty(f, p) for p in pts]
    hat_total = [evaluate_or_empty(fhat, q) for q in fhat.space.points]
    from setopt.uppersets import lattice_inf
    assert equals(lattice_inf(total), lattice_inf(hat_total))


def test_scalarized_translation_commutes():
    f = hyper_fn()
    ys = np.geomspace(0.01, 50.0, 400)[:, None]
    m = CandidateSet(ys)
    z = np.array([0.4, 0.6])
    for x in (0.0, 0.5, 2.0):
        scalar_route = scalarized_inf_translation(f, m, z, np.array([x]))
        set_route = support(evaluate(inf_translation(f, m), np.array([x])), z)
        assert abs(scalar_route - set_route) <= 1e-12


def test_scalarized_translation_off_dual_rejected():
    f = hyper_fn()
    m = CandidateSet(np.array([[1.0]]))
    with pytest.raises(InvalidDirectionError):
        scalarized_inf_translation(f, m, np.array([-1.0, 2.0]), np.array([0.0]))


def test_sup_translation_planar_intersection():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    f = SetFunction.from_vector_map(Box([-2.0, -2.0], [2.0, 2.0]), C2,
                                    lambda x: np.array([x[0], x[1]]))
    m = CandidateSet(pts)
    fsup = sup_translation(f, m)
    v = evaluate(fsup, np.array([0.0, 0.0]))
    # intersection of {0}+C and {(1,1)}+C is {(1,1)}+C
    assert_allclose(v.minimal_generators(), [[1.0, 1.0]])


def test_sup_translation_singleton_join_matches_planar():
    pts = np.array([[0.5, -0.25], [-0.5, 0.25]])
    f = SetFunction.from_vector_map(Box([-2.0, -2.0], [2.0, 2.0]), C2,
                                    lambda x: np.array([x[0], x[1]]))
    m = CandidateSet(pts)
    fsup = sup_translation(f, m)
    v = evaluate(fsup, np.array([0.1, 0.1]))
    # componentwise maximum of the two translated points
    base = np.array([0.1, 0.1])
    expect = np.maximum(base + pts[0], base + pts[1])
    assert_allclose(v.minimal_generators(), [expect])


def test_sup_translation_empty_translate_is_empty():
    f = hyper_fn(lo=0.5, hi=4.0)
    m = CandidateSet(np.array([[0.0], [10.0]]))
    fsup = sup_translation(f, m)
    # x + 10 falls off the box for every x reaching the lower part
    v = evaluate(fsup, np.array([-4.0]))
    assert v.is_empty


def test_sup_translation_rejects_unsupported_dimension():
    C3 = cone_orthant(3)

    def three_gen(x):
        return [[x[0], 0.0, 0.0], [0.0, x[0], 0.0], [0.0, 0.0, x[0]]]

    f = SetFunction.from_generator_map(Box([0.0], [1.0]), C3, three_gen)
    m = CandidateSet(np.array([[0.0], [0.5]]))
    fsup = sup_translation(f, m)
    with pytest.raises(UnsupportedDimensionError):
        evaluate(fsup, np.array([0.25]))


def test_candidate_set_validation():
    c = CandidateSet(np.array([[1.0, 2.0]]))
    assert len(c) == 1
    with pytest.raises(EmptyCandidateError):
        CandidateSet(np.empty((0, 1)))


def _profile_matching_support_loop(f, base, pts):
    """Build the profile and require every entry to match the per-entry
    support of the evaluated value: infinite entries exactly, finite ones
    within 4.5e-16 relative (matrix products may sum in another order)."""
    prof = ScalarizationProfile.build(f, base, pts)
    ref = np.array([[support(evaluate_or_empty(f, x), z) for x in pts]
                    for z in base.directions])
    assert prof.values.shape == ref.shape == (len(base), len(pts))
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(prof.values), finite)
    assert np.array_equal(prof.values[~finite], ref[~finite])
    assert np.all(np.abs(prof.values[finite] - ref[finite])
                  <= 4.5e-16 * np.abs(ref[finite]))
    return prof


def test_scalarization_profile_build_and_recheck():
    f = hyper_fn()
    base = interior_base(C2, np.array([1.0, 1.0]), 6)
    pts = np.array([[0.5], [1.0], [2.0], [150.0]])
    prof = _profile_matching_support_loop(f, base, pts)
    # profile entries equal direct scalarization; the off-domain column is +inf
    assert prof.values[0, 1] == pytest.approx(
        scalarize(f, base.directions[0], pts[1]))
    assert np.all(prof.values[:, 3] == np.inf)

    def three_gens(x):
        return [[x[0], 3.0 - x[0]], [1.0 + x[0], 0.5], [0.3, 2.0 + x[0] ** 2]]

    g = SetFunction.from_generator_map(Box([0.0], [2.0]), C2, three_gens)
    _profile_matching_support_loop(g, base_directions(C2, np.array([1.0, 2.0]), 9),
                                   np.array([[0.0], [0.7], [1.3], [2.0]]))

    c3 = cone_orthant(3)
    rng = np.random.default_rng(5)
    vals = [UpperSet(c3, rng.uniform(0.5, 4.0, size=(k, 3))) for k in (1, 3, 4)]
    vals.insert(2, UpperSet.empty(c3))
    grid_pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    table = SetFunction.from_table(c3, grid_pts, vals)
    prof = _profile_matching_support_loop(
        table, base_directions(c3, np.ones(3), 4), grid_pts)
    assert np.all(prof.values[:, 2] == np.inf)


def test_profile_build_rejects_base_over_another_cone():
    f = hyper_fn()
    pts = np.array([[1.0]])
    # an equal cone built separately is the same cone
    ScalarizationProfile.build(f, interior_base(cone_orthant(2), np.ones(2), 4), pts)
    other = cone_generated([[1.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, -1.0]])
    with pytest.raises(ConeMismatchError):
        ScalarizationProfile.build(f, base_directions(other, np.array([2.0, 1.0]), 4), pts)


def test_profile_marks_infeasible_points_infinite():
    f = hyper_fn(lo=0.5, hi=4.0)
    base = interior_base(C2, np.array([1.0, 1.0]), 4)
    prof = ScalarizationProfile.build(f, base, np.array([[1.0], [9.0]]))
    assert np.all(np.isfinite(prof.values[:, 0]))
    assert np.all(np.isinf(prof.values[:, 1]))
