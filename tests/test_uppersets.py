import numpy as np
import pytest
from numpy.testing import assert_allclose

from setopt.cones import Cone, cone_generated, cone_orthant
from setopt.errors import (ConeMismatchError, EmptyFamilyError,
                           GeneratorLimitError, InvalidScalarError,
                           UnsupportedDimensionError)
from setopt.uppersets import (UpperSet, boundary_polyline, contains_point,
                              equals, lattice_inf, oplus, order_geq, prune,
                              scale, support)

C2 = cone_orthant(2)


def staircase(*points):
    return UpperSet(C2, np.array(points, dtype=float))


def test_construction_and_empty():
    a = staircase([1.0, 2.0])
    assert not a.is_empty and a.tag == "Proper"
    e = UpperSet.empty(C2)
    assert e.is_empty and e.tag == "Empty"
    assert e.minimal_generators().shape == (0, 2)
    p = UpperSet.from_point(C2, [3.0, 4.0])
    assert_allclose(p.generators, [[3.0, 4.0]])


def test_generators_are_a_read_only_copy():
    src = np.array([[1.0, 2.0], [3.0, 0.5]])
    a = UpperSet(C2, src)
    src[0, 0] = 9.0  # the value does not alias its input
    assert_allclose(a.generators, [[1.0, 2.0], [3.0, 0.5]])
    for v in (a, UpperSet.empty(C2), UpperSet(C2, []), UpperSet(C2, np.empty((0, 2)))):
        assert not v.generators.flags.writeable
    assert UpperSet(C2, []).generators.shape == (0, 2)


def test_generator_budget():
    with pytest.raises(GeneratorLimitError):
        UpperSet(C2, np.zeros((10001, 2)))


def test_oplus_refuses_too_many_pairwise_sums():
    a = UpperSet(C2, np.arange(202.0).reshape(101, 2))
    with pytest.raises(GeneratorLimitError):
        oplus(a, a)


def test_degenerate_planar_cone_constructs_but_prune_refuses():
    # one dual generator: the cone is pointed, but its planar staircase
    # basis is singular, which only planar geometry needs
    cone = Cone(np.eye(2), [[1.0, 1.0]])
    a = UpperSet(cone, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(UnsupportedDimensionError):
        prune(a)


def test_minimal_generators_drop_dominated():
    a = staircase([0.0, 2.0], [0.5, 0.5], [2.0, 0.0], [2.0, 2.0], [1.5, 1.5])
    mg = a.minimal_generators()
    assert mg.shape == (3, 2)
    # staircase order: decreasing second coordinate
    assert_allclose(mg, [[0.0, 2.0], [0.5, 0.5], [2.0, 0.0]])


def test_minimal_generators_drop_interior_collinear():
    a = staircase([0.0, 2.0], [1.0, 1.0], [2.0, 0.0])
    # (1,1) lies on the segment between the others: convexification removes it
    assert a.minimal_generators().shape == (2, 2)


def test_contains_point():
    a = staircase([0.0, 2.0], [2.0, 0.0])
    assert contains_point(a, np.array([2.0, 2.0]))
    assert contains_point(a, np.array([1.0, 1.0]))  # hull midpoint
    assert not contains_point(a, np.array([0.5, 0.5]))
    assert not contains_point(a, np.array([-1.0, 5.0]))
    assert not contains_point(UpperSet.empty(C2), np.array([0.0, 0.0]))


def test_contains_point_generated_cone():
    cone = cone_generated([[1.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, -1.0]])
    a = UpperSet.from_point(cone, [0.0, 0.0])
    assert contains_point(a, np.array([2.0, 1.0]))
    assert not contains_point(a, np.array([0.5, 1.0]))
    assert not contains_point(a, np.array([-0.5, 0.0]))


def test_oplus_pairwise_sums():
    a = staircase([1.0, 0.0])
    b = staircase([0.0, 1.0], [2.0, -1.0])
    s = oplus(a, b)
    mg = s.minimal_generators()
    assert_allclose(mg, [[1.0, 1.0], [3.0, -1.0]])


def test_oplus_empty_absorbs():
    a = staircase([1.0, 1.0])
    e = UpperSet.empty(C2)
    assert oplus(a, e).is_empty
    assert oplus(e, a).is_empty
    assert oplus(e, e).is_empty


def test_oplus_cone_mismatch():
    other = cone_generated([[1.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, -1.0]])
    with pytest.raises(ConeMismatchError):
        oplus(staircase([0.0, 0.0]), UpperSet.from_point(other, [0.0, 0.0]))


def test_scale_positive():
    a = staircase([1.0, 2.0], [3.0, 0.0])
    s = scale(2.0, a)
    assert_allclose(s.minimal_generators(), [[2.0, 4.0], [6.0, 0.0]])


def test_scale_zero_gives_cone():
    # the conlinear convention: 0 * A is the cone itself, for every A
    a = staircase([5.0, -7.0])
    z = scale(0.0, a)
    assert_allclose(z.minimal_generators(), [[0.0, 0.0]])
    ze = scale(0.0, UpperSet.empty(C2))
    assert_allclose(ze.minimal_generators(), [[0.0, 0.0]])
    assert equals(z, ze)


def test_scale_invalid():
    a = staircase([1.0, 1.0])
    with pytest.raises(InvalidScalarError):
        scale(-1.0, a)
    with pytest.raises(InvalidScalarError):
        scale(np.nan, a)


def test_lattice_inf_union_hull():
    a = staircase([1.0, 0.0])
    b = staircase([0.0, 1.0])
    v = lattice_inf([a, b])
    assert contains_point(v, np.array([0.5, 0.5]))
    assert_allclose(v.minimal_generators(), [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(EmptyFamilyError):
        lattice_inf([])


def test_lattice_inf_ignores_empty():
    a = staircase([1.0, 0.0])
    e = UpperSet.empty(C2)
    assert equals(lattice_inf([a, e]), a)
    assert lattice_inf([e, e]).is_empty


def test_support_values():
    a = staircase([1.0, 0.0], [0.0, 1.0])
    assert support(a, np.array([0.5, 0.5])) == pytest.approx(0.5)
    assert support(a, np.array([1.0, 0.0])) == pytest.approx(0.0)
    assert support(UpperSet.empty(C2), np.array([0.5, 0.5])) == np.inf
    # off the dual cone the linear functional is unbounded below
    assert support(a, np.array([1.0, -1.0])) == -np.inf


def test_order_geq_orientation():
    a = staircase([1.0, 1.0])
    shifted = staircase([2.0, 2.0])
    # the shifted-up set is smaller, hence lattice-larger (worse)
    assert order_geq(shifted, a)
    assert not order_geq(a, shifted)
    assert order_geq(a, a)


def test_order_geq_empty_is_top():
    a = staircase([1.0, 1.0])
    e = UpperSet.empty(C2)
    assert order_geq(e, a)
    assert order_geq(e, e)
    assert not order_geq(a, e)


def test_equals_up_to_representation():
    a = staircase([0.0, 2.0], [2.0, 0.0])
    b = staircase([2.0, 0.0], [1.0, 1.0], [0.0, 2.0], [3.0, 3.0])
    assert equals(a, b)
    assert not equals(a, staircase([0.0, 2.0], [2.0, 0.1]))


def test_prune_idempotent_random():
    rng = np.random.default_rng(42)
    for _ in range(50):
        pts = rng.normal(0.0, 2.0, size=(rng.integers(1, 30), 2))
        a = UpperSet(C2, pts)
        p = prune(a)
        assert equals(p, a)
        assert p.generators.shape[0] <= a.generators.shape[0]
        assert equals(prune(p), p)


def test_boundary_polyline():
    a = staircase([0.0, 2.0], [2.0, 0.0])
    verts, rays = boundary_polyline(a)
    assert verts.shape == (2, 2)
    assert rays.shape == (2, 2)
    norms = np.linalg.norm(rays, axis=1)
    assert_allclose(norms, 1.0)


def test_dense_curve_support_not_thinned():
    # a fine convex frontier must keep its support values intact under
    # pruning (local collinearity filtering only)
    xs = np.geomspace(0.05, 20.0, 500)
    a = UpperSet(C2, np.stack([xs, 1.0 / xs], axis=1))
    p = prune(a)
    for alpha in (0.2, 0.5, 0.8):
        z = np.array([alpha, 1 - alpha])
        assert support(p, z) == pytest.approx(support(a, z), abs=1e-12)
