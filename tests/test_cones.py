import numpy as np
import pytest
from numpy.testing import assert_allclose

from setopt.cones import (TOL_GEOM, DualBase, as_matrix, as_vector, base_directions,
                          cone_generated, cone_orthant, default_anchor,
                          dual_contains, extreme_rays_2d, interior_base,
                          simplex_grid)
from setopt.errors import (InconsistentConeError, InvalidAnchorError,
                           InvalidDimensionError, InvalidDirectionError,
                           NonPointedConeError)
from setopt.uppersets import UpperSet, contains_point


def test_as_vector_coercion():
    v = as_vector([1, 2, 3])
    assert v.dtype == float and v.shape == (3,)
    assert not v.flags.writeable
    assert as_vector(2.5).shape == (1,)
    with pytest.raises(InvalidDimensionError):
        as_vector([1.0, 2.0], 3)
    with pytest.raises(InvalidDimensionError):
        as_vector([np.nan, 1.0])
    with pytest.raises(InvalidDimensionError):
        as_vector([[1.0, 2.0]])


def test_as_matrix_coercion():
    m = as_matrix([1.0, 2.0])
    assert m.shape == (1, 2)
    m = as_matrix([[1, 2], [3, 4]])
    assert m.shape == (2, 2) and not m.flags.writeable
    with pytest.raises(InvalidDimensionError):
        as_matrix([[1.0, 2.0]], 3)
    with pytest.raises(InvalidDimensionError):
        as_matrix(np.empty((0, 2)))
    with pytest.raises(InvalidDimensionError):
        as_matrix([[np.inf, 0.0]])


def test_simplex_grid_weights():
    w = simplex_grid(2, 4)
    assert w.shape == (5, 2)
    assert_allclose(w.sum(axis=1), 1.0)
    assert_allclose(sorted(w[:, 0]), [0.0, 0.25, 0.5, 0.75, 1.0])
    w3 = simplex_grid(3, 3)
    assert w3.shape[0] == 10
    assert_allclose(w3.sum(axis=1), 1.0)
    assert np.all(w3 >= 0)


def test_orthant_cone_basics():
    c = cone_orthant(2)
    assert c.dim == 2 and c.kind == "orthant"
    assert_allclose(c.primal, np.eye(2))
    assert_allclose(c.dual, np.eye(2))
    assert c.pointedness_witness is not None
    with pytest.raises(InvalidDimensionError):
        cone_orthant(0)


def test_generated_cone_validation():
    c = cone_generated([[1.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, -1.0]])
    assert c.dim == 2
    # a dual direction that is negative on a primal generator is rejected
    with pytest.raises(InconsistentConeError):
        cone_generated([[1.0, 0.0], [1.0, 1.0]], [[-1.0, 0.5], [0.0, 1.0]])


def test_non_pointed_cone_rejected():
    # opposite generators make the cone a full line; the dual has no
    # interior point, so no pointedness witness exists
    with pytest.raises(NonPointedConeError):
        cone_generated([[1.0, 0.0], [-1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]])


def test_cone_equality_and_hash():
    a = cone_orthant(2)
    b = cone_orthant(2)
    assert a == b and hash(a) == hash(b)
    c = cone_generated([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    assert a != c or c.kind != a.kind


def test_dual_contains():
    c = cone_orthant(2)
    assert dual_contains(c, np.array([0.3, 0.7]))
    assert dual_contains(c, np.array([1.0, 0.0]))
    assert not dual_contains(c, np.array([-0.1, 1.0]))
    g = cone_generated([[1.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, -1.0]])
    assert dual_contains(g, np.array([1.0, 0.0]))
    assert not dual_contains(g, np.array([-1.0, 2.5]))


def test_extreme_rays_planar():
    lo, hi = extreme_rays_2d(np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]))
    picked = {tuple(np.round(lo, 12)), tuple(np.round(hi, 12))}
    assert (1.0, 0.0) in picked and (0.0, 1.0) in picked
    with pytest.raises(NonPointedConeError):
        extreme_rays_2d(np.array([[1.0, 0.0], [-1.0, -0.1], [0.0, 1.0]]))


def test_dual_base_normalization():
    c = cone_orthant(2)
    base = DualBase(c, [1.0, 1.0], [[0.5, 0.5], [1.0, 0.0]])
    assert len(base) == 2
    with pytest.raises(InvalidDirectionError):
        DualBase(c, [1.0, 1.0], [[0.6, 0.6]])
    with pytest.raises(InvalidDirectionError):
        DualBase(c, [1.0, 1.0], [[2.0, -1.0]])


def test_base_directions_counts_and_corners():
    c = cone_orthant(2)
    base = base_directions(c, [1.0, 1.0], 10)
    assert len(base) == 11
    dirs = base.directions
    assert_allclose(dirs @ np.array([1.0, 1.0]), 1.0)
    # the extreme dual directions always survive
    assert any(np.allclose(w, [1.0, 0.0]) for w in dirs)
    assert any(np.allclose(w, [0.0, 1.0]) for w in dirs)
    alphas = base.alpha_coordinates()
    assert alphas is not None
    assert np.all(np.diff(alphas) > 0) or np.all(np.diff(alphas) < 0)


def test_base_directions_d3():
    c = cone_orthant(3)
    base = base_directions(c, [1.0, 1.0, 1.0], 4)
    assert len(base) == simplex_grid(3, 4).shape[0]
    assert_allclose(base.directions @ np.ones(3), 1.0)
    assert base.alpha_coordinates() is None


def test_interior_base_drops_extremes():
    c = cone_orthant(2)
    base = interior_base(c, [1.0, 1.0], 10)
    assert len(base) == 9
    assert not any(np.allclose(w, [1.0, 0.0]) for w in base.directions)
    assert_allclose(sorted(base.directions[:, 0]), np.linspace(0.1, 0.9, 9))
    with pytest.raises(InvalidDimensionError):
        interior_base(c, [1.0, 1.0], 1)


def _tolerance_dedupe_base(cone, anchor, resolution, interior):
    """Reference: the simplex base deduplicated by the earlier distance
    loop (within TOL_GEOM, corners first), planar bases sorted by alpha."""
    normalized = np.stack([z / float(z @ anchor) for z in cone.dual])
    weights = simplex_grid(normalized.shape[0], resolution)
    if interior:
        weights = weights[np.all(weights > 0.0, axis=1)]
    dirs = weights @ normalized
    is_corner = weights.max(axis=1) == 1.0
    kept = []
    for w in np.concatenate([dirs[is_corner], dirs[~is_corner]]):
        scale = TOL_GEOM * max(1.0, np.linalg.norm(w))
        if not kept or np.min(np.linalg.norm(np.asarray(kept) - w, axis=1)) > scale:
            kept.append(w)
    kept = np.stack(kept)
    alphas = DualBase(cone, anchor, kept).alpha_coordinates()
    return kept if alphas is None else kept[np.argsort(alphas)]


@pytest.mark.parametrize("cone", [
    cone_generated([[1.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, -1.0], [1.0, 0.0]]),
    cone_generated([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [-1.0, -1.0, 1.0], [-1.0, 1.0, 1.0]],
                   [[-1.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, -1.0, 1.0], [0.0, 1.0, 1.0]]),
    cone_orthant(2),
    cone_orthant(3),
], ids=["planar-redundant-dual", "square-pyramid", "orthant2", "orthant3"])
def test_bases_match_tolerance_dedupe(cone):
    # the key rule keeps exactly the directions the distance loop kept
    anchor = default_anchor(cone)
    for res in range(1, 21):
        ref = _tolerance_dedupe_base(cone, anchor, res, interior=False)
        assert base_directions(cone, anchor, res).directions.tobytes() == ref.tobytes()
        if res >= cone.dual.shape[0]:  # some weight vector is all positive
            ref = _tolerance_dedupe_base(cone, anchor, res, interior=True)
            assert interior_base(cone, anchor, res).directions.tobytes() == ref.tobytes()


def test_default_anchor():
    c = cone_orthant(2)
    assert_allclose(default_anchor(c), [1.0, 1.0])
    g = cone_generated([[1.0, 0.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, -1.0]])
    a = default_anchor(g)
    assert np.all(g.dual @ a > 0)


def test_anchor_must_be_positive_on_duals():
    # an anchor orthogonal to a dual generator cannot normalize the base
    c = cone_orthant(2)
    with pytest.raises(InvalidAnchorError):
        base_directions(c, [1.0, 0.0], 4)


@pytest.mark.parametrize("primal, dual, outside", [
    # both dual rays lie in R^2_+ = C+ but span only part of it
    (np.eye(2), [[1.0, 1.0], [1.0, 2.0]], [2.0, -0.5]),
    # C is the ray through (1, 0), so C+ is the half-plane z1 >= 0
    ([[1.0, 0.0]], np.eye(2), [0.0, 1.0]),
], ids=["narrow-dual", "ray-cone"])
def test_planar_dual_list_must_generate_the_dual_cone(primal, dual, outside):
    # the staircase would count a point outside the value as inside
    c = cone_generated(primal, dual)
    with pytest.raises(InconsistentConeError, match="do not generate the dual cone"):
        contains_point(UpperSet.from_point(c, [0.0, 0.0]), outside)
