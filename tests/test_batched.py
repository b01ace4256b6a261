"""Seeded equivalence checks: each batched kernel against the per-point,
per-direction loop it replaced, kept here as the reference.

The commutation gap must agree to the last bit (both sides run the same
products), containment must agree exactly on probes placed on facets and
inside and outside the tolerance band, and batched grid lookups must agree
row by row with the one-point lookup.  Every containment test is the
one-rival case of the stacked facet-table kernel.  The inf-translation must give the
same generator arrays, bit for bit, as one evaluation per translate, and
the lattice-minimality rule the same verdicts as the pairwise loop it
replaced.
"""

import math

import numpy as np

from setopt.catalog import chain_instance, pair_instance
from setopt.cones import TOL_GEOM, cone_orthant, point_key
from setopt.oracle import (check_commutation, corrupting_override, random_cone_2d,
                           random_instance)
from setopt.setfuns import (Box, Grid, SetFunction, evaluate_or_empty, translated_domain,
                            translated_values)
from setopt.uppersets import (UpperSet, _facet_table, _inside, contains_point, equals,
                              lattice_inf, lattice_minimal, order_geq, support)

DRAWS = 60


def reference_gap(inst, m, dirs, fhat_override=None):
    """The commutation gap one point and one direction at a time."""
    m_idx = inst.subset_indices(m)
    worst = 0.0
    for x in translated_domain(inst.grid, inst.grid[list(m_idx)]):
        parts = []
        for i in m_idx:
            j = inst.index_of(x + inst.grid[i])
            parts.append(inst.values[j] if j >= 0 else UpperSet.empty(inst.cone))
        v = None if fhat_override is None else fhat_override(x, frozenset(m_idx))
        if v is None:
            v = lattice_inf(parts)
        for z in dirs:
            lhs = support(v, z)
            rhs = min(support(p, z) for p in parts)
            if math.isinf(lhs) and math.isinf(rhs) and lhs == rhs:
                continue
            worst = max(worst, abs(lhs - rhs))
    return worst


def test_commutation_gap_matches_the_reference_loop_bitwise():
    rng = np.random.default_rng(1201)
    saw_empty = saw_rotated = saw_gap = 0
    for _ in range(DRAWS):
        inst, m, dirs = random_instance(rng)
        saw_empty += any(v.is_empty for v in inst.values)
        saw_rotated += not np.array_equal(inst.cone.dual, np.eye(2))
        assert check_commutation(inst, m, dirs) == reference_gap(inst, m, dirs)
        bad = corrupting_override(inst, m)
        gap = check_commutation(inst, m, dirs, fhat_override=bad)
        assert gap == reference_gap(inst, m, dirs, bad)
        saw_gap += gap > 0.0
    # the draws cover empty values, non-orthant cones and caught faults
    assert saw_empty and saw_rotated and saw_gap
    for inst in (pair_instance(), chain_instance()):
        dirs = np.array([[1.0, 0.0], [0.3, 0.7], [0.0, 1.0]])
        bad = corrupting_override(inst, inst.grid)
        assert (check_commutation(inst, inst.grid, dirs, fhat_override=bad)
                == reference_gap(inst, inst.grid, dirs, bad))


def reference_contains(a, q, tol=TOL_GEOM):
    """Planar membership one facet at a time."""
    if a.is_empty:
        return False
    basis = a.cone.planar_basis
    u = basis @ q
    scale = max(1.0, float(np.max(np.abs(u))),
                float(np.max(np.abs(a.generators @ basis.T))))
    normals, offsets = a.facets()
    return all(float(n @ u) >= h - tol * scale for n, h in zip(normals, offsets))


def facet_probes(a):
    """Points on each facet of a planar value and just inside and outside
    its tolerance band, with the verdict each must get."""
    basis = a.cone.planar_basis
    u_gens = a.generators @ basis.T
    verts = a.minimal_generators() @ basis.T
    # one point on each facet: the ray facets' points lie a unit out along
    # the ray, the edge facets' points at the edge midpoints
    on = [verts[0] + [0.0, 1.0]]
    on += [(p + r) / 2.0 for p, r in zip(verts[:-1], verts[1:])]
    on.append(verts[-1] + [1.0, 0.0])
    normals, _ = a.facets()
    out = []
    for p, n in zip(on, normals):
        scale = max(1.0, float(np.max(np.abs(p))), float(np.max(np.abs(u_gens))))
        for c, inside in ((-2.0, False), (-0.5, True), (0.0, True), (0.5, True), (2.0, True)):
            u = p + c * TOL_GEOM * scale * n
            out.append((np.linalg.solve(basis, u), inside))
    return out


def random_value(rng, cone, dim=2):
    return UpperSet(cone, rng.normal(0.0, 2.0, size=(int(rng.integers(1, 6)), dim)))


def test_planar_containment_matches_the_per_facet_reference():
    rng = np.random.default_rng(1202)
    for _ in range(300):
        cone = random_cone_2d(rng)
        a, b = random_value(rng, cone), random_value(rng, cone)
        for q, inside in facet_probes(b):
            assert contains_point(b, q) is inside
            assert reference_contains(b, q) is inside
        for q in rng.normal(0.0, 3.0, size=(8, 2)):
            assert contains_point(b, q) is reference_contains(b, q)
        for lo, hi in ((a, b), (b, a), (a, lattice_inf([a, b])), (lattice_inf([a, b]), a),
                       (b, b)):
            expect = all(reference_contains(hi, p) for p in lo.minimal_generators())
            assert order_geq(lo, hi) is expect


def test_certificate_containment_matches_the_per_point_reference():
    # d >= 3: the sampled support certificate, batched over the points
    rng = np.random.default_rng(1203)
    cone = cone_orthant(3)
    dirs = cone.certificate_directions
    for _ in range(200):
        a, b = random_value(rng, cone, 3), random_value(rng, cone, 3)
        mins = (b.generators @ dirs.T).min(axis=0)

        def reference(q):
            scale = max(1.0, float(np.max(np.abs(q))), float(np.max(np.abs(b.generators))))
            return bool(np.all(dirs @ q >= mins - TOL_GEOM * scale))

        probes = [rng.normal(0.0, 3.0, size=(6, 3)), b.generators + 1e-12,
                  b.generators + rng.normal(0.0, 0.3, size=b.generators.shape),
                  b.generators[0] - 0.05 * dirs]   # each fails its own direction
        for q in np.vstack(probes):
            assert contains_point(b, q) is reference(q)
        assert order_geq(a, b) is all(reference(p) for p in a.minimal_generators())


def test_batched_grid_lookup_matches_the_one_point_lookup():
    rng = np.random.default_rng(1204)
    for _ in range(50):
        pts = rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 20)), 2))
        pts[0, 0] = 0.0
        grid = Grid(pts)
        keys = {point_key(p): i for i, p in enumerate(grid.points)}
        queries = np.vstack([
            grid.points,
            grid.points + 1e-11,                      # same key
            grid.points + 1e-6,                       # another key
            rng.uniform(-3.0, 3.0, size=(5, 2)),      # off the grid
            [[-0.0, pts[0, 1]], [-1e-12, pts[0, 1]]],  # -0.0 keys
        ])
        batch = grid.indices_of(queries)
        assert batch.shape == (queries.shape[0],)
        for q, i in zip(queries, batch):
            one = grid.index_of(q)
            assert (-1 if one is None else one) == i == keys.get(point_key(q), -1)
        assert list(batch[:len(pts)]) == list(range(len(pts)))
        assert batch[-1] == batch[-2] == 0
        assert grid.contains_rows(queries).tolist() == [grid.contains(q) for q in queries]


def reference_translated_values(f, xs, ys):
    """The inf-translation one translate at a time."""
    return [lattice_inf([evaluate_or_empty(f, x + y) for y in ys]) for x in xs]


def assert_same_values(got, expect):
    assert len(got) == len(expect)
    for a, b in zip(got, expect):
        assert a.generators.shape == b.generators.shape
        assert np.array_equal(a.generators, b.generators)


def test_translated_values_match_the_per_translate_reference_bitwise():
    rng = np.random.default_rng(1205)
    saw_empty = saw_rotated = 0
    for _ in range(DRAWS):
        inst, m, _ = random_instance(rng)
        xs = np.vstack([translated_domain(inst.grid, m), rng.uniform(-6.0, 6.0, size=(4, 2))])
        got = translated_values(inst, xs, m)
        assert_same_values(got, reference_translated_values(inst, xs, m))
        saw_empty += any(v.is_empty for v in got)
        saw_rotated += not np.array_equal(inst.cone.dual, np.eye(2))
    # the draws cover empty values and non-orthant cones
    assert saw_empty and saw_rotated
    cone = cone_orthant(2)

    def curve(x):
        return None if x[0] < 0.0 else np.array([x[0], 1.0 / (1.0 + x[0] ** 2) + x[-1]])

    ys = np.array([[0.0, 0.0], [0.5, -0.25], [-1.0, 0.75]])
    grid_fn = SetFunction.from_vector_map(Grid(rng.uniform(-1.0, 3.0, size=(25, 2))), cone, curve)
    box_fn = SetFunction.from_vector_map(Box([-1.0, -1.0], [2.0, 1.0]), cone, curve)
    for f, xs in ((grid_fn, translated_domain(grid_fn.space.points, ys)),
                  (box_fn, rng.uniform(-2.5, 3.0, size=(40, 2)))):
        got = translated_values(f, xs, ys)
        assert_same_values(got, reference_translated_values(f, xs, ys))
        assert any(v.is_empty for v in got) and not all(v.is_empty for v in got)


def test_table_values_at_matches_evaluate_or_empty_row_by_row():
    rng = np.random.default_rng(1206)
    for _ in range(DRAWS):
        inst, _, _ = random_instance(rng)
        points = np.vstack([inst.grid, inst.grid + 1e-11, inst.grid + 1e-6,
                            rng.uniform(-3.0, 3.0, size=(5, 2))])
        got = inst.values_at(points)
        assert len(got) == points.shape[0]
        for x, v in zip(points, got):
            assert v is evaluate_or_empty(inst, x) or (
                v.is_empty and evaluate_or_empty(inst, x).is_empty)
        assert all(v is w for v, w in zip(got, inst.values))
        assert all(v.is_empty for v in got[-5:])


def reference_minimal(values, rivals):
    """The pairwise loop: a value is minimal unless some rival lies below
    it and differs from it."""
    return [not any(order_geq(a, v) and not equals(a, v) for v in rivals) for a in values]


def random_family(rng, cone):
    """Values over one cone with empty values, repeats, and near-repeats
    just above the last value along the cone: equal within the tolerance
    at 1e-13, strictly larger at 1e-6."""
    family = []
    for _ in range(int(rng.integers(2, 9))):
        r = rng.random()
        if r < 0.15:
            family.append(UpperSet.empty(cone))
        elif r < 0.3 and family:
            family.append(UpperSet(cone, family[-1].generators))
        elif r < 0.45 and family:
            shift = rng.choice([1e-13, 1e-6]) * cone.primal[0]
            family.append(UpperSet(cone, family[-1].generators + shift))
        else:
            family.append(random_value(rng, cone, cone.dim))
    return family


def test_lattice_minimal_matches_the_pairwise_reference():
    rng = np.random.default_rng(1207)
    for draws, make_cone in ((200, random_cone_2d), (100, lambda _: cone_orthant(1)),
                             (100, lambda _: cone_orthant(3))):
        saw_repeat = saw_empty = saw_dominated = 0
        for _ in range(draws):
            cone = make_cone(rng)
            family = random_family(rng, cone)
            rivals = family + [random_value(rng, cone, cone.dim)
                               for _ in range(int(rng.integers(0, 3)))]
            got = lattice_minimal(family, rivals)
            assert got == reference_minimal(family, rivals)
            assert lattice_minimal(family, family) == reference_minimal(family, family)
            saw_repeat += any(equals(a, b) and not a.is_empty
                              for i, a in enumerate(family) for b in family[i + 1:])
            saw_empty += any(v.is_empty for v in family)
            saw_dominated += not all(got)
        assert saw_repeat and saw_empty and saw_dominated
        # no rivals, or only empty ones: every value is minimal
        empties = [UpperSet.empty(cone)] * 3
        for rivals in ([], empties):
            assert lattice_minimal(family, rivals) == reference_minimal(family, rivals)
            assert lattice_minimal(family, rivals) == [True] * len(family)
        assert lattice_minimal([], family) == []


def test_order_and_membership_are_the_one_rival_case_of_the_table_kernel():
    rng = np.random.default_rng(1208)
    for make_cone, dim in ((random_cone_2d, 2), (lambda _: cone_orthant(1), 1),
                           (lambda _: cone_orthant(3), 3)):
        for _ in range(60):
            cone = make_cone(rng)
            rivals = [v for v in random_family(rng, cone) if not v.is_empty]
            rivals += [random_value(rng, cone, dim)]
            a = random_value(rng, cone, dim)
            probes = np.vstack([rng.normal(0.0, 3.0, size=(6, dim)), a.minimal_generators(),
                                *(v.generators + 1e-12 for v in rivals)])
            table = _inside(cone, _facet_table(rivals), probes, TOL_GEOM)
            assert table.shape == (len(rivals), probes.shape[0])
            for v, row in zip(rivals, table):
                assert [contains_point(v, q) for q in probes] == row.tolist()
            below = _inside(cone, _facet_table(rivals), a.minimal_generators(), TOL_GEOM)
            assert below.all(axis=1).tolist() == [order_geq(a, v) for v in rivals]
