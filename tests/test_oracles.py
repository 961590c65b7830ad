import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setmeet import (
    Ball,
    Box,
    DimensionMismatch,
    GeometryError,
    L1Ball,
    ProjectionUnsupported,
    Simplex,
    VPolytope,
    support_gap,
)
from setmeet.cbcg import ConvexCombination
from setmeet.feasibility import FeasibilityProgram
from setmeet.oracles import DEDUP_TOL, VertexSet, distinct_rows, euclidean_norm
from helpers import (
    VstackStore, brute_diameter, brute_distinct_rows, brute_support_gap, brute_vertex_argmin,
    support_min,
)

ALL_GEOMETRIES = [
    Box([0.0, -1.0], [1.5, 2.0]),
    Ball([0.5, -0.5], 1.25),
    Simplex(3, 2.0),
    L1Ball([1.0, 0.0, -1.0], 0.75),
    VPolytope([[0, 0], [2, 0], [0, 2], [1, 1.5]]),
]


class TestLmo:
    def test_box_corner(self):
        box = Box([0, 0], [1, 1])
        assert np.array_equal(box.lmo([1.0, -1.0]), [0.0, 1.0])

    def test_ball_analytic(self):
        ball = Ball([0, 0], 3.0)
        c = np.array([1.0, 1.0])
        expected = -3.0 * c / np.linalg.norm(c)
        assert np.allclose(ball.lmo(c), expected, atol=1e-15)

    def test_ball_direction_whose_square_norm_overflows_or_underflows(self):
        ball = Ball([0.0, 0.0], 1.0)
        half = math.sqrt(0.5)
        with np.errstate(over="ignore"):
            assert np.allclose(ball.lmo([1e200, 1e200]), [-half, -half], atol=1e-15)
            # Overlapping balls: no direction may claim a separation.
            assert support_gap(ball, Ball([1.5, 0.0], 1.0), [-1e200, 0.0]) < 0.0
        assert np.allclose(ball.lmo([1e-170, -1e-170]), [-half, half], atol=1e-15)
        assert np.array_equal(ball.lmo([5e-324, 0.0]), [-1.0, 0.0])
        assert np.array_equal(ball.lmo([-0.0, 0.0]), [-1.0, 0.0])  # the all-way tie

    def test_ball_direction_at_extreme_scale_warns_nothing(self):
        ball = Ball([0.0, 0.0], 1.0)
        half = math.sqrt(0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.allclose(ball.lmo([1e200, 1e200]), [-half, -half], atol=1e-15)
            assert np.allclose(ball.lmo([1e-170, -1e-170]), [-half, half], atol=1e-15)

    def test_euclidean_norm_is_numpys_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 7, 33, 257):
            for _ in range(50):
                a = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-150, 150)
                for x in (a.ravel(), a[:, 1], a[::-1, 0], a.ravel()[::-2]):
                    assert euclidean_norm(x) == float(np.linalg.norm(x))

    def test_nonfinite_objective_minimum_is_a_geometry_error(self):
        with np.errstate(over="ignore"):
            with pytest.raises(GeometryError, match="non-finite minimum"):
                VPolytope([[1e308, 0.0], [-1e308, 0.0]]).lmo([10.0, 0.0])
            with pytest.raises(GeometryError, match="non-finite minimum"):
                Simplex(2, 1e308).lmo([-10.0, 1.0])

    def test_vpolytope_brute(self):
        vertices = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        poly = VPolytope(vertices)
        c = np.array([1.0, 1.0])
        idx = brute_vertex_argmin(vertices, c)
        assert np.array_equal(poly.lmo(c), vertices[idx])
        assert np.array_equal(poly.lmo(c), [0.0, 0.0])

    def test_box_zero_direction_tie_break(self):
        assert np.array_equal(Box([0, 0], [1, 1]).lmo([0.0, 0.0]), [0.0, 0.0])

    def test_simplex_tie_break_lowest_index(self):
        assert np.array_equal(Simplex(3, 1.0).lmo([2.0, 2.0, 2.0]), [1.0, 0.0, 0.0])

    def test_l1ball_picks_max_coordinate(self):
        ball = L1Ball([0.0, 0.0], 2.0)
        assert np.array_equal(ball.lmo([1.0, -3.0]), [0.0, 2.0])
        assert np.array_equal(ball.lmo([3.0, -1.0]), [-2.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Box([0, 0], [1, 1]).lmo([1.0, 2.0, 3.0])

    def test_nan_direction_rejected(self):
        with pytest.raises(GeometryError):
            Ball([0, 0], 1.0).lmo([np.nan, 0.0])

    @pytest.mark.parametrize("geom", ALL_GEOMETRIES, ids=lambda g: type(g).__name__)
    def test_optimality_against_sampled_points(self, geom):
        rng = np.random.default_rng(7)
        points = np.array([geom.sample(rng) for _ in range(100)])
        for _ in range(1000):
            c = rng.normal(size=geom.dim)
            best = float(np.dot(c, geom.lmo(c)))
            assert best <= (points @ c).min() + 1e-9

    def test_vpolytope_matches_brute_force_indices(self):
        rng = np.random.default_rng(11)
        vertices = rng.normal(size=(9, 3))
        poly = VPolytope(vertices)
        for _ in range(1000):
            c = rng.normal(size=3)
            idx = brute_vertex_argmin(poly.vertices, c)
            assert np.array_equal(poly.lmo(c), poly.vertices[idx])

    @pytest.mark.parametrize("geom", ALL_GEOMETRIES, ids=lambda g: type(g).__name__)
    def test_matches_analytic_support_minimum(self, geom):
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = rng.normal(size=geom.dim)
            assert float(np.dot(c, geom.lmo(c))) == pytest.approx(
                support_min(geom, c), abs=1e-9
            )


class TestProject:
    def test_ball_radial(self):
        assert np.allclose(Ball([0, 0], 1.0).project([3.0, 0.0]), [1.0, 0.0])

    def test_box_interior_fixed(self):
        assert np.array_equal(Box([0, 0], [1, 1]).project([0.5, 0.5]), [0.5, 0.5])

    def test_simplex_vertex(self):
        assert np.allclose(Simplex(3, 1.0).project([2.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_simplex_against_grid(self):
        # Dense grid over {x >= 0, sum(x) = 1} in R^3 at resolution 1e-3.
        simplex = Simplex(3, 1.0)
        step = 1e-3
        a = np.arange(0.0, 1.0 + step / 2, step)
        xx, yy = np.meshgrid(a, a, indexing="ij")
        zz = 1.0 - xx - yy
        mask = zz >= -1e-12
        grid = np.stack([xx[mask], yy[mask], np.maximum(zz[mask], 0.0)], axis=1)
        rng = np.random.default_rng(5)
        for _ in range(5):
            z = rng.uniform(-1.0, 2.0, size=3)
            p = simplex.project(z)
            grid_best = np.sqrt(((grid - z) ** 2).sum(axis=1).min())
            assert np.linalg.norm(p - z) <= grid_best + 1e-6
            assert simplex.contains(p, tol=1e-12)

    @pytest.mark.parametrize("geom", ALL_GEOMETRIES[:3], ids=lambda g: type(g).__name__)
    def test_idempotent(self, geom):
        rng = np.random.default_rng(9)
        for _ in range(50):
            z = rng.uniform(-3.0, 3.0, size=geom.dim)
            once = geom.project(z)
            assert np.linalg.norm(geom.project(once) - once) <= 1e-12

    def test_unsupported_geometries(self):
        with pytest.raises(ProjectionUnsupported):
            VPolytope([[0, 0], [1, 0]]).project([0.5, 0.5])
        with pytest.raises(ProjectionUnsupported):
            L1Ball([0, 0], 1.0).project([0.5, 0.5])

    @pytest.mark.parametrize("geom", ALL_GEOMETRIES[:3], ids=lambda g: type(g).__name__)
    def test_projection_inequality(self, geom):
        # ||x-y||^2 >= ||Px-Py||^2 + ||x-Px-y+Py||^2 for any x, y.
        rng = np.random.default_rng(13)
        for _ in range(200):
            x = rng.uniform(-4.0, 4.0, size=geom.dim)
            y = rng.uniform(-4.0, 4.0, size=geom.dim)
            px, py = geom.project(x), geom.project(y)
            lhs = np.dot(x - y, x - y)
            rhs = np.dot(px - py, px - py) + np.dot(x - px - y + py, x - px - y + py)
            assert lhs >= rhs - 1e-9


class TestDiameter:
    def test_box(self):
        assert Box([0, 0], [1, 1]).diameter() == pytest.approx(math.sqrt(2))

    def test_ball(self):
        assert Ball([1, 2], 3.0).diameter() == 6.0

    def test_simplex(self):
        assert Simplex(3, 2.0).diameter() == pytest.approx(2.0 * math.sqrt(2))
        assert Simplex(1, 2.0).diameter() == 0.0

    def test_l1ball(self):
        assert L1Ball([0, 0, 0], 1.5).diameter() == 3.0

    def test_vpolytope_pairwise_brute(self):
        vertices = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        brute = max(
            np.linalg.norm(a - b) for a in vertices for b in vertices
        )
        assert VPolytope(vertices).diameter() == pytest.approx(brute)
        assert brute == pytest.approx(2 * math.sqrt(2))

    def test_vpolytope_matches_the_pairwise_scan_bitwise(self):
        rng = np.random.default_rng(31)
        clouds = []
        for scale in 10.0 ** np.arange(-200, 201, 25):
            for offset in (0.0, 1.0, 1e3, 1e8):
                for m, d in ((1, 3), (2, 2), (17, 5), (60, 12), (150, 30)):
                    clouds.append((rng.normal(size=(m, d)) + offset) * scale)
                # Exact ties: every diagonal of a cube, every pair of a cross;
                # and ties up to rounding: antipodal points on a sphere.
                for d in (2, 5, 8):
                    cube = np.array(np.meshgrid(*[[0.0, 1.0]] * d)).reshape(d, -1).T
                    cross = np.vstack([np.eye(d), -np.eye(d)])
                    half = rng.normal(size=(40, d))
                    half /= np.linalg.norm(half, axis=1)[:, None]
                    sphere = np.vstack([half, -half])
                    clouds += [(cube + offset) * scale, (cross + offset) * scale,
                               (sphere + offset) * scale]
        # A coordinate range beyond the largest float: v_i - v_j overflows.
        clouds.append(np.array([[1e308, 0.0], [0.0, 1.0], [-1e308, 2.0]]))
        # More than 724 vertices, so the screen runs in several blocks of rows.
        clouds += [rng.normal(size=(1200, 3)) * scale for scale in (1e-150, 1.0, 1e150)]
        # The farthest pair, rows 10 and 1100, in the first and the last block.
        far = rng.uniform(-1.0, 1.0, size=(1200, 3))
        far[10], far[1100] = [50.0, 1.0, 0.0], [-50.0, 0.0, 1.0]
        clouds.append(far)
        # Antipodal points: ties up to rounding between rows k and k + 500.
        half = rng.normal(size=(500, 3))
        half /= np.linalg.norm(half, axis=1)[:, None]
        clouds.append(np.vstack([half, -half]))
        # Every pair of eye(m) tied, in more chunks of the recheck than one; a
        # cross-polytope's antipodal pairs tied in a dimension of 100.
        clouds += [np.eye(m) for m in (60, 150)]
        clouds.append(np.vstack([np.eye(100), -np.eye(100)]) * 3.0)
        for i, pts in enumerate(clouds):
            with np.errstate(over="ignore"):  # squares overflow from about 1e155 up
                poly = VPolytope(pts)
                got, expected = poly.diameter(), brute_diameter(poly.vertices)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes(), i

    def test_screen_holds_where_the_scan_underflows_or_overflows(self):
        # Vertex arrays taken as given, closer than DEDUP_TOL included: the
        # scan's squares go subnormal near 1e-160 and overflow near 1e160.
        rng = np.random.default_rng(32)
        exponents = list(range(-175, -150, 3)) + [-320, -318, -300, -10, 0, 150, 155, 160, 300, 307]
        for exponent in exponents:
            for offset in (0.0, 1.0, 1e8):
                half = rng.normal(size=(30, 4))
                half /= np.linalg.norm(half, axis=1)[:, None]
                for m, d in ((1, 2), (3, 1), (40, 7), (90, 30), (60, 4)):
                    cloud = np.vstack([half, -half]) if m == 60 else rng.normal(size=(m, d))
                    with np.errstate(over="ignore"):
                        pts = (cloud + offset) * 10.0 ** exponent
                        if not np.all(np.isfinite(pts)):
                            continue
                        poly = VPolytope(pts[:1])
                        object.__setattr__(poly, "vertices", pts)
                        got, expected = poly.diameter(), brute_diameter(pts)
                    assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (
                        exponent, offset, m, d)
        # Several blocks of rows where the scan's squares go subnormal.
        pts = rng.normal(size=(800, 2)) * 1e-160
        poly = VPolytope(pts[:1])
        object.__setattr__(poly, "vertices", pts)
        got, expected = poly.diameter(), brute_diameter(pts)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_vpolytope_diameter_builds_no_difference_tensor(self):
        # The full difference tensor at (300, 30) peaks at 44 MB.
        poly = VPolytope(np.random.default_rng(0).normal(size=(300, 30)))
        tracemalloc.start()
        try:
            poly.diameter()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("shape, question", [
        ((6000, 3), "distinct_rows"), ((2000, 50), "distinct_rows"),
        ((6000, 3), "diameter"), ((2000, 50), "diameter"), ("eye200", "diameter"),
    ], ids=["6000x3", "2000x50", "6000x3-diameter", "2000x50-diameter", "eye200-diameter"])
    def test_dedup_memory_is_blockwise(self, shape, question):
        # A full n x n Gram at (6000, 3) alone would take 275 MiB; the diameter
        # runs on the dedup's blockwise screen.  Every pair of eye(200) ties, so
        # all 39800 of them are candidates, 122 MiB of differences if rechecked at once.
        points = (np.eye(200) if shape == "eye200"
                  else np.random.default_rng(0).normal(size=shape))
        poly = VPolytope(points)
        tracemalloc.start()
        try:
            poly.diameter() if question == "diameter" else distinct_rows(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("geom", ALL_GEOMETRIES, ids=lambda g: type(g).__name__)
    def test_dominates_lmo_spread(self, geom):
        rng = np.random.default_rng(17)
        diam = geom.diameter()
        for _ in range(200):
            c = rng.normal(size=geom.dim)
            spread = np.linalg.norm(geom.lmo(c) - geom.lmo(-c))
            assert spread <= diam + 1e-9


class TestSupportGap:
    def test_separated_segments(self):
        p = VPolytope([[0, 0], [0, 1]])
        q = VPolytope([[2, 0], [2, 1]])
        g = np.array([-2.0, 0.0])
        brute = min(
            np.dot(g, a - b) for a in p.vertices for b in q.vertices
        )
        assert support_gap(p, q, g) == pytest.approx(brute)
        assert support_gap(p, q, g) == pytest.approx(4.0)

    def test_identical_sets_nonpositive(self):
        box = Box([0, 0], [1, 1])
        rng = np.random.default_rng(23)
        for _ in range(50):
            g = rng.normal(size=2)
            assert support_gap(box, box, g) <= 1e-12

    def test_separated_balls(self):
        p = Ball([0, 0], 1.0)
        q = Ball([3, 0], 1.0)
        assert support_gap(p, q, [-1.0, 0.0]) == pytest.approx(1.0)

    def test_lower_bounds_sampled_pairs(self):
        rng = np.random.default_rng(29)
        p = VPolytope([[0, 0], [2, 0], [0, 2]])
        q = Ball([3, 1], 0.5)
        for _ in range(100):
            g = rng.normal(size=2)
            gap = support_gap(p, q, g)
            for _ in range(20):
                x, y = p.sample(rng), q.sample(rng)
                assert gap <= np.dot(g, x - y) + 1e-9

    def test_matches_brute_everywhere(self):
        rng = np.random.default_rng(31)
        p = L1Ball([0.0, 1.0], 1.5)
        q = Box([2.0, -1.0], [4.0, 0.5])
        for _ in range(300):
            g = rng.normal(size=2)
            assert support_gap(p, q, g) == pytest.approx(
                brute_support_gap(p, q, g), abs=1e-9
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            support_gap(Box([0], [1]), Box([0, 0], [1, 1]), [1.0])


class TestConstruction:
    def test_box_bounds_validated(self):
        with pytest.raises(GeometryError):
            Box([1, 0], [0, 1])

    def test_ball_radius_validated(self):
        with pytest.raises(GeometryError):
            Ball([0, 0], -1.0)

    @pytest.mark.parametrize("dimension", [2.7, 3.0, True, np.bool_(True), "3", None])
    def test_simplex_dimension_must_be_an_integer(self, dimension):
        with pytest.raises(GeometryError, match="dimension"):
            Simplex(dimension)

    @pytest.mark.parametrize("dimension", [3, np.int64(3), np.int32(3), np.uint8(3)])
    def test_simplex_accepts_numpy_integers(self, dimension):
        simplex = Simplex(dimension)
        assert simplex.dim == 3 and type(simplex.dim) is int

    def test_simplex_dimension_at_least_one(self):
        with pytest.raises(GeometryError, match="dimension"):
            Simplex(0)

    @pytest.mark.parametrize("make", [
        lambda: Box([], []),
        lambda: Ball([], 1.0),
        lambda: L1Ball([], 1.0),
        lambda: VPolytope(np.zeros((2, 0))),
    ], ids=["Box", "Ball", "L1Ball", "VPolytope"])
    def test_zero_dimension_rejected(self, make):
        with pytest.raises(GeometryError, match="dimension must be >= 1"):
            make()

    def test_vertices_deduplicated(self):
        poly = VPolytope([[0, 0], [0, 0], [1e-12, 0], [1, 1]])
        assert poly.vertices.shape == (2, 2)

    def test_nonfinite_rejected(self):
        with pytest.raises(GeometryError):
            VPolytope([[0, np.inf]])
        with pytest.raises(GeometryError):
            Ball([np.nan, 0.0], 1.0)

    def test_immutability(self):
        box = Box([0, 0], [1, 1])
        with pytest.raises(ValueError):
            box.lower[0] = 5.0


class TestContains:
    @pytest.mark.parametrize("tol, inside", [(1e-3, True), (1e-5, True), (None, False),
                                             (1e-9, False)])
    def test_vpolytope_honours_tol(self, tol, inside):
        # The point lies 1e-6 below the triangle's bottom edge.
        tri = VPolytope([[0, 0], [2, 0], [0, 2]])
        point = [1.0, -1e-6]
        got = tri.contains(point) if tol is None else tri.contains(point, tol=tol)
        assert got is inside


def _dedup_clouds():
    """Point lists around the DEDUP_TOL boundary, at every scale."""
    rng = np.random.default_rng(20)
    clouds = [np.array([[0, 0], [0, 0], [1e-12, 0], [1, 1]], dtype=float)]
    # Pairs planted ulps either side of DEDUP_TOL: along an axis from the
    # origin, along a random direction, and from a random base point.
    for k in range(-8, 9):
        r = DEDUP_TOL * (1 + k * 2.0 ** -52)
        for _ in range(40):
            d = int(rng.integers(1, 12))
            u = rng.normal(size=d)
            u /= np.linalg.norm(u)
            axis = np.eye(d)[int(rng.integers(d))]
            base = rng.uniform(-1e-8, 1e-8, size=d)
            clouds.append(np.array([np.zeros(d), r * axis, np.zeros(d), base, base + r * u, r * u]))
    # Random clouds with near-duplicates within a few DEDUP_TOL, at scales up
    # to where squared distances between distinct points overflow.
    for scale in (1e-3, 1.0, 1e100, 1e154, 1e155, 1e200):
        for _ in range(40):
            n, d = int(rng.integers(1, 30)), int(rng.integers(1, 9))
            pts = rng.normal(size=(n, d)) * scale
            idx = rng.integers(0, n, size=n)
            near = pts[idx] + rng.normal(size=(n, d)) * DEDUP_TOL * rng.uniform(0, 1.5, size=(n, 1))
            cloud = np.vstack([pts, near, pts[idx[: n // 3]]])
            clouds.append(cloud[rng.permutation(len(cloud))])
    return clouds


def _assert_dedup_is_the_scalar_loop(pts, label):
    """Every dedup path keeps the rows the scalar loop keeps, bit for bit."""
    expected, flags = brute_distinct_rows(pts)
    kept = VertexSet(pts[:1])
    assert [True] + [kept.add(row) for row in pts[1:]] == flags, label
    for got in (
        kept.rows,
        distinct_rows(pts),
        VPolytope(pts).vertices,
        FeasibilityProgram(pts, pts[:1]).u_points,
    ):
        assert got.shape == expected.shape, label
        assert got.tobytes() == expected.tobytes(), label


def test_one_dedup_rule_matches_the_scalar_loop():
    for i, pts in enumerate(_dedup_clouds()):
        with np.errstate(over="ignore"):  # squared distances overflow at 1e155 and up
            _assert_dedup_is_the_scalar_loop(pts, i)


@settings(max_examples=300)
@given(
    st.integers(-40, 60),  # the cloud sits about 2**k from the origin
    st.integers(-90, 0),  # its base points spread over 2**(k + spread)
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
def test_dedup_screen_keeps_every_duplicate_at_every_scale(k, spread, d, seed):
    # Past k = 22 a coordinate's ulp exceeds DEDUP_TOL, and near the top of
    # the range the Gram screen's rounding dwarfs DEDUP_TOL**2 (scaled).
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    base = np.ldexp(rng.normal(size=d), k) + np.ldexp(rng.normal(size=(n, d)), k + spread)
    unit = rng.normal(size=(2 * n, d))
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    # Partners planted ulps either side of DEDUP_TOL, and near-duplicates
    # at 0 to 2 DEDUP_TOL from a random base point.
    planted = base + DEDUP_TOL * (1 + rng.integers(-8, 9, size=(n, 1)) * 2.0 ** -52) * unit[:n]
    near = base[rng.integers(0, n, size=n)] + DEDUP_TOL * rng.uniform(0, 2, size=(n, 1)) * unit[n:]
    pts = np.vstack([base, planted, near])[rng.permutation(3 * n)]
    _assert_dedup_is_the_scalar_loop(pts, (k, spread, d, seed))
    # The diameter's screen shares the dedup's slack.
    poly = VPolytope(pts)
    got, expected = poly.diameter(), brute_diameter(poly.vertices)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStoreViews:
    """``rows`` and ``weights`` are views of buffers that double when full."""

    @staticmethod
    def offers(rng, count):
        # Mostly new points, some within DEDUP_TOL of a kept one, some just past it.
        points = [rng.normal(size=3)]
        for k in range(1, count):
            if k % 7 == 0:
                shift = rng.normal(size=3)
                scale = 0.5 * DEDUP_TOL if k % 14 == 0 else 2.0 * DEDUP_TOL
                points.append(points[int(rng.integers(k))] + scale * shift / np.linalg.norm(shift))
            else:
                points.append(rng.normal(size=3))
        return points

    @pytest.mark.parametrize("make", [lambda p: VertexSet(p[None]), ConvexCombination],
                             ids=["VertexSet", "ConvexCombination"])
    def test_taken_rows_survive_growth(self, make):
        offers = self.offers(np.random.default_rng(5), 360)
        store, ref = make(offers[0]), VstackStore(offers[0])
        taken = []
        for k, v in enumerate(offers[1:]):
            taken.append((store.rows, store.rows.copy()))
            if k % 2:
                assert store.add(v) == ref.add(v)
            else:
                assert store.index(v) == ref.index(v)
            assert same_bits(store.rows, ref.rows)
        assert len(store.rows) > 300  # several doublings past the first row
        assert all(same_bits(view, copy) for view, copy in taken)

    def test_combination_weights_and_programs_match_the_reference(self):
        offers = self.offers(np.random.default_rng(6), 360)
        store, ref = ConvexCombination(offers[0]), VstackStore(offers[0])
        program = None
        for k, v in enumerate(offers[1:]):
            weights, before = store.weights, store.weights.copy()
            assert store.add(v) == ref.add(v)
            assert same_bits(weights, before)  # growth leaves a taken weights alone
            store.step(offers[k // 2], 2.0 / (k + 3))
            ref.step(offers[k // 2], 2.0 / (k + 3))
            assert same_bits(store.weights, ref.weights)
            assert same_bits(store.combination(), ref.combination())
            if k == 4:
                program = FeasibilityProgram(store.rows, -store.rows)
                u_points = program.u_points.copy()
        assert len(store.rows) > 300
        assert same_bits(program.u_points, u_points)
