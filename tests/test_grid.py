import numpy as np
import pytest

from adisplit.grid import (
    Field,
    Grid,
    discrete_inner_product,
    discrete_norm,
    exact_l2_norm,
    exact_l2_norm_squared,
    interpolate,
    max_norm,
    padded_values,
    prolong_to,
    read_field,
    scale_exponent,
    write_field,
)

from oracle import evaluate_field, random_field, zero_field


def trapezoidal_quadrature(u, v):
    """Element-loop form of the discrete inner product (test oracle)."""
    h = u.grid.h
    pu = padded_values(u)
    pv = padded_values(v)
    total = 0.0
    m = u.grid.m
    for i in range(m):
        for j in range(m):
            for di in (0, 1):
                for dj in (0, 1):
                    total += pu[j + dj, i + di] * pv[j + dj, i + di]
    return h * h / 4.0 * total


class TestGrid:
    def test_smallest_legal_grid(self):
        g = Grid(2)
        assert g.h == 0.5
        assert g.interior_count == 1
        assert g.interior_nodes().tolist() == [0.5]

    def test_m16(self):
        g = Grid(16)
        assert g.interior_count == 225
        assert g.h == 0.0625

    def test_reference_resolution(self):
        g = Grid(1024)
        assert g.h == 2.0 ** -10

    def test_node_endpoints(self):
        nodes = Grid(7).nodes()
        assert nodes[0] == 0.0
        assert nodes[-1] == 1.0
        assert abs(Grid(7).h * 7 - 1.0) <= np.finfo(float).eps

    @pytest.mark.parametrize("m", [-1, 0, 1])
    def test_too_small_rejected(self, m):
        with pytest.raises(ValueError):
            Grid(m)

    def test_field_shape_mismatch(self):
        with pytest.raises(ValueError):
            Field(Grid(4), np.zeros((2, 2)))


class TestInnerProductAndNorm:
    def test_single_node_inner_product(self):
        g = Grid(2)
        u = Field(g, np.array([[1.0]]))
        assert discrete_inner_product(u, u) == pytest.approx(g.h ** 2, rel=1e-15)

    def test_zero_field(self):
        g = Grid(8)
        assert discrete_inner_product(zero_field(g), random_field(g)) == 0.0
        assert discrete_norm(zero_field(g)) == 0.0

    def test_matches_element_loop_quadrature(self):
        g = Grid(8)
        u = random_field(g, 1)
        v = random_field(g, 2)
        assert discrete_inner_product(u, v) == pytest.approx(
            trapezoidal_quadrature(u, v), rel=1e-13
        )

    def test_single_node_norm(self):
        g = Grid(2)
        assert discrete_norm(Field(g, np.array([[1.0]]))) == pytest.approx(g.h)

    def test_constant_coefficients_norm(self):
        g = Grid(4)
        u = Field(g, np.ones((3, 3)))
        assert discrete_norm(u) == pytest.approx(0.75, rel=1e-15)

    def test_norm_squared_is_inner_product(self):
        g = Grid(16)
        for seed in range(5):
            u = random_field(g, seed)
            assert discrete_norm(u) ** 2 == pytest.approx(
                discrete_inner_product(u, u), rel=1e-14
            )

    def test_norm_is_scaled_euclidean(self):
        g = Grid(8)
        u = random_field(g, 3)
        assert discrete_norm(u) == g.h * float(np.linalg.norm(u.values))

    @pytest.mark.parametrize("scale", [1e300, 1e-200, 1e-170])
    def test_norm_of_extreme_entries(self, scale):
        # nine equal entries: ||u||_h = h * 3 * scale = 0.75 * scale, which
        # the plain sum of squares overflows or flushes to zero
        u = Field(Grid(4), np.full((3, 3), scale))
        assert discrete_norm(u) == pytest.approx(0.75 * scale, rel=1e-15, abs=0.0)

    def test_extreme_norm_scales_exactly(self):
        u = random_field(Grid(8), 6)
        for e in (1000, -700, -1000):
            assert discrete_norm(u * 2.0 ** e) == np.ldexp(discrete_norm(u), e)

    @pytest.mark.parametrize("scale", [1e300, 1e-200])
    def test_exact_norm_of_extreme_entries(self, scale):
        # nine equal entries whose squares over- or underflow; the norm of
        # the all-ones field scales by `scale`
        g = Grid(4)
        want = scale * exact_l2_norm(Field(g, np.ones((3, 3))))
        got = exact_l2_norm(Field(g, np.full((3, 3), scale)))
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_exact_norm_of_opposite_huge_neighbours(self):
        # 4e300 - 1e300 - ... sums to inf - inf = nan unscaled
        v = np.full((3, 3), 1e300)
        v[1, 1] = -1e300
        got = exact_l2_norm(Field(Grid(4), v))
        assert got == pytest.approx(
            1e300 * exact_l2_norm(Field(Grid(4), v / 1e300)), rel=1e-15)

    def test_exact_norm_scales_exactly(self):
        u = random_field(Grid(8), 6)
        for e in (1000, -700, -1000):
            assert exact_l2_norm(u * 2.0 ** e) == np.ldexp(exact_l2_norm(u), e)

    def test_exact_norm_keeps_its_bits_in_range(self):
        for m in (8, 16, 32):
            u = random_field(Grid(m), m)
            assert exact_l2_norm(u) == float(np.sqrt(exact_l2_norm_squared(u)))

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            discrete_inner_product(zero_field(Grid(4)), zero_field(Grid(8)))

    def test_deterministic(self):
        g = Grid(32)
        u = random_field(g, 4)
        v = random_field(g, 5)
        assert discrete_inner_product(u, v) == discrete_inner_product(u, v)


class TestInterpolate:
    def test_zero(self):
        u = interpolate(lambda x, y: 0.0 * x, Grid(8))
        assert np.all(u.values == 0.0)

    def test_nodal_samples(self):
        g = Grid(16)
        u = interpolate(
            lambda x, y: np.sin(3 * np.pi * x) * np.cos(2 * np.pi * y), g
        )
        xi = g.interior_nodes()
        assert u.values[2, 5] == pytest.approx(
            np.sin(3 * np.pi * xi[5]) * np.cos(2 * np.pi * xi[2])
        )

    @pytest.mark.parametrize("g", [
        lambda x, y: np.sin(3 * np.pi * x) * np.cos(2 * np.pi * y),
        lambda x, y: np.sin(np.pi * x) * np.sin(2 * np.pi * y),
        lambda x, y: np.exp(x) * y + x * y ** 2,
        lambda x, y: np.sin(x),
        lambda x, y: 2.5,
        lambda x, y: np.sin(x * y),
    ], ids=["eta0", "sine-mode", "polynomial", "x-only", "scalar", "non-separable"])
    @pytest.mark.parametrize("m", [3, 8, 23, 91, 256, 512])
    def test_open_mesh_gives_the_full_mesh_bits(self, g, m):
        grid = Grid(m)
        xi = grid.interior_nodes()
        X, Y = np.meshgrid(xi, xi, indexing="xy")
        full = np.broadcast_to(np.asarray(g(X, Y), dtype=float), X.shape)
        assert np.array_equal(interpolate(g, grid).values, full)

    def test_g_gets_an_open_mesh(self):
        shapes = []

        def g(x, y):
            shapes.append((x.shape, y.shape))
            return x - y

        u = interpolate(g, Grid(5))
        assert shapes == [((1, 4), (4, 1))]
        xi = Grid(5).interior_nodes()
        assert u.values[3, 1] == xi[1] - xi[3]

    def test_reproduces_fe_functions(self):
        g = Grid(8)
        u = random_field(g, 6)
        v = interpolate(
            np.vectorize(lambda x, y: evaluate_field(u, x, y)), g
        )
        assert np.array_equal(v.values, u.values)


class TestEvaluateField:
    def test_value_at_nodes(self):
        g = Grid(8)
        u = random_field(g, 7)
        xi = g.interior_nodes()
        assert evaluate_field(u, xi[3], xi[5]) == pytest.approx(
            u.values[5, 3], rel=1e-15
        )

    def test_single_node_hat(self):
        u = Field(Grid(2), np.array([[1.0]]))
        assert evaluate_field(u, 0.25, 0.25) == pytest.approx(0.25)

    def test_boundary_is_zero(self):
        u = random_field(Grid(4), 8)
        assert evaluate_field(u, 0.0, 0.37) == 0.0
        assert evaluate_field(u, 1.0, 0.5) == 0.0

    def test_midline_average(self):
        g = Grid(4)
        u = random_field(g, 9)
        h = g.h
        left = evaluate_field(u, h, 1.5 * h)
        right = evaluate_field(u, 2 * h, 1.5 * h)
        assert evaluate_field(u, 1.5 * h, 1.5 * h) == pytest.approx(
            0.5 * (left + right), rel=1e-13
        )

    def test_outside_raises(self):
        u = zero_field(Grid(4))
        with pytest.raises(ValueError):
            evaluate_field(u, 1.1, 0.5)
        with pytest.raises(ValueError):
            evaluate_field(u, 0.5, -0.01)


class TestProlong:
    def test_identity_on_same_grid(self):
        g = Grid(8)
        u = random_field(g, 10)
        assert np.array_equal(prolong_to(u, g).values, u.values)

    def test_zero(self):
        v = prolong_to(zero_field(Grid(4)), Grid(16))
        assert np.all(v.values == 0.0)

    def test_hat_refinement_pattern(self):
        u = Field(Grid(2), np.array([[1.0]]))
        v = prolong_to(u, Grid(4))
        hat = np.array([0.5, 1.0, 0.5])
        assert np.allclose(v.values, np.outer(hat, hat), atol=1e-15)

    def test_non_nested_grids(self):
        # evaluation is exact, so prolongation between unrelated meshes
        # agrees with pointwise evaluation
        u = random_field(Grid(23), 11)
        fine = Grid(45)
        v = prolong_to(u, fine)
        xi = fine.interior_nodes()
        assert v.values[4, 7] == pytest.approx(
            evaluate_field(u, xi[7], xi[4]), rel=1e-13
        )

    @pytest.mark.parametrize("coarse, fine", [(6, 9), (16, 256), (512, 256),
                                              (23, 256), (45, 1024), (2, 7)])
    def test_matches_pointwise_evaluation(self, coarse, fine):
        # 6 -> 9 puts x = 1/3 and 2/3 on coarse element boundaries, nested
        # pairs put many nodes there; the tie rule picks the element
        u = random_field(Grid(coarse), 12)
        v = prolong_to(u, Grid(fine))
        xi = Grid(fine).interior_nodes()
        ties = np.flatnonzero(np.ceil(xi * coarse) == xi * coarse)[:6]
        picks = sorted(set(ties) | {0, fine // 3, fine - 2})
        for j in picks:
            for i in picks:
                assert v.values[j, i] == pytest.approx(
                    evaluate_field(u, xi[i], xi[j]), rel=1e-13, abs=1e-15)


class TestFieldIO:
    def test_roundtrip(self, tmp_path):
        u = random_field(Grid(5), 12)
        path = tmp_path / "field.txt"
        write_field(path, u)
        v = read_field(path)
        assert v.grid == u.grid
        assert np.array_equal(v.values, u.values)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4\n1.0\n2.0\n")
        with pytest.raises(ValueError):
            read_field(path)

    def test_bytes_match_the_per_value_format(self, tmp_path):
        # the text format written one value at a time with f"{v:.17g}"
        g = Grid(16)
        rng = np.random.default_rng(13)
        vals = rng.standard_normal((g.n, g.n)) * 10.0 ** rng.integers(-300, 300, (g.n, g.n))
        vals.flat[:6] = [-0.0, 0.0, 5e-324, -1.7976931348623157e308, 1.0 / 3.0, 1e16]
        u = Field(g, vals)
        path = tmp_path / "field.txt"
        write_field(path, u)
        want = f"{g.m}\n" + "".join(f"{v:.17g}\n" for v in vals.ravel())
        assert path.read_bytes() == want.encode()
        assert read_field(path).values.tobytes() == vals.tobytes()

    @pytest.mark.parametrize("content", ["3\n", "3\n\n\n", "3\n1 2\n3 4\n",
                                         "3\n1\n2\n3\n#4\n", "3\n1\n2\n3\nx\n"])
    def test_malformed_values_rejected(self, tmp_path, content):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(ValueError):
            read_field(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "field.txt"
        path.write_text("3\n1\n\n2\n3\n  \n4\n")
        assert np.array_equal(read_field(path).values, [[1.0, 2.0], [3.0, 4.0]])


def test_max_norm_is_nodal_max():
    u = Field(Grid(4), np.array([[1.0, -3.5, 2.0]] * 3))
    assert max_norm(u) == 3.5


@pytest.mark.parametrize("values, e", [
    ([0.0, -0.0], 0),
    ([0.75, -0.5], 0),
    ([1.0, 0.25], 1),
    ([-3.0, 2.0], 2),
    ([np.finfo(float).max], 1024),
    ([5e-324, 0.0], -1073),
])
def test_scale_exponent_brings_the_largest_magnitude_into_one_half_to_one(
        values, e):
    v = np.array(values)
    assert scale_exponent(v) == e
    if np.any(v):
        assert 0.5 <= np.max(np.abs(np.ldexp(v, -e))) < 1.0
