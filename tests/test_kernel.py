import numpy as np
import pytest
from scipy.integrate import quad
from scipy.signal import convolve2d

from crowdflow import (ConfigurationError, KernelSpec, bump_kernel, convolve,
                       convolve_gradient, make_grid, preset, sample_kernel)
from crowdflow.grid import live_box

AXIS_MASS = 16.0 / 35.0  # integral of (1 - (2x)^2)^3 over [-1/2, 1/2]


def brute_force(field, spec, grid):
    """Independent double-sum convolution from the continuous profile."""
    xs = grid.xc
    ys = grid.yc
    kx = spec.fx(xs[:, None] - xs[None, :])
    ky = spec.fy(ys[:, None] - ys[None, :])
    return np.einsum("ih,hl,jl->ij", kx, field, ky) * grid.cell_area


def dense_axis_matrices(profile, deriv, n, h, half_width):
    """The profile evaluated on the full (n, n) grid of cell-center offsets."""
    idx = np.arange(n)
    off = (idx[:, None] - idx[None, :]) * h
    inside = np.abs(off) <= half_width + 1e-12 * half_width
    band = int(np.ceil(half_width / h))
    ks = np.arange(-band, band + 1) * h
    mass1d = float(np.sum(np.where(np.abs(ks) <= half_width + 1e-12 * half_width,
                                   profile(ks), 0.0)) * h)
    return (np.where(inside, profile(off), 0.0) * h,
            np.where(inside, deriv(off), 0.0) * h, mass1d)


def dense_sampled(spec, grid):
    """(A, Ax, B, By, mass) of sample_kernel, built from n x n offsets."""
    A, Ax, mx = dense_axis_matrices(spec.fx, spec.dfx, grid.nx, grid.dx,
                                    spec.half_width_x)
    Bt, Byt, my = dense_axis_matrices(spec.fy, spec.dfy, grid.ny, grid.dy,
                                      spec.half_width_y)
    B, By = Bt.T, Byt.T
    if spec.normalize:
        return A / mx, Ax / mx, B / my, By / my, 1.0
    return A, Ax, B, By, mx * my


def block_slices(n, band):
    """(rows, columns) of each stored block of a banded (n, n) matrix:
    32 rows at a time, and the columns within band of those rows."""
    return [(slice(i0, min(i0 + 32, n)),
             slice(max(0, i0 - band), min(n, i0 + 32 + band)))
            for i0 in range(0, n, 32)]


def stored_blocks(k):
    """(stored blocks, dense reference, bandwidth) of the kernel's four
    matrices; the y-axis blocks are those of the transposes."""
    A, Ax, B, By, _ = dense_sampled(k.spec, k.grid)
    return ((k.A_blocks, A, k.bandwidth_x), (k.Ax_blocks, Ax, k.bandwidth_x),
            (k.Bt_blocks, B.T, k.bandwidth_y),
            (k.Byt_blocks, By.T, k.bandwidth_y))


# neither even nor zero at the edge of its support, so the orientation of
# the sampled matrices and the outermost diagonals of the band both count
def _lopsided(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= 0.5, 1.0 + x, 0.0)


def _lopsided_deriv(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= 0.5, 1.0, 0.0)


LOPSIDED = KernelSpec(fx=_lopsided, dfx=_lopsided_deriv, fy=_lopsided,
                      dfy=_lopsided_deriv, half_width_x=0.5, half_width_y=0.5)

# (bounds, mesh, kernel): one block, n not a multiple of 32, a band wider
# than a block, nx != ny
BANDED_CASES = {
    "one-block-16x16": ((0.0, 0.0, 1.0, 1.0), 1.0 / 16.0, bump_kernel(0.25)),
    "ragged-75x50": ((0.0, 0.0, 1.5, 1.0), 0.02, bump_kernel(0.25)),
    "wide-band-256x256": ((0.0, 0.0, 1.0, 1.0), 1.0 / 256.0,
                          bump_kernel(0.25)),
    "rect-160x80": ((-8.0, -4.0, 8.0, 4.0), 0.1, bump_kernel(0.5)),
    "lopsided-160x80": ((-8.0, -4.0, 8.0, 4.0), 0.1, LOPSIDED),
    "lopsided-wide-band-150x100": ((0.0, 0.0, 1.5, 1.0), 0.01, LOPSIDED),
}
SAMPLING_CASES = {
    **BANDED_CASES,
    "crossing-640x320": ((-8.0, -4.0, 8.0, 4.0), 0.025, bump_kernel(0.5)),
    "normalized-640x320": ((-8.0, -4.0, 8.0, 4.0), 0.025,
                           bump_kernel(0.5, normalize=True)),
    "crossing-1280x640": ((-8.0, -4.0, 8.0, 4.0), 0.0125, bump_kernel(0.5)),
}


class TestKernelSpec:
    def test_center_value_one(self):
        spec = bump_kernel(0.5)
        assert spec.fx(0.0) * spec.fy(0.0) == pytest.approx(1.0)

    def test_zero_outside_support(self):
        spec = bump_kernel(0.5)
        assert spec.fx(0.51) * spec.fy(0.0) == 0.0
        assert spec.fx(0.0) * spec.fy(-0.6) == 0.0
        assert spec.fx(0.7) * spec.fy(0.7) == 0.0

    def test_axis_mass_quadrature(self):
        # the analytic 1D mass of the bump profile
        val, _ = quad(lambda x: (1 - (2 * x) ** 2) ** 3, -0.5, 0.5)
        assert val == pytest.approx(AXIS_MASS, rel=1e-12)

    def test_vanishes_with_derivative_at_support_edge(self):
        spec = bump_kernel(0.5)
        assert spec.fx(np.array([0.5]))[0] == 0.0
        assert spec.dfx(np.array([0.5]))[0] == 0.0


class TestSampleKernel:
    def test_discrete_mass_converges(self):
        g = make_grid((-2.0, -2.0, 2.0, 2.0), 0.025, 0.025)
        k = sample_kernel(bump_kernel(0.5), g)
        assert k.mass == pytest.approx(AXIS_MASS ** 2, abs=1e-4)

    def test_normalized_mass_one(self):
        g = make_grid((-2.0, -2.0, 2.0, 2.0), 0.025, 0.025)
        k = sample_kernel(bump_kernel(0.5, normalize=True), g)
        assert k.mass == pytest.approx(1.0, abs=1e-12)

    def test_bandwidth(self, unit_grid):
        k = sample_kernel(bump_kernel(0.25), unit_grid)
        assert k.bandwidth_x == int(np.ceil(0.25 * 64))
        # entries beyond the bandwidth are zero (banded matrix), so the
        # stored blocks hold every nonzero entry of A
        band = k.bandwidth_x
        A = dense_sampled(k.spec, unit_grid)[0]
        idx = np.arange(unit_grid.nx)
        far = np.abs(idx[:, None] - idx[None, :]) > band
        assert np.all(A[far] == 0.0)
        stored = np.zeros(A.shape, dtype=bool)
        for rows, cols in block_slices(unit_grid.nx, band):
            stored[rows, cols] = True
        assert stored[~far].all()
        assert len(k.A_blocks) == 2

    @pytest.mark.parametrize("case", sorted(SAMPLING_CASES))
    def test_taps_match_dense_construction(self, case):
        bounds, mesh, spec = SAMPLING_CASES[case]
        g = make_grid(bounds, mesh, mesh)
        k = sample_kernel(spec, g)
        for blocks, dense, band in stored_blocks(k):
            n = dense.shape[0]
            assert len(blocks) == len(block_slices(n, band))
            for blk, (rows, cols) in zip(blocks, block_slices(n, band)):
                assert blk.flags.c_contiguous
                assert np.array_equal(blk.view(np.int64),
                                      dense[rows, cols].view(np.int64))
        assert k.mass == dense_sampled(spec, g)[4]

    def test_support_smaller_than_cell_rejected(self):
        g = make_grid((0.0, 0.0, 1.0, 1.0), 0.25, 0.25)
        with pytest.raises(ConfigurationError, match="smaller than one cell"):
            sample_kernel(bump_kernel(0.1), g)

    def test_support_larger_than_grid_rejected(self):
        g = make_grid((0.0, 0.0, 1.0, 1.0), 0.125, 0.125)
        with pytest.raises(ConfigurationError, match="does not fit"):
            sample_kernel(bump_kernel(0.75), g)

    @pytest.mark.parametrize("half_width", [np.nan, np.inf, 0.0, -0.25])
    def test_bad_half_width_rejected(self, half_width):
        with pytest.raises(ConfigurationError, match="half width"):
            bump_kernel(half_width)
        with pytest.raises(ConfigurationError, match="half width"):
            KernelSpec(fx=_lopsided, dfx=_lopsided_deriv, fy=_lopsided,
                       dfy=_lopsided_deriv, half_width_x=0.5,
                       half_width_y=half_width)

    def test_stores_only_the_band(self):
        # the dense A, Ax, B and By of the crossing preset's 640x320 grid
        # took 8.2 MB
        model, _ = preset("crossing").build()
        k = model.deviation.kernel
        assert (k.grid.nx, k.grid.ny) == (640, 320)
        arrays = [a for f in (k.A_blocks, k.Ax_blocks, k.Bt_blocks,
                              k.Byt_blocks) for a in f]
        assert sum(a.nbytes for a in arrays) <= 1.5e6
        assert all(not a.flags.writeable for a in arrays)


class TestConvolve:
    def test_zero_field(self, unit_grid, unit_kernel):
        out = convolve(np.zeros((unit_grid.nx, unit_grid.ny)), unit_kernel)
        assert np.all(out == 0.0)

    def test_constant_field_interior(self, unit_grid, unit_kernel):
        c = 1.3
        out = convolve(np.full((unit_grid.nx, unit_grid.ny), c), unit_kernel)
        b = unit_kernel.bandwidth_x
        interior = out[b:-b, b:-b]
        assert np.allclose(interior, c * unit_kernel.mass, atol=1e-12)

    def test_discrete_delta(self, unit_grid, unit_kernel):
        field = np.zeros((unit_grid.nx, unit_grid.ny))
        i0, j0 = 30, 33
        field[i0, j0] = 1.0
        out = convolve(field, unit_kernel)
        spec = unit_kernel.spec
        expect = (spec.fx(unit_grid.xc[:, None] - unit_grid.xc[i0])
                  * spec.fy(unit_grid.yc[None, :] - unit_grid.yc[j0])
                  * unit_grid.cell_area)
        assert np.allclose(out, expect, atol=1e-14)

    def test_matches_brute_force_double_sum(self, unit_grid, unit_kernel, rng):
        for _ in range(5):
            field = rng.random((unit_grid.nx, unit_grid.ny))
            out = convolve(field, unit_kernel)
            ref = brute_force(field, unit_kernel.spec, unit_grid)
            assert np.max(np.abs(out - ref)) <= 1e-12

    def test_matches_scipy_interior(self, unit_grid, unit_kernel, rng):
        field = rng.random((unit_grid.nx, unit_grid.ny))
        b = unit_kernel.bandwidth_x
        offs = np.arange(-b, b + 1) * unit_grid.dx
        kern2d = (unit_kernel.spec.fx(offs)[:, None]
                  * unit_kernel.spec.fy(offs)[None, :]) * unit_grid.cell_area
        ref = convolve2d(field, kern2d, mode="same", boundary="fill")
        out = convolve(field, unit_kernel)
        assert np.max(np.abs(out - ref)) <= 1e-12

    def test_linearity(self, unit_grid, unit_kernel, rng):
        f = rng.random((unit_grid.nx, unit_grid.ny))
        g = rng.random((unit_grid.nx, unit_grid.ny))
        lhs = convolve(2.0 * f - 3.0 * g, unit_kernel)
        rhs = 2.0 * convolve(f, unit_kernel) - 3.0 * convolve(g, unit_kernel)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_sup_bound(self, unit_grid, unit_kernel, rng):
        field = rng.random((unit_grid.nx, unit_grid.ny))
        out = convolve(field, unit_kernel)
        assert out.max() <= field.max() * unit_kernel.mass + 1e-12

    def test_shape_mismatch(self, unit_kernel):
        with pytest.raises(ConfigurationError):
            convolve(np.zeros((5, 5)), unit_kernel)


class TestBandedProducts:
    """The banded row-block products against the full dense products."""

    @pytest.mark.parametrize("case", sorted(BANDED_CASES))
    def test_match_dense_products(self, case, rng):
        bounds, mesh, spec = BANDED_CASES[case]
        g = make_grid(bounds, mesh, mesh)
        k = sample_kernel(spec, g)
        A, Ax, B, By, _ = dense_sampled(spec, g)
        field = rng.random((g.nx, g.ny))
        grad = convolve_gradient(field, k)
        for got, ref in ((convolve(field, k), A @ field @ B),
                         (grad[0], Ax @ field @ B),
                         (grad[1], A @ field @ By)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_grids_cover_the_block_cases(self):
        sizes = {}
        for case, (bounds, mesh, spec) in BANDED_CASES.items():
            g = make_grid(bounds, mesh, mesh)
            k = sample_kernel(spec, g)
            sizes[case] = (g.nx, g.ny, k.bandwidth_x)
        assert sizes["one-block-16x16"][:2] == (16, 16)
        assert sizes["ragged-75x50"][0] % 32 and sizes["ragged-75x50"][1] % 32
        assert sizes["wide-band-256x256"][2] == 64 > 32
        assert sizes["rect-160x80"][:2] == (160, 80)
        assert sizes["lopsided-wide-band-150x100"] == (150, 100, 50)


class TestConvolveGradient:
    def test_constant_field_zero_gradient(self, unit_grid, unit_kernel):
        out = convolve_gradient(np.full((unit_grid.nx, unit_grid.ny), 2.0),
                                unit_kernel)
        b = unit_kernel.bandwidth_x
        assert np.allclose(out[:, b:-b, b:-b], 0.0, atol=1e-12)

    def test_linear_ramp(self, unit_grid, unit_kernel):
        field = np.broadcast_to(unit_grid.xc[:, None],
                                (unit_grid.nx, unit_grid.ny)).copy()
        out = convolve_gradient(field, unit_kernel)
        b = unit_kernel.bandwidth_x
        # gradient of (ramp * kernel) is (gradient of ramp) * kernel
        assert np.allclose(out[0, b:-b, b:-b], unit_kernel.mass, atol=1e-6)
        assert np.allclose(out[1, b:-b, b:-b], 0.0, atol=1e-6)

    def test_mirror_flips_x_component(self, unit_grid, unit_kernel, rng):
        field = rng.random((unit_grid.nx, unit_grid.ny))
        out = convolve_gradient(field, unit_kernel)
        out_m = convolve_gradient(field[::-1], unit_kernel)
        assert np.allclose(out_m[0], -out[0][::-1], atol=1e-12)
        assert np.allclose(out_m[1], out[1][::-1], atol=1e-12)

    def test_agrees_with_central_differences(self):
        # smooth field; error vs central differences of convolve is O(h^2)
        errs = []
        for n in (32, 64):
            g = make_grid((0.0, 0.0, 1.0, 1.0), 1.0 / n, 1.0 / n)
            k = sample_kernel(bump_kernel(0.25), g)
            X = g.xc[:, None]
            Y = g.yc[None, :]
            field = np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
            grad = convolve_gradient(field, k)
            conv = convolve(field, k)
            cd_x = np.gradient(conv, g.dx, axis=0)
            cd_y = np.gradient(conv, g.dy, axis=1)
            b = k.bandwidth_x + 2
            errs.append(max(np.abs(grad[0] - cd_x)[b:-b, b:-b].max(),
                            np.abs(grad[1] - cd_y)[b:-b, b:-b].max()))
        assert errs[0] / errs[1] >= 3.5


# (rows, columns) of the live rectangle, as fractions of nx and ny
BOX_RECTS = {
    "x-low-edge": ((0.0, 0.3), (0.3, 0.6)),
    "x-high-edge": ((0.7, 1.0), (0.2, 0.5)),
    "y-low-edge": ((0.4, 0.6), (0.0, 0.25)),
    "y-high-edge": ((0.3, 0.5), (0.8, 1.0)),
    "all-edges": ((0.0, 1.0), (0.0, 1.0)),
    "one-cell": ((0.5, 0.5), (0.5, 0.5)),
}


class TestBoxProducts:
    """convolve_gradient on a box against the whole-grid products."""

    @pytest.mark.parametrize("rect", sorted(BOX_RECTS))
    @pytest.mark.parametrize("case", sorted(BANDED_CASES))
    def test_box_matches_whole_grid_bitwise(self, case, rect, rng):
        bounds, mesh, spec = BANDED_CASES[case]
        g = make_grid(bounds, mesh, mesh)
        k = sample_kernel(spec, g)
        (x0, x1), (y0, y1) = BOX_RECTS[rect]
        field = np.zeros((g.nx, g.ny))
        rows = slice(int(x0 * (g.nx - 1)), int(x1 * (g.nx - 1)) + 1)
        cols = slice(int(y0 * (g.ny - 1)), int(y1 * (g.ny - 1)) + 1)
        field[rows, cols] = rng.uniform(0.1, 1.0, field[rows, cols].shape)
        box = live_box(field, pad=(k.bandwidth_x, k.bandwidth_y))
        assert box != (slice(0, 0), slice(0, 0))
        # stale buffers: every row a skipped block leaves must be cleared
        out = np.full((2, g.nx, g.ny), np.nan)
        left = np.full((g.nx, g.ny), np.nan)
        got = convolve_gradient(field, k, out, left, box=box)
        want = convolve_gradient(field, k)
        assert got is out
        assert np.array_equal(got[(slice(None),) + box].view(np.int64),
                              want[(slice(None),) + box].view(np.int64))
        assert not np.isnan(left).any()
        # the gradient vanishes off the box
        off = np.ones((g.nx, g.ny), dtype=bool)
        off[box] = False
        assert not want[:, off].any()

    def test_box_inside_one_block(self, rng):
        # rect-160x80: band 5, so a cell at row 45 and column 45 has its
        # box in the row block [32, 64) of either axis
        bounds, mesh, spec = BANDED_CASES["rect-160x80"]
        g = make_grid(bounds, mesh, mesh)
        k = sample_kernel(spec, g)
        field = np.zeros((g.nx, g.ny))
        field[44:47, 44:47] = rng.uniform(0.1, 1.0, (3, 3))
        box = live_box(field, pad=(k.bandwidth_x, k.bandwidth_y))
        assert box == (slice(39, 52), slice(39, 52))
        got = convolve_gradient(field, k, box=box)
        want = convolve_gradient(field, k)
        assert np.array_equal(got[:, 39:52, 39:52].view(np.int64),
                              want[:, 39:52, 39:52].view(np.int64))

    @pytest.mark.parametrize("case", sorted(BANDED_CASES))
    def test_all_zero_field(self, case):
        bounds, mesh, spec = BANDED_CASES[case]
        g = make_grid(bounds, mesh, mesh)
        k = sample_kernel(spec, g)
        field = np.zeros((g.nx, g.ny))
        box = live_box(field, pad=(k.bandwidth_x, k.bandwidth_y))
        assert box == (slice(0, 0), slice(0, 0))
        left = np.full((g.nx, g.ny), np.nan)
        out = convolve_gradient(field, k, left=left, box=box)
        assert out.shape == (2, g.nx, g.ny)
        assert np.array_equal(left.view(np.int64), np.zeros_like(left,
                                                                  np.int64))
