import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdflow import (ConfigurationError, GridSpec, NumericError,
                       PopulationField, boundary, discomfort,
                       indicator_datum, make_grid, norms)
from crowdflow.grid import live_box


class TestMakeGrid:
    def test_corridor_cell_counts(self):
        g = make_grid((-8.0, -4.0, 8.0, 4.0), 0.025, 0.025)
        assert (g.nx, g.ny) == (640, 320)

    def test_unit_square_half_cells(self):
        g = make_grid((0.0, 0.0, 1.0, 1.0), 0.5, 0.5)
        assert (g.nx, g.ny) == (2, 2)

    def test_non_divisible_extent_names_axis(self):
        with pytest.raises(ConfigurationError, match="axis x"):
            make_grid((0.0, 0.0, 1.0, 1.0), 0.3, 0.5)
        with pytest.raises(ConfigurationError, match="axis y"):
            make_grid((0.0, 0.0, 1.0, 1.0), 0.5, 0.3)

    def test_cell_centers(self):
        g = make_grid((0.0, 0.0, 1.0, 1.0), 0.25, 0.25)
        assert np.allclose(g.xc, [0.125, 0.375, 0.625, 0.875])
        assert np.allclose(g.yc, [0.125, 0.375, 0.625, 0.875])

    def test_empty_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            make_grid((0.0, 0.0, 0.0, 1.0), 0.1, 0.1)

    def test_room_outside_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            make_grid((0.0, 0.0, 1.0, 1.0), 0.1, 0.1, room=(0.0, 0.0, 2.0, 1.0))

    def test_bad_exit_rejected(self):
        with pytest.raises(ConfigurationError):
            make_grid((0.0, 0.0, 1.0, 1.0), 0.1, 0.1,
                      exits=(("north", 0.0, 1.0),))
        with pytest.raises(ConfigurationError):
            make_grid((0.0, 0.0, 1.0, 1.0), 0.1, 0.1,
                      exits=(("left", 1.0, 0.0),))
        with pytest.raises(ConfigurationError):
            make_grid((0.0, 0.0, 1.0, 1.0), 0.1, 0.1,
                      exits=(("left", np.nan, 1.0),))

    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_size_rejected(self, h):
        with pytest.raises(ConfigurationError, match="finite"):
            make_grid((0.0, 0.0, 1.0, 1.0), h, 0.5)
        with pytest.raises(ConfigurationError, match="finite"):
            make_grid((0.0, 0.0, 1.0, 1.0), 0.5, h)
        with pytest.raises(ConfigurationError, match="finite"):
            GridSpec(x0=0.0, y0=0.0, dx=0.5, dy=h, nx=2, ny=2,
                     room=(0.0, 0.0, 1.0, 1.0))

    @pytest.mark.parametrize("bounds", [(0.0, 0.0, np.nan, 1.0),
                                        (-np.inf, 0.0, 1.0, 1.0),
                                        (0.0, 0.0, 1.0, np.inf)])
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(ConfigurationError, match="finite"):
            make_grid(bounds, 0.5, 0.5)

    def test_non_finite_origin_or_room_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            GridSpec(x0=np.nan, y0=0.0, dx=0.5, dy=0.5, nx=2, ny=2,
                     room=(0.0, 0.0, 1.0, 1.0))
        with pytest.raises(ConfigurationError, match="finite"):
            GridSpec(x0=0.0, y0=0.0, dx=0.5, dy=0.5, nx=2, ny=2,
                     room=(0.0, 0.0, np.nan, 1.0))


class TestIndicatorDatum:
    def test_left_block_mass(self, corridor_grid):
        # 0.9 on a 3.2 x 4.8 block
        datum = indicator_datum(corridor_grid, 0.9, (-6.4, -2.4, -3.2, 2.4))
        mass = datum.sum() * corridor_grid.cell_area
        assert mass == pytest.approx(13.824, rel=1e-12)

    def test_half_value_mass(self, corridor_grid):
        datum = indicator_datum(corridor_grid, 0.5, (-6.4, -2.4, -3.2, 2.4))
        mass = datum.sum() * corridor_grid.cell_area
        assert mass == pytest.approx(7.68, rel=1e-12)

    def test_full_bounds_all_ones(self, unit_grid):
        datum = indicator_datum(unit_grid, 1.0, (0.0, 0.0, 1.0, 1.0))
        assert np.all(datum == 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, unit_grid, value):
        with pytest.raises(ConfigurationError, match="finite"):
            indicator_datum(unit_grid, value, (0.25, 0.25, 0.75, 0.75))

    def test_rect_outside_bounds_rejected(self, unit_grid):
        with pytest.raises(ConfigurationError):
            indicator_datum(unit_grid, 1.0, (0.5, 0.5, 1.5, 1.0))

    @pytest.mark.parametrize("rect", [
        (0.75, 0.25, 0.25, 0.75), (0.25, 0.75, 0.75, 0.25),
        (0.5, 0.25, 0.5, 0.75), (0.25, 0.5, 0.75, 0.5),
        (np.nan, 0.25, 0.75, 0.75), (0.25, 0.25, 0.75, np.inf),
        (-np.inf, -np.inf, np.inf, np.inf)],
        ids=["x-reversed", "y-reversed", "x-empty", "y-empty", "nan-corner",
             "inf-corner", "all-infinite"])
    def test_reversed_empty_or_non_finite_rect_rejected(self, unit_grid, rect):
        # a reversed or empty rectangle passes the bounds test and would
        # give an all-zero datum; a NaN corner passes it and gives NaN
        with pytest.raises(ConfigurationError, match="datum rectangle"):
            indicator_datum(unit_grid, 1.0, rect)

    @settings(max_examples=50, deadline=None)
    @given(x0=st.floats(0.01, 0.5), w=st.floats(0.05, 0.45),
           y0=st.floats(0.01, 0.5), h=st.floats(0.05, 0.45),
           v=st.floats(0.1, 2.0))
    def test_mass_exact_for_unaligned_rects(self, x0, w, y0, h, v):
        g = make_grid((0.0, 0.0, 1.0, 1.0), 1.0 / 32.0, 1.0 / 32.0)
        datum = indicator_datum(g, v, (x0, y0, x0 + w, y0 + h))
        mass = datum.sum() * g.cell_area
        assert mass == pytest.approx(v * w * h, rel=1e-12)


class TestNorms:
    def test_block_indicator_norms(self, corridor_grid):
        datum = indicator_datum(corridor_grid, 0.9, (-6.4, -2.4, -3.2, 2.4))
        fld = PopulationField.from_arrays(corridor_grid, datum)
        rec = norms(fld)
        assert rec.l1[0] == pytest.approx(13.824, abs=1e-9)
        # grid-aligned edges: discrete TV equals the perimeter integral
        assert rec.tv[0] == pytest.approx(2 * 0.9 * (3.2 + 4.8), rel=1e-6)
        assert rec.linf[0] == pytest.approx(0.9)

    def test_zero_field(self, unit_grid):
        rec = norms(PopulationField.zeros(unit_grid, 2))
        for values in (rec.l1, rec.linf, rec.tv):
            assert values.tolist() == [0.0, 0.0]

    def test_constant_field(self, unit_grid):
        fld = PopulationField.from_arrays(
            unit_grid, np.full((unit_grid.nx, unit_grid.ny), 1.7))
        rec = norms(fld)
        assert rec.tv[0] == 0.0
        assert rec.linf[0] == pytest.approx(1.7)

    def test_nan_names_population(self, unit_grid):
        data = np.zeros((2, unit_grid.nx, unit_grid.ny))
        data[1, 3, 3] = np.nan
        with pytest.raises(NumericError, match="population 1"):
            norms(PopulationField(unit_grid, data))

    def test_first_non_finite_population_named(self, unit_grid):
        data = np.zeros((3, unit_grid.nx, unit_grid.ny))
        data[2, 0, 0] = np.nan
        data[1, 5, 1] = -np.inf
        with pytest.raises(NumericError, match="population 1$"):
            norms(PopulationField(unit_grid, data))

    def test_same_bits_as_per_norm_passes(self, unit_grid, rng):
        data = rng.standard_normal((3, unit_grid.nx, unit_grid.ny))
        rec = norms(PopulationField(unit_grid, data))
        assert np.array_equal(
            rec.l1, np.abs(data).sum(axis=(1, 2)) * unit_grid.cell_area)
        assert np.array_equal(rec.linf, np.abs(data).max(axis=(1, 2)))
        assert np.array_equal(
            rec.tv,
            np.abs(np.diff(data, axis=1)).sum(axis=(1, 2)) * unit_grid.dy
            + np.abs(np.diff(data, axis=2)).sum(axis=(1, 2)) * unit_grid.dx)

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(0.0, 100.0))
    def test_positive_homogeneity(self, c):
        g = make_grid((0.0, 0.0, 1.0, 1.0), 0.125, 0.125)
        rng = np.random.default_rng(7)
        base = rng.random((1, g.nx, g.ny))
        r1 = norms(PopulationField(g, base))
        r2 = norms(PopulationField(g, c * base))
        assert r2.l1[0] == pytest.approx(c * r1.l1[0], rel=1e-12, abs=1e-12)
        assert r2.tv[0] == pytest.approx(c * r1.tv[0], rel=1e-12, abs=1e-12)
        assert r2.linf[0] == pytest.approx(c * r1.linf[0], rel=1e-12, abs=1e-12)


class TestPopulationField:
    def test_shape_mismatch_rejected(self, unit_grid):
        with pytest.raises(ConfigurationError):
            PopulationField(unit_grid, np.zeros((1, 5, 5)))

    def test_mass(self, unit_grid):
        fld = PopulationField.from_arrays(
            unit_grid, np.full((unit_grid.nx, unit_grid.ny), 2.0))
        assert fld.mass()[0] == pytest.approx(2.0)


@st.composite
def grids_with_rooms(draw):
    """A grid and a room whose edges lie on faces, on cell centers or
    anywhere, and up to three exits whose ends lie likewise; the room
    may hold no cell center."""
    nx, ny = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    dx, dy = (draw(st.sampled_from([0.1, 0.25, 0.4, 1.0])) for _ in "xy")
    x0, y0 = (draw(st.sampled_from([-8.0, -0.3, 0.0, 2.5])) for _ in "xy")

    def coordinate(lo, h, n):
        return draw(st.one_of(
            st.integers(0, n).map(lambda k: lo + k * h),
            st.integers(0, n - 1).map(lambda k: lo + (k + 0.5) * h),
            st.floats(lo, lo + n * h)))

    xs = sorted(coordinate(x0, dx, nx) for _ in "ab")
    ys = sorted(coordinate(y0, dy, ny) for _ in "ab")
    exits = []
    for side in draw(st.lists(st.sampled_from(["left", "right", "bottom",
                                               "top"]), max_size=3)):
        lo, h, n = (y0, dy, ny) if side in ("left", "right") else (x0, dx, nx)
        a, b = sorted(coordinate(lo, h, n) for _ in "ab")
        if b > a:
            exits.append((side, a, b))
    return dict(x0=x0, y0=y0, dx=dx, dy=dy, nx=nx, ny=ny,
                room=(xs[0], ys[0], xs[1], ys[1]), exits=tuple(exits))


class TestBoundary:
    @settings(max_examples=150, deadline=None)
    @given(spec=grids_with_rooms())
    def test_walls_are_the_faces_where_the_room_changes(self, spec):
        rx0, ry0, rx1, ry1 = spec["room"]
        xc = [spec["x0"] + (i + 0.5) * spec["dx"] for i in range(spec["nx"])]
        yc = [spec["y0"] + (j + 0.5) * spec["dy"] for j in range(spec["ny"])]
        want = np.array([[rx0 < x < rx1 and ry0 < y < ry1 for y in yc]
                         for x in xc])
        if not want.any():
            with pytest.raises(ConfigurationError, match="no cell center"):
                GridSpec(**spec)
            return
        g = GridSpec(**spec)
        b = boundary(g)
        assert np.array_equal(b.room, want)
        nx, ny = want.shape
        for i in range(nx + 1):
            for j in range(ny):
                assert b.xwall[i, j] == (0 < i < nx
                                         and want[i - 1, j] != want[i, j])
        for i in range(nx):
            for j in range(ny + 1):
                assert b.ywall[i, j] == (0 < j < ny
                                         and want[i, j - 1] != want[i, j])
        assert not (b.xwall[[0, -1]].any() or b.ywall[:, [0, -1]].any())

        # an exit cell is a room cell on its side's edge whose center lies
        # in one of that side's spans, widened by 1e-9 of the domain
        tol = 1e-9 * max(nx * spec["dx"], ny * spec["dy"])
        sides = {"left": (yc, want[0]), "right": (yc, want[-1]),
                 "bottom": (xc, want[:, 0]), "top": (xc, want[:, -1])}
        for got, (side, (centers, edge)) in zip(b.exits, sides.items()):
            spans = [(lo, hi) for s, lo, hi in spec["exits"] if s == side]
            assert list(got) == [
                bool(edge[k]) and any(lo - tol < c < hi + tol
                                      for lo, hi in spans)
                for k, c in enumerate(centers)]

        # discomfort pushes inward from the sides with wall faces only
        d = discomfort(g, 0.8, 0.75)
        assert np.all(d[:, ~want] == 0.0)
        walls = {"left": b.xwall[:-1] & want, "right": b.xwall[1:] & want,
                 "bottom": b.ywall[:, :-1] & want, "top": b.ywall[:, 1:] & want}
        for side, other, axis, sign in (("left", "right", 0, 1.0),
                                        ("right", "left", 0, -1.0),
                                        ("bottom", "top", 1, 1.0),
                                        ("top", "bottom", 1, -1.0)):
            if not walls[side].any():
                assert np.all(sign * d[axis] <= 0.0)
            elif not walls[other].any():
                assert np.all(sign * d[axis][walls[side]] == 0.8)

    @settings(max_examples=30, deadline=None)
    @given(spec=grids_with_rooms())
    def test_cached_arrays_are_read_only(self, spec):
        try:
            g = GridSpec(**spec)
        except ConfigurationError:
            return
        b = boundary(g)
        assert boundary(g) is b
        for a in (b.room, b.xwall, b.ywall, *b.exits, *b.sweeps[0],
                  *b.sweeps[1]):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            b.room[0, 0] = False

    def test_aligned_corridor(self, corridor_grid):
        # room edges y = -3 and 3 on faces 10 and 70; exits for |y| < 3
        b = boundary(corridor_grid)
        assert not b.xwall.any()
        assert np.array_equal(np.flatnonzero(b.ywall.any(axis=0)), [10, 70])
        assert b.ywall[:, [10, 70]].all()
        left, right, bottom, top = b.exits
        assert np.array_equal(left, (corridor_grid.yc > -3)
                              & (corridor_grid.yc < 3))
        assert np.array_equal(right, left)
        assert not (bottom.any() or top.any())

    @pytest.mark.parametrize("room", [
        (3.0, 2.0, -3.0, -2.0), (0.0, -1.0, 0.0, 1.0),
        (0.06, -1.0, 0.14, 1.0)],
        ids=["inverted", "zero-width", "between-centers"])
    def test_room_without_cell_center_rejected(self, room):
        with pytest.raises(ConfigurationError, match="no cell center"):
            make_grid((-8.0, -4.0, 8.0, 4.0), 0.1, 0.1, room=room)


class TestLiveBox:
    def test_box_of_live_cells(self):
        a = np.zeros((6, 5))
        a[1, 3] = 2.0
        a[4, 1] = -1.0
        assert live_box(a) == (slice(1, 5), slice(1, 4))

    @pytest.mark.parametrize("value", [-0.0, np.nan, np.inf, 5e-324])
    def test_any_nonzero_bit_pattern_is_live(self, value):
        a = np.zeros((6, 5))
        a[2, 4] = value
        assert live_box(a) == (slice(2, 3), slice(4, 5))

    def test_empty(self):
        assert live_box(np.zeros((6, 5)), pad=(2, 2)) \
            == (slice(0, 0), slice(0, 0))

    def test_pad_is_clipped_to_the_grid(self):
        a = np.zeros((6, 5))
        a[0, 3] = 1.0
        assert live_box(a, pad=(2, 1)) == (slice(0, 3), slice(2, 5))

    def test_fields_and_leading_axes_are_joined(self):
        a, e = np.zeros((6, 5)), np.zeros((2, 6, 5))
        a[1, 1] = 1.0
        e[1, 4, 3] = 1.0
        assert live_box(a, e) == (slice(1, 5), slice(1, 4))
        assert live_box(e[:, ::2]) == (slice(2, 3), slice(3, 4))
