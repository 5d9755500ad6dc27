import contextlib
import functools
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import crowdflow
from crowdflow import (ConfigurationError, NumericError, PopulationField,
                       advection_field, gateaux_benchmark, parse_config,
                       preset, run)
from crowdflow import analysis, cli, forked, linearized
from crowdflow.analysis import sup_gradient
from crowdflow.cli import (_write_rows, _write_table, main, read_snapshot,
                           write_snapshot)
from crowdflow.grid import make_grid


def _solver_must_not_start(*args, **kwargs):
    raise AssertionError("the solver started on an invalid configuration")


class TestPreset:
    def test_crossing_parameters(self):
        cfg = preset("crossing")
        assert cfg.family == "deviation"
        assert cfg.populations[0].eps == (0.3, 0.7)
        assert cfg.populations[1].eps == (0.7, 0.3)
        assert cfg.populations[0].datum_value == 0.9
        assert cfg.populations[1].datum_value == 0.7
        assert cfg.delta_max == 0.8 and cfg.delta_r == 0.75
        assert cfg.dx == 0.025
        assert cfg.bounds == (-8.0, -4.0, 8.0, 4.0)
        assert cfg.room == (-8.0, -3.0, 8.0, 3.0)

    def test_evacuation_parameters(self):
        cfg = preset("evacuation")
        assert cfg.populations[0].eps == (0.0, 0.3)
        assert cfg.populations[1].eps == (0.3, 0.0)
        # population 2 has no geodesic drive
        assert cfg.populations[1].gx == 0.0 and cfg.populations[1].gy == 0.0
        for p in cfg.populations:
            assert p.datum_value == 0.5
            assert p.datum_rect == (-6.4, -2.4, -3.2, 2.4)

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError, match="crossing"):
            preset("bogus")

    def test_crossing_build_masses(self):
        cfg = preset("crossing").with_mesh(0.1)
        model, datum = cfg.build()
        assert datum.mass()[0] == pytest.approx(13.824, rel=1e-12)
        assert datum.mass()[1] == pytest.approx(0.7 * 3.2 * 4.8, rel=1e-12)


class TestParseConfig:
    def test_preset_passthrough(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[model]\npreset = crossing\n")
        assert parse_config(str(p)) == preset("crossing")

    def test_mesh_override(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[model]\npreset = crossing\n[grid]\nmesh = 0.1\n")
        cfg = parse_config(str(p))
        g = cfg.build_grid()
        assert (g.nx, g.ny) == (160, 80)

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[model]\npreset = crossing\ntmax = 1\ntmax = 2\n")
        with pytest.raises(ConfigurationError, match="parse error"):
            parse_config(str(p))

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[model]\npreset = crossing\nwibble = 3\n")
        with pytest.raises(ConfigurationError, match="wibble"):
            parse_config(str(p))
        p.write_text("[model]\npreset = crossing\n[output]\nthreads = 2\n")
        with pytest.raises(ConfigurationError, match="threads"):
            parse_config(str(p))

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[model]\npreset = crossing\n[physics]\ng = 9.81\n")
        with pytest.raises(ConfigurationError, match="physics"):
            parse_config(str(p))

    def test_population_override(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[model]\npreset = crossing\n"
                     "[population.2]\nvmax = 2\neps = 0.5 0.5\n")
        cfg = parse_config(str(p))
        assert cfg.populations[1].vmax == 2.0
        assert cfg.populations[1].eps == (0.5, 0.5)
        assert cfg.populations[0].vmax == 4.0

    def test_explicit_config(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(
            "[grid]\nbounds = 0 0 1 1\nmesh = 0.125\n"
            "[model]\nfamily = deviation\ntmax = 0.1\n"
            "[population.1]\nvmax = 1\ngx = 1\ndatum = 0.4 0.25 0.25 0.75 0.75\n"
            "[kernel]\nhalf_width = 0.25\n")
        cfg = parse_config(str(p))
        model, datum = cfg.build()
        assert model.n == 1
        assert datum.mass()[0] == pytest.approx(0.4 * 0.25, rel=1e-12)

    def test_missing_file(self):
        with pytest.raises(ConfigurationError, match="cannot read"):
            parse_config("/nonexistent/file.ini")


class TestSnapshots:
    def test_zero_field_two_rows(self, tmp_path):
        g = make_grid((0.0, 0.0, 1.0, 1.0), 0.5, 0.5)
        state = PopulationField.zeros(g, 1)
        (path,) = write_snapshot(state, 0.0, str(tmp_path))
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "nx,ny,x0,y0,dx,dy,t"
        assert lines[2:] == ["0,0", "0,0"]

    def test_round_trip_full_precision(self, tmp_path, rng):
        g = make_grid((-1.0, -2.0, 3.0, 2.0), 0.25, 0.5)
        state = PopulationField(g, rng.random((2, g.nx, g.ny)))
        paths = write_snapshot(state, 0.125, str(tmp_path))
        for i, path in enumerate(paths):
            data, meta = read_snapshot(path)
            assert np.array_equal(data, state.data[i])
            assert meta["t"] == 0.125
            assert meta["dx"] == 0.25 and meta["dy"] == 0.5

    def test_crossing_t0_mass(self, tmp_path):
        cfg = preset("crossing").with_mesh(0.1)
        model, datum = cfg.build()
        (p1, _) = write_snapshot(datum, 0.0, str(tmp_path))
        data, meta = read_snapshot(p1)
        mass = data.sum() * meta["dx"] * meta["dy"]
        assert mass == pytest.approx(13.824, abs=1e-9)

    @pytest.mark.parametrize("case", ["truncated", "non-numeric",
                                      "missing header name"])
    def test_malformed_file_is_a_configuration_error(self, tmp_path, case):
        g = make_grid((0.0, 0.0, 1.0, 1.0), 0.5, 0.5)
        (path,) = write_snapshot(PopulationField.zeros(g, 1), 0.0,
                                 str(tmp_path))
        lines = Path(path).read_text().splitlines()
        if case == "truncated":
            lines = lines[:-1]  # one of the ny rows is missing
        elif case == "non-numeric":
            lines[2] = "0,abc"
        else:
            lines[0] = lines[0].replace("ny", "rows")
        Path(path).write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="pop1_t0.000.csv"):
            read_snapshot(path)

    def test_file_names(self, tmp_path):
        g = make_grid((0.0, 0.0, 1.0, 1.0), 0.5, 0.5)
        state = PopulationField.zeros(g, 2)
        paths = write_snapshot(state, 0.5, str(tmp_path))
        assert [os.path.basename(p) for p in paths] \
            == ["pop1_t0.500.csv", "pop2_t0.500.csv"]


class TestWriteTable:
    def test_bytes_match_per_value_join(self, tmp_path):
        rows = [[0.0, -0.0, 1e-300, np.inf, np.nan, 7, 0.1, -np.inf, 2.5e17],
                [1.0 / 3.0, -1e-5, 5e-324, 12, 1, 2, 3, 4, 123456789]]
        path = tmp_path / "t.csv"
        _write_table(str(path), "a,b", rows, np.array(rows[1:]) * 2)
        oracle = "a,b\n" + "".join(
            ",".join("%.17g" % v for v in row) + "\n"
            for row in rows + [[2 * v for v in rows[1]]])
        assert path.read_bytes() == oracle.encode()

    @staticmethod
    def savetxt_bytes(header, *blocks):
        """Test oracle: the header line, then np.savetxt of each block."""
        buf = io.BytesIO()
        buf.write((header + "\n").encode())
        for rows in blocks:
            np.savetxt(buf, rows, fmt="%.17g", delimiter=",")
        return buf.getvalue()

    def assert_matches_savetxt(self, tmp_path, *blocks):
        path = tmp_path / "t.csv"
        _write_table(str(path), "a,b", *blocks)
        assert path.read_bytes() == self.savetxt_bytes("a,b", *blocks)

    @pytest.mark.parametrize("rows", [
        np.zeros((3, 5)),
        [[0, 0, 1.5, 0, 2, 0, 0], [0, 3, 0, 0, 0, 0, 0],
         [7, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 2]],
        [[-0.0, 0, 1, 0, -0.0], [-0.0] * 5, [0, 0, 0, 0, -0.0],
         [-0.0, 0, 0, 0, 0]],
        [[np.nan, 0, 0, np.inf], [-np.inf, 0, 0, 5e-324],
         [5e-324, 0, 0, np.nan], [0, 0, -5e-324, 0], [0, np.nan, np.inf, 0]],
        [[0.0], [-0.0], [1.5], [0.0], [np.nan]],
        np.array([0.0, -0.0, 2.5, 0.0, np.nan, 1e-300]),
        np.array([]),
        [],
        np.zeros((0, 4)),
        [[3, 160, -8.0, -4.0, 0.05, 0.05, 0.1]],
    ], ids=["all-zero", "zero-runs", "negative-zero", "non-finite-ends",
            "one-column", "1d", "empty-1d", "empty-list", "no-rows",
            "integral-values"])
    def test_matches_savetxt(self, tmp_path, rows):
        self.assert_matches_savetxt(tmp_path, rows)

    def test_transposed_view_matches_savetxt(self, tmp_path, rng):
        data = rng.random((12, 7))
        data[:4] = 0.0
        data[:, -2:] = 0.0
        data[6, 3] = -0.0
        view = data.T  # not C-contiguous, as a snapshot's state.data[i].T
        assert not view.flags.c_contiguous
        self.assert_matches_savetxt(tmp_path, [[1, 2]], view, view[::2])

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(
        np.float64,
        st.one_of(st.tuples(st.integers(0, 9)),
                  st.tuples(st.integers(1, 9), st.integers(1, 9))),
        elements=st.one_of(
            st.sampled_from([0.0, 0.0, -0.0, np.nan, np.inf, -np.inf]),
            st.floats())),
        st.booleans())
    def test_property_matches_savetxt(self, rows, transpose):
        if transpose:
            rows = rows.T
        buf = io.StringIO()
        _write_rows(buf, rows)
        assert buf.getvalue().encode() == self.savetxt_bytes("", rows)[1:]

    def test_crossing_snapshot_matches_savetxt(self, tmp_path):
        model, datum = preset("crossing").with_mesh(0.2).build()
        state = run(replace(model, t_max=0.1, snapshot_times=()),
                    datum).state
        g = state.grid
        meta = [[g.nx, g.ny, g.x0, g.y0, g.dx, g.dy, 0.1]]
        for i, path in enumerate(write_snapshot(state, 0.1, str(tmp_path))):
            assert Path(path).read_bytes() == self.savetxt_bytes(
                "nx,ny,x0,y0,dx,dy,t", meta, state.data[i].T)

    @pytest.mark.parametrize("field", ["datum", "random"])
    def test_snapshot_streams_its_rows(self, tmp_path, rng, field):
        # a 640x320 population is 1.6 MB of doubles and more than 1 MB of
        # text; a writer that built the whole table would exceed the bound
        model, datum = preset("crossing").build()
        if field == "random":
            datum = PopulationField(model.grid, rng.random(datum.data.shape))
        assert (datum.grid.nx, datum.grid.ny) == (640, 320)
        tracemalloc.start()
        try:
            write_snapshot(datum, 0.0, str(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < datum.data[0].nbytes / 2


# Runs the command in sys.argv with two usable CPUs, where every forked
# worker exits with status 3 at its first replay step or snapshot file.
DYING_WORKER = """
import os, sys
from crowdflow import cli, forked, linearized
parent, step, write = os.getpid(), linearized.split_step, cli._write_table

def dying(f):
    def call(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return f(*args, **kwargs)
    return call

forked._usable_cpus = lambda: 2
linearized.split_step, cli._write_table = dying(step), dying(write)
sys.exit(cli.main(sys.argv[1:]))
"""


class TestMain:
    def test_run_crossing(self, tmp_path, capsys):
        code = main(["run", "--preset", "crossing", "--mesh", "0.2",
                     "--tmax", "0.2", "--out", str(tmp_path)])
        assert code == 0
        files = os.listdir(tmp_path)
        snaps = [f for f in files if f.startswith("pop")]
        assert len(snaps) >= 2
        assert "diagnostics.csv" in files
        header = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
        assert header.split(",")[:2] == ["t", "dt"]
        assert "tv_bound_1" in header and "escaped_2" in header

    def test_bounds_command(self, tmp_path, capsys):
        code = main(["bounds", "--preset", "crossing", "--mesh", "0.2",
                     "--tmax", "0.2", "--out", str(tmp_path)])
        assert code == 0
        assert "bounds.csv" in os.listdir(tmp_path)
        rows = (tmp_path / "bounds.csv").read_text().splitlines()
        assert rows[0].startswith("t,population,tv,tv_bound")
        assert len(rows) > 1

    def test_empty_population_envelope_is_inf_not_nan(self, tmp_path,
                                                       capsys):
        # population 2 starts empty and kappa0 t passes LOG_MAX by t = 16:
        # its envelope overflows to inf, never to 0 * inf = nan
        p = tmp_path / "c.ini"
        p.write_text("[model]\npreset = crossing\ntmax = 16\n"
                     "snapshot_times = 0 16\n[grid]\nmesh = 0.4\n"
                     "[population.2]\ndatum = 0 3.2 -2.4 6.4 2.4\n")
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(p), "--out", str(out)]) == 0
        rows = (out / "bounds.csv").read_text().splitlines()
        assert rows[-1].split(",")[:4] == ["16", "2", "0", "inf"]
        assert "nan" not in (out / "diagnostics.csv").read_text()

    def test_nan_envelope_is_a_violation(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.setattr(analysis, "tv_bound_deviation",
                            lambda t, bi: float("nan"))
        argv = ["bounds", "--preset", "crossing", "--mesh", "0.4",
                "--tmax", "0.05"]
        assert main([*argv, "--out", str(tmp_path / "a")]) == 0
        assert "bound violation: population 1" in capsys.readouterr().out
        assert main([*argv, "--strict", "--out", str(tmp_path / "b")]) == 3

    def test_gateaux_command(self, tmp_path, capsys):
        code = main(["gateaux", "--mesh", "0.03125", "--tmax", "0.1",
                     "--out", str(tmp_path), "--hs", "0.2,0.1,0.05"])
        assert code == 0
        rows = (tmp_path / "gateaux.csv").read_text().splitlines()[1:]
        ratios = [float(r.split(",")[2]) for r in rows]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    @pytest.mark.parametrize("flag", [
        ["--preset", "crossing"], ["--config", "/nonexistent.ini"],
        ["--cfl", "0.01"], ["--strict"], ["--normalize-kernel"]],
        ids=lambda f: f[0])
    def test_gateaux_rejects_unread_flags(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        assert main(["gateaux", "--mesh", "0.125", "--tmax", "0.05",
                     "--out", str(out), *flag]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_gateaux_bad_hs_exit_code(self, tmp_path, capsys):
        for hs in ("0.1,abc", "0.1,-0.05", ",", "inf,0.1"):
            assert main(["gateaux", "--mesh", "0.125", "--tmax", "0.05",
                         "--out", str(tmp_path), "--hs", hs]) == 1
            assert "configuration error:" in capsys.readouterr().err

    def test_gateaux_worker_error_exit_code(self, tmp_path, capsys,
                                            monkeypatch):
        # a numeric error in a forked replay exits 2, as in this process
        if forked._openblas_threads() is None:
            pytest.skip("no OpenBLAS thread control: the replays never fork")
        parent, step = os.getpid(), linearized.split_step

        def failing(*args, **kwargs):
            if os.getpid() != parent:
                raise NumericError("non-finite value in population 0")
            return step(*args, **kwargs)

        monkeypatch.setattr(forked, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(linearized, "split_step", failing)
        assert main(["gateaux", "--mesh", "0.125", "--tmax", "0.05",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "numeric error: non-finite value in population 0\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("argv", [
        ["gateaux", "--mesh", "0.125", "--tmax", "0.05"],
        ["bounds", "--config", "{ini}"]], ids=["replay", "writer"])
    def test_worker_dying_without_reply_exit_code(self, tmp_path, argv):
        # a replay worker or the snapshot writer that ends without a
        # reply: one error line and exit 1, no traceback
        if forked._openblas_threads() is None:
            pytest.skip("no OpenBLAS thread control: nothing is forked")
        ini = tmp_path / "c.ini"
        ini.write_text("[grid]\nmesh = 0.4\n[model]\npreset = crossing\n"
                       "tmax = 0.2\nsnapshot_times = 0 0.1 0.2\n")
        src = os.path.dirname(os.path.dirname(crowdflow.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", DYING_WORKER,
             *[a.format(ini=ini) for a in argv], "--out", "out"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == ("error: forked worker ended with wait status "
                               "768 and no result\n")

    @pytest.mark.parametrize("hs", ["inf,0.1", ""], ids=["inf", "empty"])
    def test_gateaux_bad_hs_leaves_no_directory(self, tmp_path, capsys,
                                                monkeypatch, hs):
        monkeypatch.setattr(cli, "gateaux_residual", _solver_must_not_start)
        out = tmp_path / "out"
        assert main(["gateaux", "--mesh", "0.0625", "--out", str(out),
                     "--hs", hs]) == 1
        assert "configuration error:" in capsys.readouterr().err
        assert not out.exists()

    def test_gateaux_data_nonnegative_no_warning(self, tmp_path, capsys):
        # rho0 + h sigma0 >= 0 keeps the speed-argument clamp out of the
        # residual; its warning would flag a negative smoothed density
        _, rho0, sigma0 = gateaux_benchmark()
        for h in (0.2, 0.1, 0.05, 0.025, 2.0):
            assert (rho0.data + h * sigma0.data).min() >= 0.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["gateaux", "--out", str(tmp_path)]) == 0
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    def test_stability_identical_configs(self, tmp_path, capsys):
        code = main(["stability", "--preset", "crossing", "--mesh", "0.2",
                     "--tmax", "0.2", "--out", str(tmp_path),
                     "--perturb", "0"])
        assert code == 0
        rows = (tmp_path / "stability.csv").read_text().splitlines()[1:]
        for row in rows:
            _, dist, bound, _ = row.split(",")
            assert float(dist) == 0.0
            assert float(bound) == 0.0

    def test_stability_time_within_1e_12_of_zero(self, tmp_path, capsys):
        # run reports such a time as its t = 0 call: the rows are those of
        # the same config without it
        results = []
        for i, times in enumerate(("0 1e-13 0.01", "0 0.01")):
            ini, out = tmp_path / f"{i}.ini", tmp_path / str(i)
            ini.write_text("[grid]\nmesh = 0.4\n[model]\npreset = crossing\n"
                           f"tmax = 0.01\nsnapshot_times = {times}\n")
            assert main(["stability", "--config", str(ini),
                         "--out", str(out)]) == 0
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            results.append((stdout, (out / "stability.csv").read_bytes()))
        assert results[0] == results[1]
        assert len(results[0][1].splitlines()) == 3

    @pytest.mark.parametrize("perturb", ["nan", "inf", "-0.1"])
    def test_stability_bad_perturb_exit_code(self, tmp_path, capsys,
                                             monkeypatch, perturb):
        monkeypatch.setattr(cli, "run", _solver_must_not_start)
        out = tmp_path / "out"
        assert main(["stability", "--preset", "crossing", "--mesh", "0.4",
                     "--tmax", "0.1", "--perturb", perturb,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "configuration error: perturbation size")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["crossing", "evacuation"])
    def test_stability_envelope_uses_running_gradient(self, tmp_path, capsys,
                                                      monkeypatch, name):
        # kappa0 is a sup over [0, t], so grad_v_sup must cover every step
        # of both runs, not only the two data
        seen = []
        bound = analysis.stability_bound_deviation

        def spy(t, bi1, bi2, deltas):
            seen.append(bi1.grad_v_sup)
            return bound(t, bi1, bi2, deltas)

        monkeypatch.setattr(analysis, "stability_bound_deviation", spy)
        assert main(["stability", "--preset", name, "--mesh", "0.4",
                     "--tmax", "0.5", "--out", str(tmp_path)]) == 0

        model, datum1 = preset(name).with_mesh(0.4).build()
        model = replace(model, t_max=0.5, snapshot_times=())
        data2 = datum1.data.copy()
        data2[0] *= 1.0 - 0.1 / datum1.mass()[0]  # the default --perturb
        sups = []
        for datum in (datum1, PopulationField(model.grid, data2)):
            run(model, datum, on_step=lambda r, s, W: sups.append(
                sup_gradient(W, model.grid)))
        assert seen and all(g == max(sups) for g in seen)
        assert max(sups) > sup_gradient(advection_field(datum1, model),
                                        model.grid)

    def test_config_error_exit_code(self, capsys):
        assert main(["run", "--preset", "nope"]) == 1
        assert main(["run"]) == 1
        assert main(["frobnicate"]) == 1
        assert main(["run", "--preset", "crossing", "--threads", "2"]) == 1

    @pytest.mark.parametrize("section,key,value", [
        ("population.1", "eps", "0.3 x"),
        # a reversed rectangle passes the bounds test but holds no cell,
        # and a NaN corner passes it too: both fail before the run
        ("population.1", "datum", "0.9 -3.2 -2.4 -6.4 2.4"),
        ("population.1", "datum", "0.9 nan -2.4 -3.2 2.4"),
        ("model", "snapshot_times", "0 a"),
        ("grid", "exits", "left:a:3"),
        ("output", "diag_every", "ten"),
        ("output", "diag_every", "2.5"),
        ("output", "diag_every", "0"),
        ("output", "diag_every", "-2")])
    def test_bad_config_value_exit_code(self, tmp_path, capsys, section, key,
                                        value):
        sections = {"model": "preset = crossing\ntmax = 0.05\n",
                    "grid": "mesh = 0.4\n"}
        sections[section] = sections.get(section, "") + f"{key} = {value}\n"
        p = tmp_path / "c.ini"
        p.write_text("".join(f"[{name}]\n{body}"
                             for name, body in sections.items()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert key in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--mesh", "nan"], ["--mesh", "inf"],
        ["--mesh", "0.4", "--tmax", "nan"],
        ["--mesh", "0.4", "--tmax", "inf"]], ids=" ".join)
    def test_non_finite_flag_exit_code(self, tmp_path, capsys, monkeypatch,
                                       args):
        # rejected when the model is built: the solver never starts
        monkeypatch.setattr(cli, "run", _solver_must_not_start)
        out = tmp_path / "out"
        assert main(["run", "--preset", "crossing", *args,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not out.exists()

    @pytest.mark.parametrize("section,key,value", [
        ("model", "snapshot_times", "0 nan 0.05"),
        ("model", "tmax", "inf"),
        ("grid", "mesh", "nan"),
        ("grid", "bounds", "-8 -4 inf 4"),
        ("kernel", "half_width", "nan"),
        ("kernel", "half_width", "0"),
        ("model", "r", "nan"),
        ("model", "r", "0"),
        ("population.1", "vmax", "nan"),
        ("population.1", "eps", "nan 0"),
        ("population.1", "gx", "inf"),
        ("population.1", "datum", "nan -6 -2 -3 2")])
    def test_non_finite_config_value_exit_code(self, tmp_path, capsys,
                                               monkeypatch, section, key,
                                               value):
        monkeypatch.setattr(cli, "run", _solver_must_not_start)
        sections = {"model": {"preset": "crossing", "tmax": "0.05"},
                    "grid": {"mesh": "0.4"}}
        sections.setdefault(section, {})[key] = value
        p = tmp_path / "c.ini"
        p.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
            for name, body in sections.items()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not out.exists()

    def test_empty_room_exit_code(self, tmp_path, capsys, monkeypatch):
        # an inverted room holds no cell center: rejected with the grid
        monkeypatch.setattr(cli, "run", _solver_must_not_start)
        p = tmp_path / "c.ini"
        p.write_text("[model]\npreset = crossing\n"
                     "[grid]\nmesh = 0.2\nroom = 3 2 -3 -2\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "room holds no cell center" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "bounds", "stability"])
    def test_datum_outside_room_exit_code(self, tmp_path, capsys, command):
        # y from 3.2 to 3.8 lies above the room's top wall at y = 3: the
        # whole block would sit in wall cells
        p = tmp_path / "c.ini"
        p.write_text("[model]\npreset = crossing\ntmax = 0.05\n"
                     "[grid]\nmesh = 0.4\n"
                     "[population.1]\ndatum = 0.9 -6.4 3.2 -3.2 3.8\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "outside the room" in err
        assert not list(out.glob("pop*_t*.csv"))

    @pytest.mark.parametrize("command", ["run", "bounds", "stability"])
    def test_datum_outside_room_leaves_no_output(self, tmp_path, capsys,
                                                 monkeypatch, command):
        # rejected before the output directory and the envelope inputs
        monkeypatch.setattr(analysis, "bound_inputs_for",
                            _solver_must_not_start)
        p = tmp_path / "c.ini"
        p.write_text("[model]\npreset = crossing\ntmax = 0.05\n"
                     "[grid]\nmesh = 0.4\n"
                     "[population.1]\ndatum = 0.9 -6.4 3.2 -3.2 3.8\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(p), "--out", str(out)]) == 1
        assert "outside the room" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("how", ["flag", "ini"])
    def test_strict_differentiable_run_exit_code(self, tmp_path, capsys,
                                                 monkeypatch, how):
        # run's strict mode checks only the deviation family's maximum
        # principle: on a differentiable run it would check nothing
        monkeypatch.setattr(cli, "run", _solver_must_not_start)
        p = tmp_path / "c.ini"
        p.write_text(DIFFERENTIABLE_INI
                     + ("strict = true\n" if how == "ini" else ""))
        out = tmp_path / "out"
        argv = ["run", "--config", str(p), "--out", str(out)]
        assert main(argv + (["--strict"] if how == "flag" else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "strict" in err
        assert not out.exists()

    @pytest.mark.parametrize("strict", [[], ["--strict"]],
                             ids=["plain", "strict"])
    def test_bounds_differentiable_exit_code(self, tmp_path, capsys,
                                             monkeypatch, strict):
        # the differentiable family's L-infinity and TV estimates overflow
        # before the first output time: bounds would check nothing
        monkeypatch.setattr(cli, "run", _solver_must_not_start)
        p = tmp_path / "c.ini"
        p.write_text(DIFFERENTIABLE_INI)
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(p), "--out", str(out),
                     *strict]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "deviation" in err
        assert not out.exists()

    def test_diagnostics_every_step_has_no_repeated_row(self, tmp_path,
                                                         capsys):
        p = tmp_path / "c.ini"
        p.write_text("[model]\npreset = evacuation\ntmax = 0.2\n"
                     "[grid]\nmesh = 0.4\n[output]\ndiag_every = 1\n")
        assert main(["run", "--config", str(p), "--out", str(tmp_path)]) == 0
        steps = int(capsys.readouterr().out.split("steps = ")[1].split()[0])
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]
        ts = [float(row.split(",")[0]) for row in lines]
        assert len(ts) == steps + 1
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_eps_row_length_exit_code(self, tmp_path, capsys):
        p = tmp_path / "c.ini"
        p.write_text("[model]\npreset = crossing\n[grid]\nmesh = 0.4\n"
                     "[population.1]\neps = 0.3\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 1
        assert "avoidance row has 1 entries" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "bounds"])
    def test_colliding_snapshot_names_rejected(self, tmp_path, capsys,
                                               command):
        # 0.0011 and 0.0014 would both be written as pop*_t0.001.csv
        p = tmp_path / "c.ini"
        p.write_text("[model]\npreset = crossing\ntmax = 0.002\n"
                     "snapshot_times = 0 0.0011 0.0014 0.002\n"
                     "[grid]\nmesh = 0.4\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(p), "--out", str(out)]) == 1
        assert "t0.001" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--preset", "crossing", "--mesh", "0.4", "--tmax", "0.01"],
        ["bounds", "--preset", "crossing", "--mesh", "0.4", "--tmax", "0.01"],
        ["gateaux", "--mesh", "0.125", "--tmax", "0.05"],
        ["stability", "--preset", "crossing", "--mesh", "0.4",
         "--tmax", "0.01"]], ids=lambda a: a[0])
    def test_unusable_out_dir_exit_code(self, tmp_path, capsys, argv):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main([*argv, "--out", str(blocker / "x")]) == 1
        assert capsys.readouterr().err.startswith("configuration error:")

    def test_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["run", "--preset", "crossing", "--mesh", "0.2",
                         "--tmax", "0.2", "--out", str(out)]) == 0
        for name in sorted(os.listdir(out1)):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, name


# SHA-256 of every file the two commands write, as a whole-grid sweep
# gives them.  Both runs have mass leaving through an exit.  The last bits
# depend on the BLAS build, as the envelope-input pins of test_analysis.py
# do.
PINNED_OUTPUTS = {
    ("run", "--preset", "crossing", "--mesh", "0.2"): {
        "diagnostics.csv":
            "1341ae2efc29568011216b63a02b4a41b64c993c6e0b49e05200698b5b0659ad",
        "pop1_t0.000.csv":
            "a6edf4f3d4a4258156c711145de162006e6716db4e2bcba548d4bddf55571e2f",
        "pop1_t1.000.csv":
            "a2f8c37487fdb2c4bcd77d7ef21643799254e15a4bd9724f932eec1b788512dc",
        "pop2_t0.000.csv":
            "08289275f2eec19df39ba855b88de1695c277eae3f8ac78f7447e2cf1159836c",
        "pop2_t1.000.csv":
            "5f9f922c885061a9820267a3f930774a07ad61ee7f5bdbad257a88e3271e853f",
    },
    ("bounds", "--preset", "evacuation", "--mesh", "0.2"): {
        "bounds.csv":
            "25364e6098d8c4b3702cb0724ac0aee618e51bb83ecfd3be8aaf9bc0b1308c7a",
        "diagnostics.csv":
            "b539b6a1ba590a8c402436a8a9f75020b254226919a34d20e6755f20e1103163",
        "pop1_t0.000.csv":
            "fbb0070ea35e36abaf2a0a98b45a5ee09d76e65972bdcaf962724a7e5e359684",
        "pop1_t1.000.csv":
            "136b05ec71aaec9cd1aa09ef76104074dca6d59d94d37014f865131d8e21aa8d",
        "pop2_t0.000.csv":
            "fbb0070ea35e36abaf2a0a98b45a5ee09d76e65972bdcaf962724a7e5e359684",
        "pop2_t1.000.csv":
            "48aba44c6d57445c1dc367e72df0fe23cf2c99d4991f83fbd2f168f5f9fa83bd",
    },
}


@pytest.mark.parametrize("argv", list(PINNED_OUTPUTS), ids=lambda a: a[0])
def test_outputs_pinned(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    # mass has left through an exit, so the pins cover the exit faces
    header, *_, last = (tmp_path / "diagnostics.csv").read_text().splitlines()
    row = dict(zip(header.split(","), map(float, last.split(","))))
    assert row["escaped_1"] > 0 and row["escaped_2"] > 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in os.listdir(tmp_path)}
    assert digests == PINNED_OUTPUTS[argv]


# SHA-256 of every file of two paths that the pins above leave out: the
# stability table, and a differentiable run, whose diagnostics.csv has no
# tv_bound columns ("{ini}" stands for an INI file of DIFFERENTIABLE_INI)
DIFFERENTIABLE_INI = ("[grid]\nmesh = 0.2\n[model]\npreset = crossing\n"
                      "family = differentiable\ntmax = 0.3\n"
                      "snapshot_times = 0 0.1 0.3\n")
PINNED_ENVELOPES = {
    ("stability", "--preset", "crossing", "--mesh", "0.2"): {
        "stability.csv":
            "769fab8cdaa07ba2173585a2759423a0534407bd471ea9e38ab332e36626c2f7",
    },
    ("run", "--config", "{ini}"): {
        "diagnostics.csv":
            "26a94bb9267ddebcf7d6dbd4bb184f8cb1d84318b5a845e4dda96f2b8af2a225",
        "pop1_t0.000.csv":
            "a6edf4f3d4a4258156c711145de162006e6716db4e2bcba548d4bddf55571e2f",
        "pop1_t0.100.csv":
            "d1e73c4302aed792a6e06e23e1b56fa12e99de5d4ea909055f25615a73e40dce",
        "pop1_t0.300.csv":
            "7354d4df0c9261e7f07ebff5c7d535de94f71c453115ffdffee4e411ff52c8ab",
        "pop2_t0.000.csv":
            "08289275f2eec19df39ba855b88de1695c277eae3f8ac78f7447e2cf1159836c",
        "pop2_t0.100.csv":
            "029451d49d6eb1bedd117016d8f45b9eb0997d328d43be7cccc72db139316833",
        "pop2_t0.300.csv":
            "055f72310902097e84da62e15df2a76986b6da787b163a65030882562e6e701b",
    },
}


@pytest.mark.parametrize("argv", list(PINNED_ENVELOPES),
                         ids=["stability", "run-differentiable"])
def test_envelope_outputs_pinned(tmp_path, capsys, argv):
    ini = tmp_path / "differentiable.ini"
    ini.write_text(DIFFERENTIABLE_INI)
    out = tmp_path / "out"
    assert main([a.format(ini=ini) for a in argv] + ["--out", str(out)]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in os.listdir(out)}
    assert digests == PINNED_ENVELOPES[argv]


CROSSING_COARSE_INI = ("[grid]\nmesh = 0.2\n[model]\npreset = crossing\n"
                       "tmax = 0.3\n")


@functools.lru_cache(maxsize=None)
def run_outputs(ini: str) -> tuple[str, dict[str, bytes]]:
    """stdout of `crowdflow run` on the INI text, and the bytes of each
    snapshot it writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "c.ini"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            fh.write(ini)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["run", "--config", path, "--out", out]) == 0
        return stdout.getvalue(), {
            name: Path(out, name).read_bytes()
            for name in os.listdir(out) if name.startswith("pop")}


_coefficient = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=6, deadline=None)
@given(vmax=st.floats(0.0, 10.0), gx=st.floats(-2.0, 2.0),
       gy=st.floats(-2.0, 2.0), row=st.tuples(*[_coefficient] * 3))
@example(vmax=8.0, gx=0.0, gy=1.0, row=(0.0, 0.0, 0.0))
def test_empty_population_changes_no_other_output(vmax, gx, gy, row):
    # a population with no mass moves nothing, whatever its speed,
    # direction and avoidance row: the others' snapshots, the step count
    # and the mass line stay byte-identical
    three = (CROSSING_COARSE_INI
             + "[population.1]\neps = 0.3 0.7 0\n"
             + "[population.2]\neps = 0.7 0.3 0\n"
             + f"[population.3]\nvmax = {vmax!r}\ngx = {gx!r}\n"
             + f"gy = {gy!r}\neps = {' '.join(map(repr, row))}\n")
    stdout, snaps = run_outputs(CROSSING_COARSE_INI)
    stdout3, snaps3 = run_outputs(three)
    assert stdout3 == stdout
    assert {name: snaps3[name] for name in snaps} == snaps
    assert len(snaps3) == 3 * len(snaps) // 2


def test_gateaux_table_pinned(tmp_path, capsys):
    # the linearized step and the replays, to the residual table's last bit
    argv = ["gateaux", "--mesh", "0.0625", "--tmax", "0.1"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / "gateaux.csv").read_bytes())
    assert digest.hexdigest() == (
        "dd34171b6e52605ec1c2eafb42ddb5b212feb3acc5d800285bbc82eb95893b78")


def test_gateaux_clamp_warning_as_in_sequence(tmp_path):
    # h = 8 takes the replays below 0, so they meet the speed-argument
    # clamp in the caller and in its workers; in fresh processes, with
    # the default warning filters, its warning shows once, as in sequence
    if forked._openblas_threads() is None:
        pytest.skip("no OpenBLAS thread control: the replays never fork")
    src = os.path.dirname(os.path.dirname(crowdflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def gateaux(cpus):
        code = ("import sys; from crowdflow import cli, forked; "
                f"forked._usable_cpus = lambda: {cpus}; "
                "sys.exit(cli.main(sys.argv[1:]))")
        cwd = tmp_path / str(cpus)
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", code, "gateaux", "--mesh", "0.0625",
             "--hs", "8,4,2,1", "--out", "out"],
            cwd=cwd, env=env, capture_output=True, text=True, check=True)
        table = (cwd / "out" / "gateaux.csv").read_bytes()
        return proc.stdout, proc.stderr, table

    sequential = gateaux(1)
    assert sequential[1].count("negative convolved density clamped") == 1
    assert gateaux(2) == sequential
    assert gateaux(3) == sequential


def test_import_does_not_load_scipy():
    # the tests import scipy for their oracles, so check in a fresh process
    src = os.path.dirname(os.path.dirname(crowdflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, crowdflow, crowdflow.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
