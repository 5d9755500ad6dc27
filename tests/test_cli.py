import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import crowdflow
from crowdflow import (ConfigurationError, PopulationField,
                       advection_field, gateaux_benchmark, parse_config,
                       preset, run)
from crowdflow import cli
from crowdflow.analysis import sup_gradient
from crowdflow.cli import _write_table, main, read_snapshot, write_snapshot
from crowdflow.grid import make_grid


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
        monkeypatch.setattr(cli, "tv_bound_deviation",
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
        for hs in ("0.1,abc", "0.1,-0.05", ","):
            assert main(["gateaux", "--mesh", "0.125", "--tmax", "0.05",
                         "--out", str(tmp_path), "--hs", hs]) == 1
            assert "configuration error:" in capsys.readouterr().err

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

    @pytest.mark.parametrize("name", ["crossing", "evacuation"])
    def test_stability_envelope_uses_running_gradient(self, tmp_path, capsys,
                                                      monkeypatch, name):
        # kappa0 is a sup over [0, t], so grad_v_sup must cover every step
        # of both runs, not only the two data
        seen = []
        bound = cli.stability_bound_deviation

        def spy(t, bi1, bi2, deltas):
            seen.append(bi1.grad_v_sup)
            return bound(t, bi1, bi2, deltas)

        monkeypatch.setattr(cli, "stability_bound_deviation", spy)
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
