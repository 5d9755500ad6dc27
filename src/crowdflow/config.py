"""Run configuration: presets, config-file parsing, model assembly.

A RunConfig is a plain description (numbers and names only) that can be
turned into a ModelSpec plus initial datum.  Explicit configurations
cover the span of the built-in experiments: linear or constant speed
laws, constant geodesic directions with wall discomfort, polynomial
bump kernels, and gradient-avoidance couplings given by a matrix of
coefficients.  Anything richer is built directly against the library.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace

from .errors import ConfigurationError
from .grid import Exit, GridSpec, PopulationField, Rect, indicator_datum, make_grid
from .kernel import bump_kernel, sample_kernel
from .nonlocal_ops import GradientAvoidance
from .solver import DEVIATION, DIFFERENTIABLE, ModelSpec
from .velocity import constant_direction, linear_speed_law

PRESETS = ("crossing", "evacuation")


@dataclass
class PopulationConfig:
    vmax: float = 4.0
    gx: float = 0.0
    gy: float = 0.0
    eps: tuple[float, ...] = ()      # gradient-avoidance row, one entry per pop
    datum_value: float = 0.0
    datum_rect: Rect | None = None


@dataclass
class RunConfig:
    family: str = DEVIATION
    bounds: Rect = (-8.0, -4.0, 8.0, 4.0)
    dx: float = 0.025
    dy: float = 0.025
    room: Rect = (-8.0, -3.0, 8.0, 3.0)
    exits: tuple[Exit, ...] = (("left", -3.0, 3.0), ("right", -3.0, 3.0))
    populations: tuple[PopulationConfig, ...] = ()
    R: float = 1.0
    delta_max: float = 0.8
    delta_r: float = 0.75
    kernel_half_width: float = 0.5
    normalize_kernel: bool = False
    cfl: float = 0.9
    t_max: float = 1.0
    snapshot_times: tuple[float, ...] = ()
    strict: bool = False
    out_dir: str = "out"
    diag_every: int = 10

    @property
    def n(self) -> int:
        return len(self.populations)

    def with_mesh(self, h: float) -> "RunConfig":
        return replace(self, dx=h, dy=h)

    def build_grid(self) -> GridSpec:
        return make_grid(self.bounds, self.dx, self.dy, self.room, self.exits)

    def build(self) -> tuple[ModelSpec, PopulationField]:
        """Assemble the solver model and the initial datum."""
        if self.n == 0:
            raise ConfigurationError("configuration defines no populations")
        grid = self.build_grid()
        kern = sample_kernel(
            bump_kernel(self.kernel_half_width, self.normalize_kernel), grid)
        laws, dirs, eps = [], [], []
        for p in self.populations:
            laws.append(linear_speed_law(p.vmax, self.R))
            dirs.append(constant_direction(grid, p.gx, p.gy,
                                           self.delta_max, self.delta_r))
            eps.append(self._avoidance_row(p))
        snaps = tuple(self.snapshot_times) or (0.0, self.t_max)
        model = ModelSpec(
            family=self.family, grid=grid, laws=tuple(laws), dirs=tuple(dirs),
            kernels=tuple(kern for _ in self.populations),
            deviation=(GradientAvoidance(eps, kern)
                       if self.family == DEVIATION else None),
            R=self.R, cfl=self.cfl, t_max=self.t_max,
            snapshot_times=snaps, strict=self.strict)
        data = []
        for p in self.populations:
            if p.datum_rect is None:
                data.append(PopulationField.zeros(grid, 1).data[0])
            else:
                data.append(indicator_datum(grid, p.datum_value, p.datum_rect))
        return model, PopulationField.from_arrays(grid, *data)

    def _avoidance_row(self, p: PopulationConfig) -> tuple[float, ...]:
        eps = p.eps if p.eps else (0.0,) * self.n
        if len(eps) != self.n:
            raise ConfigurationError(
                f"avoidance row has {len(eps)} entries for {self.n} populations")
        return eps


def preset(name: str) -> RunConfig:
    """Built-in experiment configurations.

    crossing: two populations walking towards each other in a corridor,
    steered away from the smoothed density gradients of both groups
    (self-coupling 0.3, cross-coupling 0.7), datum 0.9 and 0.7 on
    opposite blocks.  evacuation: population 1 heads for the right exit
    avoiding population 2; population 2 only yields (no geodesic drive),
    coupling 0.3, both data 0.5 on the same block.
    """
    if name == "crossing":
        pops = (
            PopulationConfig(vmax=4.0, gx=1.0, gy=0.0, eps=(0.3, 0.7),
                             datum_value=0.9,
                             datum_rect=(-6.4, -2.4, -3.2, 2.4)),
            PopulationConfig(vmax=4.0, gx=-1.0, gy=0.0, eps=(0.7, 0.3),
                             datum_value=0.7,
                             datum_rect=(3.2, -2.4, 6.4, 2.4)),
        )
        return RunConfig(family=DEVIATION, populations=pops)
    if name == "evacuation":
        pops = (
            PopulationConfig(vmax=4.0, gx=1.0, gy=0.0, eps=(0.0, 0.3),
                             datum_value=0.5,
                             datum_rect=(-6.4, -2.4, -3.2, 2.4)),
            PopulationConfig(vmax=4.0, gx=0.0, gy=0.0, eps=(0.3, 0.0),
                             datum_value=0.5,
                             datum_rect=(-6.4, -2.4, -3.2, 2.4)),
        )
        return RunConfig(family=DEVIATION, populations=pops)
    raise ConfigurationError(
        f"unknown preset {name!r}; valid presets: {', '.join(PRESETS)}")


# ---------------------------------------------------------------------------
# config-file format: INI-style sections [grid], [model], [population.i],
# [kernel], [output]; a `preset` key in [model] seeds the configuration and
# every other key overrides it field by field.

_GRID_KEYS = frozenset({"bounds", "mesh", "dx", "dy", "room", "exits"})
_MODEL_KEYS = frozenset({"preset", "family", "tmax", "cfl", "strict", "r",
                         "snapshot_times"})
_POP_KEYS = frozenset({"vmax", "gx", "gy", "eps", "datum"})
_KERNEL_KEYS = frozenset({"half_width", "normalize"})
_OUTPUT_KEYS = frozenset({"dir", "diag_every"})


def parse_config(path: str) -> RunConfig:
    cp = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}") from exc

    model_sec = dict(cp["model"]) if cp.has_section("model") else {}
    _check_keys("model", model_sec, _MODEL_KEYS)
    cfg = preset(model_sec["preset"]) if "preset" in model_sec else RunConfig()

    pops = list(cfg.populations)
    for sec in cp.sections():
        if sec in ("grid", "model", "kernel", "output"):
            continue
        if not sec.startswith("population."):
            raise ConfigurationError(f"unknown config section [{sec}]")
        try:
            idx = int(sec.split(".", 1)[1]) - 1
        except ValueError:
            raise ConfigurationError(f"bad population section name [{sec}]")
        if idx < 0:
            raise ConfigurationError(f"population indices start at 1 ([{sec}])")
        while len(pops) <= idx:
            pops.append(PopulationConfig())
        pops[idx] = _parse_population(sec, dict(cp[sec]), pops[idx])
    if pops:
        cfg = replace(cfg, populations=tuple(pops))

    if cp.has_section("grid"):
        cfg = _parse_grid(dict(cp["grid"]), cfg)
    cfg = _parse_model(model_sec, cfg)
    if cp.has_section("kernel"):
        cfg = _parse_kernel(dict(cp["kernel"]), cfg)
    if cp.has_section("output"):
        cfg = _parse_output(dict(cp["output"]), cfg)
    return cfg


def _check_keys(section: str, got: dict, allowed: frozenset) -> None:
    for key in got:
        if key not in allowed:
            raise ConfigurationError(
                f"unknown key {key!r} in section [{section}]")


def _numbers(text: str, n: int | None, what: str,
             kind: type = float) -> tuple:
    """The n (None: any number of) comma/space-separated values, as kind."""
    parts = [p for p in text.replace(",", " ").split() if p]
    if n is not None and len(parts) != n:
        raise ConfigurationError(f"{what} needs {n} numbers, got {text!r}")
    try:
        return tuple(kind(p) for p in parts)
    except ValueError as exc:
        raise ConfigurationError(f"bad number in {what}: {exc}") from exc


def _bool(text: str, what: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"bad boolean for {what}: {text!r}")


def _parse_grid(sec: dict, cfg: RunConfig) -> RunConfig:
    _check_keys("grid", sec, _GRID_KEYS)
    if "bounds" in sec:
        bounds = _numbers(sec["bounds"], 4, "bounds")
        cfg = replace(cfg, bounds=bounds)
        # a new domain invalidates an inherited room/exit layout
        if "room" not in sec:
            cfg = replace(cfg, room=bounds)
        if "exits" not in sec:
            cfg = replace(cfg, exits=())
    if "mesh" in sec:
        h = _numbers(sec["mesh"], 1, "mesh")[0]
        cfg = replace(cfg, dx=h, dy=h)
    if "dx" in sec:
        cfg = replace(cfg, dx=_numbers(sec["dx"], 1, "dx")[0])
    if "dy" in sec:
        cfg = replace(cfg, dy=_numbers(sec["dy"], 1, "dy")[0])
    if "room" in sec:
        cfg = replace(cfg, room=_numbers(sec["room"], 4, "room"))
    if "exits" in sec:
        exits = []
        for part in sec["exits"].split(";"):
            part = part.strip()
            if not part:
                continue
            bits = part.split(":")
            if len(bits) != 3:
                raise ConfigurationError(
                    f"exit must be side:lo:hi, got {part!r}")
            lo, hi = _numbers(f"{bits[1]} {bits[2]}", 2,
                              f"exits entry {part!r}")
            exits.append((bits[0].strip(), lo, hi))
        cfg = replace(cfg, exits=tuple(exits))
    return cfg


def _parse_model(sec: dict, cfg: RunConfig) -> RunConfig:
    if "family" in sec:
        fam = sec["family"].strip()
        if fam not in (DIFFERENTIABLE, DEVIATION):
            raise ConfigurationError(f"unknown family {fam!r}")
        cfg = replace(cfg, family=fam)
    if "tmax" in sec:
        cfg = replace(cfg, t_max=_numbers(sec["tmax"], 1, "tmax")[0])
    if "cfl" in sec:
        cfg = replace(cfg, cfl=_numbers(sec["cfl"], 1, "cfl")[0])
    if "r" in sec:
        cfg = replace(cfg, R=_numbers(sec["r"], 1, "r")[0])
    if "strict" in sec:
        cfg = replace(cfg, strict=_bool(sec["strict"], "strict"))
    if "snapshot_times" in sec:
        cfg = replace(cfg, snapshot_times=_numbers(
            sec["snapshot_times"], None, "snapshot_times"))
    return cfg


def _parse_population(name: str, sec: dict,
                      pop: PopulationConfig) -> PopulationConfig:
    _check_keys(name, sec, _POP_KEYS)
    if "vmax" in sec:
        pop = replace(pop, vmax=_numbers(sec["vmax"], 1, "vmax")[0])
    if "gx" in sec:
        pop = replace(pop, gx=_numbers(sec["gx"], 1, "gx")[0])
    if "gy" in sec:
        pop = replace(pop, gy=_numbers(sec["gy"], 1, "gy")[0])
    if "eps" in sec:
        pop = replace(pop, eps=_numbers(sec["eps"], None, "eps"))
    if "datum" in sec:
        vals = _numbers(sec["datum"], 5, "datum (value x0 y0 x1 y1)")
        pop = replace(pop, datum_value=vals[0], datum_rect=vals[1:])
    return pop


def _parse_kernel(sec: dict, cfg: RunConfig) -> RunConfig:
    _check_keys("kernel", sec, _KERNEL_KEYS)
    if "half_width" in sec:
        cfg = replace(cfg,
                      kernel_half_width=_numbers(sec["half_width"], 1,
                                                "half_width")[0])
    if "normalize" in sec:
        cfg = replace(cfg, normalize_kernel=_bool(sec["normalize"], "normalize"))
    return cfg


def _parse_output(sec: dict, cfg: RunConfig) -> RunConfig:
    _check_keys("output", sec, _OUTPUT_KEYS)
    if "dir" in sec:
        cfg = replace(cfg, out_dir=sec["dir"].strip())
    if "diag_every" in sec:
        every = _numbers(sec["diag_every"], 1, "diag_every", int)[0]
        if every < 1:
            raise ConfigurationError(
                f"diag_every must be a positive integer, got {every}")
        cfg = replace(cfg, diag_every=every)
    return cfg
