"""Line-based ``key = value`` experiment configuration.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment,
blank lines ignored.  Unknown keys, duplicate keys, type mismatches and
range violations are all collected (with line numbers) and reported
together, not one at a time.
"""

from __future__ import annotations

import dataclasses

from .errors import ConfigError

# kinds that start from the Barenblatt closed form at t0
_BARENBLATT_KINDS = ("barenblatt-fit", "barenblatt-accuracy-study")
# kinds that exercise the degenerate free boundary and hence need p > 2
_FINITE_SPEED_KINDS = _BARENBLATT_KINDS + ("halfspace-fsp", "energy-ledger")
# kinds that run the fluid on the 2*pi-periodic box
_FLUID_KINDS = ("fluid2d-taylor-green", "weak-residual-study")
EXPERIMENT_KINDS = _FINITE_SPEED_KINDS + _FLUID_KINDS + (
    "stampacchia-suite", "interpolation-suite", "exponent-identities")


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(tok.strip()) for tok in s.split(","))


def _parse_bounds(s: str) -> tuple[tuple[float, float], ...]:
    out = []
    for tok in s.split(","):
        lo, hi = tok.split(":")
        out.append((float(lo), float(hi)))
    return tuple(out)


_COERCE = {
    "str": lambda s: s.strip(),
    "float": float,
    "int": int,
    "bool": _parse_bool,
    "ints": _parse_ints,
    "bounds": _parse_bounds,
}

# key -> (type name, default, help)
SCHEMA: dict[str, tuple[str, object, str]] = {
    "experiment": ("str", None, "experiment kind (required)"),
    "outdir": ("str", "out", "output directory"),
    "seed": ("int", 0, "random seed for seeded suites"),
    "svg": ("bool", True, "emit SVG plots"),
    # model
    "p": ("float", 3.0, "stress growth exponent"),
    "mu1": ("float", 1.0, "viscosity coefficient, > 0"),
    "dimension": ("int", 1, "spatial dimension, 1 or 2"),
    # grid
    "cells": ("ints", (4096,), "cells per axis; the accuracy study's grids"),
    "bounds": ("bounds", ((-8.0, 8.0),), "box per axis as lo:hi[,lo:hi]"),
    # time
    "t0": ("float", 1.0, "profile birth time / data shape parameter"),
    "t_end": ("float", 100.0, "final absolute time"),
    "snapshots_per_decade": ("int", 32, "log-schedule snapshot density"),
    # solver
    "stepper": ("str", "implicit", "explicit or implicit"),
    "tol_inner": ("float", 1e-10, "proximal optimality tolerance"),
    # fronts
    "t_ref": ("float", 0.1, "envelope calibration time"),
    "height_c": ("float", 1.0, "profile height constant"),
    "exponent_tol": ("float", 0.05, "relative tolerance on the fitted exponent"),
    # energetics
    "refine_check": ("bool", True, "repeat on a coarser grid for stability"),
    # suites
    "export_trajectory": ("bool", False, "write one CSV per snapshot plus index"),
}


@dataclasses.dataclass
class ExperimentConfig:
    """Validated configuration: ``kind`` plus resolved values per key."""

    kind: str
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]


def _validate(values: dict, lines: dict) -> list:
    """Range checks against module preconditions; returns (line, msg) pairs."""
    errs = []

    def line_of(key):
        return lines.get(key)

    kind = values.get("experiment")
    if kind is None:
        errs.append((None, "missing required key 'experiment'"))
        return errs
    if kind not in EXPERIMENT_KINDS:
        errs.append((line_of("experiment"),
                     f"unknown experiment {kind!r}; valid: {', '.join(EXPERIMENT_KINDS)}"))
        return errs

    def need(cond, key, msg):
        if not cond:
            errs.append((line_of(key), f"{key}: {msg}"))

    p = values["p"]
    need(values["mu1"] > 0, "mu1", "must be > 0")
    need(values["dimension"] in (1, 2), "dimension", "must be 1 or 2")
    if kind in _FINITE_SPEED_KINDS:
        need(p > 2, "p", f"finite-speed experiments require p > 2, got {p}")
    if kind == "fluid2d-taylor-green":
        need(p == 2, "p", "Taylor-Green decays at rate 2*mu1 only at p = 2, "
                          f"got {p}")
    elif kind == "weak-residual-study":
        need(p >= 2, "p", f"fluid experiments require p >= 2, got {p}")
    if kind in _FLUID_KINDS:
        need(values["dimension"] == 2, "dimension", "fluid experiments are 2-D")
        need(len(set(values["cells"])) == 1, "cells",
             "fluid experiments run a square grid: entries must be equal")
        need("bounds" not in lines, "bounds", "fluid experiments run on the "
                                              "2*pi-periodic box [0, 2*pi]^2")
    need(values["stepper"] in ("explicit", "implicit"), "stepper",
         "must be 'explicit' or 'implicit'")
    need(values["tol_inner"] > 0, "tol_inner", "must be > 0")
    need(values["t_end"] > 0, "t_end", "must be > 0")
    need(values["t0"] > 0, "t0", "must be > 0")
    if kind in _BARENBLATT_KINDS:
        # the run starts from the closed form at t0
        need(values["t_end"] > values["t0"], "t_end",
             f"must exceed t0 = {values['t0']}")
    need(all(hi > lo for lo, hi in values["bounds"]), "bounds",
         "upper must exceed lower")
    cells, dim = values["cells"], values["dimension"]
    if kind == "barenblatt-accuracy-study":
        # the study's 1-D grids are its cells list
        need(dim == 1, "dimension", "the accuracy study runs 1-D grids")
        need(values["stepper"] == "explicit" or "stepper" not in lines,
             "stepper", "the accuracy study runs the explicit stepper")
        need(len(cells) >= 2 and all(c >= 2 for c in cells), "cells",
             "the accuracy study needs at least two grids, of at least 2 "
             "cells each")
    else:
        need(all(c >= 1 for c in cells), "cells", "must be positive")
        if len(cells) not in (1, dim):
            errs.append((line_of("cells"),
                         f"cells: need 1 or {dim} entries for dimension {dim}"))
    if len(values["bounds"]) not in (1, dim):
        errs.append((line_of("bounds"),
                     f"bounds: need 1 or {dim} entries for dimension {dim}"))
    need(values["height_c"] > 0, "height_c", "must be > 0")
    need(values["snapshots_per_decade"] > 0, "snapshots_per_decade", "must be > 0")
    return errs


def parse_config(text: str, overrides: dict,
                 defaults: dict | None = None) -> ExperimentConfig:
    """Parse config text, apply defaults and overrides, validate everything.

    ``overrides`` maps keys to raw string values (command-line flags win
    over the file); ``defaults``, in the same form, replace the schema's
    defaults for keys that neither sets.  Raises :class:`ConfigError`
    carrying *all* problems.
    """
    errs: list = []
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errs.append((lineno, f"expected 'key = value', got {stripped!r}"))
            continue
        key, val = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            errs.append((lineno, f"unknown key {key!r}"))
            continue
        if key in raw:
            errs.append((lineno, f"duplicate key {key!r} (first set on line "
                                 f"{lines[key]})"))
            continue
        raw[key] = val
        lines[key] = lineno

    for key, val in overrides.items():
        if key not in SCHEMA:
            errs.append((None, f"unknown key {key!r} (flag)"))
            continue
        raw[key] = val if isinstance(val, str) else str(val)
        lines[key] = None  # flags win; no line number
    for key, val in (defaults or {}).items():
        raw.setdefault(key, val)

    values: dict = {}
    for key, (typ, default, _help) in SCHEMA.items():
        if key in raw:
            try:
                values[key] = _COERCE[typ](raw[key])
            except (ValueError, TypeError):
                errs.append((lines.get(key),
                             f"{key}: cannot parse {raw[key]!r} as {typ}"))
        elif default is not None:
            values[key] = default

    if "experiment" not in values and not any("experiment" in str(e) for e in errs):
        errs.append((None, "missing required key 'experiment'"))

    if not errs:
        errs.extend(_validate(values, lines))
    if errs:
        raise ConfigError(errs)
    return ExperimentConfig(values["experiment"], values)


def default_config(kind: str, **overrides) -> ExperimentConfig:
    """Programmatic config: defaults for ``kind`` plus keyword overrides."""
    text = f"experiment = {kind}\n"
    ov = {k: (",".join(f"{lo}:{hi}" for lo, hi in v) if k == "bounds" and not isinstance(v, str)
              else ",".join(str(x) for x in v) if isinstance(v, (tuple, list))
              else str(v))
          for k, v in overrides.items()}
    return parse_config(text, ov)
