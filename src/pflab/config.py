"""Line-based ``key = value`` experiment configuration.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment,
blank lines ignored.  ``experiment`` names the kind, which takes only
the keys its run reads, listed in ``KIND_KEYS``.  Unknown keys, keys the
kind does not read, duplicates, type mismatches (non-finite floats
included) and range violations are all collected (with line numbers)
and reported together, not one at a time.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import ConfigError

# the keys a front run reads to build its trajectory: the model, the box,
# the closed-form data and the snapshot schedule
_FRONT_RUN = ("p", "mu1", "dimension", "cells", "bounds", "t0", "t_end",
              "snapshots_per_decade", "height_c")

# kind -> the keys its run reads besides ``experiment``; the fit runs the
# proximal stepper to its tolerance, the half-space kinds and the accuracy
# study the explicit one, the accuracy study on 1-D grids, the fluids on
# the 2-D periodic box, and Taylor-Green the linear stress p = 2
KIND_KEYS = {
    "barenblatt-fit": ("outdir",) + _FRONT_RUN + ("tol_inner", "exponent_tol"),
    "barenblatt-accuracy-study": ("outdir", "p", "mu1", "height_c", "cells",
                                  "bounds", "t0", "t_end"),
    "halfspace-fsp": ("outdir",) + _FRONT_RUN,
    "energy-ledger": ("outdir",) + _FRONT_RUN + ("refine_check",),
    "fluid2d-taylor-green": ("outdir", "mu1", "cells", "t_end"),
    "weak-residual-study": ("outdir", "p", "mu1", "cells", "t_end", "seed"),
    "stampacchia-suite": ("outdir", "seed"),
    "interpolation-suite": ("outdir", "seed"),
    "exponent-identities": ("outdir",),
}
# a kind's defaults where the schema's would not end: 4096^2 cells to
# t = 100 for a fluid; the weak study's are criterion 7's
KIND_DEFAULTS = {"fluid2d-taylor-green": {"cells": (128,), "t_end": 1.0},
                 "weak-residual-study": {"cells": (64,), "t_end": 1.0}}
EXPERIMENT_KINDS = tuple(KIND_KEYS)
# kinds that start from the Barenblatt closed form at t0
_BARENBLATT_KINDS = ("barenblatt-fit", "barenblatt-accuracy-study")
# kinds that exercise the degenerate free boundary and hence need p > 2
_FINITE_SPEED_KINDS = _BARENBLATT_KINDS + ("halfspace-fsp", "energy-ledger")
# kinds that run the fluid on the 2*pi-periodic box
_FLUID_KINDS = ("fluid2d-taylor-green", "weak-residual-study")


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(tok.strip()) for tok in s.split(","))


def _parse_float(s: str) -> float:
    if not math.isfinite(val := float(s)):
        raise ValueError(f"not finite: {s!r}")
    return val


def _parse_bounds(s: str) -> tuple[tuple[float, float], ...]:
    out = []
    for tok in s.split(","):
        lo, hi = tok.split(":")
        out.append((_parse_float(lo), _parse_float(hi)))
    return tuple(out)


_COERCE = {
    "str": lambda s: s.strip(),
    "float": _parse_float,
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
    "tol_inner": ("float", 1e-10, "proximal optimality tolerance"),
    # fronts
    "height_c": ("float", 1.0, "profile height constant"),
    "exponent_tol": ("float", 0.05, "relative tolerance on the fitted exponent"),
    # energetics
    "refine_check": ("bool", True, "repeat on a coarser grid for stability"),
}


@dataclasses.dataclass
class ExperimentConfig:
    """Validated configuration: ``kind`` plus the value of ``experiment``
    and of each key the kind reads; reading another is a ``KeyError``."""

    kind: str
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]


def _validate(kind: str, values: dict, lines: dict) -> list:
    """Range checks against module preconditions, on the keys the kind
    reads; returns (line, msg) pairs."""
    errs = []

    def need(holds, key, msg):
        if key in values and not holds(values[key]):
            errs.append((lines.get(key), f"{key}: {msg}"))

    for key in ("mu1", "tol_inner", "t_end", "t0", "height_c",
                "snapshots_per_decade"):
        need(lambda v: v > 0, key, "must be > 0")
    need(lambda v: v in (1, 2), "dimension", "must be 1 or 2")
    need(lambda v: v >= 0, "seed", "must be >= 0")
    need(lambda v: all(hi > lo for lo, hi in v), "bounds",
         "upper must exceed lower")
    p = values.get("p")
    if kind in _FINITE_SPEED_KINDS:
        need(lambda v: v > 2, "p", f"finite-speed experiments require p > 2, got {p}")
    elif kind == "weak-residual-study":
        need(lambda v: v >= 2, "p", f"fluid experiments require p >= 2, got {p}")
    if kind in _BARENBLATT_KINDS:
        # the run starts from the closed form at t0
        need(lambda v: v > values["t0"], "t_end", f"must exceed t0 = {values['t0']}")
    # the accuracy study runs 1-D grids and the fluids 2-D ones
    dim = values.get("dimension", 2 if kind in _FLUID_KINDS else 1)
    if kind == "barenblatt-accuracy-study":
        # the study's grids are its cells list
        need(lambda c: len(c) >= 2 and all(n >= 2 for n in c), "cells",
             "the accuracy study needs at least two grids, of at least 2 "
             "cells each")
        need(lambda c: len(set(c)) == len(c), "cells",
             "the accuracy study's grids must differ: no order exists "
             "between a grid and itself")
    else:
        # the fluid's centred stencils span two nodes per axis, and on two
        # every node sits at 0 or pi, where the Taylor-Green data both fluid
        # kinds start from vanish
        least = 3 if kind in _FLUID_KINDS else 1
        need(lambda c: all(n >= least for n in c), "cells",
             f"must be at least {least}")
        need(lambda c: len(c) in (1, dim), "cells",
             f"need 1 or {dim} entries for dimension {dim}")
    if kind in _FLUID_KINDS:
        need(lambda c: len(set(c)) == 1, "cells",
             "fluid experiments run a square grid: entries must be equal")
    need(lambda b: len(b) in (1, dim), "bounds",
         f"need 1 or {dim} entries for dimension {dim}")
    return errs


def parse_config(text: str, overrides: dict) -> ExperimentConfig:
    """Parse config text, apply overrides and the kind's defaults, and
    validate everything.

    ``overrides`` maps keys to raw string values (command-line flags win
    over the file).  A key neither sets takes the kind's default in
    ``KIND_DEFAULTS``, else the schema's.  Raises :class:`ConfigError`
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

    values: dict = {}
    for key, val in raw.items():
        typ = SCHEMA[key][0]
        try:
            values[key] = _COERCE[typ](val)
        except (ValueError, TypeError):
            errs.append((lines[key], f"{key}: cannot parse {val!r} as {typ}"))

    kind = values.get("experiment")
    if kind in KIND_KEYS:
        keys = KIND_KEYS[kind]
        errs += [(lines[key], f"{key}: not a key of experiment {kind!r}, "
                              f"which reads {', '.join(keys)}")
                 for key in raw if key not in keys and key != "experiment"]
        defaults = KIND_DEFAULTS.get(kind, {})
        for key in keys:
            values.setdefault(key, defaults.get(key, SCHEMA[key][1]))
    elif kind is not None:
        errs.append((lines["experiment"], f"unknown experiment {kind!r}; "
                                          f"valid: {', '.join(EXPERIMENT_KINDS)}"))
    elif "experiment" not in raw:
        errs.append((None, "missing required key 'experiment'"))

    if not errs:
        errs.extend(_validate(kind, values, lines))
    if errs:
        raise ConfigError(errs)
    return ExperimentConfig(kind, values)


def default_config(kind: str, **overrides) -> ExperimentConfig:
    """Programmatic config: defaults for ``kind`` plus keyword overrides."""
    text = f"experiment = {kind}\n"
    ov = {k: (",".join(f"{lo}:{hi}" for lo, hi in v) if k == "bounds" and not isinstance(v, str)
              else ",".join(str(x) for x in v) if isinstance(v, (tuple, list))
              else str(v))
          for k, v in overrides.items()}
    return parse_config(text, ov)
