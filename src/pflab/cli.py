"""Command-line interface.

Subcommands wrap the experiment kinds; a subcommand's flags are the
config keys of the kinds it runs (``simulate`` has every key) and win
over the config file.  Exit codes are part of the contract:

* 0 success
* 1 invalid configuration or command-line usage
* 2 numerical failure (NaN / blow-up / boundary sentinel / projection
  residual)
* 3 verification failure (an acceptance-style assertion did not hold)

The environment variable ``PFLAB_VERBOSE`` (0/1) selects output
verbosity only; it never affects numerics.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import KIND_DEFAULTS, KIND_KEYS, SCHEMA, parse_config
from .errors import ConfigError, NumericalError, VerificationError


def _verbose() -> bool:
    return os.environ.get("PFLAB_VERBOSE", "1") not in ("0", "false", "")


# subcommand -> (help, the experiment kinds it runs); one that runs
# several writes each into its own folder under the outdir
_KIND_COMMANDS = {
    "barenblatt": ("self-similar front fit", ("barenblatt-fit",)),
    "fluid2d": ("2-D Taylor-Green fluid run", ("fluid2d-taylor-green",)),
    "energy": ("tail-energy ledger and checks", ("energy-ledger",)),
    "verify-lemmas": ("iteration, interpolation and identity suites",
                      ("stampacchia-suite", "interpolation-suite",
                       "exponent-identities")),
}


def _add_config_flags(parser: argparse.ArgumentParser, kinds: tuple) -> None:
    """``--config`` and a flag for each key every kind of ``kinds`` reads,
    or for every key when ``kinds`` is empty.  The help shows the default
    of a lone kind, else the schema's, and names each kind the parser
    runs whose own default (``KIND_DEFAULTS``) differs from it."""
    parser.add_argument("--config", help="key = value config file")
    keys = [key for key in SCHEMA if all(key in KIND_KEYS[k] for k in kinds)]
    defaults = KIND_DEFAULTS.get(kinds[0], {}) if len(kinds) == 1 else {}
    for key in keys:
        _typ, default, help_ = SCHEMA[key]
        shown = defaults.get(key, default)
        own = "".join(f"; {kind} {KIND_DEFAULTS[kind][key]!r}"
                      for kind in kinds or KIND_KEYS
                      if KIND_DEFAULTS.get(kind, {}).get(key, shown) != shown)
        parser.add_argument(f"--{key.replace('_', '-')}", dest=f"opt_{key}",
                            metavar="V", default=None,
                            help=f"{help_} (default {shown!r}{own})")


def _collect_overrides(args, forced: dict) -> dict:
    over = {key: getattr(args, f"opt_{key}", None) for key in SCHEMA}
    return {**{k: v for k, v in over.items() if v is not None}, **forced}


def _read_text(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError([(None, f"cannot read {what} {path!r}: "
                                  f"{reason}")]) from exc


def _run(args, forced: dict | None = None, subdir: str | None = None) -> int:
    from .experiments import run_experiment

    text = _read_text(args.config, "config file") if args.config else ""
    cfg = parse_config(text, _collect_overrides(args, forced or {}))
    outdir = os.path.join(cfg["outdir"], subdir) if subdir else cfg["outdir"]
    report = run_experiment(cfg, outdir)
    if _verbose():
        print(f"[{cfg.kind}] ok; artifacts in {outdir}")
        for key, val in report.items():
            if not isinstance(val, (dict, list)):
                print(f"  {key} = {val}")
    return 0


def _cmd_kinds(args) -> int:
    """Run the subcommand's kind; or run each of its kinds in its own
    folder under the configured outdir, printing each failure, and exit
    with the worst code."""
    kinds = _KIND_COMMANDS[args.command][1]
    if len(kinds) == 1:
        return _run(args, {"experiment": kinds[0]})
    code = 0
    for kind in kinds:
        try:
            _run(args, {"experiment": kind}, kind)
        except (NumericalError, VerificationError) as exc:
            code = max(code, _failure_code(exc))
    return code


def _cmd_accept(args) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance(args.outdir, only=args.only)
    failed = [r for r in results if not r.passed]
    return 3 if failed else 0


def _failure_code(exc) -> int:
    """Print a run's failure and return its exit code."""
    if isinstance(exc, NumericalError):
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    print(f"verification failure: {exc}", file=sys.stderr)
    return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pflab",
        description="Degenerate power-law diffusion and power-law fluid "
                    "laboratory: simulations, support-front envelopes, "
                    "energy ledgers and inequality suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_config_flags(sub.add_parser("simulate", help="run the experiment "
                                                      "named in the config"), ())
    # a subcommand that forces the experiment kind has no flag for it
    for command, (help_, kinds) in _KIND_COMMANDS.items():
        _add_config_flags(sub.add_parser(command, help=help_), kinds)

    pa = sub.add_parser("accept", help="run the full acceptance suite")
    pa.add_argument("--outdir", default="accept-out",
                    help="output directory (default accept-out)")
    pa.add_argument("--only", default=None,
                    help="comma-separated criterion numbers (1-12) to run")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; here 2 means numerical failure
        if exc.code != 2:
            raise
        return 1
    handlers = {
        "simulate": _run,
        **dict.fromkeys(_KIND_COMMANDS, _cmd_kinds),
        "accept": _cmd_accept,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for line, msg in exc.errors:
            where = f"line {line}: " if line else ""
            print(f"  {where}{msg}", file=sys.stderr)
        return 1
    except (NumericalError, VerificationError) as exc:
        return _failure_code(exc)


if __name__ == "__main__":
    sys.exit(main())
