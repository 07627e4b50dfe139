import pytest

from pflab.config import SCHEMA, default_config, parse_config
from pflab.errors import ConfigError


def test_minimal_config_fills_defaults():
    cfg = parse_config("experiment = barenblatt-fit\n", {})
    assert cfg.kind == "barenblatt-fit"
    assert cfg["p"] == 3.0
    assert cfg["mu1"] == 1.0
    assert cfg["stepper"] == "implicit"


def test_comments_and_blank_lines():
    cfg = parse_config(
        "# a comment\n"
        "experiment = halfspace-fsp\n"
        "\n"
        "p = 3.5  # trailing comment\n", {})
    assert cfg["p"] == 3.5


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("experiment = barenblatt-fit\nnot_a_key = 3\n", {})
    assert any(line == 2 and "not_a_key" in msg for line, msg in exc.value.errors)


def test_duplicate_key_names_both_lines():
    with pytest.raises(ConfigError) as exc:
        parse_config("experiment = barenblatt-fit\np = 3\np = 4\n", {})
    (entry,) = [e for e in exc.value.errors if "duplicate" in e[1]]
    assert entry[0] == 3
    assert "line 2" in entry[1]


def test_degenerate_range_error_cites_p():
    with pytest.raises(ConfigError) as exc:
        parse_config("experiment = halfspace-fsp\np = 1.5\n", {})
    assert any("p > 2" in msg for _, msg in exc.value.errors)


def test_all_errors_collected():
    text = ("experiment = barenblatt-fit\n"
            "p = not_a_number\n"
            "mystery = 1\n"
            "cells = 0\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(text, {})
    assert len(exc.value.errors) >= 2


def test_type_coercions():
    cfg = parse_config(
        "experiment = barenblatt-fit\n"
        "dimension = 2\n"
        "p = 3\n"
        "cells = 64,32\n"
        "bounds = 0:6.28,0:3.14\n"
        "svg = false\n", {})
    assert cfg["cells"] == (64, 32)
    assert cfg["bounds"] == ((0.0, 6.28), (0.0, 3.14))
    assert cfg["svg"] is False


def test_flag_overrides_win():
    cfg = parse_config("experiment = barenblatt-fit\np = 3\n",
                       overrides={"p": "3.5"})
    assert cfg["p"] == 3.5


def test_missing_experiment():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("p = 3\n", {})


def test_fluid_requires_2d():
    with pytest.raises(ConfigError) as exc:
        parse_config("experiment = fluid2d-taylor-green\ndimension = 1\np = 2\n", {})
    assert any("2-D" in msg for _, msg in exc.value.errors)


def test_fluid_requires_p_at_least_2():
    with pytest.raises(ConfigError) as exc:
        parse_config("experiment = weak-residual-study\ndimension = 2\n"
                     "p = 1.5\n", {})
    assert exc.value.errors == [(3, "p: fluid experiments require p >= 2, "
                                    "got 1.5")]


def test_bad_syntax_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config("experiment = exponent-identities\njust words\n", {})
    assert any(line == 2 for line, _ in exc.value.errors)


def test_default_config_helper():
    cfg = default_config("stampacchia-suite", t_ref=0.5, seed=3)
    assert cfg["t_ref"] == 0.5 and cfg["seed"] == 3


def test_schema_defaults_are_valid():
    # every kind parses with pure defaults, save the fluids' dimension
    # and the accuracy study's grids
    from pflab.config import EXPERIMENT_KINDS

    fixes = {"fluid2d-taylor-green": {"dimension": "2", "p": "2"},
             "weak-residual-study": {"dimension": "2", "p": "3.5"},
             "barenblatt-accuracy-study": {"cells": "2048,4096"}}
    for kind in EXPERIMENT_KINDS:
        cfg = parse_config(f"experiment = {kind}\n", fixes.get(kind, {}))
        assert set(SCHEMA) >= set(cfg.values)


_STUDY = {"experiment": "barenblatt-accuracy-study", "cells": "64,128"}
_FLUID = {"experiment": "fluid2d-taylor-green", "dimension": "2", "p": "2"}

# the other keys a row's violation depends on: the accuracy study's
# grids and horizon are its own, and a fluid grid is square and fixed
_RANGE_CONTEXT = {
    ("cells", "2048"): _STUDY,
    ("cells", "1,2048"): _STUDY,
    ("t_end", "1.0"): _STUDY,
    ("cells", "16,32"): _FLUID,
    ("bounds", "0:1"): _FLUID,  # the fluid's box is [0, 2*pi]^2
}


@pytest.mark.parametrize("key,value", [
    ("cells", "2048"),
    ("cells", "1,2048"),
    ("t0", "0"),
    ("t0", "-1"),
    ("t_end", "0.5"),  # before the default t0 = 1
    ("t_end", "1.0"),
    ("cells", "16,32"),
    ("bounds", "0:1"),
])
def test_range_violations_rejected(key, value):
    with pytest.raises(ConfigError) as exc:
        parse_config("experiment = barenblatt-fit\n",
                     {**_RANGE_CONTEXT.get((key, value), {}), key: value})
    assert any(msg.startswith(f"{key}:") for _, msg in exc.value.errors)

