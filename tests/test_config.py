import pytest

from pflab.config import (EXPERIMENT_KINDS, KIND_KEYS, SCHEMA, default_config,
                          parse_config)
from pflab.errors import ConfigError


def test_minimal_config_fills_defaults():
    cfg = parse_config("experiment = barenblatt-fit\n", {})
    assert cfg.kind == "barenblatt-fit"
    assert cfg["p"] == 3.0
    assert cfg["mu1"] == 1.0
    assert cfg["tol_inner"] == 1e-10


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
        "experiment = energy-ledger\n"
        "dimension = 2\n"
        "p = 3\n"
        "cells = 64,32\n"
        "bounds = 0:6.28,0:3.14\n"
        "refine_check = false\n", {})
    assert cfg["cells"] == (64, 32)
    assert cfg["bounds"] == ((0.0, 6.28), (0.0, 3.14))
    assert cfg["refine_check"] is False


def test_flag_overrides_win():
    cfg = parse_config("experiment = barenblatt-fit\np = 3\n",
                       overrides={"p": "3.5"})
    assert cfg["p"] == 3.5


def test_missing_experiment():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("p = 3\n", {})


def test_fluid_requires_2d():
    # the fluids run the 2-D periodic box: they take no dimension at all
    with pytest.raises(ConfigError) as exc:
        parse_config("experiment = fluid2d-taylor-green\ndimension = 1\n", {})
    ((line, msg),) = exc.value.errors
    assert line == 2 and msg.startswith("dimension: not a key of experiment "
                                        "'fluid2d-taylor-green'")


def test_fluid_requires_p_at_least_2():
    with pytest.raises(ConfigError) as exc:
        parse_config("experiment = weak-residual-study\np = 1.5\n", {})
    assert exc.value.errors == [(2, "p: fluid experiments require p >= 2, "
                                    "got 1.5")]


def test_bad_syntax_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config("experiment = exponent-identities\njust words\n", {})
    assert any(line == 2 for line, _ in exc.value.errors)


def test_default_config_helper():
    cfg = default_config("halfspace-fsp", height_c=0.5, bounds=((-2.0, 3.0),))
    assert cfg["height_c"] == 0.5 and cfg["bounds"] == ((-2.0, 3.0),)
    assert default_config("stampacchia-suite", seed=3)["seed"] == 3


def test_schema_defaults_are_valid():
    # every kind parses with pure defaults, save the accuracy study's
    # grids, and holds exactly the keys it reads; Taylor-Green's own
    # defaults replace the schema's grid and horizon
    fixes = {"barenblatt-accuracy-study": {"cells": "2048,4096"}}
    for kind in EXPERIMENT_KINDS:
        cfg = parse_config(f"experiment = {kind}\n", fixes.get(kind, {}))
        assert set(cfg.values) == {"experiment", *KIND_KEYS[kind]}
        with pytest.raises(KeyError):
            cfg["no_such_key"]
    tg = parse_config("experiment = fluid2d-taylor-green\n", {})
    assert (tg["cells"], tg["t_end"]) == ((128,), 1.0)


def test_weak_residual_study_defaults_are_criterion_7s():
    # the schema's 4096 cells to t = 100 would run the fluid at 4096^2
    # and 8192^2; the study's own defaults are c07's grid and horizon,
    # and the file and flags still win
    weak = parse_config("experiment = weak-residual-study\n", {})
    assert (weak["cells"], weak["t_end"]) == ((64,), 1.0)
    set_ = parse_config("experiment = weak-residual-study\ncells = 32\n",
                        {"t_end": "0.5"})
    assert (set_["cells"], set_["t_end"]) == ((32,), 0.5)


# a value of each type that parses
_SAMPLE = {"str": "out", "float": "1.5", "int": "2", "bool": "true",
           "ints": "64", "bounds": "-1:1"}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_a_key_outside_the_kinds_list_is_rejected(kind):
    # the kind reads only its own keys; another, from the file or a flag,
    # would be echoed by the manifest and never used
    for key in sorted(set(SCHEMA) - set(KIND_KEYS[kind]) - {"experiment"}):
        value = _SAMPLE[SCHEMA[key][0]]
        with pytest.raises(ConfigError) as exc:
            parse_config(f"experiment = {kind}\n{key} = {value}\n", {})
        ((line, msg),) = exc.value.errors
        assert line == 2 and msg.startswith(f"{key}: not a key of experiment"), msg
        with pytest.raises(ConfigError) as exc:
            parse_config(f"experiment = {kind}\n", {key: value})
        assert [line for line, _ in exc.value.errors] == [None]


_STUDY = {"experiment": "barenblatt-accuracy-study", "cells": "64,128"}
_FLUID = {"experiment": "fluid2d-taylor-green"}

# the other keys a row's violation depends on: the accuracy study's
# grids and horizon are its own, and a fluid grid is square and fixed
_RANGE_CONTEXT = {
    ("cells", "2048"): _STUDY,
    ("cells", "1,2048"): _STUDY,
    ("t_end", "1.0"): _STUDY,
    ("cells", "16,32"): _FLUID,
    ("bounds", "0:1"): _FLUID,  # the fluid's box is [0, 2*pi]^2: no bounds key
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

