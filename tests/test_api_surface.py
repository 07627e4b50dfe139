"""Guards on the package's shape, read from its source with ``ast``.

``src/`` holds what a run executes; the independent oracles the tests
check it against live in ``tests/oracles.py``.  One dispatcher raises on
a failed gate, so ``raise VerificationError`` appears in
:func:`pflab.experiments.run_experiment` and nowhere else, and it alone
writes a report's verdict ``passed``.  Runners return their files'
text, and only the dispatcher makes an output folder and, through its
one writer, opens a file to write.  Every public
top-level function and class has a caller in the package or the
benchmark harness, and every keyword default of a public function or
method is overridden by one of those callers and left unset by another,
save the console entry point's; every defaulted field of a public
dataclass is overridden by one of them, and every field of a package
dataclass is read, by name, somewhere in the package or the harness.
Each experiment kind's run
reads exactly the config keys ``KIND_KEYS`` lists for it, every key is
read by some kind, and every key is set by a pinned acceptance config
or by a test that builds a config or drives the CLI.
Importing the package costs numpy alone: each scipy submodule is
imported where it is called, and no module names ``scipy.integrate`` or
``scipy.optimize`` at all.  Only the CLI reads the environment, and no
module imports ``numba``, ``ctypes`` or ``cffi``.  Each experiment
kind has one runner, the function that builds its report, and no runner
hands its run to another.
"""

import ast
import collections
import json
import os
import pathlib
import re
import subprocess
import sys

from pflab import experiments
from pflab.config import (EXPERIMENT_KINDS, KIND_KEYS, SCHEMA, ExperimentConfig,
                          default_config)

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pflab"


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _enclosing_functions(tree):
    """Map each node to the name of the top-level function holding it."""
    owner = {}
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            for node in ast.walk(top):
                owner[node] = top.name
    return owner


def test_only_the_dispatcher_raises_verification_error():
    sites = set()
    for module, tree in _modules().items():
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "VerificationError":
                sites.add((module, owner.get(node)))
    assert sites == {("experiments", "run_experiment")}


# methods that make a folder or write a file without ``open``
_WRITING_METHODS = {"makedirs", "mkdir", "write_text", "write_bytes", "save",
                    "savez", "savetxt", "tofile"}


def _opens_to_write(call) -> bool:
    """Whether a call of ``open`` may write: its mode, positional or
    keyword, is not a constant free of ``w``, ``a``, ``x`` and ``+``."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    return mode is not None and not (isinstance(mode, ast.Constant)
                                     and not set(mode.value) & set("wax+"))


def test_only_the_dispatcher_writes_files():
    # a runner returns its files' text and run_experiment writes them, so
    # a run that raises leaves no half of its output behind: the
    # dispatcher makes the output folder, and its one writer, which the
    # manifest goes through too, is the only code that opens a file to
    # write
    sites = set()
    for module, tree in _modules().items():
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _WRITING_METHODS:
                sites.add((module, owner.get(node), func.attr))
            elif (isinstance(func, ast.Name) and func.id == "open"
                  and _opens_to_write(node)):
                sites.add((module, owner.get(node), "open"))
    assert sites == {("experiments", "run_experiment", "makedirs"),
                     ("experiments", "_write_files", "open")}


def _report_kinds(fn) -> set:
    """The ``kind`` values of the report dict literals ``fn`` builds."""
    return {value.value for node in ast.walk(fn) if isinstance(node, ast.Dict)
            for key, value in zip(node.keys, node.values)
            if isinstance(key, ast.Constant) and key.value == "kind"
            and isinstance(value, ast.Constant)}


def test_each_kind_has_one_runner_that_runs_it_alone():
    # a runner that branched on a config key to run another experiment
    # would hide a kind behind a switch: each kind's runner builds the
    # reports of that kind and of no other, no other function builds
    # them, and no runner calls another runner
    assert set(experiments._RUNNERS) == set(EXPERIMENT_KINDS)
    runners = {fn.__name__ for fn in experiments._RUNNERS.values()}
    tree = _modules()["experiments"]
    builders = {}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            for kind in _report_kinds(top):
                builders.setdefault(kind, set()).add(top.name)
    assert builders == {kind: {fn.__name__}
                        for kind, fn in experiments._RUNNERS.items()}
    calls = {(top.name, node.func.id) for top in tree.body
             if isinstance(top, ast.FunctionDef) and top.name in runners
             for node in ast.walk(top) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in runners}
    assert calls == set()


def _is_passed(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == "passed"


def test_only_the_dispatcher_writes_a_reports_verdict():
    # a runner returns named gates and run_experiment judges them once;
    # a report is a dict literal with a "kind" key, and a nested summary
    # (an envelope's own "passed") is data, not the report's verdict
    sites = set()
    for module, tree in _modules().items():
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                keys = [key for key in node.keys if isinstance(key, ast.Constant)]
                written = (any(k.value == "kind" for k in keys)
                           and any(_is_passed(k) for k in keys))
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                written = any(isinstance(t, ast.Subscript) and _is_passed(t.slice)
                              for t in targets)
            else:
                continue
            if written:
                sites.add((module, owner.get(node)))
    assert sites == {("experiments", "run_experiment")}


def _names_used(tree, strings=False) -> collections.Counter:
    """How often the tree reads each name or attribute; with ``strings``,
    string constants count too, split at dots, for the names the
    benchmark harness looks up by text."""
    used = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(node.value.split("."))
    return used


def _harness_trees() -> list:
    """The benchmark harness's modules, its tests left out."""
    return [ast.parse(path.read_text(), str(path))
            for path in sorted((ROOT / "perfbench").glob("*.py"))
            if not path.name.startswith("test_")]


def test_every_public_name_has_a_caller():
    used = collections.Counter()
    for tree in _harness_trees():
        used += _names_used(tree, True)
    tops = []
    for module, tree in _modules().items():
        used += _names_used(tree)
        tops += [(module, top) for top in tree.body
                 if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                 and not top.name.startswith("_")]
    # a name read only inside its own definition (recursion) has no caller
    assert [f"{module}.{top.name}" for module, top in tops
            if used[top.name] <= _names_used(top)[top.name]] == []


def _defaulted(fn: ast.FunctionDef, bound: int) -> list:
    """``(name, index)`` of each parameter of ``fn`` that has a default:
    ``index`` is the parameter's place among the positional arguments a
    call passes (``bound`` of them are bound already), None when it can
    only be passed by keyword."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first]
    out += [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None]
    return out


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _defaulted_fields(cls: ast.ClassDef) -> list:
    """``(name, index)`` of each field of a dataclass that has a default:
    ``index`` is the field's place among the arguments of the generated
    ``__init__``."""
    fields = [stmt for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return [(stmt.target.id, i) for i, stmt in enumerate(fields)
            if stmt.value is not None]


def _public_callables():
    """``(qualified name, called name, defaulted parameters)`` of every
    public function and public method in the package, and of every public
    dataclass; a class's ``__init__`` and a dataclass's fields are called
    through the class name."""
    for module, tree in _modules().items():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
                yield f"{module}.{top.name}", top.name, _defaulted(top, 0)
            if not isinstance(top, ast.ClassDef) or top.name.startswith("_"):
                continue
            if _is_dataclass(top):
                yield f"{module}.{top.name}", top.name, _defaulted_fields(top)
            for fn in top.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                if fn.name == "__init__":
                    yield (f"{module}.{top.name}.__init__", top.name,
                           _defaulted(fn, 1))
                elif not fn.name.startswith("_"):
                    yield (f"{module}.{top.name}.{fn.name}", fn.name,
                           _defaulted(fn, 0 if static else 1))


def test_every_dataclass_field_is_read():
    """A field that nothing reads is a result no caller wants, so the
    measurement should not return it.  The check goes by name: a field
    that shares its name with an attribute read anywhere in the package
    or the harness passes, whichever object that read is on."""
    read = {node.attr for tree in list(_modules().values()) + _harness_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = [f"{module}.{top.name}.{stmt.target.id}"
              for module, tree in _modules().items() for top in tree.body
              if isinstance(top, ast.ClassDef) and _is_dataclass(top)
              for stmt in top.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    assert [f for f in fields if f.rsplit(".", 1)[1] not in read] == []


def _console_entry_points() -> set:
    """``module.function`` of each ``[project.scripts]`` entry of
    ``pyproject.toml``."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text,
                        re.M | re.S).group(1)
    return {f"{module.split('.')[-1]}.{fn}" for module, fn in
            re.findall(r'^\s*[\w-]+\s*=\s*"([\w.]+):(\w+)"', section, re.M)}


def _defaults_and_their_calls():
    """``(qualified name, parameter, whether each package or harness call
    of the callable passes it)`` for each keyword default of a public
    callable, the console entry point's left out, and each defaulted field
    of a public dataclass."""
    calls = collections.defaultdict(list)
    for tree in list(_modules().values()) + _harness_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                calls[name].append(node)

    def overridden(call, name, index):
        if any(kw.arg in (name, None) for kw in call.keywords):
            return True
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            return True
        return index is not None and len(call.args) > index

    entry = _console_entry_points()
    assert entry  # the exemption is read from pyproject.toml, not listed
    for qual, called, defaulted in _public_callables():
        if qual not in entry:
            for name, index in defaulted:
                yield qual, name, [overridden(call, name, index)
                                   for call in calls[called]]


def _benchmark_layers() -> dict:
    """``LAYERS`` of the benchmark's span list, read from its file."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_trace", ROOT / "perfbench" / "bench_trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_benchmark_span_resolves_to_a_package_function():
    # a traced benchmark pass looks each name up as its spans do: a
    # function as an attribute of its module, a method in its class's own
    # __dict__; a renamed function would crash that pass before it ran
    import importlib

    missing = []
    for modname, names in _benchmark_layers().items():
        module = importlib.import_module(f"pflab.{modname}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                found = meth in getattr(module, cls_name, object).__dict__
            else:
                found = callable(getattr(module, name, None))
            if not found:
                missing.append(f"{modname}.{name}")
    assert missing == []


def test_every_keyword_default_is_overridden_by_a_caller():
    # a default that no caller in the package or the harness overrides is
    # a setting only tests change: it belongs in the code, not the
    # signature, and a dataclass field's default is one of its signature's
    assert [f"{qual}({name}=)" for qual, name, passed
            in _defaults_and_their_calls() if not any(passed)] == []


def test_every_keyword_default_is_left_unset_by_a_caller():
    # a default that every caller in the package or the harness overrides
    # is a default only tests use: the parameter, or the dataclass field,
    # should be required
    assert [f"{qual}({name}=)" for qual, name, passed
            in _defaults_and_their_calls() if all(passed)] == []


def test_each_kind_reads_exactly_its_keys(tmp_path, monkeypatch):
    # run every kind small, recording the keys read from its config; the
    # accuracy study reads in spawned workers too, so one of its grids
    # also runs here.  With the union of the table being the schema, no
    # key is left that no run reads
    from test_experiments import SMALL_RUNS, small_constants

    read = collections.defaultdict(set)
    get = ExperimentConfig.__getitem__

    def recording(cfg, key):
        read[cfg.kind].add(key)
        return get(cfg, key)

    monkeypatch.setattr(ExperimentConfig, "__getitem__", recording)
    small_constants(monkeypatch)
    for number, (kind, overrides) in enumerate(SMALL_RUNS):
        cfg = default_config(kind, outdir=str(tmp_path / str(number)),
                             **overrides)
        experiments.run_experiment(cfg)
        if kind == "barenblatt-accuracy-study":
            experiments._study_grid(cfg, 64)
    assert read == {kind: set(keys) for kind, keys in KIND_KEYS.items()}
    assert set().union(*KIND_KEYS.values()) | {"experiment"} == set(SCHEMA)


_CONFIG_ENTRY_POINTS = {"parse_config", "default_config", "main"}


def _config_test_texts() -> list:
    """The test files that build a config or drive the CLI: those that
    call ``parse_config``, ``default_config`` or the CLI's ``main``."""
    texts = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        text = path.read_text()
        calls = {node.func.id for node in ast.walk(ast.parse(text, str(path)))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        if calls & _CONFIG_ENTRY_POINTS:
            texts.append(text)
    return texts


def test_every_config_key_is_named_by_a_test_or_a_pinned_config():
    texts = _config_test_texts()
    pinned = set()
    for path in sorted((PACKAGE / "configs" / "accept").glob("*.cfg")):
        for line in path.read_text().splitlines():
            match = re.match(r"\s*(\w+)\s*=", line.split("#", 1)[0])
            if match:
                pinned.add(match.group(1))

    def named(key):  # ``key =``, ``key=``, an override "key": or a --key flag
        pattern = (rf"\b{key} ?=(?!=)|[\"']{key}[\"'] ?:"
                   rf"|--{key.replace('_', '-')}\b")
        return any(re.search(pattern, text) for text in texts)

    assert sorted(k for k in SCHEMA if k not in pinned and not named(k)) == []


_IMPORT_PROBE = """
import json, sys
import pflab.acceptance, pflab.cli, pflab.experiments

def loaded():
    return [m for m in json.loads(sys.argv[1]) if m in sys.modules]

at_import = loaded()
from pflab.core import GridSpec, ModelParams
from pflab.exact import BarenblattParams, barenblatt_field
from pflab.plaplace import SolverConfig, step_implicit_proximal

grid = GridSpec.line(-4.0, 4.0, 64)
u = barenblatt_field(BarenblattParams(3.0, 1, C=1.0, mu1=1.0), grid, 1.0)
step_implicit_proximal(u, SolverConfig(ModelParams(3.0, 1.0), stepper="implicit"), 0.1,
                       None)
print(json.dumps([at_import, loaded()]))
"""


def _imported_modules(tree) -> set:
    """Top-level names of the modules a tree imports, relative imports
    left out."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_the_cli_reads_the_environment_and_no_module_leaves_python():
    # the environment sets only the CLI's progress printing, so no setting
    # outside a config can change the numerics; and the arithmetic has no
    # second implementation in compiled or foreign code
    readers, foreign = [], []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id == "os"
                    and node.attr in ("environ", "getenv")):
                readers.append(module)
            elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                  and {a.name for a in node.names} & {"environ", "getenv"}):
                readers.append(module)
        foreign += [(module, name) for name in
                    _imported_modules(tree) & {"numba", "ctypes", "cffi"}]
    assert set(readers) <= {"cli"}
    assert foreign == []


def test_scipy_submodules_load_only_where_they_are_called():
    # a fresh interpreter: this one has imported scipy through the tests
    lazy = ["scipy.linalg", "scipy.optimize", "scipy.integrate", "scipy.special"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(lazy)],
                         env=env, capture_output=True, text=True, check=True).stdout
    at_import, after_step = json.loads(out.splitlines()[-1])
    assert at_import == []
    # a 1-D dirichlet proximal step solves through plaplace.solve_banded
    assert "scipy.linalg" in after_step
    # quadrature and root finding serve the test oracles only
    named = []
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            named += [(module, name) for name in names
                      if name in ("scipy.integrate", "scipy.optimize")
                      or name.startswith(("scipy.integrate.", "scipy.optimize."))]
    assert named == []
