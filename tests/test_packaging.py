import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import fbsdefilter
from fbsdefilter.cli import build_parser
from fbsdefilter.harness import REPLICATION_FLOOR, config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"

IMPORT_ALL_WITHOUT_SCIPY = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import fbsdefilter
for info in pkgutil.iter_modules(fbsdefilter.__path__):
    importlib.import_module("fbsdefilter." + info.name)
"""


def test_every_module_imports_without_scipy():
    # scipy is a test-only dependency; the package itself needs numpy alone
    src = str(Path(fbsdefilter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALL_WITHOUT_SCIPY],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _calls(tree: ast.AST, names: set[str]) -> list[ast.Call]:
    """Calls of a function or attribute named in ``names`` below ``tree``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                out.append(node)
    return out


def _write_opens(tree: ast.AST) -> list[int]:
    """Line numbers of ``open(...)`` calls whose mode writes to the file."""
    lines = []
    for node in _calls(tree, {"open"}):
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
        if any(isinstance(m, ast.Constant) and isinstance(m.value, str)
               and set(m.value) & set("wax") for m in modes):
            lines.append(node.lineno)
    return lines


def test_artifact_formats_live_in_one_module():
    # every table, the mixture table included, and every JSON record goes
    # through fbsdefilter.artifacts
    package = Path(fbsdefilter.__file__).resolve().parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if path.name != "artifacts.py":
            offenders += [f"{path.name}: json.dump"] * source.count("json.dump")
            offenders += [f"{path.name}:{line}: open for writing"
                          for line in _write_opens(ast.parse(source))]
    assert offenders == []


# Exports that exist for users and for the acceptance criteria rather than for
# the pipeline: custom model registration, and the single-pair loss gradient
# and curvature that criteria 5 and 6 check.
ENTRY_POINTS = {"register_model", "loss_and_gradients", "hessian"}


def _referenced_names(nodes) -> set[str]:
    """Names read, attributes accessed and names imported below ``nodes``."""
    out = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_export_has_a_caller():
    # each name the package exports serves the pipeline: code of the package
    # other than the name's own definition, the CLI or the benchmark uses it
    package = Path(fbsdefilter.__file__).resolve().parent
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exports = {alias.asname or alias.name: node.module for node in init.body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")).body
             for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    bench = _referenced_names(
        stmt for path in sorted((README.parent / "perfbench").glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body)
    unused = []
    for name, module in sorted(exports.items()):
        users = set(bench)
        for stem, body in trees.items():
            users |= _referenced_names(
                stmt for stmt in body if stem != module
                or getattr(stmt, "name", None) != name)
        if name not in users and name not in ENTRY_POINTS:
            unused.append(f"{module}.{name}")
    assert unused == []


def test_generators_are_built_only_in_rngs():
    # every stream comes from rngs.substream, so no module builds a Philox or
    # a Generator of its own
    package = Path(fbsdefilter.__file__).resolve().parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name != "rngs.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            offenders += [f"{path.name}:{call.lineno}: generator built"
                          for call in _calls(tree, {"Philox", "Generator"})]
    assert offenders == []


# The functions that call euler_step: the chain's one forward step, and the
# two callers whose increments are not one draw from one generator (per-id
# particle streams in predict_cloud, increments coupled to the exact OU step
# in dt_rate_study).
EULER_STEP_CALLERS = {"model.advance", "predict.predict_cloud", "harness.dt_rate_study"}


def test_each_chain_step_has_one_spelling():
    # every observation likelihood comes from bayes and every forward step of
    # the chain from model.advance, so the filter, its references and the
    # simulator cannot drift apart
    package = Path(fbsdefilter.__file__).resolve().parent
    built, callers = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name != "bayes.py":
            built += [f"{path.name}:{call.lineno}" for call in _calls(tree, {"Likelihood"})]
        for node in tree.body:
            if _calls(node, {"euler_step"}):
                callers.add(f"{path.stem}.{getattr(node, 'name', node.lineno)}")
    assert built == []
    assert callers == EULER_STEP_CALLERS


def _functions(tree: ast.Module):
    """(name, node) of each module-level function and each method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef))


# A refusal, by the words of its message, and the one function that raises it.
RULE_OWNERS = {r"\bsweep\b": "harness.check_sweep_grid",
               r"replications >=": "harness.check_slope_claim",
               r"dim <= 2": "harness.kde_rate_study",
               r"must be finite and": "errors.check_positive"}


def test_each_rate_study_rule_has_one_spelling():
    # the command line, the config, the studies and the report share one
    # function per rule, so they cannot refuse different grids
    package = Path(fbsdefilter.__file__).resolve().parent
    owners = {words: set() for words in RULE_OWNERS}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, function in _functions(tree):
            for node in ast.walk(function):
                if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                        and getattr(node.exc.func, "id", None) == "ConfigurationError"):
                    continue
                text = "".join(part.value for part in ast.walk(node.exc)
                               if isinstance(part, ast.Constant)
                               and isinstance(part.value, str))
                for words in owners:
                    if re.search(words, text):
                        owners[words].add(f"{path.stem}.{name}")
    assert owners == {words: {owner} for words, owner in RULE_OWNERS.items()}


def test_step_calls_only_public_functions():
    # ROADMAP item 7: the benchmark can call only public names, so step() is
    # to be a sequence of public stages that it can call in the same order
    package = Path(fbsdefilter.__file__).resolve().parent
    tree = ast.parse((package / "filtering.py").read_text(encoding="utf-8"))
    step = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "step")
    called = [(call.lineno, getattr(call.func, "id", getattr(call.func, "attr", "")))
              for call in ast.walk(step) if isinstance(call, ast.Call)]
    private = [f"filtering.py:{line}: {name}" for line, name in called
               if name.startswith("_")]
    assert private == []


def _imported_names(tree: ast.AST) -> dict[str, int]:
    """Names bound by the imports of a module, with the line of each."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update({(a.asname or a.name).split(".")[0]: node.lineno
                        for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update({a.asname or a.name: node.lineno for a in node.names})
    return out


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to export; every other module reads what it imports
    package = Path(fbsdefilter.__file__).resolve().parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            offenders += [f"{path.name}:{line}: {name}"
                          for name, line in _imported_names(tree).items()
                          if name not in used]
    assert offenders == []


def test_only_predict_compares_the_variant():
    # the prediction stage owns its discretization switch; a caller passes
    # the PredictConfig on instead of branching on the variant's name
    package = Path(fbsdefilter.__file__).resolve().parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name != "predict.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            offenders += [
                f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Compare)
                and any(isinstance(side, ast.Attribute) and side.attr == "variant"
                        for side in (node.left, *node.comparators))]
    assert offenders == []


def test_every_raised_exception_is_a_package_error():
    # one convention for failures: each raise that builds an exception builds
    # a class from errors.py; a caught error raised again (``raise err``,
    # ``raise type(err)(...)``) keeps the class it was first raised with
    package = Path(fbsdefilter.__file__).resolve().parent
    errors = {node.name for node in ast.parse(
        (package / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)}
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if isinstance(func, (ast.Name, ast.Attribute)) and name not in errors:
                    offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert offenders == []


def _fenced_blocks(text: str) -> list[tuple[str, str]]:
    """(language, body) of every fenced code block in a markdown text."""
    return re.findall(r"^```(\w*)\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_examples_parse():
    # the command lines and the JSON config README shows are the CLI contract
    # and the config schema as they stand
    blocks = _fenced_blocks(README.read_text(encoding="utf-8"))
    commands = [shlex.split(line, comments=True)[1:] for _lang, body in blocks
                for line in body.splitlines() if line.startswith("fbsdefilter ")]
    assert len(commands) >= 8
    parser = build_parser()
    offenders = []
    for argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            offenders.append(f"does not parse: {shlex.join(argv)}")
            continue
        if argv[0] == "rates" and (args.replications or 0) < REPLICATION_FLOOR:
            offenders.append(f"fewer than {REPLICATION_FLOOR} replications: "
                             f"{shlex.join(argv)}")
    assert offenders == []
    configs = [body for lang, body in blocks if lang == "json"]
    assert len(configs) == 1
    config_from_dict(json.loads(configs[0]))
