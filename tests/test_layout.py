"""Source layout guards: every top-level function and class and every
class member is used, every config knob has one owner that the code
reads, no module reads the environment or imports a name it does not
use, one function each writes and reads JSON, no two enums share a
vocabulary, every CLI option is read by its command, and the README
documents the config's keys and an explanation template for every
decision rule.

A top-level ``def`` or ``class`` in ``src/drivetrace`` whose name appears
nowhere else in the package (as a whole word, outside its own definition
line) is code that nothing calls, unless README names it in backticks:
that is the public API, which users call from its module.  Tests do not
count as uses.
"""

import argparse
import ast
import dataclasses
import enum
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

import drivetrace.cli as cli
from drivetrace.config import PipelineConfig
from drivetrace.reasoner import ReasonerConfig, decide
from drivetrace.scene import EgoState
from drivetrace.scene_io import json_text

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "drivetrace"
SOURCES = {path: path.read_text().splitlines() for path in sorted(PACKAGE.glob("*.py"))}
#: names README documents: the last part of the dotted name that opens a
#: backtick span, as ``box_iou`` in `box_iou(a, b)` or `scene.box_iou`
README_NAMES = {m.group(1)
                for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
                if (m := re.match(r"(?:\w+\.)*([A-Za-z_]\w*)", span))}


def _found_elsewhere(pattern: re.Pattern, path: Path, lineno: int) -> bool:
    """Whether ``pattern`` matches a package line other than ``path:lineno``."""
    return any(
        pattern.search(line)
        for other, lines in SOURCES.items()
        for i, line in enumerate(lines, 1)
        if not (other == path and i == lineno)
    )


def _definitions():
    for path, lines in SOURCES.items():
        for node in ast.parse("\n".join(lines)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield pytest.param(path, node.name, node.lineno,
                                   id=f"{path.stem}.{node.name}")


@pytest.mark.parametrize(("path", "name", "lineno"), _definitions())
def test_every_definition_is_used(path, name, lineno):
    if name in README_NAMES:
        return
    used = _found_elsewhere(re.compile(rf"\b{re.escape(name)}\b"), path, lineno)
    assert used, f"{path.name}:{lineno}: {name} is defined but nothing in the package uses it"


def _members():
    for path, lines in SOURCES.items():
        for cls in ast.parse("\n".join(lines)).body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                        yield pytest.param(path, node.name, node.lineno,
                                           id=f"{path.stem}.{cls.name}.{node.name}")


@pytest.mark.parametrize(("path", "name", "lineno"), _members())
def test_every_member_is_read(path, name, lineno):
    """A method or property of a package class is read as ``.<name>``
    somewhere in the package outside its own definition line."""
    used = _found_elsewhere(re.compile(rf"\.{re.escape(name)}\b"), path, lineno)
    assert used, f"{path.name}:{lineno}: {name} is a member that nothing in the package reads"


def _imported_names(tree: ast.Module):
    """(line, name) of every name an import binds in ``tree``, at any depth,
    ``TYPE_CHECKING`` blocks included; ``import a.b`` binds ``a``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def _names_read(tree: ast.Module) -> set[str]:
    """The names ``tree`` reads, in code and in string annotations such as
    ``"PipelineConfig"``."""
    annotations = [a for node in ast.walk(tree)
                   for a in (getattr(node, "annotation", None), getattr(node, "returns", None))
                   if a is not None]
    quoted = [ast.parse(node.value, mode="eval") for a in annotations for node in ast.walk(a)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return {node.id for part in (tree, *quoted) for node in ast.walk(part)
            if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", [pytest.param(p, id=p.stem) for p in SOURCES])
def test_every_import_is_used(path):
    """A name a module imports is read somewhere in that module: an unused
    import is a dependency on code the module no longer needs."""
    tree = ast.parse("\n".join(SOURCES[path]))
    read = _names_read(tree)
    unused = [f"{path.name}:{line}: {name}" for line, name in _imported_names(tree)
              if name not in read]
    assert not unused, f"imported but never used: {unused}"


#: (section, field) of every config knob
CONFIG_FIELDS = [(section.name, f.name) for section in dataclasses.fields(PipelineConfig)
                 if section.default_factory is not dataclasses.MISSING
                 for f in dataclasses.fields(section.default_factory)]


def test_every_config_field_is_read():
    """Each config knob is read as ``.<field>`` by some module other than
    config.py; a read through ``self`` (validation) does not count."""
    unread = []
    for section, name in CONFIG_FIELDS:
        read = re.compile(rf"(?<!\bself)\.{re.escape(name)}\b")
        if not any(read.search(line) for path, lines in SOURCES.items()
                   if path.name != "config.py" for line in lines):
            unread.append(f"{section}.{name}")
    assert not unread, f"config fields that no module reads: {unread}"


def test_no_constant_shadows_a_config_field():
    """A module-level constant named after a config field in upper case is a
    second copy of that knob, which code can read in place of the config."""
    knobs = {name.upper(): f"{section}.{name}" for section, name in CONFIG_FIELDS}
    copies = []
    for path, lines in SOURCES.items():
        for node in ast.parse("\n".join(lines)).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            copies += [f"{path.name}:{node.lineno}: {t.id} copies {knobs[t.id]}"
                       for t in targets if isinstance(t, ast.Name) and t.id in knobs]
    assert not copies, "\n".join(copies)


def test_no_module_reads_the_environment():
    """The config comes from ``--config`` or the built-in defaults; an
    environment variable would be a second, hidden source."""
    read = re.compile(r"\bos\.(environ|getenv)\b|\bfrom os import .*\b(environ|getenv)\b")
    reads = [f"{path.name}:{i}: {line.strip()}" for path, lines in SOURCES.items()
             for i, line in enumerate(lines, 1) if read.search(line)]
    assert not reads, "\n".join(reads)


def test_one_json_writer():
    """``json.dumps`` is called once, in ``scene_io.json_text``, which every
    JSON artifact is written through: the format and the refusal of NaN
    are kept in one place."""
    lines, start = inspect.getsourcelines(json_text)
    writer = [(PACKAGE / "scene_io.py", start + i) for i, line in enumerate(lines)
              if "json.dumps(" in line]
    calls = [(path, i) for path, lines in SOURCES.items()
             for i, line in enumerate(lines, 1) if re.search(r"\bjson\.dumps?\b|\bdumps\(", line)]
    assert len(writer) == 1 and calls == writer, calls


def _enclosing_functions(tree: ast.Module) -> dict[int, str]:
    """The name of the top-level function holding each line of ``tree``."""
    return {line: node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            for line in range(node.lineno, node.end_lineno + 1)}


def test_one_json_reader():
    """``json.loads`` is called once, in ``scene_io.read_json``, and only the
    config, scene and manifest readers call ``read_json``, each handing what
    it reads to ``scene_io.from_json``: the type, finiteness and key checks
    of every JSON input are kept in one place."""
    loads, reads = [], []
    for path, lines in SOURCES.items():
        tree = ast.parse("\n".join(lines))
        owner = _enclosing_functions(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and getattr(node.value, "id", None) == "json"):
                loads.append(f"{path.stem}.{owner.get(node.lineno)}")
            elif isinstance(node, ast.Name) and node.id == "read_json" and isinstance(
                    node.ctx, ast.Load):
                reads.append(f"{path.stem}.{owner.get(node.lineno)}")
    assert loads == ["scene_io.read_json"]
    assert sorted(set(reads)) == ["config.load_config", "evaluate.evaluate_suite",
                                  "scene_io.load_scene"], reads


def test_no_two_enums_share_their_values():
    """Two enums with the same set of values are one vocabulary kept twice."""
    seen: dict[frozenset, str] = {}
    copies = []
    for path in SOURCES:
        module = importlib.import_module(
            "drivetrace" if path.stem == "__init__" else f"drivetrace.{path.stem}")
        for name, cls in vars(module).items():
            if (inspect.isclass(cls) and issubclass(cls, enum.Enum)
                    and cls.__module__ == module.__name__):
                values = frozenset(m.value for m in cls)
                if values in seen:
                    copies.append(f"{module.__name__}.{name} repeats {seen[values]}")
                seen.setdefault(values, f"{module.__name__}.{name}")
    assert not copies, "\n".join(copies)


def test_readme_documents_every_rule_template():
    """README's "Explanation templates" table lists exactly the rules that
    decide records (all but the closing decision step), in trace order."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Explanation templates\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| (\w+) \| `", section, flags=re.M)
    trace = decide([], EgoState(), None, ReasonerConfig())
    assert documented == [s.rule_id for s in trace.steps if s.rule_id != "decision"]


def test_readme_config_block_lists_every_key():
    """The JSON block under README's "Configuration" has exactly the
    sections and keys of the default config."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    block = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    expected = dataclasses.asdict(PipelineConfig())

    def keys(doc):
        return {k: sorted(v) if isinstance(v, dict) else None for k, v in doc.items()}

    assert keys(block) == keys(expected)


def _args_read(fn) -> set[str]:
    """The ``args.<name>`` attributes that ``fn`` reads, itself or through
    the cli.py functions it hands ``args`` to (``_load``, ``_out_dir``)."""
    read = set()
    for node in ast.walk(ast.parse(inspect.getsource(fn))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and inspect.isfunction(callee := getattr(cli, node.func.id, None))
              and callee.__module__ == cli.__name__
              and any(getattr(a, "id", None) == "args" for a in node.args)):
            read |= _args_read(callee)
    return read


def _subcommands():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        yield pytest.param(p, id=name)


@pytest.mark.parametrize("subparser", _subcommands())
def test_every_cli_option_is_read(subparser):
    """An option that a subcommand accepts but its command function never
    reads is a flag the user can set to no effect."""
    options = {a.dest for a in subparser._actions if not isinstance(a, argparse._HelpAction)}
    unread = options - _args_read(subparser.get_default("func"))
    assert not unread, f"{subparser.prog} accepts options it never reads: {sorted(unread)}"
