"""Every top-level function, class and assigned name in src/thurston, and
every non-dunder method of a top-level class, is referenced by name in
src, tests, perfbench or pyproject.toml outside its own definition.  A
word-boundary search stands in for a call graph: a name mentioned only
where it is defined is dead code.  The benchmark's hooks into the package,
which it looks up by name, must also keep resolving, and no module uses
`assert`, which python -O strips, for a check.  The package's classes
are plain classes, so a cold start loads neither `dataclasses` nor
`inspect`."""

import ast
import re
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "thurston"


def _sources():
    paths = [p for d in ("src", "tests", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    paths.append(ROOT / "pyproject.toml")
    return {p: p.read_text(encoding="utf-8") for p in paths}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(path, name, node) of every top-level function, class and
    assignment target, and of every method, dunders exempt."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and \
                            not _dunder(item.name):
                        yield path, item.name, item
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and \
                                not _dunder(name.id):
                            yield path, name.id, node


def test_every_definition_is_referenced():
    sources = _sources()
    unreferenced = []
    for path, name, node in _definitions():
        decorators = getattr(node, "decorator_list", [])
        first = min([node.lineno] + [d.lineno for d in decorators])
        lines = sources[path].splitlines()
        rest = "\n".join(lines[:first - 1] + lines[node.end_lineno:])
        word = re.compile(r"\b%s\b" % re.escape(name))
        if not word.search(rest) and not any(
                word.search(text) for p, text in sources.items()
                if p != path):
            unreferenced.append("%s:%d %s" % (
                path.relative_to(ROOT), node.lineno, name))
    assert not unreferenced, unreferenced


def test_no_assert_statements():
    """A certifying check raises: python -O strips assert statements."""
    found = ["%s:%d" % (path.relative_to(ROOT), node.lineno)
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_benchmark_hooks_resolve():
    """The benchmark's tracer wraps program functions by the names its
    modules import (`normball.homology_map_matrix` among them), its self
    test calls `betti_numbers`, and its worker builds `NormBall` from eight
    positional fields.  A rename or a signature change breaks them."""
    script = textwrap.dedent("""
        import sys
        sys.path[:0] = sys.argv[1:]
        import spans
        from thurston.homology import betti_numbers
        from thurston.normball import NormBall
        spans.Tracer().install()
        NormBall("strict", 1, [], [], [(1,)], [], [], None)
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_only_coords_names_the_arc_helpers():
    """What a normal arc is, its quad kind, sheet order and sign, is
    decided in `coords` alone: other modules read `coords.ARC_QUADS` and
    `coords.arc_classes`, not the helpers the table is built from."""
    helpers = re.compile(
        r"\b(quad_kind_for_arc|quad_arc_sign_factor|QUAD_PAIR|QUAD_OPP)\b")
    found = ["%s: %s" % (path.relative_to(ROOT), name)
             for path in sorted(PACKAGE.rglob("*.py"))
             if path.name != "coords.py"
             for name in helpers.findall(path.read_text(encoding="utf-8"))]
    assert not found, found


def test_no_module_imports_dataclasses():
    """The record classes share `record.Record`'s field-wise methods
    instead of generating them at import."""
    found = ["%s:%d" % (path.relative_to(ROOT), node.lineno)
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Import) and any(
                 a.name.split(".")[0] == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "dataclasses"]
    assert not found, found


def test_cold_start_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter (no site hooks) that imports `thurston.cli` and
    every module the benchmark worker imports has not loaded
    `dataclasses` or `inspect`, which cost each process start several
    milliseconds."""
    worker = (ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8")
    imports = [ast.get_source_segment(worker, node)
               for node in ast.parse(worker).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    script = "\n".join(["import sys", "sys.path[:0] = sys.argv[1:]",
                        "import thurston.cli", *imports,
                        "print(sorted({'dataclasses', 'inspect'}"
                        " & set(sys.modules)))"])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
