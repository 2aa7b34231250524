"""Source hygiene checked with the standard library alone."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sigmavect"
# __init__.py only re-exports, so its imports are its public names
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree):
    """(line, name) for every name the module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    tree = ast.parse("import os.path\nfrom a import b as c, d\nprint(d)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def _loaded_by_the_cli():
    """The top-level modules that importing the command line loads."""
    code = ("import json, sys; sys.path.insert(0, %r); before = set(sys.modules); "
            "import sigmavect.cli; "
            "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
            % str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out)


def test_the_cli_imports_the_standard_library_alone():
    # the package has no runtime dependency: importing the command line
    # loads no top-level module outside the standard library and sigmavect
    loaded = _loaded_by_the_cli()
    assert "sigmavect" in loaded
    assert [m for m in loaded if m not in sys.stdlib_module_names and m != "sigmavect"] == []


def test_the_cli_loads_no_introspection_modules():
    # every process pays for what the command line imports: `dataclasses`
    # alone would bring in `inspect`, `ast`, `dis` and `tokenize`
    loaded = _loaded_by_the_cli()
    assert [m for m in ("dataclasses", "inspect", "ast", "dis", "tokenize") if m in loaded] == []


def test_series_knows_nothing_of_hahn_frames():
    # integer frames, framed series and the quotient's fill live in `hahn`:
    # `series` imports neither `hahn` nor `gridsolve`, and neither `Series`
    # nor `LazySeries` defines a frame hook, as a class attribute, a method
    # or an attribute set on an instance
    tree = ast.parse((PACKAGE / "series.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[-1] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(a.name for a in node.names)
    assert imported & {"gridsolve", "hahn"} == set()
    hooks = {"frame", "at", "_fill", "_quotient"}
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        if cls.name not in ("Series", "LazySeries"):
            continue
        defined = set()
        for node in ast.walk(cls):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
        assert defined & hooks == set(), cls.name


def _names(node):
    """Every name that node reads, imports or reaches as an attribute."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
    return out


# the benchmark's tracer wraps it by name; it goes with the next benchmark change
NAMED_OUTSIDE_THE_PACKAGE = {"gridsolve.nonneg_solutions"}

# exported names that no module of the package names, each with what reaches
# it from outside `src/`: a benchmark file, the README, an acceptance
# criterion or an open ROADMAP item.  An entry goes once its name gains a
# caller in the package or stops being exported
REACHED_FROM_OUTSIDE = {
    "BornologicalMonoid": "bench/library_mix.py builds its monoid algebra",
    "monoid_algebra": "bench/library_mix.py builds its monoid algebra",
    "neumann_sum": "bench/library_mix.py sums Neumann series",
    "Rationals": "bench/tracing.py wraps its check",
    "TupleUniverse": "bench/tracing.py wraps its check",
    "print_expr": "acceptance criterion 11 round-trips the parser through it",
    "evaluate": "the README names it as the library's one-call entry",
    "generate": "ROADMAP item 5, generated bornologies and their duals",
    "extend_biperp": "ROADMAP items 5 and 11, the double dual of a map",
    "check_sigma_preserving": "ROADMAP item 11, the monoidal closed structure",
    "compose": "ROADMAP item 11, the monoidal closed structure",
    "identity_map": "ROADMAP item 11, the monoidal closed structure",
    "tensor_map": "ROADMAP item 11, the monoidal closed structure",
    "extend_derivation": "ROADMAP item 13, strong Kähler differentials",
    "module_action": "ROADMAP item 13, strong Kähler differentials",
}


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {a.asname or a.name for n in tree.body if isinstance(n, ast.ImportFrom) for a in n.names}


def test_every_public_definition_has_a_caller():
    # a public top-level function or class, and every name the package
    # exports, is named somewhere in the package outside `__init__.py` and
    # outside its own definition; an exported name nothing there names needs
    # a reason in REACHED_FROM_OUTSIDE.  Code that only its tests call is code
    # nothing needs
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    stmts = [(s, _names(s)) for tree in trees.values() for s in tree.body]
    # a local variable of the same name is not a caller, nor is recursion
    called = lambda name: any(name in names for s, names in stmts if getattr(s, "name", None) != name)
    exported = _exported()
    public = {d.name for module, tree in trees.items() for d in tree.body
              if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_")
              and "%s.%s" % (module, d.name) not in NAMED_OUTSIDE_THE_PACKAGE}
    uncalled = sorted(n for n in (public | exported) - set(REACHED_FROM_OUTSIDE) if not called(n))
    assert uncalled == []
    # an entry whose name is no longer exported, or has a caller now, goes
    stale = [name for name in REACHED_FROM_OUTSIDE if name not in exported or called(name)]
    assert stale == []


def test_every_reason_to_keep_an_export_names_what_reaches_it():
    # a benchmark file or the README that names the export, an acceptance
    # criterion whose test file names it, or an open ROADMAP item
    root = PACKAGE.parent.parent
    text = lambda path: (root / path).read_text(encoding="utf-8")
    open_items = text("ROADMAP.md").split("\n## Open items\n", 1)[1].split("\n## ", 1)[0]
    for name, reason in REACHED_FROM_OUTSIDE.items():
        files = re.findall(r"bench/\w+\.py", reason)
        if "README" in reason:
            files.append("README.md")
        criteria = re.findall(r"criterion (\d+)", reason)
        if criteria:
            files.append("tests/test_acceptance.py")
        items = [n for m in re.findall(r"items? ([\d, and]+)", reason) for n in re.findall(r"\d+", m)]
        assert files or items, name
        # a call or a qualified name, not the word in prose
        assert all(re.search(r"[.`]%s\b|\b%s\(" % (name, name), text(f)) for f in files), name
        assert all("def test_criterion_%02d_" % int(n) in text("tests/test_acceptance.py")
                   for n in criteria), name
        assert all(re.search(r"^%s\. \*\*" % n, open_items, re.M) for n in items), name


def test_an_arithmetic_atom_owns_its_integer_frame():
    # grid points are listed and tested on an arithmetic atom's own frame
    # (`sets._ArithmeticAtom.frame_points_upto` and `contains_at`): only
    # `gridsolve`, which defines the walk, and `sets` import or call
    # `grid_points_upto`, and `hahn._Frame` has no membership test of its own
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    naming = {name for name, tree in trees.items() if "grid_points_upto" in _names(tree)}
    assert naming <= {"gridsolve.py", "sets.py"}
    frame = next(n for n in trees["hahn.py"].body if isinstance(n, ast.ClassDef) and n.name == "_Frame")
    assert "member" not in {n.name for n in frame.body if isinstance(n, ast.FunctionDef)}
