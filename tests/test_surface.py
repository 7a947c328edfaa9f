"""The library surface: every function parameter, every module-level import
and every top-level function and class in src/cblocks is read."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cblocks"

# (module, function name prefix, parameter) kept unread on purpose: the CLI
# handlers share the signature (cfg, opts) through COMMANDS
ALLOWED = {("cli.py", "cmd_", "opts")}


def unread_parameters(source, module):
    """(module, function, line, parameter) for each parameter of a function or
    lambda in `source` that no expression in its body reads; self and cls
    are exempt."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for p in params:
            if p in read or p in ("self", "cls"):
                continue
            if any(module == m and name.startswith(prefix) and p == q
                   for m, prefix, q in ALLOWED):
                continue
            out.append((module, name, node.lineno, p))
    return out


def test_every_parameter_is_read():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unread = [u for path in modules
              for u in unread_parameters(path.read_text(), path.name)]
    assert unread == []


def test_unread_parameter_is_reported():
    source = (
        "def f(a, b=1, *rest, c, **kw):\n"
        "    return a + len(rest) + kw['x']\n"
        "g = lambda x, y: x\n"
        "class K:\n"
        "    def m(self, v):\n"
        "        return 0\n"
        "def cmd_run(cfg, opts):\n"
        "    return cfg\n"
    )
    assert unread_parameters(source, "cli.py") == [
        ("cli.py", "f", 1, "b"), ("cli.py", "f", 1, "c"),
        ("cli.py", "<lambda>", 3, "y"), ("cli.py", "m", 5, "v")]
    assert ("x.py", "cmd_run", 7, "opts") in unread_parameters(source, "x.py")


def unused_imports(source, module):
    """(module, line, name) for each name that a module-level import in
    `source` binds and no expression in the module reads."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in read:
                    out.append((module, node.lineno, name))
    return out


def test_every_import_is_used():
    # __init__.py imports to re-export
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert modules
    unused = [u for path in modules for u in unused_imports(path.read_text(), path.name)]
    assert unused == []


def test_unused_import_is_reported():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "from . import linalg, repspace\n"
        "from .ratfun import canonical_tt as ctt, demote\n"
        "def f():\n"
        "    import json\n"
        "    return linalg.rref, demote(1)\n"
    )
    assert unused_imports(source, "m.py") == [
        ("m.py", 1, "os"), ("m.py", 2, "osp"), ("m.py", 3, "repspace"), ("m.py", 4, "ctt")]


def form_constructions(source, module):
    """(module, line) for each call of the RationalForm constructor in
    `source`, by name or as an attribute (ratfun.RationalForm(...))."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "RationalForm":
                out.append((module, node.lineno))
    return out


def test_forms_are_assembled_in_ratfun_only():
    # every other module reaches forms through ratfun's sums, residues and
    # RationalForm.zero
    built = [c for path in sorted(SRC.glob("*.py")) if path.name != "ratfun.py"
             for c in form_constructions(path.read_text(), path.name)]
    assert built == []


def test_form_construction_is_reported():
    source = (
        "from .ratfun import RationalForm\n"
        "from . import ratfun\n"
        "a = RationalForm(1, (1,), num, {}, pts)\n"
        "b = ratfun.RationalForm(1, (1,), num, {}, pts)\n"
        "c = RationalForm.zero(1, (1,), pts)\n"
    )
    assert form_constructions(source, "m.py") == [("m.py", 3), ("m.py", 4)]


# what admissible.py may read from repspace: the weight check and the result
# type; a row builder there (invariant_constraint_rows, expand_row, apply_f,
# in_verma_kernel, ...) would let the two sides of the verdict share rows
ADMISSIBLE_FROM_REPSPACE = {"weight_matches", "TensorFunctional"}


def repspace_references(source):
    """Sorted names that `source` reads from repspace: `repspace.name`
    attributes and names imported from it."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "repspace"):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("repspace"):
            out.update(alias.name for alias in node.names)
    return sorted(out)


def test_admissible_builds_no_block_side_rows():
    used = repspace_references((SRC / "admissible.py").read_text())
    assert used and set(used) <= ADMISSIBLE_FROM_REPSPACE, used


def test_repspace_reference_is_reported():
    source = (
        "from . import repspace\n"
        "from .repspace import expand_row as er\n"
        "rows, cols = repspace.invariant_constraint_rows(rs, w, b)\n"
        "ok = repspace.weight_matches(rs, w, b)\n"
    )
    assert repspace_references(source) == [
        "expand_row", "invariant_constraint_rows", "weight_matches"]


def names_read(node):
    """Every identifier under `node`: names, attributes and imported names."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.alias):
            out.append(n.name.split(".")[-1])
    return out


def unnamed_definitions(modules, others):
    """(module, name) for each top-level function or class of `modules`
    (module -> source) that no code in `modules` or `others` (sources)
    names outside its own definition."""
    count = Counter()
    defined = []
    for module, source in modules.items():
        tree = ast.parse(source)
        count.update(names_read(tree))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name, names_read(node).count(node.name)))
    for source in others:
        count.update(names_read(ast.parse(source)))
    return [(module, name) for module, name, own in defined if count[name] == own]


def test_every_definition_is_named():
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    others = [path.read_text() for folder in ("tests", "bench")
              for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(modules) > 1 and others
    assert unnamed_definitions(modules, others) == []


def test_unnamed_definition_is_reported():
    modules = {
        "a.py": (
            "def used():\n"
            "    return 1\n"
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else 0\n"
            "class Dead:\n"
            "    def helper(self):\n"
            "        return helper\n"
            "def imported():\n"
            "    return used()\n"
        ),
        "b.py": "from .a import imported\nclass Attr:\n    pass\n",
    }
    others = ["import a\nx = a.Attr()\n"]
    assert unnamed_definitions(modules, others) == [("a.py", "recursive"), ("a.py", "Dead")]
    assert unnamed_definitions(modules, []) == [
        ("a.py", "recursive"), ("a.py", "Dead"), ("b.py", "Attr")]


def test_no_definition_is_reached_from_tests_only():
    # the library is what the verdict, the CLI, the exports (__init__.py is
    # one of the modules) and the benchmark run; a check that only tests call
    # lives in tests/paperchecks.py
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    bench = [path.read_text() for path in sorted((ROOT / "bench").rglob("*.py"))]
    assert "__init__.py" in modules and bench
    assert unnamed_definitions(modules, bench) == []


def test_definition_reached_from_tests_only_is_reported():
    modules = {
        "a.py": (
            "def verdict():\n"
            "    return kernel()\n"
            "def kernel():\n"
            "    return 1\n"
            "def exported():\n"
            "    return 2\n"
            "def paper_check():\n"
            "    return kernel() == 1\n"
        ),
        "__init__.py": "from .a import exported\n",
    }
    bench = ["from cblocks.a import verdict\nverdict()\n"]
    tests = ["from cblocks.a import paper_check\nassert paper_check()\n"]
    assert unnamed_definitions(modules, bench + tests) == []
    assert unnamed_definitions(modules, bench) == [("a.py", "paper_check")]
