"""The library surface: every function parameter in src/cblocks is read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cblocks"

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
