"""Every public function and class of todahess has a caller outside the
tests, and every defaulted parameter of one has a caller that sets it.

A name counts as used when it appears in src/todahess anywhere but on its
own def/class line, or in perfbench/*.py.  A name that only tests reach
should join a criterion or CLI command, or be deleted with its tests.  A
defaulted parameter that no call in src/todahess or perfbench/*.py sets has
one value in use, which belongs in a module constant.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "todahess"


def public_definitions():
    """(path, name, line) of each top-level public function and class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
                node.name.startswith("_")
            ):
                yield path, node.name, node.lineno


def test_every_public_name_has_a_non_test_caller():
    src = {p: p.read_text(encoding="utf-8").splitlines() for p in SRC.glob("*.py")}
    bench = "\n".join(
        p.read_text(encoding="utf-8") for p in (ROOT / "perfbench").glob("*.py")
    )
    unused = []
    for own, name, own_line in public_definitions():
        word = re.compile(rf"\b{name}\b")
        used = word.search(bench) or any(
            word.search(line)
            for path, lines in src.items()
            for i, line in enumerate(lines, 1)
            if (path, i) != (own, own_line)
        )
        if not used:
            unused.append(f"{own.stem}.{name}")
    assert not unused, f"public names reached only from tests: {unused}"


#: defaulted parameters that no call in the package or the benchmark sets,
#: each with the reason it stays a parameter
UNSET_DEFAULTS = {
    "cli.main(argv)": "the console entry point calls main() with sys.argv; "
                      "tests pass argv",
    "acceptance.convergence_in_n(n_values)": "the full N set takes about 1 s, "
                                             "against 10 ms in its test",
}


def public_callables():
    """(qualified name, def node, self offset) of each public function and
    each public method of a public class, in the public modules."""
    for path in sorted(SRC.glob("*.py")):
        if path.stem.startswith("_"):
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node, 0
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for meth in node.body:
                    if isinstance(meth, ast.FunctionDef) and not meth.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{meth.name}", meth, 1


def defaulted(fn: ast.FunctionDef) -> list:
    args = fn.args
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):] if args.defaults else []
    return [a.arg for a in named] + [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def passed(call: ast.Call, fn: ast.FunctionDef, offset: int) -> set:
    """Parameters of fn that call sets; a starred positional argument sets
    none (nor do the positions after it), a **mapping sets every one."""
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    out = set()
    for i, arg in enumerate(call.args, offset):
        if isinstance(arg, ast.Starred) or i >= len(params):
            break
        out.add(params[i])
    for kw in call.keywords:
        if kw.arg is None:
            return set(params) | {a.arg for a in fn.args.kwonlyargs}
        out.add(kw.arg)
    return out


def calls_by_name() -> dict:
    """Called name (a bare name or the last attribute) -> calls, over
    src/todahess and perfbench/*.py."""
    paths = [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    out = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                out.setdefault(name, []).append(node)
    return out


def unset_defaults() -> list:
    calls = calls_by_name()
    unset = []
    for qual, fn, offset in public_callables():
        params = defaulted(fn)
        seen = set().union(*(passed(c, fn, offset) for c in calls.get(fn.name, [])))
        unset += [f"{qual}({p})" for p in params if p not in seen]
    return unset


def test_every_defaulted_parameter_is_set_by_some_caller():
    unset = unset_defaults()
    assert set(UNSET_DEFAULTS) <= set(unset), "stale exemption"
    extra = [name for name in unset if name not in UNSET_DEFAULTS]
    assert not extra, f"defaulted parameters no caller sets: {extra}"
