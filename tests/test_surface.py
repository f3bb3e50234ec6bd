"""Every public function and class of todahess has a caller outside the tests.

A name counts as used when it appears in src/todahess anywhere but on its
own def/class line, or in perfbench/*.py.  A name that only tests reach
should join a criterion or CLI command, or be deleted with its tests.
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
