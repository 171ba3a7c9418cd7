"""The source keeps one home for putting rationals over a common denominator.

harness_util.scaled puts rationals over their lcm and harness_util.int_dtype
picks int64 or Python integers for a bound. An open-coded copy of either
outside them fails this scan.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "opdyn"
HELPERS = {"scaled", "int_dtype"}
PATTERNS = {
    "open-coded scaling": re.compile(r"\.numerator\s*\*\s*\([^()]*//[^()]*\.denominator\s*\)"),
    "open-coded int64-or-object choice": re.compile(r"np\.int64\s+if\b[^\n]*\belse\s+object\b"),
}


def _helper_lines():
    """{line number} of each helper's body in harness_util.py; fails unless both helpers are there."""
    tree = ast.parse((SRC / "harness_util.py").read_text(encoding="utf-8"))
    found = {node.name: range(node.lineno, node.end_lineno + 1)
             for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in HELPERS}
    assert set(found) == HELPERS, f"harness_util.py lacks {HELPERS - set(found)}"
    return {line for lines in found.values() for line in lines}


def test_no_open_coded_scaling_outside_the_helpers():
    allowed = _helper_lines()
    hits = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for what, pattern in PATTERNS.items():
            for match in pattern.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                if not (path.name == "harness_util.py" and line in allowed):
                    hits.append(f"{path.name}:{line}: {what}: {match.group(0)}")
    assert not hits, "use harness_util.scaled / int_dtype:\n" + "\n".join(hits)
