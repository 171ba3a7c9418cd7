"""The source keeps one home for putting rationals over a common denominator, and one exact solver.

harness_util.scaled puts rationals over their lcm, harness_util.unscaled
turns them back into Fractions, and harness_util.int_dtype picks int64 or
Python integers for a bound. An open-coded copy of any of them outside them
fails this scan. network._solve_integer is the one exact linear solver: a
float solve or a Bareiss elimination called from a second function fails it.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "opdyn"
HELPERS = {"scaled", "unscaled", "int_dtype"}
PATTERNS = {
    "open-coded scaling": re.compile(r"\.numerator\s*\*\s*\([^()]*//[^()]*\.denominator\s*\)"),
    "open-coded unscaling": re.compile(r"Fraction\(\s*(\w+)\s*,[^()]*\)\s+for\s+\1\s+in\s+set\("),
    "open-coded int64-or-object choice": re.compile(r"np\.int64\s+if\b[^\n]*\belse\s+object\b"),
}
SOLVER_CALLS = {"np.linalg.solve", "_bareiss"}


def _helper_lines():
    """{line number} of each helper's body in harness_util.py; fails unless every helper is there."""
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
    assert not hits, "use harness_util.scaled / unscaled / int_dtype:\n" + "\n".join(hits)


def _callers():
    """{called name: {"module.function" whose body calls it}} for the names in SOLVER_CALLS."""
    callers = defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and ast.unparse(node.func) in SOLVER_CALLS:
                        callers[ast.unparse(node.func)].add(f"{path.stem}.{fn.name}")
    return callers


def test_one_exact_solve_pipeline():
    # one caller each, so a second exact-solve pipeline cannot grow beside network._solve_integer
    callers = _callers()
    for name in sorted(SOLVER_CALLS):
        assert len(callers[name]) == 1, f"{name} is called from {sorted(callers[name])}, want one function"
