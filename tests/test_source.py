"""The source keeps one home for putting rationals over a common denominator, one exact solver and one cube.

harness_util.scaled puts rationals over their lcm, harness_util.unscaled
turns them back into Fractions, and harness_util.int_dtype picks int64 or
Python integers for a bound. An open-coded copy of any of them outside them
fails this scan. network._solve_integer is the one exact linear solver: a
float solve or a Bareiss elimination called from a second function fails it,
and so does a call of _solve_integer from a function that is not one of the
three that prove their system nonsingular where they build it.
signals.cube is the one enumerator of the signal cube: bits or digits cut
from np.arange, tiled repeats, np.indices or itertools.product anywhere else
fail it, except in signals.map_accuracy_three_bits, whose three bits each
have their own law. network._slots is the one neighbour table: the
kernels read agent i's neighbours from it or from the IntegerView's rows,
never from Network.out_neighbors or by splitting the rows with np.split,
except in degroot.step, the Fraction reference simulator.
The stationary solve is the one proof of the voter absorption table:
voter._certify_table, its exhaustive certificate, is called in src only by
the voter-identity audit, harness._exp_voter_identity. Every seeded draw
comes from a numpy generator: no module imports Python's random.
signals.bernoulli_blocks is the one Bernoulli signal stream: _MC_BLOCK is
set in signals.py only, and no other module draws a block of uniforms
with .random((rows, n)).
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
# each builds its system [A | b] and proves A nonsingular; a new caller comes here with its proof
SOLVE_INTEGER_CALLERS = {"network._exact_stationary", "degroot.cheater_limit_exact", "cascade.limit_accuracy"}
# the kernel rests on the stationary solve's proof; only the gate's audit runs the 4^n certificate
CERTIFY_TABLE_CALLERS = {"harness._exp_voter_identity"}
PRIVATE_CALLS = {"_solve_integer", "_certify_table"}    # matched under any module prefix
CUBE_HOMES = {"cube", "map_accuracy_three_bits"}
CUBE_PATTERNS = {
    "bits shifted out of np.arange": re.compile(r">>\s*np\.arange"),
    "digits divided out of np.arange": re.compile(r"//\s*\w+\s*\*\*\s*np\.arange"),
    "tiled repeats": re.compile(r"np\.tile\(\s*np\.repeat\("),
    "grid coordinates": re.compile(r"np\.indices\("),
}

STREAM_PATTERNS = {
    "sets _MC_BLOCK": re.compile(r"^\s*_MC_BLOCK\s*[:=]", re.MULTILINE),
    "draws a block of uniforms": re.compile(r"\.random\(\s*\("),
}

NEIGHBOUR_READERS = ("voter", "majority", "bayes", "degroot", "cascade")
ROW_READ_EXEMPT = {"degroot.step"}


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
    """{called name: {"module.function" whose body calls it}} for the names in SOLVER_CALLS and PRIVATE_CALLS."""
    callers = defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        name = ast.unparse(node.func)
                        if name.rpartition(".")[2] in PRIVATE_CALLS:     # network._solve_integer too
                            name = name.rpartition(".")[2]
                        if name in SOLVER_CALLS | PRIVATE_CALLS:
                            callers[name].add(f"{path.stem}.{fn.name}")
    return callers


def test_one_exact_solve_pipeline():
    # one caller each, so a second exact-solve pipeline cannot grow beside network._solve_integer
    callers = _callers()
    for name in sorted(SOLVER_CALLS):
        assert len(callers[name]) == 1, f"{name} is called from {sorted(callers[name])}, want one function"
    assert callers["_solve_integer"] == SOLVE_INTEGER_CALLERS, \
        f"_solve_integer is called from {sorted(callers['_solve_integer'])}, want {sorted(SOLVE_INTEGER_CALLERS)}"


def test_absorption_certificate_is_only_the_audit():
    callers = _callers()["_certify_table"]
    assert callers == CERTIFY_TABLE_CALLERS, \
        f"_certify_table is called from {sorted(callers)}, want only {sorted(CERTIFY_TABLE_CALLERS)}"


def _product_lines(tree):
    """Line numbers of every itertools.product import or attribute in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools" \
                and any(alias.name == "product" for alias in node.names):
            lines.add(node.lineno)
        if isinstance(node, ast.Attribute) and node.attr == "product" and ast.unparse(node.value) == "itertools":
            lines.add(node.lineno)
    return lines


def test_one_cube_enumerator():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        allowed = set()
        if path.name == "signals.py":
            allowed = {line for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in CUBE_HOMES
                       for line in range(node.lineno, node.end_lineno + 1)}
            assert "cube" in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        found = [(line, "itertools.product") for line in _product_lines(tree)]
        for what, pattern in CUBE_PATTERNS.items():
            found += [(text.count("\n", 0, m.start()) + 1, what) for m in pattern.finditer(text)]
        hits += [f"{path.name}:{line}: {what}" for line, what in sorted(found) if line not in allowed]
    assert not hits, "enumerate the cube with signals.cube:\n" + "\n".join(hits)


def _row_reads(tree):
    """(top-level name, line) of every .out_neighbors( or np.split( call in a parsed module."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (isinstance(node.func, ast.Attribute) and node.func.attr == "out_neighbors"
                                               or ast.unparse(node.func) == "np.split"):
                yield getattr(top, "name", "<module>"), node.lineno


def test_one_neighbour_table():
    hits = []
    for module in NEIGHBOUR_READERS:
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        hits += [f"{module}.py:{line}: {name}" for name, line in _row_reads(tree)
                 if f"{module}.{name}" not in ROW_READ_EXEMPT]
    assert not hits, "read neighbours from network._slots or the IntegerView rows:\n" + "\n".join(hits)


def test_no_module_imports_python_random():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:     # not a relative import
                names = [node.module]
            else:
                continue
            hits += [f"{path.name}:{node.lineno}: import {name}" for name in names
                     if name.partition(".")[0] == "random"]
    assert not hits, "draw from a numpy generator, np.random.default_rng(seed):\n" + "\n".join(hits)



def test_one_bernoulli_signal_stream():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for what, pattern in STREAM_PATTERNS.items():
            lines = [text.count("\n", 0, m.start()) + 1 for m in pattern.finditer(text)]
            if path.name == "signals.py":
                assert lines, f"signals.py no longer {what}"
            else:
                hits += [f"{path.name}:{line}: {what}" for line in lines]
    assert not hits, "draw S and the signals with signals.bernoulli_blocks:\n" + "\n".join(hits)
