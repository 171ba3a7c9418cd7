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
never from Network.out_neighbors or by splitting the rows with np.split.
The stationary solve is the one proof of the voter absorption table:
voter._certify_table, its exhaustive certificate, is called in src only by
the voter-identity audit, harness._exp_voter_identity.
network._symmetric_pairs is the one pair view of an undirected network:
Network has no `directed` flag, so no src module reads a `.directed`
attribute, and network._pairs_connected, which checks a pair list, is
called only by the topology generator network._undirected_pairs for
random_regular; every other connectivity verdict is the IntegerView's. Every seeded draw
comes from a numpy generator: no module imports Python's random.
signals.bernoulli_blocks is the one Bernoulli signal stream: _MC_BLOCK is
set in signals.py only, and no other module draws a block of uniforms
with .random((rows, n)).
The package holds only what it runs: every top-level function or class in
src/opdyn is referenced by another definition there, as a bare name in its
own module, through `from .mod import name` and a use of the name, or as
`mod.name` on a module imported with `from . import mod`, unless it is on
UNREFERENCED_CALLERS with the caller outside src that keeps it. Every
method of a src class, dunders aside, has its name read as an attribute
somewhere in src outside its own body, under the same allow-list; a method
name that two classes define is on SHARED_METHOD_NAMES with both classes,
since an attribute read cannot tell them apart.
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
# a drawn pair list is checked before it becomes a network; a network's connectivity is its view's verdict
PAIRS_CONNECTED_CALLERS = {"network._undirected_pairs"}
PRIVATE_CALLS = {"_solve_integer", "_certify_table", "_pairs_connected"}    # matched under any module prefix
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
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

# top-level definitions that no src definition references, each with the caller outside src that keeps it
UNREFERENCED_CALLERS = {
    "degroot.hoeffding_success_bound": "bench/workloads.py",
    "voter.run_strong_voter": "bench/workloads.py",
    "harness.run_registry": "bench/record_golden.py",
}
# method names that more than one src class defines, each with all its classes
SHARED_METHOD_NAMES = {}


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


def test_one_pair_view():
    callers = _callers()["_pairs_connected"]
    assert callers == PAIRS_CONNECTED_CALLERS, \
        f"_pairs_connected is called from {sorted(callers)}, want only {sorted(PAIRS_CONNECTED_CALLERS)}"
    hits = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for path in sorted(SRC.glob("*.py")) for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr == "directed"]
    assert not hits, "undirected is read off the edges, with network._symmetric_pairs:\n" + "\n".join(hits)


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
        hits += [f"{module}.py:{line}: {name}" for name, line in _row_reads(tree)]
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


def _referenced(trees):
    """{(module, name)} that some src definition references, other than the definition of name itself.

    A bare name resolves through the module's `from .mod import name` imports, else to the module
    itself; an attribute counts only on a module imported with `from . import mod`, so a method
    call such as hood.step references no module-level step.
    """
    refs = set()
    for module, tree in trees.items():
        imported, modules = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules.add(alias.asname or alias.name)
                    else:
                        imported[alias.asname or alias.name] = (node.module, alias.name)
        for top in tree.body:
            own = top.name if isinstance(top, DEFINITIONS) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    refs.add(imported.get(node.id, (module, node.id)))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                        and node.value.id in modules:
                    refs.add((node.value.id, node.attr))
    return refs


def _methods(trees):
    """{method name: [("module.Class", FunctionDef)]} of every method of a top-level src class, dunders aside."""
    methods = defaultdict(list)
    for module, tree in trees.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                            and not (fn.name.startswith("__") and fn.name.endswith("__")):
                        methods[fn.name].append((f"{module}.{cls.name}", fn))
    return methods


def _unread_methods(trees, methods):
    """{"module.Class.method": "module.py:line: Class.method"} of the methods that src never reads.

    A method is read when its name is an attribute anywhere in src outside its own body.
    """
    reads = defaultdict(list)       # attribute name -> (module, line) of every read
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads[node.attr].append((module, node.lineno))
    return {f"{owner}.{name}": f"{owner.partition('.')[0]}.py:{fn.lineno}: {owner.partition('.')[2]}.{name}"
            for name, defs in methods.items() for owner, fn in defs
            if all(module == owner.partition(".")[0] and fn.lineno <= line <= fn.end_lineno
                   for module, line in reads[name])}


def test_every_src_definition_is_referenced():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    refs = _referenced(trees)
    unreferenced = {f"{module}.{top.name}": f"{module}.py:{top.lineno}: {top.name}"
                    for module, tree in trees.items() for top in tree.body
                    if isinstance(top, DEFINITIONS) and (module, top.name) not in refs}
    methods = _methods(trees)
    unreferenced.update(_unread_methods(trees, methods))
    hits = [where for name, where in unreferenced.items() if name not in UNREFERENCED_CALLERS]
    assert not hits, "no src definition references these; move them to tests/oracles.py:\n" + "\n".join(hits)
    stale = sorted(set(UNREFERENCED_CALLERS) - set(unreferenced))
    assert not stale, f"now referenced in src or gone, drop from UNREFERENCED_CALLERS: {stale}"
    shared = {name: sorted(owner for owner, _fn in defs) for name, defs in methods.items() if len(defs) > 1}
    unlisted = [f"{name}: {owners}" for name, owners in shared.items()
                if sorted(SHARED_METHOD_NAMES.get(name, ())) != owners]
    assert not unlisted, "an attribute read cannot tell these methods apart; rename one, or list both classes " \
                         "on SHARED_METHOD_NAMES:\n" + "\n".join(unlisted)
    stale = sorted(set(SHARED_METHOD_NAMES) - set(shared))
    assert not stale, f"no longer shared, drop from SHARED_METHOD_NAMES: {stale}"
