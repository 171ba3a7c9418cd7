import hashlib
import logging
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from opdyn import network
from opdyn.harness_util import int_dtype, scaled, unscaled
from opdyn.network import (GENERATE_MAX_SIZE, Network, _pairs_connected, from_pairs, generate, read_network,
                           require_stochastic, stationary_distribution, validate)
from oracles import (ball, distances_from, edge_weight, fraction_stationary, fraction_violations, fraction_weight_matrix,
                     is_symmetric, mixing_tv, rational_digraphs, reachability_distances, solve_rational,
                     undirected_edge_list, write_network)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def test_lazy_uniform_rows_are_stochastic():
    net = generate("cycle", 7)
    for i in range(7):
        nb = net.out_neighbors(i)
        assert i in nb
        assert sum(nb.values()) == 1
        assert all(w == Fraction(1, 3) for w in nb.values())


def test_validate_flags_bad_rows():
    net = Network(n=2, edges=((0, 1, Fraction(1, 2)), (1, 0, Fraction(1))))
    rep = validate(net, require_stochastic=True)
    assert not rep.ok


BAD_ROWS = {
    "no self-loops, a row short of 1": ((0, 1, Fraction(1, 2)), (1, 0, Fraction(1))),
    "a zero and a negative weight": ((0, 0, Fraction(1)), (0, 1, Fraction(0)), (1, 0, Fraction(3, 2)),
                                     (1, 1, Fraction(-1, 2))),
    "an agent without out-edges": ((0, 0, Fraction(1, 2)), (0, 1, Fraction(1, 2))),
    "two components": ((0, 0, Fraction(1)), (1, 1, Fraction(1))),
    "ints that sum to 3": ((0, 0, 1), (0, 1, 2), (1, 0, 1), (1, 1, 0)),
}


@pytest.mark.parametrize("name", BAD_ROWS)
def test_bad_rows_are_refused_with_the_fraction_oracles_messages(name):
    # the integer view finds the violations the row sums over Fractions find, in the same order
    net = Network(n=2, edges=BAD_ROWS[name])
    want = fraction_violations(net, require_stochastic=True)
    assert want and validate(net, require_stochastic=True).violations == want
    assert validate(net).violations == fraction_violations(net)
    for _ in range(2):      # the verdict is kept, and the refusal repeats
        with pytest.raises(ValueError) as exc:
            require_stochastic(net)
        assert str(exc.value) == "network fails stochastic validation: " + "; ".join(want)


@pytest.mark.parametrize("edges, edge, weight", [
    (((0, 0, Fraction(1, 2)), (0, 1, 0.5 + 1e-9), (1, 0, Fraction(1, 2)), (1, 1, Fraction(1, 2))), "(0,1)",
     "0.500000001"),
    (((0, 0, 1), (0, 1, float("nan")), (1, 0, float("inf")), (1, 1, 0)), "(0,1)", "nan"),
    (((0, 0, np.float64(0.25)), (0, 1, Fraction(3, 4)), (1, 1, 1)), "(0,0)", "np.float64(0.25)"),
], ids=["float rows off by 1e-9", "a NaN and an infinite weight", "a numpy float"])
def test_non_rational_weights_are_refused(edges, edge, weight):
    # the refusal names the first such edge and how to write its weight exactly
    with pytest.raises(ValueError, match=rf"^edge {re.escape(edge)} has the weight {re.escape(weight)}, which is not "
                                         r"rational: pass an int or a Fraction, such as Fraction\(str\(w\)\)$"):
        Network(n=2, edges=edges)


def test_rational_weights_of_every_type_become_fractions():
    net = Network(n=2, edges=((0, 0, np.int64(1)), (1, 0, True), (1, 1, Fraction(0)), (0, 1, 0)))
    assert all(type(edge_weight(net, i, j)) is Fraction for i, j, _w in net.edges)
    assert [edge_weight(net, 0, 0), edge_weight(net, 1, 0), edge_weight(net, 1, 1)] == [1, 1, 0]
    assert validate(net, require_stochastic=True).violations == [
        "non-positive weight on edge (0,1)", "non-positive weight on edge (1,1)"]


def test_integer_view_is_built_once_per_network(monkeypatch):
    built, real = [], network.IntegerView
    monkeypatch.setattr(network, "IntegerView", lambda net: built.append(net) or real(net))
    net = generate("cycle", 6)
    for _ in range(3):
        validate(net, require_stochastic=True)
        stationary_distribution(net)
        net.weight_matrix()
    assert built == [net]
    view = require_stochastic(net)
    assert view.indptr.tolist() == [0, 3, 6, 9, 12, 15, 18]
    assert view.J.tolist()[:6] == [0, 1, 5, 0, 1, 2] and (view.C == 1).all() and (view.D == 3).all()
    assert np.array_equal(net.weight_matrix(), np.array(fraction_weight_matrix(net), dtype=float))


def test_integer_view_rows():
    # edges listed out of order: each row of the view is in index order, counts over the row's lcm
    net = Network(n=3, edges=((0, 2, Fraction(1, 6)), (0, 0, Fraction(1, 2)), (0, 1, Fraction(1, 3)),
                              (1, 1, Fraction(3, 4)), (1, 0, Fraction(1, 4)), (2, 2, Fraction(1, 2)),
                              (2, 1, Fraction(1, 2))))
    view = require_stochastic(net)
    assert view.J.tolist() == [0, 1, 2, 0, 1, 1, 2] and view.rows.tolist() == [0, 0, 0, 1, 1, 2, 2]
    assert view.C.tolist() == [3, 2, 1, 1, 3, 1, 1] and view.D.tolist() == [6, 4, 2]
    assert np.array_equal(net.weight_matrix(), np.array(fraction_weight_matrix(net), dtype=float))


def test_stationary_path3_closed_form():
    # lazy path on 3 vertices: alpha proportional to |N(i)| = (2, 3, 2)
    sd = stationary_distribution(generate("chain", 3))
    assert sd.alpha == (Fraction(2, 7), Fraction(3, 7), Fraction(2, 7))
    assert sd.exact


def test_stationary_is_left_fixed_point():
    net = generate("random_regular", 10, d=3, seed=3)
    sd = stationary_distribution(net)
    P = fraction_weight_matrix(net)
    for j in range(net.n):
        assert sum(sd.alpha[i] * P[i][j] for i in range(net.n)) == sd.alpha[j]


def test_stationary_rebuilds_each_distinct_value_once(monkeypatch):
    # a regular graph's alpha is uniform, so its 64 float guesses share one value to rebuild
    net = generate("random_regular", 64, d=4, seed=1)
    calls = []
    real = network.rationalize
    monkeypatch.setattr(network, "rationalize", lambda x: calls.append(x) or real(x))
    assert stationary_distribution(net).alpha == (Fraction(1, 64),) * 64
    assert len(calls) == 1


def test_mixing_tv_decreases():
    net = generate("cycle", 5)
    assert mixing_tv(net, 0, 64) < mixing_tv(net, 0, 2)


def test_ball_radius():
    net = generate("chain", 7)
    sub, verts = ball(net, 3, 1)
    assert verts == [2, 3, 4]
    assert sub.n == 3
    sub0, verts0 = ball(net, 0, 0)
    assert verts0 == [0]


def test_file_round_trip(tmp_path):
    path = tmp_path / "g.txt"
    # every spelling of a weight is read exactly
    path.write_text("n 3 directed\n0 0 1\n1 0 0.25\n1 1 1/4\n1 2 2.5e-1\n2 2 1\n")
    decimal = read_network(path)
    assert [edge_weight(decimal, i, j) for i, j, _w in decimal.edges] == [1] + [Fraction(1, 4)] * 3 + [1]
    assert all(type(edge_weight(decimal, i, j)) is Fraction for i, j, _w in decimal.edges)
    for net, header in ((generate("star", 5), "n 5 undirected"), (decimal, "n 3 directed"),
                        (Network(n=2, edges=((0, 1, np.int64(1)), (1, 0, np.int64(1)))), "n 2 undirected")):
        write_network(net, path)
        assert path.read_text().splitlines()[0] == header
        back = read_network(path)
        assert (back.n, back.edges) == (net.n, net.edges)
        assert all(back.out_neighbors(i) == net.out_neighbors(i) for i in range(net.n))


def test_read_network_skips_indented_comments(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a triangle\nn 3 directed\n  # note\n\t# tabbed\n0 1 1\n\n1 2 1\n   \n0 2 1\n")
    net = read_network(path)
    assert net.n == 3
    assert [sorted(net.out_neighbors(i)) for i in range(3)] == [[1, 2], [2], []]


@pytest.mark.parametrize("body, message", [
    ("n 3 undirected\n0 1 1\n0 2\n", "line 3: expected 'src dst weight'"),
    ("n 3 undirected\n# c\n0 1 x\n", "line 3: expected 'src dst weight'"),
    ("n 3 undirected\n0 1 1/0\n", "line 2: expected 'src dst weight'"),
    ("n 2 directed\n0 0 1\n0 1 nan\n", "line 3: expected 'src dst weight': Invalid literal for Fraction: 'nan'"),
    ("n 2 directed\n0 0 inf\n", "line 2: expected 'src dst weight': Invalid literal for Fraction: 'inf'"),
    ("n 2 directed\n\n0 0 1e-100000\n", "line 3: expected 'src dst weight': the rational '1e-100000' needs more "
                                         "than 4300 digits"),
    ("\n# only a comment\nn three undirected\n", "line 3: expected 'n <count> directed|undirected'"),
    ("n 3 sideways\n", "line 1: expected 'n <count> directed|undirected'"),
    ("n 0 directed\n", "line 1: a network needs at least 1 agent, got 'n 0 directed'"),
    ("  # nothing else\n", "empty graph file"),
])
def test_read_network_errors_name_the_line(tmp_path, body, message):
    path = tmp_path / "g.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=message):
        read_network(path)


def test_read_network_checks_the_undirected_header(tmp_path):
    path = tmp_path / "g.txt"
    # the claim is checked, and the first edge without its reverse is named by its line
    path.write_text("n 3 undirected\n0 0 1\n# c\n0 1 1\n\n1 2 1\n1 0 1\n")
    with pytest.raises(ValueError, match=re.escape("line 6: the header says undirected, but edge (1,2) has no "
                                                   "reverse (2,1)")):
        read_network(path)
    # `directed` claims nothing: the same edges read, and symmetric edges are undirected whatever the header says
    path.write_text(path.read_text().replace("undirected", "directed"))
    assert not is_symmetric(read_network(path))
    path.write_text("n 2 directed\n0 0 1/2\n0 1 1/2\n1 0 1/2\n1 1 1/2\n")
    assert read_network(path).cached(network._symmetric_pairs).tolist() == [[0, 0], [0, 1], [1, 1]]


WEIGHTS = st.one_of(st.integers(1, 5), st.integers(1, 5).map(np.int64), st.fractions(0, 3, max_denominator=7))


@st.composite
def _edge_lists(draw, symmetric):
    """(n, edges) on n <= 8 agents, in a drawn order, with weights of every rational type.

    symmetric: every arc with its reverse. Otherwise at least one arc between two agents lacks its reverse.
    """
    n = draw(st.integers(1 if symmetric else 2, 8))
    node = st.integers(0, n - 1)
    arcs = draw(st.sets(st.tuples(node, node), max_size=3 * n))
    if symmetric:
        arcs |= {(j, i) for i, j in arcs}
    else:
        i, j = draw(st.tuples(node, node).filter(lambda a: a[0] != a[1]))
        arcs = (arcs | {(i, j)}) - {(j, i)}
    order = draw(st.permutations(sorted(arcs)))
    return n, tuple((i, j, draw(WEIGHTS)) for i, j in order)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_symmetric_pairs_match_the_edge_list_oracle(data):
    n, edges = data.draw(_edge_lists(symmetric=True))
    net = Network(n=n, edges=edges)
    assert net.edges == edges       # kept as given: the view is the only store of the weights
    assert [tuple(p) for p in net.cached(network._symmetric_pairs).tolist()] == undirected_edge_list(net)
    for i in range(n):
        assert net.out_neighbors(i) == {j: Fraction(w) for a, j, w in edges if a == i}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_asymmetric_edges_are_refused_naming_an_edge_without_its_reverse(data):
    n, edges = data.draw(_edge_lists(symmetric=False))
    net = Network(n=n, edges=edges)
    arcs = {(i, j) for i, j, _w in edges}
    i, j = next((i, j) for i, j, _w in edges if (j, i) not in arcs)
    for _ in range(2):      # nothing is kept, and the refusal repeats
        with pytest.raises(ValueError, match=re.escape(f"the network is not undirected: edge ({i},{j}) has no "
                                                       f"reverse ({j},{i})")):
            net.cached(network._symmetric_pairs)
    assert not is_symmetric(net)


def test_from_pairs_matches_generate():
    a = from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    b = generate("chain", 4)
    for i in range(4):
        assert a.out_neighbors(i) == b.out_neighbors(i)


# first 16 hex digits of sha256(repr(generate(*args).edges)); these topologies must not move
TOPOLOGY_DIGESTS = {
    ("chain", 9): "de0103ff74676ef7", ("chain", 16): "50f20ee8eff13a3a",
    ("cycle", 9): "25f9f9be6add65dd", ("cycle", 16): "73caa5bf5dd83ae5",
    ("complete", 9): "17f47676f61ecc5c", ("complete", 16): "ff35875bf1ecb797",
    ("star", 9): "6dfa9e5b5a93c639", ("star", 16): "d53cfb0cc9d16273",
    ("grid", 9): "dd800abcc2bd212e", ("grid", 16): "421334e4e97e7f20",
    ("random_regular", 20, 3, 0): "23e73956628c1adf", ("random_regular", 20, 3, 1): "972a03c4e342b960",
    ("random_regular", 20, 3, 2): "01c9fc456f0733d2", ("random_regular", 20, 3, 3): "6ac9052ab67c0993",
    ("random_regular", 20, 3, 4): "2b109ad266ca24ff",
    ("random_regular", 40, 4, 0): "02a9e73ad1adc498", ("random_regular", 40, 4, 1): "42085f75911d80a7",
    ("random_regular", 40, 4, 2): "92fcaee06f90d3a0", ("random_regular", 40, 4, 3): "7b3700bec587024c",
    ("random_regular", 40, 4, 4): "95e19ecb224c6231",
}


def test_seeded_topologies_are_pinned():
    for args, digest in TOPOLOGY_DIGESTS.items():
        kind, n, *rest = args
        d, seed = rest or (None, None)
        net = generate(kind, n, d=d, seed=seed)
        assert hashlib.sha256(repr(net.edges).encode()).hexdigest()[:16] == digest, args


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 8))
def test_bfs_matches_reachability_oracle(data, n):
    # at most 2n edges: disconnected graphs and nodes without out-edges are common
    node = st.integers(0, n - 1)
    edges = sorted(data.draw(st.sets(st.tuples(node, node), max_size=2 * n)))
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = True
    net = Network(n=n, edges=tuple((i, j, 1) for i, j in edges))
    dists = [reachability_distances(adj, c) for c in range(n)]
    for c in range(n):
        assert distances_from(net, c) == dists[c]
    assert net.is_strongly_connected() == all(-1 not in d for d in dists)
    undirected = adj | adj.T
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if undirected[i, j]]
    assert _pairs_connected(n, pairs) == (-1 not in reachability_distances(undirected, 0))


def test_random_regular_needs_a_seed():
    # the graph is drawn from the seed, so without one every call could build another graph
    with pytest.raises(ValueError, match="random_regular requires seed"):
        generate("random_regular", 10, d=3)
    assert generate("random_regular", 10, d=3, seed=5).edges == generate("random_regular", 10, d=3, seed=5).edges


def test_random_regular_is_uniform_over_connected_labelled_graphs():
    # the model, not the stream: 3-regular graphs on 6 labelled agents are 10 copies of K3,3 and 60 prisms
    seeds = range(2100)
    bipartite = 0
    for seed in seeds:
        pairs = set(network._undirected_pairs("random_regular", 6, 3, seed))
        bipartite += not any({(a, b), (a, c), (b, c)} <= pairs for a, b, c in combinations(range(6), 3))
    share = len(seeds) / 7
    assert abs(bipartite - share) <= 4 * (share * 6 / 7) ** 0.5, bipartite
    # 2-regular graphs on 6 agents are 60 hexagons and 10 pairs of triangles, which are not connected
    hexagons = Counter(tuple(network._undirected_pairs("random_regular", 6, 2, seed)) for seed in seeds)
    assert all(_pairs_connected(6, pairs) for pairs in hexagons) and len(hexagons) == 60
    expected = len(seeds) / 60
    chi_square = sum((seen - expected) ** 2 / expected for seen in hexagons.values())
    assert chi_square < 108.16, chi_square     # the chi-square quantile of 59 degrees of freedom at 1 - 1e-4


def test_network_needs_an_agent():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            Network(n=n, edges=())


def test_power_iteration_reads_the_view_rows(monkeypatch):
    # the dense weight matrix of cycle:20000 takes 3 GB
    monkeypatch.setattr(Network, "weight_matrix", lambda self: pytest.fail("the dense matrix was built"))
    sd = stationary_distribution(generate("cycle", 20000))
    assert not sd.exact and np.allclose(sd.as_floats(), 1 / 20000, rtol=1e-12, atol=0)
    # chain:201 is above the exact cap, and its alpha_i = |N(i)| / sum_j |N(j)| = (d_i + 1) / (3 n - 2)
    net = generate("chain", network.EXACT_SOLVE_MAX_N + 1)
    want = np.array([len(net.out_neighbors(i)) for i in range(net.n)]) / (3 * net.n - 2)
    assert np.allclose(stationary_distribution(net).as_floats(), want, rtol=0, atol=1e-6)


def test_slot_table_lays_out_the_view_rows():
    # idx[k, i] is agent i's k-th out-neighbour in index order where keep[k, i] is set, else i itself
    lonely = Network(n=3, edges=((0, 0, 1), (0, 1, 0), (1, 0, Fraction(1, 2)), (1, 2, Fraction(1, 2))))
    for net in (generate("star", 5), generate("grid", 9), generate("chain", 1), lonely):
        idx, keep = net.cached(network._slots)
        deg = [len(net.out_neighbors(i)) for i in range(net.n)]
        assert idx.shape == keep.shape == (max(deg), net.n)
        for i in range(net.n):
            assert keep[:, i].tolist() == [k < deg[i] for k in range(max(deg))]
            assert idx[keep[:, i], i].tolist() == sorted(net.out_neighbors(i))
            assert (idx[~keep[:, i], i] == i).all()
        assert net.cached(network._slots)[0] is idx


def test_random_regular_degrees():
    net = generate("random_regular", 12, d=4, seed=0)
    assert net.is_strongly_connected()
    for i in range(12):
        assert len(net.out_neighbors(i)) == 5  # d neighbors plus self


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 9), kind=st.sampled_from(["chain", "cycle", "star", "complete"]))
def test_generated_nets_validate(n, kind):
    net = generate(kind, n)
    assert validate(net, require_stochastic=True).ok
    assert net.is_strongly_connected()
    alpha = stationary_distribution(net).alpha
    assert sum(alpha) == 1
    assert all(a > 0 for a in alpha)


def test_parallel_edge_rejected():
    with pytest.raises(ValueError):
        Network(n=2, edges=((0, 1, 1), (0, 1, 1)))


def _solve(A, b):
    """network._solve_integer on the rational system A x = b, each equation scaled to integers, as Fractions."""
    rows = [scaled([*row, rhs])[1] for row, rhs in zip(A, b)]
    M = np.array(rows, dtype=int_dtype(max(abs(v) for row in rows for v in row)))
    Q, N, branch = network._solve_integer(M)
    return unscaled(Q, N), branch


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_solve_exact_matches_fraction_oracle(data, n):
    # _solve_integer's contract is a nonsingular A, so singular draws are skipped
    A = [data.draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(n)]
    b = data.draw(st.lists(rationals, min_size=n, max_size=n))
    try:
        want = solve_rational(A, b)
    except ValueError:
        assume(False)
    assert _solve(A, b)[0] == want


@pytest.mark.parametrize("A, b", [
    ([[1, 2], [2, 4]], [Fraction(1, 2), 1]),
], ids=["proportional rows, consistent b"])
def test_solve_exact_refuses_singular_systems_with_solutions(A, b):
    # the float solve finds A singular, and so does Bareiss elimination
    with pytest.raises(ValueError, match="^singular system$"):
        _solve(A, b)


def test_solve_exact_when_the_prime_divides_the_determinant():
    # 2^31 - 1 divides det(A): singular modulo that prime, nonsingular over the rationals
    p = 2 ** 31 - 1
    A = [[p, 1], [0, 1]]
    assert _solve(A, [1, 1])[0] == solve_rational(A, [1, 1]) == [0, 1]
    assert _solve([[p]], [1])[0] == [Fraction(1, p)]


def test_solve_exact_bareiss_fallback():
    # the solution has a denominator far above the rebuild bound, so the
    # rebuilt float answer fails the certificate and elimination takes over
    A = [[Fraction(1, 1000003), Fraction(1, 999983)], [Fraction(2, 7), Fraction(1, 3)]]
    b = [Fraction(1), Fraction(1, 1000033)]
    assert _solve(A, b) == (solve_rational(A, b), "Bareiss fallback")
    # small denominators rebuild from the float solve
    A, b = [[Fraction(1, 3), Fraction(1)], [Fraction(2), Fraction(-1, 5)]], [Fraction(1), Fraction(0)]
    x, branch = _solve(A, b)
    assert x == solve_rational(A, b) and branch.startswith("certified float rebuild")


def _sampling_chain(alpha):
    """Every agent copies agent j with probability alpha_j; the stationary distribution is alpha."""
    n = len(alpha)
    return Network(n=n, edges=tuple((i, j, alpha[j]) for i in range(n) for j in range(n)))


# denominators p_k p_(k+1) around a ring of six primes near 520: each is below
# REBUILD_MAX_DEN, their lcm is above 2^53, and the rebuild puts them over it in Python integers
PER_ENTRY_ALPHA = tuple(map(Fraction, ("50560/256027", "847/265189", "85151/272483", "18469/282943",
                                       "112012/295927", "11842/275141")))


def test_stationary_branches_match_oracle(caplog):
    # lazy-uniform graphs rebuild over one shared denominator, also one above
    # 2^53; skewed directed weights need Bareiss
    skewed = Network(n=3, edges=((0, 0, Fraction(1, 999983)), (0, 1, Fraction(999982, 999983)),
                                 (1, 1, Fraction(1, 2)), (1, 2, Fraction(1, 2)),
                                 (2, 0, Fraction(1, 1000003)), (2, 2, Fraction(1000002, 1000003))))
    # alpha = (999983, 1000003) / 1999986: the rebuilt entries are wrong yet positive and sum to 1,
    # so only the balance check turns them down
    tilted = Network(n=2, edges=((0, 0, Fraction(999982, 999983)), (0, 1, Fraction(1, 999983)),
                                 (1, 0, Fraction(1, 1000003)), (1, 1, Fraction(1000002, 1000003))))
    for net, branch, edges, max_d in (
            (generate("grid", 9), "certified float rebuild, one shared denominator 33", 33, 5),
            (from_pairs(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]),
             "certified float rebuild, one shared denominator 15", 15, 4),
            (_sampling_chain(PER_ENTRY_ALPHA), "certified float rebuild, one shared denominator 20644756792768007",
             36, 20644756792768007),
            (skewed, "Bareiss fallback", 6, 1000003),
            (tilted, "Bareiss fallback", 4, 1000003)):
        n = net.n
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="opdyn"):
            alpha = stationary_distribution(net).alpha
        assert alpha == fraction_stationary(net)
        P = fraction_weight_matrix(net)
        A = [[P[r][c] - (1 if r == c else 0) for r in range(n)] for c in range(n)]
        A[n - 1] = [Fraction(1)] * n
        assert list(alpha) == solve_rational(A, [Fraction(0)] * (n - 1) + [Fraction(1)])
        assert (f"stationary: exact solve n={n}: {branch} ({edges} edges, max row denominator {max_d})"
                in caplog.text)
    assert stationary_distribution(_sampling_chain(PER_ENTRY_ALPHA)).alpha == PER_ENTRY_ALPHA


named_topologies = st.one_of(
    st.tuples(st.sampled_from(["chain", "cycle", "star"]), st.integers(1, 40)).map(lambda a: generate(*a)),
    st.integers(1, 6).map(lambda side: generate("grid", side * side)),
    st.tuples(st.integers(3, 20), st.integers(0, 9)).map(
        lambda a: generate("random_regular", 2 * a[0], d=3, seed=a[1])))


@settings(max_examples=120, deadline=None)
@given(net=st.one_of(rational_digraphs(), named_topologies))
def test_stationary_view_matches_fraction_matrix_oracle(net):
    assert stationary_distribution(net).alpha == fraction_stationary(net)


def test_generate_refuses_oversized_specs_without_building(monkeypatch):
    monkeypatch.setattr(network, "_undirected_pairs", lambda *a, **k: pytest.fail("pairs were built"))
    # 448 agents make 100128 complete pairs, 1000 agents of degree 201 make 100500
    for kind, n, d in (("cycle", 99999999999, None), ("complete", 1000000, None),
                       ("chain", GENERATE_MAX_SIZE + 1, None), ("complete", 448, None), ("random_regular", 1000, 201)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"generate builds at most {GENERATE_MAX_SIZE} of either"):
            generate(kind, n, d=d)
        assert time.perf_counter() - start < 0.1


def test_stationary_power_iteration_above_the_exact_cap(caplog, monkeypatch):
    monkeypatch.setattr(network, "EXACT_SOLVE_MAX_N", 1)
    net = Network(n=2, edges=((0, 0, Fraction(1, 2)), (0, 1, Fraction(1, 2)), (1, 0, Fraction(1, 4)),
                              (1, 1, Fraction(3, 4))))
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        sd = stationary_distribution(net)
    assert not sd.exact
    assert np.allclose(sd.as_floats(), [1 / 3, 2 / 3], rtol=0, atol=1e-12)
    assert "stationary n=2: power iteration (4 edges, max row denominator 4)" in caplog.text
