import logging
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opdyn.network import (Network, ball, from_pairs, generate, mixing_tv,
                           read_network, solve_exact, stationary_distribution, validate,
                           write_network)
from oracles import solve_rational

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


def test_stationary_path3_closed_form():
    # lazy path on 3 vertices: alpha proportional to |N(i)| = (2, 3, 2)
    sd = stationary_distribution(generate("chain", 3))
    assert sd.alpha == (Fraction(2, 7), Fraction(3, 7), Fraction(2, 7))
    assert sd.exact


def test_stationary_is_left_fixed_point():
    net = generate("random_regular", 10, d=3, seed=3)
    sd = stationary_distribution(net)
    P = net.weight_matrix(exact=True)
    for j in range(net.n):
        assert sum(sd.alpha[i] * P[i][j] for i in range(net.n)) == sd.alpha[j]


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
    net = generate("star", 5)
    path = tmp_path / "g.txt"
    write_network(net, path)
    back = read_network(path)
    assert back.n == net.n
    for i in range(net.n):
        assert back.out_neighbors(i) == net.out_neighbors(i)


def test_read_network_skips_indented_comments(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a triangle\nn 3 undirected\n  # note\n\t# tabbed\n0 1 1\n\n1 2 1\n   \n0 2 1\n")
    net = read_network(path)
    assert net.n == 3
    assert [sorted(net.out_neighbors(i)) for i in range(3)] == [[1, 2], [2], []]


@pytest.mark.parametrize("body, message", [
    ("n 3 undirected\n0 1 1\n0 2\n", "line 3: expected 'src dst weight'"),
    ("n 3 undirected\n# c\n0 1 x\n", "line 3: expected 'src dst weight'"),
    ("n 3 undirected\n0 1 1/0\n", "line 2: expected 'src dst weight'"),
    ("\n# only a comment\nn three undirected\n", "line 3: expected 'n <count> directed|undirected'"),
    ("n 3 sideways\n", "line 1: expected 'n <count> directed|undirected'"),
    ("  # nothing else\n", "empty graph file"),
])
def test_read_network_errors_name_the_line(tmp_path, body, message):
    path = tmp_path / "g.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=message):
        read_network(path)


def test_from_pairs_matches_generate():
    a = from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    b = generate("chain", 4)
    for i in range(4):
        assert a.out_neighbors(i) == b.out_neighbors(i)


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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_solve_exact_matches_fraction_oracle(data, n):
    A = [data.draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(n)]
    b = data.draw(st.lists(rationals, min_size=n, max_size=n))
    try:
        want = solve_rational(A, b)
    except ValueError:
        with pytest.raises(ValueError):
            solve_exact(A, b)
        return
    assert solve_exact(A, b) == want


def test_solve_exact_bareiss_fallback(caplog):
    # the solution has a denominator far above the rebuild bound, so the
    # rebuilt float answer fails the certificate and elimination takes over
    A = [[Fraction(1, 1000003), Fraction(1, 999983)], [Fraction(2, 7), Fraction(1, 3)]]
    b = [Fraction(1), Fraction(1, 1000033)]
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        x = solve_exact(A, b)
    assert x == solve_rational(A, b)
    assert "Bareiss fallback" in caplog.text


def test_stationary_branches_match_oracle(caplog):
    # lazy-uniform graphs rebuild from floats; skewed directed weights need Bareiss
    skewed = Network(n=3, edges=((0, 0, Fraction(1, 999983)), (0, 1, Fraction(999982, 999983)),
                                 (1, 1, Fraction(1, 2)), (1, 2, Fraction(1, 2)),
                                 (2, 0, Fraction(1, 1000003)), (2, 2, Fraction(1000002, 1000003))))
    for net, branch in ((generate("grid", 9), "certified float rebuild"),
                        (from_pairs(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]), "certified float rebuild"),
                        (skewed, "Bareiss fallback")):
        P = net.weight_matrix(exact=True)
        n = net.n
        A = [[P[r][c] - (1 if r == c else 0) for r in range(n)] for c in range(n)]
        A[n - 1] = [Fraction(1)] * n
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="opdyn"):
            alpha = stationary_distribution(net).alpha
        assert list(alpha) == solve_rational(A, [Fraction(0)] * (n - 1) + [Fraction(1)])
        assert f"exact solve n={n}: {branch}" in caplog.text


def test_stationary_float_weights_use_power_iteration(caplog):
    net = Network(n=2, edges=((0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.25), (1, 1, 0.75)))
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        sd = stationary_distribution(net)
    assert not sd.exact
    assert np.allclose(sd.as_floats(), [1 / 3, 2 / 3])
    assert "stationary n=2: power iteration" in caplog.text
