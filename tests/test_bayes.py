import logging
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (change_counts, fixation_rounds, fraction_profile_entries, fraction_run_exact, locality_check,
                     martingale_residuals, partitions, per_agent_refine, refinement_violations)

from opdyn import bayes
from opdyn.harness import _senate_joint_space
from opdyn.network import Network, from_pairs, generate
from opdyn.signals import FiniteModel, bernoulli_delta, xor_pair

DELTA = Fraction(1, 6)


def space_for(n, delta=DELTA):
    return bayes.build_profile_space(bernoulli_delta(delta), n)


def test_profile_space_weights():
    sp = space_for(3)
    assert sum(w for (_s, _p, w) in sp.entries) == 1
    assert sp.m == 8
    # pooled posterior for an all-ones profile: odds (2/3)^3 : (1/3)^3 = 8 : 1
    assert sp.full_posterior((1, 1, 1)) == Fraction(8, 9)


@pytest.mark.parametrize("model, sizes", [
    (bernoulli_delta(DELTA), range(1, 9)),
    (bernoulli_delta(Fraction(3, 7)), range(1, 6)),
    (FiniteModel(alphabet=("lo", "mid", "hi"), mu0=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
                 mu1=(Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))), range(1, 6)),
    (FiniteModel(alphabet=(0, 1), mu0=(Fraction(6007, 10007), Fraction(4000, 10007)),
                 mu1=(Fraction(3001, 10007), Fraction(7006, 10007))), range(1, 6)),
])
def test_profile_space_matches_fraction_products(model, sizes):
    for n in sizes:
        entries = bayes.build_profile_space(model, n).entries
        assert entries == fraction_profile_entries(model, n)
        assert all(type(w) is Fraction for (_s, _p, w) in entries)


def test_round_zero_belief_is_private():
    net = generate("chain", 2)
    sp = space_for(2)
    res = bayes.run_exact(net, sp, horizon=1, utility="continuous")
    for e, (_s, prof, _w) in enumerate(sp.entries):
        for i in range(2):
            expected = Fraction(2, 3) if prof[i] == 1 else Fraction(1, 3)
            assert res.beliefs[0][i][e] == expected


def test_pair_reaches_pooled_posterior():
    net = generate("chain", 2)
    sp = space_for(2)
    res = bayes.run_exact(net, sp, horizon=20, utility="continuous")
    assert res.stabilized
    assert bayes.full_information_check(res)["full_learning"]


def test_martingale_and_refinement():
    net = generate("chain", 3)
    sp = space_for(3)
    res = bayes.run_exact(net, sp, horizon=30, utility="continuous")
    assert martingale_residuals(res) == []
    assert refinement_violations(res) == []


def test_expected_utility_nondecreasing():
    net = generate("cycle", 4)
    sp = space_for(4)
    for utility in ("continuous", "discrete"):
        res = bayes.run_exact(net, sp, horizon=70, utility=utility)
        for i in range(4):
            utils = [bayes.expected_utility(res, i, t) for t in range(res.rounds)]
            assert all(a <= b for a, b in zip(utils, utils[1:]))


def test_fixation_bounds_square():
    net = from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    sp = space_for(4)
    res = bayes.run_exact(net, sp, horizon=sp.m * 4 + 1, utility="discrete")
    stats = bayes.fixation_stats(res)
    assert stats["bound_ok"]
    assert stats["m"] == 16


def test_xor_pair_never_learns():
    net = generate("chain", 2)
    sp = bayes.build_profile_space(xor_pair(), 2)
    res = bayes.run_exact(net, sp, horizon=10, utility="continuous")
    half = Fraction(1, 2)
    assert all(b == half for t in range(res.rounds) for i in range(2) for b in res.beliefs[t][i])
    assert not bayes.full_information_check(res)["full_learning"]


def test_locality():
    net = generate("chain", 5)
    sp = space_for(5)
    for t in (0, 1, 2):
        assert locality_check(net, sp, t)["local"]


def test_senate_error_independent_of_n():
    a = bayes.senate_scenario(8, 5, DELTA)
    b = bayes.senate_scenario(30, 5, DELTA)
    assert a["verdict_error"] == b["verdict_error"]
    assert a["all_follow_verdict"] and b["all_follow_verdict"]
    # majority of 5 bits at p = 2/3: P(Bin(5, 2/3) <= 2) = 17/81
    assert a["verdict_error"] == Fraction(17, 81)


def test_chain_tie_keeps_own_signal():
    out = bayes.chain_tie_to_self(4, DELTA)
    assert out["claim_ok"]
    assert out["p_some_wrong"] >= out["p_adjacent_wrong"] > Fraction(5, 100)


def test_chain_without_tie_rule_differs():
    # with ties broken to 1 instead, some equal-signal-neighbor agent moves
    net = generate("chain", 4)
    sp = space_for(4)
    res = bayes.run_exact(net, sp, horizon=20, utility="discrete", tie_rule="choose_one")
    moved = False
    for e, (_s, prof, _w) in enumerate(sp.entries):
        for i in range(4):
            if any(res.actions[t][i][e] != prof[i] for t in range(res.rounds)):
                nbrs = [j for j in (i - 1, i + 1) if 0 <= j < 4]
                if any(prof[j] == prof[i] for j in nbrs):
                    moved = True
    assert moved


def test_bad_arguments():
    net = generate("chain", 2)
    sp = space_for(2)
    with pytest.raises(ValueError):
        bayes.run_exact(net, sp, horizon=0)
    with pytest.raises(ValueError):
        bayes.run_exact(net, sp, horizon=3, utility="quadratic")
    with pytest.raises(ValueError):
        bayes.senate_scenario(4, 5, DELTA)
    with pytest.raises(ValueError):
        bayes.senate_scenario(10, 4, DELTA)


# -- the integer engine against the Fraction oracle --------------------------

RICH = FiniteModel(alphabet=(0, 1, 2),
                   mu0=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
                   mu1=(Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)))
# denominators 10007: at n = 5 the common denominator D is 2 * 10007^5 > 2**63
WIDE = FiniteModel(alphabet=(0, 1),
                   mu0=(Fraction(6007, 10007), Fraction(4000, 10007)),
                   mu1=(Fraction(4000, 10007), Fraction(6007, 10007)))


def assert_matches_oracle(net, space, horizon, utility, tie_rule):
    """run_exact and the Fraction oracle agree field by field, or raise the same ValueError."""
    try:
        want = fraction_run_exact(net, space, horizon, utility, tie_rule)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            bayes.run_exact(net, space, horizon, utility, tie_rule)
        return None
    got = bayes.run_exact(net, space, horizon, utility, tie_rule)
    assert (got.rounds, got.stabilized) == (want.rounds, want.stabilized)
    assert partitions(got) == want.partitions
    assert got.actions == want.actions
    assert got.beliefs == want.beliefs
    assert all(type(b) is Fraction for row in got.beliefs[-1] for b in row)
    assert martingale_residuals(got) == []
    assert refinement_violations(got) == []
    return got


@st.composite
def connected_graphs(draw, max_n=6):
    n = draw(st.integers(2, max_n))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}      # a spanning tree
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    pairs |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    return from_pairs(n, sorted(pairs))


@settings(max_examples=40, deadline=None)
@given(net=connected_graphs(), delta=st.sampled_from([Fraction(1, 6), Fraction(1, 10), Fraction(3, 7)]),
       utility=st.sampled_from(["discrete", "continuous"]),
       tie_rule=st.sampled_from(["choose_one", "own_signal"]))
def test_run_exact_matches_fraction_oracle(net, delta, utility, tie_rule):
    space = space_for(net.n, delta)
    assert_matches_oracle(net, space, space.m * net.n + 1, utility, tie_rule)
    t = min(2, net.n - 1)
    assert locality_check(net, space, t, utility=utility, tie_rule=tie_rule)["local"]


@pytest.mark.parametrize("utility", ["discrete", "continuous"])
@pytest.mark.parametrize("tie_rule", ["choose_one", "own_signal"])
def test_run_exact_matches_oracle_on_named_spaces(utility, tie_rule):
    # the 3-letter model of bayes-agreement (ties on letter 2 raise under own_signal)
    for net in (generate("chain", 3), generate("cycle", 3), generate("star", 4)):
        space = bayes.build_profile_space(RICH, net.n)
        assert_matches_oracle(net, space, space.m * net.n + 1, utility, tie_rule)
    assert_matches_oracle(generate("chain", 2), bayes.build_profile_space(xor_pair(), 2), 10,
                          utility, tie_rule)
    # isolated agents that see (own bit, verdict) letters: tuple letters, no 0/1 signal
    senate = _senate_joint_space(5, 3, Fraction(1, 6))
    loops = Network(n=5, edges=tuple((i, i, Fraction(1)) for i in range(5)))
    assert_matches_oracle(loops, senate, 3, utility, tie_rule)


@pytest.mark.parametrize("utility", ["discrete", "continuous"])
def test_run_exact_wide_denominators_use_python_ints(utility):
    net = generate("cycle", 5)
    space = bayes.build_profile_space(WIDE, 5)
    got = assert_matches_oracle(net, space, space.m * 5 + 1, utility, "choose_one")
    assert got.scale > 2 ** 63 and got.profile_w.dtype == object
    assert locality_check(net, space, 2, utility=utility)["local"]


@pytest.mark.parametrize("utility", ["discrete", "continuous"])
def test_run_exact_renumbers_long_keys(monkeypatch, utility):
    # a tiny key bound forces the packed (cell, neighbour actions) key to be renumbered
    # before every neighbour is folded in
    monkeypatch.setattr(bayes, "_KEY_BOUND", 4)
    net = generate("star", 5)
    space = space_for(5)
    assert_matches_oracle(net, space, space.m * 5 + 1, utility, "choose_one")


@settings(max_examples=60, deadline=None)
@given(net=connected_graphs(max_n=7), delta=st.sampled_from([Fraction(1, 6), Fraction(3, 7)]),
       utility=st.sampled_from(["discrete", "continuous"]),
       tie_rule=st.sampled_from(["choose_one", "own_signal"]),
       table=st.sampled_from([4, 2, 1, 0]), key_bound=st.sampled_from([2 ** 62, 64, 4]))
def test_refinement_matches_per_agent_oracle(net, delta, utility, tie_rule, table, key_bound):
    # a table of 0 or 1 entries per place sends every discrete round to the sort, a small
    # one renumbers between neighbour slots, and a small key bound renumbers the sorted keys
    space = space_for(net.n, delta)
    horizon = space.m * net.n + 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bayes, "_TABLE_PER_PLACE", table)
        mp.setattr(bayes, "_KEY_BOUND", key_bound)
        got = bayes.run_exact(net, space, horizon, utility, tie_rule)
        mp.setattr(bayes, "_refine", per_agent_refine)
        want = bayes.run_exact(net, space, horizon, utility, tie_rule)
    assert (got.rounds, got.stabilized) == (want.rounds, want.stabilized)
    for t, (a, b) in enumerate(zip(got.steps, want.steps)):
        assert np.array_equal(a.cells, b.cells) and np.array_equal(a.base, b.base)
        for x, y in zip(got._weights(t), want._weights(t)):
            assert np.array_equal(x, y)
        assert (a.act is None and b.act is None) if utility == "continuous" else np.array_equal(a.act, b.act)


@pytest.mark.parametrize("utility", ["discrete", "continuous"])
def test_cell_ids_keep_the_order_of_the_previous_round(utility):
    # ids are ranks of (previous cell, neighbours' actions): each new cell's parent id never
    # decreases with its id, so a round that splits no cell keeps every id
    for net in (generate("cycle", 5), generate("star", 4), generate("chain", 4)):
        space = space_for(net.n)
        res = bayes.run_exact(net, space, space.m * net.n + 1, utility)
        assert res.stabilized
        for prev, cur in zip(res.steps, res.steps[1:]):
            parent = np.empty(int(cur.base[-1]), dtype=np.int64)
            parent[cur.cells] = prev.cells
            assert np.array_equal(parent[cur.cells], prev.cells)
            assert (np.diff(parent) >= 0).all()
        assert np.array_equal(res.steps[-1].cells, res.steps[-2].cells)
        assert np.array_equal(res.steps[-1].base, res.steps[-2].base)


def test_vectorized_checks_match_atom_loops():
    net = generate("cycle", 4)
    space = space_for(4)
    for utility in ("discrete", "continuous"):
        res = bayes.run_exact(net, space, horizon=space.m * 4 + 1, utility=utility)
        E = len(space.entries)
        changes = [[sum(res.actions[t][i][e] != res.actions[t - 1][i][e] for t in range(1, res.rounds))
                    for i in range(4)] for e in range(E)]
        assert change_counts(res) == changes
        fix = [max([t for t in range(1, res.rounds)
                    if any(res.actions[t][i][e] != res.actions[t - 1][i][e] for i in range(4))],
                   default=0) for e in range(E)]
        assert fixation_rounds(res) == fix
        for i in range(4):
            for t in range(res.rounds):
                want = sum(w * (1 - (res.actions[t][i][e] - s) ** 2 if utility == "continuous"
                                else int(res.actions[t][i][e] == s))
                           for e, (s, _p, w) in enumerate(space.entries))
                assert bayes.expected_utility(res, i, t) == want
        assert [res.limit_beliefs(e) for e in range(E)] == \
            [tuple(res.beliefs[-1][i][e] for i in range(4)) for e in range(E)]


def test_run_exact_logs_sizes(caplog):
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        bayes.run_exact(generate("cycle", 3), space_for(3), horizon=25, utility="discrete")
    # weights 1/2 (2/3)^k (1/3)^(3-k) share the denominator 2 * 3^3; round-0 actions
    # are the signals, so from round 1 each agent of the triangle knows all 8 profiles
    assert ("bayes run_exact: 16 atoms, 8 profiles, D=54 (int64), 3 rounds, stabilized=True, "
            "max 8 cells per agent, numbered by table 3, by sort 0") in caplog.text
    # the continuous radix counts distinct beliefs; on the 4-cycle the keys of round 3 span
    # more than a table of 4 entries per (agent, profile) place holds, so a sort numbers them
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        bayes.run_exact(generate("cycle", 4), space_for(4), horizon=70, utility="continuous")
    assert "4 rounds, stabilized=True, max 16 cells per agent, numbered by table 3, by sort 1" in caplog.text
    with caplog.at_level(logging.DEBUG, logger="opdyn"):
        bayes.run_exact(generate("cycle", 5), bayes.build_profile_space(WIDE, 5), horizon=2)
    assert f"D={2 * 10007 ** 5} (python-int)" in caplog.text


@pytest.mark.parametrize("utility", ["discrete", "continuous"])
def test_array_spaces_match_the_fraction_oracle_on_fraction_entries(utility):
    # the product spaces are built as integer arrays and never as entries; the
    # oracle runs on the entries of one Fraction product per atom
    for model, net in ((bernoulli_delta(DELTA), generate("cycle", 4)), (RICH, generate("chain", 3))):
        space = bayes.build_profile_space(model, net.n)
        got = bayes.run_exact(net, space, space.m * net.n + 1, utility)
        assert "entries" not in vars(space)
        want = fraction_run_exact(net, bayes.ProfileSpace(net.n, entries=fraction_profile_entries(model, net.n)),
                                  space.m * net.n + 1, utility)
        assert (got.rounds, got.stabilized) == (want.rounds, want.stabilized)
        assert (got.beliefs, got.actions, partitions(got)) == (want.beliefs, want.actions, want.partitions)
        assert space.entries == fraction_profile_entries(model, net.n)
    # a joint table's entries convert to arrays once, on the first run
    space = bayes.build_profile_space(xor_pair(), 2)
    got = bayes.run_exact(generate("chain", 2), space, 10, utility)
    atoms = space.atoms
    again = bayes.run_exact(generate("chain", 2), space, 10, utility)
    assert again._weights(-1)[0].tolist() == got._weights(-1)[0].tolist()
    assert space.atoms is atoms
    want = fraction_run_exact(generate("chain", 2), space, 10, utility)
    assert (got.beliefs, got.actions, partitions(got)) == (want.beliefs, want.actions, want.partitions)


def test_product_atoms_are_numbered_like_entries():
    # product order: profile p's letters are the base-|alphabet| digits of p, the S = 0 atoms first
    space = bayes.build_profile_space(RICH, 3)
    atoms = space.atoms
    assert atoms.scale == 2 * 6 ** 3 and atoms.letters == [0, 1, 2]
    assert atoms.states.tolist() == [0] * 27 + [1] * 27
    assert atoms.profile_of.tolist() == list(range(27)) * 2
    assert [tuple(col) for col in atoms.sig.T.tolist()][:4] == [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0)]
    converted = bayes.ProfileSpace(3, entries=space.entries).atoms
    for a, b in zip(atoms, converted):
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
    # a repeated letter is refused where the model is built, so no path reads two copies of one signal
    with pytest.raises(ValueError, match="letter 'x' appears more than once"):
        FiniteModel(alphabet=("x", "x"), mu0=(Fraction(1, 3), Fraction(2, 3)), mu1=(Fraction(2, 3), Fraction(1, 3)))


def test_fixation_stats_stay_on_profile_arrays():
    net = generate("cycle", 4)
    space = space_for(4)
    res = bayes.run_exact(net, space, horizon=space.m * 4 + 1, utility="discrete")
    stats = bayes.fixation_stats(res)
    assert stats["max_fixation"] == max(fixation_rounds(res)) and type(stats["max_fixation"]) is int
    assert stats["fixation"][res.profile_of].tolist() == fixation_rounds(res)
    assert stats["changes"][:, res.profile_of].T.tolist() == change_counts(res)
    # the counts sum in int32, and equal the default int64 sum
    assert stats["changes"].dtype == np.int32 and np.array_equal(stats["changes"], res._changed().sum(axis=0))


def test_scatter_sum_refuses_shapes_that_np_add_at_gets_wrong():
    # numpy 2.4's np.add.at returned garbage for this 2-D index broadcast against 1-D values
    idx = np.array([[0, 0, 1, 1], [2, 3, 2, 3], [4, 5, 4, 5]])
    values = np.array([1, 2, 3, 4])
    for index in (idx, idx.ravel()):
        with pytest.raises(ValueError, match="needs a 1-D index and values of its length"):
            bayes._scatter_sum(index, values, 6)
    assert bayes._scatter_sum(idx.ravel(), np.tile(values, 3), 6).tolist() == [3, 7, 4, 6, 4, 6]


def test_run_exact_rejects_bad_atoms():
    net = generate("chain", 2)
    bad_state = bayes.ProfileSpace(n=2, entries=((2, (0, 0), Fraction(1)),))
    with pytest.raises(ValueError, match="states must be 0 or 1"):
        bayes.run_exact(net, bad_state, horizon=2)
    zero = bayes.ProfileSpace(n=2, entries=((0, (0, 0), Fraction(1)), (1, (0, 0), Fraction(0))))
    with pytest.raises(ValueError, match="weights must be positive"):
        bayes.run_exact(net, zero, horizon=2)
