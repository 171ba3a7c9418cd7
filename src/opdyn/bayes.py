"""Exact Bayesian repeated-action dynamics over finite probability spaces.

Everything here is forward induction over an explicit weighted list of
(S, signal profile) atoms with exact rational weights, held as integer
arrays (ProfileSpace). An agent's knowledge
at round t is the cell of atoms consistent with what it has seen (its own
signal plus neighbors' earlier actions); its belief is the S=1 weight share
of that cell, its action the utility-maximizing response.

The engine works on scaled integers. Every atom weight is multiplied by D,
the lcm of the weights' denominators, so cell weights are integer sums and
the discrete action is the integer comparison 2 w1 vs w: exact indifference
(belief 1/2) is load-bearing for the discrete-action results and must not be
a float accident. Each round refines every agent's partition by the
constant-size key (previous cell, neighbors' actions). Belief Fractions are
built, one per cell, only when a result's beliefs are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import comb
from typing import NamedTuple

import numpy as np

from .harness_util import debug, int_dtype, scaled, unscaled
from .network import Network, _slots
from .signals import FiniteModel, JointTable, bernoulli_cube, cube

PROFILE_SPACE_CAP = 10 ** 6
# a packed refinement key stays below this bound, so it fits in int64
_KEY_BOUND = 2 ** 62
# a dense numbering table holds at most this many entries per (agent, profile) place
_TABLE_PER_PLACE = 4


class Atoms(NamedTuple):
    """A profile space as the integer arrays run_exact reads.

    Atom e has the state states[e] (int8) and the signal profile
    profile_of[e], and weighs weights[e] / scale: int64 while 2 scale < 2^63
    (a cell's S = 1 weight w1 <= scale, and run_exact forms 2 w1), Python
    integers beyond. sig[i, p] is the id of agent i's letter in profile p,
    and letters[k] the letter with id k. Profiles and letters are numbered
    in order of first occurrence.
    """

    states: np.ndarray
    profile_of: np.ndarray
    weights: np.ndarray
    scale: int
    sig: np.ndarray
    letters: list


class ProfileSpace:
    """Weighted enumeration of (S, signal profile) atoms; the oracle backbone.

    A space has two forms, and builds either from the other at most once,
    when it is first read: `atoms` (Atoms, the integer arrays run_exact
    reads) and `entries` ((s, profile, weight) tuples with Fraction
    weights). build_profile_space gives a finite model's product space as
    atoms, so its entries exist only once something reads them; a space
    made from entries (a JointTable, a hand-built list) converts them to
    atoms on its first run_exact, checking that every weight is positive,
    every state 0 or 1 and every profile n letters long.
    """

    def __init__(self, n, entries=None, atoms=None):
        if entries is None and atoms is None:
            raise TypeError("a ProfileSpace needs its entries or its atoms")
        self.n = n
        if entries is not None:
            self.entries = tuple(entries)
        if atoms is not None:
            self.atoms = atoms

    @cached_property
    def atoms(self) -> Atoms:
        return _atoms_from_entries(self.n, self.entries)

    @cached_property
    def entries(self):
        a = self.atoms
        profiles = list(zip(*(map(a.letters.__getitem__, row) for row in a.sig.tolist())))
        profiles = profiles or [()] * a.sig.shape[1]          # n = 0: every profile is ()
        return tuple(zip(a.states.tolist(), map(profiles.__getitem__, a.profile_of.tolist()),
                         unscaled(a.scale, a.weights.tolist())))

    @property
    def m(self):
        """Number of distinct signal profiles (the M in the round bound)."""
        return self.atoms.sig.shape[1]

    def full_posterior(self, profile):
        """P(S=1 | the whole signal profile), exact."""
        w1 = sum(w for (s, p, w) in self.entries if p == profile and s == 1)
        w0 = sum(w for (s, p, w) in self.entries if p == profile and s == 0)
        return w1 / (w0 + w1)


def _atoms_from_entries(n, entries) -> Atoms:
    """The Atoms of (s, profile, weight) entries, weights scaled once per distinct weight object."""
    states, profs, ws = zip(*entries) if entries else ((),) * 3
    distinct = dict(zip(map(id, ws), ws))       # spaces share weight objects between atoms
    scale, nums = scaled(distinct.values())
    num = dict(zip(distinct, nums))
    weights = np.array([num[id(w)] for w in ws], dtype=int_dtype(2 * scale))
    states = np.array(states)
    if not (weights > 0).all():
        raise ValueError("atom weights must be positive")
    if not np.isin(states, (0, 1)).all():
        raise ValueError("atom states must be 0 or 1")
    profile_of, profiles = _first_occurrence(profs, len(profs))
    if set(map(len, profiles)) - {n}:
        raise ValueError(f"signal profiles must have {n} letters")
    sig, letters = _first_occurrence(chain.from_iterable(zip(*profiles)), n * len(profiles))
    return Atoms(states.astype(np.int8), profile_of, weights, scale, sig.reshape(n, len(profiles)), letters)


def build_profile_space(model, n) -> ProfileSpace:
    """The measure 1/2 d0 x mu0^n + 1/2 d1 x mu1^n (or a joint table) as a ProfileSpace.

    A finite model's space is built as Atoms. Profile p is the p-th of
    product(alphabet, repeat=n), so agent i's letter id is digit i of p in
    base |alphabet|, most significant first: row p of signals.cube(n, a)
    read backwards. With q the lcm of the denominators of mu0 and mu1, an
    atom weighs (1/2) prod_k mu[k] = prod_k (mu[k] q) / (2 q^n); its
    numerator is built one agent at a time, the atoms of S = 0 first. The
    mu[k] q of both measures have gcd 1, so the numerators do too, and the
    scale 2 q^n is the lcm of the weights' reduced denominators. A
    JointTable's entries are converted on first use.
    """
    if isinstance(model, JointTable):
        if model.n != n:
            raise ValueError("joint table size mismatch")
        return ProfileSpace(n=n, entries=model.entries)
    if not isinstance(model, FiniteModel):
        raise TypeError("profile spaces need a finite signal model")
    a = len(model.alphabet)
    if a ** n > PROFILE_SPACE_CAP:
        raise ValueError("profile space too large to enumerate")
    q, mu = scaled(model.mu0 + model.mu1)
    M, scale = a ** n, 2 * q ** n
    dtype = int_dtype(2 * scale)
    sig = cube(n, a).T[::-1]
    per_state = np.array(mu, dtype=dtype).reshape(2, a)        # mu0 q, then mu1 q
    weights = np.ones(2 * M, dtype=dtype)
    for letters in sig:
        weights *= per_state[:, letters].ravel()
    if weights.sum() != scale:
        raise AssertionError("profile weights must sum to 1")
    atoms = Atoms(np.repeat(np.array([0, 1], dtype=np.int8), M), np.tile(np.arange(M), 2), weights, scale,
                  sig, list(model.alphabet))
    return ProfileSpace(n=n, atoms=atoms)


class Round(NamedTuple):
    """One round of run_exact, in integers scaled by the result's D.

    A cell is a set of signal profiles. cells[i, p] is the id of agent i's
    cell holding profile p, in key order: agent i's cells are base[i], ...,
    base[i+1] - 1, ranked by (previous cell, neighbours' actions). act[i, p]
    is the discrete action (0/1), None under the continuous utility. Cell c
    weighs w[c], of which w1[c] has S = 1; a discrete round leaves both None
    until BayesResult._weights first reads them.
    """

    cells: np.ndarray
    base: np.ndarray
    act: np.ndarray | None
    w: np.ndarray | None = None
    w1: np.ndarray | None = None


@dataclass(eq=False)
class BayesResult:
    """A run of run_exact.

    beliefs[t][i][e] (Fraction) and actions[t][i][e] are built from the
    integer Rounds in `steps` when first read. Atom e has signal profile
    profile_of[e]; profile p weighs profile_w[p] / scale, of which
    profile_w1[p] / scale has S = 1.
    """

    space: ProfileSpace
    net: Network
    utility: str
    tie_rule: str
    rounds: int
    stabilized: bool
    scale: int
    profile_of: np.ndarray = field(repr=False)
    profile_w: np.ndarray = field(repr=False)
    profile_w1: np.ndarray = field(repr=False)
    steps: list = field(repr=False)

    def _weights(self, t):
        """(w, w1) of round t, pooled from the profiles on first read and kept in steps[t]."""
        r = self.steps[t]
        if r.w is None:
            flat, size = r.cells.ravel(), int(r.base[-1])
            w, w1 = (_scatter_sum(flat, np.tile(p, self.net.n), size) for p in (self.profile_w, self.profile_w1))
            r = self.steps[t] = r._replace(w=w, w1=w1)
        return r.w, r.w1

    @cached_property
    def beliefs(self):
        out = []
        for t, r in enumerate(self.steps):
            w, w1 = self._weights(t)
            cell = np.empty(len(w), dtype=object)
            cell[:] = [Fraction(a, b) for a, b in zip(w1.tolist(), w.tolist())]
            out.append(cell[r.cells[:, self.profile_of]].tolist())
        return out

    @cached_property
    def actions(self):
        if self.utility == "continuous":
            return self.beliefs
        return [r.act[:, self.profile_of].tolist() for r in self.steps]

    def limit_beliefs(self, e):
        w, w1 = self._weights(-1)
        c = self.steps[-1].cells[:, self.profile_of[e]]
        return tuple(Fraction(a, b) for a, b in zip(w1[c].tolist(), w[c].tolist()))

    def _belief_pairs(self, t):
        """(numerator, denominator) arrays, (n, M), of the round-t beliefs in lowest terms."""
        w, w1 = self._weights(t)
        return tuple(p[self.steps[t].cells] for p in _lowest_terms(w1, w))

    def _action_arrays(self, t):
        """(n, M) arrays, equal at two (round, agent, profile) places exactly where the actions are."""
        if self.utility == "discrete":
            return (self.steps[t].act,)
        return self._belief_pairs(t)

    def _changed(self):
        """changed[t - 1, i, p]: agent i's action on profile p differs between rounds t - 1 and t."""
        out = np.zeros((self.rounds - 1, self.net.n, len(self.profile_w)), dtype=bool)
        prev = self._action_arrays(0)
        for t in range(1, self.rounds):
            cur = self._action_arrays(t)
            for a, b in zip(cur, prev):
                out[t - 1] |= a != b
            prev = cur
        return out

    def _change_arrays(self):
        """(fixation round per profile, (n, M) counts of the rounds in which each agent's action changed)."""
        changed = self._changed()
        last = (np.arange(1, self.rounds)[:, None] * changed.any(axis=1)).max(axis=0, initial=0)
        return last, changed.sum(axis=0, dtype=np.int32)     # a count never exceeds the round count


def _lowest_terms(num, den):
    g = np.gcd(num, den)
    return num // g, den // g


def _pair_ids(num, den):
    """Equal ids exactly where the pairs (num, den) are equal; (ids, count)."""
    order = np.lexsort((num, den))
    sn, sd = num[order], den[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (sn[1:] != sn[:-1]) | (sd[1:] != sd[:-1])
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids, int(new.sum())


def _rank(keys, bound):
    """(ids as int32, base, whether the table ran): each of the (n, M) keys < bound ranked among the distinct keys.

    Agent i's keys lie below agent i+1's, so agent i gets the ids base[i],
    ..., base[i+1] - 1 in its key order. A range of at most _TABLE_PER_PLACE
    entries per (agent, profile) place marks the keys present in a dense
    boolean table; a wider one takes np.unique, which gives the same ids.
    """
    by_table = bound <= _TABLE_PER_PLACE * keys.size
    if by_table:
        seen = np.zeros(bound, dtype=bool)
        seen[keys.ravel()] = True
        present = np.flatnonzero(seen)
        rank = np.empty(bound, dtype=np.int32)
        rank[present] = np.arange(len(present), dtype=np.int32)
        ids = rank.take(keys)
    else:
        ids = np.unique(keys, return_inverse=True)[1].reshape(keys.shape).astype(np.int32)
    return ids, np.concatenate(([0], ids.max(axis=1, initial=-1) + 1)), by_table


def _neighbour_slots(net: Network):
    """(slots, n) table: row k holds every agent's k-th neighbour other than itself (sorted), else the agent.

    An agent's own action is a function of its own cell, so it adds nothing
    to its key. Read from network._slots, once per network through Network.cached.
    """
    idx, keep = net.cached(_slots)
    agents = np.arange(net.n)
    other = keep & (idx != agents)
    count = other.sum(axis=0)
    table = np.tile(agents, (int(count.max(initial=0)), 1))
    table.T[np.arange(len(table)) < count[:, None]] = idx.T[other.T]    # agent by agent, slot by slot
    return table


def _refine(cells, base, codes, radix, net):
    """Split every agent's cells by the action codes (< radix) its neighbours showed; returns _rank's triple.

    Agent i's next key is (cell, codes of its other neighbours in sorted
    order) packed into one integer, for all agents at once, one slot at a
    time. Before a slot that would take the keys' range past the limit (the
    dense table's size when the radix is small, else _KEY_BOUND) they are
    renumbered by rank. Ranks keep the order of the cells, so a round that
    splits no cell keeps every id.
    """
    key, bound = cells.astype(np.int64), int(base[-1])
    codes = codes.astype(np.int64, copy=False)          # int64 + int64 skips a cast per slot
    limit = _TABLE_PER_PLACE * cells.size if radix <= _TABLE_PER_PLACE else _KEY_BOUND
    for nb in net.cached(_neighbour_slots):
        if bound * radix > limit:
            key, renumbered, _ = _rank(key, bound)
            key, bound = key.astype(np.int64), int(renumbered[-1])
        key *= radix
        key += codes.take(nb, axis=0)
        bound *= radix
    return _rank(key, bound)


def _first_occurrence(values, count):
    """(ids, distinct): the `count` hashable values numbered 0, 1, ... in order of first occurrence.

    One dict pass maps each value to the position where it first occurs;
    the positions become dense ids in numpy.
    """
    first = {}
    at = np.fromiter(map(first.setdefault, values, range(count)), dtype=np.int64, count=count)
    return (np.cumsum(at == np.arange(count)) - 1)[at], list(first)


def _scatter_sum(index, values, size):
    """out[k] = the sum of values[j] over the j with index[j] = k, for k < size.

    index and values must be 1-D and of one length: np.add.at broadcasts
    other shapes, and numpy 2.4 returns wrong sums for a 2-D index against
    1-D values, so they are refused.
    """
    if index.ndim != 1 or index.shape != values.shape:
        raise ValueError(f"scatter sum needs a 1-D index and values of its length, got shapes "
                         f"{index.shape} and {values.shape}")
    out = np.zeros(size, dtype=values.dtype)
    np.add.at(out, index, values)
    return out


def run_exact(net: Network, space: ProfileSpace, horizon: int,
              utility="continuous", tie_rule="choose_one") -> BayesResult:
    """Forward induction: per round, per agent, per atom, exact beliefs/actions.

    utility 'continuous' plays the belief itself; 'discrete' plays its
    rounding, with ties broken by tie_rule: 'choose_one' picks action 1 (the
    sequential-model convention), 'own_signal' defers to the agent's signal
    (signals must then be 0/1-valued). Stops early once every agent's
    knowledge partition stops refining, after which all rounds repeat.

    Reads the space's Atoms: weights scaled by their common denominator D,
    summed per cell in int64 when D < 2**62 (so 2 w1 fits), else in Python
    integers. A discrete round pools only each cell's margin 2 w1 - w.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if utility not in ("continuous", "discrete"):
        raise ValueError(f"unknown utility {utility!r}")
    if tie_rule not in ("choose_one", "own_signal"):
        raise ValueError(f"unknown tie rule {tie_rule!r}")
    n = net.n
    states, profile_of, weights, scale, sig, letters = space.atoms
    M = sig.shape[1]
    if len(sig) != n:
        raise ValueError(f"signal profiles must have {n} letters")
    profile_w = _scatter_sum(profile_of, weights, M)
    profile_w1 = _scatter_sum(profile_of, np.where(states == 1, weights, 0).astype(weights.dtype), M)
    # the own_signal tie action per letter id; -1 marks a letter other than 0/1
    letter_bit = np.array([int(x) if x in (0, 1) else -1 for x in letters], dtype=np.int8)
    # pooled per cell each round: the margin 2 w1 - w (the sign of belief - 1/2) if discrete, else w and w1
    pooled = (2 * profile_w1 - profile_w,) if utility == "discrete" else (profile_w, profile_w1)
    tiled = [np.tile(p, n) for p in pooled]

    # round 0: each agent knows its own letter
    cells, base, by_table = _rank(sig + len(letters) * np.arange(n)[:, None], n * len(letters))
    tables, steps, stabilized = int(by_table), [], False
    for t in range(horizon):
        sums = [_scatter_sum(cells.ravel(), p, int(base[-1])) for p in tiled]
        if utility == "discrete":
            margin, = sums
            act = (margin >= 0 if tie_rule == "choose_one" else margin > 0).astype(np.int8).take(cells)
            if tie_rule == "own_signal":
                tie = (margin == 0).take(cells)
                bits = letter_bit[sig[tie]]
                if (bits < 0).any():
                    raise ValueError("own_signal tie rule needs 0/1 signals")
                act[tie] = bits
            steps.append(Round(cells=cells, base=base, act=act))
            codes, radix = act, 2
        else:
            w, w1 = sums
            steps.append(Round(cells=cells, base=base, act=None, w=w, w1=w1))
            ids, radix = _pair_ids(*_lowest_terms(w1, w))
            codes = ids.take(cells)
        if t >= 1 and np.array_equal(cells, steps[-2].cells):
            # partitions can no longer refine; every later round repeats this one
            stabilized = True
            break
        if t + 1 < horizon:
            cells, base, by_table = _refine(cells, base, codes, radix, net)
            tables += by_table
    debug("bayes run_exact: %d atoms, %d profiles, D=%d (%s), %d rounds, stabilized=%s, "
          "max %d cells per agent, numbered by table %d, by sort %d", len(states), M, scale,
          "int64" if weights.dtype == np.int64 else "python-int", len(steps), stabilized,
          int(np.diff(steps[-1].base).max(initial=0)), tables, len(steps) - tables)
    return BayesResult(space=space, net=net, utility=utility, tie_rule=tie_rule,
                       rounds=len(steps), stabilized=stabilized, scale=scale,
                       profile_of=profile_of, profile_w=profile_w, profile_w1=profile_w1,
                       steps=steps)


# -- checks over a result ----------------------------------------------------

def fixation_stats(res: BayesResult):
    """Fixation round and per-agent change counts, with the M*n certificate.

    Requires the run to have stabilized (else the horizon cannot certify).
    Returns dict with 'fixation' (per signal profile, an array),
    'max_fixation' (its maximum, an int), 'changes' (an agents x profiles
    array), 'bound_ok' for fixation <= M*n and changes <= M everywhere.
    Every atom of a profile shares its values: index them by res.profile_of.
    """
    if not res.stabilized:
        raise ValueError("run did not stabilize; raise the horizon to certify fixation")
    m = res.space.m
    n = res.net.n
    fix, changes = res._change_arrays()
    top = int(fix.max(initial=0))
    bound_ok = bool(top <= m * n and changes.max(initial=0) <= m)
    return {"fixation": fix, "max_fixation": top, "changes": changes,
            "m": m, "bound": m * n, "bound_ok": bound_ok}


def expected_utility(res: BayesResult, agent, t=None):
    """Exact E[u(S, A^i_t)] over the whole space (default: limit round)."""
    t = res.rounds - 1 if t is None else t
    r = res.steps[t]
    if res.utility == "discrete":
        hits = np.where(r.act[agent] == 1, res.profile_w1, res.profile_w - res.profile_w1)
        return Fraction(int(hits.sum()), res.scale)
    # a cell of weight w playing b = w1/w earns w - w1 (1 - b)^2 - (w - w1) b^2 = w - w1 (w - w1) / w
    w, w1 = res._weights(t)
    cells = slice(r.base[agent], r.base[agent + 1])
    loss = sum((Fraction(a * (b - a), b) for a, b in zip(w1[cells].tolist(), w[cells].tolist())),
               Fraction(0))
    return (int(res.profile_w.sum()) - loss) / res.scale


def agreement_check(res: BayesResult):
    """Continuous: limit beliefs equal across agents on every atom.
    Discrete: limit expected utilities equal across agents (exact).
    Returns dict with 'agree' and the offending atoms/values if any.
    """
    n = res.net.n
    if res.utility == "continuous":
        num, den = res._belief_pairs(-1)
        split = ((num != num[0]) | (den != den[0])).any(axis=0)
        bad = [(e, res.limit_beliefs(e)) for e in np.flatnonzero(split[res.profile_of]).tolist()]
        return {"agree": not bad, "disagreements": bad}
    utils = [expected_utility(res, i) for i in range(n)]
    return {"agree": all(u == utils[0] for u in utils), "utilities": utils}


def full_information_check(res: BayesResult):
    """Common limit belief == P(S=1 | all signals), atom by atom, exact.

    Fails by design for non-product spaces (the XOR pair): agreement at 1/2
    does not recover the pooled posterior there.
    """
    pooled_num, pooled_den = _lowest_terms(res.profile_w1, res.profile_w)
    num, den = res._belief_pairs(-1)
    missed = ((num != pooled_num) | (den != pooled_den)).any(axis=0)
    bad = []
    for e in np.flatnonzero(missed[res.profile_of]).tolist():
        p = res.profile_of[e]
        bad.append((e, res.limit_beliefs(e), Fraction(int(pooled_num[p]), int(pooled_den[p]))))
    return {"full_learning": not bad, "failures": bad}


# -- named scenarios ---------------------------------------------------------

def _binomial_mass(k, delta):
    """P(j of k independent bits equal S) for j = 0 .. k, exact."""
    w, den = bernoulli_cube(delta, k)
    return [Fraction(comb(k, j) * wj, den) for j, wj in enumerate(w)]


def senate_scenario(n, senate_size, delta):
    """First `senate_size` agents pool their signals into a majority verdict;
    everyone then knows only (own signal, verdict).

    Verifies that every agent's best reply equals the verdict, and returns
    the exact verdict error P(A_S != S), which is the k-signal majority
    error and carries no n dependence. Exact rational arithmetic via
    binomial sums; n only bounds the agent count checked.
    """
    k = senate_size
    if k % 2 == 0:
        raise ValueError("senate size must be odd (no verdict ties)")
    if not n > k:
        raise ValueError("need more agents than senators")
    delta = Fraction(delta)
    p = Fraction(1, 2) + delta
    q = 1 - p
    half = Fraction(1, 2)

    # verdict error: majority of k bits each matching S w.p. p
    err = sum(_binomial_mass(k, delta)[:(k + 1) // 2])
    # P(verdict matches S on j matches): verdict = S iff > k/2 matches
    # joint law of (own signal, verdict) given S, for a NON-senator:
    #   independent: P(psi = S) = p; P(A_S = S) = 1 - err
    p_as_correct = 1 - err

    agree = True
    details = {}
    need = (k + 1) // 2
    # only the agreement bit m = 1{psi_i = A_S} is observable; the agent
    # follows the verdict iff P(obs | S = verdict) >= P(obs | S != verdict)
    for m in (0, 1):
        # non-senator: psi_i independent of the verdict given S
        w_follow = (p if m else q) * p_as_correct
        w_deviate = (q if m else p) * err
        if w_follow < w_deviate:
            agree = False
        details[("non-senator", m)] = (w_follow, w_deviate)

    def _majority_matches(own_match):
        """P(verdict = S | own bit matches S or not), over the other k-1 bits."""
        return sum(mass for j, mass in enumerate(_binomial_mass(k - 1, delta)) if j + own_match >= need)

    for m in (0, 1):
        # senator: the verdict includes the senator's own bit
        w_follow = (p if m else q) * _majority_matches(1 if m else 0)
        w_deviate = (q if m else p) * (1 - _majority_matches(0 if m else 1))
        if w_follow < w_deviate:
            agree = False
        details[("senator", m)] = (w_follow, w_deviate)
    return {"verdict_error": err, "all_follow_verdict": agree,
            "n": n, "k": k, "details": details}


def chain_tie_to_self(n, delta, horizon=None):
    """The non-learning chain: binary signals, tie-breaking to the own signal.

    Runs the exact engine on the undirected chain and checks, atom by atom,
    that every agent with an equal-signal neighbor repeats its own signal in
    every round, and computes the exact probability that some agent fixes on
    the wrong action, plus the adjacent-wrong-pair lower bound.
    """
    from .network import generate
    from .signals import bernoulli_delta
    net = generate("chain", n)
    model = bernoulli_delta(delta)
    space = build_profile_space(model, n)
    m = space.m
    horizon = horizon or (m * n + 1)
    res = run_exact(net, space, horizon=horizon, utility="discrete", tie_rule="own_signal")
    if not res.stabilized:
        raise RuntimeError("chain run did not stabilize within the horizon")

    atoms = space.atoms
    sig = np.array(atoms.letters, dtype=np.int8)[atoms.sig]                          # (n, M)
    acts = np.stack([r.act for r in res.steps])                                      # (rounds, n, M)
    equal_neighbor = np.zeros(sig.shape, dtype=bool)
    equal_neighbor[1:] |= sig[1:] == sig[:-1]
    equal_neighbor[:-1] |= sig[:-1] == sig[1:]
    claim_ok = not (equal_neighbor & (acts != sig).any(axis=0)).any()
    w1 = res.profile_w1
    w0 = res.profile_w - w1

    def mass(wrong):
        """P(wrong(S)) for wrong(s), the profiles that count when S = s."""
        return Fraction(int(w0[wrong(0)].sum() + w1[wrong(1)].sum()), res.scale)

    return {"claim_ok": claim_ok,
            "p_some_wrong": mass(lambda s: (acts[-1] != s).any(axis=0)),
            "p_adjacent_wrong": mass(lambda s: ((sig[1:] != s) & (sig[:-1] != s)).any(axis=0)),
            "rounds": res.rounds}
