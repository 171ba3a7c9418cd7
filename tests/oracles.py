"""Slow, direct reference implementations that the fast kernels are tested against.

Each one is the straightforward Fraction computation or per-trial loop that a
kernel in src/opdyn replaced. The differential tests require equal results
from an oracle on the kernel's own draws, and agreement in distribution from
a sampler that draws its own. The last section holds the helpers that only
tests call, such as the float iteration of the cheater limits and the voter
model's one-step law, and the Hypothesis strategy for random rational digraphs
sits with the Fraction matrix oracles.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import fsum, gcd, sqrt
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from opdyn import cascade, majority, signals, voter
from opdyn.cascade import _ndtr
from opdyn.harness_util import scaled
from opdyn.network import Network, from_pairs, rationalize, require_stochastic, stationary_distribution
from opdyn.signals import (FiniteModel, GaussianLLR, bernoulli_cube, check_delta, private_belief, sample_world,
                           trial_rng, tv_distance)


def solve_rational(A, b):
    """Gauss-Jordan elimination over Fractions. A: list of rows, b: list."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [x / pv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def fraction_weight_matrix(net: Network):
    """P[i][j] = w(i, j) as Fractions, zero-filled."""
    P = [[Fraction(0)] * net.n for _ in range(net.n)]
    for i in range(net.n):
        for j, w in net.out_neighbors(i).items():
            P[i][j] = Fraction(w)
    return P


def fraction_stationary(net: Network):
    """The stationary distribution by solve_rational on the Fraction matrix of alpha (P - I) = 0.

    The last balance equation is replaced by sum(alpha) = 1. Fraction
    Gauss-Jordan shares nothing with network._solve_integer, which solves the
    integer stationary system.
    """
    P = fraction_weight_matrix(net)
    n = net.n
    A = [[P[r][c] - (1 if r == c else 0) for r in range(n)] for c in range(n)]
    A[n - 1] = [Fraction(1)] * n
    return tuple(solve_rational(A, [Fraction(0)] * (n - 1) + [Fraction(1)]))


def fraction_cheater_limits(net: Network, cheaters):
    """degroot.cheater_limit_exact by solve_rational on the Fraction hitting systems.

    For each cheater c: h(c) = 1, h(other cheater) = 0 and h(i) = sum_j P[i][j]
    h(j) at every honest agent i, written as (I - P_HH) h = P_Hc.
    """
    P = fraction_weight_matrix(net)
    honest = [i for i in range(net.n) if i not in cheaters]
    A = [[(1 if i == j else 0) - P[i][j] for j in honest] for i in honest]
    out = {i: {} for i in honest}
    for c in sorted(cheaters):
        for i, h in zip(honest, solve_rational(A, [P[i][c] for i in honest])):
            out[i][c] = h
    return out


@st.composite
def rational_digraphs(draw, max_n=8, min_n=1):
    """A strongly connected digraph on min_n..max_n agents, a self-loop at each, integer weights 1-5 per row."""
    n = draw(st.integers(min_n, max_n))
    ring = draw(st.permutations(range(n)))
    arcs = {(ring[k], ring[(k + 1) % n]) for k in range(n)} | {(i, i) for i in range(n)}
    arcs |= draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges = []
    for i in range(n):
        out = sorted(j for a, j in arcs if a == i)
        ws = draw(st.lists(st.integers(1, 5), min_size=len(out), max_size=len(out)))
        edges += [(i, j, Fraction(w, sum(ws))) for j, w in zip(out, ws)]
    return Network(n=n, edges=tuple(edges))


def fraction_violations(net: Network, require_stochastic=False):
    """network.validate's violations, found by summing each row's weights (Fractions stay Fractions)."""
    v = [f"node {i} has out-degree 0" for i in range(net.n) if not net.out_neighbors(i)]
    if net.n and not net.is_strongly_connected():
        v.append("graph is not strongly connected")
    if require_stochastic:
        for i in range(net.n):
            nb = net.out_neighbors(i)
            if i not in nb:
                v.append(f"node {i} has no self-loop")
            v += [f"non-positive weight on edge ({i},{j})" for j, w in nb.items() if not w > 0]
            s = sum(nb.values())
            if s != 1:
                v.append(f"row {i} sums to {s}, not 1")
    return v


def certify_absorption(net: Network, h):
    """Check h(s) = E[h(next) | s] at every state, in integers; raise ArithmeticError if not.

    With H the lcm of the denominators of h, T = h H is an integer table,
    which voter._certify_table checks.
    """
    H, T = scaled(h[s] for s in range(1 << net.n))
    voter._certify_table(net, T, H)


def enumerate_p_w(net, delta):
    """(p_w, tie mass) by summing over all 2^n signal vectors, given S = 1."""
    alpha = stationary_distribution(net).alpha
    n = net.n
    half = Fraction(1, 2)
    hit, miss = half + delta, half - delta
    succ = tie = Fraction(0)
    for psi in product((0, 1), repeat=n):
        k = sum(psi)
        w = hit ** k * miss ** (n - k)
        a_inf = sum(a * x for a, x in zip(alpha, psi))
        if a_inf == half:
            tie += w
        elif a_inf > half:
            succ += w
    return succ, tie


def per_trial_learning_probability(net, delta, trials, rng):
    """degroot.learning_probability(mode="monte_carlo") as it drew S and psi one trial at a time.

    It samples the same p_w as the block kernel from other draws, so the two
    agree in distribution, not trial by trial.
    """
    delta = Fraction(delta)
    n = net.n
    alpha = stationary_distribution(net).alpha
    af = np.array([float(a) for a in alpha])
    d = float(delta)
    wins = 0
    ties = 0
    for _ in range(trials):
        s = int(rng.integers(0, 2))
        psi = (rng.random(n) < (0.5 + d)).astype(float)
        if s == 0:
            psi = 1.0 - psi
        a_inf = float(af @ psi)
        if a_inf == 0.5:
            ties += 1
        elif (a_inf > 0.5) == (s == 1):
            wins += 1
    return wins, ties


def scalar_learning_probability(net, delta, trials, rng):
    """(wins, ties) of degroot.learning_probability(mode="monte_carlo"), one trial at a time on its draws.

    The draws are S for every trial, then u for trials x n agents, psi_i = S
    iff u_i < 1/2 + delta. An exact alpha scores the Fraction limit
    sum_i alpha_i psi_i against 1/2, which the kernel matches while the
    common denominator of alpha is below 2^53; a float alpha scores the
    correctly rounded sum (math.fsum), which the kernel matches unless some
    limit lies within rounding of 1/2.
    """
    alpha = stationary_distribution(net).alpha
    exact = all(isinstance(a, Fraction) for a in alpha)
    total, half = (sum, Fraction(1, 2)) if exact else (fsum, 0.5)
    s = rng.integers(0, 2, size=trials).tolist()
    u = rng.random((trials, net.n)).tolist()
    p = 0.5 + float(delta)
    wins = ties = 0
    for state, row in zip(s, u):
        a_inf = total(a * (state if x < p else 1 - state) for a, x in zip(alpha, row))
        if a_inf == half:
            ties += 1
        elif (a_inf > half) == (state == 1):
            wins += 1
    return wins, ties


def weighted_net(n, seed):
    """A random tree plus chords with random positive integer weights on each closed neighbourhood."""
    rng = random.Random(seed)
    pairs = {(rng.randrange(i), i) for i in range(1, n)} | {(0, n - 1)}
    base = from_pairs(n, sorted(pairs))
    edges = []
    for i in range(n):
        ws = {j: rng.randint(1, 5) for j in base.out_neighbors(i)}
        total = sum(ws.values())
        edges += [(i, j, Fraction(w, total)) for j, w in ws.items()]
    return Network(n=n, edges=tuple(edges))


def wide_net(n=5, seed=0):
    """weighted_net with each row's weights rounded to counts over a total of about 2^40.

    Row i's counts are round(w 2^40) for its weights w, the first bumped
    until the counts share no factor, so the row denominator, the counts'
    total, is within a few units of 2^40.
    """
    base = weighted_net(n, seed)
    edges = []
    for i in range(n):
        nb = base.out_neighbors(i)
        counts = [round(w * 2 ** 40) for w in nb.values()]
        while gcd(*counts) > 1:
            counts[0] += 1
        edges += [(i, j, Fraction(c, sum(counts))) for j, c in zip(nb, counts)]
    return Network(n=n, edges=tuple(edges))


def reachability_distances(adj: np.ndarray, start):
    """Edge distances from start by boolean matrix powers; -1 if unreachable.

    adj is an n x n boolean adjacency (adj[u, v]: an edge u -> v). reach_t,
    the nodes within t edges of start, is reach_{t-1} (A | I) until it stops
    changing; a node's distance is the first t whose reach_t holds it.
    """
    n = len(adj)
    step = (np.asarray(adj, dtype=bool) | np.eye(n, dtype=bool)).astype(np.int64)
    reach = np.zeros(n, dtype=bool)
    reach[start] = True
    dist = np.full(n, -1)
    dist[start] = 0
    t = 0
    while True:
        t += 1
        nxt = (reach.astype(np.int64) @ step) > 0
        if np.array_equal(nxt, reach):
            return dist.tolist()
        dist[nxt & ~reach] = t
        reach = nxt


def neighbor_matrix(net: Network):
    """0/1 matrix M with M[i, j] = 1 iff j in N(i); weights are ignored."""
    M = np.zeros((net.n, net.n), dtype=np.int64)
    for i in range(net.n):
        for j in net.out_neighbors(i):
            M[i, j] = 1
    return M


def scalar_step(net: Network, config) -> tuple:
    """majority.step as one matrix-vector product per configuration.

    A^i_{t+1} = sgn sum_{j in N(i)} A^j_t.
    """
    majority._Neighbourhoods(net)       # refuses a directed graph and even neighbourhoods
    M = neighbor_matrix(net)
    a = np.asarray(config, dtype=np.int64)
    if a.shape != (net.n,) or not np.all(np.abs(a) == 1):
        raise ValueError("config must be a +-1 vector of length n")
    s = M @ a
    if np.any(s == 0):
        raise ArithmeticError("neighborhood sum hit zero despite odd-size check")
    return tuple(np.sign(s).astype(int))


def scalar_lyapunov(net: Network, config_t, config_tplus1) -> int:
    """L_t = 1/2 sum over ordered neighbor pairs of (A^i_{t+1} - A^j_t)^2, one pair of rounds.

    The reference for majority.lyapunov_series.
    """
    total = 0
    for i in range(net.n):
        for j in net.out_neighbors(i):
            total += (config_tplus1[i] - config_t[j]) ** 2
    if total % 2:
        raise AssertionError("ordered-pair Lyapunov sum should be even")
    return total // 2


def scalar_j_functional(net: Network, prev, cur, nxt) -> int:
    """J_t = sum_i (A^i_{t+1} - A^i_{t-1}) * sum_{j in N(i)} A^j_t, one triple of rounds.

    The reference for majority.j_series.
    """
    M = neighbor_matrix(net)
    s = M @ np.asarray(cur, dtype=np.int64)
    return int(sum((nxt[i] - prev[i]) * s[i] for i in range(net.n)))


def stepwise_limit_profiles(net, configs):
    """Even-phase limits by exactly 2(|E| + 1) single int64 majority rounds."""
    M = neighbor_matrix(net)
    cur = np.asarray(configs, dtype=np.int64)
    for _ in range(2 * (len(net.undirected_edge_list()) + 1)):
        cur = np.sign(cur @ M.T)
    return cur


def spin_rows(n):
    """All 2^n +-1 vectors as int64 rows in itertools.product order, first coordinate slowest."""
    return np.array(list(product((-1, 1), repeat=n)), dtype=np.int64).reshape(1 << n, n)


def fraction_retention(net, delta):
    """iota(G, delta) by pooling Fraction joint weights per limit profile."""
    n = net.n
    p = Fraction(1, 2) + Fraction(delta)
    q = 1 - p
    configs = spin_rows(n)
    limits = stepwise_limit_profiles(net, configs)
    joint = {}
    for row, prof in zip(configs, limits):
        k_plus = int((row == 1).sum())
        acc = joint.setdefault(tuple(int(x) for x in prof), [Fraction(0), Fraction(0)])
        acc[0] += Fraction(1, 2) * p ** (n - k_plus) * q ** k_plus     # S = -1
        acc[1] += Fraction(1, 2) * p ** k_plus * q ** (n - k_plus)     # S = +1
    return sum(min(w0, w1) for w0, w1 in joint.values())


def whole_array_retention_mc(net, delta, trials, rng):
    """majority.retention_error(mode="monte_carlo") with the signals drawn as one trials x n array."""
    n = net.n
    d = float(check_delta(delta))
    ss = rng.integers(0, 2, size=trials) * 2 - 1
    s8 = ss.astype(np.int8)[:, None]
    configs = np.where(rng.random((trials, n)) < (0.5 + d), s8, -s8)
    limits = majority.limit_profiles(net, configs)
    guesses = np.sign(limits.sum(axis=1))
    return float(np.mean(guesses != ss))


def full_cube_pooled_weights(net, delta):
    """Integer joint weights of (limit profile, S) over the whole 2^n cube, pooled per profile.

    The reference for majority._canonical_weights: every signal vector is
    pushed through limit_profiles, profiles are packed (bit j set iff agent
    j's limit action is +1) and counted per (profile, number of plus
    signals) with np.unique. Returns ({packed profile: [weight with
    S = -1, weight with S = +1]}, 2 b^n).
    """
    n = net.n
    up, den = bernoulli_cube(delta, n)
    configs = spin_rows(n)
    limits = majority.limit_profiles(net, configs)
    packed = np.zeros(len(limits), dtype=np.int64)
    for j in range(n):
        packed |= (limits[:, j] > 0).astype(np.int64) << j
    plus = (configs > 0).sum(axis=1)
    keys, counts = np.unique(packed * (n + 1) + plus, return_counts=True)
    pooled = {}
    for key, count in zip(keys.tolist(), counts.tolist()):
        prof, k = divmod(key, n + 1)
        acc = pooled.setdefault(prof, [0, 0])
        acc[0] += count * up[n - k]
        acc[1] += count * up[k]
    return pooled, 2 * den


def _weights_for_delta(configs: np.ndarray, delta):
    """Exact P_delta weight per row: bits are +1 w.p. 1/2 + delta, independent."""
    n = configs.shape[1]
    delta = Fraction(delta)
    p = Fraction(1, 2) + delta
    q = Fraction(1, 2) - delta
    plus = (configs == 1).sum(axis=1)
    table = [p ** k * q ** (n - k) for k in range(n + 1)]
    return [table[int(k)] for k in plus]


def fraction_influence(f, n, i, delta):
    """majority.influence of f's truth table, one Fraction weight per cube vertex; f maps a +-1 tuple to +-1."""
    configs = spin_rows(n)
    w = _weights_for_delta(configs, delta)
    total = Fraction(0)
    for row, wt in zip(configs, w):
        x = tuple(int(v) for v in row)
        y = x[:i] + (-x[i],) + x[i + 1:]
        if f(x) != f(y):
            total += wt
    return total


def fraction_success_probability(f, n, delta):
    """majority.success_probability of f's truth table, one Fraction weight per cube vertex."""
    configs = spin_rows(n)
    w = _weights_for_delta(configs, delta)
    return sum(wt for row, wt in zip(configs, w) if f(tuple(int(v) for v in row)) == 1)


def fraction_map_accuracy_three_bits(p, d1=0, d2=0, d3=0):
    """signals.map_accuracy_three_bits with one Fraction product per outcome and state.

    Bit i has P(X_i=1 | S=1) = p + d_i and P(X_i=0 | S=0) = p - d_i, the
    bits conditionally independent, S fair. Enumerates the 8 outcomes under
    both states; returns (accuracy, rule) with rule mapping each outcome
    triple to the MAP guess.
    """
    p = Fraction(p)
    ds = [Fraction(d) for d in (d1, d2, d3)]
    if not Fraction(1, 2) < p < 1:
        raise ValueError("need 1/2 < p < 1")
    for d in ds:
        for q in (p + d, p - d):
            if not 0 < q < 1:
                raise ValueError("degenerate parameters: a conditional probability leaves (0,1)")
    half = Fraction(1, 2)
    rule = {}
    acc = Fraction(0)
    for x in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]:
        w1 = half
        w0 = half
        for xi, d in zip(x, ds):
            p1 = p + d if xi == 1 else 1 - p - d
            p0 = p - d if xi == 0 else 1 - p + d
            w1 *= p1
            w0 *= p0
        # ties broken toward 1; tie outcomes contribute equally either way
        guess = 1 if w1 >= w0 else 0
        rule[x] = guess
        acc += max(w0, w1)
    return acc, rule


def absorption_drift(net, h):
    """{state: E[h(next) | state] - h(state)} for the states where it is nonzero.

    Contracts the one-step product measure one agent at a time in Fractions.
    """
    n = net.n
    out = {}
    for s in range(1 << n):
        qs = [sum((Fraction(w) for j, w in net.out_neighbors(i).items() if (s >> j) & 1),
                  Fraction(0)) for i in range(n)]
        cur = [h[t] for t in range(1 << n)]
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            cur = [(1 - qs[i]) * cur[t] + qs[i] * cur[t | bit] for t in range(bit)]
        if cur[0] != h[s]:
            out[s] = cur[0] - h[s]
    return out


def float_solve_absorption(net):
    """voter.absorption_probabilities as a float solve of the first-step system.

    Solves (I - Q) h = r over the 2^n - 2 transient states in floats, rebuilds
    each value with network.rationalize and certifies the candidate with
    certify_absorption. The rebuild finds h only when its denominators
    are at most network.REBUILD_MAX_DEN; otherwise certification fails.
    """
    n = net.n
    require_stochastic(net)
    ns = 1 << n
    bits = np.array([x[::-1] for x in product((0, 1), repeat=n)])       # bits[s, j] = bit j of s
    q = bits @ net.weight_matrix().T                        # q[s, i] = P(agent i adopts 1 | s)
    rows = np.ones((ns, 1))
    for i in range(n):                                      # append agent i as bit i
        qi = q[:, i:i + 1]
        rows = np.concatenate([rows * (1.0 - qi), rows * qi], axis=1)
    # rows[s, t] = P(next = t | s); keep the transient states, state s is row s - 1 of A
    A = np.eye(ns - 2) - rows[1:-1, 1:-1]
    r = rows[1:-1, -1]
    hf = np.linalg.solve(A, r)
    h = {0: Fraction(0), ns - 1: Fraction(1)}
    for s in range(1, ns - 1):
        h[s] = rationalize(hf[s - 1])
    certify_absorption(net, h)
    return h


def action_distribution(model, public_ratio):
    """P(A=1 | S=s, public ratio), exact, for s = 0 and 1."""
    p1 = [Fraction(0), Fraction(0)]
    for k in range(len(model.alphabet)):
        if cascade.agent_decision(public_ratio, cascade.private_ratio(model, k)) == 1:
            p1[0] += model.mu0[k]
            p1[1] += model.mu1[k]
    return p1[0], p1[1]


def observer_update(model, public_ratio, action):
    """Bayes update of the public ratio after seeing one action."""
    a0, a1 = action_distribution(model, public_ratio)
    if action == 1:
        if a1 == 0:
            raise ZeroDivisionError("impossible action under S=1")
        return public_ratio * a0 / a1
    if a1 == 1:
        raise ZeroDivisionError("impossible action under S=0")
    return public_ratio * (1 - a0) / (1 - a1)


def in_cascade(model, public_ratio):
    """True iff the next decision is the same for every signal in the support."""
    decisions = {cascade.agent_decision(public_ratio, cascade.private_ratio(model, k))
                 for k in range(len(model.alphabet))}
    return len(decisions) == 1


def fraction_cascade_run_exact(model, n) -> cascade.CascadeExact:
    """cascade.run_exact with every weight a Fraction and the ratio helpers called per visit."""
    states = {Fraction(1): (Fraction(1, 2), Fraction(1, 2))}
    p_correct, p_cascaded, p_wrong = [], [], []
    for _i in range(n):
        casc = wrong = correct = Fraction(0)
        nxt = {}
        for lx, (w0, w1) in states.items():
            if in_cascade(model, lx):
                casc += w0 + w1
                a = cascade.agent_decision(lx, cascade.private_ratio(model, 0))
                wrong += w0 if a == 1 else w1
            a0, a1 = action_distribution(model, lx)
            correct += w1 * a1 + w0 * (1 - a0)
            for action, m0, m1 in ((1, a0, a1), (0, 1 - a0, 1 - a1)):
                if m0 == 0 and m1 == 0:
                    continue
                if m0 == 0 or m1 == 0:
                    raise AssertionError("signal support must not separate states")
                new_lx = lx * m0 / m1
                if cascade.observer_action(new_lx) != action:
                    raise AssertionError("observer must copy the last action")
                c0, c1 = nxt.get(new_lx, (Fraction(0), Fraction(0)))
                nxt[new_lx] = (c0 + w0 * m0, c1 + w1 * m1)
        p_correct.append(correct)
        p_cascaded.append(casc)
        p_wrong.append(wrong)
        states = nxt
    limit_wrong = Fraction(0)
    for lx, (w0, w1) in states.items():
        if in_cascade(model, lx):
            a = cascade.agent_decision(lx, cascade.private_ratio(model, 0))
            limit_wrong += w0 if a == 1 else w1
    return cascade.CascadeExact(p_correct=p_correct, p_cascaded_by=p_cascaded,
                                p_wrong_cascade=p_wrong, limit_wrong=limit_wrong)


def fraction_limit_accuracy(model) -> Fraction:
    """cascade.limit_accuracy exploring the ratio chain itself, with Fraction masses and updates."""
    states = []          # transient (non-cascade) ratios
    index = {}
    frontier = [Fraction(1)]
    absorb = {}          # cascade ratio -> forced action
    while frontier:
        lx = frontier.pop()
        if lx in index or lx in absorb:
            continue
        if in_cascade(model, lx):
            absorb[lx] = cascade.agent_decision(lx, cascade.private_ratio(model, 0))
            continue
        index[lx] = len(states)
        states.append(lx)
        if len(states) > 64:
            raise RuntimeError("public-ratio chain did not stay small")
        a0, a1 = action_distribution(model, lx)
        for m0, m1 in ((a0, a1), (1 - a0, 1 - a1)):
            if m0 > 0 and m1 > 0:
                frontier.append(lx * m0 / m1)
    m = len(states)
    # h_s[state] = P(end in a cascade with action == s | S = s, at state)
    total = Fraction(0)
    for s in (0, 1):
        A = [[Fraction(1 if r == c else 0) for c in range(m)] for r in range(m)]
        b = [Fraction(0)] * m
        for lx in states:
            r = index[lx]
            a0, a1 = action_distribution(model, lx)
            for m0, m1 in ((a0, a1), (1 - a0, 1 - a1)):
                prob = m1 if s == 1 else m0
                if prob == 0:
                    continue
                nxt = lx * m0 / m1
                if nxt in absorb:
                    if absorb[nxt] == s:
                        b[r] += prob
                else:
                    A[r][index[nxt]] -= prob
        h = solve_rational(A, b)
        total += Fraction(1, 2) * h[index[Fraction(1)]]
    return total


def per_trial_run_sampled(model, n, trials, seed):
    """cascade.run_sampled stepping every trial's public ratio through observer_update in Fractions."""
    correct = np.zeros(n, dtype=np.int64)
    cascaded = np.zeros(n, dtype=np.int64)
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        world = sample_world(model, n, rng)
        lx = Fraction(1)
        for i in range(n):
            if in_cascade(model, lx):
                cascaded[i] += 1
            a = cascade.agent_decision(lx, cascade.private_ratio(model, model.index(world.signals[i])))
            if a == world.s:
                correct[i] += 1
            lx = observer_update(model, lx, a)
            if cascade.observer_action(lx) != a:
                raise AssertionError("observer must copy the last action")
    return correct / trials, cascaded / trials


def fraction_profile_entries(model, n):
    """(s, profile, weight) atoms of 1/2 d0 x mu0^n + 1/2 d1 x mu1^n, one Fraction product per atom."""
    half = Fraction(1, 2)
    entries = []
    for s in (0, 1):
        mu = model.mu1 if s == 1 else model.mu0
        for prof in product(range(len(model.alphabet)), repeat=n):
            w = half
            for k in prof:
                w *= mu[k]
            entries.append((s, tuple(model.alphabet[k] for k in prof), w))
    return tuple(entries)


class FractionRun(NamedTuple):
    """The public fields of a bayes.BayesResult, as fraction_run_exact computes them."""

    beliefs: list
    actions: list
    partitions: list
    rounds: int
    stabilized: bool


def _cells_from_keys(keys):
    """Map history keys to small ids; entries sharing a key share a cell."""
    ids = {}
    out = []
    for k in keys:
        if k not in ids:
            ids[k] = len(ids)
        out.append(ids[k])
    return out


def fraction_run_exact(net, space, horizon, utility="continuous", tie_rule="choose_one"):
    """Forward induction with Fraction beliefs per atom and growing history keys.

    The reference for bayes.run_exact: each agent's cell key is its own
    signal followed by every neighbour action it has seen, and every belief
    is a Fraction division per atom.
    """
    n = net.n
    entries = space.entries
    E = len(entries)
    weights = [w for (_s, _p, w) in entries]
    states = [s for (s, _p, _w) in entries]
    nbrs = [sorted(net.out_neighbors(i)) for i in range(n)]

    keys = [[(entries[e][1][i],) for e in range(E)] for i in range(n)]
    half = Fraction(1, 2)
    beliefs, actions, partitions = [], [], []
    stabilized = False
    for t in range(horizon):
        part_t = [_cells_from_keys(keys[i]) for i in range(n)]
        bel_t, act_t = [], []
        for i in range(n):
            cell_w = {}
            cell_w1 = {}
            for e in range(E):
                c = part_t[i][e]
                cell_w[c] = cell_w.get(c, Fraction(0)) + weights[e]
                if states[e] == 1:
                    cell_w1[c] = cell_w1.get(c, Fraction(0)) + weights[e]
            bel_i = []
            act_i = []
            for e in range(E):
                c = part_t[i][e]
                b = cell_w1.get(c, Fraction(0)) / cell_w[c]
                bel_i.append(b)
                if utility == "continuous":
                    act_i.append(b)
                elif b > half:
                    act_i.append(1)
                elif b < half:
                    act_i.append(0)
                elif tie_rule == "choose_one":
                    act_i.append(1)
                else:
                    sig = entries[e][1][i]
                    if sig not in (0, 1):
                        raise ValueError("own_signal tie rule needs 0/1 signals")
                    act_i.append(sig)
            bel_t.append(bel_i)
            act_t.append(act_i)
        beliefs.append(bel_t)
        actions.append(act_t)
        partitions.append(part_t)
        # observe: append this round's neighbor actions to every agent's history
        for i in range(n):
            for e in range(E):
                keys[i][e] = keys[i][e] + tuple(act_t[j][e] for j in nbrs[i])
        if t >= 1 and all(partitions[-1][i] == partitions[-2][i] for i in range(n)):
            # partitions can no longer refine; every later round repeats this one
            stabilized = True
            break
    return FractionRun(beliefs=beliefs, actions=actions, partitions=partitions,
                       rounds=len(actions), stabilized=stabilized)


def _key_order_ids(key):
    """The distinct values of key numbered 0, 1, ... in increasing order; (ids as int32, count)."""
    values, inverse = np.unique(key, return_inverse=True)
    return inverse.astype(np.int32), len(values)


def per_agent_refine(cells, base, codes, radix, net):
    """bayes._refine one agent at a time: fold in every neighbour's code, then np.unique per agent.

    Every neighbour counts, the agent itself too on a self-loop. The packed
    key is renumbered whenever one more code would pass 2^62. Each agent's
    keys are numbered in key order after the cells of the agents before it.
    Returns (cells, base, False): a sort numbered every agent's keys.
    """
    new = np.empty_like(cells)
    new_base = np.zeros_like(base)
    for i in range(net.n):
        key, bound = (cells[i] - base[i]).astype(np.int64), int(base[i + 1] - base[i])
        for j in sorted(net.out_neighbors(i)):
            if bound * radix > 2 ** 62:
                key, bound = _key_order_ids(key)
                key = key.astype(np.int64)
            key = key * radix + codes[j]
            bound *= radix
        ids, count = _key_order_ids(key)
        new[i] = new_base[i] + ids
        new_base[i + 1] = new_base[i] + count
    return new, new_base, False


def searchsorted_mc_consensus(net, delta, trials, seed, step_cap=None):
    """The voter chain sampled by picking a neighbour: one searchsorted call per agent per round.

    Agent i copies the neighbour whose cumulative weight interval holds its
    draw. It samples the same chain as voter.mc_consensus from different
    draws, so the two agree in distribution, not trial by trial.
    """
    n = net.n
    if step_cap is None:
        d = max(len(net.out_neighbors(i)) for i in range(n))
        step_cap = 100 * 2 * d * n * n
    cum = []
    choice_idx = []
    for i in range(n):
        nb = net.out_neighbors(i)
        js = np.array(sorted(nb), dtype=np.int64)
        ws = np.array([float(nb[j]) for j in js], dtype=float)
        cum.append(np.cumsum(ws / ws.sum()))
        choice_idx.append(js)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    s = rng.integers(0, 2, size=trials).astype(np.int8)
    match = rng.random((trials, n)) < 0.5 + float(delta)
    state = np.where(match, s[:, None], 1 - s[:, None]).astype(np.int8)

    active = np.arange(trials)
    times = np.zeros(trials, dtype=np.int64)
    value = np.zeros(trials, dtype=np.int8)
    for t in range(step_cap + 1):
        done = (state == state[:, :1]).all(axis=1)
        if done.any():
            idx = active[done]
            value[idx] = state[done, 0]
            times[idx] = t
            active = active[~done]
            state = state[~done]
        if len(active) == 0:
            break
        m = len(active)
        u = rng.random((m, n))
        nxt = np.empty_like(state)
        for i in range(n):
            picks = choice_idx[i][np.searchsorted(cum[i], u[:, i], side="right")]
            nxt[:, i] = state[np.arange(m), picks]
        state = nxt
    else:
        raise TimeoutError(f"{len(active)} trials unabsorbed after {step_cap} rounds")
    return {"matches": int((value == s).sum()), "trials": trials,
            "times": times, "s": s, "value": value}


def product_mc_consensus(net, delta, trials, seed, step_cap=None):
    """voter.mc_consensus as one exact product C = state @ A per block of rows, with a float draw per agent-round.

    Agent i adopts 1 iff u D_i < C_i for a double u, C_i the count on its
    neighbours at 1 out of D_i (the network's IntegerView): the probability is
    C_i / D_i within 2 ulps (test_adoption_probability_is_within_two_ulps_of_c_over_d).
    It draws S and psi as the kernel does and then its own round draws, so
    the two sample one chain and agree in distribution, not trial by trial.
    """
    n = net.n
    delta = check_delta(delta)
    view = require_stochastic(net)
    D = view.D.astype(np.int64)
    A = np.zeros((n, n + 1))             # A[j, i]: agent i's count on j; column n counts the ones
    A[:, n] = 1
    A[view.J, view.rows] = view.C
    if step_cap is None:
        step_cap = 100 * 2 * max(len(net.out_neighbors(i)) for i in range(n)) * n * n
    rows = max(1, signals._MC_BLOCK // n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    s = rng.integers(0, 2, size=trials).astype(np.int8)
    cur = np.empty((trials, n), dtype=np.int8)
    p = 0.5 + float(delta)
    for lo in range(0, trials, rows):
        sb = s[lo:lo + rows, None]
        cur[lo:lo + rows] = np.where(rng.random((len(sb), n)) < p, sb, 1 - sb)

    nxt = np.empty_like(cur)
    C = np.empty((rows, n + 1))
    u = np.empty((rows, n))
    ones = np.empty(trials)
    active = np.arange(trials)
    times = np.zeros(trials, dtype=np.int64)
    value = np.zeros(trials, dtype=np.int8)
    for t in range(step_cap + 1):
        m = len(active)
        for lo in range(0, m, rows):
            hi = min(lo + rows, m)
            c = np.matmul(cur[lo:hi], A, out=C[:hi - lo])
            ones[lo:hi] = c[:, n]
            x = rng.random(out=u[:hi - lo])
            x *= D
            np.less(x, c[:, :n], out=nxt[lo:hi].view(bool))
        done = (ones[:m] == 0) | (ones[:m] == n)
        if done.any():
            idx = active[done]
            value[idx] = nxt[:m][done, 0]
            times[idx] = t
            keep = ~done
            active = active[keep]
            np.compress(keep, nxt[:m], axis=0, out=cur[:len(active)])
        else:
            cur, nxt = nxt, cur
        if len(active) == 0:
            break
    else:
        raise TimeoutError(f"{len(active)} trials unabsorbed after {step_cap} rounds")
    return {"matches": int((value == s).sum()), "trials": trials,
            "times": times, "s": s, "value": value}


def fraction_bernoulli_words(qs, w, calls, owner=None):
    """The words voter._bernoulli_words owes rows of probabilities qs, from the words its draws returned.

    Row r compares the uniforms of owner[r] (by default its own). Each
    call's words come 16 per (owner, word) pair, and lane l of a pair reads
    the l-th uint16 of them, in little-endian order, as its next base-2^16
    digit.
    calls[0] covers every pair in row-major order; each later call covers,
    in order, the pairs that still had a lane tied in one of their rows. A
    lane with m digits is tied in row r while the number U they spell
    equals the first m digits of q = qs[r] and q has further digits. Each
    lane of row r is 1 iff U < q, for U spelled by all of its pair's digits.
    """
    owner = list(range(len(qs))) if owner is None else [int(o) for o in owner]
    owners = max(owner, default=-1) + 1
    digits = [[[] for _ in range(64)] for _ in range(owners * w)]

    def lane_u(p, lane):
        ds = digits[p][lane]
        return sum(d << 16 * (len(ds) - 1 - k) for k, d in enumerate(ds)), 65536 ** len(ds)

    def tied(p):
        for r in (r for r, o in enumerate(owner) if o == p // w):
            q = qs[r]
            for lane in range(64):
                u, scale = lane_u(p, lane)
                if (q * scale).denominator != 1 and u == int(q * scale):
                    return True
        return False

    for c, words in enumerate(calls):
        pairs = range(len(digits)) if c == 0 else [p for p in range(len(digits)) if tied(p)]
        lanes = np.asarray(words, dtype=np.uint64).astype("<u8").view("<u2").reshape(-1, 64)
        assert len(lanes) == len(pairs)
        for j, p in enumerate(pairs):
            for lane in range(64):
                digits[p][lane].append(int(lanes[j, lane]))
    assert not any(tied(p) for p in range(len(digits)))
    out = np.zeros((len(qs), w), dtype=np.uint64)
    for r, o in enumerate(owner):
        for word in range(w):
            for lane in range(64):
                u, scale = lane_u(o * w + word, lane)
                if Fraction(u, scale) < qs[r]:
                    out[r, word] |= np.uint64(1 << lane)
    return out


def stagewise_mc_consensus(net, delta, trials, seed, stages, masks, step_cap=None):
    """voter.mc_consensus as a scalar loop over trials and agents, on the stage masks the kernel drew.

    stages is the kernel's voter._Stages: its select group (a0, a1, J, r0)
    gives agent order[a0 + a] the neighbours order[J[k, a]], in stage order,
    and the stage k < d - 1 of neighbour k the row r0 + k (a1 - a0) + a.
    masks holds the (stage rows, columns) arrays of voter._bernoulli_words
    in call order, read as one stream of columns: a round whose layout has
    W words takes the stream's next W columns, the first for word 0, across
    the ends of the arrays. The layout puts the trials in lanes in order;
    once fewer than half of its lanes hold open trials, the open ones move,
    in order, to the fewest words. In each round agent i of a trial copies
    the neighbour of its first stage row set in the trial's lane, its last
    neighbour if none is. A trial unanimous at the start of round t retires
    with time t. Every array is read from, and the last one
    only as far as the rounds need.
    """
    n = net.n
    if step_cap is None:
        step_cap = 100 * 2 * max(len(net.out_neighbors(i)) for i in range(n)) * n * n
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    s = rng.integers(0, 2, size=trials).astype(np.int8)
    match = rng.random((trials, n)) < 0.5 + float(delta)
    states = [[int(s[k]) if match[k, i] else 1 - int(s[k]) for i in range(n)] for k in range(trials)]
    rows, last = [[] for _ in range(n)], [0] * n      # (stage row, neighbour) per stage, and the last neighbour
    for a0, a1, J, r0 in stages.select:
        for a in range(a1 - a0):
            i, js = int(stages.order[a0 + a]), stages.order[J[:, a]].tolist()
            rows[i], last[i] = [(r0 + k * (a1 - a0) + a, j) for k, j in enumerate(js[:-1])], js[-1]
    stream = [[] for _ in stages.den]            # the columns drawn and not yet taken, per stage row
    masks = [m.tolist() for m in masks]
    layout = list(range(trials))
    times = np.zeros(trials, dtype=np.int64)
    value = np.zeros(trials, dtype=np.int8)
    open_trials = set(range(trials))
    for t in range(step_cap + 1):
        for k in sorted(open_trials):
            if sum(states[k]) in (0, n):
                value[k], times[k] = states[k][0], t
                open_trials.discard(k)
        if not open_trials:
            break
        if t == step_cap:
            raise TimeoutError(f"{len(open_trials)} trials unabsorbed after {step_cap} rounds")
        words = -(-len(layout) // 64)
        if words > 1 and 2 * len(open_trials) < 64 * words:
            layout = sorted(open_trials)
            words = -(-len(layout) // 64)
        while len(stream[0]) < words:
            for r, part in enumerate(masks.pop(0)):
                stream[r] += part
        cols = [part[:words] for part in stream]
        stream = [part[words:] for part in stream]
        for lane, k in enumerate(layout):
            if k not in open_trials:
                continue
            word, bit = divmod(lane, 64)
            states[k] = [next((states[k][j] for r, j in rows[i] if (cols[r][word] >> bit) & 1),
                              states[k][last[i]]) for i in range(n)]
    assert not masks
    return {"matches": int((value == s).sum()), "trials": trials,
            "times": times, "s": s, "value": value}


def per_trial_gaussian_run(model: GaussianLLR, n, trials, seed):
    """cascade.gaussian_run as it updated every trial's public log-ratio itself.

    Vectorized sequential run with N(+-1, sigma^2) signals, log domain.

    Private log-ratio of S=0 vs S=1 for observation y is -2y/sigma^2. The
    action is a threshold rule in y, so the observer's update only needs
    Phi at the moving threshold. Returns per-position P(A_i = S) and the
    fraction of runs whose last decision ignored the signal support
    (always 0: Gaussian support is unbounded, no cascade ever starts).
    """
    sigma2 = float(model.sigma2)
    sigma = sqrt(sigma2)
    base = trial_rng(seed, 0)
    s = base.integers(0, 2, size=trials)
    mean = np.where(s == 1, 1.0, -1.0)
    log_lx = np.zeros(trials)
    p_correct = np.zeros(n)
    for i in range(n):
        y = mean * 1.0 + trial_rng(seed, 1, agent=i).normal(0.0, sigma, size=trials)
        # action 1 iff log Lx - 2y/sigma^2 <= 0, i.e. y >= sigma^2 log Lx / 2
        thresh = sigma2 * log_lx / 2.0
        act = (y >= thresh).astype(np.int64)
        p_correct[i] = np.mean(act == s)
        # observer: P(A=1 | S=s') = 1 - Phi((thresh - m(s'))/sigma)
        z1 = (thresh - 1.0) / sigma
        z0 = (thresh + 1.0) / sigma
        pa1_s1 = 1.0 - _ndtr(z1)
        pa1_s0 = 1.0 - _ndtr(z0)
        with np.errstate(divide="ignore"):
            upd1 = np.log(pa1_s0) - np.log(pa1_s1)
            upd0 = np.log1p(-pa1_s0) - np.log1p(-pa1_s1)
        log_lx = log_lx + np.where(act == 1, upd1, upd0)
    return p_correct


@dataclass(frozen=True)
class StrongVoterState:
    opinions: tuple   # in {0, 1}
    strengths: tuple  # in {0, 1}; 1 = strong
    t: int = 0


def initial_strong_state(signals) -> StrongVoterState:
    return StrongVoterState(opinions=tuple(signals), strengths=(1,) * len(signals), t=0)


def strong_voter_step(net: Network, state: StrongVoterState, rng) -> StrongVoterState:
    """One asynchronous update on a uniformly random edge.

    Strong-vs-strong disagreement: both keep opinions, both go weak.
    Strong-vs-weak: the weak side adopts the strong opinion, strengths keep.
    Weak-vs-weak disagreement: both adopt one common fair-coin opinion.
    Equal opinions: no change. Afterwards the two endpoints swap their whole
    (opinion, strength) pairs with probability 1/2.
    """
    if net.directed:
        raise ValueError("strong voter runs on undirected networks")
    pairs = [e for e in net.undirected_edge_list() if e[0] != e[1]]
    i, j = pairs[int(rng.integers(0, len(pairs)))]
    ops = list(state.opinions)
    sts = list(state.strengths)
    ai, aj = ops[i], ops[j]
    wi, wj = sts[i], sts[j]
    if ai != aj:
        if wi == 1 and wj == 1:
            wi, wj = 0, 0
        elif wi == 1 and wj == 0:
            aj = ai
        elif wj == 1 and wi == 0:
            ai = aj
        else:
            common = int(rng.integers(0, 2))
            ai = aj = common
            wi = wj = 0
    if rng.integers(0, 2) == 1:
        ai, aj = aj, ai
        wi, wj = wj, wi
    ops[i], ops[j] = ai, aj
    sts[i], sts[j] = wi, wj
    return StrongVoterState(opinions=tuple(ops), strengths=tuple(sts), t=state.t + 1)


class FixedDraws:
    """Stands in for a generator: integers() returns the given values in order."""

    def __init__(self, vals):
        self.vals = list(vals)

    def integers(self, lo, hi, size=None):
        return self.vals.pop(0)


def per_update_strong_walk(net: Network, state: StrongVoterState, step_cap, rng) -> StrongVoterState:
    """voter._strong_walk as one strong_voter_step per update, on the kernel's draws.

    Runs from state until all opinions agree and returns the final state.
    Draws come in batches of 64, 128, 256, ... values d in [0, 4 |pairs|),
    never past step_cap updates in all. A draw d holds the edge d >> 2, the
    coin (d >> 1) & 1 and the swap d & 1; strong_voter_step reads them in that
    order, the coin only for a disagreement between two weak agents.
    """
    pairs = [e for e in net.undirected_edge_list() if e[0] != e[1]]
    draws = []
    batch = 64
    while 0 < sum(state.opinions) < net.n:
        if state.t >= step_cap:
            raise TimeoutError(f"no opinion consensus within {step_cap} edge updates")
        if not draws:
            draws = rng.integers(0, 4 * len(pairs), size=min(batch, step_cap - state.t)).tolist()
            batch *= 2
        d = draws.pop(0)
        i, j = pairs[d >> 2]
        weak_tie = state.opinions[i] != state.opinions[j] and not state.strengths[i] and not state.strengths[j]
        state = strong_voter_step(net, state, FixedDraws([d >> 2] + [(d >> 1) & 1] * weak_tie + [d & 1]))
    return state


def three_draw_run_strong_voter(net: Network, signals, rng, step_cap=None):
    """voter.run_strong_voter as it drew edges, coins and swaps as three arrays of 1024 per batch.

    It samples the same walk as the one-draw kernel from other draws, so the
    two agree in distribution, not trial by trial.
    """
    n = net.n
    if step_cap is None:
        step_cap = 2000 * n * n
    pairs = voter._strong_pairs(net)
    codes = [2 * a + 1 for a in signals]
    ones = sum(signals)
    t = 0
    table = voter._strong_table()
    batch = 1024
    while t <= step_cap:
        edges = rng.integers(0, len(pairs), size=batch)
        coins = rng.integers(0, 2, size=batch)
        swaps = rng.integers(0, 2, size=batch)
        # memoryviews yield Python ints lazily: a trial reads only the draws it uses
        for e, ctrl in zip(memoryview(edges), memoryview(coins * 32 + swaps * 16)):
            if ones == 0 or ones == n:
                return codes[0] >> 1, t
            i, j = pairs[e]
            codes[i], codes[j], d = table[ctrl + 4 * codes[i] + codes[j]]
            ones += d
            t += 1
    if ones == 0 or ones == n:
        return codes[0] >> 1, t
    raise TimeoutError(f"no opinion consensus within {step_cap} edge updates")


# -- helpers that only the tests call ---------------------------------------

def run_with_cheaters(net: Network, signals, cheaters: dict, horizon=10000, tol=1e-12):
    """DeGroot averaging with some agents pinned to fixed actions, in floats: the float check of the cheater limits.

    Returns the action vector once successive rounds differ by at most tol
    or the horizon ends. Cheater coordinates never move.
    """
    if not cheaters:
        raise ValueError("no cheaters given; use run()")
    if len(cheaters) >= net.n:
        raise ValueError("at least one honest agent required")
    for c, v in cheaters.items():
        if not 0 <= float(v) <= 1:
            raise ValueError(f"cheater value {v} outside [0, 1]")
    x = [float(cheaters.get(i, signals[i])) for i in range(net.n)]
    P = net.weight_matrix()
    x = np.array(x)
    fixed = np.array([i in cheaters for i in range(net.n)])
    vals = np.array([float(cheaters.get(i, 0.0)) for i in range(net.n)])
    for _ in range(horizon):
        nxt = P @ x
        nxt[fixed] = vals[fixed]
        if np.max(np.abs(nxt - x)) <= tol:
            x = nxt
            break
        x = nxt
    return tuple(x)


def _adopt_probs(net: Network, acts):
    """q_i = P(agent i's next voter action is 1 | current actions), exact."""
    qs = []
    for i in range(net.n):
        q = Fraction(0)
        for j, w in net.out_neighbors(i).items():
            if acts[j] == 1:
                q += Fraction(w)
        qs.append(q)
    return qs


def one_step_distribution(net: Network, acts):
    """Exact distribution over the voter model's next states from the given actions."""
    qs = _adopt_probs(net, acts)
    n = net.n
    out = {}
    for s2 in range(1 << n):
        p = Fraction(1)
        for i in range(n):
            p *= qs[i] if (s2 >> i) & 1 else 1 - qs[i]
        if p != 0:
            out[tuple((s2 >> i) & 1 for i in range(n))] = p
    return out


def exact_consensus_probability(net: Network, signals):
    """Exact rational P(voter consensus = 1 | signals), read from voter.absorption_probabilities."""
    h = voter.absorption_probabilities(net)
    s = sum((1 << i) for i, a in enumerate(signals) if a == 1)
    return h[s]


def martingale_residual(net: Network, acts):
    """E[X_{t+1} | state] - X_t for X = sum_i |N(i)| A_i in the voter model, exact closed form.

    Requires uniform weighting w(i, j) = 1/|N(i)| on an undirected network;
    the residual is then identically zero.
    """
    if net.directed:
        raise ValueError("martingale requires an undirected network")
    degs = []
    for i in range(net.n):
        nb = net.out_neighbors(i)
        d = len(nb)
        if any(w != Fraction(1, d) for w in nb.values()):
            raise ValueError("martingale requires uniform weighting 1/|N(i)|")
        degs.append(d)
    x_now = sum(d * a for d, a in zip(degs, (Fraction(a) for a in acts)))
    x_next = Fraction(0)
    for i in range(net.n):
        nb = net.out_neighbors(i)
        e_i = sum(Fraction(w) * acts[j] for j, w in nb.items())
        x_next += degs[i] * e_i
    return x_next - x_now


@dataclass(frozen=True)
class LimitCycle:
    config_even: tuple
    config_odd: tuple
    entry_time: int
    period: int


def run_to_cycle(net: Network, config) -> LimitCycle:
    """The majority-dynamics cycle of period at most two that the trajectory enters, always within |E| rounds."""
    edge_count = len(net.undirected_edge_list())
    traj = majority.trajectory(net, [config], edge_count + 2)[:, 0]
    repeats = (traj[2:] == traj[:-2]).all(axis=1)
    if not repeats.any():
        raise AssertionError("no period-two cycle within |E| rounds; majority invariant broken")
    entry = int(repeats.argmax())
    cur, nxt = (tuple(row.tolist()) for row in traj[entry:entry + 2])
    even, odd = (cur, nxt) if entry % 2 == 0 else (nxt, cur)
    return LimitCycle(config_even=even, config_odd=odd,
                      entry_time=entry, period=1 if nxt == cur else 2)


def belief_support(model):
    """('bounded', lo, hi) with exact alphabet extremes of the private beliefs, or ('unbounded',)."""
    if isinstance(model, FiniteModel):
        beliefs = [private_belief(model, x) for x in model.alphabet]
        return ("bounded", min(beliefs), max(beliefs))
    if isinstance(model, GaussianLLR):
        return ("unbounded",)
    raise TypeError(f"no belief support for {type(model).__name__}")


def delta_independence(joint: dict, tol=None):
    """Distance of a finite joint distribution from the product of its marginals.

    joint maps outcome tuples to weights summing to 1. Returns (within, excess)
    where excess = dTV(joint, product) and within = (excess <= tol) when a
    tolerance is given, else None.
    """
    total = sum(joint.values())
    if total != 1 and abs(float(total) - 1.0) > 1e-12:
        raise ValueError(f"joint weights sum to {total}, not 1")
    ks = next(iter(joint))
    k = len(ks)
    marginals = [{} for _ in range(k)]
    for outcome, w in joint.items():
        for i, x in enumerate(outcome):
            marginals[i][x] = marginals[i].get(x, 0) + w
    product_ = {}
    for outcome in joint:
        w = 1
        for i, x in enumerate(outcome):
            w = w * marginals[i][x]
        product_[outcome] = w
    # the product may put mass outside joint's support
    support = set(joint)
    for combo in product(*[sorted(m, key=repr) for m in marginals]):
        if combo not in support:
            w = 1
            for i, x in enumerate(combo):
                w = w * marginals[i][x]
            product_[combo] = w
    excess = tv_distance(joint, product_)
    within = None if tol is None else (excess <= tol)
    return within, excess
