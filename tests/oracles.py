"""Slow, direct reference implementations that the fast exact kernels are tested against.

Each one is the straightforward Fraction computation that a kernel in
src/opdyn replaced; the differential tests require equal results.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from opdyn import majority
from opdyn.network import stationary_distribution


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


def stepwise_limit_profiles(net, configs):
    """Even-phase limits by exactly 2(|E| + 1) single int64 majority rounds."""
    M = np.zeros((net.n, net.n), dtype=np.int64)
    for i in range(net.n):
        for j in net.out_neighbors(i):
            M[i, j] = 1
    cur = np.asarray(configs, dtype=np.int64)
    for _ in range(2 * (len(net.undirected_edge_list()) + 1)):
        cur = np.sign(cur @ M.T)
    return cur


def fraction_retention(net, delta):
    """iota(G, delta) by pooling Fraction joint weights per limit profile."""
    n = net.n
    p = Fraction(1, 2) + Fraction(delta)
    q = 1 - p
    configs = majority.all_spin_configs(n)
    limits = stepwise_limit_profiles(net, configs)
    joint = {}
    for row, prof in zip(configs, limits):
        k_plus = int((row == 1).sum())
        acc = joint.setdefault(tuple(int(x) for x in prof), [Fraction(0), Fraction(0)])
        acc[0] += Fraction(1, 2) * p ** (n - k_plus) * q ** k_plus     # S = -1
        acc[1] += Fraction(1, 2) * p ** k_plus * q ** (n - k_plus)     # S = +1
    return sum(min(w0, w1) for w0, w1 in joint.values())


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
