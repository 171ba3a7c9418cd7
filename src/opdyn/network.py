"""Weighted directed graphs and their Markov-chain utilities.

Networks here are the substrate for every dynamic in the package: a simple,
strongly connected directed graph, optionally carrying row-stochastic weights
(one weight per out-edge, rows summing to 1, self-loop on every node). Every
weight is an exact rational, a Fraction from construction on, so every exact
oracle can read any network; graph files spell weights as 1/4, 0.25 or
2.5e-1, read exactly. Undirected graphs are stored as symmetric directed
pairs. Each network's weights are also held as integers, in one IntegerView
built and validated on first use and kept with the network. Every network has
at least one agent. Seeded topologies (random_regular) are drawn from one
numpy generator, np.random.default_rng(seed).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from numbers import Integral, Rational

import numpy as np

from .harness_util import debug, int_dtype, read_rational, scaled, unscaled

# generate builds no topology with more agents, or more neighbour pairs, than this
GENERATE_MAX_SIZE = 10 ** 5

# random_regular draws at most PAIRING_BUDGET pairings, in batches of about PAIRING_BATCH_STUBS stubs
PAIRING_BUDGET = 10 ** 4
PAIRING_BATCH_STUBS = 1 << 16

# exact linear solve below this size, power iteration above, kept if max |alpha P - alpha| <= POWER_TOL
EXACT_SOLVE_MAX_N = 200
POWER_TOL = 1e-12

# rebuilt rationals have denominators at most this; a float within ~1e-12 of
# such a rational determines it uniquely
REBUILD_MAX_DEN = 10 ** 6


@dataclass(frozen=True)
class Network:
    """Simple directed graph with weighted edges.

    edges are (source, target, weight) triples, 0-indexed. A weight is a
    numbers.Rational (an int, a Fraction or a numpy integer) and is kept as a
    Fraction; any other weight, a float among them, raises ValueError naming
    its edge. ``directed=False`` means the edge list is already symmetric
    (both directions present); generators take care of that. Immutable after
    construction, safe to share across trial workers.
    """

    n: int
    edges: tuple = ()
    directed: bool = True
    _out: dict = field(init=False, repr=False, compare=False)
    _cache: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        out = {i: {} for i in range(self.n)}
        for (i, j, w) in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
            if j in out[i]:
                raise ValueError(f"parallel edge ({i},{j})")
            if type(w) is not Fraction:
                if not isinstance(w, Rational):
                    raise ValueError(f"edge ({i},{j}) has the weight {w!r}, which is not rational: "
                                     f"pass an int or a Fraction, such as Fraction(str(w))")
                w = Fraction(w)
            out[i][j] = w
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_cache", {})

    # -- basic views ---------------------------------------------------------

    def out_neighbors(self, i):
        return self._out[i]

    def neighborhood(self, i):
        """N(i): out-neighbors of i. Generators always include i itself."""
        return sorted(self._out[i])

    def weight(self, i, j):
        return self._out[i].get(j)

    def weight_matrix(self):
        """Float matrix P with P[i, j] = w(i, j), from the integer view's float weights."""
        view = self.cached(_integer_view)
        P = np.zeros((self.n, self.n))
        P[view.rows, view.J] = view.W
        return P

    def cached(self, build):
        """build(self), computed on the first call and kept: a Network never changes.

        Nothing is kept when build raises, so a refusal repeats on every call.
        The keys are private builders: the integer view (_integer_view, built
        by the first validate, require_stochastic, stationary solve or
        exact kernel that reads it), its neighbour table (_slots), and the
        tables of the kernels that run on one network many times, such as
        voter._Stages and majority._Neighbourhoods.
        """
        if build not in self._cache:
            self._cache[build] = build(self)
        return self._cache[build]

    def undirected_edge_list(self):
        """Unordered edges {i, j} with i <= j (each once). Self-loops included."""
        seen = set()
        for (i, j, _w) in self.edges:
            seen.add((min(i, j), max(i, j)))
        return sorted(seen)

    # -- connectivity --------------------------------------------------------

    def is_strongly_connected(self):
        back = [[] for _ in range(self.n)]
        for (i, j, _w) in self.edges:
            back[j].append(i)
        return -1 not in _bfs(self._out, 0) and -1 not in _bfs(back, 0)

    def distances_from(self, center):
        """BFS distance (in edges, following direction) from center; -1 if unreachable."""
        return _bfs(self._out, center)


def _bfs(adj, start):
    """Edge distances from start in the adjacency adj (adj[u] iterates u's successors); -1 if unreachable."""
    dist = [-1] * len(adj)
    dist[start] = 0
    q = deque([start])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


class IntegerView:
    """A network's weights as integers, and the verdict of its validation.

    Agent i's out-neighbours are J[indptr[i]:indptr[i + 1]], in index order,
    with integer counts C over the row denominator D[i]: w(i, j) = C / D[i],
    D[i] the lcm of the row's denominators (harness_util.scaled). C and D are
    int64 arrays, or object arrays of Python integers once a count or a row
    denominator reaches 2^63. rows[k] is the agent of entry k, and W[k] its
    weight as a float, correctly rounded.

    faults lists the violations of the base invariants (out-degree >= 1,
    strong connectivity), and row_faults those of the stochastic ones
    (self-loop, positive weights, each row summing to 1 exactly: sum C = D),
    in the words of validate. Built once per network, on the first read
    through Network.cached(_integer_view); a faulty network keeps its view,
    and require_stochastic refuses it on every call.
    """

    def __init__(self, net: Network):
        J, C, D, weights, faults, row_faults = [], [], [], [], [], []
        for i in range(net.n):
            nb = net.out_neighbors(i)
            if not nb:
                faults.append(f"node {i} has out-degree 0")
            if i not in nb:
                row_faults.append(f"node {i} has no self-loop")
            js = sorted(nb)
            ws = [nb[j] for j in js]
            row_faults += [f"non-positive weight on edge ({i},{j})" for j, w in nb.items() if w.numerator <= 0]
            d, cs = scaled(ws)
            if sum(cs) != d:
                row_faults.append(f"row {i} sums to {Fraction(sum(cs), d)}, not 1")
            J += js
            C += cs
            D.append(d)
            weights += ws
        if not net.is_strongly_connected():
            faults.append("graph is not strongly connected")
        bound = max(max(D, default=0), max(map(abs, C), default=0))
        dtype = int_dtype(bound)
        sizes = np.array([len(net.out_neighbors(i)) for i in range(net.n)], dtype=np.int64)
        self.indptr = np.concatenate(([0], np.cumsum(sizes)))
        self.rows = np.repeat(np.arange(net.n), sizes)
        self.J = np.array(J, dtype=np.int64)
        self.C = np.array(C, dtype=dtype)
        self.D = np.array(D, dtype=dtype)
        if bound < 2 ** 53:     # exact in float64, so C / D rounds once, as float(w) does
            self.W = self.C / self.D[self.rows]
        else:
            self.W = np.array([float(w) for w in weights])
        self.faults, self.row_faults = tuple(faults), tuple(row_faults)


def _integer_view(net: Network) -> IntegerView:
    """The Network.cached key of a network's IntegerView."""
    return IntegerView(net)


def _slots(net: Network):
    """(idx, keep), max out-degree x n: idx[k, i] is agent i's k-th out-neighbour where keep[k, i], else i.

    The one layout of the IntegerView's rows by slot, built once per network
    through Network.cached(_slots).
    """
    view = net.cached(_integer_view)
    deg = np.diff(view.indptr)
    keep = np.arange(int(deg.max(initial=0)))[:, None] < deg
    idx = np.tile(np.arange(net.n), (len(keep), 1))
    idx.T[keep.T] = view.J          # row-major over keep.T is the CSR order: agent by agent, slot by slot
    return idx, keep


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        return "valid" if self.ok else "; ".join(self.violations)


def validate(net: Network, require_stochastic: bool = False) -> ValidationReport:
    """Check the standing structural assumptions, report-style.

    Base invariants: simple (enforced at construction), every out-degree >= 1,
    strongly connected. With require_stochastic additionally: self-loop on
    every node, strictly positive weights, each row summing to 1 exactly. The
    verdict is the one the network's IntegerView found when it was built.
    """
    view = net.cached(_integer_view)
    return ValidationReport(list(view.faults + (view.row_faults if require_stochastic else ())))


def require_stochastic(net: Network) -> IntegerView:
    """The network's IntegerView, or ValueError listing every violation of validate(net, require_stochastic=True).

    The view is built, and the network validated, once: on the first call
    (or the first validate or kernel that reads the view), through
    Network.cached. Later calls only read the verdict, so a refusal repeats
    on every call.
    """
    view = net.cached(_integer_view)
    if view.faults or view.row_faults:
        raise ValueError(f"network fails stochastic validation: {'; '.join(view.faults + view.row_faults)}")
    return view


# -- generators --------------------------------------------------------------

def _undirected_pairs(kind, n, d=None, seed=None):
    """Neighbor pairs (i < j, no self), sorted, for each supported topology.

    random_regular draws a connected simple d-regular graph, uniform over the
    labelled ones, by Bollobas's pairing model with rejection: the n d stubs
    (d per agent) are shuffled and paired off, position 2k with 2k + 1, and a
    pairing is kept only if it has no loop, no repeated pair and joins all n
    agents. The pairings come from np.random.default_rng(seed), seed >= 0, in
    batches of independent permutations, rng.permuted(..., axis=1): the first
    batch is one pairing and each next one twice the last, up to about
    PAIRING_BATCH_STUBS stubs. The first kept pairing in draw order wins.
    After PAIRING_BUDGET pairings without one, ValueError.
    """
    if kind == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "cycle":
        if n == 1:
            return []
        if n == 2:
            return [(0, 1)]
        return [(i, (i + 1) % n) for i in range(n)]
    if kind == "complete":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "star":
        return [(0, j) for j in range(1, n)]
    if kind == "grid":
        side = int(round(n ** 0.5))
        if side * side != n:
            raise ValueError(f"grid requires a square n, got {n}")
        pairs = []
        for r in range(side):
            for c in range(side):
                u = r * side + c
                if c + 1 < side:
                    pairs.append((u, u + 1))
                if r + 1 < side:
                    pairs.append((u, u + side))
        return pairs
    if kind == "random_regular":
        if d is None:
            raise ValueError("random_regular requires d")
        if seed is None:
            raise ValueError("random_regular requires seed: the graph is drawn from it")
        if n * d % 2 != 0 or d >= n or d < 1:
            raise ValueError(f"infeasible degree sequence: n={n}, d={d}")
        if not isinstance(seed, Integral) or seed < 0:
            raise ValueError(f"random_regular needs an integer seed >= 0, got {seed!r}")
        rng = np.random.default_rng(seed)
        stubs = np.repeat(np.arange(n), d)
        cap, rows, drawn = max(1, PAIRING_BATCH_STUBS // len(stubs)), 1, 0
        while drawn < PAIRING_BUDGET:
            rows = min(rows, cap, PAIRING_BUDGET - drawn)
            batch = rng.permuted(np.tile(stubs, (rows, 1)), axis=1)
            drawn, rows = drawn + rows, 2 * rows
            a, b = batch[:, 0::2], batch[:, 1::2]
            codes = np.sort(np.minimum(a, b) * n + np.maximum(a, b), axis=1)
            simple = (a != b).all(axis=1) & (np.diff(codes, axis=1) != 0).all(axis=1)
            for r in np.flatnonzero(simple):
                pairs = [divmod(code, n) for code in codes[r].tolist()]
                if _pairs_connected(n, pairs):
                    return pairs
        raise ValueError(f"could not realize a connected {d}-regular graph on {n} nodes "
                         f"after {PAIRING_BUDGET} pairings")
    raise ValueError(f"unknown kind {kind!r}")


def _pairs_connected(n, pairs):
    """True iff the undirected pairs (i != j) join all n >= 1 nodes."""
    adj = [[] for _ in range(n)]
    for (a, b) in pairs:
        adj[a].append(b)
        adj[b].append(a)
    return -1 not in _bfs(adj, 0)


def from_pairs(n, pairs):
    """Lazy-uniform network from an undirected pair list (i != j).

    N(i) is the neighbours of i plus i itself, and w(i, j) = 1/|N(i)| as
    exact Fractions.
    """
    nbrs = [set() for _ in range(n)]
    for (a, b) in pairs:
        nbrs[a].add(b)
        nbrs[b].add(a)
    edges = []
    for i in range(n):
        closed = sorted(nbrs[i] | {i})
        w = Fraction(1, len(closed))
        for j in closed:
            edges.append((i, j, w))
    return Network(n=n, edges=tuple(edges), directed=False)


def generate(kind, n, d=None, seed=None):
    """Build a named lazy-uniform test network (see from_pairs).

    kinds: chain, cycle, complete, star, grid, random_regular (needs d, seed).
    Refuses, before building anything, more than GENERATE_MAX_SIZE agents or
    neighbour pairs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pairs = {"complete": n * (n - 1) // 2, "grid": 2 * n, "random_regular": n * (d or 0) // 2}.get(kind, n)
    if max(n, pairs) > GENERATE_MAX_SIZE:
        raise ValueError(f"{kind}:{n} is too large: {n} agents and up to {pairs} neighbour pairs, "
                         f"but generate builds at most {GENERATE_MAX_SIZE} of either")
    return from_pairs(n, _undirected_pairs(kind, n, d=d, seed=seed))


# -- exact linear algebra ----------------------------------------------------

def rationalize(x) -> Fraction:
    """The closest rational to the float x with denominator at most REBUILD_MAX_DEN."""
    return Fraction(float(x)).limit_denominator(REBUILD_MAX_DEN)


def _solve_integer(M):
    """(Q, N, branch): the exact solution x = N / Q of the integer system M = [A | b], and how it was found.

    The contract: A is nonsingular, and the caller proves it where it builds
    M, as _exact_stationary, degroot.cheater_limit_exact and
    cascade.limit_accuracy do. M is an n x (n + 1) int64 array, or an object
    array of Python integers once an entry reaches 2^63. One float solve
    gives a guess. Each distinct value of the guess (to 12 decimals) is
    rebuilt with `rationalize`, and harness_util.scaled puts the rebuilt
    solution over the lcm Q of its denominators, in Python integers. Failing
    that, fraction-free (Bareiss) elimination solves M. _proves checks every
    answer, A N = b Q in integers, which is a proof because the solution is
    unique. N is a list of Python integers. Raises ValueError where Bareiss
    elimination finds A singular.
    """
    n = len(M)
    try:
        guess = np.linalg.solve(M[:, :n].astype(float), M[:, n].astype(float))
    except (np.linalg.LinAlgError, OverflowError):        # singular, or an entry beyond float range
        guess = None
    if guess is not None and np.isfinite(guess).all():
        keys = guess.round(12).tolist()
        value = {k: rationalize(v) for k, v in dict(zip(keys, guess.tolist())).items()}
        Q, N = scaled(map(value.__getitem__, keys))
        if _proves(M, Q, N):
            return Q, N, f"certified float rebuild, one shared denominator {Q}"
    Q, N = _bareiss(M.tolist())
    if not _proves(M, Q, N):
        raise ArithmeticError("Bareiss elimination returned a non-solution")
    return Q, N, "Bareiss fallback"


def _proves(M, Q, N):
    """True iff x = N / Q solves M = [A | b] exactly: A N = b Q, checked in integers.

    Every product and partial sum is at most max|M| (n max|N| + Q) in absolute
    value, so the check runs in int64 below 2^63 and in Python integers beyond.
    """
    n = len(M)
    bound = max(1, int(np.abs(M).max(initial=0))) * (n * max(map(abs, N), default=0) + Q)
    dtype = int_dtype(bound)
    M = M.astype(dtype)
    return bool((M[:, :n] @ np.array(N, dtype=dtype) == M[:, n] * Q).all())


def _bareiss(M):
    """Fraction-free Gauss-Jordan elimination on the integer rows M = [A | b], in place: (Q, N) with x = N / Q.

    Every division by the previous pivot is exact, and at the end every
    diagonal entry equals the last pivot (det(A) up to sign), so x_i =
    M[i][n] / M[i][i]; Q > 0, and N / Q is in lowest terms as a whole.
    """
    n = len(M)
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if M[r][k]), None)
        if piv is None:
            raise ValueError("singular system")
        M[k], M[piv] = M[piv], M[k]
        top = M[k]
        p = top[k]
        for i in range(n):
            if i != k:
                f = M[i][k]
                M[i] = [(p * x - f * y) // prev for x, y in zip(M[i], top)]
        prev = p
    sign = 1 if prev > 0 else -1
    g = gcd(prev, *(row[n] for row in M)) * sign
    return prev // g, [row[n] // g for row in M]


# -- stationary distribution -------------------------------------------------

@dataclass(frozen=True)
class StationaryDistribution:
    alpha: tuple

    @property
    def exact(self):
        return all(isinstance(a, Fraction) for a in self.alpha)

    def as_floats(self):
        return np.array([float(a) for a in self.alpha])


def stationary_distribution(net: Network) -> StationaryDistribution:
    """Left unit eigenvector of the weight matrix (the PageRank vector).

    Up to EXACT_SOLVE_MAX_N agents: the exact solution of alpha (P - I) = 0
    with the last equation replaced by sum(alpha) = 1 (see _exact_stationary).
    Otherwise power iteration (cap 1e6 rounds) on the IntegerView's rows,
    one np.bincount per round and no dense matrix, returned only if
    max |alpha P - alpha| <= POWER_TOL. Both read the network's IntegerView,
    built and validated by the first call (require_stochastic) and kept with
    the network; the solve itself runs on every call.
    """
    view = require_stochastic(net)
    n = net.n
    if n <= EXACT_SOLVE_MAX_N:
        return StationaryDistribution(_exact_stationary(view))
    debug("stationary n=%d: power iteration (%d edges, max row denominator %d)", n, len(view.J), int(view.D.max()))

    def step(alpha):            # alpha P, one sum per edge of the integer view's rows
        return np.bincount(view.J, weights=alpha[view.rows] * view.W, minlength=n)

    alpha = np.full(n, 1.0 / n)
    for _ in range(10 ** 6):
        nxt = step(alpha)
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - alpha)) <= POWER_TOL / 2:
            alpha = nxt
            break
        alpha = nxt
    else:
        raise RuntimeError("power iteration did not converge within the cap")
    if np.max(np.abs(step(alpha) - alpha)) > POWER_TOL:
        raise RuntimeError("stationary residual above tolerance")
    return StationaryDistribution(tuple(alpha))


def _exact_stationary(view: IntegerView):
    """The exact stationary distribution of a validated network, as a tuple of Fractions.

    Agent c's balance, sum_r alpha_r C[r, c] / D_r = alpha_c, goes over L_c,
    the lcm of the row denominators of the agents r that reach c (c among
    them, by its self-loop): sum_r C[r, c] (L_c / D_r) alpha_r - L_c alpha_c
    = 0. The last balance gives way to sum(alpha) = 1, and _solve_integer
    solves the system. It is nonsingular: P is irreducible (validate checks
    strong connectivity), so by Perron-Frobenius the solutions of alpha (P -
    I) = 0 form one line, spanned by a positive vector; the n equations sum
    to zero, so any n - 1 of them cut out that line, and sum(alpha) = 1
    picks one point of it. Every entry is at most lcm(D), so the system is
    int64 while that lcm is below 2^63.
    """
    n = len(view.D)
    dtype = int_dtype(lcm(*view.D.tolist()))
    D = view.D.astype(dtype)
    L = np.ones(n, dtype=dtype)
    np.lcm.at(L, view.J, D[view.rows])
    M = np.zeros((n, n + 1), dtype=dtype)
    M[view.J, view.rows] = view.C.astype(dtype) * (L[view.J] // D[view.rows])
    M[np.arange(n), np.arange(n)] -= L
    M[n - 1] = 1
    Q, N, branch = _solve_integer(M)
    debug("stationary: exact solve n=%d: %s (%d edges, max row denominator %d)", n, branch, len(view.J),
          int(view.D.max()))
    if min(N) <= 0:
        raise ValueError("stationary solve produced a non-positive entry")
    return tuple(unscaled(Q, N))


def mixing_tv(net: Network, start: int, t: int) -> float:
    """TV distance between the t-step distribution from start and alpha, by a float matrix power."""
    alpha = stationary_distribution(net).as_floats()
    P = net.weight_matrix()
    dist = np.zeros(net.n)
    dist[start] = 1.0
    dist = dist @ np.linalg.matrix_power(P, t)
    return 0.5 * float(np.abs(dist - alpha).sum())


def ball(net: Network, center: int, radius: int) -> tuple:
    """Induced subgraph on vertices within directed distance radius of center.

    Returns (sub_network, vertex_list) where vertex_list[k] is the original
    label of sub-vertex k.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    dist = net.distances_from(center)
    verts = sorted(i for i in range(net.n) if 0 <= dist[i] <= radius)
    idx = {v: k for k, v in enumerate(verts)}
    edges = tuple(
        (idx[i], idx[j], w) for (i, j, w) in net.edges if i in idx and j in idx
    )
    return Network(n=len(verts), edges=edges, directed=net.directed), verts


# -- file format -------------------------------------------------------------

def read_network(path) -> Network:
    """Graph file: `n <count> directed|undirected`, then `src dst weight` lines.

    Every weight is read exactly, by harness_util.read_rational: 1, 1/4, 0.25
    and 2.5e-1 are Fractions, and nan, inf or 1/0 is refused. Blank lines and lines whose first non-blank character is `#` are skipped.
    A malformed line, or a count below 1, raises ValueError naming its line number.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, 1)]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty graph file: expected a header 'n <count> directed|undirected'")
    no, header = lines[0]
    head = header.split()
    if len(head) != 3 or head[0] != "n" or head[2] not in ("directed", "undirected") \
            or not head[1].isdigit():
        raise ValueError(f"line {no}: expected 'n <count> directed|undirected', got {header!r}")
    if int(head[1]) < 1:
        raise ValueError(f"line {no}: a network needs at least 1 agent, got {header!r}")
    edges = []
    for no, ln in lines[1:]:
        fields = ln.split()
        try:
            if len(fields) != 3:
                raise ValueError(f"got {ln!r}")
            edges.append((int(fields[0]), int(fields[1]), read_rational(fields[2])))
        except ValueError as exc:
            raise ValueError(f"line {no}: expected 'src dst weight': {exc}") from None
    return Network(n=int(head[1]), edges=tuple(edges), directed=head[2] == "directed")


def write_network(net: Network, path):
    """The graph file that read_network reads back as net, every weight written as p/q."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {net.n} {'directed' if net.directed else 'undirected'}\n")
        for (i, j, w) in net.edges:
            fh.write(f"{i} {j} {w.numerator}/{w.denominator}\n")
