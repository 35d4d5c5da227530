"""Directed communication topologies and their column-stochastic mixing matrices.

A :class:`Digraph` is a strongly-connected-checkable directed graph on nodes
``0..n-1``.  Edges are ``(sender, receiver)`` pairs; every node always hears
itself, so self-loops are implicit and never listed explicitly.  From a graph
we build the uniform column-stochastic mixing matrix, its Perron vector, the
deviation norms of the mixing step, and a weighted norm in which the
consensus-deviation map is a strict contraction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.csgraph

__all__ = [
    "Digraph",
    "WeightMatrix",
    "SpectralData",
    "is_strongly_connected",
    "uniform_weights",
    "perron_limit",
    "spectral_data",
    "load_graph",
    "save_graph",
    "builtin_graph",
    "fig1",
    "ring_digraph",
    "complete_digraph",
    "random_digraph",
    "nested_chain",
]

#: how far a ``WeightMatrix`` column may sum from 1
COLUMN_SUM_TOL = 1e-12

#: the doubling series stops once every entry of ``B^(2^j)`` is below this
_DOUBLING_TOL = np.finfo(float).eps
#: cap on the squarings: 2^64 terms outlast any ratio rho/r below 1 in floats
_MAX_SQUARINGS = 64


class Digraph:
    """Directed graph on ``0..n-1`` with implicit self-loops.

    The graph is held as one ``(n, n)`` boolean adjacency with the diagonal
    set: ``adj[i, j]`` is true iff ``j`` sends to ``i``, so column ``j`` lists
    ``j``'s receivers and row ``i`` lists ``i``'s senders.

    Parameters
    ----------
    n : int
        Number of nodes, at least 1.
    edges : iterable of (int, int)
        ``(sender, receiver)`` pairs.  Self-loops are implied for every node
        and must not be listed; duplicates are rejected.  ``edges`` keeps them
        as a tuple of int pairs in lexicographic order.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges=()) -> None:
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"need at least one node, got n={n!r}")
        self.n = n = int(n)
        pairs = np.array(list(edges) or np.empty((0, 2)), dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be (sender, receiver) pairs")
        j, i = pairs.T
        out_of_range = (j < 0) | (j >= n) | (i < 0) | (i >= n)
        # out-of-range pairs get distinct negative codes, so they never
        # collide with a valid edge
        codes = np.where(out_of_range, -1 - np.arange(len(pairs)), j * n + i)
        codes, first = np.unique(codes, return_index=True)
        repeated = np.ones(len(pairs), dtype=bool)
        repeated[first] = False
        bad = np.flatnonzero(out_of_range | (j == i) | repeated)
        if bad.size:
            k = bad[0]
            e = (int(j[k]), int(i[k]))
            if out_of_range[k]:
                raise ValueError(f"edge {e!r} out of range for n={n}")
            if j[k] == i[k]:
                raise ValueError(
                    f"self-loop {e!r} is implicit and must not be listed"
                )
            raise ValueError(f"duplicate edge {e!r}")
        senders, receivers = np.divmod(codes, n)
        self.edges = tuple(zip(senders.tolist(), receivers.tolist()))
        self._adj = np.eye(n, dtype=bool)
        self._adj[receivers, senders] = True

    @property
    def edge_count(self) -> int:
        """Number of explicit (non-self-loop) edges."""
        return len(self.edges)

    def adjacency(self) -> np.ndarray:
        """Boolean matrix with ``adj[i, j]`` true iff ``j`` sends to ``i``."""
        return self._adj.copy()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, edges={len(self.edges)})"


def is_strongly_connected(g: Digraph) -> bool:
    """True iff every node can reach every other along directed edges."""
    count, _ = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_array(g.adjacency()), directed=True, connection="strong"
    )
    return count == 1


@dataclass(frozen=True)
class WeightMatrix:
    """Column-stochastic mixing matrix; ``entries[i, j]`` weights j's send to i."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"mixing matrix must be square, got {a.shape}")
        if np.any(a < 0):
            raise ValueError("mixing weights must be nonnegative")
        colsums = a.sum(axis=0)
        if np.max(np.abs(colsums - 1.0)) > COLUMN_SUM_TOL:
            raise ValueError(
                f"columns must sum to 1 within {COLUMN_SUM_TOL}, "
                f"worst deviation {np.max(np.abs(colsums - 1.0)):.3e}"
            )
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @functools.cached_property
    def pi(self) -> np.ndarray:
        """Stationary vector by :func:`perron_limit`: solved once, read-only."""
        pi = perron_limit(self)
        pi.flags.writeable = False
        return pi


def uniform_weights(g: Digraph) -> WeightMatrix:
    """Equal-split column-stochastic weights: each sender divides by out-degree.

    Requires strong connectivity so every downstream spectral quantity is
    well defined.
    """
    if not is_strongly_connected(g):
        raise ValueError("graph is not strongly connected")
    adj = g.adjacency()
    return WeightMatrix(adj / adj.sum(axis=0))


def perron_limit(w: WeightMatrix) -> np.ndarray:
    """Stationary column vector ``pi`` of the mixing matrix.

    One direct solve of ``(A - I) pi = 0`` in the gauge ``pi[-1] = 1``: the
    columns of ``A - I`` sum to zero, so its last row is redundant and the
    leading ``(n-1) x (n-1)`` block is nonsingular for a strongly connected
    graph.  Pinning one entry, rather than replacing a row with the
    normalisation, keeps ``pi`` exact on doubly stochastic weights.  The
    mixing powers tend to ``A_inf = pi 1^T``, so ``A - A_inf`` is
    ``a - pi[:, None]``.  Returns ``pi`` with ``sum(pi) == 1`` and
    ``pi > 0``; raises ``ValueError`` if the solution is not positive.
    """
    a = w.entries
    n = w.n
    lap = a - np.eye(n)
    pi = np.ones(n)
    pi[:-1] = np.linalg.solve(lap[:-1, :-1], -lap[:-1, -1])
    pi = pi / pi.sum()
    if np.any(pi <= 0):
        raise ValueError("stationary vector is not strictly positive")
    return pi


@dataclass(frozen=True)
class SpectralData:
    """Spectral summary of a mixing matrix.

    ``transform`` is the change of basis ``S`` defining the contraction norm
    ``|v|_S = |S^-1 v|_2``.  It is normalized to ``|S|_2 = 1``, so
    ``|v|_2 <= |v|_S``, and ``d = |S^-1|_2`` certifies ``|v|_S <= d |v|_2``.
    """

    pi: np.ndarray
    tau: float
    eps: float
    sigma: float
    d: float
    transform: np.ndarray
    transform_inv: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.pi.shape[0]

    def vector_norm(self, v: np.ndarray) -> float:
        """Contraction norm of a vector, or of per-node rows stacked as (n, p)."""
        return float(np.linalg.norm(self.transform_inv @ v))


def spectral_data(w: WeightMatrix, slack: float | None = None) -> SpectralData:
    """Every certified constant of ``w`` from its stationary vector ``w.pi``
    and one doubling series.

    ``tau = |A - I|_2`` and ``eps = |I - A_inf|_2``.  ``I - pi 1^T`` is a
    projector, so for n >= 2 its norm is that of its complement, the
    rank-one ``pi 1^T``: ``eps = sqrt(n) |pi|_2`` in closed form (0 when
    n = 1).

    ``sigma`` is the norm of the consensus-deviation map ``M = A - A_inf`` in
    a weighted norm ``|M|_S := |S^-1 M S|_2`` in which it strictly
    contracts: below ``r = rho(M) + slack`` and below 1.  When the plain
    spectral norm already meets ``r`` the identity is kept.  Otherwise ``P``
    solves the Stein equation ``P = I + B^T P B`` with ``B = M / r``, so
    ``v^T M^T P M v < r^2 v^T P v`` for every ``v != 0``, and
    ``S = P^(-1/2)``, scaled to ``|S|_2 = 1``; ``d = |S^-1|_2`` is then the
    square root of P's condition number.  ``P`` is the series
    ``sum_k (B^k)^T B^k``, summed by Smith's doubling: from ``P = I``,
    ``P <- P + B^T P B`` then ``B <- B^2`` doubles the number of terms, three
    matrix products per squaring.  It stops once every entry of ``B`` is
    below machine epsilon, where the remaining tail ``B^T P B`` is far below
    the roundoff of ``P >= I``; that takes ``log2(37 / ln(r / rho))``
    squarings or so, 7-8 at the default slack.  After 64 squarings it raises
    ``ValueError``: ``B`` is then not decaying, so ``r`` is not above the
    powers' true growth rate in floating point.  A Schur basis damped by ``diag(t**k)`` would give the
    same kind of certificate but forces ``d >= t^-(n-1)``, which blows up
    with ``n``.

    The certificate does not trust ``P``.  ``P`` must be positive definite
    by ``eigh``, and ``sigma`` is recomputed from the basis it gives, as the
    SVD norm ``|S^-1 M S|_2``, and must not exceed ``r``; a truncated or
    inaccurate ``P`` can only fail these checks, each a ``ValueError``,
    never certify a false contraction.  ``slack=None`` targets the midpoint
    of the spectral gap, which balances a small contraction factor against a
    well-conditioned transform.  The conditioning of ``P`` grows like
    ``1 / slack``, so a slack near roundoff (1e-11 on a 40-node random
    graph, 1e-12 on fig1) raises ``ValueError``, as does a slack that is not
    positive.

    Besides ``w.entries`` and LAPACK's workspace, at most four n x n arrays
    are alive at once, the floor while ``S`` and ``S^-1`` are returned: the
    ``sigma`` check holds both, ``S^-1 M S`` and the SVD's copy of it.
    """
    if slack is not None and slack <= 0:
        raise ValueError(f"slack must be positive, got {slack}")
    a = w.entries
    n = w.n
    pi = w.pi
    x = a.copy()
    x.flat[:: n + 1] -= 1.0
    tau = float(np.linalg.norm(x, 2))
    del x
    eps = math.sqrt(n * pi.dot(pi)) if n > 1 else 0.0
    m = a - pi[:, None]
    rho = float(np.max(np.abs(np.linalg.eigvals(m)))) if n > 1 else 0.0
    # Keep the certified norm strictly inside the unit ball even when the
    # requested slack would overshoot it.
    gap = 0.5 * (1.0 - rho) if slack is None else min(slack, 0.5 * (1.0 - rho))
    r = rho + gap
    if not r < 1.0:
        raise ValueError(
            f"consensus-deviation spectral radius {rho:.6f} is not below 1"
        )
    sigma = float(np.linalg.norm(m, 2))
    if sigma <= r:
        s_mat, s_inv, d = np.eye(n), np.eye(n), 1.0
    else:
        p_mat, b = np.eye(n), m / r
        del m
        for _ in range(_MAX_SQUARINGS):
            p_mat += (b.T @ p_mat) @ b
            b = b @ b
            if np.abs(b).max() < _DOUBLING_TOL:
                break
        else:
            raise ValueError(
                f"slack {slack} too small: the doubling series did not converge "
                f"in {_MAX_SQUARINGS} squarings"
            )
        del b
        vals, vecs = np.linalg.eigh(p_mat)
        del p_mat
        if not vals[0] > 0:
            raise ValueError(
                f"slack {slack} too small: Lyapunov solution is not positive definite"
            )
        s_mat = (vecs * np.sqrt(vals[0] / vals)) @ vecs.T
        s_inv = (vecs * np.sqrt(vals / vals[0])) @ vecs.T
        del vecs
        sigma = float(np.linalg.norm((s_inv @ (a - pi[:, None])) @ s_mat, 2))
        if sigma > r:
            raise ValueError(
                f"slack {slack} too small: the computed norm exceeds rho + slack "
                f"by {sigma - r:.3g}"
            )
        d = math.sqrt(vals[-1] / vals[0])
    return SpectralData(
        pi=pi, tau=tau, eps=eps, sigma=sigma, d=d, transform=s_mat, transform_inv=s_inv
    )


# ---------------------------------------------------------------------------
# graph files: first non-comment line is the node count, every following
# line "j i" is an edge j -> i (sender, receiver); '#' starts a comment.
# ---------------------------------------------------------------------------


def save_graph(g: Digraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# directed graph: first line n, then one 'sender receiver' per line\n")
        fh.write(f"{g.n}\n")
        for j, i in g.edges:
            fh.write(f"{j} {i}\n")


def load_graph(path) -> Digraph:
    tokens: list[list[str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                tokens.append(line.split())
    if not tokens:
        raise ValueError(f"{path}: no node count found")
    if len(tokens[0]) != 1:
        raise ValueError(f"{path}: first line must be the node count")
    n = int(tokens[0][0])
    edges = []
    for parts in tokens[1:]:
        if len(parts) != 2:
            raise ValueError(f"{path}: edge lines must be 'sender receiver', got {parts}")
        edges.append((int(parts[0]), int(parts[1])))
    return Digraph(n, edges)


# ---------------------------------------------------------------------------
# built-in topologies
# ---------------------------------------------------------------------------

# Fixed 10-node strongly-connected example network used throughout the docs,
# the CLI and the test-suite.  Frozen so results are reproducible.
_FIG1_EDGES = (
    (0, 1), (0, 6), (1, 2), (1, 5), (2, 3), (3, 1), (3, 4), (3, 7),
    (4, 0), (4, 1), (4, 5), (4, 9), (5, 4), (5, 6), (5, 7), (5, 8),
    (6, 7), (7, 8), (8, 0), (8, 2), (8, 5), (8, 9), (9, 0), (9, 6), (9, 8),
)


def fig1() -> Digraph:
    """Built-in 10-node strongly-connected example network."""
    return Digraph(10, _FIG1_EDGES)


def _cycle(n: int) -> np.ndarray:
    """Edges ``v -> v+1 (mod n)`` as ``(sender, receiver)`` rows."""
    v = np.arange(n)
    return np.column_stack((v, (v + 1) % n))


def ring_digraph(n: int) -> Digraph:
    """Directed cycle 0 -> 1 -> ... -> n-1 -> 0 (sparsest strongly-connected graph)."""
    if n < 2:
        return Digraph(n)
    return Digraph(n, _cycle(n))


def complete_digraph(n: int) -> Digraph:
    """All ordered pairs of distinct nodes."""
    return Digraph(n, np.argwhere(~np.eye(n, dtype=bool)))


def random_digraph(n: int, extra_edges: int, seed: int) -> Digraph:
    """Directed cycle plus ``extra_edges`` distinct random edges.

    Strongly connected by construction and deterministic in ``seed``.
    """
    if n < 2:
        raise ValueError("random digraph needs at least 2 nodes")
    return nested_chain(n, (extra_edges,), seed)[0]


def nested_chain(n: int, extra_counts: tuple[int, ...], seed: int) -> list[Digraph]:
    """Chain of graphs with identical cycle backbone and nested edge sets.

    ``extra_counts`` must be nonnegative and nondecreasing; graph ``k`` holds
    the first ``extra_counts[k]`` entries of one shuffled candidate pool, so
    each graph contains all edges of the previous one.  The pool is every
    edge off the diagonal and off the cycle in lexicographic
    ``(sender, receiver)`` order, shuffled by one ``permutation`` of its
    length, so a seed always gives the same graphs.
    """
    if any(b < a for a, b in zip((0, *extra_counts), extra_counts)):
        raise ValueError(
            f"extra edge counts must be nonnegative and nondecreasing: {extra_counts}"
        )
    cycle = _cycle(n)
    free = ~np.eye(n, dtype=bool)
    free[cycle[:, 0], cycle[:, 1]] = False
    pool = np.argwhere(free)
    most = extra_counts[-1] if extra_counts else 0
    if most > len(pool):
        raise ValueError(
            f"at most {len(pool)} extra edges available on {n} nodes, got {most}"
        )
    extras = pool[np.random.default_rng(seed).permutation(len(pool))[:most]]
    return [
        Digraph(n, np.concatenate((cycle, extras[:count]))) for count in extra_counts
    ]


_BUILTINS = {
    "fig1": fig1,
}


def builtin_graph(name: str) -> Digraph:
    """Look up a named built-in topology (currently: ``fig1``)."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin graph {name!r}; available: {sorted(_BUILTINS)}"
        ) from None
    return factory()
