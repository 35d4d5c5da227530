"""Graph construction, mixing matrices and their spectral certificates."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dirgraphopt import digraph
from dirgraphopt.digraph import (
    Digraph,
    WeightMatrix,
    builtin_graph,
    complete_digraph,
    contraction_norm,
    is_strongly_connected,
    load_graph,
    nested_chain,
    perron_limit,
    random_digraph,
    ring_digraph,
    save_graph,
    spectral_data,
    tau_eps,
    uniform_weights,
)

# strategy: (n, extra, seed) triples that random_digraph always accepts
graph_params = st.tuples(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=10_000),
).map(lambda t: (t[0], min(t[1], t[0] * (t[0] - 2)), t[2]))


# ---------------------------------------------------------------------------
# Digraph construction and validation
# ---------------------------------------------------------------------------


def test_single_node_graph():
    g = Digraph(1)
    assert g.n == 1 and g.edges == () and g.edge_count == 0
    assert g.out_neighbors(0) == (0,) and g.in_neighbors(0) == (0,)


def test_rejects_nonpositive_node_count():
    with pytest.raises(ValueError):
        Digraph(0)
    with pytest.raises(ValueError):
        Digraph(-3)


def test_rejects_explicit_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Digraph(3, [(1, 1)])


def test_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        Digraph(3, [(0, 1), (0, 1)])


def test_rejects_out_of_range_edge():
    with pytest.raises(ValueError, match="out of range"):
        Digraph(3, [(0, 3)])
    with pytest.raises(ValueError, match="out of range"):
        Digraph(3, [(-1, 0)])


def test_rejects_first_bad_edge_in_input_order():
    # validation runs over all edges at once but reports the earliest offender
    with pytest.raises(ValueError, match="self-loop"):
        Digraph(3, [(1, 1), (0, 5)])
    with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
        Digraph(3, [(0, 1), (0, 1), (0, 5)])
    with pytest.raises(ValueError, match="out of range"):
        Digraph(3, [(0, 5), (2, 2)])


def test_neighbors_include_self_and_match_edges():
    g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.out_neighbors(0) == (0, 1)
    assert g.in_neighbors(0) == (0, 2)
    assert g.out_degree(0) == 2
    adj = g.adjacency()
    assert adj[1, 0] and adj[2, 1] and adj[0, 2]
    assert np.all(np.diag(adj))
    assert adj.sum() == 3 + 3  # three edges plus the diagonal


def test_graph_equality_and_hash():
    a = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    b = Digraph(3, [(2, 0), (0, 1), (1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != Digraph(3, [(0, 1), (1, 2), (2, 1), (1, 0)])


# ---------------------------------------------------------------------------
# strong connectivity
# ---------------------------------------------------------------------------


def test_cycle_is_strongly_connected():
    assert is_strongly_connected(Digraph(3, [(0, 1), (1, 2), (2, 0)]))


def test_one_way_pair_is_not_strongly_connected():
    assert not is_strongly_connected(Digraph(2, [(0, 1)]))


def test_path_graph_is_not_strongly_connected():
    assert not is_strongly_connected(Digraph(4, [(0, 1), (1, 2), (2, 3)]))


def _reaches_all(n: int, edges) -> bool:
    """Reference: boolean transitive closure by repeated squaring."""
    reach = np.eye(n, dtype=bool)
    for j, i in edges:
        reach[j, i] = True
    for _ in range(n.bit_length()):
        reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
    return bool(reach.all())


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=n * (n - 1),
            ),
        )
    )
)
@settings(max_examples=200)
def test_strong_connectivity_matches_transitive_closure(case):
    # arbitrary edge sets, most of them not strongly connected
    n, edges = case
    g = Digraph(n, edges)
    assert is_strongly_connected(g) == _reaches_all(n, edges)
    for v in range(n):
        assert g.out_neighbors(v) == tuple(sorted({v} | {i for j, i in edges if j == v}))
        assert g.in_neighbors(v) == tuple(sorted({v} | {j for j, i in edges if i == v}))
        assert g.out_degree(v) == len(g.out_neighbors(v))


def test_fig1_is_strongly_connected():
    g = builtin_graph("fig1")
    assert g.n == 10 and g.edge_count == 25
    assert is_strongly_connected(g)


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_graph("petersen")


@given(graph_params)
def test_random_digraph_strongly_connected(params):
    n, extra, seed = params
    g = random_digraph(n, extra, seed)
    assert g.edge_count == n + extra
    assert is_strongly_connected(g)


def test_random_digraph_deterministic():
    assert random_digraph(8, 11, 42) == random_digraph(8, 11, 42)
    assert random_digraph(8, 11, 42) != random_digraph(8, 11, 43)


def test_random_digraph_capacity_error():
    # a cycle on n nodes leaves n(n-2) candidate extras
    with pytest.raises(ValueError, match="at most"):
        random_digraph(4, 9, 0)
    random_digraph(4, 8, 0)  # exactly at capacity is fine


def test_seeded_graphs_are_pinned():
    # a seed must give the same graph, and the same weight bytes, in every
    # version of the generators
    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    g = random_digraph(200, 800, 1)
    assert digest(repr(g.edges).encode()) == (
        "45a44461069ad8ce2c05c1b0898b26a9e1dd637b0826b95aebc9d83c823e00f8"
    )
    assert digest(uniform_weights(g).entries.tobytes()) == (
        "a03b891c07048fbe6b98119bdd8aac2dec4ebc81023285ecb2dafc8f520498cc"
    )
    chain = nested_chain(10, (0, 20, 60), seed=0)
    assert digest(repr([c.edges for c in chain]).encode()) == (
        "a28dc9df94ecb7d611dbcc4797b3291171434c0d311f2339ce29d2dad4fd6fb1"
    )


# ---------------------------------------------------------------------------
# uniform (equal-split) weights
# ---------------------------------------------------------------------------


def test_uniform_weights_cycle_halves():
    w = uniform_weights(Digraph(3, [(0, 1), (1, 2), (2, 0)]))
    nz = w.entries[w.entries > 0]
    assert np.allclose(nz, 0.5)


def test_uniform_weights_single_node():
    w = uniform_weights(Digraph(1))
    assert w.entries.shape == (1, 1) and w.entries[0, 0] == 1.0


def test_uniform_weights_out_degree_four_column():
    # node 0 sends to 1, 2, 3 and itself: its column splits into quarters
    g = Digraph(4, [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)])
    w = uniform_weights(g)
    np.testing.assert_allclose(w.entries[:, 0], 0.25)


def test_uniform_weights_requires_strong_connectivity():
    with pytest.raises(ValueError, match="not strongly connected"):
        uniform_weights(Digraph(2, [(0, 1)]))


@given(graph_params)
def test_uniform_weights_column_stochastic_on_support(params):
    g = random_digraph(*params)
    w = uniform_weights(g)
    np.testing.assert_allclose(w.entries.sum(axis=0), 1.0, atol=1e-12)
    # zero exactly off the adjacency support, positive on it
    assert np.all((w.entries > 0) == g.adjacency())


@given(graph_params)
def test_uniform_weights_match_per_edge_loop(params):
    # reference: every sender writes 1.0 / out-degree into its column
    g = random_digraph(*params)
    ref = np.zeros((g.n, g.n))
    for j in range(g.n):
        receivers = [j] + [i for sender, i in g.edges if sender == j]
        ref[receivers, j] = 1.0 / len(receivers)
    assert uniform_weights(g).entries.tobytes() == ref.tobytes()


def test_weight_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        WeightMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="nonnegative"):
        WeightMatrix(np.array([[1.5, 0.0], [-0.5, 1.0]]))
    with pytest.raises(ValueError, match="sum to 1"):
        WeightMatrix(np.array([[0.7, 0.0], [0.2, 1.0]]))


# ---------------------------------------------------------------------------
# stationary vector and rank-one limit
# ---------------------------------------------------------------------------


def limit_matrix(w: WeightMatrix) -> np.ndarray:
    """The rank-one limit ``pi 1^T`` of the mixing powers."""
    return np.outer(perron_limit(w), np.ones(w.n))


def test_perron_limit_symmetric_ring_is_uniform():
    # the undirected ring's equal splits are doubly stochastic
    g = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)])
    w = uniform_weights(g)
    pi = perron_limit(w)
    np.testing.assert_allclose(pi, 0.25, atol=1e-12)


def test_perron_limit_single_node():
    pi = perron_limit(uniform_weights(Digraph(1)))
    assert pi.shape == (1,) and pi[0] == 1.0


def test_perron_limit_matches_powered_matrix():
    # three-node cycle with self-loops: compare with brute-forced A^200
    a = np.array([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    w = WeightMatrix(a)
    pi = perron_limit(w)
    powered = np.linalg.matrix_power(a, 200)
    np.testing.assert_allclose(limit_matrix(w), powered, atol=1e-10)
    np.testing.assert_allclose(a @ pi, pi, atol=1e-12)


def test_perron_limit_rejects_reducible_weights():
    # node 0 only sends, so no mass stays on it in the limit
    with pytest.raises(ValueError, match="positive"):
        perron_limit(WeightMatrix(np.array([[0.5, 0.0], [0.5, 1.0]])))


@given(graph_params)
def test_perron_limit_properties(params):
    w = uniform_weights(random_digraph(*params))
    pi = perron_limit(w)
    a_inf = limit_matrix(w)
    a = w.entries
    assert np.all(pi > 0)
    assert abs(pi.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(a @ pi, pi, atol=1e-10)
    np.testing.assert_allclose(a @ a_inf, a_inf, atol=1e-10)
    np.testing.assert_allclose(a_inf @ a_inf, a_inf, atol=1e-10)


def test_mixing_powers_column_stochastic_and_settling(fig1_weights):
    a = fig1_weights.entries
    a_inf = limit_matrix(fig1_weights)
    norms = []
    p = np.eye(a.shape[0])
    for _ in range(501):
        norms.append(np.linalg.norm(p - a_inf, 2))
        np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-9)
        p = a @ p
    diffs = np.diff(norms)
    increases = np.nonzero(diffs > 1e-15)[0]
    k0 = int(increases[-1]) + 1 if increases.size else 0
    assert k0 <= 500
    assert norms[-1] < 1e-10


@given(graph_params)
@settings(max_examples=15)
def test_push_sum_scalars_stay_positive(params):
    w = uniform_weights(random_digraph(*params))
    y = np.ones(w.n)
    for _ in range(500):
        y = w.entries @ y
        assert np.all(y > 0)


# ---------------------------------------------------------------------------
# deviation norms and the contraction certificate
# ---------------------------------------------------------------------------


def test_tau_eps_single_node_is_zero():
    tau, eps = tau_eps(uniform_weights(Digraph(1)))
    assert tau == 0.0 and eps == 0.0


def test_tau_eps_fig1_values(fig1_weights):
    tau, eps = tau_eps(fig1_weights)
    assert abs(tau - 1.25) < 0.1
    assert abs(eps - 1.11) < 0.1


@given(graph_params)
@settings(max_examples=15)
def test_tau_eps_matches_svd_oracle(params):
    w = uniform_weights(random_digraph(*params))
    a_inf = limit_matrix(w)
    tau, eps = tau_eps(w)
    n = w.n
    svd_tau = np.linalg.svd(w.entries - np.eye(n), compute_uv=False).max()
    svd_eps = np.linalg.svd(np.eye(n) - a_inf, compute_uv=False).max()
    assert abs(tau - svd_tau) < 1e-10
    assert abs(eps - svd_eps) < 1e-10


def test_contraction_norm_normal_matrix_keeps_identity():
    # symmetric doubly-stochastic mixing: plain spectral norm already equals
    # the spectral radius, so no change of basis is needed
    g = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)])
    w = uniform_weights(g)
    sigma, s_mat = contraction_norm(w)
    m = w.entries - limit_matrix(w)
    rho = np.max(np.abs(np.linalg.eigvals(m)))
    np.testing.assert_allclose(s_mat, np.eye(4))
    assert abs(sigma - rho) < 1e-12


def test_contraction_norm_fig1_respects_slack(fig1_weights):
    m = fig1_weights.entries - limit_matrix(fig1_weights)
    rho = np.max(np.abs(np.linalg.eigvals(m)))
    plain = np.linalg.norm(m, 2)
    assert plain > rho + 0.01  # the certificate genuinely changes the basis
    sigma, s_mat = contraction_norm(fig1_weights, slack=0.01)
    assert rho <= sigma <= rho + 0.01 + 1e-12
    assert sigma < 1.0
    # the returned value is the induced norm under S
    s_inv = np.linalg.inv(s_mat)
    assert abs(sigma - np.linalg.norm(s_inv @ m @ s_mat, 2)) < 1e-10


def test_contraction_norm_rejects_nonpositive_slack(fig1_weights):
    with pytest.raises(ValueError, match="slack"):
        contraction_norm(fig1_weights, slack=0.0)


def test_contraction_norm_rejects_indefinite_lyapunov_solution(fig1_weights, monkeypatch):
    # a slack near roundoff can leave the Lyapunov solve without a positive
    # definite solution; that must be a clear error, not a NaN basis
    monkeypatch.setattr(
        digraph.scipy.linalg, "solve_discrete_lyapunov", lambda a, q: -q
    )
    with pytest.raises(ValueError, match="slack .* too small"):
        contraction_norm(fig1_weights, slack=1e-12)


def test_contraction_norm_rejects_slack_it_cannot_meet():
    # at slack 1e-9 the Lyapunov solution is too ill-conditioned for the
    # computed norm to stay below rho + slack (it overshoots by ~7e-3)
    w = uniform_weights(random_digraph(40, 160, 3))
    with pytest.raises(ValueError, match="slack .* too small"):
        contraction_norm(w, slack=1e-9)
    sigma, _ = contraction_norm(w, slack=1e-6)
    m = w.entries - limit_matrix(w)
    assert sigma <= np.max(np.abs(np.linalg.eigvals(m))) + 1e-6


def test_contraction_norm_default_targets_gap_midpoint(fig1_weights):
    m = fig1_weights.entries - limit_matrix(fig1_weights)
    rho = np.max(np.abs(np.linalg.eigvals(m)))
    sigma, _ = contraction_norm(fig1_weights)
    assert rho <= sigma <= rho + 0.5 * (1.0 - rho) + 1e-12


@given(graph_params, st.integers(min_value=0, max_value=1000))
@settings(max_examples=15)
def test_contraction_inequality_random_vectors(params, vec_seed):
    w = uniform_weights(random_digraph(*params))
    spec = spectral_data(w)
    a_inf = limit_matrix(w)
    m = w.entries - a_inf
    rng = np.random.default_rng(vec_seed)
    v = rng.standard_normal(w.n)
    dev = v - a_inf @ v
    lhs = spec.vector_norm(w.entries @ v - a_inf @ v)
    rhs = spec.sigma * spec.vector_norm(dev)
    assert lhs <= rhs + 1e-12 * max(1.0, rhs)
    # consistency: the certified factor is the induced norm of the deviation map
    assert abs(spec.sigma - spec.matrix_norm(m)) < 1e-10


@given(
    st.integers(min_value=13, max_value=200),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=8)
@example(200, 1)
def test_spectral_data_certifies_large_random_digraphs(n, seed):
    # graph_params stops at n=12; the certificate must hold at every size
    # the engines accept
    w = uniform_weights(random_digraph(n, 4 * n, seed))
    spec = spectral_data(w)
    assert spec.sigma < 1.0
    assert abs(spec.c - 1.0) < 1e-12
    a_inf = limit_matrix(w)
    m = w.entries - a_inf
    v = np.random.default_rng(seed).standard_normal((n, 50))
    lhs = np.linalg.norm(spec.transform_inv @ (m @ v), axis=0)
    dev = v - a_inf @ v
    rhs = spec.sigma * np.linalg.norm(spec.transform_inv @ dev, axis=0)
    assert np.all(lhs <= rhs * (1 + 1e-10))


def test_spectral_data_certified_constants(fig1_weights):
    spec = spectral_data(fig1_weights)
    # the basis is normalized so converting S-norm to 2-norm costs nothing
    assert abs(spec.c - 1.0) < 1e-12
    assert spec.d >= 1.0
    assert spec.sigma < 1.0
    np.testing.assert_allclose(
        spec.transform @ spec.transform_inv, np.eye(10), atol=1e-10
    )
    # norm equivalence both ways on random vectors
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.standard_normal(10)
        two = np.linalg.norm(v)
        s_norm = spec.vector_norm(v)
        assert two <= spec.c * s_norm * (1 + 1e-10)
        assert s_norm <= spec.d * two * (1 + 1e-10)


def test_spectral_data_single_node_constants():
    spec = spectral_data(uniform_weights(Digraph(1)))
    assert spec.eps == 0.0 and spec.sigma == 0.0
    assert spec.c == 1.0 and spec.d == 1.0


@given(
    st.integers(min_value=2, max_value=200),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=10, deadline=None)
@example(200, 9001)
@example(13, 3)
def test_spectral_data_closed_forms_match_svd_oracle(n, seed):
    # eps, c and d come from closed forms and the Lyapunov eigh, S^-1 from
    # the same eigh; an SVD of each matrix and a dense inverse are the oracle
    w = uniform_weights(random_digraph(n, min(4 * n, n * (n - 2)), seed))
    spec = spectral_data(w)
    svd_norm = lambda m: np.linalg.svd(m, compute_uv=False).max()
    assert spec.eps == pytest.approx(svd_norm(np.eye(n) - limit_matrix(w)), rel=1e-12)
    assert spec.c == 1.0
    assert spec.c == pytest.approx(svd_norm(spec.transform), rel=1e-12)
    assert spec.d == pytest.approx(svd_norm(spec.transform_inv), rel=1e-12)
    inv = np.linalg.inv(spec.transform)
    assert svd_norm(spec.transform_inv - inv) <= 1e-12 * svd_norm(inv)


# ---------------------------------------------------------------------------
# graph files and generators
# ---------------------------------------------------------------------------


def test_graph_file_roundtrip(tmp_path):
    g = random_digraph(7, 9, 3)
    path = tmp_path / "g.txt"
    save_graph(g, path)
    assert load_graph(path) == g


def test_graph_file_comments_and_blanks(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a comment\n3\n\n0 1  # inline comment\n1 2\n2 0\n")
    g = load_graph(path)
    assert g == Digraph(3, [(0, 1), (1, 2), (2, 0)])


def test_graph_file_bad_first_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n1 2\n")
    with pytest.raises(ValueError, match="node count"):
        load_graph(path)


def test_graph_file_bad_edge_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 1 2\n")
    with pytest.raises(ValueError, match="sender receiver"):
        load_graph(path)


def test_graph_file_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="no node count"):
        load_graph(path)


def test_graph_file_out_of_range_edge(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 5\n")
    with pytest.raises(ValueError, match="out of range"):
        load_graph(path)


def test_ring_and_complete_shapes():
    ring = ring_digraph(6)
    assert ring.edge_count == 6 and is_strongly_connected(ring)
    full = complete_digraph(5)
    assert full.edge_count == 20 and is_strongly_connected(full)


def test_nested_chain_is_nested_and_deterministic():
    chain = nested_chain(10, (0, 20, 60), seed=0)
    assert [g.edge_count for g in chain] == [10, 30, 70]
    for a, b in zip(chain, chain[1:]):
        assert set(a.edges) <= set(b.edges)
    for g in chain:
        assert is_strongly_connected(g)
    again = nested_chain(10, (0, 20, 60), seed=0)
    assert chain == again


def test_nested_chain_rejects_decreasing_counts():
    with pytest.raises(ValueError, match="nondecreasing"):
        nested_chain(10, (20, 0), seed=0)


def test_generators_reject_negative_extra_counts():
    # a negative count must not silently slice the shuffled pool from its end
    with pytest.raises(ValueError, match="nonnegative"):
        random_digraph(5, -1, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        nested_chain(5, (-2, 3), seed=0)


def test_nested_chain_rejects_overfull_counts():
    with pytest.raises(ValueError, match="at most"):
        nested_chain(4, (0, 9), seed=0)
