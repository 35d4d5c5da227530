"""Iteration engines: tracked push-sum, the two-step variant, and the baseline."""

from __future__ import annotations

import csv
import dataclasses
from itertools import islice

import numpy as np
import pytest

from dirgraphopt import algorithms, digraph, objectives
from dirgraphopt.algorithms import (
    OVERFLOW_GUARD,
    DivergenceError,
    addopt_init,
    addopt_step,
    dextra_step,
    dextra_tilde,
    gradient_push_init,
    gradient_push_step,
    inv_sqrt_steps,
    iterate,
    run,
    write_trace_csv,
)
from dirgraphopt.digraph import WeightMatrix

from conftest import quadratic_set


ENGINES = sorted(set(algorithms.ALGORITHMS.values()))


@pytest.fixture(scope="module")
def ring4():
    return digraph.uniform_weights(digraph.ring_digraph(4))


@pytest.fixture(scope="module")
def quad4():
    return quadratic_set(4, 2, seed=11)


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------


def test_tracked_init_seeds_tracker_with_gradient(quad4):
    s = addopt_init(quad4)
    assert s.k == 0
    np.testing.assert_array_equal(s.x, 0.0)
    np.testing.assert_array_equal(s.y, 1.0)
    np.testing.assert_array_equal(s.z, s.x)
    # at z0 = 0 each quadratic gradient is -curvature * center
    expected = np.array([-o.curvature * o.center for o in quad4])
    np.testing.assert_allclose(s.w, expected, atol=1e-15)
    np.testing.assert_array_equal(s.w, s.grad)


def test_custom_start_state(quad4):
    z0 = np.full((4, 2), 2.5)
    s = addopt_init(quad4, z0)
    np.testing.assert_array_equal(s.x, z0)
    with pytest.raises(ValueError, match="shape"):
        addopt_init(quad4, np.zeros((3, 2)))


def test_baseline_init_has_no_tracker(quad4):
    s = gradient_push_init(quad4)
    assert s.w is None and s.grad is None
    assert s.n == 4 and s.p == 2


# ---------------------------------------------------------------------------
# tracked push-sum engine
# ---------------------------------------------------------------------------


def test_tracked_step_matches_hand_computed_matrices(ring4, quad4):
    alpha = 0.05
    s0 = addopt_init(quad4)
    s1 = addopt_step(s0, ring4, alpha)
    a = ring4.entries
    x1 = a @ s0.x - alpha * s0.w
    y1 = a @ s0.y
    z1 = x1 / y1[:, None]
    g1 = np.array([o.gradient(z) for o, z in zip(quad4, z1)])
    w1 = a @ s0.w + g1 - s0.grad
    np.testing.assert_allclose(s1.x, x1, atol=1e-15)
    np.testing.assert_allclose(s1.y, y1, atol=1e-15)
    np.testing.assert_allclose(s1.z, z1, atol=1e-15)
    np.testing.assert_allclose(s1.w, w1, atol=1e-15)
    assert s1.k == 1


def test_tracker_sum_is_conserved(ring4, quad4):
    s = addopt_init(quad4)
    for _ in range(200):
        s = addopt_step(s, ring4, 0.02)
        grads = np.array([o.gradient(z) for o, z in zip(quad4, s.z)])
        np.testing.assert_allclose(
            s.w.sum(axis=0), grads.sum(axis=0), atol=1e-10
        )


def test_zero_step_reduces_to_average_consensus(fig1_weights):
    objs = quadratic_set(10, 3, seed=4)
    rng = np.random.default_rng(5)
    z0 = rng.standard_normal((10, 3))
    s = addopt_init(objs, z0)
    target = z0.mean(axis=0)
    for _ in range(500):
        s = addopt_step(s, fig1_weights, 0.0)
    assert np.max(np.abs(s.z - target)) < 1e-10


def test_doubly_stochastic_mixing_keeps_unit_scalars():
    # symmetric equal splits: scalars stay exactly 1, estimates equal raw states
    g = digraph.Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)])
    w = digraph.uniform_weights(g)
    objs = quadratic_set(4, 2, seed=2)
    s = addopt_init(objs)
    for _ in range(50):
        s = addopt_step(s, w, 0.05)
        np.testing.assert_allclose(s.y, 1.0, atol=1e-12)
        np.testing.assert_allclose(s.z, s.x, atol=1e-12)


def test_collapsed_two_step_identity(fig1_weights, canonical_objs):
    # eliminating the tracker yields
    # x_{k+1} = 2 A x_k - A^2 x_{k-1} - alpha (grad_k - grad_{k-1})
    alpha = 0.05
    states = list(islice(iterate("addopt", fig1_weights, canonical_objs, alpha), 51))
    a = fig1_weights.entries
    for prev, cur, nxt in zip(states, states[1:], states[2:]):
        predicted = (
            2.0 * a @ cur.x
            - a @ (a @ prev.x)
            - alpha * (cur.grad - prev.grad)
        )
        assert np.max(np.abs(nxt.x - predicted)) < 1e-9


def test_divergence_raises_with_iteration_index(ring4, quad4):
    s = addopt_init(quad4)
    with pytest.raises(DivergenceError) as exc_info:
        for _ in range(400):
            s = addopt_step(s, ring4, 5.0)
    assert exc_info.value.iteration >= 1
    assert "diverged" in str(exc_info.value)


# ---------------------------------------------------------------------------
# two-step engine
# ---------------------------------------------------------------------------


def test_corrector_matrix_validation(ring4):
    with pytest.raises(ValueError, match="theta"):
        dextra_tilde(ring4, 0.0)
    with pytest.raises(ValueError, match="theta"):
        dextra_tilde(ring4, 0.6)
    tilde = dextra_tilde(ring4, 0.5)
    np.testing.assert_allclose(
        tilde.entries, 0.5 * np.eye(4) + 0.5 * ring4.entries
    )


def test_two_step_bootstrap_definition(ring4, quad4):
    # from a start state (no x_prev) the step is x1 = A x0 - alpha grad(z0)
    alpha = 0.1
    s1 = dextra_step(gradient_push_init(quad4), ring4, alpha, dextra_tilde(ring4, 0.5))
    x0 = np.zeros((4, 2))
    g0 = np.array([o.gradient(z) for o, z in zip(quad4, x0)])
    np.testing.assert_allclose(
        s1.x, ring4.entries @ x0 - alpha * g0, atol=1e-15
    )
    assert s1.k == 1
    np.testing.assert_array_equal(s1.x_prev, x0)
    np.testing.assert_array_equal(s1.grad_prev, g0)


def test_two_step_coincides_with_tracked_engine_on_identity_mixing(quad4):
    # with identity mixing both engines reduce to the same decentralized
    # gradient recursion, step for step
    eye = WeightMatrix(np.eye(4))
    alpha, theta = 0.1, 0.37
    tilde = dextra_tilde(eye, theta)
    s_two = dextra_step(gradient_push_init(quad4), eye, alpha, tilde)
    s_tracked = addopt_step(addopt_init(quad4), eye, alpha)
    for _ in range(40):
        np.testing.assert_allclose(s_two.x, s_tracked.x, atol=1e-12)
        np.testing.assert_allclose(s_two.z, s_tracked.z, atol=1e-12)
        s_two = dextra_step(s_two, eye, alpha, tilde)
        s_tracked = addopt_step(s_tracked, eye, alpha)


def test_two_step_converges_linearly_inside_its_window(fig1_weights):
    objs = quadratic_set(10, 3, seed=0)
    trace = run("dextra", fig1_weights, objs, 0.2, 1500, 0.0, theta=0.5)
    assert trace.final_residual < 1e-10
    from dirgraphopt import analysis

    fit = analysis.residual_slope(trace)
    assert fit.slope < 0 and fit.r2 >= 0.99


def test_two_step_fails_below_its_stability_window(
    fig1_weights, canonical_objs, canonical_opt
):
    # the tracked engine tolerates arbitrarily small steps; the two-step
    # corrector does not: at alpha = 0.05 it never comes close while the
    # tracked engine converges
    alpha = 0.05
    tracked = run(
        "addopt", fig1_weights, canonical_objs, alpha, 2000, 0.0,
        z_star=canonical_opt.z_star,
    )
    assert tracked.final_residual < 1e-10
    try:
        two_step = run(
            "dextra", fig1_weights, canonical_objs, alpha, 2000, 0.0,
            z_star=canonical_opt.z_star,
        )
        min_residual = float(two_step.residual.min())
    except DivergenceError:
        min_residual = float("inf")
    assert min_residual > 1e-3


# ---------------------------------------------------------------------------
# baseline engine
# ---------------------------------------------------------------------------


def test_baseline_zero_steps_is_pure_consensus(fig1_weights):
    objs = quadratic_set(10, 2, seed=8)
    rng = np.random.default_rng(9)
    z0 = rng.standard_normal((10, 2))
    s = gradient_push_init(objs, z0)
    for _ in range(500):
        s = gradient_push_step(s, fig1_weights, 0.0)
    np.testing.assert_allclose(s.z, np.tile(z0.mean(axis=0), (10, 1)), atol=1e-10)


def test_baseline_decay_is_sublinear(fig1_weights):
    objs = quadratic_set(10, 3, seed=0)
    trace = run("gradient_push", fig1_weights, objs, "1/sqrt(k)", 3000, 0.0)
    ks, res = trace.ks, trace.residual
    mask = ks >= 100
    slope = np.polyfit(np.log(ks[mask]), np.log(res[mask]), 1)[0]
    # power-law decay with exponent near -1/2: far slower than geometric
    assert -0.75 <= slope <= -0.25
    assert res[-1] > 1e-3


def test_tracked_engine_beats_baseline_by_orders_of_magnitude(fig1_weights):
    objs = quadratic_set(10, 3, seed=0)
    opt = objectives.centralized_solve(objs)
    tracked = run("addopt", fig1_weights, objs, 0.2, 300, 0.0, z_star=opt.z_star)
    baseline = run(
        "gradient_push", fig1_weights, objs, "1/sqrt(k)", 300, 0.0,
        z_star=opt.z_star,
    )
    assert tracked.residual[300] <= 1e-2 * baseline.residual[300]


def test_inv_sqrt_schedule():
    assert inv_sqrt_steps(1) == 1.0
    assert inv_sqrt_steps(4) == 0.5


# ---------------------------------------------------------------------------
# the run driver and trace files
# ---------------------------------------------------------------------------


def test_run_records_every_iteration(ring4, quad4):
    trace = run("addopt", ring4, quad4, 0.05, 100, 0.0)
    assert trace.records == 101
    assert trace.iterations == 100
    np.testing.assert_array_equal(trace.ks, np.arange(101))
    assert trace.residual[0] == 1.0


def test_run_stop_tol_halts_early(fig1_weights, canonical_objs):
    trace = run("addopt", fig1_weights, canonical_objs, 0.08, 500, 1e-6)
    assert trace.final_residual <= 1e-6
    assert trace.iterations < 500
    # every earlier record sits above the stopping threshold
    assert np.all(trace.residual[:-1] > 1e-6)


def test_run_is_deterministic(fig1_weights, canonical_objs):
    a = run("addopt", fig1_weights, canonical_objs, 0.05, 150, 0.0)
    b = run("addopt", fig1_weights, canonical_objs, 0.05, 150, 0.0)
    np.testing.assert_array_equal(a.residual, b.residual)
    np.testing.assert_array_equal(a.consensus_err, b.consensus_err)
    np.testing.assert_array_equal(a.gap, b.gap)


def test_run_reaches_fixed_point_consensus(fig1_weights, canonical_objs):
    trace = run("addopt", fig1_weights, canonical_objs, 0.08, 500, 1e-10)
    assert trace.final_residual <= 1e-10
    *_, final = islice(
        iterate("addopt", fig1_weights, canonical_objs, 0.08), trace.iterations + 1
    )
    spread = np.max(
        np.linalg.norm(final.z[:, None, :] - final.z[None, :, :], axis=-1)
    )
    assert spread <= 1e-8
    total_grad = np.array(
        [o.gradient(z) for o, z in zip(canonical_objs, final.z)]
    ).sum(axis=0)
    assert np.linalg.norm(total_grad) <= 1e-8


def test_run_engine_name_validation(ring4, quad4):
    with pytest.raises(ValueError, match="unknown algorithm"):
        run("sgd", ring4, quad4, 0.1, 10)
    trace = run("gp", ring4, quad4, "1/sqrt(k)", 10)
    assert trace.algorithm == "gradient_push"


def test_iterate_checks_its_arguments_when_called(ring4, quad4):
    # each call raises before any next(), so no generator is ever started
    with pytest.raises(ValueError, match="unknown algorithm"):
        iterate("sgd", ring4, quad4, 0.1)
    with pytest.raises(ValueError, match="constant step"):
        iterate("dextra", ring4, quad4, "1/sqrt(k)")
    with pytest.raises(ValueError, match="step-size spec"):
        iterate("gp", ring4, quad4, "1/k")
    with pytest.raises(ValueError, match="theta"):
        iterate("dextra", ring4, quad4, 0.1, theta=0.7)
    with pytest.raises(ValueError, match="shape"):
        iterate("addopt", ring4, quad4, 0.1, z0=np.zeros((3, 2)))


def test_iterate_is_endless_and_starts_every_engine_at_k0(ring4, quad4):
    for alg in ENGINES:
        states = list(islice(iterate(alg, ring4, quad4, BLOCK_ALPHAS[alg]), 5))
        assert [s.k for s in states] == [0, 1, 2, 3, 4]
        np.testing.assert_array_equal(states[0].x, 0.0)


def test_run_rejects_schedules_for_tracked_engines(ring4, quad4):
    with pytest.raises(ValueError, match="constant step"):
        run("addopt", ring4, quad4, "1/sqrt(k)", 10)
    with pytest.raises(ValueError, match="constant step"):
        run("dextra", ring4, quad4, lambda k: 0.1, 10)


def test_run_accepts_callable_schedule_for_baseline(ring4, quad4):
    trace = run("gradient_push", ring4, quad4, lambda k: 0.5 / k, 20)
    assert trace.records == 21
    assert np.all(np.isnan(trace.tracking_err))


def test_run_baseline_divergence_reports_iteration(fig1_weights):
    objs = quadratic_set(10, 2, seed=1)
    with pytest.raises(DivergenceError) as exc_info:
        run("addopt", fig1_weights, objs, 50.0, 3000, 0.0)
    assert 1 <= exc_info.value.iteration <= 3000


@pytest.mark.parametrize("algorithm", ["addopt", "dextra", "gradient_push"])
def test_divergence_carries_trace_up_to_last_finite_iterate(fig1_weights, algorithm):
    objs = quadratic_set(10, 2, seed=1)
    with pytest.raises(DivergenceError) as exc_info:
        run(algorithm, fig1_weights, objs, 50.0, 3000, 0.0)
    exc = exc_info.value
    again = run(algorithm, fig1_weights, objs, 50.0, exc.iteration - 1, 0.0)
    assert exc.trace.iterations == exc.iteration - 1
    for f in dataclasses.fields(algorithms.Trace):
        np.testing.assert_array_equal(
            getattr(exc.trace, f.name), getattr(again, f.name), err_msg=f.name
        )


def read_trace_csv(path) -> dict[str, np.ndarray]:
    """The columns of a trace CSV, by header name."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return dict(zip(header, np.array(rows, dtype=float).T))


def test_trace_csv_roundtrip(tmp_path, ring4, quad4):
    trace = run("addopt", ring4, quad4, 0.05, 30, 0.0)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    header = path.read_text().splitlines()[0]
    assert header == "k,residual,consensus_err,tracking_err,gap"
    cols = read_trace_csv(path)
    np.testing.assert_array_equal(cols["k"], trace.ks)
    np.testing.assert_array_equal(cols["residual"], trace.residual)
    np.testing.assert_array_equal(cols["consensus_err"], trace.consensus_err)
    np.testing.assert_array_equal(cols["gap"], trace.gap)


def test_trace_csv_baseline_tracking_is_nan(tmp_path, ring4, quad4):
    trace = run("gp", ring4, quad4, "1/sqrt(k)", 10, 0.0)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    cols = read_trace_csv(path)
    assert np.all(np.isnan(cols["tracking_err"]))


def test_engines_and_reference_solve_never_call_per_agent_gradients(
    monkeypatch, fig1_weights, canonical_objs
):
    quads = quadratic_set(10, 2, seed=3)
    expected = {
        name: [run(alg, fig1_weights, objs, 0.05, 40, 0.0) for alg in ENGINES]
        for name, objs in (("logistic", canonical_objs), ("quadratic", quads))
    }

    def per_agent(self, z):
        raise AssertionError("per-agent gradient on the hot path")

    monkeypatch.setattr(objectives.Logistic, "gradient", per_agent)
    monkeypatch.setattr(objectives.Quadratic, "gradient", per_agent)
    for name, objs in (("logistic", canonical_objs), ("quadratic", quads)):
        assert objectives.centralized_solve(objs).converged
        for alg, before in zip(ENGINES, expected[name]):
            # z_star is left to run(), so the reference solve runs here too
            trace = run(alg, fig1_weights, objs, 0.05, 40, 0.0)
            assert trace.residual.tobytes() == before.residual.tobytes()


def test_swarm_holds_the_stacked_problem(ring4, quad4):
    for swarm in (addopt_init(quad4), gradient_push_init(quad4)):
        assert isinstance(swarm.objectives, objectives.StackedQuadratic)
        assert swarm.objectives.agents == quad4
    problem = objectives.stack(quad4)
    for swarm in islice(iterate("dextra", ring4, problem, 0.05), 3):
        assert swarm.objectives is problem


def array_bytes(obj) -> dict:
    """The bytes of every array reachable through dataclass ``obj``'s fields
    (tuples and nested dataclasses included), keyed by path."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        for i, item in enumerate(value if isinstance(value, tuple) else (value,)):
            if isinstance(item, np.ndarray):
                out[f.name, i] = item.tobytes()
            elif dataclasses.is_dataclass(item):
                out.update({(f.name, i, *key): v for key, v in array_bytes(item).items()})
    return out


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("family", ["logistic", "logistic_unequal", "quadratic"])
def test_a_step_never_writes_into_its_input_state(fig1_weights, canonical_objs, engine, family):
    # the recorder keeps a state's arrays until it reduces its block, so a
    # step that wrote into them would corrupt the trace without a sound
    if family == "logistic":
        objs = canonical_objs
    elif family == "logistic_unequal":
        rng = np.random.default_rng(2)
        counts = rng.integers(1, 4, size=10)
        objs = objectives.logistic_objective(objectives.LogisticData(
            tuple(rng.standard_normal((m, 3)) for m in counts),
            tuple(rng.choice([-1.0, 1.0], m) for m in counts), reg=1.0))
        assert len(objectives.stack(objs).groups) > 1
    else:
        objs = quadratic_set(10, 3, seed=5)
    tilde = dextra_tilde(fig1_weights, 0.5)
    init = addopt_init if engine == "addopt" else gradient_push_init
    step, extra = {
        "addopt": (addopt_step, ()),
        "dextra": (dextra_step, (tilde,)),
        "gradient_push": (gradient_push_step, ()),
    }[engine]
    s = init(objs, z0=np.random.default_rng(3).standard_normal((10, 3)))
    # dextra's first step is its bootstrap, the next ones the two-step update
    for k in range(1, 4):
        before = array_bytes(s), array_bytes(fig1_weights), array_bytes(tilde)
        nxt = step(s, fig1_weights, 0.05, *extra)
        assert nxt.k == k
        assert (array_bytes(s), array_bytes(fig1_weights), array_bytes(tilde)) == before
        s = nxt


# ---------------------------------------------------------------------------
# block trace recorder: bit-equal to the per-step recorder it replaced
# ---------------------------------------------------------------------------

COLUMNS = ("ks", "residual", "consensus_err", "tracking_err", "gap")
BLOCK_ALPHAS = {"addopt": 0.02, "dextra": 0.2, "gradient_push": "1/sqrt(k)"}


def per_step_columns(states, z_star, pi):
    """The five trace columns, recorded one state at a time.

    This is the per-step recorder that ``run`` used before it reduced blocks
    of steps; ``run`` must reproduce its bytes.
    """
    n = states[0].n
    y_inf = n * pi
    target = np.tile(z_star, (n, 1))
    denom = float(np.linalg.norm(states[0].z - target))
    if denom == 0.0:
        denom = 1.0
    cols = {name: [] for name in COLUMNS}
    for s in states:
        xbar = s.x.mean(axis=0)
        cols["ks"].append(s.k)
        cols["residual"].append(float(np.linalg.norm(s.z - target)) / denom)
        cols["consensus_err"].append(float(np.linalg.norm(s.x - np.outer(y_inf, xbar))))
        if s.w is not None and s.grad is not None:
            gbar = s.grad.mean(axis=0)
            cols["tracking_err"].append(float(np.linalg.norm(s.w - np.outer(y_inf, gbar))))
        else:
            cols["tracking_err"].append(float("nan"))
        cols["gap"].append(np.sqrt(n) * float(np.linalg.norm(xbar - z_star)))
    return {name: np.array(values) for name, values in cols.items()}


def assert_same_bytes(trace, expected, records):
    assert trace.records == records
    for name in COLUMNS:
        assert getattr(trace, name).tobytes() == expected[name][:records].tobytes(), name


@pytest.fixture(scope="module")
def block_problems():
    """Logistic problems with their optimum and Perron vector, per (n, p)."""
    cache = {}

    def get(n, p):
        if (n, p) not in cache:
            if n == 1:
                g = digraph.Digraph(1, ())
            elif n == 10:
                g = digraph.builtin_graph("fig1")
            else:
                g = digraph.random_digraph(n, 4 * n, 0)
            w = digraph.uniform_weights(g)
            objs = objectives.stack(objectives.logistic_objective(
                objectives.generate_dataset(n, 10, p, seed=3, reg=1.0)))
            pi = digraph.perron_limit(w)
            cache[n, p] = w, objs, objectives.centralized_solve(objs).z_star, pi
        return cache[n, p]

    return get


@pytest.mark.parametrize("algorithm", ["addopt", "dextra", "gradient_push"])
@pytest.mark.parametrize("n, p", [(1, 1), (1, 3), (10, 1), (10, 3), (200, 1), (200, 3)])
def test_block_recorder_matches_per_step_recorder_at_block_edges(
    block_problems, algorithm, n, p
):
    w, objs, z_star, pi = block_problems(n, p)
    alpha = BLOCK_ALPHAS[algorithm]
    block = algorithms._block_steps(n, p)
    states = list(islice(iterate(algorithm, w, objs, alpha), 2 * block + 2))
    expected = per_step_columns(states, z_star, pi)
    for iters in (0, block - 1, block, block + 1, 2 * block + 1):
        trace = run(algorithm, w, objs, alpha, iters, z_star=z_star, pi=pi)
        assert_same_bytes(trace, expected, iters + 1)
    # a stop_tol stop half-way into the second block
    tol = float(expected["residual"][block + block // 2])
    stop = int(np.argmax(expected["residual"] <= tol))
    trace = run(algorithm, w, objs, alpha, 2 * block + 1, tol, z_star=z_star, pi=pi)
    assert_same_bytes(trace, expected, stop + 1)


@pytest.mark.parametrize("algorithm, step", [
    ("addopt", "addopt_step"), ("dextra", "dextra_step"),
    ("gradient_push", "gradient_push_step"),
])
@pytest.mark.parametrize("where", ["inside_block", "after_flush"])
def test_block_recorder_divergence_keeps_the_finite_records(
    block_problems, monkeypatch, algorithm, step, where
):
    w, objs, z_star, pi = block_problems(10, 3)
    alpha = BLOCK_ALPHAS[algorithm]
    block = algorithms._block_steps(10, 3)
    expected = per_step_columns(
        list(islice(iterate(algorithm, w, objs, alpha), 2 * block + 2)), z_star, pi)
    # the first block holds k = 0 .. block-1, so step k = block is the first
    # one after a flush
    at = block if where == "after_flush" else block + block // 2
    engine_step = getattr(algorithms, step)

    def diverging_step(s, *args):
        if s.k + 1 == at:
            raise DivergenceError(at)
        return engine_step(s, *args)

    with monkeypatch.context() as patch:
        patch.setattr(algorithms, step, diverging_step)
        with pytest.raises(DivergenceError) as exc_info:
            run(algorithm, w, objs, alpha, 2 * block + 1, z_star=z_star, pi=pi)
    exc = exc_info.value
    assert exc.iteration == at
    assert_same_bytes(exc.trace, expected, at)
    again = run(algorithm, w, objs, alpha, exc.iteration - 1, z_star=z_star, pi=pi)
    assert_same_bytes(again, expected, at)


def test_block_recorder_keeps_memory_flat_in_n():
    assert algorithms._block_steps(10, 3) > 1
    assert algorithms._block_steps(10_000, 3) == 1
    for n, p in ((1, 1), (10, 3), (200, 3), (1000, 3)):
        steps = algorithms._block_steps(n, p)
        assert steps == 1 or steps * n * p <= algorithms._RECORD_BLOCK_ELEMENTS


@pytest.mark.parametrize("value", [
    np.nan, np.inf, -np.inf, OVERFLOW_GUARD * (1 + 2**-52),
    -OVERFLOW_GUARD * (1 + 2**-52),
])
def test_check_finite_raises_past_the_guard(value):
    x = np.zeros((4, 3))
    x[2, 1] = value
    with pytest.raises(DivergenceError) as exc_info:
        algorithms._check_finite(x, 7)
    assert exc_info.value.iteration == 7


def test_check_finite_accepts_the_guard_itself():
    x = np.full((4, 3), OVERFLOW_GUARD)
    x[0, 0] = -OVERFLOW_GUARD
    algorithms._check_finite(x, 1)


def test_run_rejects_a_negative_iteration_count(ring4, quad4):
    with pytest.raises(ValueError, match="non-negative, got -3"):
        run("addopt", ring4, quad4, 0.05, -3)
    assert run("addopt", ring4, quad4, 0.05, 0).records == 1
