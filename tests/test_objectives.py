"""Objective functions, datasets and the centralized reference solver."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from dirgraphopt import objectives
from dirgraphopt.objectives import (
    Logistic,
    LogisticData,
    Quadratic,
    centralized_solve,
    generate_dataset,
    load_dataset_csv,
    logistic_objective,
    network_constants,
    quadratic_objective,
    save_dataset_csv,
    stack,
    stacked_gradient,
    total_gradient,
    total_value,
)

finite_vec = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    min_size=1,
    max_size=6,
)


def central_fd(obj, z, h=1e-6):
    grad = np.empty_like(z)
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = h
        grad[i] = (obj.value(z + e) - obj.value(z - e)) / (2 * h)
    return grad


# ---------------------------------------------------------------------------
# quadratic objectives
# ---------------------------------------------------------------------------


def test_quadratic_value_and_gradient_closed_form():
    q = quadratic_objective([1.0, -2.0], [2.0, 3.0])
    z = np.array([0.0, 0.0])
    assert q.value(z) == pytest.approx(0.5 * (2 * 1 + 3 * 4))
    np.testing.assert_allclose(q.gradient(z), [-2.0, 6.0])
    assert q.value(q.center) == 0.0
    np.testing.assert_allclose(q.gradient(q.center), 0.0)


def test_quadratic_curvature_bounds():
    q = quadratic_objective([0.0, 0.0, 0.0], [0.5, 2.0, 4.0])
    assert q.lipschitz == 4.0
    assert q.strong_convexity == 0.5
    assert q.dim == 3


def test_quadratic_rejects_bad_curvature():
    with pytest.raises(ValueError, match="positive"):
        quadratic_objective([0.0], [0.0])
    with pytest.raises(ValueError, match="positive"):
        quadratic_objective([0.0], [-1.0])
    with pytest.raises(ValueError, match="equal-length"):
        quadratic_objective([0.0, 1.0], [1.0])


def test_unit_curvature_optimum_is_mean_of_centers():
    rng = np.random.default_rng(1)
    centers = rng.standard_normal((6, 3))
    objs = tuple(quadratic_objective(c, np.ones(3)) for c in centers)
    opt = centralized_solve(objs)
    assert opt.converged
    np.testing.assert_allclose(opt.z_star, centers.mean(axis=0), atol=1e-10)


def test_weighted_quadratic_optimum_closed_form():
    # sum of 0.5 q_i (z - b_i)^2 is minimized at sum(q b) / sum(q) per axis
    centers = np.array([[1.0], [3.0], [-2.0]])
    curvs = np.array([[1.0], [2.0], [4.0]])
    objs = tuple(quadratic_objective(b, q) for b, q in zip(centers, curvs))
    opt = centralized_solve(objs)
    expected = (curvs * centers).sum() / curvs.sum()
    np.testing.assert_allclose(opt.z_star, [expected], atol=1e-10)
    assert opt.residual_norm <= 1e-10 * max(1.0, np.linalg.norm(opt.z_star))


# ---------------------------------------------------------------------------
# logistic objectives
# ---------------------------------------------------------------------------


def test_logistic_value_at_origin():
    data = generate_dataset(4, 5, 3, seed=0, reg=1.0)
    objs = logistic_objective(data)
    for o in objs:
        assert o.value(np.zeros(3)) == pytest.approx(5 * math.log(2.0))


def test_logistic_gradient_at_origin_closed_form():
    data = generate_dataset(3, 6, 2, seed=1, reg=2.0)
    objs = logistic_objective(data)
    for o, f, b in zip(objs, data.features, data.labels):
        np.testing.assert_allclose(
            o.gradient(np.zeros(2)), -0.5 * f.T @ b, atol=1e-12
        )


def test_logistic_no_overflow_on_huge_margins():
    o = Logistic(
        features=np.array([[1e4], [-1e4]]),
        labels=np.array([1.0, 1.0]),
        reg=1.0,
        share=1,
    )
    for z in (np.array([5.0]), np.array([-5.0])):
        assert np.isfinite(o.value(z))
        assert np.all(np.isfinite(o.gradient(z)))


def test_logistic_validation():
    with pytest.raises(ValueError, match="labels"):
        Logistic(np.ones((2, 2)), np.array([1.0, 2.0]), reg=1.0, share=1)
    with pytest.raises(ValueError, match="one label per row"):
        Logistic(np.ones((2, 2)), np.array([1.0]), reg=1.0, share=1)
    with pytest.raises(ValueError, match="reg"):
        Logistic(np.ones((1, 1)), np.array([1.0]), reg=0.0, share=1)


def test_logistic_certified_curvature_formulas():
    data = generate_dataset(5, 7, 3, seed=2, reg=1.5)
    objs = logistic_objective(data)
    for o, f in zip(objs, data.features):
        assert o.strong_convexity == pytest.approx(1.5 / 5)
        assert o.lipschitz == pytest.approx(1.5 / 5 + 0.25 * np.sum(f**2))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20)
def test_logistic_gradient_lipschitz_bound_holds(seed):
    rng = np.random.default_rng(seed)
    data = generate_dataset(3, 4, 3, seed=seed, reg=1.0)
    o = logistic_objective(data)[0]
    z1, z2 = rng.standard_normal(3), rng.standard_normal(3)
    lhs = np.linalg.norm(o.gradient(z1) - o.gradient(z2))
    assert lhs <= o.lipschitz * np.linalg.norm(z1 - z2) * (1 + 1e-8)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20)
def test_strong_convexity_inequality_holds(seed):
    rng = np.random.default_rng(seed)
    data = generate_dataset(3, 4, 3, seed=seed, reg=1.0)
    for o in (logistic_objective(data)[1],
              quadratic_objective(rng.standard_normal(3), [1.0, 2.0, 0.5])):
        z1, z2 = rng.standard_normal(3), rng.standard_normal(3)
        s = o.strong_convexity
        lower = (
            o.value(z1)
            + o.gradient(z1) @ (z2 - z1)
            + 0.5 * s * np.linalg.norm(z2 - z1) ** 2
        )
        assert o.value(z2) >= lower - 1e-9 * max(1.0, abs(lower))


@given(st.integers(min_value=0, max_value=10_000), finite_vec)
@settings(max_examples=25)
def test_gradients_match_finite_differences(seed, z_list):
    z = np.array(z_list)
    rng = np.random.default_rng(seed)
    quad = quadratic_objective(
        rng.standard_normal(z.size), rng.uniform(0.5, 3.0, z.size)
    )
    data = generate_dataset(2, 3, z.size, seed=seed, reg=1.0)
    logi = logistic_objective(data)[0]
    for o in (quad, logi):
        np.testing.assert_allclose(
            o.gradient(z), central_fd(o, z), rtol=1e-5, atol=1e-7
        )


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


def test_generate_dataset_shapes_and_labels():
    data = generate_dataset(4, 6, 3, seed=0)
    assert data.n_agents == 4 and data.dim == 3
    for f, b in zip(data.features, data.labels):
        assert f.shape == (6, 3) and b.shape == (6,)
        assert np.all(np.isin(b, (-1.0, 1.0)))


def test_generate_dataset_deterministic():
    a = generate_dataset(3, 5, 2, seed=9)
    b = generate_dataset(3, 5, 2, seed=9)
    for fa, fb in zip(a.features, b.features):
        np.testing.assert_array_equal(fa, fb)
    for la, lb in zip(a.labels, b.labels):
        np.testing.assert_array_equal(la, lb)


def test_generate_dataset_rejects_empty():
    with pytest.raises(ValueError):
        generate_dataset(0, 5, 2, seed=0)
    with pytest.raises(ValueError):
        generate_dataset(2, 0, 2, seed=0)


def test_planted_labels_are_mostly_separable():
    # with 10% flip noise, a long-run average of ~90% of labels should agree
    # with the best linear separator; solving each instance is overkill, so
    # check agreement with the planted normal via a fresh regenerate
    agree = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        normal = rng.standard_normal(3)
        normal /= np.linalg.norm(normal)
        data = generate_dataset(2, 20, 3, seed=seed)
        for f, b in zip(data.features, data.labels):
            clean = np.where(f @ normal >= 0, 1.0, -1.0)
            agree.append(np.mean(clean == b))
    assert np.mean(agree) >= 0.8


def test_dataset_csv_roundtrip_exact(tmp_path):
    data = generate_dataset(3, 4, 2, seed=5, reg=0.7)
    path = tmp_path / "d.csv"
    save_dataset_csv(data, path)
    header = path.read_text().splitlines()[0]
    assert header == "agent,label,f1,f2"
    back = load_dataset_csv(path, reg=0.7)
    assert back.n_agents == 3 and back.reg == 0.7
    for fa, fb in zip(data.features, back.features):
        np.testing.assert_array_equal(fa, fb)  # repr round-trips bit-exactly
    for la, lb in zip(data.labels, back.labels):
        np.testing.assert_array_equal(la, lb)


def test_dataset_csv_rejects_gaps(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("agent,label,f1\n0,1,0.5\n2,-1,0.25\n")
    with pytest.raises(ValueError, match="without gaps"):
        load_dataset_csv(path)


@pytest.mark.parametrize("body, message", [
    ("0,1,0.5,1.0\n0,-1,0.25\n", "line 3: expected 4 fields, got 3"),
    ("0,1,0.5,1.0\n\n1,1,x,2.0\n", "line 4: could not convert string to float: 'x'"),
    ("0,1,0.5,1.0\nb,1,0.5,1.0\n", "line 3: invalid literal for int"),
    ("0,1,0.5,1.0,7\n", "line 2: expected 4 fields, got 5"),
    ("0,1,0.5,1.0\n1,0,0.5,1.0\n", "line 3: label must be +/-1, got '0'"),
])
def test_dataset_csv_errors_name_the_file_and_line(tmp_path, body, message):
    path = tmp_path / "d.csv"
    path.write_text("agent,label,f1,f2\n" + body)
    with pytest.raises(ValueError) as info:
        load_dataset_csv(path)
    assert str(info.value).startswith(f"{path} {message}")


def test_dataset_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("node,y,f1\n0,1,0.5\n")
    with pytest.raises(ValueError, match="header"):
        load_dataset_csv(path)


def test_dataset_rejects_bad_labels():
    with pytest.raises(ValueError, match="label"):
        LogisticData(
            (np.ones((1, 2)),), (np.array([0.5]),), reg=1.0
        )
        # the per-agent Logistic objects validate labels on construction
        logistic_objective(
            LogisticData((np.ones((1, 2)),), (np.array([0.5]),), reg=1.0)
        )


# ---------------------------------------------------------------------------
# network-level helpers and the reference solver
# ---------------------------------------------------------------------------


def test_network_constants_are_extremes():
    objs = (
        quadratic_objective([0.0], [2.0]),
        quadratic_objective([0.0], [5.0]),
        quadratic_objective([0.0], [0.5]),
    )
    assert network_constants(objs) == (5.0, 0.5)


def test_stacked_and_total_gradient_consistency():
    rng = np.random.default_rng(3)
    objs = tuple(
        quadratic_objective(rng.standard_normal(2), rng.uniform(0.5, 2.0, 2))
        for _ in range(4)
    )
    z = rng.standard_normal(2)
    rows = stacked_gradient(objs, np.tile(z, (4, 1)))
    np.testing.assert_allclose(rows.sum(axis=0), total_gradient(objs, z), atol=1e-12)
    assert total_value(objs, z) == sum(o.value(z) for o in objs)


def test_solver_single_quadratic():
    opt = centralized_solve((quadratic_objective([0.0, 0.0], [1.0, 1.0]),))
    np.testing.assert_allclose(opt.z_star, 0.0, atol=1e-12)
    assert opt.converged and opt.f_star == pytest.approx(0.0)


def test_solver_canonical_logistic_instance(canonical_objs, canonical_opt):
    opt = canonical_opt
    assert opt.converged
    assert opt.residual_norm <= 1e-10 * max(1.0, np.linalg.norm(opt.z_star))
    # the reported optimum really is a stationary point of the total objective
    np.testing.assert_allclose(
        total_gradient(canonical_objs, opt.z_star), 0.0, atol=1e-9
    )
    # and has lower total value than nearby perturbations
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = opt.z_star + 1e-3 * rng.standard_normal(3)
        assert total_value(canonical_objs, z) >= opt.f_star


def test_solver_converges_on_an_ill_conditioned_problem():
    # two examples per agent and a ridge of 1e-6: the certified curvature
    # ratio l/s is 2.5e7, where a fixed-step gradient descent does not finish
    objs = logistic_objective(generate_dataset(10, 2, 3, seed=0, reg=1e-6))
    opt = centralized_solve(objs)
    assert opt.converged and opt.iterations <= 30
    assert opt.residual_norm <= 1e-12 * max(1.0, np.linalg.norm(opt.z_star))


@pytest.mark.parametrize("seed", [*range(1, 11), 9001])
def test_solver_matches_scipy_at_n200(seed):
    # the n = 200 benchmark problem: 10 examples of dimension 3 per agent,
    # reg 20, generated with the graph's seed
    objs = logistic_objective(generate_dataset(200, 10, 3, seed=seed, reg=20.0))
    opt = centralized_solve(objs)
    assert opt.converged and opt.iterations <= 10
    tol = 1e-9 * max(1.0, np.linalg.norm(opt.z_star))
    lbfgsb = scipy.optimize.minimize(
        lambda z: total_value(objs, z), np.zeros(3),
        jac=lambda z: total_gradient(objs, z), method="L-BFGS-B",
        options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 10_000},
    ).x
    # L-BFGS-B stops once F no longer resolves its decrease, at |grad F| up
    # to about 5e-6, so it is only as close as strong convexity (the total
    # ridge, 20) certifies; a root of grad F polished from its point by
    # MINPACK's hybrid method, which never reads F, must agree to ``tol``
    certified = np.linalg.norm(total_gradient(objs, lbfgsb)) / 20.0
    assert np.linalg.norm(opt.z_star - lbfgsb) <= certified + tol
    root = scipy.optimize.root(lambda z: total_gradient(objs, z), lbfgsb, method="hybr")
    assert root.success
    assert np.linalg.norm(opt.z_star - root.x) <= tol


def test_gradient_step_contracts_below_curvature_ratio():
    # a full gradient step on the summed objective contracts distance to the
    # optimum by max(|1 - a n l|, |1 - a n s|) when the certified curvature
    # bounds hold for the total objective
    rng = np.random.default_rng(7)
    objs = tuple(
        quadratic_objective(rng.standard_normal(3), rng.uniform(0.5, 2.0, 3))
        for _ in range(5)
    )
    n = len(objs)
    l, s = network_constants(objs)
    opt = centralized_solve(objs)
    for alpha in (0.1 / (n * l), 0.5 / (n * l), 1.0 / (n * l)):
        factor = max(abs(1 - alpha * n * l), abs(1 - alpha * n * s))
        for _ in range(20):
            z = opt.z_star + rng.standard_normal(3)
            moved = z - alpha * total_gradient(objs, z)
            lhs = np.linalg.norm(moved - opt.z_star)
            assert lhs <= factor * np.linalg.norm(z - opt.z_star) + 1e-12


# ---------------------------------------------------------------------------
# the stacked problem: batched gradients keep the per-agent bits
# ---------------------------------------------------------------------------


def per_agent_rows(objs, z_rows):
    return np.array([o.gradient(z) for o, z in zip(objs, z_rows)])


def sequential_sum(objs, z):
    out = np.zeros(objs[0].dim)
    for o in objs:
        out += o.gradient(z)
    return out


def assert_bit_equal_to_per_agent(objs, seed, points=20):
    """Stacked and per-agent gradients agree bit for bit: at ``points``
    random points, at half as many with saturated margins (``expit`` at 0,
    1 or subnormal), and at ``-0.0`` rows, all of them or every other one."""
    problem = stack(objs)
    n, p = problem.n, problem.dim
    rng = np.random.default_rng(seed)
    scales = [10.0 ** rng.uniform(-3, 2) for _ in range(points)]
    scales += [10.0 ** rng.uniform(2, 6) for _ in range(points // 2)]
    z_points = [scale * rng.standard_normal((n, p)) for scale in scales]
    z_points.append(np.full((n, p), -0.0))
    z_points.append(z_points[0].copy())
    z_points[-1][::2] = -0.0
    for z_rows in z_points:
        got = stacked_gradient(problem, z_rows)
        assert got.tobytes() == per_agent_rows(objs, z_rows).tobytes()
        z = z_rows[0]
        assert total_gradient(problem, z).tobytes() == sequential_sum(objs, z).tobytes()


@pytest.mark.parametrize("n, p", [(10, 3), (200, 3), (10, 1), (37, 2)])
def test_stacked_logistic_gradient_is_bit_equal(n, p):
    objs = logistic_objective(generate_dataset(n, 10, p, seed=n + p, reg=20.0))
    assert len(stack(objs).groups) == 1
    assert_bit_equal_to_per_agent(objs, seed=n)


def unequal_count_data(counts, p, seed):
    rng = np.random.default_rng(seed)
    features = tuple(rng.standard_normal((m, p)) for m in counts)
    labels = tuple(rng.choice([-1.0, 1.0], m) for m in counts)
    return LogisticData(features, labels, reg=1.0)


def test_stacked_logistic_groups_agents_by_example_count():
    counts = (2, 1, 2, 3, 1, 1, 5, 2)
    objs = logistic_objective(unequal_count_data(counts, 3, seed=4))
    problem = stack(objs)
    rows = {g.neg.shape[1]: np.arange(len(counts))[g.rows] for g in problem.groups}
    assert sorted(rows) == [1, 2, 3, 5]
    np.testing.assert_array_equal(rows[1], [1, 4, 5])
    np.testing.assert_array_equal(rows[2], [0, 2, 7])
    assert_bit_equal_to_per_agent(objs, seed=5)
    for p in (1, 2):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            counts = tuple(int(m) for m in rng.integers(1, 6, size=12))
            assert_bit_equal_to_per_agent(
                logistic_objective(unequal_count_data(counts, p, seed)), seed, points=5
            )


def cancelling_data(counts, p, seed):
    """Agents whose examples come in pairs: one feature row, once with each
    label, so at ``z = -0.0`` the back-projection cancels to exactly zero
    and the per-agent gradient is ``ridge * -0.0 - 0.0 = -0.0``."""
    rng = np.random.default_rng(seed)
    features = tuple(np.repeat(rng.standard_normal((m, p)), 2, axis=0) for m in counts)
    labels = tuple(np.tile([1.0, -1.0], m) for m in counts)
    return LogisticData(features, labels, reg=1.0)


@pytest.mark.parametrize("counts", [(2,) * 7, (1, 3, 1, 2, 3, 2, 1)])
def test_stacked_logistic_gradient_keeps_the_per_agent_signed_zero(counts):
    objs = logistic_objective(cancelling_data(counts, 3, seed=len(counts)))
    assert len(stack(objs).groups) == len(set(counts))
    z_rows = np.full((len(counts), 3), -0.0)
    assert np.signbit(per_agent_rows(objs, z_rows)).all()
    assert_bit_equal_to_per_agent(objs, seed=len(counts), points=5)


@pytest.mark.parametrize("p", [1, 3])
def test_stacked_quadratic_gradient_is_bit_equal(p):
    rng = np.random.default_rng(p)
    objs = tuple(
        quadratic_objective(rng.standard_normal(p), rng.uniform(0.5, 2.0, p))
        for _ in range(25)
    )
    assert_bit_equal_to_per_agent(objs, seed=p)


def random_problem(family, n, p, seed):
    """``n`` agents of one family; logistic agents hold 1 to 5 examples each."""
    rng = np.random.default_rng(seed)
    if family == "quadratic":
        return tuple(
            quadratic_objective(rng.standard_normal(p), rng.uniform(0.1, 3.0, p))
            for _ in range(n)
        )
    counts = tuple(int(m) for m in rng.integers(1, 6, size=n))
    return logistic_objective(unequal_count_data(counts, p, seed))


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
@pytest.mark.parametrize("n, p", [(1, 1), (1, 3), (7, 1), (7, 3), (200, 1), (200, 3)])
def test_stacked_value_is_bit_equal_and_total_value_is_the_running_sum(family, n, p):
    objs = random_problem(family, n, p, seed=n + p)
    problem = stack(objs)
    rng = np.random.default_rng(p)
    for _ in range(10):
        scale = 10.0 ** rng.uniform(-3, 2)
        z_rows = scale * rng.standard_normal((n, p))
        want = np.array([o.value(z) for o, z in zip(objs, z_rows)])
        assert problem.value(z_rows).tobytes() == want.tobytes()
        z = z_rows[0]
        assert total_value(objs, z) == sum(o.value(z) for o in objs)


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_stacked_hessian_matches_finite_differences(family):
    # each agent's gradient depends on its own row only, so a central
    # difference along coordinate k of every row at once gives column k of
    # every agent's Hessian
    h, worst = 1e-6, 0.0
    for j in range(50):
        rng = np.random.default_rng(j)
        n, p = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        problem = stack(random_problem(family, n, p, seed=j))
        z_rows = rng.standard_normal((n, p))
        hess = problem.hessian(z_rows)
        assert hess.shape == (n, p, p)
        fd = np.empty_like(hess)
        for k in range(p):
            step = np.zeros(p)
            step[k] = h
            fd[:, :, k] = (
                problem.gradient(z_rows + step) - problem.gradient(z_rows - step)
            ) / (2 * h)
        for a, b in zip(hess, fd):
            worst = max(worst, np.linalg.norm(b - a) / max(1.0, np.linalg.norm(a)))
    assert worst <= 1e-5


def test_total_gradient_keeps_the_running_sums_positive_zero():
    objs = tuple(quadratic_objective([0.0], [q]) for q in (1.0, 2.0, 3.0))
    z = np.array([-0.0])
    assert per_agent_rows(objs, [z] * 3).tobytes() == np.full((3, 1), -0.0).tobytes()
    assert total_gradient(objs, z).tobytes() == sequential_sum(objs, z).tobytes()


def test_stack_returns_a_stacked_problem_unchanged(canonical_objs):
    problem = stack(canonical_objs)
    assert stack(problem) is problem
    assert problem.agents == tuple(canonical_objs)
    assert (problem.n, problem.dim) == (10, 3)


def test_stack_rejects_mixed_families_naming_the_agent(canonical_objs):
    quad = quadratic_objective([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    mixed = canonical_objs[:3] + (quad,) + canonical_objs[3:]
    with pytest.raises(ValueError, match="agent 3 is Quadratic but agent 0 is Logistic"):
        stack(mixed)

    class Other(objectives.Objective):
        dim = 3

    with pytest.raises(ValueError, match="agent 1: cannot stack Other"):
        stack((quad, Other()))
    with pytest.raises(ValueError, match="agent 1 has dimension 2 but agent 0 has 3"):
        stack((quad, quadratic_objective([0.0, 0.0], [1.0, 1.0])))
