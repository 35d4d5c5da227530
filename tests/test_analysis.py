"""Convergence constants, the error-recursion matrix and trajectory checks."""

from __future__ import annotations

import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirgraphopt import algorithms, analysis, digraph, experiments, objectives
from dirgraphopt.algorithms import Trace, iterate, run
from dirgraphopt.analysis import (
    ConvergenceProfile,
    alpha_unit_crossing,
    alpha_upper_bound,
    build_G,
    build_H,
    build_profile,
    eta,
    fit_log_linear,
    push_sum_envelope,
    push_sum_extremes,
    residual_slope,
    spectral_radius,
    t_vector,
    verify_key_relation,
)

from conftest import quadratic_set


@pytest.fixture(scope="module")
def fig1_profile(fig1_weights, canonical_objs):
    l, s = objectives.network_constants(canonical_objs)
    return build_profile(fig1_weights, l, s)


def abstract_profile(**overrides) -> ConvergenceProfile:
    """A pure-constants profile (no attached spectral data)."""
    base = dict(
        n=10, l=2.0, s=0.5, sigma=0.7, tau=1.2, eps=1.1,
        y=1.9, y_minus=2.2, d=3.0,
    )
    base.update(overrides)
    return ConvergenceProfile(**base)


# ---------------------------------------------------------------------------
# scalar constants
# ---------------------------------------------------------------------------


def test_eta_values():
    assert eta(0.0, 10, 2.0, 0.5) == 1.0
    assert eta(0.25, 1, 2.0, 1.0) == pytest.approx(0.75)
    # with equal curvature bounds the factor vanishes at alpha = 1/(n l)
    assert eta(0.1, 5, 2.0, 2.0) == pytest.approx(0.0)


def test_profile_validation():
    with pytest.raises(ValueError, match="sigma"):
        abstract_profile(sigma=1.0)
    with pytest.raises(ValueError, match="s <= l"):
        abstract_profile(s=3.0)
    with pytest.raises(ValueError, match="y_minus"):
        abstract_profile(y=0.5)
    with pytest.raises(ValueError, match="d is always >= 1"):
        abstract_profile(d=0.5)


def test_push_sum_extremes_doubly_stochastic_ring():
    w = digraph.uniform_weights(digraph.ring_digraph(6))
    assert push_sum_extremes(w) == (1.0, 1.0)


def test_push_sum_extremes_match_brute_force(fig1_weights):
    y_sup, inv_sup = push_sum_extremes(fig1_weights)
    y = np.ones(10)
    hi, lo_inv = 1.0, 1.0
    for _ in range(2000):
        y = fig1_weights.entries @ y
        hi = max(hi, float(y.max()))
        lo_inv = max(lo_inv, 1.0 / float(y.min()))
    assert y_sup == pytest.approx(hi, abs=1e-9)
    assert inv_sup == pytest.approx(lo_inv, abs=1e-9)
    assert y_sup > 1.0 and inv_sup > 1.0


def test_push_sum_extremes_stabilize_early(fig1_weights):
    # the running maxima reached by iteration 500 never grow afterwards
    y = np.ones(10)
    checkpoints = {}
    hi, lo_inv = 1.0, 1.0
    for k in range(1, 1001):
        y = fig1_weights.entries @ y
        hi = max(hi, float(y.max()))
        lo_inv = max(lo_inv, 1.0 / float(y.min()))
        if k in (500, 1000):
            checkpoints[k] = (hi, lo_inv)
    assert abs(checkpoints[500][0] - checkpoints[1000][0]) < 1e-8
    assert abs(checkpoints[500][1] - checkpoints[1000][1]) < 1e-8


def test_build_profile_bundles_certified_constants(fig1_weights, fig1_profile):
    p = fig1_profile
    assert p.n == 10
    assert 0.0 <= p.sigma < 1.0
    assert p.y >= 1.0 and p.y_minus >= 1.0
    assert p.d >= 1.0
    assert p.spectral is not None
    # normalized basis: converting the S-norm to the 2-norm costs nothing
    svd_norm = np.linalg.svd(p.spectral.transform, compute_uv=False).max()
    assert svd_norm == pytest.approx(1.0, rel=1e-12)
    assert (p.tau, p.eps, p.d) == (p.spectral.tau, p.spectral.eps, p.spectral.d)


def test_build_profile_slack_controls_sigma(fig1_weights, canonical_objs):
    l, s = objectives.network_constants(canonical_objs)
    pi = digraph.perron_limit(fig1_weights)
    rho = np.max(np.abs(np.linalg.eigvals(fig1_weights.entries - pi[:, None])))
    tight = build_profile(fig1_weights, l, s, slack=0.01)
    assert rho <= tight.sigma <= rho + 0.01 + 1e-12


# ---------------------------------------------------------------------------
# the recursion matrix G and its spectral radius
# ---------------------------------------------------------------------------


def test_build_G_entries_match_formulas():
    p = abstract_profile()
    alpha = 0.07
    e = eta(alpha, p.n, p.l, p.s)
    expected = np.array([
        [p.sigma, 0.0, alpha],
        [alpha * p.l * p.y_minus, e, 0.0],
        [
            p.d * p.eps * p.l * p.y_minus * (p.tau + alpha * p.l * p.y * p.y_minus),
            alpha * p.d * p.eps * p.l**2 * p.y * p.y_minus,
            p.sigma + alpha * p.d * p.eps * p.l * p.y_minus,
        ],
    ])
    np.testing.assert_allclose(build_G(p, alpha), expected, atol=1e-15)


def test_zero_step_spectrum_is_sigma_sigma_one():
    p = abstract_profile()
    eig = np.sort(np.linalg.eigvals(build_G(p, 0.0)))
    np.testing.assert_allclose(
        eig, [p.sigma, p.sigma, 1.0], atol=1e-10
    )
    assert spectral_radius(build_G(p, 0.0)) == pytest.approx(1.0, abs=1e-12)


def test_largest_eigenvalue_slope_at_zero_step():
    p = abstract_profile()
    h = 1e-6
    slope = (spectral_radius(build_G(p, h)) - 1.0) / h
    assert slope == pytest.approx(-p.n * p.s, rel=0.01)


def test_radius_below_one_inside_certified_range(fig1_profile):
    bound = alpha_upper_bound(fig1_profile)
    for frac in np.linspace(0.05, 0.99, 10):
        assert spectral_radius(build_G(fig1_profile, frac * bound)) < 1.0


def test_unit_crossing_is_a_root_of_the_characteristic_poly(fig1_profile):
    crossing = alpha_unit_crossing(fig1_profile)
    g = build_G(fig1_profile, crossing)
    assert abs(np.linalg.det(np.eye(3) - g)) < 1e-9
    assert spectral_radius(g) == pytest.approx(1.0, abs=1e-9)


def test_unit_crossing_agrees_with_bisection(fig1_profile):
    closed = alpha_unit_crossing(fig1_profile)
    lo, hi = closed / 2, closed * 4
    assert spectral_radius(build_G(fig1_profile, lo)) < 1.0
    assert spectral_radius(build_G(fig1_profile, hi)) > 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if spectral_radius(build_G(fig1_profile, mid)) < 1.0:
            lo = mid
        else:
            hi = mid
    assert abs(closed - lo) < 1e-8


def test_upper_bound_caps_at_inverse_total_curvature():
    # a profile with very mild mixing constants: the crossing exceeds the
    # 1/(n l) cap and the cap must win
    p = abstract_profile(sigma=0.01, tau=0.1, eps=0.1, y=1.0, y_minus=1.0,
                         d=1.0, l=0.1, s=0.1, n=2)
    assert alpha_unit_crossing(p) > 1.0 / (p.n * p.l)
    assert alpha_upper_bound(p) == 1.0 / (p.n * p.l)


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=20)
def test_spectral_radius_matches_eigvals(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((4, 4))
    assert spectral_radius(m) == pytest.approx(
        np.max(np.abs(np.linalg.eigvals(m)))
    )


def test_vanishing_correction_matrix_pattern():
    p = abstract_profile()
    alpha, gamma1, big_t = 0.05, 0.8, 3.0
    h5 = build_H(p, alpha, gamma1, big_t, k=5)
    decay = big_t * gamma1**4
    expected = np.zeros((3, 3))
    expected[1, 0] = alpha * p.l * p.y_minus * decay
    expected[2, 0] = (alpha * p.l * p.y + 2.0) * p.d * p.eps * p.l * p.y_minus**2 * decay
    np.testing.assert_allclose(h5, expected, atol=1e-15)
    # geometric decay from one iteration to the next
    np.testing.assert_allclose(build_H(p, alpha, gamma1, big_t, k=6), gamma1 * h5)


# ---------------------------------------------------------------------------
# trajectory error vector and the recursion check
# ---------------------------------------------------------------------------


def test_error_vector_closed_form_two_agents():
    objs = (
        objectives.Quadratic([2.0], [1.0]),
        objectives.Quadratic([-1.0], [3.0]),
    )
    inst = experiments.prepare(digraph.complete_digraph(2), objs)
    l, s = objectives.network_constants(objs)
    profile = build_profile(inst.weights, l, s)
    opt = inst.optimum
    z_star = (1.0 * 2.0 + 3.0 * -1.0) / (1.0 + 3.0)
    np.testing.assert_allclose(opt.z_star, [z_star], atol=1e-10)
    swarm = next(iterate("addopt", inst, 0.0))
    t = t_vector(swarm, profile, opt.z_star)
    # symmetric two-agent mixing: sigma = 0 and the norm transform is trivial
    assert profile.sigma == 0.0
    expected = np.array([
        0.0,
        math.sqrt(2.0) * abs(z_star),
        abs(3.0 * -1.0 - 1.0 * 2.0) / math.sqrt(2.0),
    ])
    np.testing.assert_allclose(t, expected, atol=1e-12)


def test_error_vector_zero_at_consensus_optimum(fig1_profile, canonical_inst,
                                                canonical_opt):
    z_star = canonical_opt.z_star
    y_inf = 10 * fig1_profile.spectral.pi
    grad = objectives.stacked_gradient(
        canonical_inst.problem, np.tile(z_star, (10, 1))
    )
    gbar = grad.mean(axis=0)
    swarm = algorithms.AgentSwarm(
        x=np.outer(y_inf, z_star),
        y=y_inf.copy(),
        z=np.tile(z_star, (10, 1)),
        w=np.outer(y_inf, gbar),
        grad=grad,
        k=0,
    )
    t = t_vector(swarm, fig1_profile, z_star)
    np.testing.assert_allclose(t, 0.0, atol=1e-10)


def test_error_vector_requires_tracker_and_spectral_data(fig1_graph, fig1_profile):
    inst = experiments.prepare(fig1_graph, quadratic_set(10, 2, seed=0))
    baseline = next(iterate("gp", inst, "1/sqrt(k)"))
    with pytest.raises(ValueError, match="tracker"):
        t_vector(baseline, fig1_profile, np.zeros(2))
    bare = abstract_profile()
    tracked = next(iterate("addopt", inst, 0.0))
    with pytest.raises(ValueError, match="spectral"):
        t_vector(tracked, bare, np.zeros(2))


def test_error_vector_nonnegative_along_run(fig1_profile, canonical_inst, canonical_opt):
    states = islice(iterate("addopt", canonical_inst, 0.001), 51)
    for s in states:
        t = t_vector(s, fig1_profile, canonical_opt.z_star)
        assert np.all(t >= 0.0)


def test_error_vector_decay_rate_bounded_by_radius(fig1_profile, canonical_inst,
                                                   canonical_opt):
    alpha = 0.6 * alpha_upper_bound(fig1_profile)
    rho = spectral_radius(build_G(fig1_profile, alpha))
    states = islice(iterate("addopt", canonical_inst, alpha), 601)
    norms = np.array(
        [np.linalg.norm(t_vector(s, fig1_profile, canonical_opt.z_star))
         for s in states]
    )
    fit = fit_log_linear(np.arange(norms.size, dtype=float), norms)
    assert math.exp(fit.slope) <= rho + 0.05


# ---------------------------------------------------------------------------
# envelope fitting and the elementwise recursion check
# ---------------------------------------------------------------------------


def envelope_ratios(weights, steps: int = 2000, floor: float = 1e-13) -> np.ndarray:
    """``max|y_k - n pi| / (big_t gamma1^k)`` for the samples above ``floor``.

    The computed ``y`` flattens at the roundoff floor while the envelope
    keeps falling, so samples at or below it are left out.
    """
    gamma1, big_t = push_sum_envelope(digraph.spectral_data(weights))
    limit = weights.n * digraph.perron_limit(weights)
    y = np.ones(weights.n)
    ratios = []
    for k in range(steps + 1):
        dev = float(np.max(np.abs(y - limit)))
        if dev > floor:
            ratios.append(dev / (big_t * gamma1**k))
        y = weights.entries @ y
    return np.array(ratios)


def test_envelope_dominates_measured_deviations(fig1_weights):
    gamma1, big_t = push_sum_envelope(digraph.spectral_data(fig1_weights))
    assert 0.0 < gamma1 < 1.0 and big_t > 0.0
    ratios = envelope_ratios(fig1_weights)
    assert ratios.size > 30
    assert ratios.max() <= 1.0


@pytest.mark.parametrize("n", [13, 40, 200])
def test_envelope_dominates_on_random_digraphs(n):
    ratios = envelope_ratios(digraph.uniform_weights(digraph.random_digraph(n, 4 * n, 3)))
    assert ratios.size > 10
    assert ratios.max() <= 1.0


def test_envelope_degenerate_for_doubly_stochastic():
    spec = digraph.spectral_data(digraph.uniform_weights(digraph.ring_digraph(6)))
    assert push_sum_envelope(spec) == (spec.sigma, 0.0)


def test_envelope_single_node_is_zero():
    spec = digraph.spectral_data(digraph.uniform_weights(digraph.Digraph(1)))
    assert push_sum_envelope(spec) == (0.0, 0.0)


def test_key_relation_holds_on_benchmark(fig1_profile, canonical_inst, canonical_opt):
    alpha = 0.5 * alpha_upper_bound(fig1_profile)
    states = islice(iterate("addopt", canonical_inst, alpha), 101)
    report = verify_key_relation(states, fig1_profile, canonical_opt.z_star, alpha)
    assert report.ok
    assert report.steps_checked == 100
    assert report.violations == 0


def test_key_relation_holds_at_zero_step(fig1_profile, canonical_inst, canonical_opt):
    states = islice(iterate("addopt", canonical_inst, 0.0), 101)
    report = verify_key_relation(states, fig1_profile, canonical_opt.z_star, 0.0)
    assert report.ok


def test_key_relation_doubly_stochastic_drops_correction():
    data = objectives.generate_dataset(6, 10, 3, seed=9, reg=0.1)
    objs = objectives.logistic_objective(data)
    inst = experiments.prepare(digraph.ring_digraph(6), objs)
    l, s = objectives.network_constants(objs)
    profile = build_profile(inst.weights, l, s)
    assert push_sum_envelope(profile.spectral)[1] == 0.0
    alpha = 0.5 * alpha_upper_bound(profile)
    states = islice(iterate("addopt", inst, alpha), 101)
    report = verify_key_relation(states, profile, inst.optimum.z_star, alpha)
    assert report.ok


def test_key_relation_sensitivity_catches_tight_instances():
    # equal-curvature quadratics leave no slack in the mean-error row: the
    # certified recursion genuinely fails elementwise there, and the checker
    # must say so rather than smooth it over
    objs = quadratic_set(8, 3, seed=0, curvature=1.0)
    inst = experiments.prepare(digraph.random_digraph(8, 12, seed=101), objs)
    profile = build_profile(inst.weights, 1.0, 1.0)
    alpha = 0.5 * alpha_upper_bound(profile)
    states = islice(iterate("addopt", inst, alpha), 201)
    report = verify_key_relation(states, profile, inst.optimum.z_star, alpha)
    assert report.violations > 0
    assert report.worst_margin < 0


def test_key_relation_holds_on_40_node_random_digraph():
    data = objectives.generate_dataset(40, 10, 3, seed=1, reg=0.5)
    objs = objectives.logistic_objective(data)
    inst = experiments.prepare(digraph.random_digraph(40, 160, seed=1), objs)
    l, s = objectives.network_constants(objs)
    profile = build_profile(inst.weights, l, s)
    alpha = 0.5 * alpha_upper_bound(profile)
    states = islice(iterate("addopt", inst, alpha), 201)
    report = verify_key_relation(states, profile, inst.optimum.z_star, alpha)
    assert report.ok


def test_key_relation_runs_on_a_complete_graph():
    # uniform weights on a complete graph mix to the limit in one round, so
    # sigma and the envelope are both 0
    data = objectives.generate_dataset(5, 10, 3, seed=4, reg=0.5)
    objs = objectives.logistic_objective(data)
    inst = experiments.prepare(digraph.complete_digraph(5), objs)
    l, s = objectives.network_constants(objs)
    profile = build_profile(inst.weights, l, s)
    assert push_sum_envelope(profile.spectral) == (0.0, 0.0)
    alpha = 0.5 * alpha_upper_bound(profile)
    states = islice(iterate("addopt", inst, alpha), 51)
    report = verify_key_relation(states, profile, inst.optimum.z_star, alpha)
    assert report.ok


def test_key_relation_needs_two_states(fig1_profile, canonical_opt):
    with pytest.raises(ValueError, match="two recorded states"):
        verify_key_relation([], fig1_profile, canonical_opt.z_star, 0.1)


# ---------------------------------------------------------------------------
# log-linear fitting
# ---------------------------------------------------------------------------


def test_fit_log_linear_exact_geometric():
    ks = np.arange(50, dtype=float)
    fit = fit_log_linear(ks, 3.0 * 0.9**ks)
    assert fit.slope == pytest.approx(math.log(0.9), abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.points == 50


@pytest.mark.parametrize("points", [1, 2])
def test_fit_log_linear_needs_three_points(points):
    ks = np.arange(points, dtype=float)
    with pytest.raises(ValueError, match="three points"):
        fit_log_linear(ks, 0.5**ks)


def test_fit_log_linear_rejects_a_flat_window():
    # equal points carry no rate: no line is reported, not slope 0 with R^2 = 1
    with pytest.raises(ValueError, match="not all equal"):
        fit_log_linear(np.arange(5.0), np.full(5, 0.3))


def test_verify_key_relation_needs_spectral_data():
    with pytest.raises(ValueError, match="without spectral data"):
        verify_key_relation([], abstract_profile(), np.zeros(3), 0.01)


def test_residual_slope_window_excludes_floor_and_overshoot():
    ks = np.arange(60)
    residual = 0.8 ** ks.astype(float)
    residual[0] = 2.0        # above the window: ignored
    residual[-5:] = 1e-14    # numeric floor: ignored
    trace = Trace(
        algorithm="addopt", alpha_label="0.1", ks=ks, residual=residual,
        consensus_err=np.zeros(60), tracking_err=np.zeros(60),
        gap=np.zeros(60),
    )
    fit = residual_slope(trace)
    assert fit.slope == pytest.approx(math.log(0.8), abs=1e-9)
    assert fit.points == 54
