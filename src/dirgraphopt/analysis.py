"""Convergence analysis for the tracked push-sum engine.

The contraction argument for the constant-step engine bounds a
three-component error vector

    t_k = [ |x_k - Y_inf xbar_k|_S,  |xbar_k - z*|_2,  |w_k - Y_inf gbar_k|_S ]

by a linear recursion ``t_k <= G(alpha) t_{k-1} + H_{k-1} s_{k-1}`` with a
nonnegative 3x3 matrix ``G(alpha)`` built from graph and objective
constants, and a vanishing correction ``H_k`` driven by the geometric decay
of the de-biasing scalars.  This module builds ``G``/``H``, computes the
closed-form step-size ceiling below which ``rho(G) < 1``, gives the
certified decay envelope of the de-biasing scalars in closed form, and
verifies the recursion on recorded trajectories.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algorithms import AgentSwarm, Trace
from .digraph import SpectralData, WeightMatrix, spectral_data

__all__ = [
    "ConvergenceProfile",
    "KeyRelationReport",
    "LinearFit",
    "build_profile",
    "push_sum_extremes",
    "eta",
    "build_G",
    "build_H",
    "spectral_radius",
    "alpha_unit_crossing",
    "alpha_upper_bound",
    "t_vector",
    "push_sum_envelope",
    "verify_key_relation",
    "fit_log_linear",
    "residual_slope",
]


@dataclass(frozen=True)
class ConvergenceProfile:
    """Scalar constants feeding the error recursion.

    ``sigma/tau/eps`` come from the mixing matrix, ``l/s`` are the uniform
    objective curvature bounds, ``y/y_minus`` bound the de-biasing scalars
    and their inverses over the whole run, and ``d`` bounds the contraction
    norm by the plain one (the plain norm never exceeds the contraction
    norm).  ``spectral`` keeps the underlying norm data when the profile was
    built from an actual graph.
    """

    n: int
    l: float
    s: float
    sigma: float
    tau: float
    eps: float
    y: float
    y_minus: float
    d: float
    spectral: SpectralData | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.l <= 0 or not 0.0 < self.s <= self.l:
            raise ValueError("need n >= 1 and 0 < s <= l")
        if not 0.0 <= self.sigma < 1.0:
            raise ValueError(f"sigma must lie in [0, 1), got {self.sigma}")
        if self.y < 1.0 - 1e-12 or self.y_minus < 1.0 - 1e-12:
            raise ValueError("de-biasing extremes y, y_minus are always >= 1")
        if self.d < 1.0 - 1e-12:
            raise ValueError("norm-equivalence constant d is always >= 1")


#: where :func:`push_sum_extremes` stops: the distance to the limit, the step budget
_PUSH_SUM_TOL = 1e-12
_PUSH_SUM_MAX_STEPS = 200_000


def push_sum_extremes(weights: WeightMatrix) -> tuple[float, float]:
    """Suprema of the de-biasing scalars and their inverses over all k.

    Iterates ``y <- A y`` from the all-ones vector, keeping running maxima of
    ``max_i y_i`` and ``1 / min_i y_i`` until y is within ``_PUSH_SUM_TOL``
    of its limit ``n weights.pi``; the limit values are folded into the maxima.
    """
    limit = weights.n * weights.pi
    y = np.ones(weights.n)
    hi = 1.0
    lo_inv = 1.0
    for _ in range(_PUSH_SUM_MAX_STEPS):
        hi = max(hi, float(y.max()))
        lo_inv = max(lo_inv, 1.0 / float(y.min()))
        if float(np.max(np.abs(y - limit))) <= _PUSH_SUM_TOL:
            break
        y = weights.entries @ y
    return max(hi, float(limit.max())), max(lo_inv, 1.0 / float(limit.min()))


def build_profile(
    weights: WeightMatrix, l: float, s: float, slack: float | None = None
) -> ConvergenceProfile:
    """Assemble the full constant profile of a mixing matrix and curvature pair."""
    spec = spectral_data(weights, slack)
    y, y_minus = push_sum_extremes(weights)
    return ConvergenceProfile(
        n=weights.n,
        l=l,
        s=s,
        sigma=spec.sigma,
        tau=spec.tau,
        eps=spec.eps,
        y=y,
        y_minus=y_minus,
        d=spec.d,
        spectral=spec,
    )


def eta(alpha: float, n: int, l: float, s: float) -> float:
    """Contraction factor of a centralized gradient step on the summed objective."""
    return max(abs(1.0 - n * alpha * l), abs(1.0 - n * alpha * s))


def build_G(profile: ConvergenceProfile, alpha: float) -> np.ndarray:
    """Step-size-dependent 3x3 coefficient matrix of the error recursion."""
    p = profile
    return np.array(
        [
            [p.sigma, 0.0, alpha],
            [alpha * p.l * p.y_minus, eta(alpha, p.n, p.l, p.s), 0.0],
            [
                p.d * p.eps * p.l * p.y_minus * (p.tau + alpha * p.l * p.y * p.y_minus),
                alpha * p.d * p.eps * p.l**2 * p.y * p.y_minus,
                p.sigma + alpha * p.d * p.eps * p.l * p.y_minus,
            ],
        ]
    )


def build_H(
    profile: ConvergenceProfile,
    alpha: float,
    gamma1: float,
    big_t: float,
    k: int,
) -> np.ndarray:
    """Vanishing correction matrix at iteration ``k`` (geometric in ``gamma1``)."""
    p = profile
    # gamma1 = sigma is 0 on one node and on complete graphs, where big_t = 0
    decay = big_t * gamma1 ** (k - 1) if big_t else 0.0
    return np.array(
        [
            [0.0, 0.0, 0.0],
            [alpha * p.l * p.y_minus * decay, 0.0, 0.0],
            [
                (alpha * p.l * p.y + 2.0) * p.d * p.eps * p.l * p.y_minus**2 * decay,
                0.0,
                0.0,
            ],
        ]
    )


def spectral_radius(m: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def alpha_unit_crossing(profile: ConvergenceProfile) -> float:
    """Positive step size at which the recursion matrix acquires eigenvalue 1.

    Setting ``q = 1`` in ``det(q I - G(alpha)) = 0`` (with the small-step
    branch ``eta = 1 - n alpha s``) reduces to a quadratic in alpha with
    exactly one positive root, evaluated here in its cancellation-free form.
    On a 1-node graph ``eps = 0``, the quadratic degenerates to
    ``const = 0`` and has no root; the result is then ``inf``, which leaves
    the ``1/(n l)`` cap of :func:`alpha_upper_bound` in force.
    """
    p = profile
    if p.eps == 0.0:
        return math.inf
    quad = p.d * p.eps * p.l**2 * p.y * p.y_minus**2 * (p.l + p.n * p.s)
    lin = p.n * p.s * p.d * p.eps * p.l * p.y_minus * (1.0 - p.sigma + p.tau)
    const = p.n * p.s * (1.0 - p.sigma) ** 2
    return 2.0 * const / (lin + math.sqrt(lin**2 + 4.0 * quad * const))


def alpha_upper_bound(profile: ConvergenceProfile) -> float:
    """Certified step-size ceiling: ``rho(G(alpha)) < 1`` for alpha below it."""
    return min(alpha_unit_crossing(profile), 1.0 / (profile.n * profile.l))


def t_vector(
    swarm: AgentSwarm, profile: ConvergenceProfile, z_star: np.ndarray
) -> np.ndarray:
    """Three-component error vector of one recorded state."""
    spec = profile.spectral
    if spec is None:
        raise ValueError("profile was built without spectral data")
    if swarm.w is None or swarm.grad is None:
        raise ValueError("error vector needs the gradient tracker")
    y_inf = profile.n * spec.pi
    xbar = swarm.x.mean(axis=0)
    gbar = swarm.grad.mean(axis=0)
    return np.array(
        [
            spec.vector_norm(swarm.x - np.outer(y_inf, xbar)),
            math.sqrt(profile.n) * float(np.linalg.norm(xbar - z_star)),
            spec.vector_norm(swarm.w - np.outer(y_inf, gbar)),
        ]
    )


def push_sum_envelope(spectral: SpectralData) -> tuple[float, float]:
    """Certified envelope ``max_i |y_k - n pi|_i <= big_t * gamma1**k``.

    The de-biasing scalars obey ``y_k - n pi = (A - A_inf)^k (1 - n pi)``,
    and ``A - A_inf`` contracts by ``sigma`` in the norm ``|.|_S``.  With
    ``|v|_2 <= |v|_S <= d |v|_2`` that gives ``gamma1 = sigma`` and
    ``big_t = d |1 - n pi|_2``.  On doubly stochastic weights (and on one
    node) ``big_t`` is 0.
    """
    dev = 1.0 - spectral.n * spectral.pi
    return spectral.sigma, spectral.d * float(np.linalg.norm(dev))


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r2: float
    points: int


def fit_log_linear(xs: np.ndarray, ys: np.ndarray) -> LinearFit:
    """Least-squares line through ``(xs, log(ys))`` with its R^2; fewer than
    three points, or a flat ``log(ys)``, show no rate and raise ``ValueError``."""
    xs = np.asarray(xs, dtype=float)
    logs = np.log(np.asarray(ys, dtype=float))
    if xs.size < 3 or np.ptp(logs) == 0.0:
        raise ValueError("need at least three points, not all equal, to fit a line")
    slope, intercept = np.polyfit(xs, logs, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    return LinearFit(float(slope), float(intercept), r2, int(xs.size))


#: residuals at or below this floor are left out of :func:`residual_slope`
_FIT_FLOOR = 1e-12


def residual_slope(trace: Trace, hi: float = 1.0) -> LinearFit:
    """Linear-rate fit of the log-residual over the window
    ``_FIT_FLOOR < r <= hi``.

    Iterations at or below ``_FIT_FLOOR`` are excluded: once a residual hits
    the numeric floor its value carries no rate information.
    """
    mask = (trace.residual > _FIT_FLOOR) & (trace.residual <= hi)
    return fit_log_linear(trace.ks[mask], trace.residual[mask])


#: Some components of the recursion hold with equality (e.g. the mean-error
#: row at ``alpha = 0``), so a violation needs this much relative slack: the
#: accumulated-roundoff scale of a long trajectory rather than single-step
#: machine precision.
_KEY_RELATION_RTOL = 1e-9


@dataclass(frozen=True)
class KeyRelationReport:
    """Outcome of checking the error recursion along a trajectory."""

    steps_checked: int
    violations: int
    worst_margin: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


def verify_key_relation(
    states, profile: ConvergenceProfile, z_star: np.ndarray, alpha: float
) -> KeyRelationReport:
    """Check ``t_k <= G t_{k-1} + H_{k-1} s_{k-1}`` elementwise along a run.

    ``states`` is an iterable of a tracked engine's states ``k = 0, 1, ...``,
    such as ``itertools.islice(algorithms.iterate("addopt", inst, alpha), K + 1)``;
    it is walked once, pairwise, and not kept.  ``s_k = [|x_k|_2, 0, 0]``,
    and ``H`` decays with the certified push-sum envelope
    ``push_sum_envelope(profile.spectral)``, so a profile without spectral
    data raises ``ValueError``.
    A component counts as violated when it exceeds its bound by more than
    ``_KEY_RELATION_RTOL`` relative slack; the worst (most negative) margin
    across all steps is reported.  Fewer than two states raise ``ValueError``.
    """
    if profile.spectral is None:
        raise ValueError("profile was built without spectral data")
    gamma1, big_t = push_sum_envelope(profile.spectral)
    g_mat = build_G(profile, alpha)
    violations = k = 0
    worst = math.inf
    pairs = itertools.pairwise((s, t_vector(s, profile, z_star)) for s in states)
    for k, ((prev, t_prev), (_, t_cur)) in enumerate(pairs, start=1):
        s_prev = np.array([float(np.linalg.norm(prev.x)), 0.0, 0.0])
        h_prev = build_H(profile, alpha, gamma1, big_t, k - 1)
        bound = g_mat @ t_prev + h_prev @ s_prev
        slack = bound - t_cur
        worst = min(worst, float(slack.min()))
        tol = _KEY_RELATION_RTOL * np.maximum(1.0, np.abs(bound))
        violations += int(np.sum(slack < -tol))
    if k == 0:
        raise ValueError("need at least two recorded states")
    return KeyRelationReport(
        steps_checked=k, violations=violations, worst_margin=worst
    )
