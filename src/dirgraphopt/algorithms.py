"""Decentralized first-order methods over column-stochastic mixing matrices.

Three engines share one state container and one driver, :func:`iterate`:

* ``addopt`` -- push-sum consensus plus gradient tracking with a constant
  step; per iteration, with mixing matrix A and tracker w::

      x <- A x - alpha * w
      y <- A y
      z <- x / y            (entrywise de-biasing, row by row)
      w <- A w + grad(z_new) - grad(z_old)

* ``dextra`` -- a two-step corrected scheme over the same push-sum ratio::

      x <- (I + A) x - (theta I + (1-theta) A) x_prev
             - alpha * (grad(z) - grad(z_prev))

* ``gradient_push`` -- plain push-sum mixing with a (typically diminishing)
  subgradient correction and no tracker; baseline quality only.

All engines are synchronous, deterministic, and operate on row-stacked
states: row ``i`` of every array belongs to agent ``i``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .digraph import WeightMatrix
from .objectives import Optimum, StackedProblem, stacked_gradient

__all__ = [
    "OVERFLOW_GUARD",
    "ALGORITHMS",
    "DivergenceError",
    "Instance",
    "AgentSwarm",
    "Trace",
    "addopt_step",
    "dextra_tilde",
    "dextra_step",
    "gradient_push_step",
    "iterate",
    "run",
    "inv_sqrt_steps",
    "write_trace_csv",
]

#: any |x| entry beyond this signals divergence
OVERFLOW_GUARD = 1e150

#: the engine that each accepted algorithm name runs (``gp`` is an alias)
ALGORITHMS = {"addopt": "addopt", "dextra": "dextra", "gp": "gradient_push",
              "gradient_push": "gradient_push"}


class DivergenceError(RuntimeError):
    """An iterate left the overflow guard; carries the iteration index.

    When raised by :func:`run`, ``trace`` holds the records of iterations
    ``0 .. iteration - 1``, the last finite ones.
    """

    def __init__(self, iteration: int, message: str | None = None) -> None:
        super().__init__(message or f"iterate diverged at iteration {iteration}")
        self.iteration = iteration
        self.trace: Trace | None = None


@dataclass(frozen=True)
class Instance:
    """The problem every lane of a command runs on: the mixing ``weights``
    (with their stationary vector ``weights.pi``), the stacked ``problem``
    and its ``optimum``, as :func:`~dirgraphopt.experiments.prepare` builds
    them together.  Every engine step reads ``weights`` and ``problem`` from
    it; the states that :func:`iterate` yields hold only iterates."""

    weights: WeightMatrix
    problem: StackedProblem
    optimum: Optimum


@dataclass(slots=True)
class AgentSwarm:
    """Joint state of all agents at one synchronous iteration.

    ``x`` are raw push-sum states, ``y`` the positive de-biasing scalars
    (summing to n for column-stochastic mixing), ``z = x / y`` the estimates,
    ``w`` the gradient tracker (engines without tracking leave it ``None``).
    ``grad`` caches each agent's gradient at its current ``z``; two-step
    engines also keep the previous ``x`` and gradient.  The state holds only
    iterates: the mixing weights and the stacked problem are fixed data of
    the :class:`Instance` that every step takes.

    A step builds a new state and never writes into the arrays of the one it
    reads: the trace recorder keeps those arrays until its block is reduced.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    w: np.ndarray | None
    grad: np.ndarray | None
    k: int
    x_prev: np.ndarray | None = None
    grad_prev: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.x.shape[0]


def _check_finite(x: np.ndarray, k: int) -> None:
    # ``max`` propagates NaN, so NaN fails the comparison like an overflow
    if not np.maximum.reduce(np.abs(x), axis=None) <= OVERFLOW_GUARD:
        raise DivergenceError(k)


def _default_z0(problem: StackedProblem, z0) -> np.ndarray:
    n, p = problem.n, problem.dim
    if z0 is None:
        return np.zeros((n, p))
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (n, p):
        raise ValueError(f"z0 must have shape {(n, p)}, got {z0.shape}")
    # the comparison is false for NaN, so NaN is rejected with the overflows
    if not np.all(np.abs(z0) <= OVERFLOW_GUARD):
        raise ValueError(
            f"z0 entries must be finite and at most {OVERFLOW_GUARD:g} in magnitude"
        )
    return z0.copy()


def addopt_step(s: AgentSwarm, inst: Instance, alpha: float) -> AgentSwarm:
    """One tracked push-sum iteration; all updates read the pre-step state.

    Each update accumulates into its fresh mixed product, in the operation
    order of ``x = A x - alpha w`` and ``w = A w + grad - grad_old``.  The
    mixes call ``ndarray.dot``, which makes the same BLAS call as ``@`` on
    2-D operands with less dispatch overhead."""
    a = inst.weights.entries
    x = a.dot(s.x)
    x -= alpha * s.w
    _check_finite(x, s.k + 1)
    y = a.dot(s.y)
    z = x / y[:, None]
    grad = stacked_gradient(inst.problem, z)
    w = a.dot(s.w)
    w += grad
    w -= s.grad
    return AgentSwarm(x, y, z, w, grad, s.k + 1)


def dextra_tilde(weights: WeightMatrix, theta: float) -> WeightMatrix:
    """Corrector matrix ``theta I + (1-theta) A`` for the two-step engine."""
    if not 0.0 < theta <= 0.5:
        raise ValueError(f"theta must lie in (0, 0.5], got {theta}")
    n = weights.n
    return WeightMatrix(theta * np.eye(n) + (1.0 - theta) * weights.entries)


def dextra_step(
    s: AgentSwarm, inst: Instance, alpha: float, tilde: WeightMatrix
) -> AgentSwarm:
    """One corrected two-step iteration; a start state (no ``x_prev``) takes
    the bootstrap step ``x1 = A x0 - alpha * grad(z0)`` instead."""
    a = inst.weights.entries
    grad = stacked_gradient(inst.problem, s.z)
    x = a.dot(s.x)
    if s.x_prev is None:
        x -= alpha * grad
    else:
        # x + A x - tilde x_prev - alpha (grad - grad_prev), in that order
        x += s.x
        x -= tilde.entries.dot(s.x_prev)
        x -= alpha * (grad - s.grad_prev)
    _check_finite(x, s.k + 1)
    y = a.dot(s.y)
    z = x / y[:, None]
    return AgentSwarm(
        x, y, z, w=None, grad=None, k=s.k + 1, x_prev=s.x, grad_prev=grad
    )


def gradient_push_step(s: AgentSwarm, inst: Instance, alpha_k: float) -> AgentSwarm:
    """Plain push-sum mix, then a subgradient correction at the de-biased point."""
    a = inst.weights.entries
    x = a.dot(s.x)
    y = a.dot(s.y)
    z = x / y[:, None]
    x -= alpha_k * stacked_gradient(inst.problem, z)
    _check_finite(x, s.k + 1)
    return AgentSwarm(x, y, z, w=None, grad=None, k=s.k + 1)


def inv_sqrt_steps(k: int) -> float:
    """Diminishing schedule 1/sqrt(k) for the k-th step (k >= 1)."""
    return 1.0 / math.sqrt(k)


@dataclass
class Trace:
    """Per-iteration diagnostics of one run.

    ``residual`` is ``|z_k - z*| / |z0 - z*|`` over the stacked states;
    ``consensus_err`` and ``tracking_err`` measure distance of x (resp. the
    tracker w) from its weighted-average ray; ``gap`` is the distance of the
    network average from the optimum.  One record per iteration, including
    the initial state.
    """

    algorithm: str
    alpha_label: str
    ks: np.ndarray
    residual: np.ndarray
    consensus_err: np.ndarray
    tracking_err: np.ndarray
    gap: np.ndarray

    @property
    def records(self) -> int:
        return len(self.ks)

    @property
    def iterations(self) -> int:
        return int(self.ks[-1])

    @property
    def final_residual(self) -> float:
        return float(self.residual[-1])


#: the trace recorder reduces a block of steps once it holds about this many
#: state entries per array (n * p per step), so its memory is flat in n, or
#: once it holds this many steps: at small n * p the entry budget alone would
#: keep thousands of states alive (32768 at n = p = 1, 1092 on fig1), and the
#: block-edge tests, which run two blocks per case, would take that many steps
_RECORD_BLOCK_ELEMENTS = 2**15
_RECORD_BLOCK_STEPS = 256


def _block_steps(n: int, p: int) -> int:
    """Steps per trace-recorder block for ``(n, p)`` states (at least one)."""
    return max(1, min(_RECORD_BLOCK_STEPS, _RECORD_BLOCK_ELEMENTS // (n * p)))


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each ``d[i]``, flattened.

    A ``1 x N`` by ``N x 1`` matmul calls the BLAS ``ddot`` that
    ``np.linalg.norm`` calls, so each entry is bit-equal to the norm of
    ``d[i]`` taken on its own.
    """
    d = d.reshape(len(d), -1)
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None]).ravel())


class _Recorder:
    """Builds the :class:`Trace` columns of one run, a block of steps at a time.

    :meth:`record` computes only the residual, which ``stop_tol`` needs at
    once, and keeps the step's ``x`` (plus ``w`` and ``grad`` when the engine
    tracks).  When a block fills, and in :meth:`trace`, the kept states are
    stacked and ``consensus_err``, ``tracking_err`` and ``gap`` are computed
    for the whole block.  The means reduce each state exactly as
    ``mean(axis=0)`` does and the norms are the same ``ddot``, so every column
    is bit-equal to computing it step by step.  ``y_inf`` times the mean is a
    ``matmul`` with an inner length of one: each entry is the single product
    ``y_inf[i] * xbar[k]``, up to the sign of a zero, which the norm squares
    away.
    """

    def __init__(self, target, denom, z_star, y_inf, tracked: bool):
        n, p = target.shape
        self.n, self.block = n, _block_steps(n, p)
        self.target, self.denom = target, denom
        self.z_star, self.y_inf = z_star, y_inf[:, None]
        self.tracked = tracked
        self.residual: list[float] = []
        self.xs: list[np.ndarray] = []
        self.ws: list[np.ndarray] = []
        self.grads: list[np.ndarray] = []
        self.consensus: list[np.ndarray] = []
        self.tracking: list[np.ndarray] = []
        self.gap: list[np.ndarray] = []

    def record(self, s: AgentSwarm) -> float:
        """Keep step ``s`` and return its residual."""
        d = s.z - self.target
        res = math.sqrt(np.vdot(d, d)) / self.denom
        self.residual.append(res)
        self.xs.append(s.x)
        if self.tracked:
            self.ws.append(s.w)
            self.grads.append(s.grad)
        if len(self.xs) == self.block:
            self._flush()
        return res

    def _flush(self) -> None:
        if not self.xs:
            return
        x = np.array(self.xs)
        xbar = x.sum(axis=1) / self.n
        self.consensus.append(_row_norms(x - np.matmul(self.y_inf, xbar[:, None, :])))
        if self.tracked:
            gbar = np.array(self.grads).sum(axis=1) / self.n
            w = np.array(self.ws)
            self.tracking.append(_row_norms(w - np.matmul(self.y_inf, gbar[:, None, :])))
        else:
            self.tracking.append(np.full(len(self.xs), np.nan))
        self.gap.append(np.sqrt(self.n) * _row_norms(xbar - self.z_star))
        self.xs.clear()
        self.ws.clear()
        self.grads.clear()

    def trace(self, algorithm: str, alpha_label: str) -> Trace:
        self._flush()
        return Trace(
            algorithm=algorithm,
            alpha_label=alpha_label,
            ks=np.arange(len(self.residual)),
            residual=np.array(self.residual),
            consensus_err=np.concatenate(self.consensus),
            tracking_err=np.concatenate(self.tracking),
            gap=np.concatenate(self.gap),
        )


def _step_rule(algorithm: str, alpha):
    """Engine name, step rule ``k -> alpha_k`` and step label of a run.

    ``alpha`` is a constant step; the baseline also accepts the string
    ``"1/sqrt(k)"``.
    """
    engine = ALGORITHMS.get(algorithm)
    if engine is None:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}")
    if isinstance(alpha, str):
        if alpha.replace(" ", "") != "1/sqrt(k)":
            raise ValueError(f"unrecognized step-size spec {alpha!r}")
        if engine != "gradient_push":
            raise ValueError(f"{engine} requires a constant step size")
        return engine, inv_sqrt_steps, "1/sqrt(k)"
    const = float(alpha)
    return engine, (lambda k: const), repr(const)


def iterate(
    algorithm: str, inst: Instance, alpha, *, z0=None, theta: float = 0.5,
) -> Iterator[AgentSwarm]:
    """Yield the states ``k = 0, 1, 2, ...`` of one engine on ``inst``,
    without end.

    Every engine starts from ``x = z = z0`` (zeros by default) and unit
    de-biasing scalars; ``addopt`` seeds its tracker with ``grad(z0)``.  The
    arguments are those of :func:`run` and are checked by this call, not at
    the first ``next()``.  A step that leaves the overflow guard raises
    :class:`DivergenceError` from ``next()``.  Take a finite run with
    ``itertools.islice(iterate(...), K + 1)``.
    """
    engine, alpha_fn, _ = _step_rule(algorithm, alpha)
    problem = inst.problem
    z = _default_z0(problem, z0)
    s = AgentSwarm(z, np.ones(problem.n), z, w=None, grad=None, k=0)
    # the step functions are looked up here, at each call, so that rebinding
    # a module-level name (a timer, a test double) reaches the next run
    if engine == "addopt":
        s.w = s.grad = stacked_gradient(problem, z)
        step, extra = addopt_step, ()
    elif engine == "dextra":
        step, extra = dextra_step, (dextra_tilde(inst.weights, theta),)
    else:
        step, extra = gradient_push_step, ()

    def states(s: AgentSwarm) -> Iterator[AgentSwarm]:
        yield s
        for k in itertools.count(1):
            s = step(s, inst, alpha_fn(k), *extra)
            yield s

    return states(s)


def run(
    algorithm: str,
    inst: Instance,
    alpha,
    max_iters: int,
    stop_tol: float = 0.0,
    *,
    z0=None,
    theta: float = 0.5,
) -> Trace:
    """Record :func:`iterate` on ``inst`` for ``max_iters`` iterations (or
    until the residual reaches ``stop_tol``).

    Residuals and the gap are measured against ``inst.optimum.z_star``, the
    consensus and tracking errors against the ray of ``inst.weights.pi``.
    Deterministic: same inputs, same trace.  ``max_iters = 0`` records the
    start state only; a negative count, or a ``stop_tol`` that is negative
    or not finite, raises ``ValueError``.
    """
    engine, _, alpha_label = _step_rule(algorithm, alpha)
    if max_iters < 0:
        raise ValueError(f"iteration count must be non-negative, got {max_iters}")
    if not 0.0 <= stop_tol < math.inf:
        raise ValueError(f"stop_tol must be finite and non-negative, got {stop_tol}")
    z_star, pi = inst.optimum.z_star, inst.weights.pi

    states = iterate(engine, inst, alpha, z0=z0, theta=theta)
    s = next(states)
    target = np.tile(z_star, (s.n, 1))
    denom = float(np.linalg.norm(s.z - target)) or 1.0
    recorder = _Recorder(target, denom, z_star, s.n * pi, engine == "addopt")
    res = recorder.record(s)
    try:
        for _ in range(max_iters):
            if res <= stop_tol:
                break
            res = recorder.record(next(states))
    except DivergenceError as exc:
        exc.trace = recorder.trace(engine, alpha_label)
        raise
    return recorder.trace(engine, alpha_label)


def write_trace_csv(trace: Trace, path) -> None:
    """Write ``k,residual,consensus_err,tracking_err,gap`` rows.

    The bytes are those of ``csv.writer``: ``repr`` of each float, no
    quoting (no field holds a comma or a quote) and ``\\r\\n`` line ends.
    """
    ks = trace.ks.astype(int, copy=False).tolist()
    columns = (trace.residual, trace.consensus_err, trace.tracking_err, trace.gap)
    rows = zip(ks, *(c.tolist() for c in columns))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,residual,consensus_err,tracking_err,gap\r\n")
        fh.writelines(f"{k},{r!r},{c!r},{t!r},{g!r}\r\n" for k, r, c, t, g in rows)
