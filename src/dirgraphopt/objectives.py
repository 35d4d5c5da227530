"""Per-agent convex objectives, synthetic datasets, and a centralized solver.

Each agent holds a private smooth strongly-convex function; the network's
goal is to minimize the sum.  Two families are provided: separable
quadratics, and L2-regularized logistic losses over per-agent example sets.
Every objective reports its own smoothness and strong-convexity constants so
the analysis layer can build certified step-size bounds.

The engines and the centralized solver never loop over agents: ``stack``
turns the per-agent objects into one batched problem once, whose ``value``,
``gradient`` and ``hessian`` evaluate every agent with a few array
operations; ``value`` and ``gradient`` are bit-equal to the per-agent calls.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

__all__ = [
    "Objective",
    "Quadratic",
    "Logistic",
    "LogisticData",
    "Optimum",
    "UnconvergedSolveError",
    "quadratic_objective",
    "logistic_objective",
    "generate_dataset",
    "save_dataset_csv",
    "load_dataset_csv",
    "centralized_solve",
    "reference_optimum",
    "network_constants",
    "StackedProblem",
    "StackedQuadratic",
    "StackedLogistic",
    "LogisticGroup",
    "stack",
    "stacked_gradient",
    "total_value",
    "total_gradient",
]


class Objective:
    """Smooth strongly-convex function with certified curvature bounds.

    Subclasses must set ``dim``, the gradient-Lipschitz constant
    ``lipschitz`` and the strong-convexity constant ``strong_convexity``,
    and implement ``value`` / ``gradient``.
    """

    dim: int
    lipschitz: float
    strong_convexity: float

    def value(self, z: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Quadratic(Objective):
    """``0.5 * (z - center)' diag(curvature) (z - center)``."""

    center: np.ndarray
    curvature: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.center, dtype=float)
        q = np.asarray(self.curvature, dtype=float)
        if b.ndim != 1 or q.shape != b.shape:
            raise ValueError("center and curvature must be equal-length vectors")
        if np.any(q <= 0):
            raise ValueError("curvature must be strictly positive")
        object.__setattr__(self, "center", b)
        object.__setattr__(self, "curvature", q)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def lipschitz(self) -> float:
        return float(np.max(self.curvature))

    @property
    def strong_convexity(self) -> float:
        return float(np.min(self.curvature))

    def value(self, z: np.ndarray) -> float:
        diff = z - self.center
        return 0.5 * float(diff @ (self.curvature * diff))

    def gradient(self, z: np.ndarray) -> np.ndarray:
        return self.curvature * (z - self.center)


@dataclass(frozen=True)
class Logistic(Objective):
    """Regularized logistic loss over one agent's examples.

    ``value(z) = reg/(2*share) |z|^2 + sum_j log(1 + exp(-label_j f_j' z))``
    where ``share`` is the number of agents splitting the global ridge term.
    The curvature bounds are ``s = reg/share`` and
    ``l = reg/share + sum_j |f_j|^2 / 4``.
    """

    features: np.ndarray
    labels: np.ndarray
    reg: float
    share: int

    def __post_init__(self) -> None:
        f = np.asarray(self.features, dtype=float)
        b = np.asarray(self.labels, dtype=float)
        if f.ndim != 2 or b.shape != (f.shape[0],):
            raise ValueError("features must be (m, p) with one label per row")
        if not np.all(np.isin(b, (-1.0, 1.0))):
            raise ValueError("labels must be +/-1")
        if self.reg <= 0 or self.share < 1:
            raise ValueError("need reg > 0 and share >= 1")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", b)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def lipschitz(self) -> float:
        return self.reg / self.share + 0.25 * float(np.sum(self.features**2))

    @property
    def strong_convexity(self) -> float:
        return self.reg / self.share

    def value(self, z: np.ndarray) -> float:
        margins = self.labels * (self.features @ z)
        # log(1 + exp(-m)) evaluated without overflow for large |m|
        losses = np.logaddexp(0.0, -margins)
        return 0.5 * self.reg / self.share * float(z @ z) + float(losses.sum())

    def gradient(self, z: np.ndarray) -> np.ndarray:
        margins = self.labels * (self.features @ z)
        weights = self.labels * expit(-margins)
        return self.reg / self.share * z - self.features.T @ weights


def quadratic_objective(center, curvature) -> Quadratic:
    return Quadratic(np.asarray(center, float), np.asarray(curvature, float))


@dataclass(frozen=True)
class LogisticData:
    """Per-agent example sets with +/-1 labels and a shared ridge weight."""

    features: tuple[np.ndarray, ...]
    labels: tuple[np.ndarray, ...]
    reg: float

    def __post_init__(self) -> None:
        if len(self.features) != len(self.labels) or not self.features:
            raise ValueError("need one (features, labels) pair per agent")
        dims = {f.shape[1] for f in self.features}
        if len(dims) != 1:
            raise ValueError("all agents must share the feature dimension")
        for f, b in zip(self.features, self.labels):
            if f.shape[0] != b.shape[0] or f.shape[0] < 1:
                raise ValueError("each agent needs >= 1 labeled example")
        if self.reg <= 0:
            raise ValueError("reg must be positive")

    @property
    def n_agents(self) -> int:
        return len(self.features)

    @property
    def dim(self) -> int:
        return self.features[0].shape[1]


def logistic_objective(data: LogisticData) -> tuple[Logistic, ...]:
    """One regularized logistic objective per agent of ``data``."""
    n = data.n_agents
    return tuple(
        Logistic(features=f, labels=b, reg=data.reg, share=n)
        for f, b in zip(data.features, data.labels)
    )


def generate_dataset(
    n: int, m: int, p: int, seed: int, flip: float = 0.1, reg: float = 1.0
) -> LogisticData:
    """Synthetic classification data split across ``n`` agents.

    Features are standard normal; labels come from a planted random
    hyperplane with ``flip`` label-noise probability.  Deterministic in
    ``seed``.
    """
    if n < 1 or m < 1 or p < 1:
        raise ValueError("need n, m, p >= 1")
    rng = np.random.default_rng(seed)
    normal = rng.standard_normal(p)
    normal /= np.linalg.norm(normal)
    features, labels = [], []
    for _ in range(n):
        f = rng.standard_normal((m, p))
        b = np.where(f @ normal >= 0, 1.0, -1.0)
        flips = rng.random(m) < flip
        b[flips] *= -1.0
        features.append(f)
        labels.append(b)
    return LogisticData(tuple(features), tuple(labels), reg)


def save_dataset_csv(data: LogisticData, path) -> None:
    """Write ``agent,label,f1..fp`` rows."""
    p = data.dim
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["agent", "label"] + [f"f{j + 1}" for j in range(p)])
        for agent, (f, b) in enumerate(zip(data.features, data.labels)):
            for row, label in zip(f, b):
                writer.writerow([agent, int(label)] + [repr(float(v)) for v in row])


def load_dataset_csv(path, reg: float = 1.0) -> LogisticData:
    """Read the ``agent,label,f1..fp`` rows that :func:`save_dataset_csv` writes.

    An empty file, or a malformed row, raises ``ValueError`` naming the file
    (and the line).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if header[:2] != ["agent", "label"]:
            raise ValueError(f"{path}: expected header 'agent,label,f1..fp'")
        p = len(header) - 2
        rows: dict[int, list[tuple[float, list[float]]]] = {}
        for parts in reader:
            if not parts:
                continue
            where = f"{path} line {reader.line_num}"
            if len(parts) != len(header):
                raise ValueError(
                    f"{where}: expected {len(header)} fields, got {len(parts)}"
                )
            try:
                agent = int(parts[0])
                example = (float(parts[1]), [float(v) for v in parts[2:]])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if example[0] not in (-1.0, 1.0):
                raise ValueError(f"{where}: label must be +/-1, got {parts[1]!r}")
            rows.setdefault(agent, []).append(example)
    agents = sorted(rows)
    if agents != list(range(len(agents))):
        raise ValueError(f"{path}: agent ids must be 0..n-1 without gaps")
    features = tuple(np.array([f for _, f in rows[a]]) for a in agents)
    labels = tuple(np.array([b for b, _ in rows[a]]) for a in agents)
    return LogisticData(features, labels, reg)


# ---------------------------------------------------------------------------
# network-level helpers
# ---------------------------------------------------------------------------


def network_constants(objectives) -> tuple[float, float]:
    """Uniform curvature bounds across agents: ``(max l_i, min s_i)``."""
    return (
        max(o.lipschitz for o in objectives),
        min(o.strong_convexity for o in objectives),
    )


def _rowwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for every row: a batched ``1×p`` by ``p×1`` ``matmul``
    makes the same BLAS ``ddot`` call per row as the 1-D ``@``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


class StackedProblem:
    """All agents' objectives in batched form, built by :func:`stack`.

    ``agents`` keeps the per-agent objects in row order.  Each method takes
    an ``(n, p)`` array whose row ``i`` is agent ``i``'s point:

    - ``value(z_rows)``: the ``(n,)`` values, bit-equal to
      ``agents[i].value(z_rows[i])``;
    - ``gradient(z_rows)``: the ``(n, p)`` gradients, bit-equal to
      ``agents[i].gradient(z_rows[i])``;
    - ``hessian(z_rows)``: the ``(n, p, p)`` Hessians.
    """

    agents: tuple

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def dim(self) -> int:
        return self.agents[0].dim

    def value(self, z_rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, z_rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, z_rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _diagonal(self, rows: np.ndarray) -> np.ndarray:
        """``(n, p, p)`` array with ``rows[i]`` on the diagonal of block ``i``."""
        out = np.zeros((self.n, self.dim, self.dim))
        diag = np.arange(self.dim)
        out[:, diag, diag] = rows
        return out


@dataclass(frozen=True)
class StackedQuadratic(StackedProblem):
    """Quadratics as ``(n, p)`` centers and curvatures."""

    agents: tuple[Quadratic, ...]
    center: np.ndarray
    curvature: np.ndarray

    def value(self, z_rows: np.ndarray) -> np.ndarray:
        diff = z_rows - self.center
        return 0.5 * _rowwise_dot(diff, self.curvature * diff)

    def gradient(self, z_rows: np.ndarray) -> np.ndarray:
        return self.curvature * (z_rows - self.center)

    def hessian(self, z_rows: np.ndarray) -> np.ndarray:
        return self._diagonal(self.curvature)


@dataclass(frozen=True)
class LogisticGroup:
    """The agents of a logistic stack that hold ``m`` examples each.

    The features are stored once per sign, already multiplied by the labels:
    ``neg[i, j] = -label_j * f_j`` gives the negated margins ``neg @ z`` that
    ``expit`` and ``logaddexp`` take, and ``pos_t`` is the transposed view of
    ``label_j * f_j`` that projects back onto the features.
    """

    rows: np.ndarray | slice  # agent indices, a slice when they are contiguous
    neg: np.ndarray  # (n_g, m, p): -labels[:, :, None] * features
    pos_t: np.ndarray  # (n_g, p, m): transposed view of labels[:, :, None] * features


@dataclass(frozen=True)
class StackedLogistic(StackedProblem):
    """Logistic losses grouped by example count, plus one ridge weight per row.

    Agents are grouped rather than padded to a common count: a batched
    ``matmul`` over equal-shaped blocks makes the same BLAS call per agent
    as ``features @ z``, so the result keeps the per-agent bits, while
    zero-padded examples would change the summation.

    Each group holds its features multiplied by the labels (see
    :class:`LogisticGroup`).  Multiplying by ``+-1`` is exact, so every
    product in ``neg @ z`` and ``pos_t @ expit(neg @ z)`` is the per-agent
    product up to sign, and the sums are the per-agent sums.  The gradient
    subtracts the positive back-projection, ``ridge * z - pos_t @ e``, as
    the per-agent gradient does: adding ``(-pos_t) @ e`` instead would turn
    its ``-0.0`` into ``+0.0`` where the examples cancel exactly.
    """

    agents: tuple[Logistic, ...]
    ridge: np.ndarray  # (n, 1): reg / share of each agent
    groups: tuple[LogisticGroup, ...]

    @staticmethod
    def _neg_margins(g: LogisticGroup, z_rows: np.ndarray) -> np.ndarray:
        """``(n_g, m, 1)``: each example's ``-label * f' z`` for the group's rows."""
        return np.matmul(g.neg, z_rows[g.rows][:, :, None])

    def value(self, z_rows: np.ndarray) -> np.ndarray:
        out = 0.5 * self.ridge[:, 0] * _rowwise_dot(z_rows, z_rows)
        for g in self.groups:
            # log(1 + exp(-m)) evaluated without overflow for large |m|
            neg_margins = self._neg_margins(g, z_rows)[:, :, 0]
            out[g.rows] += np.logaddexp(0.0, neg_margins).sum(axis=1)
        return out

    def gradient(self, z_rows: np.ndarray) -> np.ndarray:
        out = self.ridge * z_rows
        for g in self.groups:
            e = self._neg_margins(g, z_rows)
            out[g.rows] -= np.matmul(g.pos_t, expit(e, out=e))[:, :, 0]
        return out

    def hessian(self, z_rows: np.ndarray) -> np.ndarray:
        out = self._diagonal(np.broadcast_to(self.ridge, (self.n, self.dim)))
        for g in self.groups:
            neg_margins = self._neg_margins(g, z_rows)[:, :, 0]
            curvature = expit(-neg_margins) * expit(neg_margins)
            # (label f)' diag(c) (label f) = f' diag(c) f: label**2 = 1 exactly
            pos = g.pos_t.transpose(0, 2, 1)
            out[g.rows] += np.matmul(g.pos_t * curvature[:, None, :], pos)
        return out


def _stack_logistic(agents: tuple[Logistic, ...]) -> StackedLogistic:
    counts = np.array([o.features.shape[0] for o in agents])
    groups = []
    for m in np.unique(counts):
        idx = np.flatnonzero(counts == m)
        features = np.stack([agents[i].features for i in idx])
        pos = np.stack([agents[i].labels for i in idx])[:, :, None] * features
        contiguous = idx[-1] - idx[0] + 1 == len(idx)
        groups.append(LogisticGroup(
            # a slice indexes by view instead of by copy
            rows=slice(int(idx[0]), int(idx[-1]) + 1) if contiguous else idx,
            neg=-pos,
            pos_t=pos.transpose(0, 2, 1),
        ))
    ridge = np.array([[o.reg / o.share] for o in agents])
    return StackedLogistic(agents, ridge, tuple(groups))


def stack(objectives) -> StackedProblem:
    """Batched form of a sequence of same-family, same-dimension objectives.

    A :class:`StackedProblem` is returned unchanged.  Raises ``ValueError``
    naming the first agent whose family or dimension differs from agent 0's.
    """
    if isinstance(objectives, StackedProblem):
        return objectives
    agents = tuple(objectives)
    if not agents:
        raise ValueError("need at least one objective to stack")
    family = type(agents[0])
    for i, o in enumerate(agents):
        if type(o) not in (Quadratic, Logistic):
            raise ValueError(
                f"agent {i}: cannot stack {type(o).__name__}; "
                "expected Quadratic or Logistic"
            )
        if type(o) is not family:
            raise ValueError(
                f"agent {i} is {type(o).__name__} but agent 0 is "
                f"{family.__name__}; cannot stack mixed families"
            )
        if o.dim != agents[0].dim:
            raise ValueError(
                f"agent {i} has dimension {o.dim} but agent 0 has {agents[0].dim}"
            )
    if family is Quadratic:
        return StackedQuadratic(
            agents,
            np.stack([o.center for o in agents]),
            np.stack([o.curvature for o in agents]),
        )
    return _stack_logistic(agents)


def stacked_gradient(problem, z_rows: np.ndarray) -> np.ndarray:
    """Row ``i`` is agent ``i``'s gradient at its own point ``z_rows[i]``."""
    return stack(problem).gradient(z_rows)


def _agent_order_sum(rows: np.ndarray) -> np.ndarray:
    """``rows[0] + rows[1] + ...`` added strictly in agent order.

    ``add.accumulate`` adds rows in order, as a running sum does;
    ``sum(axis=0)`` switches to pairwise summation when the summed axis is
    the contiguous one (``(n,)`` values, or ``p == 1``).  The trailing
    ``+ 0.0`` turns a ``-0.0`` into the running sum's ``+0.0``.
    """
    return np.add.accumulate(rows, axis=0)[-1] + 0.0


def _at(problem: StackedProblem, z: np.ndarray) -> np.ndarray:
    """Every agent's row set to the same point ``z``."""
    return np.broadcast_to(z, (problem.n, problem.dim))


def total_value(problem, z: np.ndarray) -> float:
    """Sum of all agents' values at ``z``, added in agent order, so it is
    bit-equal to ``sum(o.value(z) for o in agents)``."""
    problem = stack(problem)
    return float(_agent_order_sum(problem.value(_at(problem, z))))


def total_gradient(problem, z: np.ndarray) -> np.ndarray:
    """Sum of all agents' gradients at ``z``, added in agent order.

    It calls the stack directly, so ``stacked_gradient`` stays one call per
    engine step.
    """
    problem = stack(problem)
    return _agent_order_sum(problem.gradient(_at(problem, z)))


@dataclass(frozen=True)
class Optimum:
    """Minimizer of the network objective together with solve diagnostics."""

    z_star: np.ndarray
    f_star: float
    method: str
    residual_norm: float
    converged: bool
    iterations: int


#: Below this share of ``max(1, |F|)`` the predicted decrease ``g' H^-1 g``
#: of a Newton step is lost in the roundoff of ``F``, so the line search
#: can no longer tell a good step from a bad one and takes the full step.
_UNRESOLVED_DECREASE = 1e-12
#: Armijo's sufficient-decrease fraction and the smallest damping tried.
_ARMIJO = 1e-4
_MIN_DAMPING = 2.0**-40


def centralized_solve(
    objectives, tol_scale: float = 1e-12, max_iters: int = 100
) -> Optimum:
    """Damped Newton on the summed objective ``F``, started at ``z = 0``.

    Each step solves ``H d = g`` with the ``p×p`` total Hessian and gradient,
    both summed over the agents in agent order, and halves the step until
    ``F`` falls by at least 1e-4 of the predicted decrease ``g'd`` (Armijo).
    Once that predicted decrease is below what ``F`` resolves, the full
    Newton step is taken unchecked: a quadratic converges in one step, and
    a logistic loss in a handful.

    Stops once ``|grad F(z)| <= tol_scale * max(1, |z|)``; if ``max_iters``
    steps run out first, the iterate with the smallest gradient norm seen is
    reported with that norm and ``converged = False``.
    """
    problem = stack(objectives)
    z = np.zeros(problem.dim)
    f = total_value(problem, z)
    best_z, best_res = z, np.inf
    converged = False
    iterations = 0
    for iterations in range(max_iters + 1):
        grad = total_gradient(problem, z)
        res = float(np.linalg.norm(grad))
        if res < best_res:
            best_z, best_res = z, res
        if res <= tol_scale * max(1.0, float(np.linalg.norm(z))):
            converged = True
            break
        if iterations == max_iters:
            break
        step = np.linalg.solve(_agent_order_sum(problem.hessian(_at(problem, z))), grad)
        decrease = float(grad @ step)
        t = 1.0
        f_next = total_value(problem, z - step)
        if decrease > _UNRESOLVED_DECREASE * max(1.0, abs(f)):
            while f_next > f - _ARMIJO * t * decrease and t > _MIN_DAMPING:
                t *= 0.5
                f_next = total_value(problem, z - t * step)
        z, f = z - t * step, f_next
    return Optimum(
        z_star=best_z,
        f_star=total_value(problem, best_z),
        method="damped Newton on the total Hessian, Armijo backtracking",
        residual_norm=best_res,
        converged=converged,
        iterations=iterations,
    )


class UnconvergedSolveError(RuntimeError):
    """The centralized solve ran out of iterations before its tolerance."""


def reference_optimum(objectives) -> Optimum:
    """The :func:`centralized_solve` optimum that residuals are measured
    against; raises :class:`UnconvergedSolveError` if the solve did not
    converge, since every residual would be measured against the wrong point."""
    opt = centralized_solve(objectives)
    if not opt.converged:
        raise UnconvergedSolveError(
            f"reference solve did not converge: gradient norm "
            f"{opt.residual_norm:.3e} after {opt.iterations} iterations"
        )
    return opt
