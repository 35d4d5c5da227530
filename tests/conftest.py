"""Shared fixtures, hypothesis settings and the acceptance-report hook."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dirgraphopt import digraph, experiments, objectives

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# one PASS/FAIL line per acceptance check, echoed at the end of the run
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} - {description}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fig1_graph():
    return digraph.builtin_graph("fig1")


@pytest.fixture(scope="session")
def fig1_weights(fig1_graph):
    return digraph.uniform_weights(fig1_graph)


@pytest.fixture(scope="session")
def canonical_objs():
    """The 10-agent logistic benchmark used across the suite."""
    data = objectives.generate_dataset(10, 10, 3, seed=7, reg=1.0)
    return objectives.logistic_objective(data)


@pytest.fixture(scope="session")
def canonical_opt(canonical_objs):
    return objectives.centralized_solve(canonical_objs)


@pytest.fixture(scope="session")
def canonical_inst(fig1_graph, canonical_objs):
    """fig1 with the canonical objectives, set up as every command sets it up."""
    return experiments.prepare(fig1_graph, canonical_objs)


def random_weights(n: int, extra: int, seed: int) -> digraph.WeightMatrix:
    """Equal-split weights on a random strongly-connected digraph."""
    return digraph.uniform_weights(digraph.random_digraph(n, extra, seed))


def quadratic_set(n: int, dim: int, seed: int, curvature: float = 1.0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n, dim))
    return tuple(
        objectives.Quadratic(centers[i], np.full(dim, curvature))
        for i in range(n)
    )
