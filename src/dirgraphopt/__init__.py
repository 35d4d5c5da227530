"""Decentralized optimization over strongly-connected directed graphs.

Simulators for push-sum-based first-order methods with and without gradient
tracking, plus the spectral machinery that certifies linear convergence of
the tracked constant-step engine and bounds its admissible step sizes.
"""

from . import algorithms, analysis, digraph, experiments, objectives

__version__ = "0.1.0"
