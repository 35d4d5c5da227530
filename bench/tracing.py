"""In-memory span recorder for the benchmark's traced and untraced runs.

While a repetition runs, public functions of the ``dirgraphopt`` modules are
replaced by timing wrappers; the originals are restored when it ends.  Each
wrapper records one span ``[name, start, end, parent, rep, outcome, args]``; ``parent`` is
the index of the enclosing span in ``Tracer.spans``.  Every
binding of a wrapped function in any package module is replaced, so calls
made through ``from .x import f`` names are timed as well.

Nothing here touches the package's files: the wrappers live only inside the
benchmark's own process.
"""

from __future__ import annotations

import contextlib
import functools
import time

LAYERS = ("digraph", "objectives", "algorithms", "analysis", "experiments")

#: functions timed in a traced repetition, by layer (= package module)
TRACED = {
    "digraph": (
        "builtin_graph", "random_digraph", "is_strongly_connected",
        "uniform_weights", "perron_limit", "tau_eps", "contraction_norm",
        "spectral_data",
    ),
    "objectives": (
        "generate_dataset", "logistic_objective", "network_constants",
        "centralized_solve", "stacked_gradient",
    ),
    "algorithms": (
        "run", "addopt_init", "addopt_step", "dextra_tilde", "dextra_init",
        "dextra_step", "gradient_push_init", "gradient_push_step",
        "write_trace_csv",
    ),
    "analysis": (
        "build_profile", "push_sum_extremes", "build_G", "spectral_radius",
        "alpha_upper_bound", "residual_slope", "fit_log_linear",
    ),
    "experiments": (
        "cmd_compare", "cmd_stepsize_study", "resolve_graph", "build_objectives",
    ),
}

#: timed in every repetition: they delimit the set-up and solve phases and
#: hand their results to the correctness gate
PHASE = {
    "objectives": ("centralized_solve",),
    "algorithms": ("run",),
}

#: spans whose arguments and return value are kept for the correctness gate
CAPTURE = frozenset(
    {"algorithms.run", "objectives.centralized_solve", "digraph.uniform_weights"}
)

NAME, START, END, PARENT, REP, OUTCOME, ARGS = range(7)


class Tracer:
    """Holds the spans of one benchmark process and installs the wrappers."""

    def __init__(self, package) -> None:
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.spans: list[list] = []
        self.rep = -1
        self._stack: list[int] = []

    def _wrap(self, fn, name: str):
        spans, stack, capture = self.spans, self._stack, name in CAPTURE
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rep, None,
                    args if capture else None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[OUTCOME] = exc
                raise
            else:
                span[END] = clock()
                if capture:
                    span[OUTCOME] = result
                return result
            finally:
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace every binding of each ``targets`` function for the block."""
        namespaces = [self.package, *self.modules.values()]
        saved = []
        try:
            for layer, names in targets.items():
                for fname in names:
                    fn = getattr(self.modules[layer], fname, None)
                    if not callable(fn):
                        continue  # the function may be gone in later versions
                    wrapper = self._wrap(fn, f"{layer}.{fname}")
                    for ns in namespaces:
                        for attr in [a for a, v in vars(ns).items() if v is fn]:
                            saved.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)
            yield self
        finally:
            for ns, attr, fn in reversed(saved):
                setattr(ns, attr, fn)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span recorded from benchmark code (layer ``bench``)."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.rep, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span[OUTCOME] = exc
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def release(self, offset: int) -> None:
        """Drop the arguments and results kept by the spans from ``offset`` on."""
        for s in self.spans[offset:]:
            s[OUTCOME] = s[ARGS] = None

    def write_csv(self, path) -> None:
        """All spans as ``id,name,start_s,end_s,parent,rep`` rows."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,rep\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[REP]}\n")


def self_times(spans: list[list], offset: int) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    ``spans`` is the contiguous slice of ``Tracer.spans`` starting at
    ``offset``.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= offset:
            own[s[PARENT] - offset] -= s[END] - s[START]
    return own
