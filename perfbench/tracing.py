"""Spans around dpgmarch module boundaries, recorded from outside the package.

A hook replaces one name in one dpgmarch module's namespace -- a function that
module calls across a module boundary, such as ``dpgmarch.timestep.cg_solve``
-- with a wrapper that records a span ``(name, start, end, parent)``.  Spans
and counters stay in memory until the run ends.  A hook whose target is gone
is reported as missing: its metrics are left out, never reported as 0, and the
run goes on.

Layer metrics are totals per CLI invocation.  A layer's self time is its
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Hook:
    module: str  # the calling module, whose namespace holds the name
    attr: str
    span: str  # "<layer>.<what>"


# Probes stay installed with tracing off: they timestamp the start of each
# level, each time step, the end of each march and the projection load, which
# is all that setup_s and step_s need.
PROBES = (
    Hook("dpgmarch.cli", "build_structured_mesh", "mesh.build"),
    Hook("dpgmarch.cli", "march", "timestep.march"),
    Hook("dpgmarch.timestep", "step", "timestep.step"),
    Hook("dpgmarch.elliptic", "exact_b_load", "elliptic.exact_load"),
)

HOOKS = PROBES + (
    Hook("dpgmarch.cli", "build_dofmap", "dofmap.build"),
    Hook("dpgmarch.cli", "project", "elliptic.project"),
    Hook("dpgmarch.cli", "field_error", "errors.report"),
    Hook("dpgmarch.cli", "trace_dual_error", "errors.report"),
    Hook("dpgmarch.timestep", "assemble_condensed", "assembly.condensed"),
    Hook("dpgmarch.timestep", "condense_load", "assembly.load"),
    Hook("dpgmarch.timestep", "cg_solve", "linalg.cg"),
    Hook("dpgmarch.timestep", "field_error", "errors.history_norm"),
    Hook("dpgmarch.elliptic", "build_projection_system", "elliptic.system"),
    Hook("dpgmarch.elliptic", "lu_solve", "linalg.lu"),
)

ROOT_SPAN = "cli"


def _blocks_mb(blocks) -> float:
    return sum(v.nbytes for v in vars(blocks).values() if isinstance(v, np.ndarray)) / 2**20


def _count_dofmap(args, result, counts):
    counts["dofmap.n_dof"] = counts.get("dofmap.n_dof", 0) + int(result.n_dof)


def _count_system(matrix_attr):
    def count(args, result, counts):
        nnz = int(getattr(result, matrix_attr).nnz)
        counts["assembly.S_nnz"] = counts.get("assembly.S_nnz", 0) + nnz
        counts["assembly.blocks_mb"] = max(counts.get("assembly.blocks_mb", 0.0),
                                           _blocks_mb(result.blocks))
    return count


def _count_cg(args, result, counts):
    S, rhs = args[0], args[1]
    iterations = int(result[1])
    # computed, not measured: one pass per iteration over S's CSR arrays and
    # the six length-n float vectors CG keeps (x, r, z, p, S p, 1/diag)
    per_iteration = S.data.nbytes + S.indices.nbytes + S.indptr.nbytes + 6 * 8 * len(rhs)
    counts["linalg.cg_iters"] = counts.get("linalg.cg_iters", 0) + iterations
    counts["linalg.cg_gbytes_computed"] = (counts.get("linalg.cg_gbytes_computed", 0.0)
                                           + iterations * per_iteration / 1e9)


COUNTERS = {
    "dofmap.build": _count_dofmap,
    "assembly.condensed": _count_system("S"),
    "elliptic.system": _count_system("N"),
    "linalg.cg": _count_cg,
}


class Tracer:
    """Installs hooks on entry and restores the original functions on exit."""

    def __init__(self, hooks):
        self.hooks = tuple(hooks)
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self.found = {}  # Hook -> bool
        self.calls = {}  # Hook -> number of calls
        self.broken = set()  # span names whose counter failed
        self._stack = []
        self._saved = []

    def __enter__(self):
        for hook in self.hooks:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                module = None
            target = getattr(module, hook.attr, None)
            self.found[hook] = callable(target)
            if callable(target):
                self._saved.append((module, hook.attr, target))
                self.calls[hook] = 0
                setattr(module, hook.attr, self._wrap(target, hook))
        return self

    def __exit__(self, *exc):
        for module, attr, target in reversed(self._saved):
            setattr(module, attr, target)
        self._saved.clear()
        return False

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()
        counter = COUNTERS.get(name)
        if counter is not None and name not in self.broken:
            try:
                counter(args, result, self.counts)
            except (AttributeError, TypeError, IndexError, ValueError):
                self.broken.add(name)
        return result

    def _wrap(self, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[hook] += 1
            return self.call(hook.span, fn, *args, **kwargs)
        return traced

    def missing_spans(self) -> set:
        return {hook.span for hook, ok in self.found.items() if not ok}


def durations(spans, name) -> list:
    return [end - start for n, start, end, _ in spans if n == name]


def self_time(spans, name) -> float:
    covered = {}
    for _, start, end, parent in spans:
        covered[parent] = covered.get(parent, 0.0) + (end - start)
    return sum(end - start - covered.get(i, 0.0)
               for i, (n, start, end, _) in enumerate(spans) if n == name)


class ProbeError(RuntimeError):
    """The probes did not see the shape of run the workload expects."""


def setup_and_steps(spans, kind):
    """(setup seconds, step durations grouped by the work they repeat) of one
    CLI invocation.

    Set-up of a level runs from the mesh build to the first time step (march)
    or to the projection load (projection), summed over levels.  On a march a
    step runs from the start of one backward Euler step to the start of the
    next, or to the end of the march, so it holds the history norm taken after
    the step; the steps of one march, which solve the same system, form one
    group.  On a projection a step is one study level, from its mesh build to
    the next level's or to the end of the command, and each level is a group.
    """
    closer = "timestep.step" if kind == "march" else "elliptic.exact_load"
    opens = [start for n, start, _, _ in spans if n == "mesh.build"]
    if not opens:
        raise ProbeError("no mesh build was seen")
    setup = 0.0
    for i, opened in enumerate(opens):
        closes = [start for n, start, _, _ in spans if n == closer and start > opened]
        if not closes or (i + 1 < len(opens) and closes[0] > opens[i + 1]):
            raise ProbeError(f"level {i} never reached {closer}")
        setup += closes[0] - opened
    if kind == "march":
        groups = []
        for index, (name, _, march_end, _) in enumerate(spans):
            if name == "timestep.march":
                starts = [start for n, start, _, parent in spans
                          if n == "timestep.step" and parent == index]
                groups.append(list(np.diff(starts + [march_end])))
        if not groups or not all(groups):
            raise ProbeError("a march was seen without its time steps")
    else:
        root_end = next(end for n, _, end, _ in spans if n == ROOT_SPAN)
        groups = [[duration] for duration in np.diff(opens + [root_end])]
    return setup, groups


# metric -> (unit, spans it needs, extractor(spans, counts))
LAYER_METRICS = {
    "mesh.build_s": ("s", {"mesh.build"}, lambda s, c: sum(durations(s, "mesh.build"))),
    "dofmap.build_s": ("s", {"dofmap.build"}, lambda s, c: sum(durations(s, "dofmap.build"))),
    "dofmap.n_dof": ("count", {"dofmap.build"}, lambda s, c: c.get("dofmap.n_dof", 0)),
    "assembly.S_nnz": ("count", {"assembly.condensed", "elliptic.system"},
                       lambda s, c: c.get("assembly.S_nnz", 0)),
    "assembly.condensed_s": ("s", {"assembly.condensed"},
                             lambda s, c: sum(durations(s, "assembly.condensed"))),
    "assembly.blocks_mb": ("MB", {"assembly.condensed", "elliptic.system"},
                           lambda s, c: c.get("assembly.blocks_mb", 0.0)),
    "assembly.load_s": ("s", {"assembly.load"}, lambda s, c: sum(durations(s, "assembly.load"))),
    "assembly.load_calls": ("count", {"assembly.load"},
                            lambda s, c: len(durations(s, "assembly.load"))),
    "linalg.cg_s": ("s", {"linalg.cg"}, lambda s, c: sum(durations(s, "linalg.cg"))),
    "linalg.cg_calls": ("count", {"linalg.cg"}, lambda s, c: len(durations(s, "linalg.cg"))),
    "linalg.cg_iters": ("count", {"linalg.cg"}, lambda s, c: c.get("linalg.cg_iters", 0)),
    "linalg.cg_iters_per_solve": (
        "count", {"linalg.cg"},
        lambda s, c: c.get("linalg.cg_iters", 0) / max(len(durations(s, "linalg.cg")), 1)),
    "linalg.cg_gbytes_computed": ("GB", {"linalg.cg"},
                                  lambda s, c: c.get("linalg.cg_gbytes_computed", 0.0)),
    "linalg.lu_s": ("s", {"linalg.lu"}, lambda s, c: sum(durations(s, "linalg.lu"))),
    "linalg.lu_calls": ("count", {"linalg.lu"}, lambda s, c: len(durations(s, "linalg.lu"))),
    "timestep.step_self_s": ("s", {"timestep.step", "assembly.load", "linalg.cg"},
                             lambda s, c: self_time(s, "timestep.step")),
    "timestep.march_self_s": (
        "s", {"timestep.march", "assembly.condensed", "timestep.step", "errors.history_norm"},
        lambda s, c: self_time(s, "timestep.march")),
    "errors.history_norm_s": ("s", {"errors.history_norm"},
                              lambda s, c: sum(durations(s, "errors.history_norm"))),
    "errors.report_s": ("s", {"errors.report"}, lambda s, c: sum(durations(s, "errors.report"))),
    "elliptic.system_s": ("s", {"elliptic.system"},
                          lambda s, c: sum(durations(s, "elliptic.system"))),
    "elliptic.exact_load_s": ("s", {"elliptic.exact_load"},
                              lambda s, c: sum(durations(s, "elliptic.exact_load"))),
    "cli.self_s": (
        "s", {"mesh.build", "dofmap.build", "timestep.march", "elliptic.project", "errors.report"},
        lambda s, c: self_time(s, ROOT_SPAN)),
}

# counters a metric reads, so that a failed counter drops only its metrics
_COUNTER_OF = {
    "dofmap.n_dof": {"dofmap.build"},
    "assembly.S_nnz": {"assembly.condensed", "elliptic.system"},
    "assembly.blocks_mb": {"assembly.condensed", "elliptic.system"},
    "linalg.cg_iters": {"linalg.cg"},
    "linalg.cg_iters_per_solve": {"linalg.cg"},
    "linalg.cg_gbytes_computed": {"linalg.cg"},
}


def layer_metrics(tracer) -> dict:
    """Per-layer values of one traced invocation.  Metrics of missing hooks or
    failed counters are absent; a layer the workload never calls reads 0."""
    missing = tracer.missing_spans()
    return {name: extract(tracer.spans, tracer.counts)
            for name, (_, needs, extract) in LAYER_METRICS.items()
            if not needs & missing and not _COUNTER_OF.get(name, set()) & tracer.broken}
