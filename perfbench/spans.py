"""Span tracing at feedalloc's layer boundaries, added from outside.

``Tracer.install`` replaces public functions of the feedalloc modules (and
``ProblemInstance.__init__``) with wrappers that record one span per call:
name, start, end, parent span and job id, plus a few counts read from the
arguments or the result.  No source file of the package is edited, and
``uninstall`` puts the original functions back, so untraced runs execute
the package exactly as shipped.

Functions are patched in every module namespace that calls them, because
the package imports several of them by name: ``expected_reward`` as seen by
each solver module and by ``prune_to_k``, ``backwards_greedy`` as seen by
``flow_greedy``, and ``flow_baseline`` as seen by ``flow_greedy`` (a
``baselines`` module global).
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

from feedalloc import (algorithms, baselines, core, generators, matching,
                       oracle, postprocess)
from feedalloc.core import Mode

# A span opened under flowg is one of that solver's two phases.
PHASES = {
    ("baselines.flowg", "baselines.flow"): "baselines.flowg.flow",
    ("baselines.flowg", "algorithms.gb"): "baselines.flowg.sweep",
}

GENERATORS = ("generate", "gen_symmetric", "gen_asymmetric",
              "gen_finely_targeted", "gen_adversarial", "gen_session_youtube",
              "gen_session_blocks")


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "info")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.info = None

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job, "info": self.info}


def _gb_name(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else Mode.MATCHING)
    return "algorithms.gb-mapping" if mode is Mode.MAPPING else "algorithms.gb"


def _counters(_args, _kwargs, report):
    return dict(report.counters)


class Tracer:
    """Records spans in memory while installed; ``spans`` keeps them all."""

    def __init__(self):
        self.spans = []
        self.job = None
        self.installed = False
        self._stack = []
        self._patches = []
        for mod in (core, algorithms, baselines, postprocess):
            self._patch(mod, "expected_reward", "core.expected_reward")
        for fn in GENERATORS:
            self._patch(generators, fn, "generators.generate")
        self._patch(core.ProblemInstance, "__init__", "core.instance_build",
                    lambda args, _kw, _r: {"edges": len(args[0].edges)})
        for mod in (algorithms, baselines):
            self._patch(mod, "backwards_greedy", _gb_name, _counters)
        self._patch(algorithms, "nonoblivious_backwards_greedy",
                    "algorithms.gbp", _counters)
        for fn, name in (("global_greedy", "global"),
                         ("forward_greedy", "forward"),
                         ("online_threshold", "online"),
                         ("mwm_baseline", "mwm"),
                         ("flow_baseline", "flow"),
                         ("flow_greedy", "flowg")):
            self._patch(baselines, fn, "baselines." + name, _counters)
        for fn in ("max_weight_matching", "constrained_max_weight_matching"):
            self._patch(matching, fn, "matching.solve",
                        lambda args, _kw, _r: {"edges": len(args[0])})
        self._patch(postprocess, "prune_to_k", "postprocess.prune",
                    lambda args, _kw, r: {"removals": len(args[1]) - len(r)})
        self._patch(oracle, "simulate_sessions", "oracle.simulate",
                    lambda _args, _kw, r: {"sessions": r.sessions})

    def _patch(self, owner, attr, name, info=None):
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            with tracer.span(label) as span:
                result = original(*args, **kwargs)
                if info is not None:
                    span.info = info(args, kwargs, result)
            return result

        self._patches.append((owner, attr, original, traced))

    def install(self):
        for owner, attr, _original, traced in self._patches:
            setattr(owner, attr, traced)
        self.installed = True

    def uninstall(self):
        for owner, attr, original, _traced in self._patches:
            setattr(owner, attr, original)
        self.installed = False

    def span(self, name):
        """Context manager recording one span; a no-op while uninstalled."""
        if not self.installed:
            return nullcontext()
        return self._open(name)

    @contextmanager
    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            name = PHASES.get((self.spans[parent].name, name), name)
        span = Span(name, time.perf_counter(), parent, self.job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


# span name -> [(info key, metric)] for counts read from span info
COUNTS = {
    "core.instance_build": [("edges", "core.edges_built")],
    "algorithms.gb": [("gain_evals", "algorithms.gb.gain_evals"),
                      ("commits", "algorithms.gb.commits"),
                      ("reassignments", "algorithms.gb.reassignments")],
    "algorithms.gb-mapping": [("gain_evals",
                               "algorithms.gb-mapping.gain_evals")],
    "algorithms.gbp": [("scores", "algorithms.gbp.scores"),
                       ("reassignments", "algorithms.gbp.reassignments")],
    "baselines.global": [("pops", "baselines.global.pops"),
                         ("gain_evals", "baselines.global.gain_evals"),
                         ("commits", "baselines.global.commits")],
    "postprocess.prune": [("removals", "postprocess.removals")],
    "oracle.simulate": [("sessions", "oracle.sessions_simulated")],
}


def layer_totals(spans, first):
    """Self time (``<span name>_s``) and counts over ``spans[first:]``.

    A span's self time is its duration minus the durations of its direct
    children.  ``trace.attributed_s`` is the summed duration of the spans
    with no parent in the range, i.e. the part some layer accounts for."""
    child = {}
    for span in spans[first:]:
        if span.parent is not None:
            child[span.parent] = (child.get(span.parent, 0.0)
                                  + span.end - span.start)
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for idx in range(first, len(spans)):
        span = spans[idx]
        duration = span.end - span.start
        add(span.name + "_s", duration - child.get(idx, 0.0))
        parent = spans[span.parent].name if (span.parent is not None
                                             and span.parent >= first) else None
        if parent is None:
            add("trace.attributed_s", duration)
        for key, metric in COUNTS.get(span.name, ()):
            add(metric, span.info[key])
        if span.name == "core.expected_reward":
            add("core.expected_reward_calls", 1)
            if parent == "postprocess.prune":
                add("postprocess.evals", 1)
        elif span.name == "matching.solve" and parent != "matching.solve":
            add("matching.calls", 1)
            add("matching.edges_in", span.info["edges"])
    return out
