"""Spans and observation points around kremoval's public entry points.

The benchmark does not change kremoval: it swaps a module attribute or a
class attribute for a wrapper while an ensemble runs and puts the original
back afterwards.  The engine and the ensemble look these names up at call
time, so a wrapper sees every call.

``Tracer`` folds each span into per-name totals as it closes (a k=3 run to
the hitting time makes about 10^5 spans per trial, too many to keep one by
one).  A span's self time is its duration minus the durations of the spans
opened directly inside it.  ``Observer`` keeps, for each trial, the graph the
engine built with ``Graph.new_complete`` (it holds the final state when the
trial ends) and the trial's panel with its last recorded values.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

import kremoval.engine as engine
import kremoval.ensemble as ensemble
import kremoval.trajectory as trajectory
from kremoval.graph import Graph
from kremoval.index import CliqueIndex


@contextlib.contextmanager
def patched(targets: list[tuple[object, str, object]]):
    """Set ``owner.name = value`` for each target; restore on exit.

    Class attributes are restored from the class ``__dict__`` so that a
    classmethod comes back as a classmethod.
    """
    saved = [(owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name))
             for owner, name, _ in targets]
    try:
        for owner, name, value in targets:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


class Tracer:
    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []  # per open span: time of its direct children

    def wrap(self, name: str, fn, count: tuple[str, object] | None = None):
        """``fn`` with a span named ``name``; ``count`` = (counter, f(result, args))."""
        stack, total, self_time, calls, counts = (
            self._stack, self.total, self.self_time, self.calls, self.counts)

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                total[name] += dt
                self_time[name] += dt - frame[0]
                calls[name] += 1
            if count is not None:
                counts[count[0]] += count[1](result, args)
            return result

        return traced

    def layer_targets(self) -> list[tuple[object, str, object]]:
        """Spans around every layer entry point below ``run_ensemble``."""
        w = self.wrap
        envelopes = w("trajectory.envelopes", trajectory.envelopes)
        return [
            (ensemble, "run", w("engine.run", ensemble.run)),
            (engine, "one_step_drop", w("engine.one_step_drop", engine.one_step_drop)),
            (engine, "panel_r_values", w("engine.panel_r_values", engine.panel_r_values,
                                         ("engine.panel_sets", lambda r, a: len(a[1])))),
            (engine, "enumerate_k_cliques", w("graph.enumerate_k_cliques", engine.enumerate_k_cliques,
                                              ("graph.enumerated_cliques", lambda r, a: len(r)))),
            (Graph, "remove_clique_edges", w("graph.remove_clique_edges", Graph.remove_clique_edges)),
            (CliqueIndex, "from_cliques", staticmethod(w(
                "index.from_cliques", CliqueIndex.from_cliques,
                ("index.built_cliques", lambda r, a: len(r))))),
            (CliqueIndex, "apply_removal", w("index.apply_removal", CliqueIndex.apply_removal,
                                             ("index.purged_cliques", lambda r, a: r.total))),
            (ensemble, "envelopes", envelopes),
            (trajectory, "envelopes", envelopes),
        ]


class Observer:
    """Per trial, in run order: the final graph and the final panel values."""

    def __init__(self) -> None:
        self.trials: list[tuple[Graph | None, dict, dict] | None] = []
        self._graph: Graph | None = None

    def targets(self) -> list[tuple[object, str, object]]:
        new_complete = Graph.new_complete
        run = ensemble.run

        def observe_graph(n: int) -> Graph:
            self._graph = new_complete(n)
            return self._graph

        def observe_run(cfg):
            self._graph = None
            try:
                trace = run(cfg)
            except Exception:
                self.trials.append(None)
                raise
            self.trials.append((self._graph, trace.panel, trace.checkpoints[-1].panel_r))
            return trace

        return [(Graph, "new_complete", staticmethod(observe_graph)),
                (ensemble, "run", observe_run)]
