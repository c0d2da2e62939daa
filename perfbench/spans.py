"""Span recorder for the traced benchmark run.

Timing wrappers are installed from outside the program, on the module or
class attribute each caller actually looks up (``repro.serve.engine.
batch_graphs`` as well as ``repro.graphs.hetero.batch_graphs``), so no code
under ``src/`` changes.  Every span records its name, start, end, parent
span and the workload phase it ran in; spans stay in memory and are written
out as JSON when the run ends.  A span's self time is its duration minus the
time its child spans cover (children nest on one thread's stack, so they
never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from typing import Dict, List

#: (module, attribute path, span name): the layer boundaries wrapped in a
#: traced run.  Module-level functions are wrapped in every module that
#: imported them by name, because that copy is what its callers look up.
WRAPPED = [
    ("repro.datasets.openmp", "OpenMPDatasetBuilder.build", "datasets.build"),
    ("repro.core.features", "StaticFeatureExtractor.extract",
     "features.extract"),
    ("repro.core.features", "lower_to_ir", "frontend.lower"),
    ("repro.frontend.lower", "verify_module", "ir.verify"),
    ("repro.core.features", "build_programl_graph", "graphs.programl"),
    ("repro.core.features", "to_hetero_graph", "graphs.to_hetero"),
    ("repro.embeddings.encoder", "IR2VecEncoder.encode_module",
     "embeddings.encode"),
    ("repro.profiling.papi", "PAPIProfiler.profile", "profiling.profile"),
    ("repro.simulator.openmp", "OpenMPSimulator.run", "simulator.run"),
    ("repro.serve.engine", "batch_graphs", "graphs.batch_graphs"),
    ("repro.core.mga", "batch_graphs", "graphs.batch_graphs"),
    ("repro.graphs.hetero", "batch_graphs", "graphs.batch_build"),
    ("repro.core.mga", "MGAModel.predict", "mga.predict"),
    ("repro.core.mga", "MGAModel.fit", "mga.fit"),
    ("repro.nn.layers", "MLP.forward", "mga.head"),
    ("repro.nn.layers", "Module.train", "nn.train_mode"),
    ("repro.nn.scalers", "GaussRankScaler.transform",
     "nn.gaussrank.transform"),
    ("repro.nn.scalers", "MinMaxScaler.transform", "nn.minmax.transform"),
    ("repro.gnn.encoder", "GNNEncoder.forward", "gnn.encoder"),
    ("repro.dae.model", "DenoisingAutoencoder.encode", "dae.encode"),
    ("repro.dae.model", "DenoisingAutoencoder.fit", "dae.fit"),
    ("repro.nn.tape", "TapePlan.replay", "tape.replay"),
    ("repro.nn.autograd", "Tensor.backward", "nn.backward"),
    ("repro.nn.optim", "Adam.step", "optim.step"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "thread",
                 "child_s")

    def __init__(self, name, start, parent, phase, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.phase = phase
        self.thread = thread
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_s


class Recorder:
    """Per-thread span stacks over one in-memory span list."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: workload phase stamped on every span opened from now on
        self.phase = "setup"
        self._local = threading.local()
        self._undo: List[tuple] = []
        #: every ``TapeRunner`` built while instrumented (for its stats)
        self.tape_runners: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span = Span(name, time.perf_counter(),
                        stack[-1] if stack else None, recorder.phase,
                        threading.get_ident())
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                recorder.spans.append(span)
        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary in :data:`WRAPPED`; :meth:`uninstall` undoes."""
        for module_name, path, name in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.timed(name, original))
            self._undo.append((owner, attr, original))
        mga = importlib.import_module("repro.core.mga")
        runner_cls = mga.TapeRunner

        def capture(*args, **kwargs):
            runner = runner_cls(*args, **kwargs)
            self.tape_runners.append(runner)
            return runner
        mga.TapeRunner = capture
        self._undo.append((mga, "TapeRunner", runner_cls))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def select(self, name: str, phases=None) -> List[Span]:
        return [s for s in self.spans if s.name == name
                and (phases is None or s.phase in phases)]

    def p50_ms(self, name: str, phases=None) -> float:
        spans = self.select(name, phases)
        return 1e3 * statistics.median(s.duration for s in spans) \
            if spans else 0.0

    def total_s(self, name: str, phases=None) -> float:
        return sum(s.duration for s in self.select(name, phases))

    def self_s(self, name: str, phases=None) -> float:
        return sum(s.self_time for s in self.select(name, phases))

    def self_p50_ms(self, name: str, phases=None) -> float:
        spans = self.select(name, phases)
        return 1e3 * statistics.median(s.self_time for s in spans) \
            if spans else 0.0

    def child_sum_p50_ms(self, parent: str, child: str, phases=None) -> float:
        """Median over ``parent`` spans of the time spent in ``child`` spans."""
        totals: Dict[int, float] = {id(s): 0.0
                                    for s in self.select(parent, phases)}
        for span in self.select(child, phases):
            if span.parent is not None and id(span.parent) in totals:
                totals[id(span.parent)] += span.duration
        return 1e3 * statistics.median(totals.values()) if totals else 0.0

    def dump(self, path: str) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        origin = min((s.start for s in self.spans), default=0.0)
        rows = [{"name": s.name, "phase": s.phase, "thread": s.thread,
                 "start_s": s.start - origin, "end_s": s.end - origin,
                 "self_s": s.self_time,
                 "parent": index.get(id(s.parent))}
                for s in self.spans]
        with open(path, "w") as handle:
            json.dump({"spans": rows}, handle)
