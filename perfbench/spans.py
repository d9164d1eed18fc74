"""Span tracing around the public functions of each crftrack layer.

Nothing under src/ knows about this module. A Tracer replaces each traced
function, under every name a crftrack module binds it to, with a wrapper
that records a span (name, start, end, parent span, where) and lets a probe
read counts off the call's arguments and result. Spans stay in memory; the
layer summaries are computed from them after the traced work ends, and
remove() puts every original function back.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

from crftrack.errors import CrfTrackError

MARK = "__perfbench_traced__"


def _exact_probe(tracer, args, kwargs, result):
    graph = args[0] if args else kwargs["graph"]
    mask = getattr(graph, "real_mask", None)
    n_real = graph.num_vars if mask is None else int(np.count_nonzero(mask))
    tracer.counts["labelings"] += 1 << graph.num_vars
    tracer.counts["labelings_useful"] += 1 << n_real


def _max_product_probe(tracer, args, kwargs, result):
    tracer.bp_iterations.append(result.iterations_used)
    tracer.counts["bp_converged"] += int(bool(result.converged))


def _tables_probe(tracer, args, kwargs, result):
    tracer.counts["pairs"] += len(result[2])


def _assemble_probe(tracer, args, kwargs, result):
    windows = args[0] if args else kwargs["windows"]
    tracer.counts["windows"] += len(windows)
    tracer.counts["real_nodes"] += len(result.node_map)
    tracer.counts["bypassed"] += len(result.bypass_active) + len(result.bypass_inactive)


def _dataset_probe(tracer, args, kwargs, result):
    tracer.counts["samples"] += len(result)
    tracer.counts["negatives"] += sum(1 for s in result if s.negative)


# (defining module, attribute path, span name, probe). Each function is
# traced under every name a crftrack module binds it to, so tracker's and
# training's imported names are covered as well as metrics.evaluate's calls
# into clear_mot and idf1. cli only dispatches to these and is not traced.
TARGETS = (
    ("crftrack.io", "parse_mot", "io.parse_mot", None),
    ("crftrack.io", "write_mot", "io.write_mot", None),
    ("crftrack.io", "parse_seqinfo", "io.parse_seqinfo", None),
    ("crftrack.crf_model", "compute_feature_tables", "features.tables", _tables_probe),
    ("crftrack.crf_model", "assemble_frame_graph", "crf_model.assemble", _assemble_probe),
    ("crftrack.crf_model", "graph_from_features", "crf_model.graph", None),
    ("crftrack.factor_graph", "max_product", "factor_graph.max_product", _max_product_probe),
    ("crftrack.factor_graph", "exact_inference", "factor_graph.exact", _exact_probe),
    ("crftrack.tracker", "step", "tracker.step", None),
    ("crftrack.tracker", "run", "tracker.run", None),
    ("crftrack.training", "generate_dataset", "training.generate_dataset", _dataset_probe),
    ("crftrack.training", "sgd_train", "training.sgd_train", None),
    ("crftrack.training", "gradient", "training.gradient", None),
    ("crftrack.training", "log_likelihood", "training.log_likelihood", None),
    ("crftrack.training", "TrainingSample.tables", "training.sample_tables", None),
    ("crftrack.metrics", "evaluate", "metrics.evaluate", None),
    ("crftrack.metrics", "clear_mot", "metrics.clear_mot", None),
    ("crftrack.metrics", "idf1", "metrics.idf1", None),
)


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _bindings(original):
    """Every (crftrack module, attribute) that is bound to `original`."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "crftrack" or name.startswith("crftrack.")):
            continue
        for attr, value in vars(module).items():
            if value is original:
                found.append((module, attr))
    return found


class Tracer:
    """Records spans while installed; call remove() before any untraced timing."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, where, error]
        self.where = None
        self.counts = Counter()
        self.bp_iterations: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module_name, path, span_name, probe in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original, probe)
            places = [(owner, attr)]
            if owner is sys.modules[module_name]:
                places = _bindings(original)
            for place, name in places:
                self._patches.append((place, name, original))
                setattr(place, name, wrapper)

    def remove(self):
        while self._patches:
            place, name, original = self._patches.pop()
            setattr(place, name, original)

    def _wrap(self, name, fn, probe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.where, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except CrfTrackError:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(tracer, args, kwargs, result)
            return result

        setattr(traced, MARK, True)
        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, errors, total and self seconds.

        Self time is a span's duration minus the durations of its direct
        child spans; calls on one thread nest, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict] = {}
        for index, (name, start, end, _, _, error) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "errors": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["errors"] += int(error)
            row["total_s"] += end - start
            row["self_s"] += end - start - child[index]
        return table

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of child_name spans whose direct parent is a parent_name span."""
        return sum(1 for name, _, _, parent, _, _ in self.spans
                   if name == child_name and parent >= 0
                   and self.spans[parent][0] == parent_name)

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for index, (name, start, end, parent, where, error) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "where": where, "error": error})
                         + "\n")


def leftover_wrappers() -> list[str]:
    """Names in crftrack modules or classes that are still bound to a wrapper."""
    left = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "crftrack" or name.startswith("crftrack.")):
            continue
        for attr, value in vars(module).items():
            if getattr(value, MARK, False):
                left.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                left.extend(f"{name}.{attr}.{m}" for m, v in vars(value).items()
                            if getattr(v, MARK, False))
    return left

