"""In-memory span tracing for the traced benchmark run.

The tracer wraps public functions of the ``hopfk`` modules where they are
called, records one span per call (name, start, end, parent span, op id),
and restores every original on ``uninstall``.  It also wraps
``GradedTensor.contract`` (a span, plus output nnz and dense size) and, in
``count_scalars``, the ``Scalar`` methods ``__mul__``, ``__add__`` and
``is_zero`` (call counts only).  No file of the package is modified.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span name).  A function imported into another module
# is wrapped in the namespace that calls it, e.g. ``validate_diagram`` as
# ``contract_invariant`` sees it, so that calls made while generating inputs
# are not counted as in-op diagram validation.
SPAN_SITES = (
    ("hopfk.invariant", "contract_invariant", "invariant.contract_invariant"),
    ("hopfk.invariant", "validate_diagram", "heegaard.validate_diagram"),
    ("hopfk.invariant", "diagram_nodes", "invariant.diagram_nodes"),
    ("hopfk.invariant", "derive_integral_data", "invariant.integral"),
    ("hopfk.invariant", "contract_network", "tensors.contract_network"),
    ("hopfk.hopf", "derive_integral_data", "invariant.integral"),
    ("hopfk.hopf", "validate_hopf", "hopf.validate_hopf"),
    ("hopfk.hopf", "check_structural_lemmas", "hopf.lemmas"),
    ("hopfk.hopf", "validate_crossing", "hopf.validate_crossing"),
    ("hopfk.hopf", "build_kac_paljutkin", "hopf.build"),
    ("hopfk.hopf", "build_function_hopf", "hopf.build"),
    ("hopfk.hopf", "dual_variants", "hopf.build"),
    ("hopfk.hopf", "conjugation_crossing", "hopf.build"),
    ("hopfk.heegaard", "enumerate_colorings", "heegaard.colorings"),
    ("hopfk.fuzz", "apply_move", "heegaard.apply_move"),
    ("hopfk.fuzz", "random_diagram", "fuzz.random_diagram"),
    ("hopfk.fuzz", "random_move_walk", "fuzz.random_move_walk"),
    ("hopfk.fuzz", "mutate_algebra", "fuzz.mutate_algebra"),
    ("hopfk.diagio", "parse_diagram", "diagio.parse"),
    ("hopfk.diagio", "result_record", "diagio.record"),
    ("hopfk.homcount", "count_lifts", "homcount.count_lifts"),
)

SCALAR_COUNTERS = (
    ("__mul__", "scalars.mul_calls"),
    ("__add__", "scalars.add_calls"),
    ("is_zero", "scalars.is_zero_calls"),
)

# Per-layer metric -> the span whose self time it reports.
LAYER_SELF_TIMES = {
    "tensors.network_self_s": "tensors.contract_network",
    "tensors.contract_s": "tensors.contract",
    "invariant.nodes_s": "invariant.diagram_nodes",
    "invariant.integral_s": "invariant.integral",
    "heegaard.validate_diagram_s": "heegaard.validate_diagram",
    "heegaard.colorings_s": "heegaard.colorings",
    "heegaard.moves_s": "heegaard.apply_move",
    "hopf.validate_hopf_s": "hopf.validate_hopf",
    "hopf.lemmas_s": "hopf.lemmas",
    "hopf.crossing_s": "hopf.validate_crossing",
    "hopf.build_s": "hopf.build",
    "diagio.parse_s": "diagio.parse",
    "diagio.record_s": "diagio.record",
    "homcount.count_s": "homcount.count_lifts",
}
LAYER_COUNTS = (
    "tensors.contract_calls",
    "tensors.peak_nnz",
    "tensors.peak_dense",
    "tensors.cap_hits",
    "invariant.node_count",
    "invariant.node_nnz",
    "scalars.mul_calls",
    "scalars.add_calls",
    "scalars.is_zero_calls",
)


class Tracer:
    def __init__(self, duration):
        self.duration = duration  # (start, end) -> seconds a span counts
        self.origin = time.perf_counter()
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []
        self._saved = []  # (owner, attribute, original) of every wrapper installed

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def run_op(self, op_id, fn):
        """Run one op under a root span named ``op``."""
        self.op = op_id
        record = self._open("op")
        try:
            return fn()
        finally:
            self._close(record)
            self.op = None

    # -- installing and restoring wrappers ----------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        from hopfk.tensors import EntryCapExceeded, GradedTensor

        for module_name, attr, name in SPAN_SITES:
            module = importlib.import_module(module_name)
            hook = self._count_nodes if name == "invariant.diagram_nodes" else None
            self._replace(module, attr, self._wrap(name, getattr(module, attr), hook))

        contract = self._wrap("tensors.contract", GradedTensor.contract, self._count_contract)
        counts = self.counts

        @functools.wraps(GradedTensor.contract)
        def contract_with_cap(*args, **kwargs):
            try:
                return contract(*args, **kwargs)
            except EntryCapExceeded:
                counts["tensors.cap_hits"] += 1
                raise

        self._replace(GradedTensor, "contract", contract_with_cap)

    def count_scalars(self):
        """Count Scalar method calls until ``uninstall``."""
        from hopfk.scalars import Scalar

        for attr, key in SCALAR_COUNTERS:
            self._replace(Scalar, attr, self._counter(key, getattr(Scalar, attr)))

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def uninstall(self):
        """Restore every original, newest wrapper first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- counters ----------------------------------------------------------------

    def _count_nodes(self, nodes):
        self.counts["invariant.node_count"] += len(nodes)
        self.counts["invariant.node_nnz"] += sum(len(n.data) for n in nodes)

    def _count_contract(self, out):
        nnz, dense = len(out.data), out.size()
        c = self.counts
        c["tensors.contract_calls"] += 1
        c["tensors.sum_nnz"] += nnz
        c["tensors.sum_dense"] += dense
        c["tensors.peak_nnz"] = max(c["tensors.peak_nnz"], nnz)
        c["tensors.peak_dense"] = max(c["tensors.peak_dense"], dense)

    # -- summaries ---------------------------------------------------------------

    def layer_times(self):
        """Per span name: calls, total seconds, and self seconds (the span
        minus the part its child spans cover), each span counted by
        ``duration``."""
        durations = [self.duration(start, end) for _, start, end, _, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for (_, _, _, parent, _), duration in zip(self.spans, durations):
            if parent is not None:
                covered[parent] += duration
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, _, _, _, _), duration, inner in zip(self.spans, durations, covered):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - inner
        return dict(table)

    def dump_spans(self):
        """Spans as [name, start, end, parent, op], times in seconds since
        the tracer was created."""
        return [
            [name, start - self.origin, end - self.origin, parent, op]
            for name, start, end, parent, op in self.spans
        ]

    def metrics(self, layers, answers, overhead_s, scale):
        """Per-layer metrics as {name: (value, unit)}.  ``answers`` are the
        traced pass's answers, one per op; ``overhead_s`` is the traced pass
        time minus the untraced median pass time; ``scale`` turns span
        seconds into reference seconds."""
        metrics = {
            name: (layers.get(span, {}).get("self_s", 0.0) * scale, "s")
            for name, span in LAYER_SELF_TIMES.items()
        }
        c = self.counts
        for name in LAYER_COUNTS:
            metrics[name] = (c[name], "count")
        metrics["tensors.fill_ratio"] = (
            c["tensors.sum_nnz"] / c["tensors.sum_dense"] if c["tensors.sum_dense"] else 0.0,
            "ratio",
        )
        op_time = {op: self.duration(start, end) * scale for name, start, end, _, op in self.spans if name == "op"}
        metrics["hopf.reject_s"] = (
            sum((op_time[i] for i, a in enumerate(answers) if a.get("verdict") == "reject"), 0.0),
            "s",
        )
        metrics["trace.op_s"] = (sum(op_time.values(), 0.0), "s")
        metrics["trace.overhead_s"] = (overhead_s, "s")
        return metrics
