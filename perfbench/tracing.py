"""Outside-in tracing: wraps the library's public entry points, records
one span per call (name, start, end, parent, operation) in memory, and
turns the spans and counters into the per-layer metrics.

A function is patched on every module that looks it up: ``mps`` imported
``svd_matrix`` by name, so ``tensornet.mps.svd_matrix`` is patched next to
``tensornet.decomp.svd_matrix``.  ``TensorNetwork`` and ``Tensor`` methods
are patched on the class.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict

from tensornet import catalog, cli, counting, decomp, fileio, mps, network, tensor

MIB = 2**20

# span name -> per-layer metric holding its self time
SELF_TIME = {
    "network.plan": "network.plan_s",
    "network.connect": "network.connect_s",
    "network.contract": "network.contract_s",
    "network.invariant": "network.invariant_s",
    "counting.parse": "counting.parse_s",
    "counting.build": "counting.build_s",
    "catalog": "catalog.s",
    "decomp.svd": "decomp.svd_s",
    "mps.factor": "mps.factor_s",
    "mps.compress": "mps.compress_s",
    "mps.inner": "mps.inner_s",
    "mps.to_dense": "mps.to_dense_s",
    "mps.entropy": "mps.entropy_s",
    "fileio.parse": "fileio.parse_s",
}

# every per-layer metric with its unit, in report order
PER_LAYER = {
    "network.plan_s": "s",
    "network.connect_s": "s",
    "network.connect_calls": "count",
    "network.contract_s": "s",
    "network.plan_peak_log2_max": "log2",
    "network.plan_peak_log2_p50": "log2",
    "network.over_budget_plan_log2": "log2",
    "network.contract_peak_mib": "MiB",
    "network.nodes_sum": "count",
    "network.bonds_sum": "count",
    "network.invariant_s": "s",
    "counting.parse_s": "s",
    "counting.build_s": "s",
    "catalog.s": "s",
    "catalog.elements": "count",
    "tensor.new_calls": "count",
    "tensor.new_mib": "MiB",
    "decomp.svd_s": "s",
    "decomp.svd_calls": "count",
    "decomp.svd_flops": "flop",
    "mps.factor_s": "s",
    "mps.compress_s": "s",
    "mps.inner_s": "s",
    "mps.inner_calls": "count",
    "mps.to_dense_s": "s",
    "mps.entropy_s": "s",
    "mps.max_bond": "count",
    "fileio.parse_s": "s",
    "cli.startup_ms": "ms",
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
}

# counts that must repeat exactly for one seed
EXACT = [
    "network.connect_calls", "network.plan_peak_log2_max", "network.plan_peak_log2_p50",
    "network.over_budget_plan_log2",
    "network.nodes_sum", "network.bonds_sum", "catalog.elements", "tensor.new_calls",
    "decomp.svd_calls", "decomp.svd_flops", "mps.inner_calls", "mps.max_bond",
]


class Tracer:
    """Spans and counters of one traced pass.  ``track_memory`` adds the
    tracemalloc peak of each ``contract_all``; it slows every allocation,
    so passes that time layers leave it off."""

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.plan_peaks: list[float] = []
        self.contract_peaks: list[float] = []
        self.max_bond = 0

    def span(self, name, fn, after=None, calls=None):
        """Wrap ``fn`` so every call records a span.  A completed call adds
        one to the counter ``calls`` and runs ``after(args, result)``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.op_id])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if calls is not None:
                self.counts[calls] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters filled after completed calls -------------------------

    def _catalog(self, args, t):
        self.counts["catalog.elements"] += t.data.size

    def _svd(self, args, result):
        rows, cols = args[0].shape
        self.counts["decomp.svd_flops"] += rows * cols * min(rows, cols)

    def _plan(self, args, plan):
        self.plan_peaks.append(math.log2(plan.peak_size))

    def _mps(self, args, result):
        self.max_bond = max(self.max_bond, *result[0].bond_dims, 1)

    def contract_wrapper(self, fn):
        """contract_all: a span, the network's size, and the tracemalloc
        peak of the arrays it allocates."""
        traced = self.span("network.contract", fn)

        @functools.wraps(fn)
        def wrapper(net, *args, **kwargs):
            self.counts["network.nodes_sum"] += len(net.nodes)
            self.counts["network.bonds_sum"] += len(net.bonds)
            if not self.track_memory:
                return traced(net, *args, **kwargs)
            tracemalloc.start()
            try:
                result = traced(net, *args, **kwargs)
                self.contract_peaks.append(tracemalloc.get_traced_memory()[1] / MIB)
            finally:
                tracemalloc.stop()
            return result

        return wrapper

    def tensor_init(self, fn):
        """Tensor.__init__: counted, not spanned (it runs for every node)."""

        @functools.wraps(fn)
        def wrapper(t, *args, **kwargs):
            fn(t, *args, **kwargs)
            self.counts["tensor.new_calls"] += 1
            self.counts["tensor.new_bytes"] += t.data.nbytes

        return wrapper

    # -- patching ------------------------------------------------------

    def patches(self):
        """(owner, attribute, replacement) for every traced entry point."""
        out = []
        for name, fn in vars(catalog).items():
            if inspect.isfunction(fn) and fn.__module__ == catalog.__name__ and not name.startswith("_"):
                out.append((catalog, name, self.span("catalog", fn, self._catalog)))
        svd = self.span("decomp.svd", decomp.svd_matrix, self._svd, "decomp.svd_calls")
        out += [(decomp, "svd_matrix", svd), (mps, "svd_matrix", svd)]
        out += [
            (mps, "mps_from_dense", self.span("mps.factor", mps.mps_from_dense, self._mps)),
            (mps, "compress", self.span("mps.compress", mps.compress, self._mps)),
            (mps, "inner", self.span("mps.inner", mps.inner, calls="mps.inner_calls")),
            (mps, "to_dense", self.span("mps.to_dense", mps.to_dense)),
            (mps, "bond_entropy", self.span("mps.entropy", mps.bond_entropy)),
        ]
        tn = network.TensorNetwork
        out += [
            (tn, "connect", self.span("network.connect", tn.connect, calls="network.connect_calls")),
            (tn, "greedy_plan", self.span("network.plan", tn.greedy_plan, self._plan)),
            (tn, "contract_all", self.contract_wrapper(tn.contract_all)),
            (tensor.Tensor, "__init__", self.tensor_init(tensor.Tensor.__init__)),
        ]
        for name in ("concurrence", "three_tangle", "kempe"):
            out.append((network, name, self.span("network.invariant", getattr(network, name))))
        for name in ("parse_dimacs", "parse_graph"):
            out.append((counting, name, self.span("counting.parse", getattr(counting, name))))
        for name in ("formula_to_network", "coloring_network"):
            out.append((counting, name, self.span("counting.build", getattr(counting, name))))
        out.append((fileio, "parse_amplitudes", self.span("fileio.parse", fileio.parse_amplitudes)))
        out.append((cli, "main", self.span("cli", cli.main)))
        return out

    def __enter__(self):
        self._saved = []
        for owner, attr, replacement in self.patches():
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        return False

    # -- results -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer values of this pass (times in s, memory in MiB)."""
        selfs = self.self_times()
        out = {metric: selfs.get(name, 0.0) for name, metric in SELF_TIME.items()}
        for key in ("network.connect_calls", "network.nodes_sum", "network.bonds_sum", "catalog.elements",
                    "tensor.new_calls", "decomp.svd_calls", "decomp.svd_flops", "mps.inner_calls"):
            out[key] = self.counts[key]
        out["tensor.new_mib"] = self.counts["tensor.new_bytes"] / MIB
        out["network.plan_peak_log2_max"] = max(self.plan_peaks, default=0.0)
        out["network.plan_peak_log2_p50"] = statistics.median(self.plan_peaks) if self.plan_peaks else 0.0
        out["network.contract_peak_mib"] = max(self.contract_peaks, default=0.0)
        out["mps.max_bond"] = self.max_bond
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
