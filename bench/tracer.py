"""Span tracer for the benchmark's traced pass.

Wraps public functions and constructors of cychom from outside the
program: every module namespace that bound a wrapped function (modules
use `from .x import f`) gets the wrapper, and constructors are wrapped on
their class.  Each call records a span (name, start, end, parent, job) in
memory; `write_spans` dumps them as JSON lines when the pass ends.

A span's self time is its duration minus the durations of its direct
children.  Book-keeping done for a counter (fingerprints, bit lengths)
runs inside a `_trace` span, a child of the caller, so it is charged to no
layer.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

S, COUNT, RATIO, BITS = "s", "count", "ratio", "bits"

# (metric, unit, better) for every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("intlin.smith_decomposition.self_s", S, "lower"),
    ("intlin.smith_decomposition.calls", COUNT, "lower"),
    ("intlin.reduced_nnz", COUNT, "lower"),
    ("intlin.max_entry_bits", BITS, "lower"),
    ("intlin.invariant_factors.self_s", S, "lower"),
    ("intlin.invariant_factors.calls", COUNT, "lower"),
    ("intlin.lattice_contains.self_s", S, "lower"),
    ("intlin.lattice_contains.calls", COUNT, "lower"),
    ("intlin.matmul.self_s", S, "lower"),
    ("intlin.matmul.calls", COUNT, "lower"),
    ("intlin.matrix_new.calls", COUNT, "lower"),
    ("complexes.chain_complex.self_s", S, "lower"),
    ("complexes.chain_complex.calls", COUNT, "lower"),
    ("complexes.bicomplex.self_s", S, "lower"),
    ("complexes.bicomplex.calls", COUNT, "lower"),
    ("complexes.chain_map.self_s", S, "lower"),
    ("complexes.chain_map.calls", COUNT, "lower"),
    ("complexes.total_complex.self_s", S, "lower"),
    ("complexes.mapping_cone.self_s", S, "lower"),
    ("complexes.tensor.self_s", S, "lower"),
    ("complexes.homology_presentation.self_s", S, "lower"),
    ("complexes.homology_presentation.calls", COUNT, "lower"),
    ("complexes.presentation_reuse", RATIO, "higher"),
    ("complexes.exact_at.self_s", S, "lower"),
    ("complexes.exact_at.calls", COUNT, "lower"),
    ("complexes.cone_les_check.self_s", S, "lower"),
    ("dga.validate.self_s", S, "lower"),
    ("dga.validate.calls", COUNT, "lower"),
    ("dga.load_algebra.self_s", S, "lower"),
    ("hochschild.complex.self_s", S, "lower"),
    ("hochschild.complex.calls", COUNT, "lower"),
    ("hochschild.chains", COUNT, "lower"),
    ("hochschild.induced_map.self_s", S, "lower"),
    ("hochschild.induced_map.calls", COUNT, "lower"),
    ("cyclic.bundle.self_s", S, "lower"),
    ("cyclic.bundle.calls", COUNT, "lower"),
    ("cyclic.bundle_reuse", RATIO, "higher"),
    ("cyclic.induced_cyclic_map.calls", COUNT, "lower"),
    ("cyclic.sbi_check.self_s", S, "lower"),
    ("filtered.multi_tensor.self_s", S, "lower"),
    ("filtered.multi_tensor.calls", COUNT, "lower"),
    ("filtered.tensor_generators", COUNT, "lower"),
    ("filtered.tensor_relations", COUNT, "lower"),
    ("filtered.cyclic_bar.calls", COUNT, "lower"),
    ("filtered.graded_comparison.self_s", S, "lower"),
    ("filtered.graded_comparison.calls", COUNT, "lower"),
    ("filtered.ring.self_s", S, "lower"),
    ("ktheory.k_table.self_s", S, "lower"),
    ("ktheory.relative_k.calls", COUNT, "lower"),
    ("cli.run.self_s", S, "lower"),
    ("trace.overhead", RATIO, "lower"),
]

# metrics computed by the caller from untraced and traced passes
EXTERNAL = {"trace.overhead"}

BOOKKEEPING = "_trace"


def _fingerprint(M) -> tuple:
    return (M.rows, M.cols, hash(frozenset(M.entries.items())))


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index, job]
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self.job = "setup"
        self._max_bits = 0
        self._presentations: set = set()
        self._bundles: set = set()

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def traced(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                idx = open_(BOOKKEEPING)
                try:
                    after(args, result)
                finally:
                    close(idx)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, module, attr: str, name: str, after=None) -> None:
        """Wrap module.attr in every cychom namespace that bound it."""
        original = getattr(module, attr)
        wrapper = self.traced(name, original, after)
        sites = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cychom" or mod_name.startswith("cychom.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    sites += 1
        if sites == 0:
            raise RuntimeError(f"{module.__name__}.{attr} is bound nowhere")

    def _wrap_method(self, cls, attr: str, name: str, after=None) -> None:
        setattr(cls, attr, self.traced(name, getattr(cls, attr), after))

    def _count_method(self, cls, attr: str, metric: str) -> None:
        original = getattr(cls, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return original(*args, **kwargs)

        setattr(cls, attr, wrapper)

    def install(self) -> None:
        from cychom import cli, complexes, cyclic, dga, filtered, hochschild, intlin, ktheory

        M = intlin.SparseIntMatrix
        self._rebind(intlin, "smith_decomposition", "intlin.smith_decomposition", self._after_smith)
        self._rebind(intlin, "invariant_factors", "intlin.invariant_factors")
        self._rebind(intlin, "lattice_contains", "intlin.lattice_contains")
        self._wrap_method(M, "__matmul__", "intlin.matmul")
        self._count_method(M, "__init__", "intlin.matrix_new.calls")

        self._wrap_method(complexes.ChainComplex, "__init__", "complexes.chain_complex")
        self._wrap_method(complexes.Bicomplex, "__init__", "complexes.bicomplex")
        self._wrap_method(complexes.ChainMap, "__init__", "complexes.chain_map")
        for fn in ("total_complex", "mapping_cone", "tensor", "exact_at", "cone_les_check"):
            self._rebind(complexes, fn, f"complexes.{fn}")
        self._rebind(
            complexes, "homology_presentation", "complexes.homology_presentation",
            self._after_presentation,
        )

        self._rebind(dga, "validate", "dga.validate")
        self._rebind(dga, "load_algebra", "dga.load_algebra")

        self._wrap_method(
            hochschild.HochschildComplex, "__init__", "hochschild.complex", self._after_hochschild
        )
        self._rebind(hochschild, "induced_map", "hochschild.induced_map")

        self._rebind(cyclic, "cyclic_bundle", "cyclic.bundle", self._after_bundle)
        self._rebind(cyclic, "induced_cyclic_map", "cyclic.induced_cyclic_map")
        self._rebind(cyclic, "sbi_check", "cyclic.sbi_check")

        self._rebind(filtered, "multi_tensor", "filtered.multi_tensor", self._after_tensor)
        self._rebind(filtered, "cyclic_bar", "filtered.cyclic_bar")
        self._rebind(filtered, "graded_comparison", "filtered.graded_comparison")
        self._wrap_method(filtered.FilteredRing, "__init__", "filtered.ring")

        self._rebind(ktheory, "k_table", "ktheory.k_table")
        self._rebind(ktheory, "relative_k", "ktheory.relative_k")

        self._rebind(cli, "run", "cli.run")
        self._dump_algebra = dga.dump_algebra

    # -- counters fed by book-keeping spans --------------------------------

    def _after_smith(self, args, dec) -> None:
        for M in (dec.d, dec.u, dec.v):
            self.counts["intlin.reduced_nnz"] += len(M.entries)
            for v in M.entries.values():
                bits = abs(v).bit_length()
                if bits > self._max_bits:
                    self._max_bits = bits

    def _after_presentation(self, args, hp) -> None:
        C, i = args
        self._presentations.add((i, _fingerprint(C.diff(i)), _fingerprint(C.diff(i + 1))))

    def _after_hochschild(self, args, _) -> None:
        H = args[0]
        self.counts["hochschild.chains"] += sum(H.total.dim(n) for n in H.total.degrees())

    def _after_bundle(self, args, _) -> None:
        A, bound = args
        self._bundles.add((self._dump_algebra(A), bound))

    def _after_tensor(self, args, level) -> None:
        self.counts["filtered.tensor_generators"] += level.presentation.num_generators
        self.counts["filtered.tensor_relations"] += level.presentation.relations.cols

    # -- results -----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Total self seconds per span name (book-keeping excluded)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Dict[str, float] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            if name != BOOKKEEPING:
                totals[name] = totals.get(name, 0.0) + (end - start - child[k])
        return totals

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric except those in EXTERNAL."""
        calls = Counter(span[0] for span in self.spans)
        selfs = self.self_times()
        values: Dict[str, float] = dict(self.counts)
        values["intlin.max_entry_bits"] = self._max_bits
        n_pres = calls["complexes.homology_presentation"]
        values["complexes.presentation_reuse"] = len(self._presentations) / n_pres if n_pres else 0.0
        n_bundles = calls["cyclic.bundle"]
        values["cyclic.bundle_reuse"] = len(self._bundles) / n_bundles if n_bundles else 0.0
        out = {}
        for metric, unit, _ in PER_LAYER:
            if metric in EXTERNAL:
                continue
            if metric.endswith(".self_s"):
                out[metric] = selfs.get(metric[: -len(".self_s")], 0.0)
            elif metric.endswith(".calls") and metric not in values:
                out[metric] = calls[metric[: -len(".calls")]]
            else:
                out[metric] = values.get(metric, 0)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
