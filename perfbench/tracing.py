"""Span tracing of qcut's layers from outside the package.

A traced pass replaces a fixed set of qcut's public functions and methods
with wrappers that record one span per call: name, start, end, parent span
and operation id.  The originals are put back when the pass ends, so the
untraced passes run the package exactly as shipped.  Spans stay in memory
and are written out when the run ends.

The counts next to the timings (bytes of dense PTMs, terms, enumerated
support values, open ZX legs) are computed here from the arguments and
results of the wrapped calls, not read from counters inside the package.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter

import qcut.channels
import qcut.cli
import qcut.cuts
import qcut.sampling
import qcut.zx

#: per-layer metrics: name -> unit.  Times are seconds per operation of
#: self time (span duration minus its child spans), except
#: ``sampling.run_s``, which is the whole ``run()`` call; counts are per
#: operation.  ``trace.overhead_pct`` compares traced with untraced passes.
LAYER_METRICS = {
    "linalg.ptm_of_unitary_s": "s",
    "linalg.ptm_of_unitary_calls": "count",
    "linalg.ptm_bytes": "B",
    "channels.to_superoperator_s": "s",
    "channels.to_superoperator_calls": "count",
    "cuts.build_s": "s",
    "cuts.term_ptm_s": "s",
    "cuts.reconstruct_s": "s",
    "cuts.verify_s": "s",
    "cuts.terms": "count",
    "sampling.term_value_distributions_s": "s",
    "sampling.support_size": "count",
    "sampling.exact_expectation_s": "s",
    "sampling.run_s": "s",
    "sampling.shot_draw_s": "s",
    "cli.build_experiment_s": "s",
    "cli.self_s": "s",
    "zx.diagram_build_s": "s",
    "zx.contract_s": "s",
    "zx.verify_rule_s": "s",
    "zx.open_legs": "count",
    "trace.overhead_pct": "%",
}

#: self-time metric -> span name
_SELF_TIME = {
    "linalg.ptm_of_unitary_s": "linalg.ptm_of_unitary",
    "channels.to_superoperator_s": "channels.to_superoperator",
    "cuts.build_s": "cuts.build",
    "cuts.term_ptm_s": "cuts.term_ptm",
    "cuts.reconstruct_s": "cuts.reconstruct",
    "cuts.verify_s": "cuts.verify",
    "sampling.term_value_distributions_s": "sampling.term_value_distributions",
    "sampling.exact_expectation_s": "sampling.exact_expectation",
    "sampling.shot_draw_s": "sampling.run",
    "cli.build_experiment_s": "cli.build_experiment",
    "cli.self_s": "cli.main",
    "zx.diagram_build_s": "zx.diagram_build",
    "zx.contract_s": "zx.contract",
    "zx.verify_rule_s": "zx.verify_rule",
}

#: whole-call metric -> span name
_TOTAL_TIME = {"sampling.run_s": "sampling.run"}

_BUILDERS = (
    "wire_cut_ncc",
    "wire_cut_cc",
    "mcz_decomposition",
    "rzz_decomposition_a",
    "rzz_decomposition_b",
    "multi_z_rotation_decomposition",
    "controlled_sequence_decomposition",
)


def _ptm_bytes(n_qubits: int) -> int:
    """Bytes of one dense complex 4^n x 4^n PTM."""
    return 16 * 16**n_qubits


class Tracer:
    """In-memory span recorder for one run.

    ``spans`` holds ``[name, start, end, parent, op_id]`` lists; ``parent`` is
    an index into ``spans`` or ``None``.  ``counts`` accumulates the exact
    per-run counters keyed by metric name.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op_labels = {}
        self._stack = []
        self._op_id = None
        self._seen = set()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, self._op_id]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id: int, label: str):
        """Root span of one operation; first-call bookkeeping resets here."""
        self._op_id = op_id
        self.op_labels[op_id] = label
        self._seen.clear()
        try:
            with self.span("op"):
                yield
        finally:
            self._op_id = None

    def first_call(self, name: str, obj) -> bool:
        """True the first time ``obj`` reaches span ``name`` in this operation."""
        key = (name, id(obj))
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def inside(self, name: str) -> bool:
        """True when an open span other than the innermost is named ``name``."""
        return any(self.spans[i][0] == name for i in self._stack[:-1])

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-operation means of every layer metric except the overhead."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        total_time = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            total_time[name] += end - start
            self_time[name] += end - start - child_time[index]
        out = {}
        for metric in LAYER_METRICS:
            if metric in _SELF_TIME:
                value = self_time[_SELF_TIME[metric]]
            elif metric in _TOTAL_TIME:
                value = total_time[_TOTAL_TIME[metric]]
            elif metric == "trace.overhead_pct":
                continue
            else:
                value = self.counts[metric]
            out[metric] = value / n_ops
        return out

    def write(self, path):
        """Write the spans as JSON lines, one operation label table first."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"op_labels": self.op_labels}) + "\n")
            for name, start, end, parent, op_id in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )


def _wrap(tracer, fn, name, *, first_only=False, on_return=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if first_only and not tracer.first_call(name, args[0]):
            return fn(*args, **kwargs)
        with tracer.span(name):
            result = fn(*args, **kwargs)
            nested = tracer.inside(name)
        if on_return is not None:
            on_return(tracer, args, result, nested)
        return result

    return wrapper


def _count_target_ptm(tracer, args, result, nested):
    tracer.counts["linalg.ptm_of_unitary_calls"] += 1
    tracer.counts["linalg.ptm_bytes"] += _ptm_bytes(args[0].n_qubits)


def _count_factor_ptm(tracer, args, result, nested):
    tracer.counts["channels.to_superoperator_calls"] += 1
    tracer.counts["linalg.ptm_bytes"] += _ptm_bytes(args[0].n_qubits)


def _count_ptm(tracer, args, result, nested):
    tracer.counts["linalg.ptm_bytes"] += _ptm_bytes(args[0].n_qubits)


def _count_terms(tracer, args, result, nested):
    # multi_z builds its two-qubit base through another builder
    if not nested:
        tracer.counts["cuts.terms"] += len(result.terms)


def _count_support(tracer, args, result, nested):
    tracer.counts["sampling.support_size"] += sum(len(values) for values, _ in result)


def _count_legs(tracer, args, result, nested):
    d = args[0]
    tracer.counts["zx.open_legs"] += len(d.inputs) + len(d.outputs)


def _targets(extra_functions):
    """(owner, attribute, span name, options) for every traced call."""
    targets = [
        (qcut.cuts, "ptm_of_unitary", "linalg.ptm_of_unitary",
         dict(on_return=_count_target_ptm)),
        (qcut.cuts.DecompositionTerm, "to_superoperator", "cuts.term_ptm",
         dict(first_only=True, on_return=_count_ptm)),
        (qcut.cuts.Decomposition, "reconstruct", "cuts.reconstruct",
         dict(on_return=_count_ptm)),
        (qcut.cuts.Decomposition, "verify", "cuts.verify", {}),
        (qcut.sampling, "run", "sampling.run", {}),
        (qcut.sampling, "term_value_distributions",
         "sampling.term_value_distributions", dict(on_return=_count_support)),
        (qcut.sampling, "exact_expectation", "sampling.exact_expectation", {}),
        (qcut.cli, "main", "cli.main", {}),
        (qcut.cli, "build_experiment", "cli.build_experiment", {}),
        (qcut.zx, "contract", "zx.contract", dict(on_return=_count_legs)),
        (qcut.zx, "verify_rule", "zx.verify_rule", {}),
    ]
    for name in ("mcp_diagram", "mcz_diagram", "split_mcz_three_hboxes"):
        targets.append((qcut.zx, name, "zx.diagram_build", {}))
    for name in _BUILDERS:
        targets.append((qcut.cuts, name, "cuts.build", dict(on_return=_count_terms)))
    # every map class that computes its own PTM: the first call per factor
    base = qcut.channels.GeneralizedMap
    for cls in vars(qcut.channels).values():
        if (isinstance(cls, type) and issubclass(cls, base)
                and "to_superoperator" in cls.__dict__):
            targets.append((cls, "to_superoperator", "channels.to_superoperator",
                            dict(first_only=True, on_return=_count_factor_ptm)))
    targets.extend(extra_functions)
    return targets


@contextlib.contextmanager
def installed(tracer: Tracer, extra_functions=()):
    """Patch the traced calls for the duration of the block, then restore.

    ``extra_functions`` adds ``(owner, attribute, span name, options)``
    entries for benchmark-side helpers, such as the gate matrices the ``zx``
    workload builds.
    """
    saved = []
    try:
        for owner, attr, name, options in _targets(extra_functions):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, **options))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
