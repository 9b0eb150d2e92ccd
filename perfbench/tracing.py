"""Spans around the public functions of each qcausal module, recorded from outside.

Every span is attached where the calling module looks the name up: ``bench``
imports ``identify``, ``alignment_scan`` and ``make_oracle`` by name, and
``comb`` imports ``rotation_from_unitary`` by name, so a patch on the
defining module alone would miss those calls.  Methods and constructors are
patched on their classes, which every caller shares.

A span is ``[name, start_ns, end_ns, parent, mechanism, info]``: ``parent``
is the index of the enclosing span (-1 at the top), ``mechanism`` counts the
calls of the span names that start a new mechanism of the workload, and
``info`` holds counts read off the call's result.  Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict

#: Largest number of oracle queries one identification run may take.
QUERY_BUDGET = 25

#: Span names whose self time is the identification algorithm's own work.
IDENTIFY_SPANS = (
    "identify.identify",
    "identify.alignment_scan",
    "identify.second_round",
    "identify.axis_candidates",
    "identify.modifier_from_axis",
)


def _targets():
    """(owner, attribute, span name) for every spanned callable, and the counted ones."""
    mod = importlib.import_module
    bench, cli, comb = mod("qcausal.bench"), mod("qcausal.cli"), mod("qcausal.comb")
    ident, scen = mod("qcausal.identify"), mod("qcausal.scenarios")
    spans = [
        (cli, "main", "cli.main"),
        (cli, "run_random_bench", "bench.run"),
        (cli, "run_sweep", "bench.run"),
        (cli, "run_tetra_check", "bench.run"),
        (bench, "exact_margin", "bench.exact_margin"),
        (bench, "bootstrap_errorbars", "bench.bootstrap"),
        (bench, "make_oracle", "comb.make_oracle"),
        (bench, "pauli_vector", "comb.pauli_vector"),
        (bench, "barycentric", "geometry.barycentric"),
        (bench, "haar_unitary", "scenarios.haar_unitary"),
        (bench, "random_state", "scenarios.random_state"),
        (scen, "unitary_from_axis_angle", "linalg.unitary_from_axis_angle"),
        (ident, "rotation_from_unitary", "linalg.rotation_from_unitary"),
        (ident, "unitary_from_axis_angle", "linalg.unitary_from_axis_angle"),
        (comb, "rotation_from_unitary", "linalg.rotation_from_unitary"),
        (comb.MeasurementOracle, "query", "comb.query"),
        (comb.DirectCause, "__init__", "comb.construct"),
        (comb.CommonCause, "__init__", "comb.construct"),
        (comb.TwoQubitState, "__init__", "comb.construct"),
    ]
    spans.append((bench, "identify", "identify.identify"))
    for owner in (bench, ident):
        for name in ("alignment_scan", "second_round", "axis_candidates", "modifier_from_axis"):
            spans.append((owner, name, f"identify.{name}"))
    # ``distance`` runs ~134k times per plane sweep inside the bootstrap;
    # a count keeps the tracing overhead down and its time stays with the caller.
    counted = [(bench, "distance", "geometry.distance"), (ident, "distance", "geometry.distance")]
    return spans, counted


def _query_info(args, result):
    return args[0].shots


def _identify_info(args, result):
    return [result.query_count, result.rounds_used, args[0].shots]


_INFO = {"comb.query": _query_info, "identify.identify": _identify_info}


class Tracer:
    """Records spans and counts while installed; ``uninstall`` restores the program."""

    def __init__(self, mechanism_spans=()):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.mechanism = 0
        self._mechanism_spans = frozenset(mechanism_spans)
        self._stack = [-1]
        self._saved: list = []

    def install(self):
        spans, counted = _targets()
        for owner, attr, name in spans:
            original = owner.__dict__[attr]
            wrapped = self._span(name, original)
            if name == "bench.bootstrap":
                wrapped = self._count_derive(wrapped)
            self._replace(owner, attr, original, wrapped)
        for owner, attr, name in counted:
            original = owner.__dict__[attr]
            self._replace(owner, attr, original, self._count(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, original, wrapped):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        starts_mechanism = name in self._mechanism_spans
        info = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_mechanism:
                self.mechanism += 1
            rec = [name, 0, 0, stack[-1], self.mechanism, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_derive(self, fn):
        """Count the calls of the ``derive`` callback handed to the bootstrap."""

        @functools.wraps(fn)
        def wrapper(counts, derive=None, *args, **kwargs):
            if derive is not None:
                derive = self._count("bench.bootstrap_derive", derive)
            return fn(counts, derive, *args, **kwargs)

        return wrapper

    def write(self, path):
        """Write the spans as JSON lines, then one line with the counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, mechanism, info in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "mechanism": mechanism, "info": info}))
                fh.write("\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    def metrics(self, window_s: float, per_record: bool) -> dict:
        """Per-layer figures of one traced round; see the README for each name."""
        return layer_metrics(self.spans, self.counts, window_s, per_record)


def layer_metrics(spans, counts, window_s, per_record):
    """Derive the per-layer metrics from spans and counts.

    ``window_s`` is the wall time of the traced ``cli.main`` call measured by
    the caller.  Self time is a span's duration minus its direct children.
    Besides the metrics, the result holds ``verdict_ms`` (every ``identify``
    latency, pooled by the caller for quantiles) and ``over_budget`` (the
    mechanisms with a verdict that took more than ``QUERY_BUDGET`` queries).
    """
    dur = [(rec[2] - rec[1]) * 1e-9 for rec in spans]
    self_t = list(dur)
    by_name = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            self_t[rec[3]] -= dur[i]
        by_name[rec[0]].append(i)

    def total(name, times):
        return sum(times[i] for i in by_name[name])

    def mean_us(indices):
        return 1e6 * statistics.fmean(dur[i] for i in indices) if indices else 0.0

    queries = by_name["comb.query"]
    exact = [i for i in queries if spans[i][5] == 0]
    sampled = [i for i in queries if spans[i][5] != 0]
    verdicts = [spans[i][5] for i in by_name["identify.identify"]]
    query_counts = [v[0] for v in verdicts]
    sampled_verdicts = [v for v in verdicts if v[2]]

    per_mechanism = Counter(spans[i][4] for i in queries) if per_record else Counter()
    roots = sum(dur[i] for i, rec in enumerate(spans) if rec[3] < 0)
    out = {
        "cli.render_s": total("cli.main", self_t),
        "bench.run_self_s": total("bench.run", self_t),
        "bench.exact_margin_s": total("bench.exact_margin", dur),
        "bench.exact_margin_calls": len(by_name["bench.exact_margin"]),
        "bench.bootstrap_s": total("bench.bootstrap", dur),
        "bench.bootstrap_calls": len(by_name["bench.bootstrap"]),
        "bench.bootstrap_derive_calls": counts["bench.bootstrap_derive"],
        "bench.queries_per_record_mean":
            statistics.fmean(per_mechanism.values()) if per_mechanism else 0.0,
        "bench.queries_per_record_max": max(per_mechanism.values(), default=0),
        "identify.calls": len(verdicts),
        "identify.self_s": sum(total(name, self_t) for name in IDENTIFY_SPANS),
        "identify.queries_per_verdict_mean": statistics.fmean(query_counts) if verdicts else 0.0,
        "identify.queries_per_verdict_max": max(query_counts, default=0),
        "identify.flipped_share":
            sum(v[1] == 2 for v in verdicts) / len(verdicts) if verdicts else 0.0,
        "identify.axis_candidates_us": mean_us(by_name["identify.axis_candidates"]),
        "identify.modifier_from_axis_us": mean_us(by_name["identify.modifier_from_axis"]),
        "comb.query_exact_us": mean_us(exact),
        "comb.query_exact_calls": len(exact),
        "comb.query_sampled_us": mean_us(sampled),
        "comb.query_sampled_calls": len(sampled),
        "comb.pauli_vector_us": mean_us(by_name["comb.pauli_vector"]),
        "comb.pauli_vector_calls": len(by_name["comb.pauli_vector"]),
        "comb.construct_us": mean_us(by_name["comb.construct"]),
        "comb.construct_calls": len(by_name["comb.construct"]),
        "comb.shots_per_verdict": statistics.fmean(3 * v[0] * v[2] for v in sampled_verdicts)
        if sampled_verdicts else 0.0,
        "linalg.rotation_from_unitary_us": mean_us(by_name["linalg.rotation_from_unitary"]),
        "linalg.rotation_from_unitary_calls": len(by_name["linalg.rotation_from_unitary"]),
        "linalg.unitary_from_axis_angle_us": mean_us(by_name["linalg.unitary_from_axis_angle"]),
        "linalg.unitary_from_axis_angle_calls": len(by_name["linalg.unitary_from_axis_angle"]),
        "geometry.barycentric_us": mean_us(by_name["geometry.barycentric"]),
        "geometry.barycentric_calls": len(by_name["geometry.barycentric"]),
        "geometry.distance_calls": counts["geometry.distance"],
        "scenarios.haar_unitary_us": mean_us(by_name["scenarios.haar_unitary"]),
        "scenarios.haar_unitary_calls": len(by_name["scenarios.haar_unitary"]),
        "scenarios.random_state_us": mean_us(by_name["scenarios.random_state"]),
        "scenarios.random_state_calls": len(by_name["scenarios.random_state"]),
        "trace.unattributed_s": window_s - roots,
        "trace.spans": len(spans),
    }
    out["verdict_ms"] = [1e3 * dur[i] for i in by_name["identify.identify"]]
    out["over_budget"] = len({spans[i][4] for i in by_name["identify.identify"]
                              if spans[i][5][0] > QUERY_BUDGET})
    return out
