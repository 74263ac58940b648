"""Spans around calls into kronseq's public functions, recorded from outside.

``Tracer`` replaces each traced function by a wrapper in every kronseq
module that holds a reference to it (``analysis`` imports ``matrix_at``,
``cli`` imports ``analyze`` and so on), and puts the originals back when
it is closed.  A span is (name, start_ns, end_ns, parent, info): the parent
is the index of the enclosing span or -1, and info is the one fact the
span's layer metrics need, taken from the arguments or the outcome.  The
generator ``iter_convergent_pairs`` is not wrapped; its time lands in the
self time of whoever consumes it.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter_ns

from kronseq import PrecisionExhausted

MODULES = ("kronseq", "kronseq.cf", "kronseq.symbols", "kronseq.analysis",
           "kronseq.oracle", "kronseq.cli")
LAYERS = ("cli", "analysis", "symbols", "cf", "oracle")

# span name -> functions recorded under it, as "module.function"
TRACED = {
    "cli.main": ("cli.main",),
    "cli.build_report": ("cli.build_report",),
    "cli.serialize": ("cli.report_to_dict", "cli.report_to_json",
                      "cli.report_to_text", "cli.report_to_csv"),
    "analysis.analyze": ("analysis.analyze",),
    "analysis.classify": ("analysis.classify",),
    "analysis.mod4_period_length": ("analysis.mod4_period_length",),
    "analysis.certified_period_length": ("analysis.certified_period_length",),
    "analysis.decompose": ("analysis.decompose",),
    "analysis.critical_scan": ("analysis.critical_scan",),
    "analysis.cascade": ("analysis.cascade",),
    "symbols.jacobi_sequence": ("symbols.jacobi_sequence",),
    "symbols.kronecker_sequence": ("symbols.kronecker_sequence",),
    "cf.matrix_at": ("cf.matrix_at",),
    "cf.matrix_at_mod2": ("cf.matrix_at_mod2",),
    "cf.convergents": ("cf.convergents",),
    "cf.quad_irrational_of": ("cf.quad_irrational_of",),
    "oracle.cross_check": ("oracle.cross_check",),
    "oracle.empirical_period": ("oracle.empirical_period",),
}


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _sequence_fact(args, kwargs, result, exc):
    return args[0].quotients, _arg(args, kwargs, 1, "count")


# span name -> fact(args, kwargs, result, exc)
FACTS = {
    "symbols.jacobi_sequence": _sequence_fact,
    "symbols.kronecker_sequence": _sequence_fact,
    "cf.matrix_at": lambda a, kw, res, exc: _arg(a, kw, 1, "k") + 1,
    "cf.matrix_at_mod2": lambda a, kw, res, exc: _arg(a, kw, 2, "precision"),
    "analysis.cascade": lambda a, kw, res, exc: isinstance(exc, PrecisionExhausted),
    "oracle.cross_check": lambda a, kw, res, exc: res.window_length if res else 0,
}

# (name, unit, better) of every per-layer metric, in print order
METRICS = (
    [(f"{span}.calls", "count", "lower") for span in TRACED if span != "cli.serialize"]
    + [(f"{span}.self_ms", "ms", "lower") for span in TRACED]
    + [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    + [
        ("analysis.analyze.calls_per_block", "calls/block", "lower"),
        ("analysis.cascade.retries", "count", "lower"),
        ("analysis.cascade.retry_ratio", "ratio", "lower"),
        ("symbols.jacobi_sequence.terms", "count", "lower"),
        ("symbols.kronecker_sequence.terms", "count", "lower"),
        ("symbols.terms_per_block", "terms/block", "lower"),
        ("symbols.max_bits", "bits", "lower"),
        ("cf.matrix_at.steps", "count", "lower"),
        ("cf.matrix_at_mod2.max_precision", "bits", "lower"),
        ("oracle.window_terms", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.covered_ratio", "ratio", "higher"),
        ("trace.harness_ms", "ms", "lower"),
    ]
)
UNITS = {name: unit for name, unit, _ in METRICS}


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, fact):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = exc = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                info = fact(args, kwargs, result, exc) if fact else None
                spans[index] = (name, start, end, parent, info)

        return traced

    def __enter__(self):
        modules = [sys.modules[m] for m in MODULES]
        for name, targets in TRACED.items():
            for target in targets:
                modname, attr = target.split(".")
                original = getattr(sys.modules[f"kronseq.{modname}"], attr)
                wrapper = self._wrap(name, original, FACTS.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))
        return self

    def __exit__(self, *exc_info):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()


def write_spans(path, spans):
    """One JSON array per line: name, start_ns, end_ns, parent."""
    with open(path, "w") as fh:
        for name, start, end, parent, _ in spans:
            fh.write(json.dumps([name, start, end, parent]) + "\n")


def self_times(spans):
    """Self time of each span in ns: its duration minus its children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, passes, blocks_per_pass, traced_wall_s, untraced_wall_s,
                  t_bits):
    """Per-layer metrics, per pass over the corpus.

    ``t_bits(quotients, count)`` gives the bit length of t_{count-1}; it is
    called here, after the traced run, with the untraced functions.
    """
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    facts = defaultdict(list)
    for (name, _, _, _, info), own in zip(spans, self_times(spans)):
        calls[name] += 1
        self_ns[name] += own
        if info is not None:
            facts[name].append(info)
    blocks = blocks_per_pass * passes
    out = {}
    for name, _, _ in METRICS:
        stem, _, leaf = name.rpartition(".")
        if leaf == "calls":
            out[name] = calls[stem] / passes
        elif leaf == "self_ms" and stem in TRACED:
            out[name] = self_ns[stem] / passes / 1e6
        elif leaf == "self_ms":
            out[name] = sum(v for k, v in self_ns.items()
                            if k.startswith(stem + ".")) / passes / 1e6
    longest = {}
    for quotients, count in facts["symbols.jacobi_sequence"] + facts["symbols.kronecker_sequence"]:
        longest[quotients] = max(count, longest.get(quotients, 0))
    jacobi_terms = sum(c for _, c in facts["symbols.jacobi_sequence"])
    kronecker_terms = sum(c for _, c in facts["symbols.kronecker_sequence"])
    retries = sum(facts["analysis.cascade"])
    total_self = sum(self_ns.values())
    traced_ns = traced_wall_s * 1e9
    out.update({
        "analysis.analyze.calls_per_block": calls["analysis.analyze"] / blocks,
        "analysis.cascade.retries": retries / passes,
        "analysis.cascade.retry_ratio": retries / calls["analysis.cascade"]
        if calls["analysis.cascade"] else 0.0,
        "symbols.jacobi_sequence.terms": jacobi_terms / passes,
        "symbols.kronecker_sequence.terms": kronecker_terms / passes,
        "symbols.terms_per_block": (jacobi_terms + kronecker_terms) / blocks,
        "symbols.max_bits": max((t_bits(q, c) for q, c in longest.items()), default=0),
        "cf.matrix_at.steps": sum(facts["cf.matrix_at"]) / passes,
        "cf.matrix_at_mod2.max_precision": max(facts["cf.matrix_at_mod2"], default=0),
        "oracle.window_terms": sum(facts["oracle.cross_check"]) / passes,
        "trace.overhead_ratio": traced_wall_s / untraced_wall_s,
        "trace.covered_ratio": total_self / traced_ns,
        "trace.harness_ms": (traced_ns - total_self) / passes / 1e6,
    })
    return out
