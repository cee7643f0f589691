"""Span tracing for the traced benchmark run, done entirely from outside kvq.

The kvq modules import each other's functions by name, so a function is
wrapped at every place a caller looks it up (``kvq.model.rope``, not
``kvq.tensor.rope``).  Wrappers are installed only while a traced request
runs and the original objects are put back afterwards; the untraced run never
touches a kvq attribute.

Each wrapper records a span (name, start, end, parent, request id, counts).
Spans stay in memory until the run ends; ``per_layer_metrics`` turns them
into the per-layer figures listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import kvq
import kvq.analyzer
import kvq.calibration
import kvq.checkpoint
import kvq.evaluate
import kvq.model
import kvq.quantizers
import kvq.tensor


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    request: str
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


@dataclass(frozen=True)
class Target:
    """One traced function: its span name, every lookup site, and its counts.

    ``pre(args, kwargs)`` runs before the call and ``post(args, kwargs,
    result)`` after a successful one; both return counts for the span.
    """

    name: str
    sites: tuple
    pre: object = None
    post: object = None


def _targets() -> tuple[Target, ...]:
    m, q, t, c, e, a, ck = (kvq.model, kvq.quantizers, kvq.tensor, kvq.calibration,
                            kvq.evaluate, kvq.analyzer, kvq.checkpoint)
    return (
        Target("model.prefill", ((kvq, "prefill"), (m, "prefill"), (e, "prefill")),
               pre=lambda a_, k: {"tokens": len(_arg(a_, k, 1, "token_ids"))}),
        Target("model.decode_step",
               ((kvq, "decode_step"), (m, "decode_step"), (e, "decode_step")),
               pre=lambda a_, k: {"ctx": _arg(a_, k, 2, "cache").length}),
        Target("model.cache_append", ((m.PoqKvCache, "append"),),
               pre=lambda a_, k: {"rows": _arg(a_, k, 2, "k_s").shape[0]}),
        Target("model.cache_read", ((m.PoqKvCache, "read_raw"),),
               pre=lambda a_, k: {"rows": a_[0].length}),
        Target("quantizers.quantize_token", ((m, "quantize_token"),),
               pre=lambda a_, k: {"elems": np.size(_arg(a_, k, 0, "y"))}),
        Target("quantizers.dequantize", ((m, "dequantize"), (q, "dequantize")),
               pre=lambda a_, k: {"elems": _arg(a_, k, 0, "q").codes.size}),
        Target("quantizers.apply_kv_smoothing", ((m, "apply_kv_smoothing"),)),
        Target("quantizers.fake_quant_token", ((c, "fake_quant_token"),)),
        Target("quantizers.fake_quant_weight", ((c, "fake_quant_weight"),)),
        Target("tensor.rope", ((m, "rope"),),
               pre=lambda a_, k: {"rows": _arg(a_, k, 0, "x").shape[0]}),
        Target("tensor.softmax_causal", ((m, "softmax_causal"),)),
        Target("tensor.backward", ((t.Tensor, "backward"),)),
        Target("calibration.calibrate_block", ((c, "calibrate_block"),),
               post=lambda a_, k, r: {"fell_back": int(bool(r["failed"]))}),
        Target("calibration.init_trainables", ((c, "init_trainables"),)),
        Target("calibration.crr_loss", ((c, "crr_loss"),)),
        Target("calibration.adamw_step", ((c.AdamW, "step"),)),
        Target("evaluate.score_logits", ((e, "score_logits"),),
               pre=lambda a_, k: {"tokens": len(_arg(a_, k, 1, "ids"))}),
        Target("analyzer.verify_runtime_accounting", ((a, "verify_runtime_accounting"),),
               post=lambda a_, k, r: {"bytes": r["analyzer_bytes"], "tokens": r["tokens"]}),
        Target("checkpoint.save_model", ((kvq, "save_model"), (ck, "save_model")),
               post=lambda a_, k, r: {"bytes": os.path.getsize(_arg(a_, k, 1, "path"))}),
        Target("checkpoint.load_model", ((kvq, "load_model"), (ck, "load_model"))),
    )


def wrapped_sites() -> list[tuple[object, str]]:
    """Every (owner, attribute) the traced run replaces."""
    return [site for tg in _targets() for site in tg.sites]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._targets = _targets()
        self.request = ""

    def _wrap(self, tg: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = tg.pre(args, kwargs) if tg.pre else {}
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(tg.name, 0.0, 0.0, parent, self.request, attrs))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                attrs["error"] = 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx].start, self.spans[idx].end = start, end
            if tg.post:
                attrs.update(tg.post(args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def active(self, request: str):
        """Install every wrapper for one request and restore the originals after."""
        self.request = request
        saved = []
        try:
            for tg in self._targets:
                for owner, attr in tg.sites:
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(tg, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump([[s.name, s.start, s.end, s.parent, s.request, s.attrs]
                       for s in self.spans], f)


# -- aggregation ---------------------------------------------------------------

TIMED = (
    "model.prefill", "model.decode_step", "model.cache_append", "model.cache_read",
    "quantizers.apply_kv_smoothing", "quantizers.fake_quant_token",
    "quantizers.fake_quant_weight", "tensor.rope", "tensor.softmax_causal",
    "tensor.backward", "calibration.calibrate_block", "calibration.crr_loss",
    "calibration.adamw_step", "evaluate.score_logits", "checkpoint.save_model",
    "checkpoint.load_model",
)
"""Spans whose total (``.s``) and self (``.self_s``) time are reported."""


def _totals(spans: list[Span], all_spans: list[Span]) -> dict:
    """Per span name: calls, total seconds, self seconds and summed counts."""
    child_time: dict[int, float] = {}
    for s in all_spans:
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur
    index = {id(s): i for i, s in enumerate(all_spans)}
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += s.dur
        agg["self_s"] += s.dur - child_time.get(index[id(s)], 0.0)
        for key, val in s.attrs.items():
            agg[key] = agg.get(key, 0) + val
    return out


def _decode_fit(spans: list[Span]) -> tuple[float, float]:
    """Least-squares step time (ms) = intercept + slope * context length."""
    steps = [(s.attrs["ctx"], 1e3 * s.dur) for s in spans if s.name == "model.decode_step"]
    if len({c for c, _ in steps}) < 2:
        return 0.0, 0.0
    ctx, ms = np.array(steps, dtype=np.float64).T
    slope, intercept = np.polyfit(ctx, ms, 1)
    return float(intercept), float(slope)


def per_layer_metrics(tracer: Tracer, setup_reps: int, overhead_pct: float) -> dict:
    """Per-layer figures: workload requests for every layer, set-up for checkpoint."""
    work = [s for s in tracer.spans if not s.request.startswith("setup")]
    setup = [s for s in tracer.spans if s.request.startswith("setup")]
    agg = _totals(work, tracer.spans)
    agg_setup = _totals(setup, tracer.spans)

    def get(name, key, source=agg):
        return float(source.get(name, {}).get(key, 0))

    def per_elem_ns(name):
        elems = get(name, "elems")
        return 1e9 * get(name, "s") / elems if elems else 0.0

    blocks = get("calibration.calibrate_block", "calls")
    verify_calls = get("analyzer.verify_runtime_accounting", "calls")
    verified_tokens = get("analyzer.verify_runtime_accounting", "tokens")
    intercept, slope = _decode_fit(work)
    m = {
        "model.prefill.tokens": get("model.prefill", "tokens"),
        "model.decode_step.calls": get("model.decode_step", "calls"),
        "model.decode_step.intercept_ms": intercept,
        "model.decode_step.slope_us_per_ctx": 1e3 * slope,
        "model.cache_append.calls": get("model.cache_append", "calls"),
        "model.cache_append.rows": get("model.cache_append", "rows"),
        "model.cache_read.calls": get("model.cache_read", "calls"),
        "model.cache_read.rows": get("model.cache_read", "rows"),
        "quantizers.quantize_token.elems": get("quantizers.quantize_token", "elems"),
        "quantizers.quantize_token.ns_per_elem": per_elem_ns("quantizers.quantize_token"),
        "quantizers.dequantize.elems": get("quantizers.dequantize", "elems"),
        "quantizers.dequantize.ns_per_elem": per_elem_ns("quantizers.dequantize"),
        "tensor.rope.calls": get("tensor.rope", "calls"),
        "tensor.rope.rows": get("tensor.rope", "rows"),
        "tensor.backward.calls": get("tensor.backward", "calls"),
        "calibration.crr_loss.calls": get("calibration.crr_loss", "calls"),
        "calibration.runs_per_block":
            (get("calibration.init_trainables", "calls") - blocks) / blocks if blocks else 0.0,
        "calibration.kept_ratio":
            1.0 - get("calibration.calibrate_block", "fell_back") / blocks if blocks else 0.0,
        "evaluate.score_logits.calls": get("evaluate.score_logits", "calls"),
        "evaluate.score_logits.tokens": get("evaluate.score_logits", "tokens"),
        "analyzer.verify_runtime_accounting.calls": verify_calls,
        "analyzer.accounting_mismatches": get("analyzer.verify_runtime_accounting", "error"),
        "analyzer.kv_bytes_per_token":
            get("analyzer.verify_runtime_accounting", "bytes") / verified_tokens
            if verified_tokens else 0.0,
        "checkpoint.bytes": get("checkpoint.save_model", "bytes", agg_setup) / setup_reps,
        "trace.overhead_pct": overhead_pct,
    }
    for name in TIMED:
        source = agg_setup if name.startswith("checkpoint.") else agg
        reps = setup_reps if name.startswith("checkpoint.") else 1
        m[f"{name}.s"] = get(name, "s", source) / reps
        m[f"{name}.self_s"] = get(name, "self_s", source) / reps
    return m


def per_layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {
        "s": "s", "self_s": "s", "intercept_ms": "ms", "slope_us_per_ctx": "us/ctx",
        "ns_per_elem": "ns/elem", "overhead_pct": "%", "kv_bytes_per_token": "B/token",
        "bytes": "B", "runs_per_block": "runs/block", "kept_ratio": "ratio",
    }.get(suffix, "count")
