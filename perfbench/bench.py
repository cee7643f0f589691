"""The kvq benchmark: seeded inputs, set-up, three closed-loop workloads and
their correctness checks.  ``run.py`` is the command-line entry point.

Every request goes through kvq's public functions, looked up on the module
at call time so that the traced run can wrap them (see tracing.py).
"""

from __future__ import annotations

import bisect
import contextlib
import copy
import hashlib
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import kvq
import kvq.analyzer
import kvq.evaluate
import kvq.model

from tracing import Tracer, per_layer_metrics, per_layer_unit

WORKLOADS = ("decode_long", "score_cached", "calibrate")

# Set-up uses this seed whatever --seed is: every run serves the same model,
# so set-up time, checkpoint and numerics do not vary with the workload seed.
# With a seeded fit slice, perplexity moved 29% (quartile spread over ten
# seeds) because a 30-step fit lands in a different place for each seed.
SETUP_SEED = 0

# The probe runs PROBE_REPS times, spread over the run between requests, so
# its timings see the same host conditions as the timed loop.
PROBE_REPS = 3

# score_cached runs at least PPL_CYCLES cycles and reports perplexity over
# the first PPL_CYCLES (381 scored tokens each): over ten seeds, one cycle
# spread 11% (quartile distance over median) and two 8%.
PPL_CYCLES = 3

# Each calibrate request draws its CalibConfig.seed from the run seed.  Some
# seeds fire the half-learning-rate retry in a block and some do not, so with
# one seed per run calib_s_per_block moved by up to 20% between seeds.  A run
# makes at least CALIB_CYCLES requests and reports calib_loss_ratio as the
# mean over the first CALIB_CYCLES.
CALIB_CYCLES = 3

# Largest |logit difference| the probe accepts between kvq's cache-path
# scoring and the benchmark's own step-by-step reference (and between prefill
# and cacheless scoring).  Both pairs are the same arithmetic today (0.0); a
# one-pass or vectorised rewrite may reorder float32 sums, which moves logits
# of magnitude ~10 by ~1e-5.
LOGIT_TOL = 1e-3

# Seconds one reference unit (``_reference_unit``) takes when HostSpeed
# samples it during a run at this host's usual speed: the median on a 2-vCPU
# Intel Xeon at 2.0 GHz, numpy 2.4 / OpenBLAS 0.3.31, one BLAS thread.  It
# only sets the scale of the divided timings.
REF_UNIT_S = 0.9e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "prefill_tok_s": "tok/s",
    "decode_ms_p50": "ms",
    "decode_ms_p90": "ms",
    "score_tok_s": "tok/s",
    "ppl_w4kv4": "ppl",
    "calib_s_per_block": "s",
    "calib_loss_ratio": "ratio",
    "peak_rss_mb": "MB",
    "ckpt_mb": "MB",
}


@dataclass(frozen=True)
class Sizes:
    """Everything that sets how much work one run does."""

    model: dict = field(default_factory=lambda: {"max_seq_len": 1024})
    fit_words: int = 4000
    heldout_words: int = 3000
    train_steps: int = 30
    train_batch: int = 2
    train_seq_len: int = 64
    calib_epochs: int = 2
    calib_segments: int = 4
    calib_seg_len: int = 64
    setup_reps: int = 3
    # one decode_long cycle: one request per prompt length, in seeded order
    prompt_lens: tuple = (256, 576, 896)
    decode_steps: int = 128
    # one score_cached cycle: one passage per length, in seeded order
    passage_lens: tuple = (64, 128, 192)
    probe_len: int = 96


TINY = Sizes(
    model=dict(n_layers=2, hidden_size=32, n_heads=2, head_dim=16, intermediate_size=48,
               max_seq_len=64, kv_group_size=8, weight_group_size=16),
    fit_words=400, heldout_words=200, train_steps=3, train_seq_len=16,
    calib_epochs=1, calib_segments=2, calib_seg_len=16, setup_reps=2,
    prompt_lens=(16, 40), decode_steps=8, passage_lens=(8, 12), probe_len=10,
)


# -- workload generator ------------------------------------------------------

WORDS = (
    "the a one red small old quiet bright cat dog fox bird tree river stone house "
    "runs sees finds likes holds jumps sleeps sings near under over with and then "
    "slowly today"
).split()


def _language():
    """A fixed word-level Markov source; the run seed only samples from it, so
    every seed draws text of the same statistics."""
    rng = np.random.default_rng(20240219)
    succ = np.stack([rng.choice(len(WORDS), 6, replace=False) for _ in WORDS])
    probs = rng.dirichlet(np.ones(6), size=len(WORDS))
    return succ, np.cumsum(probs, axis=1)


def _text(rng: np.random.Generator, n_words: int) -> bytes:
    succ, cum = _language()
    draws = rng.random(n_words)
    w = int(rng.integers(len(WORDS)))
    out = []
    for u in draws:
        out.append(WORDS[w])
        w = int(succ[w, min(int(np.searchsorted(cum[w], u)), 5)])
    return " ".join(out).encode()


@dataclass
class Corpus:
    """Token ids from three disjoint texts: fit/calibration, the probe passage,
    and the seeded held-out text that prompts and scored passages come from."""

    fit: np.ndarray
    probe: np.ndarray
    heldout: np.ndarray


def make_corpus(seed: int, sizes: Sizes) -> Corpus:
    def ids(key, n_words, bos):
        return kvq.evaluate.encode_bytes(_text(np.random.default_rng(key), n_words),
                                         add_bos=bos)

    probe = ids([SETUP_SEED, 3], sizes.probe_len, False)[:sizes.probe_len]
    return Corpus(ids([SETUP_SEED, 0], sizes.fit_words, True), probe,
                  ids([seed, 1], sizes.heldout_words, False))


def _window(rng: np.random.Generator, ids: np.ndarray, n: int) -> np.ndarray:
    start = int(rng.integers(0, len(ids) - n + 1))
    return ids[start:start + n].copy()


# -- host speed ----------------------------------------------------------------

_REF_RNG = np.random.default_rng(7)
_REF_W = _REF_RNG.standard_normal((128, 128)).astype(np.float32)
_REF_X = _REF_RNG.standard_normal((4, 128)).astype(np.float32)
_REF_M = _REF_RNG.standard_normal((1536, 1024)).astype(np.float32)
_REF_V = _REF_RNG.standard_normal(1024).astype(np.float32)


def _reference_unit() -> float:
    """Fixed work of the same kinds as kvq's.  A matrix-vector product over
    6 MB, which like kvq's weights and cache does not fit in L2, so it feels
    contention for the host's shared cache; then small float32 matmuls,
    softmax, 4-bit rounding and per-element Python, which feel the core's
    speed.  It never calls kvq, so no change to kvq can change its time."""
    acc = float((_REF_M @ _REF_V).sum())
    for _ in range(8):
        y = _REF_X @ _REF_W
        y = y - y.max(axis=1, keepdims=True)
        p = np.exp(y)
        p /= p.sum(axis=1, keepdims=True)
        q = np.clip(np.round(y * 0.5), -8, 7).astype(np.int8)
        acc += float(q.astype(np.float32).sum()) + sum(float(v) for v in p[0, :8])
    return acc


class HostSpeed:
    """How much slower than usual the host runs, sampled all through a run.

    The shared host this benchmark runs on switches between speeds up to
    1.7x apart, for seconds to minutes at a time (see README.md).  While
    ``sampling``, an interval timer interrupts the process every PERIOD_S
    and the handler times a reference unit, so samples fall inside kvq's
    calls as well as between them.  The handler runs the unit twice and
    times the second run: the first, right after kvq's work, runs 1.1-1.5x
    slow, by an amount that would depend on kvq's own memory use.  Samples
    take about 2.6% of the run's time.

    ``factor`` gives a timed section the mean of the samples taken during
    it, over REF_UNIT_S; the section's time divided by that factor reads as
    at the usual host speed.
    """

    PERIOD_S = 0.06
    MIN_SAMPLES = 4  # a shorter section borrows the samples nearest to it

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _sample(self, signum, frame) -> None:
        _reference_unit()
        t0 = time.perf_counter()
        _reference_unit()
        self.seconds.append(time.perf_counter() - t0)
        self.starts.append(t0)

    @contextlib.contextmanager
    def sampling(self):
        for _ in range(64):  # warm up: the first units run slow
            _reference_unit()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, seconds: float) -> float:
        """The host speed factor of the section that began at ``start``."""
        n = len(self.starts)
        if n == 0:
            return 1.0
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, start + seconds)
        while hi - lo < min(self.MIN_SAMPLES, n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        return statistics.fmean(self.seconds[lo:hi]) / REF_UNIT_S

    def summary(self) -> dict:
        factors = np.asarray(self.seconds) / REF_UNIT_S
        if not len(factors):
            return {"samples": 0}
        return {"samples": len(factors), "period_s": self.PERIOD_S,
                **{f"p{q}": float(np.percentile(factors, q)) for q in (10, 50, 90)}}


# -- set-up ------------------------------------------------------------------


def _timed(fn, *args, **kwargs):
    """Call ``fn``; returns its result and the call's (start, seconds)."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (start, time.perf_counter() - start)


def calib_config(seed: int, sizes: Sizes) -> kvq.CalibConfig:
    return kvq.CalibConfig(k=2, epochs=sizes.calib_epochs, segments=sizes.calib_segments,
                           seg_len=sizes.calib_seg_len, seed=seed)


@dataclass
class Served:
    corpus: Corpus
    fp: kvq.Model  # fitted fp model with spread KV channels, before calibration
    model: kvq.Model  # the W4KV4 model as reloaded from its checkpoint
    ckpt_bytes: int
    ckpt_digest: str
    calib_report: dict
    calib_timing: tuple  # (start, seconds) of the calibrate_model call
    timing: tuple  # (start, seconds) of the whole set-up


def setup(seed: int, sizes: Sizes, workdir: Path) -> Served:
    """Steps 1-5: corpus, fit, spread, calibrate to W4KV4, save and reload."""
    start = time.perf_counter()
    corpus = make_corpus(seed, sizes)
    model = kvq.Model.random(kvq.ModelConfig(**sizes.model), seed=SETUP_SEED)
    kvq.train_model(model, corpus.fit, steps=sizes.train_steps, batch=sizes.train_batch,
                    seq_len=sizes.train_seq_len, seed=SETUP_SEED)
    kvq.model.spread_kv_channels(model, seed=SETUP_SEED)
    fp = copy.deepcopy(model)
    report, calib_timing = _timed(kvq.calibrate_model, model, corpus.fit,
                                  calib_config(SETUP_SEED, sizes))
    path = workdir / "served.kvq"
    kvq.save_model(model, str(path))
    served = kvq.load_model(str(path))
    timing = (start, time.perf_counter() - start)
    data = path.read_bytes()
    return Served(corpus, fp, served, len(data), hashlib.sha256(data).hexdigest(),
                  report, calib_timing, timing)


# -- requests ----------------------------------------------------------------


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


def decode_request(served: Served, prompt: np.ndarray, steps: int) -> dict:
    model = served.model
    (logits, cache), prefill_t = _timed(kvq.prefill, model, prompt)
    ok = _finite(logits.data)
    nxt = int(np.argmax(logits.data[-1]))
    step_t = []
    for _ in range(steps):
        out, t = _timed(kvq.decode_step, model, nxt, cache)
        step_t.append(t)
        row = out.data[-1]
        ok = ok and _finite(row)
        nxt = int(np.argmax(row))
    try:
        kvq.analyzer.verify_runtime_accounting(model, cache)
    except kvq.AccountingError:
        ok = False
    return {"ok": ok, "tokens": len(prompt), "prefill_t": prefill_t, "step_t": step_t}


def score_request(served: Served, passage: np.ndarray) -> dict:
    out, t = _timed(kvq.perplexity, served.model, passage, use_cache=True)
    return {"ok": bool(np.isfinite(out["perplexity"])), "tokens": out["tokens"],
            "nll_sum": out["mean_nll"] * out["tokens"], "t": t}


def calibrate_request(served: Served, seed: int, sizes: Sizes) -> dict:
    model = copy.deepcopy(served.fp)
    report, t = _timed(kvq.calibrate_model, model, served.corpus.fit, calib_config(seed, sizes))
    blocks = report["blocks"]
    ok = all(np.isfinite(b["final_loss"]) and b["final_loss"] <= b["initial_loss"]
             for b in blocks)
    return {"ok": ok, "t": t, "blocks": len(blocks),
            "ratio": report["mean_final_initial_ratio"]}


def _nll_sum(logits: np.ndarray, ids: np.ndarray) -> float:
    z = logits[:-1].astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(ids) - 1), ids[1:]].sum())


def probe(served: Served, ids: np.ndarray) -> dict:
    """Numerics fingerprint, outside any timed loop.

    Checks kvq's cache-path scoring against this file's own step-by-step
    prefill + decode_step reference, and prefill against cacheless scoring.
    The timings it takes give the figures of metrics whose workload is
    another one (see README.md).
    """
    model = served.model
    cached, score_t = _timed(kvq.evaluate.score_logits, model, ids, use_cache=True)

    logits, cache = kvq.prefill(model, ids[:1])
    rows, step_t = [logits.data[-1]], []
    for tok in ids[1:]:
        out, t = _timed(kvq.decode_step, model, int(tok), cache)
        rows.append(out.data[-1])
        step_t.append(t)
    reference = np.stack(rows)

    prefill_reps = 24  # one prefill of the probe takes ~15 ms; time several
    start = time.perf_counter()
    for _ in range(prefill_reps):
        pre, _ = kvq.prefill(model, ids)
    prefill_t = (start, time.perf_counter() - start)
    cacheless = kvq.evaluate.score_logits(model, ids, use_cache=False)

    step_dlogit = float(np.max(np.abs(cached - reference)))
    prefill_dlogit = float(np.max(np.abs(pre.data - cacheless)))
    ok = (_finite(cached) and _finite(reference) and _finite(pre.data)
          and step_dlogit <= LOGIT_TOL and prefill_dlogit <= LOGIT_TOL)
    return {"ok": ok, "max_dlogit_cache_vs_steps": step_dlogit,
            "max_dlogit_prefill_vs_cacheless": prefill_dlogit,
            "ppl": float(np.exp(_nll_sum(cached, ids) / (len(ids) - 1))),
            "scored": len(ids) - 1, "score_t": score_t, "step_t": step_t,
            "tokens": prefill_reps * len(ids), "prefill_t": prefill_t}


def _rate(results, work: str, timing: str, factor) -> float:
    """Work per second over several results, each time divided by its
    ``factor(start, seconds)``."""
    return (sum(r[work] for r in results)
            / sum(r[timing][1] / factor(*r[timing]) for r in results))


def _cycles(workload: str, served: Served, seed: int, sizes: Sizes):
    """Yield the request closures of each cycle.  A cycle holds one request
    of each size, so every run measures the same mix whatever its length."""
    rng = np.random.default_rng([seed, 2])
    heldout = served.corpus.heldout
    while True:
        if workload == "decode_long":
            lens = rng.permutation(sizes.prompt_lens)
            prompts = [_window(rng, heldout, int(n)) for n in lens]
            yield [lambda p=p: decode_request(served, p, sizes.decode_steps) for p in prompts]
        elif workload == "score_cached":
            lens = rng.permutation(sizes.passage_lens)
            passages = [_window(rng, heldout, int(n)) for n in lens]
            yield [lambda p=p: score_request(served, p) for p in passages]
        else:
            calib_seed = int(rng.integers(2**31))
            yield [lambda: calibrate_request(served, calib_seed, sizes)]


# -- a run -------------------------------------------------------------------


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    cycles: list = field(default_factory=list)
    traced_s: float = 0.0
    untraced_s: float = 0.0

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def _measure(workload, served, seed, sizes, seconds, tracer, outcome: Outcome,
             between) -> None:
    """Run whole cycles until at least ``seconds`` have passed (and, for
    score_cached and calibrate, at least PPL_CYCLES or CALIB_CYCLES cycles).

    ``between()`` runs after each request and returns the seconds it took,
    which do not count towards ``seconds``.  In the traced run every request
    runs twice, untraced and traced, in alternating order; the two wall times
    give the tracing overhead.
    """
    deadline = time.perf_counter() + seconds
    min_cycles = {"score_cached": PPL_CYCLES, "calibrate": CALIB_CYCLES}.get(workload, 1)
    n = 0
    for cycle in _cycles(workload, served, seed, sizes):
        results = []
        for req in cycle:
            if tracer is None:
                res = req()
                outcome.count(res["ok"])
            else:
                for traced in (n % 2 == 1, n % 2 == 0):  # alternate the order
                    t0 = time.perf_counter()
                    if traced:
                        with tracer.active(f"req.{n}"):
                            res = req()
                        outcome.traced_s += time.perf_counter() - t0
                    else:
                        res = req()
                        outcome.untraced_s += time.perf_counter() - t0
                    outcome.count(res["ok"])
            results.append(res)
            n += 1
            deadline += between()
        outcome.cycles.append(results)
        if time.perf_counter() >= deadline and len(outcome.cycles) >= min_cycles:
            return


def _ms(results, key: str, factor) -> list:
    """Every timing in the lists under ``key``, in ms, divided by its
    ``factor(start, seconds)``."""
    return [1e3 * t[1] / factor(*t) for r in results for t in r[key]]


def _q(values, pct) -> float:
    return float(np.percentile(values, pct))


def end_to_end_metrics(workload: str, setups: list[Served], served: Served,
                       probes: list, cycles: list, factor) -> dict:
    """All ten metrics.  A workload's own metrics come from its timed loop; the
    rest come from the probe and from set-up (which runs calibrate_model).
    Each timing is divided by ``factor(start, seconds)``: ``HostSpeed.factor``
    gives timings at the usual host speed, a constant 1 the raw ones."""
    n_layers = served.model.config.n_layers
    probe_steps = _ms(probes, "step_t", factor)
    m = {
        "setup_s": statistics.median(s.timing[1] / factor(*s.timing) for s in setups),
        "prefill_tok_s": _rate(probes, "tokens", "prefill_t", factor),
        "decode_ms_p50": _q(probe_steps, 50),
        "decode_ms_p90": _q(probe_steps, 90),
        "score_tok_s": _rate(probes, "scored", "score_t", factor),
        "ppl_w4kv4": probes[0]["ppl"],
        # every set-up runs the same calibrate_model call as a calibrate request
        "calib_s_per_block": sum(s.calib_timing[1] / factor(*s.calib_timing) for s in setups)
                             / (len(setups) * n_layers),
        "calib_loss_ratio": served.calib_report["mean_final_initial_ratio"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ckpt_mb": served.ckpt_bytes / 1e6,
    }
    reqs = [r for c in cycles for r in c]
    if workload == "decode_long":
        steps = _ms(reqs, "step_t", factor)
        m["prefill_tok_s"] = _rate(reqs, "tokens", "prefill_t", factor)
        m["decode_ms_p50"] = _q(steps, 50)
        m["decode_ms_p90"] = _q(steps, 90)
    elif workload == "score_cached":
        m["score_tok_s"] = _rate(reqs, "tokens", "t", factor)
        scored = [r for c in cycles[:PPL_CYCLES] for r in c]
        m["ppl_w4kv4"] = float(np.exp(sum(r["nll_sum"] for r in scored)
                                      / sum(r["tokens"] for r in scored)))
    else:
        m["calib_s_per_block"] = 1.0 / _rate(reqs, "blocks", "t", factor)
        m["calib_loss_ratio"] = statistics.fmean(r["ratio"] for r in reqs[:CALIB_CYCLES])
    return m


def smoothed_blocks(served: Served) -> int:
    return sum(b.k.smoothing is not None or b.v.smoothing is not None
               for b in served.model.blocks)


def _setup_and_measure(workload, seed, seconds, tracer, sizes, workdir, outcome: Outcome):
    """Set up ``sizes.setup_reps`` times, then run the timed loop with the
    probe before, during and after it.  Returns the set-ups and the probes."""
    setups = []
    for rep in range(sizes.setup_reps):
        with tracer.active(f"setup.{rep}") if tracer else contextlib.nullcontext():
            setups.append(setup(seed, sizes, workdir))
    served = setups[-1]
    # criterion 12: set-up from one seed writes the same checkpoint bytes
    outcome.count(smoothed_blocks(served) > 0 and len({s.ckpt_digest for s in setups}) == 1)

    probes = []
    next_probe = time.perf_counter()

    def maybe_probe() -> float:
        nonlocal next_probe
        t0 = time.perf_counter()
        if t0 < next_probe or len(probes) == PROBE_REPS - 1:
            return 0.0
        probes.append(probe(served, served.corpus.probe))
        next_probe = time.perf_counter() + seconds / (PROBE_REPS - 1)
        return time.perf_counter() - t0

    maybe_probe()
    _measure(workload, served, seed, sizes, seconds, tracer, outcome, maybe_probe)
    while len(probes) < PROBE_REPS:
        probes.append(probe(served, served.corpus.probe))
    for p in probes:
        outcome.count(p["ok"])
    return setups, probes


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
        workdir: Path) -> dict:
    """One benchmark run; returns the result line plus a report of details."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    outcome = Outcome()
    speed = HostSpeed()
    # the untraced run samples host speed all through; the traced run does not
    with speed.sampling() if tracer is None else contextlib.nullcontext():
        setups, probes = _setup_and_measure(workload, seed, seconds, tracer, sizes, workdir,
                                            outcome)
    served = setups[-1]

    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "cycles": len(outcome.cycles), "smoothed_blocks": smoothed_blocks(served),
        "max_dlogit_cache_vs_steps": max(p["max_dlogit_cache_vs_steps"] for p in probes),
        "max_dlogit_prefill_vs_cacheless":
            max(p["max_dlogit_prefill_vs_cacheless"] for p in probes),
        "logit_tol": LOGIT_TOL,
        "not_measured": {"cli": "kvq.cli lies on no workload's path; it has no metric"},
    }
    report["host_factor"] = speed.summary()
    if tracer is None:
        metrics = end_to_end_metrics(workload, setups, served, probes, outcome.cycles,
                                     speed.factor)
        units = END_TO_END_UNITS
        report["raw_metrics"] = end_to_end_metrics(workload, setups, served, probes,
                                                   outcome.cycles, lambda start, seconds: 1.0)
    else:
        overhead = 100.0 * (outcome.traced_s - outcome.untraced_s) / outcome.untraced_s
        metrics = per_layer_metrics(tracer, sizes.setup_reps, overhead)
        units = {name: per_layer_unit(name) for name in metrics}
        report["traced_s"], report["untraced_s"] = outcome.traced_s, outcome.untraced_s
        report["spans"] = len(tracer.spans)
        span_file = workdir / f"spans-{workload}-{seed}.json"
        tracer.dump(span_file)
        report["span_file"] = str(span_file)
    return {
        "report": report,
        "result": {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        },
    }

