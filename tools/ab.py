"""In-process A/B timing of two kvq trees, with an A/A control.

    python tools/ab.py TREE_A TREE_B [--rounds N] [--kv-group-size G]
                       [--workloads NAME,...] [--tiny]

Each tree is a checkout whose src/kvq is imported under its own package
name (kvq_a, kvq_b, and kvq_a2, a second import of TREE_A for the control),
after every BLAS thread variable is set to 1, before numpy loads.  Each
import builds the same served model from the same seeds: a random model of
the default config (max_seq_len 1024), its K/V channels spread, then W4
weights with every block's K/V smoothing initialised from the activation
statistics of 256 tokens (calibration's init, untrained), in weight_kv.

Workloads, each timed per call:

    decode_64, decode_384,  16 decode steps after a prefill of that context
    decode_896              and 8 untimed steps, which run slower than a
                            steady loop; at 64 the step's fixed cost
                            dominates, at 896 the read of the past
    prefill_896             one 896-token prefill
    score_64, score_192     cache-path scoring (score_logits) of 64 and 192
                            tokens; at 64, the benchmark's shortest passage,
                            a call's fixed cost is about a third of its time
    nll_192                 perplexity(..., use_cache=True) of 192 tokens,
                            the request perfbench's score_cached times
    chunk_300_on_600        a 300-row chunk onto a 600-row prefilled cache
    calibrate               calibrate_model (k 2, 1 epoch, 4 x 64 tokens)
    save_load               save_model and load_model of the served model, in
                            a temporary directory
    train_step              one train_model step (batch 2, seq_len 64) on a
                            copy of the fp model
    crr_loss                one crr_loss on block 1 (k 2) over 4 x 64-token
                            segments of the fp model, at the
                            statistics-initialised smoothing, scored on
                            arrays

A round runs each import once per workload, in an order that rotates from
round to round.  Per workload one JSON line is printed:

    b_over_a  B's time over A's per round: median, quartiles and wins (B
              faster)
    a2_over_a the same for the second import of A, the control: its spread
              is the noise a B/A ratio must exceed
    sha256    of each import's outputs (logits, or the calibration report
              and weights, or the loaded model's arrays and its 64-token
              cache-path logits, not the file's bytes, or the fitted loss
              and arrays, or the loss), from the first, untimed call;
              weight codes are hashed one per byte, whether a tree holds
              them so or packed
    identical whether A's and B's hashes are equal
    max_dlogit_f64
              decode and prefill workloads only: each import's largest
              |logit - reference| over the first call's decode steps (all
              24 of them), or over the prompt's logits for prefill, the
              reference being the float64 model of its tree's own
              tests/reference.py (model_logits) over the cache that call
              filled; computed after the call, outside every timing, and
              null for a tree without that reference.  Unlike the hash it
              shows how far a change that moves logits within float32
              moves them

--tiny runs small sizes for a smoke test; its times mean nothing.
"""

from __future__ import annotations

import os

for _var in ("KVQ_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import copy
import dataclasses
import gc
import hashlib
import importlib.util
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# warm: untimed decode steps before the timed ones; train: (batch, seq_len)
# of train_step; crr: (segments, seg_len) of crr_loss
FULL = dict(config={"max_seq_len": 1024}, decode=(64, 384, 896), warm=8, steps=16, prefill=896,
            score=(64, 192), nll=192, chunk=(600, 300),
            calib=dict(k=2, epochs=1, segments=4, seg_len=64),
            corpus=4096, train=(2, 64), crr=(4, 64))
TINY = dict(config=dict(n_layers=2, hidden_size=32, n_heads=2, head_dim=16,
                        intermediate_size=48, max_seq_len=64, weight_group_size=16),
            decode=(8, 16, 40), warm=8, steps=4, prefill=48, score=(8, 16), nll=16,
            chunk=(30, 20),
            calib=dict(k=2, epochs=1, segments=2, seg_len=16), corpus=256,
            train=(2, 16), crr=(2, 16))


def load_tree(root: Path, name: str):
    """Import root/src/kvq as the package name."""
    src = root / "src" / "kvq"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_reference(root: Path, name: str):
    """Import root/tests/reference.py as the module name, or None if the
    tree has none."""
    path = root / "tests" / "reference.py"
    if not path.is_file():
        return None
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Tree:
    """One import of kvq and the models it builds from the shared seeds."""

    def __init__(self, kvq, sizes: dict, kv_group_size: int, reference=None):
        self.kvq, self.reference = kvq, reference
        cfg = kvq.ModelConfig(**sizes["config"], kv_group_size=kv_group_size)
        rng = np.random.default_rng(0)
        self.ids = rng.integers(0, 256, cfg.max_seq_len)
        self.corpus = rng.integers(0, 256, sizes["corpus"])
        self.calib = kvq.CalibConfig(**sizes["calib"], seed=0)
        self.fp = kvq.Model.random(cfg, seed=1)
        kvq.model.spread_kv_channels(self.fp, seed=1)
        # W4 weights and the statistics-initialised K/V smoothing of every
        # block, in the form the tree's init_trainables gives and its
        # freeze_block takes (a (K, V) smoothing pair, or older trees' trainables)
        self.served = copy.deepcopy(self.fp)
        calibration = kvq.calibration
        acts = calibration.collect_activations(self.fp, [self.corpus[: cfg.max_seq_len // 4]])
        for i in range(cfg.n_layers):
            trainables = calibration.init_trainables(self.fp, i, acts[i])
            calibration.freeze_block(self.served, i, trainables)
        self.served.config = dataclasses.replace(self.served.config, quant_mode="weight_kv")


def max_dlogit(tr: Tree, ids, chunks: list, cache, outs: list):
    """The largest |logit - reference| of outs, the logits of the last
    forwards of chunk lengths chunks over ids onto cache, against the
    float64 model of tr's own tests/reference.py; None without it."""
    model_logits = getattr(tr.reference, "model_logits", None)
    if model_logits is None:
        return None
    got = np.concatenate(outs)
    want = model_logits(tr.served, np.asarray(ids), chunks, cache)[-len(got):]
    return float(np.abs(got - want).max())


def workloads(sizes: dict) -> dict:
    """name -> fn(tree) returning (seconds, outputs), and for decode and
    prefill a third element: a function that gives max_dlogit of the call."""

    def decode(ctx):
        def run(tr: Tree):
            kvq = tr.kvq
            logits, cache = kvq.prefill(tr.served, tr.ids[:ctx])
            outs, ids = [logits.data], list(tr.ids[:ctx])
            for i in range(sizes["warm"] + sizes["steps"]):
                if i == sizes["warm"]:
                    start = time.perf_counter()
                ids.append(int(np.argmax(outs[-1][-1])))
                outs.append(kvq.decode_step(tr.served, ids[-1], cache).data)
            t = time.perf_counter() - start
            chunks = [ctx] + [1] * (len(outs) - 1)
            return t, outs, lambda: max_dlogit(tr, ids, chunks, cache, outs[1:])
        return run

    def timed(fn):
        start = time.perf_counter()
        out = fn()
        return time.perf_counter() - start, out

    def prefill(tr: Tree):
        ids = tr.ids[: sizes["prefill"]]
        t, (logits, cache) = timed(lambda: tr.kvq.prefill(tr.served, ids))
        return t, [logits.data], lambda: max_dlogit(tr, ids, [len(ids)], cache, [logits.data])

    def score(n):
        def run(tr: Tree):
            ids = tr.ids[:n]
            t, logits = timed(lambda: tr.kvq.evaluate.score_logits(tr.served, ids, use_cache=True))
            return t, [logits]
        return run

    def nll(tr: Tree):
        ids = tr.ids[: sizes["nll"]]
        t, out = timed(lambda: tr.kvq.perplexity(tr.served, ids, use_cache=True))
        return t, [np.array([out["perplexity"], out["mean_nll"], out["tokens"]], np.float64)]

    def chunk(tr: Tree):
        past, rows = sizes["chunk"]
        first, cache = tr.kvq.prefill(tr.served, tr.ids[:past])
        chunk_ids = tr.ids[past : past + rows]
        t, logits = timed(lambda: tr.kvq.model_forward(tr.served, chunk_ids, cache=cache))
        return t, [first.data, logits.data]

    def calibrate(tr: Tree):
        model = copy.deepcopy(tr.fp)
        t, report = timed(lambda: tr.kvq.calibrate_model(model, tr.corpus, tr.calib))
        report_bytes = np.frombuffer(json.dumps(report, sort_keys=True).encode(), np.uint8)
        weights = [lin.w for blk in model.blocks for lin in blk.projections().values()]
        return t, [report_bytes, *weights]

    def save_load(tr: Tree):
        kvq = tr.kvq
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "served.kvq")
            start = time.perf_counter()
            kvq.save_model(tr.served, path)
            model = kvq.load_model(path)
            t = time.perf_counter() - start
        logits = kvq.evaluate.score_logits(model, tr.ids[:64], use_cache=True)
        return t, [*model_arrays(kvq, model), logits]

    def train_step(tr: Tree):
        model, (batch, seq_len) = copy.deepcopy(tr.fp), sizes["train"]
        t, report = timed(lambda: tr.kvq.train_model(model, tr.corpus, steps=1, batch=batch,
                                                     seq_len=seq_len, seed=0))
        return t, [np.float64(report["final_loss"]), *model_arrays(tr.kvq, model)]

    def crr_loss(tr: Tree):
        calibration, (segments, seg_len) = tr.kvq.calibration, sizes["crr"]
        ids = tr.corpus[: segments * seg_len].reshape(segments, seg_len)
        acts = calibration.collect_activations(tr.fp, list(ids))
        x, ref = acts[1], acts[1 + min(tr.calib.k, tr.fp.config.n_layers - 1)]
        init = calibration.init_trainables(tr.fp, 1, x)
        wq = calibration.quantized_weights(tr.fp, 1)

        t, loss = timed(lambda: calibration.crr_loss(tr.fp, 1, x, init, tr.calib, ref, wq))
        return t, [np.float64(loss)]

    past, rows = sizes["chunk"]
    return {**{f"decode_{ctx}": decode(ctx) for ctx in sizes["decode"]},
            f"prefill_{sizes['prefill']}": prefill,
            **{f"score_{n}": score(n) for n in sizes["score"]}, f"nll_{sizes['nll']}": nll,
            f"chunk_{rows}_on_{past}": chunk, "calibrate": calibrate, "save_load": save_load,
            "train_step": train_step, "crr_loss": crr_loss}


def model_arrays(kvq, model) -> list:
    """Every array that defines a model: embed, norms, head, and each
    projection's w, b, weight codes, h, z and smoothing, when it has them.
    The codes are taken one per byte: a packed stream (one dimension) is
    unpacked with kvq's own unpack_codes."""
    out = [model.embed, model.final_norm, model.head.w, model.head.b]
    for blk in model.blocks:
        out += [blk.attn_norm, blk.mlp_norm]
        for lin in blk.projections().values():
            out += [lin.w, lin.b]
            if lin.wq is not None:
                codes = lin.wq.codes
                if codes.ndim == 1:
                    codes = kvq.checkpoint.unpack_codes(codes, lin.wq.bits, lin.w.shape)
                out += [codes, lin.wq.h, lin.wq.z]
            if lin.smoothing is not None:
                out += [lin.smoothing.s, lin.smoothing.delta]
    return out


def digest(outputs) -> str:
    h = hashlib.sha256()
    for a in outputs:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def ratio_summary(num: list, den: list) -> dict:
    r = np.asarray(num) / np.asarray(den)
    q1, med, q3 = np.percentile(r, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "wins": int(np.sum(r < 1))}


def compare(trees: dict, name: str, fn, rounds: int) -> dict:
    keys = list(trees)
    first = {k: fn(trees[k]) for k in keys}  # the first call also warms up
    hashes = {k: digest(first[k][1]) for k in keys}
    numerics = {k: first[k][2]() for k in keys if len(first[k]) > 2}
    del first  # its caches, before the timed calls
    times = {k: [] for k in keys}
    for r in range(rounds):
        for k in keys[r % len(keys):] + keys[: r % len(keys)]:
            gc.collect()
            times[k].append(fn(trees[k])[0])
    return {"workload": name, "rounds": rounds,
            "a_ms_median": 1e3 * float(np.median(times["a"])),
            "b_ms_median": 1e3 * float(np.median(times["b"])),
            "b_over_a": ratio_summary(times["b"], times["a"]),
            "a2_over_a": ratio_summary(times["a2"], times["a"]),
            "sha256": hashes, "identical": hashes["a"] == hashes["b"],
            **({"max_dlogit_f64": numerics} if numerics else {})}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--kv-group-size", type=int, default=32)
    ap.add_argument("--workloads", default="", help="comma-separated names (default: all)")
    ap.add_argument("--tiny", action="store_true", help="small sizes, for a smoke test")
    args = ap.parse_args(argv)
    sizes = TINY if args.tiny else FULL
    fns = workloads(sizes)
    chosen = args.workloads.split(",") if args.workloads else list(fns)
    unknown = sorted(set(chosen) - set(fns))
    if unknown:
        ap.error(f"unknown workloads {unknown}; choose from {sorted(fns)}")
    trees = {key: Tree(load_tree(root.resolve(), f"kvq_{key}"), sizes, args.kv_group_size,
                       load_reference(root.resolve(), f"reference_{key}"))
             for key, root in (("a", args.tree_a), ("b", args.tree_b), ("a2", args.tree_a))}
    for name in chosen:
        print(json.dumps(compare(trees, name, fns[name], args.rounds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
