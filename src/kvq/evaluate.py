"""Scoring and comparison harness: byte-level corpus handling, perplexity
cacheless or through the cache path (one teacher-forced pass, see
cache_path_forward), logit MAE against an fp reference, greedy divergence,
and a small trainer so the desk model actually fits a corpus.

Every score runs the setting in the given model's config (quant_mode, poq,
kv_bits) over the weights the model holds; to compare settings, score
models whose configs differ.

Sequences longer than max_seq_len are scored in independent non-overlapping
chunks (stride = max_seq_len); the first token of each chunk is a context
token and is not scored.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataFormatError, KvqError
from .model import (  # noqa: F401 (the benchmark's tracer wraps prefill and decode_step here)
    Model,
    ModelConfig,
    block_arrays,
    block_core,
    cache_path_forward,
    check_capacity,
    check_token_ids,
    decode_step,
    fp_kv_fn,
    generate,
    model_forward,
    prefill,
    require_unsmoothed,
)
from .tensor import Tensor, cross_entropy, embedding, linear, rms_norm

BOS = 256


def encode_bytes(data: bytes, add_bos: bool = True) -> np.ndarray:
    ids = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    if add_bos:
        ids = np.concatenate([[BOS], ids])
    return ids


def load_corpus(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if not data:
        raise DataFormatError(f"corpus {path!r} is empty")
    return encode_bytes(data)


# -- scoring ------------------------------------------------------------------


def score_logits(model: Model, ids: np.ndarray, use_cache: bool = False) -> np.ndarray:
    """Next-token logits at every position of one chunk (len <= max_seq_len,
    else CapacityError).  use_cache=True gives what prefill of the first token
    and then one decode_step per token give, in one pass (cache_path_forward);
    in weight_activation mode it gives the cacheless logits instead, which
    can differ from the step loop's by up to about 1e-3."""
    if not use_cache:
        return model_forward(model, ids).data
    return cache_path_forward(model, ids).data


def _chunks(ids: np.ndarray, max_len: int):
    for a in range(0, len(ids), max_len):
        chunk = ids[a : a + max_len]
        if len(chunk) >= 2:
            yield chunk


def sequence_nll(model: Model, ids: np.ndarray, use_cache: bool = False) -> np.ndarray:
    """Per-token negative log-likelihoods over all scored positions.

    Each row with a target (all but a chunk's last) gives its log-sum-exp,
    taken after subtracting the row's maximum, minus its target's logit,
    shifted alike: the negated target entry of the float32 log-softmax, bit
    for bit, with no (T, vocab) log-probability matrix formed."""
    nlls = []
    ids = check_token_ids(ids, model.config.vocab_size, "the scored sequence")
    for chunk in _chunks(ids, model.config.max_seq_len):
        z = score_logits(model, chunk, use_cache=use_cache)[:-1]  # the rows with a target
        z -= z.max(axis=1, keepdims=True)
        target = z[np.arange(len(z)), chunk[1:]]
        nlls.append(np.log(np.exp(z, out=z).sum(axis=1)) - target)
    if not nlls:
        raise KvqError("sequence too short to score (need >= 2 tokens)")
    return np.concatenate(nlls).astype(np.float64)


def perplexity(model: Model, ids: np.ndarray, use_cache: bool = False) -> dict:
    nll = sequence_nll(model, ids, use_cache=use_cache)
    mean = float(nll.mean())
    return {"perplexity": float(np.exp(mean)), "mean_nll": mean, "tokens": int(len(nll))}


def logit_mae(model_a: Model, model_b: Model, ids: np.ndarray, use_cache: bool = False) -> float:
    """Mean absolute difference of next-token logits over all scored positions."""
    total, count = 0.0, 0
    ids = check_token_ids(ids, model_a.config.vocab_size, "the scored sequence")
    for chunk in _chunks(ids, model_a.config.max_seq_len):
        la = score_logits(model_a, chunk, use_cache=use_cache)
        lb = score_logits(model_b, chunk, use_cache=use_cache)
        total += float(np.abs(la - lb).sum())
        count += la.size
    return total / count


def first_divergence(a: np.ndarray, b: np.ndarray) -> int:
    """Index of the first differing token, or len if identical up to min length."""
    n = min(len(a), len(b))
    diff = np.nonzero(np.asarray(a[:n]) != np.asarray(b[:n]))[0]
    return int(diff[0]) if len(diff) else n


def eval_report(model: Model, ids: np.ndarray, use_cache: bool = False,
                fp_model: Model | None = None) -> dict:
    """Perplexity of model in its own setting; given fp_model, also the
    logit MAE and the first greedy divergence against it.  weight_bits is
    the width of the codes every block projection holds, or None when one
    holds none (or the widths differ): the mode says what a forward does to
    K/V and activations, and the weights are the model's state."""
    widths = {None if lin.wq is None else lin.wq.bits for blk in model.blocks
              for lin in blk.projections().values()}
    report = {"setting": model.config.quant_mode,
              "weight_bits": widths.pop() if len(widths) == 1 else None,
              "use_cache": use_cache, **perplexity(model, ids, use_cache=use_cache)}
    if fp_model is not None:
        report["logit_mae_vs_fp"] = logit_mae(fp_model, model, ids, use_cache=use_cache)
        n_new = min(32, model.config.max_seq_len - min(8, len(ids)))
        prompt = ids[: min(8, len(ids))]
        g_fp = generate(fp_model, prompt, n_new)
        g_q = generate(model, prompt, n_new)
        report["first_divergence_vs_fp"] = first_divergence(g_fp, g_q)
    return report


# -- toy trainer --------------------------------------------------------------


def lm_tensors(model: Model) -> dict:
    """A model's weights as Tensors that need a gradient, for lm_loss: embed,
    final_norm, head_w, head_b, and under blocks each block's block_core
    weights."""
    leaf = lambda a: Tensor(a, requires_grad=True)
    return {"embed": leaf(model.embed), "final_norm": leaf(model.final_norm.reshape(1, -1)),
            "head_w": leaf(model.head.w), "head_b": leaf(model.head.b),
            "blocks": [{name: leaf(a) for name, a in block_arrays(blk).items()}
                       for blk in model.blocks]}


def _lm_leaves(p: dict) -> list[Tensor]:
    return ([p["embed"], p["final_norm"], p["head_w"], p["head_b"]]
            + [t for w in p["blocks"] for t in w.values()])


def lm_loss(cfg: ModelConfig, p: dict, seqs: np.ndarray) -> Tensor:
    """Mean next-token NLL of equal-length token windows seqs, (B, T + 1),
    recorded on the tape in one pass with the sequences stacked as rows: one
    embedding gather, one block_core per layer and one cross_entropy over
    all B * T rows, whose mean is the mean of the per-sequence losses.  p is
    lm_tensors' dict; the KV handler (fp_kv_fn) takes k/v outputs as raw K/V."""
    kv_fn = fp_kv_fn(cfg)
    positions = np.arange(seqs.shape[1] - 1)
    x = embedding(p["embed"], seqs[:, :-1].reshape(-1))
    for w in p["blocks"]:
        x = block_core(cfg, w, x, positions, kv_fn)
    logits = linear(rms_norm(x, p["final_norm"]), p["head_w"], p["head_b"])
    return cross_entropy(logits, seqs[:, 1:].reshape(-1))


def train_model(model: Model, corpus_ids: np.ndarray, steps: int = 200, batch: int = 4,
                seq_len: int = 64, lr: float = 3e-3, seed: int = 0) -> dict:
    """Brief language-model fit on a byte corpus (dev utility, not calibration).
    A smoothed model is refused, since lm_loss takes k/v outputs as raw K/V.

    Each step draws batch windows of seq_len + 1 tokens, in order from the
    seeded generator, and takes one Adam step on their lm_loss: one tape
    pass over all batch * seq_len rows.

    The model holds the optimizer's arrays from the first step on, so a fit
    keeps one copy of the weights, and the caller's original arrays are never
    written (they are freed unless the caller holds them).  A step's
    gradients are dropped before the next forward.  If a step raises, the
    model keeps the arrays of the last completed step.  steps < 0, batch or
    seq_len < 1, and an lr that is not finite and positive raise KvqError,
    and a seq_len past max_seq_len CapacityError."""
    from .calibration import AdamW

    if steps < 0 or batch < 1 or seq_len < 1:
        raise KvqError(f"need steps >= 0, batch >= 1, seq_len >= 1; got {steps}, {batch}, "
                       f"{seq_len}")
    if not 0 < lr < math.inf:
        raise KvqError(f"lr must be a finite positive number, got {lr}")
    cfg = model.config
    check_capacity(seq_len, cfg, "training window")
    require_unsmoothed(model, "train_model")
    corpus_ids = check_token_ids(corpus_ids, cfg.vocab_size, "the corpus")
    if len(corpus_ids) < seq_len + 1:
        raise DataFormatError(
            f"corpus has {len(corpus_ids)} tokens; need at least {seq_len + 1} to train"
        )
    rng = np.random.default_rng(seed)
    # a window's start is drawn below len - seq_len - 1, so the last window
    # is never drawn; a corpus of exactly one window trains from start 0
    high = max(1, len(corpus_ids) - seq_len - 1)
    p = lm_tensors(model)
    opt = AdamW(_lm_leaves(p), lr)
    # install the optimizer's copies; its steps update them in place
    model.embed = p["embed"].data
    model.final_norm = p["final_norm"].data.reshape(-1)
    model.head.set(p["head_w"].data, p["head_b"].data)
    for blk, w in zip(model.blocks, p["blocks"]):
        blk.attn_norm = w["attn_norm"].data.reshape(-1)
        blk.mlp_norm = w["mlp_norm"].data.reshape(-1)
        for name, lin in blk.projections().items():
            lin.set(w[f"{name}_w"].data, w[f"{name}_b"].data)

    losses = []
    for _ in range(steps):
        starts = [int(rng.integers(0, high)) for _b in range(batch)]
        opt.zero_grad()
        loss = lm_loss(cfg, p, np.stack([corpus_ids[a : a + seq_len + 1] for a in starts]))
        losses.append(loss.item())
        loss.backward()
        opt.step()
    return {"steps": steps, "initial_loss": losses[0] if losses else None,
            "final_loss": losses[-1] if losses else None}
