"""Scoring and comparison harness: byte-level corpus handling, perplexity
cacheless or through the cache path (one teacher-forced pass, see
cache_path_forward), logit MAE against an fp reference, greedy divergence,
and a small trainer so the desk model actually fits a corpus: the
language-model loss's forward on arrays, one backward function per op in
reverse (lm_grads), and Adam steps.

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
    attention_backward,
    block_arrays,
    cache_path_forward,
    check_capacity,
    check_token_ids,
    decode_step,
    generate,
    model_forward,
    prefill,
    require_unsmoothed,
    softmax_attention,
)
from .tensor import (_check_finite, gated_mlp, gated_mlp_backward, linear, linear_backward,
                     rms_norm, rms_norm_backward, rope)

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


def lm_weights(model: Model) -> dict:
    """A model's arrays as lm_grads takes them: embed, final_norm (a (1, C)
    row), head_w, head_b, and under blocks each block's block_arrays."""
    return {"embed": model.embed, "final_norm": model.final_norm.reshape(1, -1),
            "head_w": model.head.w, "head_b": model.head.b,
            "blocks": [block_arrays(blk) for blk in model.blocks]}


def _leaves(p: dict) -> list[np.ndarray]:
    """lm_weights' arrays, or lm_grads' gradients, in one flat order."""
    return [p["embed"], p["final_norm"], p["head_w"], p["head_b"],
            *(a for w in p["blocks"] for a in w.values())]


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of integer targets under row-wise
    softmax, and its gradient to the logits, (softmax - onehot) / rows.  The
    shifted logits, their exponentials, the probabilities and the gradient
    share one buffer, so a call holds one (rows, vocab) array beside the
    logits."""
    _check_finite("cross_entropy", logits)
    t = logits.shape[0]
    p = logits - logits.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    nll = -np.log(np.maximum(p[np.arange(t), targets], 1e-30))
    p[np.arange(t), targets] -= 1.0
    p /= t
    return float(nll.mean()), p


def _block_forward(cfg: ModelConfig, w: dict, x: np.ndarray, positions: np.ndarray,
                   seqs: int) -> tuple[np.ndarray, tuple]:
    """One block of the fit's forward, block_core's ops on the fp weights w
    with softmax_attention, and what its backward reads: the two rms_norm
    inputs and r, the projections' inputs (the normed rows, the attention
    output and the MLP's normed rows), the rotated q and k, v, the
    probabilities, and the MLP's g and u."""
    xq, r_attn = rms_norm(x, w["attn_norm"], keep_r=True)
    q, k, v = (linear(xq, w[f"{n}_w"], w[f"{n}_b"]) for n in "qkv")
    for a in (q, k):
        rope(a, positions, cfg.rope_base, cfg.head_dim, out=a)
    att, p = softmax_attention(q, k, v, cfg.n_heads, seqs)
    x1 = x + linear(att, w["o_w"], w["o_b"])
    xn, r_mlp = rms_norm(x1, w["mlp_norm"], keep_r=True)
    gu = []
    y = x1 + gated_mlp(xn, w["gate_w"], w["gate_b"], w["up_w"], w["up_b"], w["down_w"],
                       w["down_b"], keep=gu)
    return y, (x, r_attn, xq, q, k, v, p, att, x1, r_mlp, xn, *gu)


def _block_backward(cfg: ModelConfig, w: dict, kept: list, g: np.ndarray,
                    positions: np.ndarray, seqs: int) -> tuple[np.ndarray, dict]:
    """The gradients of a block's output g to its input and to each of its
    weights (named and ordered as w), from the arrays _block_forward kept,
    popped from kept and each freed once its last reader has run.  Each
    residual add passes g on to both operands, the residual's part first."""
    x, r_attn, xq, q, k, v, p, att, x1, r_mlp, xn, gate, up = kept.pop()
    gr = {}
    gxn, gr["gate_w"], gr["gate_b"], gr["up_w"], gr["up_b"], gr["down_w"], gr["down_b"] = \
        gated_mlp_backward(g, xn, gate, up, w["gate_w"], w["up_w"], w["down_w"])
    del xn, gate, up
    g, gr["mlp_norm"] = rms_norm_backward(gxn, x1, w["mlp_norm"], r_mlp, residual=g)
    del gxn, x1
    g_att, gr["o_w"], gr["o_b"] = linear_backward(g, att, w["o_w"])
    del att
    gq, gk, gv = attention_backward(g_att, q, k, v, p, cfg.n_heads, seqs)
    del g_att, q, k, v, p
    # q's and k's gradients rotated back into fresh arrays: k's, a strided
    # view for one sequence, would sum its bias gradient in another order
    gq, gk = (rope(a, positions, cfg.rope_base, cfg.head_dim, transpose=True) for a in (gq, gk))
    gxq = None
    for n, ga in (("q", gq), ("k", gk), ("v", gv)):
        gi, gr[f"{n}_w"], gr[f"{n}_b"] = linear_backward(ga, xq, w[f"{n}_w"])
        gxq = gi if gxq is None else gxq + gi
    del gq, gk, gv, ga
    g, gr["attn_norm"] = rms_norm_backward(gxq, x, w["attn_norm"], r_attn, residual=g)
    return g, {name: gr[name] for name in w}


def lm_grads(cfg: ModelConfig, p: dict, seqs: np.ndarray) -> tuple[float, dict]:
    """Mean next-token NLL of equal-length token windows seqs, (B, T + 1),
    and its gradient to every array of p (lm_weights' dict; the gradients
    in the same structure).

    The windows are stacked as rows, so the mean over all B * T rows is the
    mean of the per-window losses.  The forward is the embedding gather,
    one _block_forward per layer, the final rms_norm, the head and
    cross_entropy, keeping per block only what its backward reads; a
    reverse loop then runs the head's, the norm's and each block's backward
    functions, and the embedding's gradient scatter-adds the first block's
    input gradient onto the rows of the ids.  Its float32 operations, and
    the order in which gradients meet, are those of the fit's pinned
    losses and weights (test_losses_and_weights_pinned)."""
    seqs_n, positions = seqs.shape[0], np.arange(seqs.shape[1] - 1)
    ids = seqs[:, :-1].reshape(-1)
    x, kept = p["embed"][ids], []
    for w in p["blocks"]:
        x, k = _block_forward(cfg, w, x, positions, seqs_n)
        kept.append(k)
    del k  # kept alone holds each block's arrays, so its backward frees them
    xn, r = rms_norm(x, p["final_norm"], keep_r=True)
    loss, g = cross_entropy(linear(xn, p["head_w"], p["head_b"]), seqs[:, 1:].reshape(-1))
    g, head_w, head_b = linear_backward(g, xn, p["head_w"])
    del xn
    g, final_norm = rms_norm_backward(g, x, p["final_norm"], r)
    del x
    blocks = []
    for w in reversed(p["blocks"]):
        g, gw = _block_backward(cfg, w, kept, g, positions, seqs_n)
        blocks.insert(0, gw)
    embed = np.zeros_like(p["embed"])
    np.add.at(embed, ids, g)
    return loss, {"embed": embed, "final_norm": final_norm, "head_w": head_w, "head_b": head_b,
                  "blocks": blocks}


def train_model(model: Model, corpus_ids: np.ndarray, steps: int = 200, batch: int = 4,
                seq_len: int = 64, lr: float = 3e-3, seed: int = 0) -> dict:
    """Brief language-model fit on a byte corpus (dev utility, not calibration).
    A smoothed model is refused, since lm_grads takes k/v outputs as raw K/V.

    Each step draws batch windows of seq_len + 1 tokens, in order from the
    seeded generator, and takes one Adam step on their lm_grads: one
    forward and one backward over all batch * seq_len rows.

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
    opt = AdamW(_leaves(lm_weights(model)), lr)
    # install the optimizer's copies; its steps update them in place
    own = iter(opt.params)
    model.embed, model.final_norm = next(own), next(own).reshape(-1)
    model.head.set(next(own), next(own))
    for blk in model.blocks:
        blk.attn_norm, blk.mlp_norm = next(own).reshape(-1), next(own).reshape(-1)
        for lin in blk.projections().values():
            lin.set(next(own), next(own))
    p = lm_weights(model)

    losses = []
    for _ in range(steps):
        starts = [int(rng.integers(0, high)) for _b in range(batch)]
        loss, grads = lm_grads(cfg, p, np.stack([corpus_ids[a : a + seq_len + 1] for a in starts]))
        losses.append(loss)
        opt.step(_leaves(grads))
        del grads
    return {"steps": steps, "initial_loss": losses[0] if losses else None,
            "final_loss": losses[-1] if losses else None}
