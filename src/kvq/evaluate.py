"""Scoring and comparison harness: byte-level corpus handling, perplexity
cacheless or through the cache path (one teacher-forced pass, see
cache_path_forward), logit MAE against an fp reference, greedy divergence,
and a small trainer so the desk model actually fits a corpus.

Every score runs the setting in the given model's config (quant_mode, poq,
kv_bits); to compare settings, score models whose configs differ.

Sequences longer than max_seq_len are scored in independent non-overlapping
chunks (stride = max_seq_len); the first token of each chunk is a context
token and is not scored.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, DataFormatError, KvqError
from .model import (  # noqa: F401 (the benchmark's tracer wraps prefill and decode_step here)
    Model,
    ModelConfig,
    block_core,
    block_tensors,
    cache_path_forward,
    decode_step,
    generate,
    model_forward,
    prefill,
    require_unsmoothed,
)
from .tensor import Tensor, cross_entropy, embedding, rms_norm, rope

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
    and then one decode_step per token give, in one pass (cache_path_forward)."""
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) > model.config.max_seq_len:
        raise CapacityError(f"chunk of {len(ids)} tokens > max_seq_len {model.config.max_seq_len}")
    if not use_cache:
        return model_forward(model, ids).data
    return cache_path_forward(model, ids).data


def _chunks(ids: np.ndarray, max_len: int):
    for a in range(0, len(ids), max_len):
        chunk = ids[a : a + max_len]
        if len(chunk) >= 2:
            yield chunk


def sequence_nll(model: Model, ids: np.ndarray, use_cache: bool = False) -> np.ndarray:
    """Per-token negative log-likelihoods over all scored positions."""
    nlls = []
    for chunk in _chunks(np.asarray(ids, dtype=np.int64), model.config.max_seq_len):
        logits = score_logits(model, chunk, use_cache=use_cache)
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        targets = chunk[1:]
        nlls.append(-logp[np.arange(len(targets)), targets])
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
    ids = np.asarray(ids, dtype=np.int64)
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
    logit MAE and the first greedy divergence against it."""
    nll = sequence_nll(model, ids, use_cache=use_cache)
    mean = float(nll.mean())
    report = {
        "setting": model.config.quant_mode,
        "use_cache": use_cache,
        "perplexity": float(np.exp(mean)),
        "mean_nll": mean,
        "tokens": int(len(nll)),
    }
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
    p = {"embed": Tensor(model.embed), "final_norm": Tensor(model.final_norm.reshape(1, -1)),
         "head_w": Tensor(model.head.w), "head_b": Tensor(model.head.b),
         "blocks": [block_tensors(blk) for blk in model.blocks]}
    for t in _lm_leaves(p):
        t.requires_grad = True
    return p


def _lm_leaves(p: dict) -> list[Tensor]:
    return ([p["embed"], p["final_norm"], p["head_w"], p["head_b"]]
            + [t for w in p["blocks"] for t in w.values()])


def lm_loss(cfg: ModelConfig, p: dict, seqs: np.ndarray) -> Tensor:
    """Mean next-token NLL of equal-length token windows seqs, (B, T + 1),
    recorded on the tape in one pass with the sequences stacked as rows: one
    embedding gather, one block_core per layer and one cross_entropy over
    all B * T rows, whose mean is the mean of the per-sequence losses.  p is
    lm_tensors' dict; the KV handler takes k/v outputs as raw K/V."""
    kv_fn = lambda k_s, v_s, positions: (rope(k_s, positions, cfg.rope_base, cfg.head_dim), v_s)
    positions = np.arange(seqs.shape[1] - 1)
    x = embedding(p["embed"], seqs[:, :-1].reshape(-1))
    for w in p["blocks"]:
        x = block_core(cfg, w, x, positions, kv_fn)
    logits = rms_norm(x, p["final_norm"]) @ p["head_w"] + p["head_b"]
    return cross_entropy(logits, seqs[:, 1:].reshape(-1))


def train_model(model: Model, corpus_ids: np.ndarray, steps: int = 200, batch: int = 4,
                seq_len: int = 64, lr: float = 3e-3, seed: int = 0) -> dict:
    """Brief language-model fit on a byte corpus (dev utility, not calibration).
    A smoothed model is refused, since lm_loss takes k/v outputs as raw K/V.

    Each step draws batch windows of seq_len + 1 tokens, in order from the
    seeded generator, and takes one Adam step on their lm_loss: one tape
    pass over all batch * seq_len rows."""
    from .calibration import AdamW

    require_unsmoothed(model, "train_model")
    cfg = model.config
    corpus_ids = np.asarray(corpus_ids, dtype=np.int64)
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

    losses = []
    for _ in range(steps):
        starts = [int(rng.integers(0, high)) for _b in range(batch)]
        loss = lm_loss(cfg, p, np.stack([corpus_ids[a : a + seq_len + 1] for a in starts]))
        losses.append(loss.item())
        opt.zero_grad()
        loss.backward()
        opt.step()

    model.embed = p["embed"].data
    model.final_norm = p["final_norm"].data.reshape(-1)
    model.head.set(p["head_w"].data, p["head_b"].data)
    for blk, w in zip(model.blocks, p["blocks"]):
        blk.attn_norm = w["attn_norm"].data.reshape(-1)
        blk.mlp_norm = w["mlp_norm"].data.reshape(-1)
        for name, lin in blk.projections().items():
            lin.set(w[f"{name}_w"].data, w[f"{name}_b"].data)
    return {"steps": steps, "initial_loss": losses[0] if losses else None,
            "final_loss": losses[-1] if losses else None}
