"""Block-by-block optimization of the K/V channel scale/shift under
cross-block reconstruction regularization.

Each block's seven projections are quantized once, round to nearest, before
its candidates: q, o, gate, up and down, which are never smoothed, in place
(model.Linear.quantize, which keeps codes a projection already holds at the
spec), and k and v as an array Q(w) beside their raw weights, which freezing
smooths and then quantizes.  The quantized branch divides the k and v
weights by the smoothing scale on the tape, as Q(w) / s and (b - delta) / s,
and fake-quantizes the K/V projection outputs with their codes held fixed in
the backward pass (see quantizers.py).  Weight groups run along input
channels and s is per output channel, so Q(w) / s has the codes that
freezing gives, Q(w / s), and d(loss)/ds is the exact derivative wherever
the loss is differentiable in s.  Blocks i+1 .. i+k-1 run full precision in
both branches and receive no parameter gradients.  Past-only quantization
is always off during training (the calibration forward has no cache).

Each block freezes whichever of three candidates has the lowest mean loss
(the earlier on a tie): identity smoothing over the round-to-nearest weights
(RTN), the activation-statistics init, and that init after one training run.

The calibration segments have one length, so a pass can stack them as rows
(see model.block_core).  The fp activations of every block come from one
such pass, on Tensors that need no gradient like the fp blocks of each
loss, and the statistics init from one.  Each candidate is scored by
one crr_loss pass over all segments stacked: the mean absolute error over
every row, which is the mean of the per-segment losses, on Tensors that
need no gradient, so no tape is recorded.  Training takes one Adam step per
segment, on the tape, in segment order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataFormatError, KvqError, NumericError, UsageError
from .model import (Model, block_core, block_tensors, check_capacity, check_token_ids, fp_kv_fn,
                    require_unsmoothed)
from .quantizers import (S_FLOOR, SmoothingParams, fake_quant_token, fake_quant_weight,
                         init_smoothing)
from .tensor import Tensor, linear, rms_norm, rope

ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8
# the learning rate of the smoothing's Adam steps
LR_SMOOTHING = 5e-4


@dataclass(frozen=True)
class CalibConfig:
    k: int = 5
    epochs: int = 5
    seed: int = 0
    segments: int = 32
    seg_len: int = 256

    def __post_init__(self):
        if self.k < 1:
            raise KvqError(f"k must be >= 1, got {self.k}")
        if self.segments < 1 or self.seg_len < 1 or self.epochs < 0:  # epochs 0: no training
            raise KvqError(f"need segments >= 1, seg_len >= 1, epochs >= 0; got "
                           f"{self.segments}, {self.seg_len}, {self.epochs}")


class AdamW:
    """AdamW at zero weight decay, i.e. Adam, over params at one learning rate.

    It owns its parameters' arrays: construction gives each parameter a copy
    of its array, so a step never writes into the array a parameter held when
    it was passed in.  train_model installs these copies into the model
    before its first step: the model holds one copy of the weights from the
    first step on, its original arrays are never written (and are freed
    unless the caller holds them), and a fit whose step raises leaves the
    model with the arrays of the last completed step.

    A step updates each parameter, and its moments m and v, in place, through
    two scratch buffers of the largest parameter's size, in the float32
    operations, and their order, of the textbook form
    m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g,
    p -= lr * (m / c1) / (sqrt(v / c2) + eps), with c = 1 - b^t.  A
    parameter whose grad is None is skipped.
    """

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        for p in self.params:
            p.data = p.data.copy()
        size = max((p.data.size for p in self.params), default=0)
        scratch = np.empty((2, size), dtype=np.float32)
        # per parameter: its moments m, v and its views a, b of the scratch
        self.slots = [(np.zeros_like(p.data), np.zeros_like(p.data),
                       *(buf[: p.data.size].reshape(p.shape) for buf in scratch))
                      for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.record.grad = None

    def step(self):
        self.t += 1
        c1, c2 = 1 - ADAM_B1**self.t, 1 - ADAM_B2**self.t
        for p, (m, v, a, b) in zip(self.params, self.slots):
            if p.grad is None:
                continue
            g = p.grad
            m *= ADAM_B1
            m += np.multiply(g, 1 - ADAM_B1, out=a)
            v *= ADAM_B2
            np.multiply(g, 1 - ADAM_B2, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, c1, out=a)
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            a *= self.lr
            p.data -= a


# -- loss construction --------------------------------------------------------


def reconstruction_loss(y_hat: Tensor, y_ref: Tensor) -> Tensor:
    """Mean absolute error, summed in float64 and rounded to float32 once, so
    the loss carries no float32 accumulation error.  The backward is
    g * sign(r) / N, as for (y_hat - y_ref).abs().mean()."""
    r = y_hat - y_ref
    rr, rd = r.record, r.data

    def backward(g):
        rr.accum((np.broadcast_to(g, rd.shape) / rd.size).astype(np.float32) * np.sign(rd))

    return Tensor._from_op(np.mean(np.abs(rd), dtype=np.float64), (r,), backward)


@dataclass
class BlockTrainables:
    """Learnable parameters for one block: the K/V smoothing."""

    s_k: Tensor
    d_k: Tensor
    s_v: Tensor
    d_v: Tensor

    @classmethod
    def from_smoothing(cls, sp_k: SmoothingParams, sp_v: SmoothingParams) -> BlockTrainables:
        row = lambda a: Tensor(a.reshape(1, -1).astype(np.float32), requires_grad=True)
        return cls(row(sp_k.s), row(sp_k.delta), row(sp_v.s), row(sp_v.delta))

    @classmethod
    def identity(cls, channels: int) -> BlockTrainables:
        """Identity smoothing: the round-to-nearest block."""
        sp = SmoothingParams.identity(channels)
        return cls.from_smoothing(sp, sp)

    def smooth_params(self) -> list[Tensor]:
        return [self.s_k, self.d_k, self.s_v, self.d_v]

    def detached(self) -> BlockTrainables:
        """A copy of the values as Tensors that need no gradient, so a loss
        over them records no tape."""
        return BlockTrainables(*(Tensor(p.data.copy()) for p in self.smooth_params()))


def init_trainables(model: Model, i: int, x: np.ndarray) -> BlockTrainables:
    """Smoothing stats of block i's raw K/V activations over the calibration
    tokens, in one pass over the segments of x, (segments, T, C), as rows."""
    blk = model.blocks[i]
    rows = x.reshape(-1, model.config.hidden_size)
    xn = rms_norm(rows, blk.attn_norm.reshape(1, -1))
    return BlockTrainables.from_smoothing(init_smoothing(linear(xn, blk.k.w, blk.k.b)),
                                          init_smoothing(linear(xn, blk.v.w, blk.v.b)))


def quantized_weights(model: Model, i: int) -> dict[str, np.ndarray]:
    """Block i's seven projection weights rounded to nearest, Q(w), or the
    raw weights at weight_bits 16: what calibration trains against.  A
    projection that holds codes at the config's spec gives its w, their
    dequantization; the others' w are rounded here.  It changes nothing in
    the model."""
    spec = model.config.weight_spec()
    return {
        name: lin.w if spec is None or lin.holds(spec)
        else fake_quant_weight(lin.w, spec.bits, spec.group_size)
        for name, lin in model.blocks[i].projections().items()
    }


def fake_block_weights(model: Model, i: int, tp: BlockTrainables,
                       wq: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """Block i's block_tensors with its quantized weights wq in place of the
    raw ones and the K/V smoothing absorbed in-graph: Q(w) / s and
    (b - delta) / s."""
    w = block_tensors(model.blocks[i])
    w.update({f"{name}_w": Tensor(q) for name, q in wq.items()})
    for name, s, d in (("k", tp.s_k, tp.d_k), ("v", tp.s_v, tp.d_v)):
        s = s.clamp(S_FLOOR, np.inf)
        w[f"{name}_w"] = w[f"{name}_w"] / s
        w[f"{name}_b"] = (w[f"{name}_b"] - d) / s
    return w


def _calib_kv_fn(model: Model, tp: BlockTrainables):
    """KV handler for the quantized calibration branch (POQ off, no cache)."""
    cfg = model.config

    def kv_fn(k_s: Tensor, v_s: Tensor, positions: np.ndarray):
        if cfg.kv_quantized:
            v_s = fake_quant_token(v_s, cfg.kv_bits, cfg.kv_group_size)
            k_s = fake_quant_token(k_s, cfg.kv_bits, cfg.kv_group_size)
        v_raw = v_s * tp.s_v.clamp(S_FLOOR, np.inf) + tp.d_v
        k_raw = k_s * tp.s_k.clamp(S_FLOOR, np.inf) + tp.d_k
        return rope(k_raw, positions, cfg.rope_base, cfg.head_dim), v_raw

    return kv_fn


def crr_loss(model: Model, i: int, x_i: np.ndarray, tp: BlockTrainables, calib: CalibConfig,
             y_ref: np.ndarray, wq: dict[str, np.ndarray]) -> Tensor:
    """Reconstruction loss for block i spanning up to k blocks (Qblock_i vs
    fp); wq is the block's quantized_weights.

    x_i and y_ref are one segment, (T, C), or equal-length segments stacked,
    (B, T, C), which run as one pass of B * T rows; the loss is the mean
    over every row.  It is recorded on the tape when tp needs a gradient."""
    cfg = model.config
    k_eff = min(calib.k, cfg.n_layers - i)
    seq_len, c = x_i.shape[-2:]
    positions = np.arange(seq_len)
    w = fake_block_weights(model, i, tp, wq)
    y_hat = block_core(cfg, w, Tensor(x_i.reshape(-1, c)), positions, _calib_kv_fn(model, tp))
    for blk in model.blocks[i + 1 : i + k_eff]:
        y_hat = block_core(cfg, block_tensors(blk), y_hat, positions, fp_kv_fn(cfg))
    return reconstruction_loss(y_hat, Tensor(y_ref.reshape(-1, c)))


# -- calibration driver -------------------------------------------------------


def collect_activations(model: Model, segments: list[np.ndarray]) -> list[np.ndarray]:
    """Full-precision inputs x_i to every block (index n_layers = final
    output) of equal-length token segments, each one (segments, T, C)
    array, from one pass with the segments stacked as rows: the one copy
    calibration holds, which calibrate_block and init_trainables read as
    they are.  The pass runs on Tensors that need no
    gradient, so it records no tape and has the arithmetic of crr_loss's
    full-precision blocks: the runtime forward on arrays normalizes
    attention in another order (model.causal_attention).

    Each segment is checked as a forward's chunk is (check_token_ids,
    UsageError) and against max_seq_len (check_capacity, CapacityError);
    no segments, or segments of more than one length, raise UsageError."""
    cfg = model.config
    segments = [check_token_ids(seg, cfg.vocab_size, f"calibration segment {i}")
                for i, seg in enumerate(segments)]
    lengths = sorted({len(seg) for seg in segments})
    if len(lengths) != 1:
        raise UsageError(f"calibration takes one or more segments of one length, got "
                         f"lengths {lengths}")
    check_capacity(lengths[0], cfg, "calibration segment")
    ids = np.stack(segments)
    b, t = ids.shape
    positions = np.arange(t)
    xs = [Tensor(model.embed[ids.reshape(-1)])]
    for blk in model.blocks:
        xs.append(block_core(cfg, block_tensors(blk), xs[-1], positions, fp_kv_fn(cfg)))
    return [x.data.reshape(b, t, -1) for x in xs]


def freeze_block(model: Model, i: int, tp: BlockTrainables) -> None:
    """Absorb smoothing and fix the block's weight codes, round to nearest.
    A projection that holds codes at the spec keeps them (Linear.quantize):
    after calibrate_block, only the absorbed k and v are rounded here.

    At weight_bits 16 no codes are made, and an absorbed projection's old
    codes are dropped.
    """
    blk, spec = model.blocks[i], model.config.weight_spec()
    blk.k.absorb(SmoothingParams(np.maximum(tp.s_k.data.reshape(-1), S_FLOOR), tp.d_k.data))
    blk.v.absorb(SmoothingParams(np.maximum(tp.s_v.data.reshape(-1), S_FLOOR), tp.d_v.data))
    if spec is None:
        return
    for lin in blk.projections().values():
        lin.quantize(spec)


def calibrate_block(model: Model, i: int, calib: CalibConfig,
                    x: np.ndarray, ref: np.ndarray) -> dict:
    """Calibrate and freeze block i on its fp inputs x and the fp outputs ref
    of its k-block span, each (segments, T, C); returns its trace.

    initial_loss scores identity smoothing over the round-to-nearest weights
    (the RTN model's block), trajectory[0] the activation-statistics init and
    trained_loss that init after calib.epochs epochs, each in one pass over
    every segment that records no tape.  Training takes one Adam step per
    segment, in order.  final_loss is the lowest of the three, and the block
    freezes that candidate; failed means it kept RTN.  A non-finite loss
    keeps RTN and reports NaN losses.
    """
    spec = model.config.weight_spec()
    if spec is not None:  # the never-smoothed projections, whose codes freezing keeps
        for name in ("q", "o", "gate", "up", "down"):
            getattr(model.blocks[i], name).quantize(spec)
    wq = quantized_weights(model, i)

    def mean_loss(tp):
        val = crr_loss(model, i, x, tp.detached(), calib, ref, wq).item()
        if not np.isfinite(val):
            raise NumericError(f"non-finite calibration loss at block {i}")
        return val

    rtn = BlockTrainables.identity(model.config.hidden_size)
    try:
        initial = mean_loss(rtn)
        tp = init_trainables(model, i, x)
        init = tp.detached()
        trajectory = [mean_loss(tp)]
        opt = AdamW(tp.smooth_params(), LR_SMOOTHING)
        for _ in range(calib.epochs):
            epoch_losses = []
            for x_seg, r_seg in zip(x, ref):
                loss = crr_loss(model, i, x_seg, tp, calib, r_seg, wq)
                opt.zero_grad()
                loss.backward()
                opt.step()
                epoch_losses.append(loss.item())
            trajectory.append(float(np.mean(epoch_losses)))
        trained = mean_loss(tp)
        losses = [initial, trajectory[0], trained]
        best = min(range(3), key=losses.__getitem__)  # the first of equal losses
        tp, final = (rtn, init, tp)[best], losses[best]
    except NumericError:
        tp, best = rtn, 0
        initial = final = trained = float("nan")
        trajectory = []

    trace = {
        "block": i,
        "initial_loss": initial,
        "final_loss": final,
        "trained_loss": trained,
        "trajectory": trajectory,
        "failed": best == 0,
        "params": {
            "s_k": [float(tp.s_k.data.min()), float(tp.s_k.data.max())],
            "d_k": [float(tp.d_k.data.min()), float(tp.d_k.data.max())],
            "s_v": [float(tp.s_v.data.min()), float(tp.s_v.data.max())],
            "d_v": [float(tp.d_v.data.min()), float(tp.d_v.data.max())],
        },
    }
    freeze_block(model, i, tp)
    return trace


def sample_segments(corpus_ids: np.ndarray, calib: CalibConfig) -> list[np.ndarray]:
    corpus_ids = np.asarray(corpus_ids)
    if len(corpus_ids) < calib.seg_len:
        raise DataFormatError(
            f"corpus has {len(corpus_ids)} tokens, shorter than one "
            f"calibration segment ({calib.seg_len})"
        )
    rng = np.random.default_rng(calib.seed)
    starts = rng.integers(0, len(corpus_ids) - calib.seg_len + 1, size=calib.segments)
    return [corpus_ids[s : s + calib.seg_len].copy() for s in sorted(starts)]


def calibrate_model(model: Model, corpus_ids: np.ndarray, calib: CalibConfig) -> dict:
    """Calibrate all blocks sequentially, in place; returns the report dict.

    The model must be unsmoothed (fp or round-to-nearest): a k or v
    projection that already carries smoothing raises UsageError naming its
    block, before any work.  On return the model carries absorbed smoothing,
    fixed weight codes, and quant_mode="weight_kv".  Segments longer than
    max_seq_len raise CapacityError, and corpus ids that check_token_ids
    refuses UsageError, also before any work.
    """
    require_unsmoothed(model, "calibrate")
    check_capacity(calib.seg_len, model.config, "calibration segment")
    corpus_ids = check_token_ids(corpus_ids, model.config.vocab_size, "the corpus")
    segments = sample_segments(corpus_ids, calib)
    acts = collect_activations(model, segments)
    cfg = model.config
    blocks_trace = []
    for i in range(cfg.n_layers):
        k_eff = min(calib.k, cfg.n_layers - i)
        blocks_trace.append(calibrate_block(model, i, calib, acts[i], acts[i + k_eff]))
    model.config = replace(cfg, quant_mode="weight_kv")
    finals = [b["final_loss"] for b in blocks_trace]
    inits = [b["initial_loss"] for b in blocks_trace]
    ratios = [f / ini for f, ini in zip(finals, inits) if ini and np.isfinite(ini) and ini > 0]
    return {
        "seed": calib.seed,
        "k": calib.k,
        "epochs": calib.epochs,
        "segments": calib.segments,
        "seg_len": calib.seg_len,
        "blocks": blocks_trace,
        "mean_final_initial_ratio": float(np.mean(ratios)) if ratios else 1.0,
    }
