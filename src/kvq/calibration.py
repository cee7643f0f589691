"""Block-by-block optimization of the K/V channel scale/shift under
cross-block reconstruction regularization.

Each block's seven projections are quantized once, round to nearest, before
training.  The quantized branch divides the k and v weights by the smoothing
scale on the tape, as Q(w) / s and (b - delta) / s, and fake-quantizes the
K/V projection outputs with their codes held fixed in the backward pass (see
quantizers.py).  Weight groups run along input channels and s is per output
channel, so Q(w) / s has the codes that freezing gives, Q(w / s), and
d(loss)/ds is the exact derivative wherever the loss is differentiable in s.
Blocks i+1 .. i+k-1 run full precision in both branches and receive no
parameter gradients.  Past-only quantization is always off during training
(the calibration forward has no cache).

Each block freezes whichever of three candidates has the lowest mean loss
(the earlier on a tie): identity smoothing over the round-to-nearest weights
(RTN), the activation-statistics init, and that init after one training run.

The calibration segments have one length, so a pass can stack them as rows
(see model.block_core).  The fp activations of every block come from one
such pass, and the statistics init from one.  Each candidate is scored by
one crr_loss pass over all segments stacked: the mean absolute error over
every row, which is the mean of the per-segment losses, on Tensors that
need no gradient, so no tape is recorded.  Training takes one Adam step per
segment, on the tape, in segment order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, KvqError, NumericError
from .model import Model, block_core, block_forward, require_unsmoothed
from .quantizers import (
    S_FLOOR,
    SmoothingParams,
    WeightQuantSpec,
    fake_quant_token,
    fake_quant_weight,
    init_smoothing,
)
from .tensor import Tensor, rms_norm, rope

ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class CalibConfig:
    k: int = 5
    epochs: int = 5
    lr_smoothing: float = 5e-4
    seed: int = 0
    segments: int = 32
    seg_len: int = 256

    def __post_init__(self):
        if self.k < 1:
            raise KvqError(f"k must be >= 1, got {self.k}")
        if self.segments < 1 or self.seg_len < 1 or self.epochs < 0:  # epochs 0: no training
            raise KvqError(f"need segments >= 1, seg_len >= 1, epochs >= 0; got "
                           f"{self.segments}, {self.seg_len}, {self.epochs}")
        if self.lr_smoothing <= 0:
            raise KvqError("lr_smoothing must be positive")


class AdamW:
    """AdamW at zero weight decay, i.e. Adam, over params at one learning rate."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.state = {id(p): (np.zeros_like(p.data), np.zeros_like(p.data))
                      for p in self.params}

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        for p in self.params:
            if p.grad is None:
                continue
            m, v = self.state[id(p)]
            g = p.grad.astype(np.float32)
            m = ADAM_B1 * m + (1 - ADAM_B1) * g
            v = ADAM_B2 * v + (1 - ADAM_B2) * g * g
            self.state[id(p)] = (m, v)
            mhat = m / (1 - ADAM_B1**self.t)
            vhat = v / (1 - ADAM_B2**self.t)
            upd = mhat / (np.sqrt(vhat) + ADAM_EPS)
            p.data = (p.data - self.lr * upd).astype(np.float32)


# -- loss construction --------------------------------------------------------


def reconstruction_loss(y_hat: Tensor, y_ref: Tensor) -> Tensor:
    """Mean absolute error, summed in float64 and rounded to float32 once, so
    the loss carries no float32 accumulation error.  The backward is
    g * sign(r) / N, as for (y_hat - y_ref).abs().mean()."""
    r = y_hat - y_ref

    def backward(g):
        if r.requires_grad:
            r._accum((np.broadcast_to(g, r.shape) / r.data.size).astype(np.float32)
                     * np.sign(r.data))

    return Tensor._from_op(np.mean(np.abs(r.data), dtype=np.float64), (r,), backward)


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


def init_trainables(model: Model, i: int, x_segs: list[np.ndarray]) -> BlockTrainables:
    """Smoothing stats of block i's raw K/V activations over the calibration
    tokens, in one pass over the segments stacked as rows."""
    blk = model.blocks[i]
    rows = np.reshape(x_segs, (-1, model.config.hidden_size))
    xn = rms_norm(rows, blk.attn_norm.reshape(1, -1))
    return BlockTrainables.from_smoothing(init_smoothing(xn @ blk.k.w + blk.k.b),
                                          init_smoothing(xn @ blk.v.w + blk.v.b))


def quantized_weights(model: Model, i: int) -> dict[str, np.ndarray]:
    """Block i's seven raw projection weights rounded to nearest, Q(w), or
    the raw weights at weight_bits >= 16: what calibration trains against."""
    cfg = model.config
    return {
        name: fake_quant_weight(lin.w, cfg.weight_bits, cfg.weight_group_size)
        if cfg.weight_bits < 16 else lin.w
        for name, lin in model.blocks[i].projections().items()
    }


def fake_block_weights(model: Model, i: int, tp: BlockTrainables,
                       wq: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """Block-i weight Tensors from its quantized weights wq, with the K/V
    smoothing absorbed in-graph: Q(w) / s and (b - delta) / s."""
    blk = model.blocks[i]
    w = {
        "attn_norm": Tensor(blk.attn_norm.reshape(1, -1)),
        "mlp_norm": Tensor(blk.mlp_norm.reshape(1, -1)),
    }
    smoothing = {"k": (tp.s_k, tp.d_k), "v": (tp.s_v, tp.d_v)}
    for name, lin in blk.projections().items():
        wt = Tensor(wq[name])
        bt = Tensor(lin.b)
        if name in smoothing:
            s, d = smoothing[name]
            s = s.clamp(S_FLOOR, np.inf)
            wt = wt / s
            bt = (bt - d) / s
        w[f"{name}_w"] = wt
        w[f"{name}_b"] = bt
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
    for j in range(i + 1, i + k_eff):
        y_hat = block_forward(cfg, model.blocks[j], y_hat, 0, j, None, "fp", seq_len=seq_len)
    return reconstruction_loss(y_hat, Tensor(y_ref.reshape(-1, c)))


# -- calibration driver -------------------------------------------------------


def collect_activations(model: Model, segments: list[np.ndarray]) -> list[list[np.ndarray]]:
    """Full-precision inputs x_i to every block (index n_layers = final
    output) of each equal-length token segment, in one pass with the
    segments stacked as rows."""
    ids = np.asarray(segments, dtype=np.int64)
    b, t = ids.shape
    xs = [model.embed[ids.reshape(-1)]]
    for j, blk in enumerate(model.blocks):
        xs.append(block_forward(model.config, blk, xs[-1], 0, j, None, "fp", seq_len=t))
    stacked = [x.reshape(b, t, -1) for x in xs]
    return [[x[s] for x in stacked] for s in range(b)]


def freeze_block(model: Model, i: int, tp: BlockTrainables) -> None:
    """Absorb smoothing and fix the block's weight codes, round to nearest.

    At weight_bits >= 16 no codes are made, and an absorbed projection's old
    codes are dropped.
    """
    cfg = model.config
    blk = model.blocks[i]
    blk.k.absorb(SmoothingParams(np.maximum(tp.s_k.data.reshape(-1), S_FLOOR), tp.d_k.data))
    blk.v.absorb(SmoothingParams(np.maximum(tp.s_v.data.reshape(-1), S_FLOOR), tp.d_v.data))
    if cfg.weight_bits >= 16:
        return
    for lin in blk.projections().values():
        lin.quantize(WeightQuantSpec(cfg.weight_bits, cfg.weight_group_size))


def calibrate_block(model: Model, i: int, calib: CalibConfig,
                    x_segs: list[np.ndarray], ref_segs: list[np.ndarray]) -> dict:
    """Calibrate and freeze block i; returns its trace.

    initial_loss scores identity smoothing over the round-to-nearest weights
    (the RTN model's block), trajectory[0] the activation-statistics init and
    trained_loss that init after calib.epochs epochs, each in one pass over
    every segment that records no tape.  Training takes one Adam step per
    segment, in order.  final_loss is the lowest of the three, and the block
    freezes that candidate; failed means it kept RTN.  A non-finite loss
    keeps RTN and reports NaN losses.
    """
    wq = quantized_weights(model, i)
    x, ref = np.stack(x_segs), np.stack(ref_segs)

    def mean_loss(tp):
        val = crr_loss(model, i, x, tp.detached(), calib, ref, wq).item()
        if not np.isfinite(val):
            raise NumericError(f"non-finite calibration loss at block {i}")
        return val

    rtn = BlockTrainables.identity(model.config.hidden_size)
    try:
        initial = mean_loss(rtn)
        tp = init_trainables(model, i, x_segs)
        init = tp.detached()
        trajectory = [mean_loss(tp)]
        opt = AdamW(tp.smooth_params(), calib.lr_smoothing)
        for _ in range(calib.epochs):
            epoch_losses = []
            for x_seg, r_seg in zip(x_segs, ref_segs):
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
    corpus_ids = np.asarray(corpus_ids, dtype=np.int64)
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
    fixed weight codes, and quant_mode="weight_kv".
    """
    require_unsmoothed(model, "calibrate")
    segments = sample_segments(corpus_ids, calib)
    acts = collect_activations(model, segments)
    cfg = model.config
    blocks_trace = []
    for i in range(cfg.n_layers):
        k_eff = min(calib.k, cfg.n_layers - i)
        x_segs = [xs[i] for xs in acts]
        ref_segs = [xs[i + k_eff] for xs in acts]
        blocks_trace.append(calibrate_block(model, i, calib, x_segs, ref_segs))
    model.config.quant_mode = "weight_kv"
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
