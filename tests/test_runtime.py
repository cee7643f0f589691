import copy

import numpy as np
import pytest

from conftest import tiny_config
import kvq.model
from kvq.errors import CapacityError, KvqError, NumericError
from kvq.model import (
    Model,
    ModelConfig,
    PoqKvCache,
    attach_kv_smoothing,
    decode_step,
    generate,
    model_forward,
    prefill,
    quantize_model_weights,
    spread_kv_channels,
)
from kvq.quantizers import init_smoothing
from kvq.tensor import Tensor, rms_norm


def make_model(seed=0, **kw):
    return Model.random(tiny_config(**kw), seed=seed)


def quantized(model, mode="weight_kv"):
    m = copy.deepcopy(model)
    quantize_model_weights(m)
    m.config.quant_mode = mode
    return m


def smoothed(model):
    """Attach K/V smoothing from the statistics of the IDS prompt."""
    per_layer = []
    for blk in model.blocks:
        xn = rms_norm(Tensor(model.embed[IDS]), Tensor(blk.attn_norm.reshape(1, -1))).data
        per_layer.append(
            (init_smoothing(xn @ blk.k.w + blk.k.b), init_smoothing(xn @ blk.v.w + blk.v.b))
        )
    attach_kv_smoothing(model, per_layer)
    return model


# -- reference: the per-head block the all-heads forward replaced -------------


def reference_rope(x, positions, base, head_dim):
    """Per-head rotary embedding, cos/sin recomputed for these positions."""
    d, half = head_dim, head_dim // 2
    inv_freq = base ** (-np.arange(half, dtype=np.float64) * 2.0 / d)
    ang = np.asarray(positions, dtype=np.float64)[:, None] * inv_freq[None, :]
    cos, sin = np.cos(ang).astype(np.float32), np.sin(ang).astype(np.float32)
    parts = []
    for h in range(x.shape[1] // d):
        x1, x2 = x.data[:, h * d : h * d + half], x.data[:, h * d + half : (h + 1) * d]
        parts += [x1 * cos - x2 * sin, x1 * sin + x2 * cos]
    return Tensor(np.concatenate(parts, axis=1))


def reference_softmax_causal(scores, offset):
    t, s = scores.shape
    mask = np.arange(s)[None, :] <= np.arange(t)[:, None] + offset
    masked = np.where(mask, scores, -np.inf)
    e = np.where(mask, np.exp(masked - masked.max(axis=1, keepdims=True)), 0.0)
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float32)


def reference_block_core(cfg, w, x, positions, kv_fn, act_fn=None):
    aq = act_fn if act_fn is not None else (lambda y: y)
    xq = aq(rms_norm(x, w["attn_norm"]))
    q = xq @ w["q_w"] + w["q_b"]
    k_s = xq @ w["k_w"] + w["k_b"]
    v_s = xq @ w["v_w"] + w["v_b"]
    q_rot = reference_rope(q, positions, cfg.rope_base, cfg.head_dim).data
    k_all, v_all, offset = kv_fn(k_s, v_s, positions)
    d = cfg.head_dim
    heads = []
    for h in range(cfg.n_heads):
        cols = slice(h * d, (h + 1) * d)
        scores = (q_rot[:, cols] @ k_all.data[:, cols].T) * np.float32(1.0 / np.sqrt(d))
        heads.append(reference_softmax_causal(scores, offset) @ v_all.data[:, cols])
    x = x + (aq(Tensor(np.concatenate(heads, axis=1))) @ w["o_w"] + w["o_b"])
    xq2 = aq(rms_norm(x, w["mlp_norm"]))
    mid = aq((xq2 @ w["gate_w"] + w["gate_b"]).silu() * (xq2 @ w["up_w"] + w["up_b"]))
    return x + (mid @ w["down_w"] + w["down_b"])


IDS = np.arange(24) % 250


class TestConfig:
    def test_head_dim_mismatch_rejected(self):
        with pytest.raises(KvqError):
            ModelConfig(hidden_size=128, n_heads=4, head_dim=16)

    def test_unknown_mode_rejected(self):
        with pytest.raises(KvqError):
            ModelConfig(quant_mode="int3")

    def test_kv_bits_16_not_quantized(self):
        assert not tiny_config(kv_bits=16).kv_quantized
        assert tiny_config(kv_bits=4).kv_quantized


class TestFpForward:
    def test_prefill_matches_full_forward(self):
        m = make_model()
        full = model_forward(m, IDS).data
        pre, _ = prefill(m, IDS)
        assert np.array_equal(full, pre.data)

    def test_decode_matches_full_forward(self):
        m = make_model()
        _, cache = prefill(m, IDS)
        step = decode_step(m, 7, cache).data[-1]
        full = model_forward(m, np.concatenate([IDS, [7]])).data[-1]
        assert np.abs(step - full).max() < 1e-4

    def test_chunked_prefill_consistent(self):
        m = make_model()
        cache = PoqKvCache(m.config, m.blocks, mode="fp")
        a = model_forward(m, IDS[:10], cache=cache)
        b = model_forward(m, IDS[10:], cache=cache)
        whole = model_forward(m, IDS).data
        got = np.concatenate([a.data, b.data], axis=0)
        assert np.abs(got - whole).max() < 1e-4


class TestAllHeadsForward:
    @pytest.mark.parametrize("kv_bits", [4, 8, 16])
    @pytest.mark.parametrize("poq", [True, False])
    @pytest.mark.parametrize("mode", ["fp", "weight_only", "weight_kv"])
    def test_matches_per_head_reference(self, monkeypatch, mode, poq, kv_bits):
        base = make_model(seed=2, n_heads=4, head_dim=8, kv_bits=kv_bits, poq=poq)
        spread_kv_channels(base, 2.0, seed=2)
        m = quantized(smoothed(base), mode=mode)

        def prefill_and_decode():
            logits, cache = prefill(m, IDS, mode=mode)
            rows = [logits.data]
            for tok in IDS[:8]:
                rows.append(decode_step(m, int(tok), cache, mode=mode).data)
            return np.concatenate(rows)

        fast = prefill_and_decode()
        monkeypatch.setattr(kvq.model, "block_core", reference_block_core)
        monkeypatch.setattr(kvq.model, "rope", reference_rope)
        slow = prefill_and_decode()
        assert fast.shape == (len(IDS) + 8, m.config.vocab_size)
        assert np.abs(fast - slow).max() <= 1e-5


class TestCache:
    def test_capacity_errors(self):
        m = make_model(max_seq_len=8)
        with pytest.raises(CapacityError):
            prefill(m, np.zeros(9, dtype=np.int64))
        _, cache = prefill(m, np.zeros(8, dtype=np.int64))
        with pytest.raises(CapacityError):
            decode_step(m, 0, cache)

    def test_decode_requires_prefill(self):
        m = make_model()
        cache = PoqKvCache(m.config, m.blocks)
        with pytest.raises(KvqError):
            decode_step(m, 0, cache)

    def test_positions_written_once(self, monkeypatch):
        m = quantized(make_model())
        written = np.zeros((m.config.n_layers, m.config.max_seq_len), dtype=np.int64)
        append = PoqKvCache.append

        def counting(cache, li, k_s, *rest):
            written[li, cache.length : cache.length + k_s.shape[0]] += 1
            return append(cache, li, k_s, *rest)

        monkeypatch.setattr(PoqKvCache, "append", counting)
        _, cache = prefill(m, IDS, mode="weight_kv")
        decode_step(m, 3, cache, mode="weight_kv")
        assert np.all(written[:, : len(IDS) + 1] == 1)
        assert np.all(written[:, len(IDS) + 1 :] == 0)

    def test_length_advances_after_all_layers(self):
        m = make_model()
        cache = PoqKvCache(m.config, m.blocks, mode="fp")
        model_forward(m, IDS[:4], cache=cache)
        assert cache.length == 4

    def test_forward_failing_mid_model_leaves_length(self, monkeypatch):
        # layer 0 has written its row when layer 1 raises; the cache must not
        # advance, and the next step overwrites that row
        m = make_model()
        _, cache = prefill(m, IDS)
        core, calls = kvq.model.block_core, []

        def failing_at_layer_1(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise NumericError("injected failure at layer 1")
            return core(*args, **kwargs)

        monkeypatch.setattr(kvq.model, "block_core", failing_at_layer_1)
        with pytest.raises(NumericError):
            decode_step(m, 7, cache)
        monkeypatch.undo()
        assert cache.length == len(IDS)
        step = decode_step(m, 5, cache).data[-1]
        full = model_forward(m, np.concatenate([IDS, [5]])).data[-1]
        assert cache.length == len(IDS) + 1
        assert np.abs(step - full).max() < 1e-4

    def test_smoothing_applied_once_per_read(self, monkeypatch):
        m = make_model()
        per_layer = []
        for blk in m.blocks:
            xn = rms_norm(Tensor(m.embed[IDS]), Tensor(blk.attn_norm.reshape(1, -1))).data
            per_layer.append(
                (init_smoothing(xn @ blk.k.w + blk.k.b), init_smoothing(xn @ blk.v.w + blk.v.b))
            )
        attach_kv_smoothing(m, per_layer)
        mq = quantized(m)
        _, cache = prefill(mq, IDS, mode="weight_kv")
        calls = []
        apply = kvq.model.apply_kv_smoothing

        def counting(x, sp, direction):
            if sp is mq.blocks[0].k.smoothing:
                calls.append(direction)
            return apply(x, sp, direction)

        monkeypatch.setattr(kvq.model, "apply_kv_smoothing", counting)
        decode_step(mq, 3, cache, mode="weight_kv")
        # one cache read plus one current-step mapping per forward
        assert calls == ["to_raw", "to_raw"]

    def test_kv_bytes_grows_linearly(self):
        m = quantized(make_model())
        _, cache = prefill(m, IDS[:8], mode="weight_kv")
        b8 = cache.kv_bytes()
        for t in range(8):
            decode_step(m, 1, cache, mode="weight_kv")
        assert cache.kv_bytes() == 2 * b8


class TestPoq:
    def test_prefill_identical_to_weight_only(self):
        m = quantized(make_model())
        a, _ = prefill(m, IDS, mode="weight_only")
        b, _ = prefill(m, IDS, mode="weight_kv")
        assert np.array_equal(a.data, b.data)

    def test_decode_differs_from_weight_only(self):
        m = quantized(make_model())
        spread_kv_channels(m, 1.5, seed=0)
        _, ca = prefill(m, IDS, mode="weight_only")
        _, cb = prefill(m, IDS, mode="weight_kv")
        da = decode_step(m, 5, ca, mode="weight_only").data
        db = decode_step(m, 5, cb, mode="weight_kv").data
        assert np.abs(da - db).max() > 0.0

    def test_poq_off_quantizes_current_step(self):
        m = quantized(make_model())
        m2 = copy.deepcopy(m)
        m2.config.poq = False
        a, _ = prefill(m, IDS, mode="weight_kv")
        b, _ = prefill(m2, IDS, mode="weight_kv")
        assert not np.array_equal(a.data, b.data)

    def test_kv_bits_16_is_lossless_passthrough(self):
        m = quantized(make_model(kv_bits=16))
        a, _ = prefill(m, IDS, mode="weight_only")
        b, cache = prefill(m, IDS, mode="weight_kv")
        da = decode_step(m, 5, cache, mode="weight_kv").data
        m2 = quantized(make_model(kv_bits=16))
        _, c2 = prefill(m2, IDS, mode="weight_only")
        db = decode_step(m2, 5, c2, mode="weight_only").data
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(da, db)


class TestModes:
    def test_activation_quant_changes_output(self):
        m = quantized(make_model(), mode="weight_activation")
        a = model_forward(m, IDS, mode="weight_activation").data
        b = model_forward(m, IDS, mode="weight_only").data
        assert not np.array_equal(a, b)

    def test_weight_quant_changes_output(self):
        m = make_model()
        a = model_forward(m, IDS).data
        mq = quantized(m)
        b = model_forward(mq, IDS, mode="weight_only").data
        assert not np.array_equal(a, b)
        assert np.abs(a - b).mean() < 1.0  # still close

    def test_unknown_mode_rejected(self):
        with pytest.raises(KvqError):
            model_forward(make_model(), IDS, mode="bogus")


class TestGenerate:
    def test_zero_new_returns_prompt(self):
        m = make_model()
        out = generate(m, IDS[:5], 0)
        assert np.array_equal(out, IDS[:5])

    def test_greedy_matches_manual_argmax(self):
        m = make_model()
        out = generate(m, IDS[:5], 3)
        ids = list(IDS[:5])
        for _ in range(3):
            ids.append(int(np.argmax(model_forward(m, np.asarray(ids)).data[-1])))
        assert np.abs(np.asarray(ids) - out).max() == 0

    def test_negative_n_rejected(self):
        with pytest.raises(KvqError):
            generate(make_model(), IDS[:4], -1)


class TestChannelSpread:
    def test_function_preserved(self):
        m = make_model(seed=3)
        before = model_forward(m, IDS).data
        spread_kv_channels(m, log_range=2.0, seed=1)
        after = model_forward(m, IDS).data
        assert np.abs(before - after).max() < 1e-4

    def test_channels_actually_spread(self):
        m = make_model(seed=3)
        spread_kv_channels(m, log_range=2.0, seed=1)
        norms = np.linalg.norm(m.blocks[0].v.w, axis=0)
        assert norms.max() / norms.min() > 5.0


class TestSmoothingRuntime:
    def test_fp_function_preserved_by_absorption(self):
        m = make_model(seed=4)
        spread_kv_channels(m, 2.0, seed=2)
        before = model_forward(m, IDS).data
        per_layer = []
        for blk in m.blocks:
            xn = rms_norm(Tensor(m.embed[IDS]), Tensor(blk.attn_norm.reshape(1, -1))).data
            per_layer.append(
                (init_smoothing(xn @ blk.k.w + blk.k.b), init_smoothing(xn @ blk.v.w + blk.v.b))
            )
        attach_kv_smoothing(m, per_layer)
        after = model_forward(m, IDS).data
        assert np.abs(before - after).max() < 1e-4 * max(1.0, np.abs(before).max())

    def test_smoothing_reduces_kv_decode_error(self):
        base = make_model(seed=5)
        spread_kv_channels(base, 2.0, seed=3)

        def decode_err(model):
            mq = quantized(model)
            _, ca = prefill(mq, IDS, mode="weight_only")
            _, cb = prefill(mq, IDS, mode="weight_kv")
            da = decode_step(mq, 5, ca, mode="weight_only").data
            db = decode_step(mq, 5, cb, mode="weight_kv").data
            return np.abs(da - db).mean()

        err_plain = decode_err(base)
        ms = copy.deepcopy(base)
        per_layer = []
        for blk in ms.blocks:
            xn = rms_norm(Tensor(ms.embed[IDS]), Tensor(blk.attn_norm.reshape(1, -1))).data
            per_layer.append(
                (init_smoothing(xn @ blk.k.w + blk.k.b), init_smoothing(xn @ blk.v.w + blk.v.b))
            )
        attach_kv_smoothing(ms, per_layer)
        err_smooth = decode_err(ms)
        assert err_smooth < err_plain
