import ast
import copy
import inspect
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_config
from reference import decode_attention
import kvq.evaluate
import kvq.model
from kvq.errors import CapacityError, DimensionError, KvqError, NumericError, UsageError
from kvq.evaluate import score_logits
from kvq.model import (
    ATTN_BLOCK,
    MODES,
    Linear,
    Model,
    ModelConfig,
    PoqKvCache,
    attach_kv_smoothing,
    block_forward,
    causal_attention,
    decode_step,
    generate,
    model_forward,
    prefill,
    quantize_model_weights,
    spread_kv_channels,
)
from kvq.quantizers import (
    SPREAD_EPS,
    QuantizedTensor,
    SmoothingParams,
    TokenQuantSpec,
    WeightQuantSpec,
    _spans,
    apply_kv_smoothing,
    dequantize,
    init_smoothing,
    quantize_token,
)
from kvq.tensor import Tensor, rms_norm, rope, rope_table, round_half_away, softmax_causal
from tape_ops import concat_rows


def make_model(seed=0, **kw):
    return Model.random(tiny_config(**kw), seed=seed)


def in_mode(model, mode):
    """A copy of model whose forwards run mode."""
    m = copy.deepcopy(model)
    m.config.quant_mode = mode
    return m


def quantized(model, mode="weight_kv"):
    m = in_mode(model, mode)
    quantize_model_weights(m)
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


def reference_rope(x, positions, base, head_dim, out=None):
    """Per-head rotary embedding of an array, cos/sin recomputed for these positions."""
    d, half = head_dim, head_dim // 2
    inv_freq = base ** (-np.arange(half, dtype=np.float64) * 2.0 / d)
    ang = np.asarray(positions, dtype=np.float64)[:, None] * inv_freq[None, :]
    cos, sin = np.cos(ang).astype(np.float32), np.sin(ang).astype(np.float32)
    parts = []
    for h in range(x.shape[1] // d):
        x1, x2 = x[:, h * d : h * d + half], x[:, h * d + half : (h + 1) * d]
        parts += [x1 * cos - x2 * sin, x1 * sin + x2 * cos]
    rotated = np.concatenate(parts, axis=1)
    if out is not None:
        out[...] = rotated
    return rotated


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
    q_rot = reference_rope(q, positions, cfg.rope_base, cfg.head_dim)
    k_all, v_all = kv_fn(k_s, v_s, positions)
    d = cfg.head_dim
    if callable(k_all):  # a decode step's folded keys score every head's query at once
        raw = k_all(q_rot.reshape(x.shape[0], cfg.n_heads, d).transpose(1, 0, 2))
    else:
        raw = [q_rot[:, h * d : (h + 1) * d] @ k_all[:, h * d : (h + 1) * d].T
               for h in range(cfg.n_heads)]
    offset = raw[0].shape[1] - x.shape[0]
    probs = [reference_softmax_causal(r * np.float32(1.0 / np.sqrt(d)), offset) for r in raw]
    if callable(v_all):  # a cache read's folded values take every head's weights at once
        heads = list(v_all(np.stack(probs)))
    else:
        heads = [p @ v_all[:, h * d : (h + 1) * d] for h, p in enumerate(probs)]
    x = x + (aq(np.concatenate(heads, axis=1)) @ w["o_w"] + w["o_b"])
    xq2 = aq(rms_norm(x, w["mlp_norm"]))
    g = xq2 @ w["gate_w"] + w["gate_b"]
    mid = aq(g / (1.0 + np.exp(-g)) * (xq2 @ w["up_w"] + w["up_b"]))
    return x + (mid @ w["down_w"] + w["down_b"])


# -- reference: the kernels before they shed their per-call overhead ----------


def swap_copy_rope(x, positions, base=10000.0, head_dim=None, out=None):
    """rope on arrays as it was: a concatenated copy of the swapped halves,
    times sin, added to x * cos."""
    t, width = x.shape
    d = width if head_dim is None else head_dim
    start = int(positions[0]) if t else 0
    cos, sin = (a[start : start + t] for a in rope_table(base, d, width, start + t))
    x3 = x.reshape(t, width // d, d)
    swapped = np.concatenate([x3[..., d // 2 :], x3[..., : d // 2]], axis=-1).reshape(t, width)
    swapped *= sin
    out = np.multiply(x, cos, out=out)
    out += swapped
    return out


def mean_rms_norm(x, gain, eps=1e-6):
    """rms_norm on arrays with np.mean, as it was."""
    return x / np.sqrt((x * x).mean(axis=1, keepdims=True) + np.float32(eps)) * gain


def mean_quantize_token(y, spec):
    """quantize_token as it was: np.mean for each group's m, and the flat
    groups' codes zeroed by an assign on every call."""
    y = np.asarray(y, dtype=np.float32)
    t, c = y.shape
    half = float(2 ** (spec.bits - 1))
    parts = []
    for cols, _, k, size in _spans(c, spec.group_size):
        g = y[:, cols].reshape(t, k, size)
        m = g.mean(axis=2)
        centered = g - m[:, :, None]
        spread = np.abs(centered).max(axis=2)
        flat = spread < SPREAD_EPS
        n = np.where(flat, 1.0, spread / half).astype(np.float32)
        q = round_half_away(centered / n[:, :, None])
        np.clip(q, spec.code_lo, spec.code_hi, out=q)
        q[flat] = 0.0
        parts.append((q.astype(np.int8).reshape(t, k * size), m, n))
    codes, m, n = (np.concatenate(a, axis=1) for a in zip(*parts))
    return QuantizedTensor("token", codes, spec.bits, spec.group_size, m=m, n=n)


class TestSlimKernels:
    """rope, rms_norm and the token quantizer core keep their bits."""

    def test_rope_matches_swap_copy(self):
        rng = np.random.default_rng(11)
        for t, width, d, start in ((1, 32, 8, 40), (7, 64, 32, 0), (130, 16, 16, 3), (0, 8, 8, 0)):
            x = rng.normal(size=(t, width)).astype(np.float32)
            pos = np.arange(start, start + t)
            want = swap_copy_rope(x, pos, 500.0, d)
            assert np.array_equal(rope(x, pos, 500.0, d), want)
            y = x.copy()
            assert rope(y, pos, 500.0, d, out=y) is y and np.array_equal(y, want)
            xt = Tensor(x, requires_grad=True)
            r = rope(xt, pos, 500.0, d)
            assert np.array_equal(r.data, want)
            g = rng.normal(size=(t, width)).astype(np.float32)
            r._backward(g)
            # the transpose rotates by -angle
            _, sin = rope_table(500.0, d, width, start + t)
            cos = rope_table(500.0, d, width, start + t)[0][start : start + t]
            g3 = g.reshape(t, width // d, d)
            sw = np.concatenate([g3[..., d // 2 :], g3[..., : d // 2]], axis=-1).reshape(t, width)
            sw *= -sin[start : start + t]
            assert np.array_equal(xt.grad, g * cos + sw)

    def test_rms_norm_matches_mean(self):
        rng = np.random.default_rng(12)
        for rows, c in ((1, 128), (9, 33), (300, 64)):
            x = (rng.normal(size=(rows, c)) * rng.uniform(0.01, 50)).astype(np.float32)
            gain = rng.normal(size=(1, c)).astype(np.float32)
            assert np.array_equal(rms_norm(x, gain), mean_rms_norm(x, gain))

    def test_quantize_token_matches_mean_core(self):
        rng = np.random.default_rng(13)
        for trial in range(300):
            t, c = int(rng.integers(1, 5)), int(rng.integers(1, 40))
            spec = TokenQuantSpec(int(rng.choice([2, 3, 4, 8])), int(rng.integers(1, c + 1)))
            y = (rng.normal(size=(t, c)) * rng.uniform(0.01, 100)).astype(np.float32)
            if trial % 3 == 0:
                y[0] = 1.5  # flat groups
            got, want = quantize_token(y, spec), mean_quantize_token(y, spec)
            for name in ("codes", "m", "n"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (trial, name)


# -- reference: the cache read on the tape that the folded read replaced -------


def tape_read_raw(cache, li, blk):
    """Raw-space past K/V of layer li (block blk): dequantize, then un-smooth
    (pre-rotary K), or an fp cache's rows (rotated K)."""
    lc, t = cache.layers[li], cache.length
    if not lc.quantized:
        return lc.k_fp[:t], lc.v_fp[:t]
    spec = cache.cfg.token_spec()

    def raw(codes, m, n, sp):
        y = dequantize(QuantizedTensor("token", codes[:t], spec.bits, spec.group_size,
                                       m=m[:t], n=n[:t]))
        return y if sp is None else apply_kv_smoothing(y, sp, "to_raw")

    return (raw(lc.k_codes, lc.k_m, lc.k_n, blk.k.smoothing),
            raw(lc.v_codes, lc.v_m, lc.v_n, blk.v.smoothing))


def tape_append(cache, li, k_s, v_s, k_raw, v_raw):
    """Store a chunk's rows, quantizing K and V in separate calls; an fp
    cache stores K rotated."""
    lc, rows = cache.layers[li], slice(cache.length, cache.length + k_s.shape[0])
    if not lc.quantized:
        cfg = cache.cfg
        lc.k_fp[rows] = rope(k_raw, np.arange(rows.start, rows.stop), cfg.rope_base, cfg.head_dim)
        lc.v_fp[rows] = v_raw
        return
    for y, codes, m, n in ((k_s, lc.k_codes, lc.k_m, lc.k_n), (v_s, lc.v_codes, lc.v_m, lc.v_n)):
        q = quantize_token(y, cache.cfg.token_spec())
        codes[rows], m[rows], n[rows] = q.codes, q.m, q.n


def tape_runtime_kv_fn(cfg, blk, li, cache, mode):
    """The runtime KV handler as it ran on the tape: the past read back to raw
    space and rotated, then joined to the chunk's rows with concat_rows."""
    spec = cfg.token_spec() if mode == "weight_kv" and cfg.kv_quantized and not cfg.poq else None

    def raw(y, sp):
        if spec is not None:
            y = dequantize(quantize_token(y, spec))
        return y if sp is None else apply_kv_smoothing(y, sp, "to_raw")

    def kv_fn(k_s, v_s, positions):
        k_raw, v_raw = raw(k_s, blk.k.smoothing), raw(v_s, blk.v.smoothing)
        k_all = rope(Tensor(k_raw), positions, cfg.rope_base, cfg.head_dim)
        v_all = Tensor(v_raw)
        past = 0 if cache is None else cache.length
        if past:
            k_past, v_past = tape_read_raw(cache, li, blk)
            k_past = Tensor(k_past)
            if cache.layers[li].quantized:
                k_past = rope(k_past, np.arange(past), cfg.rope_base, cfg.head_dim)
            k_all = concat_rows([k_past, k_all])
            v_all = concat_rows([Tensor(v_past), v_all])
        if cache is not None:
            tape_append(cache, li, k_s, v_s, k_raw, v_raw)
        return k_all.data, v_all.data

    return kv_fn


IDS = np.arange(24) % 250


class TestConfig:
    def test_head_dim_mismatch_rejected(self):
        with pytest.raises(KvqError):
            ModelConfig(hidden_size=128, n_heads=4, head_dim=16)

    def test_unknown_mode_rejected(self):
        with pytest.raises(KvqError):
            ModelConfig(quant_mode="int3")

    @pytest.mark.parametrize("field", ["kv_bits", "weight_bits"])
    def test_code_widths_the_codes_cannot_hold_rejected(self, field):
        # token codes are int8 and weight codes uint8; 16 and up is unquantized
        for bits in (0, 1, 9, 12, 15):
            with pytest.raises(KvqError, match=field):
                tiny_config(**{field: bits})
        for bits in (2, 3, 8, 16, 32):
            tiny_config(**{field: bits})

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
        cache = PoqKvCache(m.config, m.blocks)
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
            logits, cache = prefill(m, IDS)
            rows = [logits.data]
            for tok in IDS[:8]:
                rows.append(decode_step(m, int(tok), cache).data)
            return np.concatenate(rows)

        fast = prefill_and_decode()
        monkeypatch.setattr(kvq.model, "block_core", reference_block_core)
        monkeypatch.setattr(kvq.model, "rope", reference_rope)
        slow = prefill_and_decode()
        assert fast.shape == (len(IDS) + 8, m.config.vocab_size)
        assert np.abs(fast - slow).max() <= 1e-5


# -- reference: causal attention as one scores matrix, before query blocks -----


def whole_matrix_attention(q, k, v, n_heads, diag=None):
    """causal_attention on arrays with every query row in one (H, T, S) scores
    matrix, masked triangle included."""
    t, s = q.shape[0], k.shape[0]
    offset, d = s - t, q.shape[1] // n_heads
    heads = lambda a: a.reshape(a.shape[0], n_heads, d).transpose(1, 0, 2)
    qh, kh, vh = heads(q), heads(k), heads(v)
    p = np.matmul(qh, kh.transpose(0, 2, 1))
    if diag is not None:
        ii = (slice(None), np.arange(t), np.arange(t) + offset)
        p[ii] = np.einsum("htd,htd->ht", qh, heads(diag[0]))
    p *= np.float32(1.0 / np.sqrt(d))
    softmax_causal(p, offset)
    out = np.matmul(p, vh)
    if diag is not None:
        out += p[ii][..., None] * (heads(diag[1]) - vh[:, offset:])
    return out.transpose(1, 0, 2).reshape(t, -1)


class TestQueryBlocks:
    """Chunks longer than ATTN_BLOCK attend one block of query rows at a time."""

    @pytest.mark.parametrize("poq", [False, True])
    @pytest.mark.parametrize("offset", [0, 37])
    @pytest.mark.parametrize("t", [1, ATTN_BLOCK - 1, ATTN_BLOCK, ATTN_BLOCK + 1, 300])
    def test_matches_whole_matrix(self, t, offset, poq):
        rng = np.random.default_rng(t + offset)
        arr = lambda rows: (2.0 * rng.normal(size=(rows, 32))).astype(np.float32)
        q, k, v = arr(t), arr(offset + t), arr(offset + t)
        diag = (arr(t), arr(t)) if poq else None
        got = causal_attention(q, k, v, 4, diag)
        want = whole_matrix_attention(q, k, v, 4, diag)
        assert got.shape == want.shape == (t, 32)
        assert np.abs(got - want).max() <= 1e-5

    def test_multi_block_prefill_identical_to_weight_only(self):
        m = quantized(make_model(seed=3, max_seq_len=320))
        ids = np.random.default_rng(3).integers(0, m.config.vocab_size, 300)
        a, _ = prefill(in_mode(m, "weight_only"), ids)
        b, _ = prefill(m, ids)
        assert np.array_equal(a.data, b.data)

    def test_chunk_onto_filled_cache_matches_blocked_prefill(self):
        # the chunk reads the cache (one block); the whole prompt takes two
        m = make_model(max_seq_len=256)
        ids = np.arange(210) % 250
        cache = PoqKvCache(m.config, m.blocks)
        model_forward(m, ids[:10], cache=cache)
        chunk = model_forward(m, ids[10:], cache=cache).data
        whole, _ = prefill(m, ids)
        assert np.abs(chunk - whole.data[10:]).max() < 1e-4


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
        _, cache = prefill(m, IDS)
        decode_step(m, 3, cache)
        assert np.all(written[:, : len(IDS) + 1] == 1)
        assert np.all(written[:, len(IDS) + 1 :] == 0)

    def test_length_advances_after_all_layers(self):
        m = make_model()
        cache = PoqKvCache(m.config, m.blocks)
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
        # the folded reads take the past K/V straight from the codes: a decode
        # step maps only its own K and V row to raw space, once each
        mq = quantized(smoothed(make_model()))
        _, cache = prefill(mq, IDS)
        blk, calls = mq.blocks[0], []
        apply = kvq.model.apply_kv_smoothing

        def counting(x, sp, direction, **kwargs):
            if sp is blk.k.smoothing or sp is blk.v.smoothing:
                calls.append(("k" if sp is blk.k.smoothing else "v", direction, x.shape[0]))
            return apply(x, sp, direction, **kwargs)

        monkeypatch.setattr(kvq.model, "apply_kv_smoothing", counting)
        decode_step(mq, 3, cache)
        assert calls == [("k", "to_raw", 1), ("v", "to_raw", 1)]

    def test_kv_bytes_grows_linearly(self):
        m = quantized(make_model())
        _, cache = prefill(m, IDS[:8])
        b8 = cache.kv_bytes()
        for t in range(8):
            decode_step(m, 1, cache)
        assert cache.kv_bytes() == 2 * b8


class TestFoldedCacheRead:
    # (kv_group_size, head_dim, n_heads): groups inside a head, several per
    # head, spanning two heads, straddling heads with a short tail group, and
    # segments one channel wide
    LAYOUTS = [(32, 32, 2), (8, 32, 2), (64, 32, 2), (48, 32, 2), (5, 8, 4)]

    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("group, head_dim, n_heads", LAYOUTS)
    def test_matches_tape_read(self, monkeypatch, group, head_dim, n_heads, smooth):
        base = make_model(seed=1, n_heads=n_heads, head_dim=head_dim,
                          hidden_size=n_heads * head_dim, kv_group_size=group)
        spread_kv_channels(base, 2.0, seed=1)
        m = quantized(smoothed(base) if smooth else base)

        def run():
            # prefill, a chunk onto the non-empty cache, then decode steps
            logits, cache = prefill(m, IDS[:10])
            rows = [logits.data, model_forward(m, IDS[10:20], cache=cache).data]
            rows += [decode_step(m, int(tok), cache).data for tok in IDS[20:28]]
            return np.concatenate(rows), cache.layers[0]

        for mode in MODES:
            for poq in (True, False):
                for kv_bits in (2, 3, 4, 8, 16):
                    m.config.quant_mode, m.config.poq, m.config.kv_bits = mode, poq, kv_bits
                    fast, fast_layer0 = run()
                    with monkeypatch.context() as patch:
                        patch.setattr(kvq.model, "_runtime_kv_fn", tape_runtime_kv_fn)
                        slow, slow_layer0 = run()
                    bound = 1e-4 if mode == "weight_activation" else 1e-5
                    assert np.abs(fast - slow).max() <= bound, (mode, poq, kv_bits)
                    # layer 0 sees the same inputs on both paths, so one
                    # quantize call over K and V stores what two calls store
                    for name, stored in vars(fast_layer0).items():
                        assert np.array_equal(stored, vars(slow_layer0)[name]), name

    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("group, head_dim, n_heads", LAYOUTS)
    def test_fold_matches_materialized_read(self, monkeypatch, group, head_dim, n_heads, smooth):
        # decode steps onto a past of about 300 rows score the codes through
        # the query (_folded_k), whatever the segment count; the reference
        # materializes every past key
        base = make_model(seed=4, n_heads=n_heads, head_dim=head_dim, max_seq_len=320,
                          hidden_size=n_heads * head_dim, kv_group_size=group)
        spread_kv_channels(base, 2.0, seed=4)
        m = quantized(smoothed(base) if smooth else base)
        ids = np.random.default_rng(4).integers(0, m.config.vocab_size, 304)

        def run(max_segments):
            monkeypatch.setattr(kvq.model, "FOLD_MAX_SEGMENTS", max_segments)
            _, cache = prefill(m, ids[:298])
            assert cache.fold_k == (max_segments > 0)
            return np.concatenate([decode_step(m, int(tok), cache).data for tok in ids[298:]])

        for poq in (True, False):
            for kv_bits in (2, 3, 4, 8):
                m.config.poq, m.config.kv_bits = poq, kv_bits
                folded, materialized = run(m.config.hidden_size), run(0)
                assert np.abs(folded - materialized).max() <= 1e-5, (poq, kv_bits)

    @pytest.mark.parametrize("group, folds", [(32, True), (8, True), (4, True), (2, False),
                                              (5, False)])
    def test_fold_only_up_to_max_segments(self, group, folds):
        # hidden 128 holds 4, 16, 32, 64 and 128 segments; the fold's cost
        # grows with them, the materialized read's does not
        m = quantized(make_model(n_heads=4, head_dim=32, hidden_size=128, kv_group_size=group))
        assert PoqKvCache(m.config, m.blocks).fold_k == folds
        m.config.kv_bits = 16  # an fp cache
        assert not PoqKvCache(m.config, m.blocks).fold_k

    def test_prefill_and_cache_scoring_unchanged(self, monkeypatch):
        # neither reads a cache one row at a time, so the fold never runs, and
        # the slimmed rope, rms_norm and token quantizer keep their bits
        m = quantized(smoothed(make_model(seed=5, max_seq_len=320)))
        ids = np.random.default_rng(5).integers(0, m.config.vocab_size, 300)

        def outputs():
            logits, cache = prefill(m, ids[:200])
            chunk = model_forward(m, ids[200:], cache=cache).data
            return logits.data, chunk, score_logits(m, ids, use_cache=True)

        got = outputs()
        monkeypatch.setattr(kvq.model, "FOLD_MAX_SEGMENTS", 0)
        monkeypatch.setattr(kvq.model, "rope", swap_copy_rope)
        monkeypatch.setattr(kvq.model, "rms_norm", mean_rms_norm)
        monkeypatch.setattr(kvq.model, "quantize_token", mean_quantize_token)
        for a, b in zip(got, outputs()):
            assert np.array_equal(a, b)

    def test_runtime_records_no_tape_ops(self, monkeypatch):
        calls = []
        from_op = Tensor._from_op

        def counting(*args):
            calls.append(1)
            return from_op(*args)

        models = [quantized(smoothed(make_model(seed=1, poq=poq)), mode)
                  for mode in MODES for poq in (True, False)]
        monkeypatch.setattr(Tensor, "_from_op", staticmethod(counting))
        for m in models:
            _, cache = prefill(m, IDS[:12])
            decode_step(m, 5, cache)
            score_logits(m, IDS, use_cache=True)
        assert calls == []
        rms_norm(Tensor(m.embed[IDS]), Tensor(m.final_norm.reshape(1, -1)))
        assert calls  # the counter sees the tape ops that do run

    @pytest.mark.parametrize("name", ["k_m", "k_n", "v_m", "v_n"])
    def test_corrupt_cache_params_raise(self, name):
        m = quantized(smoothed(make_model(seed=1)))
        _, cache = prefill(m, IDS)
        getattr(cache.layers[-1], name)[3, 0] = np.nan
        with pytest.raises(NumericError):
            decode_step(m, 5, cache)


class TestReadPlan:
    """A cache fixes, once, what every forward onto it needs (_plan_reads)."""

    @pytest.mark.parametrize("mode", ["weight_kv", "fp"])
    def test_decode_steps_rebuild_nothing(self, monkeypatch, mode):
        m = quantized(smoothed(make_model(seed=1)), mode)
        arrays, plan, calls = kvq.model.block_arrays, PoqKvCache._plan_reads, []

        def counting_arrays(blk):
            calls.append("block_arrays")
            return arrays(blk)

        def counting_plan(cache, *args):
            calls.append("plan")
            return plan(cache, *args)

        monkeypatch.setattr(kvq.model, "block_arrays", counting_arrays)
        monkeypatch.setattr(PoqKvCache, "_plan_reads", counting_plan)
        _, cache = prefill(m, IDS[:12])
        assert calls == ["plan"] + ["block_arrays"] * m.config.n_layers
        calls.clear()
        for tok in IDS[12:22]:
            decode_step(m, int(tok), cache)
        model_forward(m, IDS[:2], cache=cache)
        assert calls == []

    @pytest.mark.parametrize("mode", ["weight_kv", "fp"])
    def test_buffers_and_tables_start_on_64_bytes(self, mode):
        # an odd length and width, so that no row count makes it hold by luck
        m = quantized(make_model(seed=1, max_seq_len=37, n_heads=3, head_dim=6,
                                 hidden_size=18, kv_group_size=3), mode)
        cache = PoqKvCache(m.config, m.blocks)
        kept = [cache.scratch] + [a for lc in cache.layers for a in vars(lc).values()
                                  if isinstance(a, np.ndarray)]
        if mode == "weight_kv":
            assert cache.fold_k
            kept += [cache.work, cache.cos, cache.sin, cache.cs_cols]
        assert len(kept) == (1 + 2 * 6 + 4 if mode == "weight_kv" else 1 + 2 * 2)
        assert [a.ctypes.data % 64 for a in kept] == [0] * len(kept)

    def test_cache_is_freed_with_its_last_user(self):
        # the planned KV handlers reach the cache through a weak proxy, so the
        # plan holds no reference cycle
        m = quantized(make_model(seed=1))
        _, cache = prefill(m, IDS[:4])
        ref = weakref.ref(cache)
        del cache
        assert ref() is None


class TestFoldsAgainstReference:
    """The K fold's scores and the V fold's output of a decode step, layer by
    layer, against the float64 reference (tests/reference.py).  Over these
    layouts, contexts 1, 64 and 299, with and without smoothing, the largest
    error was 2.3e-7 of the largest |score| and 8.0e-7 of the largest
    |output| (numpy 2.4, OpenBLAS 0.3.31); the bounds leave about 4x."""

    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("group, head_dim, n_heads", TestFoldedCacheRead.LAYOUTS)
    def test_folds_match_float64_reference(self, group, head_dim, n_heads, smooth):
        base = make_model(seed=6, n_heads=n_heads, head_dim=head_dim, max_seq_len=320,
                          hidden_size=n_heads * head_dim, kv_group_size=group)
        spread_kv_channels(base, 2.0, seed=6)
        m = quantized(smoothed(base) if smooth else base)
        cfg, rng = m.config, np.random.default_rng(6)
        ids = rng.integers(0, cfg.vocab_size, 300)
        heads = lambda a: a.reshape(1, n_heads, head_dim).transpose(1, 0, 2)
        for ctx in (1, 64, 299):
            _, cache = prefill(m, ids[:ctx])
            assert cache.fold_k
            pos = np.arange(ctx, ctx + 1)
            for li in range(cfg.n_layers):
                q, k, v = rng.normal(size=(3, 1, cfg.hidden_size)).astype(np.float32)
                scores, p, out = decode_attention(cfg, cache.layers[li], ctx,
                                                  cache.kv_smoothing[li], q, k, v)
                k_read, v_read = cache.read_raw(li, rope(k, pos, cfg.rope_base, head_dim), v)
                got = k_read(heads(rope(q, pos, cfg.rope_base, head_dim)))[:, 0]
                assert np.abs(got - scores).max() <= 1e-6 * np.abs(scores).max(), (ctx, li)
                got = v_read(p.astype(np.float32)[:, None, :])[:, 0]
                assert np.abs(got - out).max() <= 3e-6 * np.abs(out).max(), (ctx, li)


class TestFpCacheRotatedKeys:
    """An fp cache (fp and weight_only) stores each chunk's K rows rotated,
    once, at append; reads take them as stored."""

    @pytest.mark.parametrize("mode", ["fp", "weight_only"])
    def test_stored_rows_are_rope_of_the_raw_rows(self, monkeypatch, mode):
        m = quantized(make_model(seed=6), mode)
        cfg, raw = m.config, []
        raw_kv = kvq.model._raw_kv

        def recording(*args):
            k, v = raw_kv(*args)
            raw.append(k)
            return k, v

        monkeypatch.setattr(kvq.model, "_raw_kv", recording)
        _, cache = prefill(m, IDS[:10])
        model_forward(m, IDS[10:16], cache=cache)
        for tok in IDS[16:20]:
            decode_step(m, int(tok), cache)
        start = 0
        for first in range(0, len(raw), cfg.n_layers):  # one forward: one call per layer
            t = raw[first].shape[0]
            for li in range(cfg.n_layers):
                want = rope(raw[first + li], np.arange(start, start + t), cfg.rope_base,
                            cfg.head_dim)
                assert np.array_equal(cache.layers[li].k_fp[start : start + t], want)
            start += t
        assert start == cache.length == 20

    def test_weight_only_decode_matches_cacheless_forward(self):
        # max |dlogit| measured 6.0e-8 over these 9 rows (logits up to 0.37)
        m = quantized(make_model(seed=6), "weight_only")
        logits, cache = prefill(m, IDS[:12])
        rows = [logits.data] + [decode_step(m, int(tok), cache).data for tok in IDS[12:20]]
        full = model_forward(m, IDS[:20]).data
        assert np.abs(np.concatenate(rows) - full).max() <= 1e-5


class TestStackedForward:
    """Without a cache a block takes equal-length sequences stacked as rows;
    its one-sequence call is the reference."""

    @pytest.mark.parametrize("t", [1, 8])
    def test_block_matches_each_sequence(self, t):
        # max |diff| measured 0.0 at t = 1 and 8 (tiny config, 3 sequences)
        m = make_model(seed=8)
        ids = np.random.default_rng(8).integers(0, m.config.vocab_size, (3, t))
        x = m.embed[ids.reshape(-1)]
        for tape in (False, True):
            xin = Tensor(x) if tape else x
            got = block_forward(m.config, m.blocks[0], xin, 0, 0, None, "fp", seq_len=t)
            got = got.data if tape else got
            for i, seq in enumerate(ids):
                one = block_forward(m.config, m.blocks[0], m.embed[seq], 0, 0, None, "fp")
                assert np.abs(got[i * t : (i + 1) * t] - one).max() <= 1e-6

    def test_rows_not_whole_sequences_rejected(self):
        m = make_model()
        with pytest.raises(DimensionError, match="rows"):
            block_forward(m.config, m.blocks[0], m.embed[IDS[:7]], 0, 0, None, "fp", seq_len=2)

    @pytest.mark.parametrize("mode", ["fp", "weight_kv"])
    def test_stacked_forward_onto_a_cache_refused(self, mode):
        m = quantized(make_model(), mode)
        cache = PoqKvCache(m.config, m.blocks)
        before = copy.deepcopy(vars(cache.layers[0]))
        x = m.embed[np.concatenate([IDS[:4], IDS[4:8]])]
        with pytest.raises(UsageError, match="one sequence"):
            block_forward(m.config, m.blocks[0], x, 0, 0, cache, mode, seq_len=4)
        assert cache.length == 0
        for name, stored in vars(cache.layers[0]).items():
            assert np.array_equal(stored, before[name]), name  # nothing appended


class TestPoq:
    def test_prefill_identical_to_weight_only(self):
        m = quantized(make_model())
        a, _ = prefill(in_mode(m, "weight_only"), IDS)
        b, _ = prefill(m, IDS)
        assert np.array_equal(a.data, b.data)

    def test_decode_differs_from_weight_only(self):
        m = quantized(make_model())
        spread_kv_channels(m, 1.5, seed=0)
        mo = in_mode(m, "weight_only")
        _, ca = prefill(mo, IDS)
        _, cb = prefill(m, IDS)
        da = decode_step(mo, 5, ca).data
        db = decode_step(m, 5, cb).data
        assert np.abs(da - db).max() > 0.0

    def test_poq_off_quantizes_current_step(self):
        m = quantized(make_model())
        m2 = copy.deepcopy(m)
        m2.config.poq = False
        a, _ = prefill(m, IDS)
        b, _ = prefill(m2, IDS)
        assert not np.array_equal(a.data, b.data)

    def test_kv_bits_16_is_lossless_passthrough(self):
        m = quantized(make_model(kv_bits=16))
        a, _ = prefill(in_mode(m, "weight_only"), IDS)
        b, cache = prefill(m, IDS)
        da = decode_step(m, 5, cache).data
        m2 = quantized(make_model(kv_bits=16), "weight_only")
        _, c2 = prefill(m2, IDS)
        db = decode_step(m2, 5, c2).data
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(da, db)


class TestModes:
    def test_activation_quant_changes_output(self):
        m = quantized(make_model(), mode="weight_activation")
        a = model_forward(m, IDS).data
        b = model_forward(in_mode(m, "weight_only"), IDS).data
        assert not np.array_equal(a, b)

    def test_weight_quant_changes_output(self):
        m = make_model()
        a = model_forward(m, IDS).data
        mq = quantized(m, "weight_only")
        b = model_forward(mq, IDS).data
        assert not np.array_equal(a, b)
        assert np.abs(a - b).mean() < 1.0  # still close

    def test_16_bit_weights_stay_unquantized(self):
        m = make_model(weight_bits=16)
        before = copy.deepcopy(m)
        quantize_model_weights(m)
        for b1, b2 in zip(before.blocks, m.blocks):
            for name, lin in b1.projections().items():
                assert b2.projections()[name].wq is None, name
                assert np.array_equal(lin.w, b2.projections()[name].w), name

    def test_unknown_mode_rejected(self):
        # the config is checked when built, and again by every forward, since
        # the field can be set afterwards (kvq eval/generate --mode do)
        m = make_model()
        m.config.quant_mode = "bogus"
        with pytest.raises(KvqError):
            model_forward(m, IDS)
        with pytest.raises(KvqError):
            prefill(m, IDS)


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

    def test_smoothed_model_refused(self):
        # the spread would rescale the smoothed k/v columns but not the shift
        m = smoothed(make_model(seed=3))
        before = copy.deepcopy(m)
        with pytest.raises(UsageError, match="block 0"):
            spread_kv_channels(m, log_range=2.0, seed=1)
        for b1, b2 in zip(before.blocks, m.blocks):
            for name, lin in b1.projections().items():
                lin2 = b2.projections()[name]
                assert np.array_equal(lin.w, lin2.w) and np.array_equal(lin.b, lin2.b), name


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
            mo = in_mode(mq, "weight_only")
            _, ca = prefill(mo, IDS)
            _, cb = prefill(mq, IDS)
            da = decode_step(mo, 5, ca).data
            db = decode_step(mq, 5, cb).data
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

    def test_second_smoothing_refused(self):
        # a second smoothing would replace the first while w carries both
        m = smoothed(make_model(seed=4))
        before = copy.deepcopy(m)
        with pytest.raises(UsageError):
            smoothed(m)
        for b1, b2 in zip(before.blocks, m.blocks):
            for lin1, lin2 in ((b1.k, b2.k), (b1.v, b2.v)):
                assert np.array_equal(lin1.w, lin2.w) and np.array_equal(lin1.b, lin2.b)
                assert np.array_equal(lin1.smoothing.s, lin2.smoothing.s)

    def test_linear_absorb(self):
        rng = np.random.default_rng(8)
        lin = Linear(w=rng.normal(size=(16, 4)).astype(np.float32),
                     b=rng.normal(size=(1, 4)).astype(np.float32))
        lin.quantize(WeightQuantSpec(4, 8))
        w, wq = lin.w, lin.wq
        lin.absorb(SmoothingParams.identity(4))  # nothing to fold
        assert lin.w is w and lin.wq is wq and lin.smoothing is None
        sp = init_smoothing(rng.normal(size=(6, 4)).astype(np.float32))
        lin.absorb(sp)
        assert lin.smoothing is sp and lin.wq is None
        assert np.array_equal(lin.w, w / sp.s[None, :])
        with pytest.raises(UsageError):
            lin.absorb(init_smoothing(rng.normal(size=(6, 4)).astype(np.float32)))
        assert lin.smoothing is sp


class TestSettingRecord:
    def test_cache_runs_the_mode_it_was_built_in(self):
        # a decode step runs the setting its cache was filled in, whatever
        # the config says by then
        m = quantized(smoothed(make_model(seed=1)))

        def decode_after_switching_to(mode):
            mm = copy.deepcopy(m)
            _, cache = prefill(mm, IDS[:12])
            mm.config.quant_mode = mode
            return np.concatenate([decode_step(mm, int(t), cache).data for t in IDS[12:20]])

        assert np.array_equal(decode_after_switching_to("weight_activation"),
                              decode_after_switching_to("weight_kv"))

    def test_cache_keeps_its_quant_setting(self):
        # the cache copies its config: changing the model's POQ, KV width or
        # KV group size after prefill leaves the cached decode untouched
        m = quantized(smoothed(make_model(seed=1)))
        ids = np.arange(36) * 7 % 250

        def decode(**change):
            mm = copy.deepcopy(m)
            _, cache = prefill(mm, ids[:20])
            for field, value in change.items():
                setattr(mm.config, field, value)
            return np.concatenate([decode_step(mm, int(t), cache).data for t in ids[20:]])

        assert np.array_equal(decode(poq=False, kv_bits=8, kv_group_size=16), decode())

    def test_no_public_call_takes_a_mode(self):
        # a forward's setting has one record, the config (or the cache built
        # from it); only the internal block_forward takes a mode
        banned = {"mode", "mode_a", "mode_b", "setting"}
        found = []
        for module in (kvq.model, kvq.evaluate):
            for name, obj in vars(module).items():
                if (name.startswith("_") or name == "block_forward" or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                found += [f"{module.__name__}.{name}({p})"
                          for p in inspect.signature(obj).parameters if p in banned]
        assert found == []
        assert list(inspect.signature(PoqKvCache).parameters) == ["cfg", "blocks"]


class TestStateOwnership:
    def test_only_linear_writes_its_state(self):
        # after a Linear is built, only its own methods change its weights,
        # codes and smoothing, so the codes describe w and it is smoothed once
        owned = {"w", "b", "wq", "smoothing"}
        found = []
        for path in sorted(Path(kvq.model.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            linear = {id(n) for c in ast.walk(tree)
                      if isinstance(c, ast.ClassDef) and c.name == "Linear" for n in ast.walk(c)}
            for node in ast.walk(tree):
                if id(node) in linear:
                    continue
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                found += [f"{path.name}:{n.lineno} .{n.attr}" for t in targets
                          for n in ast.walk(t) if isinstance(n, ast.Attribute) and n.attr in owned]
        assert found == []
