import ast
import copy
import dataclasses
import inspect
import math
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_config
import reference
from reference import decode_attention
import kvq.calibration
import kvq.evaluate
import kvq.model
from kvq.errors import CapacityError, DimensionError, KvqError, NumericError, UsageError
from kvq.evaluate import score_logits
from kvq.model import (
    ATTN_BLOCK,
    MODES,
    SCORE_LIMIT,
    Linear,
    Model,
    ModelConfig,
    PoqKvCache,
    block_arrays,
    block_attention,
    block_core,
    causal_attention,
    decode_step,
    fp_kv_fn,
    generate,
    model_forward,
    prefill,
    quantize_model_weights,
    spread_kv_channels,
)
from kvq.quantizers import (
    ROW_BLOCK,
    QuantizedTensor,
    SmoothingParams,
    WeightQuantSpec,
    _spans,
    apply_kv_smoothing,
    dequantize,
    init_smoothing,
    quantize_token,
)
from kvq.tensor import rms_norm, rope


def make_model(seed=0, **kw):
    return Model.random(tiny_config(**kw), seed=seed)


def quant_mode(setting: str) -> str:
    """The quant_mode of a setting: a mode, or "weight_only", the paper's
    weight-only setting, which is fp over the weights the model holds."""
    return "fp" if setting == "weight_only" else setting


def in_mode(model, setting):
    """A copy of model whose forwards run setting (quant_mode)."""
    m = copy.deepcopy(model)
    m.config = dataclasses.replace(m.config, quant_mode=quant_mode(setting))
    return m


def quantized(model, mode="weight_kv"):
    m = in_mode(model, mode)
    quantize_model_weights(m)
    return m


def smoothed(model):
    """Absorb K/V smoothing from the statistics of the IDS prompt."""
    for blk in model.blocks:
        xn = rms_norm(model.embed[IDS], blk.attn_norm.reshape(1, -1))
        sp_k, sp_v = (init_smoothing(xn @ lin.w + lin.b) for lin in (blk.k, blk.v))
        blk.k.absorb(sp_k)
        blk.v.absorb(sp_v)
    return model


IDS = np.arange(24) % 250


class TestConfig:
    def test_head_dim_mismatch_rejected(self):
        with pytest.raises(KvqError):
            ModelConfig(hidden_size=128, n_heads=4, head_dim=16)

    def test_unknown_mode_rejected(self):
        with pytest.raises(KvqError):
            ModelConfig(quant_mode="int3")

    @pytest.mark.parametrize("field, value", [("max_seq_len", 0), ("vocab_size", 1)])
    def test_degenerate_sizes_rejected(self, field, value):
        with pytest.raises(KvqError, match="max_seq_len must be >= 1 and vocab_size >= 2"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("field", ["kv_bits", "weight_bits"])
    def test_code_widths_the_codes_cannot_hold_rejected(self, field):
        # token codes are int8 and weight codes uint8; 16 is unquantized
        for bits in (0, 1, 9, 12, 15, 17, 24, 32):
            with pytest.raises(KvqError, match=field):
                tiny_config(**{field: bits})
        for bits in (2, 3, 8, 16):
            tiny_config(**{field: bits})

    def test_kv_bits_16_not_quantized(self):
        assert not tiny_config(quant_mode="weight_kv", kv_bits=16).kv_codes
        assert tiny_config(quant_mode="weight_kv", kv_bits=4).kv_codes

    def test_only_a_quantized_weight_kv_cache_holds_codes(self):
        for mode in MODES:
            for kv_bits in (4, 16):
                cfg = tiny_config(quant_mode=mode, kv_bits=kv_bits)
                assert cfg.kv_codes == (mode == "weight_kv" and kv_bits == 4), (mode, kv_bits)
                cache = PoqKvCache(cfg, Model.random(cfg).blocks)
                # a cache of codes holds codes, params and one read-buffer
                # pair; any other holds its rows and no read buffer
                held = {"codes", "params", "scratch", "work"} if cfg.kv_codes else {"kv"}
                store = {"codes", "params", "kv", "scratch", "work"}
                assert store & set(vars(cache)) == held, (mode, kv_bits)


class TestFpForward:
    def test_prefill_matches_full_forward(self):
        m = make_model()
        full = model_forward(m, IDS).data
        pre, _ = prefill(m, IDS)
        assert np.array_equal(full, pre.data)


@pytest.fixture(scope="module")
def layout_models():
    """A spread model for each TestFoldedCacheRead layout, without and with
    K/V smoothing, as a pair: its unquantized weights and a weight-quantized
    copy.  Block 0's query is scaled so that its score bound
    (model._small_scores) is about 60, twice SCORE_LIMIT, where block 1's is
    0.09 to 0.3."""
    models = {}
    for group, head_dim, n_heads in TestFoldedCacheRead.LAYOUTS:
        base = make_model(seed=1, n_heads=n_heads, head_dim=head_dim,
                          hidden_size=n_heads * head_dim, kv_group_size=group)
        spread_kv_channels(base, 2.0, seed=1)
        q, scale = base.blocks[0].q, np.float32(230 if head_dim == 32 else 700)
        q.set(q.w * scale, q.b * scale)
        models[group, head_dim, n_heads, False] = copy.deepcopy(base), quantized(base)
        smoothed(base)
        models[group, head_dim, n_heads, True] = base, quantized(base)
    return models


def bound_verdicts(monkeypatch) -> list:
    """Record every verdict of the score bound (model._small_scores)."""
    verdicts, small_scores = [], kvq.model._small_scores

    def recording(*args):
        verdicts.append(small_scores(*args))
        return verdicts[-1]

    monkeypatch.setattr(kvq.model, "_small_scores", recording)
    return verdicts


def gate_everywhere(monkeypatch) -> list:
    """Let every array call of causal_attention take the score bound,
    whatever its shape, and record the bound's verdicts."""
    monkeypatch.setattr(kvq.model, "_bound_pays", lambda t, s, d: True)
    return bound_verdicts(monkeypatch)


def fancy_diag_attention(q, k, v, n_heads: int, diag, seqs: int = 1):
    """causal_attention's array loop with its POQ diagonal scored per query
    block, written into the scores and read back by fancy indexing, as it
    was before the diagonal took one product and a strided view: the form
    those must equal bit for bit.  Also returns whether the call took the
    score bound's path."""
    t, d = q.shape[0] // seqs, q.shape[1] // n_heads
    lead = (seqs,) if seqs > 1 else ()
    heads = lambda a, rows: a.reshape(*lead, rows, n_heads, d).swapaxes(-3, -2)
    qs = q * np.float32(1.0 / math.sqrt(d))
    s = k.shape[0] // seqs
    qh, kh, vh = heads(qs, t), heads(k, s), heads(v, s)
    kch, vch = heads(diag[0], t), heads(diag[1], t)
    offset = s - t
    small = kvq.model._bound_pays(t, s, d) and kvq.model._small_scores(qs, k, v, n_heads, diag, s)
    if small:
        v_ones = np.empty((*lead, n_heads, s, d + 1), dtype=np.float32)
        v_ones[..., :d], v_ones[..., d] = vh, 1.0
        vh, tri = v_ones, np.tri(min(t, ATTN_BLOCK), dtype=np.float32)
    out = np.empty((*lead, t, n_heads, d), dtype=np.float32)
    for a in range(0, t, ATTN_BLOCK):
        b = min(a + ATTN_BLOCK, t)
        cols, rows = offset + b, np.arange(b - a)
        p = np.matmul(qh[..., a:b, :], kh[..., :cols, :].swapaxes(-1, -2))
        ii = (..., rows, rows + offset + a)
        p[ii] = np.einsum("...td,...td->...t", qh[..., a:b, :], kch[..., a:b, :])
        if small:
            np.exp(p, out=p)
            p[..., offset + a :] *= tri[: b - a, : b - a]
        else:
            sums = kvq.model.exp_causal(p, offset + a)
        o = np.matmul(p, vh[..., :cols, :])
        o[..., :d] += p[ii][..., None] * (vch[..., a:b, :] - vh[..., offset + a : cols, :d])
        if small:
            o, sums = o[..., :d], o[..., d:]
        np.divide(o, sums, out=out[..., a:b, :, :].swapaxes(-3, -2))
    return out.reshape(seqs * t, n_heads * d), small


class TestAllHeadsForward:
    """The runtime forward, every head at once, against the float64 model of
    tests/reference.py, which attends one row and one head at a time:
    prefill, a chunk onto the filled cache and 8 decode steps, over the
    TestFoldedCacheRead layouts with and without smoothing.  The fp cases
    run the unquantized weights, weight_only (fp over W4 weights) and
    weight_kv the W4 copies.  Every array call takes the score bound: block
    0's scores are past its limit and run exp_causal, block 1's exponentiate
    as they are.  The largest |dlogit| was 4.9e-7 (2.9e-7 on fp weights),
    with logits up to about 0.7 (numpy 2.4, OpenBLAS 0.3.31); the bound
    leaves about 2x.  With block 0 unscaled it was 2.2e-7, and the
    scaled block 0 read the same error with every call through exp_causal."""

    IDS = np.arange(28) * 7 % 250
    CHUNKS = [10, 10] + [1] * 8

    @pytest.mark.parametrize("kv_bits", [2, 3, 4, 8, 16])
    @pytest.mark.parametrize("poq", [True, False])
    @pytest.mark.parametrize("mode", ["fp", "weight_only", "weight_kv"])
    def test_matches_per_head_reference(self, monkeypatch, layout_models, mode, poq, kv_bits):
        ids, verdicts = self.IDS, gate_everywhere(monkeypatch)
        for layout, (fp_weights, w4) in layout_models.items():
            base = fp_weights if mode == "fp" else w4
            m = copy.copy(base)
            m.config = dataclasses.replace(base.config, quant_mode=quant_mode(mode), poq=poq,
                                           kv_bits=kv_bits)
            verdicts.clear()
            logits, cache = prefill(m, ids[:10])
            rows = [logits.data, model_forward(m, ids[10:20], cache=cache).data]
            rows += [decode_step(m, int(tok), cache).data for tok in ids[20:]]
            want = reference.model_logits(m, ids, self.CHUNKS, cache)
            assert np.abs(np.concatenate(rows) - want).max() <= 1e-6, layout
            assert set(verdicts) == {False, True}, layout


class TestQueryBlocks:
    """Chunks longer than ATTN_BLOCK attend one block of query rows at a
    time.  The reference takes each sequence's whole scores matrix in
    float64 (tests/reference.py).  Every call takes the score bound, and
    each input runs on both of its sides: q and k (and k_cur) drawn from
    N(0, 1) are scaled so that their bound, by its definition in float64,
    is half of SCORE_LIMIT, where the scores are exponentiated as they are,
    or twice it, where exp_causal runs.  Over these lengths, offsets and
    stackings, with and without the POQ diagonal, the largest error was
    2.9e-6 below the limit and 4.8e-6 above it (6.4e-7 of the largest
    |output|; numpy 2.4, OpenBLAS 0.3.31); the bound leaves about 1.7x."""

    BOUNDARIES = sorted({1, ATTN_BLOCK - 1, ATTN_BLOCK, ATTN_BLOCK + 1, 2 * ATTN_BLOCK - 1,
                         2 * ATTN_BLOCK, 2 * ATTN_BLOCK + 1, 127, 128, 129, 300})

    def both_sides(self, monkeypatch, seed, q_rows, kv_rows, poq, **kw):
        verdicts = gate_everywhere(monkeypatch)
        rng = np.random.default_rng(seed)
        arr = lambda rows, f=1.0: (f * rng.normal(size=(rows, 32))).astype(np.float32)
        q, k, v = arr(q_rows), arr(kv_rows), arr(kv_rows, 2.0)
        diag = (arr(q_rows), arr(q_rows, 2.0)) if poq else None
        keys = k if diag is None else np.concatenate([k, diag[0]])
        # Hölder's bound on |q . k| / sqrt(8) over 4 heads of 8 channels
        bound = (np.abs(q.astype(np.float64)) * np.abs(keys).max(axis=0)).reshape(-1, 4, 8)
        bound = bound.sum(axis=2).max() / np.sqrt(8)
        for target in (0.5 * SCORE_LIMIT, 2.0 * SCORE_LIMIT):
            f = np.float32(np.sqrt(target / bound))
            qf, kf = q * f, k * f
            diag_f = None if diag is None else (diag[0] * f, diag[1])
            verdicts.clear()
            got = causal_attention(qf, kf, v, 4, diag_f, **kw)
            want = reference.causal_attention(qf, kf, v, 4, diag_f, **kw)
            assert verdicts == [target <= SCORE_LIMIT]
            assert got.shape == want.shape == (q_rows, 32)
            assert np.abs(got - want).max() <= 8e-6, target

    @pytest.mark.parametrize("poq", [False, True])
    @pytest.mark.parametrize("offset", [0, 37])
    @pytest.mark.parametrize("t", BOUNDARIES)
    def test_matches_whole_matrix(self, monkeypatch, t, offset, poq):
        self.both_sides(monkeypatch, t + offset, t, offset + t, poq)

    @pytest.mark.parametrize("poq", [False, True])
    @pytest.mark.parametrize("t", [1, ATTN_BLOCK + 1, 150])
    def test_stacked_sequences_match_whole_matrix(self, monkeypatch, t, poq):
        self.both_sides(monkeypatch, t, 3 * t, 3 * t, poq, seqs=3)

    @pytest.mark.parametrize("seqs", [1, 2])
    @pytest.mark.parametrize("offset", [0, 37])
    @pytest.mark.parametrize("t", [1, 8, 2 * ATTN_BLOCK + 5])
    def test_poq_diagonal_matches_fancy_index_form(self, t, offset, seqs):
        # the diagonal's scores formed once and written and read through a
        # strided view of each block's scores give the outputs of the form
        # that scored it per block and indexed it, byte for byte, at a
        # bound-gated scale and at one where exp_causal runs
        rng = np.random.default_rng(t + offset + seqs)
        arr = lambda rows: rng.normal(size=(seqs * rows, 32)).astype(np.float32)
        q, k, v, k_cur, v_cur = arr(t), arr(offset + t), arr(offset + t), arr(t), arr(t)
        paths = set()
        for f in (np.float32(0.1), np.float32(20.0)):
            want, small = fancy_diag_attention(q * f, k * f, v, 4, (k_cur * f, v_cur), seqs)
            got = causal_attention(q * f, k * f, v, 4, (k_cur * f, v_cur), seqs=seqs)
            assert got.tobytes() == want.tobytes(), (f, small)
            paths.add(small)
        assert paths == ({True, False} if t > ATTN_BLOCK else {False})

    def test_multi_block_prefill_identical_to_weight_only(self):
        m = quantized(make_model(seed=3, max_seq_len=320))
        ids = np.random.default_rng(3).integers(0, m.config.vocab_size, 300)
        a, _ = prefill(in_mode(m, "weight_only"), ids)
        b, _ = prefill(m, ids)
        assert np.array_equal(a.data, b.data)

    def test_chunk_onto_filled_cache_matches_blocked_prefill(self):
        # the chunk's 200 query rows start at offset 10 of the keys it reads
        # from the cache; the whole prompt's 210 start at 0
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

    @pytest.mark.parametrize("mode, poq", [("fp", True), ("weight_kv", True),
                                           ("weight_kv", False)])
    def test_forwards_without_a_cache_stop_at_capacity(self, mode, poq):
        # the cacheless forward and the one-pass cache path ran a chunk of
        # any length, past the positions a cache of the model holds
        m = quantized(make_model(max_seq_len=16, poq=poq), mode)
        ids = np.arange(40) % 250
        for forward in (model_forward, kvq.model.cache_path_forward):
            with pytest.raises(CapacityError, match="chunk of 17 tokens > max_seq_len 16"):
                forward(m, ids[:17])
            assert forward(m, ids[:16]).data.shape == (16, m.config.vocab_size)

    def test_decode_requires_prefill(self):
        m = make_model()
        cache = PoqKvCache(m.config, m.blocks)
        with pytest.raises(KvqError):
            decode_step(m, 0, cache)

    def test_positions_written_once(self):
        # every write of a cache's codes is one assignment per channel span
        # (one span here: groups of 8 fill hidden 32) to a view of the store:
        # append's, one layer at the chunk's rows, and a folding decode
        # step's, every layer at its one position.  Each row is written once
        targets = []

        class Writes(np.ndarray):
            """Records the part of the store each assignment writes."""

            def __setitem__(self, key, value):
                targets.append(self[key])
                super().__setitem__(key, value)

        m = quantized(make_model())
        cfg = m.config
        cache = PoqKvCache(cfg, m.blocks)
        cache.codes = cache.codes.view(Writes)
        model_forward(m, IDS, cache=cache)
        assert cache.fold_k
        decode_step(m, 3, cache)
        written = np.array([[[sum(np.shares_memory(a, cache.codes[li, j, r]) for a in targets)
                              for r in range(cfg.max_seq_len)] for j in (0, 1)]
                            for li in range(cfg.n_layers)])
        assert np.all(written[:, :, : len(IDS) + 1] == 1)
        assert np.all(written[:, :, len(IDS) + 1 :] == 0)

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

    def test_step_failing_mid_model_leaves_length(self, monkeypatch):
        # a decode step onto a cache that folds runs the cache's own step
        # (PoqKvCache.step), not block_core: it fails in layer 1's read,
        # after layer 0 and layer 1 have put their K/V rows in the step's
        # buffer, which is stored only after the last layer.  The cache must
        # not advance, and the next step gives a fresh cache's logits and
        # codes bit for bit
        m = quantized(smoothed(make_model()))
        _, cache = prefill(m, IDS)
        assert cache.fold_k
        read, calls = PoqKvCache.read_raw, []

        def failing_at_layer_1(cache, li, *args):
            calls.append(li)
            if li == 1:
                raise NumericError("injected failure at layer 1")
            return read(cache, li, *args)

        monkeypatch.setattr(PoqKvCache, "read_raw", failing_at_layer_1)
        with pytest.raises(NumericError, match="injected"):
            decode_step(m, 7, cache)
        monkeypatch.undo()
        assert calls == [0, 1] and cache.length == len(IDS)
        step = decode_step(m, 5, cache).data
        _, fresh = prefill(m, IDS)
        assert np.array_equal(step, decode_step(m, 5, fresh).data)
        assert np.array_equal(cache.codes[:, :, : len(IDS) + 1], fresh.codes[:, :, : len(IDS) + 1])
        assert cache.length == len(IDS) + 1

    def test_smoothing_applied_once_per_read(self, monkeypatch):
        # the folded reads take the past K/V straight from the codes: a decode
        # step maps only its own K and V rows to raw space, once, as one
        # (2, hidden) pair with the layer's planned (s, delta) rows
        # (unsmooth), and no row through apply_kv_smoothing.  The fold's plan
        # reads the same pair, so a first step builds it before the pair
        # records
        mq = quantized(smoothed(make_model()))
        _, cache = prefill(mq, IDS[:-1])
        decode_step(mq, int(IDS[-1]), cache)
        blk, c, calls, applied, v_cur = mq.blocks[0], mq.config.hidden_size, [], [], []

        class Seen(np.ndarray):
            """Records the operand shapes of every ufunc call it takes part in."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                calls.append((ufunc.__name__, *(np.shape(a) for a in inputs)))
                plain = lambda a: a.view(np.ndarray) if isinstance(a, Seen) else a
                if "out" in kwargs:
                    kwargs["out"] = tuple(map(plain, kwargs["out"]))
                return getattr(ufunc, method)(*map(plain, inputs), **kwargs)

        apply, read = kvq.model.apply_kv_smoothing, PoqKvCache.read_raw

        def recording(cache, li, q, k_cur, v):
            if li == 0:
                v_cur.append(v.copy())
            return read(cache, li, q, k_cur, v)

        monkeypatch.setattr(kvq.model, "apply_kv_smoothing",
                            lambda *a, **kw: applied.append(1) or apply(*a, **kw))
        monkeypatch.setattr(PoqKvCache, "read_raw", recording)
        cache.unsmooth[0] = cache.unsmooth[0].view(Seen)
        decode_step(mq, 3, cache)
        assert calls == [("multiply", (2, c), (2, c)), ("add", (2, c), (2, c))]
        assert applied == []
        # the value row layer 0 attends with is its own, un-smoothed once
        xn = rms_norm(mq.embed[[3]], blk.attn_norm.reshape(1, -1))
        assert np.array_equal(v_cur[0], apply(xn @ blk.v.w + blk.v.b, blk.v.smoothing))

    @pytest.mark.parametrize("kv_bits", [2, 3, 4, 8])
    def test_append_stores_quantize_tokens_codes(self, kv_bits):
        # hidden 32 in groups of 12: two full groups and a short tail of 8;
        # chunks of one row block and of several (ROW_BLOCK rows each) onto
        # an empty cache and a filled one, with a constant full group and
        # tail group.  Every row holds the codes, m and n of quantize_token
        # on that row alone, and a non-finite value in a chunk's last block
        # stores nothing
        rb = ROW_BLOCK
        m = quantized(make_model(kv_group_size=12, kv_bits=kv_bits, max_seq_len=3 * rb))
        spec, rng = m.config.token_spec(), np.random.default_rng(kv_bits)

        def rows_alone(y):
            qs = [quantize_token(y[i : i + 1], spec) for i in range(len(y))]
            return [np.concatenate([getattr(q, a) for q in qs]) for a in ("codes", "m", "n")]

        for t in (1, rb - 1, rb, rb + 1, 2 * rb + 5):
            for filled in (0, rb - 5):
                cache = PoqKvCache(m.config, m.blocks)
                if filled:
                    k_s, v_s = rng.normal(size=(2, filled, 32)).astype(np.float32)
                    cache.append(1, k_s, v_s)
                    cache.length = filled
                k_s, v_s = (3.0 * rng.normal(size=(2, t, 32))).astype(np.float32)
                k_s[0, 12:24] = 0.75
                v_s[-1, 24:] = -2.0
                before = [cache.codes.copy(), cache.params.copy()]
                bad = k_s.copy()
                bad[-1, 3] = np.nan
                with pytest.raises(NumericError, match="cache append"):
                    cache.append(1, bad, v_s)
                for stored, was in zip((cache.codes, cache.params), before):
                    # nothing stored; a row not yet written holds what the allocation held
                    assert np.array_equal(stored, was, equal_nan=True), (t, filled)
                cache.append(1, k_s, v_s)
                rows = slice(filled, filled + t)
                for j, y in enumerate((k_s, v_s)):
                    stored = (cache.codes[1, j], *cache.params[1, j])  # codes, m, n
                    for got, want in zip(stored, rows_alone(y)):
                        assert np.array_equal(got[rows], want), (t, filled)

    @pytest.mark.parametrize("mode, max_segments", [("weight_kv", 32), ("weight_kv", 0),
                                                     ("weight_only", 32)])
    def test_unwritten_rows_are_never_read(self, monkeypatch, mode, max_segments):
        # a cache's buffers are allocated without a fill: filled with NaN (and
        # the codes with -128) before prefill, a cache, folding K or not, gives
        # the logits of a fresh one bit for bit
        monkeypatch.setattr(kvq.model, "FOLD_MAX_SEGMENTS", max_segments)
        m = quantized(smoothed(make_model()), mode)

        def logits(fill: bool) -> np.ndarray:
            cache = PoqKvCache(m.config, m.blocks)
            if fill:
                names = ("codes", "params", "scratch", "work") if m.config.kv_codes else ("kv",)
                for a in (getattr(cache, name) for name in names):
                    a[...] = np.nan if a.dtype.kind == "f" else -128
            rows = [model_forward(m, IDS[:10], cache=cache).data,
                    model_forward(m, IDS[10:16], cache=cache).data]
            rows += [decode_step(m, int(tok), cache).data for tok in IDS[16:]]
            return np.concatenate(rows)

        assert np.array_equal(logits(False), logits(True))

    def test_kv_bytes_grows_linearly(self):
        m = quantized(make_model())
        _, cache = prefill(m, IDS[:8])
        b8 = cache.kv_bytes()
        for t in range(8):
            decode_step(m, 1, cache)
        assert cache.kv_bytes() == 2 * b8


class TestTokenIds:
    """A forward refuses an empty chunk and any token id outside [0,
    vocab_size) with UsageError (the CLI's exit 2), before it appends
    anything: unchecked, an id of -1 read the embedding's last row, one of
    vocab_size or more raised a bare IndexError, and an empty chunk failed
    inside attention."""

    @pytest.mark.parametrize("mode", ["fp", "weight_kv"])
    def test_bad_chunks_refused(self, mode):
        m = quantized(make_model(), mode)
        v = m.config.vocab_size
        _, cache = prefill(m, IDS[:4])
        assert cache.fold_k == (mode == "weight_kv")  # decode_step runs the cache's step
        for bad in ([-1], [3, v], [v + 741], [2, -5, 7]):
            for forward in (lambda: prefill(m, bad), lambda: model_forward(m, bad, cache=cache),
                            lambda: model_forward(m, bad), lambda: generate(m, bad, 2),
                            lambda: score_logits(m, bad, use_cache=True),
                            lambda: kvq.evaluate.perplexity(m, [1, *bad], use_cache=True)):
                with pytest.raises(UsageError, match=r"holds token id -?\d+, outside \[0, 258\)"):
                    forward()
        for tok in (-1, v, 999):
            with pytest.raises(UsageError, match=f"token id {tok}, outside"):
                decode_step(m, tok, cache)
        for forward in (lambda: prefill(m, []), lambda: model_forward(m, [], cache=cache),
                        lambda: score_logits(m, [], use_cache=True), lambda: score_logits(m, [])):
            with pytest.raises(UsageError, match="chunk is empty"):
                forward()
        assert cache.length == 4
        # the last and first ids of the vocabulary are read
        assert decode_step(m, v - 1, cache).data.shape == (1, v) and cache.length == 5
        assert prefill(m, [0])[1].length == 1

    @pytest.mark.parametrize("mode", ["fp", "weight_kv"])
    def test_ids_of_other_types_or_shapes_refused(self, mode):
        # ids that numpy can cast are not cast: a float, string or bool chunk
        # ran as the ids it truncated to, and a 2-D one raised a bare
        # ValueError
        m = quantized(make_model(), mode)
        _, cache = prefill(m, IDS[:4])
        assert cache.fold_k == (mode == "weight_kv")  # decode_step runs the cache's step
        typed = ([1.7, 2.2], ["3"], [True, False], np.array([1, 2], dtype=object),
                 np.array([1.0, 2.0], dtype=np.float32))
        for bad, message in [(b, "must hold integer token ids") for b in typed] + [
                ([[1, 2], [3, 4]], "must be one-dimensional"), (7, "must be one-dimensional")]:
            for forward in (lambda: prefill(m, bad), lambda: model_forward(m, bad, cache=cache),
                            lambda: model_forward(m, bad), lambda: generate(m, bad, 0),
                            lambda: score_logits(m, bad, use_cache=True),
                            lambda: kvq.evaluate.perplexity(m, bad),
                            lambda: kvq.evaluate.logit_mae(m, m, bad)):
                with pytest.raises(UsageError, match=message):
                    forward()
        for tok in (2.9, 3.0, True, "3", np.float32(3), np.array(3), [3]):
            with pytest.raises(UsageError, match="decode_step takes one integer token id"):
                decode_step(m, tok, cache)
        # generate checks its prompt even when it generates nothing
        with pytest.raises(UsageError, match="the prompt holds token id 999, outside"):
            generate(m, [999], 0)
        assert cache.length == 4
        # integers of every width are ids
        want = prefill(m, IDS[:6])[0].data
        for dtype in (np.uint8, np.int16, np.int32, np.uint64):
            assert np.array_equal(prefill(m, IDS[:6].astype(dtype))[0].data, want), dtype
        assert np.array_equal(generate(m, IDS[:3].astype(np.uint8), 0), IDS[:3])
        decode_step(m, np.int32(5), cache)
        assert cache.length == 5
        # the largest id of a narrow integer type is read as itself
        narrow = decode_step(m, np.uint8(255), cache).data
        cache.length -= 1
        assert np.array_equal(narrow, decode_step(m, 255, cache).data)


class TestNonFiniteScores:
    """Finite q and k of about 1e20 per channel make scores that overflow to
    +-inf in the array path's products; the finite check on the scores
    raises NumericError on each runtime path.  The 40-row forwards on arrays
    are long enough to take the score bound (model._bound_pays), which
    refuses block 1, so exp_causal's check runs there too.  numpy's own
    overflow warning is silenced, so that the check is what the test sees."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("mode", ["fp", "weight_kv"])
    def test_prefill_chunk_and_decode_raise(self, monkeypatch, mode, sign):
        m = quantized(smoothed(make_model(seed=2)), mode)
        _, cache = prefill(m, IDS[:10])
        blk = m.blocks[1]
        blk.q.b[...] += np.float32(1e20)  # in place: the cache planned these arrays
        blk.k.b[...] += np.float32(sign * 1e20)
        verdicts, long = bound_verdicts(monkeypatch), np.arange(40) % 250
        with np.errstate(over="ignore", invalid="ignore"):
            for forward in (lambda: decode_step(m, 3, cache),
                            lambda: model_forward(m, IDS[10:14], cache=cache),
                            lambda: model_forward(m, long, cache=cache),
                            lambda: prefill(m, IDS[:10]),
                            lambda: prefill(m, long),
                            lambda: score_logits(m, IDS, use_cache=True),
                            lambda: score_logits(m, long, use_cache=True)):
                with pytest.raises(NumericError, match="softmax_causal"):
                    forward()
        assert cache.length == 10
        # block 0 takes the bound, block 1 is refused: the 40-row chunk onto
        # the cache, the 40-token prefill and the 40-token cache-path scoring
        assert verdicts == [True, False] * 3


class TestScoreBound:
    """The array path's score bound (model._small_scores) under its shape
    rule (model._bound_pays), seen through a count of exp_causal calls."""

    @staticmethod
    def counted(monkeypatch) -> list:
        calls, exp_causal = [], kvq.model.exp_causal

        def counting(scores, offset=0):
            calls.append(scores.shape)
            return exp_causal(scores, offset)

        monkeypatch.setattr(kvq.model, "exp_causal", counting)
        return calls

    def test_served_size_forwards_skip_exp_causal(self, monkeypatch):
        # the served shape (4 blocks, 4 heads of 32) on a 256-token prompt;
        # with block 2's query and keys biased to scores in the thousands,
        # whose exponentials overflow float32, that block's 4 query blocks
        # reach exp_causal in every forward, and the logits stay finite
        m = quantized(smoothed(Model.random(ModelConfig(max_seq_len=256), seed=0)))
        ids = np.random.default_rng(0).integers(0, m.config.vocab_size, 256)
        calls = self.counted(monkeypatch)
        forwards = (lambda: prefill(m, ids)[0].data, lambda: model_forward(m, ids).data,
                    lambda: score_logits(m, ids, use_cache=True))
        for forward in forwards:
            forward()
        assert calls == []
        m.blocks[2].q.b[...] += np.float32(1e3)
        m.blocks[2].k.b[...] += np.float32(1.0)
        for forward in forwards:
            assert np.isfinite(forward()).all()
        assert len(calls) == 3 * 256 // ATTN_BLOCK

    @pytest.mark.parametrize("mode", ["fp", "weight_only"])
    def test_one_row_fp_cache_read_keeps_exp_causal(self, monkeypatch, mode):
        m = quantized(make_model(max_seq_len=64), mode)
        _, cache = prefill(m, np.arange(48) % 250)
        calls = self.counted(monkeypatch)
        monkeypatch.setattr(kvq.model, "_small_scores", None)  # a call would raise
        decode_step(m, 5, cache)
        assert calls == [(1, m.config.n_heads, 1, 49)] * m.config.n_layers

    @pytest.mark.parametrize("where", range(5))
    def test_non_finite_input_fails_the_bound(self, where):
        # q, k, v, k_cur, v_cur
        arrays = (0.5 * np.random.default_rng(0).normal(size=(5, 40, 32))).astype(np.float32)
        small = lambda: kvq.model._small_scores(*arrays[:3], 4, tuple(arrays[3:]), 40)
        assert small()
        for bad in (np.nan, np.inf, -np.inf):
            arrays[where, 7, 3] = bad
            assert not small(), bad


class TestFoldedCacheRead:
    # (kv_group_size, head_dim, n_heads): groups inside a head, several per
    # head, spanning two heads, straddling heads with a short tail group, and
    # segments one channel wide
    LAYOUTS = [(32, 32, 2), (8, 32, 2), (64, 32, 2), (48, 32, 2), (5, 8, 4)]

    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("group, head_dim, n_heads", LAYOUTS)
    def test_fold_matches_materialized_read(self, monkeypatch, group, head_dim, n_heads, smooth):
        # decode steps onto a past of about 300 rows read the codes through
        # the fold (read_raw), whatever the segment count; the reference
        # attends over the materialized rows (rows) in causal_attention
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
                m.config = dataclasses.replace(m.config, poq=poq, kv_bits=kv_bits)
                folded, materialized = run(m.config.hidden_size), run(0)
                assert np.abs(folded - materialized).max() <= 1e-5, (poq, kv_bits)

    @pytest.mark.parametrize("group, folds", [(32, True), (8, True), (4, True), (2, False),
                                              (5, False)])
    def test_fold_only_up_to_max_segments(self, group, folds):
        # hidden 128 holds 4, 16, 32, 64 and 128 segments; the fold's cost
        # grows with them, the materialized read's does not
        m = quantized(make_model(n_heads=4, head_dim=32, hidden_size=128, kv_group_size=group))
        assert PoqKvCache(m.config, m.blocks).fold_k == folds
        m.config = dataclasses.replace(m.config, kv_bits=16)  # an fp cache
        assert not PoqKvCache(m.config, m.blocks).fold_k

    def test_prefill_and_cache_scoring_unchanged(self, monkeypatch):
        # for each layout and a 64-segment one (kv_group_size 2, hidden 128),
        # smoothing and POQ on and off: a 200-token prefill and a 100-row
        # chunk onto the filled cache, whose past rows are materialized and
        # attend in causal_attention, and on the 64-segment cache, which does
        # not fold, 4 one-row steps read the same way.  All against the
        # float64 model within 1e-6 (measured 5.0e-7, logits up to 1.06).
        # None of them reads the fold, so with FOLD_MAX_SEGMENTS 0 prefill,
        # the chunk and cache-path scoring are bit-identical
        ids = np.random.default_rng(5).integers(0, 250, 304)
        for group, head_dim, n_heads in self.LAYOUTS + [(2, 32, 4)]:
            base = make_model(seed=5, n_heads=n_heads, head_dim=head_dim, max_seq_len=320,
                              hidden_size=n_heads * head_dim, kv_group_size=group)
            spread_kv_channels(base, 2.0, seed=5)
            segments = n_heads * head_dim // math.gcd(group, head_dim)
            steps = 4 if segments > kvq.model.FOLD_MAX_SEGMENTS else 0
            for m in (quantized(base), quantized(smoothed(base))):
                for poq in (True, False):
                    m.config = dataclasses.replace(m.config, poq=poq)

                    def outputs():
                        logits, cache = prefill(m, ids[:200])
                        rows = [logits.data, model_forward(m, ids[200:300], cache=cache).data]
                        rows += [decode_step(m, int(tok), cache).data
                                 for tok in ids[300 : 300 + steps]]
                        return rows, score_logits(m, ids[:300], use_cache=True), cache

                    got, scored, cache = outputs()
                    assert cache.fold_k == (steps == 0)
                    want = reference.model_logits(m, ids[: 300 + steps],
                                                  [200, 100] + [1] * steps, cache)
                    assert np.abs(np.concatenate(got) - want).max() <= 1e-6, (group, poq)
                    monkeypatch.setattr(kvq.model, "FOLD_MAX_SEGMENTS", 0)
                    again, scored_again, _ = outputs()
                    monkeypatch.undo()
                    assert np.array_equal(np.concatenate(got[:2]), np.concatenate(again[:2]))
                    assert np.array_equal(scored, scored_again)

    @pytest.mark.parametrize("name", ["k_m", "k_n", "v_m", "v_n"])
    def test_corrupt_cache_params_raise(self, name):
        # the step onto a cache that folds reads K's m and n in its scores,
        # which exp_causal checks, and V's in its output, which the next
        # rms_norm checks; either way nothing advances
        m = quantized(smoothed(make_model(seed=1)))
        _, cache = prefill(m, IDS)
        assert cache.fold_k
        kv, mn = "kv".index(name[0]), "mn".index(name[2])
        cache.params[-1, kv, mn, 3, 0] = np.nan
        with pytest.raises(NumericError, match="softmax_causal" if kv == 0 else "rms_norm"):
            decode_step(m, 5, cache)
        assert cache.length == len(IDS)


class TestFoldStep:
    """A decode step onto a cache that folds runs the cache's own one-row
    step (PoqKvCache.step): block_core's float32 arithmetic written out for
    one row, reading the past through the fold (read_raw).  Every other
    forward, a one-row chunk through model_forward included, runs
    block_core and reads the cache's materialized rows."""

    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("group, head_dim, n_heads", TestFoldedCacheRead.LAYOUTS)
    def test_steps_match_chunks_and_float64(self, group, head_dim, n_heads, smooth):
        # 8 steps after a 64-token prefill, POQ on and off, kv_bits 2, 3, 4
        # and 8.  Each step against a one-row chunk of its token through
        # model_forward onto the same cache, whose rows the step then
        # overwrites, within 1e-5 (measured 1.2e-7), and all steps against
        # the float64 model reading the cache's codes (reference.model_logits)
        # within 1e-6 (measured 1.6e-7, logits up to 0.71)
        base = make_model(seed=7, n_heads=n_heads, head_dim=head_dim, max_seq_len=80,
                          hidden_size=n_heads * head_dim, kv_group_size=group)
        spread_kv_channels(base, 2.0, seed=7)
        m = quantized(smoothed(base) if smooth else base)
        ids = np.random.default_rng(7).integers(0, m.config.vocab_size, 72)
        for poq in (True, False):
            for kv_bits in (2, 3, 4, 8):
                m.config = dataclasses.replace(m.config, poq=poq, kv_bits=kv_bits)
                _, cache = prefill(m, ids[:64])
                assert cache.fold_k
                steps = []
                for tok in ids[64:]:
                    chunk = model_forward(m, [tok], cache=cache).data
                    cache.length -= 1
                    steps.append(decode_step(m, int(tok), cache).data)
                    assert np.abs(steps[-1] - chunk).max() <= 1e-5, (poq, kv_bits)
                want = reference.model_logits(m, ids, [64] + [1] * 8, cache)[64:]
                assert np.abs(np.concatenate(steps) - want).max() <= 1e-6, (poq, kv_bits)

    @pytest.mark.parametrize("mode, max_segments, folds", [("weight_kv", 32, True),
                                                            ("weight_kv", 0, False),
                                                            ("weight_only", 32, False)])
    def test_only_decode_steps_read_the_fold(self, monkeypatch, mode, max_segments, folds):
        # prefill, chunks of several rows and of one, and cache-path scoring
        # run block_core; so does a decode step onto a cache that does not
        # fold.  One onto a cache that folds runs none, and it alone calls
        # read_raw, once per layer
        monkeypatch.setattr(kvq.model, "FOLD_MAX_SEGMENTS", max_segments)
        m = quantized(smoothed(make_model()), mode)
        core, read, calls = kvq.model.block_core, PoqKvCache.read_raw, []

        def counting_core(*args, **kwargs):
            calls.append("block_core")
            return core(*args, **kwargs)

        def counting_read(*args):
            calls.append("read_raw")
            return read(*args)

        monkeypatch.setattr(kvq.model, "block_core", counting_core)
        monkeypatch.setattr(PoqKvCache, "read_raw", counting_read)
        _, cache = prefill(m, IDS[:10])
        assert cache.fold_k == folds
        model_forward(m, IDS[10:13], cache=cache)
        model_forward(m, IDS[13:14], cache=cache)
        score_logits(m, IDS, use_cache=True)
        assert calls == ["block_core"] * 4 * m.config.n_layers
        calls.clear()
        decode_step(m, 3, cache)
        assert calls == ["read_raw" if folds else "block_core"] * m.config.n_layers


class TestStepStore:
    """A decode step onto a cache that folds (PoqKvCache.step) puts every
    layer's smoothed K and V row in one step buffer and stores it after the
    last layer: a step that raises stores nothing, and a step that returns
    has stored each layer's rows as quantize_token codes them."""

    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("group, head_dim, n_heads", TestFoldedCacheRead.LAYOUTS)
    def test_step_stores_its_rows_after_the_last_layer(self, monkeypatch, group, head_dim,
                                                      n_heads, smooth):
        # 3 layers, so that layer 1 is neither the first nor the last; POQ on
        # and off, kv_bits 2, 3, 4 and 8.  A step raises in the MLP of layer
        # 0, 1 or 2, the layer's last operation, and leaves the codes and
        # (m, n) at position length byte for byte and length as they were
        base = make_model(seed=8, n_layers=3, n_heads=n_heads, head_dim=head_dim,
                          hidden_size=n_heads * head_dim, kv_group_size=group)
        spread_kv_channels(base, 2.0, seed=8)
        m = quantized(smoothed(base) if smooth else base)
        mlp, row_norm = kvq.model.gated_mlp, kvq.model._row_rms_norm
        for poq in (True, False):
            for kv_bits in (2, 3, 4, 8):
                m.config = dataclasses.replace(m.config, poq=poq, kv_bits=kv_bits)
                _, cache = prefill(m, IDS[:12])
                assert cache.fold_k
                pos, case = cache.length, (poq, kv_bits)
                cache.codes[:, :, pos] = 77
                cache.params[:, :, :, pos] = np.nan
                held = cache.codes[:, :, pos].tobytes(), cache.params[:, :, :, pos].tobytes()
                for fail in range(3):
                    calls = []

                    def failing(*args, fail=fail, calls=calls):
                        calls.append(1)
                        if len(calls) == fail + 1:
                            raise NumericError(f"injected failure at layer {fail}")
                        return mlp(*args)

                    monkeypatch.setattr(kvq.model, "gated_mlp", failing)
                    with pytest.raises(NumericError, match="injected"):
                        decode_step(m, 5, cache)
                    monkeypatch.undo()
                    assert cache.length == pos, (case, fail)
                    assert cache.codes[:, :, pos].tobytes() == held[0], (case, fail)
                    assert cache.params[:, :, :, pos].tobytes() == held[1], (case, fail)
                # a step that returns stores, at pos, every layer's K and V
                # codes, m and n as quantize_token gives them for the layer's
                # smoothed row: rms_norm of its input (recorded) times the
                # k or v weights plus the bias
                norms = []
                monkeypatch.setattr(kvq.model, "_row_rms_norm",
                                    lambda x, gain: norms.append((gain, row_norm(x, gain)))
                                    or norms[-1][1])
                decode_step(m, 5, cache)
                monkeypatch.undo()
                assert cache.length == pos + 1
                spec = m.config.token_spec()
                for li, blk in enumerate(m.blocks):
                    gain = cache.block_plan[li][0]["attn_norm"]
                    [xn] = [out for g, out in norms if g is gain]
                    for j, lin in enumerate((blk.k, blk.v)):
                        qt = quantize_token(xn @ lin.w + lin.b, spec)
                        stored = cache.codes[li, j, pos], *cache.params[li, j, :, pos]
                        for got, want in zip(stored, (qt.codes, qt.m, qt.n)):
                            assert np.array_equal(got, want[0]), (case, li, j)

    @pytest.mark.parametrize("group, head_dim, n_heads", TestFoldedCacheRead.LAYOUTS)
    def test_poq_off_step_quantizes_each_row_once(self, monkeypatch, group, head_dim, n_heads):
        # with POQ off a step keeps the codes, m and n of the round trip that
        # attention reads and stores them as they are: one core call per
        # channel span and layer, on the layer's (K, V) pair, where coding
        # the rows again for the store took one more call per span.  The
        # stored rows are quantize_token's
        # (test_step_stores_its_rows_after_the_last_layer)
        base = make_model(seed=9, n_layers=3, n_heads=n_heads, head_dim=head_dim,
                          hidden_size=n_heads * head_dim, kv_group_size=group)
        spread_kv_channels(base, 2.0, seed=9)
        m = quantized(smoothed(base))
        core, calls = kvq.quantizers._quantize_token_groups, []
        spans = _spans(m.config.hidden_size, group)
        for kv_bits in (2, 3, 4, 8):
            m.config = dataclasses.replace(m.config, poq=False, kv_bits=kv_bits)
            _, cache = prefill(m, IDS[:12])
            assert cache.fold_k
            for owner in (kvq.quantizers, kvq.model):  # wherever a caller looks it up
                monkeypatch.setattr(owner, "_quantize_token_groups", raising=False,
                                    value=lambda y, spec: calls.append(y.shape) or core(y, spec))
            calls.clear()
            decode_step(m, 5, cache)
            monkeypatch.undo()
            assert calls == [(2, k, size) for _ in m.blocks for _, _, k, size in spans], kv_bits


    @pytest.mark.parametrize("group, head_dim, n_heads", TestFoldedCacheRead.LAYOUTS)
    def test_poq_on_chunk_stores_then_unsmooths_in_place(self, monkeypatch, group, head_dim,
                                                         n_heads):
        # with POQ on, a chunk onto a cache of codes (a prefill, a chunk onto
        # its past, a one-row chunk) stores the codes, m and n of its
        # smoothed K and V first (append), then un-smooths that same [K; V]
        # stack in place, one _unsmooth_kv call writing into its input, so no
        # fresh un-smoothed array is made; a chunk onto a past then
        # un-smooths the past rows it reads (rows) in place as well, and no
        # row goes through apply_kv_smoothing.  The stored rows are
        # quantize_token's of the layer's smoothed K and V, and the logits
        # are the float64 model's over what the cache holds
        base = make_model(seed=9, n_layers=3, n_heads=n_heads, head_dim=head_dim,
                          hidden_size=n_heads * head_dim, kv_group_size=group)
        spread_kv_channels(base, 2.0, seed=9)
        m = quantized(smoothed(base))
        unsmooth, append, norm = kvq.model._unsmooth_kv, PoqKvCache.append, kvq.model.rms_norm
        c = m.config.hidden_size
        for kv_bits in (2, 3, 4, 8):
            m.config = dataclasses.replace(m.config, kv_bits=kv_bits)
            cache, got = PoqKvCache(m.config, m.blocks), []
            gains = [w["attn_norm"] for w, _ in cache.block_plan]
            for a, b in ((0, 12), (12, 20), (20, 21)):
                events, norms = [], []

                def in_place(kv, pair, out=None):
                    events.append(("unsmooth", out is kv, kv.shape))
                    return unsmooth(kv, pair, out)

                def appending(cache, li, k, v):
                    events.append(("append", li, k.shape, v.shape))
                    return append(cache, li, k, v)

                monkeypatch.setattr(kvq.model, "_unsmooth_kv", in_place)
                monkeypatch.setattr(PoqKvCache, "append", appending)
                monkeypatch.setattr(kvq.model, "apply_kv_smoothing", None)
                monkeypatch.setattr(kvq.model, "rms_norm", lambda x, gain: norms.append(
                    (gain, norm(x, gain))) or norms[-1][1])
                got.append(model_forward(m, IDS[a:b], cache=cache).data)
                monkeypatch.undo()
                past = [("unsmooth", True, (2, a, c))] if a else []
                assert events == [e for li in range(len(m.blocks)) for e in
                                  [("append", li, (b - a, c), (b - a, c)),
                                   ("unsmooth", True, (2, b - a, c)), *past]], kv_bits
                for li, blk in enumerate(m.blocks):
                    [xn] = [out for g, out in norms if g is gains[li]]
                    for j, lin in enumerate((blk.k, blk.v)):
                        qt = quantize_token(xn @ lin.w + lin.b, m.config.token_spec())
                        stored = (cache.codes[li, j, a:b], *cache.params[li, j, :, a:b])
                        for st, want in zip(stored, (qt.codes, qt.m, qt.n)):
                            assert st.tobytes() == want.tobytes(), (kv_bits, li, j)
            want = reference.model_logits(m, IDS[:21], [12, 8, 1], cache)
            assert np.abs(np.concatenate(got) - want).max() <= 1e-6, kv_bits

    @pytest.mark.parametrize("group, head_dim, n_heads", TestFoldedCacheRead.LAYOUTS)
    def test_poq_off_chunk_quantizes_each_row_once(self, monkeypatch, group, head_dim, n_heads):
        # with POQ off a chunk onto a cache of codes (a prefill, a chunk onto
        # its past, a one-row chunk) stores the codes, m and n of the round
        # trip that attention reads: one core call per channel span and
        # layer, on the chunk's stacked (K, V) rows, where appending coded
        # them a second time.  The stored rows are quantize_token's of the
        # layer's smoothed K and V, and the logits are the float64 model's
        # over what the cache holds
        base = make_model(seed=9, n_layers=3, n_heads=n_heads, head_dim=head_dim,
                          hidden_size=n_heads * head_dim, kv_group_size=group)
        spread_kv_channels(base, 2.0, seed=9)
        m = quantized(smoothed(base))
        core, norm = kvq.quantizers._quantize_token_groups, kvq.model.rms_norm
        spans = _spans(m.config.hidden_size, group)
        for kv_bits in (2, 3, 4, 8):
            m.config = dataclasses.replace(m.config, poq=False, kv_bits=kv_bits)
            cache, got = PoqKvCache(m.config, m.blocks), []
            gains = [w["attn_norm"] for w, _ in cache.block_plan]
            for a, b in ((0, 12), (12, 20), (20, 21)):
                calls, norms = [], []
                for owner in (kvq.quantizers, kvq.model):  # wherever a caller looks it up
                    monkeypatch.setattr(owner, "_quantize_token_groups", raising=False,
                                        value=lambda y, spec: calls.append(y.shape) or core(y, spec))
                monkeypatch.setattr(kvq.model, "rms_norm", lambda x, gain: norms.append(
                    (gain, norm(x, gain))) or norms[-1][1])
                got.append(model_forward(m, IDS[a:b], cache=cache).data)
                monkeypatch.undo()
                t = b - a
                assert calls == [(2 * t, k, size) for _ in m.blocks for _, _, k, size in spans]
                for li, blk in enumerate(m.blocks):
                    [xn] = [out for g, out in norms if g is gains[li]]
                    for j, lin in enumerate((blk.k, blk.v)):
                        qt = quantize_token(xn @ lin.w + lin.b, m.config.token_spec())
                        stored = (cache.codes[li, j, a:b], *cache.params[li, j, :, a:b])
                        for st, want in zip(stored, (qt.codes, qt.m, qt.n)):
                            assert np.array_equal(st, want), (kv_bits, li, j)
            want = reference.model_logits(m, IDS[:21], [12, 8, 1], cache)
            assert np.abs(np.concatenate(got) - want).max() <= 1e-6, kv_bits


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
        codes = mode == "weight_kv"
        store = [cache.codes, cache.params] if codes else [cache.kv]
        # every (max_seq_len, .) slab of the store: each layer's K and V
        # codes and their m and n, or K and V rows
        kept = [a[ix] for a in store for ix in np.ndindex(a.shape[:-2])]
        assert len(kept) == (2 * 2 + 2 * 4 if codes else 2 * 2)
        if codes:
            assert cache.fold_k
            kept += [cache.scratch, cache.work, cache.cos, cache.sin, cache.cs_cols]
        assert [a.ctypes.data % 64 for a in kept] == [0] * len(kept)

    def test_k_fold_and_buffers_belong_to_each_cache(self):
        # the K contraction matrices follow each model's smoothing, and each
        # cache has its own work and scratch buffers
        plain, smooth = quantized(make_model(seed=1)), quantized(smoothed(make_model(seed=1)))
        a, b = PoqKvCache(plain.config, plain.blocks), PoqKvCache(smooth.config, smooth.blocks)
        for fa, fb in zip(a.k_fold, b.k_fold):
            assert fa.shape[1] < fb.shape[1]  # the smoothed fold adds a delta column per head
        assert a.work is not b.work and a.scratch is not b.scratch

    def test_config_plan_is_shared(self, monkeypatch):
        # every cache of one config key holds the same read-only plan arrays;
        # a field the plan does not read (kv_bits, poq) keeps the key, one it
        # reads (max_seq_len) or the fold limit makes another plan
        m = quantized(smoothed(make_model(seed=1)))
        a, b = PoqKvCache(m.config, m.blocks), PoqKvCache(m.config, m.blocks)
        other = dataclasses.replace(m.config, kv_bits=3, poq=False)
        c = PoqKvCache(other, m.blocks)
        names = ["cos", "sin", "cs_cols", "to_cs", "swap", "seg_ones", "head_ones"]
        for name in names:
            assert getattr(a, name) is getattr(b, name) is getattr(c, name), name
            assert not getattr(a, name).flags.writeable, name
        assert not any(ix.flags.writeable for ix in a.seg_pair if isinstance(ix, np.ndarray))
        longer = PoqKvCache(dataclasses.replace(m.config, max_seq_len=40), m.blocks)
        assert longer.cs_cols is not a.cs_cols and longer.cs_cols.shape[1] == 40
        monkeypatch.setattr(kvq.model, "FOLD_MAX_SEGMENTS", 0)
        assert not PoqKvCache(m.config, m.blocks).fold_k and a.fold_k
        # per-cache state stays per cache
        assert a.k_fold is not b.k_fold and a.codes is not b.codes

    def test_fold_plan_waits_for_the_first_step(self):
        # a prefill's cache builds no fold plan; the first decode step builds
        # it, from the smoothing the blocks held when the cache was built
        names = ["layer_reads", "v_seg_smoothing", "k_fold"]
        m = quantized(make_model(seed=1))
        twin = copy.deepcopy(m)
        _, cache = prefill(m, IDS[:12])
        _, twin_cache = prefill(twin, IDS[:12])
        assert cache.fold_k and not any(name in vars(cache) for name in names)
        smoothed(m)  # after the cache was planned: its steps do not see it
        for tok in IDS[12:15]:
            np.testing.assert_array_equal(decode_step(m, int(tok), cache).data,
                                          decode_step(twin, int(tok), twin_cache).data)
            assert all(name in vars(cache) for name in names)
        # unsmoothed folds: no delta column per head
        assert all(f.shape[1] == cache.seg_ones.shape[1] for f in cache.k_fold)
        np.testing.assert_array_equal(cache.codes[:, :, :15], twin_cache.codes[:, :, :15])

    @pytest.mark.parametrize("side", ["k", "v"])
    @pytest.mark.parametrize("group, head_dim, n_heads", TestFoldedCacheRead.LAYOUTS)
    def test_one_side_smoothed_folds_as_planned_per_side(self, group, head_dim, n_heads, side):
        # blocks with only K, or only V, smoothed, POQ on and off: the fold
        # reads the [s; delta] pair (unsmooth), whose rows for the unsmoothed
        # side are s = 1 and delta = -0.0, and its steps give the logits,
        # codes and (m, n) of a twin cache whose fold is planned per side,
        # with no smoothing terms for that side (the segment ones alone for
        # K, no scale or shift for V), bit for bit
        base = make_model(seed=11, n_heads=n_heads, head_dim=head_dim,
                          hidden_size=n_heads * head_dim, kv_group_size=group)
        spread_kv_channels(base, 2.0, seed=11)
        for blk in base.blocks:
            lin = getattr(blk, side)
            xn = rms_norm(base.embed[IDS], blk.attn_norm.reshape(1, -1))
            lin.absorb(init_smoothing(xn @ lin.w + lin.b))
        m = quantized(base)
        for poq in (True, False):
            m.config = dataclasses.replace(m.config, poq=poq)
            (_, cache), (_, twin) = prefill(m, IDS[:12]), prefill(m, IDS[:12])
            assert cache.fold_k
            w, k_fold, v_seg = twin.seg_width, [], []
            for blk in m.blocks:
                k, v = blk.k.smoothing, blk.v.smoothing
                fold = twin.seg_ones if k is None else np.concatenate(
                    [twin.seg_ones * k.s[:, None], twin.head_ones * k.delta[:, None]], 1)
                k_fold.append(np.concatenate([fold, -fold]))
                v_seg.append(None if v is None else (v.s.reshape(-1, 1, w),
                                                     v.delta.reshape(-1, 1, w)))
            vars(twin).update(k_fold=k_fold, v_seg_smoothing=v_seg)
            for tok in IDS[12:20]:
                assert np.array_equal(decode_step(m, int(tok), cache).data,
                                      decode_step(m, int(tok), twin).data), (poq, side)
            assert cache.codes[:, :, :20].tobytes() == twin.codes[:, :, :20].tobytes()
            assert cache.params[..., :20, :].tobytes() == twin.params[..., :20, :].tobytes()

    def test_cache_is_freed_with_its_last_user(self):
        # the planned KV handlers reach the cache through a weak proxy, so the
        # plan holds no reference cycle
        m = quantized(make_model(seed=1))
        _, cache = prefill(m, IDS[:4])
        ref = weakref.ref(cache)
        del cache
        assert ref() is None


class TestPrefillMemory:
    @pytest.mark.parametrize("mode", ["fp", "weight_kv"])
    def test_prefill_peak_holds_one_block_half(self, mode):
        # the traced peak of a default-config 512-token prefill is at most
        # what the test measures for its parts in the same window: the cache
        # built alone, one attention half of layer 0 onto it (the arrays it
        # allocates, its output included, while its input is held) and the
        # logits, which also cover the residual.  fp: a 5.25 MB peak against
        # a 5.52 MB bound (weight_kv: 4.92 against 5.18).  A block whose
        # attention arrays stay bound through its MLP exceeds it (6.70 MB),
        # so does an MLP that holds all its activations at once (6.28 MB),
        # and with both, 7.67 MB
        m = Model.random(ModelConfig(quant_mode=mode), seed=1)
        ids = np.random.default_rng(1).integers(0, m.config.vocab_size, m.config.max_seq_len)
        positions = np.arange(len(ids))
        prefill(m, ids)  # fills the rope tables before tracing
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cache = PoqKvCache(m.config, m.blocks)
            built = tracemalloc.get_traced_memory()[0] - before
            x = m.embed[ids]
            w, kv_fn = cache.block_plan[0]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            block_attention(m.config, w, x, positions, kv_fn)
            attention = tracemalloc.get_traced_memory()[1] - before
            del cache, x, w, kv_fn
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            logits, _ = prefill(m, ids)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= built + attention + logits.data.nbytes


    def test_append_holds_one_row_block(self):
        # a weight_kv cache's append quantizes ROW_BLOCK rows at a time, so
        # a max_seq_len-row chunk (512) grows the traced memory no more than
        # a two-block chunk of 2 * ROW_BLOCK - 1 rows: 572.9 against 572.6 KB,
        # within 1 KiB for the block bounds' Python objects.  Quantizing the
        # whole chunk at once, the 512 rows grew it by 2.28 MB
        m = Model.random(ModelConfig(quant_mode="weight_kv"), seed=0)
        cache = PoqKvCache(m.config, m.blocks)
        rng = np.random.default_rng(0)

        def growth(t):
            k_s, v_s = rng.normal(size=(2, t, m.config.hidden_size)).astype(np.float32)
            cache.append(0, k_s, v_s)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                cache.append(0, k_s, v_s)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        assert growth(m.config.max_seq_len) <= growth(2 * ROW_BLOCK - 1) + 1024

    def test_attention_holds_one_score_block(self):
        # causal_attention on 896 array rows: its traced peak is at most its
        # output, the scaled query, the values with their column of ones and
        # one (H, ATTN_BLOCK, S) score block, plus a quarter block for the
        # block's product with the values and NumPy's buffers for the
        # division (measured: 152 KB over the four, a quarter block is 229
        # KB).  A loop that rebinds a block's scores while the previous
        # block's are held peaks 905 KB over the four
        h, d, t = 4, 32, 896
        q, k, v = (0.3 * np.random.default_rng(0).normal(size=(3, t, h * d))).astype(np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = causal_attention(q, k, v, h)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        block = np.empty((h, ATTN_BLOCK, t), dtype=np.float32).nbytes
        v_ones = np.empty((h, t, d + 1), dtype=np.float32).nbytes
        scaled_query = q.nbytes
        assert peak <= out.nbytes + scaled_query + v_ones + block + block // 4

    @pytest.mark.parametrize("group", [32, 2])
    def test_chunk_onto_quantized_past_holds_one_score_block(self, group):
        # a 300-row chunk onto a 600-row weight_kv past, default config at
        # kv_group_size 32 (the served layout, 4 segments) and 2 (64): the
        # past rows are materialized in the cache's buffers and attend in
        # causal_attention, one query block at a time.  The traced peak is
        # at most the chunk's input, query, scaled query and output, the
        # values with their column of ones, one (H, ATTN_BLOCK, S) score
        # block and a quarter block: 2.12 MB against 2.24 MB in both
        # layouts.  A read that builds the whole (H, T, S) scores, with a
        # (T, past) copy of them per segment, peaked at 8.61 and 97.4 MB
        cfg = ModelConfig(quant_mode="weight_kv", max_seq_len=1024, kv_group_size=group)
        m = Model.random(cfg, seed=1)
        ids = np.random.default_rng(1).integers(0, cfg.vocab_size, 900)
        _, cache = prefill(m, ids[:600])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model_forward(m, ids[600:], cache=cache)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        h, d, t, s = cfg.n_heads, cfg.head_dim, 300, 900
        rows = np.empty((t, cfg.hidden_size), dtype=np.float32).nbytes
        v_ones = np.empty((h, s, d + 1), dtype=np.float32).nbytes
        block = np.empty((h, ATTN_BLOCK, s), dtype=np.float32).nbytes
        assert peak <= 4 * rows + v_ones + block + block // 4


class TestFoldsAgainstReference:
    """The K fold's scores and the whole quantized read (PoqKvCache.read_raw)
    of a decode step, layer by layer, against the float64 reference
    (tests/reference.py).  Over these layouts, contexts 1, 64 and 299, with
    and without smoothing, the largest error was 2.3e-7 of the largest
    |score| and 5.8e-7 of the largest |output| (numpy 2.4, OpenBLAS 0.3.31);
    the bounds leave about 4x and 5x."""

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
                blk = m.blocks[li]
                scores, _, out = decode_attention(cfg, cache.codes[li], cache.params[li], ctx,
                                                  (blk.k.smoothing, blk.v.smoothing), q, k, v)
                q_rot, k_rot = (rope(a, pos, cfg.rope_base, head_dim) for a in (q, k))
                got = cache._folded_k(li, heads(q_rot), k_rot)[:, 0]
                assert np.abs(got - scores).max() <= 1e-6 * np.abs(scores).max(), (ctx, li)
                got = cache.read_raw(li, q_rot, k_rot, v).reshape(n_heads, head_dim)
                assert np.abs(got - out).max() <= 3e-6 * np.abs(out).max(), (ctx, li)


class TestFpCacheRotatedKeys:
    """An fp cache (fp, W4 weights or not) stores each chunk's K rows rotated,
    once, at append; reads take them as stored."""

    @pytest.mark.parametrize("mode", ["fp", "weight_only"])
    def test_stored_rows_are_rope_of_the_raw_rows(self, monkeypatch, mode):
        # a prefill, a chunk and one-row steps: each layer's append takes
        # the chunk's K rows rotated once, rope of its k projection rows (the
        # raw keys without smoothing), and its raw V rows, the v projection
        # rows, and the store holds them as given
        m = quantized(make_model(seed=6), mode)
        cfg, calls = m.config, []
        assert all(blk.k.smoothing is None for blk in m.blocks)
        append, norm = PoqKvCache.append, kvq.model.rms_norm

        def recording(cache, li, k, v):
            calls.append((li, k.copy(), v.copy()))
            return append(cache, li, k, v)

        cache = PoqKvCache(cfg, m.blocks)
        gains = [w["attn_norm"] for w, _ in cache.block_plan]
        norms = []
        monkeypatch.setattr(PoqKvCache, "append", recording)
        monkeypatch.setattr(kvq.model, "rms_norm", lambda x, gain: norms.append(
            (gain, norm(x, gain))) or norms[-1][1])
        chunks = [IDS[:10], IDS[10:16], *([tok] for tok in IDS[16:20])]
        start = 0
        for chunk in chunks:
            calls.clear()
            norms.clear()
            if len(chunk) == 1:
                decode_step(m, int(chunk[0]), cache)
            else:
                model_forward(m, chunk, cache=cache)
            rows = slice(start, start + len(chunk))
            assert [li for li, _, _ in calls] == list(range(cfg.n_layers))
            for (li, k, v), blk in zip(calls, m.blocks):
                [xn] = [out for g, out in norms if g is gains[li]]
                want = rope(xn @ blk.k.w + blk.k.b, np.arange(rows.start, rows.stop),
                            cfg.rope_base, cfg.head_dim)
                assert np.array_equal(k, want) and np.array_equal(v, xn @ blk.v.w + blk.v.b)
                assert np.array_equal(cache.kv[li, 0, rows], k)
                assert np.array_equal(cache.kv[li, 1, rows], v)
            start = rows.stop
        assert start == cache.length == 20


class TestStackedForward:
    """Without a cache a block takes equal-length sequences stacked as rows;
    its one-sequence call is the reference."""

    @pytest.mark.parametrize("t", [1, 8])
    def test_block_matches_each_sequence(self, t):
        # block_core and training's block forward (whose attention scales
        # the scores and normalizes before P . V) against block_core on each
        # sequence; max |diff| measured 0.0 and 6.0e-8 at t = 1 and 8 (tiny
        # config, 3 sequences)
        m = make_model(seed=8)
        ids = np.random.default_rng(8).integers(0, m.config.vocab_size, (3, t))
        cfg, blk, x = m.config, m.blocks[0], m.embed[ids.reshape(-1)]
        w = block_arrays(blk)
        for got in (block_core(cfg, w, x, np.arange(t), fp_kv_fn(cfg)),
                    kvq.evaluate._block_forward(cfg, w, x, np.arange(t), len(ids))[0]):
            for i, seq in enumerate(ids):
                one = block_core(cfg, block_arrays(blk), m.embed[seq], np.arange(t), fp_kv_fn(cfg))
                assert np.abs(got[i * t : (i + 1) * t] - one).max() <= 1e-6

    def test_rows_not_whole_sequences_rejected(self):
        m = make_model()
        with pytest.raises(DimensionError, match="rows"):
            block_core(m.config, block_arrays(m.blocks[0]), m.embed[IDS[:7]], np.arange(2),
                       fp_kv_fn(m.config))

    @pytest.mark.parametrize("mode", ["fp", "weight_kv"])
    def test_stacked_forward_onto_a_cache_refused(self, mode):
        m = quantized(make_model(), mode)
        cache = PoqKvCache(m.config, m.blocks)
        names = ("codes", "params") if m.config.kv_codes else ("kv",)
        before = {name: getattr(cache, name).copy() for name in names}
        x = m.embed[np.concatenate([IDS[:4], IDS[4:8]])]
        w, kv_fn = cache.block_plan[0]
        with pytest.raises(UsageError, match="one sequence"):
            block_core(m.config, w, x, np.arange(4), kv_fn)
        assert cache.length == 0
        for name, stored in before.items():
            # nothing appended; the rows hold what the allocation held
            assert np.array_equal(getattr(cache, name), stored, equal_nan=True), name


class TestOneChunkDriver:
    """model_forward and cache_path_forward run one chunk driver, and a
    cache's materialized read (PoqKvCache.rows) reads its past K and V as
    one stack."""

    @pytest.mark.parametrize("poq", [True, False])
    def test_forwards_raise_the_same_errors(self, poq):
        # an empty chunk, a bad id and a chunk past capacity; with POQ on,
        # cache-path scoring runs its own handlers (_poq_kv_fn)
        m = quantized(make_model(max_seq_len=16))
        m.config = dataclasses.replace(m.config, poq=poq)
        for bad, kind in (([], UsageError), ([3, 999], UsageError),
                          (np.arange(17) % 250, CapacityError)):
            errors = []
            for forward in (model_forward, kvq.model.cache_path_forward):
                with pytest.raises(kind) as err:
                    forward(m, bad)
                errors.append((type(err.value), str(err.value)))
            assert errors[0] == errors[1], bad

    @staticmethod
    def per_kv_rows(cache, blk, li, k_cur, v_cur):
        """The materialized read with K and V each on its own: a
        QuantizedTensor, dequantize and apply_kv_smoothing per K/V, then
        rope of the past keys."""
        cfg, past, spec = cache.cfg, cache.length, cache.cfg.token_spec()
        out = []
        for j, (sp, cur) in enumerate(((blk.k.smoothing, k_cur), (blk.v.smoothing, v_cur))):
            m, n = cache.params[li, j, :, :past]
            x = dequantize(QuantizedTensor("token", cache.codes[li, j, :past], spec.bits,
                                           spec.group_size, m=m, n=n))
            out.append(np.concatenate([x if sp is None else apply_kv_smoothing(x, sp), cur]))
        out[0][:past] = rope(out[0][:past], np.arange(past), cfg.rope_base, cfg.head_dim)
        return out

    @pytest.mark.parametrize("kv_bits", [2, 3, 4, 8])
    @pytest.mark.parametrize("smooth", ["", "k", "v", "kv"])
    def test_rows_read_kv_in_one_dequantize_call(self, monkeypatch, kv_bits, smooth):
        # hidden 32 in groups of 12: two full groups and a short tail of 8;
        # the blocks smooth neither, K only, V only or both
        base = make_model(seed=10, kv_group_size=12, kv_bits=kv_bits)
        spread_kv_channels(base, 1.5, seed=10)
        for blk in base.blocks:
            xn = rms_norm(base.embed[IDS], blk.attn_norm.reshape(1, -1))
            for lin in (getattr(blk, name) for name in smooth):
                lin.absorb(init_smoothing(xn @ lin.w + lin.b))
        m = quantized(base)
        _, cache = prefill(m, IDS[:20])
        calls, dequant = [], kvq.model.dequantize
        monkeypatch.setattr(kvq.model, "dequantize",
                            lambda *a, **kw: calls.append(1) or dequant(*a, **kw))
        rng = np.random.default_rng(kv_bits)
        for li, blk in enumerate(m.blocks):
            cur = rng.normal(size=(2, 3, m.config.hidden_size)).astype(np.float32)
            got = cache.rows(li, cur)
            for a, b in zip(got, self.per_kv_rows(cache, blk, li, *cur)):
                assert np.array_equal(a, b), (li, smooth)
        assert len(calls) == m.config.n_layers


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
        m2.config = dataclasses.replace(m2.config, poq=False)
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

    def test_quantizing_twice_is_quantizing_once(self):
        # the codes a projection holds at the spec are the one record of its
        # quantization: quantizing again keeps them, h and z included, and
        # the weights they describe
        m = quantized(make_model(seed=2))
        lins = [lin for blk in m.blocks for lin in blk.projections().values()]
        held = [(lin.wq, lin.w) for lin in lins]
        quantize_model_weights(m)
        assert all(lin.wq is wq and lin.w is w for lin, (wq, w) in zip(lins, held))

    def test_16_bit_weights_stay_unquantized(self):
        m = make_model(weight_bits=16)
        before = copy.deepcopy(m)
        quantize_model_weights(m)
        for b1, b2 in zip(before.blocks, m.blocks):
            for name, lin in b1.projections().items():
                assert b2.projections()[name].wq is None, name
                assert np.array_equal(lin.w, b2.projections()[name].w), name

    def test_unknown_mode_rejected(self):
        # a config cannot change after its checks, so a mode is refused where
        # it is set: a replace runs the checks again (kvq eval/generate --mode
        # set the mode this way), and the model keeps its config
        m = make_model()
        with pytest.raises(KvqError, match="unknown quant_mode: 'bogus'"):
            m.config = dataclasses.replace(m.config, quant_mode="bogus")
        assert m.config.quant_mode == "fp"
        assert np.isfinite(model_forward(m, IDS).data).all()


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

    @pytest.mark.parametrize("n_new", [2.5, "3", True, False, None, np.float32(2)])
    def test_n_new_that_is_not_an_integer_refused(self, n_new):
        # 2.5 and "3" raised a bare TypeError, and True generated one token
        with pytest.raises(UsageError, match="n_new must be an integer"):
            generate(make_model(), IDS[:4], n_new)
        assert len(generate(make_model(), IDS[:4], np.int64(2))) == 6

    @pytest.mark.parametrize("mode", ["fp", "weight_kv"])
    def test_past_capacity_refused_before_any_forward(self, monkeypatch, mode):
        # the cache holds the prompt and every new token but the last: a
        # 10-token prompt and 55 new tokens fill max_seq_len 64 exactly, and
        # one more token decoded every step that fit before CapacityError
        m = quantized(make_model(max_seq_len=64), mode)
        assert len(generate(m, IDS[:10], 55)) == 65
        forwards = []
        monkeypatch.setattr(kvq.model, "prefill", lambda *a: forwards.append(a))
        with pytest.raises(CapacityError, match="generation's cache of 65 tokens > max_seq_len 64"):
            generate(m, IDS[:10], 56)
        assert forwards == []
        # n_new 0 runs no forward, so a prompt of any length comes back
        assert len(generate(m, np.arange(70) % 250, 0)) == 70


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

    def test_arguments_checked_at_both_range_edges(self):
        # log_range 0 (every scale 1) and LOG_RANGE_MAX (scales down to
        # float32's smallest normal) leave finite weights and no warning; a
        # log_range past either edge, not finite or not a number, and a seed
        # numpy's generator refuses or a bool passed, raise KvqError and
        # change no weight (log_range 200 left inf and NaN weights behind
        # RuntimeWarnings; seeds -1 and 1.5 raised numpy's errors)
        edge = kvq.model.LOG_RANGE_MAX
        assert edge == pytest.approx(126 * np.log(2))
        for log_range in (0.0, 0, edge):
            m = make_model(seed=3)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                spread_kv_channels(m, log_range=log_range, seed=1)
            for blk in m.blocks:
                for lin in blk.projections().values():
                    assert np.isfinite(lin.w).all(), log_range
            if not log_range:
                fresh = make_model(seed=3)
                assert np.array_equal(m.blocks[0].k.w, fresh.blocks[0].k.w)
        bad = [dict(log_range=x) for x in (np.nextafter(edge, np.inf), 200.0, -1e-9, -2.0,
                                             np.nan, np.inf, True, "2.0", None)]
        bad += [dict(seed=x) for x in (-1, 1.5, True, "1")]
        for kw in bad:
            m = make_model(seed=3)
            before = copy.deepcopy(m)
            with pytest.raises(KvqError, match="log_range" if "log_range" in kw else "seed"):
                spread_kv_channels(m, **kw)
            for b1, b2 in zip(before.blocks, m.blocks):
                for name, lin in b1.projections().items():
                    assert np.array_equal(lin.w, b2.projections()[name].w), (kw, name)

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
        after = model_forward(smoothed(m), IDS).data
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

        assert decode_err(smoothed(copy.deepcopy(base))) < decode_err(base)

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
            mm.config = dataclasses.replace(mm.config, quant_mode=mode)
            return np.concatenate([decode_step(mm, int(t), cache).data for t in IDS[12:20]])

        assert np.array_equal(decode_after_switching_to("weight_activation"),
                              decode_after_switching_to("weight_kv"))

    def test_cache_keeps_its_quant_setting(self):
        # the cache keeps the config it was built with, which cannot change:
        # giving the model a new POQ, KV width or KV group size after prefill
        # leaves the cached decode untouched
        m = quantized(smoothed(make_model(seed=1)))
        ids = np.arange(36) * 7 % 250

        def decode(**change):
            mm = copy.deepcopy(m)
            _, cache = prefill(mm, ids[:20])
            assert cache.cfg is mm.config
            mm.config = dataclasses.replace(mm.config, **change)
            return np.concatenate([decode_step(mm, int(t), cache).data for t in ids[20:]])

        assert np.array_equal(decode(poq=False, kv_bits=8, kv_group_size=16), decode())

    def test_config_cannot_change_after_its_checks(self):
        # a field is set only by replace, which checks the new config
        cfg = tiny_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.kv_bits = 9
        with pytest.raises(dataclasses.FrozenInstanceError):
            kvq.calibration.CalibConfig().k = 10
        # int8 cannot hold 9-bit token codes, and 0 bits is no width
        for bits in (9, 0):
            with pytest.raises(KvqError, match=f"kv_bits must be 2..8 or 16, got {bits}"):
                dataclasses.replace(cfg, kv_bits=bits)
        with pytest.raises(KvqError, match="weight_bits must be 2..8 or 16, got 12"):
            dataclasses.replace(cfg, weight_bits=12)
        with pytest.raises(KvqError, match="k must be >= 1"):
            dataclasses.replace(kvq.calibration.CalibConfig(), k=0)

    def test_no_call_takes_a_mode(self):
        # a forward's setting has one record, the config (or the cache built
        # from it), so no function of these modules, private or not, takes one
        banned = {"mode", "mode_a", "mode_b", "setting"}
        found = []
        for module in (kvq.model, kvq.evaluate, kvq.calibration):
            for name, obj in vars(module).items():
                if not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
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
