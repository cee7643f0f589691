import copy
import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import tiny_config, word_corpus
from kvq import evaluate
from kvq.calibration import AdamW
from kvq.errors import CapacityError, DataFormatError, KvqError, NumericError, UsageError
from kvq.evaluate import (
    BOS,
    _leaves,
    encode_bytes,
    eval_report,
    first_divergence,
    lm_grads,
    lm_weights,
    load_corpus,
    logit_mae,
    perplexity,
    score_logits,
    sequence_nll,
    train_model,
)
from kvq.model import (
    MODES,
    Model,
    block_arrays,
    block_core,
    decode_step,
    model_forward,
    prefill,
    quantize_model_weights,
    spread_kv_channels,
)
from kvq.quantizers import apply_kv_smoothing, dequantize, init_smoothing, quantize_token
from kvq.tensor import linear, rms_norm, rope
from test_runtime import smoothed


def model_arrays(model) -> list:
    """Every array train_model fits, in a fixed order."""
    out = [model.embed, model.final_norm, model.head.w, model.head.b]
    for blk in model.blocks:
        out += [blk.attn_norm, blk.mlp_norm]
        out += [a for lin in blk.projections().values() for a in (lin.w, lin.b)]
    return out


def stepwise_logits(model, ids):
    """The cache path one token at a time: prefill of the first token, then
    one decode_step per token.  Reference for score_logits(use_cache=True)."""
    logits, cache = prefill(model, ids[:1])
    rows = [logits.data[-1]]
    for t in range(1, len(ids)):
        rows.append(decode_step(model, int(ids[t]), cache).data[-1])
    return np.stack(rows)


def equivalence_model(seed, **cfg_kw):
    """A random model with spread K/V channels and quantized weights; at odd
    seeds K/V smoothing is attached as well."""
    model = Model.random(tiny_config(**cfg_kw), seed=seed)
    spread_kv_channels(model, log_range=2.0, seed=seed)
    if seed % 2:
        smoothed(model)
    quantize_model_weights(model)
    return model


class TestEncoding:
    def test_bytes_map_to_ids(self):
        ids = encode_bytes(b"ab", add_bos=True)
        assert list(ids) == [BOS, 97, 98]

    def test_no_bos(self):
        assert list(encode_bytes(b"\x00\xff", add_bos=False)) == [0, 255]

    def test_empty_corpus_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_bytes(b"")
        with pytest.raises(DataFormatError):
            load_corpus(str(p))

    def test_load_corpus(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_bytes(b"hi")
        assert list(load_corpus(str(p))) == [BOS, 104, 105]


class TestScoring:
    def test_nll_matches_manual_softmax(self):
        m = Model.random(tiny_config(), seed=0)
        ids = word_corpus(0)[:20]
        nll = sequence_nll(m, ids)
        logits = model_forward(m, ids).data.astype(np.float64)
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        expect = -logp[np.arange(len(ids) - 1), ids[1:]]
        assert np.abs(nll - expect).max() < 1e-5

    @pytest.mark.parametrize("use_cache", [False, True])
    def test_nll_is_the_log_softmax_formula_bit_for_bit(self, use_cache):
        # each row's log-sum-exp minus its target logit, with no
        # log-probability matrix, equals the target's entry of the float32
        # log-softmax, negated, bit for bit: three random W4KV4 models, 200
        # tokens in chunks of max_seq_len (64)
        ids = word_corpus(6)[:200]
        for seed in range(3):
            m = equivalence_model(seed, quant_mode="weight_kv")
            want = []
            for a in range(0, len(ids), m.config.max_seq_len):
                chunk = ids[a : a + m.config.max_seq_len]
                logits = score_logits(m, chunk, use_cache=use_cache)
                z = logits - logits.max(axis=1, keepdims=True)
                logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
                want.append(-logp[np.arange(len(chunk) - 1), chunk[1:]])
            got = sequence_nll(m, ids, use_cache=use_cache)
            assert got.dtype == np.float64
            assert np.array_equal(got, np.concatenate(want).astype(np.float64)), seed

    def test_cache_path_matches_prefill_path_fp(self):
        m = Model.random(tiny_config(), seed=1)
        ids = word_corpus(1)[:20]
        a = perplexity(m, ids, use_cache=False)
        b = perplexity(m, ids, use_cache=True)
        assert abs(a["perplexity"] - b["perplexity"]) < 1e-3 * a["perplexity"]

    def test_chunking_covers_long_sequences(self):
        m = Model.random(tiny_config(max_seq_len=16), seed=2)
        ids = word_corpus(2)[:50]
        out = perplexity(m, ids)
        # 4 chunks of 16 tokens minus one context token each, then a tail of 2
        assert out["tokens"] == 15 + 15 + 15 + 1

    def test_too_short_rejected(self):
        m = Model.random(tiny_config(), seed=0)
        with pytest.raises(KvqError):
            sequence_nll(m, np.array([1]))

    def test_score_logits_shapes(self):
        m = Model.random(tiny_config(), seed=0)
        ids = word_corpus(0)[:10]
        a = score_logits(m, ids, use_cache=False)
        b = score_logits(m, ids, use_cache=True)
        assert a.shape == b.shape == (10, m.config.vocab_size)
        assert np.abs(a - b).max() < 1e-3

    @pytest.mark.parametrize("use_cache", [False, True])
    def test_chunk_longer_than_cache_rejected(self, use_cache):
        m = Model.random(tiny_config(max_seq_len=8), seed=0)
        with pytest.raises(CapacityError):
            score_logits(m, np.zeros(9, dtype=np.int64), use_cache=use_cache)
        assert score_logits(m, np.zeros(8, dtype=np.int64), use_cache=use_cache).shape[0] == 8

    def test_logit_mae_zero_for_identical_models(self):
        m = Model.random(tiny_config(), seed=3)
        ids = word_corpus(3)[:15]
        assert logit_mae(m, m, ids) == 0.0


def composed_cache_path(model, ids) -> np.ndarray:
    """Cache-path logits composed from the public pieces: each block's past
    K/V are quantize_token's round trip, then apply_kv_smoothing, then (K)
    rope; its own K/V, the POQ diagonal, are apply_kv_smoothing and rope of
    the smoothed rows themselves."""
    cfg, positions = model.config, np.arange(len(ids))
    rot = lambda k: rope(k, positions, cfg.rope_base, cfg.head_dim)

    def raw(x, sp, trip):
        x = dequantize(quantize_token(x, cfg.token_spec())) if trip else x
        return x if sp is None else apply_kv_smoothing(x, sp)

    x = model.embed[ids]
    for blk in model.blocks:
        sk, sv = blk.k.smoothing, blk.v.smoothing

        def kv_fn(k_s, v_s, _, sk=sk, sv=sv):
            return (rot(raw(k_s, sk, True)), raw(v_s, sv, True),
                    (rot(raw(k_s, sk, False)), raw(v_s, sv, False)))

        x = block_core(cfg, block_arrays(blk), x, positions, kv_fn)
    return linear(rms_norm(x, model.final_norm.reshape(1, -1)), model.head.w, model.head.b)


class TestCachePathOnePass:
    """score_logits(use_cache=True) against the step-by-step cache path,
    within 1e-5.  In weight_activation mode cache-path scoring is the
    cacheless forward (model.cache_path_forward), and the step loop is not
    its reference: every linear-layer input is rounded to per-token codes,
    and a float32 reorder between the chunk-shaped and row-shaped products
    can move one across a rounding boundary (seed 2 at 8 bits with POQ on,
    64 tokens, differs from the step loop by 1.0e-3)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_stepwise(self, seed):
        # Rows of the step loop depend only on the tokens up to them, so one
        # loop over max_seq_len tokens is the reference for every shorter chunk.
        ids = word_corpus(seed)[: tiny_config().max_seq_len]
        for poq in (True, False):
            for kv_bits in (4, 8, 16):
                model = equivalence_model(seed, poq=poq, kv_bits=kv_bits)
                for mode in MODES:
                    model.config = dataclasses.replace(model.config, quant_mode=mode)
                    step = mode != "weight_activation"
                    ref = stepwise_logits(model, ids) if step else None
                    for n in (2, 17, len(ids)):
                        got = score_logits(model, ids[:n], use_cache=True)
                        assert got.shape == (n, model.config.vocab_size)
                        if step:
                            assert np.abs(got - ref[:n]).max() <= 1e-5, (poq, kv_bits, mode, n)
                        else:
                            cacheless = score_logits(model, ids[:n], use_cache=False)
                            assert np.array_equal(got, cacheless), (poq, kv_bits, n)

    @pytest.mark.parametrize("sides", ["", "k", "v", "kv"])
    def test_equals_round_trip_smoothing_rope_composition(self, sides):
        # K smoothing only, V only, both and neither; kv_bits 2, 4 and 8,
        # groups of 8 and of 12 (a tail of 8): the one stacked K|V round
        # trip, its one un-smoothing and one rope call give the composed
        # logits byte for byte, over one query block and over three
        ids = word_corpus(5)[:150]
        for bits in (2, 4, 8):
            for group in (8, 12):
                model = Model.random(tiny_config(kv_bits=bits, kv_group_size=group, max_seq_len=160,
                                                 quant_mode="weight_kv"), seed=bits)
                spread_kv_channels(model, log_range=2.0, seed=bits)
                xn = rms_norm(model.embed[ids[:40]], model.blocks[0].attn_norm.reshape(1, -1))
                for blk in model.blocks:
                    for lin in [blk.k] * ("k" in sides) + [blk.v] * ("v" in sides):
                        lin.absorb(init_smoothing(xn @ lin.w + lin.b))
                quantize_model_weights(model)
                for n in (2, 150):
                    got = score_logits(model, ids[:n], use_cache=True)
                    want = composed_cache_path(model, ids[:n])
                    assert got.tobytes() == want.tobytes(), (bits, group, n)


class TestDivergence:
    def test_first_difference_index(self):
        assert first_divergence(np.array([1, 2, 3]), np.array([1, 2, 4])) == 2

    def test_identical_returns_length(self):
        assert first_divergence(np.array([1, 2]), np.array([1, 2, 9])) == 2


class TestReport:
    def test_fields_present(self):
        m = Model.random(tiny_config(), seed=4)
        ids = word_corpus(4)[:30]
        rep = eval_report(m, ids, fp_model=m)
        assert rep["setting"] == "fp"
        assert rep["logit_mae_vs_fp"] == 0.0
        assert rep["first_divergence_vs_fp"] >= 8
        assert rep["perplexity"] == pytest.approx(np.exp(rep["mean_nll"]))


class TestTraining:
    def test_loss_decreases(self, trained_pair):
        model, corpus = trained_pair
        fresh = Model.random(tiny_config(), seed=0)
        before = perplexity(fresh, corpus[:200])["perplexity"]
        after = perplexity(model, corpus[:200])["perplexity"]
        assert after < before / 2

    def test_smoothed_model_refused(self):
        # the trainer's KV handler would take the smoothed k/v outputs as raw
        m = smoothed(Model.random(tiny_config(), seed=0))
        before = copy.deepcopy(m)
        with pytest.raises(UsageError, match="block 0"):
            train_model(m, word_corpus(0), steps=1, batch=1, seq_len=16)
        assert np.array_equal(m.embed, before.embed)
        for b1, b2 in zip(before.blocks, m.blocks):
            for name, lin in b1.projections().items():
                assert np.array_equal(lin.w, b2.projections()[name].w), name

    @pytest.mark.parametrize("bad", [-1, 258, 10**6])
    def test_corpus_id_outside_vocabulary_rejected(self, bad):
        m = Model.random(tiny_config(), seed=0)
        corpus = word_corpus(0, 50)
        corpus[17] = bad
        embed = m.embed.copy()
        with pytest.raises(UsageError, match=f"the corpus holds token id {bad}, outside"):
            train_model(m, corpus, steps=1, batch=1, seq_len=8)
        assert np.array_equal(m.embed, embed)

    @pytest.mark.parametrize("bad, message", [
        (dict(steps=-3), "need steps >= 0, batch >= 1, seq_len >= 1; got -3, 1, 16"),
        (dict(batch=0), "need steps >= 0, batch >= 1, seq_len >= 1; got 1, 0, 16"),
        (dict(seq_len=0), "need steps >= 0, batch >= 1, seq_len >= 1; got 1, 1, 0"),
        (dict(lr=-1.0), "lr must be a finite positive number, got -1.0"),
        (dict(lr=0.0), "lr must be a finite positive number, got 0.0"),
        (dict(lr=float("nan")), "lr must be a finite positive number, got nan"),
        (dict(lr=float("inf")), "lr must be a finite positive number, got inf"),
    ])
    def test_arguments_it_cannot_train_with_refused(self, bad, message):
        # a negative lr would train uphill, and negative steps train nothing
        m = Model.random(tiny_config(), seed=0)
        embed = m.embed.copy()
        with pytest.raises(KvqError) as err:
            train_model(m, word_corpus(0), **dict(dict(steps=1, batch=1, seq_len=16), **bad))
        assert str(err.value) == message
        assert np.array_equal(m.embed, embed)

    def test_corpus_too_short_rejected(self):
        m = Model.random(tiny_config(), seed=0)
        with pytest.raises(DataFormatError):
            train_model(m, np.arange(10), steps=1, seq_len=32)

    def test_window_past_capacity_refused(self):
        # a seq_len past max_seq_len fitted windows no cache of the model holds
        m = Model.random(tiny_config(max_seq_len=16), seed=0)
        embed = m.embed.copy()
        with pytest.raises(CapacityError, match="training window of 17 tokens > max_seq_len 16"):
            train_model(m, word_corpus(0), steps=1, batch=1, seq_len=17)
        assert np.array_equal(m.embed, embed)
        train_model(m, word_corpus(0), steps=1, batch=1, seq_len=16)

    @pytest.mark.parametrize("corpus", [np.arange(40) + 0.5, (np.arange(40) % 2).astype(bool),
                                        np.arange(40).reshape(2, 20)])
    def test_corpus_of_other_types_or_shapes_refused(self, corpus):
        m = Model.random(tiny_config(), seed=0)
        embed = m.embed.copy()
        with pytest.raises(UsageError, match="the corpus must"):
            train_model(m, corpus, steps=1, batch=1, seq_len=8)
        assert np.array_equal(m.embed, embed)

    @pytest.mark.parametrize("seed", [-1, 1.0, True, None])
    def test_seed_not_an_integer_at_least_zero_refused(self, seed):
        # numpy's generators refuse a negative seed with ValueError and take
        # a bool or None; both entry points refuse them as CalibConfig does
        with pytest.raises(KvqError, match="seed must be an integer >= 0"):
            Model.random(tiny_config(), seed=seed)
        m = Model.random(tiny_config(), seed=0)
        with pytest.raises(KvqError, match="seed must be an integer >= 0"):
            train_model(m, word_corpus(0), steps=1, batch=1, seq_len=8, seed=seed)

    def test_corpus_of_one_window_trains_from_its_start(self):
        # seq_len + 1 tokens hold one window, so every draw starts at 0
        m = Model.random(tiny_config(), seed=3)
        corpus = word_corpus(3)[:17]
        want, _ = lm_grads(m.config, lm_weights(m), np.stack([corpus, corpus]))
        report = train_model(m, corpus, steps=2, batch=2, seq_len=16, seed=3)
        assert report["initial_loss"] == want
        assert report["final_loss"] < report["initial_loss"]

    def test_losses_and_weights_pinned(self):
        # the float32 losses, and the sha256 of the trained arrays, of this
        # fit as the tape gave them when every projection was a matmul op
        # plus an add op, rms_norm a chain of six ops, every first gradient
        # was copied and Adam allocated its temporaries (numpy 2.4, OpenBLAS
        # 0.3, x86-64): a change to the tape or the optimizer that moves
        # float32 rounding fails here
        m = Model.random(tiny_config(), seed=0)
        report = train_model(m, word_corpus(0), steps=6, batch=2, seq_len=16, seed=0)
        assert report["initial_loss"] == 5.584054946899414
        assert report["final_loss"] == 4.978938102722168
        digest = hashlib.sha256(b"".join(a.tobytes() for a in model_arrays(m))).hexdigest()
        assert digest == "f06eb39db7e93b71c6305b3283da75e11a7244845ee7081c5be4395508581477"

    @pytest.mark.parametrize("batch, seq_len, losses, digest", [
        (1, 16, (5.558708190917969, 5.308483123779297),
         "3168cc1471a3e2e2fb177e651904f9e16a3fa5c6dc3a5cfd380411b211ff23ae"),
        (3, 1, (5.5908732414245605, 5.360497951507568),
         "766706e0fd081df949886d32f2011e2b47a93fd8df6becbcb5af0b2033dd91c5"),
    ])
    def test_losses_and_weights_pinned_at_other_shapes(self, batch, seq_len, losses, digest):
        # as test_losses_and_weights_pinned, at one window (whose attention
        # gradients come back as strided views of their heads) and at
        # one-token windows: the float32 losses and the sha256 of the trained
        # arrays as the autodiff tape gave them (numpy 2.4, OpenBLAS 0.3,
        # x86-64)
        m = Model.random(tiny_config(), seed=0)
        report = train_model(m, word_corpus(0), steps=3, batch=batch, seq_len=seq_len, seed=1)
        assert (report["initial_loss"], report["final_loss"]) == losses
        assert hashlib.sha256(b"".join(a.tobytes() for a in model_arrays(m))).hexdigest() == digest

    def test_model_arrays_unwritten_until_write_back(self):
        # the optimizer steps its own copies, which the model holds from the
        # first step on; the model's original arrays, read-only here, are
        # never written
        m = Model.random(tiny_config(), seed=1)
        old = model_arrays(m)
        before = [a.copy() for a in old]
        for a in old:
            a.flags.writeable = False
        train_model(m, word_corpus(1), steps=2, batch=2, seq_len=16, seed=1)
        assert all(np.array_equal(a, b) for a, b in zip(old, before))
        for a, b in zip(model_arrays(m), old):
            assert not np.shares_memory(a, b) and not np.array_equal(a, b)

    def test_failed_step_keeps_last_completed_step(self, monkeypatch):
        # the model holds the optimizer's arrays from the first step, so a
        # step that raises leaves it with the arrays of the step before
        corpus = word_corpus(2)
        want = Model.random(tiny_config(), seed=2)
        train_model(want, corpus, steps=2, batch=2, seq_len=16, seed=2)
        calls = []

        def failing(*args):
            calls.append(None)
            if len(calls) == 3:
                raise NumericError("injected")
            return lm_grads(*args)

        monkeypatch.setattr(evaluate, "lm_grads", failing)
        m = Model.random(tiny_config(), seed=2)
        with pytest.raises(NumericError, match="injected"):
            train_model(m, corpus, steps=4, batch=2, seq_len=16, seed=2)
        assert all(np.array_equal(a, b) for a, b in zip(model_arrays(m), model_arrays(want)))

    def test_fit_peak_holds_one_copy_of_the_weights(self):
        # the traced peak of a fit, whose model is built inside the window
        # and held by no caller, is at most what the test measures for its
        # parts: the model (the weights once), AdamW's growth on it (its
        # copy replaces the original: two moments, two scratch rows, its
        # slots), and one step's lm_grads (a forward and backward: its kept
        # arrays and one set of gradients), plus a quarter of a weight copy
        # for the loop's own small objects.  A fit that kept the caller's
        # arrays beside the optimizer's, or the last step's gradients
        # through a forward, exceeds it by about a weight copy
        cfg = tiny_config(hidden_size=64, head_dim=32, intermediate_size=128)
        corpus = word_corpus(6)
        seqs = np.stack([corpus[:33], corpus[40:73]])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            p = lm_weights(Model.random(cfg, seed=6))
            leaves = _leaves(p)
            params = sum(a.nbytes for a in leaves)
            model = tracemalloc.get_traced_memory()[0] - before
            before += model
            opt = AdamW(leaves, 1e-3)
            adam = tracemalloc.get_traced_memory()[0] - before - params
            del opt
            lm_grads(cfg, p, seqs)  # fills the rope table
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            lm_grads(cfg, p, seqs)
            step = tracemalloc.get_traced_memory()[1] - before
            del p, leaves
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            train_model(Model.random(cfg, seed=6), corpus, steps=3, batch=2, seq_len=32, seed=6)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= model + adam + step + params // 4

    def test_training_deterministic(self):
        corpus = word_corpus(5)
        outs = []
        for _ in range(2):
            m = Model.random(tiny_config(), seed=5)
            train_model(m, corpus, steps=5, batch=2, seq_len=16, seed=5)
            outs.append(model_forward(m, corpus[:10]).data)
        assert np.array_equal(outs[0], outs[1])


class TestStackedTrainStep:
    """A train_model step runs its windows as one lm_grads pass over the
    stacked rows; lm_grads on each window alone is the reference."""

    def test_loss_and_gradients_match_per_window_mean(self):
        # measured on seed 7: loss rel diff 0.0, worst gradient diff 6.1e-7 of
        # its parameter's largest entry (tiny config, 4 windows of 32 tokens;
        # seeds 0-5: at most 8.6e-8 and 7.1e-7)
        m = Model.random(tiny_config(), seed=7)
        corpus = word_corpus(7)
        starts = np.random.default_rng(7).integers(0, len(corpus) - 33, 4)
        seqs = np.stack([corpus[a : a + 33] for a in starts])
        p = lm_weights(m)
        stacked, grads = lm_grads(m.config, p, seqs)
        per_window = [lm_grads(m.config, p, seq[None]) for seq in seqs]
        mean = sum(loss for loss, _ in per_window) / len(seqs)
        assert abs(stacked - mean) <= 1e-6 * abs(mean)
        for i, got in enumerate(_leaves(grads)):
            want = sum(np.float64(1.0) * _leaves(g)[i] for _, g in per_window) / len(seqs)
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    def test_step_draws_windows_in_order(self):
        # the batch's windows come from successive draws of the seeded
        # generator, and the first step's loss is their lm_grads loss
        m = Model.random(tiny_config(), seed=4)
        corpus = word_corpus(4)
        rng = np.random.default_rng(9)
        starts = [int(rng.integers(0, len(corpus) - 17)) for _ in range(3)]
        want, _ = lm_grads(m.config, lm_weights(m), np.stack([corpus[a : a + 17] for a in starts]))
        report = train_model(m, corpus, steps=1, batch=3, seq_len=16, seed=9)
        assert report["initial_loss"] == want
