import copy

import numpy as np
import pytest

from conftest import tiny_config, word_corpus
from kvq.errors import CapacityError, DataFormatError, KvqError, UsageError
from kvq.evaluate import (
    BOS,
    _lm_leaves,
    encode_bytes,
    eval_report,
    first_divergence,
    lm_loss,
    lm_tensors,
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
    decode_step,
    model_forward,
    prefill,
    quantize_model_weights,
    spread_kv_channels,
)
from test_runtime import smoothed


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


# weight_activation rounds every linear-layer input to per-token codes, and a
# float32 reorder between the chunk-shaped and row-shaped matmuls can move an
# input across a rounding boundary: seed 0 at 8 bits differs by 1.4e-5.  The
# bound there is the one test_runtime puts on decode against a full forward.
TOL = {"fp": 1e-5, "weight_only": 1e-5, "weight_kv": 1e-5, "weight_activation": 1e-4}


class TestCachePathOnePass:
    """score_logits(use_cache=True) against the step-by-step cache path."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_stepwise(self, seed):
        # Rows of the step loop depend only on the tokens up to them, so one
        # loop over max_seq_len tokens is the reference for every shorter chunk.
        ids = word_corpus(seed)[: tiny_config().max_seq_len]
        for poq in (True, False):
            for kv_bits in (4, 8, 16):
                model = equivalence_model(seed, poq=poq, kv_bits=kv_bits)
                for mode in MODES:
                    model.config.quant_mode = mode
                    ref = stepwise_logits(model, ids)
                    for n in (2, 17, len(ids)):
                        got = score_logits(model, ids[:n], use_cache=True)
                        assert got.shape == (n, model.config.vocab_size)
                        assert np.abs(got - ref[:n]).max() <= TOL[mode], (poq, kv_bits, mode, n)


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

    def test_corpus_too_short_rejected(self):
        m = Model.random(tiny_config(), seed=0)
        with pytest.raises(DataFormatError):
            train_model(m, np.arange(10), steps=1, seq_len=32)

    def test_corpus_of_one_window_trains_from_its_start(self):
        # seq_len + 1 tokens hold one window, so every draw starts at 0
        m = Model.random(tiny_config(), seed=3)
        corpus = word_corpus(3)[:17]
        want = lm_loss(m.config, lm_tensors(m), np.stack([corpus, corpus]))
        report = train_model(m, corpus, steps=2, batch=2, seq_len=16, seed=3)
        assert report["initial_loss"] == want.item()
        assert report["final_loss"] < report["initial_loss"]

    def test_training_deterministic(self):
        corpus = word_corpus(5)
        outs = []
        for _ in range(2):
            m = Model.random(tiny_config(), seed=5)
            train_model(m, corpus, steps=5, batch=2, seq_len=16, seed=5)
            outs.append(model_forward(m, corpus[:10]).data)
        assert np.array_equal(outs[0], outs[1])


class TestStackedTrainStep:
    """A train_model step runs its windows as one lm_loss pass over the
    stacked rows; lm_loss on each window alone is the reference."""

    def test_loss_and_gradients_match_per_window_mean(self):
        # measured on seed 7: loss rel diff 0.0, worst gradient diff 6.1e-7 of
        # its parameter's largest entry (tiny config, 4 windows of 32 tokens;
        # seeds 0-5: at most 8.6e-8 and 7.1e-7)
        m = Model.random(tiny_config(), seed=7)
        corpus = word_corpus(7)
        starts = np.random.default_rng(7).integers(0, len(corpus) - 33, 4)
        seqs = np.stack([corpus[a : a + 33] for a in starts])
        p = lm_tensors(m)
        leaves = _lm_leaves(p)
        stacked = lm_loss(m.config, p, seqs)
        stacked.backward()
        grads = [t.grad for t in leaves]
        for t in leaves:
            t.grad = None
        per_window = [lm_loss(m.config, p, seq[None]) for seq in seqs]
        mean = per_window[0]
        for loss in per_window[1:]:
            mean = mean + loss
        mean = mean / len(seqs)
        mean.backward()
        assert abs(stacked.item() - mean.item()) <= 1e-6 * abs(mean.item())
        for got, t in zip(grads, leaves):
            assert np.abs(got - t.grad).max() <= 1e-5 * np.abs(t.grad).max()

    def test_step_draws_windows_in_order(self):
        # the batch's windows come from successive draws of the seeded
        # generator, and the first step's loss is their lm_loss
        m = Model.random(tiny_config(), seed=4)
        corpus = word_corpus(4)
        rng = np.random.default_rng(9)
        starts = [int(rng.integers(0, len(corpus) - 17)) for _ in range(3)]
        want = lm_loss(m.config, lm_tensors(m), np.stack([corpus[a : a + 17] for a in starts]))
        report = train_model(m, corpus, steps=1, batch=3, seq_len=16, seed=9)
        assert report["initial_loss"] == want.item()
