import ast
import copy
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from conftest import fitted_model, tiny_config, word_corpus
from reference import adam_step
import kvq.calibration as calibration
from kvq.calibration import (
    MAX_EPOCHS,
    AdamW,
    CalibConfig,
    at_strength,
    calibrate_block,
    calibrate_model,
    candidate_block,
    collect_activations,
    crr_loss,
    freeze_block,
    init_trainables,
    quantized_weights,
    reconstruction_loss,
    sample_segments,
)
from kvq.errors import CapacityError, DataFormatError, KvqError, UsageError
from kvq.evaluate import logit_mae
from kvq.model import Model, ModelConfig, model_forward, quantize_model_weights, spread_kv_channels
from kvq.quantizers import SmoothingParams, WeightQuantSpec


def identity(model):
    """The (K, V) smoothing of the RTN block."""
    return (SmoothingParams.identity(model.config.hidden_size),) * 2


class TestConfig:
    def test_defaults_mirror_recipe(self):
        # k 5 as the paper; a grid of 2^2 + 1 strengths, as the benchmark,
        # ablate and sweep-k run it
        c = CalibConfig()
        assert (c.k, c.epochs, MAX_EPOCHS) == (5, 2, 6)

    def test_invalid_values_rejected(self):
        with pytest.raises(KvqError):
            CalibConfig(k=0)

    @pytest.mark.parametrize("field, value", [
        ("segments", 0), ("segments", -2), ("seg_len", 0), ("epochs", -1), ("epochs", 7),
    ])
    def test_degenerate_sizes_rejected(self, field, value):
        with pytest.raises(KvqError, match=field):
            CalibConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.0), ("seed", True), ("k", True), ("k", 2.0), ("epochs", 1.5),
        ("segments", "2"), ("seg_len", None),
    ])
    def test_non_integers_and_negative_seeds_rejected(self, field, value):
        with pytest.raises(KvqError, match=field):
            CalibConfig(**{field: value})

    def test_zero_epochs_allowed(self):
        assert CalibConfig(epochs=0).epochs == 0


class TestAdamW:
    def test_first_step_matches_hand_formula(self):
        # [DERIVED] t=1: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps)
        opt = AdamW([np.array([1.0, -2.0], np.float32)], 0.1)
        opt.step([np.array([0.5, -3.0], np.float32)])
        expect = np.array([1.0, -2.0]) - 0.1 * np.sign([0.5, -3.0])
        assert np.allclose(opt.params[0], expect, atol=1e-6)

    def test_none_grad_skipped(self):
        opt = AdamW([np.array([1.0], np.float32)], 0.1)
        opt.step([None])
        assert opt.params[0][0] == 1.0

    def test_matches_float64_reference(self):
        # 20 steps of three parameters; each skips every 7th step (grad None)
        # and the grads span four decades.  Measured max |float32 - float64|:
        # 9.0e-7 over seeds 0-19 at |p| up to about 3 (a few float32 ulps)
        rng = np.random.default_rng(0)
        opt = AdamW([rng.normal(size=s).astype(np.float32) for s in ((3, 5), (1, 4), (7,))], 0.01)
        params = opt.params
        ref = [(p.astype(np.float64), 0.0, 0.0) for p in params]
        for t in range(1, 21):
            before = [p.copy() for p in params]
            grads = []
            for i, p in enumerate(params):
                scale = 10.0 ** rng.uniform(-3, 1)
                grads.append(None if (t + i) % 7 == 0
                             else (rng.normal(size=p.shape) * scale).astype(np.float32))
            opt.step(grads)
            for i, (p, g, old) in enumerate(zip(params, grads, before)):
                if g is None:
                    assert np.array_equal(p, old)
                else:
                    w, m, v = ref[i]
                    ref[i] = adam_step(w, g, m, v, t, 0.01)
                assert np.abs(p - ref[i][0]).max() <= 3e-6

    def test_owns_its_arrays(self):
        # a step updates the optimizer's copy, never the caller's array
        data = np.array([1.0, -2.0], np.float32)
        opt = AdamW([data], 0.1)
        opt.step([np.array([0.5, -3.0], np.float32)])
        p = opt.params[0]
        assert p is not data and not np.shares_memory(p, data)
        assert np.array_equal(data, [1.0, -2.0]) and not np.array_equal(p, data)

    def test_converges_on_quadratic(self):
        # mean(p * p), whose gradient is 2 p / size
        opt = AdamW([np.array([4.0], np.float32)], 0.2)
        p = opt.params[0]
        for _ in range(100):
            opt.step([2.0 * p / p.size])
        assert abs(p[0]) < 0.1


class TestLosses:
    def test_mae_and_mse(self):
        a = np.array([[1.0, 2.0]], np.float32)
        b = np.array([[0.0, 4.0]], np.float32)
        assert reconstruction_loss(a, b) == 1.5


@pytest.fixture(scope="module")
def calib_setup():
    model, corpus = fitted_model(0, steps=60, spread=1.5, kv_group_size=32)
    calib = CalibConfig(k=2, epochs=2, segments=6, seg_len=32, seed=0)
    segments = sample_segments(corpus, calib)
    acts = collect_activations(model, segments)
    return model, corpus, calib, segments, acts


class TestTrainables:
    def test_smoothing_init_from_activations(self, calib_setup):
        model, _, _, _, acts = calib_setup
        sp_k, sp_v = init_trainables(model, 0, acts[0])
        assert sp_k.s.shape == sp_v.s.shape == (model.config.hidden_size,)
        assert sp_v.s.std() > 0.0  # spread channels give varied scales

    def test_identity_when_smoothing_disabled(self, calib_setup):
        # strength 0 is identity smoothing, exactly, and strength 1 the init
        model, _, _, _, acts = calib_setup
        init = init_trainables(model, 0, acts[0])
        assert all(sp.is_identity() for sp in at_strength(init, 0.0))
        for got, sp in zip(at_strength(init, 1.0), init):
            assert np.array_equal(got.s, sp.s) and np.array_equal(got.delta, sp.delta)
        half = at_strength(init, 0.5)[1]
        assert np.allclose(half.s, np.sqrt(init[1].s), rtol=1e-6)
        assert np.array_equal(half.delta, init[1].delta * np.float32(0.5))


class TestCrrLoss:
    def test_tail_truncated_at_model_end(self, calib_setup):
        model, _, calib, _, acts = calib_setup
        last = model.config.n_layers - 1
        init = init_trainables(model, last, acts[last])
        big_k = dataclasses.replace(calib, k=10)
        loss = crr_loss(model, last, acts[last][0], init, big_k, acts[last + 1][0],
                        quantized_weights(model, last))
        assert np.isfinite(loss)

    def test_loss_scale_invariant_when_kv_unquantized(self):
        # with no token quantization, dividing W/b by s and rescaling the
        # output by s cancels exactly, so scaling s leaves the loss as it
        # is: the absorption algebra of the candidate blocks
        model, corpus = fitted_model(3, steps=30, spread=1.5, kv_bits=16)
        calib = CalibConfig(k=2, segments=4, seg_len=24, seed=0)
        acts = collect_activations(model, sample_segments(corpus, calib))
        sp_k, sp_v = init_trainables(model, 0, acts[0])
        wq = quantized_weights(model, 0)
        base = crr_loss(model, 0, acts[0][0], (sp_k, sp_v), calib, acts[2][0], wq)
        scaled = SmoothingParams(sp_v.s * np.float32(1.07), sp_v.delta)
        shifted = crr_loss(model, 0, acts[0][0], (sp_k, scaled), calib, acts[2][0], wq)
        assert abs(shifted - base) < 1e-5 * max(base, 1e-6)

    def test_smoothing_init_reduces_loss_on_spread_channels(self, calib_setup):
        # channel statistics initialization should beat identity smoothing
        # when the K/V channels have uneven magnitudes
        model, _, calib, _, acts = calib_setup
        wq = quantized_weights(model, 0)

        def mean_loss(smoothing):
            return float(np.mean([crr_loss(model, 0, x, smoothing, calib, r, wq)
                                  for x, r in zip(acts[0], acts[2])]))

        assert mean_loss(init_trainables(model, 0, acts[0])) < mean_loss(identity(model))


class TestStackedPasses:
    """Candidate losses and activations run every segment as one pass over
    the stacked rows; the one-segment call of the same code is the
    reference."""

    def test_candidate_loss_matches_per_segment_crr_loss(self, calib_setup):
        # measured relative gap: 0.0 (RTN) and 0.0 (init), 6 segments
        model, _, calib, _, acts = calib_setup
        wq = quantized_weights(model, 0)
        xs, refs = acts[0], acts[2]
        for smoothing in (identity(model), init_trainables(model, 0, xs)):
            per_segment = np.mean([crr_loss(model, 0, x, smoothing, calib, r, wq)
                                   for x, r in zip(xs, refs)])
            stacked = crr_loss(model, 0, xs, smoothing, calib, refs, wq)
            assert abs(stacked - per_segment) <= 1e-6 * per_segment

    def test_collect_activations_matches_per_segment(self, calib_setup):
        # measured: max |diff| 0.0 over every block's input and the output
        model, _, _, segments, acts = calib_setup
        assert [a.shape for a in acts] == [(len(segments), 32, model.config.hidden_size)] * 3
        for s, seg in enumerate(segments):
            alone = collect_activations(model, [seg])
            for a, b in zip(acts, alone):
                assert np.abs(a[s] - b[0]).max() <= 1e-6 * max(1.0, float(np.abs(b).max()))

    def test_collect_activations_checks_its_segments(self):
        # unchecked, float segments ran as the ids they truncated to, an id
        # of -1 read the embedding's last row, a segment past max_seq_len ran
        # past the positions a cache holds, and ragged segments raised a bare
        # ValueError
        model = Model.random(tiny_config(n_layers=1, max_seq_len=16), seed=0)
        for bad, message in [([[1.7, 2.2, 3.9]], "segment 0 must hold integer token ids"),
                             ([[1, 2, 3], [-1, 2, 3]], "segment 1 holds token id -1, outside"),
                             ([[1, 2, 3], [4, 5]], r"one length, got lengths \[2, 3\]"),
                             ([], r"one length, got lengths \[\]"),
                             ([[1, 2], []], "segment 1 is empty")]:
            with pytest.raises(UsageError, match=message):
                collect_activations(model, bad)
        with pytest.raises(CapacityError, match="segment of 40 tokens > max_seq_len 16"):
            collect_activations(model, [np.arange(40)])
        # integer segments of any width, as lists or an array's rows, run
        want = collect_activations(model, [[1, 2, 3], [4, 5, 6]])
        for segs in (np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8), [(1, 2, 3), (4, 5, 6)]):
            got = collect_activations(model, segs)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert len(collect_activations(model, [np.arange(16)])) == 2

    def test_each_candidate_scores_the_stacked_segments(self, calib_setup, monkeypatch):
        # 2^epochs + 1 candidates, each one crr_loss pass over the segments
        # as collect_activations stacked them
        model, _, calib, _, acts = calib_setup
        xs, refs = acts[0], acts[2]
        seen, loss = [], calibration.crr_loss

        def recording(m, i, x, smoothing, c, ref, wq):
            seen.append((x, ref))
            return loss(m, i, x, smoothing, c, ref, wq)

        monkeypatch.setattr(calibration, "crr_loss", recording)
        trace = calibrate_block(copy.deepcopy(model), 0, calib, xs, refs)
        assert len(seen) == len(trace["losses"]) == 2**calib.epochs + 1
        assert all(x is xs and ref is refs for x, ref in seen)


class TestCalibrateModel:
    def test_k_and_v_rounded_twice_the_other_weights_once(self, monkeypatch):
        # q, o, gate, up and down are quantized in place before a block's
        # candidates and keep those codes at freezing; k and v are rounded
        # for the candidates, Q(w), and again once freezing absorbs the
        # smoothing, Q(w / s): 9 quantize_weight calls per block, 36 on the
        # default config
        import kvq.model
        import kvq.quantizers

        calls, quantize_weight = [], kvq.quantizers.quantize_weight

        def counting(w, spec):
            calls.append(w.shape)
            return quantize_weight(w, spec)

        monkeypatch.setattr(kvq.model, "quantize_weight", counting)
        monkeypatch.setattr(kvq.quantizers, "quantize_weight", counting)
        model = Model.random(ModelConfig(), seed=0)
        calibrate_model(model, word_corpus(0), CalibConfig(k=1, epochs=1, segments=2, seg_len=16))
        assert len(calls) == 36

    def test_blocks_read_the_collected_activations_in_place(self, calib_setup, monkeypatch):
        # each block's inputs and reference are the (segments, T, C) arrays
        # collect_activations returned, not copies regrouped per segment
        model, corpus, calib, _, _ = calib_setup
        collected, received = [], []
        collect, calibrate = calibration.collect_activations, calibration.calibrate_block

        def collecting(*args):
            collected.append(collect(*args))
            return collected[-1]

        def receiving(m, i, c, x, ref):
            received.append((x, ref))
            return calibrate(m, i, c, x, ref)

        monkeypatch.setattr(calibration, "collect_activations", collecting)
        monkeypatch.setattr(calibration, "calibrate_block", receiving)
        calibrate_model(copy.deepcopy(model), corpus, dataclasses.replace(calib, epochs=0))
        (acts,) = collected
        n = model.config.n_layers
        assert len(received) == n
        for i, (x, ref) in enumerate(received):
            assert np.shares_memory(x, acts[i]) and np.shares_memory(ref, acts[min(i + calib.k, n)])

    def test_improves_over_rtn(self, calib_setup):
        model, corpus, calib, _, _ = calib_setup
        mq = copy.deepcopy(model)
        report = calibrate_model(mq, corpus, calib)
        assert mq.config.quant_mode == "weight_kv"
        assert report["mean_final_initial_ratio"] < 1.0
        assert all(not b["failed"] for b in report["blocks"])
        mr = copy.deepcopy(model)
        quantize_model_weights(mr)
        mr.config = dataclasses.replace(mr.config, quant_mode="weight_kv")
        ev = corpus[:300]
        mae_cal = logit_mae(model, mq, ev, use_cache=True)
        mae_rtn = logit_mae(model, mr, ev, use_cache=True)
        assert mae_cal < mae_rtn

    def test_blocks_frozen_with_codes(self, calib_setup):
        model, corpus, calib, _, _ = calib_setup
        mq = copy.deepcopy(model)
        calibrate_model(mq, corpus, calib)
        for blk in mq.blocks:
            for lin in blk.projections().values():
                assert lin.wq is not None
            assert blk.v.smoothing is not None

    def test_deterministic(self, calib_setup):
        model, corpus, calib, _, _ = calib_setup
        reports = []
        outs = []
        for _ in range(2):
            mq = copy.deepcopy(model)
            reports.append(calibrate_model(mq, corpus, calib))
            outs.append(model_forward(mq, corpus[:20]).data)
        assert reports[0] == reports[1]
        assert np.array_equal(outs[0], outs[1])

    def test_calibrated_model_refused_before_any_work(self, calib_setup, monkeypatch):
        # calibrating again would smooth each k/v projection a second time
        model, corpus, calib, _, _ = calib_setup
        mq = copy.deepcopy(model)
        calibrate_model(mq, corpus, dataclasses.replace(calib, epochs=1, segments=2))
        calls = []
        for name in ("collect_activations", "calibrate_block"):
            monkeypatch.setattr(calibration, name, lambda *a, name=name: calls.append(name))
        with pytest.raises(UsageError, match="block 0"):
            calibrate_model(mq, corpus, calib)
        assert calls == []

    def test_non_finite_loss_falls_back(self, calib_setup, monkeypatch):
        # a non-finite loss stops the search; the block keeps its
        # plain-rounding baseline (identity smoothing, round-to-nearest
        # codes) and fails
        model, corpus, calib, _, _ = calib_setup
        loss = calibration.crr_loss
        monkeypatch.setattr(calibration, "crr_loss", lambda *a: loss(*a) * np.float32(np.nan))
        mq = copy.deepcopy(model)
        report = calibrate_model(mq, corpus, dataclasses.replace(calib, epochs=1, segments=2))
        for blk, trace in zip(mq.blocks, report["blocks"]):
            assert trace["failed"] and trace["losses"] == [] and trace["alpha"] == 0.0
            assert np.isnan(trace["initial_loss"]) and np.isnan(trace["final_loss"])
            assert blk.k.smoothing is None and blk.v.smoothing is None
            assert all(lin.wq is not None for lin in blk.projections().values())
        assert report["mean_final_initial_ratio"] == 1.0

    def test_rtn_kept_when_the_init_ties_it(self, calib_setup, monkeypatch):
        # an init that equals RTN makes every candidate the RTN block, so
        # every loss ties and the block keeps the first, RTN itself
        model, corpus, calib, _, _ = calib_setup
        monkeypatch.setattr(calibration, "init_trainables", lambda m, i, xs: identity(m))
        mq = copy.deepcopy(model)
        report = calibrate_model(mq, corpus, calib)
        for trace in report["blocks"]:
            assert trace["losses"] == [trace["initial_loss"]] * (2**calib.epochs + 1)
            assert trace["failed"] and trace["final_loss"] == trace["initial_loss"]
        rtn = copy.deepcopy(model)
        quantize_model_weights(rtn)
        for bq, br in zip(mq.blocks, rtn.blocks):
            assert bq.k.smoothing is None and bq.v.smoothing is None
            for name, lin in bq.projections().items():
                assert np.array_equal(lin.wq.codes, br.projections()[name].wq.codes)

    def test_finer_grids_hold_the_coarser_ones(self, calib_setup):
        # the grid of epochs e + 1 holds every strength of e's, with the
        # same losses bit for bit, so no block keeps a higher loss
        model, corpus, calib, _, _ = calib_setup
        blocks = [calibrate_model(copy.deepcopy(model), corpus,
                                  dataclasses.replace(calib, epochs=e))["blocks"]
                  for e in range(4)]
        for coarse, fine in zip(blocks, blocks[1:]):
            for c, f in zip(coarse, fine):
                assert f["losses"][::2] == c["losses"]
                assert f["final_loss"] <= c["final_loss"]


class TestCalibrateBlock:
    def test_baseline_is_the_rtn_model(self, calib_setup):
        # identity smoothing scores, and freezes, exactly the weights that
        # round-to-nearest quantization gives
        model = calib_setup[0]
        rtn = copy.deepcopy(model)
        quantize_model_weights(rtn)
        for i, blk in enumerate(rtn.blocks):
            cand = candidate_block(model, i, identity(model), quantized_weights(model, i))
            for name, lin in blk.projections().items():
                assert np.array_equal(getattr(cand, name).w, lin.w)
                assert np.array_equal(getattr(cand, name).b, lin.b)
        mq = copy.deepcopy(model)
        for i in range(model.config.n_layers):
            freeze_block(mq, i, identity(model))
        for bq, br in zip(mq.blocks, rtn.blocks):
            for name, lin in bq.projections().items():
                assert np.array_equal(lin.wq.codes, br.projections()[name].wq.codes)
                assert np.array_equal(lin.w, br.projections()[name].w)

    def test_grid_ends_are_rtn_and_the_init(self, calib_setup):
        # strength 0 scores the RTN block and strength 1 the init, bit for
        # bit as crr_loss scores them
        model, _, calib, _, acts = calib_setup
        xs, refs = acts[0], acts[2]
        trace = calibrate_block(copy.deepcopy(model), 0, calib, xs, refs)
        wq = quantized_weights(model, 0)
        rtn = crr_loss(model, 0, xs, identity(model), calib, refs, wq)
        init = crr_loss(model, 0, xs, init_trainables(model, 0, xs), calib, refs, wq)
        assert trace["losses"][0] == trace["initial_loss"] == rtn
        assert trace["losses"][-1] == init
        assert trace["final_loss"] == min(trace["losses"])

    def test_losses_pinned(self):
        # the grid's losses on numpy 2.4, OpenBLAS 0.3, x86-64.  The block
        # keeps strength 0.5, between RTN and the init.  With the losses
        # taken on the tape and a trained candidate, RTN scored
        # 0.0014884390402585268 and the init 0.0010686650639399886 (each
        # rounded to float32), within 1.3e-7 relative of their array losses
        m = Model.random(tiny_config(), seed=0)
        spread_kv_channels(m, 2.0, seed=0)
        calib = CalibConfig(k=2, epochs=2, segments=2, seg_len=16, seed=0)
        acts = collect_activations(m, sample_segments(word_corpus(0, 200), calib))
        trace = calibrate_block(m, 0, calib, acts[0], acts[2])
        assert trace["losses"] == [0.001488438917675694, 0.0011436458965761176,
                                   0.001025265884777582, 0.0010416609549679379,
                                   0.0010686649299742612]
        assert trace["alpha"] == 0.5 and trace["final_loss"] == trace["losses"][2]


class TestSegments:
    def test_deterministic_and_sorted(self):
        corpus = word_corpus(7)
        c = CalibConfig(segments=5, seg_len=16, seed=9)
        a = sample_segments(corpus, c)
        b = sample_segments(corpus, c)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert len(a) == 5 and all(len(s) == 16 for s in a)

    @pytest.mark.parametrize("bad", [-1, 258])
    def test_corpus_id_outside_vocabulary_rejected(self, bad):
        m = Model.random(tiny_config(), seed=0)
        corpus = word_corpus(0, 50)
        corpus[-1] = bad
        with pytest.raises(UsageError, match=f"the corpus holds token id {bad}, outside"):
            calibrate_model(m, corpus, CalibConfig(epochs=0, segments=2, seg_len=16))
        assert m.config.quant_mode == "fp" and all(blk.k.smoothing is None for blk in m.blocks)

    def test_short_corpus_rejected(self):
        with pytest.raises(DataFormatError):
            sample_segments(np.arange(8), CalibConfig(seg_len=16))

    @pytest.mark.parametrize("seg_len, corpus, error, message", [
        (17, word_corpus(0, 50), CapacityError,
         "calibration segment of 17 tokens > max_seq_len 16"),
        (8, word_corpus(0, 50) + 0.5, UsageError, "the corpus must hold integer token ids"),
        (8, np.stack([word_corpus(0, 50)] * 2), UsageError, "the corpus must be one-dimensional"),
    ])
    def test_segments_past_capacity_or_corpus_not_ids_refused(self, seg_len, corpus, error,
                                                               message):
        # refused before any work; a segment past max_seq_len was calibrated
        # at positions no cache of the model holds, and float ids truncated
        m = Model.random(tiny_config(max_seq_len=16), seed=0)
        with pytest.raises(error, match=message):
            calibrate_model(m, corpus, CalibConfig(k=1, epochs=0, segments=1, seg_len=seg_len))
        assert m.config.quant_mode == "fp" and all(blk.k.smoothing is None for blk in m.blocks)


class TestSweep:
    def test_rows_and_eval(self, calib_setup):
        # the per-k rows of `kvq sweep-k`: every feature on, calibrated at k
        from kvq.cli import _FEATURES, _run_variant

        model, corpus, calib, _, _ = calib_setup
        c = dataclasses.replace(calib, epochs=1, segments=4)
        rows = [dict(_run_variant(model, corpus, corpus[:200], set(_FEATURES),
                                  dataclasses.replace(c, k=k)), k=k)
                for k in (1, 2)]
        assert [r["k"] for r in rows] == [1, 2]
        for r in rows:
            assert r["perplexity"] > 1.0
            assert np.isfinite(r["mean_final_loss"])
        assert rows[0]["mean_final_loss"] != rows[1]["mean_final_loss"]


class TestAblateRows:
    def test_rows_without_channel_smoothing_are_the_rtn_model(self, calib_setup, monkeypatch):
        from kvq import evaluate
        from kvq.cli import _run_variant

        model, corpus, calib, _, _ = calib_setup
        scored = []
        perplexity = evaluate.perplexity
        monkeypatch.setattr(evaluate, "perplexity",
                            lambda m, *a, **kw: scored.append(m) or perplexity(m, *a, **kw))
        for features in (set(), {"poq"}, {"2dq-token", "poq"}):
            row = _run_variant(model, corpus, corpus[:200], features, calib)
            rtn = copy.deepcopy(model)
            quantize_model_weights(rtn)
            rtn.config = dataclasses.replace(rtn.config, quant_mode="weight_kv", poq="poq" in features)
            if "2dq-token" not in features:
                rtn.config = dataclasses.replace(rtn.config, kv_bits=16)
            assert row["mean_final_loss"] is None
            assert row["perplexity"] == perplexity(rtn, corpus[:200], use_cache=True)["perplexity"]
            for bq, br in zip(scored[-1].blocks, rtn.blocks):
                assert bq.k.smoothing is None and bq.v.smoothing is None
                for name, lin in bq.projections().items():
                    assert np.array_equal(lin.wq.codes, br.projections()[name].wq.codes)


class TestKnobs:
    def test_every_calib_and_weight_spec_field_is_set(self):
        # a CalibConfig or WeightQuantSpec field that neither the CLI,
        # calibration nor the model (ModelConfig.weight_spec) ever sets is a
        # knob without traffic: delete it with its feature.  Set means a
        # keyword, or a constructor's positional argument, or an attribute
        # assignment.
        specs = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
                 for cls in (CalibConfig, WeightQuantSpec)}
        src = Path(calibration.__file__).parent
        set_fields = set()
        for name in ("cli.py", "calibration.py", "model.py"):
            for node in ast.walk(ast.parse((src / name).read_text())):
                if isinstance(node, ast.Call):
                    set_fields |= {kw.arg for kw in node.keywords}
                    called = getattr(node.func, "id", getattr(node.func, "attr", None))
                    set_fields |= set(specs.get(called, [])[: len(node.args)])
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    set_fields |= {t.attr for t in targets if isinstance(t, ast.Attribute)}
        unset = [f"{cls}.{f}" for cls, fields in specs.items() for f in fields
                 if f not in set_fields]
        assert unset == []
