import copy

import numpy as np
import pytest

from conftest import fitted_model, word_corpus
from kvq.calibration import (
    CLIP_LOGIT_INIT,
    AdamW,
    CalibConfig,
    calibrate_model,
    collect_activations,
    crr_loss,
    init_trainables,
    reconstruction_loss,
    sample_segments,
    sweep_k,
)
from kvq.errors import DataFormatError, KvqError
from kvq.evaluate import logit_mae, perplexity
from kvq.model import model_forward, quantize_model_weights
from kvq.tensor import Tensor


class TestConfig:
    def test_defaults_mirror_recipe(self):
        c = CalibConfig()
        assert (c.k, c.epochs, c.lr_smoothing, c.lr_clipping) == (5, 5, 5e-4, 1e-2)
        assert c.loss == "mae"

    def test_invalid_values_rejected(self):
        with pytest.raises(KvqError):
            CalibConfig(k=0)
        with pytest.raises(KvqError):
            CalibConfig(lr_clipping=0.0)
        with pytest.raises(KvqError):
            CalibConfig(loss="huber")


class TestAdamW:
    def test_first_step_matches_hand_formula(self):
        # [DERIVED] t=1: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps)
        p = Tensor(np.array([1.0, -2.0], np.float32), requires_grad=True)
        p.grad = np.array([0.5, -3.0], np.float32)
        opt = AdamW([([p], 0.1)])
        opt.step()
        expect = np.array([1.0, -2.0]) - 0.1 * np.sign([0.5, -3.0])
        assert np.allclose(p.data, expect, atol=1e-6)

    def test_none_grad_skipped(self):
        p = Tensor(np.array([1.0], np.float32), requires_grad=True)
        opt = AdamW([([p], 0.1)])
        opt.step()
        assert p.data[0] == 1.0

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([4.0], np.float32), requires_grad=True)
        opt = AdamW([([p], 0.2)])
        for _ in range(100):
            loss = (p * p).mean()  # p has one element
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert abs(p.data[0]) < 0.1


class TestLosses:
    def test_mae_and_mse(self):
        a = Tensor(np.array([[1.0, 2.0]], np.float32))
        b = Tensor(np.array([[0.0, 4.0]], np.float32))
        assert reconstruction_loss(a, b, "mae").item() == pytest.approx(1.5)
        assert reconstruction_loss(a, b, "mse").item() == pytest.approx(2.5)


@pytest.fixture(scope="module")
def calib_setup():
    model, corpus = fitted_model(0, steps=60, spread=1.5, kv_group_size=32)
    calib = CalibConfig(k=2, epochs=2, segments=6, seg_len=32, seed=0)
    segments = sample_segments(corpus, calib)
    acts = collect_activations(model, segments)
    return model, corpus, calib, segments, acts


class TestTrainables:
    def test_clip_logits_init(self, calib_setup):
        model, _, _, _, acts = calib_setup
        tp = init_trainables(model, 0, [a[0] for a in acts])
        assert np.all(tp.gamma_logit["q"].data == np.float32(CLIP_LOGIT_INIT))
        mapped = 1.0 / (1.0 + np.exp(-CLIP_LOGIT_INIT))
        assert mapped == pytest.approx(1.0, abs=2e-4)

    def test_smoothing_init_from_activations(self, calib_setup):
        model, _, _, _, acts = calib_setup
        tp = init_trainables(model, 0, [a[0] for a in acts])
        assert tp.s_v.data.shape == (1, model.config.hidden_size)
        assert tp.s_v.data.std() > 0.0  # spread channels give varied scales

    def test_identity_when_smoothing_disabled(self, calib_setup):
        model, _, _, _, acts = calib_setup
        tp = init_trainables(model, 0, [a[0] for a in acts], use_smoothing=False)
        assert np.all(tp.s_k.data == 1.0) and np.all(tp.d_v.data == 0.0)


class TestCrrLoss:
    def test_gradients_reach_all_parameter_kinds(self, calib_setup):
        model, _, calib, _, acts = calib_setup
        tp = init_trainables(model, 0, [a[0] for a in acts])
        loss = crr_loss(model, 0, acts[0][0], tp, calib, acts[0][2])
        loss.backward()
        assert tp.s_v.grad is not None and np.any(tp.s_v.grad != 0.0)
        assert tp.d_k.grad is not None
        assert tp.gamma_logit["q"].grad is not None
        assert np.any(tp.gamma_logit["down"].grad != 0.0)

    def test_tail_truncated_at_model_end(self, calib_setup):
        model, _, calib, _, acts = calib_setup
        last = model.config.n_layers - 1
        tp = init_trainables(model, last, [a[last] for a in acts])
        big_k = copy.deepcopy(calib)
        big_k.k = 10
        loss = crr_loss(model, last, acts[0][last], tp, big_k, acts[0][last + 1])
        assert np.isfinite(loss.item())

    def test_loss_scale_invariant_when_kv_unquantized(self):
        # with no token quantization, dividing W/b by s and rescaling the
        # output by s cancels exactly; both the loss value and its gradient
        # w.r.t. s must vanish, confirming the in-graph absorption algebra
        model, corpus = fitted_model(3, steps=30, spread=1.5, kv_bits=16)
        calib = CalibConfig(k=2, segments=4, seg_len=24, seed=0)
        acts = collect_activations(model, sample_segments(corpus, calib))
        tp = init_trainables(model, 0, [a[0] for a in acts])
        base = crr_loss(model, 0, acts[0][0], tp, calib, acts[0][2])
        base.backward()
        assert np.abs(tp.s_v.grad).max() < 1e-6
        tp2 = init_trainables(model, 0, [a[0] for a in acts])
        tp2.s_v.data *= 1.07
        shifted = crr_loss(model, 0, acts[0][0], tp2, calib, acts[0][2])
        assert abs(shifted.item() - base.item()) < 1e-5 * max(base.item(), 1e-6)

    def test_smoothing_init_reduces_loss_on_spread_channels(self, calib_setup):
        # channel statistics initialization should beat identity smoothing
        # when the K/V channels have uneven magnitudes
        model, _, calib, _, acts = calib_setup

        def mean_loss(t):
            return float(np.mean(
                [crr_loss(model, 0, a[0], t, calib, a[2]).item() for a in acts]
            ))

        identity = init_trainables(model, 0, [a[0] for a in acts], use_smoothing=False)
        smoothed = init_trainables(model, 0, [a[0] for a in acts])
        assert mean_loss(smoothed) < mean_loss(identity)


class TestCalibrateModel:
    def test_improves_over_rtn(self, calib_setup):
        model, corpus, calib, _, _ = calib_setup
        mq = copy.deepcopy(model)
        report = calibrate_model(mq, corpus, calib)
        assert mq.config.quant_mode == "weight_kv"
        assert report["mean_final_initial_ratio"] < 1.0
        assert all(not b["failed"] for b in report["blocks"])
        mr = copy.deepcopy(model)
        quantize_model_weights(mr)
        mr.config.quant_mode = "weight_kv"
        ev = corpus[:300]
        mae_cal = logit_mae(model, mq, ev, use_cache=True, mode_b="weight_kv")
        mae_rtn = logit_mae(model, mr, ev, use_cache=True, mode_b="weight_kv")
        assert mae_cal < mae_rtn

    def test_blocks_frozen_with_codes_and_clipping(self, calib_setup):
        model, corpus, calib, _, _ = calib_setup
        mq = copy.deepcopy(model)
        report = calibrate_model(mq, corpus, calib)
        init = 1.0 / (1.0 + np.exp(-CLIP_LOGIT_INIT))
        for blk, trace in zip(mq.blocks, report["blocks"]):
            for lin in blk.projections().values():
                assert lin.wq is not None
            assert blk.v.smoothing is not None and blk.v.smoothing.absorbed
            # the learned clipping lives in the codes; the report keeps its range
            for key in ("gamma", "beta"):
                lo, hi = trace["params"][key]
                assert 0.0 < lo < init < hi < 1.0

    def test_deterministic(self, calib_setup):
        model, corpus, calib, _, _ = calib_setup
        reports = []
        outs = []
        for _ in range(2):
            mq = copy.deepcopy(model)
            reports.append(calibrate_model(mq, corpus, calib))
            outs.append(model_forward(mq, corpus[:20], mode="weight_kv").data)
        assert reports[0] == reports[1]
        assert np.array_equal(outs[0], outs[1])

    def test_disabled_features_stay_untrained(self, calib_setup):
        model, corpus, calib, _, _ = calib_setup
        c = copy.deepcopy(calib)
        c.use_smoothing = False
        c.use_clipping = False
        mq = copy.deepcopy(model)
        report = calibrate_model(mq, corpus, c)
        assert mq.blocks[0].v.smoothing is None  # identity never attached
        for blk_trace in report["blocks"]:
            for key in ("gamma", "beta"):
                assert np.allclose(blk_trace["params"][key], 1.0, atol=2e-4)
        for blk_trace in report["blocks"]:
            assert blk_trace["final_loss"] == blk_trace["trajectory"][0]


class TestSegments:
    def test_deterministic_and_sorted(self):
        corpus = word_corpus(7)
        c = CalibConfig(segments=5, seg_len=16, seed=9)
        a = sample_segments(corpus, c)
        b = sample_segments(corpus, c)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert len(a) == 5 and all(len(s) == 16 for s in a)

    def test_short_corpus_rejected(self):
        with pytest.raises(DataFormatError):
            sample_segments(np.arange(8), CalibConfig(seg_len=16))


class TestSweep:
    def test_invalid_k_rejected(self, calib_setup):
        model, corpus, calib, _, _ = calib_setup
        with pytest.raises(KvqError):
            sweep_k(model, corpus, [99], calib)

    def test_rows_and_eval(self, calib_setup):
        model, corpus, calib, _, _ = calib_setup
        c = copy.deepcopy(calib)
        c.epochs = 1
        c.segments = 4
        rows = sweep_k(
            model, corpus, [1, 2], c,
            eval_fn=lambda m: perplexity(m, corpus[:200], use_cache=True)["perplexity"],
        )
        assert [r["k"] for r in rows] == [1, 2]
        for r in rows:
            assert r["perplexity"] > 1.0
            assert np.isfinite(r["mean_final_loss"])
