import ast
import copy
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from conftest import fitted_model, tiny_config, word_corpus
import kvq.calibration as calibration
from kvq.calibration import (
    AdamW,
    BlockTrainables,
    CalibConfig,
    calibrate_block,
    calibrate_model,
    collect_activations,
    crr_loss,
    fake_block_weights,
    freeze_block,
    init_trainables,
    quantized_weights,
    reconstruction_loss,
    sample_segments,
)
from kvq.errors import DataFormatError, KvqError, UsageError
from kvq.evaluate import logit_mae
from kvq.model import Model, model_forward, quantize_model_weights, spread_kv_channels
from kvq.quantizers import WeightQuantSpec
from kvq.tensor import Tensor


class TestConfig:
    def test_defaults_mirror_recipe(self):
        c = CalibConfig()
        assert (c.k, c.epochs, c.lr_smoothing) == (5, 5, 5e-4)

    def test_invalid_values_rejected(self):
        with pytest.raises(KvqError):
            CalibConfig(k=0)
        with pytest.raises(KvqError):
            CalibConfig(lr_smoothing=0.0)

    @pytest.mark.parametrize("field, value", [
        ("segments", 0), ("segments", -2), ("seg_len", 0), ("epochs", -1),
    ])
    def test_degenerate_sizes_rejected(self, field, value):
        with pytest.raises(KvqError, match=field):
            CalibConfig(**{field: value})

    def test_zero_epochs_allowed(self):
        assert CalibConfig(epochs=0).epochs == 0


class TestAdamW:
    def test_first_step_matches_hand_formula(self):
        # [DERIVED] t=1: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps)
        p = Tensor(np.array([1.0, -2.0], np.float32), requires_grad=True)
        p.grad = np.array([0.5, -3.0], np.float32)
        opt = AdamW([p], 0.1)
        opt.step()
        expect = np.array([1.0, -2.0]) - 0.1 * np.sign([0.5, -3.0])
        assert np.allclose(p.data, expect, atol=1e-6)

    def test_none_grad_skipped(self):
        p = Tensor(np.array([1.0], np.float32), requires_grad=True)
        opt = AdamW([p], 0.1)
        opt.step()
        assert p.data[0] == 1.0

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([4.0], np.float32), requires_grad=True)
        opt = AdamW([p], 0.2)
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
        assert reconstruction_loss(a, b).item() == pytest.approx(1.5)


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
        tp = init_trainables(model, 0, [a[0] for a in acts])
        assert tp.s_v.data.shape == (1, model.config.hidden_size)
        assert tp.s_v.data.std() > 0.0  # spread channels give varied scales

    def test_identity_when_smoothing_disabled(self, calib_setup):
        model, _, _, _, acts = calib_setup
        tp = BlockTrainables.identity(model.config.hidden_size)
        assert np.all(tp.s_k.data == 1.0) and np.all(tp.d_v.data == 0.0)


class TestCrrLoss:
    def test_gradients_reach_all_parameter_kinds(self, calib_setup):
        model, _, calib, _, acts = calib_setup
        tp = init_trainables(model, 0, [a[0] for a in acts])
        wq = quantized_weights(model, 0)
        loss = crr_loss(model, 0, acts[0][0], tp, calib, acts[0][2], wq)
        loss.backward()
        assert tp.s_v.grad is not None and np.any(tp.s_v.grad != 0.0)
        assert tp.d_k.grad is not None

    def test_tail_truncated_at_model_end(self, calib_setup):
        model, _, calib, _, acts = calib_setup
        last = model.config.n_layers - 1
        tp = init_trainables(model, last, [a[last] for a in acts])
        big_k = copy.deepcopy(calib)
        big_k.k = 10
        loss = crr_loss(model, last, acts[0][last], tp, big_k, acts[0][last + 1],
                        quantized_weights(model, last))
        assert np.isfinite(loss.item())

    def test_loss_scale_invariant_when_kv_unquantized(self):
        # with no token quantization, dividing W/b by s and rescaling the
        # output by s cancels exactly; both the loss value and its gradient
        # w.r.t. s must vanish, confirming the in-graph absorption algebra
        model, corpus = fitted_model(3, steps=30, spread=1.5, kv_bits=16)
        calib = CalibConfig(k=2, segments=4, seg_len=24, seed=0)
        acts = collect_activations(model, sample_segments(corpus, calib))
        tp = init_trainables(model, 0, [a[0] for a in acts])
        wq = quantized_weights(model, 0)
        base = crr_loss(model, 0, acts[0][0], tp, calib, acts[0][2], wq)
        base.backward()
        assert np.abs(tp.s_v.grad).max() < 1e-6
        tp2 = init_trainables(model, 0, [a[0] for a in acts])
        tp2.s_v.data *= 1.07
        shifted = crr_loss(model, 0, acts[0][0], tp2, calib, acts[0][2], wq)
        assert abs(shifted.item() - base.item()) < 1e-5 * max(base.item(), 1e-6)

    def test_smoothing_init_reduces_loss_on_spread_channels(self, calib_setup):
        # channel statistics initialization should beat identity smoothing
        # when the K/V channels have uneven magnitudes
        model, _, calib, _, acts = calib_setup
        wq = quantized_weights(model, 0)

        def mean_loss(t):
            return float(np.mean(
                [crr_loss(model, 0, a[0], t, calib, a[2], wq).item() for a in acts]
            ))

        identity = BlockTrainables.identity(model.config.hidden_size)
        smoothed = init_trainables(model, 0, [a[0] for a in acts])
        assert mean_loss(smoothed) < mean_loss(identity)


class TestStackedPasses:
    """Candidate losses and activations run every segment as one pass over
    the stacked rows; the one-segment call of the same code is the
    reference."""

    def test_candidate_loss_matches_per_segment_crr_loss(self, calib_setup):
        # measured relative gap: 4.8e-8 (RTN) and 1.3e-8 (init), 6 segments
        model, _, calib, _, acts = calib_setup
        wq = quantized_weights(model, 0)
        xs, refs = [a[0] for a in acts], [a[2] for a in acts]
        for tp in (BlockTrainables.identity(model.config.hidden_size),
                   init_trainables(model, 0, xs)):
            per_segment = np.mean([crr_loss(model, 0, x, tp, calib, r, wq).item()
                                   for x, r in zip(xs, refs)])
            stacked = crr_loss(model, 0, np.stack(xs), tp.detached(), calib, np.stack(refs), wq)
            assert not stacked.requires_grad  # no tape recorded
            assert abs(stacked.item() - per_segment) <= 1e-6 * per_segment

    def test_collect_activations_matches_per_segment(self, calib_setup):
        # measured: max |diff| 0.0 over every block's input and the output
        model, _, _, segments, acts = calib_setup
        for seg, stacked in zip(segments, acts):
            (alone,) = collect_activations(model, [seg])
            for a, b in zip(stacked, alone):
                assert np.abs(a - b).max() <= 1e-6 * max(1.0, float(np.abs(b).max()))

    def test_one_adam_step_per_segment_in_order(self, calib_setup, monkeypatch):
        # the three candidates take the stacked segments; training takes
        # epochs * segments steps, one segment each, in order
        model, _, calib, _, acts = calib_setup
        xs, refs = [a[0] for a in acts], [a[2] for a in acts]
        seen, loss = [], calibration.crr_loss

        def recording(m, i, x, *rest):
            seen.append(x)
            return loss(m, i, x, *rest)

        monkeypatch.setattr(calibration, "crr_loss", recording)
        calibrate_block(copy.deepcopy(model), 0, calib, xs, refs)
        stacked = [x for x in seen if x.ndim == 3]
        steps = [x for x in seen if x.ndim == 2]
        assert len(stacked) == 3 and all(np.array_equal(x, np.stack(xs)) for x in stacked)
        assert len(steps) == calib.epochs * len(xs)
        assert all(x is xs[j % len(xs)] for j, x in enumerate(steps))


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
            assert blk.v.smoothing is not None and blk.v.smoothing.absorbed

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
        # a non-finite loss stops training; the block keeps its plain-rounding
        # baseline (identity smoothing, round-to-nearest codes) and fails
        model, corpus, calib, _, _ = calib_setup
        loss = calibration.crr_loss
        monkeypatch.setattr(calibration, "crr_loss", lambda *a: loss(*a) * np.float32(np.nan))
        mq = copy.deepcopy(model)
        report = calibrate_model(mq, corpus, dataclasses.replace(calib, epochs=1, segments=2))
        for blk, trace in zip(mq.blocks, report["blocks"]):
            assert trace["failed"] and trace["trajectory"] == []
            assert np.isnan(trace["initial_loss"]) and np.isnan(trace["final_loss"])
            assert blk.k.smoothing is None and blk.v.smoothing is None
            assert all(lin.wq is not None for lin in blk.projections().values())
        assert report["mean_final_initial_ratio"] == 1.0

    def test_one_training_run_and_rtn_kept_when_training_overshoots(self, calib_setup,
                                                                   monkeypatch):
        # an init that equals RTN ties with it, and a learning rate this large
        # ends training above both: the block trains once and freezes RTN
        model, corpus, calib, _, _ = calib_setup
        runs = []

        class CountingAdamW(AdamW):
            def __init__(self, *args):
                runs.append(1)
                super().__init__(*args)

        monkeypatch.setattr(calibration, "AdamW", CountingAdamW)
        monkeypatch.setattr(calibration, "init_trainables",
                            lambda m, i, xs: BlockTrainables.identity(m.config.hidden_size))
        mq = copy.deepcopy(model)
        report = calibrate_model(mq, corpus, dataclasses.replace(calib, lr_smoothing=1.0))
        assert len(runs) == model.config.n_layers
        for trace in report["blocks"]:
            assert trace["trained_loss"] > trace["initial_loss"] == trace["trajectory"][0]
            assert trace["failed"] and trace["final_loss"] == trace["initial_loss"]
        rtn = copy.deepcopy(model)
        quantize_model_weights(rtn)
        for bq, br in zip(mq.blocks, rtn.blocks):
            assert bq.k.smoothing is None and bq.v.smoothing is None
            for name, lin in bq.projections().items():
                assert np.array_equal(lin.wq.codes, br.projections()[name].wq.codes)


class TestCalibrateBlock:
    def test_baseline_is_the_rtn_model(self, calib_setup):
        # identity smoothing trains against, and freezes, exactly the weights
        # that round-to-nearest quantization gives
        model = calib_setup[0]
        rtn = copy.deepcopy(model)
        quantize_model_weights(rtn)
        identity = BlockTrainables.identity(model.config.hidden_size)
        for i, blk in enumerate(rtn.blocks):
            w = fake_block_weights(model, i, identity, quantized_weights(model, i))
            for name, lin in blk.projections().items():
                assert np.array_equal(w[f"{name}_w"].data, lin.w)
                assert np.array_equal(w[f"{name}_b"].data, lin.b)
        mq = copy.deepcopy(model)
        for i in range(model.config.n_layers):
            freeze_block(mq, i, identity)
        for bq, br in zip(mq.blocks, rtn.blocks):
            for name, lin in bq.projections().items():
                assert np.array_equal(lin.wq.codes, br.projections()[name].wq.codes)
                assert np.array_equal(lin.w, br.projections()[name].w)

    def test_losses_unchanged_by_the_runtime_leaving_the_tape(self):
        # calibration records block_core and block_forward on the tape; these
        # are the float32 losses it gave when the runtime forward ran on the
        # tape as well, with the weight clipping held at exactly 1 (its
        # removal changed only float rounding after the first loss), on
        # numpy 2.4, OpenBLAS 0.3, x86-64; summing the loss in float64 moved
        # three of them by at most 1.2e-10.  The three candidate losses
        # (initial, trajectory[0], trained) are one float32 loss over both
        # segments stacked, no longer the float64 mean of two per-segment
        # float32 losses: that moved two of them by at most 5.8e-11 (half a
        # float32 ulp), and the epoch means are unchanged
        m = Model.random(tiny_config(), seed=0)
        spread_kv_channels(m, 2.0, seed=0)
        calib = CalibConfig(k=2, epochs=2, segments=2, seg_len=16, seed=0)
        acts = collect_activations(m, sample_segments(word_corpus(0, 200), calib))
        trace = calibrate_block(m, 0, calib, [a[0] for a in acts], [a[2] for a in acts])
        assert trace["initial_loss"] == 0.0014884390402585268
        assert trace["trained_loss"] == 0.0010898264590650797
        # training ends above its init, so the block keeps the init
        assert trace["final_loss"] == trace["trajectory"][0] == 0.0010686650639399886
        assert trace["trajectory"] == [0.0010686650639399886, 0.0010672364151105285,
                                       0.0010893236903939396]


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
            rtn.config.quant_mode = "weight_kv"
            rtn.config.poq = "poq" in features
            if "2dq-token" not in features:
                rtn.config.kv_bits = 16
            assert row["mean_final_loss"] is None
            assert row["perplexity"] == perplexity(rtn, corpus[:200], use_cache=True)["perplexity"]
            for bq, br in zip(scored[-1].blocks, rtn.blocks):
                assert bq.k.smoothing is None and bq.v.smoothing is None
                for name, lin in bq.projections().items():
                    assert np.array_equal(lin.wq.codes, br.projections()[name].wq.codes)


class TestKnobs:
    def test_every_calib_and_weight_spec_field_is_set(self):
        # a CalibConfig or WeightQuantSpec field that neither the CLI nor
        # calibration ever sets is a knob without traffic: delete it with its
        # feature.  Set means a keyword, or a constructor's positional
        # argument, or an attribute assignment.
        specs = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
                 for cls in (CalibConfig, WeightQuantSpec)}
        src = Path(calibration.__file__).parent
        set_fields = set()
        for name in ("cli.py", "calibration.py"):
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
