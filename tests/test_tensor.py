import importlib.util
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import assert_float64_grads, central_diff, tiny_config, word_corpus
from kvq import evaluate
from kvq.calibration import CalibConfig, calibrate_block, collect_activations, sample_segments
from kvq.errors import DimensionError, NumericError, UsageError
from kvq.evaluate import cross_entropy, lm_grads, lm_weights, train_model
from kvq.model import (ATTN_BLOCK, Model, attention_backward, causal_attention, softmax_attention,
                       spread_kv_channels)
from kvq.tensor import (
    Tensor,
    gated_mlp,
    gated_mlp_backward,
    linear,
    linear_backward,
    rms_norm,
    rms_norm_backward,
    rope,
    round_half_away,
    softmax_causal,
)


def randn(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


def sealed(*arrs):
    """The arrays, marked read-only, so that a backward function that writes
    into one of its inputs raises."""
    for a in arrs:
        a.flags.writeable = False
    return arrs


def rms_norm_grads(w, x, gain):
    """rms_norm_backward's gradients of sum((rms_norm(x, gain) + x) * w): x
    also feeds a residual, as in a block, so its terms are summed."""
    _, r = rms_norm(x, gain, keep_r=True)
    return rms_norm_backward(*sealed(w.copy(), x.copy(), gain.copy(), r), residual=w)


def gated_mlp_grads(w, x, *weights):
    """gated_mlp_backward's gradients of sum(gated_mlp(x, *weights) * w)."""
    keep = []
    gated_mlp(x, *weights, keep=keep)
    wg, _, wu, _, wd, _ = weights
    return gated_mlp_backward(*sealed(w.copy(), x.copy(), *keep, wg.copy(), wu.copy(), wd.copy()))


def attention_grads(n_heads, seqs=1):
    """attention_backward's gradients of sum(softmax_attention(q, k, v) * w)."""
    def grads(w, q, k, v):
        _, p = softmax_attention(q, k, v, n_heads, seqs)
        return attention_backward(*sealed(w.copy(), q.copy(), k.copy(), v.copy(), p),
                                  n_heads, seqs)
    return grads


class TestRounding:
    def test_half_away_ties(self):
        # [DERIVED] ties go away from zero: 0.5 -> 1, -0.5 -> -1, 2.5 -> 3
        x = np.array([0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49, -0.49])
        expect = np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 0.0, -0.0])
        assert np.array_equal(round_half_away(x), expect)

    @given(st.floats(-1e4, 1e4))
    def test_half_away_matches_scalar_rule(self, v):
        import math

        expect = math.floor(abs(v) + 0.5) * (1 if v >= 0 else -1)
        assert round_half_away(np.array([v]))[0] == np.float32(expect)


def copysign_round(x):
    """round_half_away as it was written with np.copysign: the reference
    its sign-bit form must match byte for byte."""
    r = np.floor(np.abs(x) + 0.5)
    return np.copysign(r, x).astype(np.float32, copy=False)


class TestSignBitRounding:
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_matches_copysign_form_on_specials(self, dtype):
        # ties, +-0.0, values in (-0.5, 0.5) that round to -0.0, infinities,
        # NaN of either sign and each dtype's extremes
        info = np.finfo(dtype)
        x = np.array([0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.0, -0.0, 0.49, -0.49, -1e-3,
                      np.inf, -np.inf, np.nan, -np.nan, info.max, -info.max, info.tiny,
                      -info.tiny, info.smallest_subnormal, -info.smallest_subnormal], dtype)
        with np.errstate(over="ignore"):  # float64's extremes overflow the float32 result
            got, want = round_half_away(x), copysign_round(x)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        assert np.signbit(got[7]) and np.signbit(got[9]) and not np.signbit(got[6])

    @given(st.sampled_from([16, 32, 64]).flatmap(
        lambda w: st.tuples(st.just(w), st.lists(st.floats(width=w), min_size=1, max_size=40))))
    @settings(max_examples=200, deadline=None)
    def test_matches_copysign_form(self, case):
        width, values = case
        x = np.array(values, dtype=f"f{width // 8}")
        with np.errstate(over="ignore"):
            assert round_half_away(x).tobytes() == copysign_round(x).tobytes()
        # a strided view rounds as its copy does
        with np.errstate(over="ignore"):
            assert round_half_away(x[::2]).tobytes() == copysign_round(x[::2]).tobytes()


class TestBroadcasting:
    def test_row_vector_grad_sums(self):
        # a (1, C) bias row's gradient sums the gradient over the rows
        g = np.full((3, 4), 2.0, np.float32)
        _, _, gb = linear_backward(g, np.ones((3, 5), np.float32), np.ones((5, 4), np.float32))
        assert np.array_equal(gb, np.full((1, 4), 6.0, np.float32))

    def test_matmul_shape_error_names_both(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\) x \(2, 3\) \+ \(1, 3\)"):
            linear(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((1, 3)))


class TestGradients:
    """Each backward function against float64 central differences of its
    op's reference in tests/reference.py, or of the definition written out
    in float64."""

    def test_gated_mlp(self):
        rng = np.random.default_rng(2)
        arrs = [randn(rng, 3, 4), randn(rng, 4, 5), randn(rng, 1, 5), randn(rng, 4, 5),
                randn(rng, 1, 5), randn(rng, 5, 4), randn(rng, 1, 4)]
        assert_float64_grads(gated_mlp, gated_mlp_grads, reference.gated_mlp, arrs)

    def test_causal_attention(self):
        # two queries at positions 3 and 4 over five keys, two heads of 4
        rng = np.random.default_rng(5)
        arrs = [randn(rng, 2, 8), randn(rng, 5, 8), randn(rng, 5, 8)]
        assert_float64_grads(lambda q, k, v: softmax_attention(q, k, v, 2)[0], attention_grads(2),
                             lambda q, k, v: reference.causal_attention(q, k, v, 2), arrs)

    def test_causal_attention_matches_per_head_composition(self):
        # three queries over seven keys, four heads of 4 in one call, against
        # four one-head float64 references side by side: the runtime's
        # blocked attention and training's whole-matrix one, with its backward
        rng = np.random.default_rng(15)
        arrs = [randn(rng, 3, 16), randn(rng, 7, 16), randn(rng, 7, 16)]
        per_head = lambda q, k, v: np.concatenate(
            [reference.causal_attention(q[:, h : h + 4], k[:, h : h + 4], v[:, h : h + 4], 1)
             for h in range(0, 16, 4)], axis=1)
        want = per_head(*arrs)
        for got in (causal_attention(*arrs, 4), softmax_attention(*arrs, 4)[0]):
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
        assert_float64_grads(lambda q, k, v: softmax_attention(q, k, v, 4)[0], attention_grads(4),
                             per_head, arrs)

    def test_causal_attention_poq_diagonal_matches_rowwise(self):
        # row i attends to k, v before its column and to (k_cur[i], v_cur[i]) at it
        rng = np.random.default_rng(19)
        t, offset = 5, 3
        q, kc, vc = (randn(rng, t, 16) for _ in range(3))
        k, v = (randn(rng, offset + t, 16) for _ in range(2))
        fused = causal_attention(q, k, v, 4, (kc, vc))
        for i in range(t):
            past = slice(0, offset + i)
            ki = np.concatenate([k[past], kc[i : i + 1]])
            vi = np.concatenate([v[past], vc[i : i + 1]])
            row = causal_attention(q[i : i + 1], ki, vi, 4)
            assert np.abs(fused[i] - row[0]).max() <= 1e-6

    def test_rms_norm(self):
        # x also feeds a residual, as in a block, so its gradient terms sum
        rng = np.random.default_rng(6)
        x, gain = randn(rng, 6, 8), randn(rng, 1, 8)
        assert_float64_grads(lambda x, g: rms_norm(x, g) + x, rms_norm_grads,
                             lambda x, g: reference.rms_norm(x, g) + x, [x, gain])

    def test_rope(self):
        rng = np.random.default_rng(7)
        pos = np.arange(5)
        assert_float64_grads(lambda x: rope(x, pos), lambda w, x: [rope(w, pos, transpose=True)],
                             lambda x: reference.rotate(x, pos, 10000.0, 8), [randn(rng, 5, 8)])

    def test_rope_multi_head(self):
        rng = np.random.default_rng(16)
        pos = np.arange(3, 8)
        assert_float64_grads(lambda x: rope(x, pos, head_dim=4),
                             lambda w, x: [rope(w, pos, head_dim=4, transpose=True)],
                             lambda x: reference.rotate(x, pos, 10000.0, 4), [randn(rng, 5, 16)])

    def test_rope_multi_head_matches_per_head(self):
        # four heads of 8 in one call against four one-head float64 rotations
        rng = np.random.default_rng(17)
        pos = np.arange(9, 15)
        x = randn(rng, 6, 32)
        per_head = lambda a: np.concatenate(
            [reference.rotate(a[:, h : h + 8], pos, 10000.0, 8) for h in range(0, 32, 8)], axis=1)
        want = per_head(x)
        got = rope(x, pos, head_dim=8)
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
        assert_float64_grads(lambda a: rope(a, pos, head_dim=8),
                             lambda w, a: [rope(w, pos, head_dim=8, transpose=True)], per_head, [x])
        # against float64 rotation, also in place (out=x), and the backward
        # by -angle; over 200 draws of these shapes the largest error was
        # 1.1e-7 of the largest |output| forward and 1.2e-7 backward
        for t, width, d, start in ((1, 32, 8, 40), (7, 64, 32, 0), (130, 16, 16, 3), (0, 8, 8, 0)):
            x, g, pos = randn(rng, t, width), randn(rng, t, width), np.arange(start, start + t)
            r, gx = rope(x, pos, 500.0, d), rope(g, pos, 500.0, d, transpose=True)
            y = x.copy()
            assert rope(y, pos, 500.0, d, out=y) is y and np.array_equal(y, r)
            for got, want in ((r, reference.rotate(x, pos, 500.0, d)),
                              (gx, reference.rotate(g, -pos, 500.0, d))):
                assert np.abs(got - want).max(initial=0.0) <= 1e-6 * np.abs(want).max(initial=1.0)

    def test_cross_entropy(self):
        # the gradient to the logits against float64 central differences of
        # the mean NLL under a float64 log-softmax
        rng = np.random.default_rng(8)
        logits, tgt = randn(rng, 3, 5), np.array([2, 0, 1])

        def nll(z):
            z = z - z.max(axis=1, keepdims=True)
            return np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(3), tgt])

        want = central_diff(nll, logits, 1e-4)
        _, got = cross_entropy(*sealed(logits.copy()), tgt)
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    def test_embedding_scatter_add(self):
        # lm_grads against float64 central differences of the same loss
        # (reference.block per window) at sampled entries of every array; the
        # windows repeat ids, whose embedding rows sum every use, and rows
        # that no window reads get exactly zero.  Worst error measured
        # 2.9e-7 of each array's largest |gradient|, against 1e-4
        cfg = tiny_config(vocab_size=12)
        m = Model.random(cfg, seed=11)
        seqs = np.array([[1, 3, 3, 5, 1, 7, 3, 2, 9], [5, 5, 1, 3, 8, 2, 2, 3, 1]])
        p = lm_weights(m)
        loss, grads = lm_grads(cfg, p, seqs)

        def lm_loss64(p):
            total = 0.0
            for seq in seqs:
                x = p["embed"][seq[:-1]].astype(np.float64)
                for w in p["blocks"]:
                    x = reference.block(cfg, w, x)
                z = reference.rms_norm(x, p["final_norm"]) @ p["head_w"] + p["head_b"]
                z = z - z.max(axis=1, keepdims=True)
                total += np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(len(z)), seq[1:]])
            return total / len(seqs)

        p64 = {"embed": p["embed"].astype(np.float64),
               **{k: p[k].astype(np.float64) for k in ("final_norm", "head_w", "head_b")},
               "blocks": [{k: a.astype(np.float64) for k, a in w.items()} for w in p["blocks"]]}
        assert abs(loss - lm_loss64(p64)) <= 1e-5 * loss
        unused = np.setdiff1d(np.arange(cfg.vocab_size), seqs[:, :-1])
        assert np.all(grads["embed"][unused] == 0.0)
        rng = np.random.default_rng(11)
        pairs = [(p64, grads, k) for k in ("embed", "final_norm", "head_w", "head_b")]
        pairs += [(w64, wg, k) for w64, wg in zip(p64["blocks"], grads["blocks"]) for k in w64]
        for tree, gtree, k in pairs:
            a, g = tree[k], gtree[k]
            assert g.shape == a.shape and g.dtype == np.float32
            picks = [np.unravel_index(i, a.shape) for i in rng.choice(a.size, 4, replace=False)]
            if k == "embed":
                picks = [(3, i) for i in range(3)] + [(5, 0)]
            for i in picks:
                old = a[i]
                a[i] = old + 1e-5
                up = lm_loss64(p64)
                a[i] = old - 1e-5
                down = lm_loss64(p64)
                a[i] = old
                assert abs(g[i] - (up - down) / 2e-5) <= 1e-4 * np.abs(g).max(), (k, i)


class TestFusedOps:
    """Each backward function is bit for bit the backward of the float32
    chain of elementwise ops and products that its op replaces, in that
    chain's order, and writes into none of its inputs (they are read-only
    here)."""

    def test_linear_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(20)
        x, w, b = randn(rng, 6, 5), randn(rng, 5, 3), randn(rng, 1, 3)
        r = randn(rng, 6, 3)
        want = [r @ w.T, x.T @ r, r.sum(axis=0, keepdims=True)]
        got = linear_backward(*sealed(r.copy(), x.copy(), w.copy()))
        assert all(np.array_equal(g, e) for g, e in zip(got, want))
        assert np.array_equal(linear(x, w, b), x @ w + b)

    @pytest.mark.parametrize("shapes, raises", [
        (((6, 5), (4, 3), (1, 3)), True),  # inner dimensions differ
        (((6, 5), (5, 3), (1, 4)), True),  # bias width
        (((5,), (5, 3), (1, 3)), True),  # input not 2-d
        (((6, 5), (5, 3), (3,)), False),  # bias not a row: numpy broadcasts it
    ])
    def test_linear_shape_mismatch_raises(self, shapes, raises):
        # nothing is checked before the product: what numpy can broadcast runs
        x, w, b = (np.ones(s, np.float32) for s in shapes)
        if raises:
            with pytest.raises(DimensionError, match="linear shape mismatch"):
                linear(x, w, b)
        else:
            assert np.array_equal(linear(x, w, b), x @ w + b)

    def test_rms_norm_matches_elementwise_chain(self):
        # the chain x / sqrt(mean(x * x) + eps) * gain, op by op in float32
        # with each op's backward; x also feeds a residual, as in a block, so
        # its four gradient terms must be summed in the chain's order
        rng = np.random.default_rng(21)
        x, gain, r = randn(rng, 6, 8), randn(rng, 1, 8), randn(rng, 6, 8)
        d = np.sqrt((x * x).mean(axis=1, keepdims=True) + np.float32(1e-6))
        g_q = r * gain  # of x / d, through * gain
        g_d = (-g_q * x / (d * d)).sum(axis=1, keepdims=True)  # of d, through x / d
        g_xx = (np.broadcast_to(g_d * 0.5 / d, x.shape) / 8).astype(np.float32)  # sqrt, mean
        want = [r + g_q / d + g_xx * x + g_xx * x, (r * (x / d)).sum(axis=0, keepdims=True)]
        out, kept_r = rms_norm(x, gain, keep_r=True)
        assert np.array_equal(kept_r, d) and np.array_equal(out, x / d * gain)
        assert np.array_equal(rms_norm(x, gain), out)
        got = rms_norm_grads(r, x, gain)
        assert all(np.array_equal(g, e) for g, e in zip(got, want))
        # without a residual, x's gradient is the three terms alone
        alone = rms_norm_backward(*sealed(r.copy(), x.copy(), gain.copy(), d.copy()))[0]
        assert np.array_equal(alone, g_q / d + g_xx * x + g_xx * x)
        # against float64: the largest error over 200 draws of these shapes
        # was 1.5e-7 of the largest |output|
        for rows, c in ((1, 128), (9, 33), (300, 64)):
            x = (rng.normal(size=(rows, c)) * rng.uniform(0.01, 50)).astype(np.float32)
            gain = randn(rng, 1, c)
            want = reference.rms_norm(x, gain)
            assert np.abs(rms_norm(x, gain) - want).max() <= 1e-6 * np.abs(want).max()

    @pytest.mark.parametrize("rows", [6, 3 * 6])  # one sequence, three stacked
    def test_gated_mlp_matches_elementwise_chain(self, rows):
        # linear -> silu -> mul -> linear, op by op in float32 with each op's
        # backward; the gate and up projections' gradients to x are summed
        # in the chain's sweep order, the gate's first
        rng = np.random.default_rng(22 + rows)
        x, wg, bg, wu, bu, wd, bd = arrs = [randn(rng, rows, 8), randn(rng, 8, 12), randn(rng, 1, 12),
                                            randn(rng, 8, 12), randn(rng, 1, 12), randn(rng, 12, 8),
                                            randn(rng, 1, 8)]
        r = randn(rng, rows, 8)
        g, u = x @ wg + bg, x @ wu + bu
        s = 1.0 / (1.0 + np.exp(-g))
        a = g * s  # silu
        m = a * u
        g_m = r @ wd.T  # of m, through the down projection
        g_g = g_m * u * (s * (1.0 + g * (1.0 - s)))  # through mul, then silu
        g_u = g_m * a
        want = [g_g @ wg.T + g_u @ wu.T, x.T @ g_g, g_g.sum(axis=0, keepdims=True),
                x.T @ g_u, g_u.sum(axis=0, keepdims=True), m.T @ r, r.sum(axis=0, keepdims=True)]
        got = gated_mlp_grads(r, *arrs)
        assert all(np.array_equal(gr, e) for gr, e in zip(got, want))
        # the forward keeps g and u, and gives the chain's output with or
        # without keeping them
        keep = []
        assert np.array_equal(gated_mlp(*arrs, keep=keep), m @ wd + bd)
        assert len(keep) == 2 and np.array_equal(keep[0], g) and np.array_equal(keep[1], u)
        assert np.array_equal(gated_mlp(*arrs), m @ wd + bd)
        # act_fn takes the product
        half = lambda y: y * np.float32(0.5)
        assert np.array_equal(gated_mlp(*arrs, act_fn=half), half(m) @ wd + bd)


class TestGradientsReadOnly:
    """No backward function writes into a gradient it receives, so one
    gradient array may go to two consumers (a residual add's operands)."""

    def test_train_and_calibration_steps_write_no_gradient(self, monkeypatch):
        # a training step runs with every gradient a backward function
        # returns marked read-only, so a later write into one raises;
        # calibration takes no gradient at all
        for name in ("rms_norm_backward", "linear_backward", "gated_mlp_backward",
                     "attention_backward", "cross_entropy"):
            fn = getattr(evaluate, name)

            def sealing(*args, fn=fn, **kw):
                out = fn(*args, **kw)
                for a in out if isinstance(out, tuple) else (out,):
                    if isinstance(a, np.ndarray):
                        a.flags.writeable = False
                return out

            monkeypatch.setattr(evaluate, name, sealing)
        m = Model.random(tiny_config(), seed=2)
        report = train_model(m, word_corpus(2), steps=1, batch=2, seq_len=16, seed=2)
        assert np.isfinite(report["initial_loss"])
        monkeypatch.undo()
        spread_kv_channels(m, 1.5, seed=2)
        calib = CalibConfig(k=2, epochs=1, segments=1, seg_len=16, seed=2)
        acts = collect_activations(m, sample_segments(word_corpus(2, 200), calib))
        trace = calibrate_block(m, 0, calib, acts[0], acts[2])
        assert len(trace["losses"]) == 3 and np.all(np.isfinite(trace["losses"]))


class TestCausalMask:
    def test_masked_entries_exactly_zero(self):
        rng = np.random.default_rng(11)
        p = softmax_causal(randn(rng, 4, 4), offset=0)
        assert np.array_equal(np.triu(p, k=1), np.zeros((4, 4)))
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_offset_shifts_mask(self):
        rng = np.random.default_rng(12)
        p = softmax_causal(randn(rng, 2, 5), offset=3)
        assert p[0, 4] == 0.0 and p[1, 4] > 0.0
        assert np.all(p[0, :4] > 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            softmax_causal(np.array([[np.inf, 0.0]], np.float32))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rms_norm_rejects_non_finite_rows(self, bad):
        # rms_norm scans x only when a row's sum of squares is not finite; an
        # inf or NaN anywhere still raises NumericError naming rms_norm, and
        # finite rows whose squares overflow pass as they did (to zero)
        rng = np.random.default_rng(5)
        gain = randn(rng, 1, 8)
        for row in (0, 3):
            x = randn(rng, 4, 8)
            x[row, 5] = bad
            with pytest.raises(NumericError, match="rms_norm"):
                rms_norm(x, gain)
        x = randn(rng, 4, 8)
        x[2] = 1e30
        with np.errstate(over="ignore"):
            out = rms_norm(x, gain)
        assert np.all(out[2] == 0.0) and np.all(np.isfinite(out))

    def test_head_axis_shares_mask(self):
        rng = np.random.default_rng(18)
        scores = randn(rng, 3, 2, 5)
        per_head = [softmax_causal(scores[h].copy(), offset=2) for h in range(3)]
        assert np.array_equal(softmax_causal(scores, offset=2), np.stack(per_head))


class TestMisc:
    def test_logits_carry_no_gradient(self):
        # Tensor holds the runtime's logits; its backward, kept for the
        # benchmark's tracer, refuses
        with pytest.raises(UsageError, match="lm_grads"):
            Tensor(np.ones((2, 2), np.float32)).backward()

    def test_benchmark_bindings_kept(self, monkeypatch):
        # every attribute the benchmark's tracer replaces is bound on its
        # owner itself (tracing.py reads vars(owner)[attr])
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)
        spec.loader.exec_module(tracing)
        for owner, attr in tracing.wrapped_sites():
            assert attr in vars(owner), (owner, attr)

    def test_rope_preserves_pair_norms(self):
        rng = np.random.default_rng(13)
        x = randn(rng, 6, 8)
        y = rope(x, np.arange(6))
        n_in = x[:, :4] ** 2 + x[:, 4:] ** 2
        n_out = y[:, :4] ** 2 + y[:, 4:] ** 2
        assert np.allclose(n_in, n_out, atol=1e-5)

    def test_rope_odd_dim_rejected(self):
        with pytest.raises(DimensionError):
            rope(np.zeros((2, 3), np.float32), np.arange(2))

    # a gap, a start below 0, too few positions for the rows, then a
    # descending range, a gap at the last step, and a repeat and a gap whose
    # ends are a range's
    @pytest.mark.parametrize("positions", [[0, 2, 3], [-1, 0, 1], [0, 1], [2, 1, 0],
                                           [0, 1, 3], [0, 0, 2]])
    def test_rope_positions_must_be_contiguous(self, positions):
        with pytest.raises(DimensionError, match="contiguous"):
            rope(np.zeros((3, 8), np.float32), np.asarray(positions))

    def test_rope_position_zero_is_identity(self):
        rng = np.random.default_rng(14)
        x = randn(rng, 1, 8)
        assert np.allclose(rope(x, np.array([0])), x, atol=1e-7)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_cross_entropy_matches_log_softmax(self, seed):
        rng = np.random.default_rng(seed)
        logits = randn(rng, 4, 6)
        tgt = rng.integers(0, 6, size=4)
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        expect = -logp[np.arange(4), tgt].mean()
        got, grad = cross_entropy(logits, tgt)
        assert abs(got - expect) < 1e-5
        onehot = np.eye(6)[tgt]
        assert np.abs(grad - (np.exp(logp) - onehot) / 4).max() < 1e-6

    def test_cross_entropy_holds_one_array_beside_the_logits(self):
        # the shifted logits, their exponentials, the probabilities and the
        # gradient share one buffer: beside the logits, a call peaks at one
        # (rows, vocab) array and small slack (three arrays when each had
        # its own)
        rng = np.random.default_rng(15)
        logits = randn(rng, 512, 258)
        tgt = rng.integers(0, 258, size=512)
        tracemalloc.start()
        try:
            cross_entropy(logits, tgt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= logits.nbytes + 64 * 1024


class TestTapeRelease:
    """What the language-model loss's forward keeps for its backward (the
    arrays a tape's backward closures would hold) and when they go: each
    block keeps only what its backward functions read, and the reverse loop
    frees each block's arrays once its backward has run, so a pass holds
    the arrays of the blocks not yet swept and the gradients in flight."""

    def test_sweep_frees_activations_only_the_tape_holds(self, monkeypatch):
        # when block 0's backward starts, block 1's kept arrays are gone
        cfg = tiny_config()
        p = lm_weights(Model.random(cfg, seed=4))
        refs, alive = [], []
        forward, backward = evaluate._block_forward, evaluate._block_backward

        def recording_forward(*args):
            y, kept = forward(*args)
            refs.append([weakref.ref(a) for a in kept])
            return y, kept

        def probing_backward(cfg, w, kept, *args):
            alive.append([sum(r() is not None for r in block) for block in refs])
            return backward(cfg, w, kept, *args)

        monkeypatch.setattr(evaluate, "_block_forward", recording_forward)
        monkeypatch.setattr(evaluate, "_block_backward", probing_backward)
        lm_grads(cfg, p, np.random.default_rng(4).integers(0, 256, size=(2, 9)))
        n = len(refs[0])
        assert n == 13 and alive == [[n, n], [n, 0]]

    def test_lm_loss_forward_keeps_g_and_u_of_each_mlp(self):
        # what a block's forward keeps: of the gated MLP's (rows,
        # intermediate) arrays only g and u; of its (rows, C) arrays the two
        # rms_norm inputs, the q/k/v and o projections' inputs, the MLP's
        # normed input, q and k rotated and v; the two (rows, 1) r and the
        # probabilities.  The rms_norm input it keeps is the block's x itself
        cfg = tiny_config()
        b, t = 2, 8
        w = lm_weights(Model.random(cfg, seed=4))["blocks"][0]
        x = randn(np.random.default_rng(4), b * t, cfg.hidden_size)
        _, kept = evaluate._block_forward(cfg, w, x, np.arange(t), b)
        shapes = [a.shape for a in kept]
        assert shapes.count((b * t, cfg.intermediate_size)) == 2
        assert shapes.count((b * t, cfg.hidden_size)) == 8 and shapes.count((b * t, 1)) == 2
        assert shapes.count((b, cfg.n_heads, t, t)) == 1 and len(kept) == 13
        assert kept[0] is x

    def test_lm_loss_forward_frees_what_no_backward_reads(self, monkeypatch):
        # the o and down projections' outputs (the residual adds' operands)
        # and the MLP's product are gone once a block's forward has
        # returned, while its kept arrays live
        import kvq.tensor

        cfg = tiny_config()
        w = lm_weights(Model.random(cfg, seed=5))["blocks"][0]
        refs = {"o": [], "down": []}
        linear_ = kvq.tensor.linear

        def spy(x, wt, b):
            out = linear_(x, wt, b)
            if wt is w["o_w"] or wt is w["down_w"]:
                refs["o" if wt is w["o_w"] else "down"].append(weakref.ref(out))
            return out

        monkeypatch.setattr(evaluate, "linear", spy)
        monkeypatch.setattr(kvq.tensor, "linear", spy)
        x = randn(np.random.default_rng(5), 16, cfg.hidden_size)
        y, kept = evaluate._block_forward(cfg, w, x, np.arange(8), 2)
        assert [len(r) for r in refs.values()] == [1, 1]
        assert all(r() is None for rs in refs.values() for r in rs)
        assert all(a is not None for a in kept)

    def test_lm_loss_peak_within_tape_bound(self):
        # the traced peak of one lm_grads call, forward and backward, is at
        # most the 6.65 MB that the autodiff tape, which released each op's
        # record as its sweep passed it, peaked at for this pass (B 4, T
        # 128, 2 layers, width 64); measured 5.57 MB
        cfg = tiny_config(hidden_size=64, head_dim=32, intermediate_size=128, max_seq_len=128)
        p = lm_weights(Model.random(cfg, seed=4))
        seqs = np.random.default_rng(4).integers(0, 256, size=(4, 129))
        lm_grads(cfg, p, seqs)  # fills the rope table before tracing
        tracemalloc.start()
        try:
            lm_grads(cfg, p, seqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.65e6


class TestStackedSequences:
    """Equal-length sequences stacked as rows give each sequence's own
    result: the one-sequence call of the same op is the reference."""

    @pytest.mark.parametrize("t", [1, 5])
    def test_rope_matches_each_sequence(self, t):
        rng = np.random.default_rng(31 + t)
        b, pos = 3, np.arange(4, 4 + t)
        x, g = randn(rng, b * t, 16), randn(rng, b * t, 16)
        r, gx = rope(x, pos, 500.0, 8), rope(g, pos, 500.0, 8, transpose=True)
        for i in range(b):
            rows = slice(i * t, (i + 1) * t)
            assert np.array_equal(r[rows], rope(x[rows], pos, 500.0, 8))
            assert np.array_equal(gx[rows], rope(g[rows], pos, 500.0, 8, transpose=True))

    @pytest.mark.parametrize("t", [1, 6, ATTN_BLOCK + 2, 2 * ATTN_BLOCK + 2])
    def test_causal_attention_matches_each_sequence(self, t):
        # training's attention (output and gradients) and the runtime's,
        # whose query blocks run per sequence; at t = 1 each row attends only
        # to itself
        rng = np.random.default_rng(33 + t)
        b = 3
        arrs = [randn(rng, b * t, 16) for _ in range(3)]
        w = randn(rng, b * t, 16)
        out = softmax_attention(*arrs, 4, b)[0]
        got = attention_grads(4, b)(w, *arrs)
        stacked = causal_attention(*arrs, 4, seqs=b)
        for i in range(b):
            rows = slice(i * t, (i + 1) * t)
            one = [a[rows] for a in arrs]
            assert np.array_equal(out[rows], softmax_attention(*one, 4)[0])
            want = attention_grads(4)(w[rows], *one)
            assert np.array_equal(stacked[rows], causal_attention(*one, 4))
            for ga, gw in zip(got, want):
                assert np.array_equal(ga[rows], gw)

    @pytest.mark.parametrize("rows, positions", [(7, 2), (3, 0), (5, 10)])
    def test_rows_not_whole_sequences_rejected(self, rows, positions):
        with pytest.raises(DimensionError, match=f"{rows} rows"):
            rope(np.zeros((rows, 8), np.float32), np.arange(positions))

    def test_whole_sequences_counted(self):
        # rope takes every whole stack of sequences, each sequence at the
        # table rows of positions, and zero rows at zero positions
        for rows, positions in ((12, np.arange(3, 7)), (5, np.arange(1))):
            one = rope(np.ones((len(positions), 8), np.float32), positions)
            got = rope(np.ones((rows, 8), np.float32), positions)
            assert np.array_equal(got, np.tile(one, (rows // len(positions), 1)))
        assert rope(np.ones((0, 8), np.float32), np.arange(0)).shape == (0, 8)
