import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvq.errors import DegenerateScaleError, DimensionError, KvqError, NumericError
from kvq.quantizers import (
    QuantizedTensor,
    SmoothingParams,
    TokenQuantSpec,
    WeightQuantSpec,
    absorb_smoothing,
    apply_kv_smoothing,
    dequantize,
    fake_quant_token,
    fake_quant_weight,
    init_smoothing,
    quantize_token,
    quantize_weight,
)
from kvq.tensor import Tensor, round_half_away
from conftest import group_bounds
from tape_ops import concat_cols, maximum, slice_cols, tmax, tsum


def oracle_token(y, bits, group_size):
    """Scalar-loop reference for the per-token group quantizer."""
    t, c = y.shape
    half = 2 ** (bits - 1)
    codes = np.zeros((t, c))
    deq = np.zeros((t, c), np.float32)
    for ti in range(t):
        for a in range(0, c, group_size):
            grp = [float(y[ti, j]) for j in range(a, min(a + group_size, c))]
            m = sum(grp) / len(grp)
            spread = max(abs(v - m) for v in grp)
            n = 1.0 if spread < 1e-12 else spread / half
            for jj, v in enumerate(grp):
                if spread < 1e-12:
                    q = 0.0
                else:
                    raw = (v - m) / n
                    q = np.floor(abs(np.float32(raw)) + 0.5) * (1 if raw >= 0 else -1)
                    q = min(max(q, -half), half - 1)
                codes[ti, a + jj] = q
                deq[ti, a + jj] = np.float32(q) * np.float32(n) + np.float32(m)
    return codes, deq


def oracle_weight(w, bits, group_size):
    """Scalar-loop reference for the group-wise asymmetric weight quantizer."""
    r, c = w.shape
    hi = 2**bits - 1
    codes = np.zeros((r, c))
    for ci in range(c):
        for gi, a in enumerate(range(0, r, group_size)):
            grp = [float(w[j, ci]) for j in range(a, min(a + group_size, r))]
            top = max(grp)
            bot = min(grp)
            if (top - bot) < 1e-12:
                # constant group: unit step, zero codes, zero-point -bot
                for jj in range(len(grp)):
                    codes[a + jj, ci] = 0
                continue
            h = np.float32(top - bot) / np.float32(hi)

            def rnd(x):
                x = np.float32(x)
                return np.floor(abs(x) + 0.5) * (1 if x >= 0 else -1)

            z = -rnd(np.float32(bot) / np.float32(h))
            for jj, v in enumerate(grp):
                q = rnd(np.float32(v) / np.float32(h)) + z
                codes[a + jj, ci] = min(max(q, 0), hi)
    return codes


# -- reference: the per-group tape fake quantizer the single op replaced -----

REF_EPS = 1e-8  # the tape's floor on n; constant groups differ from the runtime


def reference_fake_quant_token(y, bits, group_size):
    """Per-group tape: codes held fixed, q * n + m."""
    half = float(2 ** (bits - 1))
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    parts = []
    for a, b in group_bounds(y.shape[1], group_size):
        block = slice_cols(y, a, b)
        m = block.mean(axis=1, keepdims=True)
        centered = block - m
        n = maximum(tmax(centered.abs(), axis=1, keepdims=True) / half, REF_EPS)
        q = Tensor(np.clip(round_half_away(centered.data / n.data), lo, hi))
        parts.append(q * n + m)
    return parts[0] if len(parts) == 1 else concat_cols(parts)


def fake_quant_cases(seed, kind):
    """(array, bits, group_size, regular) inputs for the fake-quant ops.

    Regular cases are random shapes with tail groups at bits 2/3/4/8;
    continuous random values put no input on a rounding or argmax tie.  The
    others are constant and near-constant groups (spread 0, 1e-13, 1e-9,
    1e-7) around 0 and 1.5, where the tape's floor on n and h differs from
    the runtime's constant-group rule.
    """
    rng = np.random.default_rng(seed)
    for _ in range(80):
        gs = int(rng.integers(2, 17))
        n = int(rng.integers(gs, 3 * gs + 1))
        other = int(rng.integers(1, 5))
        shape = (other, n) if kind == "token" else (n, other)
        x = (rng.normal(size=shape) * rng.uniform(0.1, 10)).astype(np.float32)
        yield x, int(rng.choice([2, 3, 4, 8])), gs, True
    for spread in (0.0, 1e-13, 1e-9, 1e-7):
        for base in (0.0, 1.5):
            x = (base + spread * rng.uniform(-1, 1, (3, 12))).astype(np.float32)
            yield (x if kind == "token" else x.T.copy()), 4, 8, False


def assert_grad_close(actual, ref, upstream, x):
    # float32 sums in another order: rtol 1e-5, plus an atol of 1e-5 times the
    # size of the summed terms, sum |upstream| * max(1, |x|)
    atol = 1e-5 * np.abs(upstream).sum() * max(1.0, float(np.abs(x).max()))
    np.testing.assert_allclose(actual, ref, rtol=1e-5, atol=atol)


class TestTokenQuant:
    def test_hand_example(self):
        # [DERIVED] y = [1, 2, 3, 10]: m = 4, spread = 6, n = 6/8 = 0.75,
        # codes = round([-3, -2, -1, 6] / 0.75) = [-4, -3, -1, 8 -> clamp 7]
        q = quantize_token(
            np.array([[1.0, 2.0, 3.0, 10.0]], np.float32), TokenQuantSpec(4, 4)
        )
        assert np.array_equal(q.codes, [[-4, -3, -1, 7]])
        assert q.m[0, 0] == 4.0 and q.n[0, 0] == 0.75
        assert np.allclose(dequantize(q), [[1.0, 1.75, 3.25, 9.25]])

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(500):
            t = int(rng.integers(1, 4))
            c = int(rng.integers(1, 13))
            gs = int(rng.integers(1, c + 1))
            bits = int(rng.choice([2, 3, 4, 8]))
            y = (rng.normal(size=(t, c)) * rng.uniform(0.1, 10)).astype(np.float32)
            q = quantize_token(y, TokenQuantSpec(bits, gs))
            codes, deq = oracle_token(y, bits, gs)
            assert np.array_equal(q.codes, codes), f"trial {trial}"
            assert np.allclose(dequantize(q), deq, atol=1e-5), f"trial {trial}"

    def test_roundtrip_error_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = (rng.normal(size=(4, 16)) * 3).astype(np.float32)
            spec = TokenQuantSpec(4, 8)
            q = quantize_token(y, spec)
            deq = dequantize(q)
            for g, (a, b) in enumerate(group_bounds(16, 8)):
                err = np.abs(deq[:, a:b] - y[:, a:b])
                codes = q.codes[:, a:b]
                unclipped = (codes > spec.code_lo) & (codes < spec.code_hi)
                bound = q.n[:, g : g + 1] / 2 + 1e-6
                assert np.all(err[unclipped] <= np.broadcast_to(bound, err.shape)[unclipped])

    def test_constant_rows_lossless(self):
        y = np.full((3, 8), 2.5, np.float32)
        q = quantize_token(y, TokenQuantSpec(4, 4))
        assert np.array_equal(q.codes, np.zeros((3, 8)))
        assert np.array_equal(dequantize(q), y)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=(8, 32)).astype(np.float32)
        spec = TokenQuantSpec(4, 8)
        a = quantize_token(y, spec)
        b = quantize_token(y.copy(), spec)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.m, b.m) and np.array_equal(a.n, b.n)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            quantize_token(np.array([[np.nan, 1.0]], np.float32), TokenQuantSpec(4, 2))

    def test_code_range(self):
        rng = np.random.default_rng(3)
        q = quantize_token(rng.normal(size=(10, 16)).astype(np.float32), TokenQuantSpec(4, 4))
        assert q.codes.min() >= -8 and q.codes.max() <= 7


class TestWeightQuant:
    def test_hand_example(self):
        # [DERIVED] w = [-1, 0, 2]: h = 3/15 = 0.2, z = -round(-1/0.2) = 5,
        # codes = round(w/0.2) + 5 = [0, 5, 15]; dequant is exact here
        q = quantize_weight(np.array([[-1.0], [0.0], [2.0]], np.float32), WeightQuantSpec(4, 3))
        assert np.array_equal(q.codes.ravel(), [0, 5, 15])
        assert q.z[0, 0] == 5.0
        assert np.allclose(q.h[0, 0], 0.2)
        assert np.allclose(dequantize(q), [[-1.0], [0.0], [2.0]], atol=1e-6)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(500):
            r = int(rng.integers(1, 10))
            c = int(rng.integers(1, 5))
            gs = int(rng.integers(1, r + 1))
            bits = int(rng.choice([2, 3, 4, 8]))
            w = (rng.normal(size=(r, c)) * rng.uniform(0.01, 5)).astype(np.float32)
            q = quantize_weight(w, WeightQuantSpec(bits, gs))
            assert np.array_equal(q.codes, oracle_weight(w, bits, gs)), f"trial {trial}"

    def test_constant_group_lossless(self):
        for value in (-3.0, 0.75, 0.0):
            w = np.full((4, 2), value, np.float32)
            q = quantize_weight(w, WeightQuantSpec(4, 4))
            assert np.array_equal(q.codes, np.zeros((4, 2)))
            assert np.array_equal(dequantize(q), w)

    def test_roundtrip_error_bound_unclipped(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = rng.normal(size=(16, 4)).astype(np.float32)
            q = quantize_weight(w, WeightQuantSpec(4, 8))
            deq = dequantize(q)
            err = np.abs(deq - w)
            for g, (a, b) in enumerate(group_bounds(16, 8)):
                bound = q.h[g][None, :] / 2 + 1e-6
                assert np.all(err[a:b] <= np.broadcast_to(bound, err[a:b].shape))

    def test_column_scale_keeps_codes(self):
        # groups run along input channels, so dividing each output column by
        # its own s > 0 leaves the codes and zero-points unchanged: this is
        # why calibration can train against Q(w) / s and freeze Q(w / s).  A
        # one-row tail group is constant, and its exact zero-point -w scales.
        rng = np.random.default_rng(16)
        for trial in range(20):
            r, c = int(rng.integers(8, 130)), int(rng.integers(1, 65))
            gs = int(rng.choice([4, 16, 32, 64]))
            bits = int(rng.choice([2, 3, 4, 8]))
            w = (rng.normal(size=(r, c)) * rng.uniform(0.01, 5)).astype(np.float32)
            s = rng.uniform(0.1, 10.0, c).astype(np.float32)
            q = quantize_weight(w, WeightQuantSpec(bits, gs))
            qs = quantize_weight(w / s, WeightQuantSpec(bits, gs))
            spread = np.array([b - a > 1 for a, b in group_bounds(r, gs)])
            assert np.array_equal(qs.codes, q.codes), f"trial {trial}"
            assert np.array_equal(qs.z[spread], q.z[spread]), f"trial {trial}"
            np.testing.assert_allclose(dequantize(qs), dequantize(q) / s, rtol=1e-5)

    def test_codes_dtype_and_range(self):
        rng = np.random.default_rng(7)
        q = quantize_weight(rng.normal(size=(12, 3)).astype(np.float32), WeightQuantSpec(4, 4))
        assert q.codes.dtype == np.uint8
        assert q.codes.max() <= 15

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            quantize_weight(np.array([[np.inf]], np.float32), WeightQuantSpec(4, 1))


class TestSmoothing:
    def test_absorption_roundtrip_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            cin, cout = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            w = rng.normal(size=(cin, cout)).astype(np.float32)
            b = rng.normal(size=(1, cout)).astype(np.float32)
            x = rng.normal(size=(5, cin)).astype(np.float32)
            y = x @ w + b
            sp = init_smoothing(y)
            w_t, b_t = absorb_smoothing(w, b, sp)
            y_smoothed = x @ w_t + b_t
            back = apply_kv_smoothing(y_smoothed, sp, "to_raw")
            assert np.abs(back - y).max() < 1e-4 * max(1e-12, np.abs(y).max())

    def test_smoothed_channels_normalized(self):
        rng = np.random.default_rng(9)
        y = (rng.normal(size=(50, 6)) * np.exp(np.linspace(-2, 2, 6))).astype(np.float32)
        sp = init_smoothing(y)
        ys = apply_kv_smoothing(y, sp, "to_smoothed")
        dev = np.abs(ys - ys.mean(axis=0)).max(axis=0)
        assert dev.max() < 1.3  # all channels roughly unit deviation

    def test_double_absorb_rejected(self):
        sp = init_smoothing(np.random.default_rng(10).normal(size=(4, 3)).astype(np.float32))
        w = np.ones((2, 3), np.float32)
        b = np.zeros((1, 3), np.float32)
        absorb_smoothing(w, b, sp)
        with pytest.raises(KvqError):
            absorb_smoothing(w, b, sp)

    def test_scale_floor_enforced(self):
        sp = SmoothingParams(np.array([1.0, 1e-9]), np.zeros(2))
        with pytest.raises(DegenerateScaleError):
            sp.check_scale()

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            SmoothingParams(np.ones(3), np.zeros(2))
        sp = init_smoothing(np.ones((2, 3), np.float32) + np.eye(2, 3, dtype=np.float32))
        with pytest.raises(DimensionError):
            absorb_smoothing(np.ones((2, 4), np.float32), np.zeros((1, 4), np.float32), sp)


class TestFakeQuant:
    def test_token_fake_matches_integer_path(self):
        # forward bit-identical to the runtime; gradient equal to the tape's
        rng = np.random.default_rng(11)
        for y0, bits, gs, regular in fake_quant_cases(11, "token"):
            upstream = rng.normal(size=y0.shape).astype(np.float32)
            y = Tensor(y0, requires_grad=True)
            fake = fake_quant_token(y, bits, gs)
            real = dequantize(quantize_token(y0, TokenQuantSpec(bits, gs)))
            assert np.array_equal(fake.data, real)
            tsum(fake * Tensor(upstream)).backward()
            assert np.all(np.isfinite(y.grad))
            if regular:
                ref = Tensor(y0, requires_grad=True)
                tsum(reference_fake_quant_token(ref, bits, gs) * Tensor(upstream)).backward()
                assert_grad_close(y.grad, ref.grad, upstream, y0)

    def test_weight_fake_matches_integer_path(self):
        # the runtime's rounding as floats, constant and tail groups included
        for w0, bits, gs, _ in fake_quant_cases(12, "weight"):
            expected = dequantize(quantize_weight(w0, WeightQuantSpec(bits, gs)))
            assert np.array_equal(fake_quant_weight(w0, bits, gs), expected)

    def test_token_fake_gradient_flows(self):
        rng = np.random.default_rng(13)
        y = Tensor(rng.normal(size=(2, 8)).astype(np.float32), requires_grad=True)
        tsum(fake_quant_token(y, 4, 4)).backward()
        assert y.grad is not None and np.all(np.isfinite(y.grad))

    def test_token_fake_gradient_holds_codes_fixed(self):
        # with the codes q held fixed, each token group computes q * n + m, so
        # the gradient is the exact local derivative q * dn + dm
        rng = np.random.default_rng(15)
        bits, gs, half = 4, 4, 8.0
        y0 = rng.normal(size=(3, 11)).astype(np.float32)  # groups 4, 4 and a tail of 3
        upstream = rng.normal(size=(3, 11)).astype(np.float32)
        y = Tensor(y0, requires_grad=True)
        tsum(fake_quant_token(y, bits, gs) * Tensor(upstream)).backward()
        qt = quantize_token(y0, TokenQuantSpec(bits, gs))
        expected = np.zeros((3, 11))
        for g, (a, b) in enumerate(group_bounds(11, gs)):
            centered = y0[:, a:b] - y0[:, a:b].mean(axis=1, keepdims=True)
            u = centered / qt.n[:, g : g + 1]
            # codes and the |y - m| argmax are stable under a small move
            assert np.abs(np.abs(u - np.trunc(u)) - 0.5).min() > 1e-3
            top2 = np.sort(np.abs(centered), axis=1)[:, -2:]
            assert np.all(top2[:, 1] - top2[:, 0] > 1e-2)
            peak = np.abs(centered).argmax(axis=1)
            sign = np.sign(centered[np.arange(3), peak])[:, None]
            onehot = np.eye(b - a)[peak]
            dn = sign * (onehot - 1.0 / (b - a)) / half  # d n / d y_k
            gq = (upstream[:, a:b] * qt.codes[:, a:b]).sum(axis=1, keepdims=True)
            dm = upstream[:, a:b].sum(axis=1, keepdims=True) / (b - a)
            expected[:, a:b] = gq * dn + dm
        np.testing.assert_allclose(y.grad, expected, rtol=1e-5, atol=1e-6)


class TestGroupBounds:
    def test_partial_tail(self):
        assert group_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_invalid_group_size(self):
        with pytest.raises(KvqError):
            group_bounds(4, 0)

    @given(st.integers(1, 64), st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_partition_covers_everything(self, n, gs):
        bounds = group_bounds(n, gs)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        for (a1, b1), (a2, b2) in zip(bounds, bounds[1:]):
            assert b1 == a2


class TestContainer:
    def test_unknown_kind_rejected(self):
        q = QuantizedTensor("bogus", np.zeros((2, 2), np.int8), 4, 2)
        with pytest.raises(KvqError):
            dequantize(q)
