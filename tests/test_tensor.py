import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvq.errors import DegenerateScaleError, DimensionError, KvqError, NumericError
from kvq.model import ATTN_BLOCK, causal_attention
from kvq.tensor import (
    Tensor,
    cross_entropy,
    embedding,
    rms_norm,
    rope,
    round_half_away,
    sequences,
    softmax_causal,
)
from tape_ops import concat_cols, concat_rows, slice_cols, slice_rows, tmax, tsum


def finite_diff(f, arrs, eps=1e-3):
    """Central finite differences of a scalar function of float32 arrays."""
    grads = []
    for i, a in enumerate(arrs):
        g = np.zeros_like(a, dtype=np.float64)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index

            def ev(v):
                mods = [x.copy() for x in arrs]
                mods[i][idx] = v
                return f(*[Tensor(x) for x in mods]).item()

            g[idx] = (ev(a[idx] + eps) - ev(a[idx] - eps)) / (2 * eps)
        grads.append(g)
    return grads


def check_grads(f, arrs, tol=2e-2):
    ts = [Tensor(a, requires_grad=True) for a in arrs]
    f(*ts).backward()
    fd = finite_diff(f, arrs)
    for t, g in zip(ts, fd):
        scale = max(1.0, float(np.abs(g).max()))
        assert np.abs(t.grad - g).max() / scale < tol


def randn(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


# -- per-head reference: the composition the all-heads ops replace ------------


def transpose_op(a):
    def backward(g, a=a):
        if a.requires_grad:
            a._accum(g.T)

    return Tensor._from_op(a.data.T.copy(), (a,), backward)


def softmax_causal_op(scores, offset):
    p = softmax_causal(scores.data.copy(), offset)

    def backward(g, a=scores, p=p):
        if a.requires_grad:
            a._accum(p * (g - (g * p).sum(axis=1, keepdims=True)))

    return Tensor._from_op(p, (scores,), backward)


def per_head_rope(x, positions, head_dim):
    d = head_dim
    return concat_cols([rope(slice_cols(x, h * d, (h + 1) * d), positions)
                        for h in range(x.shape[1] // d)])


def per_head_attention(q, k, v, n_heads, offset):
    d = q.shape[1] // n_heads
    heads = []
    for h in range(n_heads):
        qh, kh, vh = (slice_cols(a, h * d, (h + 1) * d) for a in (q, k, v))
        scores = (qh @ transpose_op(kh)) * np.float32(1.0 / np.sqrt(d))
        heads.append(softmax_causal_op(scores, offset) @ vh)
    return concat_cols(heads)


def grads_of(f, arrs):
    ts = [Tensor(a, requires_grad=True) for a in arrs]
    out = f(*ts)
    out.backward()
    return out.data, [t.grad for t in ts]


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


class TestBroadcasting:
    def test_row_and_col_vectors(self):
        rng = np.random.default_rng(0)
        x = randn(rng, 3, 4)
        row = randn(rng, 1, 4)
        col = randn(rng, 3, 1)
        assert np.allclose((Tensor(x) + Tensor(row)).data, x + row)
        assert np.allclose((Tensor(x) * Tensor(col)).data, x * col)

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((3, 4))) + Tensor(np.zeros((4, 3)))
        with pytest.raises(DimensionError):
            Tensor(np.zeros((3, 4))) * Tensor(np.zeros((2, 4)))

    def test_row_vector_grad_sums(self):
        x = Tensor(np.ones((3, 4), np.float32))
        b = Tensor(np.zeros((1, 4), np.float32), requires_grad=True)
        tsum((x + b) * 2.0).backward()
        assert np.array_equal(b.grad, np.full((1, 4), 6.0, np.float32))

    def test_matmul_shape_error_names_both(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))


class TestGradients:
    def test_arithmetic_chain(self):
        rng = np.random.default_rng(1)
        check_grads(
            lambda a, b: tsum((a * b + a - b) / (b * b + 2.0)),
            [randn(rng, 3, 4), randn(rng, 3, 4)],
        )

    def test_matmul_silu_mean(self):
        rng = np.random.default_rng(2)
        check_grads(
            lambda a, b: (a @ b).silu().mean(),
            [randn(rng, 3, 4), randn(rng, 4, 5)],
        )

    def test_exp_sqrt_abs(self):
        rng = np.random.default_rng(3)
        x = np.abs(randn(rng, 3, 3)) + 0.5
        check_grads(lambda a: tsum(a.sqrt() + a.abs()), [x])

    def test_reductions(self):
        rng = np.random.default_rng(4)
        check_grads(
            lambda a: (a * tsum(a, axis=1, keepdims=True) + a.mean(axis=0, keepdims=True)).mean(),
            [randn(rng, 3, 4)],
        )

    def test_max_routes_to_first_argmax(self):
        x = Tensor(np.array([[1.0, 3.0, 3.0]], np.float32), requires_grad=True)
        tmax(x).backward()
        assert np.array_equal(x.grad, np.array([[0.0, 1.0, 0.0]], np.float32))

    def test_causal_attention(self):
        # two queries at positions 3 and 4 over five keys, two heads of 4
        rng = np.random.default_rng(5)
        w = Tensor(randn(rng, 2, 8))
        check_grads(
            lambda q, k, v: tsum(causal_attention(q, k, v, 2) * w),
            [randn(rng, 2, 8), randn(rng, 5, 8), randn(rng, 5, 8)],
        )

    def test_causal_attention_matches_per_head_composition(self):
        rng = np.random.default_rng(15)
        arrs = [randn(rng, 3, 16), randn(rng, 7, 16), randn(rng, 7, 16)]
        w = Tensor(randn(rng, 3, 16))
        fused = grads_of(lambda q, k, v: tsum(causal_attention(q, k, v, 4) * w), arrs)
        ref = grads_of(lambda q, k, v: tsum(per_head_attention(q, k, v, 4, 4) * w), arrs)
        assert abs(fused[0] - ref[0]) <= 1e-6 * max(1.0, abs(float(ref[0])))
        for a, b in zip(fused[1], ref[1]):
            assert np.abs(a - b).max() <= 1e-6 * max(1.0, float(np.abs(b).max()))

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
        rng = np.random.default_rng(6)
        check_grads(
            lambda x, g: (rms_norm(x, g) * rms_norm(x, g)).mean(),
            [randn(rng, 3, 4), randn(rng, 1, 4)],
        )

    def test_rope(self):
        rng = np.random.default_rng(7)
        pos = np.arange(5)
        check_grads(lambda x: tsum(rope(x, pos) * rope(x, pos)), [randn(rng, 5, 8)])

    def test_rope_multi_head(self):
        rng = np.random.default_rng(16)
        pos = np.arange(3, 8)
        w = Tensor(randn(rng, 5, 16))
        check_grads(lambda x: tsum(rope(x, pos, head_dim=4) * w), [randn(rng, 5, 16)])

    def test_rope_multi_head_matches_per_head(self):
        rng = np.random.default_rng(17)
        pos = np.arange(9, 15)
        x = randn(rng, 6, 32)
        w = Tensor(randn(rng, 6, 32))
        fused = grads_of(lambda a: tsum(rope(a, pos, head_dim=8) * w), [x])
        ref = grads_of(lambda a: tsum(per_head_rope(a, pos, 8) * w), [x])
        assert np.array_equal(rope(Tensor(x), pos, head_dim=8).data,
                              per_head_rope(Tensor(x), pos, 8).data)
        assert np.array_equal(fused[1][0], ref[1][0])

    def test_cross_entropy(self):
        rng = np.random.default_rng(8)
        tgt = np.array([2, 0, 1])
        check_grads(lambda x: cross_entropy(x, tgt), [randn(rng, 3, 5)])

    def test_embedding_scatter_add(self):
        table = Tensor(np.zeros((4, 3), np.float32), requires_grad=True)
        tsum(embedding(table, np.array([1, 1, 3]))).backward()
        expect = np.zeros((4, 3), np.float32)
        expect[1] = 2.0
        expect[3] = 1.0
        assert np.array_equal(table.grad, expect)

    def test_concat_and_slices(self):
        rng = np.random.default_rng(9)
        a, b = randn(rng, 3, 2), randn(rng, 3, 3)

        def f(x, y):
            c = concat_cols([x, y])
            return tsum(slice_cols(c, 1, 4) * slice_cols(c, 0, 3))

        check_grads(f, [a, b])
        check_grads(
            lambda x, y: slice_rows(concat_rows([x, y]), 1, 4).mean(),
            [randn(rng, 2, 3), randn(rng, 3, 3)],
        )


class TestSte:
    def test_clamp_blocks_grad_outside_inclusive_interval(self):
        x = Tensor(np.array([[-2.0, -1.0, 0.5, 1.0, 2.0]], np.float32), requires_grad=True)
        tsum(x.clamp(-1.0, 1.0)).backward()
        assert np.array_equal(x.grad, np.array([[0.0, 1.0, 1.0, 1.0, 0.0]], np.float32))


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

    def test_head_axis_shares_mask(self):
        rng = np.random.default_rng(18)
        scores = randn(rng, 3, 2, 5)
        per_head = [softmax_causal(scores[h].copy(), offset=2) for h in range(3)]
        assert np.array_equal(softmax_causal(scores, offset=2), np.stack(per_head))


class TestMisc:
    def test_div_by_near_zero_raises(self):
        with pytest.raises(DegenerateScaleError):
            Tensor(np.ones((2, 2))) / Tensor(np.full((2, 2), 1e-13, np.float32))

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
        with pytest.raises(KvqError):
            (x * 2.0).backward()

    def test_graph_cleared_after_backward(self):
        x = Tensor(np.ones((2,), np.float32), requires_grad=True)
        y = tsum(x * 3.0)
        y.backward()
        assert y._parents == () and y._backward is None

    def test_rope_preserves_pair_norms(self):
        rng = np.random.default_rng(13)
        x = randn(rng, 6, 8)
        y = rope(Tensor(x), np.arange(6)).data
        n_in = x[:, :4] ** 2 + x[:, 4:] ** 2
        n_out = y[:, :4] ** 2 + y[:, 4:] ** 2
        assert np.allclose(n_in, n_out, atol=1e-5)

    def test_rope_odd_dim_rejected(self):
        with pytest.raises(DimensionError):
            rope(Tensor(np.zeros((2, 3), np.float32)), np.arange(2))

    # a gap, a start below 0, and too few positions for the rows
    @pytest.mark.parametrize("positions", [[0, 2, 3], [-1, 0, 1], [0, 1]])
    def test_rope_positions_must_be_contiguous(self, positions):
        with pytest.raises(DimensionError, match="contiguous"):
            rope(np.zeros((3, 8), np.float32), np.asarray(positions))

    def test_rope_position_zero_is_identity(self):
        rng = np.random.default_rng(14)
        x = randn(rng, 1, 8)
        assert np.allclose(rope(Tensor(x), np.array([0])).data, x, atol=1e-7)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_cross_entropy_matches_log_softmax(self, seed):
        rng = np.random.default_rng(seed)
        logits = randn(rng, 4, 6)
        tgt = rng.integers(0, 6, size=4)
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        expect = -logp[np.arange(4), tgt].mean()
        got = cross_entropy(Tensor(logits), tgt).item()
        assert abs(got - expect) < 1e-5


class TestStackedSequences:
    """Equal-length sequences stacked as rows give each sequence's own
    result: the one-sequence call of the same op is the reference."""

    @pytest.mark.parametrize("t", [1, 5])
    def test_rope_matches_each_sequence(self, t):
        rng = np.random.default_rng(31 + t)
        b, pos = 3, np.arange(4, 4 + t)
        x, g = randn(rng, b * t, 16), randn(rng, b * t, 16)
        xt = Tensor(x, requires_grad=True)
        r = rope(xt, pos, 500.0, 8)
        r._backward(g)
        assert np.array_equal(rope(x, pos, 500.0, 8), r.data)
        for i in range(b):
            rows = slice(i * t, (i + 1) * t)
            xi = Tensor(x[rows], requires_grad=True)
            ri = rope(xi, pos, 500.0, 8)
            ri._backward(g[rows])
            assert np.array_equal(r.data[rows], ri.data)
            assert np.array_equal(xt.grad[rows], xi.grad)

    @pytest.mark.parametrize("t", [1, 6, ATTN_BLOCK + 2])
    def test_causal_attention_matches_each_sequence(self, t):
        # on the tape (output and gradients) and on arrays, whose query
        # blocks run per sequence; at t = 1 each row attends only to itself
        rng = np.random.default_rng(33 + t)
        b = 3
        arrs = [randn(rng, b * t, 16) for _ in range(3)]
        w = randn(rng, b * t, 16)
        _, got = grads_of(lambda q, k, v: tsum(causal_attention(q, k, v, 4, seqs=b) * Tensor(w)),
                          arrs)
        stacked = causal_attention(*arrs, 4, seqs=b)
        for i in range(b):
            rows = slice(i * t, (i + 1) * t)
            one = [a[rows] for a in arrs]
            _, want = grads_of(lambda q, k, v: tsum(causal_attention(q, k, v, 4) * Tensor(w[rows])),
                               one)
            assert np.array_equal(stacked[rows], causal_attention(*one, 4))
            for ga, gw in zip(got, want):
                assert np.array_equal(ga[rows], gw)

    @pytest.mark.parametrize("rows, positions", [(7, 2), (3, 0), (5, 10)])
    def test_rows_not_whole_sequences_rejected(self, rows, positions):
        with pytest.raises(DimensionError, match="rows"):
            sequences(rows, np.arange(positions))
        with pytest.raises(DimensionError):
            rope(np.zeros((rows, 8), np.float32), np.arange(positions))

    def test_whole_sequences_counted(self):
        assert sequences(12, np.arange(3, 7)) == 3
        assert sequences(5, np.arange(1)) == 5
        assert sequences(0, np.arange(0)) == 1
