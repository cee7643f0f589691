import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import assert_float64_grads, central_diff, tiny_config, weighted_sum, word_corpus
from kvq.calibration import CalibConfig, calibrate_block, collect_activations, sample_segments
from kvq.errors import DimensionError, KvqError, NumericError, UsageError
from kvq.evaluate import _lm_leaves, lm_loss, lm_tensors, train_model
from kvq.model import ATTN_BLOCK, Model, causal_attention, spread_kv_channels
from kvq.tensor import (
    Record,
    Tensor,
    cross_entropy,
    embedding,
    gated_mlp,
    linear,
    rms_norm,
    rope,
    round_half_away,
    sequences,
    softmax_causal,
)


def check_grads(f, arrs):
    """The tape's gradients of sum(f(*inputs) * w), for a random w, against
    central differences of the same float32 function: the self-check of an
    op that has no float64 reference."""
    ts = [Tensor(a, requires_grad=True) for a in arrs]
    out = f(*ts)
    w = np.random.default_rng(0).normal(size=out.shape).astype(np.float32)
    weighted_sum(out, w).backward()
    for i, t in enumerate(ts):
        loss = lambda a: weighted_sum(f(*map(Tensor, [*arrs[:i], a, *arrs[i + 1 :]])), w).item()
        g = central_diff(loss, arrs[i], 1e-3)
        assert np.abs(t.grad - g).max() / max(1.0, float(np.abs(g).max())) < 2e-2


def randn(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


def grads_of(f, arrs, w):
    """The tape's gradients of sum(f(*inputs) * w) to each input."""
    ts = [Tensor(a, requires_grad=True) for a in arrs]
    weighted_sum(f(*ts), w).backward()
    return [t.grad for t in ts]


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
        # only equal shapes, (1, C) rows and scalars broadcast, not (T, 1) columns
        rng = np.random.default_rng(0)
        x, row = randn(rng, 3, 4), randn(rng, 1, 4)
        assert np.array_equal((Tensor(x) + Tensor(row)).data, x + row)
        for sa, sb in (((3, 4), (3, 1)), ((3, 1), (3, 4))):
            with pytest.raises(DimensionError):
                Tensor(np.zeros(sa)) + Tensor(np.zeros(sb))

    def test_incompatible_shapes_rejected(self):
        for sa, sb in (((3, 4), (4, 3)), ((3, 4), (2, 4))):
            with pytest.raises(DimensionError):
                Tensor(np.zeros(sa)) + Tensor(np.zeros(sb))

    def test_row_vector_grad_sums(self):
        b = Tensor(np.zeros((1, 4), np.float32), requires_grad=True)
        weighted_sum(Tensor(np.ones((3, 4), np.float32)) + b, 2.0).backward()
        assert np.array_equal(b.grad, np.full((1, 4), 6.0, np.float32))

    def test_matmul_shape_error_names_both(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\) x \(2, 3\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3))))


class TestGradients:
    """Each op against float64 central differences of its reference in
    tests/reference.py, or, with none, against float32 ones of itself."""

    def test_arithmetic_chain(self):
        # +, the tape's one elementwise op, over equal shapes, a (1, C) row
        # on either side of a (T, C) matrix and Python scalars; the
        # expression runs as it is on float64 arrays
        rng = np.random.default_rng(1)
        x, y, d = randn(rng, 3, 4), randn(rng, 3, 4), randn(rng, 1, 4)
        chain = lambda x, y, d: (x + d) + (d + y) + x + 1.5
        assert_float64_grads(chain, chain, [x, y, d])

    def test_gated_mlp(self):
        rng = np.random.default_rng(2)
        arrs = [randn(rng, 3, 4), randn(rng, 4, 5), randn(rng, 1, 5), randn(rng, 4, 5),
                randn(rng, 1, 5), randn(rng, 5, 4), randn(rng, 1, 4)]
        assert_float64_grads(gated_mlp, reference.gated_mlp, arrs)

    def test_causal_attention(self):
        # two queries at positions 3 and 4 over five keys, two heads of 4
        rng = np.random.default_rng(5)
        arrs = [randn(rng, 2, 8), randn(rng, 5, 8), randn(rng, 5, 8)]
        assert_float64_grads(lambda q, k, v: causal_attention(q, k, v, 2),
                             lambda q, k, v: reference.causal_attention(q, k, v, 2), arrs)

    def test_causal_attention_matches_per_head_composition(self):
        # three queries over seven keys, four heads of 4 in one op, against
        # four one-head float64 references side by side
        rng = np.random.default_rng(15)
        arrs = [randn(rng, 3, 16), randn(rng, 7, 16), randn(rng, 7, 16)]
        per_head = lambda q, k, v: np.concatenate(
            [reference.causal_attention(q[:, h : h + 4], k[:, h : h + 4], v[:, h : h + 4], 1)
             for h in range(0, 16, 4)], axis=1)
        want = per_head(*arrs)
        assert np.abs(causal_attention(*arrs, 4) - want).max() <= 1e-6 * np.abs(want).max()
        assert_float64_grads(lambda q, k, v: causal_attention(q, k, v, 4), per_head, arrs)

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
        # the diagonal is an array input: the tape node has no backward for it
        with pytest.raises(UsageError, match="POQ diagonal"):
            causal_attention(Tensor(q), Tensor(k), Tensor(v), 4, (kc, vc))

    def test_causal_attention_grads_need_no_other_input(self):
        # the backward forms a gradient only for an input that needs one; each
        # that does gets the bits it gets when all three need one
        rng = np.random.default_rng(21)
        arrs = [randn(rng, 3, 8), randn(rng, 5, 8), randn(rng, 5, 8)]
        w = randn(rng, 3, 8)
        every = grads_of(lambda q, k, v: causal_attention(q, k, v, 2), arrs, w)
        for needs in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)):
            ts = [Tensor(a, requires_grad=bool(n)) for a, n in zip(arrs, needs)]
            weighted_sum(causal_attention(*ts, 2), w).backward()
            for t, n, want in zip(ts, needs, every):
                assert (t.grad is None) if not n else np.array_equal(t.grad, want)

    def test_rms_norm(self):
        # x also feeds a residual, as in a block, so its gradient terms sum
        rng = np.random.default_rng(6)
        x, gain = randn(rng, 6, 8), randn(rng, 1, 8)
        assert_float64_grads(lambda x, g: rms_norm(x, g) + x,
                             lambda x, g: reference.rms_norm(x, g) + x, [x, gain])

    def test_rope(self):
        rng = np.random.default_rng(7)
        pos = np.arange(5)
        assert_float64_grads(lambda x: rope(x, pos),
                             lambda x: reference.rotate(x, pos, 10000.0, 8), [randn(rng, 5, 8)])

    def test_rope_multi_head(self):
        rng = np.random.default_rng(16)
        pos = np.arange(3, 8)
        assert_float64_grads(lambda x: rope(x, pos, head_dim=4),
                             lambda x: reference.rotate(x, pos, 10000.0, 4), [randn(rng, 5, 16)])

    def test_rope_multi_head_matches_per_head(self):
        # four heads of 8 in one op against four one-head float64 rotations
        rng = np.random.default_rng(17)
        pos = np.arange(9, 15)
        x = randn(rng, 6, 32)
        per_head = lambda a: np.concatenate(
            [reference.rotate(a[:, h : h + 8], pos, 10000.0, 8) for h in range(0, 32, 8)], axis=1)
        want = per_head(x)
        got = rope(Tensor(x), pos, head_dim=8).data
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
        assert_float64_grads(lambda a: rope(a, pos, head_dim=8), per_head, [x])
        # against float64 rotation, also in place (out=x), and the backward
        # by -angle; over 200 draws of these shapes the largest error was
        # 1.1e-7 of the largest |output| forward and 1.2e-7 backward
        for t, width, d, start in ((1, 32, 8, 40), (7, 64, 32, 0), (130, 16, 16, 3), (0, 8, 8, 0)):
            x, g, pos = randn(rng, t, width), randn(rng, t, width), np.arange(start, start + t)
            xt = Tensor(x, requires_grad=True)
            r = rope(xt, pos, 500.0, d)
            r.record.backward(g)
            y = x.copy()
            assert rope(y, pos, 500.0, d, out=y) is y and np.array_equal(y, r.data)
            for got, want in ((r.data, reference.rotate(x, pos, 500.0, d)),
                              (xt.grad, reference.rotate(g, -pos, 500.0, d))):
                assert np.abs(got - want).max(initial=0.0) <= 1e-6 * np.abs(want).max(initial=1.0)

    def test_cross_entropy(self):
        rng = np.random.default_rng(8)
        tgt = np.array([2, 0, 1])
        check_grads(lambda x: cross_entropy(x, tgt), [randn(rng, 3, 5)])

    def test_embedding_scatter_add(self):
        table = Tensor(np.zeros((4, 3), np.float32), requires_grad=True)
        weighted_sum(embedding(table, np.array([1, 1, 3]))).backward()
        expect = np.zeros((4, 3), np.float32)
        expect[1] = 2.0
        expect[3] = 1.0
        assert np.array_equal(table.grad, expect)


class TestFusedOps:
    """linear, rms_norm and gated_mlp are one tape op each, bit for bit the float32
    chain of elementwise ops and products that they replace, forward and
    backward, and on arrays bit for bit the tape's output."""

    def test_linear_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(20)
        x, w, b = arrs = [randn(rng, 6, 5), randn(rng, 5, 3), randn(rng, 1, 3)]
        r = randn(rng, 6, 3)
        want = [r @ w.T, x.T @ r, r.sum(axis=0, keepdims=True)]
        assert all(np.array_equal(g, e) for g, e in zip(grads_of(linear, arrs, r), want))
        assert np.array_equal(linear(x, w, b), x @ w + b)
        assert np.array_equal(linear(Tensor(x), Tensor(w), Tensor(b)).data, x @ w + b)

    @pytest.mark.parametrize("shapes, on_arrays", [
        (((6, 5), (4, 3), (1, 3)), True),  # inner dimensions differ
        (((6, 5), (5, 3), (1, 4)), True),  # bias width
        (((5,), (5, 3), (1, 3)), True),  # input not 2-d
        (((6, 5), (5, 3), (3,)), False),  # bias not a row: numpy broadcasts it
    ])
    def test_linear_shape_mismatch_raises(self, shapes, on_arrays):
        x, w, b = (np.zeros(s, np.float32) for s in shapes)
        with pytest.raises(DimensionError, match="linear shape mismatch"):
            linear(Tensor(x, requires_grad=True), Tensor(w), Tensor(b))
        if on_arrays:
            with pytest.raises(DimensionError, match="linear shape mismatch"):
                linear(x, w, b)

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
        got = grads_of(lambda x, g: rms_norm(x, g) + x, [x, gain], r)
        assert all(np.array_equal(g, e) for g, e in zip(got, want))
        assert np.array_equal(rms_norm(Tensor(x), Tensor(gain)).data, x / d * gain)
        assert np.array_equal(rms_norm(x, gain), rms_norm(Tensor(x), Tensor(gain)).data)
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
        got = grads_of(gated_mlp, arrs, r)
        assert all(np.array_equal(gr, e) for gr, e in zip(got, want))
        # with fixed weights (calibration) the product is not recomputed
        xt = Tensor(x, requires_grad=True)
        gated_mlp(xt, *map(Tensor, arrs[1:])).record.backward(r)
        assert np.array_equal(xt.grad, want[0])
        assert np.array_equal(gated_mlp(*map(Tensor, arrs)).data, m @ wd + bd)
        assert np.array_equal(gated_mlp(*arrs), m @ wd + bd)
        # on arrays act_fn takes the product
        half = lambda y: y * np.float32(0.5)
        assert np.array_equal(gated_mlp(*arrs, act_fn=half), half(m) @ wd + bd)
        with pytest.raises(UsageError, match="arrays only"):
            gated_mlp(*map(Tensor, arrs), act_fn=half)


@pytest.fixture
def sealed_grads(monkeypatch):
    """Mark every gradient read-only as it is stored, and the array it came
    from, so that a write into either raises."""
    accum = Record.accum

    def sealed(self, g):
        if isinstance(g, np.ndarray):
            g.flags.writeable = False
        accum(self, g)
        self.grad.flags.writeable = False

    monkeypatch.setattr(Record, "accum", sealed)


class TestGradientsReadOnly:
    """accum keeps the first gradient it receives without a copy, which is
    sound only while no backward (and no optimizer) writes a gradient."""

    def test_a_backward_writing_its_gradient_raises(self, sealed_grads):
        def doubled(a):
            record = a.record

            def backward(g):
                g *= 2.0
                record.accum(g)

            return Tensor._from_op(a.data * 2.0, (a,), backward)

        x = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="read-only"):
            weighted_sum(doubled(x)).backward()

    def test_train_and_calibration_steps_write_no_gradient(self, sealed_grads):
        # a training step runs its backward on sealed gradients; calibration
        # records no tape, so it has no gradient to write
        m = Model.random(tiny_config(), seed=2)
        report = train_model(m, word_corpus(2), steps=1, batch=2, seq_len=16, seed=2)
        assert np.isfinite(report["initial_loss"])
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

    def test_head_axis_shares_mask(self):
        rng = np.random.default_rng(18)
        scores = randn(rng, 3, 2, 5)
        per_head = [softmax_causal(scores[h].copy(), offset=2) for h in range(3)]
        assert np.array_equal(softmax_causal(scores, offset=2), np.stack(per_head))


class TestMisc:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
        with pytest.raises(KvqError):
            (x + 2.0).backward()

    def test_graph_cleared_after_backward(self):
        # every op record of a training loss is released, every leaf keeps
        # its gradient, and a second backward adds nothing to any leaf
        m = Model.random(tiny_config(), seed=3)
        p = lm_tensors(m)
        seqs = np.random.default_rng(3).integers(0, 256, size=(2, 17))
        loss = lm_loss(m.config, p, seqs)
        nodes = tape_nodes(loss)
        ops = [n for n in nodes if n.backward is not None]
        leaves = [n for n in nodes if n.backward is None]
        assert ops and {id(r) for r in leaves} == {id(t.record) for t in _lm_leaves(p)}
        loss.backward()
        assert all(n.grad is None and n.backward is None and n.parents == () for n in ops)
        grads = [r.grad.copy() for r in leaves]
        assert all(g.shape == r.shape for g, r in zip(grads, leaves))
        loss.backward()
        assert all(np.array_equal(r.grad, g) for r, g in zip(leaves, grads))

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

    def test_cross_entropy_holds_one_array_beside_the_logits(self):
        # the shifted logits, their exponentials and the probabilities share
        # one buffer: beside the logits, a call peaks at one (rows, vocab)
        # array and small slack (three arrays when each had its own)
        rng = np.random.default_rng(15)
        logits = Tensor(randn(rng, 512, 258), requires_grad=True)
        tgt = rng.integers(0, 258, size=512)
        tracemalloc.start()
        try:
            cross_entropy(logits, tgt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= logits.data.nbytes + 64 * 1024


def tape_nodes(loss: Tensor) -> list[Record]:
    """Every record of loss's tape, loss's own included."""
    nodes, seen, stack = [], set(), [loss.record]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            nodes.append(n)
            stack.extend(n.parents)
    return nodes


def captured_arrays(record: Record) -> dict[int, np.ndarray]:
    """The arrays a record's backward closure holds, by id."""
    f = record.backward
    cells = [c.cell_contents for c in f.__closure__ or ()] + list(f.__defaults__ or ())
    return {id(a): a for a in cells if isinstance(a, np.ndarray)}


class TestTapeRelease:
    """Records hold no values and each backward only the arrays it reads, so
    a forward leaves on the tape what the backwards will read.  backward
    frees each op record once its backward has run, so a sweep holds those
    arrays for the unswept ops, the leaves' gradients and the gradients in
    flight, not every op's gradient at once."""

    def test_sweep_frees_activations_only_the_tape_holds(self):
        rng = np.random.default_rng(4)
        x = Tensor(randn(rng, 64, 64), requires_grad=True)
        alive = []

        def probe(a):  # an identity op whose backward, run last, looks above it
            record = a.record

            def backward(g):
                alive.extend(r() is not None for r in refs)
                record.accum(g)

            return Tensor._from_op(a.data.copy(), (a,), backward)

        s1 = probe(x) + 2.0  # read by rms_norm's backward only
        m = rms_norm(s1, Tensor(np.ones((1, 64), np.float32)))
        loss = weighted_sum(m + 1.0, randn(rng, 64, 64))
        refs = [weakref.ref(s1.data), weakref.ref(m.data)]
        del s1, m
        loss.backward()
        assert alive == [False, False]  # already gone while the sweep still ran
        assert np.all(x.grad != 0.0)

    def test_lm_loss_forward_keeps_g_and_u_of_each_mlp(self):
        # what a forward leaves on the tape: the arrays its backwards
        # captured.  Of the gated MLP's (rows, intermediate) arrays only g
        # and u stay, two per layer; an rms_norm backward keeps its input
        # but not its normalized rows; a residual add and a rope keep no
        # array at all
        cfg = tiny_config()
        b, t = 2, 8
        p = lm_tensors(Model.random(cfg, seed=4))
        loss = lm_loss(cfg, p, np.random.default_rng(4).integers(0, 256, size=(b, t + 1)))
        kept, kinds = {}, set()
        for n in tape_nodes(loss):
            if n.backward is None:
                continue
            arrays = captured_arrays(n)
            kept.update(arrays)
            kind = n.backward.__qualname__.split(".")[0]
            kinds.add(kind)
            if kind == "rms_norm":
                assert [a.shape for a in arrays.values()].count((b * t, cfg.hidden_size)) == 1
            if kind in ("Tensor", "rope"):  # the residual adds, and q's and k's rotations
                assert arrays == {}
        assert {"Tensor", "rope", "rms_norm"} <= kinds
        wide = [a for a in kept.values() if a.shape == (b * t, cfg.intermediate_size)]
        assert len(wide) == 2 * cfg.n_layers
        # the one (rows, C) array an rms_norm backward keeps is its input
        x = Tensor(np.ones((3, 4), np.float32), requires_grad=True)
        norm = rms_norm(x, Tensor(np.ones((1, 4), np.float32), requires_grad=True))
        assert [a for a in captured_arrays(norm.record).values() if a.shape == x.shape] == [x.data]
        assert captured_arrays(norm.record)[id(x.data)] is x.data

    def test_lm_loss_forward_frees_what_no_backward_reads(self, monkeypatch):
        # the o and down projections' outputs (the residual adds' operands),
        # q and k before their rotation, and the logits are gone once the
        # forward has returned, while the tape still holds the loss
        import kvq.evaluate
        import kvq.model

        cfg = tiny_config()
        p = lm_tensors(Model.random(cfg, seed=5))
        o_weights = {id(w["o_w"]) for w in p["blocks"]}
        refs = {"o": [], "down": [], "rope_in": [], "logits": []}

        def spy(name, fn, kind, keep=lambda *a: True):
            def wrapped(*args, **kw):
                out = fn(*args, **kw)
                if keep(*args):
                    refs[kind].append(weakref.ref((args[0] if kind == "rope_in" else out).data))
                return out
            monkeypatch.setattr(name[0], name[1], wrapped)

        spy((kvq.model, "linear"), kvq.model.linear, "o", lambda x, w, b: id(w) in o_weights)
        spy((kvq.model, "gated_mlp"), kvq.model.gated_mlp, "down")
        spy((kvq.model, "rope"), kvq.model.rope, "rope_in")
        spy((kvq.evaluate, "linear"), kvq.evaluate.linear, "logits")
        loss = lm_loss(cfg, p, np.random.default_rng(5).integers(0, 256, size=(2, 9)))
        assert [len(r) for r in refs.values()] == [cfg.n_layers, cfg.n_layers,
                                                   2 * cfg.n_layers, 1]
        assert all(r() is None for rs in refs.values() for r in rs)
        loss.backward()
        assert all(t.grad is not None for t in _lm_leaves(p))

    def test_lm_loss_peak_within_tape_bound(self):
        # the traced peak of a forward and backward may exceed what the
        # forward leaves on the tape (activation bytes) plus the leaves'
        # gradients (parameter bytes) by at most half of all op records'
        # gradient bytes; a sweep that kept every op's gradient to its end
        # exceeds it by about all of them (B 4, T 128, width 64: a 6.65 MB
        # peak against a 7.46 MB bound)
        cfg = tiny_config(hidden_size=64, head_dim=32, intermediate_size=128, max_seq_len=128)
        p = lm_tensors(Model.random(cfg, seed=4))
        seqs = np.random.default_rng(4).integers(0, 256, size=(4, 129))
        params = sum(t.data.nbytes for t in _lm_leaves(p))
        lm_loss(cfg, p, seqs)  # fills the rope table before tracing
        tracemalloc.start()
        try:
            loss = lm_loss(cfg, p, seqs)
            activations = tracemalloc.get_traced_memory()[0]
            op_grads = sum(4 * math.prod(n.shape) for n in tape_nodes(loss)
                           if n.backward is not None)
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= activations + params + op_grads / 2
        # ROADMAP item 13's bound: 10 % below the 8.19 MB this forward and
        # backward peaked at while the tape held every op's output
        assert peak <= 0.9 * 8.19e6


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
        r.record.backward(g)
        assert np.array_equal(rope(x, pos, 500.0, 8), r.data)
        for i in range(b):
            rows = slice(i * t, (i + 1) * t)
            xi = Tensor(x[rows], requires_grad=True)
            ri = rope(xi, pos, 500.0, 8)
            ri.record.backward(g[rows])
            assert np.array_equal(r.data[rows], ri.data)
            assert np.array_equal(xt.grad[rows], xi.grad)

    @pytest.mark.parametrize("t", [1, 6, ATTN_BLOCK + 2, 2 * ATTN_BLOCK + 2])
    def test_causal_attention_matches_each_sequence(self, t):
        # on the tape (output and gradients) and on arrays, whose query
        # blocks run per sequence; at t = 1 each row attends only to itself
        rng = np.random.default_rng(33 + t)
        b = 3
        arrs = [randn(rng, b * t, 16) for _ in range(3)]
        w = randn(rng, b * t, 16)
        got = grads_of(lambda q, k, v: causal_attention(q, k, v, 4, seqs=b), arrs, w)
        stacked = causal_attention(*arrs, 4, seqs=b)
        for i in range(b):
            rows = slice(i * t, (i + 1) * t)
            one = [a[rows] for a in arrs]
            want = grads_of(lambda q, k, v: causal_attention(q, k, v, 4), one, w[rows])
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
