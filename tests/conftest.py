import numpy as np
import pytest

from kvq.errors import KvqError
from kvq.evaluate import encode_bytes, train_model
from kvq.model import Model, ModelConfig, spread_kv_channels

WORDS = [b"the ", b"quick ", b"brown ", b"fox ", b"jumps ", b"over ", b"a ", b"dog. "]


def tiny_config(**kw) -> ModelConfig:
    defaults = dict(
        n_layers=2,
        hidden_size=32,
        n_heads=2,
        head_dim=16,
        intermediate_size=48,
        max_seq_len=64,
        kv_group_size=8,
        weight_group_size=16,
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def group_bounds(n: int, group_size: int) -> list[tuple[int, int]]:
    """Partition n channels into groups of group_size; the tail may be short."""
    if group_size < 1:
        raise KvqError(f"group_size must be positive, got {group_size}")
    return [(a, min(a + group_size, n)) for a in range(0, n, group_size)]


def central_diff(f, x: np.ndarray, eps: float) -> np.ndarray:
    """Float64 central differences of a scalar function f at every entry of x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty(x.shape)
    for i in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        grad[i] = (f(xp) - f(xm)) / (2 * eps)
    return grad


def assert_float64_grads(op, grads, ref, arrs):
    """A backward function's gradients of sum(op(*inputs) * w), for a random
    w, against float64 central differences of sum(ref(*inputs) * w) at every
    entry of every input, each within 1e-5 of that input's largest
    |gradient|.  grads(w, *inputs) runs op's forward, keeping what its
    backward reads, and the backward of w, and returns one gradient per
    input."""
    w = np.random.default_rng(0).normal(size=op(*arrs).shape).astype(np.float32)
    got = grads(w, *arrs)
    assert len(got) == len(arrs)
    x64 = [np.asarray(a, dtype=np.float64) for a in arrs]
    for i, g in enumerate(got):
        f = lambda a: np.sum(ref(*x64[:i], a, *x64[i + 1 :]) * w)
        want = central_diff(f, x64[i], 1e-4)
        assert np.abs(g - want).max() <= 1e-5 * np.abs(want).max(initial=1e-6)


def word_corpus(seed: int, n_words: int = 1000) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return encode_bytes(b"".join(WORDS[i] for i in rng.integers(0, 8, size=n_words)))


def fitted_model(seed: int, steps: int = 100, spread: float = 0.0, **cfg_kw):
    """A small model briefly trained on the word corpus for that seed."""
    model = Model.random(tiny_config(**cfg_kw), seed=seed)
    corpus = word_corpus(seed)
    train_model(model, corpus, steps=steps, batch=2, seq_len=32, lr=3e-3, seed=seed)
    if spread:
        spread_kv_channels(model, log_range=spread, seed=seed)
    return model, corpus


@pytest.fixture(scope="session")
def trained_pair():
    return fitted_model(0)
