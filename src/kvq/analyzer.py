"""Analytical memory-footprint and memory-bound decode-latency model.

Byte accounting rules:

* quantized tensors (bits < 16) are counted bit-packed plus two 16-bit
  per-group parameters (scale, offset);
* unquantized tensors are counted at their stated width (fp16 by default);
* norm gains and biases are always counted at 16 bits;
* embedding and output head are counted at weight_bits.

Temporary activations use a declared peak-live-set approximation:
batch x seq x (hidden*4 + intermediate*2) elements (seq = 1 in decode) plus
one attention-score tile of batch x heads x seq elements.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import AccountingError, KvqError

VALID_BITS = (4, 8, 16, 32)

GB = 1e9


@dataclass(frozen=True)
class ArchSpec:
    name: str
    n_layers: int
    hidden_size: int
    n_heads: int
    head_dim: int
    intermediate_size: int
    vocab_size: int


LLAMA2_7B = ArchSpec("llama-2-7b", 32, 4096, 32, 128, 11008, 32000)
LLAMA2_13B = ArchSpec("llama-2-13b", 40, 5120, 40, 128, 13824, 32000)

ARCH_PRESETS = {a.name: a for a in (LLAMA2_7B, LLAMA2_13B)}

# bits for (weights, kv, temporary activations)
SETTINGS = {
    "fp16": (16, 16, 16),
    "w4": (4, 16, 16),
    "w4kv4": (4, 4, 16),
    "w4a4": (4, 4, 4),
}


@dataclass
class DeployConfig:
    arch: ArchSpec
    batch: int = 1
    prompt_len: int = 2048
    gen_len: int = 0
    weight_bits: int = 16
    kv_bits: int = 16
    act_bits: int = 16
    weight_group_size: int = 128
    kv_group_size: int = 128
    bandwidth_bytes: float = 1.0e12

    def __post_init__(self):
        if self.batch < 1 or self.prompt_len < 0 or self.gen_len < 0:
            raise KvqError("batch must be >= 1 and lengths must be >= 0")
        for b in (self.weight_bits, self.kv_bits, self.act_bits):
            if b not in VALID_BITS:
                raise KvqError(f"bits must be one of {VALID_BITS}, got {b}")
        if self.bandwidth_bytes <= 0:
            raise KvqError("bandwidth must be positive")

    @staticmethod
    def for_setting(arch: ArchSpec, setting: str, **kw) -> "DeployConfig":
        if setting not in SETTINGS:
            raise KvqError(f"unknown setting {setting!r}; choose from {sorted(SETTINGS)}")
        wb, kb, ab = SETTINGS[setting]
        return DeployConfig(arch=arch, weight_bits=wb, kv_bits=kb, act_bits=ab, **kw)


@dataclass
class MemoryBreakdown:
    weights_bytes: int
    kv_cache_bytes: int
    temp_activation_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.weights_bytes + self.kv_cache_bytes + self.temp_activation_bytes

    @property
    def proportions(self) -> dict[str, float]:
        t = self.total_bytes
        return {
            "weights": self.weights_bytes / t,
            "kv_cache": self.kv_cache_bytes / t,
            "temp_activations": self.temp_activation_bytes / t,
        }

    def as_dict(self) -> dict:
        d = {
            "weights_bytes": self.weights_bytes,
            "kv_cache_bytes": self.kv_cache_bytes,
            "temp_activation_bytes": self.temp_activation_bytes,
            "total_bytes": self.total_bytes,
            "total_gb": self.total_bytes / GB,
        }
        d["proportions"] = self.proportions
        return d


def _matrix_bytes(rows: int, cols: int, bits: int, group_size: int) -> int:
    """Bytes for one (rows, cols) matrix, grouped along the row axis."""
    numel = rows * cols
    if bits >= 16:
        return numel * bits // 8
    groups = -(-rows // group_size) * cols
    return numel * bits // 8 + groups * 4  # two 16-bit values per group


def weights_bytes(cfg: DeployConfig) -> int:
    a = cfg.arch
    c, inter, v = a.hidden_size, a.intermediate_size, a.vocab_size
    total = 2 * _matrix_bytes(v, c, cfg.weight_bits, cfg.weight_group_size)  # embed + head
    per_layer = (
        4 * _matrix_bytes(c, c, cfg.weight_bits, cfg.weight_group_size)
        + 2 * _matrix_bytes(c, inter, cfg.weight_bits, cfg.weight_group_size)
        + _matrix_bytes(inter, c, cfg.weight_bits, cfg.weight_group_size)
    )
    norms = (2 * a.n_layers + 1) * c * 2  # norm gains at 16 bit
    return total + a.n_layers * per_layer + norms


def kv_cache_bytes(cfg: DeployConfig, seq_len: int) -> int:
    """KV bytes for seq_len cached tokens; exact match for the runtime buffers."""
    a = cfg.arch
    c = a.hidden_size
    if seq_len <= 0:
        return 0
    if cfg.kv_bits >= 16:
        return 2 * a.n_layers * cfg.batch * seq_len * c * cfg.kv_bits // 8
    groups = -(-c // cfg.kv_group_size)
    per_layer = 2 * seq_len * c * cfg.kv_bits // 8 + 2 * seq_len * groups * 4
    return a.n_layers * cfg.batch * per_layer


def temp_activation_bytes(cfg: DeployConfig, phase: str, seq_len: int) -> int:
    a = cfg.arch
    live_tokens = seq_len if phase == "prefill" else 1
    elems = cfg.batch * live_tokens * (a.hidden_size * 4 + a.intermediate_size * 2)
    tile = cfg.batch * a.n_heads * seq_len
    return (elems + tile) * cfg.act_bits // 8


def estimate_memory(cfg: DeployConfig, phase: str = "decode") -> MemoryBreakdown:
    if phase not in ("prefill", "decode"):
        raise KvqError(f"phase must be prefill or decode, got {phase!r}")
    seq = cfg.prompt_len if phase == "prefill" else cfg.prompt_len + cfg.gen_len
    return MemoryBreakdown(
        weights_bytes=weights_bytes(cfg),
        kv_cache_bytes=kv_cache_bytes(cfg, seq),
        temp_activation_bytes=temp_activation_bytes(cfg, phase, seq),
    )


def estimate_decode_time(cfg: DeployConfig) -> dict:
    """Memory-bound roofline for generating gen_len tokens after prompt_len.

    Per step, bytes moved = weights + live KV cache + temporary-activation IO;
    reports absolute seconds and the ratio against the fp16 baseline.
    """
    if cfg.gen_len < 1:
        raise KvqError("estimate_decode_time requires gen_len >= 1")

    def total_bytes(c: DeployConfig) -> int:
        w = weights_bytes(c)
        total = 0
        for t in range(c.prompt_len, c.prompt_len + c.gen_len):
            total += w + kv_cache_bytes(c, t) + temp_activation_bytes(c, "decode", t)
        return total

    mine = total_bytes(cfg)
    base_cfg = replace(cfg, weight_bits=16, kv_bits=16, act_bits=16)
    base = total_bytes(base_cfg)
    seconds = mine / cfg.bandwidth_bytes
    return {
        "total_bytes": mine,
        "total_seconds": seconds,
        "seconds_per_token": seconds / cfg.gen_len,
        "fp16_total_bytes": base,
        "ratio_vs_fp16": mine / base,
    }


def verify_runtime_accounting(model, cache) -> dict:
    """Check the analyzer KV formula against live PoqKvCache buffers, exactly."""
    mc = model.config
    quantized = any(lc.quantized for lc in cache.layers)
    arch = ArchSpec(
        "desk",
        mc.n_layers,
        mc.hidden_size,
        mc.n_heads,
        mc.head_dim,
        mc.intermediate_size,
        mc.vocab_size,
    )
    kv_bits = mc.kv_bits if quantized else max(mc.kv_bits, 16)
    dc = DeployConfig(
        arch=arch,
        batch=1,
        prompt_len=cache.length,
        kv_bits=kv_bits if kv_bits in VALID_BITS else 16,
        kv_group_size=mc.kv_group_size,
    )
    analyzer = kv_cache_bytes(dc, cache.length)
    runtime = cache.kv_bytes()
    if analyzer != runtime:
        raise AccountingError(
            f"analyzer kv bytes {analyzer} != runtime kv bytes {runtime}"
        )
    return {"tokens": cache.length, "analyzer_bytes": analyzer, "runtime_bytes": runtime}


# -- paper-style presets -------------------------------------------------------

TABLE7_ROWS = [
    # (batch, length, arch, {setting: reported GB})
    (1, 2048, LLAMA2_7B, {"fp16": 14.0, "w4": 4.3, "w4kv4": 3.5, "w4a4": 3.5}),
    (1, 2048, LLAMA2_13B, {"fp16": 27.1, "w4": 8.0, "w4kv4": 6.8, "w4a4": 6.8}),
    (1, 9012, LLAMA2_7B, {"fp16": 17.2, "w4": 7.5, "w4kv4": 4.3, "w4a4": 4.3}),
    (1, 9012, LLAMA2_13B, {"fp16": 32.1, "w4": 13.1, "w4kv4": 8.0, "w4a4": 8.0}),
    (16, 2048, LLAMA2_7B, {"fp16": 30.1, "w4": 20.4, "w4kv4": 7.5, "w4a4": 7.5}),
    (16, 2048, LLAMA2_13B, {"fp16": 52.2, "w4": 33.2, "w4kv4": 13.1, "w4a4": 13.1}),
]


def table7_report() -> list[dict]:
    """Decoding memory (GB) for the six published rows under each setting."""
    rows = []
    for batch, length, arch, reference in TABLE7_ROWS:
        row = {"model": arch.name, "batch": batch, "len": length, "reference_gb": reference}
        for setting in ("fp16", "w4", "w4kv4", "w4a4"):
            dc = DeployConfig.for_setting(
                arch, setting, batch=batch, prompt_len=length, gen_len=0
            )
            row[setting] = estimate_memory(dc, "decode").total_bytes / GB
        rows.append(row)
    return rows
