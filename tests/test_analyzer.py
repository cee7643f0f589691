import numpy as np
import pytest

from conftest import tiny_config
from kvq.analyzer import (
    ARCH_PRESETS,
    LLAMA2_7B,
    LLAMA2_13B,
    ArchSpec,
    DeployConfig,
    estimate_decode_time,
    estimate_memory,
    kv_cache_bytes,
    table7_report,
    temp_activation_bytes,
    verify_runtime_accounting,
    weights_bytes,
)
from kvq.errors import AccountingError, KvqError
from kvq.model import Model, prefill, quantize_model_weights


class TestByteFormulas:
    def test_matrix_accounting_hand_example(self):
        # [DERIVED] one arch with a single 8x4 projection shape checked by hand:
        # int4: 8*4 elems /2 = 16 code bytes + ceil(8/4)=2 groups * 4 cols * 4 B = 48
        from kvq.analyzer import _matrix_bytes

        assert _matrix_bytes(8, 4, 4, 4) == 8 * 4 * 4 // 8 + 2 * 4 * 4
        assert _matrix_bytes(8, 4, 16, 4) == 8 * 4 * 2
        assert _matrix_bytes(8, 4, 32, 4) == 8 * 4 * 4

    def test_fp16_weights_match_param_count(self):
        # [DERIVED] llama-2-7b has ~6.74e9 params; fp16 weights ~13.5 GB
        cfg = DeployConfig(arch=LLAMA2_7B, weight_bits=16)
        params = weights_bytes(cfg) / 2
        assert abs(params - 6.74e9) / 6.74e9 < 0.02

    def test_kv_bytes_fp16_formula(self):
        # [DERIVED] 2 (k,v) * layers * batch * seq * hidden * 2 bytes
        cfg = DeployConfig(arch=LLAMA2_7B, kv_bits=16, batch=2)
        assert kv_cache_bytes(cfg, 100) == 2 * 32 * 2 * 100 * 4096 * 2

    def test_kv_bytes_int4_formula(self):
        # [DERIVED] codes: seq*hidden/2 per tensor; params: seq*groups*4 bytes
        cfg = DeployConfig(arch=LLAMA2_7B, kv_bits=4, kv_group_size=128)
        per_layer = 2 * 100 * 4096 * 4 // 8 + 2 * 100 * (4096 // 128) * 4
        assert kv_cache_bytes(cfg, 100) == 32 * per_layer

    def test_zero_seq_is_zero(self):
        assert kv_cache_bytes(DeployConfig(arch=LLAMA2_7B), 0) == 0

    def test_temp_activations_scale_with_phase(self):
        cfg = DeployConfig(arch=LLAMA2_7B, act_bits=16)
        assert temp_activation_bytes(cfg, "prefill", 512) > temp_activation_bytes(
            cfg, "decode", 512
        )


class TestValidation:
    def test_bad_bits_rejected(self):
        with pytest.raises(KvqError):
            DeployConfig(arch=LLAMA2_7B, weight_bits=3)

    def test_bad_batch_rejected(self):
        with pytest.raises(KvqError):
            DeployConfig(arch=LLAMA2_7B, batch=0)

    def test_unknown_setting_rejected(self):
        with pytest.raises(KvqError):
            DeployConfig.for_setting(LLAMA2_7B, "w2")

    def test_bad_phase_rejected(self):
        with pytest.raises(KvqError):
            estimate_memory(DeployConfig(arch=LLAMA2_7B), "train")


class TestPublishedNumbers:
    def test_all_reference_cells_within_15_percent(self):
        for row in table7_report():
            for setting, ref in row["reference_gb"].items():
                rel = abs(row[setting] - ref) / ref
                assert rel < 0.15, (row["model"], row["batch"], row["len"], setting, rel)

    def test_kv_and_act_settings_agree_within_2_percent(self):
        for row in table7_report():
            rel = abs(row["w4kv4"] - row["w4a4"]) / row["w4a4"]
            assert rel < 0.02

    def test_memory_ordering(self):
        for row in table7_report():
            assert row["fp16"] > row["w4"] > row["w4kv4"] >= row["w4a4"]

    def test_proportions_sum_to_one(self):
        mem = estimate_memory(DeployConfig.for_setting(LLAMA2_7B, "fp16", prompt_len=2048))
        assert abs(sum(mem.proportions.values()) - 1.0) < 1e-12

    def test_kv_share_grows_with_batch(self):
        small = estimate_memory(
            DeployConfig.for_setting(LLAMA2_7B, "fp16", batch=1, prompt_len=2048)
        )
        big = estimate_memory(
            DeployConfig.for_setting(LLAMA2_7B, "fp16", batch=16, prompt_len=2048)
        )
        assert big.proportions["kv_cache"] > small.proportions["kv_cache"]


class TestRoofline:
    def test_quantized_decode_under_half_of_fp16(self):
        for setting in ("w4kv4", "w4a4"):
            dc = DeployConfig.for_setting(
                LLAMA2_13B, setting, prompt_len=2048, gen_len=64
            )
            assert estimate_decode_time(dc)["ratio_vs_fp16"] < 0.5

    def test_kv_and_act_settings_close(self):
        a = estimate_decode_time(
            DeployConfig.for_setting(LLAMA2_13B, "w4kv4", prompt_len=2048, gen_len=64)
        )
        b = estimate_decode_time(
            DeployConfig.for_setting(LLAMA2_13B, "w4a4", prompt_len=2048, gen_len=64)
        )
        assert abs(a["ratio_vs_fp16"] - b["ratio_vs_fp16"]) / b["ratio_vs_fp16"] < 0.05

    def test_seconds_follow_bandwidth(self):
        dc = DeployConfig.for_setting(LLAMA2_7B, "w4", prompt_len=128, gen_len=8,
                                      bandwidth_bytes=2.0e12)
        dc2 = DeployConfig.for_setting(LLAMA2_7B, "w4", prompt_len=128, gen_len=8,
                                       bandwidth_bytes=1.0e12)
        assert abs(estimate_decode_time(dc2)["total_seconds"]
                   - 2 * estimate_decode_time(dc)["total_seconds"]) < 1e-9

    def test_gen_len_required(self):
        with pytest.raises(KvqError):
            estimate_decode_time(DeployConfig.for_setting(LLAMA2_7B, "w4"))


class TestRuntimeAgreement:
    def test_exact_match_quantized_and_fp(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            heads = int(rng.choice([2, 4]))
            head_dim = int(rng.choice([8, 16]))
            cfg = tiny_config(
                n_layers=int(rng.integers(1, 4)),
                n_heads=heads,
                head_dim=head_dim,
                hidden_size=heads * head_dim,
                kv_group_size=int(rng.choice([4, 8, 32])),
                kv_bits=int(rng.choice([4, 8, 16])),
                max_seq_len=48,
            )
            m = Model.random(cfg, seed=trial)
            quantize_model_weights(m)
            m.config.quant_mode = "weight_kv"
            _, cache = prefill(m, np.arange(int(rng.integers(2, 40))), mode="weight_kv")
            report = verify_runtime_accounting(m, cache)
            assert report["analyzer_bytes"] == report["runtime_bytes"]

    def test_mismatch_raises(self):
        m = Model.random(tiny_config(), seed=0)
        quantize_model_weights(m)
        m.config.quant_mode = "weight_kv"
        _, cache = prefill(m, np.arange(10), mode="weight_kv")
        cache.layers[0].k_codes = np.zeros((64, 40), dtype=np.int8)  # corrupt
        with pytest.raises(AccountingError, match=r"\d+ != .*\d+"):
            verify_runtime_accounting(m, cache)


class TestPresets:
    def test_both_archs_registered(self):
        assert set(ARCH_PRESETS) == {"llama-2-7b", "llama-2-13b"}

    def test_arch_spec_fields(self):
        a = ARCH_PRESETS["llama-2-13b"]
        assert a == ArchSpec("llama-2-13b", 40, 5120, 40, 128, 13824, 32000)
