import dataclasses
import itertools
import time

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
from kvq.model import MODES, Model, prefill, quantize_model_weights


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
        # one rule with ModelConfig's: a code width of 2..8 bits, or 16; 32
        # bits, which no model holds, is refused for every width
        for field in ("weight_bits", "kv_bits", "act_bits"):
            for bits in (1, 9, 12, 32, 4.0, True):
                with pytest.raises(KvqError, match=f"{field} must be 2..8 or 16"):
                    DeployConfig(arch=LLAMA2_7B, **{field: bits})
            for bits in (2, 3, 5, 8, 16):
                DeployConfig(arch=LLAMA2_7B, **{field: bits})

    def test_widths_are_the_model_config_widths(self):
        # the analyzer accepts a width exactly when ModelConfig does: 32-bit
        # K/V, which no model can hold, was accepted and is refused
        with pytest.raises(KvqError, match="kv_bits must be 2..8 or 16, got 32"):
            DeployConfig(arch=LLAMA2_7B, kv_bits=32)
        for bits in range(40):
            try:
                tiny_config(kv_bits=bits)
                model_takes = True
            except KvqError:
                model_takes = False
            for field in ("weight_bits", "kv_bits", "act_bits"):
                try:
                    DeployConfig(arch=LLAMA2_7B, **{field: bits})
                    takes = True
                except KvqError:
                    takes = False
                assert takes == model_takes, (field, bits)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0e12])
    def test_non_positive_bandwidth_rejected(self, bandwidth):
        with pytest.raises(KvqError, match="bandwidth must be positive"):
            DeployConfig(arch=LLAMA2_7B, bandwidth_bytes=bandwidth)

    def test_bad_batch_rejected(self):
        with pytest.raises(KvqError):
            DeployConfig(arch=LLAMA2_7B, batch=0)

    @pytest.mark.parametrize("field", ["batch", "prompt_len", "gen_len"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, False, "2", None])
    def test_sizes_must_be_integers(self, field, value):
        # a bool or a non-integer size is refused by quantizers._is_int, as
        # ModelConfig's are: batch=1.5 would give a 1,610,612,736.0-byte
        # cache, and batch=True would pass as 1
        with pytest.raises(KvqError, match=f"{field} must be an integer"):
            DeployConfig(arch=LLAMA2_7B, **{field: value})

    def test_numpy_integer_sizes_accepted(self):
        dc = DeployConfig(arch=LLAMA2_7B, batch=np.int64(2), prompt_len=np.int32(16),
                          gen_len=np.uint8(3))
        assert estimate_memory(dc).kv_cache_bytes == kv_cache_bytes(
            DeployConfig(arch=LLAMA2_7B, batch=2), 19)

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

    @staticmethod
    def loop_bytes(dc):
        """The per-step byte sum as one Python iteration per generated token."""
        w = weights_bytes(dc)
        return sum(w + kv_cache_bytes(dc, t) + temp_activation_bytes(dc, "decode", t)
                   for t in range(dc.prompt_len, dc.prompt_len + dc.gen_len))

    def test_closed_form_equals_step_loop(self):
        # odd widths and sizes, so that every // 8 floors: the closed form
        # gives the loop's exact integers, and the fp16 baseline's
        arch = ArchSpec("odd", 3, 37, 1, 37, 91, 101)
        for batch, prompt, gen, kv_bits, act_bits, group in itertools.product(
                [1, 3], [0, 1, 13], [1, 2, 7, 8, 9, 17, 30], [3, 5, 16], [3, 16], [5, 32]):
            dc = DeployConfig(arch=arch, batch=batch, prompt_len=prompt, gen_len=gen,
                              weight_bits=4, kv_bits=kv_bits, act_bits=act_bits,
                              kv_group_size=group)
            got = estimate_decode_time(dc)
            base = dataclasses.replace(dc, weight_bits=16, kv_bits=16, act_bits=16)
            assert got["total_bytes"] == self.loop_bytes(dc), dc
            assert got["fp16_total_bytes"] == self.loop_bytes(base), dc
            assert isinstance(got["total_bytes"], int)

    def test_long_generation_answers_at_once(self):
        # 10^9 generated tokens: one Python iteration per token would take
        # about 25 minutes; the closed form answers in well under a second
        dc = DeployConfig.for_setting(LLAMA2_7B, "w4kv4", prompt_len=2048, gen_len=10**9)
        start = time.perf_counter()
        got = estimate_decode_time(dc)
        assert time.perf_counter() - start < 1.0
        assert got["total_bytes"] > 10**9 * weights_bytes(dc)
        assert 0 < got["ratio_vs_fp16"] < 1

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
            m.config = dataclasses.replace(m.config, quant_mode="weight_kv")
            _, cache = prefill(m, np.arange(int(rng.integers(2, 40))))
            report = verify_runtime_accounting(m, cache)
            assert report["analyzer_bytes"] == report["runtime_bytes"]

    @pytest.mark.parametrize("kv_bits", [2, 3, 4, 8, 16])
    def test_exact_match_at_every_stored_width(self, kv_bits):
        m = Model.random(tiny_config(kv_bits=kv_bits, quant_mode="weight_kv"), seed=0)
        quantize_model_weights(m)
        _, cache = prefill(m, np.arange(10))
        report = verify_runtime_accounting(m, cache)
        assert report["analyzer_bytes"] == report["runtime_bytes"] == cache.kv_bytes()

    def test_every_width_the_config_accepts_is_accounted(self):
        # ModelConfig takes 2..8 bits or 16; a cache of each width, in each
        # mode, matches the analyzer after a prefill, and one of float32 rows
        # counts them at 16 bits (wider widths were accepted, counted at
        # their bits by the cache and refused by the analyzer)
        for field in ("kv_bits", "weight_bits"):
            accepted = []
            for bits in range(40):
                try:
                    tiny_config(**{field: bits})
                except KvqError:
                    continue
                accepted.append(bits)
            assert accepted == [2, 3, 4, 5, 6, 7, 8, 16], field
        for bits in accepted:
            for mode in MODES:
                cfg = tiny_config(kv_bits=bits, quant_mode=mode)
                m = Model.random(cfg, seed=0)
                _, cache = prefill(m, np.arange(10))
                report = verify_runtime_accounting(m, cache)
                assert report["analyzer_bytes"] == report["runtime_bytes"] == cache.kv_bytes()
                if not cfg.kv_codes:
                    assert cache.kv_bytes() == cfg.n_layers * 2 * 10 * cfg.hidden_size * 2

    def test_fractional_code_bytes_round_down_per_layer(self):
        # 2 layers of 18 channels in groups of 8 (a tail group of 2) at 3
        # bits: each layer's codes hold a fractional byte at 1 and 3 tokens
        # (13.5, 40.5) and round down on their own, so one floor over all
        # layers would read 75, 225 and 375
        cfg = tiny_config(n_layers=2, n_heads=3, head_dim=6, hidden_size=18, kv_group_size=8,
                          kv_bits=3, quant_mode="weight_kv")
        m = Model.random(cfg, seed=0)
        for t, want in ((1, 74), (3, 224), (5, 374)):
            _, cache = prefill(m, np.arange(t))
            report = verify_runtime_accounting(m, cache)
            assert report["analyzer_bytes"] == report["runtime_bytes"] == cache.kv_bytes() == want

    def test_mismatch_raises(self):
        m = Model.random(tiny_config(), seed=0)
        quantize_model_weights(m)
        m.config = dataclasses.replace(m.config, quant_mode="weight_kv")
        _, cache = prefill(m, np.arange(10))
        cache.codes = np.zeros((2, 2, 64, 40), dtype=np.int8)  # corrupt
        with pytest.raises(AccountingError, match=r"\d+ != .*\d+"):
            verify_runtime_accounting(m, cache)


class TestPresets:
    def test_both_archs_registered(self):
        assert set(ARCH_PRESETS) == {"llama-2-7b", "llama-2-13b"}

    def test_arch_spec_fields(self):
        a = ARCH_PRESETS["llama-2-13b"]
        assert a == ArchSpec("llama-2-13b", 40, 5120, 40, 128, 13824, 32000)
