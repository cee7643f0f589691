"""Acceptance suite: twelve checks, one printed PASS/FAIL line each.

Each criterion is verified at its stated tolerance and time budget; the
result line is written straight to the terminal (bypassing capture).
"""

import copy
import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

import reference
from conftest import WORDS, central_diff, fitted_model, group_bounds, tiny_config
from test_quantizers import oracle_token, oracle_weight

import kvq.model
from kvq.analyzer import (
    LLAMA2_13B,
    DeployConfig,
    estimate_decode_time,
    table7_report,
    verify_runtime_accounting,
)
from kvq.calibration import (
    CalibConfig,
    at_strength,
    calibrate_model,
    collect_activations,
    crr_loss,
    init_trainables,
    quantized_weights,
    sample_segments,
)
from kvq.cli import main
from kvq.evaluate import _block_backward, _block_forward, logit_mae, perplexity
from kvq.model import (
    Model,
    ModelConfig,
    block_arrays,
    prefill,
    quantize_model_weights,
)
from kvq.quantizers import (
    TokenQuantSpec,
    WeightQuantSpec,
    apply_kv_smoothing,
    dequantize,
    init_smoothing,
    quantize_token,
    quantize_weight,
)
from kvq.tensor import rms_norm


def report(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# -- shared fixtures ----------------------------------------------------------

CAL = dict(k=2, epochs=3, segments=8, seg_len=32)


@pytest.fixture(scope="module")
def seeds_suite():
    """Ten seeded desk models with calibrated and round-to-nearest W4KV4 variants."""
    suite = []
    for seed in range(10):
        fp, corpus = fitted_model(seed, steps=100, spread=3.0)
        mq = copy.deepcopy(fp)
        rep = calibrate_model(mq, corpus, CalibConfig(seed=seed, **CAL))
        mr = copy.deepcopy(fp)
        quantize_model_weights(mr)
        mr.config = dataclasses.replace(mr.config, quant_mode="weight_kv")
        init_ratios = [b["losses"][-1] / b["initial_loss"] for b in rep["blocks"]]
        suite.append({"seed": seed, "fp": fp, "corpus": corpus, "mq": mq, "mr": mr,
                      "ratio": rep["mean_final_initial_ratio"],
                      "init_ratio": float(np.mean(init_ratios))})
    return suite


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("accept")
    rng = np.random.default_rng(0)
    (d / "corpus.txt").write_bytes(
        b"".join(WORDS[i] for i in rng.integers(0, 8, size=500))
    )
    return d


FIT_ARGS = [
    "--layers", "2", "--hidden", "32", "--heads", "2", "--intermediate", "48",
    "--max-seq-len", "64", "--group-size", "16", "--kv-group-size", "8",
    "--steps", "25", "--batch", "2", "--seq-len", "24", "--seed", "0",
]


# -- criteria -----------------------------------------------------------------


def test_criterion_01_poq_prefill_equivalence(capsys):
    t0 = time.time()
    rng = np.random.default_rng(0)
    identical = 0
    for trial in range(20):
        cfg = ModelConfig(max_seq_len=64, kv_group_size=32, weight_group_size=64)
        m = Model.random(cfg, seed=trial)
        quantize_model_weights(m)
        ids = rng.integers(0, cfg.vocab_size, size=int(rng.integers(8, 48)))
        m.config = dataclasses.replace(m.config, quant_mode="fp")  # W4: codes, fp cache
        a, _ = prefill(m, ids)
        m.config = dataclasses.replace(m.config, quant_mode="weight_kv")
        b, _ = prefill(m, ids)
        identical += int(np.array_equal(a.data, b.data))
    dt = time.time() - t0
    ok = identical == 20 and dt < 30
    report(capsys, 1, ok,
           f"W4KV4 prefill bit-identical to W4 on {identical}/20 models ({dt:.1f}s)")


def test_criterion_02_cacheless_eval_equivalence(capsys, cli_dir):
    t0 = time.time()
    base = cli_dir / "c2_base.kvq"
    assert main(["fit", "--corpus", str(cli_dir / "corpus.txt"),
                 "--out", str(base)] + FIT_ARGS) == 0
    ppls = {}
    for setting, mode in (("w4", "fp"), ("w4kv4", "weight_kv")):
        out = cli_dir / f"c2_{setting}.kvq"
        assert main(["quantize", "--model", str(base), "--out", str(out),
                     "--mode", mode, "--group-size", "16",
                     "--kv-group-size", "8"]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(out),
                     "--corpus", str(cli_dir / "corpus.txt"),
                     "--max-tokens", "256"]) == 0
        ppls[setting] = json.loads(capsys.readouterr().out)["perplexity"]
    diff = abs(ppls["w4"] - ppls["w4kv4"])
    dt = time.time() - t0
    ok = diff < 1e-9 and dt < 30
    report(capsys, 2, ok,
           f"cache-free eval ppl diff w4 vs w4kv4 = {diff:.2e} ({dt:.1f}s)")


def test_criterion_03_memory_table_reproduction(capsys):
    t0 = time.time()
    worst = 0.0
    worst_pair = 0.0
    cells = 0
    for row in table7_report():
        for setting, ref in row["reference_gb"].items():
            worst = max(worst, abs(row[setting] - ref) / ref)
            cells += 1
        worst_pair = max(worst_pair, abs(row["w4kv4"] - row["w4a4"]) / row["w4a4"])
    dt = time.time() - t0
    ok = cells >= 18 and worst < 0.15 and worst_pair < 0.02 and dt < 1
    report(capsys, 3, ok,
           f"{cells} published memory cells, worst err {worst:.1%} (<15%), "
           f"w4kv4 vs w4a4 worst {worst_pair:.2%} (<2%) ({dt:.2f}s)")


def test_criterion_04_decode_roofline_direction(capsys):
    t0 = time.time()
    ratios = {}
    for setting in ("w4kv4", "w4a4"):
        dc = DeployConfig.for_setting(LLAMA2_13B, setting, prompt_len=2048, gen_len=64)
        ratios[setting] = estimate_decode_time(dc)["ratio_vs_fp16"]
    rel = abs(ratios["w4kv4"] - ratios["w4a4"]) / ratios["w4a4"]
    dt = time.time() - t0
    ok = rel < 0.05 and all(r < 0.5 for r in ratios.values()) and dt < 1
    report(capsys, 4, ok,
           f"13b decode ratios w4kv4={ratios['w4kv4']:.3f} w4a4={ratios['w4a4']:.3f} "
           f"(rel diff {rel:.2%} < 5%, both < 0.5x fp16) ({dt:.2f}s)")


def test_criterion_05_quantizer_oracles(capsys):
    t0 = time.time()
    rng = np.random.default_rng(0)
    token_ok = weight_ok = 0
    for trial in range(600):
        t = int(rng.integers(1, 4))
        c = int(rng.integers(1, 13))
        gs = int(rng.integers(1, c + 1))
        bits = int(rng.choice([2, 3, 4, 8]))
        y = (rng.normal(size=(t, c)) * rng.uniform(0.1, 10)).astype(np.float32)
        q = quantize_token(y, TokenQuantSpec(bits, gs))
        codes, _ = oracle_token(y, bits, gs)
        token_ok += int(np.array_equal(q.codes, codes))
        # roundtrip bound for unclipped codes
        deq = dequantize(q)
        spec = TokenQuantSpec(bits, gs)
        for g, (a, b) in enumerate(group_bounds(c, gs)):
            sel = (q.codes[:, a:b] > spec.code_lo) & (q.codes[:, a:b] < spec.code_hi)
            err = np.abs(deq[:, a:b] - y[:, a:b])
            bound = np.broadcast_to(q.n[:, g : g + 1] / 2 + 1e-6, err.shape)
            assert np.all(err[sel] <= bound[sel])
    for trial in range(400):
        r = int(rng.integers(1, 17))
        c = int(rng.integers(1, 9))
        gs = int(rng.integers(1, r + 1))
        bits = int(rng.choice([2, 4, 8]))
        w = (rng.normal(size=(r, c)) * rng.uniform(0.1, 5)).astype(np.float32)
        q = quantize_weight(w, WeightQuantSpec(bits, gs))
        weight_ok += int(np.array_equal(q.codes, oracle_weight(w, bits, gs)))
    const_tok = quantize_token(np.full((3, 8), -1.25, np.float32), TokenQuantSpec(4, 4))
    const_w = quantize_weight(np.full((8, 3), 0.75, np.float32), WeightQuantSpec(4, 4))
    lossless = np.array_equal(dequantize(const_tok), np.full((3, 8), -1.25)) and \
        np.array_equal(dequantize(const_w), np.full((8, 3), 0.75))
    dt = time.time() - t0
    ok = token_ok == 600 and weight_ok == 400 and lossless and dt < 10
    report(capsys, 5, ok,
           f"scalar-loop oracle match {token_ok}/600 token + {weight_ok}/400 weight, "
           f"roundtrip bound held, constants lossless ({dt:.1f}s)")


def test_criterion_06_smoothing_roundtrip(capsys):
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        t = int(rng.integers(2, 40))
        c = int(rng.integers(1, 64))
        scale = 10.0 ** rng.uniform(-2, 2, size=(1, c))
        y = (rng.normal(size=(t, c)) * scale + rng.normal(size=(1, c))).astype(np.float32)
        sp = init_smoothing(y)
        back = apply_kv_smoothing((y - sp.delta) / sp.s, sp)
        worst = max(worst, np.abs(back - y).max() / max(np.abs(y).max(), 1e-12))
    dt = time.time() - t0
    ok = worst < 1e-4 and dt < 5
    report(capsys, 6, ok,
           f"smoothing round-trip on 100 layers, worst rel diff {worst:.2e} "
           f"(< 1e-4) ({dt:.1f}s)")


def test_criterion_07_gradient_validity(capsys, monkeypatch):
    # part 1: training's block backward against float64 central
    # differences of the same function (tests/reference.py) at every entry,
    # with no kink to screen and no float32 noise floor; the gradients reach
    # 5e-3, and a relative error's denominator is floored at 1e-6
    t0 = time.time()
    eps = 1e-5

    def rel_err(got, want):
        return float((np.abs(got - want) / np.maximum(np.maximum(np.abs(got), np.abs(want)),
                                                      1e-6)).max())

    # part 1: d(mean h^2)/dx through two fp blocks
    model, _ = fitted_model(0, steps=10)
    cfg = model.config
    x0 = model.embed[np.arange(12) % 250]
    fp_blocks = [block_arrays(blk) for blk in model.blocks]
    h, kept = x0, []
    for w in fp_blocks:  # training's block forward, then its backward of mean(h * h)
        h, k = _block_forward(cfg, w, h, np.arange(12), 1)
        kept.append(k)
    g = 2.0 * h / h.size
    for w in reversed(fp_blocks):
        g, _ = _block_backward(cfg, w, kept, g, np.arange(12), 1)

    def fp_loss(a):
        for w in fp_blocks:
            a = reference.block(cfg, w, a)
        return np.mean(a * a)

    worst_x = rel_err(g, central_diff(fp_loss, x0, eps))

    # part 2: crr_loss, the runtime's float32 array forward, against the
    # float64 block (reference.calib_block) at the K and V codes of the live
    # round trip, for RTN, strength 0.5 and the init.  Measured worst
    # relative error 1.2e-7, against a bound of 1e-5
    model2, corpus = fitted_model(0, steps=60, spread=1.5, kv_group_size=8)
    cfg = model2.config
    calib = CalibConfig(k=2, segments=4, seg_len=32, seed=0)
    acts = collect_activations(model2, sample_segments(corpus, calib))
    init = init_trainables(model2, 0, acts[0])
    wq = quantized_weights(model2, 0)
    quantized = dict(block_arrays(model2.blocks[0]), **{f"{n}_w": w for n, w in wq.items()})
    held, token_codes = [], kvq.model.token_codes

    def holding(parts, spec, name="quantize_token", keep=None, out=None):
        # the round trip (out) also keeps its codes, as a cache's step does
        assert keep is None and out is not None
        t, c = parts[0].shape
        codes = np.empty((len(parts), t, c), np.int8)
        params = np.empty((2, len(parts), t, -(-c // spec.group_size)), np.float32)
        held.extend(codes)
        return token_codes(parts, spec, name, keep=(codes, params), out=out)

    monkeypatch.setattr(kvq.model, "token_codes", holding)
    t, worst_s = calib.seg_len, 0.0
    for alpha in (0.0, 0.5, 1.0):
        sp_k, sp_v = at_strength(init, alpha)
        held.clear()
        loss = crr_loss(model2, 0, acts[0], (sp_k, sp_v), calib, acts[2], wq)
        k_codes, v_codes = held  # the runtime's round trip takes K first
        rows = [a.reshape(1, -1) for a in (sp_k.s, sp_k.delta, sp_v.s, sp_v.delta)]
        ys = []
        for b, seg in enumerate(acts[0]):
            codes = (k_codes[b * t : (b + 1) * t], v_codes[b * t : (b + 1) * t])
            y = reference.calib_block(cfg, quantized, seg, rows, codes)
            for blk in model2.blocks[1 : calib.k]:
                y = reference.block(cfg, block_arrays(blk), y)
            ys.append(y)
        want = np.mean(np.abs(np.stack(ys) - acts[2]))
        worst_s = max(worst_s, abs(loss - want) / want)
    dt = time.time() - t0
    ok = worst_x < 1e-4 and worst_s < 1e-5 and dt < 30
    report(capsys, 7, ok,
           f"d(fp loss)/dx worst rel err {worst_x:.2e} over all {x0.size} entries (<1e-4); "
           f"crr_loss against float64 at held codes, worst rel err {worst_s:.2e} over 3 "
           f"strengths (<1e-5) ({dt:.1f}s)")


def test_criterion_08_calibration_efficacy(capsys, seeds_suite):
    t0 = time.time()
    wins = 0
    ratios = []
    init_ratios = []
    for entry in seeds_suite:
        ev = entry["corpus"][:1200]
        ppl_cal = perplexity(entry["mq"], ev, use_cache=True)["perplexity"]
        ppl_rtn = perplexity(entry["mr"], ev, use_cache=True)["perplexity"]
        wins += int(ppl_cal < ppl_rtn)
        ratios.append(entry["ratio"])
        init_ratios.append(entry["init_ratio"])
    mean_ratio = float(np.mean(ratios))
    dt = time.time() - t0
    ok = wins >= 9 and mean_ratio < 0.9 and dt < 600
    report(capsys, 8, ok,
           f"calibrated beats RTN on perplexity {wins}/10 seeds (>=9), mean "
           f"final/initial CRR ratio {mean_ratio:.3f} (<0.9; the init alone "
           f"{float(np.mean(init_ratios)):.3f}) ({dt:.1f}s)")


def test_criterion_09_ablation_directions(capsys, seeds_suite):
    t0 = time.time()
    poq_worse = 0
    smooth_better = 0
    for entry in seeds_suite:
        fp, corpus, mr = entry["fp"], entry["corpus"], entry["mr"]
        ev = corpus[:300]
        # past-only quantization on the W4KV4 model whose KV error dominates
        mae_on = logit_mae(fp, mr, ev, use_cache=True)
        m_off = copy.deepcopy(mr)
        m_off.config = dataclasses.replace(m_off.config, poq=False)
        mae_off = logit_mae(fp, m_off, ev, use_cache=True)
        poq_worse += int(mae_off > mae_on)

        # smoothing statistics of the first 128 tokens, as two segments of
        # the model's 64 positions: collect_activations refuses a segment
        # longer than max_seq_len
        ms = copy.deepcopy(fp)
        acts = collect_activations(ms, list(corpus[:128].reshape(2, 64)))
        for i, blk in enumerate(ms.blocks):
            x = acts[i].reshape(-1, acts[i].shape[-1])
            xn = rms_norm(x, blk.attn_norm.reshape(1, -1))
            sp_k, sp_v = (init_smoothing(xn @ lin.w + lin.b) for lin in (blk.k, blk.v))
            blk.k.absorb(sp_k)
            blk.v.absorb(sp_v)
        quantize_model_weights(ms)
        ms.config = dataclasses.replace(ms.config, quant_mode="weight_kv")
        mae_rtn = logit_mae(fp, mr, ev, use_cache=True)
        mae_sm = logit_mae(fp, ms, ev, use_cache=True)
        smooth_better += int(mae_sm < mae_rtn)
    dt = time.time() - t0
    ok = poq_worse >= 9 and smooth_better >= 8 and dt < 600
    report(capsys, 9, ok,
           f"dropping past-only quantization degrades logit MAE {poq_worse}/10 (>=9); "
           f"channel smoothing improves RTN {smooth_better}/10 (>=8) ({dt:.1f}s)")


def test_criterion_10_activation_vs_kv_sensitivity(capsys):
    t0 = time.time()
    act_worse = 0
    degs = {"kv4": [], "kv8": [], "act4": [], "act8": []}
    for seed in range(10):
        model, corpus = fitted_model(seed, steps=100, spread=1.0, weight_bits=16)
        ev = corpus[:400]
        ppl_fp = perplexity(model, ev, use_cache=True)["perplexity"]

        def degraded(mode, bits):
            m = copy.deepcopy(model)
            m.config = dataclasses.replace(m.config, kv_bits=bits, quant_mode=mode)
            return perplexity(m, ev, use_cache=True)["perplexity"] - ppl_fp

        kv4 = degraded("weight_kv", 4)
        act4 = degraded("weight_activation", 4)
        degs["kv4"].append(kv4)
        degs["act4"].append(act4)
        degs["kv8"].append(degraded("weight_kv", 8))
        degs["act8"].append(degraded("weight_activation", 8))
        act_worse += int(act4 > kv4)
    means = {k: float(np.mean(v)) for k, v in degs.items()}
    bits_mono = means["kv8"] <= means["kv4"] and means["act8"] <= means["act4"]
    dt = time.time() - t0
    ok = act_worse >= 9 and bits_mono and dt < 300
    report(capsys, 10, ok,
           f"4-bit activation quant degrades ppl more than 4-bit KV {act_worse}/10 "
           f"(>=9); mean 8-bit degradations {means['kv8']:.4f}/{means['act8']:.4f} <= "
           f"4-bit {means['kv4']:.4f}/{means['act4']:.4f} ({dt:.1f}s)")


def test_criterion_11_accounting_agreement(capsys):
    t0 = time.time()
    rng = np.random.default_rng(0)
    exact = 0
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
        rep = verify_runtime_accounting(m, cache)
        exact += int(rep["analyzer_bytes"] == rep["runtime_bytes"])
    dt = time.time() - t0
    ok = exact == 10 and dt < 5
    report(capsys, 11, ok,
           f"analyzer KV byte formula == runtime cache bytes on {exact}/10 configs ({dt:.1f}s)")


def test_criterion_12_cli_determinism(capsys, cli_dir):
    t0 = time.time()
    corpus = str(cli_dir / "corpus.txt")
    model = str(cli_dir / "c12_model.kvq")
    quant = str(cli_dir / "c12_quant.kvq")
    cal = str(cli_dir / "c12_cal.kvq")
    small = ["--k", "1", "--epochs", "1", "--segments", "2", "--seg-len", "24"]
    commands = [
        ("fit", ["fit", "--corpus", corpus, "--out", model] + FIT_ARGS, [model]),
        ("quantize", ["quantize", "--model", model, "--out", quant, "--mode", "fp",
                      "--group-size", "16", "--kv-group-size", "8"], [quant]),
        ("calibrate", ["calibrate", "--model", model, "--corpus", corpus,
                       "--out", cal, "--group-size", "16", "--kv-group-size", "8"]
                      + small, [cal]),
        ("eval", ["eval", "--model", cal, "--corpus", corpus, "--use-cache",
                  "--max-tokens", "96"], []),
        ("analyze", ["analyze", "--preset", "decode-table"], []),
        ("ablate", ["ablate", "--model", model, "--corpus", corpus, "--drop", "poq",
                    "--max-tokens", "64"] + small, []),
        ("sweep-k", ["sweep-k", "--model", model, "--corpus", corpus,
                     "--k-values", "1,2", "--epochs", "1", "--segments", "2",
                     "--seg-len", "24", "--max-tokens", "64"], []),
        ("generate", ["generate", "--model", model, "--prompt", "the quick ",
                      "--n-new", "6"], []),
    ]
    stable = []
    for name, argv, files in commands:
        runs = []
        for _ in range(2):
            assert main(argv) == 0, name
            stdout = capsys.readouterr().out
            runs.append((stdout, [Path(f).read_bytes() for f in files]))
        stable.append(runs[0] == runs[1])
    dt = time.time() - t0
    ok = all(stable)
    names = [c[0] for c in commands]
    bad = [n for n, s in zip(names, stable) if not s]
    report(capsys, 12, ok,
           f"{sum(stable)}/{len(commands)} commands byte-reproducible"
           + (f"; unstable: {bad}" if bad else "") + f" ({dt:.1f}s)")
