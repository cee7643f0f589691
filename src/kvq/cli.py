"""Command-line toolkit.

Exit codes: 0 success, 2 usage error, 3 data/format error, 4 numeric error.

Set KVQ_THREADS to pin the BLAS thread count before numpy loads.
"""

from __future__ import annotations

import os

_t = os.environ.get("KVQ_THREADS")
if _t:
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, _t)

import argparse
import copy
import json
import sys

import numpy as np

from .errors import DataFormatError, KvqError, NumericError, UsageError

SETTING_MODES = {
    "w4": "weight_only",
    "w4kv4": "weight_kv",
    "w4a4": "weight_activation",
}


def _write_json(obj, path: str | None) -> str:
    text = json.dumps(obj, sort_keys=True, indent=2)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    return text


def _eval_slice(ids: np.ndarray, limit: int) -> np.ndarray:
    return ids[: max(2, min(len(ids), limit))]


# -- commands -----------------------------------------------------------------


def cmd_fit(args) -> int:
    from .evaluate import load_corpus, train_model
    from .checkpoint import save_model
    from .model import Model, ModelConfig

    cfg = ModelConfig(
        n_layers=args.layers,
        hidden_size=args.hidden,
        n_heads=args.heads,
        head_dim=args.hidden // args.heads,
        intermediate_size=args.intermediate,
        max_seq_len=args.max_seq_len,
        kv_group_size=args.kv_group_size,
        weight_group_size=args.group_size,
    )
    model = Model.random(cfg, seed=args.seed)
    report = {"config": {"n_layers": cfg.n_layers, "hidden_size": cfg.hidden_size}}
    if args.steps > 0:
        ids = load_corpus(args.corpus)
        report["train"] = train_model(
            model, ids, steps=args.steps, batch=args.batch,
            seq_len=args.seq_len, lr=args.lr, seed=args.seed,
        )
    save_model(model, args.out, meta={"seed": args.seed})
    print(_write_json(report, args.json))
    return 0


def cmd_quantize(args) -> int:
    from .checkpoint import load_model, save_model
    from .model import quantize_model_weights

    model = load_model(args.model)
    cfg = model.config
    cfg.weight_bits = args.bits
    cfg.kv_bits = args.kv_bits
    cfg.weight_group_size = args.group_size
    cfg.kv_group_size = args.kv_group_size
    cfg.quant_mode = SETTING_MODES[args.mode]
    quantize_model_weights(model, literal_range=args.literal_range)
    if cfg.quant_mode == "weight_kv" and all(
        blk.v.smoothing is None for blk in model.blocks
    ):
        print(
            "warning: KV-quantized model has no channel smoothing; "
            "run `kvq calibrate` for best accuracy",
            file=sys.stderr,
        )
    save_model(model, args.out, meta={"source": os.path.basename(args.model)})
    print(_write_json({"mode": cfg.quant_mode, "weight_bits": cfg.weight_bits,
                       "kv_bits": cfg.kv_bits, "out": args.out}, None))
    return 0


def cmd_calibrate(args) -> int:
    from .calibration import CalibConfig, calibrate_model
    from .checkpoint import load_model, save_model
    from .evaluate import load_corpus

    model = load_model(args.model)
    cfg = model.config
    cfg.weight_bits = args.bits
    cfg.kv_bits = args.kv_bits
    cfg.weight_group_size = args.group_size
    cfg.kv_group_size = args.kv_group_size
    ids = load_corpus(args.corpus)
    calib = CalibConfig(
        k=args.k,
        epochs=args.epochs,
        lr_smoothing=args.lr_smoothing,
        lr_clipping=args.lr_clipping,
        seed=args.seed,
        loss=args.loss,
        segments=args.segments,
        seg_len=args.seg_len,
    )
    report = calibrate_model(model, ids, calib)
    save_model(model, args.out, meta={"calibrated": True, "seed": args.seed})
    print(_write_json(report, args.json))
    return 0


def cmd_eval(args) -> int:
    from .checkpoint import load_model
    from .evaluate import eval_report, load_corpus

    model = load_model(args.model)
    ids = _eval_slice(load_corpus(args.corpus), args.max_tokens)
    fp_model = load_model(args.fp_model) if args.fp_model else None
    mode = args.mode if args.mode else None
    report = eval_report(
        model, ids, setting=mode or model.config.quant_mode,
        use_cache=args.use_cache, mode=mode, fp_model=fp_model,
    )
    print(_write_json(report, args.json))
    return 0


def cmd_analyze(args) -> int:
    from .analyzer import (
        ARCH_PRESETS,
        DeployConfig,
        estimate_decode_time,
        estimate_memory,
        table7_report,
    )

    if args.preset == "decode-table":
        rows = table7_report()
        doc = {"preset": "decode-table", "rows": rows}
        print(_write_json(doc, args.json))
        header = f"{'model':<14}{'bs':>4}{'len':>6} | " + "".join(
            f"{s:>10}" for s in ("fp16", "w4", "w4kv4", "w4a4")
        )
        print(header)
        for r in rows:
            cells = "".join(f"{r[s]:>10.4f}" for s in ("fp16", "w4", "w4kv4", "w4a4"))
            print(f"{r['model']:<14}{r['batch']:>4}{r['len']:>6} | {cells}")
        return 0

    arch = ARCH_PRESETS.get(args.arch)
    if arch is None:
        raise UsageError(f"unknown arch {args.arch!r}; choose from {sorted(ARCH_PRESETS)}")
    dc = DeployConfig.for_setting(
        arch, args.setting, batch=args.batch,
        prompt_len=args.prompt_len, gen_len=args.gen_len,
        bandwidth_bytes=args.bandwidth,
    )
    mem = estimate_memory(dc, args.phase).as_dict()
    doc = {
        "arch": arch.name,
        "setting": args.setting,
        "batch": args.batch,
        "prompt_len": args.prompt_len,
        "gen_len": args.gen_len,
        "phase": args.phase,
        "memory": mem,
    }
    if args.gen_len >= 1:
        doc["decode_time"] = estimate_decode_time(dc)
    print(_write_json(doc, args.json))
    print(f"{arch.name} {args.setting} bs={args.batch} "
          f"prompt={args.prompt_len} gen={args.gen_len} ({args.phase})")
    for key in ("weights_bytes", "kv_cache_bytes", "temp_activation_bytes", "total_bytes"):
        share = ""
        name = key.removesuffix("_bytes")
        if name in ("weights", "kv_cache"):
            share = f"  ({mem['proportions'][name]:.2%})"
        elif name == "temp_activation":
            share = f"  ({mem['proportions']['temp_activations']:.2%})"
        print(f"  {name:<16} {mem[key]:>16d} B  = {mem[key] / 1e9:.4f} GB{share}")
    if "decode_time" in doc:
        dt = doc["decode_time"]
        print(f"  decode: {dt['seconds_per_token'] * 1e3:.3f} ms/token, "
              f"{dt['ratio_vs_fp16']:.3f}x fp16 bytes")
    return 0


_FEATURES = ("lwc", "2dq-channel", "2dq-token", "poq")


def _run_variant(model, ids, eval_ids, features: set[str], calib_base) -> dict:
    from .calibration import calibrate_model
    from .evaluate import perplexity

    m = copy.deepcopy(model)
    calib = copy.deepcopy(calib_base)
    calib.use_clipping = "lwc" in features
    calib.use_smoothing = "2dq-channel" in features
    if "2dq-token" not in features:
        m.config.kv_bits = 16
    report = calibrate_model(m, ids, calib)
    m.config.poq = "poq" in features
    ppl = perplexity(m, eval_ids, use_cache=True)
    return {
        "features": sorted(features),
        "perplexity": ppl["perplexity"],
        "mean_nll": ppl["mean_nll"],
        "mean_final_loss": float(np.mean([b["final_loss"] for b in report["blocks"]])),
    }


def cmd_ablate(args) -> int:
    from .calibration import CalibConfig
    from .checkpoint import load_model
    from .evaluate import load_corpus, perplexity

    for f in args.drop + args.add:
        if f not in _FEATURES:
            raise UsageError(f"unknown feature {f!r}; choose from {_FEATURES}")
    model = load_model(args.model)
    ids = load_corpus(args.corpus)
    eval_ids = _eval_slice(ids, args.max_tokens)
    calib = CalibConfig(k=args.k, epochs=args.epochs, seed=args.seed,
                        segments=args.segments, seg_len=args.seg_len)

    full = set(_FEATURES)
    rows = [dict(_run_variant(model, ids, eval_ids, full, calib), variant="full")]
    for f in args.drop:
        rows.append(dict(_run_variant(model, ids, eval_ids, full - {f}, calib),
                         variant=f"drop:{f}"))
    if args.add:
        base: set[str] = set()
        rows.append(dict(_run_variant(model, ids, eval_ids, base, calib), variant="none"))
        for f in args.add:
            rows.append(dict(_run_variant(model, ids, eval_ids, base | {f}, calib),
                             variant=f"add:{f}"))
    fp_ppl = perplexity(model, eval_ids, use_cache=True)
    doc = {"fp_perplexity": fp_ppl["perplexity"], "variants": rows}
    print(_write_json(doc, args.json))
    return 0


def cmd_sweep_k(args) -> int:
    from .calibration import CalibConfig, sweep_k
    from .checkpoint import load_model
    from .evaluate import load_corpus, perplexity

    model = load_model(args.model)
    ids = load_corpus(args.corpus)
    eval_ids = _eval_slice(ids, args.max_tokens)
    calib = CalibConfig(epochs=args.epochs, seed=args.seed,
                        segments=args.segments, seg_len=args.seg_len)
    k_values = [int(v) for v in args.k_values.split(",") if v]

    def eval_fn(m):
        return perplexity(m, eval_ids, use_cache=True)["perplexity"]

    rows = sweep_k(model, ids, k_values, calib, eval_fn=eval_fn)
    slim = [{"k": r["k"], "mean_final_loss": r["mean_final_loss"],
             "perplexity": r["perplexity"]} for r in rows]
    print(_write_json({"rows": slim}, args.json))
    return 0


def cmd_generate(args) -> int:
    from .checkpoint import load_model
    from .evaluate import encode_bytes
    from .model import generate

    model = load_model(args.model)
    prompt = encode_bytes(args.prompt.encode("utf-8"))
    out = generate(model, prompt, args.n_new, mode=args.mode or None)
    new = out[len(prompt):]
    text = bytes(int(t) for t in new if t < 256).decode("utf-8", errors="replace")
    print(_write_json({"prompt": args.prompt, "ids": [int(t) for t in out],
                       "completion": text}, args.json))
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kvq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_quant_args(sp):
        sp.add_argument("--bits", type=int, default=4)
        sp.add_argument("--kv-bits", type=int, default=4)
        sp.add_argument("--group-size", type=int, default=128)
        sp.add_argument("--kv-group-size", type=int, default=128)

    sp = sub.add_parser("fit", help="train a small byte-level model")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--layers", type=int, default=4)
    sp.add_argument("--hidden", type=int, default=128)
    sp.add_argument("--heads", type=int, default=4)
    sp.add_argument("--intermediate", type=int, default=344)
    sp.add_argument("--max-seq-len", type=int, default=512)
    sp.add_argument("--group-size", type=int, default=128)
    sp.add_argument("--kv-group-size", type=int, default=32)
    sp.add_argument("--steps", type=int, default=200)
    sp.add_argument("--batch", type=int, default=4)
    sp.add_argument("--seq-len", type=int, default=64)
    sp.add_argument("--lr", type=float, default=3e-3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json")
    sp.set_defaults(fn=cmd_fit)

    sp = sub.add_parser("quantize", help="round-to-nearest quantization; keeps calibrated codes")
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--mode", choices=sorted(SETTING_MODES), default="w4kv4")
    sp.add_argument("--literal-range", action="store_true")
    add_quant_args(sp)
    sp.set_defaults(fn=cmd_quantize)

    sp = sub.add_parser("calibrate", help="optimize clipping + smoothing block by block")
    sp.add_argument("--model", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    add_quant_args(sp)
    sp.add_argument("--k", type=int, default=5)
    sp.add_argument("--epochs", type=int, default=5)
    sp.add_argument("--lr-smoothing", type=float, default=5e-4)
    sp.add_argument("--lr-clipping", type=float, default=1e-2)
    sp.add_argument("--loss", choices=("mae", "mse"), default="mae")
    sp.add_argument("--segments", type=int, default=32)
    sp.add_argument("--seg-len", type=int, default=256)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json")
    sp.set_defaults(fn=cmd_calibrate)

    sp = sub.add_parser("eval", help="perplexity / fidelity metrics")
    sp.add_argument("--model", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--mode", choices=("fp", "weight_only", "weight_kv",
                                       "weight_activation"), default=None)
    sp.add_argument("--use-cache", action="store_true",
                    help="score through the POQ cache path (quantized past, fp current K/V)")
    sp.add_argument("--fp-model")
    sp.add_argument("--max-tokens", type=int, default=4096)
    sp.add_argument("--json")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("analyze", help="deployment memory / latency model")
    sp.add_argument("--preset", choices=("decode-table",), default=None)
    sp.add_argument("--arch", default="llama-2-7b")
    sp.add_argument("--setting", choices=("fp16", "w4", "w4kv4", "w4a4"), default="w4kv4")
    sp.add_argument("--batch", type=int, default=1)
    sp.add_argument("--prompt-len", type=int, default=2048)
    sp.add_argument("--gen-len", type=int, default=0)
    sp.add_argument("--phase", choices=("prefill", "decode"), default="decode")
    sp.add_argument("--bandwidth", type=float, default=1.0e12)
    sp.add_argument("--json")
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("ablate", help="toggle pipeline pieces and compare perplexity")
    sp.add_argument("--model", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--drop", action="append", default=[],
                    help=f"feature to remove from the full pipeline: {_FEATURES}")
    sp.add_argument("--add", action="append", default=[],
                    help="feature to add on top of the bare pipeline")
    sp.add_argument("--k", type=int, default=5)
    sp.add_argument("--epochs", type=int, default=2)
    sp.add_argument("--segments", type=int, default=8)
    sp.add_argument("--seg-len", type=int, default=64)
    sp.add_argument("--max-tokens", type=int, default=512)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json")
    sp.set_defaults(fn=cmd_ablate)

    sp = sub.add_parser("sweep-k", help="calibrate at several span lengths")
    sp.add_argument("--model", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--k-values", default="1,2,3,5")
    sp.add_argument("--epochs", type=int, default=2)
    sp.add_argument("--segments", type=int, default=8)
    sp.add_argument("--seg-len", type=int, default=64)
    sp.add_argument("--max-tokens", type=int, default=512)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json")
    sp.set_defaults(fn=cmd_sweep_k)

    sp = sub.add_parser("generate", help="greedy continuation of a UTF-8 prompt")
    sp.add_argument("--model", required=True)
    sp.add_argument("--prompt", required=True)
    sp.add_argument("--n-new", type=int, default=32)
    sp.add_argument("--mode", default=None)
    sp.add_argument("--json")
    sp.set_defaults(fn=cmd_generate)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DataFormatError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except KvqError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
