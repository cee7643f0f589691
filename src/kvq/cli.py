"""Command-line toolkit.

Every command prints only its JSON report to stdout (`kvq ... > FILE`
saves it).  Exit codes: 0 success, 2 usage error, 3 data/format error, 4
numeric error.

Set KVQ_THREADS to pin the BLAS thread count; the kvq package sets the BLAS
variables on import, before numpy loads.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import sys

import numpy as np

from .errors import DataFormatError, KvqError, NumericError, UsageError


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _check_max_tokens(limit: int) -> None:
    """A score needs a context token and a scored one, so --max-tokens
    below 2 raises UsageError."""
    if limit < 2:
        raise UsageError(f"--max-tokens must be >= 2 (a context token and a scored one), "
                         f"got {limit}")


# quantization flag -> ModelConfig field
_QUANT_FIELDS = {"bits": "weight_bits", "kv_bits": "kv_bits",
                 "group_size": "weight_group_size", "kv_group_size": "kv_group_size"}


def _apply_quant_args(model, args, **fields) -> None:
    """Rebuild the model's config with the fields whose flags were given (and
    any fields passed), so ModelConfig checks them; the rest keep the
    checkpoint's."""
    for flag, field in _QUANT_FIELDS.items():
        if getattr(args, flag) is not None:
            fields[field] = getattr(args, flag)
    model.config = dataclasses.replace(model.config, **fields)


def _calib_config(args, **fields):
    """The CalibConfig of the calibration flags that calibrate, ablate and
    sweep-k share (build_parser's add_calib_args) and the fields given; the
    rest keep CalibConfig's defaults."""
    from .calibration import CalibConfig

    return CalibConfig(epochs=args.epochs, segments=args.segments, seg_len=args.seg_len,
                       seed=args.seed, **fields)


# -- commands -----------------------------------------------------------------


def cmd_fit(args) -> int:
    from .evaluate import load_corpus, train_model
    from .checkpoint import save_model
    from .model import Model, ModelConfig

    cfg = ModelConfig(
        n_layers=args.layers,
        hidden_size=args.hidden,
        n_heads=args.heads,
        head_dim=args.hidden // max(args.heads, 1),  # ModelConfig refuses heads < 1
        intermediate_size=args.intermediate,
        max_seq_len=args.max_seq_len,
        kv_group_size=args.kv_group_size,
        weight_group_size=args.group_size,
    )
    model = Model.random(cfg, seed=args.seed)
    report = {"config": {"n_layers": cfg.n_layers, "hidden_size": cfg.hidden_size}}
    if args.steps:  # train_model refuses a negative count
        ids = load_corpus(args.corpus)
        report["train"] = train_model(
            model, ids, steps=args.steps, batch=args.batch,
            seq_len=args.seq_len, lr=args.lr, seed=args.seed,
        )
    save_model(model, args.out, meta={"seed": args.seed})
    _print_json(report)
    return 0


def cmd_quantize(args) -> int:
    from .checkpoint import load_model, read_container, save_model
    from .model import quantize_model_weights

    model = load_model(args.model)
    _apply_quant_args(model, args, quant_mode=args.mode)
    cfg = model.config
    quantize_model_weights(model)
    if cfg.quant_mode == "weight_kv" and all(
        blk.v.smoothing is None for blk in model.blocks
    ):
        print(
            "warning: KV-quantized model has no channel smoothing; "
            "run `kvq calibrate` for best accuracy",
            file=sys.stderr,
        )
    # the input's meta, so a model that holds its codes at the config's spec
    # (a calibrated one) is written back byte for byte
    save_model(model, args.out, meta=read_container(args.model)[1])
    _print_json({"mode": cfg.quant_mode, "weight_bits": cfg.weight_bits,
                 "kv_bits": cfg.kv_bits, "out": args.out})
    return 0


def cmd_calibrate(args) -> int:
    from .calibration import calibrate_model
    from .checkpoint import load_model, save_model
    from .evaluate import load_corpus

    calib = _calib_config(args, k=args.k)
    model = load_model(args.model)
    _apply_quant_args(model, args)
    ids = load_corpus(args.corpus)
    report = calibrate_model(model, ids, calib)
    save_model(model, args.out, meta={"calibrated": True, "seed": args.seed})
    _print_json(report)
    return 0


def cmd_eval(args) -> int:
    from .checkpoint import load_model
    from .evaluate import eval_report, load_corpus

    _check_max_tokens(args.max_tokens)
    model = load_model(args.model)
    if args.mode:
        model.config = dataclasses.replace(model.config, quant_mode=args.mode)
    ids = load_corpus(args.corpus)[: args.max_tokens]
    fp_model = load_model(args.fp_model) if args.fp_model else None
    report = eval_report(model, ids, use_cache=args.use_cache, fp_model=fp_model)
    _print_json(report)
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
        _print_json({"preset": "decode-table", "rows": table7_report()})
        return 0

    arch = ARCH_PRESETS.get(args.arch)
    if arch is None:
        raise UsageError(f"unknown arch {args.arch!r}; choose from {sorted(ARCH_PRESETS)}")
    dc = DeployConfig.for_setting(
        arch, args.setting, batch=args.batch,
        prompt_len=args.prompt_len, gen_len=args.gen_len,
        bandwidth_bytes=args.bandwidth,
    )
    doc = {
        "arch": arch.name,
        "setting": args.setting,
        "batch": args.batch,
        "prompt_len": args.prompt_len,
        "gen_len": args.gen_len,
        "phase": args.phase,
        "memory": estimate_memory(dc, args.phase).as_dict(),
    }
    if args.gen_len >= 1:
        doc["decode_time"] = estimate_decode_time(dc)
    _print_json(doc)
    return 0


_FEATURES = ("2dq-channel", "2dq-token", "poq")


def _run_variant(model, ids, eval_ids, features: set[str], calib) -> dict:
    """One ablation row.  Without 2dq-channel the row is the round-to-nearest
    model, which has no calibration loss."""
    from .calibration import calibrate_model
    from .evaluate import perplexity
    from .model import quantize_model_weights

    m = copy.deepcopy(model)
    # calibration reads only kv_bits of these three fields
    m.config = dataclasses.replace(m.config, quant_mode="weight_kv", poq="poq" in features,
                                   kv_bits=m.config.kv_bits if "2dq-token" in features else 16)
    mean_final_loss = None
    if "2dq-channel" in features:
        report = calibrate_model(m, ids, calib)
        mean_final_loss = float(np.mean([b["final_loss"] for b in report["blocks"]]))
    else:
        quantize_model_weights(m)
    ppl = perplexity(m, eval_ids, use_cache=True)
    return {
        "features": sorted(features),
        "perplexity": ppl["perplexity"],
        "mean_nll": ppl["mean_nll"],
        "mean_final_loss": mean_final_loss,
    }


def cmd_ablate(args) -> int:
    from .checkpoint import load_model
    from .evaluate import load_corpus, perplexity

    for f in args.drop + args.add:
        if f not in _FEATURES:
            raise UsageError(f"unknown feature {f!r}; choose from {_FEATURES}")
    _check_max_tokens(args.max_tokens)
    calib = _calib_config(args, k=args.k)
    model = load_model(args.model)
    ids = load_corpus(args.corpus)
    eval_ids = ids[: args.max_tokens]

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
    _print_json(doc)
    return 0


def cmd_sweep_k(args) -> int:
    from .checkpoint import load_model
    from .evaluate import load_corpus

    try:
        k_values = [int(v) for v in args.k_values.split(",")]
    except ValueError:
        raise UsageError(f"--k-values must be comma-separated integers, "
                         f"got {args.k_values!r}") from None
    _check_max_tokens(args.max_tokens)
    calib = _calib_config(args)
    model = load_model(args.model)
    for k in k_values:
        if not 1 <= k <= model.config.n_layers:
            raise UsageError(f"k must be in 1..{model.config.n_layers}, got {k}")
    ids = load_corpus(args.corpus)
    eval_ids = ids[: args.max_tokens]
    rows = []
    for k in k_values:
        row = _run_variant(model, ids, eval_ids, set(_FEATURES), dataclasses.replace(calib, k=k))
        rows.append({"k": k, "mean_final_loss": row["mean_final_loss"],
                     "perplexity": row["perplexity"]})
    _print_json({"rows": rows})
    return 0


def cmd_generate(args) -> int:
    from .checkpoint import load_model
    from .evaluate import encode_bytes
    from .model import generate

    model = load_model(args.model)
    if args.mode:
        model.config = dataclasses.replace(model.config, quant_mode=args.mode)
    prompt = encode_bytes(args.prompt.encode("utf-8"))
    out = generate(model, prompt, args.n_new)
    new = out[len(prompt):]
    text = bytes(int(t) for t in new if t < 256).decode("utf-8", errors="replace")
    _print_json({"prompt": args.prompt, "ids": [int(t) for t in out], "completion": text})
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from .model import MODES

    p = argparse.ArgumentParser(prog="kvq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_quant_args(sp):
        for flag in _QUANT_FIELDS:
            sp.add_argument("--" + flag.replace("_", "-"), type=int, default=None,
                            help="default: the checkpoint's value")

    def add_calib_args(sp, segments: int, seg_len: int):
        """The model, corpus and calibration flags of calibrate, ablate
        and sweep-k, at the command's defaults."""
        sp.add_argument("--model", required=True)
        sp.add_argument("--corpus", required=True)
        sp.add_argument("--epochs", type=int, default=2,
                        help="halvings of the migration-strength grid: each block scores "
                             "alpha = j / 2^epochs for j = 0 .. 2^epochs (at most 6)")
        sp.add_argument("--segments", type=int, default=segments)
        sp.add_argument("--seg-len", type=int, default=seg_len)
        sp.add_argument("--seed", type=int, default=0)

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
    sp.set_defaults(fn=cmd_fit)

    sp = sub.add_parser("quantize", help="round-to-nearest quantization; keeps calibrated codes")
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--mode", choices=MODES, default="weight_kv")
    add_quant_args(sp)
    sp.set_defaults(fn=cmd_quantize)

    sp = sub.add_parser("calibrate", help="choose K/V smoothing block by block")
    add_calib_args(sp, segments=32, seg_len=256)
    sp.add_argument("--out", required=True)
    add_quant_args(sp)
    sp.add_argument("--k", type=int, default=5)
    sp.set_defaults(fn=cmd_calibrate)

    sp = sub.add_parser("eval", help="perplexity / fidelity metrics")
    sp.add_argument("--model", required=True)
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--mode", choices=MODES, default=None,
                    help="setting to score in (default: the checkpoint's quant_mode)")
    sp.add_argument("--use-cache", action="store_true",
                    help="score through the POQ cache path (quantized past, fp current K/V)")
    sp.add_argument("--fp-model")
    sp.add_argument("--max-tokens", type=int, default=4096)
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
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("ablate", help="toggle pipeline pieces and compare perplexity")
    add_calib_args(sp, segments=8, seg_len=64)
    sp.add_argument("--drop", action="append", default=[],
                    help=f"feature to remove from the full pipeline: {_FEATURES}")
    sp.add_argument("--add", action="append", default=[],
                    help="feature to add on top of the bare pipeline")
    sp.add_argument("--k", type=int, default=5)
    sp.add_argument("--max-tokens", type=int, default=512)
    sp.set_defaults(fn=cmd_ablate)

    sp = sub.add_parser("sweep-k", help="calibrate at several span lengths")
    add_calib_args(sp, segments=8, seg_len=64)
    sp.add_argument("--k-values", default="1,2,3,5")
    sp.add_argument("--max-tokens", type=int, default=512)
    sp.set_defaults(fn=cmd_sweep_k)

    sp = sub.add_parser("generate", help="greedy continuation of a UTF-8 prompt")
    sp.add_argument("--model", required=True)
    sp.add_argument("--prompt", required=True)
    sp.add_argument("--n-new", type=int, default=32)
    sp.add_argument("--mode", choices=MODES, default=None,
                    help="setting to generate in (default: the checkpoint's quant_mode)")
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
