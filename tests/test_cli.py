import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from conftest import WORDS, tiny_config
from kvq.analyzer import (ARCH_PRESETS, DeployConfig, estimate_decode_time, estimate_memory,
                          table7_report)
from kvq.calibration import CalibConfig, calibrate_model
from kvq.checkpoint import load_model, read_container, save_model, write_container
from kvq.cli import build_parser, main
from kvq.evaluate import load_corpus
from kvq.model import MODES, Model

FIT_ARGS = [
    "--layers", "2", "--hidden", "32", "--heads", "2", "--intermediate", "48",
    "--max-seq-len", "64", "--group-size", "16", "--kv-group-size", "8",
    "--steps", "20", "--batch", "2", "--seq-len", "24", "--seed", "0",
]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CAL_ARGS = [
    "--group-size", "16", "--kv-group-size", "8",
    "--k", "1", "--epochs", "1", "--segments", "2", "--seg-len", "24",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    corpus = d / "corpus.txt"
    rng = np.random.default_rng(0)
    corpus.write_bytes(b"".join(WORDS[i] for i in rng.integers(0, 8, size=400)))
    model = d / "model.kvq"
    rc = main(["fit", "--corpus", str(corpus), "--out", str(model)] + FIT_ARGS)
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def calibrated(workdir):
    out = workdir / "calibrated.kvq"
    rc = main(["calibrate", "--model", str(workdir / "model.kvq"),
               "--corpus", str(workdir / "corpus.txt"), "--out", str(out)] + CAL_ARGS)
    assert rc == 0
    return out


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestFit:
    def test_json_report_on_stdout(self, workdir, capsys):
        out = workdir / "m2.kvq"
        rc, stdout, _ = run(capsys, ["fit", "--corpus", str(workdir / "corpus.txt"),
                                     "--out", str(out)] + FIT_ARGS)
        assert rc == 0
        rep = json.loads(stdout)
        assert rep["config"]["n_layers"] == 2
        assert rep["train"]["final_loss"] < rep["train"]["initial_loss"]

    def test_deterministic_checkpoint(self, workdir, capsys):
        # the same flags give the same bytes; another --lr trains from the
        # same start to another model
        a, b, c = workdir / "da.kvq", workdir / "db.kvq", workdir / "dc.kvq"
        outs = []
        for path, lr in ((a, []), (b, []), (c, ["--lr", "1e-2"])):
            rc, stdout, _ = run(capsys, ["fit", "--corpus", str(workdir / "corpus.txt"),
                                         "--out", str(path)] + FIT_ARGS + lr)
            assert rc == 0
            outs.append(stdout)
        assert outs[0] == outs[1]
        assert a.read_bytes() == b.read_bytes()
        default, other = (json.loads(out)["train"] for out in (outs[0], outs[2]))
        assert other["initial_loss"] == default["initial_loss"]
        assert other["final_loss"] != default["final_loss"]

    def test_corpus_of_one_window(self, workdir, capsys):
        # 16 bytes and the BOS token make exactly one window of --seq-len 16
        corpus = workdir / "one_window.txt"
        corpus.write_bytes(b"the quick brown ")
        args = FIT_ARGS[: FIT_ARGS.index("--seq-len")] + ["--seq-len", "16", "--seed", "0"]
        rc, stdout, _ = run(capsys, ["fit", "--corpus", str(corpus),
                                     "--out", str(workdir / "one.kvq")] + args)
        assert rc == 0
        assert json.loads(stdout)["train"]["steps"] == 20

    @pytest.mark.parametrize("flag, value, message", [
        ("--steps", "-1", "need steps >= 0"), ("--batch", "0", "need steps >= 0"),
        ("--seq-len", "0", "need steps >= 0"), ("--lr", "-1", "lr must be a finite positive"),
        ("--lr", "nan", "lr must be a finite positive"),
    ])
    def test_arguments_it_cannot_train_with_are_usage_errors(self, workdir, capsys, flag,
                                                             value, message):
        out = workdir / "refused.kvq"
        rc, stdout, err = run(capsys, ["fit", "--corpus", str(workdir / "corpus.txt"),
                                       "--out", str(out)] + FIT_ARGS + [flag, value])
        assert rc == 2
        assert message in err and stdout == "" and not out.exists()

    def test_window_past_capacity_is_usage_error(self, workdir, capsys):
        # a --seq-len past --max-seq-len fitted windows no cache holds
        out = workdir / "too_long.kvq"
        rc, stdout, err = run(capsys, ["fit", "--corpus", str(workdir / "corpus.txt"),
                                       "--out", str(out)] + FIT_ARGS
                              + ["--max-seq-len", "32", "--seq-len", "40"])
        assert rc == 2
        assert "training window of 40 tokens > max_seq_len 32" in err
        assert stdout == "" and not out.exists()

    def test_missing_corpus_is_data_error(self, workdir, capsys):
        rc, _, err = run(capsys, ["fit", "--corpus", str(workdir / "nope.txt"),
                                  "--out", str(workdir / "x.kvq")] + FIT_ARGS)
        assert rc == 3
        assert "error" in err

    @pytest.mark.parametrize("flag, field", [("--layers", "n_layers"), ("--heads", "n_heads")])
    def test_zero_layers_or_heads_is_usage_error(self, workdir, capsys, flag, field):
        # --heads 0 is refused by ModelConfig, before the head width divides by it
        out = workdir / "zero.kvq"
        rc, stdout, err = run(capsys, ["fit", "--corpus", str(workdir / "corpus.txt"),
                                       "--out", str(out)] + FIT_ARGS + [flag, "0"])
        assert rc == 2
        assert f"{field} must be >= 1" in err
        assert stdout == "" and not out.exists()


class TestQuantize:
    def test_weight_kv_warns_without_smoothing(self, workdir, capsys):
        out = workdir / "q.kvq"
        rc, stdout, err = run(capsys, [
            "quantize", "--model", str(workdir / "model.kvq"), "--out", str(out),
            "--mode", "weight_kv", "--group-size", "16", "--kv-group-size", "8",
        ])
        assert rc == 0
        assert "smoothing" in err
        m = load_model(str(out))
        assert m.config.quant_mode == "weight_kv"
        assert m.blocks[0].q.wq is not None

    def test_weight_only_quiet(self, workdir, capsys):
        rc, _, err = run(capsys, [
            "quantize", "--model", str(workdir / "model.kvq"),
            "--out", str(workdir / "qw.kvq"), "--mode", "fp",
            "--group-size", "16", "--kv-group-size", "8",
        ])
        assert rc == 0
        assert err == ""

    def test_deterministic_output_bytes(self, workdir, capsys):
        paths = [workdir / "qa.kvq", workdir / "qb.kvq"]
        for p in paths:
            rc, _, _ = run(capsys, [
                "quantize", "--model", str(workdir / "model.kvq"), "--out", str(p),
                "--mode", "fp", "--group-size", "16", "--kv-group-size", "8",
            ])
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_calibrated_codes_kept(self, workdir, capsys):
        # a calibrated model's weights are its codes' dequantization;
        # quantizing again must keep those codes
        cal, out = workdir / "cal_for_quantize.kvq", workdir / "cal_w4kv4.kvq"
        rc, _, _ = run(capsys, [
            "calibrate", "--model", str(workdir / "model.kvq"),
            "--corpus", str(workdir / "corpus.txt"), "--out", str(cal),
        ] + CAL_ARGS)
        assert rc == 0
        rc, _, _ = run(capsys, [
            "quantize", "--model", str(cal), "--out", str(out), "--mode", "weight_kv",
            "--group-size", "16", "--kv-group-size", "8",
        ])
        assert rc == 0
        before, after = load_model(str(cal)), load_model(str(out))
        for b1, b2 in zip(before.blocks, after.blocks):
            for name, lin in b1.projections().items():
                lin2 = b2.projections()[name]
                assert np.array_equal(lin.wq.codes, lin2.wq.codes), name
                assert np.abs(lin2.w - lin.w).max() <= 1e-6 * np.abs(lin.w).max(), name

    def test_calibrated_checkpoint_written_back_byte_for_byte(self, workdir, calibrated,
                                                              capsys):
        # its codes are at the config's spec, so quantizing keeps them, h
        # and z included, and the input's meta: the file is the input's
        out = workdir / "cal_requantized.kvq"
        rc, _, _ = run(capsys, ["quantize", "--model", str(calibrated), "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == calibrated.read_bytes()

    @pytest.mark.parametrize("command, extra", [
        ("quantize", ["--mode", "weight_kv"]),
        ("calibrate", ["--corpus", "corpus.txt", "--k", "1", "--epochs", "1",
                       "--segments", "2", "--seg-len", "24"]),
    ], ids=["quantize", "calibrate"])
    def test_unset_quant_flags_keep_checkpoint_values(self, workdir, capsys, command, extra):
        # fit wrote group sizes 16 and 8; only --kv-bits is given here
        out = workdir / f"keep_{command}.kvq"
        extra = [str(workdir / a) if a == "corpus.txt" else a for a in extra]
        rc, _, _ = run(capsys, [command, "--model", str(workdir / "model.kvq"),
                                "--out", str(out), "--kv-bits", "8"] + extra)
        assert rc == 0
        cfg = load_model(str(out)).config
        assert (cfg.weight_group_size, cfg.kv_group_size) == (16, 8)
        assert (cfg.weight_bits, cfg.kv_bits) == (4, 8)

    @pytest.mark.parametrize("flag", ["--kv-bits", "--bits"])
    def test_code_width_beyond_storage_refused(self, workdir, capsys, flag):
        # token codes are int8 and weight codes uint8: 12-bit codes would wrap
        out = workdir / "wide.kvq"
        rc, _, err = run(capsys, ["quantize", "--model", str(workdir / "model.kvq"),
                                  "--out", str(out), flag, "12"])
        assert rc == 2
        assert "must be 2..8 or 16" in err
        assert not out.exists()

    def test_rtn_mode_removed(self, workdir):
        with pytest.raises(SystemExit) as e:
            main(["quantize", "--model", str(workdir / "model.kvq"),
                  "--out", str(workdir / "rtn.kvq"), "--mode", "rtn"])
        assert e.value.code == 2


class TestCalibrate:
    def test_produces_calibrated_model(self, workdir, capsys):
        out = workdir / "cal.kvq"
        rc, stdout, _ = run(capsys, [
            "calibrate", "--model", str(workdir / "model.kvq"),
            "--corpus", str(workdir / "corpus.txt"), "--out", str(out),
        ] + CAL_ARGS)
        assert rc == 0
        rep = json.loads(stdout)
        assert len(rep["blocks"]) == 2
        m = load_model(str(out))
        assert m.config.quant_mode == "weight_kv"
        # the library's report at the same settings
        calib = CalibConfig(k=1, epochs=1, segments=2, seg_len=24)
        want = calibrate_model(load_model(str(workdir / "model.kvq")),
                               load_corpus(str(workdir / "corpus.txt")), calib)
        assert rep == json.loads(json.dumps(want))

    @pytest.mark.parametrize("command, extra", [
        ("calibrate", CAL_ARGS),
        ("ablate", ["--k", "1", "--epochs", "1", "--segments", "2", "--seg-len", "24"]),
        ("sweep-k", ["--k-values", "1", "--epochs", "1", "--segments", "2",
                     "--seg-len", "24"]),
    ], ids=["calibrate", "ablate", "sweep-k"])
    def test_calibrated_checkpoint_refused(self, workdir, calibrated, capsys, command, extra):
        # a second calibration would smooth the k/v projections twice
        out = workdir / "recalibrated.kvq"
        if command == "calibrate":
            extra = extra + ["--out", str(out)]
        rc, stdout, err = run(capsys, [
            command, "--model", str(calibrated), "--corpus", str(workdir / "corpus.txt"),
        ] + extra)
        assert rc == 2
        assert "block 0" in err and "smoothing" in err
        assert stdout == "" and not out.exists()


    @pytest.mark.parametrize("command", ["calibrate", "ablate", "sweep-k"])
    @pytest.mark.parametrize("flag, value", [
        ("--segments", "0"), ("--segments", "-2"), ("--seg-len", "0"), ("--epochs", "-1"),
    ])
    def test_degenerate_sizes_are_usage_errors(self, workdir, capsys, command, flag, value):
        out = workdir / "degenerate.kvq"
        extra = ["--out", str(out)] if command == "calibrate" else []
        rc, stdout, err = run(capsys, [
            command, "--model", str(workdir / "model.kvq"),
            "--corpus", str(workdir / "corpus.txt"), flag, value,
        ] + extra)
        assert rc == 2
        assert flag.lstrip("-").replace("-", "_") in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("command", ["fit", "calibrate", "ablate", "sweep-k"])
    def test_negative_seed_is_usage_error(self, workdir, capsys, command):
        # numpy's generators refuse it with a ValueError, past the usage checks
        out, corpus = workdir / "negative_seed.kvq", str(workdir / "corpus.txt")
        argv = {"fit": ["--out", str(out)] + FIT_ARGS, "calibrate": ["--out", str(out)],
                "sweep-k": ["--k-values", "1"]}.get(command, [])
        source = ["--corpus", corpus] if command == "fit" else [
            "--model", str(workdir / "model.kvq"), "--corpus", corpus]
        rc, stdout, err = run(capsys, [command] + source + argv + ["--seed", "-1"])
        assert rc == 2
        assert "seed must be an integer >= 0, got -1" in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "ablate", "sweep-k"])
    def test_segments_past_capacity_are_usage_errors(self, workdir, capsys, command):
        # the fixture's model holds 64 positions
        out = workdir / "long_segments.kvq"
        extra = {"calibrate": ["--out", str(out)], "sweep-k": ["--k-values", "1"]}.get(command, [])
        rc, stdout, err = run(capsys, [
            command, "--model", str(workdir / "model.kvq"),
            "--corpus", str(workdir / "corpus.txt"), "--seg-len", "65",
        ] + extra)
        assert rc == 2
        assert "calibration segment of 65 tokens > max_seq_len 64" in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("command", ["eval", "ablate", "sweep-k"])
    @pytest.mark.parametrize("value", ["1", "0", "-5"])
    def test_max_tokens_below_two_is_usage_error(self, workdir, capsys, command, value):
        # a limit below 2 was raised to 2 and scored one token
        rc, stdout, err = run(capsys, [
            command, "--model", str(workdir / "model.kvq"),
            "--corpus", str(workdir / "corpus.txt"), "--max-tokens", value,
        ])
        assert rc == 2
        assert f"--max-tokens must be >= 2 (a context token and a scored one), got {value}" in err
        assert stdout == ""


class TestEval:
    def test_report_fields(self, workdir, capsys):
        rc, stdout, _ = run(capsys, [
            "eval", "--model", str(workdir / "model.kvq"),
            "--corpus", str(workdir / "corpus.txt"), "--max-tokens", "128",
            "--use-cache",
        ])
        assert rc == 0
        rep = json.loads(stdout)
        assert rep["perplexity"] > 1.0 and rep["tokens"] > 0

    def test_fp_model_comparison(self, workdir, capsys):
        rc, stdout, _ = run(capsys, [
            "eval", "--model", str(workdir / "model.kvq"),
            "--corpus", str(workdir / "corpus.txt"), "--max-tokens", "64",
            "--fp-model", str(workdir / "model.kvq"),
        ])
        assert rc == 0
        assert json.loads(stdout)["logit_mae_vs_fp"] == 0.0

    def test_missing_model_is_data_error(self, workdir, capsys):
        rc, _, _ = run(capsys, [
            "eval", "--model", str(workdir / "ghost.kvq"),
            "--corpus", str(workdir / "corpus.txt"),
        ])
        assert rc == 3

    def test_removed_config_key_is_data_error(self, workdir, capsys):
        # checkpoints written with the removed cache_post_rotary option are refused
        config, meta, tensors = read_container(str(workdir / "model.kvq"))
        old = workdir / "old.kvq"
        write_container(str(old), dict(config, cache_post_rotary=False), meta, tensors)
        rc, _, err = run(capsys, [
            "eval", "--model", str(old), "--corpus", str(workdir / "corpus.txt"),
        ])
        assert rc == 3
        assert "cache_post_rotary" in err

    def test_invalid_config_value_is_data_error(self, workdir, capsys):
        # a header that ModelConfig refuses is a malformed file, not a usage error
        config, meta, tensors = read_container(str(workdir / "model.kvq"))
        bad = workdir / "wide_kv.kvq"
        write_container(str(bad), dict(config, kv_bits=12), meta, tensors)
        rc, _, err = run(capsys, [
            "eval", "--model", str(bad), "--corpus", str(workdir / "corpus.txt"),
        ])
        assert rc == 3
        assert "kv_bits" in err

    @pytest.mark.parametrize("field, value", [
        ("n_layers", 2.5), ("max_seq_len", 8.5), ("n_layers", 0), ("poq", "yes"),
        ("kv_group_size", 0),
    ])
    def test_malformed_config_field_is_data_error(self, workdir, capsys, field, value):
        # a config field of the wrong type or range fails at load, not as a
        # traceback, a silent score or a usage error at first use
        config, meta, tensors = read_container(str(workdir / "model.kvq"))
        bad = workdir / "bad_field.kvq"
        write_container(str(bad), dict(config, **{field: value}), meta, tensors)
        rc, stdout, err = run(capsys, [
            "eval", "--model", str(bad), "--corpus", str(workdir / "corpus.txt"),
        ])
        assert rc == 3
        assert f"bad config in header: {field}" in err and stdout == ""

    def test_float_tensor_stored_as_integers_is_data_error(self, workdir, capsys):
        # an embedding of the right shape stored as i32 would load and score
        config, meta, tensors = read_container(str(workdir / "model.kvq"))
        tensors["embed"] = tensors["embed"].astype(np.int32)
        bad = workdir / "int_embed.kvq"
        write_container(str(bad), config, meta, tensors)
        rc, stdout, err = run(capsys, [
            "eval", "--model", str(bad), "--corpus", str(workdir / "corpus.txt"),
        ])
        assert rc == 3
        assert "tensor 'embed' has dtype int32, expected float32" in err and stdout == ""

    def test_missing_tensor_is_data_error(self, workdir, capsys):
        config, meta, tensors = read_container(str(workdir / "model.kvq"))
        del tensors["blocks.0.q.w"]
        broken = workdir / "missing_tensor.kvq"
        write_container(str(broken), config, meta, tensors)
        rc, _, err = run(capsys, [
            "eval", "--model", str(broken), "--corpus", str(workdir / "corpus.txt"),
        ])
        assert rc == 3
        assert "blocks.0.q.w" in err

    def test_bad_weight_bits_is_data_error(self, workdir, calibrated, capsys):
        # the config's bits decide how every projection's packed codes are
        # read: 9 is no width, and 3 reads a stream of another length
        config, meta, tensors = read_container(str(calibrated))
        bad = workdir / "bad_bits.kvq"
        for bits, message in ((9, "bad config in header: weight_bits must be 2..8 or 16, got 9"),
                              (3, "tensor 'blocks.0.q.wq.codes' has shape [512], expected "
                                  "[384] from the config")):
            write_container(str(bad), dict(config, weight_bits=bits), meta, tensors)
            rc, _, err = run(capsys, [
                "eval", "--model", str(bad), "--corpus", str(workdir / "corpus.txt"),
            ])
            assert rc == 3
            assert message in err

    @pytest.mark.parametrize("group_size", [0, "16", 32])
    def test_bad_weight_group_size_is_data_error(self, workdir, calibrated, capsys, group_size):
        # h and z hold one row per group of the config's group size
        message = {
            0: "bad config in header: weight_group_size must be >= 1, got 0",
            "16": "bad config in header: weight_group_size must be an integer, got '16'",
            32: "tensor 'blocks.0.q.wq.h' has shape [2, 32], expected [1, 32] from the config",
        }[group_size]
        config, meta, tensors = read_container(str(calibrated))
        bad = workdir / "bad_group_size.kvq"
        write_container(str(bad), dict(config, weight_group_size=group_size), meta, tensors)
        rc, _, err = run(capsys, [
            "eval", "--model", str(bad), "--corpus", str(workdir / "corpus.txt"),
        ])
        assert rc == 3
        assert message in err

    def test_unknown_dtype_is_data_error(self, workdir, capsys):
        # same header length, so only the dtype name is wrong
        data = (workdir / "model.kvq").read_bytes()
        bad = workdir / "unknown_dtype.kvq"
        bad.write_bytes(data.replace(b'"dtype":"f32"', b'"dtype":"f64"', 1))
        rc, _, err = run(capsys, [
            "eval", "--model", str(bad), "--corpus", str(workdir / "corpus.txt"),
        ])
        assert rc == 3
        assert "unknown dtype 'f64'" in err

    def test_table_entry_without_nbytes_is_data_error(self, workdir, capsys):
        # same header length: the key's name is misspelt, so the entry lacks it
        data = (workdir / "model.kvq").read_bytes()
        bad = workdir / "no_nbytes.kvq"
        bad.write_bytes(data.replace(b'"nbytes":', b'"nbytez":', 1))
        rc, _, err = run(capsys, [
            "eval", "--model", str(bad), "--corpus", str(workdir / "corpus.txt"),
        ])
        assert rc == 3
        assert "has no nbytes in its entry" in err

    @pytest.mark.parametrize("fault", ["table", "transposed"])
    def test_head_shape_fault_is_data_error(self, workdir, capsys, fault):
        bad = workdir / f"head_{fault}.kvq"
        if fault == "table":
            # a larger shape in the table, nbytes and header length unchanged
            data = (workdir / "model.kvq").read_bytes()
            assert data.count(b'"shape":[32,258]') == 1
            bad.write_bytes(data.replace(b'"shape":[32,258]', b'"shape":[99,258]'))
            expect = "'head.w' has nbytes 33024, expected 102168"
        else:
            config, meta, tensors = read_container(str(workdir / "model.kvq"))
            tensors["head.w"] = tensors["head.w"].reshape(258, 32)
            write_container(str(bad), config, meta, tensors)
            expect = "'head.w' has shape [258, 32], expected [32, 258]"
        rc, _, err = run(capsys, [
            "eval", "--model", str(bad), "--corpus", str(workdir / "corpus.txt"),
        ])
        assert rc == 3
        assert expect in err

    @pytest.mark.parametrize("name, value", [("blocks.0.q.wq.h", np.inf),
                                             ("blocks.1.k.smooth.delta", np.nan)])
    def test_non_finite_tensor_is_data_error(self, workdir, calibrated, capsys, name, value):
        # refused at load, naming the tensor, before any forward runs
        config, meta, tensors = read_container(str(calibrated))
        tensors[name][0, ...] = value
        bad = workdir / f"non_finite_{name}.kvq"
        write_container(str(bad), config, meta, tensors)
        rc, _, err = run(capsys, [
            "eval", "--model", str(bad), "--corpus", str(workdir / "corpus.txt"),
        ])
        assert rc == 3
        assert f"tensor {name!r} holds a value that is not finite" in err

    @pytest.mark.parametrize("cache", [False, True])
    def test_overflowing_scores_are_numeric_error(self, workdir, capsys, cache):
        # finite q and k of about 1e20 per channel: every score overflows
        config, meta, tensors = read_container(str(workdir / "model.kvq"))
        tensors["blocks.0.q.b"] += np.float32(1e20)
        tensors["blocks.0.k.b"] -= np.float32(1e20)
        bad = workdir / "overflowing_scores.kvq"
        write_container(str(bad), config, meta, tensors)
        argv = ["eval", "--model", str(bad), "--corpus", str(workdir / "corpus.txt"),
                "--max-tokens", "64"] + (["--use-cache"] if cache else [])
        with np.errstate(over="ignore", invalid="ignore"):  # numpy's warnings, not the check
            rc, _, err = run(capsys, argv)
        assert rc == 4
        assert "softmax_causal: non-finite input" in err

    def test_setting_comes_from_mode_flag_or_checkpoint(self, workdir, capsys):
        argv = ["eval", "--model", str(workdir / "model.kvq"),
                "--corpus", str(workdir / "corpus.txt"), "--max-tokens", "64"]
        own = json.loads(run(capsys, argv)[1])
        rep = json.loads(run(capsys, argv + ["--mode", "weight_activation"])[1])
        assert (own["setting"], rep["setting"]) == ("fp", "weight_activation")
        assert rep["perplexity"] != own["perplexity"]  # the flag reached the forward

    def test_weight_bits_are_the_models_state(self, workdir, capsys):
        # the mode says what a forward does to K/V and activations; the
        # report's weight_bits says whether the weights are codes
        w4 = workdir / "w4_for_eval.kvq"
        assert run(capsys, ["quantize", "--model", str(workdir / "model.kvq"),
                            "--out", str(w4), "--mode", "fp"])[0] == 0
        argv = ["--corpus", str(workdir / "corpus.txt"), "--max-tokens", "64", "--mode", "fp"]
        fp = json.loads(run(capsys, ["eval", "--model", str(workdir / "model.kvq")] + argv)[1])
        q = json.loads(run(capsys, ["eval", "--model", str(w4)] + argv)[1])
        assert (fp["setting"], fp["weight_bits"]) == ("fp", None)
        assert (q["setting"], q["weight_bits"]) == ("fp", 4)
        assert q["perplexity"] != fp["perplexity"]

    def test_bad_mode_is_usage_error(self, workdir):
        with pytest.raises(SystemExit) as e:
            main(["eval", "--model", str(workdir / "model.kvq"),
                  "--corpus", str(workdir / "corpus.txt"), "--mode", "int3"])
        assert e.value.code == 2


class TestAnalyze:
    def test_preset_table(self, capsys):
        # stdout is the JSON report alone, table7_report's rows under the
        # preset's name: `kvq analyze --preset decode-table > FILE` saves it
        rc, stdout, _ = run(capsys, ["analyze", "--preset", "decode-table"])
        assert rc == 0
        doc = json.loads(stdout)
        assert doc == {"preset": "decode-table", "rows": json.loads(json.dumps(table7_report()))}
        assert len(doc["rows"]) == 6
        assert "llama-2-7b" in {r["model"] for r in doc["rows"]}
        assert all("w4kv4" in r for r in doc["rows"])

    def test_single_config_json_matches_library(self, capsys):
        # the default phase and bandwidth, then --phase and --bandwidth:
        # stdout is the JSON report alone, and its figures are the library's
        # at the same settings
        for phase, bandwidth in (("decode", 1.0e12), ("prefill", 2.0e12)):
            flags = [] if phase == "decode" else ["--phase", phase, "--bandwidth", str(bandwidth)]
            rc, stdout, _ = run(capsys, [
                "analyze", "--arch", "llama-2-13b", "--setting", "w4kv4",
                "--batch", "4", "--prompt-len", "1024", "--gen-len", "64",
            ] + flags)
            assert rc == 0
            doc = json.loads(stdout)
            assert doc["decode_time"]["ratio_vs_fp16"] < 0.5
            dc = DeployConfig.for_setting(ARCH_PRESETS["llama-2-13b"], "w4kv4", batch=4,
                                          prompt_len=1024, gen_len=64, bandwidth_bytes=bandwidth)
            assert doc["phase"] == phase
            assert doc["memory"] == json.loads(json.dumps(estimate_memory(dc, phase).as_dict()))
            assert doc["decode_time"] == json.loads(json.dumps(estimate_decode_time(dc)))

    @pytest.mark.parametrize("flags", [[], ["--setting", "w4kv4", "--gen-len", "2"],
                                       ["--phase", "prefill", "--gen-len", "0"],
                                       ["--preset", "decode-table"]])
    def test_every_report_is_strict_json(self, capsys, flags):
        # json.loads takes NaN and Infinity, which are not JSON
        rc, stdout, _ = run(capsys, ["analyze"] + flags)
        assert rc == 0
        json.loads(stdout, parse_constant=lambda name: pytest.fail(f"{name} in the report"))

    @pytest.mark.parametrize("bandwidth", ["nan", "inf", "-inf", "0", "-1"])
    def test_bandwidth_not_finite_and_positive_is_usage_error(self, capsys, bandwidth):
        rc, stdout, err = run(capsys, ["analyze", f"--bandwidth={bandwidth}", "--gen-len", "2"])
        assert rc == 2
        assert "bandwidth must be positive and finite" in err and stdout == ""

    def test_unknown_arch_usage_error(self, capsys):
        rc, _, err = run(capsys, ["analyze", "--arch", "gpt-17"])
        assert rc == 2
        assert "unknown arch" in err

    def test_deterministic(self, capsys):
        outs = [run(capsys, ["analyze", "--setting", "w4"])[1] for _ in range(2)]
        assert outs[0] == outs[1]


class TestAblate:
    def test_drop_feature(self, workdir, capsys):
        rc, stdout, _ = run(capsys, [
            "ablate", "--model", str(workdir / "model.kvq"),
            "--corpus", str(workdir / "corpus.txt"), "--drop", "poq",
            "--k", "1", "--epochs", "1", "--segments", "2", "--seg-len", "24",
            "--max-tokens", "64",
        ])
        assert rc == 0
        doc = json.loads(stdout)
        variants = {r["variant"] for r in doc["variants"]}
        assert variants == {"full", "drop:poq"}
        assert doc["fp_perplexity"] > 1.0

    def test_add_and_drop_token_quantization(self, workdir, capsys):
        rc, stdout, _ = run(capsys, [
            "ablate", "--model", str(workdir / "model.kvq"),
            "--corpus", str(workdir / "corpus.txt"), "--drop", "2dq-token", "--add", "2dq-channel",
            "--k", "1", "--epochs", "1", "--segments", "2", "--seg-len", "24",
            "--max-tokens", "64",
        ])
        assert rc == 0
        rows = json.loads(stdout)["variants"]
        assert [(r["variant"], r["features"]) for r in rows] == [
            ("full", ["2dq-channel", "2dq-token", "poq"]),
            ("drop:2dq-token", ["2dq-channel", "poq"]),
            ("none", []),
            ("add:2dq-channel", ["2dq-channel"]),
        ]
        assert all(np.isfinite(r["perplexity"]) for r in rows)

    def test_unknown_feature_usage_error(self, workdir, capsys):
        rc, _, err = run(capsys, [
            "ablate", "--model", str(workdir / "model.kvq"),
            "--corpus", str(workdir / "corpus.txt"), "--drop", "rope",
        ])
        assert rc == 2
        assert "unknown feature" in err


class TestSweepK:
    def test_rows_per_k(self, workdir, capsys):
        rc, stdout, _ = run(capsys, [
            "sweep-k", "--model", str(workdir / "model.kvq"),
            "--corpus", str(workdir / "corpus.txt"), "--k-values", "1,2",
            "--epochs", "1", "--segments", "2", "--seg-len", "24",
            "--max-tokens", "64",
        ])
        assert rc == 0
        rows = json.loads(stdout)["rows"]
        assert [r["k"] for r in rows] == [1, 2]
        for r in rows:
            assert np.isfinite(r["perplexity"]) and r["perplexity"] > 1.0
            assert np.isfinite(r["mean_final_loss"])

    @pytest.mark.parametrize("k_values", ["99", "1,0"])
    def test_invalid_k_rejected(self, workdir, capsys, k_values):
        rc, stdout, err = run(capsys, [
            "sweep-k", "--model", str(workdir / "model.kvq"),
            "--corpus", str(workdir / "corpus.txt"), "--k-values", k_values,
        ])
        assert rc == 2
        assert "k must be in 1..2" in err and stdout == ""

    @pytest.mark.parametrize("k_values", ["1,x", ""])
    def test_k_values_that_are_not_integers_rejected(self, workdir, capsys, k_values):
        rc, stdout, err = run(capsys, [
            "sweep-k", "--model", str(workdir / "model.kvq"),
            "--corpus", str(workdir / "corpus.txt"), "--k-values", k_values,
        ])
        assert rc == 2 and stdout == ""
        assert f"--k-values must be comma-separated integers, got {k_values!r}" in err


class TestGenerate:
    def test_greedy_completion(self, workdir, capsys):
        rc, stdout, _ = run(capsys, [
            "generate", "--model", str(workdir / "model.kvq"),
            "--prompt", "the quick ", "--n-new", "4",
        ])
        assert rc == 0
        doc = json.loads(stdout)
        assert len(doc["ids"]) == 11 + 4  # BOS + 10 prompt bytes + 4 new
        assert isinstance(doc["completion"], str)

    def test_deterministic(self, workdir, capsys):
        argv = ["generate", "--model", str(workdir / "model.kvq"),
                "--prompt", "fox ", "--n-new", "6"]
        assert run(capsys, argv)[1] == run(capsys, argv)[1]

    def test_prompt_outside_vocabulary_is_usage_error(self, tmp_path, capsys):
        # a model of 100 ids embeds neither BOS (256) nor the byte of "z" (122)
        path = tmp_path / "small.kvq"
        save_model(Model.random(tiny_config(vocab_size=100)), str(path))
        rc, _, err = run(capsys, ["generate", "--model", str(path), "--prompt", "z",
                                  "--n-new", "2"])
        assert rc == 2 and "holds token id 256, outside [0, 100)" in err

    def test_n_new_past_capacity_exits_2_before_decoding(self, workdir, capsys, monkeypatch):
        # the model holds 64 positions; BOS and 4 prompt bytes plus 61 new
        # tokens need 65.  Every step that fit was decoded before the exit
        import kvq.model

        steps = []
        monkeypatch.setattr(kvq.model, "decode_step", lambda *a: steps.append(a))
        rc, stdout, err = run(capsys, ["generate", "--model", str(workdir / "model.kvq"),
                                       "--prompt", "fox ", "--n-new", "61"])
        assert rc == 2 and stdout == "" and steps == []
        assert "generation's cache of 65 tokens > max_seq_len 64" in err

    def test_setting_comes_from_mode_flag_or_checkpoint(self, workdir, capsys, monkeypatch):
        import kvq.model

        generate, settings = kvq.model.generate, []

        def recording(model, prompt_ids, n_new):
            settings.append(model.config.quant_mode)
            return generate(model, prompt_ids, n_new)

        monkeypatch.setattr(kvq.model, "generate", recording)
        argv = ["generate", "--model", str(workdir / "model.kvq"), "--prompt", "a ",
                "--n-new", "2"]
        assert run(capsys, argv)[0] == 0
        assert run(capsys, argv + ["--mode", "weight_activation"])[0] == 0
        assert settings == ["fp", "weight_activation"]

    def test_bad_mode_is_usage_error(self, workdir):
        # refused by the parser, before the model is loaded
        with pytest.raises(SystemExit) as e:
            main(["generate", "--model", str(workdir / "ghost.kvq"), "--prompt", "a ",
                  "--mode", "bogus"])
        assert e.value.code == 2


class TestParser:
    @pytest.mark.parametrize("command, extra, want", [
        ("calibrate", ["--out", "o"], {"k": 5, "epochs": 2, "segments": 32, "seg_len": 256,
                                       "seed": 0}),
        ("ablate", [], {"k": 5, "epochs": 2, "segments": 8, "seg_len": 64, "max_tokens": 512,
                        "seed": 0}),
        ("sweep-k", [], {"k_values": "1,2,3,5", "epochs": 2, "segments": 8, "seg_len": 64,
                         "max_tokens": 512, "seed": 0}),
    ])
    def test_calibration_defaults(self, command, extra, want):
        # the commands share their calibration flags' declarations, not
        # their defaults
        args = build_parser().parse_args([command, "--model", "m", "--corpus", "c"] + extra)
        assert {key: getattr(args, key) for key in want} == want
        assert not hasattr(args, "json")

    @pytest.mark.parametrize("epochs", [-1, 7, 40])
    def test_grid_past_its_bounds_refused(self, tmp_path, capsys, epochs):
        # 2^epochs + 1 candidates per block: --epochs 40 would ask for about
        # 1e12, refused with a usage error before the model is read
        rc = main(["calibrate", "--model", str(tmp_path / "ghost.kvq"), "--corpus",
                   str(tmp_path / "ghost.txt"), "--out", str(tmp_path / "o.kvq"),
                   "--epochs", str(epochs)])
        assert rc == 2 and "0 <= epochs <= 6" in capsys.readouterr().err

    def test_no_command_takes_json(self):
        # every command prints its report to stdout, which `> FILE` saves
        commands = build_parser()._subparsers._group_actions[0].choices
        assert sorted(commands) == ["ablate", "analyze", "calibrate", "eval", "fit", "generate",
                                    "quantize", "sweep-k"]
        assert [name for name, sp in commands.items() for action in sp._actions
                if "--json" in action.option_strings] == []

    def test_one_mode_vocabulary(self):
        # quantize, eval and generate take the model's modes, and no other
        # command takes a mode
        commands = build_parser()._subparsers._group_actions[0].choices
        choices = {name: action.choices for name, sp in commands.items()
                   for action in sp._actions if action.dest == "mode"}
        assert choices == {name: MODES for name in ("quantize", "eval", "generate")}
        assert build_parser().parse_args(["quantize", "--model", "m", "--out", "o"]).mode \
            == "weight_kv"


class TestDispatch:
    def test_numeric_error_exit_code(self, capsys, monkeypatch):
        import kvq.cli as cli
        from kvq.errors import NumericError

        def boom(args):
            raise NumericError("diverged")

        parser = cli.build_parser()

        def fake_parser():
            for action in parser._subparsers._group_actions[0].choices.values():
                action.set_defaults(fn=boom)
            return parser

        monkeypatch.setattr(cli, "build_parser", fake_parser)
        rc, _, err = run(capsys, ["analyze"])
        assert rc == 4
        assert "diverged" in err

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2

    def test_thread_env_plumbed(self):
        # KVQ_THREADS sets every BLAS thread variable, over inherited values,
        # before numpy first loads in a kvq command: an import hook in a fresh
        # interpreter records the variables when numpy is first looked up
        hook = textwrap.dedent("""
            import json, os, sys
            VARS = %r
            seen = []

            class Hook:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" and not seen:
                        seen.append({v: os.environ.get(v) for v in VARS})

            sys.meta_path.insert(0, Hook())
            import kvq.cli
            print(json.dumps(seen))
        """) % (BLAS_THREAD_VARS,)
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env.update(KVQ_THREADS="1", OMP_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", hook], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert json.loads(out) == [{v: "1" for v in BLAS_THREAD_VARS}]
