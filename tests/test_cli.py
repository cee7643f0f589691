import json
import os

import numpy as np
import pytest

from conftest import WORDS
from kvq.checkpoint import load_model, read_container, write_container
from kvq.cli import main

FIT_ARGS = [
    "--layers", "2", "--hidden", "32", "--heads", "2", "--intermediate", "48",
    "--max-seq-len", "64", "--group-size", "16", "--kv-group-size", "8",
    "--steps", "20", "--batch", "2", "--seq-len", "24", "--seed", "0",
]
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
        a, b = workdir / "da.kvq", workdir / "db.kvq"
        outs = []
        for path in (a, b):
            rc, stdout, _ = run(capsys, ["fit", "--corpus", str(workdir / "corpus.txt"),
                                         "--out", str(path)] + FIT_ARGS)
            assert rc == 0
            outs.append(stdout)
        assert outs[0] == outs[1]
        assert a.read_bytes() == b.read_bytes()

    def test_corpus_of_one_window(self, workdir, capsys):
        # 16 bytes and the BOS token make exactly one window of --seq-len 16
        corpus = workdir / "one_window.txt"
        corpus.write_bytes(b"the quick brown ")
        args = FIT_ARGS[: FIT_ARGS.index("--seq-len")] + ["--seq-len", "16", "--seed", "0"]
        rc, stdout, _ = run(capsys, ["fit", "--corpus", str(corpus),
                                     "--out", str(workdir / "one.kvq")] + args)
        assert rc == 0
        assert json.loads(stdout)["train"]["steps"] == 20

    def test_missing_corpus_is_data_error(self, workdir, capsys):
        rc, _, err = run(capsys, ["fit", "--corpus", str(workdir / "nope.txt"),
                                  "--out", str(workdir / "x.kvq")] + FIT_ARGS)
        assert rc == 3
        assert "error" in err


class TestQuantize:
    def test_weight_kv_warns_without_smoothing(self, workdir, capsys):
        out = workdir / "q.kvq"
        rc, stdout, err = run(capsys, [
            "quantize", "--model", str(workdir / "model.kvq"), "--out", str(out),
            "--mode", "w4kv4", "--group-size", "16", "--kv-group-size", "8",
        ])
        assert rc == 0
        assert "smoothing" in err
        m = load_model(str(out))
        assert m.config.quant_mode == "weight_kv"
        assert m.blocks[0].q.wq is not None

    def test_weight_only_quiet(self, workdir, capsys):
        rc, _, err = run(capsys, [
            "quantize", "--model", str(workdir / "model.kvq"),
            "--out", str(workdir / "qw.kvq"), "--mode", "w4",
            "--group-size", "16", "--kv-group-size", "8",
        ])
        assert rc == 0
        assert err == ""

    def test_deterministic_output_bytes(self, workdir, capsys):
        paths = [workdir / "qa.kvq", workdir / "qb.kvq"]
        for p in paths:
            rc, _, _ = run(capsys, [
                "quantize", "--model", str(workdir / "model.kvq"), "--out", str(p),
                "--mode", "w4", "--group-size", "16", "--kv-group-size", "8",
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
            "quantize", "--model", str(cal), "--out", str(out), "--mode", "w4kv4",
            "--group-size", "16", "--kv-group-size", "8",
        ])
        assert rc == 0
        before, after = load_model(str(cal)), load_model(str(out))
        for b1, b2 in zip(before.blocks, after.blocks):
            for name, lin in b1.projections().items():
                lin2 = b2.projections()[name]
                assert np.array_equal(lin.wq.codes, lin2.wq.codes), name
                assert np.abs(lin2.w - lin.w).max() <= 1e-6 * np.abs(lin.w).max(), name

    @pytest.mark.parametrize("command, extra", [
        ("quantize", ["--mode", "w4kv4"]),
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
        assert "must be 2..8 or at least 16" in err
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
            "--json", str(workdir / "cal.json"),
        ] + CAL_ARGS)
        assert rc == 0
        rep = json.loads(stdout)
        assert len(rep["blocks"]) == 2
        assert json.loads((workdir / "cal.json").read_text()) == rep
        m = load_model(str(out))
        assert m.config.quant_mode == "weight_kv"

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

    def test_setting_comes_from_mode_flag_or_checkpoint(self, workdir, capsys):
        argv = ["eval", "--model", str(workdir / "model.kvq"),
                "--corpus", str(workdir / "corpus.txt"), "--max-tokens", "64"]
        own = json.loads(run(capsys, argv)[1])
        rep = json.loads(run(capsys, argv + ["--mode", "weight_activation"])[1])
        assert (own["setting"], rep["setting"]) == ("fp", "weight_activation")
        assert rep["perplexity"] != own["perplexity"]  # the flag reached the forward

    def test_bad_mode_is_usage_error(self, workdir):
        with pytest.raises(SystemExit) as e:
            main(["eval", "--model", str(workdir / "model.kvq"),
                  "--corpus", str(workdir / "corpus.txt"), "--mode", "int3"])
        assert e.value.code == 2


class TestAnalyze:
    def test_preset_table(self, capsys, tmp_path):
        jpath = tmp_path / "t.json"
        rc, stdout, _ = run(capsys, ["analyze", "--preset", "decode-table",
                                     "--json", str(jpath)])
        assert rc == 0
        doc = json.loads(jpath.read_text())
        assert len(doc["rows"]) == 6
        assert "llama-2-7b" in stdout and "w4kv4" in stdout

    def test_single_config_text_matches_json(self, capsys):
        rc, stdout, _ = run(capsys, [
            "analyze", "--arch", "llama-2-13b", "--setting", "w4kv4",
            "--batch", "4", "--prompt-len", "1024", "--gen-len", "64",
        ])
        assert rc == 0
        json_part, text_part = stdout.split("\n}\n", 1)
        doc = json.loads(json_part + "\n}")
        assert str(doc["memory"]["total_bytes"]) in text_part
        assert doc["decode_time"]["ratio_vs_fp16"] < 0.5

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

    def test_thread_env_plumbed(self, monkeypatch):
        # KVQ_THREADS seeds the standard BLAS thread variables on import
        import importlib
        import kvq.cli as cli

        monkeypatch.setenv("KVQ_THREADS", "1")
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "OMP_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        importlib.reload(cli)
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        importlib.reload(cli)
