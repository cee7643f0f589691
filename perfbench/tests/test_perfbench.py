"""Checks on the benchmark itself, at a tiny model size.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path, workload, trace=False, seed=0):
    return bench.run(workload, seed, 0.0, trace, bench.TINY, tmp_path)["result"]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_named_metric_is_emitted(tmp_path, workload):
    assert {w["name"] for w in SPEC["workloads"]} == set(bench.WORKLOADS)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = _run(tmp_path, workload, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
        metrics = result["metrics"]
        assert set(metrics) == {m["name"] for m in SPEC[key]}
        for m in SPEC[key]:
            assert metrics[m["name"]]["unit"] == m["unit"]
        if not trace:
            assert all(v["value"] > 0 for v in metrics.values())


def test_untraced_run_leaves_kvq_untouched(tmp_path):
    sites = tracing.wrapped_sites()
    before = [vars(owner)[attr] for owner, attr in sites]
    _run(tmp_path, "decode_long")
    assert all(vars(owner)[attr] is orig for (owner, attr), orig in zip(sites, before))
    # the traced run puts every original back when it ends
    _run(tmp_path, "score_cached", trace=True)
    assert all(vars(owner)[attr] is orig for (owner, attr), orig in zip(sites, before))


@pytest.mark.parametrize("workload, name", [("score_cached", "ppl_w4kv4"),
                                            ("calibrate", "calib_loss_ratio"),
                                            ("decode_long", "ckpt_mb")])
def test_same_seed_same_numerics(tmp_path, workload, name):
    a = _run(tmp_path, workload, seed=5)["metrics"][name]["value"]
    b = _run(tmp_path, workload, seed=5)["metrics"][name]["value"]
    assert a == b


def test_host_speed_factor_takes_the_samples_of_a_section():
    speed = bench.HostSpeed()
    speed.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    speed.seconds = [bench.REF_UNIT_S * f for f in (1, 1, 1, 1, 2, 2, 2, 2)]
    assert speed.factor(3.5, 4.0) == pytest.approx(2.0)  # samples 4-7 fall inside
    assert speed.factor(0.0, 3.0) == pytest.approx(1.0)
    # a section shorter than the period borrows the four nearest samples
    assert speed.factor(3.5, 0.01) == pytest.approx(1.5)
    assert bench.HostSpeed().factor(0.0, 1.0) == 1.0


def test_host_speed_sampling_restores_the_signal_handler():
    previous = signal.getsignal(signal.SIGALRM)
    speed = bench.HostSpeed()
    with speed.sampling():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.starts) >= 3 and speed.starts == sorted(speed.starts)
