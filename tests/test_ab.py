import copy
import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import kvq
from kvq.quantizers import unpack_codes

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["decode_8", "decode_16", "decode_40", "decode_8_poq_off", "prefill_12",
             "prefill_48", "score_8", "score_16", "nll_16", "chunk_20_on_30",
             "chunk_20_on_30_fp", "chunk_20_on_30_poq_off", "calibrate", "save_load",
             "train_step", "crr_loss"]
RATIO_KEYS = {"median", "q1", "q3", "wins"}
# the workloads whose logits are checked against the float64 model
NUMERIC = {"decode_8", "decode_16", "decode_40", "decode_8_poq_off", "prefill_12", "prefill_48"}


def test_tree_against_itself_gives_equal_hashes():
    # tools/ab.py at tiny sizes with this tree as both sides: every workload
    # prints one JSON line with equal hashes for the two imports of A and
    # for B, and the decode and prefill workloads each import's largest
    # |dlogit| against tests/reference.py's float64 model, equal for the
    # three and within float32 error (measured 7.1e-8 to 9.2e-8).  Its
    # timings are not checked
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--tiny",
                          "--rounds", "2", str(ROOT), str(ROOT)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = [json.loads(line) for line in run.stdout.splitlines()]
    assert [doc["workload"] for doc in lines] == WORKLOADS
    for doc in lines:
        numeric = {"max_dlogit_f64"} if doc["workload"] in NUMERIC else set()
        assert set(doc) == {"workload", "rounds", "a_ms_median", "b_ms_median", "b_over_a",
                            "a2_over_a", "sha256", "identical"} | numeric
        if numeric:
            errors = doc["max_dlogit_f64"]
            assert set(errors) == {"a", "b", "a2"} and len(set(errors.values())) == 1
            assert 0.0 < errors["a"] <= 1e-5, doc["workload"]
        assert doc["rounds"] == 2
        assert set(doc["b_over_a"]) == set(doc["a2_over_a"]) == RATIO_KEYS
        hashes = doc["sha256"]
        assert set(hashes) == {"a", "b", "a2"} and len(set(hashes.values())) == 1
        assert len(hashes["a"]) == 64 and doc["identical"]
    # the workloads compute different things
    assert len({doc["sha256"]["a"] for doc in lines}) == len(WORKLOADS)


def test_unknown_workload_is_refused():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--tiny",
                          "--workloads", "decode_16,nope", str(ROOT), str(ROOT)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 2 and "unknown workloads ['nope']" in run.stderr


@pytest.fixture
def ab(monkeypatch):
    """tools/ab.py as a module; the thread variables it sets on import are
    put back afterwards."""
    for var in ("KVQ_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    spec = importlib.util.spec_from_file_location("ab_tool", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_codes_hash_one_per_byte_and_decode_times_after_warm_steps(ab, monkeypatch):
    # a model holding its codes as the packed stream hashes as one holding
    # them one per byte, so trees that hold either compare equal
    tree = ab.Tree(kvq, ab.TINY, 8)
    per_byte = copy.deepcopy(tree.served)
    for blk in per_byte.blocks:
        for lin in blk.projections().values():
            codes = unpack_codes(lin.wq.codes, lin.wq.bits, lin.w.shape)
            lin.wq = dataclasses.replace(lin.wq, codes=codes)
    assert per_byte.blocks[0].q.wq.codes.ndim == 2 and tree.served.blocks[0].q.wq.codes.ndim == 1
    assert (ab.digest(ab.model_arrays(kvq, per_byte))
            == ab.digest(ab.model_arrays(kvq, tree.served)))
    # a decode workload times its steps only after the untimed warm steps:
    # the clock reads the number of steps taken so far
    steps, decode_step = [], kvq.decode_step
    with monkeypatch.context() as mp:
        mp.setattr(kvq, "decode_step", lambda *a: steps.append(1) or decode_step(*a))
        mp.setattr(ab.time, "perf_counter", lambda: float(len(steps)))
        seconds, outs, numerics = ab.workloads(ab.TINY)["decode_8"](tree)
    assert seconds == ab.TINY["steps"] and len(steps) == ab.TINY["warm"] + ab.TINY["steps"]
    assert len(outs) == 1 + len(steps)
    # without a reference module the float64 check gives null
    assert numerics() is None
