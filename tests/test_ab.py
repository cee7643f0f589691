import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["decode_8", "decode_16", "decode_40", "prefill_48", "score_16", "chunk_20_on_30",
             "calibrate", "save_load", "train_step", "crr_loss"]
RATIO_KEYS = {"median", "q1", "q3", "wins"}


def test_tree_against_itself_gives_equal_hashes():
    # tools/ab.py at tiny sizes with this tree as both sides: every workload
    # prints one JSON line with equal hashes for the two imports of A and
    # for B.  Its timings are not checked
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--tiny",
                          "--rounds", "2", str(ROOT), str(ROOT)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = [json.loads(line) for line in run.stdout.splitlines()]
    assert [doc["workload"] for doc in lines] == WORKLOADS
    for doc in lines:
        assert set(doc) == {"workload", "rounds", "a_ms_median", "b_ms_median", "b_over_a",
                            "a2_over_a", "sha256", "identical"}
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
