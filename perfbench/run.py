"""Run one kvq benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload decode_long --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: kvq is imported from ``src/``.  The
last line of standard output is the result object; the line before it is a
report with the run's numerics fingerprint and environment.
"""

import os
import sys

# One BLAS thread, set before numpy is first imported.  kvq itself only
# honours KVQ_THREADS in its CLI, so an in-process run must pin here.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "kvq" / "__init__.py").is_file():
        print(f"perfbench: no kvq sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    out = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), bench.Sizes(),
                    ROOT / ".bench_build" / "perfbench")
    out["report"]["environment"] = environment()
    print(json.dumps(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
