"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload crowd|fleet|audit --seed N \
        --seconds S --trace 0|1

Run from the root of a proxycam checkout: the program is imported from
./src. With --trace 0 the result holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics, and the spans are written to
out/perfbench/. Earlier lines carry the output digests and, for a traced
run, its end-to-end figures, so two runs can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one process, one thread: pin the BLAS/OpenMP pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("crowd", "fleet", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = Path("src")
    if not (source / "proxycam" / "__init__.py").is_file():
        print("perfbench: no src/proxycam here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source.resolve()))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

    from perfbench.workloads import run_workload

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": result["rounds"],
                      "scale": result["scale"], "wall": result["wall"],
                      "digests": result["digests"]}))
    if args.trace:
        print(json.dumps({"end_to_end": result["end_to_end"], "trace_file": result["trace_file"]}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
