"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload {train,search,cli_deep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; slimadapt is imported from its
`src/`.  Human-readable lines come first; the last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1).  A fuller
record goes to `.perfbench_out/results/`.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS threads are fixed before numpy loads; one thread keeps the closed
# loop from contending with itself and stays within nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "search", "cli_deep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slimadapt" / "__init__.py").is_file():
        print(f"error: no slimadapt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import slimadapt

    if Path(slimadapt.__file__).resolve().parent != SRC / "slimadapt":
        print(f"error: imported slimadapt from {slimadapt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from perfbench.bench import execute
    from perfbench.workloads import SetupError

    try:
        result, record = execute(args.workload, args.seed, args.seconds, bool(args.trace),
                                 ROOT, ROOT / ".perfbench_out")
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1

    print("manifest " + json.dumps(record["manifest"], sort_keys=True))
    for section in ("metrics", "diagnostics"):
        for name, m in record[section].items():
            print(f"{section[:-1] if section == 'metrics' else 'diagnostic'} {name} = "
                  f"{m['value']} {m['unit']} (n={m['n']})")
    for name, c in record.get("reference_counts", {}).items():
        print(f"reference {name}: measured {c['measured']}, reference {c['reference']}")
    for err in record["errors"]:
        first = (err["raised"] + err["wrong"])[0].strip().splitlines()[-1]
        print(f"failed op {err['kind']}: {first}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
