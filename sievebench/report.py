"""Every end-to-end metric of every workload, in one table.

``python3 -m sievebench.report --seed N`` runs ``sievebench.run`` untraced
once per workload, for BENCHMARK.json's run_seconds, and prints each
end-to-end metric by name with its unit, plus the attempted and failed job
counts and failed_frac.
"""

import argparse
import json
import subprocess
import sys

from .jobs import WORKLOADS
from .run import ROOT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sievebench.report")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, "-m", "sievebench.run", "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        status |= not result["correct"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"failed_frac={result['failed'] / result['attempted']:.4g}")
        for name, metric in result["metrics"].items():
            print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
