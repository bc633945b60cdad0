"""Run a workload several times, one seed each, and print each metric's spread.

    python3 perfbench/spread.py --workload cif --seeds 1-10 --seconds 20

For every metric it prints the median, the first and third quartiles
(statistics.quantiles with n=4) and the quartile distance as a share of the
median, which is what the bounds in BENCHMARK.json are set against.  Each
run's full record is in perfbench/out/run-<workload>-seed<n>-trace0.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    print(f"\n{args.workload}: {len(runs)} runs, {args.seconds} s each")
    print(f"{'metric':34} {'median':>11} {'q1':>11} {'q3':>11} {'(q3-q1)/med':>12}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:34} {med:11.4f} {q1:11.4f} {q3:11.4f} {share:12.4f}")
    shares = {(r["failed"], r["attempted"]) for r in runs}
    print(f"failed/attempted: {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
