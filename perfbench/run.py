"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload index --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The program is imported from ./src; no
build or install is needed.  Each measurement runs in a fresh process
(measure.py).  Set-up time is measured from launching that process to its
first timed operation, several times, and the median is reported.

A run executes a fixed number of whole passes over the workload's list of
operations: round(seconds / NOMINAL_PASS_S) of them, where NOMINAL_PASS_S is
the time of one pass measured on the reference machine.  The count does not
depend on how fast the current run goes, so every run has the same make-up.

With --trace 0 the result holds the end-to-end metrics; with --trace 1 a
separate run with every public holoalg function wrapped gives the per-layer
metrics and writes its spans to perfbench/out/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NOMINAL_PASS_S = {"index": 3.0, "cif": 2.2, "structure": 1.2, "cli": 2.8}
SETUP_RUNS = 3         # the measuring process plus two set-up-only processes
TIME_LIMIT_S = 170      # every child of one run must end by then


def run_child(args, passes: int, setup_only: bool, deadline: float) -> tuple[float, dict]:
    cmd = [sys.executable, os.path.join(HERE, "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--passes", str(passes), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    launched = time.monotonic()
    # its own process group, so that a timeout also ends the CLI children it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("measure.py did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"measure.py exited with {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    return report["first_op"] - launched, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(NOMINAL_PASS_S), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "holoalg", "__init__.py")):
        print(f"error: no holoalg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(run_child(args, passes, True, deadline)[0])
    setup_s, report = run_child(args, passes, False, deadline)
    setups.append(setup_s)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(report, setups_s=setups), fh)
    for line in report["problems"] + report["failures"]:
        print(f"# {line}")
    print(f"# passes={passes} attempted={report['attempted']} timed_s={report['timed_s']:.3f} "
          f"op_p90_ms={report['op_p90_ms']:.4f} setups_s={[round(s, 4) for s in setups]} "
          f"pass_s={[round(s, 3) for s in report['pass_s']]}")
    if args.trace:
        metrics = report["metrics"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": report["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": report["op_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
