"""One workload in this process: set up, warm up, run whole passes, check.

Started by run.py; prints one JSON line with the first-operation time
(CLOCK_MONOTONIC, comparable with the parent's), the operation times and
the checks.  With --setup-only it stops right before the first timed
operation.
"""

import os

# One BLAS thread: the program's matrices are at most 10 x 10, and a pool of
# one thread per core only contends on a small machine.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import holoalg as ha  # noqa: E402

import workloads  # noqa: E402

WORKLOADS = ("index", "cif", "structure", "cli")


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_ms(reps: int = 7) -> float:
    """Median wall time of importing holoalg.cli in a fresh interpreter, minus
    the median of a bare interpreter start."""
    def median_run(code):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                           timeout=60)
            times.append(time.perf_counter() - start)
        return statistics.median(times)
    return 1e3 * (median_run("import holoalg.cli") - median_run("pass"))


def build_ops(name: str, seed: int, workdir: str, traced: bool):
    if name == "index":
        return workloads.index_workload(ha, seed)
    if name == "cif":
        return workloads.cif_workload(ha, seed)
    if name == "structure":
        return workloads.structure_workload(ha, seed)
    runner = workloads.CliRunner(workdir, child_env(), in_process=traced)
    return workloads.cli_workload(ha, seed, runner)


def run_op(op):
    try:
        return True, op.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        return False, f"{op.kind}: {type(exc).__name__}: {str(exc)[:300]}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it


def measure(args, workdir: str) -> int:
    traced = bool(args.trace)
    ops = build_ops(args.workload, args.seed, workdir, traced)
    warmed = set()
    for op in ops:
        if op.kind not in warmed:
            warmed.add(op.kind)
            run_op(op)

    rec = None
    if traced:
        import tracing
        rec = tracing.Recorder()
        tracing.install(rec)

    first_op = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_op": first_op}))
        return 0

    times, outcomes, pass_s = [], [], []
    start = time.perf_counter()
    for p in range(args.passes):
        pass_start = time.perf_counter()
        if rec:
            rec.new_pass()
        for i, op in enumerate(ops):
            if rec:
                rec.op_id = p * len(ops) + i
            t = time.perf_counter()
            ok, result = run_op(op)
            times.append(time.perf_counter() - t)
            outcomes.append((i, ok, result))
        pass_s.append(time.perf_counter() - pass_start)
    timed_s = time.perf_counter() - start

    layer = None
    if rec:
        rec.finish()
        layer = tracing.layer_metrics(rec, len(times),
                                      import_ms() if args.workload == "cli" else 0.0)

    problems, failures = [], []
    for i, ok, result in outcomes:
        if not ok:
            failures.append(result)
            # only the one known fault may fail; any other failure is wrong
            if ops[i].kind != workloads.KNOWN_FAULT:
                problems.append(f"unexpected failure: {result}")
            continue
        problems.extend(f"{ops[i].kind}: {msg}" for msg in ops[i].check(result))

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" and not traced else resource.RUSAGE_SELF
    ms = sorted(1e3 * t for t in times)
    report = {
        "first_op": first_op,
        "attempted": len(times),
        "failed": len(failures),
        "correct": not problems,
        # one pass's operations over the median pass time: a stall of the
        # machine during one pass does not move it
        "ops_per_s": len(ops) / statistics.median(pass_s),
        # each pass runs at nearly one machine speed and its median operation
        # falls in the same group of operations; the median over passes drops
        # the passes a slow spell of the machine hit
        "op_p50_ms": statistics.median(
            1e3 * statistics.median(times[p * len(ops):(p + 1) * len(ops)])
            for p in range(len(pass_s))),
        "op_p90_ms": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "timed_s": timed_s,
        "pass_s": pass_s,
        "op_s": times,
        "problems": problems[:10],
        "failures": sorted(set(failures))[:10],
    }
    if rec:
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "ops": len(times),
                       "ops_per_s": report["ops_per_s"], "metrics": layer,
                       "artin_calls": rec.calls.get(rec.name_id("decomposition.artin_decompose"), 0),
                       "artin_distinct": rec.artin_distinct,
                       "by_name": rec.summary()}, fh, indent=1)
        rec.write_spans(stem + ".spans.tsv.gz")
        report["metrics"] = layer
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
