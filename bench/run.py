"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train_cnn --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository: it imports the package from
`src/` and takes workload and metric names from `BENCHMARK.json`. With
`--trace 0` it measures for `--seconds` and reports the end-to-end
metrics. With `--trace 1` it measures half the time untraced and half
traced, and reports the per-layer metrics and the tracing overhead.

The line before the last is a JSON report: the metrics under the names
of the workload's own operation (epochs or predict calls), the tail
percentiles with their sample counts, and the environment. The last line
is `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
only when every operation and correctness check succeeded.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Set before numpy loads. One BLAS thread never exceeds nproc and keeps
# timings steady on a machine shared with other work.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def tail(values) -> tuple:
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest value, at percentile 100 * (n - 10) / n. With ten
    samples or fewer, the largest, at percentile 100."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def git_commit(root: Path):
    """The checked-out commit, read from `.git` without running git;
    None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, or
    None where it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in BLAS_THREAD_QUERIES:
            if hasattr(lib, symbol):
                query = getattr(lib, symbol)
                query.argtypes = []
                query.restype = ctypes.c_int
                return int(query())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_pinned": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(ROOT),
    }


# every end-to-end value a run measures, with its unit; BENCHMARK.json
# gates the steady ones, the report line carries all of them
UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms", "examples_per_s": "1/s",
         "prepare_rows_per_s": "1/s", "val_mae": "count", "peak_rss_mb": "MB"}
# the report's names for the generic ones, by the workload's operation
OWN_NAMES = {
    "epoch": {"examples_per_s": "train_examples_per_s", "op_ms_p50": "train_epoch_ms_p50",
              "op_ms_tail": "train_epoch_ms_tail"},
    "call": {"examples_per_s": "predict_rows_per_s", "op_ms_p50": "predict_call_ms_p50",
             "op_ms_tail": "predict_call_ms_tail"},
}


def end_to_end(workload, setup, times, examples, import_s: float) -> tuple:
    """(values by BENCHMARK.json name, report by the workload's own names)."""
    tail_s, percentile = tail(times)
    values = {
        "setup_s": import_s + statistics.median(setup),
        "op_ms_p50": 1000 * statistics.median(times),
        "op_ms_tail": 1000 * tail_s,
        "examples_per_s": examples / sum(times),
        "prepare_rows_per_s": statistics.median(workload.prepare_rows_per_s),
        "val_mae": workload.val_mae,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    names = OWN_NAMES[workload.unit]
    report = {names.get(key, key): {"value": value, "unit": UNITS[key]}
              for key, value in values.items()}
    report[names["op_ms_tail"]].update(percentile=percentile, samples=len(times))
    return values, report


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "retweet_reg").is_dir():
        print(f"error: no package at {ROOT / 'src' / 'retweet_reg'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("RETWEET_REG_OUT", None)  # it would override every --out
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import Tracer

    import_s = time.perf_counter() - STARTED
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer()
    tally = workloads.Tally()
    try:
        if args.trace:
            tracer.install()
        workload = workloads.WORKLOADS[args.workload](args.seed, work, tracer)
        setup = workloads.measure_setup(workload, tally, traced=bool(args.trace))
        if args.trace:
            untraced = workloads.measure_ops(workload, tally, args.seconds / 2, finish=False)
            tracer.active = True
            traced = workloads.measure_ops(workload, tally, args.seconds / 2, finish=True)
            tracer.active = False
        else:
            times, examples = workloads.measure_ops(workload, tally, args.seconds, finish=True)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    if tally.crashed:
        print(f"error: run stopped after {tally.failed} failed of {tally.attempted} "
              f"operations", file=sys.stderr)
        return 1

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": tally.attempted, "failed": tally.failed,
              "failed_op_share": {"value": tally.failed / tally.attempted, "unit": "share"}}
    if args.trace:
        values = tracer.per_layer()
        rates = [examples / sum(times) for times, examples in (untraced, traced)]
        values["trace.untraced_examples_per_s"], values["trace.examples_per_s"] = rates
        values["trace.overhead_share"] = 1 - rates[1] / rates[0]
        wanted = spec["per_layer"]
        report["per_layer"] = values
    else:
        values, named = end_to_end(workload, setup, times, examples, import_s)
        wanted = spec["end_to_end"]
        report.update(named)
    report["environment"] = environment()
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
