"""One command for the benchmark suite.

    python3 benchmarks/suite/run.py [--workload NAME ...] [--seed S]
        [--seconds T] [--trace [0|1]] [--out FILE]
    python3 benchmarks/suite/run.py --compare A.json B.json [more...]

Runs the named workloads (all five by default) in one process, checks
every answer, and prints every metric by name with its unit; after each
workload one JSON line carries ``correct``/``attempted``/``failed`` and
the metrics ``BENCHMARK.json`` declares — the end-to-end ones untraced
(``--trace 0``), the per-layer ones from the separate traced pass
(``--trace 1``).  ``--out`` appends the full record (machine block,
calibration trace, raw beside normalised values) to a result *set*, and
in the traced pass writes a Perfetto-loadable span file beside it.
Exit status is non-zero when any answer fails its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
#: BLAS threading doubles CPU time here for no wall gain, and the two
#: SPMD ranks / two service workers already use both cores.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, contract: dict) -> argparse.Namespace:
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0
    )
    parser.add_argument("--out", type=Path, metavar="FILE")
    parser.add_argument("--compare", nargs="+", type=Path, metavar="SET.json")
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD's hash read from ``.git`` (no subprocess; the driver's
    checkout is not a repository and reports ``unknown``)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        return (git / head[5:]).read_text().strip()
    except OSError:
        return "unknown"


def cache_bytes(index: int) -> int:
    """Size of one cache level of cpu0 from sysfs (0 when not exposed)."""
    path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
    try:
        return int(path.read_text().strip().rstrip("K")) * 1024
    except (OSError, ValueError):
        return 0


def machine_block() -> dict:
    import numpy as np

    import repro.backends

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
        "backend": repro.backends.active_backend(),
        "git_commit": git_commit(),
    }


def run_workload(name: str, args, contract: dict) -> dict:
    """Run one workload's pass; returns its full record."""
    if args.trace:
        from layers import TRACED, per_layer
        from spans import write_spans

        fn, sizes = TRACED[name]
        traced = fn(name, args.seconds, args.seed, **sizes)
        cal, tally, detail = traced.cal, traced.tally, traced.detail
        metrics = {k: {"value": v} for k, v in per_layer(traced).items()}
        detail["spans"] = traced.rec.total_spans()
        if args.out:
            spans = args.out.with_suffix(f".spans.{name}.json")
            write_spans(traced.rec, spans)
            detail["span_file"] = spans.name
    else:
        from workloads import WORKLOADS, end_to_end, reset_peak_rss

        fn, sizes = WORKLOADS[name]
        reset_peak_rss()
        outcome = fn(name, args.seconds, args.seed, **sizes)
        cal, tally, detail = outcome.cal, outcome.tally, outcome.detail
        metrics = end_to_end(outcome)
    declared = contract["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(
            f"{name}: measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ {m['name'] for m in declared})}"
        )
    for m in declared:
        metrics[m["name"]]["unit"] = m["unit"]
    calibration = cal.trace()
    calibration["slow_frac"] = cal.slow_frac()
    calibration["speed_min"] = cal.speed_min()
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "detail": detail,
        "calibration": calibration,
    }


def print_table(name: str, record: dict) -> None:
    print(f"== {name}: {record['attempted']} operations, {record['failed']} failed")
    for metric, m in record["metrics"].items():
        line = f"  {metric:<38} {m['value']:>14.6g} {m['unit']}"
        if "raw_median" in m:
            line += (
                f"   (raw median {m['raw_median']:.6g}, normalised quartiles "
                f"{m['q1']:.6g} .. {m['q3']:.6g}, n={m['n']})"
            )
        print(line)
    print(f"  slow-state share of probes: {record['calibration']['slow_frac']:.2f}")


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, contract)
    if args.compare:
        from compare import compare

        lines, regression = compare(args.compare, contract)
        print("\n".join(lines))
        return int(regression)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'} not found: nothing to benchmark")
    for var in THREAD_PINS:  # before NumPy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    run = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_block(),
        "workloads": {},
    }
    for name in args.workload:
        record = run_workload(name, args, contract)
        run["workloads"][name] = record
        print_table(name, record)
        line = {k: record[k] for k in ("correct", "attempted", "failed")}
        line["metrics"] = {
            k: {"value": m["value"], "unit": m["unit"]}
            for k, m in record["metrics"].items()
        }
        print(json.dumps(line), flush=True)
    if args.out:
        runs = json.loads(args.out.read_text())["runs"] if args.out.exists() else []
        args.out.write_text(json.dumps({"runs": [*runs, run]}, indent=1))
    return int(any(not r["correct"] for r in run["workloads"].values()))


if __name__ == "__main__":
    sys.exit(main())
