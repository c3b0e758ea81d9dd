"""``--compare A.json B.json [more...]``: judge result sets by the bounds.

Each file is one *set*: the runs ``run.py --out FILE`` appended to it.
The first file is the base; every other set gets one row per
(workload, end-to-end metric) with both sides' median, quartiles and
sample count, the ratio with its base, and a verdict:

- ``regression``    the set's median is worse than the base's by more
                    than the metric's bound;
- ``unresolved``    the run-to-run spread (interquartile range over
                    median, either side) is wider than the bound and the
                    two sides' runs interleave — neither "unchanged" nor
                    "worse" can be claimed;
- ``within-bound``  otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path

from noise import quartiles


def load_runs(path: Path) -> list[dict]:
    return json.loads(path.read_text())["runs"]


def metric_values(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> one value per untraced run`` of a set."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        if run["trace"]:
            continue
        for workload, result in run["workloads"].items():
            for metric, record in result["metrics"].items():
                values.setdefault((workload, metric), []).append(record["value"])
    return values


def slow_fracs(name: str, runs: list[dict]) -> list[str]:
    """``perf.slow_frac`` of every run of a set, per workload."""
    lines = []
    for i, run in enumerate(runs):
        fracs = ", ".join(
            f"{w} {r['calibration']['slow_frac']:.2f}"
            for w, r in run["workloads"].items()
        )
        lines.append(f"  {name} run {i} (trace {run['trace']}): {fracs}")
    return lines


def verdict(base, other, better: str, bound: float) -> str:
    """Judge ``other`` against ``base`` (lists of per-run values)."""
    sign = 1.0 if better == "lower" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    oq1, omed, oq3 = quartiles(other)
    spread = max((bq3 - bq1) / bmed, (oq3 - oq1) / omed)
    all_better = max(sign * v for v in other) < min(sign * v for v in base)
    all_worse = min(sign * v for v in other) > max(sign * v for v in base)
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    if sign * (omed - bmed) > bound * bmed:
        return "regression"
    return "within-bound"


def compare(paths: list[Path], contract: dict) -> tuple[list[str], bool]:
    """The comparison table and whether any row is a regression."""
    declared = {m["name"]: m for m in contract["end_to_end"]}
    sets = [load_runs(path) for path in paths]
    base_path, base = paths[0], metric_values(sets[0])
    lines = [
        f"base = {base_path.name}; value = median [q1 .. q3] n",
        f"{'workload':<10} {'metric':<12} {'base':<34} {'set':<34} "
        f"{'ratio':<18} verdict",
    ]
    regression = False

    def cell(values) -> str:
        q1, med, q3 = quartiles(values)
        return f"{med:.4g} [{q1:.4g} .. {q3:.4g}] n={len(values)}"

    for runs in sets[1:]:
        other = metric_values(runs)
        for key in sorted(base.keys() & other.keys()):
            workload, metric = key
            m = declared[metric]
            v = verdict(base[key], other[key], m["better"], m["bound"])
            regression |= v == "regression"
            ratio = quartiles(other[key])[1] / quartiles(base[key])[1]
            lines.append(
                f"{workload:<10} {metric:<12} {cell(base[key]):<34} "
                f"{cell(other[key]):<34} "
                f"{f'{ratio:.3f}x of {base_path.stem}':<18} "
                f"{v} (bound {m['bound']:g}, {m['better']} is better)"
            )
    lines.append("perf.slow_frac per run:")
    for path, runs in zip(paths, sets):
        lines.extend(slow_fracs(path.name, runs))
    return lines, regression
