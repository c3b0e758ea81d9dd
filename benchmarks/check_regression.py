#!/usr/bin/env python
"""CI regression gate for the distributed benchmark phase.

Compares a freshly-measured benchmark record (written by
``python -m repro run --distributed ... --bench-out BENCH_ci.json``)
against the committed baseline and fails (exit 1) when a tracked
metric regresses by more than the threshold:

- ``comm_bytes_per_iteration`` — measured halo + collective bytes per
  inner iteration.  Deterministic for a given configuration, so any
  increase is a real traffic regression (e.g. a layout change that
  re-ships ghost values, or an extra exchange on the hot path).
- ``model_bytes_per_cycle`` — the byte model's per-restart-cycle total
  (HBM streams plus halo at rung widths).  Also deterministic.
- ``model_symgs_bytes_per_cycle`` — the dominant motif's modeled HBM
  stream on its own (deterministic): a smoother that silently falls
  off the color-partitioned layout re-grows its indirection traffic
  here even when the total hides it.
- ``seconds_per_solve`` — wall clock per solve.  Noisy on shared CI
  runners, hence the generous default threshold; the byte metrics are
  the precise tripwires, the wall clock catches order-of-magnitude
  slips (an accidentally-quadratic setup, an extra exchange).
- ``bytes_per_rhs`` — the byte model's per-RHS total at the configured
  RHS panel width (deterministic): a panel kernel silently re-charged
  per column regrows this immediately.
- ``halo_messages_per_rhs`` — the network model's per-RHS halo message
  count at the configured panel width (deterministic): the wide
  exchange coalesces all panel columns into one message per neighbor,
  so a fallback to per-column exchanges multiplies this ~panel×.
- ``panel_matrix_reuse`` — measured RHS columns served per operator
  matrix pass in the batched phase (higher is better; the gate fires
  on a *drop*).  Deterministic amortization tripwire for the panel
  pipeline.
- ``service.coalesce_width`` / ``service.setup_cache_hit_rate`` /
  ``service.panel_matrix_reuse`` — the solver-service phase's
  deterministic headline metrics (higher is better, 2% gate), plus its
  self-asserted ``bitwise_parity`` flag (coalesced solve == solo
  solve): the request-coalescing, shared-cache and single-pass-panel
  seams each have their own tripwire.
- ``resilience.*`` — the fault-injection phase's hard invariants when
  ``--fault-inject`` ran: clean-run bitwise parity, ABFT detection
  rate exactly 1.0 on covered sites, and checkpoint-replay recovery.
  Deterministic by construction, so they gate on the current record
  alone (no baseline entry).
- ``motif_seconds_per_solve`` — per-motif wall clock (spmv / symgs /
  ortho / halo).  Even noisier than the total (each motif is a slice
  of an already-noisy measurement), so motifs gate only on
  catastrophic regressions (``--motif-threshold``, default 4.0 = a
  5x slowdown) — the tripwire for a single motif silently losing its
  format fast path while the total hides it.

Usage::

    python benchmarks/check_regression.py BENCH_ci.json \
        --baseline benchmarks/BENCH_baseline.json --threshold 0.2

A current value *below* baseline never fails; the script prints a
reminder to refresh the committed baseline when the improvement
exceeds the threshold (so future regressions are measured from the
better number).
"""

from __future__ import annotations

import argparse
import json
import sys

#: Metric -> (noisy?, threshold override).  Byte metrics are
#: deterministic for a given configuration, so they gate at a tight
#: 2% regardless of the CLI threshold (a smoother silently falling
#: back off the color-partitioned layout costs ~5% symgs bytes —
#: under the default 20% but well over 2%); the wall clock rides the
#: generous CLI threshold.
TRACKED_METRICS = {
    "comm_bytes_per_iteration": (False, 0.02),
    "model_bytes_per_cycle": (False, 0.02),
    "model_symgs_bytes_per_cycle": (False, 0.02),
    "seconds_per_solve": (True, None),
    # Batched multi-RHS phase (PR 6): the byte model's per-RHS total at
    # the configured panel width.  Deterministic, so it gates tight —
    # a panel kernel silently falling back to per-column matrix
    # streams shows up here long before the wall clock notices.
    "bytes_per_rhs": (False, 0.02),
    # Panel-native distributed pipeline (PR 7): the network model's
    # per-RHS halo message count at the configured panel width.
    # Deterministic (messages per cycle / panel); a panel path that
    # silently falls back to per-column exchanges multiplies this by
    # the panel width — far beyond the 2% gate.
    "halo_messages_per_rhs": (False, 0.02),
}

#: Higher-is-better metrics: the gate fires when the *current* value
#: drops below baseline by more than the threshold (the inverse of the
#: TRACKED_METRICS direction).  ``panel_matrix_reuse`` is the measured
#: RHS columns served per operator matrix pass — deterministic for a
#: given configuration, and the whole point of the batched pipeline,
#: so a slip back toward 1.0 is a real amortization regression.
HIGHER_BETTER_METRICS = {
    "panel_matrix_reuse": (False, 0.02),
}

#: Key of the per-motif wall-clock breakdown in the gated record, and
#: the motifs tracked within it.
MOTIF_KEY = "motif_seconds_per_solve"
TRACKED_MOTIFS = ("spmv", "symgs", "ortho", "halo")

#: Key of the solver-service phase block in the gated record (PR 8),
#: and its higher-is-better metrics.  All three are deterministic for
#: a given ``--service`` configuration (fixed iteration budgets, bursts
#: that coalesce fully, round 1 misses / later rounds hit), so they
#: gate at a tight 2%: a batcher that stops coalescing drops
#: ``coalesce_width`` toward 1, a solver constructed past the shared
#: cache drops ``setup_cache_hit_rate``, and a panel path re-charging
#: the matrix per column drops ``panel_matrix_reuse``.
SERVICE_KEY = "service"
SERVICE_METRICS = {
    "coalesce_width": 0.02,
    "setup_cache_hit_rate": 0.02,
    "panel_matrix_reuse": 0.02,
}

#: Key of the resilience phase block in the gated record (PR 10):
#: present when the run drove a ``--fault-inject`` campaign.  Its
#: invariants are deterministic by construction (the fault schedule is
#: a pure function of the spec), so they gate hard on the current
#: record alone — no baseline entry needed.
RESILIENCE_KEY = "resilience"


def _compare_one(
    key: str,
    cur: float,
    base: float,
    threshold: float,
    failures: list[str],
    notes: list[str],
    noisy: bool = False,
) -> None:
    if base <= 0:
        notes.append(f"{key}: baseline {base} not positive; skipped")
        return
    ratio = cur / base
    tag = " (noisy)" if noisy else ""
    if ratio > 1.0 + threshold:
        failures.append(
            f"{key}: {cur:.6g} vs baseline {base:.6g} "
            f"(+{(ratio - 1) * 100:.1f}% > {threshold * 100:.0f}%){tag}"
        )
    elif ratio < 1.0 - threshold:
        notes.append(
            f"{key}: improved {(1 - ratio) * 100:.1f}% "
            f"({cur:.6g} vs {base:.6g}) — consider refreshing the baseline"
        )
    else:
        notes.append(f"{key}: {cur:.6g} vs {base:.6g} (ok)")


def _compare_one_higher_better(
    key: str,
    cur: float,
    base: float,
    threshold: float,
    failures: list[str],
    notes: list[str],
) -> None:
    """Inverted gate: fail when the current value *drops* below baseline."""
    if base <= 0:
        notes.append(f"{key}: baseline {base} not positive; skipped")
        return
    ratio = cur / base
    if ratio < 1.0 - threshold:
        failures.append(
            f"{key}: {cur:.6g} vs baseline {base:.6g} "
            f"(-{(1 - ratio) * 100:.1f}% > {threshold * 100:.0f}%; "
            f"higher is better)"
        )
    elif ratio > 1.0 + threshold:
        notes.append(
            f"{key}: improved {(ratio - 1) * 100:.1f}% "
            f"({cur:.6g} vs {base:.6g}) — consider refreshing the baseline"
        )
    else:
        notes.append(f"{key}: {cur:.6g} vs {base:.6g} (ok)")


def compare(
    current: dict,
    baseline: dict,
    threshold: float,
    motif_threshold: float = 4.0,
) -> tuple[list[str], list[str]]:
    """Return (failures, notes) comparing tracked metrics."""
    failures: list[str] = []
    notes: list[str] = []
    for key, (noisy, override) in TRACKED_METRICS.items():
        if key not in baseline:
            notes.append(f"baseline has no {key!r}; skipped")
            continue
        if key not in current:
            failures.append(f"current record is missing {key!r}")
            continue
        _compare_one(
            key,
            float(current[key]),
            float(baseline[key]),
            override if override is not None else threshold,
            failures,
            notes,
            noisy=noisy,
        )
    for key, (_, override) in HIGHER_BETTER_METRICS.items():
        if key not in baseline:
            notes.append(f"baseline has no {key!r}; skipped")
            continue
        if key not in current:
            failures.append(f"current record is missing {key!r}")
            continue
        _compare_one_higher_better(
            key,
            float(current[key]),
            float(baseline[key]),
            override if override is not None else threshold,
            failures,
            notes,
        )
    # Per-motif wall-clock breakdown: generous threshold (each motif is
    # a noisy slice), catching a single motif's catastrophic slip.
    base_motifs = baseline.get(MOTIF_KEY) or {}
    cur_motifs = current.get(MOTIF_KEY) or {}
    for motif in TRACKED_MOTIFS:
        if motif not in base_motifs:
            notes.append(f"baseline has no motif {motif!r}; skipped")
            continue
        if motif not in cur_motifs:
            failures.append(f"current record is missing motif {motif!r}")
            continue
        _compare_one(
            f"{MOTIF_KEY}.{motif}",
            float(cur_motifs[motif]),
            float(base_motifs[motif]),
            motif_threshold,
            failures,
            notes,
            noisy=True,
        )
    # Solver-service phase (PR 8): deterministic higher-is-better
    # metrics nested under the "service" key.  A baseline without the
    # block skips (pre-service baselines stay valid); a current record
    # missing a gated key the baseline has is a failure, same as the
    # flat metrics above.
    base_service = baseline.get(SERVICE_KEY) or {}
    cur_service = current.get(SERVICE_KEY) or {}
    for key, override in SERVICE_METRICS.items():
        if key not in base_service:
            notes.append(f"baseline has no {SERVICE_KEY}.{key!r}; skipped")
            continue
        if key not in cur_service:
            failures.append(
                f"current record is missing {SERVICE_KEY}.{key!r}"
            )
            continue
        _compare_one_higher_better(
            f"{SERVICE_KEY}.{key}",
            float(cur_service[key]),
            float(base_service[key]),
            override,
            failures,
            notes,
        )
    if base_service:
        # The phase's self-asserted bitwise contract (client 0's
        # coalesced solution vs its solo solve) rides the gate too: a
        # parity break is a correctness bug, not a perf regression.
        if not cur_service.get("bitwise_parity", False):
            failures.append(
                f"{SERVICE_KEY}.bitwise_parity: coalesced solve no longer "
                f"matches the solo solve bitwise"
            )
        else:
            notes.append(f"{SERVICE_KEY}.bitwise_parity: ok")
    # Resilience phase (PR 10): every invariant here is deterministic
    # by construction (the injector's schedule is a pure function of
    # the --fault-inject spec), so the gate holds the *current* record
    # to hard bounds with no baseline comparison:
    # - clean_parity: resilience-on + zero faults stayed bitwise-equal
    #   to resilience-off (detection must be read-only);
    # - detection_rate == 1.0: every spmv corruption was injected into
    #   an ABFT-covered dispatch, so each one must be caught;
    # - recovered_converged: every faulted solve replayed from its
    #   restart-boundary checkpoint and still converged.
    cur_res = current.get(RESILIENCE_KEY) or {}
    if cur_res:
        if not cur_res.get("clean_parity", False):
            failures.append(
                f"{RESILIENCE_KEY}.clean_parity: resilience-enabled clean "
                f"solve is no longer bitwise-identical to resilience-off"
            )
        else:
            notes.append(f"{RESILIENCE_KEY}.clean_parity: ok")
        injected_spmv = sum(
            v
            for k, v in (cur_res.get("injected") or {}).items()
            if k.startswith("spmv:")
        )
        rate = float(cur_res.get("detection_rate", 0.0))
        if injected_spmv and rate < 1.0:
            failures.append(
                f"{RESILIENCE_KEY}.detection_rate: {rate:.6g} < 1.0 with "
                f"{injected_spmv} spmv fault(s) injected — an ABFT-covered "
                f"corruption went undetected"
            )
        else:
            notes.append(
                f"{RESILIENCE_KEY}.detection_rate: {rate:.6g} "
                f"({injected_spmv} spmv fault(s), ok)"
            )
        if not cur_res.get("recovered_converged", False):
            failures.append(
                f"{RESILIENCE_KEY}.recovered_converged: "
                f"{cur_res.get('recovered_solves', 0)}/"
                f"{cur_res.get('faulted_solves', 0)} faulted solve(s) "
                f"converged after checkpoint replay"
            )
        else:
            notes.append(f"{RESILIENCE_KEY}.recovered_converged: ok")
    return failures, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly measured record (JSON)")
    parser.add_argument(
        "--baseline",
        default="benchmarks/BENCH_baseline.json",
        help="committed baseline record",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="allowed relative regression (0.2 = 20%%)",
    )
    parser.add_argument(
        "--motif-threshold",
        type=float,
        default=4.0,
        help="allowed relative regression per motif wall-clock slice "
        "(4.0 = a 5x slowdown; motifs are noisy, so only "
        "catastrophic slips gate)",
    )
    args = parser.parse_args(argv)

    with open(args.current) as f:
        current = json.load(f)
    with open(args.baseline) as f:
        baseline = json.load(f)

    bcfg, ccfg = baseline.get("config"), current.get("config")
    if bcfg and ccfg and bcfg != ccfg:
        print(f"warning: config mismatch\n  baseline: {bcfg}\n  current:  {ccfg}")

    failures, notes = compare(
        current, baseline, args.threshold, motif_threshold=args.motif_threshold
    )
    for n in notes:
        print(f"  {n}")
    if failures:
        print("REGRESSION:")
        for fmsg in failures:
            print(f"  {fmsg}")
        return 1
    print("no regression beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
