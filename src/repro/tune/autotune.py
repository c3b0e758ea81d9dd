"""The autotuner front end: probe, select, persist, install.

:func:`autotune_operator` turns one operator into a
:class:`~repro.tune.plan.DispatchPlan` — consulting the persistent
:class:`~repro.tune.cache.PlanCache` first (keyed operator-content x
machine fingerprint), probing only on a miss or under ``force`` — and
re-asserts the bitwise-parity invariant before returning.

:func:`tune_for_config` is the benchmark's entry: it builds the
representative rank-local operator a :class:`BenchmarkConfig` implies
and derives the precision rungs from the config's ladder, and
:func:`apply_plan_to_config` folds the plan's solver-wide consensus
format back into the config the workers run with.
"""

from __future__ import annotations

import logging

from repro.backends.registry import registry
from repro.perf.machine import machine_fingerprint, probe_machine
from repro.solvers.setup_cache import operator_fingerprint
from repro.tune.cache import PlanCache
from repro.tune.plan import DispatchPlan
from repro.tune.probe import OperatorProber

logger = logging.getLogger(__name__)


def autotune_operator(
    A,
    *,
    baseline_format: str = "ell",
    rungs: tuple = ("fp64", "fp32"),
    max_rows: int = 4096,
    repeats: int = 3,
    cache: PlanCache | None = None,
    force: bool = False,
) -> tuple[DispatchPlan, bool]:
    """Tune dispatch for one operator; returns ``(plan, cache_hit)``.

    With a ``cache``, a plan recorded for this exact operator content
    on this machine from the active backend is returned without probing
    (unless ``force``); fresh plans are stored back.  Either way the
    returned plan has its per-(op, rung) parity invariant re-asserted.
    """
    op_fp = operator_fingerprint(A)
    mach_fp = machine_fingerprint()
    if cache is not None and not force:
        plan = cache.load(op_fp, mach_fp)
        # The cache key hashes no backend, and CSR is bitwise ELL only
        # inside the SciPy class: a format chosen under another parity
        # class was never parity-checked under the active one.  A miss —
        # re-probe below and overwrite.
        if plan is not None and plan.baseline_backend == registry.active_backend:
            plan.assert_parity()
            return plan, True

    probe = probe_machine()
    prober = OperatorProber(
        A,
        baseline_format=baseline_format,
        rungs=rungs,
        max_rows=max_rows,
        repeats=repeats,
    )
    entries, records = prober.probe_all()
    plan = DispatchPlan(
        operator_fingerprint=op_fp,
        machine_fingerprint=mach_fp,
        baseline_format=baseline_format,
        baseline_backend=prober.baseline_backend,
        entries=entries,
        probes=tuple(records),
        machine=probe.to_dict(),
    )
    plan.assert_parity()
    if cache is not None:
        cache.store(plan)
    logger.info(
        "autotuned %d (op, rung) entries on %s: probe speedup %.3fx",
        len(entries),
        mach_fp,
        plan.speedup(),
    )
    return plan, False


def config_rungs(config) -> tuple[str, ...]:
    """The precision rungs a config's ladder exercises (fp64 always —
    the outer iterative-refinement loop runs there)."""
    rungs = ["fp64"]
    ladder = getattr(config, "precision_ladder", None)
    if ladder:
        for rung in str(ladder).replace(",", ":").split(":"):
            rung = rung.strip()
            if rung and rung not in rungs and rung != "fp16":
                rungs.append(rung)
    elif getattr(config, "impl", "optimized") == "optimized":
        rungs.append("fp32")
    return tuple(rungs)


def representative_problem(config):
    """The rank-local operator the tuner probes: the serial subdomain
    at the config's local dims (deterministic for a given config, so
    its content fingerprint keys warm cache hits across runs)."""
    from repro.geometry.partition import Subdomain
    from repro.stencil.poisson27 import ProblemSpec, generate_problem

    nx, ny, nz = config.local_dims
    sub = Subdomain.serial(nx, ny, nz)
    return generate_problem(sub, spec=ProblemSpec(kind=config.matrix_kind))


def tune_for_config(
    config, cache: PlanCache | None = None, force: bool = False
) -> tuple[DispatchPlan, bool]:
    """Autotune for a benchmark config; returns ``(plan, cache_hit)``."""
    problem = representative_problem(config)
    return autotune_operator(
        problem.A,
        baseline_format=config.matrix_format,
        rungs=config_rungs(config),
        cache=cache,
        force=force,
    )


def apply_plan_to_config(config, plan: DispatchPlan):
    """The config with the plan's solver-wide consensus format folded in.

    Only a parity-asserted unanimous choice moves the format; a plan
    that found nothing better returns the config itself.
    """
    fmt = plan.solver_format()
    if fmt == config.matrix_format:
        return config
    return config.with_updates(matrix_format=fmt)
