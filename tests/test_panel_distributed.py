"""Panel-native distributed pipeline (PR 7).

Acceptance: the panel schedule — one *wide* halo exchange per round
carrying every RHS column, then one panel product — must be
bitwise-per-column equal to the looped schedule at 1, 2 and 8 SPMD
ranks for every matrix format and ladder rung; the halo message count per solve must drop ~N× (measured
counters, bytes unchanged); ``solve_panel``'s restart-boundary
collectives must be O(1) in the panel width; and the wide-exchange
loop must stay allocation-free after warmup.

Rank counts come from ``REPRO_RANKS`` (the CI distributed matrix legs
set 1, 2 and 8), defaulting to ``1,2,4`` locally.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from helpers_distributed import BOTH_CLASSES, RANKS, run_ranks
from helpers_distributed import smooth_vector as smooth_local_vector

from repro.backends.registry import registry
from repro.fp import DOUBLE_POLICY, MIXED_DS_POLICY
from repro.geometry import BoxGrid, ProcessGrid, Subdomain
from repro.mg import MGConfig
from repro.parallel import run_spmd
from repro.parallel.distributed import (
    dnorm2_from_local,
    dnorm2_panel_from_local,
)
from repro.solvers import GMRESIRSolver
from repro.solvers.operator import DistributedOperator
from repro.sparse import to_format, to_precision
from repro.stencil import generate_problem


def make_rhs_panel(b: np.ndarray, ncol: int) -> np.ndarray:
    B = np.empty((b.shape[0], ncol), order="F")
    for j in range(ncol):
        np.multiply(b, 1.0 + 0.5 * j, out=B[:, j])
    return B


def _solver(prob, comm, policy, **kw):
    return GMRESIRSolver(
        prob,
        comm,
        policy=policy,
        mg_config=MGConfig(nlevels=2),
        restart=10,
        **kw,
    )


@BOTH_CLASSES
class TestWideExchangeMatvecPanel:
    @pytest.mark.parametrize("nranks", RANKS)
    @pytest.mark.parametrize("fmt", ["csr", "ell"])
    @pytest.mark.parametrize("prec", ["fp64", "fp32"])
    def test_panel_bitwise_equals_per_column_matvec(self, nranks, fmt, prec):
        """``matvec_panel`` behind one wide exchange == looping
        ``matvec`` (its own per-column exchanges), bitwise, for every
        format and rung."""

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(4, 4, 4), pg, comm.rank)
            prob = generate_problem(sub)
            A = to_precision(to_format(prob.A, fmt), prec)
            op = DistributedOperator(A, prob.halo, comm)
            x = smooth_local_vector(sub).astype(A.dtype)
            X = np.empty((x.shape[0], 4), dtype=A.dtype, order="F")
            for j in range(4):
                X[:, j] = (1 + j) * x
            Y = np.array(op.matvec_panel(X), copy=True)
            ok = True
            for j in range(4):
                ok = ok and np.array_equal(Y[:, j], op.matvec(X[:, j].copy()))
            return bool(ok)

        assert all(run_ranks(nranks, fn))


class TestPanelSolverParity:
    @pytest.mark.parametrize("nranks", RANKS)
    @pytest.mark.parametrize(
        "parity_class,fmt",
        [(b, fmt) for b in registry.backends() for fmt in ("csr", "ell")],
        indirect=["parity_class"],
    )
    @pytest.mark.parametrize("policy", [DOUBLE_POLICY, MIXED_DS_POLICY])
    def test_panel_bitwise_vs_looped_schedule(
        self, nranks, parity_class, fmt, policy
    ):
        """End-to-end ``solve_panel`` == the looped per-column solve,
        bitwise, for every format × rung × rank count."""

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            ncol = 4
            B = make_rhs_panel(prob.b, ncol)
            pan = _solver(prob, comm, policy, matrix_format=fmt)
            X, _ = pan.solve_panel(B, tol=0.0, maxiter=10)
            ok = True
            for j in range(ncol):
                seq = _solver(prob, comm, policy, matrix_format=fmt)
                xj, _ = seq.solve(B[:, j].copy(), tol=0.0, maxiter=10)
                ok = ok and np.array_equal(X[:, j], xj)
            return ok

        assert all(run_ranks(nranks, fn))


class TestBatchedCollectives:
    def test_panel_norm_is_one_allreduce(self):
        """``dnorm2_panel_from_local`` reduces the whole N-vector of
        local squares in a single all-reduce, bitwise-equal per entry
        to the per-column scalar chain."""

        def fn(comm):
            locals_sq = (1.0 + comm.rank) * np.arange(1.0, 9.0)
            before = comm.stats.allreduces
            batched = dnorm2_panel_from_local(comm, locals_sq)
            calls = comm.stats.allreduces - before
            looped = np.array(
                [dnorm2_from_local(comm, v) for v in locals_sq]
            )
            return calls, bool(np.array_equal(batched, looped))

        for calls, bitwise in run_spmd(3, fn):
            assert calls == 1
            assert bitwise

    def test_panel_norm_explicit_algorithms(self):
        """The software-collective routing stays available and agrees
        with the rendezvous default to fp64 rounding."""
        from repro.parallel.collectives import ALLREDUCE_ALGORITHMS

        def fn(comm):
            locals_sq = (1.0 + comm.rank) * np.arange(1.0, 5.0)
            ref = dnorm2_panel_from_local(comm, locals_sq)
            ok = True
            for alg in ALLREDUCE_ALGORITHMS:
                got = dnorm2_panel_from_local(comm, locals_sq, algorithm=alg)
                ok = ok and np.allclose(got, ref, rtol=1e-13)
            return ok

        assert all(run_spmd(4, fn))

    def test_restart_boundary_collectives_scale_affinely(self):
        """Total all-reduce count is affine in the panel width: each
        extra column adds only its own inner-loop reductions — the
        restart-boundary checks batch into width-independent calls."""

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            counts = {}
            for ncol in (2, 4, 8):
                B = make_rhs_panel(prob.b, ncol)
                solver = _solver(prob, comm, DOUBLE_POLICY)
                comm.stats.reset()
                solver.solve_panel(B, tol=0.0, maxiter=10)
                counts[ncol] = comm.stats.allreduces
            return counts

        counts = run_spmd(2, fn)[0]
        per_column = (counts[4] - counts[2]) / 2
        assert counts[8] - counts[4] == 4 * per_column
        # The width-independent share (rho0, restart-boundary norms,
        # final checks ride single batched calls) is real and positive.
        assert counts[2] - 2 * per_column > 0


class TestHaloMessageReduction:
    def test_wide_exchange_cuts_messages_n_times(self):
        """A panel solve posts exactly 1/N the halo messages of the
        looped per-column schedule while shipping identical wire bytes
        in the same number of exchange rounds per column."""

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            ncol = 4
            B = make_rhs_panel(prob.b, ncol)
            pan = _solver(prob, comm, MIXED_DS_POLICY)
            pan.reset_halo_counters()
            pan.solve_panel(B, tol=0.0, maxiter=10)
            panel = (
                pan.halo_message_count(),
                pan.halo_sent_bytes(),
                pan.halo_exchange_count(),
            )
            looped = [0, 0, 0]
            for j in range(ncol):
                seq = _solver(prob, comm, MIXED_DS_POLICY)
                seq.reset_halo_counters()
                seq.solve(B[:, j].copy(), tol=0.0, maxiter=10)
                looped[0] += seq.halo_message_count()
                looped[1] += seq.halo_sent_bytes()
                looped[2] += seq.halo_exchange_count()
            return ncol, panel, tuple(looped)

        for ncol, panel, looped in run_spmd(2, fn):
            messages, nbytes, exchanges = panel
            assert messages > 0
            assert messages * ncol == looped[0]
            assert nbytes == looped[1]  # bytes unchanged, coalesced
            assert exchanges * ncol == looped[2]


class TestWideExchangeAllocations:
    def test_panel_halo_loop_no_vector_growth(self):
        """tracemalloc across a 2-rank panel solve: the
        wide-exchange loop (panel packing, transport, ghost-tail
        landings) allocates nothing vector-sized after warmup."""
        vector_bytes_8 = 512 * 8

        def fn(comm):
            pg = ProcessGrid.from_size(comm.size)
            sub = Subdomain(BoxGrid(8, 8, 8), pg, comm.rank)
            prob = generate_problem(sub)
            solver = _solver(prob, comm, MIXED_DS_POLICY)
            B = make_rhs_panel(prob.b, 4)
            solver.solve_panel(B, tol=0.0, maxiter=10)  # warmup
            misses0 = solver.ws.misses
            comm.barrier()
            snap1 = None
            if comm.rank == 0:
                gc.collect()
                tracemalloc.start(10)
                snap1 = tracemalloc.take_snapshot()
            comm.barrier()
            solver.solve_panel(B, tol=0.0, maxiter=10)
            comm.barrier()
            if comm.rank != 0:
                return solver.ws.misses - misses0, []
            snap2 = tracemalloc.take_snapshot()
            tracemalloc.stop()
            diff = snap2.compare_to(snap1, "traceback")
            offenders = [
                f"{d.size_diff / 1024:.1f} KB (+{d.count_diff}) at "
                + " <- ".join(d.traceback.format()[-2:])
                for d in diff
                if d.size_diff > 4 * vector_bytes_8
            ]
            return solver.ws.misses - misses0, offenders

        for dmiss, offenders in run_spmd(2, fn):
            assert dmiss == 0, "panel loop allocated new arena buffers"
            assert not offenders, (
                "wide-exchange loop grew vector-sized allocation sites:\n"
                + "\n".join(offenders)
            )


class TestMessageModelAndGate:
    def test_cycle_halo_messages_panel_independent(self):
        from repro.perf.network import halo_message_counts
        from repro.perf.scaling import ScalingModel

        model = ScalingModel()
        per_round = halo_message_counts(model.level_local_dims(0))["messages"]
        base = model.cycle_halo_messages()
        assert base == model.cycle_halo_exchanges() * per_round
        # The wide exchange coalesces columns: the cycle count does not
        # scale with the panel, so per-RHS messages drop exactly N×.
        assert model.cycle_halo_messages(panel=8) == base
        assert model.cycle_halo_messages(panel=8) / 8 == base / 8
        # Bytes, by contrast, do scale with the panel (same ghosts per
        # column on the wire).
        policy = MIXED_DS_POLICY
        assert model.cycle_traffic_bytes(policy, panel=8)["halo"] == (
            8 * model.cycle_traffic_bytes(policy, panel=1)["halo"]
        )

    def test_benchmark_record_carries_message_metric(self):
        from repro.core.benchmark import DistributedPhaseMetrics

        rec = DistributedPhaseMetrics(
            grid=(2, 1, 1),
            nranks=2,
            wall_seconds=1.0,
            solves=1,
            iterations=10,
            seconds_by_motif={},
            send_bytes=0,
            allreduce_bytes=0,
            comm_bytes_per_iteration=0.0,
            model_bytes_per_cycle=0.0,
            halo_messages_per_rhs=123.0,
            panel_halo_messages=7,
            panel_halo_bytes=512,
            panel_halo_seconds=0.25,
        ).to_dict()
        assert rec["halo_messages_per_rhs"] == 123.0
        assert rec["panel_halo_messages"] == 7
        assert rec["panel_halo_bytes"] == 512

    def test_gate_fires_on_message_regression(self):
        import importlib.util
        import pathlib

        spec = importlib.util.spec_from_file_location(
            "check_regression",
            pathlib.Path(__file__).resolve().parents[1]
            / "benchmarks"
            / "check_regression.py",
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        baseline = {"halo_messages_per_rhs": 100.0}
        failures, _ = mod.compare(
            {"halo_messages_per_rhs": 101.0}, baseline, 0.2
        )
        assert not failures  # +1% rides under the 2% deterministic gate
        failures, _ = mod.compare(
            {"halo_messages_per_rhs": 400.0}, baseline, 0.2
        )
        assert any("halo_messages_per_rhs" in f for f in failures)

    def test_network_fit_separates_latency_from_panel_sample(self):
        """The batched segment's message-lean window gives the
        alpha-beta fit the second mix it needs to resolve a positive
        per-message latency out of one benchmark record."""
        from repro.perf.calibrate import (
            fit_alpha_beta,
            halo_samples_from_records,
        )

        rec = {
            "send_messages": 1000,
            "send_bytes": 1.0e6,
            "halo_seconds": 0.5,
            "panel_halo_messages": 125,
            "panel_halo_bytes": 1.0e6,
            "panel_halo_seconds": 0.2,
        }
        samples = halo_samples_from_records([rec])
        assert len(samples) == 2
        fit = fit_alpha_beta(samples)
        assert fit.nsamples == 2
        assert fit.alpha > 0 and fit.beta > 0
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_records_without_panel_counters_keep_one_sample(self):
        from repro.perf.calibrate import halo_samples_from_records

        rec = {"send_messages": 10, "send_bytes": 100.0, "halo_seconds": 0.1}
        assert len(halo_samples_from_records([rec])) == 1
