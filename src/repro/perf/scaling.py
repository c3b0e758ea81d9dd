"""Weak-scaling performance model (Figures 4, 5, 6, 7).

Assembles per-restart-cycle time and flops from the kernel byte model,
the halo/all-reduce network model, and the overlap schedule, for both
code paths ("optimized" = the paper's implementation, "reference" =
the xsdk baseline) and both precision modes ("mxp", "double").

Everything is computed *per GCD* with the local problem size; weak
scaling enters through communication (halo latency, all-reduce depth,
congestion) and the imbalance factor.  The penalized GFLOP/s rating
uses the same flop model as the real benchmark driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.flops import (
    LevelDims,
    flops_gmres_cycle_overhead,
    flops_gmres_iteration,
    stencil27_nnz,
)
from repro.fp.ladder import schedule_for_levels
from repro.fp.precision import Precision
from repro.mg.multigrid import MGConfig
from repro.perf.kernels import KernelModel
from repro.perf.machine import FRONTIER_GCD, MachineSpec
from repro.perf.network import (
    allreduce_time,
    halo_exchange_time,
    imbalance_factor,
)

#: Inner-kernel precision per benchmark mode.  "mxp-half" projects the
#: paper's future-work direction (§5): half precision for the blue
#: steps of Algorithm 3, with the outer updates still double.
MODE_PRECISION = {
    "mxp": Precision.SINGLE,
    "double": Precision.DOUBLE,
    "mxp-half": Precision.HALF,
}

#: The validation penalty the paper measures on one node (2305/2382).
PAPER_PENALTY = 2305.0 / 2382.0

#: The canonical one-at-a-time ablation grid (§3.2's optimizations),
#: consumed by both the CLI ``ablation`` command and the ablation
#: benchmark so the two can never drift apart.  Each entry is
#: ``(label, ScalingModel kwargs)`` switching one optimization off the
#: fully-optimized configuration.
ABLATION_CONFIGS: list[tuple[str, dict]] = [
    ("optimized (all on)", {}),
    ("CSR storage", {"matrix_format": "csr"}),
    ("level-scheduled GS", {"smoother": "levelsched"}),
    ("unfused restriction", {"fused_restrict": False}),
    ("no overlap", {"overlap": False}),
    ("no symgs overlap", {"overlap_symgs": False}),
    ("no fused motifs", {"fusion": False}),
    ("host mixed ops", {"host_mixed_ops": True}),
    ("reference (all off)", {"impl": "reference"}),
]


@dataclass
class IterationProfile:
    """Modeled seconds and flops of one restart cycle, by motif."""

    seconds_by_motif: dict[str, float] = field(default_factory=dict)
    flops_by_motif: dict[str, int] = field(default_factory=dict)
    comm_seconds: float = 0.0  # explicit communication inside the cycle
    inner_iterations: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds_by_motif.values())

    @property
    def total_flops(self) -> int:
        return sum(self.flops_by_motif.values())

    def gflops(self, penalty: float = 1.0) -> float:
        """Penalized GFLOP/s of this profile (per GCD)."""
        if self.total_seconds <= 0:
            return 0.0
        return self.total_flops / self.total_seconds / 1e9 * penalty


class ScalingModel:
    """Performance model of one benchmark configuration."""

    def __init__(
        self,
        machine: MachineSpec = FRONTIER_GCD,
        local_dims: tuple[int, int, int] = (320, 320, 320),
        impl: str = "optimized",
        restart: int = 30,
        nlevels: int = 4,
        kernel_model: KernelModel | None = None,
        penalty: float = PAPER_PENALTY,
        reference_host_vectors_per_cycle: int = 6,
        levelsched_wavefront_bw_eff: float = 0.5,
        levelsched_sync_multiplier: float = 4.0,
        matrix_format: str | None = None,
        smoother: str | None = None,
        fused_restrict: bool | None = None,
        overlap: bool | None = None,
        overlap_symgs: bool | None = None,
        fusion: bool | None = None,
        host_mixed_ops: bool | None = None,
        sweep: str = "forward",
        ortho_method: str = "cgs2",
        mg_schedule: "str | tuple | list | None" = None,
    ) -> None:
        """Build a model configuration.

        ``impl`` bundles the paper's optimizations ("optimized") or
        their absence ("reference"); the five keyword overrides detach
        individual optimizations from the bundle so ablation benchmarks
        can toggle one at a time (§3.2's itemized contributions).

        ``mg_schedule`` overrides the mode's uniform inner precision
        with a per-multigrid-level ladder (``"fp16:fp32:fp64"`` or a
        precision sequence, finest level first, last entry extending
        to the remaining levels) — the byte widths then differ level
        by level, which is the whole point of running coarse levels
        lower on the ladder.
        """
        if impl not in ("optimized", "reference"):
            raise ValueError(f"unknown impl {impl!r}")
        opt = impl == "optimized"
        self.machine = machine
        self.local_dims = local_dims
        self.impl = impl
        self.restart = restart
        self.nlevels = nlevels
        self.km = kernel_model or KernelModel()
        self.penalty = penalty
        self.reference_host_vectors_per_cycle = reference_host_vectors_per_cycle
        self.levelsched_wavefront_bw_eff = levelsched_wavefront_bw_eff
        self.levelsched_sync_multiplier = levelsched_sync_multiplier
        # Per-optimization flags (default bound to impl).
        self.fmt = (
            matrix_format
            if matrix_format is not None
            else ("ell" if opt else "csr")
        )
        self.smoother = smoother if smoother is not None else (
            "multicolor" if opt else "levelsched"
        )
        self.fused = fused_restrict if fused_restrict is not None else opt
        self.overlap = overlap if overlap is not None else opt
        # The smoother's modelled halo window defaults to the SpMV
        # overlap decision; fused motifs (spmv_dot / waxpby_dot) ride
        # the optimized bundle.  Both detach for one-at-a-time ablation.
        # Neither changes a modelled byte: every multicolor sweep is
        # charged on the color-packed layout.
        self.overlap_symgs = (
            overlap_symgs if overlap_symgs is not None else self.overlap
        )
        self.fusion = fusion if fusion is not None else opt
        self.host_mixed_ops = (
            host_mixed_ops if host_mixed_ops is not None else (not opt)
        )
        if self.fmt not in ("ell", "csr"):
            raise ValueError(f"unknown matrix format {self.fmt!r}")
        if self.smoother not in ("multicolor", "levelsched"):
            raise ValueError(f"unknown smoother {self.smoother!r}")
        if ortho_method not in ("cgs2", "cgs", "mgs"):
            raise ValueError(f"unknown orthogonalization {ortho_method!r}")
        self.ortho_method = ortho_method
        self.mg_config = MGConfig(
            nlevels=nlevels,
            smoother=self.smoother,
            fused_restrict=self.fused,
            sweep=sweep,
        )
        self.mg_schedule = (
            schedule_for_levels(mg_schedule, nlevels)
            if mg_schedule is not None
            else None
        )

    def _level_prec(self, lvl: int, prec: Precision) -> Precision:
        """Level ``lvl``'s precision: the ladder rung, or ``prec``."""
        if self.mg_schedule is None:
            return prec
        return self.mg_schedule[min(lvl, len(self.mg_schedule) - 1)]

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def level_local_dims(self, lvl: int) -> tuple[int, int, int]:
        return tuple(max(d >> lvl, 1) for d in self.local_dims)

    def level_nlocal(self, lvl: int) -> int:
        nx, ny, nz = self.level_local_dims(lvl)
        return nx * ny * nz

    def level_dims_for_flops(self) -> list[LevelDims]:
        """Per-GCD LevelDims for the flop model."""
        out = []
        for lvl in range(self.nlevels):
            nx, ny, nz = self.level_local_dims(lvl)
            out.append(LevelDims(n=nx * ny * nz, nnz=stencil27_nnz(nx, ny, nz)))
        return out

    @staticmethod
    def _interior_fraction(dims: tuple[int, int, int]) -> float:
        """Fraction of rows not touching the halo (middle rank)."""
        nx, ny, nz = dims
        interior = max(nx - 2, 0) * max(ny - 2, 0) * max(nz - 2, 0)
        return interior / (nx * ny * nz)

    @staticmethod
    def _symgs_early_fraction(
        dims: tuple[int, int, int], num_colors: int = 8
    ) -> float:
        """Fraction of a sweep runnable before the halo lands.

        A color's interior block must be *dependency-closed* (every
        earlier-color neighbor itself early), which erodes the window
        by roughly one layer per pair of earlier parity colors:
        color ``c`` keeps rows at depth ``> 1 + (c+1)//2`` from the
        faces.  Averaged over colors this is nearly the full interior
        on fine boxes and collapses toward zero on coarse ones —
        exactly the Fig. 9b coarse-level exposure the measured
        per-level counters report.
        """
        nx, ny, nz = dims
        n = nx * ny * nz
        total = 0.0
        for c in range(num_colors):
            d = 1 + (c + 1) // 2
            kept = max(nx - 2 * d, 0) * max(ny - 2 * d, 0) * max(nz - 2 * d, 0)
            total += kept / n
        return total / num_colors

    def _level_sweeps(self, lvl: int) -> tuple[int, int]:
        """``(directional sweeps, zero-guess ones among them)`` of one
        V-cycle at a level.

        The V-cycle zeroes a level's iterate right before its
        pre-smooth (the coarsest level's only smooth), on every rank:
        the first directional sweep after that posts no halo exchange,
        and a multicolor one skips its first color's matrix stream.
        """
        cfg = self.mg_config
        mult = 2 if cfg.sweep == "symmetric" else 1
        if lvl == self.nlevels - 1:
            return cfg.coarse_sweeps * mult, int(cfg.coarse_sweeps > 0)
        return (cfg.npre + cfg.npost) * mult, int(cfg.npre > 0)

    # ------------------------------------------------------------------
    # Per-operation times
    # ------------------------------------------------------------------
    def _halo_time(self, lvl: int, prec: Precision, nranks: int) -> float:
        if nranks <= 1:
            return 0.0
        return halo_exchange_time(
            self.machine, self.level_local_dims(lvl), prec.bytes, staged=True
        )

    def _gs_sweep_time(
        self, lvl: int, prec: Precision, nranks: int, nodes: float
    ) -> float:
        """One distributed GS sweep at a level, overlap included."""
        m = self.machine
        n = self.level_nlocal(lvl)
        t_comm = self._halo_time(lvl, prec, nranks)
        imb = imbalance_factor(m, nodes)
        fmt_eff = m.csr_bw_efficiency if self.fmt == "csr" else 1.0
        if self.smoother == "multicolor":
            cost = self.km.gs_sweep(n, prec, fmt=self.fmt)
            t_kernel = m.kernel_time(
                cost.nbytes, cost.flops, prec, launches=cost.launches,
                bw_efficiency=fmt_eff,
            )
            if self.overlap_symgs:
                # Overlapped SymGS: the first color pass hides the
                # halo path (§3.2.3); any excess is exposed (Fig. 9b).
                # The paper's traces — which this model is calibrated
                # against — show exactly this window.  It models the
                # paper's GPU: the thread-SPMD solver here blocks on
                # every exchange.
                t_first_color = t_kernel / cost.launches
                exposed = max(0.0, t_comm - t_first_color)
                return t_kernel * imb + exposed
            return t_kernel * imb + t_comm
        # Level-scheduled SpTRSV: wavefront launches + host syncs.
        nx, ny, nz = self.level_local_dims(lvl)
        num_wavefronts = nx + 2 * ny + 4 * nz - 6
        cost = self.km.gs_levelscheduled(n, prec, num_wavefronts, fmt=self.fmt)
        t_kernel = m.kernel_time(
            cost.nbytes,
            cost.flops,
            prec,
            launches=int(cost.launches * self.levelsched_sync_multiplier),
            bw_efficiency=fmt_eff * self.levelsched_wavefront_bw_eff,
        )
        return t_kernel * imb + t_comm

    def _spmv_time(
        self, lvl: int, prec: Precision, nranks: int, nodes: float
    ) -> float:
        m = self.machine
        n = self.level_nlocal(lvl)
        cost = self.km.spmv(n, prec, fmt=self.fmt)
        bw_eff = m.csr_bw_efficiency if self.fmt == "csr" else 1.0
        t_kernel = m.kernel_time(
            cost.nbytes,
            cost.flops,
            prec,
            launches=cost.launches,
            bw_efficiency=bw_eff,
        ) * imbalance_factor(m, nodes)
        t_comm = self._halo_time(lvl, prec, nranks)
        if self.overlap:
            t_interior = t_kernel * self._interior_fraction(self.level_local_dims(lvl))
            return t_kernel + max(0.0, t_comm - t_interior)
        return t_kernel + t_comm

    def _restrict_time(
        self, lvl: int, prec: Precision, nranks: int, nodes: float
    ) -> float:
        """Residual+restriction from level ``lvl`` to ``lvl+1``."""
        m = self.machine
        imb = imbalance_factor(m, nodes)
        t_comm = self._halo_time(lvl, prec, nranks)
        fmt_eff = m.csr_bw_efficiency if self.fmt == "csr" else 1.0
        if self.fused:
            cost = self.km.fused_spmv_restrict(self.level_nlocal(lvl + 1), prec)
            t_kernel = m.kernel_time(
                cost.nbytes, cost.flops, prec, launches=cost.launches,
                bw_efficiency=fmt_eff,
            )
            if self.overlap:
                # SpMV-like overlap on the fused kernel.
                t_interior = t_kernel * self._interior_fraction(
                    self.level_local_dims(lvl)
                )
                return t_kernel * imb + max(0.0, t_comm - t_interior)
            return t_kernel * imb + t_comm
        cost = self.km.unfused_residual_restrict(
            self.level_nlocal(lvl), self.level_nlocal(lvl + 1), prec, fmt=self.fmt
        )
        t_kernel = m.kernel_time(
            cost.nbytes,
            cost.flops,
            prec,
            launches=cost.launches,
            bw_efficiency=fmt_eff,
        )
        return t_kernel * imb + t_comm

    def _prolong_time(self, lvl: int, prec: Precision, nodes: float) -> float:
        cost = self.km.prolong_correct(self.level_nlocal(lvl + 1), prec)
        return self.machine.kernel_time(
            cost.nbytes, cost.flops, prec, launches=cost.launches
        ) * imbalance_factor(self.machine, nodes)

    def mg_vcycle_times(
        self, prec: Precision, nranks: int, nodes: float
    ) -> dict[str, float]:
        """One V-cycle's modeled seconds by motif."""
        cfg = self.mg_config
        sweep_mult = 2 if cfg.sweep == "symmetric" else 1
        gs = restrict = prolong = 0.0
        for lvl in range(self.nlevels):
            prec_l = self._level_prec(lvl, prec)
            if lvl == self.nlevels - 1:
                gs += (
                    cfg.coarse_sweeps
                    * sweep_mult
                    * self._gs_sweep_time(lvl, prec_l, nranks, nodes)
                )
                continue
            gs += (
                (cfg.npre + cfg.npost)
                * sweep_mult
                * self._gs_sweep_time(lvl, prec_l, nranks, nodes)
            )
            restrict += self._restrict_time(lvl, prec_l, nranks, nodes)
            prolong += self._prolong_time(lvl, prec_l, nodes)
        return {"gs": gs, "restrict": restrict, "prolong": prolong}

    # ------------------------------------------------------------------
    # Byte-traffic accounting (policy-driven, per-level widths)
    # ------------------------------------------------------------------
    def mg_vcycle_bytes(self, policy, panel: int = 1, transfers=None) -> float:
        """Modeled HBM bytes of one V-cycle under a policy (per GCD).

        Each level is charged at its own ladder rung
        (``policy.mg_level``), so an ``fp16:fp32:fp64`` schedule
        streams measurably less than an all-fp32 hierarchy — the
        memory-wall argument for the ladder, level by level.

        ``transfers`` (one rung per level boundary, finest first: a
        roundoff budget's seeded transfers, the hierarchy's
        ``transfer_schedule``) charges the coarse defect the
        restriction writes at *that* rung instead of the level's.
        ``None`` charges it at the level's rung.

        ``panel > 1`` charges the multi-RHS V-cycle: each sweep's and
        transfer's matrix block streams once, the vector traffic
        scales per column (the :class:`KernelModel` panel semantics).
        """
        by = self.mg_vcycle_byte_breakdown(policy, panel=panel, transfers=transfers)
        return by["symgs"] + by["transfer"]

    def mg_vcycle_byte_breakdown(
        self, policy, panel: int = 1, transfers=None
    ) -> dict[str, float]:
        """One V-cycle's modeled HBM bytes, split ``symgs``/``transfer``.

        ``symgs`` is the smoother-sweep traffic (all levels; a
        multicolor sweep runs on the color-partitioned layout, with no
        index-set indirection, and a sweep from the zero guess does not
        stream its first color's matrix block, see
        :meth:`_level_sweeps`);
        ``transfer`` covers the restrictions and prolongations.  The
        split is what lets the benchmark record and its CI gate track
        the dominant motif's modeled bytes on their own.
        """
        multicolor = self.smoother == "multicolor"
        symgs = transfer = 0.0
        for lvl in range(self.nlevels):
            prec = policy.mg_level(lvl)
            n = self.level_nlocal(lvl)
            sweeps, from_zero = self._level_sweeps(lvl)
            cost = self.km.gs_sweep(
                n, prec, fmt=self.fmt, color_blocks=multicolor, panel=panel
            )
            symgs += sweeps * cost.nbytes
            if multicolor:
                symgs -= from_zero * self.km.gs_color_matrix_bytes(n, prec)
            if lvl == self.nlevels - 1:
                continue
            n_c = self.level_nlocal(lvl + 1)
            if self.fused:
                transfer += self.km.fused_spmv_restrict(
                    n_c, prec, panel=panel
                ).nbytes
            else:
                transfer += self.km.unfused_residual_restrict(
                    n, n_c, prec, fmt=self.fmt, panel=panel
                ).nbytes
            # Prolongation is pure vector traffic: every byte scales
            # with the panel.
            transfer += self.km.prolong_correct(n_c, prec).nbytes * panel
            if transfers is not None:
                # Re-charge the restriction's coarse-defect store at
                # the transfer rung (the kernel models above charged
                # it at the level rung).
                transfer += n_c * (transfers[lvl].bytes - prec.bytes) * panel
        return {"symgs": symgs, "transfer": transfer}

    def halo_traffic_bytes(self, policy) -> float:
        """Modeled network bytes of one restart cycle, per GCD.

        Each exchange ships one value per surface point at the width of
        the level's ladder rung — ghost regions are stored (and
        therefore exchanged) at the rung, so an ``fp16:fp32:fp64``
        schedule moves measurably fewer bytes over the wire than an
        all-fp32 one, exactly as it does through HBM.  Exchanges per
        cycle: one per smoother sweep that does not start from the zero
        guess (:meth:`_level_sweeps`) and one per restriction at every
        V-cycle level, one per inner SpMV at ``policy.matrix``, and the
        outer fp64 residual's exchange.
        """
        from repro.perf.network import halo_message_counts

        vcycle = 0.0
        for lvl in range(self.nlevels):
            pts = halo_message_counts(self.level_local_dims(lvl))["points"]
            width = policy.mg_level(lvl).bytes
            sweeps, from_zero = self._level_sweeps(lvl)
            vcycle += (sweeps - from_zero) * pts * width
            if lvl != self.nlevels - 1:
                vcycle += pts * width  # the restriction's residual SpMV
        m = self.restart
        fine_pts = halo_message_counts(self.level_local_dims(0))["points"]
        total = (m + 1) * vcycle  # m inner + 1 solution-update cycle
        total += m * fine_pts * policy.matrix.bytes
        total += fine_pts * Precision.DOUBLE.bytes  # outer residual
        return total

    def vcycle_halo_exchanges(self) -> int:
        """Halo-exchange *rounds* in one V-cycle, per GCD: one per
        smoother sweep that does not start from the zero guess
        (:meth:`_level_sweeps`) and one per restriction."""
        rounds = self.nlevels - 1  # the restrictions' residual exchanges
        for lvl in range(self.nlevels):
            sweeps, from_zero = self._level_sweeps(lvl)
            rounds += sweeps - from_zero
        return rounds

    def cycle_halo_exchanges(self) -> int:
        """Halo-exchange *rounds* in one restart cycle, per GCD.

        ``(m + 1)`` V-cycles (:meth:`vcycle_halo_exchanges`), one round
        per inner SpMV, and the outer fp64 residual's round.  A round
        is one post-to-all-neighbors/wait-all window regardless of how
        many columns ride it — the unit the panel-native pipeline
        coalesces.
        """
        m = self.restart
        return (m + 1) * self.vcycle_halo_exchanges() + m + 1

    def cycle_halo_messages(self, panel: int = 1) -> float:
        """Modeled network *messages* of one restart cycle, per GCD.

        Each exchange round posts one message per neighbor (26 for an
        interior rank of a 3-d decomposition).  The count is
        **panel-independent**: the wide exchange ships all ``panel``
        columns of a round in the same per-neighbor message, so where
        bytes scale ``×panel`` (see :meth:`cycle_traffic_bytes`),
        messages do not — ``cycle_halo_messages(panel=N) / N`` is the
        per-RHS message cost the benchmark records as
        ``halo_messages_per_rhs`` and CI gates.  The looped schedule
        this replaces paid the full count *per column*.
        """
        from repro.perf.network import halo_message_counts

        del panel  # coalesced: one wide message per neighbor per round
        per_round = halo_message_counts(self.level_local_dims(0))["messages"]
        return float(self.cycle_halo_exchanges() * per_round)

    def halo_traffic_split(self, policy) -> dict[str, float]:
        """:meth:`halo_traffic_bytes` split ``overlapped``/``exposed``.

        Wire bytes are classified by whether an overlap schedule
        covers their exchange: smoother-sweep exchanges ride the
        overlapped SymGS when it is on, the restriction's exchange and
        the inner/outer SpMV exchanges ride the §3.2.3 SpMV overlap.
        Bytes with no compute posted behind them are *exposed* — the
        modeled counterpart of the measured ``exposed_seconds``
        counters (the split sums exactly to the ``halo`` total, which
        tests assert).
        """
        from repro.perf.network import halo_message_counts

        symgs_overlapped = self.overlap_symgs and self.smoother == "multicolor"
        overlapped = exposed = 0.0
        for lvl in range(self.nlevels):
            pts = halo_message_counts(self.level_local_dims(lvl))["points"]
            width = policy.mg_level(lvl).bytes
            sweeps, from_zero = self._level_sweeps(lvl)
            sweep_bytes = (sweeps - from_zero) * pts * width
            if symgs_overlapped:
                overlapped += sweep_bytes
            else:
                exposed += sweep_bytes
            if lvl != self.nlevels - 1:
                # The restriction's residual exchange overlaps like an
                # SpMV (interior rows of the fused kernel hide it).
                if self.overlap:
                    overlapped += pts * width
                else:
                    exposed += pts * width
        m = self.restart
        fine_pts = halo_message_counts(self.level_local_dims(0))["points"]
        overlapped *= m + 1
        exposed *= m + 1
        spmv_bytes = m * fine_pts * policy.matrix.bytes
        outer_bytes = fine_pts * Precision.DOUBLE.bytes
        if self.overlap:
            overlapped += spmv_bytes + outer_bytes
        else:
            exposed += spmv_bytes + outer_bytes
        return {"overlapped": overlapped, "exposed": exposed}

    def cycle_symgs_bytes(self, policy, panel: int = 1) -> float:
        """Modeled smoother-sweep HBM bytes of one restart cycle.

        The dominant-motif slice of :meth:`cycle_traffic_bytes`
        (``(m + 1)`` V-cycles' worth of sweeps), reported in the
        benchmark record and gated by ``check_regression.py``.
        """
        return (self.restart + 1) * self.mg_vcycle_byte_breakdown(
            policy, panel=panel
        )["symgs"]

    def cycle_traffic_bytes(
        self, policy, panel: int = 1, transfers=None
    ) -> dict[str, float]:
        """Modeled bytes of one full restart cycle under a policy.

        The per-motif breakdown mirrors :meth:`cycle_profile` but
        consumes a :class:`~repro.fp.policy.PrecisionPolicy` directly:
        the inner SpMV streams at ``policy.matrix``, each V-cycle level
        at its ``mg_levels`` rung, the CGS2 BLAS-2 at
        ``policy.krylov_basis``, the pinned outer pieces at fp64, and
        the ``"halo"`` entry charges every exchange's network bytes at
        the exchanging level's rung width.  Returns motif bytes plus
        ``"total"``.

        Pass a solver's live ``policy`` and ``escalator.transfers`` and
        every ingredient — SpMV, ortho, each smoother level, each
        budget-seeded transfer (:meth:`mg_vcycle_bytes`) — is charged at
        its *current* rung, so modeled traffic tracks run-time
        promotions rather than the static configuration.

        ``panel > 1`` models the batched multi-RHS cycle: every sparse
        kernel's matrix block is charged **once** per application while
        all vector traffic (gathers, outputs, halo wire bytes, the
        per-column CGS2 BLAS-2, the outer updates) scales with the
        panel width.  ``panel=1`` reproduces the single-RHS totals
        exactly; ``total / panel`` is the modeled ``bytes_per_rhs`` the
        benchmark records and CI gates.
        """
        m = self.restart
        n = self.level_nlocal(0)
        km = self.km
        by: dict[str, float] = {}
        vcycle = self.mg_vcycle_bytes(policy, panel=panel, transfers=transfers)
        by["mg"] = (m + 1) * vcycle  # m inner + 1 solution-update cycle
        by["spmv"] = m * km.spmv(n, policy.matrix, fmt=self.fmt, panel=panel).nbytes
        # Halo exchanges ship each column's ghosts (vector traffic —
        # the wire sees no matrix bytes, so no *bytes* amortize).  The
        # wide exchange does amortize the per-message cost: the round
        # count is panel-independent (:meth:`cycle_halo_messages`).
        by["halo"] = self.halo_traffic_bytes(policy) * panel
        # Each column orthogonalizes against its own basis.
        by["ortho"] = sum(
            km.ortho_cgs2_step(n, k, policy.krylov_basis).nbytes
            for k in range(1, m + 1)
        ) * panel
        # Outer IR overhead, pinned to fp64 by the benchmark.  With
        # the fused-motif pipeline the residual subtraction and its
        # norm ride the SpMV's matrix pass (spmv_dot) — charged once —
        # instead of a separate 3-vector waxpby plus a 2-vector dot.
        if self.fusion:
            residual_bytes = km.spmv_dot(
                n, Precision.DOUBLE, fmt=self.fmt, panel=panel
            ).nbytes
        else:
            residual_bytes = (
                km.spmv(n, Precision.DOUBLE, fmt=self.fmt, panel=panel).nbytes
                + km.waxpby(n, Precision.DOUBLE).nbytes * panel
                + km.dot(n, Precision.DOUBLE).nbytes * panel
            )
        by["outer"] = (
            residual_bytes
            + km.gemv_qt(n, m, policy.krylov_basis).nbytes * panel
            + km.mixed_waxpby_device(n).nbytes * panel
        )
        by["total"] = sum(by.values())
        return by

    def _ortho_time(
        self, k: int, prec: Precision, nranks: int, nodes: float
    ) -> tuple[float, float]:
        """Orthogonalization step time: (kernel seconds, all-reduce seconds).

        The latency structure is the §2 argument for CGS2: its two
        projections *batch* the inner products into k-length reductions
        (2 all-reduces + a norm per step), whereas MGS performs k
        sequential scalar all-reduces — latency-catastrophic at scale.
        Plain CGS does one batched reduction but loses orthogonality.
        """
        n = self.level_nlocal(0)
        cost = self.km.ortho_cgs2_step(n, k, prec)
        t_kernel = self.machine.kernel_time(
            cost.nbytes, cost.flops, prec, launches=cost.launches
        ) * imbalance_factor(self.machine, nodes)
        if self.ortho_method == "cgs2":
            # Two batched reductions (k doubles) plus the norm.
            t_ar = 2 * allreduce_time(self.machine, 8.0 * k, nranks)
            t_ar += allreduce_time(self.machine, 8.0, nranks)
        elif self.ortho_method == "cgs":
            # One projection pass: half the BLAS-2 traffic, one batched
            # reduction + norm.
            t_kernel *= 0.5
            t_ar = allreduce_time(self.machine, 8.0 * k, nranks)
            t_ar += allreduce_time(self.machine, 8.0, nranks)
        else:  # mgs
            # k sequential scalar reductions + norm; same single-pass
            # projection traffic as CGS but unbatchable latency.
            t_kernel *= 0.5
            t_ar = (k + 1) * allreduce_time(self.machine, 8.0, nranks)
        return t_kernel, t_ar

    # ------------------------------------------------------------------
    # Cycle assembly
    # ------------------------------------------------------------------
    def cycle_profile(self, mode: str, nranks: int) -> IterationProfile:
        """One full restart cycle (m inner steps + outer overhead)."""
        if mode not in MODE_PRECISION:
            raise ValueError(f"unknown mode {mode!r}")
        prec = MODE_PRECISION[mode]
        nodes = max(nranks / self.machine.gcds_per_node, 1.0)
        m = self.restart
        machine = self.machine
        dims = self.level_dims_for_flops()

        secs: dict[str, float] = {k: 0.0 for k in
                                  ("gs", "restrict", "prolong", "spmv", "ortho",
                                   "waxpby", "dot", "host")}
        flops: dict[str, int] = {k: 0 for k in
                                 ("gs", "restrict", "prolong", "spmv", "ortho",
                                  "waxpby", "dot")}
        comm = 0.0

        mg = self.mg_vcycle_times(prec, nranks, nodes)
        t_spmv_inner = self._spmv_time(0, prec, nranks, nodes)

        for k in range(1, m + 1):
            secs["gs"] += mg["gs"]
            secs["restrict"] += mg["restrict"]
            secs["prolong"] += mg["prolong"]
            secs["spmv"] += t_spmv_inner
            t_ok, t_ar = self._ortho_time(k, prec, nranks, nodes)
            secs["ortho"] += t_ok + t_ar
            comm += t_ar
            step_flops = flops_gmres_iteration(dims, self.mg_config, k)
            for mot, f in step_flops.items():
                flops[mot] += f

        # ---- per-cycle overhead (outer IR step), always partly fp64 ----
        n = self.level_nlocal(0)
        # Residual: double SpMV + subtraction + norm.
        secs["spmv"] += self._spmv_time(0, Precision.DOUBLE, nranks, nodes)
        wax64 = self.km.waxpby(n, Precision.DOUBLE)
        secs["waxpby"] += machine.kernel_time(wax64.nbytes, wax64.flops, "fp64")
        dot64 = self.km.dot(n, Precision.DOUBLE)
        secs["dot"] += (
            machine.kernel_time(dot64.nbytes, dot64.flops, "fp64")
            + allreduce_time(machine, 8.0, nranks)
        )
        comm += allreduce_time(machine, 8.0, nranks)
        # Solution update: GEMV (basis precision) + V-cycle + mixed add.
        gemv = self.km.gemv_qt(n, m, prec)
        secs["ortho"] += machine.kernel_time(gemv.nbytes, gemv.flops, prec)
        for mot, t in self.mg_vcycle_times(prec, nranks, nodes).items():
            secs[mot] += t
        if not self.host_mixed_ops or mode == "double":
            mixed = self.km.mixed_waxpby_device(n)
            secs["waxpby"] += machine.kernel_time(mixed.nbytes, mixed.flops, "fp64")
        else:
            # Reference mxp: mixed-precision ops staged through the host
            # (§3.1 issue 6): vector D2H+H2D round trips over PCIe.
            nbytes = self.reference_host_vectors_per_cycle * n * (8 + 4)
            secs["host"] += nbytes / machine.pcie_bw
        ov_flops = flops_gmres_cycle_overhead(dims, self.mg_config, m)
        for mot, f in ov_flops.items():
            flops[mot] += f

        return IterationProfile(
            seconds_by_motif=secs,
            flops_by_motif=flops,
            comm_seconds=comm,
            inner_iterations=m,
        )

    # ------------------------------------------------------------------
    # Figure-level outputs
    # ------------------------------------------------------------------
    def gflops_per_gcd(self, mode: str, nranks: int) -> float:
        """Penalized per-GCD rating (Fig. 4's y-axis)."""
        profile = self.cycle_profile(mode, nranks)
        penalty = self.penalty if mode != "double" else 1.0
        return profile.gflops(penalty)

    def half_precision_projection(self, nranks: int) -> dict[str, float]:
        """§5 future-work projection: fp16 blue steps vs double.

        Returns the per-motif and total speedups of a hypothetical
        fp16 GMRES-IR, using the same (optimistic) penalty — the paper
        expects "an even higher speedup" if fp16 can be used
        strategically without a convergence collapse.
        """
        half = self.cycle_profile("mxp-half", nranks)
        dbl = self.cycle_profile("double", nranks)
        out: dict[str, float] = {}
        for mot in ("gs", "ortho", "spmv", "restrict"):
            t_h = half.seconds_by_motif.get(mot, 0.0)
            t_d = dbl.seconds_by_motif.get(mot, 0.0)
            if t_h > 0 and t_d > 0:
                out[mot] = (t_d / t_h) * self.penalty
        out["total"] = half.gflops(self.penalty) / dbl.gflops(1.0)
        return out

    def weak_scaling_series(
        self, node_counts: list[int], mode: str = "mxp"
    ) -> list[dict]:
        """Fig. 4 rows: per-GCD rating and efficiency vs the first entry."""
        rows = []
        base = None
        for nodes in node_counts:
            nranks = nodes * self.machine.gcds_per_node
            g = self.gflops_per_gcd(mode, nranks)
            if base is None:
                base = g
            rows.append(
                {
                    "nodes": nodes,
                    "gcds": nranks,
                    "gflops_per_gcd": g,
                    "total_pflops": g * nranks / 1e6,
                    "efficiency": g / base,
                }
            )
        return rows

    def motif_speedups(self, nranks: int) -> dict[str, float]:
        """Fig. 5 / Fig. 6 bars: penalized per-motif mxp/double ratios."""
        mxp = self.cycle_profile("mxp", nranks)
        dbl = self.cycle_profile("double", nranks)
        out: dict[str, float] = {}
        for mot in ("gs", "ortho", "spmv", "restrict"):
            t_m = mxp.seconds_by_motif.get(mot, 0.0)
            t_d = dbl.seconds_by_motif.get(mot, 0.0)
            if t_m > 0 and t_d > 0:
                # Same flop model both modes => GFLOP/s ratio = time ratio.
                out[mot] = (t_d / t_m) * self.penalty
        out["total"] = (
            mxp.gflops(self.penalty) / dbl.gflops(1.0) if dbl.total_seconds else 0.0
        )
        return out

    def time_breakdown(self, mode: str, nranks: int) -> dict[str, float]:
        """Fig. 7 bars: fraction of cycle time in the four main motifs."""
        profile = self.cycle_profile(mode, nranks)
        tot = profile.total_seconds
        return {
            mot: profile.seconds_by_motif.get(mot, 0.0) / tot
            for mot in ("gs", "ortho", "spmv", "restrict")
        }

    def speedup_overall(self, nranks: int) -> float:
        """Headline penalized speedup at a scale."""
        return self.motif_speedups(nranks)["total"]

    # ------------------------------------------------------------------
    # HPCG cross-benchmark model (§4.1's 10.4 PF comparison)
    # ------------------------------------------------------------------
    def hpcg_iteration_profile(self, nranks: int) -> IterationProfile:
        """One PCG iteration: SpMV + symmetric-GS V-cycle + 3 dots.

        Build the model with ``sweep="symmetric"`` for a faithful HPCG
        configuration; double precision throughout, as HPCG requires.
        """
        from repro.core.flops import flops_pcg_iteration

        prec = Precision.DOUBLE
        nodes = max(nranks / self.machine.gcds_per_node, 1.0)
        n = self.level_nlocal(0)
        secs: dict[str, float] = {}
        mg = self.mg_vcycle_times(prec, nranks, nodes)
        secs.update(mg)
        secs["spmv"] = self._spmv_time(0, prec, nranks, nodes)
        dot = self.km.dot(n, prec)
        t_dot = self.machine.kernel_time(dot.nbytes, dot.flops, prec)
        secs["dot"] = 3 * (t_dot + allreduce_time(self.machine, 8.0, nranks))
        wax = self.km.waxpby(n, prec)
        secs["waxpby"] = 3 * self.machine.kernel_time(wax.nbytes, wax.flops, prec)
        flops = flops_pcg_iteration(self.level_dims_for_flops(), self.mg_config)
        return IterationProfile(
            seconds_by_motif=secs,
            flops_by_motif=dict(flops),
            comm_seconds=3 * allreduce_time(self.machine, 8.0, nranks),
            inner_iterations=1,
        )

    def hpcg_gflops_per_gcd(self, nranks: int) -> float:
        """Modeled HPCG rating per GCD (double precision, no penalty)."""
        return self.hpcg_iteration_profile(nranks).gflops(1.0)


def frontier_full_system_nodes() -> int:
    """The paper's full-system run size."""
    return 9408


def paper_node_counts() -> list[int]:
    """Node counts similar to the paper's Fig. 4 sweep."""
    return [1, 2, 8, 64, 128, 512, 1024, 4096, 9408]
