"""Machine specifications for the performance model.

``FRONTIER_GCD`` models one Graphics Compute Die of an AMD MI250x as
the paper describes it (§4): 64 GB HBM at a vendor-claimed 1.6 TB/s,
treated as an independent GPU, 8 per node, Cray Slingshot network.
``NVIDIA_K80`` models one GK210 die of the Tesla K80 used for the
paper's cross-vendor check (Fig. 6).

Bandwidth-efficiency and congestion parameters are calibration knobs;
their defaults are set (see ``repro.perf.calibrate``) so the model hits
the paper's anchor numbers, and every figure-level quantity is then a
model *output*.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.fp.precision import Precision


@dataclass(frozen=True)
class MachineSpec:
    """One GPU (or GCD) plus its share of the interconnect.

    Attributes
    ----------
    mem_bw:
        Peak device-memory bandwidth, bytes/s.
    mem_eff:
        Achievable fraction of peak for streaming kernels (STREAM-like).
    flops_fp64 / flops_fp32 / flops_fp16:
        Peak vector throughput per precision, FLOP/s.
    launch_latency:
        Kernel-launch overhead, seconds per launch.
    pcie_bw:
        Host-device copy bandwidth, bytes/s (used by halo staging and by
        the reference implementation's host-side mixed-precision ops).
    nic_bw:
        This GPU's share of injection bandwidth into the network.
    net_latency:
        Point-to-point message latency (alpha).
    allreduce_hop_latency:
        Per-tree-level latency of an all-reduce.
    allreduce_saturation_ranks / allreduce_congestion_exp:
        Congestion model: beyond the saturation scale the effective
        all-reduce latency grows as ``(p / saturation)^exp`` — the
        full-machine synchronization cost the paper blames for the
        orthogonalization's reduced speedup at 9408 nodes.
    imbalance_per_log2_nodes:
        Multiplicative compute-time inflation per doubling of the node
        count (OS jitter / load imbalance); precision-proportional, so
        it erodes efficiency without eroding the mxp speedup.
    csr_bw_efficiency:
        Relative effective bandwidth of CSR SpMV vs ELL (warp
        under-utilization of the reference format, §3.2.2).
    gcds_per_node:
        GPUs (GCDs) per node.
    """

    name: str
    mem_bw: float
    mem_eff: float
    flops_fp64: float
    flops_fp32: float
    flops_fp16: float
    launch_latency: float
    pcie_bw: float
    nic_bw: float
    net_latency: float
    allreduce_hop_latency: float
    allreduce_saturation_ranks: float
    allreduce_congestion_exp: float
    imbalance_per_log2_nodes: float
    csr_bw_efficiency: float
    gcds_per_node: int

    @property
    def effective_bw(self) -> float:
        """Achievable streaming bandwidth, bytes/s."""
        return self.mem_bw * self.mem_eff

    def peak_flops(self, prec: "Precision | str") -> float:
        """Peak vector FLOP/s for a precision."""
        p = Precision.from_any(prec)
        return {
            Precision.DOUBLE: self.flops_fp64,
            Precision.SINGLE: self.flops_fp32,
            Precision.HALF: self.flops_fp16,
        }[p]

    def kernel_time(
        self,
        nbytes: float,
        flops: float,
        prec: "Precision | str" = Precision.DOUBLE,
        launches: int = 1,
        bw_efficiency: float = 1.0,
    ) -> float:
        """Roofline kernel time: max(memory, compute) + launch overhead."""
        t_mem = nbytes / (self.effective_bw * bw_efficiency)
        t_cmp = flops / self.peak_flops(prec)
        return max(t_mem, t_cmp) + launches * self.launch_latency

    def with_updates(self, **kwargs) -> "MachineSpec":
        """Functional update (calibration helper)."""
        return replace(self, **kwargs)


#: One GCD of an AMD MI250x on Frontier (§4: 1.6 TB/s HBM, 8 GCDs/node,
#: Slingshot).  ``mem_eff`` is calibrated so the modeled 1-node
#: mixed-precision rating matches the paper's ~294 GFLOP/s per GCD
#: (17.23 PF / 75264 GCDs / 78% efficiency); congestion/imbalance are
#: calibrated to the 78% full-system efficiency.
FRONTIER_GCD = MachineSpec(
    name="frontier-mi250x-gcd",
    mem_bw=1.6e12,
    mem_eff=0.6767,
    flops_fp64=23.9e12,
    flops_fp32=23.9e12,
    flops_fp16=95.7e12,
    launch_latency=4.0e-6,
    pcie_bw=24e9,
    nic_bw=12.5e9,
    net_latency=2.0e-6,
    allreduce_hop_latency=3.5e-6,
    allreduce_saturation_ranks=4096.0,
    allreduce_congestion_exp=1.1,
    imbalance_per_log2_nodes=0.00234,
    csr_bw_efficiency=0.6,
    gcds_per_node=8,
)

#: One GK210 die of an NVIDIA Tesla K80 (Fig. 6's commodity cluster):
#: 240 GB/s GDDR5 per die, modest FP32:FP64 ratio, slower interconnect.
NVIDIA_K80 = MachineSpec(
    name="nvidia-k80-gk210",
    mem_bw=240e9,
    mem_eff=0.72,
    flops_fp64=1.45e12,
    flops_fp32=4.37e12,
    flops_fp16=4.37e12,
    launch_latency=8.0e-6,
    pcie_bw=10e9,
    nic_bw=6e9,
    net_latency=5.0e-6,
    allreduce_hop_latency=8.0e-6,
    allreduce_saturation_ranks=256.0,
    allreduce_congestion_exp=1.0,
    imbalance_per_log2_nodes=0.01,
    csr_bw_efficiency=0.6,
    gcds_per_node=4,
)

#: Registry by name.
MACHINES: dict[str, MachineSpec] = {
    FRONTIER_GCD.name: FRONTIER_GCD,
    NVIDIA_K80.name: NVIDIA_K80,
    "frontier": FRONTIER_GCD,
    "k80": NVIDIA_K80,
}


# ----------------------------------------------------------------------
# Measured machine characterization (STREAM-style probes)
# ----------------------------------------------------------------------
def machine_fingerprint() -> str:
    """A stable identity hash for this execution environment.

    Names the host in a recorded run's ``machine`` block, so it hashes
    only attributes that are *reproducible across runs* — platform,
    core count, NumPy/Python versions — never measured timings, which
    jitter run-to-run.
    """
    import hashlib
    import os
    import platform
    import sys

    import numpy as np

    key = "|".join(
        (
            platform.system(),
            platform.machine(),
            platform.processor() or "",
            str(os.cpu_count() or 0),
            np.__version__,
            f"{sys.version_info.major}.{sys.version_info.minor}",
        )
    )
    return hashlib.blake2b(key.encode(), digest_size=8).hexdigest()


@dataclass(frozen=True)
class MachineProbe:
    """Measured STREAM-style characteristics of this host.

    The *fingerprint* is the stable cache key
    (:func:`machine_fingerprint`); the bandwidth/latency figures are
    the measured payload — recorded into the benchmark JSON's machine
    block and fed to :func:`repro.perf.calibrate.fit_alpha_beta` as a
    memory-bandwidth prior.
    """

    fingerprint: str
    triad_bandwidth: float  # bytes/s, a = 2*b + c
    copy_bandwidth: float  # bytes/s, a[:] = b
    dispatch_latency: float  # seconds per NumPy call
    cpu_count: int
    platform: str

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "triad_bandwidth": self.triad_bandwidth,
            "copy_bandwidth": self.copy_bandwidth,
            "dispatch_latency": self.dispatch_latency,
            "cpu_count": self.cpu_count,
            "platform": self.platform,
        }


def probe_machine(nbytes: int = 1 << 24, repeats: int = 3) -> MachineProbe:
    """Run the STREAM-style probes and return the measured profile.

    Triad (``a = 2*b + c``) and copy (``a[:] = b``) bandwidths bracket
    the streaming behaviour the byte-counting performance model
    assumes; dispatch latency is the per-call overhead floor.  Sizes
    default small enough to stay cheap at import-adjacent call sites
    while still exceeding typical last-level caches.
    """
    import os
    import platform
    import time

    import numpy as np

    n = max(nbytes // 8, 1024)
    a = np.zeros(n)
    b = np.random.default_rng(0).random(n)
    c = np.random.default_rng(1).random(n)

    triad_best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.multiply(b, 2.0, out=a)
        a += c
        triad_best = min(triad_best, time.perf_counter() - t0)
    # NumPy has no fused a = 2b + c, so the triad runs as two passes
    # moving 5 arrays' worth of traffic (b r, a w, a r, c r, a w).
    triad_bw = 5 * n * 8 / triad_best

    copy_best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(a, b)
        copy_best = min(copy_best, time.perf_counter() - t0)
    # Copy moves 2 arrays' worth per pass (b read, a write).
    copy_bw = 2 * n * 8 / copy_best

    small = np.zeros(8)
    calls = 2000
    t0 = time.perf_counter()
    for _ in range(calls):
        np.add(small, 1.0, out=small)
    latency = (time.perf_counter() - t0) / calls

    return MachineProbe(
        fingerprint=machine_fingerprint(),
        triad_bandwidth=triad_bw,
        copy_bandwidth=copy_bw,
        dispatch_latency=latency,
        cpu_count=os.cpu_count() or 1,
        platform=f"{platform.system()}-{platform.machine()}",
    )
