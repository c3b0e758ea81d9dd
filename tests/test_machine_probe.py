"""Machine probes and fingerprints (repro.perf.machine).

The fingerprint names the host in the benchmark JSON's machine block,
so it must be stable across calls within one machine; the STREAM-style
probes feed the same block and the network fit's bandwidth prior.
"""

import json

import pytest

from repro.perf.calibrate import fit_alpha_beta
from repro.perf.machine import machine_fingerprint, probe_machine


class TestFingerprint:
    def test_stable_across_calls(self):
        assert machine_fingerprint() == machine_fingerprint()

    def test_is_short_hex(self):
        fp = machine_fingerprint()
        assert len(fp) == 16
        int(fp, 16)  # raises if not hex


class TestProbe:
    @pytest.fixture(scope="class")
    def probe(self):
        # Small buffers keep the suite fast; the bandwidth figures are
        # then cache-resident, which is fine — the tests check
        # plausibility and plumbing, not STREAM accuracy.
        return probe_machine(nbytes=1 << 18, repeats=2)

    def test_bandwidths_positive(self, probe):
        assert probe.triad_bandwidth > 0
        assert probe.copy_bandwidth > 0
        assert probe.dispatch_latency > 0
        assert probe.cpu_count >= 1

    def test_fingerprint_matches_module(self, probe):
        assert probe.fingerprint == machine_fingerprint()

    def test_to_dict_is_json_serializable(self, probe):
        d = probe.to_dict()
        back = json.loads(json.dumps(d))
        assert back["fingerprint"] == probe.fingerprint
        assert back["copy_bandwidth"] == pytest.approx(probe.copy_bandwidth)


class TestBandwidthPrior:
    def test_single_sample_without_prior_is_degenerate(self):
        fit = fit_alpha_beta([(10.0, 1e6, 0.01)])
        assert fit.alpha == 0.0
        assert fit.beta == pytest.approx(0.01 / 1e6)

    def test_single_sample_with_prior_recovers_latency(self):
        # 10 messages, 1 MB, 10 ms total; at 1 GB/s the bytes cost
        # 1 ms, so the remaining 9 ms are latency: 0.9 ms/message.
        fit = fit_alpha_beta([(10.0, 1e6, 0.01)], bandwidth_prior=1e9)
        assert fit.beta == pytest.approx(1e-9)
        assert fit.alpha == pytest.approx(9e-4)

    def test_prior_never_produces_negative_alpha(self):
        # Measured time below what the prior bandwidth alone implies:
        # alpha clamps to zero rather than going negative.
        fit = fit_alpha_beta([(10.0, 1e6, 1e-5)], bandwidth_prior=1e9)
        assert fit.alpha == 0.0

    def test_multi_sample_fit_ignores_unneeded_prior(self):
        # Two well-separated samples resolve alpha and beta on their
        # own; the prior must not override a non-degenerate fit.
        samples = [
            (10.0, 1e6, 10 * 1e-4 + 1e6 * 1e-9),
            (100.0, 1e6, 100 * 1e-4 + 1e6 * 1e-9),
        ]
        fit = fit_alpha_beta(samples, bandwidth_prior=1e3)
        assert fit.alpha == pytest.approx(1e-4, rel=1e-6)
        assert fit.beta == pytest.approx(1e-9, rel=1e-3)
