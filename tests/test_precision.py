"""Unit tests for the precision framework (repro.fp)."""

import numpy as np
import pytest

from repro.fp import (
    DOUBLE_POLICY,
    MIXED_DS_POLICY,
    Precision,
    PrecisionPolicy,
    as_dtype,
    cast,
    machine_eps,
)


class TestPrecision:
    def test_bytes(self):
        assert Precision.HALF.bytes == 2
        assert Precision.SINGLE.bytes == 4
        assert Precision.DOUBLE.bytes == 8

    def test_bits(self):
        assert Precision.SINGLE.bits == 32
        assert Precision.DOUBLE.bits == 64

    def test_dtype(self):
        assert Precision.SINGLE.dtype == np.float32
        assert Precision.DOUBLE.dtype == np.float64

    def test_eps_values(self):
        assert Precision.DOUBLE.eps == pytest.approx(2.22e-16, rel=1e-2)
        assert Precision.SINGLE.eps == pytest.approx(1.19e-7, rel=1e-2)

    def test_eps_ordering(self):
        assert Precision.HALF.eps > Precision.SINGLE.eps > Precision.DOUBLE.eps

    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("fp32", Precision.SINGLE),
            ("single", Precision.SINGLE),
            ("float32", Precision.SINGLE),
            ("FP64", Precision.DOUBLE),
            ("double", Precision.DOUBLE),
            ("half", Precision.HALF),
            (np.float32, Precision.SINGLE),
            (np.dtype("float64"), Precision.DOUBLE),
            (Precision.HALF, Precision.HALF),
        ],
    )
    def test_from_any(self, spec, expected):
        assert Precision.from_any(spec) is expected

    def test_from_any_rejects_unknown_string(self):
        with pytest.raises(ValueError):
            Precision.from_any("quad")

    def test_from_any_error_lists_valid_names(self):
        """Unknown specs like "bf16" get a helpful error naming every
        accepted spelling, not a bare KeyError."""
        with pytest.raises(ValueError) as exc:
            Precision.from_any("bf16")
        msg = str(exc.value)
        assert "bf16" in msg
        for name in ("fp16", "fp32", "fp64", "half", "single", "double"):
            assert name in msg

    def test_from_any_rejects_int_dtype(self):
        with pytest.raises(ValueError, match="fp64"):
            Precision.from_any(np.int32)

    def test_from_any_rejects_non_dtype_object(self):
        with pytest.raises(ValueError, match="fp16"):
            Precision.from_any(object())

    def test_short_name(self):
        assert Precision.SINGLE.short_name == "fp32"
        assert str(Precision.DOUBLE) == "fp64"

    def test_as_dtype_and_eps_helpers(self):
        assert as_dtype("fp32") == np.float32
        assert machine_eps("fp64") == np.finfo(np.float64).eps

    def test_cast_changes_dtype(self):
        x = np.ones(4, dtype=np.float64)
        y = cast(x, "fp32")
        assert y.dtype == np.float32

    def test_cast_noop_returns_same_object(self):
        x = np.ones(4, dtype=np.float32)
        assert cast(x, Precision.SINGLE) is x


class TestPrecisionPolicy:
    def test_double_policy_is_uniform(self):
        assert DOUBLE_POLICY.is_uniform_double
        assert DOUBLE_POLICY.low is Precision.DOUBLE

    def test_mixed_policy_fields(self):
        p = MIXED_DS_POLICY
        assert not p.is_uniform_double
        assert p.matrix is Precision.SINGLE
        assert p.preconditioner is Precision.SINGLE
        assert p.krylov_basis is Precision.SINGLE
        assert p.orthogonalization is Precision.SINGLE
        # The benchmark mandates double outer updates.
        assert p.residual_update is Precision.DOUBLE
        assert p.solution_update is Precision.DOUBLE

    def test_low_is_lowest(self):
        assert MIXED_DS_POLICY.low is Precision.SINGLE
        assert DOUBLE_POLICY.low is Precision.DOUBLE

    def test_residual_update_must_be_double(self):
        with pytest.raises(ValueError):
            PrecisionPolicy(residual_update=Precision.SINGLE)

    def test_solution_update_must_be_double(self):
        with pytest.raises(ValueError):
            PrecisionPolicy(solution_update=Precision.SINGLE)

    def test_with_low_preserves_outer(self):
        p = DOUBLE_POLICY.with_low("fp32")
        assert p.residual_update is Precision.DOUBLE
        assert p.matrix is Precision.SINGLE

    def test_describe(self):
        assert "fp64" in DOUBLE_POLICY.describe()
        assert "fp32" in MIXED_DS_POLICY.describe()

    def test_policy_is_frozen(self):
        with pytest.raises(AttributeError):
            DOUBLE_POLICY.matrix = Precision.SINGLE

    def test_preconditioner_is_fine_level_of_schedule(self):
        assert DOUBLE_POLICY.mg_levels == (Precision.DOUBLE,)
        assert MIXED_DS_POLICY.mg_levels == (Precision.SINGLE,)
        assert MIXED_DS_POLICY.preconditioner is MIXED_DS_POLICY.mg_levels[0]

    def test_with_mg_schedule(self):
        p = DOUBLE_POLICY.with_mg_schedule("fp32:fp64")
        assert p.mg_levels == (Precision.SINGLE, Precision.DOUBLE)
        assert p.matrix is Precision.DOUBLE  # only the schedule changed
