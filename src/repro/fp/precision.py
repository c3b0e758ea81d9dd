"""IEEE floating-point formats used by the benchmark.

The HPG-MxP benchmark allows any precision format in most solver steps;
the paper restricts itself to double (FP64) and single (FP32), with FP16
named as future work.  The solvers run FP32 and FP64 only (the rungs of
:data:`repro.fp.ladder.LADDER`); :attr:`Precision.HALF` exists so the
performance model can answer "what if half precision" questions
(paper §5, :mod:`repro.perf`).
"""

from __future__ import annotations

import enum

import numpy as np


class Precision(enum.Enum):
    """An IEEE-754 binary floating point format.

    Members carry the numpy dtype name; helper properties expose byte
    width and unit roundoff, which the performance model uses for byte
    traffic and the solvers use for tolerance sanity checks.
    """

    HALF = "float16"
    SINGLE = "float32"
    DOUBLE = "float64"

    # Members are singletons compared by identity, so the identity hash
    # is consistent with ``==`` — and, unlike ``Enum.__hash__`` (a Python
    # function), costs no interpreter frame on every kernel dispatch.
    __hash__ = object.__hash__

    @property
    def dtype(self) -> np.dtype:
        """Numpy dtype for this format."""
        return np.dtype(self.value)

    @property
    def bytes(self) -> int:
        """Storage width in bytes (2, 4 or 8)."""
        return self.dtype.itemsize

    @property
    def bits(self) -> int:
        """Storage width in bits."""
        return 8 * self.bytes

    @property
    def eps(self) -> float:
        """Unit roundoff (machine epsilon) of the format."""
        return float(np.finfo(self.dtype).eps)

    @property
    def short_name(self) -> str:
        """Conventional short name: fp16 / fp32 / fp64."""
        return {"float16": "fp16", "float32": "fp32", "float64": "fp64"}[self.value]

    @classmethod
    def from_any(cls, spec: "Precision | str | np.dtype | type") -> "Precision":
        """Coerce a precision-like spec (enum, name, dtype) to a Precision.

        Accepts ``Precision`` members, strings like ``"fp32"``/``"single"``/
        ``"float32"``, numpy dtypes and python float types.
        """
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            key = spec.lower()
            if key in _ALIASES:
                return _ALIASES[key]
            raise ValueError(
                f"unknown precision spec {spec!r}; valid names: "
                f"{_valid_names()}"
            )
        try:
            dt = np.dtype(spec)
        except TypeError as exc:
            raise ValueError(
                f"unknown precision spec {spec!r}; valid names: "
                f"{_valid_names()}"
            ) from exc
        for member in cls:
            if member.dtype == dt:
                return member
        raise ValueError(
            f"no Precision for dtype {dt}; supported formats: "
            f"{_valid_names()}"
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.short_name


#: Accepted string spellings of each format, canonical short name first.
_ALIASES: dict[str, Precision] = {
    "fp16": Precision.HALF,
    "half": Precision.HALF,
    "float16": Precision.HALF,
    "fp32": Precision.SINGLE,
    "single": Precision.SINGLE,
    "float": Precision.SINGLE,
    "float32": Precision.SINGLE,
    "fp64": Precision.DOUBLE,
    "double": Precision.DOUBLE,
    "float64": Precision.DOUBLE,
}


def _valid_names() -> str:
    """``"fp16 (half, float16), fp32 (...), fp64 (...)"`` for errors."""
    by_member: dict[Precision, list[str]] = {}
    for name, member in _ALIASES.items():
        by_member.setdefault(member, []).append(name)
    return ", ".join(
        f"{member.short_name} ({', '.join(n for n in names if n != member.short_name)})"
        for member, names in by_member.items()
    )


def as_dtype(spec: "Precision | str | np.dtype | type") -> np.dtype:
    """Return the numpy dtype for any precision-like spec."""
    return Precision.from_any(spec).dtype


def machine_eps(spec: "Precision | str | np.dtype | type") -> float:
    """Unit roundoff for any precision-like spec."""
    return Precision.from_any(spec).eps


def cast(array: np.ndarray, prec: "Precision | str") -> np.ndarray:
    """Cast an array to the given precision.

    Returns the input unchanged (no copy) when it already has the target
    dtype — mirroring how a device kernel would skip a conversion pass.
    """
    dtype = Precision.from_any(prec).dtype
    if array.dtype == dtype:
        return array
    return array.astype(dtype)
