"""Solver options: the one way to pick a spectral backend and precision.

:class:`EigenSolverOptions` is the frozen, hashable configuration that the
backends (:mod:`repro.solvers.backends`), every cache tier and the
persistent store key on.  It holds a backend id and a dtype, nothing else:
tolerances, iteration caps and seeds are constants of the backend layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.solvers.backends import DTYPES, available_backends

__all__ = ["EigenSolverOptions"]

_METHODS = frozenset({"auto", *available_backends()})


@dataclass(frozen=True)
class EigenSolverOptions:
    """Options controlling eigenvalue computation.

    Attributes
    ----------
    method:
        ``"auto"`` (dense / sparse / amg by size) or a backend id:
        ``"dense"``, ``"sparse"``, ``"lobpcg"``, ``"amg"``.
    dtype:
        Arithmetic precision: ``"float64"`` (default) or ``"float32"``
        (roughly twice the matvec throughput, ~1e-6 accuracy).  Results are
        always returned as float64 arrays; caches and the persistent store
        key on this field, so mixed-precision spectra coexist.
    """

    method: str = "auto"
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(
                f"method must be one of {sorted(_METHODS)}, got {self.method!r}"
            )
        if self.dtype not in DTYPES:
            raise ValueError(
                f"dtype must be one of {sorted(DTYPES)}, got {self.dtype!r}"
            )
