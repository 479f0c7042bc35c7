"""Tolerance configuration shared by every numeric decision in the package.

Three knobs cover all predicates, each with one meaning:

* ``rank_rel_tol`` -- the package's only definition of zero: a singular
  value or eigenvalue v of a matrix counts as zero when
  ``|v| <= rank_rel_tol * max|v|`` over that matrix's values.  ``linalg``
  decides it, for pinv, rank, kernel and range bases, inertia and every
  rank, kernel and singularity test built on them.
* ``psd_tol`` -- absolute slack of the semidefinite order, applied by one
  ``linalg`` function for every order and gap verdict: a difference is PSD
  when its smallest eigenvalue is at least ``-psd_tol``.
* ``eq_tol`` -- residual threshold for equality of matrices and for
  inclusion certificates, applied relative to ``1 + max|entry|``.

The ``psd_tol`` slack is not scaled with the operands, so an ordering
verdict can change when a pair is multiplied by a tiny or huge factor;
a scale-aware slack is ROADMAP item 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class ToleranceConfig:
    rank_rel_tol: float = 1e-10
    psd_tol: float = 1e-8
    eq_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel_tol", "psd_tol", "eq_tol"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise InvalidInputError(f"{name} must be a finite positive number, got {value!r}")

    def scaled_eq_tol(self, *matrices: np.ndarray) -> float:
        """Equality threshold scaled by the largest entry magnitude involved."""
        scale = 0.0
        for m in matrices:
            if m.size:
                scale = max(scale, float(np.max(np.abs(m))))
        return self.eq_tol * (1.0 + scale)


DEFAULT_TOL = ToleranceConfig()
