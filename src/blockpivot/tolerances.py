"""Tolerance configuration shared by every numeric decision in the package.

Three knobs cover all predicates:

* ``rank_rel_tol`` -- relative singular-value cutoff for rank and kernel
  computations: singular values below ``rank_rel_tol * sigma_max`` count
  as zero.
* ``psd_tol`` -- absolute eigenvalue threshold at the semidefinite
  boundary.  Eigenvalues in ``[-psd_tol, psd_tol]`` count as zero for
  inertia and as nonnegative for ordering tests.
* ``eq_tol`` -- residual threshold for equality of matrices and for
  inclusion certificates, applied relative to ``1 + max|entry|``.

The first two can decide the same question differently.  ``pinv`` (and
so ``gppt``/``jppt``) keeps singular values above ``rank_rel_tol *
sigma_max``, while the rank-path route and ``pinv_monotone`` count
``|eigenvalue| <= psd_tol`` as zero.  For the 1x1 pivots
``A22 = [3e-9] <= B22 = [1]`` the pseudoinverse criteria hold and the
rank path does not, so the monotonicity report is inconsistent.  One
scale-aware tie policy is ROADMAP item 2.
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
