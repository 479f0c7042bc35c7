"""The partitioned-matrix value type.

A BlockMatrix is an (n1+n2) x (n1+n2) matrix together with its declared
2x2 block partition.  The partition is metadata carried on the value,
never inferred; re-partitioning creates a new value.

The private ``_owned`` and ``_owned_blocks`` wrap arrays the package has
just allocated (float64 or complex128, of the partition's shape, held by no
caller) without the public constructors' validation and copy: they check
only finiteness, so an overflow still raises ``InvalidInputError``, and
lock the array in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, PreconditionError
from .linalg import _is_hermitian, adjoint, as_matrix, max_abs
from .tolerances import DEFAULT_TOL, ToleranceConfig


@dataclass(frozen=True)
class BlockMatrix:
    n1: int
    n2: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (isinstance(self.n1, (int, np.integer)) and self.n1 >= 0):
            raise InvalidInputError(f"n1 must be a nonnegative integer, got {self.n1!r}")
        if not (isinstance(self.n2, (int, np.integer)) and self.n2 >= 0):
            raise InvalidInputError(f"n2 must be a nonnegative integer, got {self.n2!r}")
        arr = as_matrix(self.data, "data")
        n = int(self.n1) + int(self.n2)
        if arr.shape != (n, n):
            raise InvalidInputError(
                f"data shape {arr.shape} does not match partition ({self.n1}, {self.n2})"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "n1", int(self.n1))
        object.__setattr__(self, "n2", int(self.n2))
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def field_tag(self) -> str:
        return "complex" if np.iscomplexobj(self.data) else "real"

    @property
    def a11(self) -> np.ndarray:
        return self.data[: self.n1, : self.n1]

    @property
    def a12(self) -> np.ndarray:
        return self.data[: self.n1, self.n1 :]

    @property
    def a21(self) -> np.ndarray:
        return self.data[self.n1 :, : self.n1]

    @property
    def a22(self) -> np.ndarray:
        return self.data[self.n1 :, self.n1 :]

    @classmethod
    def from_blocks(cls, n1: int, n2: int, a11, a12, a21, a22) -> "BlockMatrix":
        """Assemble a BlockMatrix from its four tiles."""
        tiles = {
            "a11": (as_matrix(a11, "a11"), (n1, n1)),
            "a12": (as_matrix(a12, "a12"), (n1, n2)),
            "a21": (as_matrix(a21, "a21"), (n2, n1)),
            "a22": (as_matrix(a22, "a22"), (n2, n2)),
        }
        for name, (tile, shape) in tiles.items():
            if tile.shape != shape:
                raise InvalidInputError(f"{name} has shape {tile.shape}, expected {shape}")
        return cls(n1, n2, _assemble(n1, n2, *(tile for tile, _ in tiles.values())))

    @classmethod
    def _owned(cls, n1: int, n2: int, data: np.ndarray) -> "BlockMatrix":
        """The value around ``data``, a float64 or complex128 array of shape
        (n1+n2, n1+n2) that no caller holds: checked finite, then locked in
        place, with no copy."""
        if not np.isfinite(data).all():
            raise InvalidInputError("data contains non-finite entries")
        data.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "n1", int(n1))
        object.__setattr__(self, "n2", int(n2))
        object.__setattr__(self, "data", data)
        return self

    @classmethod
    def _owned_blocks(cls, n1: int, n2: int, a11, a12, a21, a22) -> "BlockMatrix":
        """``from_blocks`` of float64 or complex128 tiles of the right shapes,
        through ``_owned``."""
        return cls._owned(n1, n2, _assemble(n1, n2, a11, a12, a21, a22))

    def repartition(self, n1: int, n2: int) -> "BlockMatrix":
        """A new value with the same entries and a different partition."""
        return BlockMatrix(n1, n2, self.data)

    def adjoint(self) -> "BlockMatrix":
        return BlockMatrix(self.n1, self.n2, adjoint(self.data))

    def is_hermitian(self, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        return _is_hermitian(self.data, tol)

    def norm_max(self) -> float:
        return max_abs(self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        return (
            self.n1 == other.n1
            and self.n2 == other.n2
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        return hash((self.n1, self.n2, self.data.tobytes()))


def _assemble(n1: int, n2: int, a11, a12, a21, a22) -> np.ndarray:
    """A new (n1+n2)-square array of the four tiles, in their common dtype."""
    n = n1 + n2
    data = np.empty((n, n), dtype=np.result_type(a11, a12, a21, a22))
    data[:n1, :n1] = a11
    data[:n1, n1:] = a12
    data[n1:, :n1] = a21
    data[n1:, n1:] = a22
    return data


def check_hermitian_block_pair(
    a: BlockMatrix, b: BlockMatrix, tol: ToleranceConfig = DEFAULT_TOL
) -> None:
    """Require two Hermitian matrices with the same partition."""
    if (a.n1, a.n2) != (b.n1, b.n2):
        raise InvalidInputError(
            f"partition mismatch: ({a.n1}, {a.n2}) vs ({b.n1}, {b.n2})"
        )
    if not a.is_hermitian(tol) or not b.is_hermitian(tol):
        raise PreconditionError("both matrices must be Hermitian")
