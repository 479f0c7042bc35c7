"""The partitioned-matrix value type.

A BlockMatrix is an (n1+n2) x (n1+n2) matrix together with its declared
2x2 block partition.  The partition is metadata carried on the value,
never inferred; re-partitioning creates a new value.
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
        dtype = np.result_type(*(tile.dtype for tile, _ in tiles.values()))
        n = n1 + n2
        data = np.zeros((n, n), dtype=dtype)
        data[:n1, :n1] = tiles["a11"][0]
        data[:n1, n1:] = tiles["a12"][0]
        data[n1:, :n1] = tiles["a21"][0]
        data[n1:, n1:] = tiles["a22"][0]
        return cls(n1, n2, data)

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
