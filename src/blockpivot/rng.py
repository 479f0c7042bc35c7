"""Deterministic, portable random number generation.

The generator is xoshiro256++ with its state seeded from a 64-bit
integer via four successive splitmix64 outputs.  Both the algorithm and
the draw discipline are normative so that fixtures are reproducible
across implementations:

* raw draws are the 64-bit xoshiro256++ outputs in sequence;
* a uniform double in [lo, hi) is formed from a raw draw ``r`` as
  ``u = (r >> 11) * 2**-53`` followed by ``lo + (u * (hi - lo))``;
* integer draws take a raw draw modulo the bound;
* matrices are filled row-major, and each complex entry consumes two
  consecutive draws: real part first, then imaginary part.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "splitmix64_stream",
    "derive_seed",
    "Xoshiro256pp",
]

_MASK64 = (1 << 64) - 1
_SCALE53 = 2.0**-53


def _splitmix64_step(state: int) -> tuple[int, int]:
    """One splitmix64 output and the advanced state."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return z, state


def splitmix64_stream(seed: int, count: int) -> list[int]:
    """The first ``count`` splitmix64 outputs for the given seed."""
    _check_seed(seed)
    if count < 0:
        raise InvalidInputError(f"count must be nonnegative, got {count}")
    out = []
    state = int(seed)
    for _ in range(count):
        z, state = _splitmix64_step(state)
        out.append(z)
    return out


def derive_seed(master: int, index: int) -> int:
    """Per-trial seed: element ``index`` of the splitmix64 stream of ``master``."""
    if index < 0:
        raise InvalidInputError(f"index must be nonnegative, got {index}")
    return splitmix64_stream(master, index + 1)[index]


def _check_seed(seed: int) -> None:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise InvalidInputError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= int(seed) <= _MASK64:
        raise InvalidInputError("seed must fit in an unsigned 64-bit integer")


class Xoshiro256pp:
    """xoshiro256++ stream seeded via splitmix64 state expansion."""

    def __init__(self, seed: int):
        words = splitmix64_stream(seed, 4)
        if all(w == 0 for w in words):
            words[0] = 1  # the all-zero state is the one fixed point
        self._state = tuple(words)

    @property
    def state(self) -> tuple[int, int, int, int]:
        return self._state

    def _draws(self, count: int) -> list[int]:
        """The next ``count`` raw draws; the one xoshiro256++ step."""
        s0, s1, s2, s3 = self._state
        out = []
        for _ in range(count):
            tmp = (s0 + s3) & _MASK64
            out.append(((((tmp << 23) & _MASK64) | (tmp >> 41)) + s0) & _MASK64)
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) & _MASK64) | (s3 >> 19)
        self._state = (s0, s1, s2, s3)
        return out

    def next_uint64(self) -> int:
        return self._draws(1)[0]

    def randint(self, bound: int) -> int:
        """A draw in {0, ..., bound-1}: raw draw modulo the bound."""
        if bound < 1:
            raise InvalidInputError(f"bound must be positive, got {bound}")
        return self.next_uint64() % bound

    def uniform(self, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """``count`` uniform doubles in [lo, hi)."""
        if count < 0:
            raise InvalidInputError(f"count must be nonnegative, got {count}")
        lo, span = float(lo), float(hi) - float(lo)
        return np.array(
            [lo + (float(r >> 11) * _SCALE53) * span for r in self._draws(count)],
            dtype=np.float64,
        )

    def uniform_sym(self, count: int, magnitude: float) -> np.ndarray:
        """Uniform doubles in [-magnitude, magnitude)."""
        return self.uniform(count, -float(magnitude), float(magnitude))
