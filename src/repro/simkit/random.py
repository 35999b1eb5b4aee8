"""Named, seeded random streams.

Every stochastic component in the reproduction draws from its own named
stream derived from a single experiment seed.  This keeps runs reproducible
and — more importantly — keeps components *independent*: adding a draw in the
failure injector does not perturb the task-runtime sequence.
"""

from __future__ import annotations

import zlib
from functools import partial
from typing import Callable, Dict, Iterator, Tuple

import numpy as np

#: One past the largest value ``next_uint32`` returns.
_UINT32 = 1 << 32


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a deterministic 63-bit child seed from a root seed and a name."""
    digest = zlib.crc32(name.encode("utf-8"))
    return (root_seed * 1_000_003 + digest) & 0x7FFF_FFFF_FFFF_FFFF


class RngRegistry:
    """A factory of independent, named ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0):
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self._seed, name))
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RngRegistry":
        """A child registry whose streams are independent of this one's."""
        return RngRegistry(derive_seed(self._seed, "spawn:" + name))

    def names(self) -> Iterator[str]:
        return iter(sorted(self._streams))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self._seed}, streams={len(self._streams)})"


def scalar_draws(
    rng: np.random.Generator,
) -> Tuple[Callable[[], float], Callable[[int], int]]:
    """``(double, below)``: scalar draws made on ``rng``'s own bit generator
    through numpy's public ``BitGenerator.ctypes`` interface, without the
    Generator's per-call argument handling.

    ``double()`` is ``rng.random()``: the same ``next_double`` call.
    ``below(n)`` is ``int(rng.integers(0, n))`` for ``1 <= n <= 2**32``:
    numpy's 32-bit Lemire rejection on the same ``next_uint32``, which
    PCG64 serves from half of a 64-bit output while caching the other half
    in the bit generator's state.  Both read and advance that one state, so
    draws through them and through ``rng`` may interleave in any order and
    stay aligned.  ``below(1)`` consumes nothing, as numpy does; an ``n``
    below 1, or above ``2**32`` (numpy's 64-bit path), is refused.
    """
    bits = rng.bit_generator
    interface = bits.ctypes
    state, next_uint32 = interface.state, interface.next_uint32
    # A partial, not a def: the call goes straight to ctypes, no frame.
    double = partial(interface.next_double, state)

    def below(n: int) -> int:
        if not 1 < n <= _UINT32:
            if n == 1:
                return 0
            raise ValueError(f"below(n) needs 1 <= n <= 2**32, got {n!r}")
        m = next_uint32(state) * n
        if m & 0xFFFF_FFFF < n:
            # Only a low word below n can fall in the rejection zone, whose
            # bound numpy computes as (2**32 - n) % n.
            threshold = (_UINT32 - n) % n
            while m & 0xFFFF_FFFF < threshold:
                m = next_uint32(state) * n
        return m >> 32

    # The interface holds raw addresses only: keep the bit generator, and
    # with it the state they point into, alive as long as either draw is.
    double.bit_generator = below.bit_generator = bits
    return double, below


__all__ = ["RngRegistry", "derive_seed", "scalar_draws"]
