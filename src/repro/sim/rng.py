"""Deterministic named random streams.

Every stochastic component draws from its own named stream, derived from a
single root seed, so that adding randomness to one component never perturbs
another ("stream independence") and every run is reproducible.
"""

from __future__ import annotations

import random

# SHA-256 from the interpreter's builtin module, as ``random`` takes its
# SHA-512: ``hashlib`` maps OpenSSL (~3.6 MB of every run's peak RSS).
try:
    from _sha2 import sha256    # 3.12
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:     # pragma: no cover - a build without them
        from hashlib import sha256


def _derive_seed(root: int, name: str) -> int:
    digest = sha256(f"{root}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Hands out :class:`random.Random` streams keyed by name."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = root_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(_derive_seed(self.root_seed, name))
            self._streams[name] = rng
        return rng
