"""Deterministic named random streams.

Every stochastic component draws from its own named stream, derived from a
single root seed, so that adding randomness to one component never perturbs
another ("stream independence") and every run is reproducible.
"""

from __future__ import annotations

import hashlib
import random


def _derive_seed(root: int, name: str) -> int:
    digest = hashlib.sha256(f"{root}:{name}".encode()).digest()
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
