"""Deterministic named random streams.

Every stochastic choice in the simulation (the phones' start stagger, the
open-loop arrivals, phone identifiers) draws from a stream obtained via
``RngStreams.stream(name)``.  Streams are independent and derived from the
master seed, so a run is reproducible and adding a new consumer does not
perturb existing streams.

A stream is a Mersenne Twister (2.5 KB of state), so streams are named
per purpose, not per object: all phones of a cell draw their branches,
tags and Call-IDs from the one ``"phone-ids"`` stream.  Those values are
fixed-width hex that no simulated number reads, which
``tests/test_clients_manager.py::test_identifiers_never_reach_a_result``
pins by redrawing them from another generator.
"""

import hashlib
import random
from typing import Dict


class RngStreams:
    """A family of independent :class:`random.Random` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng
