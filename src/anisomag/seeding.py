"""Deterministic seed derivation.

Every random draw in the package flows from a single master seed through
``derive_seed(master, *labels)``: the labels (component names, schedule
indices, counters) are hashed with the seed so distinct components get
independent draws and results never depend on evaluation order or thread
count.
"""

from __future__ import annotations

import hashlib


def derive_seed(master: int, *labels) -> int:
    """64-bit seed derived from a master seed and a label path."""
    h = hashlib.sha256()
    h.update(str(int(master)).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest()[:8], "little")
