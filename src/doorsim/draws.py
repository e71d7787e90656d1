"""Deterministic pseudo-random draws keyed by stable string parts.

Every stochastic decision in the simulator (detection emission, confidence
values, spurious detections, network jitter) flows through these helpers.
A draw is a pure function of its key parts, so two runs with the same seed
and dataset produce identical outcomes regardless of call order, thread
interleaving, or process restarts.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Sequence

_SEP = "\x1f"


def unit_draw(*parts: object) -> float:
    """Uniform value in [0, 1) fully determined by the key parts."""
    digest = sha256(_SEP.join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def uniform_draw(lo: float, hi: float, *parts: object) -> float:
    """Uniform value in [lo, hi) keyed by the parts."""
    return lo + (hi - lo) * unit_draw(*parts)


def int_draw(lo: int, hi: int, *parts: object) -> int:
    """Uniform integer in the inclusive range [lo, hi] keyed by the parts."""
    if hi < lo:
        raise ValueError("empty integer range")
    return lo + int(unit_draw(*parts) * (hi - lo + 1))


def choice_draw(options: Sequence[str], *parts: object) -> str:
    """Pick one option, keyed by the parts."""
    if not options:
        raise ValueError("no options to choose from")
    return options[int_draw(0, len(options) - 1, *parts)]
