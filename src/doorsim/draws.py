"""Deterministic pseudo-random draws keyed by stable string parts.

Every stochastic decision in the simulator (detection emission, confidence
values, spurious detections, network jitter) flows through these helpers.
A draw is a pure function of its key parts, so two runs with the same seed
and dataset produce identical outcomes regardless of call order, thread
interleaving, or process restarts.

The hashed text is the parts' ``str`` joined by one separator, so a run of
parts that is the same for many draws can be joined once with
:func:`key_prefix` and passed as one part: ``unit_draw(key_prefix(a, b), c)``
hashes the same text as ``unit_draw(a, b, c)``. The per-frame draw sites
(detection, confidence, identity and network jitter) build their constant
parts that way once per run or per frame and call :func:`unit_draw`
directly, with the range arithmetic of :func:`int_draw` and
:func:`choice_draw` written inline.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Sequence

_SEP = "\x1f"


def unit_draw(*parts: object) -> float:
    """Uniform value in [0, 1) fully determined by the key parts."""
    digest = sha256(_SEP.join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def key_prefix(*parts: object) -> str:
    """One or more key parts joined as :func:`unit_draw` joins them: one
    part that stands for all of them."""
    return _SEP.join(map(str, parts))


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
