"""Seeded workloads: which CLI calls a run makes, and on which blocks.

Every workload is a fixed list of *slots*: the block length, window and
depth of each slot do not depend on the seed, only the quotients do.  Two
seeds therefore ask the program for about the same work, and a run that
stops part-way through a pass stops at the same slot on every seed.  Where
the cost of a call also depends on how fast the convergents grow, blocks
are drawn until their growth lies in a fixed band (see ``Workload``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from kronseq import Aperiodic, Periodic2L, classify, matrix_at, normalize_period

KINDS = ("periodic-L", "periodic-2L", "aperiodic")


@dataclass(frozen=True)
class Call:
    """One CLI call: its argv, its stdin, the blocks it covers and, where
    the generator computed it, the verdict kind of its single block."""

    argv: tuple[str, ...]
    stdin: str | None
    blocks: tuple[tuple[int, ...], ...]
    kind: str | None = None


@dataclass(frozen=True)
class Workload:
    """A workload at one size.

    ``slots`` holds one entry per call: the block lengths of its blocks, the
    call's parameter (window, depth or None) and the verdict its block must
    have (None, "periodic" or "aperiodic").  ``growth`` bounds the bits
    that t_k gains per term, or is None for no bound.
    """

    qmax: int
    slots: tuple[tuple[tuple[int, ...], int | None, str | None], ...]
    growth: tuple[float, float] | None = None


# Calls of one workload are kept close in cost: a latency percentile over a
# few dozen calls jumps when a wide gap in cost sits near it.
# One batch call: a block of length 1, five of length 2, six each of 3-6.
# There are only 9 blocks of length 1 with quotients <= 9, hence 9 calls.
_BATCH = ((1,) + (2,) * 5 + (3, 4, 5, 6) * 6, None, None)
# Depths alternate low and high, so that a run which stops part-way through
# a pass has made a balanced share of each.
_DEPTHS = (150, 200, 155, 195, 159, 191, 164, 186, 168, 182, 173, 177)

WORKLOADS = {
    "batch-short": {
        "full": Workload(9, (_BATCH,) * 9),
        "tiny": Workload(9, (((1, 2, 3), None, None),) * 2),
    },
    "analyze-long": {
        "full": Workload(50, (((18,), None, None),) * 6, (4.1, 4.4)),
        "tiny": Workload(50, (((4,), None, None), ((5,), None, None))),
    },
    "verify-window": {
        "full": Workload(9, tuple(((l,), 1500, want) for want in ("periodic", "aperiodic")
                                  for l in (6, 8)) * 2, (2.08, 2.22)),
        "tiny": Workload(9, (((3,), 200, "periodic"), ((4,), 200, "aperiodic"))),
    },
    "cascade-deep": {
        "full": Workload(9, tuple(((3 + j % 4,), d, "aperiodic")
                                  for j, d in enumerate(_DEPTHS))),
        "tiny": Workload(9, (((3,), 12, "aperiodic"), ((4,), 16, "aperiodic"))),
    },
}


def kind_of(cf) -> str:
    verdict = classify(cf)
    if isinstance(verdict, Aperiodic):
        return "aperiodic"
    return "periodic-2L" if isinstance(verdict, Periodic2L) else "periodic-L"


def growth_bits(block) -> float:
    """Bits per term of t_k over the first 8 blocks of the expansion."""
    n = 8 * len(block)
    return matrix_at(normalize_period(block), n - 1).t.bit_length() / n


def _draw(rng, l, wl, seen, want=None):
    # Distinct, of minimal period, inside the growth band and, when asked,
    # of the wanted verdict ("periodic" accepts either periodic kind).
    # Returns the block and its verdict kind, or None when not asked.
    while True:
        block = tuple(rng.randint(1, wl.qmax) for _ in range(l))
        if block in seen or normalize_period(block).reduced:
            continue
        if wl.growth and not wl.growth[0] <= growth_bits(block) <= wl.growth[1]:
            continue
        kind = want and kind_of(normalize_period(block))
        if want and (kind == "aperiodic") != (want == "aperiodic"):
            continue
        seen.add(block)
        return block, kind


def _text(block):
    return ",".join(map(str, block))


def make_calls(name: str, seed: int, size: str = "full") -> list[Call]:
    """The calls of one pass over the workload's corpus for this seed."""
    wl = WORKLOADS[name][size]
    rng = random.Random(f"{name}:{seed}")
    seen = set()
    calls = []
    for lengths, param, want in wl.slots:
        drawn = [_draw(rng, l, wl, seen, want) for l in lengths]
        blocks = tuple(b for b, _ in drawn)
        if name == "batch-short":
            payload = "".join(_text(b) + "\n" for b in blocks)
            calls.append(Call(("batch", "-"), payload, blocks))
            continue
        argv = {"analyze-long": ("analyze", _text(blocks[0])),
                "verify-window": ("verify", _text(blocks[0]), "--window", str(param)),
                "cascade-deep": ("cascade", _text(blocks[0]), "--depth", str(param)),
                }[name]
        calls.append(Call(argv + ("--format", "json"), None, blocks, drawn[0][1]))
    return calls


def properties(calls: list[Call], kinds: dict) -> dict:
    """Input properties recorded with every result, so seeds can be compared."""
    blocks = [b for c in calls for b in c.blocks]
    return {
        "blocks": len(blocks),
        "calls": len(calls),
        "l_min": min(map(len, blocks)),
        "l_max": max(map(len, blocks)),
        "max_quotient": max(max(b) for b in blocks),
        "growth_bits_min": round(min(map(growth_bits, blocks)), 3),
        "growth_bits_max": round(max(map(growth_bits, blocks)), 3),
        "kinds": {k: sum(1 for b in blocks if kinds.get(b) == k) for k in KINDS},
    }
