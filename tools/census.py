"""Verdict census: every small minimal block classified, cross-checked and
pinned.

The census is every quotient block of length at most 5 with quotients at
most 9 that is its own minimal period, in ``itertools.product`` order,
lengths ascending.  The script writes it to a file, one block per line as
``a,b,c``; analyzes and classifies each block with ``analyze`` and
``classify`` and replays each verdict with ``cross_check`` at its default
window; runs ``kronseq batch FILE --format json`` on the file in a fresh
interpreter; and prints the number of blocks, the count of each verdict
and the SHA-256 and length of that command's standard output.  It exits 1,
naming each such block on stderr, when the oracle disagrees with a
verdict.

    python tools/census.py

The census has 66,321 blocks: 40,268 periodic-L, 2,194 periodic-2L and
23,859 aperiodic verdicts.  The tests pin the slice ``census(4, 5, path)``
of lengths at most 4 and quotients at most 5 (745 blocks).  Standard
library only; the package is imported from the ``src`` directory beside
this one.
"""

import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if __name__ == "__main__":
    sys.path.insert(0, str(SRC))

from kronseq import KronseqError, analyze, classify, cross_check, normalize_period  # noqa: E402
from kronseq.cli import _KIND  # noqa: E402


def blocks(max_len, max_quotient):
    """Every block of length at most max_len with quotients at most
    max_quotient that is its own minimal period, lengths ascending, each
    length in itertools.product order."""
    for l in range(1, max_len + 1):
        for block in itertools.product(range(1, max_quotient + 1), repeat=l):
            if not normalize_period(block).reduced:
                yield block


def batch_output(path, fmt):
    """The standard output of ``kronseq batch path --format fmt``, as
    bytes, from a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "kronseq.cli", "batch", str(path),
                           "--format", fmt], capture_output=True, env=env, check=True)
    return done.stdout


def census(max_len, max_quotient, path):
    """Write the census to path and check it.  Returns the verdict counts
    in first-seen order, the (block, error) of each block the oracle
    rejects, and the batch output's SHA-256 and length in bytes."""
    counts, failures, lines = {}, [], []
    for block in blocks(max_len, max_quotient):
        lines.append(",".join(map(str, block)))
        cf = normalize_period(block)
        analysis = analyze(cf)
        verdict = classify(cf, analysis=analysis)
        kind = _KIND[type(verdict)]
        counts[kind] = counts.get(kind, 0) + 1
        try:
            cross_check(cf, analysis=analysis, verdict=verdict)
        except KronseqError as exc:
            failures.append((block, f"{type(exc).__name__}: {exc}"))
    Path(path).write_text("".join(f"{line}\n" for line in lines))
    out = batch_output(path, "json")
    return counts, failures, hashlib.sha256(out).hexdigest(), len(out)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        counts, failures, digest, size = census(5, 9, os.path.join(tmp, "census.txt"))
    print(f"blocks {sum(counts.values())}")
    for kind in ("periodic-L", "periodic-2L", "aperiodic"):
        print(f"{kind} {counts.get(kind, 0)}")
    print(f"batch-json-sha256 {digest}")
    print(f"batch-json-bytes {size}")
    for block, error in failures:
        sys.stderr.write(f"oracle rejects {block}: {error}\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
