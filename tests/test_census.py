"""The verdict census of tools/census.py: its domain, and its 745-block
slice (lengths <= 4, quotients <= 5) cross-checked and pinned."""

import hashlib
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "census.py"
spec = importlib.util.spec_from_file_location("census", TOOL)
census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(census)

# sha256 of ``kronseq batch FILE --format json`` over the slice
SLICE_DIGEST = "6dc75d71c4c27fb96304c3b03d0bed60a974d0d56143b86c2ffdc388b057caa5"
# and of the same command's text and CSV, with their lengths in bytes
SLICE_RENDERINGS = {
    "text": ("fcdd52bb555e720d8f95e853a4965d3a1eb1f191fbccf6db32ea2d3f143a8792", 291225),
    "csv": ("ba3654498a9f54c9bf676a8bd5f5b4abe559293ad0ef1df0df192aa9f931374d", 26492),
}


def test_census_domain():
    # the minimal blocks of lengths 1-5 with quotients <= 9, lengths
    # ascending, each in itertools.product order
    blocks = list(census.blocks(5, 9))
    assert len(blocks) == 66321
    assert blocks[:10] == [(q,) for q in range(1, 10)] + [(1, 2)]
    assert blocks[-1] == (9, 9, 9, 9, 8)
    assert sorted(blocks, key=len) == blocks


def test_census_slice_is_cross_checked_and_pinned(tmp_path):
    path = tmp_path / "census.txt"
    counts, failures, digest, size = census.census(4, 5, path)
    assert counts == {"periodic-L": 556, "aperiodic": 167, "periodic-2L": 22}
    assert failures == []
    assert (digest, size) == (SLICE_DIGEST, 276752)
    lines = path.read_text().splitlines()
    assert len(lines) == 745 and lines[:3] == ["1", "2", "3"] and lines[-1] == "5,5,5,4"
    for fmt, pinned in SLICE_RENDERINGS.items():
        out = census.batch_output(path, fmt)
        assert (hashlib.sha256(out).hexdigest(), len(out)) == pinned, fmt
