"""Correctness gate, applied to the first output of every call after timing.

``check`` returns why one call's output is wrong, or None.  It checks the
exit code, that every JSON report round-trips byte-identically through
``report_from_json`` and ``report_to_json``, and the invariants each
subcommand's output must satisfy.  Outputs of the default seed are also
compared with recorded digests (``digests.json``), which pins the bytes.
"""

from __future__ import annotations

import hashlib
import json

from kronseq.cli import report_from_json, report_to_json

from corpus import Call


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()


def _round_trip(report_json):
    if report_to_json(report_from_json(report_json)) != report_json:
        raise ValueError("report does not round-trip")


def _kind(report):
    return report["classification"]["kind"]


def _batch(call, rc, out):
    lines = out.splitlines()
    if rc != 0 or len(lines) != len(call.blocks):
        raise ValueError(f"exit {rc}, {len(lines)} records for {len(call.blocks)} blocks")
    kinds = {}
    for lineno, (line, block) in enumerate(zip(lines, call.blocks), start=1):
        rec = json.loads(line)
        if "error" in rec:
            raise ValueError(f"error record: {rec['error']}")
        if (rec["line"], rec["input"], rec["report"]["block"]) != (
                lineno, ",".join(map(str, block)), list(block)) or _dumps(rec) != line:
            raise ValueError(f"record {lineno} does not match its input")
        _round_trip(_dumps(rec["report"]))
        kinds[block] = _kind(rec["report"])
    return kinds


def _analyze(call, rc, out):
    text = out.removesuffix("\n")
    _round_trip(text)
    report = json.loads(text)
    kind = _kind(report)
    if rc != (3 if kind == "aperiodic" else 0) or report["block"] != list(call.blocks[0]):
        raise ValueError(f"exit {rc} for {kind} report of {report['block']}")
    return {call.blocks[0]: kind}


def _verify(call, rc, out):
    d = json.loads(out)
    window = int(call.argv[call.argv.index("--window") + 1])
    aperiodic = call.kind == "aperiodic"
    if rc != 0 or d["agreement"] is not True or d["window"] != window:
        raise ValueError(f"exit {rc}, agreement {d['agreement']}, window {d['window']}")
    if aperiodic != (d["empirical_period"] is None) or aperiodic != bool(d["falsified"]):
        raise ValueError(f"oracle report does not fit a {call.kind} block")
    return {call.blocks[0]: call.kind}


def _cascade(call, rc, out):
    d = json.loads(out)
    depth = int(call.argv[call.argv.index("--depth") + 1])
    steps = d["cascade"]
    if rc != 0 or d["block"] != list(call.blocks[0]) or len(steps) != depth:
        raise ValueError(f"exit {rc}, {len(steps)} steps for depth {depth}")
    for j, (a, b) in enumerate(zip(steps, steps[1:] + [None]), start=1):
        if a["j"] != j or a["falsified_period_multiple"] != (1 << (a["r"] + 1)) * d["L"]:
            raise ValueError(f"step {j} is inconsistent")
        if b and not (b["k"] > a["k"] and b["r"] > a["r"]):
            raise ValueError(f"cascade not strictly increasing at step {j}")
    return {call.blocks[0]: "aperiodic"}


_CHECKS = {"batch": _batch, "analyze": _analyze, "verify": _verify, "cascade": _cascade}


def check(call: Call, rc, out: str, expected_digest: str | None = None):
    """(reason the output is wrong or None, {block: verdict kind})."""
    try:
        kinds = _CHECKS[call.argv[0]](call, rc, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        # json.JSONDecodeError is a ValueError; a malformed report raises
        # KeyError or TypeError in report_from_json.
        return f"{type(exc).__name__}: {exc}", {}
    if expected_digest is not None and digest(out) != expected_digest:
        return "output differs from the recorded digest", kinds
    return None, kinds
