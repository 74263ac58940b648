"""Benchmark of the kronseq CLI, end to end and per layer.

    python3 bench/run.py --workload verify-window --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all

One caller drives ``kronseq.cli.main`` in a closed loop: the next call starts
when the previous one returns.  With ``--trace 0`` the run reports the
end-to-end metrics, its times scaled to a reference machine speed by a
calibration timed next to each measurement (``calib.py``).  With
``--trace 1`` the run makes whole
passes over the corpus, untraced and traced in turn, and reports per-layer
metrics per pass.
Outputs are checked after timing (``gate.py``).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
Each run also writes its full record to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import REFERENCE_S, calibrate, scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DEFAULT_SEED = 0
SETUP_STARTS = 10  # before the timed loop, and as many after it
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import kronseq.cli; "
              "kronseq.cli.build_parser(); print(time.monotonic())")
WARMUP = ("analyze", "1,2", "--format", "json")
WORKLOADS = ("batch-short", "analyze-long", "verify-window", "cascade-deep")
END_TO_END = {"setup_s": "s", "blocks_per_s": "blocks/s", "call_p50_ms": "ms",
              "call_tail_ms": "ms", "peak_rss_mb": "MiB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny corpora for smoke tests")
    return p.parse_args(argv)


def setup_seconds(starts=SETUP_STARTS):
    """Times from starting a fresh interpreter until ``kronseq.cli`` is
    imported and its parser built, raw and scaled by the calibrations
    before and after each start.  The first start only warms caches."""
    raw, times = [], []
    before = calibrate()
    for i in range(starts + 1):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=60)
        seconds = float(done.stdout) - t0
        after = calibrate()
        if i:
            raw.append(seconds)
            times.append(scaled(seconds, before, after))
        before = after
    return raw, times


def invoke(cli, argv, stdin=None):
    """One CLI call: (exit code, seconds, stdout).  A raised exception is
    recorded in place of the exit code and fails the gate."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a traceback is a failed call, not a crash
                rc = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
    finally:
        sys.stdin = saved
    return rc, seconds, out.getvalue()


class Loop:
    """Calls made by one closed loop over a pass of calls, in order.

    With ``calibrated``, a calibration runs before each call and after the
    last one, and ``scaled`` holds each latency at the reference speed.

    ``first`` keeps the first (exit code, stdout) of each call of the pass;
    later repeats are compared with it and only their positions kept when
    they differ, so memory does not grow with the number of calls made.
    """

    def __init__(self, cli, calls, stop, calibrated=False):
        self.latencies = []
        self.calibrations = []
        self.first = [None] * len(calls)
        self.differing = []
        start = time.perf_counter()
        n = 0
        while not stop(n, time.perf_counter() - start):
            if calibrated:
                self.calibrations.append(calibrate())
            i = n % len(calls)
            rc, seconds, out = invoke(cli, calls[i].argv, calls[i].stdin)
            self.latencies.append(seconds)
            if self.first[i] is None:
                self.first[i] = (rc, out)
            elif self.first[i] != (rc, out):
                self.differing.append(n)
            n += 1
        if calibrated:
            self.calibrations.append(calibrate())
        self.wall = time.perf_counter() - start
        c = self.calibrations
        self.scaled = [scaled(s, c[i], c[i + 1]) for i, s in enumerate(self.latencies)] \
            if calibrated else []
        self.blocks = sum(len(calls[j % len(calls)].blocks) for j in range(n))


def tail(latencies):
    """(value, percentile): the highest percentile with at least 10 calls
    beyond it, or the maximum when there are fewer than 11 calls."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed, version):
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "host": platform.node(), "commit": git_commit(), "seed": seed,
            "kronseq": version}


def check_outputs(calls, loops, workload, seed, size):
    """Check the first output of every call; returns (failed calls, reasons,
    verdict kinds, digests of the first outputs)."""
    from gate import check, digest

    digests = [digest(out) for _, out in loops[0].first]
    expected = [None] * len(calls)
    if seed == DEFAULT_SEED:
        recorded = json.loads((BENCH / "digests.json").read_text())
        expected = recorded[workload][size]
    reasons, kinds, bad = {}, {}, set()
    for i, (call, (rc, out), want) in enumerate(zip(calls, loops[0].first, expected)):
        reason, found = check(call, rc, out, want)
        kinds.update(found)
        if reason is None and any(loop.first[i] != loops[0].first[i] for loop in loops):
            reason = "passes gave different outputs"
        if reason:
            reasons[i] = reason
            bad.add(i)
    failed = 0
    for loop in loops:
        differing = set(loop.differing)
        failed += sum(1 for n in range(len(loop.latencies))
                      if n % len(calls) in bad or n in differing)
    for n in (n for loop in loops for n in loop.differing):
        reasons.setdefault(n % len(calls), "a repeated call gave another output")
    return failed, reasons, kinds, digests


def run_one(args):
    sys.path.insert(0, str(SRC))
    import kronseq
    import kronseq.cli as cli
    from corpus import make_calls, properties
    from spans import UNITS, Tracer, layer_metrics, write_spans

    if Path(kronseq.__file__).resolve().parent != SRC / "kronseq":
        sys.exit(f"imported kronseq from {kronseq.__file__}, not from {SRC}")
    setup_raw, setup = setup_seconds() if args.trace == 0 else ([], [])
    calls = make_calls(args.workload, args.seed, args.size)
    invoke(cli, WARMUP)
    if args.trace == 0:
        loop = Loop(cli, calls, lambda n, t: n >= len(calls) and t >= args.seconds,
                    calibrated=True)
        loops = [loop]
        more_raw, more = setup_seconds()
        setup_raw += more_raw
        setup += more
        value, pct = tail(loop.scaled)
        units = END_TO_END
        metrics = {
            "setup_s": statistics.median(setup),
            "blocks_per_s": loop.blocks / sum(loop.scaled),
            "call_p50_ms": 1e3 * statistics.median(loop.scaled),
            "call_tail_ms": 1e3 * value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        raw_tail, _ = tail(loop.latencies)
        extra = {"setup_starts": len(setup), "blocks": loop.blocks, "wall_s": loop.wall,
                 "tail_percentile": pct, "reference_s": REFERENCE_S,
                 "calibration_ms_p50": 1e3 * statistics.median(loop.calibrations),
                 "raw": {"setup_s": statistics.median(setup_raw),
                         "blocks_per_s": loop.blocks / sum(loop.latencies),
                         "call_p50_ms": 1e3 * statistics.median(loop.latencies),
                         "call_tail_ms": 1e3 * raw_tail},
                 "latencies_ms": [round(1e3 * x, 3) for x in loop.latencies],
                 "calibrations_ms": [round(1e3 * x, 3) for x in loop.calibrations]}
    else:
        # Whole passes, untraced and traced in turn so that both see the
        # same machine, as many pairs as fit in the run (at least one).
        tracer = Tracer()
        loops = []
        start = time.perf_counter()
        while not loops or (time.perf_counter() - start) * (len(loops) + 2) / len(loops) \
                <= args.seconds:
            loops.append(Loop(cli, calls, lambda n, t: n == len(calls)))
            with tracer:
                loops.append(Loop(cli, calls, lambda n, t: n == len(calls)))
        passes = len(loops) // 2
        untraced, traced = (sum(loop.wall for loop in loops[i::2]) for i in (0, 1))
        units = UNITS
        metrics = layer_metrics(
            tracer.spans, passes, sum(len(c.blocks) for c in calls), traced, untraced,
            lambda q, count: kronseq.matrix_at(kronseq.PeriodicCF(q), count - 1).t.bit_length())
        extra = {"passes": passes, "spans": len(tracer.spans),
                 "traced_wall_s": traced, "untraced_wall_s": untraced}
    failed, reasons, kinds, digests = check_outputs(calls, loops, args.workload, args.seed,
                                                    args.size)
    attempted = sum(len(loop.latencies) for loop in loops)
    record = {
        "workload": args.workload, "size": args.size, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(args.seed, kronseq.__version__),
        "inputs": properties(calls, kinds), "metrics": metrics, "attempted": attempted,
        "failed": failed, "failed_ratio": failed / attempted, "failures": reasons,
        "output_digests": digests, **extra,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}.{args.size}.trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        write_spans(OUT / f"{stem}.spans.jsonl", tracer.spans)
    report(record)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in units}}))
    return 0


def report(record):
    """Human-readable lines before the JSON line."""
    inputs, m = record["inputs"], record["metrics"]
    print(f"workload {record['workload']} ({record['size']}), trace {record['trace']}: "
          f"{inputs['blocks']} blocks in {inputs['calls']} calls per pass, "
          f"l {inputs['l_min']}-{inputs['l_max']}, max quotient {inputs['max_quotient']}, "
          f"kinds {inputs['kinds']}")
    print("environment " + json.dumps(record["environment"]))
    if record["trace"] == 0:
        raw = record["raw"]
        print(f"times at the reference speed (calibration {REFERENCE_S * 1e3:.0f} ms; "
              f"here median {record['calibration_ms_p50']:.1f} ms); raw times in brackets")
        print(f"setup_s       {m['setup_s']:.4f} s [{raw['setup_s']:.4f}] "
              f"(median of {record['setup_starts']} starts)")
        calls = len(record["latencies_ms"])
        print(f"blocks_per_s  {m['blocks_per_s']:.3f} blocks/s [{raw['blocks_per_s']:.3f}] "
              f"({record['blocks']} blocks, {record['wall_s']:.2f} s of loop)")
        print(f"call_p50_ms   {m['call_p50_ms']:.2f} ms [{raw['call_p50_ms']:.2f}] "
              f"({calls} calls)")
        print(f"call_tail_ms  {m['call_tail_ms']:.2f} ms [{raw['call_tail_ms']:.2f}] "
              f"(p{record['tail_percentile']:.1f} of {calls} calls)")
        print(f"peak_rss_mb   {m['peak_rss_mb']:.1f} MiB")
    else:
        print(f"{record['passes']} passes traced, {record['spans']} spans")
        for name, value in m.items():
            print(f"{name:40s} {value:.6g}")
    print(f"failed_ratio  {record['failed_ratio']:.4g} ratio "
          f"({record['failed']} of {record['attempted']} calls)")
    for i, reason in sorted(record["failures"].items()):
        print(f"  call {i}: {reason}")


def run_all(args):
    """Each workload in its own process, so that its memory is its own."""
    ok = True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        ok = ok and done.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
        print()
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "kronseq" / "cli.py").is_file():
        sys.stderr.write(f"no kronseq sources under {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
