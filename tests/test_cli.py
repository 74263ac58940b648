import csv
import hashlib
import io
import itertools
import json
import random
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import kronseq
import kronseq.analysis
import kronseq.cf
import kronseq.cli
import kronseq.oracle
import kronseq.symbols
from kronseq import (Aperiodic, NotCoprime, OracleMismatch, ParseError,
                     PrecisionExhausted, classify, cross_check, mod4_period_length,
                     normalize_period, quad_irrational_of)
from kronseq.cli import (EXIT_APERIODIC, EXIT_MISMATCH, EXIT_OK, EXIT_PARSE,
                         EXIT_USAGE, build_report, main, parse_block,
                         report_from_dict, report_from_json, report_to_csv,
                         report_to_dict, report_to_json, report_to_text)

from conftest import record_lane_chunks


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# block parsing

def test_parse_block_forms():
    assert parse_block("1,2,3") == (1, 2, 3)
    assert parse_block("[1,2,3]") == (1, 2, 3)
    assert parse_block("  [ 7 ]  ") == (7,)
    assert parse_block("10, 2") == (10, 2)


def test_parse_block_errors_carry_position():
    with pytest.raises(ParseError) as ei:
        parse_block("1,x,3")
    assert ei.value.position == 2
    with pytest.raises(ParseError) as ei:
        parse_block("1,\u00b2")  # a digit that int() rejects
    assert ei.value.position == 2
    with pytest.raises(ParseError):
        parse_block("")
    with pytest.raises(ParseError):
        parse_block("[]")
    with pytest.raises(ParseError):
        parse_block("1,,2")
    with pytest.raises(ParseError):
        parse_block("0,2")


@pytest.mark.parametrize("text, message, position", [
    (" [1, x]", "expected a positive integer", 5),
    ("1,,2", "expected a positive integer", 2),
    ("1,2,", "expected a positive integer", 4),
    ("  1 , 0", "expected a positive integer", 6),
    ("1\t,\t-2", "expected a positive integer", 4),
    ("1,\u00b2", "expected a positive integer", 2),
    (",", "expected a positive integer", 0),
    ("[1,2", "expected a positive integer", 0),
    ("\ufeff1,2", "expected a positive integer", 0),  # a BOM is no whitespace
    ("1 2", "expected a positive integer", 0),
    ("[[1]]", "expected a positive integer", 1),
    ("[ ]", "empty block", 1),
], ids=repr)
def test_parse_block_error_positions(text, message, position):
    # the position is worked out only when the error is raised: the start
    # of the offending token, or of its empty chunk
    with pytest.raises(ParseError) as ei:
        parse_block(text)
    assert ei.value.position == position
    if message == "empty block":
        assert str(ei.value) == message
    else:
        assert str(ei.value) == f"{message} at position {position}"


def reference_parse_block(text):
    """Block notation read by index, as a plain reference: the tuple, or
    the message and position of the ParseError."""
    marks = [i for i, c in enumerate(text) if not c.isspace()]
    if not marks:
        return "empty block", 0
    first, end = marks[0], marks[-1] + 1
    if end - first >= 2 and text[first] == "[" and text[end - 1] == "]":
        first, end = first + 1, end - 1
        if text[first:end].isspace() or first == end:
            return "empty block", first
    values, start = [], first
    for stop in [i for i in range(first, end) if text[i] == ","] + [end]:
        token, at = text[start:stop].strip(), start
        while token and text[at].isspace():
            at += 1
        if not token.isdecimal() or int(token) < 1:
            return f"expected a positive integer at position {at}", at
        values.append(int(token))
        start = stop + 1
    return tuple(values)


def test_parse_block_matches_a_plain_reference_on_every_short_string():
    # every string of up to 5 characters over the characters of block
    # notation, a bad token and whitespace
    for n in range(6):
        for chars in itertools.product(" [],10x\t", repeat=n):
            text = "".join(chars)
            try:
                got = parse_block(text)
            except ParseError as exc:
                got = (str(exc), exc.position)
            assert got == reference_parse_block(text), repr(text)


# ---------------------------------------------------------------------------
# expand

def test_expand_text_122(capsys):
    code, out, _ = run(capsys, ["expand", "1,2,2", "--count", "7"])
    assert code == EXIT_OK
    last = out.strip().splitlines()[-1].split()
    assert last[0] == "6" and last[1] == "91" and last[2] == "64"


def test_expand_symbols_row_1(capsys):
    code, out, _ = run(capsys, ["expand", "1,2,3", "--count", "2", "--format", "json"])
    rows = json.loads(out)["rows"]
    assert rows[0] == {"k": 0, "s": "1", "t": "1", "jacobi": "+1",
                       "reciprocal_jacobi": "+1", "kronecker": "+1"}
    assert rows[1] == {"k": 1, "s": "3", "t": "2", "jacobi": "*",
                       "reciprocal_jacobi": "-1", "kronecker": "-1"}


def test_expand_golden_ratio_block(capsys):
    code, out, _ = run(capsys, ["expand", "1", "--count", "3", "--format", "csv"])
    lines = out.strip().splitlines()
    assert lines[1].startswith("0,1,1")
    assert lines[2].startswith("1,2,1")
    assert lines[3].startswith("2,3,2")


@pytest.mark.parametrize("argv, count", [
    (["expand", "1,2,5", "--count", "2000"], 2000),  # all three columns
    (["verify", "1,2,5", "--window", "1500"], 1500),
    (["verify", "3,2,8", "--window", "1500"], 1500),  # 16 bits miss t_28
    (["analyze", "1,2,5"], 0),
], ids=["expand", "verify", "verify-escalating", "analyze"])
def test_one_lane_pass_per_request(monkeypatch, capsys, argv, count):
    # one pass over the window's chunks builds each of them once, besides
    # one chunk more for each precision the pass escalates to
    built = record_lane_chunks(monkeypatch)
    code, _, _ = run(capsys, argv)
    assert code in (EXIT_OK, EXIT_APERIODIC)
    chunks = -(-count // kronseq.symbols._chunk(3))
    assert [j for _, j, finished in built if finished] == list(range(chunks))
    escalations = len({B for B, _, _ in built} - {kronseq.symbols._START_PRECISION})
    assert len(built) <= chunks + escalations, built
    assert escalations == (argv[1] == "3,2,8")


# ---------------------------------------------------------------------------
# analyze

def test_analyze_periodic_exit_code(capsys):
    code, out, _ = run(capsys, ["analyze", "1,2,3"])
    assert code == EXIT_OK
    assert "period 12" in out


def test_analyze_aperiodic_exit_code(capsys):
    code, out, _ = run(capsys, ["analyze", "1,2,5"])
    assert code == EXIT_APERIODIC
    assert "first critical k=7" in out


def test_analyze_json_fields(capsys):
    code, out, _ = run(capsys, ["analyze", "1,2,3", "--format", "json"])
    d = json.loads(out)
    assert d["L"] == 6 and d["m"] == 2 and d["e"] == 0
    assert d["U"][1][0] == "21"
    assert d["quad"] == {"P": "4", "D": "37", "Q": "7"}
    assert d["classification"] == {"kind": "periodic-2L", "period": 12, "witness": 1}


def test_analyze_parse_error_exit(capsys):
    code, _, err = run(capsys, ["analyze", "1,,3"])
    assert code == EXIT_PARSE
    assert "parse error" in err


def test_machine_format_round_trip():
    rep = build_report((1, 2, 5))
    text = report_to_json(rep)
    again = report_from_json(text)
    assert again == rep
    assert report_to_json(again) == text


def test_round_trip_with_oracle_section():
    rep = build_report((1, 2, 3), window=240)
    text = report_to_json(rep)
    assert report_from_json(text) == rep
    assert report_to_json(report_from_json(text)) == text


def test_report_round_trip_past_the_digit_limit_outside_main(capsys):
    # the report writers and readers print and parse integers past the
    # int-to-str digit limit of Python 3.11+ piecewise, so the caller's
    # limit stays as it is
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit in this Python")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        rep = build_report((1, 2, 10**4400))
        text = report_to_json(rep)
        assert report_from_json(text) == rep
        assert report_from_dict(report_to_dict(rep)) == rep
        digits = "1" + "0" * 4400  # 10**4400
        assert digits in report_to_text(rep) and digits in report_to_csv(rep)
        # integers of more than 4,300 digits in the JSON analyze prints
        rng = random.Random(0)
        block = ",".join(str(rng.randint(1, 1000)) for _ in range(800))
        code, out, _ = run(capsys, ["analyze", block, "--format", "json"])
        assert code == EXIT_APERIODIC
        assert report_to_json(report_from_json(out)) + "\n" == out
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)


def test_threads_writing_and_reading_big_reports_keep_the_limit():
    # more threads than cores write and read back a report with a
    # 4,401-digit quotient, with a short switch interval so that they
    # interleave; each finds the caller's limit in place between its
    # conversions, and it is still in place once all are done
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit in this Python")
    rep = build_report((1, 2, 10**4400))

    def work():
        for _ in range(20):
            assert report_from_json(report_to_json(rep)) == rep
            assert sys.get_int_max_str_digits() == 4300
            assert report_from_dict(report_to_dict(rep)) == rep
            assert sys.get_int_max_str_digits() == 4300

    before, interval = sys.get_int_max_str_digits(), sys.getswitchinterval()
    sys.set_int_max_str_digits(4300)
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            for done in [pool.submit(work) for _ in range(8)]:
                done.result(60)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.setswitchinterval(interval)
        sys.set_int_max_str_digits(before)


def test_piecewise_str_and_int_match_the_builtins_past_the_limit():
    # lengths around both limits and far past them, both signs; past the
    # limit a text reads as int() with no limit reads it, surrounding
    # whitespace, a "+" and single underscores too, and a text int() does
    # not read raises ValueError
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit in this Python")
    rng = random.Random(0)
    before = sys.get_int_max_str_digits()
    try:
        for limit in (640, 4300):
            sys.set_int_max_str_digits(limit)
            for digits in (1, 639, 640, 641, 4299, 4300, 4301, 8601, 30000):
                n = rng.randrange(10 ** (digits - 1), 10**digits)
                for value in (n, -n, 10 ** (digits - 1), -(10 ** (digits - 1))):
                    text = kronseq.cf._str(value)
                    sys.set_int_max_str_digits(0)
                    assert text == str(value)
                    sys.set_int_max_str_digits(limit)
                    assert kronseq.cf._int(text) == value
            for good in (" \n" + "1" * 5000 + " ", "+" + "1" * 5000, "-" + "1_" * 5000 + "1"):
                sys.set_int_max_str_digits(0)
                value = int(good)
                sys.set_int_max_str_digits(limit)
                assert kronseq.cf._int(good) == value
            for bad in ("--" + "1" * 5000, "+-" + "1" * 5000, "- " + "1" * 5000,
                        "1" * 5000 + "x", "1" * 5000 + "__1", "_" + "1" * 5000,
                        "1" * 5000 + "_", "1 " + "1" * 5000, "", "-", "+", " "):
                with pytest.raises(ValueError):
                    kronseq.cf._int(bad)
    finally:
        sys.set_int_max_str_digits(before)


def test_long_integers_print_and_read_alike_under_every_digit_limit(
        capsys, monkeypatch, tmp_path):
    # every command, and the report writers and readers, give the same
    # bytes with the int-to-str digit limit at 640 (the lowest it can be)
    # and at 4,300 (the default) as with no limit, on integers past 4,400
    # digits read and printed, and none of them sets the limit
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit in this Python")
    set_limit = sys.set_int_max_str_digits

    def refuse(limit):
        raise AssertionError(f"the digit limit was set to {limit}")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    aperiodic = "1,2,1" + "0" * 4399 + "1"  # (1, 2, 10**4400 + 1)
    periodic = "1,2,1" + "0" * 4400  # (1, 2, 10**4400), period 36
    precision = "1" + "0" * 700
    # t_2 = Q + 1 has v2 = 2200 while m + e = 2, so the depth-8 cascade's
    # k_j reach about 2^2200 (663 digits): past the lowest limit only there
    deep = f"2,1,{2**2200 - 1},1"
    path = tmp_path / "blocks.txt"
    path.write_text(f"{aperiodic}\n{periodic}\n1,2,x\n{deep}\n")
    formats = ("text", "json", "csv")
    argvs = [
        ["expand", "999", "--count", "1500", "--format", "csv"],  # t_1499: 4,497 digits
        *(["expand", aperiodic, "--count", "3", "--format", f] for f in formats),
        *(["analyze", aperiodic, "--format", f] for f in formats),
        # U and u mod 2**precision are exact: up to 17,602 digits
        *(["analyze", aperiodic, "--precision", precision, "--format", f] for f in formats),
        *(["cascade", aperiodic, "--format", f] for f in formats),
        ["cascade", "1,2,5", "--depth", "1500", "--format", "json"],
        # one attempt at 8,192 bits, k_j of up to 1,481 digits
        ["cascade", "1,2,5", "--depth", "2500"],
        # runs out at 4,096 bits on a t_k of 1,232 digits, and succeeds at 8,192
        ["cascade", "7,4,2", "--depth", "2040", "--format", "json"],
        # read piecewise at limit 640, after the whitespace and sign
        ["analyze", aperiodic, "--precision", f" +{precision} ", "--format", "json"],
        ["cascade", periodic],  # exit 1, the block in the message
        ["verify", aperiodic, "--format", "json"],
        ["verify", periodic, "--max-period", "10", "--window", "30"],  # exit 1
        *(["analyze", deep, "--format", f] for f in formats),
        *(["batch", str(path), "--format", f] for f in formats),
    ]
    rep = build_report((1, 2, 10**4400 + 1), precision=10**700)
    periodic_rep = build_report((1, 2, 10**4400))
    deep_rep = build_report(parse_block(deep))
    P, D, Q = rep.quad
    # str() of a QuadIrrational whose D has 25,655 bits (7,723 digits)
    rng = random.Random(1)
    quad = quad_irrational_of(normalize_period([rng.randint(1, 1000) for _ in range(1500)]))
    # P > 0 for every purely periodic block, so a negative P is built by hand
    negative = kronseq.cli.AnalysisReport(rep.block, rep.reduced, (-P, D, Q), rep.analysis,
                                          rep.critical, rep.subcritical,
                                          rep.classification, rep.oracle)

    def outputs():
        runs = [run(capsys, argv) for argv in argvs]
        for r in (rep, negative, deep_rep):
            text = report_to_json(r)
            assert report_from_json(text) == r
            assert report_from_dict(report_to_dict(r)) == r
            runs.append((text, report_to_dict(r), report_to_text(r), report_to_csv(r), repr(r)))
        runs.append((str(quad), repr(quad), repr(periodic_rep)))
        # the public cascade runs out at 4,096 bits, naming a t_k of 1,233 digits
        runs.append(str(pytest.raises(PrecisionExhausted, kronseq.cascade,
                                      normalize_period((1, 2, 5)), 12, 7, 2500,
                                      precision=4096).value))
        return runs

    before = sys.get_int_max_str_digits()
    try:
        set_limit(0)
        expected = outputs()
        longest = max(len(digits) for digits in re.findall(r"\d+", repr(expected)))
        assert longest > 4400, longest
        i = argvs.index(["cascade", "1,2,5", "--depth", "2500"])
        assert [code for code, *_ in expected[i:i + 2]] == [EXIT_OK, EXIT_OK]
        assert re.fullmatch(r"v2\(t_\d{1233}\) not resolvable at precision 4096", expected[-1])
        i = argvs.index(["analyze", deep, "--format", "json"])
        assert [code for code, *_ in expected[i - 1:i + 2]] == [EXIT_APERIODIC] * 3
        assert max(k for k, _ in deep_rep.classification.cascade).bit_length() > 2200
        for limit in (640, 4300):
            set_limit(limit)
            assert outputs() == expected, limit
            assert sys.get_int_max_str_digits() == limit
    finally:
        set_limit(before)


def test_classify_of_a_read_back_analysis():
    # a report's analysis carries no walk once read back, so classify
    # analyzes again and gives the verdict of a fresh analysis
    for block in ((1, 2, 5), (1, 2, 2), (1, 2, 3), (2,)):
        cf = normalize_period(block)
        a = report_from_json(report_to_json(build_report(block))).analysis
        assert a.walk is None
        assert classify(cf, analysis=a) == classify(cf)
        assert classify(cf, depth=200, analysis=a) == classify(cf, depth=200)


def test_analyze_csv(capsys):
    code, out, _ = run(capsys, ["analyze", "1,2,5", "--format", "csv"])
    header, row = out.strip().splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    assert record["L"] == "12" and record["first_critical"] == "7"


def test_analyze_reduced_block_notice(capsys):
    code, out, _ = run(capsys, ["analyze", "1,2,1,2"])
    assert "reduced to its minimal period" in out


def test_analyze_with_oracle_window(capsys):
    code, out, _ = run(capsys, ["analyze", "1,2,3", "--window", "240"])
    assert code == EXIT_OK
    assert "empirical period 12" in out


# ---------------------------------------------------------------------------
# cascade

def test_cascade_depth_4(capsys):
    code, out, _ = run(capsys, ["cascade", "1,2,5", "--depth", "4", "--format", "json"])
    assert code == EXIT_OK
    d = json.loads(out)
    assert [(r["k"], r["r"]) for r in d["cascade"]] == [(7, 0), (19, 1), (43, 3), (139, 6)]
    assert d["cascade"][0]["falsified_period_multiple"] == 24


def test_cascade_122_depth_1(capsys):
    code, out, _ = run(capsys, ["cascade", "1,2,2", "--depth", "1", "--format", "json"])
    d = json.loads(out)
    assert (d["cascade"][0]["k"], d["cascade"][0]["r"]) == (6, 3)
    assert d["L"] == 18


def test_cascade_on_periodic_block_fails(capsys):
    code, _, err = run(capsys, ["cascade", "1,2,3", "--depth", "1"])
    assert code == EXIT_USAGE
    assert "periodic" in err


def test_cascade_csv(capsys):
    code, out, _ = run(capsys, ["cascade", "1,2,5", "--depth", "2", "--format", "csv"])
    lines = out.strip().splitlines()
    assert lines[0] == "j,k,r,falsified_period_multiple"
    assert lines[1] == "1,7,0,24" and lines[2] == "2,19,1,48"


# cascade and expand write their JSON by template: the text must be what
# the sorting encoder writes, and its rows those of the CSV output

def canonical_rows(capsys, argv, key):
    code, out, _ = run(capsys, [*argv, "--format", "json"])
    assert code == EXIT_OK, argv
    data = json.loads(out)
    assert out == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n", argv
    code, out, _ = run(capsys, [*argv, "--format", "csv"])
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert [[str(row[h]) for h in header] for row in data[key]] == rows, argv
    return data[key]


def aperiodic_blocks(seed, count):
    rng = random.Random(seed)
    while count:
        block = tuple(rng.randint(1, 9) for _ in range(rng.randint(3, 6)))
        cf = normalize_period(block)
        if not cf.reduced and isinstance(classify(cf, depth=1), Aperiodic):
            count -= 1
            yield block, rng.randint(1, 400)


def test_cascade_json_is_canonical(capsys):
    # 20 seeded aperiodic blocks at depths 1-400, and (1,2,5) at depth
    # 1,500, at the 4,096-bit rung with k beyond 2^1000
    for block, depth in [*aperiodic_blocks(18, 20), ((1, 2, 5), 1500)]:
        argv = ["cascade", ",".join(map(str, block)), "--depth", str(depth)]
        rows = canonical_rows(capsys, argv, "cascade")
        assert len(rows) == depth, argv
    assert rows[-1]["k"] > 2**1000


def test_expand_json_is_canonical(capsys):
    rng = random.Random(18)
    counts = [1, 2, 3, 2000, *rng.sample(range(4, 2000), 6)]
    for block, count in zip(itertools.cycle(["1,2,5", "1,2,3", "2", "7,1,4"]), counts):
        rows = canonical_rows(capsys, ["expand", block, "--count", str(count)], "rows")
        assert len(rows) == count


def canonical(text):
    """The sorting encoder's compact form of the JSON text's own parse."""
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))


SMALL_BLOCKS = [b for l in range(1, 5) for b in itertools.product(range(1, 6), repeat=l)
                if normalize_period(b).quotients == b]


def test_report_batch_and_verify_json_are_canonical(capsys, monkeypatch):
    # reports, batch records and the oracle object are written by template:
    # on every minimal block with l <= 4 and quotients <= 5, with and
    # without the oracle, the text is the sorting encoder's and the reports
    # round-trip
    kinds, oracles = set(), set()
    for block in SMALL_BLOCKS:
        for window in (None, 600):
            rep = build_report(block, window=window)
            text = report_to_json(rep)
            assert text == canonical(text), block
            assert report_from_json(text) == rep
            assert report_to_json(report_from_json(text)) == text
            assert kronseq.cli.report_to_dict(rep) == json.loads(text)
            kinds.add(rep.classification.__class__)
            if rep.oracle:
                oracles.add((rep.oracle.empirical_period is None,
                             bool(rep.oracle.falsified_periods)))
        code, out, _ = run(capsys, ["verify", ",".join(map(str, block)), "--format", "json"])
        assert code == EXIT_OK and out == canonical(out) + "\n", block
    assert len(kinds) == 3 and oracles == {(False, False), (True, True)}

    odd = ["[1, 2,\t5]", "[ 2 ]", "1,\tx", "1 2", "[1,2", 'é,"\\', "\t7 ,  1"]
    lines = [",".join(map(str, b)) for b in SMALL_BLOCKS] + odd
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out, _ = run(capsys, ["batch", "-"])
    records = out.splitlines()
    assert code == EXIT_OK and len(records) == len(lines)
    for line, text in zip(lines, records):
        assert text == canonical(text), line
        record = json.loads(text)
        assert record["input"] == line.strip()
        if "report" in record:
            report = json.dumps(record["report"], sort_keys=True, separators=(",", ":"))
            assert report_to_json(report_from_json(report)) == report
    errors = [json.loads(text) for text in records if "error" in json.loads(text)]
    assert [e["input"] for e in errors] == ["1,\tx", "1 2", "[1,2", 'é,"\\']


def test_verify_csv(capsys):
    code, out, _ = run(capsys, ["verify", "1,2,3", "--window", "240", "--format", "csv"])
    lines = out.strip().splitlines()
    assert lines[0] == "window,empirical_period,falsified_count,agreement"
    assert lines[1] == "240,12,0,True"


# ---------------------------------------------------------------------------
# verify

def test_verify_agreement(capsys):
    code, out, _ = run(capsys, ["verify", "1,2,3", "--window", "240"])
    assert code == EXIT_OK
    assert "True" in out


def test_verify_aperiodic_block(capsys):
    code, out, _ = run(capsys, ["verify", "1,2,5", "--window", "600", "--format", "json"])
    assert code == EXIT_OK
    d = json.loads(out)
    assert d["agreement"] is True and d["empirical_period"] is None


def test_verify_smoke_singleton(capsys):
    code, out, _ = run(capsys, ["verify", "2", "--window", "100", "--max-period", "20"])
    assert code == EXIT_OK


def test_verify_window_too_short_for_an_aperiodic_verdict(capsys):
    # no pair of 4 terms falsifies period 2 of (1,2,5), and its first
    # cascade pair (7, 31) lies past the window: a usage error, not a
    # mismatch; 32 terms hold that pair
    code, out, err = run(capsys, ["verify", "1,2,5", "--window", "4", "--max-period", "2"])
    assert code == EXIT_USAGE and out == ""
    assert err == ("error: window 4 is too short to falsify period 2 of [1,2,5]: "
                   "its first cascade pair (7, 31) needs a window of 32\n")
    code, out, _ = run(capsys, ["verify", "1,2,5", "--window", "32", "--max-period", "2",
                                "--format", "json"])
    assert code == EXIT_OK and json.loads(out)["agreement"] is True


def test_verify_names_a_cascade_pair_that_ends_on_the_last_window_term(capsys):
    # the witness of every period of (1,2,5) that divides 24 is its cascade
    # pair (7, 31), which ends on term 31, the last of a 32-term window
    code, out, _ = run(capsys, ["verify", "1,2,5", "--window", "32", "--max-period", "16",
                                "--format", "json"])
    assert code == EXIT_OK
    assert out == ('{"agreement":true,"empirical_period":null,"falsified":[[1,[7,31]],'
                   '[2,[7,31]],[3,[7,31]],[4,[7,31]],[5,[0,10]],[6,[7,31]],[7,[0,7]],'
                   '[8,[7,31]],[9,[0,9]],[10,[0,10]],[11,[0,11]],[12,[7,31]],[13,[0,13]],'
                   '[14,[0,14]],[15,[0,30]],[16,[4,20]]],"window":32}\n')


def test_verify_window_too_short_for_a_periodic_claim(capsys):
    # (1,2,3) claims period 12, which 4 terms cannot hold twice: a usage
    # error that names the window the claim needs, whatever --max-period
    code, out, err = run(capsys, ["verify", "1,2,3", "--max-period", "1", "--window", "4"])
    assert code == EXIT_USAGE and out == ""
    assert err == ("error: window 4 is too short to check the claimed period 12 "
                   "of [1,2,3]: it needs a window of 24\n")
    code, out, _ = run(capsys, ["verify", "1,2,3", "--max-period", "1", "--window", "24",
                                "--format", "json"])
    assert code == EXIT_OK
    d = json.loads(out)
    assert d["agreement"] is True and d["empirical_period"] == 12


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    import kronseq.cli as cli

    def boom(*a, **k):
        raise OracleMismatch("forced")

    monkeypatch.setattr(cli, "cross_check", boom)
    code, _, err = run(capsys, ["verify", "1,2,3"])
    assert code == EXIT_MISMATCH
    assert "mismatch" in err


# ---------------------------------------------------------------------------
# batch

def test_batch_worked_examples(tmp_path, capsys):
    path = tmp_path / "blocks.txt"
    path.write_text("# worked examples\n1,2,3\n1,2,5\n\n1,2,2  # aperiodic too\n")
    code, out, _ = run(capsys, ["batch", str(path)])
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 3
    kinds = [r["report"]["classification"]["kind"] for r in records]
    assert kinds == ["periodic-2L", "aperiodic", "aperiodic"]


def test_batch_isolates_bad_lines(tmp_path, capsys):
    path = tmp_path / "blocks.txt"
    path.write_text("1,2,3\nnot-a-block\n2\n")
    code, out, _ = run(capsys, ["batch", str(path)])
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 3
    assert "error" in records[1] and "report" in records[2]


def test_batch_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("")
    code, out, _ = run(capsys, ["batch", str(path)])
    assert code == EXIT_OK
    assert out.strip() == ""


def test_batch_missing_file(capsys):
    code, out, err = run(capsys, ["batch", "/no/such/file"])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("cannot read /no/such/file: ") and err.count("\n") == 1


def test_batch_undecodable_file(tmp_path, capsys, monkeypatch):
    # a file that is not UTF-8 cannot be read, like a missing one; nor can
    # stdin, whatever error handler the stream itself was opened with
    path = tmp_path / "blocks.txt"
    path.write_bytes(b"1,2\n\xff\xfe\n")
    code, out, err = run(capsys, ["batch", str(path)])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"cannot read {path}: ") and err.count("\n") == 1
    for errors in ("strict", "surrogateescape"):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(path.read_bytes()),
                                                          encoding="utf-8", errors=errors))
        code, out, err = run(capsys, ["batch", "-"])
        assert code == EXIT_USAGE and out == "", errors
        assert err.startswith("cannot read -: ") and err.count("\n") == 1, errors


def test_batch_csv(tmp_path, capsys):
    import csv as csvmod
    import io
    path = tmp_path / "blocks.txt"
    path.write_text("1,2,3\n")
    code, out, _ = run(capsys, ["batch", str(path), "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csvmod.reader(io.StringIO(out)))
    assert rows[1][2] == "periodic-2L"


def test_csv_writes_what_the_csv_module_writes():
    # random rows of two or more cells: strings over an alphabet with the
    # characters that force quoting, empty strings, ints and bools
    rng = random.Random(28)
    alphabet = [",", '"', "\r", "\n", " ", "a", "1", "-", "'", ";", "\t"]

    def cell():
        kind = rng.randrange(5)
        if kind == 0:
            return ""
        if kind == 1:
            return rng.randint(-10**30, 10**30)
        if kind == 2:
            return rng.choice((True, False))
        return "".join(rng.choices(alphabet, k=rng.randint(1, 6)))

    quoted = 0
    for _ in range(400):
        header = [cell() for _ in range(rng.randint(2, 5))]
        rows = [[cell() for _ in range(rng.randint(2, 5))] for _ in range(rng.randint(0, 4))]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        assert kronseq.cli._csv(header, rows) == buf.getvalue(), (header, rows)
        quoted += '"' in buf.getvalue()
    assert quoted > 200


# ---------------------------------------------------------------------------
# plumbing

@pytest.mark.parametrize("argv", [
    ["expand", "999", "--count", "1500", "--format", "csv"],  # t_1499 has 4,497 digits
    ["analyze", "1,2,3"], ["cascade", "1,2,5", "--depth", "4"],
    ["verify", "1,2,2", "--format", "json"], ["batch", "-"],
    ["analyze", "1,x"],  # parse error, exit 2
    ["batch", "/no/such/file"],  # usage error, exit 1
    ["expand", "1,2", "--count", "0"],  # argparse error, SystemExit
], ids=["expand", "analyze", "cascade", "verify", "batch", "parse-error",
        "usage-error", "argparse-error"])
def test_main_restores_int_str_limit(capsys, monkeypatch, argv):
    # main prints integers past the int-to-str digit limit piecewise, and
    # leaves the caller's limit as it is on every exit path
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit in this Python")
    monkeypatch.setattr(sys, "stdin", io.StringIO("1,2,3\nnot-a-block\n"))
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4400)
    try:
        try:
            main(argv)
        except SystemExit:
            pass
        assert sys.get_int_max_str_digits() == 4400
    finally:
        sys.set_int_max_str_digits(before)
    out = capsys.readouterr().out
    if argv[0] == "expand" and out:
        assert len(out.splitlines()[-1].split(",")[2]) > 4400

def test_stdin_block(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("1,2,3\n"))
    code, out, _ = run(capsys, ["analyze", "-"])
    assert code == EXIT_OK


def test_output_path(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["analyze", "1,2,3", "--format", "json",
                                "--output", str(target)])
    assert code == EXIT_OK and out == ""
    assert json.loads(target.read_text())["L"] == 6


def test_analyze_unwritable_output_path(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "report.txt"
    code, err = run_to_exit(capsys, ["analyze", "1,2,3", "--output", str(target)])
    assert code == EXIT_USAGE
    assert err.startswith(f"cannot write {target}: ") and err.count("\n") == 1


def test_batch_unwritable_output_path(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1,2,3\n"))
    code, err = run_to_exit(capsys, ["batch", "-", "--output", str(tmp_path)])
    assert code == EXIT_USAGE
    assert err.startswith(f"cannot write {tmp_path}: ") and err.count("\n") == 1


def test_env_precision_is_not_read(capsys, monkeypatch):
    # KRONSEQ_PRECISION sets nothing: a report prints precision 128, on
    # every call, whatever the variable holds
    argv = ["analyze", "1,2,3", "--format", "json"]
    unset = run(capsys, argv)
    assert json.loads(unset[1])["precision"] == 128
    for value in ("256", "8", "4", "bogus", "", "256"):
        monkeypatch.setenv("KRONSEQ_PRECISION", value)
        assert run(capsys, argv) == unset, value


def test_env_precision_invalid(capsys, monkeypatch):
    # an invalid KRONSEQ_PRECISION fails no command: each gives the exit
    # code and bytes it gives with the variable unset
    for argv in (["expand", "1,2,5"], ["analyze", "1,2,5"], ["cascade", "1,2,5"],
                 ["verify", "1,2,3"], ["batch", "-", "--format", "text"]):
        runs = []
        for value in (None, "bogus", "4"):
            if value is not None:
                monkeypatch.setenv("KRONSEQ_PRECISION", value)
            monkeypatch.setattr(sys, "stdin", io.StringIO("1,2,5\n2,2\n"))
            runs.append(run(capsys, argv))
        monkeypatch.delenv("KRONSEQ_PRECISION")
        assert runs[0][2] == "" and runs == [runs[0]] * 3, argv


def test_flag_precision_and_help_beat_an_invalid_env_precision(capsys, monkeypatch):
    # with the variable invalid, --precision sets the precision, -h prints
    # help and a bad command line is a usage error: nothing reads it
    monkeypatch.setenv("KRONSEQ_PRECISION", "abc")
    code, out, err = run(capsys, ["analyze", "1,2,5", "--precision", "64", "--format", "json"])
    assert (code, err) == (EXIT_APERIODIC, "")
    assert json.loads(out)["precision"] == 64
    for argv in (["-h"], ["verify", "-h"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith(f"usage: kronseq {argv[0] * (len(argv) > 1)}")
    code, err = run_to_exit(capsys, ["verify", "1,2,3", "--window", "0"])
    assert code == EXIT_USAGE
    assert err.endswith("kronseq verify: error: argument --window: "
                        "expected an integer >= 1, got '0'\n")


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("argv", [
    ["analyze", "1,2,5", "--format", "json"], ["analyze", "2,2", "--format", "json"],
    ["analyze", "1,2,3", "--window", "300", "--format", "json"],
    ["cascade", "1,2,5", "--depth", "200"], ["verify", "1,2,5"], ["verify", "2,2,3"],
    ["batch", "-"],
], ids=["analyze-aperiodic", "analyze-periodic", "analyze-window", "cascade",
        "verify-aperiodic", "verify-periodic", "batch"])
def test_huge_precision_prints_as_at_128_bits(capsys, monkeypatch, argv, source):
    # U is exact below the bits of s_{L-1}, so a --precision of 10**20 bits
    # prints what 128 bits do, but for the printed precision; cascade and
    # verify print no U and refuse the flag at any value, and the
    # environment is not read, so 10**20 there prints what 128 does
    huge = 10**20
    if source == "flag" and argv[0] in ("cascade", "verify"):
        for precision in (128, huge):
            code, err = run_to_exit(capsys, [*argv, "--precision", str(precision)])
            assert code == EXIT_USAGE
            assert err.endswith(f"kronseq: error: unrecognized arguments: --precision {precision}\n")
        return
    runs = []
    for precision in (128, huge):
        monkeypatch.setattr(sys, "stdin", io.StringIO("1,2,5\n2,2\nnot-a-block\n"))
        if source == "env":
            monkeypatch.setenv("KRONSEQ_PRECISION", str(precision))
            runs.append(run(capsys, argv))
        else:
            runs.append(run(capsys, [*argv, "--precision", str(precision)]))
    (code, out, err), (huge_code, huge_out, huge_err) = runs
    assert (huge_code, huge_err) == (code, err)
    printed = huge if source == "flag" else 128
    assert huge_out == out.replace('"precision":128', f'"precision":{printed}')
    assert out.count('"precision":128') == {"analyze": 1, "batch": 2}.get(argv[0], 0)


@pytest.mark.parametrize("source", ["flag", "env"])
def test_cascade_width_follows_the_depth_at_every_precision(capsys, monkeypatch, source):
    # depth 2500 of (1,2,5) predicts 2 + 2*2500 + 3 = 5005 bits: with the
    # environment at any precision, one attempt at 8192 bits and the same
    # bytes, exit 0; the flag, at any precision, is refused before any attempt
    argv = ["cascade", "1,2,5", "--depth", "2500", "--format", "json"]
    precisions = []
    original = kronseq.analysis._cascade
    monkeypatch.setattr(kronseq.analysis, "_cascade",
                        lambda *a: precisions.append(a[4]) or original(*a))
    runs = []
    for precision in (8, 128, 4096, 5000, 8192, 10**20):
        if source == "env":
            monkeypatch.setenv("KRONSEQ_PRECISION", str(precision))
            runs.append((run(capsys, argv), precisions[:]))
        else:
            code, err = run_to_exit(capsys, [*argv, "--precision", str(precision)])
            assert (code, precisions) == (EXIT_USAGE, [])
            assert err.endswith(f"unrecognized arguments: --precision {precision}\n")
        precisions.clear()
    if source == "env":
        (code, out, err), attempts = runs[0]
        assert (code, err, attempts) == (EXIT_OK, "", [8192])
        assert len(json.loads(out)["cascade"]) == 2500
        assert all(r == runs[0] for r in runs)


def test_help_names_every_command_and_option(capsys):
    # kronseq -h holds the help of every command
    with pytest.raises(SystemExit) as ei:
        main(["--help"])
    assert ei.value.code == EXIT_OK
    top = capsys.readouterr().out
    for command, (_, _, (positional, _), options) in kronseq.cli.COMMANDS.items():
        with pytest.raises(SystemExit) as ei:
            main([command, "-h"])
        assert ei.value.code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(f"usage: kronseq {command} [-h]") and out in top
        for name in (positional, "-h, --help", *options):
            assert f"  {name}" in out, (command, name)


def test_help_flag_with_a_value_is_a_usage_error(capsys):
    # as argparse: -hh is -h -h, and any other value of -h or --help is an error
    for argv in (["verify", "-hh"], ["verify", "-h=hh"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: kronseq verify")
    for argv, value in ((["-hx"], "x"), (["verify", "--help=1"], "1"), (["analyze", "-h="], "")):
        code, err = run_to_exit(capsys, argv)
        assert code == EXIT_USAGE
        assert err.endswith(f"error: argument -h/--help: ignored explicit argument {value!r}\n")


@pytest.mark.parametrize("argv, error", [
    (["expand", "1,2", "--count=--"], "argument --count: expected an integer >= 1, got '--'"),
    (["verify", "1,2,3", "--format=--"],
     "argument --format: invalid choice: '--' (choose from 'text', 'json', 'csv')"),
])
def test_explicit_double_dash_value_is_read_as_text(capsys, argv, error):
    # argparse dropped an explicit "--" value and stored an empty list,
    # which ended in a TypeError traceback
    code, err = run_to_exit(capsys, argv)
    assert code == EXIT_USAGE
    assert err.endswith(f"kronseq {argv[0]}: error: {error}\n")


def test_build_parser_reads_options_as_main_does():
    args = kronseq.cli.build_parser().parse_args(["cascade", "--dep=5", "--", "1,2,5"])
    assert vars(args) == {"func": kronseq.cli.cmd_cascade, "block": "1,2,5", "depth": 5,
                          "format": "text", "output": None}
    args = kronseq.cli.build_parser().parse_args(["batch", "-", "--prec", "64"])
    assert vars(args) == {"func": kronseq.cli.cmd_batch, "input": "-", "format": "json",
                          "output": None, "precision": 64}


def test_unwritable_stdout_is_a_usage_error(capsys, monkeypatch):
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    code = main(["analyze", "1,2,5"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err == "cannot write stdout: [Errno 28] No space left on device\n"


def test_output_the_stream_cannot_encode_is_a_usage_error(capsys, monkeypatch):
    # Arabic-Indic digits are decimal, so "\u0661,\u0662" is the block (1, 2),
    # and a batch CSV writes its input line back, which ASCII cannot encode
    monkeypatch.setattr(sys, "stdin", io.StringIO("\u0661,\u0662\n"))
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
    code, err = run_to_exit(capsys, ["batch", "-", "--format", "csv"])
    assert code == EXIT_USAGE
    assert err.startswith("cannot write stdout: 'ascii' codec can't encode ")
    assert err.count("\n") == 1


@pytest.mark.skipif(sys.platform == "win32", reason="needs the C locale")
def test_output_file_the_locale_cannot_encode_is_a_usage_error(tmp_path):
    # in the C locale, without UTF-8 mode, files are written in ASCII;
    # PYTHONIOENCODING lets stdin read the line as UTF-8
    src = str(Path(kronseq.__file__).resolve().parents[1])
    target = tmp_path / "out.txt"
    done = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv.pop(1)); "
         "from kronseq.cli import main; sys.exit(main())", src,
         "batch", "-", "--format", "text", "--output", str(target)],
        input="\u0661,\u0662\n".encode(), capture_output=True, timeout=60,
        env={"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
             "PYTHONIOENCODING": "utf-8"})
    err = done.stderr.decode()
    assert done.returncode == EXIT_USAGE, err
    assert err.startswith(f"cannot write {target}: ") and err.count("\n") == 1, err


@pytest.mark.skipif(sys.platform == "win32", reason="needs the C locale")
@pytest.mark.parametrize("argv", [["batch", "-"], ["batch", "FILE"], ["analyze", "-"]])
def test_stdin_decodes_like_a_file(tmp_path, argv):
    # in the C locale, without UTF-8 mode, Python reads stdin with the
    # surrogateescape handler and files strictly; "-" fails as a file does,
    # with the same decoder message, and in UTF-8 mode both read (1, 2)
    src = str(Path(kronseq.__file__).resolve().parents[1])
    path = tmp_path / "blocks.txt"
    path.write_bytes("\u0661,\u0662\n".encode())
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    code = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
            "from kronseq.cli import main; sys.exit(main())")
    for env, expected in (({"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
                           EXIT_USAGE), ({"PYTHONUTF8": "1"}, EXIT_OK)):
        with open(path, "rb") as stdin:
            done = subprocess.run([sys.executable, "-c", code, src, *argv, "--format", "csv"],
                                  stdin=stdin, capture_output=True, timeout=60, env=env)
        err = done.stderr.decode()
        assert done.returncode == expected, (env, err)
        if expected == EXIT_USAGE:
            assert err == (f"cannot read {argv[1]}: 'ascii' codec can't decode byte 0xd9 "
                           "in position 0: ordinal not in range(128)\n"), err
        else:
            assert err == "" and b"periodic-L" in done.stdout, done.stdout


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["analyze", "1,2,5"], ["verify", "-h"]])
def test_console_stdout_on_a_full_device_exits_1(argv):
    # the flush at interpreter exit must not fail again (exit 120)
    src = str(Path(kronseq.__file__).resolve().parents[1])
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-I", "-c", "import sys; sys.path.insert(0, "
                               "sys.argv.pop(1)); from kronseq.cli import main; sys.exit(main())",
                               src, *argv], stdout=full, stderr=subprocess.PIPE, text=True,
                              timeout=60)
    assert done.returncode == EXIT_USAGE
    assert done.stderr.startswith("cannot write stdout: ") and done.stderr.count("\n") == 1


# a command run with one standard stream closed (<&-, >&-, 2>&-) or on a
# full device: the exit code each failure documents, and at most one line
CLOSED_STREAM_CASES = [
    *((redirect, argv, code, None)
      for redirect in ("2>&-", "2>/dev/full")
      for argv, code in ((["analyze", "x"], EXIT_PARSE),
                         (["verify", "1,2,3", "--window", "0"], EXIT_USAGE),
                         (["batch", "/no/such/file"], EXIT_USAGE),
                         (["cascade", "1,2,5", "--depth", "2500"], EXIT_OK),
                         (["analyze", "1,2,5"], EXIT_APERIODIC),
                         (["analyze", "1,2,3"], EXIT_OK))),
    ("<&-", ["analyze", "-"], EXIT_USAGE, "cannot read -: "),
    ("<&-", ["batch", "-"], EXIT_USAGE, "cannot read -: "),
    (">&-", ["analyze", "1,2,5"], EXIT_USAGE, "cannot write stdout: "),
    (">&-", ["-h"], EXIT_USAGE, "cannot write stdout: "),
    (">&-", ["verify", "-h"], EXIT_USAGE, "cannot write stdout: "),
]


@pytest.mark.skipif(sys.platform == "win32", reason="needs a POSIX shell")
@pytest.mark.parametrize("redirect, argv, code, line", CLOSED_STREAM_CASES, ids=repr)
def test_console_with_a_closed_or_failing_stream(monkeypatch, redirect, argv, code, line):
    # -I ignores PYTHONUNBUFFERED, so the streams are buffered as in plain use
    if "/dev/full" in redirect and not Path("/dev/full").exists():
        pytest.skip("needs /dev/full")
    src = str(Path(kronseq.__file__).resolve().parents[1])
    done = subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-I", "-c",
                           "import sys; sys.path.insert(0, sys.argv.pop(1)); "
                           "from kronseq.cli import main; sys.exit(main())", src, *argv],
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
    for text in (done.stdout, done.stderr):
        assert "Traceback" not in text and "Exception ignored" not in text
    if line is None:  # stderr closed or full: nothing reaches it
        assert done.stderr == ""
    else:
        assert done.stderr.startswith(line) and done.stderr.count("\n") == 1, done.stderr


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["no-such-command"])
    assert ei.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# one analysis per request

def patch_everywhere(monkeypatch, name, replacement, owner=kronseq.cf):
    """Put replacement in place of <owner>.<name> in every kronseq module
    that holds it."""
    original = getattr(owner, name)
    for module in (kronseq, kronseq.cf, kronseq.analysis, kronseq.symbols,
                   kronseq.oracle, kronseq.cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)
    return original


@pytest.fixture
def walks(monkeypatch):
    """The L returned by each analysis walk, under "L", and the number of
    pairs drawn from iter_convergent_pairs by anyone, under "drawn"."""
    record = {"L": [], "drawn": 0}
    walk, pairs = kronseq.analysis._walk, kronseq.cf.iter_convergent_pairs

    def recorded_walk(*a, **k):
        out = walk(*a, **k)
        record["L"].append(out[0])
        return out

    def counted_pairs(cf):
        for pair in pairs(cf):
            record["drawn"] += 1
            yield pair

    monkeypatch.setattr(kronseq.analysis, "_walk", recorded_walk)
    patch_everywhere(monkeypatch, "iter_convergent_pairs", counted_pairs)
    return record


@pytest.mark.parametrize("block", [
    (1, 2, 5),  # aperiodic: critical 7 and subcritical 1 printed, past l
    (1, 2, 3),  # subcritical 1 printed
    (1, 2, 2),  # critical 6 printed, L4 = 18
    (1,), (2,),  # certified at 2*L4, nothing printed
    (3, 3, 2, 9, 6, 3, 4, 7),
], ids=["1,2,5", "1,2,3", "1,2,2", "1", "2", "l8"])
def test_a_report_draws_exactly_L4_pairs(monkeypatch, capsys, walks, block):
    # one walk of L4 convergents per block gives the analysis, the closed
    # form, the printed pairs and the cascade's seeds: analyze, cascade and
    # batch make one analysis walk per block, which stops at L4, and draw
    # no pair from iter_convergent_pairs; no exact matrix is built
    cf = normalize_period(block)
    L4 = mod4_period_length(cf)
    walks["L"].clear()
    matrices = []
    matrix_at = kronseq.cf.matrix_at
    patch_everywhere(monkeypatch, "matrix_at",
                     lambda *a: matrices.append(a) or matrix_at(*a))
    rep = build_report(block)
    assert (walks, matrices) == ({"L": [L4], "drawn": 0}, [])
    assert rep.analysis.period in (L4, 2 * L4)
    text = ",".join(map(str, block))
    aperiodic = isinstance(rep.classification, Aperiodic)
    argvs = [["analyze", text], ["batch", "-"]]
    if aperiodic:
        argvs.append(["cascade", text, "--depth", "200"])
    for argv in argvs:
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"{text}\n{text}\n"))
        walks["L"].clear()
        code, _, _ = run(capsys, argv)
        assert code == (EXIT_APERIODIC if aperiodic and argv[0] == "analyze" else EXIT_OK)
        assert walks == {"L": [L4] * (2 if argv[0] == "batch" else 1), "drawn": 0}, argv
    assert matrices == []


@pytest.mark.parametrize("argv", [
    ["analyze", "1,2,5"], ["analyze", "1,2,2", "--window", "300"],
    ["analyze", "1,2,3", "--format", "json"],
    ["batch", "-"], ["batch", "-", "--format", "text"],
    ["verify", "1,2,5"], ["verify", "1,2,2", "--window", "1500"], ["verify", "2"],
    ["cascade", "1,2,5"], ["cascade", "1,2,2"],
], ids=lambda argv: " ".join(argv))
def test_commands_make_no_binary_power(monkeypatch, capsys, argv):
    # the cascade takes D(L4) and its start pair from the walk of the
    # analysis, so no command raises the block matrix to a power
    powers = []
    matrix_at_mod2 = patch_everywhere(
        monkeypatch, "matrix_at_mod2", lambda *a: powers.append(a) or matrix_at_mod2(*a))
    monkeypatch.setattr(sys, "stdin", io.StringIO("1,2,5\n1,2,3\n1,2,2\n2\nx\n"))
    code, out, _ = run(capsys, argv)
    assert code in (EXIT_OK, EXIT_APERIODIC) and out
    assert powers == []
    # nor does the library classify or cross-check an aperiodic block
    for block in ((1, 2, 5), (1, 2, 2)):
        cf = normalize_period(block)
        assert isinstance(classify(cf, depth=200), Aperiodic)
        cross_check(cf)
    assert powers == []
    # the public cascade still seeds itself by two binary powers
    kronseq.analysis.cascade(normalize_period((1, 2, 5)), 12, 7)
    assert len(powers) == 2


def count_calls(monkeypatch, name):
    """The block of every call of kronseq.analysis.<name>, from any kronseq
    module."""
    calls = []
    original = patch_everywhere(
        monkeypatch, name, lambda *a, **k: calls.append(a[0]) or original(*a, **k),
        kronseq.analysis)
    return calls


def test_batch_analyzes_and_classifies_each_block_once(monkeypatch, capsys):
    analyzed = count_calls(monkeypatch, "analyze")
    classified = count_calls(monkeypatch, "classify")
    monkeypatch.setattr(sys, "stdin", io.StringIO("1,2,5\n1,2,3\n1,2,2\nx\n2\n"))
    code, out, _ = run(capsys, ["batch", "-"])
    assert code == EXIT_OK and len(out.splitlines()) == 5
    blocks = [normalize_period(b) for b in ((1, 2, 5), (1, 2, 3), (1, 2, 2), (2,))]
    assert analyzed == blocks and classified == blocks


@pytest.mark.parametrize("argv", [
    ["verify", "1,2,5"], ["verify", "1,2,3"],
    ["analyze", "1,2,5", "--window", "300"], ["analyze", "1,2,2", "--window", "300"],
], ids=lambda argv: " ".join(argv))
def test_verify_and_analyze_window_analyze_once(monkeypatch, capsys, argv):
    # the oracle takes the analysis and verdict of the report, or classifies
    # from its own analysis
    analyzed = count_calls(monkeypatch, "analyze")
    classified = count_calls(monkeypatch, "classify")
    code, out, _ = run(capsys, argv)
    assert code in (EXIT_OK, EXIT_APERIODIC) and out
    assert len(analyzed) == 1 and len(classified) == 1


def test_build_report_finds_the_minimal_period_once(monkeypatch):
    # normalize_period finds it and builds the block without the
    # constructor's check, which would find it again
    calls = []
    minimal_period = kronseq.cf._minimal_period

    def counted(q):
        calls.append(q)
        return minimal_period(q)

    monkeypatch.setattr(kronseq.cf, "_minimal_period", counted)
    for block in [(1, 2, 3), (1, 2, 5), (2,), (1, 2, 1, 2), (3, 3, 3)]:
        calls.clear()
        build_report(block)
        assert calls == [block], block


def test_build_report_closed_form_matches_quad_irrational_of():
    # every minimal block with l <= 4 and quotients <= 5, l = 1 included
    blocks = [b for l in range(1, 5) for b in itertools.product(range(1, 6), repeat=l)
              if normalize_period(b).quotients == b]
    assert len(blocks) == 745
    for b in blocks:
        q = quad_irrational_of(normalize_period(b))
        assert build_report(b).quad == (q.P, q.D, q.Q), b


# ---------------------------------------------------------------------------
# argument errors end with an exit code, never a traceback

def run_to_exit(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    return code, out.err


def test_expand_count_below_one_is_usage_error(capsys):
    code, err = run_to_exit(capsys, ["expand", "1,2,3", "--count", "0"])
    assert code == EXIT_USAGE
    assert "--count" in err


def test_cascade_depth_below_one_is_usage_error(capsys):
    code, err = run_to_exit(capsys, ["cascade", "1,2,5", "--depth", "0"])
    assert code == EXIT_USAGE
    assert "--depth" in err


def test_precision_below_eight_is_parse_error(capsys):
    code, err = run_to_exit(capsys, ["analyze", "1,2,5", "--precision", "4"])
    assert code == EXIT_PARSE
    assert "--precision" in err


@pytest.mark.parametrize("argv", [["expand", "1,2,5"], ["cascade", "1,2,5"], ["verify", "1,2,3"]])
def test_precision_is_an_option_of_analyze_and_batch_only(capsys, argv):
    # the commands that print no U take no --precision, nor a prefix of it
    for flag in ("--precision", "--prec"):
        code, err = run_to_exit(capsys, [*argv, flag, "64"])
        assert code == EXIT_USAGE
        assert err.splitlines()[-1] == f"kronseq: error: unrecognized arguments: {flag} 64"


def test_non_decimal_digit_is_parse_error(capsys, monkeypatch):
    code, err = run_to_exit(capsys, ["analyze", "1,\u00b2"])
    assert code == EXIT_PARSE and err.startswith("parse error: ")
    monkeypatch.setattr("sys.stdin", io.StringIO("1,2,3\n1,\u00b2\n2\n"))
    code, out, _ = run(capsys, ["batch", "-"])
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.splitlines()]
    assert ["report" in r for r in records] == [True, False, True]
    assert records[1]["error"] == "expected a positive integer at position 2"


def test_any_package_error_maps_to_exit_2(capsys, monkeypatch):
    import kronseq.cli as cli

    def fail(*a, **k):
        raise NotCoprime("forced")

    monkeypatch.setattr(cli, "build_report", fail)
    code, err = run_to_exit(capsys, ["analyze", "1,2,3"])
    assert code == EXIT_PARSE
    assert "forced" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "1,2,3", "--window"],
    ["verify", "1,2,3", "--window"],
    ["verify", "1,2,3", "--max-period"],
])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_window_and_max_period_below_one_are_usage_errors(capsys, argv, value):
    code, err = run_to_exit(capsys, argv + [value])
    assert code == EXIT_USAGE
    assert argv[-1] in err


@pytest.mark.parametrize("argv", [
    ["expand", "1,2,3", "--count", "abc"],
    ["cascade", "1,2,5", "--depth", "x"],
    ["verify", "1,2,3", "--window", "1.5"],
])
def test_non_integer_counts_are_usage_errors(capsys, argv):
    code, err = run_to_exit(capsys, argv)
    assert code == EXIT_USAGE
    assert f"{argv[-2]}: expected an integer >= 1, got {argv[-1]!r}" in err


# ---------------------------------------------------------------------------
# nothing kept between calls

@pytest.mark.parametrize("argv", [
    ["cascade", "1,2,5", "--depth", "40", "--format", "json"],
    ["analyze", "1,2,3", "--window", "240"],
    ["verify", "1,2,5", "--window", "240"],
])
def test_repeated_calls_leave_no_reference_cycles(capsys, argv):
    import gc

    main(argv)  # warm-up: first-use imports
    gc.collect()
    for _ in range(8):
        main(argv)
    capsys.readouterr()
    assert gc.collect() == 0


# ---------------------------------------------------------------------------
# a fresh start: every call of the console script pays for its imports

def test_cli_start_imports_no_dataclasses_typing_json_or_csv():
    # against a bare start of the same interpreter, since a site hook may
    # import some of these before any kronseq code runs
    src = str(Path(kronseq.__file__).resolve().parents[1])

    def modules(code):
        done = subprocess.run(
            [sys.executable, "-I", "-c", f"import sys; {code}; print(*sys.modules)", src],
            capture_output=True, text=True, check=True, timeout=60)
        return set(done.stdout.split())

    bare = modules("pass")
    cli = modules("sys.path.insert(0, sys.argv[1]); import kronseq.cli; "
                  "kronseq.cli.build_parser()")
    assert "kronseq.cli" in cli
    added = cli - bare
    assert not added & {"dataclasses", "inspect", "typing", "json", "csv", "argparse",
                        "gettext", "locale", "shutil"}, sorted(added)


# ---------------------------------------------------------------------------
# every command in every format, pinned byte for byte

GOLDEN_BLOCKS = ("1,2,3", "1,2,5", "1,2,2", "2", "1")
GOLDEN_COMMANDS = (["expand"], ["analyze"], ["analyze", "--window", "300"],
                   ["cascade", "--depth", "6"], ["verify", "--window", "400"])
GOLDEN_BATCH = "# worked examples\n1,2,3\n1,2,5\n1,2,2\n2\n1\nnot-a-block\n"
GOLDEN_DIGEST = "9bc85856343df14487add8aef8273a8fa79a3f5beaf6260dc2404f61ea152884"


def golden_digest(capsys, monkeypatch):
    """SHA-256 over argv, exit code and stdout of 78 calls."""
    digest = hashlib.sha256()

    def record(argv):
        code, out, _ = run(capsys, argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}\0".encode())

    for fmt in ("text", "json", "csv"):
        for command in GOLDEN_COMMANDS:
            for block in GOLDEN_BLOCKS:
                record([command[0], block, *command[1:], "--format", fmt])
        monkeypatch.setattr("sys.stdin", io.StringIO(GOLDEN_BATCH))
        record(["batch", "-", "--format", fmt])
    return digest.hexdigest()


def test_golden_digest_of_every_command_and_format(capsys, monkeypatch):
    assert golden_digest(capsys, monkeypatch) == GOLDEN_DIGEST


def test_golden_digest_whatever_the_environment_holds(capsys, monkeypatch):
    # the output depends on argv and the input alone
    for value in ("4", "256"):
        monkeypatch.setenv("KRONSEQ_PRECISION", value)
        assert golden_digest(capsys, monkeypatch) == GOLDEN_DIGEST, value


# verify on long windows: four periodic seed-0 bench blocks, and four
# aperiodic ones with 96-192 falsified candidates each
LONG_WINDOW_BLOCKS = ("6,8,2,9,2,5", "3,3,2,9,6,3,4,7", "4,7,5,9,3,1",
                      "2,5,3,9,7,7,4,2", "6,5,2,6,5,3", "2,5,9,9,5,3,2,3",
                      "7,9,8,1,5,3", "9,5,6,5,4,2,1,9")
LONG_WINDOW_DIGEST = "81face7d7893333cdf287971a4929707f94d701aab34d759f02fd80f0d3b55ea"


def test_long_window_verify_digest(capsys, monkeypatch):
    # SHA-256 over argv, exit code and stdout of 16 calls
    digest = hashlib.sha256()
    for fmt in ("json", "text"):
        for block in LONG_WINDOW_BLOCKS:
            argv = ["verify", block, "--window", "1500", "--format", fmt]
            code, out, _ = run(capsys, argv)
            digest.update(f"{' '.join(argv)}\n{code}\n{out}\0".encode())
    assert digest.hexdigest() == LONG_WINDOW_DIGEST


# non-minimal inputs, whose text report carries the reduction note as its
# second line, and expand past ten rows, whose columns widen to two digits
REDUCED_BLOCKS = ("2,2", "1,2,1,2", "1,2,5,1,2,5")
REDUCED_COMMANDS = (["analyze"], ["analyze", "--window", "300"],
                    ["verify", "--window", "400"], ["expand", "--count", "12"])
REDUCED_BATCH = "# reduced inputs\n2,2\n1,2,1,2\n1,2,5,1,2,5\n"
REDUCED_DIGEST = "4dd9fcea5e6601969887327b4d5d7fbb863ce0b660b692f4ec41a0ccf7b5ead9"


def test_reduced_input_digest(capsys, monkeypatch):
    # SHA-256 over argv, exit code and stdout of 39 calls
    digest = hashlib.sha256()

    def record(argv):
        code, out, _ = run(capsys, argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}\0".encode())

    for fmt in ("text", "json", "csv"):
        for command in REDUCED_COMMANDS:
            for block in REDUCED_BLOCKS:
                record([command[0], block, *command[1:], "--format", fmt])
        monkeypatch.setattr("sys.stdin", io.StringIO(REDUCED_BATCH))
        record(["batch", "-", "--format", fmt])
    assert digest.hexdigest() == REDUCED_DIGEST


# every command and option in each form the command line takes (--opt
# value, --opt=value, a unique prefix, either side of the positional, "--",
# "-" for stdin, repeated), and the errors of missing, bad and unknown
# arguments: exit code (or SystemExit code), stdout and the last stderr
# line, pinned to what the argparse parser gave on Python 3.11
ARGV_OPTIONS = {"expand": ("--count",), "analyze": ("--window",), "cascade": ("--depth",),
                "verify": ("--window", "--max-period"), "batch": ()}
ARGV_VALUES = {"--count": ("5", "3"), "--window": ("80", "60"), "--depth": ("5", "3"),
               "--max-period": ("4", "8"), "--format": ("text", "json"),
               "--output": ("unused.txt", "-"), "--precision": ("256", "64")}
ARGV_DIGEST = "3a05ebd31900f47636f4b5596fb31958085f895b8c300c60fc009aed50ff2b04"


def argv_corpus():
    yield from ([], ["--format", "json", "analyze", "1,2"], ["bogus"], ["ver", "1,2,3"],
                ["--foo"], ["--foo", "analyze", "1,2"], ["-3"], ["--"],
                ["--", "verify", "1,2,3"], ["-w", "8", "verify", "1,2,3"])
    for command, own in ARGV_OPTIONS.items():
        block = {"cascade": "1,2,5", "batch": "-"}.get(command, "1,2,3")
        yield from ([command], [command, block], [command, "--", block], [command, block, "--"],
                    [command, "-"], [command, "-3"], [command, block, "extra"],
                    [command, block, "-w", "8"], [command, block, "--foo"],
                    [command, "--foo=1", block], [command, block, "-1,2"],
                    [command, block, "--=x"], [command, block, "--", "--format", "json"],
                    [command, "--", "--", block], [command, block, "--format", "xml"],
                    [command, "-x y"])
        for option in (*own, "--format", "--output", "--precision"):
            first, value = ARGV_VALUES[option]
            prefix = option[:5]
            yield from ([command, block, option, value], [command, f"{option}={value}", block],
                        [command, option, value, block], [command, block, prefix, value],
                        [command, f"{prefix}={value}", block],
                        [command, block, option, first, prefix, value],
                        [command, block, option], [command, block, option, "--format", "csv"],
                        [command, option, "--", block], [command, block, option, "-1,2"])
            for bad in ("0", "-3", "-3\n", "abc", "1.5", "") if option != "--output" else ("",):
                yield from ([command, block, option, bad], [command, block, f"{option}={bad}"])


def argv_digest():
    """SHA-256 over argv, exit code, stdout and the last stderr line of
    every call of argv_corpus, and the number of calls."""
    import contextlib

    digest, calls = hashlib.sha256(), 0
    for argv in argv_corpus():
        out, err = io.StringIO(), io.StringIO()
        saved, sys.stdin = sys.stdin, io.StringIO("1,2,3\n")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            sys.stdin = saved
        last = err.getvalue().splitlines()[-1:] or [""]
        digest.update(f"{argv!r}\n{code}\n{out.getvalue()}\n{last[0]}\0".encode())
        calls += 1
    return digest.hexdigest(), calls


def test_argv_digest_of_every_option_form_and_error(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    digest, calls = argv_digest()
    assert calls >= 300
    assert digest == ARGV_DIGEST
    assert not list(tmp_path.iterdir())  # every --output went to stdout
