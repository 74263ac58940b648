"""Command line interface: expand | analyze | cascade | verify | batch.

Exit codes are a stable contract:
  0  periodic classification / agreement / plain success
  1  usage errors (including cascade on a periodic block, --count,
     --depth, --window or --max-period below 1, a verify window too short
     for the periods it checks, a "-" block or a batch input that cannot
     be read or decoded, an --output path or a stdout that cannot be
     written or cannot encode the text, a missing stdin or stdout among
     them, and any command line the parser rejects)
  2  parse errors (including a --precision below 8), and any other
     package error
  3  aperiodic classification (analyze)
  4  oracle mismatch (verify)

Each failure that main catches is one line on stderr, and one table,
FAILURES, maps its type to the exit code and the prefix of that line; a
command line the parser rejects is a usage line and one error line.  A
standard stream that is missing (its descriptor was closed when the
process started) is a stream that fails: a missing stdin cannot be read
(``cannot read -: ...``, exit 1), a missing stdout, help included, cannot
be written (``cannot write stdout: ...``, exit 1), and a missing or
failing stderr drops the line and keeps the exit code.  The standard
streams are touched only by :func:`_read`, :func:`_emit` and
:func:`_say`.

Each subcommand computes its result once and returns its exit code with
one zero-argument renderer per --format; main calls the chosen renderer
and writes its text once.

JSON is compact with sorted keys, and one writer makes all of it: f-string
templates whose keys are already in sorted order, so the bytes are those
the sorting encoder (``json.dumps(obj, sort_keys=True, separators=(",",
":"))``) writes for the same object.  ``cascade`` and ``expand`` fill one
template per step or term inside a fixed frame; ``cascade`` fills it
straight from the steps of its classification, and only its text and CSV
renderers build rows.  A report (``analyze``, ``batch``) is one
template that writes its classification in place and nests those of its
printed pairs and its oracle section, and ``verify`` writes the oracle's
alone.  Every value in them is an int, a bool, null, the decimal string
of an int or a fixed token ("+1", "-1", "*", a kind name), so nothing
needs escaping.  The one user text, a ``batch`` record's input line and
error message, goes through ``json.encoder.encode_basestring_ascii``,
which is what ``json.dumps`` writes for a str.  ``report_to_dict`` is
the parse of ``report_to_json``, and ``report_from_dict`` and
``report_from_json`` are the reader.  A template builds no dict per row
and sorts no keys, which is most of what the sorting encoder costs on a
long ``cascade`` or ``expand``.

The integers that grow with the input (the quotients, U and u, quad, the
precision, the printed pairs, and the k_j of a cascade, a report's
depth-8 one included, and its multiples) are written by ``cf._str`` and
read by ``cf._int``, which convert past the int-to-str digit limit of
Python 3.11+ piecewise, so that no call reads or sets that process-wide
limit.  ``expand`` converts its columns once, when it builds its rows,
for all three renderers; ``cascade`` converts each k_j and multiple in
the one renderer that runs.  The small bounded ints (L, m, e, r, v2(t),
windows, periods, the index k of a printed pair or term, a first
critical index or witness) stay in f-strings.

Every call of the ``kronseq`` command starts a fresh interpreter, and that
start costs a hundred times what a typical call computes, so importing
this module loads only what every call needs.  ``json`` loads on first
use, inside the functions that use it: the report readers and a
``batch`` record's user text.  CSV is written without the ``csv`` module
(:func:`_csv`, tested against ``csv.writer``), which costs more per row
than joining the cells.  The records are plain classes on
``_record.Record``, not dataclasses, so neither ``dataclasses`` nor
``inspect`` nor ``typing`` loads.  The command line is read from one
table, COMMANDS, by a small parser that takes and rejects what the
standard library's parser, built from the same table, did, with the same
last error line, and that loads no module (the standard one loads
``gettext``, ``locale`` and ``shutil``).
"""

from __future__ import annotations

import errno
import io
import os
import sys
from types import SimpleNamespace

from ._record import Record, _set
from .analysis import (Aperiodic, Classification, DEFAULT_DEPTH,
                       DEFAULT_PRECISION, MIN_PRECISION, PeriodAnalysis,
                       Periodic2L, PeriodicL, analyze, classify)
from .cf import (_int, _quad_irrational, _str, _v2, iter_convergent_pairs,
                 normalize_period)
from .errors import (KronseqError, NotAperiodic, OracleMismatch, ParseError,
                     WindowTooShort)
from .oracle import DEFAULT_WINDOW, PeriodReport, cross_check
from .symbols import STAR, _sequences

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_APERIODIC = 3
EXIT_MISMATCH = 4


class _UsageError(Exception):
    """An input, --output path or stdout that cannot be used."""


# failure type -> (exit code, prefix of its stderr line), most specific first
FAILURES = (
    (ParseError, EXIT_PARSE, "parse error: "),
    (_UsageError, EXIT_USAGE, ""),
    ((NotAperiodic, WindowTooShort), EXIT_USAGE, "error: "),
    (OracleMismatch, EXIT_MISMATCH, "oracle mismatch: "),
    (KronseqError, EXIT_PARSE, "error: "),  # any other package error
)


def parse_block(text: str) -> tuple[int, ...]:
    """Parse block notation: comma-separated positive integers, with
    optional surrounding brackets.  An error names the position in
    ``text`` where the bad token starts, or where its empty chunk does;
    the position is worked out only when the error is raised."""
    s = text.strip()
    if not s:
        raise ParseError("empty block", position=0)
    if s.startswith("[") and s.endswith("]"):
        if not s[1:-1].strip():
            raise ParseError("empty block", position=text.index(s) + 1)
        s = s[1:-1]
    out = []
    for chunk in s.split(","):
        token = chunk.strip()
        if not token.isdecimal() or (a := _int(token)) < 1:
            # s starts at the first non-space of text, or one past its "["
            whole, i = text.strip(), len(out)
            at = (text.index(whole) + (s != whole) + sum(map(len, s.split(",")[:i])) + i
                  + (chunk.index(token) if token else 0))
            raise ParseError(f"expected a positive integer at position {at}", position=at)
        out.append(a)
    return tuple(out)


class ConvergentDetail(Record):
    __slots__ = ("k", "s", "t", "v2_t")

    def __init__(self, k: int, s: int, t: int, v2_t: int):
        _set(self, "k", k)
        _set(self, "s", s)
        _set(self, "t", t)
        _set(self, "v2_t", v2_t)


class AnalysisReport(Record):
    __slots__ = ("block", "reduced", "quad", "analysis", "critical",
                 "subcritical", "classification", "oracle")

    def __init__(self, block: tuple[int, ...], reduced: bool,
                 quad: tuple[int, int, int], analysis: PeriodAnalysis,
                 critical: tuple[ConvergentDetail, ...],
                 subcritical: tuple[ConvergentDetail, ...],
                 classification: Classification,
                 oracle: PeriodReport | None = None):
        _set(self, "block", block)
        _set(self, "reduced", reduced)
        _set(self, "quad", quad)
        _set(self, "analysis", analysis)
        _set(self, "critical", critical)
        _set(self, "subcritical", subcritical)
        _set(self, "classification", classification)
        _set(self, "oracle", oracle)


def build_report(block, precision=DEFAULT_PRECISION, window=None) -> AnalysisReport:
    cf = normalize_period(block)
    # one walk gives the analysis, the columns of D(l) for the closed form,
    # the printed pairs and the cascade's seeds
    analysis = analyze(cf, precision)
    verdict = classify(cf, analysis=analysis)
    (s1, s2, t1, t2), _, pairs = analysis.walk
    q = _quad_irrational(s1, t1, s2, t2)
    # pairs holds the critical and subcritical indices, and most blocks have none
    critical, subcritical = [
        tuple([ConvergentDetail(k, s, t, _v2(t)) for k in indices for s, t in [pairs[k]]])
        for indices in (analysis.critical_indices, analysis.subcritical_indices)
    ] if pairs else ((), ())
    oracle = cross_check(cf, window=window, analysis=analysis, verdict=verdict) if window else None
    return AnalysisReport(cf.quotients, cf.reduced, (q.P, q.D, q.Q), analysis, critical,
                          subcritical, verdict, oracle)


# ---------------------------------------------------------------------------
# serialization

def _ints(values) -> str:
    """A JSON array of ints."""
    return f"[{','.join(map(_str, values))}]"


def _csv(header, rows) -> str:
    """The text ``csv.writer`` writes for the header and rows, whose cells
    are str, int or bool, each row at least two cells long: cells joined
    by commas, each row ending in CRLF, and a cell quoted, its quotes
    doubled, only when it holds a comma, a quote, CR or LF.  (csv also
    quotes an empty cell that is a row's only cell, which never arises.)"""
    lines = []
    for row in (header, *rows):
        cells = list(map(str, row))
        line = ",".join(cells)
        if line.count(",") >= len(cells) or '"' in line or "\r" in line or "\n" in line:
            line = ",".join(_quoted(cell) for cell in cells)
        lines.append(line)
    lines.append("")
    return "\r\n".join(lines)


def _quoted(cell):
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


_KIND = {PeriodicL: "periodic-L", Periodic2L: "periodic-2L", Aperiodic: "aperiodic"}
_KIND_TYPE = {kind: cls for cls, kind in _KIND.items()}


def sym_str(v):
    return "*" if v == STAR else "+1" if v == 1 else "-1"


_BOOL = {False: "false", True: "true"}


def _classification_from_dict(d) -> Classification:
    cls = _KIND_TYPE[d["kind"]]
    fields = {name: value for name, value in d.items() if name != "kind"}
    if cls is Aperiodic:
        fields["cascade"] = tuple((k, r) for k, r in fields["cascade"])
    return cls(**fields)


def _details_json(items) -> str:
    return ",".join([f'{{"k":{c.k},"s":"{_str(c.s)}","t":"{_str(c.t)}","v2_t":{c.v2_t}}}'
                     for c in items])


def _detail_from_dict(d):
    return ConvergentDetail(d["k"], _int(d["s"]), _int(d["t"]), d["v2_t"])


def _oracle_json(o: PeriodReport) -> str:
    falsified = ",".join([f"[{p},[{i},{j}]]" for p, (i, j) in o.falsified_periods])
    period = "null" if o.empirical_period is None else o.empirical_period
    return (f'{{"agreement":{_BOOL[o.verdict_agreement]},"empirical_period":{period},'
            f'"falsified":[{falsified}],"window":{o.window_length}}}')


def _oracle_from_dict(d):
    if d is None:
        return None
    return PeriodReport(
        window_length=d["window"],
        empirical_period=d["empirical_period"],
        falsified_periods=tuple((p, (i, j)) for p, (i, j) in d["falsified"]),
        verdict_agreement=d["agreement"],
    )


def report_from_dict(d: dict) -> AnalysisReport:
    analysis = PeriodAnalysis(
        period=d["L"],
        m=d["m"],
        U=tuple(tuple(_int(x) for x in row) for row in d["U"]),
        e=d["e"],
        critical_indices=tuple(c["k"] for c in d["critical"]),
        subcritical_indices=tuple(c["k"] for c in d["subcritical"]),
        precision=d["precision"],
        certified=d["certified"],
    )
    return AnalysisReport(
        block=tuple(d["block"]),
        reduced=d["reduced"],
        quad=(_int(d["quad"]["P"]), _int(d["quad"]["D"]), _int(d["quad"]["Q"])),
        analysis=analysis,
        critical=tuple(_detail_from_dict(c) for c in d["critical"]),
        subcritical=tuple(_detail_from_dict(c) for c in d["subcritical"]),
        classification=_classification_from_dict(d["classification"]),
        oracle=_oracle_from_dict(d["oracle"]),
    )


def report_to_json(rep: AnalysisReport) -> str:
    """The report as compact JSON with sorted keys.  Most reports print no
    pair and no oracle (no ``batch`` report has one), so an empty list
    and the absent oracle are written as literal text."""
    a, c = rep.analysis, rep.classification
    (x, y), (u, v) = a.U
    P, D, Q = rep.quad
    kind = _KIND[type(c)]
    if isinstance(c, Aperiodic):
        steps = ",".join([f"[{_str(k)},{r}]" for k, r in c.cascade])
        verdict = f'{{"cascade":[{steps}],"first_critical":{c.first_critical},"kind":"{kind}"}}'
    elif isinstance(c, Periodic2L):
        verdict = f'{{"kind":"{kind}","period":{c.period},"witness":{c.witness}}}'
    else:
        verdict = f'{{"kind":"{kind}","period":{c.period}}}'
    return (f'{{"L":{a.period},"U":[["{_str(x)}","{_str(y)}"],["{_str(u)}","{_str(v)}"]],'
            f'"block":{_ints(rep.block)},"certified":{_BOOL[a.certified]},'
            f'"classification":{verdict},'
            f'"critical":[{_details_json(rep.critical) if rep.critical else ""}],"e":{a.e},'
            f'"l":{len(rep.block)},"m":{a.m},'
            f'"oracle":{"null" if rep.oracle is None else _oracle_json(rep.oracle)},'
            f'"precision":{_str(a.precision)},'
            f'"quad":{{"D":"{_str(D)}","P":"{_str(P)}","Q":"{_str(Q)}"}},'
            f'"reduced":{_BOOL[rep.reduced]},'
            f'"subcritical":[{_details_json(rep.subcritical) if rep.subcritical else ""}]}}')


def report_to_dict(rep: AnalysisReport) -> dict:
    """The report as the JSON object :func:`report_to_json` writes."""
    import json

    return json.loads(report_to_json(rep), parse_int=_int)


def report_from_json(text: str) -> AnalysisReport:
    import json

    return report_from_dict(json.loads(text, parse_int=_int))


def _details_text(items):
    return "; ".join(f"k={c.k}: s={_str(c.s)}, t={_str(c.t)}, v2(t)={c.v2_t}"
                     for c in items) or "(none)"


def report_to_text(rep: AnalysisReport) -> str:
    a, c = rep.analysis, rep.classification
    u16 = [[x % 16 for x in row] for row in a.U]
    P, D, Q = rep.quad
    if isinstance(c, PeriodicL):
        verdict = f"purely periodic, period {c.period}"
    elif isinstance(c, Periodic2L):
        verdict = f"purely periodic, period {c.period} (doubled), witness k={c.witness}"
    else:
        steps = " ".join(f"({_str(k)},{r})" for k, r in c.cascade)
        verdict = f"aperiodic, first critical k={c.first_critical}; cascade {steps}"
    lines = [
        f"block            [{','.join(map(_str, rep.block))}]  (length {len(rep.block)})",
        f"value            ({_str(P)} + sqrt({_str(D)})) / {_str(Q)}",
        f"L                {a.period}  (certified Jacobi period: {'yes' if a.certified else 'no'})",
        f"m                {a.m}",
        f"e                {a.e}",
        f"u                {_str(a.u)}  (mod 2^{_str(a.precision)})",
        f"U mod 16         {u16}",
        f"critical         {_details_text(rep.critical)}",
        f"subcritical      {_details_text(rep.subcritical)}",
        f"classification   {verdict}",
    ]
    if rep.reduced:
        lines.insert(1, "note             input block was reduced to its minimal period")
    if rep.oracle:
        o = rep.oracle
        lines.append(f"oracle           window {o.window_length}, empirical period "
                     f"{o.empirical_period}, agreement {o.verdict_agreement}")
    return "\n".join(lines)


def report_to_csv(rep: AnalysisReport) -> str:
    a = rep.analysis
    c = rep.classification
    header = ["block", "l", "P", "D", "Q", "L", "m", "e", "u", "certified",
              "classification", "period", "witness", "first_critical",
              "critical", "subcritical", "cascade"]
    row = [
        " ".join(map(_str, rep.block)), len(rep.block), *map(_str, rep.quad),
        a.period, a.m, a.e, _str(a.u), a.certified,
        _KIND[type(c)],
        getattr(c, "period", ""),
        getattr(c, "witness", ""),
        getattr(c, "first_critical", ""),
        " ".join(str(d.k) for d in rep.critical),
        " ".join(str(d.k) for d in rep.subcritical),
        " ".join(f"{_str(k)}:{r}" for k, r in getattr(c, "cascade", ())),
    ]
    return _csv(header, [row])


def _table_text(header, rows) -> str:
    """Columns right-justified to their widest entry, two spaces apart."""
    cells = [list(map(str, row)) for row in [header, *rows]]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "\n".join("  ".join(v.rjust(w) for v, w in zip(row, widths)) for row in cells)


# ---------------------------------------------------------------------------
# streams: the standard streams and the files of --output and batch are
# read and written here only

def _std(name):
    """sys.stdin, sys.stdout or sys.stderr, by name.  A missing one (None:
    its descriptor was closed when the process started) raises the
    OSError that a closed descriptor gives."""
    if (stream := getattr(sys, name)) is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return stream


def _write(name, text):
    """Write text to stdout or stderr, by name, and flush it; a missing or
    failing stream raises OSError.  When the process's own stream fails,
    its descriptor is pointed at the null device, so that the flush at
    exit cannot fail again (a failed write stays in the buffer)."""
    stream = _std(name)
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        if stream is getattr(sys, f"__{name}__"):
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        raise


def _emit(text, output=None):
    """Write text and a final newline to the path output, if any, else to
    stdout; a path or stdout that cannot take it, or whose encoding cannot
    hold it, is a usage error."""
    if not text.endswith("\n"):
        text += "\n"
    try:
        if not output:
            return _write("stdout", text)
        with open(output, "w") as fh:
            fh.write(text)
    except (OSError, UnicodeEncodeError) as exc:
        raise _UsageError(f"cannot write {output or 'stdout'}: {exc}") from exc


def _say(text):
    """Write text to stderr.  A stderr that is missing or fails drops it,
    so that the exit code stays the one documented for the failure."""
    try:
        _write("stderr", text)
    except OSError:
        pass


def _read(path):
    """The text at path, stdin for "-"; a path that cannot be read or
    decoded is a usage error.  stdin's bytes are decoded in its encoding
    as a file's are, strictly and with universal newlines, not with the
    ``surrogateescape`` handler Python gives stdin in the C locale; a text
    stdin with no bytes under it (``io.StringIO``) is read as text."""
    try:
        if path == "-":
            stream = _std("stdin")
            if (buffer := getattr(stream, "buffer", None)) is None:
                return stream.read()
            return io.TextIOWrapper(io.BytesIO(buffer.read()), stream.encoding).read()
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands

def _read_block_arg(arg):
    return parse_block(_read(arg) if arg == "-" else arg)


def cmd_expand(args):
    cf = normalize_period(_read_block_arg(args.block))
    n = args.count
    jac, rec, kro = _sequences(cf, n)
    rows = [(k, _str(s), _str(t), sym_str(jac[k]), sym_str(rec[k]), sym_str(kro[k]))
            for k, (s, t) in zip(range(n), iter_convergent_pairs(cf))]
    header = ("k", "s", "t", "jacobi", "reciprocal_jacobi", "kronecker")

    def to_json():
        data = ",".join([f'{{"jacobi":"{jac}","k":{k},"kronecker":"{kro}",'
                         f'"reciprocal_jacobi":"{rec}","s":"{s}","t":"{t}"}}'
                         for k, s, t, jac, rec, kro in rows])
        return f'{{"block":{_ints(cf.quotients)},"count":{n},"rows":[{data}]}}'

    return EXIT_OK, {"text": lambda: _table_text(header, rows), "json": to_json,
                     "csv": lambda: _csv(header, rows)}


def cmd_analyze(args):
    rep = build_report(_read_block_arg(args.block), precision=args.precision,
                       window=args.window)
    code = EXIT_APERIODIC if isinstance(rep.classification, Aperiodic) else EXIT_OK
    return code, {"text": lambda: report_to_text(rep),
                  "json": lambda: report_to_json(rep),
                  "csv": lambda: report_to_csv(rep)}


def cmd_cascade(args):
    cf = normalize_period(_read_block_arg(args.block))
    analysis = analyze(cf)
    verdict = classify(cf, args.depth, analysis)
    if not isinstance(verdict, Aperiodic):
        raise NotAperiodic(f"{cf} has a periodic Kronecker sequence; no cascade")
    period = analysis.period

    def rows():
        return [(j, _str(k), r, _str(period << r + 1))
                for j, (k, r) in enumerate(verdict.cascade, start=1)]

    def to_text():
        lines = [f"base period L = {period}"]
        for j, k, r, multiple in rows():
            lines.append(f"j={j}: k={k}, r={r}, falsifies periods dividing "
                         f"2^{r + 1}*L = {multiple}")
        return "\n".join(lines)

    def to_json():
        steps = ",".join([f'{{"falsified_period_multiple":{_str(period << r + 1)},"j":{j},'
                          f'"k":{_str(k)},"r":{r}}}'
                          for j, (k, r) in enumerate(verdict.cascade, start=1)])
        return f'{{"L":{period},"block":{_ints(cf.quotients)},"cascade":[{steps}]}}'

    return EXIT_OK, {"text": to_text, "json": to_json,
                     "csv": lambda: _csv(("j", "k", "r", "falsified_period_multiple"), rows())}


def cmd_verify(args):
    cf = normalize_period(_read_block_arg(args.block))
    report = cross_check(cf, window=args.window, max_period=args.max_period)
    row = (report.window_length, report.empirical_period,
           len(report.falsified_periods), report.verdict_agreement)
    labels = ("window", "empirical period", "falsified periods", "agreement")
    header = ("window", "empirical_period", "falsified_count", "agreement")
    return EXIT_OK, {
        "text": lambda: "\n".join(f"{label:<18}{v}" for label, v in zip(labels, row)),
        "json": lambda: _oracle_json(report),
        "csv": lambda: _csv(header, [["" if v is None else v for v in row]]),
    }


def cmd_batch(args):
    records, precision = [], args.precision
    for lineno, raw in enumerate(_read(args.input).splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        try:
            records.append((lineno, line, build_report(parse_block(line), precision), None))
        except KronseqError as exc:
            records.append((lineno, line, None, str(exc)))

    def to_text():
        return "\n\n".join(f"# line {lineno}: {line}\n"
                           + (report_to_text(rep) if rep else f"error: {err}")
                           for lineno, line, rep, err in records)

    def to_json():  # input and error are user text, escaped as json.dumps escapes a str
        from json.encoder import encode_basestring_ascii as quote

        return "\n".join([
            f'{{"input":{quote(line)},"line":{lineno},"report":{report_to_json(rep)}}}'
            if rep else
            f'{{"error":{quote(err)},"input":{quote(line)},"line":{lineno}}}'
            for lineno, line, rep, err in records])

    def to_csv():
        rows = []
        for lineno, line, rep, err in records:
            if rep is None:
                rows.append([lineno, line, "", "", "", "", "", err])
            else:
                c, a = rep.classification, rep.analysis
                rows.append([lineno, line, _KIND[type(c)], getattr(c, "period", ""),
                             a.period, a.m, a.e, ""])
        return _csv(["line", "input", "classification", "period", "L", "m", "e", "error"], rows)

    return EXIT_OK, {"text": to_text, "json": to_json, "csv": to_csv}


# ---------------------------------------------------------------------------
# argument parsing

class _ArgError(Exception):
    """A command line that COMMANDS does not take; the parser prints a
    usage line and the error, and exits with EXIT_USAGE."""


def _count(raw, name):
    """raw as an int of at least 1; anything else is a usage error."""
    try:
        if (value := _int(raw)) >= 1:
            return value
    except ValueError:
        pass
    raise _ArgError(f"argument {name}: expected an integer >= 1, got {raw!r}")


def _precision(raw, name):
    """raw as an int of at least MIN_PRECISION; anything else is a
    ParseError (exit 2), which the parser lets through to main."""
    try:
        if (value := _int(raw)) >= MIN_PRECISION:
            return value
    except ValueError:
        pass
    raise ParseError(f"invalid {name}: {raw!r} (need an integer >= {MIN_PRECISION})")


def _choice(raw, name, choices=("text", "json", "csv")):
    if raw not in choices:
        raise _ArgError(f"argument {name}: invalid choice: {raw!r} "
                        f"(choose from {', '.join(map(repr, choices))})")
    return raw


def _common(fmt="text"):
    return {"--format": (_choice, fmt, "{text,json,csv}", "output format"),
            "--output": (lambda raw, name: None if raw == "-" else raw, None, "PATH", "file")}


# the two commands that print U and u mod 2^precision
_PRECISION = {"--precision": (_precision, DEFAULT_PRECISION, "PRECISION",
                              f"2-adic bits, >= {MIN_PRECISION}")}

_BLOCK = ("block", 'e.g. "1,2,3" or "[1,2,3]"; "-" reads stdin')

# command -> (function, help, (positional, help), options), and option ->
# (reader, default, metavar, help); the parser stores an option's value
# under its name without the dashes, with "_" for "-"
COMMANDS = {
    "expand": (cmd_expand, "convergents and their symbol sequences", _BLOCK,
               {"--count": (_count, 10, "COUNT", "terms to print"), **_common()}),
    "analyze": (cmd_analyze, "full period analysis and classification", _BLOCK,
                {"--window": (_count, None, "WINDOW", "also run the oracle"),
                 **_common(), **_PRECISION}),
    "cascade": (cmd_cascade, "witness cascade of an aperiodic block", _BLOCK,
                {"--depth": (_count, DEFAULT_DEPTH, "DEPTH", "cascade steps"), **_common()}),
    "verify": (cmd_verify, "cross-check classification on a symbol window", _BLOCK, {
        "--window": (_count, None, "WINDOW",
                     f"oracle window length (default: {DEFAULT_WINDOW} or more)"),
        "--max-period": (_count, None, "MAX_PERIOD", "largest period tested"), **_common()}),
    "batch": (cmd_batch, "analyze one block per input line",  # machine records by default
              ("input", 'one block per line, "#" comments; "-" reads stdin'),
              {**_common("json"), **_PRECISION}),
}
_TOP = (None, "Kronecker symbol sequences of purely periodic continued fractions: convergents,\n"
        "period analysis, aperiodicity certificates.", ("command", "one of the commands below"), {})


def _classify(arg, options):
    """How the standard library's parser read an argument up to the first
    "--", given the options besides -h and --help: "-" for that "--", "A"
    for a positional or a value, else (option, its "=" value or None), with
    option None if unknown.  Like that parser, it reads a long option from
    any unique prefix, -h from "-h" and what follows, and an unknown "-..."
    as a value if it looks like a negative number or has a space."""
    if arg[:1] != "-" or arg in ("-", "--"):
        return "-" if arg == "--" else "A"
    head, eq, tail = arg.partition("=")
    if head in options or head in ("-h", "--help"):  # -h's value drops leading h's: -hh is -h -h
        return head, (tail.lstrip("h") or None) if head == "-h" and tail else tail if eq else None
    found = [(name, tail if eq else None) for name in ("--help", *options) if name.startswith(
        head)] if arg[1] == "-" else [("-h", arg[2:].lstrip("h") or None)] * (arg[:2] == "-h")
    if len(found) > 1:
        raise _ArgError(f"ambiguous option: {arg} could match {', '.join(dict(found))}")
    # a negative number (^-\d+$|^-\d*\.\d+$) or a space makes a value
    whole, dot, frac = arg[1:-1 if arg[-1] == "\n" else None].partition(".")
    number = frac.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()
    return found[0] if found else "A" if number or " " in arg else (None, None)


class CommandLine:
    """The parser of :func:`main`, read from COMMANDS: it takes and rejects
    what the standard library's parser of the same table did, with the
    same last error line, and loads no module."""

    def format_help(self, command=None, error=None):
        """The help of the command, or of kronseq and every command; with an
        error, its usage line and the error line instead."""
        _, about, (positional, text), options = COMMANDS[command] if command else _TOP
        prog = f"kronseq {command}" if command else "kronseq"
        last = positional if command else f"{{{','.join(COMMANDS)}}} ..."
        parts = "".join(f" [{name} {spec[2]}]" for name, spec in options.items())
        usage = f"usage: {prog} [-h]{parts} {last}\n"
        rows = [(positional, text), ("-h, --help", "show this help"), *[
            (f"{name} {metavar}", text if default is None else f"{text} (default {default})")
            for name, (_, default, metavar, text) in options.items()]]
        return f"{usage}{prog}: error: {error}\n" if error else "\n".join([usage, about, "", *[
            f"  {name:<26}{text}" for name, text in rows], "",
            *(() if command else map(self.format_help, COMMANDS))])

    def parse_args(self, argv=None):
        """The namespace of argv (sys.argv[1:] by default): the command's
        function as ``func``, its positional and each option's value.  A
        bad command line raises SystemExit(EXIT_USAGE) after a usage line
        and the error, and -h or --help SystemExit(EXIT_OK) after help."""
        return self._read(None, sys.argv[1:] if argv is None else list(argv), [])

    def _read(self, command, argv, extras):
        """Read argv left to right as the standard library's parser did:
        each option and its value, converted at once, the positional (with
        a "--" just before or after it), and the rest into extras, which
        the top level rejects.  With no command this is the top level,
        whose positional is the command: it reads all that follows."""
        func, _, (positional, _), options = COMMANDS[command] if command else _TOP
        values = {name[2:].replace("-", "_"): spec[1] for name, spec in options.items()}
        values["func"], i, kinds = func, 0, []
        try:
            for arg in argv:  # all first, so an ambiguous option fails before any value
                kinds.append("A" if "-" in kinds else _classify(arg, options))
                if not command and kinds[-1] in ("A", "-"):
                    break  # the top level reads up to the command
            while i < len(argv):
                kind, arg, i = kinds[i], argv[i], i + 1
                if positional not in values and (kind == "A" or kind == "-" and i < len(argv)):
                    if not command:  # at the top: the command reads the rest
                        args = self._read(_choice(arg, "command", COMMANDS), argv[i:], extras)
                        if extras:
                            raise _ArgError(f"unrecognized arguments: {' '.join(extras)}")
                        return args
                    if kind == "A":  # a "--" just before or after the positional is passed over
                        values[positional], i = arg, i + (kinds[i:i + 1] == ["-"])
                elif kind in ("A", "-") or kind[0] is None:
                    extras.append(arg)
                elif kind[0] in ("-h", "--help") and kind[1] is not None:
                    raise _ArgError(f"argument -h/--help: ignored explicit argument {kind[1]!r}")
                elif kind[0] in ("-h", "--help"):
                    _emit(self.format_help(command))
                    raise SystemExit(EXIT_OK)
                else:
                    name, value = kind
                    if value is None:
                        if kinds[i:i + 1] != ["A"]:
                            raise _ArgError(f"argument {name}: expected one argument")
                        value, i = argv[i], i + 1
                    values[name[2:].replace("-", "_")] = options[name][0](value, name)
            if positional not in values:
                raise _ArgError(f"the following arguments are required: {positional}")
        except _ArgError as exc:
            _say(self.format_help(command, exc))
            raise SystemExit(EXIT_USAGE) from None
        return SimpleNamespace(**values)


def build_parser() -> CommandLine:
    """The parser of :func:`main`."""
    return CommandLine()


def main(argv=None) -> int:
    """Run the command line argv (sys.argv[1:] by default) and return its
    exit code.  Each failure it catches is one stderr line, whose prefix
    and exit code FAILURES gives; a command line the parser rejects, and
    help, raise SystemExit instead."""
    try:
        args = build_parser().parse_args(argv)
        code, render = args.func(args)
        _emit(render[args.format](), args.output)
        return code
    except (KronseqError, _UsageError) as exc:
        code, prefix = next(entry[1:] for entry in FAILURES if isinstance(exc, entry[0]))
        _say(f"{prefix}{exc}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
