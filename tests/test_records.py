"""The records behave as the frozen dataclasses they replaced."""

import copy
import inspect
import pickle

import pytest

from kronseq import (Aperiodic, Convergent, ConvergentMatrix, PeriodAnalysis,
                     Periodic2L, PeriodicCF, PeriodicL, PeriodReport,
                     QuadIrrational, analyze, normalize_period)
from kronseq.cli import AnalysisReport, ConvergentDetail

ANALYSIS = analyze(normalize_period((1, 2, 5)))  # with a walk
DETAIL = ConvergentDetail(7, 975, 668, 2)
VERDICT = Aperiodic(7, ((7, 0), (19, 1)))
ORACLE = PeriodReport(600, None, ((1, (7, 31)), (2, (7, 31))), True)

# each record, with a non-default value in every defaulted field, the
# defaults, and the repr a frozen dataclass wrote for it
RECORDS = [
    (normalize_period((1, 2, 1, 2)), {"reduced": False},
     "PeriodicCF(quotients=(1, 2), reduced=True)"),
    (Convergent(2, 16, 11), {}, "Convergent(k=2, s=16, t=11)"),
    (ConvergentMatrix(4, 54, 19, 37, 13, 256), {"modulus": None},
     "ConvergentMatrix(k=4, s=54, s_prev=19, t=37, t_prev=13, modulus=256)"),
    (QuadIrrational(7, 82, 11), {}, "QuadIrrational(P=7, D=82, Q=11)"),
    (ANALYSIS, {"walk": None},
     "PeriodAnalysis(period=12, m=2, U=((23553, 4401), (16137, 3015)), e=0, "
     "critical_indices=(7,), subcritical_indices=(1,), precision=128, certified=False)"),
    (PeriodicL(6), {}, "PeriodicL(period=6)"),
    (Periodic2L(24, 5), {}, "Periodic2L(period=24, witness=5)"),
    (VERDICT, {}, "Aperiodic(first_critical=7, cascade=((7, 0), (19, 1)))"),
    (ORACLE, {},
     "PeriodReport(window_length=600, empirical_period=None, "
     "falsified_periods=((1, (7, 31)), (2, (7, 31))), verdict_agreement=True)"),
    (DETAIL, {}, "ConvergentDetail(k=7, s=975, t=668, v2_t=2)"),
    (AnalysisReport((1, 2, 5), False, (7, 82, 11), ANALYSIS, (DETAIL,), (),
                    VERDICT, ORACLE), {"oracle": None},
     "AnalysisReport(block=(1, 2, 5), reduced=False, quad=(7, 82, 11), "
     "analysis=PeriodAnalysis(period=12, m=2, U=((23553, 4401), (16137, 3015)), "
     "e=0, critical_indices=(7,), subcritical_indices=(1,), precision=128, "
     "certified=False), critical=(ConvergentDetail(k=7, s=975, t=668, v2_t=2),), "
     "subcritical=(), classification=Aperiodic(first_critical=7, "
     "cascade=((7, 0), (19, 1))), oracle=PeriodReport(window_length=600, "
     "empirical_period=None, falsified_periods=((1, (7, 31)), (2, (7, 31))), "
     "verdict_agreement=True))"),
]


def values(record):
    return [getattr(record, name) for name in type(record).__match_args__]


@pytest.mark.parametrize("record, defaults, text", RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_record_semantics(record, defaults, text):
    cls = type(record)
    fields = cls.__match_args__
    assert fields == tuple(inspect.signature(cls).parameters)
    assert repr(record) == text

    for other, _, _ in RECORDS:
        assert (record == other) == (other is record)
    assert record != tuple(values(record)) and tuple(values(record)) != record

    by_position = cls(*values(record))
    by_keyword = cls(**dict(zip(fields, values(record))))
    for twin in (by_position, by_keyword):
        assert values(twin) == values(record)
        assert twin == record and hash(twin) == hash(record)
    bare = cls(**{f: v for f, v in zip(fields, values(record)) if f not in defaults})
    assert {f: getattr(bare, f) for f in defaults} == defaults
    # reduced and walk stay out of equality and hashing, modulus and oracle do not
    if cls in (PeriodicCF, PeriodAnalysis):
        assert bare == record and hash(bare) == hash(record)
    else:
        assert (bare == record) == (not defaults)

    class Lookalike(cls):  # another type with the same fields and values
        __slots__ = ()

    lookalike = Lookalike(*values(record))
    assert repr(lookalike) == text.replace(cls.__name__, Lookalike.__qualname__, 1)
    assert lookalike != record != lookalike

    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text

    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                 copy.copy(record)):
        assert type(twin) is cls and values(twin) == values(record)
        assert twin == record and hash(twin) == hash(record)

    match record:
        case cls(first):
            assert first is getattr(record, fields[0])
        case _:
            pytest.fail(f"{cls.__name__} does not match its class pattern")
    match record:
        case PeriodicL() if cls is not PeriodicL:
            pytest.fail("a record matched the class pattern of another type")
