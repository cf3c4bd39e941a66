"""Record types: value semantics of the plain `__slots__` classes, and a cold
import that stays free of `dataclasses` and `inspect`."""

import subprocess
import sys
from pathlib import Path

import pytest

import weylval
from weylval import DeclarationInconsistent, OmegaDescriptor, ParseError, Rat, ValueGroupElement
from weylval.descriptor import (
    GroupKind,
    InfiniteRule,
    IrrationalTerminal,
    OmegaStep,
    PairData,
    Violation,
)
from weylval.evaluate import CanonicalRef, LeadingData
from weylval.extension import ExtendViolation, GammaResolution, _Atom, _Record
from weylval.oracles import RoundtripReport, SampleReport
from weylval.orderings import ExtensionResult, OrderingDescriptor
from weylval.records import Record
from weylval.series import OrePoly, PuiseuxSeries, ZRule, ZTerminal

from conftest import WORKED_JSON

V1, V2 = ValueGroupElement(Rat(1, 2)), ValueGroupElement(Rat(0), 1, 0, Rat(1, 8))
P1, P2 = PuiseuxSeries(((Rat(0), Rat(1)),)), PuiseuxSeries(((Rat(0), Rat(2)),), Rat(3))
O1, O2 = OrderingDescriptor(0), OrderingDescriptor(0, True, -1, -1)
WORKED = OmegaDescriptor.from_json(WORKED_JSON)


def _step(i):
    return OmegaStep(1, 2**i, Rat(1))


def _entry(i):
    return (Rat(1), Rat(1))


# Each frozen record with the arguments of two unequal instances.
RECORDS = [
    (ValueGroupElement, (Rat(1), 0, 0, Rat(1)), (Rat(0), 1, 2, Rat(1, 8))),
    (OmegaStep, (1, 2, Rat(1)), (1, 2, Rat(4))),
    (IrrationalTerminal, (V1,), (V2,)),
    (
        InfiniteRule,
        ("halving", _step, GroupKind.TWO_DIVISIBLE, Rat(1)),
        ("halving", _step, GroupKind.TWO_DIVISIBLE, None),
    ),
    (PairData, (1, 2, 1, 2, 1), (1, 2, 2, 2, 1)),
    (Violation, ("StepShape", "step 1: n must be >= 1"), ("PrefixSum", "step 1: n must be >= 1")),
    (ExtendViolation, (2, (0, 1, 2), "detail"), (2, (0, 2, 1), "detail")),
    (GammaResolution, ((Rat(1), Rat(-1)), 2, 1, WORKED), ((Rat(1), Rat(-1)), 2, -1, WORKED)),
    (_Atom, (1, 0), (0, 1)),
    (_Record, (Rat(1), 3, (_Atom(1, 0),), None), (Rat(1), 3, (_Atom(1, 0),), 1)),
    (PuiseuxSeries, (P1.terms,), (P2.terms, P2.known_up_to)),
    (OrePoly, ((P1,),), ((P1, P2),)),
    (ZTerminal, (V1,), (V2,)),
    (ZRule, ("halving_to_one", _entry, Rat(1)), ("halving_to_one", _entry, Rat(2))),
    (CanonicalRef, (((0, 2),), 0, 0), (((0, 2),), 1, 0)),
    (LeadingData, (V1, Rat(1), ((1, 2),), 0, 1), (V1, Rat(-1), ((1, 2),), 0, 1)),
    (RoundtripReport, (3, ()), (3, ("x: 1 vs 2",))),
    (OrderingDescriptor, (0, True, 1, -1), (0, True, -1, -1)),
    (ExtensionResult, (None, O1), (None, O2)),
]


@pytest.mark.parametrize("cls, args, other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_values(cls, args, other):
    a, b, c = cls(*args), cls(*args), cls(*other)
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != c and not a == c
    assert {a, b, c} == {a, c} and len({a, b, c}) == 2
    # another type with the same fields, or the fields themselves, differ
    assert a != args and a != object()
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("cls, args, other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_repr_names_the_class_and_every_field(cls, args, other):
    record = cls(*args)
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls.__slots__)
    assert repr(record) == f"{cls.__name__}({fields})"


def test_record_classes_are_slotted_and_covered():
    """Every `Record` class keeps its instances without a `__dict__`, and
    `RECORDS` checks its value semantics."""
    classes = Record.__subclasses__()
    assert classes and all("__slots__" in vars(cls) and cls.__dictoffset__ == 0 for cls in classes)
    assert set(classes) == {r[0] for r in RECORDS}
    assert not hasattr(Record(), "__dict__")


class TestRecordConstruction:
    def test_keywords_and_defaults(self):
        assert OrderingDescriptor() == OrderingDescriptor(None, False, 1, 1)
        assert OrderingDescriptor(omega_index=0, omega_sign=-1) == OrderingDescriptor(0, False, -1)
        assert ValueGroupElement() == ValueGroupElement(Rat(0), 0, 0, Rat(1))
        assert ValueGroupElement(q=Rat(3, 2)) == ValueGroupElement(Rat(3, 2), 0, 0, Rat(1))
        assert ValueGroupElement(k_xi=1, xi_scale=Rat(1, 8)).xi_scale == Rat(1, 8)
        assert PuiseuxSeries(terms=()).known_up_to is None
        assert IrrationalTerminal(value=V2).value is V2
        assert ZTerminal(V1) != IrrationalTerminal(V1)

    def test_rational_values_carry_scale_one(self):
        value = ValueGroupElement(Rat(1), 0, 0, Rat(3))
        assert value.xi_scale == 1
        assert value == ValueGroupElement(Rat(1)) and hash(value) == hash(ValueGroupElement(Rat(1)))

    @pytest.mark.parametrize("scale", [Rat(0), Rat(-1, 8)])
    def test_non_positive_scale_is_refused(self, scale):
        for k_xi in (0, 1):
            with pytest.raises(ValueError, match="^xi_scale must be a positive rational$"):
                ValueGroupElement(Rat(0), k_xi, 0, scale)
        data = {"q": "0", "k_xi": 1, "scale": str(scale)}
        message = "^bad value object .*: xi_scale must be a positive rational$"
        with pytest.raises(ParseError, match=message):
            ValueGroupElement.from_json(data)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"omega_sign": -1}, "no omega slot to carry a -1 sign"),
            ({"terminal_sign": -1}, "no terminal slot to carry a -1 sign"),
            ({"omega_index": 0, "omega_sign": 2}, "ordering signs must be +1 or -1"),
        ],
    )
    def test_inconsistent_orderings_are_refused(self, kwargs, message):
        with pytest.raises(DeclarationInconsistent) as refused:
            OrderingDescriptor(**kwargs)
        assert str(refused.value) == message

    def test_gamma_resolution_equality_ignores_desc_and_deeper(self, halving):
        a = GammaResolution((Rat(1),), None, None, WORKED)
        b = GammaResolution((Rat(1),), None, None, halving, {5: Rat(1)})
        assert a == b and hash(a) == hash(b)
        assert a.deeper == {} and a.deeper is not GammaResolution((), None, None, WORKED).deeper

    def test_sample_reports_start_with_a_fresh_list(self):
        a, b = SampleReport(3), SampleReport(trials=3)
        a.violations.append({"kind": "square"})
        assert b.violations == [] and b.ok and not a.ok


def test_cold_import_loads_no_dataclasses_or_inspect():
    """`import weylval` and `import weylval.cli` in a fresh interpreter, with
    no site packages, import neither module: every CLI process pays for what
    the package imports."""
    src = str(Path(weylval.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import weylval, weylval.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'weylval.cli') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == ["weylval.cli"]
