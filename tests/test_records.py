"""The records (Ring, Point, Slice, Check, PaperContext and the rest):
plain classes on poly._Record, not dataclasses, so that importing
lndkit loads neither the dataclasses module nor inspect.  Each keeps
what a frozen dataclass gave it: equality and hashing by class and
field tuple, Name(field=value, ...) reprs, keyword construction and
immutability.  Polynomial, RingMap and LaurentElement share the base,
so no value of lndkit can be changed once built."""

import copy
import inspect
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import lndkit
from lndkit import (
    Check,
    DegreeSpread,
    LaurentElement,
    MonomialOrder,
    Point,
    Ring,
    RingMap,
    builtin_context,
    kernel_compute,
    random_suite,
    relation_ideal,
)
from lndkit.parse import _tokenize


def test_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys, lndkit, lndkit.cli\n"
        "lndkit.builtin_context()\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    package_root = pathlib.Path(lndkit.__file__).resolve().parents[1]
    # -S: no site hooks, so only lndkit's own imports are seen
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(package_root)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split() == ["[]"]


RECORDS = (
    "Ring",
    "DegreeSpread",
    "Point",
    "Derivation",
    "MonomialOrder",
    "RelationIdeal",
    "Slice",
    "SufficiencyCheck",
    "RelationCheck",
    "KernelCheckOutcome",
    "KernelComputeResult",
    "Check",
    "VerificationReport",
    "PaperContext",
    "_Token",
    "RingMap",
)


@pytest.fixture(scope="module")
def records(context):
    """One record of each class, by class name, from the bundled context
    and a kernel_compute result."""
    result = kernel_compute(context.quotient_derivation, context.quotient_slice)
    outcome = result.outcomes[0]
    report = random_suite(1, 1)
    x = context.generators[0]
    built = (
        context.ring,
        (x + context.generators[1]).weighted_degree(),
        Point(context.ring, (1, 2, 3, 4, 5)),
        context.derivation,
        MonomialOrder.elimination(2),
        relation_ideal([x, x**2]),
        context.kernel_slice,
        outcome.sufficiency[0],
        outcome.checks[0],
        outcome,
        result,
        report.checks[0],
        report,
        context,
        _tokenize("x^2")[0],
        context.quotient_map,
    )
    return {type(record).__name__: record for record in built}


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(records, name):
    record = records[name]
    cls = type(record)
    fields = cls._fields
    values = tuple(getattr(record, field) for field in fields)
    # keyword construction, as builtin_context builds its PaperContext
    arguments = inspect.signature(cls).parameters
    clone = cls(**{argument: getattr(record, argument) for argument in arguments})
    assert clone is not record
    assert clone == record and not clone != record
    assert hash(clone) == hash(record) == hash(values)
    # equality reads every field
    for field in fields:
        twin = copy.copy(record)
        vars(twin)[field] = object()
        assert twin != record and record != twin
    # a record of another class is unequal, even on equal fields
    for other in records.values():
        if other is not record:
            assert record != other and other != record
    subclass = type("Sub", (cls,), {})
    twin = subclass.__new__(subclass)
    vars(twin).update(vars(record))
    assert twin != record and record != twin
    # immutable
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None
    assert tuple(getattr(record, field) for field in fields) == values
    if name not in ("Derivation", "RingMap"):  # which print their images instead
        shown = ", ".join(f"{field}={value!r}" for field, value in zip(fields, values))
        assert repr(record) == f"{name}({shown})"


def test_record_reprs():
    assert repr(DegreeSpread(1, 6)) == "DegreeSpread(min=1, max=6)"
    assert repr(Check("alpha")) == "Check(name='alpha', witness=None)"
    assert repr(MonomialOrder.grlex()) == "MonomialOrder(kind='grlex', block=None)"
    assert repr(_tokenize("x^2")[1]) == "_Token(kind='^', text='^', pos=1)"


@pytest.mark.parametrize(
    "roundtrip",
    [copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["deepcopy", "pickle"],
)
def test_context_copies_compare_equal(roundtrip):
    # the context holds its two ring maps as fields, so it compares
    # equal only when ring maps compare by value
    context = builtin_context()
    twin = roundtrip(context)
    assert twin is not context
    assert twin == context and hash(twin) == hash(context)
    assert twin.quotient_map == context.quotient_map


def test_ring_map_cannot_be_changed():
    # the powers a map keeps must never outlive its images
    ring = Ring(("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    swap = RingMap(ring, ring, (y, x))
    assert swap(x**2) == y**2
    with pytest.raises(AttributeError):
        swap.images = (x + 1, y)
    with pytest.raises(AttributeError):
        del swap.images
    assert swap.images == (y, x) and swap(x**2) == y**2


def test_laurent_element_cannot_be_changed(context):
    ring = context.ring
    elem = LaurentElement(ring.var("s"), "x", 2)
    kept = {elem}
    for field in LaurentElement._fields:
        with pytest.raises(AttributeError):
            setattr(elem, field, 0)
        with pytest.raises(AttributeError):
            delattr(elem, field)
    assert elem in kept and elem.denom_power == 2
    assert pickle.loads(pickle.dumps(elem)) == elem == copy.deepcopy(elem)
    # an instance of a subclass is unequal, as for every record
    twin = type("Sub", (LaurentElement,), {})(ring.var("s"), "x", 2)
    assert twin != elem and elem != twin


def test_polynomial_cannot_be_changed():
    ring = Ring(("x", "y"))
    p = ring.var("x") * Fraction(1, 2) - ring.var("y")
    for name in ("ring", "_num", "_den"):
        with pytest.raises(AttributeError):
            delattr(p, name)
        with pytest.raises(AttributeError):
            setattr(p, name, None)
    # slotted: no instance dict, so no memory for one
    assert not hasattr(p, "__dict__")
    assert str(p) == "1/2*x - y"
