"""The records (Ring, Point, Slice, Check, PaperContext and the rest):
plain classes on poly._Record, not dataclasses, so that importing
lndkit loads neither the dataclasses module nor inspect.  Each keeps
what a frozen dataclass gave it: equality and hashing by class and
field tuple, Name(field=value, ...) reprs, keyword construction and
immutability."""

import copy
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import lndkit
from lndkit import (
    Check,
    DegreeSpread,
    MonomialOrder,
    Point,
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
    if name != "Derivation":  # which prints its images instead
        shown = ", ".join(f"{field}={value!r}" for field, value in zip(fields, values))
        assert repr(record) == f"{name}({shown})"


def test_record_reprs():
    assert repr(DegreeSpread(1, 6)) == "DegreeSpread(min=1, max=6)"
    assert repr(Check("alpha")) == "Check(name='alpha', witness=None)"
    assert repr(MonomialOrder.grlex()) == "MonomialOrder(kind='grlex', block=None)"
    assert repr(_tokenize("x^2")[1]) == "_Token(kind='^', text='^', pos=1)"
