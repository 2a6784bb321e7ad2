"""The records that only store their fields declare them as annotations,
and ``_Record`` binds each exactly once, by position or by name."""

import inspect
import re

import numpy as np
import pytest

import qcatalysis.cli  # noqa: F401  (defines RunConfig, a record too)
from qcatalysis import CatalysisReport, Certificate, DeletionFamilyPoint, WitnessRecord, ket
from qcatalysis.states import _Record

# each declared record with one value per field, in field order
DECLARED = [
    pytest.param(
        WitnessRecord, (ket("00"), ket("01"), 0.0, 1.0, np.zeros(2)), id="WitnessRecord"
    ),
    pytest.param(
        CatalysisReport,
        (None, (), True, True, "quantum_catalysis", None, None, False),
        id="CatalysisReport",
    ),
    pytest.param(DeletionFamilyPoint, (0.0, 0.5, 0.25 + 0.5j, 0.5), id="DeletionFamilyPoint"),
    pytest.param(Certificate, ("modulus_violation", (0, 2), 2.0**0.5), id="Certificate"),
]


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


@pytest.mark.parametrize("cls, values", DECLARED)
def test_positional_and_keyword_construction_bind_the_same_fields(cls, values):
    named = dict(zip(cls._fields, values))
    records = [
        cls(*values),
        cls(**named),
        cls(**dict(reversed(named.items()))),
        cls(*values[:2], **dict(list(named.items())[2:])),
    ]
    for record in records:
        assert all(got is want for got, want in zip(_values(record), values, strict=True))


# each misuse as (positional values, keywords) built from a full field tuple
MISUSES = {
    "missing positional": lambda names, values: (values[:-1], {}),
    "missing keyword": lambda names, values: ((), dict(zip(names[1:], values[1:]))),
    "extra": lambda names, values: ((*values, None), {}),
    "unknown": lambda names, values: (values[:-1], {"not_a_field": values[-1]}),
    "unknown beside all": lambda names, values: (values, {"not_a_field": None}),
    "repeated": lambda names, values: (values[:-1], {names[0]: values[0]}),
    "repeated beside all": lambda names, values: (values, {names[-1]: values[-1]}),
}


@pytest.mark.parametrize("misuse", MISUSES)
@pytest.mark.parametrize("cls, values", DECLARED)
def test_a_missing_extra_unknown_or_repeated_field_is_a_type_error(cls, values, misuse):
    args, kwargs = MISUSES[misuse](cls._fields, values)
    message = rf"^{cls.__name__} takes each of {re.escape(repr(cls._fields))} exactly once$"
    with pytest.raises(TypeError, match=message):
        cls(*args, **kwargs)


def _records(cls=_Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _records(sub)


def test_every_record_declares_its_fields_once():
    records = [cls for cls in _records() if cls.__module__.startswith("qcatalysis.")]
    assert len(records) == 14
    declared = set()
    for cls in records:
        assert cls._fields, cls
        if "__init__" in vars(cls):
            params = tuple(inspect.signature(cls.__init__).parameters)[1:]
            assert cls._fields == params, cls
        else:
            assert cls._fields == tuple(cls.__annotations__), cls
            declared.add(cls)
    assert declared == {p.values[0] for p in DECLARED}

