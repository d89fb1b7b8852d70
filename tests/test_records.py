"""The record contract every frozen structure keeps: equality and hashing by
class and fields, the Name(field=value, ...) repr, no assignment or deletion
of fields, and cached verdicts that stay out of equality and hashing."""

from functools import cached_property

import pytest

from relmon.lattice import FinLattice, lattice_from_order
from relmon.monoid import LaxMorphism, MonadCandidate, RelMonoid
from relmon.pam import CongruenceCandidate, OmlStructure, PartialAbelianMonoid, to_relmonoid
from relmon.rel import Carrier, FinRel
from relmon.report import CheckReport, cached_verdict
from relmon.search import EnumSpec


def chain2():
    c = Carrier(2)
    return FinRel(c, c, (0b11, 0b10))


def pam2():
    return PartialAbelianMonoid.from_cells(2, 0, [[0, 0, 0], [0, 1, 1], [1, 0, 1]])


# class -> (a function building a fresh instance, its repr)
CASES = {
    CheckReport: (
        lambda: CheckReport.failing("c", "unit", (0, 1), "missing", n=2),
        "CheckReport(check='c', ok=False, failed='unit', witness=(0, 1), "
        "message='missing', details={'n': 2})",
    ),
    Carrier: (
        lambda: Carrier(2, ("a", "b")),
        "Carrier(size=2, labels=('a', 'b'))",
    ),
    FinRel: (
        chain2,
        "FinRel(dom=Carrier(size=2, labels=None), cod=Carrier(size=2, labels=None), "
        "rows=(3, 2))",
    ),
    RelMonoid: (
        lambda: RelMonoid.make(1, [0], [[0, 0, 0]], ["e"]),
        "RelMonoid(carrier=Carrier(size=1, labels=('e',)), units=frozenset({0}), "
        "mult=frozenset({(0, 0, 0)}))",
    ),
    LaxMorphism: (
        lambda: LaxMorphism(RelMonoid.make(1, [0], [[0, 0, 0]]), RelMonoid.make(1, [0], []),
                            FinRel.identity(Carrier(1))),
        "LaxMorphism(src=RelMonoid(carrier=Carrier(size=1, labels=None), "
        "units=frozenset({0}), mult=frozenset({(0, 0, 0)})), "
        "dst=RelMonoid(carrier=Carrier(size=1, labels=None), units=frozenset({0}), "
        "mult=frozenset()), rel=FinRel(dom=Carrier(size=1, labels=None), "
        "cod=Carrier(size=1, labels=None), rows=(1,)))",
    ),
    MonadCandidate: (
        lambda: MonadCandidate(RelMonoid.make(1, [], []), FinRel.empty(Carrier(1), Carrier(1))),
        "MonadCandidate(base=RelMonoid(carrier=Carrier(size=1, labels=None), "
        "units=frozenset(), mult=frozenset()), order=FinRel(dom=Carrier(size=1, "
        "labels=None), cod=Carrier(size=1, labels=None), rows=(0,)))",
    ),
    FinLattice: (
        lambda: lattice_from_order(chain2()),
        "FinLattice(order=FinRel(dom=Carrier(size=2, labels=None), cod=Carrier(size=2, "
        "labels=None), rows=(3, 2)), meet=(0, 0, 0, 1), join=(0, 1, 1, 1))",
    ),
    PartialAbelianMonoid: (
        pam2,
        "PartialAbelianMonoid(carrier=Carrier(size=2, labels=None), zero=0, "
        "plus=(0, 1, 1, -1))",
    ),
    CongruenceCandidate: (
        lambda: CongruenceCandidate(pam2(), FinRel.identity(Carrier(2))),
        "CongruenceCandidate(base=PartialAbelianMonoid(carrier=Carrier(size=2, "
        "labels=None), zero=0, plus=(0, 1, 1, -1)), classes=FinRel(dom=Carrier(size=2, "
        "labels=None), cod=Carrier(size=2, labels=None), rows=(1, 2)))",
    ),
    OmlStructure: (
        lambda: OmlStructure(lattice_from_order(chain2()), (1, 0)),
        "OmlStructure(lattice=FinLattice(order=FinRel(dom=Carrier(size=2, labels=None), "
        "cod=Carrier(size=2, labels=None), rows=(3, 2)), meet=(0, 0, 0, 1), "
        "join=(0, 1, 1, 1)), ortho=(1, 0))",
    ),
    EnumSpec: (
        lambda: EnumSpec("congruence", 2, pam2(), False),
        "EnumSpec(kind='congruence', size=2, base=PartialAbelianMonoid(carrier=Carrier("
        "size=2, labels=None), zero=0, plus=(0, 1, 1, -1)), dedup=False)",
    ),
}


def fields(record, cls):
    """The values of the fields of record class cls, in declaration order."""
    return [getattr(record, name) for name in cls.__annotations__]


@cached_verdict
def cached_check(record):
    """A checker that passes every record, run once per instance."""
    return CheckReport.passing("cached")


def cache_everything(record):
    """Fill every cached_property of record, build a PAM's cached monoid and
    cache a verdict on it."""
    for name, attr in vars(type(record)).items():
        if isinstance(attr, cached_property):
            getattr(record, name)
    if isinstance(record, PartialAbelianMonoid):
        assert to_relmonoid(record) is vars(record)["to_relmonoid"]
    assert cached_check(record) is vars(record)["cached_check"]


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_records_compare_hash_and_print_by_class_and_fields(cls):
    build, text = CASES[cls]
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and b == a
    if cls is CheckReport:  # its details dict makes it unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a) == repr(b) == text

    twin_cls = type("Twin", (cls,), {"__annotations__": dict(cls.__annotations__)})
    twin = twin_cls(*fields(a, cls))
    assert fields(twin, cls) == fields(a, cls)
    assert a != twin and twin != a


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_records_are_frozen(cls):
    record = CASES[cls][0]()
    for name, value in zip(cls.__annotations__, fields(record, cls)):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_cached_verdicts_leave_equality_and_hash_alone(cls):
    build, text = CASES[cls]
    cached, fresh = build(), build()
    before = None if cls is CheckReport else hash(cached)
    cache_everything(cached)
    assert vars(cached).keys() > vars(fresh).keys()
    assert cached == fresh and fresh == cached
    if before is not None:
        assert hash(cached) == hash(fresh) == before
    assert repr(cached) == text
