"""JSON loaders reject malformed input with InputError, never another error.

JSON true and false are Python bools, and bool is a subclass of int, so an
isinstance check alone would load [[true, false]] as the pair (1, 0). A
relation field that is not a list of [a, b] lists (5, [5]) must be named as
such, not fail inside the loader with a TypeError.
"""

import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relmon.cli import main
from relmon.lattice import FinLattice
from relmon.monoid import LaxMorphism, MonadCandidate, RelMonoid
from relmon.pam import CongruenceCandidate, OmlStructure, PartialAbelianMonoid
from relmon.rel import FinRel, json_size
from relmon.report import InputError

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
TRIVIAL = {"carrier": 1, "units": [0], "mult": [[0, 0, 0]]}
NO_UNIT = {"carrier": 1, "units": [0], "mult": []}  # loads, but fails the unit axiom
CHAIN2_PAM = {"carrier": 2, "zero": 0, "plus": [[0, 0, 0], [0, 1, 1], [1, 0, 1]]}
MO2_OML = json.loads((SAMPLES / "mo2_oml.json").read_text())
MO2_SIM = SAMPLES / "mo2_identity_rel.json"
Z2 = json.loads((SAMPLES / "z2.json").read_text())
HUGE = 10**30

# (loader, JSON object, text naming the offending field, CLI argv with the
# file as "{}")
CASES = {
    "rel-pairs": (
        FinRel,
        {"dom": 2, "cod": 2, "pairs": [[True, False]]},
        "relation pair",
        ["check-dimeq", SAMPLES / "mo2_oml.json", "{}"],
    ),
    "monoid-units": (
        RelMonoid,
        {"carrier": 1, "units": [False], "mult": [[0, 0, 0]]},
        "field 'units'",
        ["check-monoid", "{}"],
    ),
    "monoid-units-beside-equal-int": (
        RelMonoid,
        {"carrier": 1, "units": [0, False], "mult": [[0, 0, 0]]},
        "field 'units'",
        ["check-monoid", "{}"],
    ),
    "monoid-mult": (
        RelMonoid,
        {"carrier": 1, "units": [0], "mult": [[0, False, 0]]},
        "field 'mult'",
        ["check-monoid", "{}"],
    ),
    "morphism-rel": (
        LaxMorphism,
        {"src": TRIVIAL, "dst": TRIVIAL, "rel": [[False, 0]]},
        "relation pair",
        ["check-morphism", "{}"],
    ),
    "morphism-src-units": (
        LaxMorphism,
        {"src": dict(TRIVIAL, units=[False]), "dst": TRIVIAL, "rel": [[0, 0]]},
        "field 'units'",
        ["check-adjoint", "{}"],
    ),
    "monad-order": (
        MonadCandidate,
        {"base": TRIVIAL, "order": [[0, False]]},
        "relation pair",
        ["check-monad", "{}"],
    ),
    "lattice-order": (
        FinLattice,
        {"carrier": 2, "order": [[False, True]]},
        "relation pair",
        ["check-lattice", "{}"],
    ),
    "pam-plus": (
        PartialAbelianMonoid,
        dict(CHAIN2_PAM, plus=CHAIN2_PAM["plus"] + [[1, False, True]]),
        "addition cell",
        ["check-pam", "{}"],
    ),
    "pam-zero": (
        PartialAbelianMonoid,
        dict(CHAIN2_PAM, zero=False),
        "field 'zero'",
        ["check-rdp", "{}"],
    ),
    "congruence-classes": (
        CongruenceCandidate,
        {"base": CHAIN2_PAM, "classes": [[0, 0], [True, True]]},
        "relation pair",
        ["check-congruence", "{}"],
    ),
    "congruence-base-plus": (
        CongruenceCandidate,
        {"base": dict(CHAIN2_PAM, plus=[[0, 0, 0], [0, True, 1], [1, 0, 1]]),
         "classes": [[0, 0], [1, 1]]},
        "addition cell",
        ["quotient", "{}"],
    ),
    "oml-ortho": (
        OmlStructure,
        dict(MO2_OML, ortho=[True] + MO2_OML["ortho"][1:]),
        "field 'ortho'",
        ["check-dimeq", "{}", MO2_SIM],
    ),
    "oml-lattice-order": (
        OmlStructure,
        dict(MO2_OML, lattice=dict(MO2_OML["lattice"], order=[[0, True]])),
        "relation pair",
        ["check-dimeq", "{}", MO2_SIM],
    ),
    "rel-pairs-item-not-a-list": (
        FinRel,
        {"dom": 2, "cod": 2, "pairs": [5]},
        "relation pair",
        ["check-dimeq", SAMPLES / "mo2_oml.json", "{}"],
    ),
    "morphism-rel-not-a-list": (
        LaxMorphism,
        {"src": TRIVIAL, "dst": TRIVIAL, "rel": 5},
        "relation pair",
        ["check-morphism", "{}"],
    ),
    "morphism-rel-item-not-a-list": (
        LaxMorphism,
        {"src": TRIVIAL, "dst": TRIVIAL, "rel": [5]},
        "relation pair",
        ["check-adjoint", "{}"],
    ),
    "monad-order-not-a-list": (
        MonadCandidate,
        {"base": TRIVIAL, "order": 5},
        "relation pair",
        ["check-monad", "{}"],
    ),
    "lattice-order-item-not-a-list": (
        FinLattice,
        {"carrier": 2, "order": [[0, 1], 5]},
        "relation pair",
        ["check-lattice", "{}"],
    ),
    "congruence-classes-not-a-list": (
        CongruenceCandidate,
        {"base": CHAIN2_PAM, "classes": 5},
        "relation pair",
        ["check-congruence", "{}"],
    ),
    "congruence-classes-item-not-a-list": (
        CongruenceCandidate,
        {"base": CHAIN2_PAM, "classes": [[0, 0], 5]},
        "relation pair",
        ["quotient", "{}"],
    ),
    "lattice-order-pair-text": (
        FinLattice,
        {"carrier": 2, "order": [["not a lattice"]]},
        "relation pair",
        ["check-lattice", "{}"],
    ),
    "lattice-order-not-a-lattice": (
        FinLattice,
        {"carrier": 2, "order": []},
        "field 'order': not a lattice",
        ["check-qa", "{}"],
    ),
    "lattice-carrier-empty": (
        FinLattice,
        {"carrier": 0, "order": []},
        "field 'carrier': a lattice needs at least one element",
        ["check-lattice", "{}"],
    ),
    "lattice-carrier-empty-qa": (
        FinLattice,
        {"carrier": 0, "order": []},
        "field 'carrier': a lattice needs at least one element",
        ["check-qa", "{}"],
    ),
    "oml-lattice-order-not-a-lattice": (
        OmlStructure,
        dict(MO2_OML, lattice={"carrier": 2, "order": []}),
        "field 'order': not a lattice",
        ["check-dimeq", "{}", MO2_SIM],
    ),
    # a carrier whose n x n table cannot be indexed is named, not overflowed
    "lattice-carrier-huge": (
        FinLattice,
        {"carrier": HUGE, "order": []},
        "field 'carrier'",
        ["check-lattice", "{}"],
    ),
    "lattice-carrier-huge-qa": (
        FinLattice,
        {"carrier": HUGE, "order": []},
        "field 'carrier'",
        ["check-qa", "{}"],
    ),
    "monoid-carrier-huge": (
        RelMonoid,
        dict(TRIVIAL, carrier=HUGE),
        "field 'carrier'",
        ["check-monoid", "{}"],
    ),
    "pam-carrier-huge": (
        PartialAbelianMonoid,
        dict(CHAIN2_PAM, carrier=HUGE),
        "field 'carrier'",
        ["check-pam", "{}"],
    ),
    "congruence-base-carrier-huge": (
        CongruenceCandidate,
        {"base": dict(CHAIN2_PAM, carrier=HUGE), "classes": []},
        "field 'base': field 'carrier'",
        ["check-congruence", "{}"],
    ),
    "morphism-src-carrier-huge": (
        LaxMorphism,
        {"src": dict(TRIVIAL, carrier=HUGE), "dst": TRIVIAL, "rel": []},
        "field 'src': field 'carrier'",
        ["check-morphism", "{}"],
    ),
    "enumerate-base-carrier-huge": (
        PartialAbelianMonoid,
        dict(CHAIN2_PAM, carrier=HUGE),
        "field 'carrier'",
        ["enumerate", "--kind", "congruence", "--base", "{}"],
    ),
    # so is a relation whose dom or cod is too large to index
    "rel-dom-huge": (
        FinRel,
        {"dom": HUGE, "cod": 1, "pairs": []},
        "field 'dom' must be a size whose n x n table can be indexed",
        ["check-dimeq", SAMPLES / "mo2_oml.json", "{}"],
    ),
    "rel-cod-huge": (
        FinRel,
        {"dom": 2, "cod": 10**23, "pairs": []},
        "field 'cod' must be a size whose n x n table can be indexed",
        ["check-dimeq", SAMPLES / "mo2_oml.json", "{}"],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_from_json_rejects_bool_indices(case):
    loader, obj, field, _ = CASES[case]
    with pytest.raises(InputError, match=field):
        loader.from_json(json.loads(json.dumps(obj)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_exits_2_on_bool_indices(case, tmp_path, capsys):
    _, obj, field, argv = CASES[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    code = main([str(path) if a == "{}" else str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


# One valid object per from_json entry point; the fuzz test below replaces
# one field, one list item or the whole object with arbitrary JSON.
VALID = {
    FinRel: {"dom": 2, "cod": 2, "pairs": [[0, 1], [1, 1]]},
    RelMonoid: Z2,
    LaxMorphism: {"src": Z2, "dst": TRIVIAL, "rel": [[0, 0], [1, 0]]},
    MonadCandidate: {"base": Z2, "order": [[0, 0], [1, 1]]},
    FinLattice: {"carrier": 2, "order": [[0, 0], [0, 1], [1, 1]]},
    PartialAbelianMonoid: dict(CHAIN2_PAM, labels=["0", "a"]),
    CongruenceCandidate: {"base": CHAIN2_PAM, "classes": [[0, 0], [1, 1]]},
    OmlStructure: MO2_OML,
}

# Small integers only, so that no drawn size allocates a large carrier.
ANY_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.sampled_from([0.0, 1.0, -1.5])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def paths(value, prefix=()):
    """Every position in a JSON value, the whole value first."""
    yield prefix
    if isinstance(value, (dict, list)):
        keys = value if isinstance(value, dict) else range(len(value))
        for k in keys:
            yield from paths(value[k], prefix + (k,))


def replaced(value, path, new):
    if not path:
        return new
    out = value.copy()
    out[path[0]] = replaced(value[path[0]], path[1:], new)
    return out


@pytest.mark.parametrize("loader", list(VALID), ids=lambda c: c.__name__)
def test_from_json_loads_or_raises_input_error(loader):
    valid = VALID[loader]
    loader.from_json(valid)

    @given(st.sampled_from(list(paths(valid))), ANY_JSON)
    def check(path, new):
        try:
            loader.from_json(replaced(valid, path, new))
        except InputError:
            pass

    check()


# A relation embedded in a larger object: the error names its field.
FIELD_ERRORS = {
    "morphism-rel": (
        LaxMorphism,
        {"src": TRIVIAL, "dst": TRIVIAL, "rel": [[0, 1]]},
        "field 'rel': relation pair (0, 1) out of range",
    ),
    "monad-order": (
        MonadCandidate,
        {"base": TRIVIAL, "order": {"dom": 1, "cod": 1, "pairs": [[0, 0]]}},
        "field 'order': relation pairs must be a list of [a, b] pairs, not dict",
    ),
    "lattice-order": (
        FinLattice,
        {"carrier": 2, "order": [[0, 1], [1, True]]},
        "field 'order': relation pair [1, True] must hold integers",
    ),
    "congruence-classes": (
        CongruenceCandidate,
        {"base": CHAIN2_PAM, "classes": [[0, 0], [1, 1], [0, 2]]},
        "field 'classes': relation pair (0, 2) out of range",
    ),
}


@pytest.mark.parametrize("case", sorted(FIELD_ERRORS))
def test_embedded_relation_errors_name_the_field(case):
    loader, obj, message = FIELD_ERRORS[case]
    with pytest.raises(InputError) as info:
        loader.from_json(json.loads(json.dumps(obj)))
    assert str(info.value) == message


# A negative size fails the loader's integer check, which names the field.
NEGATIVE_SIZES = {
    "monoid-carrier": (
        RelMonoid,
        dict(TRIVIAL, carrier=-1),
        "field 'carrier' must be a nonnegative integer size",
    ),
    "pam-carrier": (
        PartialAbelianMonoid,
        dict(CHAIN2_PAM, carrier=-1),
        "field 'carrier' must be a nonnegative integer size",
    ),
    "lattice-carrier": (
        FinLattice,
        {"carrier": -1, "order": []},
        "field 'carrier' must be a nonnegative integer size",
    ),
    "rel-dom": (
        FinRel,
        {"dom": -1, "cod": 2, "pairs": []},
        "field 'dom' must be a nonnegative integer size",
    ),
    "rel-cod": (
        FinRel,
        {"dom": 2, "cod": -1, "pairs": []},
        "field 'cod' must be a nonnegative integer size",
    ),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_SIZES))
def test_negative_sizes_name_the_field(case):
    loader, obj, message = NEGATIVE_SIZES[case]
    with pytest.raises(InputError) as info:
        loader.from_json(obj)
    assert str(info.value) == message


def test_carrier_bound_is_the_largest_indexable_table():
    side = math.isqrt(sys.maxsize)
    assert json_size(side) == side
    with pytest.raises(InputError) as info:
        json_size(side + 1)
    assert str(info.value) == "field 'carrier' must be a size whose n x n table can be indexed"


# Labels and orthocomplements that fail the carrier's checks: the error
# names the field, and the CLI exits 2 with it.
FIELD_VALUE_ERRORS = {
    "monoid-labels-short": (
        RelMonoid,
        dict(Z2, labels=["a"]),
        "field 'labels': carrier has 2 elements but 1 labels",
        ["check-monoid", "{}"],
    ),
    "monoid-labels-repeated": (
        RelMonoid,
        dict(Z2, labels=["a", "a"]),
        "field 'labels': carrier labels must be distinct",
        ["check-monoid", "{}"],
    ),
    "pam-labels-short": (
        PartialAbelianMonoid,
        dict(CHAIN2_PAM, labels=["a"]),
        "field 'labels': carrier has 2 elements but 1 labels",
        ["check-pam", "{}"],
    ),
    "pam-labels-repeated": (
        PartialAbelianMonoid,
        dict(CHAIN2_PAM, labels=["a", "a"]),
        "field 'labels': carrier labels must be distinct",
        ["check-rdp", "{}"],
    ),
    "oml-ortho-short": (
        OmlStructure,
        dict(MO2_OML, ortho=MO2_OML["ortho"][:1]),
        "field 'ortho': orthocomplement lists 1 values for 6 elements",
        ["check-dimeq", "{}", MO2_SIM],
    ),
    "oml-ortho-out-of-range": (
        OmlStructure,
        dict(MO2_OML, ortho=[6] + MO2_OML["ortho"][1:]),
        "field 'ortho': orthocomplement of 0 is 6, out of range",
        ["check-dimeq", "{}", MO2_SIM],
    ),
}


@pytest.mark.parametrize("case", sorted(FIELD_VALUE_ERRORS))
def test_label_and_ortho_errors_name_the_field(case, tmp_path, capsys):
    loader, obj, message, argv = FIELD_VALUE_ERRORS[case]
    with pytest.raises(InputError) as info:
        loader.from_json(obj)
    assert str(info.value) == message
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert main([str(path) if a == "{}" else str(a) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# Every loader's message for a non-object and for each missing field, by the
# name the message gives the structure and the fields in the order checked.
SHAPE_ERRORS = {
    FinRel: ("relation", ("dom", "cod", "pairs")),
    RelMonoid: ("monoid", ("carrier", "units", "mult")),
    LaxMorphism: ("morphism", ("src", "dst", "rel")),
    MonadCandidate: ("monad candidate", ("base", "order")),
    FinLattice: ("lattice", ("carrier", "order")),
    PartialAbelianMonoid: ("partial monoid", ("carrier", "zero", "plus")),
    CongruenceCandidate: ("congruence", ("base", "classes")),
    OmlStructure: ("orthomodular lattice", ("lattice", "ortho")),
}


@pytest.mark.parametrize("loader", list(SHAPE_ERRORS), ids=lambda c: c.__name__)
def test_from_json_names_non_objects_and_missing_fields(loader):
    what, keys = SHAPE_ERRORS[loader]
    assert set(keys) <= set(VALID[loader])
    for bad in ([], None, 3, "x"):
        with pytest.raises(InputError) as info:
            loader.from_json(bad)
        assert str(info.value) == f"{what} JSON must be an object"
    for key in keys:
        obj = {k: v for k, v in VALID[loader].items() if k != key}
        with pytest.raises(InputError) as info:
            loader.from_json(obj)
        assert str(info.value) == f"{what} JSON missing field {key!r}"
    with pytest.raises(InputError) as info:
        loader.from_json({})
    assert str(info.value) == f"{what} JSON missing field {keys[0]!r}"


# Indices out of range and nested structures that fail their own loader: the
# error names the field and keeps the constructor's or inner loader's text.
INDEX_AND_NESTED_ERRORS = {
    "monoid-units-out-of-range": (
        RelMonoid,
        {"carrier": 2, "units": [3], "mult": []},
        "field 'units': unit index 3 out of range for carrier size 2",
        ["check-monoid", "{}"],
    ),
    "monoid-mult-out-of-range": (
        RelMonoid,
        {"carrier": 2, "units": [0], "mult": [[0, 0, 9]]},
        "field 'mult': mult triple (0, 0, 9) out of range for carrier size 2",
        ["check-monoid", "{}"],
    ),
    "pam-zero-out-of-range": (
        PartialAbelianMonoid,
        {"carrier": 3, "zero": 5, "plus": []},
        "field 'zero': zero index 5 out of range for size 3",
        ["check-pam", "{}"],
    ),
    "pam-plus-out-of-range": (
        PartialAbelianMonoid,
        {"carrier": 3, "zero": 0, "plus": [[1, 1, 7]]},
        "field 'plus': addition cell (1, 1, 7) out of range",
        ["check-pam", "{}"],
    ),
    "pam-plus-conflict": (
        PartialAbelianMonoid,
        {"carrier": 3, "zero": 0, "plus": [[1, 1, 1], [1, 1, 2]]},
        "field 'plus': conflicting values 1 and 2 for cell (1, 1)",
        ["check-pam", "{}"],
    ),
    "pam-plus-text": (
        PartialAbelianMonoid,
        {"carrier": 3, "zero": 0, "plus": [["a", 0, 0]]},
        "field 'plus': addition cell (a, 0, 0) out of range",
        ["check-rdp", "{}"],
    ),
    "congruence-base-not-an-object": (
        CongruenceCandidate,
        {"base": 5, "classes": []},
        "field 'base': partial monoid JSON must be an object",
        ["check-congruence", "{}"],
    ),
    "congruence-base-empty": (
        CongruenceCandidate,
        {"base": {}, "classes": []},
        "field 'base': partial monoid JSON missing field 'carrier'",
        ["quotient", "{}"],
    ),
    "morphism-src-not-an-object": (
        LaxMorphism,
        {"src": 5, "dst": TRIVIAL, "rel": []},
        "field 'src': monoid JSON must be an object",
        ["check-morphism", "{}"],
    ),
    "morphism-dst-empty": (
        LaxMorphism,
        {"src": TRIVIAL, "dst": {}, "rel": []},
        "field 'dst': monoid JSON missing field 'carrier'",
        ["check-adjoint", "{}"],
    ),
    "morphism-src-not-a-monoid": (
        LaxMorphism,
        {"src": NO_UNIT, "dst": NO_UNIT, "rel": [[0, 0]]},
        "field 'src': not a relational monoid: monoid-axioms: FAIL clause=right-unit "
        "witness=(0,) element 0 has no right unit",
        ["check-morphism", "{}"],
    ),
    "morphism-dst-not-a-monoid": (
        LaxMorphism,
        {"src": TRIVIAL, "dst": NO_UNIT, "rel": [[0, 0]]},
        "field 'dst': not a relational monoid: monoid-axioms: FAIL clause=right-unit "
        "witness=(0,) element 0 has no right unit",
        ["check-adjoint", "{}"],
    ),
    "monad-base-not-an-object": (
        MonadCandidate,
        {"base": 5, "order": []},
        "field 'base': monoid JSON must be an object",
        ["check-monad", "{}"],
    ),
    "oml-lattice-empty": (
        OmlStructure,
        {"lattice": {}, "ortho": []},
        "field 'lattice': lattice JSON missing field 'carrier'",
        ["check-dimeq", "{}", MO2_SIM],
    ),
}


@pytest.mark.parametrize("case", sorted(INDEX_AND_NESTED_ERRORS))
def test_index_and_nested_errors_name_the_field(case, tmp_path, capsys):
    loader, obj, message, argv = INDEX_AND_NESTED_ERRORS[case]
    with pytest.raises(InputError) as info:
        loader.from_json(obj)
    assert str(info.value) == message
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert main([str(path) if a == "{}" else str(a) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
