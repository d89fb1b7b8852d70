"""Partial abelian monoids, congruences, quotients, orthomodular structures."""

import itertools
from collections import Counter

import pytest

import oracles
from relmon import catalog
from relmon.laws import _orthocomplementations
from relmon.monoid import (
    LaxMorphism,
    _square_witness,
    from_poset_quotients,
    induced_monad,
    interval_monoid,
)
from relmon.pam import (
    CongruenceCandidate,
    OmlStructure,
    PartialAbelianMonoid,
    adjoint_induces_c1c2c5,
    canonical_order,
    check_congruence,
    check_pam_axioms,
    has_rdp,
    is_cancellative,
    is_dimension_equivalence,
    is_effect_algebra,
    is_gea,
    is_positive,
    oml_as_effect_algebra,
    pam_from_relmonoid,
    quotient_map_is_left_adjoint,
    quotient_pam,
    to_relmonoid,
    validate_oml,
    _decomposition_witness,
)
from relmon.rel import Carrier, FinRel, class_map, class_partition, kernel
from relmon.report import InputError, PreconditionError
from relmon.search import (
    _equivalence_rows,
    _gen_congruences,
    _gen_pams,
    _pool,
    _pool_upto,
    _preorders,
)


def pam(size, zero, cells, labels=None):
    return PartialAbelianMonoid.from_cells(size, zero, cells, labels)


def equiv_from_blocks(n, blocks):
    pairs = [(a, b) for blk in blocks for a in blk for b in blk]
    return FinRel.from_pairs(Carrier(n), Carrier(n), pairs)


def unit_cells(n):
    return [(a, 0, a) for a in range(n)] + [(0, a, a) for a in range(1, n)]


B22 = catalog.boolean22_pam()
DIAMOND = catalog.diamond_pam()


# -- construction and validation ---------------------------------------------


def test_from_cells_rejects_conflicts():
    with pytest.raises(InputError, match="conflicting"):
        pam(2, 0, [(0, 0, 0), (0, 0, 1)])


def test_from_cells_rejects_out_of_range():
    with pytest.raises(InputError, match="out of range"):
        pam(2, 0, [(0, 0, 2)])
    with pytest.raises(InputError, match="zero index"):
        PartialAbelianMonoid(Carrier(2), 2, (0, 1, 1, -1))
    with pytest.raises(InputError, match="cells"):
        PartialAbelianMonoid(Carrier(2), 0, (0, 1, 1))


# cells that are neither -1 nor an element of a 3-element carrier
BAD_CELLS = [True, 1.0, "1", None, -2, 3]


@pytest.mark.parametrize("k", range(len(BAD_CELLS)))
def test_a_bad_table_names_its_first_bad_cell(k):
    # the message names the first bad cell, wherever it stands
    bad, other = BAD_CELLS[k], BAD_CELLS[k - 1]
    cases = [({i: bad}, i) for i in (0, 4, 8)] + [({2: bad, 6: other}, 2)]
    for cells, i in cases:
        table = [cells.get(j, c) for j, c in enumerate(catalog.chain_pam(3).plus)]
        with pytest.raises(InputError) as err:
            PartialAbelianMonoid(Carrier(3), 0, tuple(table))
        assert str(err.value) == f"table cell ({i // 3}, {i % 3}) holds {bad!r}, out of range"


@pytest.mark.parametrize("n", range(1, 6))
def test_to_json_plus_is_the_cells_and_caches_nothing(n):
    for p in _gen_pams(n, False):
        plus = p.to_json()["plus"]
        assert "cells" not in vars(p)
        assert plus == [[a, b, c] for a, b, c in p.cells]


def test_cells_round_trip_table():
    p = catalog.chain_pam(3)
    assert p.plus == (0, 1, 2, 1, 2, -1, 2, -1, -1)
    assert p.cells == ((0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1), (1, 1, 2), (2, 0, 2))


# -- axioms --------------------------------------------------------------------


def test_chain_pams_satisfy_axioms():
    for n in range(1, 7):
        assert check_pam_axioms(catalog.chain_pam(n)).ok


def test_axioms_p3_witness():
    rep = check_pam_axioms(pam(2, 0, [(0, 0, 0)]))
    assert rep.failed == "P3"
    assert rep.witness == (1,)


def test_axioms_p2_witness():
    # 1+2 defined without 2+1
    rep = check_pam_axioms(pam(3, 0, unit_cells(3) + [(1, 2, 0)]))
    assert rep.failed == "P2"
    assert rep.witness == (1, 2)


def test_axioms_p1_witness():
    # 1+(2+2) lands on 1+1 but 1+2 itself is undefined
    rep = check_pam_axioms(pam(3, 0, unit_cells(3) + [(1, 1, 2), (2, 2, 1)]))
    assert rep.failed == "P1"
    assert rep.witness == (1, 2, 2)


def test_axiom_report_matches_cell_scan():
    # every table on at most 2 points with either zero, then every table on
    # 3 points whose zero row is the identity; the whole report must agree
    tables = [
        (n, zero, values)
        for n in range(1, 3)
        for zero in range(n)
        for values in itertools.product(range(-1, n), repeat=n * n)
    ]
    tables += [
        (3, 0, (0, 1, 2) + rest) for rest in itertools.product(range(-1, 3), repeat=6)
    ]
    clauses = Counter()
    for n, zero, values in tables:
        p = PartialAbelianMonoid(Carrier(n, tuple("zab"[:n])), zero, values)
        rep = check_pam_axioms(p)
        assert rep.to_json() == oracles.pam_axioms_report(p).to_json()
        clauses[rep.failed] += 1
    assert set(clauses) == {None, "P1", "P2", "P3"}


def test_axiom_checker_matches_oracle_on_size_two():
    for values in itertools.product((-1, 0, 1), repeat=4):
        p = PartialAbelianMonoid(Carrier(2), 0, values)
        cells = {(a, b): c for a, b, c in p.cells}
        assert check_pam_axioms(p).ok == oracles.pam_ok(2, 0, cells)


# -- positivity, cancellation, the canonical order ----------------------------


def test_total_mod2_addition_is_not_positive():
    z2 = pam(2, 0, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
    assert check_pam_axioms(z2).ok
    rep = is_positive(z2)
    assert rep.failed == "positivity"
    assert rep.witness == (1, 1)
    with pytest.raises(PreconditionError, match="generalized effect algebra"):
        canonical_order(z2)


def test_idempotent_element_breaks_cancellation():
    p = pam(2, 0, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)])
    assert is_positive(p).ok
    rep = is_cancellative(p)
    assert rep.failed == "cancellation"
    assert rep.witness == (1, 0, 1)
    assert not is_gea(p).ok


def test_chain_canonical_order_is_numeric():
    order = canonical_order(catalog.chain_pam(4))
    assert sorted(order.pairs()) == [
        (a, c) for a in range(4) for c in range(4) if a <= c
    ]


def test_boolean_canonical_order_is_inclusion():
    order = canonical_order(B22)
    assert sorted(order.pairs()) == [
        (a, c) for a in range(4) for c in range(4) if a & c == a
    ]


def test_effect_algebra_top():
    rep = is_effect_algebra(catalog.chain_pam(3))
    assert rep.ok
    assert rep.details["top"] == 2
    assert is_effect_algebra(catalog.chain_pam(1)).details["top"] == 0


def test_two_chains_sharing_zero_have_no_top():
    p = pam(3, 0, unit_cells(3))
    assert is_gea(p).ok
    rep = is_effect_algebra(p)
    assert not rep.ok
    assert rep.failed == "upper-bound"
    assert rep.details["maximal"] == [1, 2]


# -- Riesz decomposition -------------------------------------------------------


def test_chains_have_rdp():
    for n in (1, 2, 5):
        rep = has_rdp(catalog.chain_pam(n))
        assert rep.ok
        assert rep.details["monad_agrees"] is True


def test_boolean_has_rdp():
    assert has_rdp(B22).ok


def test_diamond_fails_rdp():
    # b sits below a+a but has no split into parts below a
    rep = has_rdp(DIAMOND)
    assert not rep.ok
    assert rep.failed == "decomposition"
    assert rep.witness == (1, 1, 2)


def test_rdp_witness_matches_the_reference_scan():
    geas = [
        p
        for dedup, top in ((True, 5), (False, 4))
        for n in range(1, top + 1)
        for p in _pool("pam", n, dedup)
        if is_gea(p).ok
    ]
    assert len(geas) == 21 + 24
    failing = 0
    for p in geas:
        rep = has_rdp(p)
        assert rep.witness == oracles.rdp_witness_by_loop(p)
        failing += not rep.ok
    assert failing > 0


def test_decomposition_witness_is_the_lax_square():
    # the kernel's (x1, x2, y) is _square_witness's (a1, a2, a, b) less a
    cases = [
        (p, rows)
        for n in range(1, 4)
        for p in _pool("pam", n, True)
        for rows in itertools.product(range(1 << n), repeat=n)
    ] + [(p, rows) for p in _pool("pam", 4, True) for rows in _preorders(4)]
    failing = 0
    for p, rows in cases:
        m = to_relmonoid(p)
        square = _square_witness(m, rows, m)
        want = None if square is None else (square[0], square[1], square[3])
        assert _decomposition_witness(p, rows) == want
        failing += want is not None
    assert 0 < failing < len(cases)


# -- the relational-monoid bridge ----------------------------------------------


def test_to_relmonoid_round_trip():
    for p in (catalog.chain_pam(4), B22, DIAMOND):
        m = to_relmonoid(p)
        assert m.units == frozenset([0])
        assert pam_from_relmonoid(m) == p


def test_to_relmonoid_is_built_once_per_pam():
    # one monoid per instance, so its cached tables are built once; an equal
    # but distinct PAM gets its own, equal monoid
    p = catalog.chain_pam(3)
    m = to_relmonoid(p)
    assert to_relmonoid(p) is m
    twin = PartialAbelianMonoid(p.carrier, p.zero, p.plus)
    assert to_relmonoid(twin) == m and to_relmonoid(twin) is not m


def test_pam_from_relmonoid_accepts_group_like():
    z2 = pam_from_relmonoid(catalog.z2_monoid())
    assert check_pam_axioms(z2).ok
    assert not is_positive(z2).ok


def test_pam_from_relmonoid_rejects_multiple_units():
    chain2 = FinRel.from_pairs(Carrier(2), Carrier(2), [(0, 0), (0, 1), (1, 1)])
    with pytest.raises(InputError, match="units"):
        pam_from_relmonoid(from_poset_quotients(chain2))


def test_pam_from_relmonoid_rejects_multivalued():
    # gluing intervals multiplies out to several results
    with pytest.raises(InputError, match="single-valued"):
        pam_from_relmonoid(interval_monoid(2))


# -- congruences ----------------------------------------------------------------


def test_identity_and_total_congruences():
    p = catalog.chain_pam(3)
    ident = FinRel.identity(p.carrier)
    assert check_congruence(CongruenceCandidate(p, ident)).ok
    total = equiv_from_blocks(3, [(0, 1, 2)])
    assert check_congruence(CongruenceCandidate(p, total)).ok


def test_atom_gluing_is_a_congruence():
    c = CongruenceCandidate(B22, equiv_from_blocks(4, [(0,), (1, 2), (3,)]))
    assert check_congruence(c).ok


def test_congruence_c1_witness():
    p = catalog.chain_pam(2)
    lopsided = FinRel.from_pairs(p.carrier, p.carrier, [(0, 0), (1, 1), (0, 1)])
    rep = check_congruence(CongruenceCandidate(p, lopsided))
    assert rep.failed == "C1"


def test_congruence_c2_witness():
    p = catalog.chain_pam(4)
    rep = check_congruence(
        CongruenceCandidate(p, equiv_from_blocks(4, [(0, 1), (2, 3)]))
    )
    assert rep.failed == "C2"
    assert rep.witness == (0, 0, 1, 1)


def test_congruence_c5_witness():
    p = catalog.chain_pam(3)
    rep = check_congruence(
        CongruenceCandidate(p, equiv_from_blocks(3, [(0,), (1, 2)]))
    )
    assert rep.failed == "C5"
    assert rep.witness == (1, 1, 1)


def test_congruence_kernel_matches_nested_scan():
    # every equivalence of every PAM (labeled up to 4 points, one per
    # isomorphism class at 5, and a labeled carrier), then every relation on
    # the labeled PAMs up to 3 points; the whole report must agree, so the
    # (x2, y2) that check_congruence finds for each C2 failure is the scan's
    labeled_b22 = PartialAbelianMonoid(Carrier(4, ("o", "a", "b", "t")), 0, B22.plus)
    bases = [p for n in range(1, 6) for p in _pool("pam", n, n == 5)] + [labeled_b22]
    cases = [(p, rows) for p in bases for rows in _equivalence_rows(p.n)]
    cases += [
        (p, rows)
        for n in range(1, 4)
        for p in _pool("pam", n, False)
        for rows in itertools.product(range(1 << n), repeat=n)
    ]
    clauses = Counter()
    for p, rows in cases:
        c = CongruenceCandidate(p, FinRel(p.carrier, p.carrier, rows))
        rep = check_congruence(c)
        assert rep.to_json() == oracles.congruence_report(c).to_json()
        clauses[rep.failed] += 1
    assert clauses == {None: 4063, "C1": 9676, "C2": 11595, "C5": 3258}


def test_congruence_json_round_trip():
    c = CongruenceCandidate(B22, equiv_from_blocks(4, [(0,), (1, 2), (3,)]))
    again = CongruenceCandidate.from_json(c.to_json())
    assert again.classes.rows == c.classes.rows
    assert again.base.plus == c.base.plus
    with pytest.raises(InputError, match="missing field"):
        CongruenceCandidate.from_json({"base": B22.to_json()})


# -- quotients -------------------------------------------------------------------


def test_quotient_by_identity_is_isomorphic():
    p = catalog.chain_pam(3)
    q = quotient_pam(CongruenceCandidate(p, FinRel.identity(p.carrier)))
    assert q.zero == p.zero and q.plus == p.plus


def test_quotient_of_boolean_by_atom_gluing_is_three_chain():
    q = quotient_pam(
        CongruenceCandidate(B22, equiv_from_blocks(4, [(0,), (1, 2), (3,)]))
    )
    chain = catalog.chain_pam(3)
    assert q.n == 3
    assert q.zero == chain.zero and q.plus == chain.plus
    assert q.carrier.labels == ("[{}]", "[{0}]", "[{0,1}]")


def test_quotient_by_total_congruence_is_trivial():
    p = catalog.chain_pam(2)
    q = quotient_pam(CongruenceCandidate(p, equiv_from_blocks(2, [(0, 1)])))
    assert q.n == 1 and q.plus == (0,)


def test_quotient_rejects_non_congruence():
    p = catalog.chain_pam(3)
    with pytest.raises(PreconditionError, match="not a congruence"):
        quotient_pam(CongruenceCandidate(p, equiv_from_blocks(3, [(0,), (1, 2)])))


# -- quotient maps and adjoints ---------------------------------------------------


def test_zero_faithful_quotient_map_is_left_adjoint():
    c = CongruenceCandidate(B22, equiv_from_blocks(4, [(0,), (1, 2), (3,)]))
    rep = quotient_map_is_left_adjoint(c)
    assert rep.ok
    assert rep.details["zero_faithful"] is True
    assert rep.details["induced_equals_classes"] is True


def test_identity_quotient_map_is_left_adjoint():
    p = catalog.chain_pam(3)
    rep = quotient_map_is_left_adjoint(
        CongruenceCandidate(p, FinRel.identity(p.carrier))
    )
    assert rep.ok and rep.details["zero_faithful"] is True


def test_zero_gluing_quotient_map_is_not_left_adjoint():
    p = catalog.chain_pam(2)
    rep = quotient_map_is_left_adjoint(
        CongruenceCandidate(p, equiv_from_blocks(2, [(0, 1)]))
    )
    assert not rep.ok
    assert rep.failed == "unit-reflection"
    assert rep.details["zero_faithful"] is False
    assert rep.details["zero_faithful_witness"] == (1,)


def test_quotient_map_report_matches_the_fiber_scan_on_the_class_map():
    # every congruence of the labeled PAMs up to 4 points, whose classes
    # interleave in 447 of them: the report is the fiber scan's on
    # rel.class_map onto quotient_pam's quotient, so the class map built
    # beside the quotient is that map
    clauses = Counter()
    for n in range(1, 5):
        for p in _pool("pam", n, False):
            for c in _gen_congruences(p):
                rel = class_map(p.carrier, c.classes.rows)
                h = LaxMorphism(to_relmonoid(p), to_relmonoid(quotient_pam(c)), rel)
                want = oracles.left_adjoint_report(h)
                rep = quotient_map_is_left_adjoint(c)
                verdict = (rep.ok, rep.failed, rep.witness, rep.message)
                assert verdict == (want.ok, want.failed, want.witness, want.message)
                induced = kernel(rel).rows == c.classes.rows
                assert rep.details["induced_equals_classes"] is induced
                clauses[rep.failed] += 1
    assert set(clauses) == {None, "unit-reflection"}


def test_adjoint_induces_congruence():
    c = CongruenceCandidate(B22, equiv_from_blocks(4, [(0,), (1, 2), (3,)]))
    quot = quotient_pam(c)
    rel = FinRel.from_pairs(
        B22.carrier, quot.carrier, [(0, 0), (1, 1), (2, 1), (3, 2)]
    )
    h = LaxMorphism(to_relmonoid(B22), to_relmonoid(quot), rel)
    assert adjoint_induces_c1c2c5(h).ok
    assert induced_monad(h).order.rows == c.classes.rows


def test_adjoint_induces_congruence_identity():
    m = to_relmonoid(catalog.chain_pam(3))
    h = LaxMorphism(m, m, FinRel.identity(m.carrier))
    assert adjoint_induces_c1c2c5(h).ok


def test_adjoint_induces_congruence_rejects_non_adjoint():
    p = catalog.chain_pam(2)
    m = to_relmonoid(p)
    triv = to_relmonoid(catalog.chain_pam(1))
    collapse = FinRel.from_pairs(m.carrier, triv.carrier, [(0, 0), (1, 0)])
    with pytest.raises(PreconditionError, match="not a left adjoint"):
        adjoint_induces_c1c2c5(LaxMorphism(m, triv, collapse))


# -- orthomodular lattices ---------------------------------------------------------


def test_boolean_oml_validates():
    for k in (1, 2, 3):
        assert validate_oml(catalog.boolean_oml(k)).ok
    assert validate_oml(catalog.mo2_oml()).ok


def test_boolean_oml_effect_algebra_matches_catalog():
    p = oml_as_effect_algebra(catalog.boolean_oml(2))
    assert p.zero == B22.zero and p.plus == B22.plus


def test_mo2_partial_addition():
    p = oml_as_effect_algebra(catalog.mo2_oml())
    # complements add to the top, atoms of different pairs do not interact
    assert p.defined(1, 2) and p.value(1, 2) == 5
    assert p.defined(3, 4) and p.value(3, 4) == 5
    assert not p.defined(1, 3)
    assert not p.defined(1, 1)
    # b sits below a + a' without decomposing along the pair
    rep = has_rdp(p)
    assert not rep.ok
    assert rep.witness == (1, 2, 3)


def test_two_chain_as_oml():
    lat = catalog.chain_lattice(2)
    s = OmlStructure(lat, (1, 0))
    assert validate_oml(s).ok
    p = oml_as_effect_algebra(s)
    assert p.plus == catalog.chain_pam(2).plus


def test_validate_oml_witnesses():
    lat = catalog.boolean_lattice(2)
    rep = validate_oml(OmlStructure(lat, (0, 1, 2, 3)))
    assert rep.failed == "antitone"
    assert rep.witness == (0, 1)
    rep = validate_oml(OmlStructure(lat, (3, 1, 2, 0)))
    assert rep.failed == "complement-join"
    assert rep.witness == (1,)
    with pytest.raises(InputError, match="orthocomplement"):
        OmlStructure(lat, (3, 2, 1))


def test_oml_json_round_trip():
    s = catalog.mo2_oml()
    again = OmlStructure.from_json(s.to_json())
    assert again.ortho == s.ortho
    assert again.lattice.order.rows == s.lattice.order.rows
    with pytest.raises(InputError, match="missing field"):
        OmlStructure.from_json({"ortho": [0]})


# -- dimension equivalence -----------------------------------------------------------


def test_identity_is_dimension_equivalence_on_boolean():
    s = catalog.boolean_oml(2)
    sim = FinRel.identity(s.lattice.order.dom)
    assert is_dimension_equivalence(s, sim).ok


def test_identity_fails_on_mo2():
    s = catalog.mo2_oml()
    rep = is_dimension_equivalence(s, FinRel.identity(s.lattice.order.dom))
    assert not rep.ok
    assert rep.failed == "D"
    assert rep.witness == (1, 3)


def test_gluing_all_atoms_works_on_mo2():
    s = catalog.mo2_oml()
    sim = equiv_from_blocks(6, [(0,), (1, 2, 3, 4), (5,)])
    assert is_dimension_equivalence(s, sim).ok


def test_atom_gluing_works_on_boolean():
    s = catalog.boolean_oml(2)
    assert is_dimension_equivalence(s, equiv_from_blocks(4, [(0,), (1, 2), (3,)])).ok


def test_dimension_clause_a_witness():
    s = catalog.boolean_oml(2)
    rep = is_dimension_equivalence(s, equiv_from_blocks(4, [(0, 1), (2,), (3,)]))
    assert rep.failed == "A"
    assert rep.witness == (1,)


def test_dimension_clause_b_witness():
    s = catalog.boolean_oml(2)
    rep = is_dimension_equivalence(s, equiv_from_blocks(4, [(0,), (1, 3), (2,)]))
    assert rep.failed == "B"
    assert rep.witness == (1, 2, 1)


def test_dimension_clause_b_matches_the_reference_scan():
    structures = [catalog.boolean_oml(k) for k in (1, 2, 3)] + [
        OmlStructure(lat, ortho)
        for lat in _pool_upto("lattice", 6)
        for ortho in _orthocomplementations(lat)
    ]
    failing = 0
    for s in structures:
        p = oml_as_effect_algebra(s)
        for rows in _equivalence_rows(s.lattice.n):
            sim = FinRel(p.carrier, p.carrier, rows)
            want = oracles.dimension_clause_b_by_loop(s, sim)
            assert _decomposition_witness(p, rows) == want
            failing += want is not None
    assert failing > 0


def test_dimension_clause_c_literal_joins():
    s = catalog.boolean_oml(2)
    sim = equiv_from_blocks(4, [(0,), (1, 2), (3,)])
    rep = is_dimension_equivalence(s, sim, literal_joins=True)
    assert rep.failed == "C"
    assert rep.witness == (1, 2)
    # families may pad with the bottom, which is orthogonal to everything
    assert rep.details["family_1"] == [0, 1]
    assert rep.details["family_2"] == [0, 2]


@pytest.mark.parametrize("literal_joins", [False, True])
def test_dimension_equivalence_matches_the_family_scan(literal_joins):
    # every clause C and D failure, and the passes, as the plain scans find them
    failed = Counter()
    for s in (catalog.boolean_oml(2), catalog.mo2_oml(), catalog.boolean_oml(3)):
        carrier = s.lattice.order.dom
        for rows in _equivalence_rows(s.lattice.n):
            sim = FinRel(carrier, carrier, rows)
            rep = is_dimension_equivalence(s, sim, literal_joins)
            want = oracles.dimension_equivalence_report(s, sim, literal_joins)
            assert rep.to_json() == want.to_json()
            failed[rep.failed] += 1
    assert failed["C"] and failed["D"] and failed[None]


def test_families_pair_off_exactly_when_they_meet_each_class_equally():
    # the pairing lemma behind clause C, on every equivalence up to 5 points
    for n in range(6):
        subsets = [
            fam for k in range(n + 1) for fam in itertools.combinations(range(n), k)
        ]
        for rows in _equivalence_rows(n):
            sim = FinRel(Carrier(n), Carrier(n), rows)
            cls_of, _ = class_partition(sim.rows)
            for fam1, fam2 in itertools.product(subsets, repeat=2):
                meets = sorted(cls_of[x] for x in fam1) == sorted(cls_of[x] for x in fam2)
                assert oracles.families_pair_off(fam1, fam2, sim) == meets


def test_dimension_equivalence_rejects_bad_inputs():
    s = catalog.boolean_oml(2)
    with pytest.raises(InputError, match="relation is 3->3 but the lattice has 4 elements"):
        is_dimension_equivalence(s, FinRel.identity(Carrier(3)))
    broken = OmlStructure(s.lattice, (0, 1, 2, 3))
    with pytest.raises(InputError, match="not an orthomodular lattice"):
        is_dimension_equivalence(broken, FinRel.identity(s.lattice.order.dom))


def test_dimension_equivalence_checks_sizes_before_the_lattice():
    broken = OmlStructure(catalog.boolean_oml(2).lattice, (0, 1, 2, 3))
    rect = FinRel(Carrier(4), Carrier(3), (0, 0, 0, 0))
    with pytest.raises(InputError) as info:
        is_dimension_equivalence(broken, rect)
    assert str(info.value) == "relation is 4->3 but the lattice has 4 elements"


# -- serialization ----------------------------------------------------------------


def test_pam_json_round_trip():
    for p in (catalog.chain_pam(4), B22, DIAMOND):
        again = PartialAbelianMonoid.from_json(p.to_json())
        assert again == p


def test_pam_json_rejects_malformed():
    with pytest.raises(InputError, match="missing field"):
        PartialAbelianMonoid.from_json({"carrier": 2, "zero": 0})
    with pytest.raises(InputError, match="cells"):
        PartialAbelianMonoid.from_json({"carrier": 2, "zero": 0, "plus": [[0, 0]]})
    with pytest.raises(InputError, match="integer"):
        PartialAbelianMonoid.from_json({"carrier": "2", "zero": 0, "plus": []})
