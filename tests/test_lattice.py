"""Lattices, the perspectivity order on quotients, and modularity."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from relmon import catalog
from relmon.lattice import (
    FinLattice,
    build_quotient_order,
    check_qa_monad_iff_modular,
    check_star_star,
    hom_defect,
    is_modular,
    lattice_from_order,
    q_functor,
    quotient_map,
)
from relmon.monoid import (
    LaxMorphism,
    MonadCandidate,
    check_monoid_axioms,
    is_endo_square,
    is_lax_morphism,
    is_monad,
    quotient_pairs,
)
from relmon.rel import Carrier, FinRel, bits, is_partial_order
from relmon.report import InputError, PreconditionError
from relmon.search import _gen_lattices, _pool_upto


def order_of(n, pairs):
    return FinRel.from_pairs(Carrier(n), Carrier(n), pairs)


CHAIN2 = catalog.chain_lattice(2)
B22 = catalog.boolean_lattice(2)
M3 = catalog.m3_lattice()
N5 = catalog.n5_lattice()


# -- construction ------------------------------------------------------------


def test_two_chain_meet_join():
    assert CHAIN2.meet == (0, 0, 0, 1)
    assert CHAIN2.join == (0, 1, 1, 1)
    assert CHAIN2.bottom == 0 and CHAIN2.top == 1


def test_boolean_square_tables():
    # elements 0 < {1, 2} < 3 with 1, 2 incomparable
    assert B22.meet_of(1, 2) == 0
    assert B22.join_of(1, 2) == 3
    assert B22.meet_of(1, 3) == 1
    assert B22.join_of(1, 0) == 1
    assert B22.bottom == 0 and B22.top == 3


def test_antichain_is_not_a_lattice():
    with pytest.raises(InputError, match="not a lattice"):
        lattice_from_order(order_of(2, [(0, 0), (1, 1)]))


def test_empty_carrier_rejected():
    with pytest.raises(InputError):
        lattice_from_order(order_of(0, []))


def test_non_order_rejected():
    with pytest.raises(InputError, match="not a partial order"):
        lattice_from_order(order_of(2, [(0, 0), (0, 1), (1, 0), (1, 1)]))


@given(st.integers(1, 6))
def test_chain_tables_are_min_max(n):
    lat = catalog.chain_lattice(n)
    for x in range(n):
        for y in range(n):
            assert lat.meet_of(x, y) == min(x, y)
            assert lat.join_of(x, y) == max(x, y)


def test_lattice_checker_matches_oracle_on_size_three():
    carrier = Carrier(3)
    for rows in _all_reflexive_rows(3):
        rel = FinRel(carrier, carrier, rows)
        if not is_partial_order(rel).ok:
            continue
        leq = set(rel.pairs())
        ok = oracles.lattice_ok(3, leq)
        if ok:
            lat = lattice_from_order(rel)
            assert oracles.modular_ok(
                3,
                leq,
                [[lat.meet_of(x, y) for y in range(3)] for x in range(3)],
                [[lat.join_of(x, y) for y in range(3)] for x in range(3)],
            ) == is_modular(lat).ok
        else:
            with pytest.raises(InputError):
                lattice_from_order(rel)


def test_tables_and_errors_match_oracle_up_to_size_four():
    for n in range(1, 5):
        carrier = Carrier(n)
        for rows in _all_reflexive_rows(n):
            rel = FinRel(carrier, carrier, rows)
            if not is_partial_order(rel).ok:
                continue
            try:
                lat = lattice_from_order(rel)
                got = (lat.meet, lat.join)
            except InputError as exc:
                got = str(exc)
            assert got == oracles.meet_join_or_error(n, set(rel.pairs()))


def _all_reflexive_rows(n):
    def rec(i, acc):
        if i == n:
            yield tuple(acc)
            return
        for row in range(1 << n):
            if row >> i & 1:
                acc.append(row)
                yield from rec(i + 1, acc)
                acc.pop()
    yield from rec(0, [])


# -- modularity --------------------------------------------------------------


def test_chains_are_modular():
    for n in range(1, 7):
        assert is_modular(catalog.chain_lattice(n)).ok


def test_m3_is_modular_n5_is_not():
    assert is_modular(M3).ok
    rep = is_modular(N5)
    assert not rep.ok
    assert rep.failed == "modular-law"
    assert len(rep.witness) == 3


# -- quotient order ----------------------------------------------------------


def test_quotient_order_trivial_lattice():
    qo = build_quotient_order(catalog.chain_lattice(1))
    assert type(qo) is MonadCandidate
    assert qo.base.n == 1
    assert qo.order == FinRel.identity(qo.order.dom)


def test_quotient_order_two_chain():
    qo = build_quotient_order(CHAIN2)
    # quotients in (a, b) lex order: 0/0, 1/0, 1/1
    assert qo.base.n == 3
    assert sorted(qo.order.pairs()) == [(0, 0), (0, 2), (1, 1), (2, 2)]


def test_boolean_square_has_nine_quotients():
    qo = build_quotient_order(B22)
    assert qo.base.n == 9
    assert check_monoid_axioms(qo.base).ok


def test_trivial_quotient_arrows_stay_trivial():
    # a/a up-to d/c forces c = d
    for lat in (CHAIN2, B22, M3, N5):
        quots = quotient_pairs(lat.order)
        qo = build_quotient_order(lat)
        for i, (a, b) in enumerate(quots):
            if a != b:
                continue
            for j in bits(qo.order.rows[i]):
                c, d = quots[j]
                assert c == d


# -- the modularity equivalence ----------------------------------------------


def test_star_star_examples():
    for n in range(1, 6):
        assert check_star_star(catalog.chain_lattice(n)).ok
    assert check_star_star(M3).ok
    rep = check_star_star(N5)
    assert not rep.ok
    assert rep.witness is not None


def test_quotient_order_and_star_star_match_the_scans():
    # each d/c, c'/a' and midpoint b' read off a join gives the scans' answer,
    # failing witnesses included, on every labeled lattice up to 6 points and
    # the 53 classes at 7
    labeled = [lat for n in range(1, 7) for lat in _gen_lattices(n, False)]
    failing = 0
    for lat in (*labeled, *_gen_lattices(7, True)):
        arrow = oracles.quotient_order_rows_by_pair_scan(lat)
        assert build_quotient_order(lat).order.rows == arrow
        rep = check_star_star(lat)
        assert rep.to_json() == oracles.star_star_report(lat, arrow).to_json()
        failing += not rep.ok
    assert failing > 0


def test_qa_monad_iff_modular_named_instances():
    rep = check_qa_monad_iff_modular(N5)
    assert rep.ok
    assert rep.details["qa_monad"] is False
    assert rep.details["modular"] is False

    rep = check_qa_monad_iff_modular(M3)
    assert rep.ok
    assert rep.details["qa_monad"] is True
    assert rep.details["modular"] is True


def test_qa_monad_direct_checks():
    assert is_monad(build_quotient_order(B22)).ok
    assert not is_monad(build_quotient_order(N5)).ok


# -- functoriality of Q ------------------------------------------------------


def test_q_functor_identity():
    v = FinRel.identity(B22.order.dom)
    qv = q_functor(v, B22, B22)
    assert qv.rows == FinRel.identity(qv.dom).rows


def test_q_functor_constant():
    one = catalog.chain_lattice(1)
    v = FinRel.from_pairs(B22.order.dom, one.order.dom, [(a, 0) for a in range(4)])
    qv = q_functor(v, B22, one)
    assert all(row == 1 for row in qv.rows)


def test_q_functor_rejects_non_hom():
    # sending the 2-chain onto the two incomparable atoms cannot preserve meets
    bad = FinRel.from_pairs(
        CHAIN2.order.dom, B22.order.dom, [(0, 1), (1, 2)]
    )
    with pytest.raises(PreconditionError, match="preserve the meet"):
        q_functor(bad, CHAIN2, B22)
    # collapsing the atoms of B22 onto the bottom of the 2-chain keeps every
    # meet but not their join, the top
    collapse = FinRel.from_pairs(
        B22.order.dom, CHAIN2.order.dom, [(0, 0), (1, 0), (2, 0), (3, 1)]
    )
    with pytest.raises(PreconditionError) as info:
        q_functor(collapse, B22, CHAIN2)
    assert str(info.value) == "map does not preserve the join of (1, 2)"
    with pytest.raises(InputError):
        q_functor(FinRel.identity(Carrier(3)), CHAIN2, B22)
    nonmap = FinRel.from_pairs(CHAIN2.order.dom, B22.order.dom, [(0, 0)])
    with pytest.raises(PreconditionError, match="mapping"):
        q_functor(nonmap, CHAIN2, B22)


def test_hom_defect_matches_the_pairwise_loop():
    # every map between the lattices of the default q-functorial pool
    lats = _pool_upto("lattice", 4)
    homs = 0
    for src, dst in itertools.product(lats, repeat=2):
        for f in itertools.product(range(dst.n), repeat=src.n):
            defect = hom_defect(f, src, dst)
            assert defect == oracles.hom_defect_by_loop(f, src, dst)
            v = FinRel(src.order.dom, dst.order.dom, tuple(1 << x for x in f))
            if defect is None:
                homs += 1
                rows = tuple(1 << i for i in quotient_map(f, src, dst))
                assert q_functor(v, src, dst).rows == rows
                continue
            with pytest.raises(PreconditionError) as info:
                q_functor(v, src, dst)
            op, x, y = defect
            assert str(info.value) == f"map does not preserve the {op} of ({x}, {y})"
    assert homs == 221


def test_q_functor_oplax_square_on_modular_lattices():
    # Q(v) carries the perspectivity order of the source into the target
    for src, dst, vmap in [
        (CHAIN2, B22, [0, 3]),
        (catalog.chain_lattice(3), CHAIN2, [0, 0, 1]),
        (B22, B22, [0, 2, 1, 3]),
    ]:
        v = FinRel.from_pairs(
            src.order.dom, dst.order.dom, list(enumerate(vmap))
        )
        qv = q_functor(v, src, dst)
        qo_src = build_quotient_order(src)
        qo_dst = build_quotient_order(dst)
        h = LaxMorphism(qo_src.base, qo_dst.base, qv)
        assert is_lax_morphism(h).ok
        assert is_endo_square(h, qo_src.order, qo_dst.order).ok


# -- serialization -----------------------------------------------------------


def test_lattice_json_round_trip():
    for lat in (CHAIN2, B22, M3, N5):
        again = FinLattice.from_json(lat.to_json())
        assert again.order.rows == lat.order.rows
        assert again.meet == lat.meet and again.join == lat.join


def test_lattice_json_accepts_omitted_reflexive_pairs():
    lat = FinLattice.from_json({"carrier": 2, "order": [[0, 1]]})
    assert lat.order.pairs() == [(0, 0), (0, 1), (1, 1)]


def test_lattice_json_rejects_malformed():
    with pytest.raises(InputError):
        FinLattice.from_json({"carrier": 2})
    with pytest.raises(InputError):
        FinLattice.from_json({"carrier": "two", "order": []})
    with pytest.raises(InputError, match="not a lattice"):
        FinLattice.from_json({"carrier": 2, "order": []})
