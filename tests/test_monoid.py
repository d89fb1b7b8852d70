"""Relational monoids, lax morphisms, adjoints, monads, reflection."""

import itertools
import random
from collections import Counter

import pytest

import oracles
from relmon import catalog
from relmon.monoid import (
    LaxMorphism,
    MonadCandidate,
    RelMonoid,
    _factorization_witness,
    _map_square_witness,
    _monad_conditions,
    _square_witness,
    _unlifted,
    check_monoid_axioms,
    check_reflection_universal,
    from_category,
    from_monoid_table,
    from_poset_quotients,
    induced_monad,
    interval_monoid,
    is_endo_square,
    is_lax_morphism,
    is_left_adjoint_relmon,
    is_monad,
    left_unit_of,
    monad_from_adjunction_conditions,
    monad_reflection,
    poly_monoid,
    quotient_pairs,
    quotient_relmonoid,
    right_unit_of,
)
from relmon.pam import to_relmonoid
from relmon.rel import Carrier, FinRel, kernel, refl_trans_closure
from relmon.report import InputError, PreconditionError
from relmon.search import _labeled_posets, _pool, _pool_upto

Z2 = catalog.z2_monoid()


def order_of(n, pairs):
    return FinRel.from_pairs(Carrier(n), Carrier(n), pairs)


def labeled_monoids(n):
    """Every relational monoid on n labeled points, found by the oracle alone."""
    triples = list(itertools.product(range(n), repeat=3))
    out = []
    for units_mask in range(1 << n):
        units = [u for u in range(n) if units_mask >> u & 1]
        for mult_mask in range(1 << len(triples)):
            mult = {t for i, t in enumerate(triples) if mult_mask >> i & 1}
            if oracles.monoid_ok(n, units, mult):
                out.append(RelMonoid(Carrier(n), frozenset(units), frozenset(mult)))
    return out


def oracle_view(m):
    return m.n, set(m.unit_list), set(m.triples)


def same_structure(m1, m2):
    # labels are cosmetic; compare the actual algebra
    return (m1.n, m1.units_mask, m1.prod_masks) == (m2.n, m2.units_mask, m2.prod_masks)


# -- axioms ------------------------------------------------------------------


def test_z2_is_a_relational_monoid():
    assert check_monoid_axioms(Z2).ok
    assert Z2.triples == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_one_element_monoid_units_are_whole_carrier():
    m = RelMonoid.make(1, [0], [(0, 0, 0)])
    assert check_monoid_axioms(m).ok
    assert m.unit_list == (0,)


def test_nonassociative_magma_rejected():
    # 0*0 = 1, everything else 0; unit candidate 0
    table = [[1, 0], [0, 0]]
    m = from_monoid_table(table, unit=0)
    rep = check_monoid_axioms(m)
    assert not rep.ok


def test_quotients_of_chain_with_unit_removed():
    quots = from_poset_quotients(order_of(2, [(0, 0), (0, 1), (1, 1)]))
    stripped = RelMonoid(
        quots.carrier, frozenset({2}), quots.mult
    )  # drop the trivial quotient 0/0 from the units
    rep = check_monoid_axioms(stripped)
    assert not rep.ok
    assert rep.failed == "right-unit"
    assert rep.witness == (0,)


@pytest.mark.parametrize(
    "mult, failed, witness, message",
    [
        (
            [(0, 0, 0)],
            "right-unit",
            (1,),
            "element x has no right unit",
        ),
        (
            [(0, 0, 0), (1, 0, 1), (1, 0, 0)],
            "right-unit",
            (1, 0, 0),
            "unit e multiplies x to e on the right",
        ),
        (
            [(0, 0, 0), (1, 0, 1)],
            "left-unit",
            (1,),
            "element x has no left unit",
        ),
        (
            [(0, 0, 0), (1, 0, 1), (0, 1, 1), (0, 1, 0)],
            "left-unit",
            (1, 0, 0),
            "unit e multiplies x to e on the left",
        ),
    ],
)
def test_unit_failures_are_pinned(mult, failed, witness, message):
    rep = check_monoid_axioms(RelMonoid.make(2, [0], mult, ["e", "x"]))
    assert (rep.ok, rep.failed, rep.witness, rep.message) == (
        False,
        failed,
        witness,
        message,
    )


def test_axiom_checker_matches_oracle_on_size_two():
    # every unit set and multiplication relation on a 2-element carrier
    triples = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
    for units_mask in range(1, 4):
        units = [u for u in range(2) if units_mask >> u & 1]
        for mult_mask in range(1 << len(triples)):
            mult = {t for i, t in enumerate(triples) if mult_mask >> i & 1}
            m = RelMonoid(Carrier(2), frozenset(units), frozenset(mult))
            assert check_monoid_axioms(m).ok == oracles.monoid_ok(2, units, mult)


# -- units -------------------------------------------------------------------


def test_unit_of_ordinary_monoid():
    assert right_unit_of(Z2, 1) == 0
    assert left_unit_of(Z2, 1) == 0


def test_unit_of_poset_quotients():
    order = order_of(2, [(0, 0), (0, 1), (1, 1)])
    quots = from_poset_quotients(order)
    idx = {q: i for i, q in enumerate(quotient_pairs(order))}
    one_over_zero = idx[(0, 1)]
    # right unit of b/a is b/b, left unit is a/a
    assert right_unit_of(quots, one_over_zero) == idx[(1, 1)]
    assert left_unit_of(quots, one_over_zero) == idx[(0, 0)]


def test_unit_of_interval_monoid():
    m = interval_monoid(4)
    for a in range(5):
        assert right_unit_of(m, a) == 0
        assert left_unit_of(m, a) == 0


def test_unit_of_category_arrow():
    # 2-chain as a category: arrows id0, id1, s: 0 -> 1
    m = from_category(
        2,
        [(0, 0), (1, 1), (0, 1)],
        {(0, 0): 0, (1, 1): 1, (0, 2): 2, (2, 1): 2},
    )
    assert check_monoid_axioms(m).ok
    assert right_unit_of(m, 2) == 1  # identity at the target
    assert left_unit_of(m, 2) == 0


def test_unit_of_counts_the_units_it_finds():
    two_right = RelMonoid.make(2, [0, 1], [(0, 0, 0), (0, 1, 0)], ["e", "f"])
    with pytest.raises(PreconditionError) as exc:
        right_unit_of(two_right, 0)
    assert str(exc.value) == "monoid axioms violated: element e has 2 right units"
    no_left = RelMonoid.make(2, [0], [(0, 0, 0), (1, 0, 1)], ["e", "x"])
    with pytest.raises(PreconditionError) as exc:
        left_unit_of(no_left, 1)
    assert str(exc.value) == "monoid axioms violated: element x has 0 left units"


def test_unit_of_rejects_out_of_range():
    with pytest.raises(InputError):
        right_unit_of(Z2, 5)


# -- constructors ------------------------------------------------------------


def test_from_monoid_table_z2():
    assert same_structure(from_monoid_table([[0, 1], [1, 0]], unit=0), Z2)


def test_discrete_category():
    m = from_category(2, [(0, 0), (1, 1)], {(0, 0): 0, (1, 1): 1})
    assert m.unit_list == (0, 1)
    assert m.triples == ((0, 0, 0), (1, 1, 1))


def test_chain_category_equals_poset_quotients():
    cat = from_category(
        2,
        [(0, 0), (0, 1), (1, 1)],
        {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2},
    )
    # arrow i of the chain category is comparable pair i in (a, b) lex order
    assert same_structure(
        cat, from_poset_quotients(order_of(2, [(0, 0), (0, 1), (1, 1)]))
    )


def test_one_object_category_equals_monoid_table():
    m = from_category(
        1, [(0, 0), (0, 0)], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    )
    assert same_structure(m, from_monoid_table([[0, 1], [1, 0]], unit=0))


def test_from_category_diagnostics():
    with pytest.raises(InputError):
        from_category(1, [(0, 2)], {})
    with pytest.raises(InputError):
        from_category(1, [(0, 0)], {})  # composition missing
    with pytest.raises(InputError):
        from_category(2, [(0, 0), (1, 1)], {(0, 0): 0, (1, 1): 1, (0, 1): 0})
    with pytest.raises(InputError):
        # loop that is not an identity: no identity at the object
        from_category(1, [(0, 0)], {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0})


def test_poset_quotients_antichain():
    m = from_poset_quotients(order_of(2, [(0, 0), (1, 1)]))
    assert m.n == 2
    assert m.unit_list == (0, 1)


def test_poset_quotients_two_chain_mult():
    m = from_poset_quotients(order_of(2, [(0, 0), (0, 1), (1, 1)]))
    # carrier order: 0/0, 1/0, 1/1
    assert m.triples == ((0, 0, 0), (0, 1, 1), (1, 2, 1), (2, 2, 2))


def test_poset_quotients_axioms_small_posets():
    # all partial orders on up to 4 points
    for n in range(5):
        carrier = Carrier(n)
        for rows in _all_posets(n):
            m = from_poset_quotients(FinRel(carrier, carrier, rows))
            assert check_monoid_axioms(m).ok


def test_poset_quotients_match_the_pair_scan():
    # the quotients composable after b/a are the d/b read off row b
    for n in range(6):
        carrier = Carrier(n)
        for rows in _labeled_posets(n):
            order = FinRel(carrier, carrier, rows)
            want = oracles.poset_quotients_by_pair_scan(order)
            assert from_poset_quotients(order).to_json() == want.to_json()


def _all_posets(n):
    from relmon.rel import is_partial_order

    carrier = Carrier(n)
    def rec(i, acc):
        if i == n:
            if is_partial_order(FinRel(carrier, carrier, tuple(acc))).ok:
                yield tuple(acc)
            return
        for row in range(1 << n):
            if row >> i & 1:  # reflexivity early
                acc.append(row)
                yield from rec(i + 1, acc)
                acc.pop()
    yield from rec(0, [])


def test_poset_quotients_rejects_non_order():
    with pytest.raises(InputError):
        from_poset_quotients(order_of(2, [(0, 0), (0, 1), (1, 0), (1, 1)]))


def test_interval_monoid_examples():
    m = interval_monoid(1)
    assert m.triples == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1))
    for n in range(1, 7):
        assert check_monoid_axioms(interval_monoid(n)).ok
    # not a partial mapping once n >= 2
    m2 = interval_monoid(2)
    assert sorted(c for a, b, c in m2.triples if (a, b) == (1, 1)) == [1, 2]
    with pytest.raises(InputError):
        interval_monoid(0)


def test_poly_monoid_examples():
    m = poly_monoid(2, 1)
    assert m.carrier.labels == ("1", "x", "x+1")
    assert len(m.triples) == 5
    for d in range(4):
        assert check_monoid_axioms(poly_monoid(2, d)).ok


# -- lax morphisms -----------------------------------------------------------


def test_identity_is_lax():
    h = LaxMorphism(Z2, Z2, FinRel.identity(Z2.carrier))
    assert is_lax_morphism(h).ok


def test_empty_relation_is_lax():
    # both diagrams hold vacuously; the report still carries both unit views
    h = LaxMorphism(Z2, Z2, FinRel.empty(Z2.carrier, Z2.carrier))
    rep = is_lax_morphism(h)
    assert rep.ok
    assert rep.details["units_preserved"] is True
    assert rep.details["units_covered"] is False


def test_homomorphism_graph_is_lax():
    # fold Z2 onto the trivial monoid
    triv = catalog.trivial_monoid()
    h = LaxMorphism(Z2, triv, FinRel.from_pairs(Z2.carrier, triv.carrier, [(0, 0), (1, 0)]))
    assert is_lax_morphism(h).ok


def test_lax_morphism_matches_oracle_up_to_size_two():
    # every pair of labeled monoids on at most 2 points, every relation
    monoids = [m for n in range(3) for m in labeled_monoids(n)]
    assert [m.n for m in monoids] == [0, 1] + [2] * 9
    failed_clauses = set()
    for src, dst in itertools.product(monoids, repeat=2):
        for rows in itertools.product(range(1 << dst.n), repeat=src.n):
            rel = FinRel(src.carrier, dst.carrier, rows)
            rep = is_lax_morphism(LaxMorphism(src, dst, rel))
            want = oracles.lax_ok(oracle_view(src), oracle_view(dst), set(rel.pairs()))
            assert rep.ok == want
            failed_clauses.add(rep.failed)
    assert failed_clauses == {None, "square", "triangle"}


def test_square_witness_on_a_subset_of_triples():
    # every relation between the monoid classes on at most 2 points, and a
    # seeded sample between those on 3: the src triples whose largest index
    # is k on the rows up to k, as _lax_rels prunes, and a random subset on
    # all rows, against the per-b search over the same triples; on a map,
    # _map_square_witness too, on the integer images up to k, as _left_adjoints
    # prunes
    rng = random.Random(7)
    small = _pool_upto("relmonoid", 2)
    pairs = list(itertools.product(small, repeat=2))
    pairs += rng.sample(list(itertools.product(_pool("relmonoid", 3, True), repeat=2)), 15)
    verdicts, map_verdicts = Counter(), Counter()
    for src, dst in pairs:
        for rows in itertools.product(range(1 << dst.n), repeat=src.n):
            cases = [
                (rows[:k + 1], [t for t in src.triples if max(t) == k])
                for k in range(src.n)
            ]
            cases.append((rows, rng.sample(src.triples, len(src.triples) // 2)))
            is_map = all(r.bit_count() == 1 for r in rows)
            for prefix, triples in cases:
                want = oracles.square_witness_by_search(src, prefix, dst, triples)
                assert _square_witness(src, prefix, dst, triples) == want
                verdicts[want is None] += 1
                if is_map:
                    f = [r.bit_length() - 1 for r in prefix]
                    assert _map_square_witness(f, dst.prod_masks, dst.n, triples) == want
                    map_verdicts[want is None] += 1
    assert verdicts[True] and verdicts[False]
    assert map_verdicts[True] and map_verdicts[False]


def test_lax_morphism_size_mismatch():
    with pytest.raises(InputError):
        LaxMorphism(Z2, Z2, FinRel.empty(Carrier(3), Carrier(2)))


# -- left adjoints -----------------------------------------------------------


def test_identity_is_left_adjoint():
    h = LaxMorphism(Z2, Z2, FinRel.identity(Z2.carrier))
    rep = is_left_adjoint_relmon(h)
    assert rep.ok


def test_degree_map_fails_factorization():
    rep = is_left_adjoint_relmon(catalog.degree_morphism(2, 2))
    assert not rep.ok
    assert rep.failed == "factorization"
    assert rep.witness == (1, 1, 6)  # (1, 1) never factors x^2+x+1


def test_left_adjoint_kernel_matches_fiber_scan():
    # every relation between the labeled monoids on at most 2 points and
    # the monoids of the PAMs on at most 3 points, one per isomorphism class:
    # the whole lax-morphism report against the per-b square search, then
    # every lax arrow's left-adjoint report against the fiber scan
    monoids = [m for n in range(3) for m in labeled_monoids(n)]
    monoids += [to_relmonoid(p) for p in _pool_upto("pam", 3)]
    lax_clauses = Counter()
    clauses = Counter()
    for src, dst in itertools.product(monoids, repeat=2):
        for rows in itertools.product(range(1 << dst.n), repeat=src.n):
            h = LaxMorphism(src, dst, FinRel(src.carrier, dst.carrier, rows))
            lax = is_lax_morphism(h)
            assert lax.to_json() == oracles.lax_morphism_report(h).to_json()
            lax_clauses[lax.failed] += 1
            if not lax.ok:
                continue
            rep = is_left_adjoint_relmon(h)
            assert rep.to_json() == oracles.left_adjoint_report(h).to_json()
            clauses[rep.failed] += 1
    assert sum(clauses.values()) == lax_clauses[None] == 7232
    assert set(lax_clauses) == {None, "square", "triangle"}
    assert set(clauses) == {None, "mapping", "factorization", "unit-reflection"}


def test_factorization_kernel_matches_fiber_scan_on_additive_maps():
    # the integer images of every additive map between the monoids of the
    # PAMs on at most 4 points, one per isomorphism class: the kernel gives
    # the fiber scan's factorization witness, and None exactly when the scan
    # passes or fails only at unit-reflection
    failures = Counter()
    for _, _, msrc, mdst, maps in oracles.additive_map_reports(4):
        for values, rep in maps:
            want = rep.witness if rep.failed == "factorization" else None
            assert _factorization_witness(values, msrc, mdst) == want
            assert oracles.factorization_witness_by_fibers(values, msrc, mdst) == want
            failures[rep.failed] += 1
    assert failures == {None: 1493, "factorization": 23827, "unit-reflection": 7209}


def test_factorization_kernel_matches_fiber_scan_on_every_map():
    # every map, lax or not, between the relational-monoid classes on at most
    # 2 points and a seeded sample of class pairs on 3: the kernel gives the
    # fiber scan's witness, and run per slot k on the images up to k alone
    # (a read past k raises), as _left_adjoints prunes, it fails the same
    # elements as over the whole map
    rng = random.Random(11)
    pairs = list(itertools.product(_pool_upto("relmonoid", 2), repeat=2))
    pairs += rng.sample(list(itertools.product(_pool("relmonoid", 3, True), repeat=2)), 15)
    verdicts = Counter()
    for src, dst in pairs:
        assert sorted(a for due in src.factors_by_last for a, _ in due) == list(range(src.n))
        dfm, m = dst.factor_masks, dst.n
        for f in itertools.product(range(m), repeat=src.n):
            want = oracles.factorization_witness_by_fibers(f, src, dst)
            assert _factorization_witness(f, src, dst) == want
            every = itertools.chain.from_iterable(src.factors_by_last)
            failed = [a for _, _, a in _unlifted(f, dfm, m, every)]
            by_slot = [
                a
                for k, due in enumerate(src.factors_by_last)
                for _, _, a in _unlifted(f[:k + 1], dfm, m, due)
            ]
            assert by_slot == failed and bool(failed) == (want is not None)
            verdicts[want is None] += 1
    assert verdicts[True] and verdicts[False]


def test_adjoint_transpose_is_lax():
    # quotient map of the Boolean square by its atom-gluing congruence
    c = _boolean22_congruence()
    from relmon.pam import quotient_pam, to_relmonoid

    q = quotient_pam(c)
    src = to_relmonoid(c.base)
    dst = to_relmonoid(q)
    f = FinRel.from_pairs(src.carrier, dst.carrier, [(0, 0), (1, 1), (2, 1), (3, 2)])
    h = LaxMorphism(src, dst, f)
    assert is_left_adjoint_relmon(h).ok
    assert is_lax_morphism(LaxMorphism(dst, src, f.dagger())).ok


def _boolean22_congruence():
    from relmon.pam import CongruenceCandidate

    base = catalog.boolean22_pam()
    blocks = [(0,), (1, 2), (3,)]
    pairs = [(a, b) for blk in blocks for a in blk for b in blk]
    return CongruenceCandidate(base, order_of(4, pairs))


# -- monads ------------------------------------------------------------------


def test_divisibility_is_a_monad():
    cand = MonadCandidate(
        catalog.truncated_nat_monoid(6), catalog.divisibility_order(6)
    )
    assert is_monad(cand).ok


def test_subword_order_is_a_monad():
    cand = MonadCandidate(catalog.words_monoid(3), catalog.subword_order(3))
    assert is_monad(cand).ok


def test_diamond_with_reversed_order_is_not_a_monad():
    from relmon.pam import canonical_order, to_relmonoid

    dia = catalog.diamond_pam()
    cand = MonadCandidate(to_relmonoid(dia), canonical_order(dia).dagger())
    rep = is_monad(cand)
    assert not rep.ok
    assert rep.failed == "square"
    assert rep.witness == (1, 1, 3, 2)  # b under a+a with no lifted split


def test_monad_rejects_invalid_base():
    bad = RelMonoid(Carrier(1), frozenset({0}), frozenset())
    with pytest.raises(PreconditionError):
        is_monad(MonadCandidate(bad, FinRel.identity(Carrier(1))))


def test_monad_matches_oracle_on_size_two():
    # every labeled 2-element monoid against all 16 endo-relations
    verdicts = set()
    for m in labeled_monoids(2):
        for rows in itertools.product(range(4), repeat=2):
            f = FinRel(m.carrier, m.carrier, rows)
            got = is_monad(MonadCandidate(m, f)).ok
            assert got == oracles.monad_ok(*oracle_view(m), set(f.pairs()))
            verdicts.add(got)
    assert verdicts == {True, False}


def test_monad_conditions_match_reference_scans():
    # every preorder over every labeled relational monoid on at most 3 points
    clauses = Counter()
    for n in range(4):
        carrier = Carrier(n)
        preorders = [
            FinRel(carrier, carrier, rows)
            for rows in itertools.product(range(1 << n), repeat=n)
            if oracles.is_preorder(n, set(FinRel(carrier, carrier, rows).pairs()))
        ]
        for m in _pool("relmonoid", n, False):
            for order in preorders:
                rep = _monad_conditions(m, order)
                ref = oracles.monad_conditions_report(m, order)
                assert rep.to_json() == ref.to_json()
                cand = MonadCandidate(m, order)
                adj = monad_from_adjunction_conditions(cand)
                assert adj.to_json() == oracles.adjunction_monad_report(cand).to_json()
                clauses[rep.failed, adj.failed] += 1
    assert set(clauses) == {
        (None, None), (None, "symmetry"), ("square", "square"), ("unit", "unit")
    }


def test_induced_monad_of_identity():
    h = LaxMorphism(Z2, Z2, FinRel.identity(Z2.carrier))
    assert induced_monad(h).order == FinRel.identity(Z2.carrier)


def test_constant_map_to_trivial_monoid_is_not_an_adjoint():
    # its kernel would be the full relation, which breaks the unit clause
    triv = catalog.trivial_monoid()
    f = FinRel.from_pairs(Z2.carrier, triv.carrier, [(0, 0), (1, 0)])
    h = LaxMorphism(Z2, triv, f)
    rep = is_left_adjoint_relmon(h)
    assert not rep.ok
    assert rep.failed == "unit-reflection"
    with pytest.raises(PreconditionError):
        induced_monad(h)
    full = FinRel.full(Z2.carrier, Z2.carrier)
    assert not is_monad(MonadCandidate(Z2, full)).ok


def test_induced_monad_of_quotient_map():
    c = _boolean22_congruence()
    from relmon.pam import quotient_pam, to_relmonoid

    q = quotient_pam(c)
    src = to_relmonoid(c.base)
    dst = to_relmonoid(q)
    f = FinRel.from_pairs(src.carrier, dst.carrier, [(0, 0), (1, 1), (2, 1), (3, 2)])
    cand = induced_monad(LaxMorphism(src, dst, f))
    assert cand.order.rows == c.classes.rows
    assert is_monad(cand).ok


# -- adjunction-origin monads ------------------------------------------------


def test_identity_order_comes_from_adjunction():
    cand = MonadCandidate(Z2, FinRel.identity(Z2.carrier))
    assert monad_from_adjunction_conditions(cand).ok


def test_divisibility_does_not_come_from_adjunction():
    cand = MonadCandidate(
        catalog.truncated_nat_monoid(6), catalog.divisibility_order(6)
    )
    rep = monad_from_adjunction_conditions(cand)
    assert not rep.ok
    assert rep.failed == "symmetry"


# -- endo squares and reflection ----------------------------------------------


def test_endo_square_examples():
    f = catalog.doubling_endo(8)
    m = catalog.truncated_nat_monoid(8)
    u = LaxMorphism(m, m, FinRel.identity(m.carrier))
    assert is_endo_square(u, f, f).ok
    g = FinRel.empty(m.carrier, m.carrier)
    rep = is_endo_square(u, f, g)
    assert not rep.ok
    assert is_endo_square(u, f, refl_trans_closure(f)).ok


def test_endo_square_carrier_mismatch():
    u = LaxMorphism(Z2, Z2, FinRel.identity(Z2.carrier))
    with pytest.raises(InputError):
        is_endo_square(u, FinRel.identity(Carrier(3)), FinRel.identity(Carrier(2)))


def test_reflection_of_identity():
    i = FinRel.identity(Z2.carrier)
    assert monad_reflection(Z2, i).order == i


def test_reflection_of_doubling_is_power_order():
    m = catalog.truncated_nat_monoid(8)
    cand = monad_reflection(m, catalog.doubling_endo(8))
    assert cand.order == catalog.power_order(8)
    assert is_monad(cand).ok


def test_reflection_fixes_monad_orders():
    m = catalog.truncated_nat_monoid(6)
    leq = catalog.divisibility_order(6)
    assert monad_reflection(m, leq).order == leq


def test_reflection_rejects_non_lax_endo():
    # halving breaks the square on the truncated additive monoid
    m = catalog.truncated_nat_monoid(4)
    bad = FinRel.from_pairs(m.carrier, m.carrier, [(0, 0), (2, 1), (4, 2)])
    with pytest.raises(PreconditionError):
        monad_reflection(m, bad)


def test_reflection_universal_property_examples():
    m = catalog.truncated_nat_monoid(8)
    endo = LaxMorphism(m, m, catalog.doubling_endo(8))
    cl = refl_trans_closure(endo.rel)
    u = LaxMorphism(m, m, FinRel.identity(m.carrier))
    assert check_reflection_universal(endo, MonadCandidate(m, cl), u).ok

    with pytest.raises(PreconditionError):
        # identity u against the identity order cannot absorb doubling
        check_reflection_universal(
            endo, MonadCandidate(m, FinRel.identity(m.carrier)), u
        )


def test_reflection_universal_rejects_mismatched_monoids():
    triv = catalog.trivial_monoid()
    ident = LaxMorphism(Z2, Z2, FinRel.identity(Z2.carrier))
    order = MonadCandidate(Z2, FinRel.identity(Z2.carrier))
    to_triv = LaxMorphism(Z2, triv, FinRel.full(Z2.carrier, triv.carrier))
    from_triv = LaxMorphism(triv, Z2, FinRel.from_pairs(triv.carrier, Z2.carrier, [(0, 0)]))
    for endo, monad, u in [
        (to_triv, order, ident),
        (ident, order, to_triv),
        (ident, order, from_triv),
        (ident, MonadCandidate(triv, FinRel.identity(triv.carrier)), ident),
    ]:
        with pytest.raises(InputError):
            check_reflection_universal(endo, monad, u)


# -- quotients of relational monoids -----------------------------------------


def test_quotient_relmonoid_round_trip():
    from relmon.pam import quotient_pam

    cong = _boolean22_congruence()
    base = to_relmonoid(cong.base)
    quot, arrow = quotient_relmonoid(base, cong.classes)
    assert quot.n == 3
    assert check_monoid_axioms(quot).ok
    assert is_lax_morphism(arrow).ok
    assert is_left_adjoint_relmon(arrow).ok
    # the class map lands on the carrier that quotient_pam gives the same
    # classes, labelled by least members, and its kernel is the classes
    assert arrow.rel.cod == quot.carrier == quotient_pam(cong).carrier
    assert quot.carrier.labels == ("[{}]", "[{0}]", "[{0,1}]")
    assert kernel(arrow.rel).rows == cong.classes.rows

    # the glued elements must form unit-closed monad classes; Z2 cannot
    # collapse since 1 would land above the unit
    with pytest.raises(PreconditionError):
        quotient_relmonoid(Z2, order_of(2, [(0, 0), (1, 1), (0, 1), (1, 0)]))


# -- serialization -----------------------------------------------------------


def test_relmonoid_json_round_trip():
    for m in (Z2, interval_monoid(3), catalog.words_monoid(2)):
        assert RelMonoid.from_json(m.to_json()) == m


def test_monoid_json_rejects_malformed():
    with pytest.raises(InputError):
        RelMonoid.from_json({"carrier": 2, "units": [0]})
    with pytest.raises(InputError):
        RelMonoid.from_json({"carrier": 2, "units": [5], "mult": []})
    with pytest.raises(InputError):
        RelMonoid.from_json({"carrier": 2, "units": [0], "mult": [[0, 0]]})


def test_morphism_and_candidate_json_round_trip():
    h = LaxMorphism(Z2, Z2, FinRel.identity(Z2.carrier))
    assert LaxMorphism.from_json(h.to_json()) == h
    cand = MonadCandidate(Z2, FinRel.identity(Z2.carrier))
    assert MonadCandidate.from_json(cand.to_json()) == cand
