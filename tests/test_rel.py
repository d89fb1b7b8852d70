"""Relation algebra: frozen examples plus randomized algebraic laws."""

from collections import Counter
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from strategies import composable_pairs, composable_triples, endo_rels, finrels, mappings
from relmon.rel import (
    Carrier,
    FinRel,
    is_equivalence,
    is_left_adjoint_rel,
    is_partial_order,
    is_preorder,
    is_subcell,
    kernel,
    product_rel,
    refl_trans_closure,
    union,
)
from relmon.report import InputError, PreconditionError


def rel(na, nb, pairs):
    return FinRel.from_pairs(Carrier(na), Carrier(nb), pairs)


# -- compose -----------------------------------------------------------------


def test_compose_examples():
    f = rel(1, 2, [(0, 1)])
    g = rel(2, 1, [(1, 0)])
    assert f.compose(g).pairs() == [(0, 0)]

    f = rel(1, 2, [(0, 0), (0, 1)])
    g = rel(2, 3, [(0, 2), (1, 2)])
    assert f.compose(g).pairs() == [(0, 2)]


def test_compose_mismatched_carriers():
    with pytest.raises(InputError):
        rel(1, 2, []).compose(rel(3, 1, []))


@given(finrels())
def test_compose_identity_neutral(f):
    assert FinRel.identity(f.dom).compose(f) == f
    assert f.compose(FinRel.identity(f.cod)) == f


@given(composable_pairs())
def test_compose_matches_oracle(pair):
    f, g = pair
    expected = sorted(oracles.compose(f.pairs(), g.pairs()))
    assert f.compose(g).pairs() == expected


@given(composable_triples())
def test_compose_associative(triple):
    f, g, h = triple
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


# -- identity ----------------------------------------------------------------


def test_identity_examples():
    assert FinRel.identity(Carrier(0)).pairs() == []
    assert FinRel.identity(Carrier(2)).pairs() == [(0, 0), (1, 1)]
    i = FinRel.identity(Carrier(3))
    assert i.compose(i) == i


# -- dagger ------------------------------------------------------------------


def test_dagger_examples():
    assert rel(1, 2, [(0, 1)]).dagger().pairs() == [(1, 0)]
    i = FinRel.identity(Carrier(3))
    assert i.dagger() == i


@given(finrels())
def test_dagger_involution(f):
    assert f.dagger().dagger() == f


@given(composable_pairs())
def test_dagger_reverses_composition(pair):
    f, g = pair
    assert f.compose(g).dagger() == g.dagger().compose(f.dagger())


# -- 2-cells -----------------------------------------------------------------


def test_subcell_examples():
    f = rel(2, 2, [(0, 1)])
    assert is_subcell(FinRel.empty(f.dom, f.cod), f).holds
    assert is_subcell(f, f).holds

    cell = is_subcell(rel(1, 2, [(0, 0)]), rel(1, 2, [(0, 1)]))
    assert not cell.holds
    assert cell.counterexample == (0, 0)


def test_subcell_requires_parallel():
    with pytest.raises(InputError):
        is_subcell(rel(1, 2, []), rel(2, 2, []))


@given(composable_pairs(max_size=3), st.data())
def test_subcell_monotone_under_composition(pair, data):
    # inclusions compose: f1 <= g1 and f2 <= g2 gives f1;f2 <= g1;g2
    f1, f2 = pair
    g1 = union([f1, data.draw(finrels(dom_size=f1.dom.size, cod_size=f1.cod.size))])
    g2 = union([f2, data.draw(finrels(dom_size=f2.dom.size, cod_size=f2.cod.size))])
    assert is_subcell(f1.compose(f2), g1.compose(g2)).holds


# -- union -------------------------------------------------------------------


def test_union_examples():
    f = rel(2, 2, [(0, 1)])
    assert union([f]) == f
    assert union([FinRel.empty(f.dom, f.cod), f]) == f
    assert union(
        [rel(2, 2, [(0, 0)]), rel(2, 2, [(1, 1)])]
    ) == FinRel.identity(Carrier(2))
    with pytest.raises(InputError):
        union([])


# -- mappings ----------------------------------------------------------------


def test_is_map_examples():
    assert FinRel.identity(Carrier(2)).is_map()
    assert not rel(1, 2, [(0, 0), (0, 1)]).is_map()
    assert not rel(1, 1, []).is_map()


def test_map_values_requires_map():
    with pytest.raises(PreconditionError):
        rel(1, 1, []).map_values()


# -- adjoints ----------------------------------------------------------------


def test_left_adjoint_rel_examples():
    f = rel(2, 1, [(0, 0), (1, 0)])
    assert is_left_adjoint_rel(f, f.dagger()).ok

    f = rel(1, 2, [(0, 0), (0, 1)])
    rep = is_left_adjoint_rel(f, f.dagger())
    assert not rep.ok
    assert rep.failed == "counit"

    i = FinRel.identity(Carrier(2))
    assert is_left_adjoint_rel(i, i).ok


def test_left_adjoint_rel_carrier_mismatch():
    with pytest.raises(InputError):
        is_left_adjoint_rel(rel(1, 2, []), rel(1, 2, []))


@given(finrels(max_size=3), st.data())
def test_left_adjoint_rel_matches_oracle(f, data):
    g = data.draw(finrels(dom_size=f.cod.size, cod_size=f.dom.size))
    expected = oracles.left_adjoint_pair(
        f.dom.size, f.cod.size, f.pairs(), g.pairs()
    )
    assert is_left_adjoint_rel(f, g).ok == expected


@given(mappings())
def test_every_map_is_left_adjoint_to_its_dagger(f):
    assert is_left_adjoint_rel(f, f.dagger()).ok


# -- kernel ------------------------------------------------------------------


def test_kernel_examples():
    i = FinRel.identity(Carrier(3))
    assert kernel(i) == i

    const = rel(3, 3, [(0, 0), (1, 0), (2, 0)])
    assert kernel(const) == FinRel.full(Carrier(3), Carrier(3))

    two_fibers = rel(3, 2, [(0, 0), (1, 0), (2, 1)])
    assert kernel(two_fibers).pairs() == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]


def test_kernel_requires_map():
    with pytest.raises(PreconditionError):
        kernel(rel(2, 2, [(0, 0), (0, 1), (1, 0)]))


@given(mappings())
def test_kernel_is_equivalence(f):
    assert is_equivalence(kernel(f)).ok
    assert kernel(f).pairs() == sorted(oracles.kernel(f.pairs()))


# -- closure -----------------------------------------------------------------


def test_closure_examples():
    assert refl_trans_closure(rel(2, 2, [])) == FinRel.identity(Carrier(2))
    stepped = refl_trans_closure(rel(3, 3, [(0, 1), (1, 2)]))
    assert stepped.pairs() == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def test_closure_requires_endo():
    with pytest.raises(InputError):
        refl_trans_closure(rel(1, 2, []))


@given(endo_rels())
def test_closure_matches_oracle(f):
    got = refl_trans_closure(f)
    assert set(got.pairs()) == oracles.closure(f.dom.size, f.pairs())
    assert is_preorder(got).ok
    # idempotent, and fixed on anything already a preorder
    assert refl_trans_closure(got) == got


@given(endo_rels(max_size=3))
def test_closure_is_least(f):
    # every preorder containing f contains the closure; scan all candidates
    n = f.dom.size
    cl = refl_trans_closure(f)
    for rows in _all_endo_rows(n):
        p = FinRel(f.dom, f.cod, rows)
        if is_preorder(p).ok and p.contains(f):
            assert p.contains(cl)


def _all_endo_rows(n):
    if n == 0:
        yield ()
        return
    full = 1 << n
    def rec(i, acc):
        if i == n:
            yield tuple(acc)
            return
        for row in range(full):
            acc.append(row)
            yield from rec(i + 1, acc)
            acc.pop()
    yield from rec(0, [])


# -- predicate checkers ------------------------------------------------------


def test_is_preorder_examples():
    assert is_preorder(FinRel.identity(Carrier(2))).ok
    rep = is_preorder(rel(2, 2, [(0, 1)]))
    assert not rep.ok
    assert rep.failed == "reflexivity"
    assert rep.witness == (0, 0)


def test_is_equivalence_examples():
    assert is_equivalence(FinRel.identity(Carrier(2))).ok
    rep = is_equivalence(rel(2, 2, [(0, 0), (1, 1), (0, 1)]))
    assert not rep.ok
    assert rep.failed == "symmetry"
    assert rep.witness == (0, 1)


@given(endo_rels())
def test_preorder_equivalence_match_oracle(f):
    n = f.dom.size
    assert is_preorder(f).ok == oracles.is_preorder(n, set(f.pairs()))
    assert is_equivalence(f).ok == oracles.is_equivalence(n, set(f.pairs()))


# -- products ----------------------------------------------------------------


def test_product_examples():
    i2 = FinRel.identity(Carrier(2))
    assert product_rel(i2, i2) == FinRel.identity(Carrier(4))

    f = rel(1, 2, [(0, 1)])
    g = rel(1, 1, [(0, 0)])
    assert product_rel(f, g).pairs() == [(0, 1)]

    e = FinRel.empty(Carrier(2), Carrier(2))
    assert product_rel(e, e).count() == 0


@given(composable_pairs(max_size=2), composable_pairs(max_size=2))
def test_product_functorial(p, q):
    f, g = p
    h, k = q
    lhs = product_rel(f.compose(g), h.compose(k))
    rhs = product_rel(f, h).compose(product_rel(g, k))
    assert lhs == rhs


# -- serialization -----------------------------------------------------------


@given(finrels())
def test_json_round_trip(f):
    assert FinRel.from_json(f.to_json()) == f


def test_json_rejects_malformed():
    with pytest.raises(InputError):
        FinRel.from_json([1, 2])
    with pytest.raises(InputError):
        FinRel.from_json({"dom": 1, "cod": 1})
    with pytest.raises(InputError):
        FinRel.from_json({"dom": 1, "cod": 1, "pairs": [[0, 5]]})


def test_carrier_validation():
    with pytest.raises(InputError):
        Carrier(-1)
    with pytest.raises(InputError):
        Carrier(2, ("x",))
    with pytest.raises(InputError):
        Carrier(2, ("x", "x"))


# -- kernels against the reference scans -------------------------------------


def _rels(na, nb):
    ca, cb = Carrier(na), Carrier(nb)
    return [FinRel(ca, cb, rows) for rows in product(range(1 << nb), repeat=na)]


ENDO_RELS = [f for n in range(4) for f in _rels(n, n)]


def test_order_checks_match_reference_scans():
    # whole reports on every relation on at most 3 points
    outcomes = Counter()
    for f in ENDO_RELS:
        for check, scan in (
            (is_preorder, oracles.preorder_report),
            (is_partial_order, oracles.partial_order_report),
            (is_equivalence, oracles.equivalence_report),
        ):
            rep = check(f)
            assert rep.to_json() == scan(f).to_json()
            outcomes[rep.check, rep.failed] += 1
    assert set(outcomes) == {
        (check, failed)
        for check, clauses in (
            ("preorder", ()),
            ("partial-order", ("antisymmetry",)),
            ("equivalence", ("symmetry",)),
        )
        for failed in (None, "reflexivity", "transitivity") + clauses
    }


def test_closure_and_compose_match_reference_loop():
    # every relation on at most 3 points, then every composable pair on at
    # most 2, and every relation of at most 3 x 3 against its transpose
    for f in ENDO_RELS:
        assert refl_trans_closure(f).rows == oracles.closure_rows_by_squaring(f.rows)
        assert f.compose(f).rows == oracles.compose_rows_by_loop(f.rows, f.rows)
    for na, nb, nc in product(range(3), repeat=3):
        for f in _rels(na, nb):
            for g in _rels(nb, nc):
                assert f.compose(g).rows == oracles.compose_rows_by_loop(f.rows, g.rows)
    for na, nb in product(range(4), repeat=2):
        for f in _rels(na, nb):
            d = f.dagger()
            assert f.compose(d).rows == oracles.compose_rows_by_loop(f.rows, d.rows)
            assert d.compose(f).rows == oracles.compose_rows_by_loop(d.rows, f.rows)


def test_left_adjoint_rel_matches_reference_scan():
    # every pair f: A -> B, g: B -> A with |A|, |B| <= 3 and |A| * |B| <= 6
    clauses = Counter()
    for na, nb in product(range(4), repeat=2):
        if na * nb > 6:
            continue
        all_g = _rels(nb, na)
        for f in _rels(na, nb):
            for g in all_g:
                rep = is_left_adjoint_rel(f, g)
                assert rep.to_json() == oracles.left_adjoint_rel_report(f, g).to_json()
                clauses[rep.failed] += 1
    assert set(clauses) == {None, "unit", "counit"}
