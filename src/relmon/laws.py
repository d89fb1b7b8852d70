"""The registry of checked laws, swept over the enumerations of search.

verify_universal runs a named law over the relevant enumeration and reports
the first counterexample, in enumeration order, with a full serialization.
Each law registers itself where it is defined, with its key and size bounds.
Most laws are exhaustive; compose-associativity, dagger-laws and
product-functorial also draw random relations from the seeded generator.
Beside the laws live the helpers only laws call: the lax relations and left
adjoints between two monoids, orthocomplementations, lattice homomorphisms,
finite categories, and the naive filters enumeration-complete compares with.

search.verify_universal and search.property_keys import this module when
first called, so enumeration alone compiles no law.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator, NamedTuple, Sequence

from .lattice import (
    FinLattice,
    build_quotient_order,
    check_qa_monad_iff_modular,
    check_star_star,
    hom_defect,
    is_modular,
    quotient_map,
)
from .monoid import (
    LaxMorphism,
    MonadCandidate,
    RelMonoid,
    _assoc_witness,
    _map_square_witness,
    _monad_conditions,
    _square_witness,
    _unlifted,
    check_monoid_axioms,
    from_category,
    induced_monad,
    is_endo_square,
    is_lax_morphism,
    is_left_adjoint_relmon,
    is_monad,
    left_unit_of,
    monad_from_adjunction_conditions,
    monad_reflection,
    quotient_pairs,
    quotient_relmonoid,
    right_unit_of,
)
from .pam import (
    CongruenceCandidate,
    OmlStructure,
    PartialAbelianMonoid,
    adjoint_induces_c1c2c5,
    canonical_order,
    check_congruence,
    check_pam_axioms,
    has_rdp,
    is_effect_algebra,
    is_gea,
    oml_as_effect_algebra,
    quotient_map_is_left_adjoint,
    quotient_pam,
    to_relmonoid,
    validate_oml,
    _decomposition_witness,
)
from .rel import (
    Carrier,
    FinRel,
    _adjoint_witness,
    _inclusion_witness,
    bits,
    compose_rows,
    is_equivalence,
    is_partial_order,
    is_preorder,
    kernel,
    product_rel,
    refl_trans_closure,
    union,
)
from .report import CheckReport, record_verdict
from .search import (
    _UNSET,
    _equivalence_rows,
    _fill,
    _gen_congruences,
    _gen_lattices,
    _gen_monad_orders,
    _gen_pams,
    _gen_relmonoids,
    _is_lattice_rows,
    _pool,
    _pool_upto,
    _preorders,
    _row_col_triples,
)


class _Law(NamedTuple):
    fn: Callable[[int, random.Random], CheckReport]
    default_size: int
    max_size: int


PROPERTIES: dict[str, _Law] = {}


def _law(key: str, default_size: int, max_size: int) -> Callable:
    """Register the decorated function as the law named key, swept at
    default_size unless a size up to max_size is asked for. Its docstring
    states the law, as the README's law table does."""

    def register(fn: Callable[[int, random.Random], CheckReport]) -> Callable:
        PROPERTIES[key] = _Law(fn, default_size, max_size)
        return fn

    return register


# verify_universal names the check of every law report
def _fail(message: str, **details) -> CheckReport:
    return CheckReport.failing("", "law", None, message, **details)


def _pass(**details) -> CheckReport:
    return CheckReport.passing("", **details)


def _all_rels(na: int, nb: int) -> Iterator[tuple[int, ...]]:
    return product(range(1 << nb), repeat=na)


@_law("left-adjoint-iff-map", 3, 3)
def _law_left_adjoint_iff_map(size: int, rng: random.Random) -> CheckReport:
    """adjunction in the relation 2-category = mapping with its transpose"""
    checked = 0
    for na in range(size + 1):
        for nb in range(size + 1):
            ca, cb = Carrier(na), Carrier(nb)
            all_g = [FinRel(cb, ca, grows) for grows in _all_rels(nb, na)]
            for frows in _all_rels(na, nb):
                f = FinRel(ca, cb, frows)
                fmap = f.is_map()
                for g in all_g:
                    # carriers match by construction: read the kernel, not a report
                    expected = fmap and g.rows == f.cols
                    actual = _adjoint_witness(f, g) is None
                    checked += 1
                    if actual != expected:
                        return _fail(
                            "adjunction check disagrees with map-and-transpose",
                            f=f.to_json(),
                            g=g.to_json(),
                            adjoint=actual,
                            map_and_transpose=expected,
                        )
    return _pass(pairs_checked=checked)


@_law("monads-are-preorders", 3, 3)
def _law_monads_are_preorders(size: int, rng: random.Random) -> CheckReport:
    """preorder/equivalence checks agree with first-principles scans"""
    checked = 0
    for n in range(size + 1):
        carrier = Carrier(n)
        for rows in _all_rels(n, n):
            f = FinRel(carrier, carrier, rows)
            refl = all(rows[a] >> a & 1 for a in range(n))
            trans = True
            for a in range(n):
                acc = 0
                m = rows[a]
                while m:
                    low = m & -m
                    acc |= rows[low.bit_length() - 1]
                    m ^= low
                if acc & ~rows[a]:
                    trans = False
                    break
            sym = all(
                rows[b] >> a & 1 for a in range(n) for b in bits(rows[a])
            )
            checked += 1
            if is_preorder(f).ok != (refl and trans):
                return _fail(
                    "preorder check disagrees with reflexive+transitive scan",
                    rel=f.to_json(),
                )
            if is_equivalence(f).ok != (refl and trans and sym):
                return _fail(
                    "equivalence check disagrees with symmetric-preorder scan",
                    rel=f.to_json(),
                )
    return _pass(relations_checked=checked)


def _random_rel(rng: random.Random, na: int, nb: int) -> FinRel:
    return FinRel(
        Carrier(na), Carrier(nb), tuple(rng.randrange(1 << nb) for _ in range(na))
    )


@_law("compose-associativity", 2, 2)
def _law_compose_associativity(size: int, rng: random.Random) -> CheckReport:
    """relation composition associates"""
    checked = 0
    for na, nb, nc, nd in product(range(size + 1), repeat=4):
        cs = [Carrier(k) for k in (na, nb, nc, nd)]
        for frows in _all_rels(na, nb):
            f = FinRel(cs[0], cs[1], frows)
            for grows in _all_rels(nb, nc):
                g = FinRel(cs[1], cs[2], grows)
                fg = f.compose(g)
                for hrows in _all_rels(nc, nd):
                    h = FinRel(cs[2], cs[3], hrows)
                    checked += 1
                    if fg.compose(h).rows != f.compose(g.compose(h)).rows:
                        return _fail(
                            "composition fails to associate",
                            f=f.to_json(), g=g.to_json(), h=h.to_json(),
                        )
    for _ in range(200):
        na, nb, nc, nd = (rng.randrange(1, 5) for _ in range(4))
        f = _random_rel(rng, na, nb)
        g = _random_rel(rng, nb, nc)
        h = _random_rel(rng, nc, nd)
        checked += 1
        if f.compose(g).compose(h).rows != f.compose(g.compose(h)).rows:
            return _fail(
                "composition fails to associate",
                f=f.to_json(), g=g.to_json(), h=h.to_json(),
            )
    return _pass(triples_checked=checked)


@_law("dagger-laws", 2, 2)
def _law_dagger_laws(size: int, rng: random.Random) -> CheckReport:
    """transpose is an involution reversing composition"""
    checked = 0
    for na, nb, nc in product(range(size + 1), repeat=3):
        ca, cb, cc = Carrier(na), Carrier(nb), Carrier(nc)
        for frows in _all_rels(na, nb):
            f = FinRel(ca, cb, frows)
            if f.dagger().dagger().rows != f.rows:
                return _fail("transpose is not an involution", f=f.to_json())
            for grows in _all_rels(nb, nc):
                g = FinRel(cb, cc, grows)
                checked += 1
                if f.compose(g).dagger().rows != g.dagger().compose(f.dagger()).rows:
                    return _fail(
                        "transpose fails to reverse composition",
                        f=f.to_json(), g=g.to_json(),
                    )
    for _ in range(200):
        na, nb, nc = (rng.randrange(1, 5) for _ in range(3))
        f = _random_rel(rng, na, nb)
        g = _random_rel(rng, nb, nc)
        checked += 1
        if f.compose(g).dagger().rows != g.dagger().compose(f.dagger()).rows:
            return _fail(
                "transpose fails to reverse composition",
                f=f.to_json(), g=g.to_json(),
            )
    return _pass(pairs_checked=checked)


@_law("closure-least-preorder", 3, 3)
def _law_closure_least_preorder(size: int, rng: random.Random) -> CheckReport:
    """reflexive-transitive closure is the least preorder over a relation"""
    for n in range(size + 1):
        carrier = Carrier(n)
        pres = _preorders(n)
        for rows in _all_rels(n, n):
            f = FinRel(carrier, carrier, rows)
            cl = refl_trans_closure(f)
            if not is_preorder(cl).ok or not cl.contains(f):
                return _fail(
                    "closure is not a preorder containing the input",
                    rel=f.to_json(),
                )
            for prows in pres:
                if _inclusion_witness(rows, prows) is None:
                    if _inclusion_witness(cl.rows, prows) is not None:
                        return _fail(
                            "a preorder contains the input but not its closure",
                            rel=f.to_json(),
                            preorder=FinRel(carrier, carrier, prows).to_json(),
                        )
    return _pass()


@_law("kernel-equivalence", 3, 4)
def _law_kernel_equivalence(size: int, rng: random.Random) -> CheckReport:
    """kernels of mappings are equivalences"""
    for na in range(size + 1):
        for nb in range(1, size + 1):
            ca, cb = Carrier(na), Carrier(nb)
            for values in product(range(nb), repeat=na):
                f = FinRel(ca, cb, tuple(1 << v for v in values))
                if not is_equivalence(kernel(f)).ok:
                    return _fail(
                        "kernel of a mapping is not an equivalence",
                        f=f.to_json(),
                    )
    return _pass()


@_law("product-functorial", 2, 2)
def _law_product_functorial(size: int, rng: random.Random) -> CheckReport:
    """componentwise product preserves identities and composition"""
    checked = 0

    def agree(f: FinRel, h: FinRel, g: FinRel, k: FinRel) -> bool:
        lhs = product_rel(f.compose(h), g.compose(k))
        rhs = product_rel(f, g).compose(product_rel(h, k))
        return lhs.rows == rhs.rows

    for n in range(size + 1):
        c = Carrier(n)
        ident = FinRel.identity(c)
        if product_rel(ident, ident).rows != FinRel.identity(Carrier(n * n)).rows:
            return _fail("product of identities is not the identity", size=n)
    sizes = [1, 2]
    for a1, b1, c1 in product(sizes, repeat=3):
        for frows in _all_rels(a1, b1):
            f = FinRel(Carrier(a1), Carrier(b1), frows)
            for hrows in _all_rels(b1, c1):
                h = FinRel(Carrier(b1), Carrier(c1), hrows)
                for _ in range(3):
                    a2, b2, c2 = (rng.randrange(1, 4) for _ in range(3))
                    g = _random_rel(rng, a2, b2)
                    k = _random_rel(rng, b2, c2)
                    checked += 1
                    if not agree(f, h, g, k):
                        return _fail(
                            "product relation fails to preserve composition",
                            f=f.to_json(), h=h.to_json(),
                            g=g.to_json(), k=k.to_json(),
                        )
    return _pass(quadruples_checked=checked)


@_law("unit-uniqueness", 3, 3)
def _law_unit_uniqueness(size: int, rng: random.Random) -> CheckReport:
    """every element of a valid monoid has unique one-sided units"""
    count = 0
    for n in range(size + 1):
        for m in _pool("relmonoid", n, False):
            count += 1
            for a in range(n):
                right_unit_of(m, a)
                left_unit_of(m, a)
    return _pass(monoids_checked=count)


@_law("adjoint-transpose-lax", 2, 3)
def _law_adjoint_transpose_lax(size: int, rng: random.Random) -> CheckReport:
    """the transpose of a left adjoint is a lax morphism"""
    monoids = _pool_upto("relmonoid", size)
    for src, dst in product(monoids, repeat=2):
        for h in _left_adjoints(src, dst):
            if not is_lax_morphism(LaxMorphism(dst, src, h.rel.dagger())).ok:
                return _fail("transpose of a left adjoint is not lax", morphism=h.to_json())
    return _pass()


@lru_cache(maxsize=None)
def _lax_rels(src: RelMonoid, dst: RelMonoid) -> tuple[LaxMorphism, ...]:
    """Every lax morphism src -> dst in product order, one table per pair
    for the laws that read it again. _fill places row a, a unit's among the
    subsets of dst's units (the triangle), and checks the square on the src
    triples whose largest index is a; every triple has one, so each full
    table passes both and is not checked again."""
    rows = [_UNSET] * src.n
    due = src.triples_by_last
    full = range(1 << dst.n)
    units = [r for r in full if not r & ~dst.units_mask]
    values = [units if src.units_mask >> a & 1 else full for a in range(src.n)]

    def ok(k: int) -> bool:
        return _square_witness(src, rows[:k + 1], dst, due[k]) is None

    tables = _fill(rows, [(a,) for a in range(src.n)], values, ok)
    return tuple(LaxMorphism(src, dst, FinRel(src.carrier, dst.carrier, tuple(t))) for t in tables)


def _left_adjoints(src: RelMonoid, dst: RelMonoid) -> Iterator[LaxMorphism]:
    """The left adjoints src -> dst in _lax_rels order, uncached, each
    carrying the passing verdict of is_left_adjoint_relmon. A left adjoint
    reflects units, and its square and factorization map the factor pairs of
    a onto those of f[a]; so _fill gives f[a] each unit of dst when a is a
    unit and each non-unit otherwise, of no more factor pairs than a, and
    there is no left adjoint if some a has no such value. At f[k] it checks
    the square on the src triples and factorization at the src elements
    whose largest index is k, so each full map is a left adjoint."""
    f = [_UNSET] * src.n
    due, lifts = src.triples_by_last, src.factors_by_last
    dpm, dfm, m = dst.prod_masks, dst.factor_masks, dst.n
    others = [b for b in range(m) if not dst.units_mask >> b & 1]
    values = [
        [b for b in (dst.unit_list if src.units_mask >> a & 1 else others)
         if dfm[b].bit_count() <= factors.bit_count()]
        for a, factors in enumerate(src.factor_masks)
    ]
    if not all(values):
        return

    def ok(k: int) -> bool:
        square = _map_square_witness(f, dpm, m, due[k])
        return square is None and not any(_unlifted(f, dfm, m, lifts[k]))

    passed = CheckReport.passing("left-adjoint")
    for t in _fill(f, [(a,) for a in range(src.n)], values, ok):
        h = LaxMorphism(src, dst, FinRel(src.carrier, dst.carrier, tuple(1 << b for b in t)))
        record_verdict(is_left_adjoint_relmon, h, passed)
        yield h


@_law("morphism-closure-ops", 2, 2)
def _law_morphism_closure_ops(size: int, rng: random.Random) -> CheckReport:
    """lax morphisms are closed under composition and union"""
    monoids = _pool_upto("relmonoid", size)
    for src, dst in product(monoids, repeat=2):
        rels = [h.rel for h in _lax_rels(src, dst)]
        for a, r1 in enumerate(rels):
            for r2 in rels[a + 1:]:
                if not is_lax_morphism(LaxMorphism(src, dst, union((r1, r2)))).ok:
                    return _fail(
                        "union of lax morphisms is not lax",
                        first=r1.to_json(), second=r2.to_json(),
                    )
        for mid in monoids:
            seconds = [h.rel for h in _lax_rels(dst, mid)]
            for r1 in rels:
                for r2 in seconds:
                    if not is_lax_morphism(LaxMorphism(src, mid, r1.compose(r2))).ok:
                        return _fail(
                            "composite of lax morphisms is not lax",
                            first=r1.to_json(), second=r2.to_json(),
                        )
    return _pass()



def _gen_categories(narr: int) -> list[tuple[int, tuple, dict]]:
    """All labeled categories with the given arrow count, as
    (object count, arrow endpoints, composition table) triples.

    _fill places each arrow's endpoints (s, d), coded s*nobj + d, in product
    order, and prunes once the arrows left cannot give every object a loop.
    Per choice of endpoints and identities, it then places the composites
    of non-identities row-major, each an arrow h with matching endpoints,
    as the mask 1 << h (0 marks a pair that does not compose), so the
    table is the category's prod_masks. ok runs _assoc_witness on the
    triples of _row_col_triples through the placed composite whose cells
    (f, g) and (g, h) are such composites placed no later: so a triple is
    checked once the later of the two is placed, and again at each later
    cell it reads. A triple with an identity composite or a pair that does
    not compose in (f, g) or (g, h) holds, as both bracketings agree.
    """
    keys = tuple(product(range(narr), repeat=2))  # shared by every table
    before = [
        [(fn, gh) for fn, gh in triples if max(fn + gh[0], gh[1]) <= e]
        for e, triples in enumerate(_row_col_triples(narr))
    ]
    results = []
    for nobj in range(narr + 1):  # no objects only without arrows
        ends = list(product(range(nobj), repeat=2))  # shared by every arrows tuple
        codes = [_UNSET] * narr
        picks = [range(nobj * nobj)] * narr

        def loops_left(k: int) -> bool:
            looped = {c // nobj for c in codes[:k + 1] if c // nobj == c % nobj}
            return nobj - len(looped) < narr - k

        for placed in _fill(codes, [(i,) for i in range(narr)], picks, loops_left):
            arrows = tuple(ends[c] for c in placed)
            loops = [[i for i, end in enumerate(arrows) if end == (o, o)] for o in range(nobj)]
            for ids in product(*loops):
                t = [0] * (narr * narr)
                slots, values = [], []
                for e, (i, j) in enumerate(keys):
                    if arrows[i][1] != arrows[j][0]:
                        continue
                    t[e] = 1 << j if i in ids else 1 << i if j in ids else _UNSET
                    if t[e] == _UNSET:
                        slots.append((e,))
                        want = (arrows[i][0], arrows[j][1])
                        values.append([1 << h for h in range(narr) if arrows[h] == want])

                due = [
                    [(fn, gh) for fn, gh in before[e] if t[fn + gh[0]] == t[gh[1]] == _UNSET]
                    for (e,) in slots
                ]

                def ok(k: int) -> bool:
                    return _assoc_witness(t, narr, due[k]) is None

                for table in _fill(t, slots, values, ok):
                    comp = {key: v.bit_length() - 1 for key, v in zip(keys, table) if v}
                    results.append((nobj, arrows, comp))
    return results


@_law("category-axioms", 4, 4)
def _law_category_axioms(size: int, rng: random.Random) -> CheckReport:
    """finite categories satisfy the monoid axioms"""
    count = 0
    for narr in range(size + 1):
        for nobj, arrows, comp in _gen_categories(narr):
            m = from_category(nobj, list(arrows), comp)
            count += 1
            if not check_monoid_axioms(m).ok:
                return _fail(
                    "a finite category fails the monoid axioms",
                    objects=nobj, arrows=list(arrows),
                    comp={f"{i},{j}": v for (i, j), v in comp.items()},
                )
    return _pass(categories_checked=count)


@_law("reflection-least", 2, 3)
def _law_reflection_least(size: int, rng: random.Random) -> CheckReport:
    """closure of a lax endomorphism is the least monad order over it"""
    for m in _pool_upto("relmonoid", size):
        orders = [c.order for c in _gen_monad_orders(m)]
        for f in (h.rel for h in _lax_rels(m, m)):
            cand = monad_reflection(m, f)
            if not is_monad(cand).ok or not cand.order.contains(f):
                return _fail(
                    "closure of a lax endomorphism is not a monad order over it",
                    monoid=m.to_json(), endo=f.to_json(),
                )
            for leq in orders:
                if leq.contains(f) and not leq.contains(cand.order):
                    return _fail(
                        "a monad order contains the endomorphism but not its closure",
                        monoid=m.to_json(), endo=f.to_json(), order=leq.to_json(),
                    )
    return _pass()


@_law("reflection-universal", 2, 3)
def _law_reflection_universal(size: int, rng: random.Random) -> CheckReport:
    """every cocone out of an endomorphism factors through its closure"""
    # f;u within u;leq says each row f[a] lies in box[a], the b whose u[b] is
    # within (u;leq)[a]. Lax endomorphisms are closed under union, so the
    # largest in the box, F, holds the rest, and closure is monotone: only F
    # is checked. cl(F);u within u;leq is cl(F) within the box, so each box is
    # decided once per monoid; fit[t] is the box row of a (u;leq) row t, and
    # up[r] the image of a mask r under leq.
    monoids = _pool_upto("relmonoid", size)
    monads = [_gen_monad_orders(other) for other in monoids]
    for m in monoids:
        endos = {h.rel.rows: h.rel for h in _lax_rels(m, m)}
        decided: set[tuple[int, ...]] = set()
        for other, orders in zip(monoids, monads):
            masks = range(1 << other.n)
            ups = [compose_rows(masks, cand.order.rows) for cand in orders]
            for u in _lax_rels(m, other):
                urows = u.rel.rows
                fit = [sum(1 << b for b, row in enumerate(urows) if not row & ~t) for t in masks]
                for cand, up in zip(orders, ups):
                    box = tuple([fit[up[r]] for r in urows])
                    if box in decided:
                        continue
                    decided.add(box)
                    big = [0] * m.n
                    for rows in endos:
                        if _inclusion_witness(rows, box) is None:
                            big = [r | acc for r, acc in zip(rows, big)]
                    big = tuple(big)
                    if big not in endos:
                        message = "the union of lax endomorphisms is not lax"
                    elif _inclusion_witness(refl_trans_closure(endos[big]).rows, box) is not None:
                        message = "a cocone fails to factor through the closure"
                    else:
                        continue
                    return _fail(
                        message,
                        monoid=m.to_json(), endo=FinRel(m.carrier, m.carrier, big).to_json(),
                        target=other.to_json(), order=cand.order.to_json(),
                        arrow=u.rel.to_json(),
                    )
    return _pass()


@_law("adjunction-monads-symmetric", 3, 3)
def _law_adjunction_monads_symmetric(size: int, rng: random.Random) -> CheckReport:
    """symmetric monad orders are exactly the class-map kernels"""
    for m in _pool_upto("relmonoid", size):
        for rows in _equivalence_rows(m.n):
            order = FinRel(m.carrier, m.carrier, rows)
            cand = MonadCandidate(m, order)
            if not monad_from_adjunction_conditions(cand).ok:
                continue
            quot, h = quotient_relmonoid(m, order)
            if not is_left_adjoint_relmon(h).ok:
                return _fail(
                    "class map of a symmetric monad order is not a left adjoint",
                    monoid=m.to_json(), order=order.to_json(),
                )
            induced = induced_monad(h)
            if induced.order.rows != order.rows:
                return _fail(
                    "adjunction-induced order differs from the original",
                    monoid=m.to_json(), order=order.to_json(),
                )
            if not monad_from_adjunction_conditions(induced).ok:
                return _fail(
                    "induced order is not a symmetric monad order",
                    monoid=m.to_json(), order=order.to_json(),
                )
    return _pass()


@_law("qa-monad-iff-modular", 6, 7)
def _law_qa_monad_iff_modular(size: int, rng: random.Random) -> CheckReport:
    """quotient-order monad property coincides with modularity"""
    lats = _pool_upto("lattice", size)
    for lat in lats:
        rep = check_qa_monad_iff_modular(lat)
        if not rep.ok:
            return _fail(rep.message, lattice=lat.to_json())
    return _pass(lattices_checked=len(lats))


@_law("star-star-iff-modular", 6, 7)
def _law_star_star_iff_modular(size: int, rng: random.Random) -> CheckReport:
    """perspectivity decomposition coincides with modularity"""
    lats = _pool_upto("lattice", size)
    for lat in lats:
        if check_star_star(lat).ok != is_modular(lat).ok:
            return _fail(
                "perspectivity decomposition disagrees with modularity",
                lattice=lat.to_json(),
            )
    return _pass(lattices_checked=len(lats))


@_law("trivial-quotient-arrow", 6, 7)
def _law_trivial_quotient_arrow(size: int, rng: random.Random) -> CheckReport:
    """trivial quotients only point at trivial quotients"""
    for lat in _pool_upto("lattice", size):
        qo = build_quotient_order(lat)
        quots = quotient_pairs(lat.order)
        for i, (a, b) in enumerate(quots):
            if a != b:
                continue
            for j in bits(qo.order.rows[i]):
                c, d = quots[j]
                if c != d:
                    return _fail(
                        "a trivial quotient points at a nontrivial one",
                        lattice=lat.to_json(), source=[a, b], target=[c, d],
                    )
    return _pass()


def _lattice_homs(src: FinLattice, dst: FinLattice) -> dict[tuple, tuple]:
    """Every homomorphism src -> dst, as a value tuple, to its quotient map."""
    return {
        f: quotient_map(f, src, dst)
        for f in product(range(dst.n), repeat=src.n)
        if hom_defect(f, src, dst) is None
    }


def _graph(f: Sequence[int], ncod: int) -> FinRel:
    return FinRel(Carrier(len(f)), Carrier(ncod), tuple(1 << x for x in f))


@_law("q-functorial", 4, 5)
def _law_q_functorial(size: int, rng: random.Random) -> CheckReport:
    """the quotient construction is functorial on lattice homomorphisms"""
    lats = _pool_upto("lattice", size)
    homs = [[_lattice_homs(l1, l2) for l2 in lats] for l1 in lats]
    for i, lat in enumerate(lats):
        if homs[i][i].get(tuple(range(lat.n))) != tuple(range(len(quotient_pairs(lat.order)))):
            return _fail(
                "quotient map of the identity is not the identity",
                lattice=lat.to_json(),
            )
    qos = [build_quotient_order(lat) if is_modular(lat).ok else None for lat in lats]
    for l1, homs1, qo1 in zip(lats, homs, qos):
        for l2, homs12, qo2, homs2 in zip(lats, homs1, qos, homs):
            if qo1 and qo2:
                for v, qv in homs12.items():
                    h = LaxMorphism(qo1.base, qo2.base, _graph(qv, qo2.base.n))
                    if not is_lax_morphism(h).ok or not is_endo_square(
                        h, qo1.order, qo2.order
                    ).ok:
                        return _fail(
                            "quotient map of a homomorphism breaks the order square",
                            src=l1.to_json(), dst=l2.to_json(),
                            hom=_graph(v, l2.n).to_json(),
                        )
            for l3, homs13, homs23 in zip(lats, homs1, homs2):
                for v, qv in homs12.items():
                    for w, qw in homs23.items():
                        if homs13.get(tuple(w[x] for x in v)) != tuple(qw[x] for x in qv):
                            return _fail(
                                "quotient construction fails to preserve composition",
                                first=_graph(v, l2.n).to_json(),
                                second=_graph(w, l3.n).to_json(),
                            )
    return _pass()


@_law("rdp-iff-monad", 5, 6)
def _law_rdp_iff_monad(size: int, rng: random.Random) -> CheckReport:
    """Riesz decomposition coincides with the reverse order being a monad"""
    geas = [p for p in _pool_upto("pam", size) if is_gea(p).ok]
    for p in geas:
        has_rdp(p)  # raises InternalCheckError if its monad cross-check disagrees
    return _pass(geas_checked=len(geas))


@_law("quotient-pam-valid", 5, 6)
def _law_quotient_pam_valid(size: int, rng: random.Random) -> CheckReport:
    """quotients by valid congruences satisfy the axioms"""
    pams = _pool_upto("pam", size)
    for p in pams:
        for cand in _gen_congruences(p):
            if not check_pam_axioms(quotient_pam(cand)).ok:
                return _fail(
                    "quotient by a valid congruence fails the axioms",
                    congruence=cand.to_json(),
                )
    return _pass(pams_checked=len(pams))


@_law("adjoint-induces-congruence", 4, 5)
def _law_adjoint_induces_congruence(size: int, rng: random.Random) -> CheckReport:
    """left adjoints between partial-addition monoids induce congruences"""
    monoids = [to_relmonoid(p) for p in _pool_upto("pam", size)]
    adjoints = 0
    for msrc, mdst in product(monoids, repeat=2):
        for h in _left_adjoints(msrc, mdst):
            adjoints += 1
            if not adjoint_induces_c1c2c5(h).ok:
                return _fail("a left adjoint induces a non-congruence", morphism=h.to_json())
    return _pass(adjoints_checked=adjoints)


@_law("faithful-congruence-adjoint", 5, 6)
def _law_faithful_congruence_adjoint(size: int, rng: random.Random) -> CheckReport:
    """zero-faithful congruences give left-adjoint quotient maps"""
    pams = _pool_upto("pam", size)
    for p in pams:
        for cand in _gen_congruences(p):
            if cand.classes.rows[p.zero] != 1 << p.zero:
                continue
            rep = quotient_map_is_left_adjoint(cand)
            if not rep.ok or not rep.details.get("induced_equals_classes"):
                return _fail(
                    "a zero-faithful congruence fails to give a left-adjoint quotient map",
                    congruence=cand.to_json(),
                )
    return _pass(pams_checked=len(pams))


def _orthocomplementations(lat: FinLattice) -> list[tuple[int, ...]]:
    """Every orthocomplementation of lat, ascending. _fill gives element a
    each of its complements in turn, keeping the placed prefix an involution
    (with no fixed point when n > 1, as a is its own complement only in the
    one-point lattice); validate_oml decides at each full table."""
    n, top, bottom = lat.n, lat.top, lat.bottom
    complements = [
        [c for c in range(n) if lat.join_of(a, c) == top and lat.meet_of(a, c) == bottom]
        for a in range(n)
    ]
    ortho = [_UNSET] * n

    def ok(k: int) -> bool:
        c = ortho[k]
        return ortho[c] == k if c < k else c not in ortho[:k]

    tables = _fill(ortho, [(a,) for a in range(n)], complements, ok)
    structures = (OmlStructure(lat, tuple(t)) for t in tables)
    return [s.ortho for s in structures if validate_oml(s).ok]


@_law("oml-effect-algebra", 6, 7)
def _law_oml_effect_algebra(size: int, rng: random.Random) -> CheckReport:
    """orthomodular lattices give lattice-ordered effect algebras"""
    count = 0
    for lat in _pool_upto("lattice", size):
        for ortho in _orthocomplementations(lat):
            s = OmlStructure(lat, ortho)
            p = oml_as_effect_algebra(s)
            count += 1
            if not is_effect_algebra(p).ok:
                return _fail(
                    "orthomodular structure fails to give an effect algebra",
                    oml=s.to_json(),
                )
            for a in range(p.n):
                if p.defined(a, a) and a != p.zero:
                    return _fail(
                        "a nonzero element is summable with itself",
                        oml=s.to_json(), element=a,
                    )
            if canonical_order(p).rows != lat.order.rows:
                return _fail(
                    "canonical order differs from the lattice order",
                    oml=s.to_json(),
                )
    return _pass(structures_checked=count)


@_law("dimeq-b-matches-square", 3, 3)
def _law_dimeq_b_matches_square(size: int, rng: random.Random) -> CheckReport:
    """the decomposition clause matches the lax square on Boolean algebras"""
    from .catalog import boolean_oml

    for k in range(1, size + 1):
        s = boolean_oml(k)
        p = oml_as_effect_algebra(s)
        m = to_relmonoid(p)
        # every candidate is a preorder, so _monad_conditions fails on the
        # square exactly when _square_witness finds one
        for rows in _equivalence_rows(1 << k):
            b_holds = _decomposition_witness(p, rows) is None
            square_holds = _square_witness(m, rows, m) is None
            if b_holds != square_holds:
                sim = FinRel(m.carrier, m.carrier, rows)
                return _fail(
                    "decomposition clause disagrees with the lax square",
                    exponent=k, sim=sim.to_json(),
                )
    return _pass()


def _naive_relmonoids(n: int) -> list[tuple[int, tuple[tuple[int, int, int], ...]]]:
    triples = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    out = []
    for units_mask in range(1 << n):
        for picks in product((0, 1), repeat=len(triples)):
            mult = frozenset(t for t, on in zip(triples, picks) if on)
            m = RelMonoid(Carrier(n), frozenset(bits(units_mask)), mult)
            if check_monoid_axioms(m).ok:
                out.append((units_mask, tuple(sorted(mult))))
    return sorted(set(out))


def _naive_pams(n: int) -> list[tuple[int, ...]]:
    out = []
    for values in product(range(-1, n), repeat=n * n):
        p = PartialAbelianMonoid(Carrier(n), 0, tuple(values))
        if check_pam_axioms(p).ok:
            out.append(tuple(values))
    return sorted(out)


@_law("enumeration-complete", 2, 2)
def _law_enumeration_complete(size: int, rng: random.Random) -> CheckReport:
    """optimized enumerators agree with naive subset filters"""
    for n in range(size + 1):
        fast = sorted(
            (m.units_mask, m.triples) for m in _gen_relmonoids(n, False)
        )
        if fast != _naive_relmonoids(n):
            return _fail(
                f"relational monoid enumeration differs from the naive filter at size {n}",
            )
    for n in range(1, size + 1):
        fast = sorted(p.plus for p in _gen_pams(n, False))
        if fast != _naive_pams(n):
            return _fail(
                f"partial monoid enumeration differs from the naive filter at size {n}",
            )
    for n in range(1, size + 1):
        carrier = Carrier(n)
        naive_lat = sorted(
            rows
            for rows in _all_rels(n, n)
            if is_partial_order(FinRel(carrier, carrier, rows)).ok
            and _is_lattice_rows(rows) is not None
        )
        fast = sorted(lat.order.rows for lat in _gen_lattices(n, False))
        if fast != naive_lat:
            return _fail(
                f"lattice enumeration differs from the naive filter at size {n}",
            )
        naive_pre = sorted(
            rows
            for rows in _all_rels(n, n)
            if is_preorder(FinRel(carrier, carrier, rows)).ok
        )
        if sorted(_preorders(n)) != naive_pre:
            return _fail(
                f"preorder enumeration differs from the naive filter at size {n}",
            )
    for base in _gen_relmonoids(2, False):
        carrier = base.carrier
        naive = [
            rows
            for rows in _all_rels(2, 2)
            if is_preorder(FinRel(carrier, carrier, rows)).ok
            and _monad_conditions(base, FinRel(carrier, carrier, rows)).ok
        ]
        fast = [c.order.rows for c in _gen_monad_orders(base)]
        if sorted(fast) != sorted(naive):
            return _fail(
                "monad-order enumeration differs from the naive filter",
                base=base.to_json(),
            )
    for base in _gen_pams(2, False):
        naive = [
            rows
            for rows in _all_rels(2, 2)
            if check_congruence(
                CongruenceCandidate(base, FinRel(base.carrier, base.carrier, rows))
            ).ok
        ]
        fast = [c.classes.rows for c in _gen_congruences(base)]
        if sorted(fast) != sorted(naive):
            return _fail(
                "congruence enumeration differs from the naive filter",
                base=base.to_json(),
            )
    return _pass()


@_law("enumeration-deterministic", 3, 3)
def _law_enumeration_deterministic(size: int, rng: random.Random) -> CheckReport:
    """repeated enumeration runs emit identical sequences"""
    for n in range(size + 1):
        first = [(m.units_mask, m.triples) for m in _gen_relmonoids(n, True)]
        second = [(m.units_mask, m.triples) for m in _gen_relmonoids(n, True)]
        if first != second:
            return _fail(f"two monoid enumeration runs differ at size {n}")
    for n in range(1, size + 1):
        if [p.plus for p in _gen_pams(n, True)] != [
            p.plus for p in _gen_pams(n, True)
        ]:
            return _fail(f"two partial-monoid enumeration runs differ at size {n}")
        if [l.order.rows for l in _gen_lattices(n, True)] != [
            l.order.rows for l in _gen_lattices(n, True)
        ]:
            return _fail(f"two lattice enumeration runs differ at size {n}")
    return _pass()
