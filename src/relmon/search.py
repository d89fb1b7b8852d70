"""Exhaustive enumeration of small structures and a registry of checked laws.

The enumerators are the brute-force oracles behind every universally
quantified statement in the toolkit: relational monoids, monad orders over a
fixed base, partial-addition congruences, lattices, and partial abelian
monoids, each within a per-kind size limit. Generation is deterministic;
isomorphism rejection (dedup) keeps the lexicographically least labeling of
each class.

verify_universal runs a named law over the relevant enumeration and reports
the first counterexample, in enumeration order, with a full serialization.
Most laws are exhaustive; compose-associativity, dagger-laws and
product-functorial also draw random relations from the seeded generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from typing import Callable, Iterator, Sequence

from .lattice import (
    FinLattice,
    build_quotient_order,
    check_qa_monad_iff_modular,
    check_star_star,
    is_modular,
    meet_join_tables,
    q_functor,
)
from .monoid import (
    LaxMorphism,
    MonadCandidate,
    RelMonoid,
    _assoc_witness,
    _monad_conditions,
    check_monoid_axioms,
    check_reflection_universal,
    from_category,
    induced_monad,
    is_endo_square,
    is_lax_morphism,
    is_left_adjoint_relmon,
    is_monad,
    left_unit_of,
    monad_from_adjunction_conditions,
    monad_reflection,
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
    _dimension_clause_b,
)
from .rel import (
    Carrier,
    FinRel,
    bits,
    compose_rows,
    is_equivalence,
    is_left_adjoint_rel,
    is_preorder,
    kernel,
    product_rel,
    refl_trans_closure,
    transpose_rows,
)
from .report import CheckReport, InputError


KIND_LIMITS = {
    "relmonoid": 3,
    "monad-order": 6,
    "congruence": 6,
    "lattice": 6,
    "pam": 6,
}


@dataclass(frozen=True)
class EnumSpec:
    kind: str
    size: int
    base: object | None = None
    dedup: bool = True

    def __post_init__(self) -> None:
        if self.kind not in KIND_LIMITS:
            raise InputError(
                f"unknown kind {self.kind!r}; expected one of "
                + ", ".join(sorted(KIND_LIMITS))
            )
        if self.size < 0:
            raise InputError("size must be nonnegative")
        if self.size > KIND_LIMITS[self.kind]:
            raise InputError(
                f"size {self.size} exceeds the {self.kind} limit "
                f"{KIND_LIMITS[self.kind]}"
            )
        if self.kind == "monad-order":
            if not isinstance(self.base, RelMonoid):
                raise InputError("monad-order enumeration needs a monoid base")
            if self.base.n != self.size:
                raise InputError(
                    f"base carrier has size {self.base.n}, not {self.size}"
                )
        elif self.kind == "congruence":
            if not isinstance(self.base, PartialAbelianMonoid):
                raise InputError(
                    "congruence enumeration needs a partial abelian monoid base"
                )
            if self.base.n != self.size:
                raise InputError(
                    f"base carrier has size {self.base.n}, not {self.size}"
                )
        elif self.base is not None:
            raise InputError(f"{self.kind} enumeration takes no base structure")


# ---------------------------------------------------------------------------
# permutation helpers


def _permute_rows(rows: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(rows)
    for a, row in enumerate(compose_rows(rows, [1 << p for p in perm])):
        out[perm[a]] = row
    return tuple(out)


@lru_cache(maxsize=None)
def _perms(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(permutations(range(n)))


@lru_cache(maxsize=None)
def _perms_fixing_zero(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple((0,) + p for p in permutations(range(1, n)))


# ---------------------------------------------------------------------------
# relational monoids


def _nonempty_submasks(mask: int) -> list[int]:
    subs = []
    s = mask
    while s:
        subs.append(s)
        s = (s - 1) & mask
    subs.reverse()
    return subs


def _relmonoid_key(m: RelMonoid) -> tuple[int, tuple[int, ...]]:
    return (m.units_mask, m.prod_masks)


def _dedup_min(items: list, key: Callable, orbit: Callable) -> list:
    """Keep the least labeling of each isomorphism class, ascending by key.

    Walking the items in key order, the first member of each orbit seen is
    its minimum serialized image, so this matches min-over-permutations
    canonicalization at a fraction of the cost.
    """
    out = []
    seen: set = set()
    for s in sorted(items, key=key):
        if key(s) in seen:
            continue
        out.append(s)
        seen.update(orbit(s))
    return out


def _relmonoid_orbit(m: RelMonoid) -> list[tuple[int, tuple[int, ...]]]:
    n = m.n
    pm = m.prod_masks
    keys = []
    for perm in _perms(n):
        moved = [1 << p for p in perm]
        cells = compose_rows(pm, moved)
        (units,) = compose_rows((m.units_mask,), moved)
        ppm = [0] * (n * n)
        for a1 in range(n):
            for a2 in range(n):
                ppm[perm[a1] * n + perm[a2]] = cells[a1 * n + a2]
        keys.append((units, tuple(ppm)))
    return keys


def _monoid_from_pm(n: int, units_mask: int, pm: Sequence[int]) -> RelMonoid:
    mult = []
    for a1 in range(n):
        for a2 in range(n):
            for a in bits(pm[a1 * n + a2]):
                mult.append((a1, a2, a))
    return RelMonoid.make(n, list(bits(units_mask)), mult)


def _gen_relmonoids(n: int, dedup: bool) -> list[RelMonoid]:
    """All relational monoids on a fixed carrier, ascending generation order.

    Unit cells are forced by the unit axioms (a unit multiplies anything to
    at most that thing), so generation chooses the unit set, the nonempty
    witness sets of right and left units per non-unit, and the unconstrained
    cells between non-units. Associativity is the only filter left to run.
    """
    if n == 0:
        return [RelMonoid.make(0, [], [])]
    out = []
    for units_mask in range(1, 1 << n):
        units = list(bits(units_mask))
        non_units = [a for a in range(n) if not units_mask >> a & 1]
        unit_subsets = _nonempty_submasks(units_mask)
        base = [0] * (n * n)
        for y in units:
            base[y * n + y] = 1 << y
        free_cells = [(a, b) for a in non_units for b in non_units]
        s_slots = list(non_units)
        t_slots = list(non_units)
        choice_space = (
            [unit_subsets] * len(s_slots)
            + [unit_subsets] * len(t_slots)
            + [range(1 << n)] * len(free_cells)
        )
        ns = len(s_slots)
        nt = len(t_slots)
        for choice in product(*choice_space):
            pm = base.copy()
            for i, a in enumerate(s_slots):
                for y in bits(choice[i]):
                    pm[a * n + y] = 1 << a
            for i, a in enumerate(t_slots):
                for y in bits(choice[ns + i]):
                    pm[y * n + a] = 1 << a
            for i, (a, b) in enumerate(free_cells):
                pm[a * n + b] = choice[ns + nt + i]
            if _assoc_witness(pm, n) is None:
                out.append(_monoid_from_pm(n, units_mask, pm))
    if dedup:
        out = _dedup_min(out, _relmonoid_key, _relmonoid_orbit)
    return out


@lru_cache(maxsize=None)
def _relmonoids(n: int, dedup: bool) -> tuple[RelMonoid, ...]:
    return tuple(_gen_relmonoids(n, dedup))


# ---------------------------------------------------------------------------
# posets, preorders, lattices


@lru_cache(maxsize=None)
def _labeled_posets(n: int) -> tuple[tuple[int, ...], ...]:
    """All partial orders on {0..n-1} as up-set bitmask rows.

    Each poset on n elements restricts to a unique poset on the first n-1
    and is recovered by choosing the down-set below and the up-set above the
    new element, which makes the recursion complete and duplicate-free.
    """
    if n == 0:
        return ((),)
    k = n - 1
    out = []
    for rows in _labeled_posets(k):
        down = transpose_rows(rows, k)
        downsets = [
            d for d in range(1 << k) if all(down[x] & ~d == 0 for x in bits(d))
        ]
        upsets = [
            u for u in range(1 << k) if all(rows[x] & ~u == 0 for x in bits(u))
        ]
        for d in downsets:
            for u in upsets:
                if d & u:
                    continue
                if any(u & ~rows[x] for x in bits(d)):
                    continue
                newrows = tuple(
                    rows[a] | (1 << k) if d >> a & 1 else rows[a] for a in range(k)
                )
                out.append(newrows + ((1 << k) | u,))
    return tuple(out)


def _is_lattice_rows(
    rows: Sequence[int],
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Meet and join tables of a partial order's up-set rows, or None if it
    is not a lattice."""
    n = len(rows)
    if n == 0:
        return None
    full = (1 << n) - 1
    if full not in rows:
        return None
    down = transpose_rows(rows, n)
    if full not in down:
        return None
    try:
        return meet_join_tables(rows, down)
    except InputError:
        return None


def _gen_lattices(n: int, dedup: bool) -> list[FinLattice]:
    """All lattices on {0..n-1}, from the labeled posets that pass the filter.

    The posets are partial orders by construction, so each lattice is built
    from the tables the filter returns, without validating the order again.
    With dedup on, the posets are walked in ascending row order, skipping
    the orbits of the lattices already kept (relabeling preserves lattices),
    so each class keeps its least labeling, as in _dedup_min, and no other
    lattice's tables are held.
    """
    carrier = Carrier(n)
    posets = _labeled_posets(n)
    seen: set = set()
    out = []
    for rows in sorted(posets) if dedup else posets:
        if rows in seen:
            continue
        meet_join = _is_lattice_rows(rows)
        if meet_join is None:
            continue
        out.append(FinLattice(FinRel(carrier, carrier, rows), *meet_join))
        if dedup:
            seen.update(_permute_rows(rows, p) for p in _perms(n))
    return out


@lru_cache(maxsize=None)
def _lattices(n: int, dedup: bool) -> tuple[FinLattice, ...]:
    return tuple(_gen_lattices(n, dedup))


def _set_partitions(n: int) -> Iterator[list[list[int]]]:
    """Partitions of {0..n-1} in restricted-growth-string order."""
    if n == 0:
        yield []
        return
    rgs = [0] * n

    def rec(i: int, top: int) -> Iterator[list[list[int]]]:
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(top + 1)]
            for a, b in enumerate(rgs):
                blocks[b].append(a)
            yield blocks
            return
        for v in range(top + 2):
            rgs[i] = v
            yield from rec(i + 1, max(top, v))

    rgs[0] = 0
    yield from rec(1, 0)


def _equivalence_rows(n: int) -> list[tuple[int, ...]]:
    out = []
    for blocks in _set_partitions(n):
        rows = [0] * n
        for blk in blocks:
            mask = 0
            for a in blk:
                mask |= 1 << a
            for a in blk:
                rows[a] = mask
        out.append(tuple(rows))
    return out


@lru_cache(maxsize=None)
def _preorders(n: int) -> tuple[tuple[int, ...], ...]:
    """All preorders on {0..n-1}: a partition plus a poset on its blocks."""
    out = []
    for blocks in _set_partitions(n):
        k = len(blocks)
        bmasks = []
        for blk in blocks:
            mask = 0
            for a in blk:
                mask |= 1 << a
            bmasks.append(mask)
        for rows in _labeled_posets(k):
            full_rows = [0] * n
            for blk, row in zip(blocks, compose_rows(rows, bmasks)):
                for a in blk:
                    full_rows[a] = row
            out.append(tuple(full_rows))
    return tuple(out)


def _gen_monad_orders(base: RelMonoid) -> list[MonadCandidate]:
    rep = check_monoid_axioms(base)
    if not rep.ok:
        raise InputError(f"base is not a relational monoid: {rep.summary()}")
    candidates = (
        MonadCandidate(base, FinRel(base.carrier, base.carrier, rows))
        for rows in _preorders(base.n)
    )
    return [c for c in candidates if is_monad(c).ok]


def _gen_congruences(base: PartialAbelianMonoid) -> list[CongruenceCandidate]:
    rep = check_pam_axioms(base)
    if not rep.ok:
        raise InputError(f"base is not a partial abelian monoid: {rep.summary()}")
    out = []
    for rows in _equivalence_rows(base.n):
        cand = CongruenceCandidate(base, FinRel(base.carrier, base.carrier, rows))
        if check_congruence(cand).ok:
            out.append(cand)
    return out


# ---------------------------------------------------------------------------
# partial abelian monoids


def _gen_pams(n: int, dedup: bool) -> list[PartialAbelianMonoid]:
    """All partial abelian monoids on {0..n-1} with the zero at index 0.

    The zero row and column and commutativity are baked into the search;
    cells above the diagonal are assigned depth-first with incremental
    associativity pruning and a full axiom verification at each leaf.

    Each placed cell (a, b) rechecks P1 on its list of triples (x, y, z):
    those with a or b among x, y and z. A triple with a zero coordinate
    always holds, since the zero row and column are fixed, so the lists
    leave it out. The check is complete: P1 for (x, y, z) reads only the
    cells (y, z), (x, y), (x, y+z) and (x+y, z), and each of them has x, y
    or z as a coordinate. So when the last of those cells is placed, every
    cell the triple reads holds its final value and the triple lies in
    that cell's list.
    """
    if n == 0:
        return []
    UNSET = -2
    t = [UNSET] * (n * n)
    for a in range(n):
        t[a] = a  # 0 + a
        t[a * n] = a  # a + 0
    cells = [(a, b) for a in range(1, n) for b in range(a, n)]
    out: list[PartialAbelianMonoid] = []

    # One entry per triple (x, y, z): the row offset x*n, the index of the
    # cell (y, z) (row offset y*n plus z), the index of (x, y), and z.
    triples = [
        (x, y, z, (x * n, y * n + z, x * n + y, z))
        for x in range(n)
        for y in range(n)
        for z in range(n)
    ]
    all_entries = [e for _, _, _, e in triples]
    touching = [
        [
            e
            for x, y, z, e in triples
            if 0 not in (x, y, z) and (a in (x, y, z) or b in (x, y, z))
        ]
        for a, b in cells
    ]

    def p1_ok(entries: list[tuple[int, int, int, int]]) -> bool:
        for xn, yz_i, xy_i, z in entries:
            yz = t[yz_i]
            if yz < 0:  # undefined or unassigned: premise cannot fire yet
                continue
            total = t[xn + yz]
            if total < 0:
                continue
            xy = t[xy_i]
            if xy < 0:
                if xy == -1:
                    return False
                continue
            xyz = t[xy * n + z]
            if xyz != total and xyz != UNSET:
                return False
        return True

    def place(i: int) -> None:
        if i == len(cells):
            if p1_ok(all_entries):
                out.append(PartialAbelianMonoid(Carrier(n), 0, tuple(t)))
            return
        a, b = cells[i]
        entries = touching[i]
        for v in range(-1, n):
            t[a * n + b] = v
            t[b * n + a] = v
            if p1_ok(entries):
                place(i + 1)
        t[a * n + b] = UNSET
        t[b * n + a] = UNSET

    place(0)
    if dedup:
        def orbit(p: PartialAbelianMonoid) -> list[tuple[int, ...]]:
            keys = []
            for perm in _perms_fixing_zero(n):
                pt = [0] * (n * n)
                for a in range(n):
                    for b in range(n):
                        v = p.plus[a * n + b]
                        pt[perm[a] * n + perm[b]] = -1 if v < 0 else perm[v]
                keys.append(tuple(pt))
            return keys

        out = _dedup_min(out, key=lambda p: p.plus, orbit=orbit)
    return out


@lru_cache(maxsize=None)
def _pams(n: int, dedup: bool) -> tuple[PartialAbelianMonoid, ...]:
    return tuple(_gen_pams(n, dedup))


# ---------------------------------------------------------------------------
# finite categories (for the composition-table law)


def _gen_categories(narr: int) -> list[tuple[int, tuple, dict]]:
    """All labeled categories with the given arrow count, as
    (object count, arrow endpoints, composition table) triples."""
    if narr == 0:
        return [(0, (), {})]
    results = []
    for nobj in range(1, narr + 1):
        for arrows in product(product(range(nobj), repeat=2), repeat=narr):
            loops = [
                [i for i, (s, d) in enumerate(arrows) if s == o and d == o]
                for o in range(nobj)
            ]
            if any(not lp for lp in loops):
                continue
            composable = [
                (i, j)
                for i in range(narr)
                for j in range(narr)
                if arrows[i][1] == arrows[j][0]
            ]
            for ids in product(*loops):
                idset = set(ids)
                comp: dict[tuple[int, int], int] = {}
                free = []
                for i, j in composable:
                    if i in idset:
                        comp[(i, j)] = j
                    elif j in idset:
                        comp[(i, j)] = i
                    else:
                        free.append((i, j))

                def assoc_ok() -> bool:
                    for f, g in composable:
                        fg = comp.get((f, g))
                        if fg is None:
                            continue
                        for h in range(narr):
                            if arrows[g][1] != arrows[h][0]:
                                continue
                            gh = comp.get((g, h))
                            lhs = comp.get((fg, h))
                            if gh is None or lhs is None:
                                continue
                            rhs = comp.get((f, gh))
                            if rhs is not None and lhs != rhs:
                                return False
                    return True

                def place(k: int) -> None:
                    if k == len(free):
                        results.append((nobj, arrows, dict(comp)))
                        return
                    i, j = free[k]
                    want = (arrows[i][0], arrows[j][1])
                    for h in range(narr):
                        if arrows[h] != want:
                            continue
                        comp[(i, j)] = h
                        if assoc_ok():
                            place(k + 1)
                        del comp[(i, j)]

                place(0)
    return results


# ---------------------------------------------------------------------------
# public enumeration


def enumerate_structures(spec: EnumSpec) -> Iterator[object]:
    """Every structure of the requested kind and size, valid, deterministic.

    With dedup on, base-free kinds emit one representative per isomorphism
    class (the least labeling); based kinds (monad-order, congruence) are
    labeled by nature and ignore the flag.
    """
    if spec.kind == "relmonoid":
        return iter(_relmonoids(spec.size, spec.dedup))
    if spec.kind == "lattice":
        return iter(_lattices(spec.size, spec.dedup))
    if spec.kind == "pam":
        return iter(_pams(spec.size, spec.dedup))
    if spec.kind == "monad-order":
        return iter(_gen_monad_orders(spec.base))
    return iter(_gen_congruences(spec.base))


def serialize_structure(obj: object) -> dict:
    if hasattr(obj, "to_json"):
        return obj.to_json()
    raise InputError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# the law registry


def _fail(key: str, message: str, **details) -> CheckReport:
    return CheckReport.failing(f"verify:{key}", "law", None, message, **details)


def _pass(key: str, **details) -> CheckReport:
    return CheckReport.passing(f"verify:{key}", **details)


def _all_rels(na: int, nb: int) -> Iterator[tuple[int, ...]]:
    return product(range(1 << nb), repeat=na)


def _law_left_adjoint_iff_map(size: int, rng: random.Random) -> CheckReport:
    checked = 0
    for na in range(size + 1):
        for nb in range(size + 1):
            ca, cb = Carrier(na), Carrier(nb)
            all_g = [FinRel(cb, ca, grows) for grows in _all_rels(nb, na)]
            for frows in _all_rels(na, nb):
                f = FinRel(ca, cb, frows)
                fmap = f.is_map()
                fdag_rows = f.dagger().rows
                for g in all_g:
                    expected = fmap and g.rows == fdag_rows
                    actual = is_left_adjoint_rel(f, g).ok
                    checked += 1
                    if actual != expected:
                        return _fail(
                            "left-adjoint-iff-map",
                            "adjunction check disagrees with map-and-transpose",
                            f=f.to_json(),
                            g=g.to_json(),
                            adjoint=actual,
                            map_and_transpose=expected,
                        )
    return _pass("left-adjoint-iff-map", pairs_checked=checked)


def _law_monads_are_preorders(size: int, rng: random.Random) -> CheckReport:
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
                    "monads-are-preorders",
                    "preorder check disagrees with reflexive+transitive scan",
                    rel=f.to_json(),
                )
            if is_equivalence(f).ok != (refl and trans and sym):
                return _fail(
                    "monads-are-preorders",
                    "equivalence check disagrees with symmetric-preorder scan",
                    rel=f.to_json(),
                )
    return _pass("monads-are-preorders", relations_checked=checked)


def _random_rel(rng: random.Random, na: int, nb: int) -> FinRel:
    return FinRel(
        Carrier(na), Carrier(nb), tuple(rng.randrange(1 << nb) for _ in range(na))
    )


def _law_compose_associativity(size: int, rng: random.Random) -> CheckReport:
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
                            "compose-associativity",
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
                "compose-associativity",
                "composition fails to associate",
                f=f.to_json(), g=g.to_json(), h=h.to_json(),
            )
    return _pass("compose-associativity", triples_checked=checked)


def _law_dagger_laws(size: int, rng: random.Random) -> CheckReport:
    checked = 0
    for na, nb, nc in product(range(size + 1), repeat=3):
        ca, cb, cc = Carrier(na), Carrier(nb), Carrier(nc)
        for frows in _all_rels(na, nb):
            f = FinRel(ca, cb, frows)
            if f.dagger().dagger().rows != f.rows:
                return _fail("dagger-laws", "transpose is not an involution", f=f.to_json())
            for grows in _all_rels(nb, nc):
                g = FinRel(cb, cc, grows)
                checked += 1
                if f.compose(g).dagger().rows != g.dagger().compose(f.dagger()).rows:
                    return _fail(
                        "dagger-laws",
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
                "dagger-laws",
                "transpose fails to reverse composition",
                f=f.to_json(), g=g.to_json(),
            )
    return _pass("dagger-laws", pairs_checked=checked)


def _law_closure_least_preorder(size: int, rng: random.Random) -> CheckReport:
    for n in range(size + 1):
        carrier = Carrier(n)
        pres = _preorders(n)
        for rows in _all_rels(n, n):
            f = FinRel(carrier, carrier, rows)
            cl = refl_trans_closure(f)
            if not is_preorder(cl).ok or not cl.contains(f):
                return _fail(
                    "closure-least-preorder",
                    "closure is not a preorder containing the input",
                    rel=f.to_json(),
                )
            for prows in pres:
                if all(rows[a] & ~prows[a] == 0 for a in range(n)):
                    if any(cl.rows[a] & ~prows[a] for a in range(n)):
                        return _fail(
                            "closure-least-preorder",
                            "a preorder contains the input but not its closure",
                            rel=f.to_json(),
                            preorder=FinRel(carrier, carrier, prows).to_json(),
                        )
    return _pass("closure-least-preorder")


def _law_kernel_equivalence(size: int, rng: random.Random) -> CheckReport:
    for na in range(size + 1):
        for nb in range(1, size + 1):
            ca, cb = Carrier(na), Carrier(nb)
            for values in product(range(nb), repeat=na):
                f = FinRel(ca, cb, tuple(1 << v for v in values))
                if not is_equivalence(kernel(f)).ok:
                    return _fail(
                        "kernel-equivalence",
                        "kernel of a mapping is not an equivalence",
                        f=f.to_json(),
                    )
    return _pass("kernel-equivalence")


def _law_product_functorial(size: int, rng: random.Random) -> CheckReport:
    checked = 0

    def agree(f: FinRel, h: FinRel, g: FinRel, k: FinRel) -> bool:
        lhs = product_rel(f.compose(h), g.compose(k))
        rhs = product_rel(f, g).compose(product_rel(h, k))
        return lhs.rows == rhs.rows

    for n in range(size + 1):
        c = Carrier(n)
        ident = FinRel.identity(c)
        if product_rel(ident, ident).rows != FinRel.identity(Carrier(n * n)).rows:
            return _fail(
                "product-functorial", "product of identities is not the identity",
                size=n,
            )
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
                            "product-functorial",
                            "product relation fails to preserve composition",
                            f=f.to_json(), h=h.to_json(),
                            g=g.to_json(), k=k.to_json(),
                        )
    return _pass("product-functorial", quadruples_checked=checked)


def _law_unit_uniqueness(size: int, rng: random.Random) -> CheckReport:
    count = 0
    for n in range(size + 1):
        for m in _relmonoids(n, False):
            count += 1
            for a in range(n):
                right_unit_of(m, a)
                left_unit_of(m, a)
    return _pass("unit-uniqueness", monoids_checked=count)


def _law_adjoint_transpose_lax(size: int, rng: random.Random) -> CheckReport:
    for ns in range(size + 1):
        for nd in range(size + 1):
            for src in _relmonoids(ns, True):
                for dst in _relmonoids(nd, True):
                    for rows in _all_rels(ns, nd):
                        rel = FinRel(src.carrier, dst.carrier, rows)
                        h = LaxMorphism(src, dst, rel)
                        if not is_lax_morphism(h).ok:
                            continue
                        if not is_left_adjoint_relmon(h).ok:
                            continue
                        back = LaxMorphism(dst, src, rel.dagger())
                        if not is_lax_morphism(back).ok:
                            return _fail(
                                "adjoint-transpose-lax",
                                "transpose of a left adjoint is not lax",
                                morphism=h.to_json(),
                            )
    return _pass("adjoint-transpose-lax")


def _lax_rels(src: RelMonoid, dst: RelMonoid) -> list[LaxMorphism]:
    """Every lax morphism src -> dst, with its verdict cached on it."""
    candidates = (
        LaxMorphism(src, dst, FinRel(src.carrier, dst.carrier, rows))
        for rows in _all_rels(src.n, dst.n)
    )
    return [h for h in candidates if is_lax_morphism(h).ok]


def _law_morphism_closure_ops(size: int, rng: random.Random) -> CheckReport:
    monoids = [m for n in range(size + 1) for m in _relmonoids(n, True)]
    lax = {
        (i, j): [h.rel for h in _lax_rels(src, dst)]
        for i, src in enumerate(monoids)
        for j, dst in enumerate(monoids)
    }
    for (i, j), rels in lax.items():
        src, dst = monoids[i], monoids[j]
        for a, r1 in enumerate(rels):
            for r2 in rels[a + 1:]:
                u = FinRel(
                    src.carrier,
                    dst.carrier,
                    tuple(x | y for x, y in zip(r1.rows, r2.rows)),
                )
                if not is_lax_morphism(LaxMorphism(src, dst, u)).ok:
                    return _fail(
                        "morphism-closure-ops",
                        "union of lax morphisms is not lax",
                        first=r1.to_json(), second=r2.to_json(),
                    )
        for k, mid in enumerate(monoids):
            for r1 in rels:
                for r2 in lax[(j, k)]:
                    if not is_lax_morphism(LaxMorphism(src, mid, r1.compose(r2))).ok:
                        return _fail(
                            "morphism-closure-ops",
                            "composite of lax morphisms is not lax",
                            first=r1.to_json(), second=r2.to_json(),
                        )
    return _pass("morphism-closure-ops")


def _law_category_axioms(size: int, rng: random.Random) -> CheckReport:
    count = 0
    for narr in range(size + 1):
        for nobj, arrows, comp in _gen_categories(narr):
            m = from_category(nobj, list(arrows), comp)
            count += 1
            if not check_monoid_axioms(m).ok:
                return _fail(
                    "category-axioms",
                    "a finite category fails the monoid axioms",
                    objects=nobj, arrows=list(arrows),
                    comp={f"{i},{j}": v for (i, j), v in comp.items()},
                )
    return _pass("category-axioms", categories_checked=count)


def _law_reflection_least(size: int, rng: random.Random) -> CheckReport:
    for n in range(size + 1):
        for m in _relmonoids(n, True):
            orders = [c.order for c in _gen_monad_orders(m)]
            for f in (h.rel for h in _lax_rels(m, m)):
                cand = monad_reflection(m, f)
                if not is_monad(cand).ok or not cand.order.contains(f):
                    return _fail(
                        "reflection-least",
                        "closure of a lax endomorphism is not a monad order over it",
                        monoid=m.to_json(), endo=f.to_json(),
                    )
                for leq in orders:
                    if leq.contains(f) and not leq.contains(cand.order):
                        return _fail(
                            "reflection-least",
                            "a monad order contains the endomorphism but not its closure",
                            monoid=m.to_json(), endo=f.to_json(), order=leq.to_json(),
                        )
    return _pass("reflection-least")


def _law_reflection_universal(size: int, rng: random.Random) -> CheckReport:
    monoids = [m for n in range(size + 1) for m in _relmonoids(n, True)]
    monads = [_gen_monad_orders(other) for other in monoids]
    for m in monoids:
        endos = _lax_rels(m, m)
        for other, orders in zip(monoids, monads):
            arrows = _lax_rels(m, other)
            for endo in endos:
                f = endo.rel
                for cand in orders:
                    for u in arrows:
                        if not u.rel.compose(cand.order).contains(f.compose(u.rel)):
                            continue
                        if not check_reflection_universal(endo, cand, u).ok:
                            return _fail(
                                "reflection-universal",
                                "a cocone fails to factor through the closure",
                                monoid=m.to_json(), endo=f.to_json(),
                                target=other.to_json(), order=cand.order.to_json(),
                                arrow=u.rel.to_json(),
                            )
    return _pass("reflection-universal")


def _law_adjunction_monads_symmetric(size: int, rng: random.Random) -> CheckReport:
    for n in range(size + 1):
        for m in _relmonoids(n, True):
            for rows in _equivalence_rows(n):
                order = FinRel(m.carrier, m.carrier, rows)
                cand = MonadCandidate(m, order)
                if not monad_from_adjunction_conditions(cand).ok:
                    continue
                quot, h = quotient_relmonoid(m, order)
                if not is_left_adjoint_relmon(h).ok:
                    return _fail(
                        "adjunction-monads-symmetric",
                        "class map of a symmetric monad order is not a left adjoint",
                        monoid=m.to_json(), order=order.to_json(),
                    )
                induced = induced_monad(h)
                if induced.order.rows != order.rows:
                    return _fail(
                        "adjunction-monads-symmetric",
                        "adjunction-induced order differs from the original",
                        monoid=m.to_json(), order=order.to_json(),
                    )
                if not monad_from_adjunction_conditions(induced).ok:
                    return _fail(
                        "adjunction-monads-symmetric",
                        "induced order is not a symmetric monad order",
                        monoid=m.to_json(), order=order.to_json(),
                    )
    return _pass("adjunction-monads-symmetric")


def _lattice_pool(size: int) -> list[FinLattice]:
    return [lat for n in range(1, size + 1) for lat in _lattices(n, True)]


def _law_qa_monad_iff_modular(size: int, rng: random.Random) -> CheckReport:
    lats = _lattice_pool(size)
    for lat in lats:
        rep = check_qa_monad_iff_modular(lat)
        if not rep.ok:
            return _fail(
                "qa-monad-iff-modular",
                rep.message,
                lattice=lat.to_json(),
            )
    return _pass("qa-monad-iff-modular", lattices_checked=len(lats))


def _law_star_star_iff_modular(size: int, rng: random.Random) -> CheckReport:
    lats = _lattice_pool(size)
    for lat in lats:
        if check_star_star(lat).ok != is_modular(lat).ok:
            return _fail(
                "star-star-iff-modular",
                "perspectivity decomposition disagrees with modularity",
                lattice=lat.to_json(),
            )
    return _pass("star-star-iff-modular", lattices_checked=len(lats))


def _law_trivial_quotient_arrow(size: int, rng: random.Random) -> CheckReport:
    from .monoid import quotient_pairs

    for lat in _lattice_pool(size):
        qo = build_quotient_order(lat)
        quots = quotient_pairs(lat.order)
        for i, (a, b) in enumerate(quots):
            if a != b:
                continue
            for j in bits(qo.arrow.rows[i]):
                c, d = quots[j]
                if c != d:
                    return _fail(
                        "trivial-quotient-arrow",
                        "a trivial quotient points at a nontrivial one",
                        lattice=lat.to_json(), source=[a, b], target=[c, d],
                    )
    return _pass("trivial-quotient-arrow")


def _lattice_homs(src: FinLattice, dst: FinLattice) -> list[FinRel]:
    out = []
    for values in product(range(dst.n), repeat=src.n):
        good = all(
            values[src.meet_of(x, y)] == dst.meet_of(values[x], values[y])
            and values[src.join_of(x, y)] == dst.join_of(values[x], values[y])
            for x in range(src.n)
            for y in range(src.n)
        )
        if good:
            out.append(
                FinRel(src.order.dom, dst.order.dom, tuple(1 << v for v in values))
            )
    return out


def _law_q_functorial(size: int, rng: random.Random) -> CheckReport:
    from .monoid import quotient_pairs

    lats = _lattice_pool(size)
    for lat in lats:
        ident = FinRel.identity(lat.order.dom)
        q_ident = q_functor(ident, lat, lat)
        if q_ident.rows != FinRel.identity(Carrier(len(quotient_pairs(lat.order)))).rows:
            return _fail(
                "q-functorial", "quotient map of the identity is not the identity",
                lattice=lat.to_json(),
            )
    for l1 in lats:
        for l2 in lats:
            homs12 = _lattice_homs(l1, l2)
            mod12 = is_modular(l1).ok and is_modular(l2).ok
            if mod12:
                qo1, qo2 = build_quotient_order(l1), build_quotient_order(l2)
            for v in homs12:
                qv = q_functor(v, l1, l2)
                if mod12:
                    h = LaxMorphism(qo1.qmonoid, qo2.qmonoid, qv)
                    if not is_lax_morphism(h).ok or not is_endo_square(
                        h, qo1.arrow, qo2.arrow
                    ).ok:
                        return _fail(
                            "q-functorial",
                            "quotient map of a homomorphism breaks the order square",
                            src=l1.to_json(), dst=l2.to_json(), hom=v.to_json(),
                        )
            for l3 in lats:
                homs23 = _lattice_homs(l2, l3)
                for v in homs12:
                    for w in homs23:
                        lhs = q_functor(v.compose(w), l1, l3)
                        rhs = q_functor(v, l1, l2).compose(q_functor(w, l2, l3))
                        if lhs.rows != rhs.rows:
                            return _fail(
                                "q-functorial",
                                "quotient construction fails to preserve composition",
                                first=v.to_json(), second=w.to_json(),
                            )
    return _pass("q-functorial")


def _law_rdp_iff_monad(size: int, rng: random.Random) -> CheckReport:
    geas = [
        p
        for n in range(1, size + 1)
        for p in _pams(n, True)
        if is_gea(p).ok
    ]
    for p in geas:
        has_rdp(p)  # raises InternalCheckError if its monad cross-check disagrees
    return _pass("rdp-iff-monad", geas_checked=len(geas))


def _law_quotient_pam_valid(size: int, rng: random.Random) -> CheckReport:
    pams = [p for n in range(1, size + 1) for p in _pams(n, True)]
    for p in pams:
        for cand in _gen_congruences(p):
            if not check_pam_axioms(quotient_pam(cand)).ok:
                return _fail(
                    "quotient-pam-valid",
                    "quotient by a valid congruence fails the axioms",
                    congruence=cand.to_json(),
                )
    return _pass("quotient-pam-valid", pams_checked=len(pams))


def _additive_maps(
    psrc: PartialAbelianMonoid, pdst: PartialAbelianMonoid
) -> Iterator[tuple[int, ...]]:
    """Maps v with v[0] the target zero and v[a]+v[b] = v[c] for every source
    cell a+b = c, in product order of v[1:]: v[i] is placed ascending, and a
    cell is checked as soon as its largest index is placed."""
    n, m, plus = psrc.n, pdst.n, pdst.plus
    due: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for cell in psrc.cells:
        due[max(cell)].append(cell)
    v = [pdst.zero] * n

    def place(i: int) -> Iterator[tuple[int, ...]]:
        if not all(plus[v[a] * m + v[b]] == v[c] for a, b, c in due[i - 1]):
            return
        if i == n:
            yield tuple(v)
            return
        for x in range(m):
            v[i] = x
            yield from place(i + 1)

    return place(1)


def _law_adjoint_induces_congruence(size: int, rng: random.Random) -> CheckReport:
    pams = [p for n in range(1, size + 1) for p in _pams(n, True)]
    adjoints = 0
    for psrc in pams:
        msrc = to_relmonoid(psrc)
        for pdst in pams:
            mdst = to_relmonoid(pdst)
            for values in _additive_maps(psrc, pdst):
                rel = FinRel(
                    psrc.carrier, pdst.carrier, tuple(1 << v for v in values)
                )
                h = LaxMorphism(msrc, mdst, rel)
                if not is_left_adjoint_relmon(h).ok:
                    continue
                adjoints += 1
                if not adjoint_induces_c1c2c5(h).ok:
                    return _fail(
                        "adjoint-induces-congruence",
                        "a left adjoint induces a non-congruence",
                        morphism=h.to_json(),
                    )
    return _pass("adjoint-induces-congruence", adjoints_checked=adjoints)


def _law_faithful_congruence_adjoint(size: int, rng: random.Random) -> CheckReport:
    pams = [p for n in range(1, size + 1) for p in _pams(n, True)]
    for p in pams:
        for cand in _gen_congruences(p):
            if cand.classes.rows[p.zero] != 1 << p.zero:
                continue
            rep = quotient_map_is_left_adjoint(cand)
            if not rep.ok or not rep.details.get("induced_equals_classes"):
                return _fail(
                    "faithful-congruence-adjoint",
                    "a zero-faithful congruence fails to give a left-adjoint quotient map",
                    congruence=cand.to_json(),
                )
    return _pass("faithful-congruence-adjoint", pams_checked=len(pams))


def _complement_candidates(lat: FinLattice) -> list[list[int]]:
    return [
        [
            c
            for c in range(lat.n)
            if lat.join_of(a, c) == lat.top and lat.meet_of(a, c) == lat.bottom
        ]
        for a in range(lat.n)
    ]


def _orthocomplementations(lat: FinLattice) -> list[tuple[int, ...]]:
    cands = _complement_candidates(lat)
    out = []

    def place(a: int, ortho: list[int]) -> None:
        if a == lat.n:
            s = OmlStructure(lat, tuple(ortho))
            if validate_oml(s).ok:
                out.append(tuple(ortho))
            return
        if ortho[a] >= 0:
            place(a + 1, ortho)
            return
        for c in cands[a]:
            if ortho[c] >= 0 and ortho[c] != a:
                continue
            if c == a and lat.n > 1:
                continue
            prev_a, prev_c = ortho[a], ortho[c]
            ortho[a], ortho[c] = c, a
            place(a + 1, ortho)
            ortho[a], ortho[c] = prev_a, prev_c

    place(0, [-1] * lat.n)
    return out


def _law_oml_effect_algebra(size: int, rng: random.Random) -> CheckReport:
    count = 0
    for lat in _lattice_pool(size):
        for ortho in _orthocomplementations(lat):
            s = OmlStructure(lat, ortho)
            p = oml_as_effect_algebra(s)
            count += 1
            if not is_effect_algebra(p).ok:
                return _fail(
                    "oml-effect-algebra",
                    "orthomodular structure fails to give an effect algebra",
                    oml=s.to_json(),
                )
            for a in range(p.n):
                if p.defined(a, a) and a != p.zero:
                    return _fail(
                        "oml-effect-algebra",
                        "a nonzero element is summable with itself",
                        oml=s.to_json(), element=a,
                    )
            if canonical_order(p).rows != lat.order.rows:
                return _fail(
                    "oml-effect-algebra",
                    "canonical order differs from the lattice order",
                    oml=s.to_json(),
                )
    return _pass("oml-effect-algebra", structures_checked=count)


def _law_dimeq_b_matches_square(size: int, rng: random.Random) -> CheckReport:
    from .catalog import boolean_oml

    for k in range(1, size + 1):
        s = boolean_oml(k)
        m = to_relmonoid(oml_as_effect_algebra(s))
        for rows in _equivalence_rows(1 << k):
            sim = FinRel(m.carrier, m.carrier, rows)
            b_holds = _dimension_clause_b(s, sim) is None
            rep = _monad_conditions(m, sim)
            square_holds = rep.ok or rep.failed != "square"
            if b_holds != square_holds:
                return _fail(
                    "dimeq-b-matches-square",
                    "decomposition clause disagrees with the lax square",
                    exponent=k, sim=sim.to_json(),
                )
    return _pass("dimeq-b-matches-square")


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


def _law_enumeration_complete(size: int, rng: random.Random) -> CheckReport:
    for n in range(size + 1):
        fast = sorted(
            (m.units_mask, m.triples) for m in _gen_relmonoids(n, False)
        )
        if fast != _naive_relmonoids(n):
            return _fail(
                "enumeration-complete",
                f"relational monoid enumeration differs from the naive filter at size {n}",
            )
    for n in range(1, size + 1):
        fast = sorted(p.plus for p in _gen_pams(n, False))
        if fast != _naive_pams(n):
            return _fail(
                "enumeration-complete",
                f"partial monoid enumeration differs from the naive filter at size {n}",
            )
    for n in range(1, size + 1):
        carrier = Carrier(n)
        naive_lat = sorted(
            rows
            for rows in _all_rels(n, n)
            if is_preorder(FinRel(carrier, carrier, rows)).ok
            and all(
                not (a != b and rows[b] >> a & 1)
                for a in range(n)
                for b in bits(rows[a])
            )
            and _is_lattice_rows(rows) is not None
        )
        fast = sorted(lat.order.rows for lat in _gen_lattices(n, False))
        if fast != naive_lat:
            return _fail(
                "enumeration-complete",
                f"lattice enumeration differs from the naive filter at size {n}",
            )
        naive_pre = sorted(
            rows
            for rows in _all_rels(n, n)
            if is_preorder(FinRel(carrier, carrier, rows)).ok
        )
        if sorted(_preorders(n)) != naive_pre:
            return _fail(
                "enumeration-complete",
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
                "enumeration-complete",
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
                "enumeration-complete",
                "congruence enumeration differs from the naive filter",
                base=base.to_json(),
            )
    return _pass("enumeration-complete")


def _law_enumeration_deterministic(size: int, rng: random.Random) -> CheckReport:
    bound = min(size, 3)
    for n in range(bound + 1):
        first = [(m.units_mask, m.triples) for m in _gen_relmonoids(n, True)]
        second = [(m.units_mask, m.triples) for m in _gen_relmonoids(n, True)]
        if first != second:
            return _fail(
                "enumeration-deterministic",
                f"two monoid enumeration runs differ at size {n}",
            )
    for n in range(1, min(size, 4) + 1):
        if [p.plus for p in _gen_pams(n, True)] != [
            p.plus for p in _gen_pams(n, True)
        ]:
            return _fail(
                "enumeration-deterministic",
                f"two partial-monoid enumeration runs differ at size {n}",
            )
        if [l.order.rows for l in _gen_lattices(n, True)] != [
            l.order.rows for l in _gen_lattices(n, True)
        ]:
            return _fail(
                "enumeration-deterministic",
                f"two lattice enumeration runs differ at size {n}",
            )
    return _pass("enumeration-deterministic")


@dataclass(frozen=True)
class _Law:
    fn: Callable[[int, random.Random], CheckReport]
    default_size: int
    max_size: int
    doc: str


PROPERTIES: dict[str, _Law] = {
    "left-adjoint-iff-map": _Law(
        _law_left_adjoint_iff_map, 3, 3,
        "adjunction in the relation 2-category = mapping with its transpose",
    ),
    "monads-are-preorders": _Law(
        _law_monads_are_preorders, 3, 3,
        "preorder/equivalence checks agree with first-principles scans",
    ),
    "compose-associativity": _Law(
        _law_compose_associativity, 2, 2,
        "relation composition associates",
    ),
    "dagger-laws": _Law(
        _law_dagger_laws, 2, 2,
        "transpose is an involution reversing composition",
    ),
    "closure-least-preorder": _Law(
        _law_closure_least_preorder, 3, 3,
        "reflexive-transitive closure is the least preorder over a relation",
    ),
    "kernel-equivalence": _Law(
        _law_kernel_equivalence, 3, 4,
        "kernels of mappings are equivalences",
    ),
    "product-functorial": _Law(
        _law_product_functorial, 2, 2,
        "componentwise product preserves identities and composition",
    ),
    "unit-uniqueness": _Law(
        _law_unit_uniqueness, 3, 3,
        "every element of a valid monoid has unique one-sided units",
    ),
    "adjoint-transpose-lax": _Law(
        _law_adjoint_transpose_lax, 2, 2,
        "the transpose of a left adjoint is a lax morphism",
    ),
    "morphism-closure-ops": _Law(
        _law_morphism_closure_ops, 2, 2,
        "lax morphisms are closed under composition and union",
    ),
    "category-axioms": _Law(
        _law_category_axioms, 4, 4,
        "finite categories satisfy the monoid axioms",
    ),
    "reflection-least": _Law(
        _law_reflection_least, 2, 3,
        "closure of a lax endomorphism is the least monad order over it",
    ),
    "reflection-universal": _Law(
        _law_reflection_universal, 2, 2,
        "every cocone out of an endomorphism factors through its closure",
    ),
    "adjunction-monads-symmetric": _Law(
        _law_adjunction_monads_symmetric, 3, 3,
        "symmetric monad orders are exactly the class-map kernels",
    ),
    "qa-monad-iff-modular": _Law(
        _law_qa_monad_iff_modular, 6, 6,
        "quotient-order monad property coincides with modularity",
    ),
    "star-star-iff-modular": _Law(
        _law_star_star_iff_modular, 6, 6,
        "perspectivity decomposition coincides with modularity",
    ),
    "trivial-quotient-arrow": _Law(
        _law_trivial_quotient_arrow, 6, 6,
        "trivial quotients only point at trivial quotients",
    ),
    "q-functorial": _Law(
        _law_q_functorial, 4, 5,
        "the quotient construction is functorial on lattice homomorphisms",
    ),
    "rdp-iff-monad": _Law(
        _law_rdp_iff_monad, 5, 5,
        "Riesz decomposition coincides with the reverse order being a monad",
    ),
    "quotient-pam-valid": _Law(
        _law_quotient_pam_valid, 5, 5,
        "quotients by valid congruences satisfy the axioms",
    ),
    "adjoint-induces-congruence": _Law(
        _law_adjoint_induces_congruence, 4, 4,
        "left adjoints between partial-addition monoids induce congruences",
    ),
    "faithful-congruence-adjoint": _Law(
        _law_faithful_congruence_adjoint, 5, 5,
        "zero-faithful congruences give left-adjoint quotient maps",
    ),
    "oml-effect-algebra": _Law(
        _law_oml_effect_algebra, 6, 6,
        "orthomodular lattices give lattice-ordered effect algebras",
    ),
    "dimeq-b-matches-square": _Law(
        _law_dimeq_b_matches_square, 3, 3,
        "the decomposition clause matches the lax square on Boolean algebras",
    ),
    "enumeration-complete": _Law(
        _law_enumeration_complete, 2, 2,
        "optimized enumerators agree with naive subset filters",
    ),
    "enumeration-deterministic": _Law(
        _law_enumeration_deterministic, 3, 4,
        "repeated enumeration runs emit identical sequences",
    ),
}


def property_keys() -> list[str]:
    return sorted(PROPERTIES)


def verify_universal(key: str, size: int | None = None, seed: int = 0) -> CheckReport:
    """Run a registered law over its enumeration; first counterexample wins."""
    if key not in PROPERTIES:
        raise InputError(
            f"unknown property {key!r}; known: " + ", ".join(property_keys())
        )
    law = PROPERTIES[key]
    if size is None:
        size = law.default_size
    if size < 0:
        raise InputError("size must be nonnegative")
    if size > law.max_size:
        raise InputError(
            f"size {size} exceeds the safety bound {law.max_size} for {key!r}"
        )
    rng = random.Random(seed)
    return law.fn(size, rng)
