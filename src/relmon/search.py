"""Exhaustive enumeration of small structures, and the entry to the laws.

The enumerators are the brute-force oracles behind every universally
quantified statement in the toolkit: relational monoids, monad orders over a
fixed base, partial-addition congruences, lattices, and partial abelian
monoids. Each kind is named once, in KINDS, with its size limit, its
generator and the type of base it takes, if any; EnumSpec,
enumerate_structures, the laws' cached pools and the CLI read that table.
Generation is deterministic; isomorphism rejection (dedup) keeps the
lexicographically least labeling of each class. One orderly kernel, _fill,
fills every table searched: PAMs and relational monoids here, and in laws
categories (endpoints and composites), lax relations, the left adjoints
between two monoids, and orthocomplementations; its least-labeling test,
_least, also picks the lattice classes. A search decides each candidate
once, by the kernels its checker reports from, and runs no checker on the
candidates it keeps.

verify_universal and property_keys import the law registry, relmon.laws,
when first called, so enumeration alone compiles no law.
"""

from __future__ import annotations

import random
from functools import lru_cache
from heapq import merge
from itertools import permutations, product, takewhile
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .lattice import FinLattice, meet_join_tables
from .monoid import (
    MonadCandidate,
    RelMonoid,
    _assoc_witness,
    _is_lax,
    check_monoid_axioms,
)
from .pam import (
    CongruenceCandidate,
    PartialAbelianMonoid,
    check_pam_axioms,
    _congruence_witness,
    _p1_witness,
)
from .rel import Carrier, FinRel, bits, compose_rows, transpose_rows
from .report import CheckReport, Frozen, InputError, _set, cached_verdict


class _Kind(NamedTuple):
    """An enumerable kind: its size limit, its stream for a valid EnumSpec,
    and for a kind enumerated over a base, the base's type and article noun."""

    limit: int
    generate: Callable[["EnumSpec"], Iterator]
    base: type | None = None
    base_noun: str = ""


# Each kind is named once. The streams look their generators up when called.
KINDS: dict[str, _Kind] = {
    "relmonoid": _Kind(3, lambda spec: _gen_relmonoids(spec.size, spec.dedup)),
    "monad-order": _Kind(
        6, lambda spec: iter(_gen_monad_orders(spec.base)), RelMonoid, "a monoid"
    ),
    "congruence": _Kind(
        6,
        lambda spec: iter(_gen_congruences(spec.base)),
        PartialAbelianMonoid,
        "a partial abelian monoid",
    ),
    "lattice": _Kind(7, lambda spec: _gen_lattices(spec.size, spec.dedup)),
    "pam": _Kind(6, lambda spec: _gen_pams(spec.size, spec.dedup)),
}
KIND_LIMITS = {key: kind.limit for key, kind in KINDS.items()}


class EnumSpec(Frozen):
    kind: str
    size: int
    base: object | None
    dedup: bool

    def __init__(
        self, kind: str, size: int, base: object | None = None, dedup: bool = True
    ) -> None:
        _set(self, "kind", kind)
        _set(self, "size", size)
        _set(self, "base", base)
        _set(self, "dedup", dedup)
        if self.kind not in KINDS:
            raise InputError(
                f"unknown kind {self.kind!r}; expected one of " + ", ".join(sorted(KINDS))
            )
        kind = KINDS[self.kind]
        if self.size < 0:
            raise InputError("size must be nonnegative")
        if self.size > kind.limit:
            raise InputError(f"size {self.size} exceeds the {self.kind} limit {kind.limit}")
        if kind.base is None:
            if self.base is not None:
                raise InputError(f"{self.kind} enumeration takes no base structure")
        elif not isinstance(self.base, kind.base):
            raise InputError(f"{self.kind} enumeration needs {kind.base_noun} base")
        elif self.base.n != self.size:
            raise InputError(f"base carrier has size {self.base.n}, not {self.size}")


# ---------------------------------------------------------------------------
# permutation helpers


def _mask_images(perm: Sequence[int]) -> tuple[int, ...]:
    """perm's image of each n-bit mask; rows relabel as out[perm[a]] = img[rows[a]]."""
    return compose_rows(range(1 << len(perm)), [1 << b for b in perm])


@lru_cache(maxsize=None)
def _perms(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(permutations(range(n)))


@lru_cache(maxsize=None)
def _perms_fixing_zero(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple((0,) + p for p in permutations(range(1, n)))


# ---------------------------------------------------------------------------
# orderly table filling

_UNSET = -2  # a table entry no slot has written yet; -1 stays a value


def _relabelings(n: int, perms: Sequence[tuple[int, ...]], image: Callable) -> list:
    """Per permutation p, as _fill takes it: p's image of a value and, per
    entry of the n x n table u that p makes of t, the entry of t it reads:
    u[p(a)*n + p(b)] = image(p)[t[a*n + b]]. _fill needs no identity."""
    out = []
    for p in perms:
        q = sorted(range(n), key=p.__getitem__)
        out.append((image(p), [q[i // n] * n + q[i % n] for i in range(n * n)]))
    return out


def _least(t: Sequence[int], pairs: Sequence[tuple]) -> bool:
    """Whether no relabeling makes t smaller: pairs gives per relabeling its
    image and the (i, j) to compare in order, u[i] = image[t[j]] against t[i]."""
    for image, prefix in pairs:
        for i, j in prefix:
            w, v = image[t[j]], t[i]
            if w != v:
                if w < v:
                    return False
                break
    return True


def _fill(
    t: list[int], slots: Sequence[Sequence[int]], values: Sequence[Iterable[int]],
    ok: Callable[[int], bool], relabelings: Sequence[tuple] = (),
) -> Iterator[list[int]]:
    """Depth-first fill of t, yielding t itself at each full table.

    Slot k writes each value of values[k] in turn into its entries, which
    start _UNSET and are reset on backtracking, and the walk goes deeper
    while ok(k) holds. Slots in entry order with ascending values give the
    tables in ascending order. Callers: _pam_tables, _gen_relmonoids, and in
    laws _gen_categories, _lax_rels, _left_adjoints, _orthocomplementations.
    The first five check a placed slot with their checkers' own kernels
    (_left_adjoints two, the square and factorization, on values it has
    already cut by factor-pair count).

    With relabelings the fill is orderly (Read 1978, McKay 1998). Each maps
    t to u, u[i] = image[t[source[i]]], and agrees with t off the slots.
    After slot k, _least compares the slot entries in ascending order up to
    the first one unset in t or in its source, and a branch is pruned if
    some u is smaller at the first difference: every completion keeps both
    prefixes, so none is the least of its orbit, and no prefix of a least
    table is pruned. At a full table the test is exact.
    """
    step = {e: k for k, slot in enumerate(slots) for e in slot}
    # after slot k, per relabeling: its image and the (entry, source) pairs
    # set in both, up to the first one that is not
    images: list[list] = [[] for _ in slots]
    for image, source in relabelings:
        pairs = [(i, source[i]) for i in sorted(step)]
        for k, after_k in enumerate(images):
            ready = takewhile(lambda e: max(step[e[0]], step[e[1]]) <= k, pairs)
            after_k.append((image, list(ready)))

    if not slots:
        yield t
        return
    # per slot placed, the values it has left; unlike a self-calling
    # closure, this loop leaves no reference cycle for the collector
    walks = [iter(values[0])]
    while walks:
        k = len(walks) - 1
        for v in walks[k]:
            for e in slots[k]:
                t[e] = v
            if ok(k) and _least(t, images[k]):
                break
        else:
            for e in slots[k]:
                t[e] = _UNSET
            walks.pop()
            continue
        if len(walks) == len(slots):
            yield t
        else:
            walks.append(iter(values[k + 1]))


def _row_col_triples(n: int) -> tuple[tuple[tuple[int, tuple[int, int, int]], ...], ...]:
    """Per entry r*n + c of an n x n table, the triples (x, y, z) with x = r
    or z = c, as the kernels _assoc_witness and _p1_witness take them:
    (x*n, (y, y*n + z, z)). Both bracketings of x*y*z read only row x, (x, y)
    and (x, w) for w in y*z, and column z, (y, z) and (w, z) for w in x*y;
    so a kernel run on these triples at each placed entry, which skips a
    triple that reads an entry not placed, checks every triple."""
    cells = [(y, y * n + z, z) for y, z in product(range(n), repeat=2)]
    return tuple(
        tuple((x * n, (y, i, z)) for x in range(n) for y, i, z in cells if x == r or z == c)
        for r, c in product(range(n), repeat=2)
    )


# ---------------------------------------------------------------------------
# relational monoids


def _gen_relmonoids(n: int, dedup: bool) -> Iterator[RelMonoid]:
    """All relational monoids on a fixed carrier, or the least labeling of
    each isomorphism class ascending by (units_mask, prod_masks).

    _fill fills the prod_masks table per unit set. The unit axioms fix the
    unit x unit cells and leave a unit cell of a non-unit a {} or {a}; ok
    checks that a has a unit on a side once its last unit cell there is
    placed, then runs _assoc_witness on the triples of _row_col_triples
    through the placed cell. The labeled stream keeps the order of the
    product it once filtered: unit sets ascending, per non-unit its right
    and then per non-unit its left unit cells, highest unit first, then the
    other cells row-major. A least labeling has its units at 0..k-1, so
    dedup walks those unit sets alone, row-major and orderly under the
    permutations that keep {0..k-1}.
    """
    if n == 0:
        yield RelMonoid.make(0, [], [])
        return
    triples = _row_col_triples(n)
    masks = [(1 << k) - 1 for k in range(1, n + 1)] if dedup else range(1, 1 << n)
    for units_mask in masks:
        units = list(bits(units_mask))
        non_units = [a for a in range(n) if not units_mask >> a & 1]
        t = [_UNSET] * (n * n)
        for y, z in product(units, repeat=2):
            t[y * n + z] = 1 << y if y == z else 0
        # per non-unit a, its right unit cells a*y, then its left ones y*a
        sides = [(a, [a * n + y for y in reversed(units)]) for a in non_units]
        sides += [(a, [y * n + a for y in reversed(units)]) for a in non_units]
        if dedup:
            cells = [i for i in range(n * n) if t[i] == _UNSET]
            perms = [p for p in _perms(n) if all(units_mask >> p[y] & 1 for y in units)]
            relabelings = _relabelings(n, perms[1:], _mask_images)
        else:
            cells = [i for _, side in sides for i in side]
            cells += [a * n + b for a in non_units for b in non_units]
            relabelings = []
        unit_cell = {i: (0, 1 << a) for a, side in sides for i in side}
        values = [unit_cell.get(i, range(1 << n)) for i in cells]
        due: list[list[list[int]]] = [[] for _ in cells]
        for _, side in sides:
            due[max(map(cells.index, side))].append(side)

        def ok(k: int) -> bool:
            return all(any(t[i] for i in side) for side in due[k]) and (
                _assoc_witness(t, n, triples[cells[k]]) is None
            )

        for table in _fill(t, [(i,) for i in cells], values, ok, relabelings):
            mult = [(i // n, i % n, a) for i, m in enumerate(table) for a in bits(m)]
            yield RelMonoid.make(n, units, mult)


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
    try:
        return meet_join_tables(rows, transpose_rows(rows, n))
    except InputError:
        return None


def _poset_key(rows: Sequence[int], down: Sequence[int]) -> tuple[int, ...]:
    """The choices (d_k, u_k), k = 1..n-1, that build rows in _labeled_posets,
    read from rows and down, their transpose."""
    return tuple([m[k] & (1 << k) - 1 for k in range(1, len(rows)) for m in (down, rows)])


def _completions(n: int) -> Iterator[tuple[int, ...]]:
    """Rows of the n-point posets with bottom n-1 and top 0, one per poset
    on the labels between, in the order of _labeled_posets on them; at
    n = 1 the one point is both. That order ascends by _poset_key, and the
    bottom and top add the same bits at every position of the key, so the
    completions ascend by _poset_key too, and so do their relabelings to
    any other bottom and top that keep the labels between in order."""
    full = (1 << n) - 1
    for poset in _labeled_posets(max(n - 2, 0)):
        yield (1, *(row << 1 | 1 for row in poset), full)[:n]


def _gen_lattices(n: int, dedup: bool) -> Iterator[FinLattice]:
    """All lattices on {0..n-1}, as bounded completions of smaller posets.

    For n >= 2 a lattice has a bottom b and a top t with b != t, and removing
    them leaves an arbitrary poset on the other labels; so the labeled
    lattices are exactly the (b, t, poset on n-2 points) whose completion
    passes _is_lattice_rows (Heitzig and Reinhold, "Counting finite
    lattices"), which returns the tables each lattice is built from. The
    one-point lattice is the case b = t. The labeled stream keeps the order
    of _labeled_posets(n): that recursion picks, for k = 1..n-1, the labels
    below k and then those above it among 0..k-1, each ascending, so its
    order is the lexicographic order of _poset_key, and merging the
    ascending completion streams of every (b, t) gives it. The completion
    (b, t, P) is the image of (n-1, 0, P) under the relabeling sigma that
    sends 0 to t and n-1 to b and keeps the other labels in order, so
    whether it is a lattice depends on P alone: _is_lattice_rows runs once
    per poset, on its (n-1, 0) completion. Each (b, t) stream relabels the
    up- and down-set rows and the tables of those lattices through sigma
    and yields the distinct _poset_key of each beside it for the merge.

    With dedup on, each class keeps its least labeling. That labeling has
    its top at 0 (row 0 is then 1, the least it can be) and its bottom at
    n-1 (moving the bottom last shifts the higher bits of the rows before
    it down and puts a row below the full one where it stood). So only
    (b, t) = (n-1, 0) is walked, in ascending row order, and a candidate is
    kept if it passes _fill's test _least under the relabelings fixing 0
    and n-1, before _is_lattice_rows runs on it. Below two points the
    labeled stream is that one too.
    """
    carrier = Carrier(n)
    if dedup or n < 2:
        # per relabeling p, its mask images and, for each row between the top
        # and the bottom (p fixes both), the row its image reads
        moves = [
            (_mask_images(p), list(enumerate(sorted(range(n), key=p.__getitem__)))[1:-1])
            for p in _perms_fixing_zero(n)[1:]
            if p[-1] == n - 1
        ]
        lattices = (
            (rows, *tables)
            for rows in sorted(_completions(n))
            if _least(rows, moves) and (tables := _is_lattice_rows(rows))
        )
    else:
        # the tables as bytes, for translate, held at an eighth the size
        per_poset = [
            (rows, transpose_rows(rows, n), tuple(map(bytes, tables)))
            for rows in _completions(n)
            if (tables := _is_lattice_rows(rows))
        ]
        sigmas = [
            (t, *(a for a in range(n) if a not in (b, t)), b)
            for b, t in product(range(n), repeat=2)
            if b != t
        ]

        def relabeled(sigma: tuple[int, ...], source: list[int]) -> Iterator[tuple]:
            # sigma's images of masks and of table values; what new rows and tables read
            img, values = _mask_images(sigma), bytes.maketrans(bytes(range(n)), bytes(sigma))
            rows_at = itemgetter(*sorted(range(n), key=sigma.__getitem__))
            tables_at = itemgetter(*source)
            for rows, down, tables in per_poset:
                up = tuple(map(img.__getitem__, rows_at(rows)))
                key = _poset_key(up, [*map(img.__getitem__, rows_at(down))])
                yield key, (up, *(tables_at(table.translate(values)) for table in tables))

        streams = (relabeled(*r) for r in _relabelings(n, sigmas, lambda p: p))
        lattices = (lat for _, lat in merge(*streams))
    for rows, meet, join in lattices:
        yield FinLattice(FinRel(carrier, carrier, rows), meet, join)


def _set_partitions(n: int) -> Iterator[list[int]]:
    """Partitions of {0..n-1} as block bitmasks, in restricted-growth-string
    order: each partition of {0..n-2} puts n-1 into each of its blocks in
    turn, then into a block of its own."""
    if n == 0:
        yield []
        return
    new = 1 << (n - 1)
    for blocks in _set_partitions(n - 1):
        for k in range(len(blocks)):
            yield blocks[:k] + [blocks[k] | new] + blocks[k + 1:]
        yield blocks + [new]


@lru_cache(maxsize=None)
def _equivalence_rows(n: int) -> tuple[tuple[int, ...], ...]:
    # the transpose takes each point to its block, whose mask is then its row
    return tuple(compose_rows(transpose_rows(blocks, n), blocks) for blocks in _set_partitions(n))


@lru_cache(maxsize=None)
def _preorders(n: int) -> tuple[tuple[int, ...], ...]:
    """All preorders on {0..n-1}: a partition plus a poset on its blocks."""
    out = []
    for blocks in _set_partitions(n):
        member = transpose_rows(blocks, n)
        for rows in _labeled_posets(len(blocks)):
            out.append(compose_rows(member, compose_rows(rows, blocks)))
    return tuple(out)


def _gen_monad_orders(base: RelMonoid) -> list[MonadCandidate]:
    """The monad orders on a valid base, in _preorders order: the preorders
    that _monad_conditions' kernels pass, through _is_lax, as a monad order
    is a preorder that is a lax endomorphism."""
    rep = check_monoid_axioms(base)
    if not rep.ok:
        raise InputError(f"base is not a relational monoid: {rep.summary()}")
    carrier = base.carrier
    orders = (FinRel(carrier, carrier, r) for r in _preorders(base.n) if _is_lax(base, r, base))
    return [MonadCandidate(base, order) for order in orders]


@cached_verdict
def _congruence_rows(base: PartialAbelianMonoid) -> tuple[tuple[int, ...], ...]:
    """The class rows of every congruence on a valid base, in
    _equivalence_rows order: the equivalences _congruence_witness passes.
    The rows, not candidates, stay on the base instance, so both congruence
    laws share one sweep over the PAM pool and a caller's base takes them
    along when it goes."""
    return tuple(r for r in _equivalence_rows(base.n) if _congruence_witness(base, r) is None)


def _gen_congruences(base: PartialAbelianMonoid) -> list[CongruenceCandidate]:
    rep = check_pam_axioms(base)
    if not rep.ok:
        raise InputError(f"base is not a partial abelian monoid: {rep.summary()}")
    carrier = base.carrier
    return [CongruenceCandidate(base, FinRel(carrier, carrier, r)) for r in _congruence_rows(base)]


# ---------------------------------------------------------------------------
# partial abelian monoids


def _gen_pams(n: int, dedup: bool) -> Iterator[PartialAbelianMonoid]:
    """All partial abelian monoids on {0..n-1} with the zero at index 0,
    ascending by plus table, or the least table of each isomorphism class.

    Both walk _pam_tables orderly under the permutations fixing the zero,
    which yields the least table of each class. The labeled stream expands
    each of those through the same relabelings into its orbit; orbits of
    distinct classes are disjoint, so a set per class drops the tables a
    nontrivial automorphism repeats. The tables are kept as bytes of v + 1,
    whose order is the plus order, sorted, and built as yielded into PAMs
    that share one carrier.
    """
    if n == 0:
        return
    relabelings = _relabelings(n, _perms_fixing_zero(n)[1:], lambda p: p + (-1,))
    tables = _pam_tables(n, relabelings)
    carrier = Carrier(n)
    if dedup:
        yield from (PartialAbelianMonoid(carrier, 0, tuple(table)) for table in tables)
        return
    # per relabeling, its image of v + 1 (-1 reads the last entry, 0)
    shifted = [([v + 1 for v in image], source) for image, source in relabelings]
    keys = []
    for t in tables:
        orbit = {bytes([v + 1 for v in t])}
        orbit.update(bytes([image[t[s]] for s in source]) for image, source in shifted)
        keys.extend(orbit)
    keys.sort()
    value = range(-1, n)
    for key in keys:
        yield PartialAbelianMonoid(carrier, 0, tuple(map(value.__getitem__, key)))


def _pam_tables(n: int, relabelings: Sequence[tuple]) -> Iterator[list[int]]:
    """The plus tables of the PAMs on {0..n-1} with the zero at index 0,
    ascending, through _fill with the given relabelings.

    _fill places the cells above the diagonal row-major, each with its
    mirror, with the values -1..n-1 ascending. Each placed cell runs
    _p1_witness on the triples of _row_col_triples through it or its
    mirror, as P1 for (x, y, z) reads (x, y) and (x, y+z) in row x and
    (y, z) and (x+y, z) in column z. Triples with a zero coordinate hold,
    as the zero row and column are fixed, and are left out; so is a triple
    whose cell (x, y) or (y, z) is placed later, which checks it then.
    """
    t = [_UNSET] * (n * n)
    for a in range(n):
        t[a] = a  # 0 + a
        t[a * n] = a  # a + 0
    cells = [(a, b) for a in range(1, n) for b in range(a, n)]

    slots = [(a * n + b, b * n + a) for a, b in cells]
    step = {e: k for k, slot in enumerate(slots) for e in slot}
    triples = _row_col_triples(n)
    touching = [
        [
            (xn, yz)
            for xn, yz in dict.fromkeys(triples[a * n + b] + triples[b * n + a])
            if xn and yz[0] and yz[2] and max(step[xn + yz[0]], step[yz[1]]) <= k
        ]
        for k, (a, b) in enumerate(cells)
    ]

    def p1_ok(k: int) -> bool:
        return _p1_witness(t, n, touching[k]) is None

    return _fill(t, slots, [range(-1, n)] * len(cells), p1_ok, relabelings)


# ---------------------------------------------------------------------------
# public enumeration


def enumerate_structures(spec: EnumSpec) -> Iterator[object]:
    """Every structure of the requested kind and size, valid, deterministic.

    Base-free kinds stream from their generators, not the laws' pools. With
    dedup on they emit one representative per isomorphism class (the least
    labeling); based kinds (monad-order, congruence) are labeled by nature
    and ignore the flag.
    """
    return KINDS[spec.kind].generate(spec)


@lru_cache(maxsize=None)
def _pool(kind: str, n: int, dedup: bool) -> tuple:
    """The laws' cached enumeration of a base-free kind on n points."""
    return tuple(enumerate_structures(EnumSpec(kind, n, dedup=dedup)))


def _pool_upto(kind: str, size: int) -> list:
    """Every deduplicated structure of a base-free kind on at most size points."""
    return [s for n in range(size + 1) for s in _pool(kind, n, True)]


def serialize_structure(obj: object) -> dict:
    """The JSON form of an enumerated structure, as perfbench hashes its streams."""
    if hasattr(obj, "to_json"):
        return obj.to_json()
    raise InputError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# the laws, compiled on first use


def property_keys() -> list[str]:
    from .laws import PROPERTIES

    return sorted(PROPERTIES)


def verify_universal(key: str, size: int | None = None, seed: int = 0) -> CheckReport:
    """Run a registered law over its enumeration; first counterexample wins."""
    from .laws import PROPERTIES

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
    rep = law.fn(size, random.Random(seed))
    return CheckReport(f"verify:{key}", rep.ok, rep.failed, rep.witness, rep.message, rep.details)
