"""Monoids internal to the category of sets and relations.

A relational monoid is a carrier with a set of units and a multiplication
*relation* on pairs: mult holds triples (a1, a2, a) meaning "a is a product of
a1 and a2". Units and products need not be unique or total, which is what
separates these from ordinary monoids; partial monoids, categories, and
interval algebras all land here.

The unit axioms say that multiplying by a unit on the right (left) relates a
to exactly a itself, for at least one unit. Associativity says the two ways of
composing a triple relate to exactly the same set of outcomes. Checkers return
a CheckReport naming the failed axiom and the first witness in lexicographic
scan order.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, product
from typing import Iterable, Iterator, Mapping, Sequence

from .rel import (
    Carrier,
    FinRel,
    _inclusion_witness,
    bits,
    class_map,
    compose_rows,
    in_field,
    is_equivalence,
    is_partial_order,
    is_preorder,
    json_labels,
    json_size,
    kernel,
    lowest_bit,
    refl_trans_closure,
    transpose_rows,
)
from .report import (
    CheckReport,
    Frozen,
    InputError,
    PreconditionError,
    _set,
    cached_verdict,
    json_fields,
)


class RelMonoid(Frozen):
    carrier: Carrier
    units: frozenset[int]
    mult: frozenset[tuple[int, int, int]]

    def __init__(
        self, carrier: Carrier, units: frozenset[int], mult: frozenset[tuple[int, int, int]]
    ) -> None:
        _set(self, "carrier", carrier)
        _set(self, "units", units)
        _set(self, "mult", mult)
        n = self.carrier.size
        for y in self.units:
            if not (type(y) is int and 0 <= y < n):
                raise InputError(f"unit index {y!r} out of range for carrier size {n}")
        for triple in self.mult:
            if len(triple) != 3 or not all(
                type(x) is int and 0 <= x < n for x in triple
            ):
                raise InputError(
                    f"mult triple {triple!r} out of range for carrier size {n}"
                )

    @classmethod
    def make(
        cls,
        size: int,
        units: Iterable[int],
        mult: Iterable[Sequence[int]],
        labels: Sequence[str] | None = None,
    ) -> "RelMonoid":
        carrier = Carrier(size, tuple(labels) if labels is not None else None)
        return cls(carrier, frozenset(units), frozenset(tuple(t) for t in mult))

    @cached_property
    def n(self) -> int:
        return self.carrier.size

    @cached_property
    def triples(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(sorted(self.mult))

    @cached_property
    def unit_list(self) -> tuple[int, ...]:
        return tuple(sorted(self.units))

    @cached_property
    def units_mask(self) -> int:
        m = 0
        for y in self.units:
            m |= 1 << y
        return m

    @cached_property
    def prod_masks(self) -> tuple[int, ...]:
        """prod_masks[a1 * n + a2] is the bitmask of products of (a1, a2)."""
        n = self.n
        masks = [0] * (n * n)
        for a1, a2, a in self.mult:
            masks[a1 * n + a2] |= 1 << a
        return tuple(masks)

    @cached_property
    def triples_by_last(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per element a, the triples whose largest index is a, ascending:
        those a search that places rows 0, 1, ... can check once a is set."""
        due: list[list[tuple[int, int, int]]] = [[] for _ in range(self.n)]
        for triple in self.triples:
            due[max(triple)].append(triple)
        return tuple(map(tuple, due))

    @cached_property
    def factor_masks(self) -> tuple[int, ...]:
        """factor_masks[a] has bit a1 * n + a2 set for each (a1, a2)*a."""
        return transpose_rows(self.prod_masks, self.n)

    @cached_property
    def factors_by_last(self) -> tuple[tuple[tuple[int, tuple], ...], ...]:
        """Per index k, each element a with its triples (a1, a2, a) when k is
        the largest index they hold (a, if none), ascending: those a search
        that places rows 0, 1, ... can lift once k is set."""
        due: list[list] = [[] for _ in range(self.n)]
        for a in range(self.n):
            over = tuple(t for t in self.triples if t[2] == a)
            due[max([a, *map(max, over)])].append((a, over))
        return tuple(map(tuple, due))

    def to_json(self) -> dict:
        out: dict = {
            "carrier": self.n,
            "units": [int(y) for y in self.unit_list],
            "mult": [[a1, a2, a] for a1, a2, a in self.triples],
        }
        if self.carrier.labels is not None:
            out["labels"] = list(self.carrier.labels)
        return out

    @classmethod
    def from_json(cls, obj: object) -> "RelMonoid":
        size, units, mult = json_fields(obj, "monoid", "carrier", "units", "mult")
        json_size(size)
        if not isinstance(units, list) or not all(type(y) is int for y in units):
            raise InputError("field 'units' must be a list of indices")
        if not isinstance(mult, list) or not all(
            isinstance(t, list) and len(t) == 3 and all(type(x) is int for x in t)
            for t in mult
        ):
            raise InputError("field 'mult' must be a list of [a1, a2, a] triples")
        labels = json_labels(obj, size)
        # the constructor checks the units before the products
        in_field("units", cls.make, size, units, ())
        return in_field("mult", cls.make, size, units, mult, labels)


class LaxMorphism(Frozen):
    """A relation between the carriers of two relational monoids."""

    src: RelMonoid
    dst: RelMonoid
    rel: FinRel

    def __init__(self, src: RelMonoid, dst: RelMonoid, rel: FinRel) -> None:
        _set(self, "src", src)
        _set(self, "dst", dst)
        _set(self, "rel", rel)
        if self.rel.dom.size != self.src.n or self.rel.cod.size != self.dst.n:
            raise InputError(
                f"morphism relation is {self.rel.dom.size}->{self.rel.cod.size} "
                f"but the monoids have sizes {self.src.n} and {self.dst.n}"
            )

    def to_json(self) -> dict:
        return {
            "src": self.src.to_json(),
            "dst": self.dst.to_json(),
            "rel": [[a, b] for a, b in self.rel.pairs()],
        }

    @classmethod
    def from_json(cls, obj: object) -> "LaxMorphism":
        src, dst, _ = json_fields(obj, "morphism", "src", "dst", "rel")
        src = in_field("src", RelMonoid.from_json, src)
        dst = in_field("dst", RelMonoid.from_json, dst)
        for key, m in (("src", src), ("dst", dst)):
            rep = check_monoid_axioms(m)
            if not rep.ok:
                raise InputError(f"field {key!r}: not a relational monoid: {rep.summary()}")
        rel = in_field("rel", FinRel.from_pairs, src.carrier, dst.carrier, obj["rel"])
        return cls(src, dst, rel)


class MonadCandidate(Frozen):
    """A relational monoid with a candidate order 1-cell on its carrier."""

    base: RelMonoid
    order: FinRel

    def __init__(self, base: RelMonoid, order: FinRel) -> None:
        _set(self, "base", base)
        _set(self, "order", order)
        if self.order.dom.size != self.base.n or self.order.cod.size != self.base.n:
            raise InputError(
                f"order relation is {self.order.dom.size}->{self.order.cod.size} "
                f"but the base carrier has size {self.base.n}"
            )

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "order": [[a, b] for a, b in self.order.pairs()],
        }

    @classmethod
    def from_json(cls, obj: object) -> "MonadCandidate":
        base, _ = json_fields(obj, "monad candidate", "base", "order")
        base = in_field("base", RelMonoid.from_json, base)
        order = in_field("order", FinRel.from_pairs, base.carrier, base.carrier, obj["order"])
        return cls(base, order)


# ---------------------------------------------------------------------------
# axiom checking


def _assoc_witness(
    pm: Sequence[int], n: int, triples: Iterable[tuple[int, tuple[int, int, int]]]
) -> tuple[int, int, int, int, int] | None:
    """First triple (a1, a2, a3) of triples whose two bracketings differ, or None.

    pm is a prod_masks table on n elements, and a triple comes as
    (a1*n, (a2, a2*n + a3, a3)): the row of a1 and the cell of a2*a3. A
    negative entry is one not placed yet, and a triple that reads one is
    skipped. The witness carries both outcome masks: (a1, a2, a3, outcomes
    of (a1*a2)*a3, outcomes of a1*(a2*a3)).
    """
    for row1, (a2, i23, a3) in triples:
        m12, m23 = pm[row1 + a2], pm[i23]
        if m12 < 0 or m23 < 0:
            continue
        lhs = 0
        while m12:
            low = m12 & -m12
            lhs |= pm[(low.bit_length() - 1) * n + a3]
            m12 ^= low
        rhs = 0
        while m23:
            low = m23 & -m23
            rhs |= pm[row1 + low.bit_length() - 1]
            m23 ^= low
        # an unplaced entry read makes its side negative
        if lhs != rhs and lhs >= 0 and rhs >= 0:
            return row1 // n, a2, a3, lhs, rhs
    return None


@cached_verdict
def check_monoid_axioms(m: RelMonoid) -> CheckReport:
    """Unit and associativity axioms for a relational monoid.

    Scan order: right unit per element (existence, then uniqueness over units
    and stray products ascending), then left unit, then associativity over
    (a1, a2, a3) ascending with the first mismatched outcome as witness, by
    _assoc_witness, the relational-monoid and category generators' kernel.

    Witness shapes: (a,) for a missing unit; (a, y, b) for a unit y relating a
    to a stray b != a; (a1, a2, a3, z) for an outcome z reachable under only
    one bracketing.
    """
    n = m.n
    pm = m.prod_masks
    lab = m.carrier.label
    for side in ("right", "left"):
        for a in range(n):
            masks = _unit_masks(m, a, side)
            if not any(mask >> a & 1 for mask in masks):
                return CheckReport.failing(
                    "monoid-axioms",
                    f"{side}-unit",
                    (a,),
                    f"element {lab(a)} has no {side} unit",
                )
            for y, mask in zip(m.unit_list, masks):
                extra = mask & ~(1 << a)
                if extra:
                    b = lowest_bit(extra)
                    return CheckReport.failing(
                        "monoid-axioms",
                        f"{side}-unit",
                        (a, y, b),
                        f"unit {lab(y)} multiplies {lab(a)} to {lab(b)} on the {side}",
                    )
    cells = [(a2, a2 * n + a3, a3) for a2, a3 in product(range(n), repeat=2)]
    bad = _assoc_witness(pm, n, product([a * n for a in range(n)], cells))
    if bad is not None:
        a1, a2, a3, lhs, rhs = bad
        z = lowest_bit(lhs ^ rhs)
        side = "(a1*a2)*a3" if lhs >> z & 1 else "a1*(a2*a3)"
        return CheckReport.failing(
            "monoid-axioms",
            "associativity",
            (a1, a2, a3, z),
            f"{m.carrier.render((a1, a2, a3))} reaches {lab(z)} only via {side}",
        )
    return CheckReport.passing("monoid-axioms")


def _unit_masks(m: RelMonoid, a: int, side: str) -> list[int]:
    """Products of a with each unit y, in unit_list order: (a, y) on the
    "right" side, (y, a) on the "left"."""
    n, pm = m.n, m.prod_masks
    if side == "right":
        return [pm[a * n + y] for y in m.unit_list]
    return [pm[y * n + a] for y in m.unit_list]


def _unit_of(m: RelMonoid, a: int, side: str) -> int:
    if not 0 <= a < m.n:
        raise InputError(f"element {a} out of range for carrier size {m.n}")
    masks = _unit_masks(m, a, side)
    candidates = [y for y, mask in zip(m.unit_list, masks) if mask >> a & 1]
    if len(candidates) != 1:
        raise PreconditionError(
            f"monoid axioms violated: element {m.carrier.label(a)} has "
            f"{len(candidates)} {side} units"
        )
    return candidates[0]


def right_unit_of(m: RelMonoid, a: int) -> int:
    """The unique unit y with (a, y)*a; errors if the unit axioms fail at a."""
    return _unit_of(m, a, "right")


def left_unit_of(m: RelMonoid, a: int) -> int:
    """The unique unit y with (y, a)*a; errors if the unit axioms fail at a."""
    return _unit_of(m, a, "left")


# ---------------------------------------------------------------------------
# constructors


def from_monoid_table(
    table: Sequence[Sequence[int]],
    unit: int,
    labels: Sequence[str] | None = None,
) -> RelMonoid:
    """Relational monoid from an ordinary multiplication table (graph of *)."""
    n = len(table)
    if not 0 <= unit < n:
        raise InputError(f"unit index {unit} out of range for table size {n}")
    mult = set()
    for a, row in enumerate(table):
        if len(row) != n:
            raise InputError(f"table row {a} has length {len(row)}, expected {n}")
        for b, c in enumerate(row):
            if not (type(c) is int and 0 <= c < n):
                raise InputError(f"table cell ({a}, {b}) holds {c!r}, out of range")
            mult.add((a, b, c))
    return RelMonoid.make(n, [unit], mult, labels)


def from_category(
    objects: int,
    arrows: Sequence[tuple[int, int]],
    comp: Mapping[tuple[int, int], int],
) -> RelMonoid:
    """Arrows-and-composition presentation of a finite category as a monoid.

    Composition is diagrammatic: (f, g)*h iff h = comp[f, g] = "f then g",
    defined exactly when dst(f) = src(g). Units are the identity arrows,
    detected from comp; a missing identity is an input error. Associativity is
    not validated here; run check_monoid_axioms on the result to diagnose it.
    """
    narr = len(arrows)
    for i, (s, d) in enumerate(arrows):
        if not (0 <= s < objects and 0 <= d < objects):
            raise InputError(f"arrow {i} has endpoints ({s}, {d}) out of range")
    composable = {
        (i, j)
        for i in range(narr)
        for j in range(narr)
        if arrows[i][1] == arrows[j][0]
    }
    for key in comp:
        if tuple(key) not in composable:
            raise InputError(f"composition defined on non-composable pair {key!r}")
    mult = set()
    for i, j in sorted(composable):
        if (i, j) not in comp:
            raise InputError(f"composition missing for composable pair ({i}, {j})")
        h = comp[(i, j)]
        if not (type(h) is int and 0 <= h < narr):
            raise InputError(f"composition value {h!r} for pair ({i}, {j}) out of range")
        mult.add((i, j, h))
    units = set()
    for o in range(objects):
        loops = [i for i, (s, d) in enumerate(arrows) if s == o and d == o]
        ids = [
            i
            for i in loops
            if all(comp[(i, g)] == g for g in range(narr) if arrows[g][0] == o)
            and all(comp[(f, i)] == f for f in range(narr) if arrows[f][1] == o)
        ]
        if not ids:
            raise InputError(f"object {o} has no identity arrow")
        units.update(ids)
    return RelMonoid.make(narr, units, mult)


def quotient_pairs(order: FinRel) -> list[tuple[int, int]]:
    """Comparable pairs (a, b) with a below b, in lexicographic order.

    This fixes the carrier indexing used for every quotient-of-poset monoid.
    """
    return [
        (a, b)
        for a in range(order.dom.size)
        for b in bits(order.rows[a])
    ]


def from_poset_quotients(order: FinRel) -> RelMonoid:
    """Monoid of quotients b/a (a below b) of a finite poset.

    Multiplication composes intervals end to end: (b/a, d/c)*(d/a) iff b = c.
    Units are the trivial quotients a/a. The input must be a partial order.
    """
    rep = is_partial_order(order)
    if not rep.ok:
        raise InputError(f"quotients need a partial order; {rep.summary()}")
    quots = quotient_pairs(order)
    index = {q: i for i, q in enumerate(quots)}
    mult = set()
    for i, (a, b) in enumerate(quots):
        for d in bits(order.rows[b]):
            mult.add((i, index[(b, d)], index[(a, d)]))
    units = {i for i, (a, b) in enumerate(quots) if a == b}
    lab = order.dom.label
    labels = tuple(f"{lab(b)}/{lab(a)}" for a, b in quots)
    return RelMonoid.make(len(quots), units, mult, labels)


def interval_monoid(n: int) -> RelMonoid:
    """Interval algebra on {0..n}: (a, b)*x iff max(a, b) <= x <= min(a+b, n).

    The two-sided bound keeps both unit axioms: multiplying by 0 on either
    side relates a to exactly a. The multiplication is still not a partial
    mapping once n >= 2, e.g. (1, 1) relates to both 1 and 2.
    """
    if n < 1:
        raise InputError("interval monoid needs n >= 1")
    mult = {
        (a, b, x)
        for a in range(n + 1)
        for b in range(n + 1)
        for x in range(max(a, b), min(a + b, n) + 1)
    }
    return RelMonoid.make(n + 1, [0], mult)


def _poly_mul(p: tuple[int, ...], q: tuple[int, ...], mod: int) -> tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = (out[i + j] + a * b) % mod
    return tuple(out)


def _poly_label(coeffs: tuple[int, ...]) -> str:
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        if power == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}x" if power == 1 else f"{head}x^{power}")
    return "+".join(terms) if terms else "0"


def poly_monoid(q: int, d: int) -> RelMonoid:
    """Monic polynomials over GF(q) of degree <= d under truncated product.

    Indexing: by degree, then by the lower coefficients read as a base-q
    number with the constant coefficient least significant.
    """
    if q not in (2, 3):
        raise InputError("polynomial coefficients must come from GF(2) or GF(3)")
    if not 0 <= d <= 4:
        raise InputError("polynomial degree bound must be between 0 and 4")
    polys: list[tuple[int, ...]] = []
    for k in range(d + 1):
        for m in range(q**k):
            coeffs = tuple((m // q**i) % q for i in range(k)) + (1,)
            polys.append(coeffs)
    index = {p: i for i, p in enumerate(polys)}
    mult = set()
    for i, p1 in enumerate(polys):
        for j, p2 in enumerate(polys):
            prod = _poly_mul(p1, p2, q)
            if len(prod) - 1 <= d:
                mult.add((i, j, index[prod]))
    labels = tuple(_poly_label(p) for p in polys)
    return RelMonoid.make(len(polys), [0], mult, labels)


# ---------------------------------------------------------------------------
# morphisms and adjoints


def _square_witness(
    src: RelMonoid, rows: Sequence[int], dst: RelMonoid, triples: Iterable | None = None
) -> tuple[int, int, int, int] | None:
    """First failure of the lax multiplication square, or None.

    rows relates src to dst. The square fails at (a1, a2, a, b) when
    (a1, a2)*a in src and a relates to b, but no b1, b2 related to a1, a2
    have (b1, b2)*b in dst. Scan order: the src triples (by default all,
    ascending), then b. rows needs only the rows those triples read.

    want starts as rows[a] and loses the products (b1, b2)*b of every pair
    (b1, b2) related to (a1, a2); the least b it keeps is the witness. The
    scan of a triple stops once want is empty.
    """
    m = dst.n
    dpm = dst.prod_masks
    triples = src.triples if triples is None else triples
    for a1, a2, a in triples:
        want = rows[a]
        r1 = rows[a1]
        while r1 and want:
            low = r1 & -r1
            r1 ^= low
            base = (low.bit_length() - 1) * m
            r2 = rows[a2]
            while r2:
                low = r2 & -r2
                r2 ^= low
                want &= ~dpm[base + low.bit_length() - 1]
        if want:
            return a1, a2, a, lowest_bit(want)
    return None


def _map_square_witness(
    f: Sequence[int], dpm: Sequence[int], m: int, triples: Iterable[tuple[int, int, int]]
) -> tuple[int, int, int, int] | None:
    """First (a1, a2, a, f[a]) of the lax square for the map f, or None.

    f gives each element's image, and dpm is the target's prod_masks table
    on m elements. The only pair above (a1, a2) is (f[a1], f[a2]), so each
    of the triples (a1, a2)*a is one lookup of f[a] in that pair's products.
    """
    for a1, a2, a in triples:
        if not dpm[f[a1] * m + f[a2]] >> f[a] & 1:
            return a1, a2, a, f[a]
    return None


def _stray_unit_image(
    src: RelMonoid, rows: Sequence[int], dst: RelMonoid
) -> tuple[int, int] | None:
    """First (y, b) with y a src unit related to a non-unit b of dst, or None."""
    for y in src.unit_list:
        stray = rows[y] & ~dst.units_mask
        if stray:
            return y, lowest_bit(stray)
    return None


@cached_verdict
def is_lax_morphism(h: LaxMorphism) -> CheckReport:
    """Multiplication square and unit triangle for a candidate morphism.

    Square: whenever (a1, a2)*a in the source and the relation sends a to b,
    some pair (b1, b2) in the images of a1, a2 has (b1, b2)*b in the target.

    Triangle (the verdict): every image of a source unit is a target unit.
    The converse direction, whether every target unit is the image of some
    source unit, is reported in details as "units_covered" but does not
    affect the verdict.

    Assumes both endpoints are relational monoids and checks neither:
    LaxMorphism.from_json refuses a file whose endpoints fail the axioms.
    """
    src, dst, rows = h.src, h.dst, h.rel.rows
    square = _square_witness(src, rows, dst)
    if square is not None:
        a1, a2, a, b = square
        return CheckReport.failing(
            "lax-morphism",
            "square",
            square,
            f"product {src.carrier.render((a1, a2, a))} maps to "
            f"{dst.carrier.label(b)} with no product decomposition above it",
        )
    preserved_wit = _stray_unit_image(src, rows, dst)
    (reached,) = compose_rows((src.units_mask,), rows)
    uncovered = dst.units_mask & ~reached
    covered_wit = (lowest_bit(uncovered),) if uncovered else None
    details = {
        "units_preserved": preserved_wit is None,
        "units_covered": covered_wit is None,
    }
    if preserved_wit is not None:
        details["units_preserved_witness"] = preserved_wit
    if covered_wit is not None:
        details["units_covered_witness"] = covered_wit
    if preserved_wit is not None:
        y, b = preserved_wit
        return CheckReport.failing(
            "lax-morphism",
            "triangle",
            preserved_wit,
            f"unit {src.carrier.label(y)} maps to non-unit {dst.carrier.label(b)}",
            **details,
        )
    return CheckReport.passing("lax-morphism", **details)


def _unlifted(
    f: Sequence[int], dfm: Sequence[int], m: int, due: Iterable[tuple[int, tuple]]
) -> Iterator[tuple[int, int, int]]:
    """(b1, b2, a) per element a of due, with its triples as factors_by_last
    lists them, that does not lift through the map f: (b1, b2) is the least
    factor pair of f[a] in dfm, the target's factor_masks on m elements, that
    is no (f[a1], f[a2]). The test reads f only at a and its triples."""
    for a, over in due:
        lifted = 0
        for a1, a2, _ in over:
            lifted |= 1 << f[a1] * m + f[a2]
        missing = dfm[f[a]] & ~lifted
        if missing:
            b1, b2 = divmod(lowest_bit(missing), m)
            yield b1, b2, a


def _factorization_witness(
    f: Sequence[int], src: RelMonoid, dst: RelMonoid
) -> tuple[int, int, int] | None:
    """Least (b1, b2, f[a]), then least a, where _unlifted finds that the
    target product (b1, b2)*f[a] does not lift through the map f; or None."""
    failed = _unlifted(f, dst.factor_masks, dst.n, chain.from_iterable(src.factors_by_last))
    return min(failed, key=lambda w: (w[0], w[1], f[w[2]], w[2]), default=None)


@cached_verdict
def is_left_adjoint_relmon(h: LaxMorphism) -> CheckReport:
    """Left-adjointness of a lax morphism.

    Holds iff the relation is a mapping f such that every product
    decomposition of f(a) in the target lifts through f to a decomposition of
    a ("factorization", _factorization_witness), and every element mapped to
    a unit is itself a unit ("unit-reflection"). Equivalently, the transpose
    of f is again a lax morphism. Raises if h is not a lax morphism.
    """
    is_lax_morphism(h).require("not a lax morphism")
    rel = h.rel
    if not rel.is_map():
        bad = next(a for a, row in enumerate(rel.rows) if row.bit_count() != 1)
        return CheckReport.failing(
            "left-adjoint",
            "mapping",
            (bad,),
            f"element {h.src.carrier.label(bad)} has "
            f"{rel.rows[bad].bit_count()} images",
        )
    f = [row.bit_length() - 1 for row in rel.rows]
    unlifted = _factorization_witness(f, h.src, h.dst)
    if unlifted is not None:
        b1, b2, a = unlifted
        return CheckReport.failing(
            "left-adjoint",
            "factorization",
            unlifted,
            f"target product {h.dst.carrier.render((b1, b2))}*"
            f"{h.dst.carrier.label(f[a])} does not lift at "
            f"{h.src.carrier.label(a)}",
        )
    for x in range(h.src.n):
        if h.dst.units_mask >> f[x] & 1 and not h.src.units_mask >> x & 1:
            return CheckReport.failing(
                "left-adjoint",
                "unit-reflection",
                (x,),
                f"non-unit {h.src.carrier.label(x)} maps to unit "
                f"{h.dst.carrier.label(f[x])}",
            )
    return CheckReport.passing("left-adjoint")


def induced_monad(h: LaxMorphism) -> MonadCandidate:
    """Monad induced by a left adjoint: the fiber preorder of its mapping."""
    is_left_adjoint_relmon(h).require("not a left adjoint")
    return MonadCandidate(h.src, kernel(h.rel))


@cached_verdict
def is_monad(c: MonadCandidate) -> CheckReport:
    """Monad conditions for an order 1-cell on a relational monoid.

    The order must be a preorder, satisfy the lax multiplication square
    (products propagate upward: if (a1, a2)*a and a <= a' then some
    a1' >= a1, a2' >= a2 have (a1', a2')*a'), and be unit-closed upward
    (anything above a unit is a unit).
    """
    check_monoid_axioms(c.base).require("base is not a relational monoid")
    return _monad_conditions(c.base, c.order)


def _monad_conditions(base: RelMonoid, order: FinRel) -> CheckReport:
    rep = is_preorder(order)
    if not rep.ok:
        return CheckReport.failing("monad", rep.failed, rep.witness, rep.message)
    rows = order.rows
    square = _square_witness(base, rows, base)
    if square is not None:
        a1, a2, a, ap = square
        return CheckReport.failing(
            "monad",
            "square",
            square,
            f"product {base.carrier.render((a1, a2, a))} does not "
            f"propagate up to {base.carrier.label(ap)}",
        )
    stray = _stray_unit_image(base, rows, base)
    if stray is not None:
        y, x = stray
        return CheckReport.failing(
            "monad",
            "unit",
            stray,
            f"non-unit {base.carrier.label(x)} lies above unit "
            f"{base.carrier.label(y)}",
        )
    return CheckReport.passing("monad")


def is_endo_square(u: LaxMorphism, f: FinRel, g: FinRel) -> CheckReport:
    """Oplax square for u as a morphism (src, f) -> (dst, g) of endo 1-cells.

    Verdict: (f then u) is contained in (u then g).
    """
    is_lax_morphism(u).require("not a lax morphism")
    if f.dom.size != u.src.n or f.cod.size != u.src.n:
        raise InputError("first endo-relation does not live on the source carrier")
    if g.dom.size != u.dst.n or g.cod.size != u.dst.n:
        raise InputError("second endo-relation does not live on the target carrier")
    extra = _inclusion_witness(f.compose(u.rel).rows, u.rel.compose(g).rows)
    if extra is None:
        return CheckReport.passing("endo-square")
    return CheckReport.failing(
        "endo-square",
        "inclusion",
        extra,
        f"pair {extra} reached via the endo-then-morphism composite only",
    )


def monad_reflection(m: RelMonoid, f: FinRel) -> MonadCandidate:
    """Least monad order containing a lax endo 1-cell: its closure.

    The reflexive-transitive closure of a lax endomorphism is again lax and
    is the least preorder above f, so it is the reflection of (m, f) into
    monads.
    """
    is_lax_morphism(LaxMorphism(m, m, f)).require("not a lax endomorphism")
    return MonadCandidate(m, refl_trans_closure(f))


def check_reflection_universal(
    endo: LaxMorphism, monad: MonadCandidate, u: LaxMorphism
) -> CheckReport:
    """Universal property of the closure reflection at one cocone.

    Given a lax endomorphism f (endo) on m, a monad order leq (monad) on n,
    and a lax morphism u: m -> n that is a morphism (m, f) -> (n, leq) of
    endo 1-cells, the same u must be a morphism (m, cl(f)) -> (n, leq).
    Mismatched monoids raise InputError; precondition failures (f not lax,
    leq not a monad, u not a morphism or violating the f-square) raise
    PreconditionError. Each precondition verdict is cached on its instance.
    """
    if endo.dst != endo.src:
        raise InputError("endo must have the same source and target monoid")
    if u.src != endo.src or u.dst != monad.base:
        raise InputError(
            "u must run from the monoid of endo to the base of the monad order"
        )
    is_lax_morphism(endo).require("f is not a lax endomorphism")
    is_monad(monad).require("leq is not a monad order")
    f, leq = endo.rel, monad.order
    is_endo_square(u, f, leq).require("u does not square with f")
    out = is_endo_square(u, refl_trans_closure(f), leq)
    if out.ok:
        return CheckReport.passing("reflection-universal")
    return CheckReport.failing(
        "reflection-universal", out.failed, out.witness, out.message
    )


def monad_from_adjunction_conditions(c: MonadCandidate) -> CheckReport:
    """Whether a monad order arises from an adjunction: monad + symmetric."""
    rep = is_monad(c)
    if rep.ok:
        # a monad order is a preorder, so only the symmetry clause can fail
        rep = is_equivalence(c.order)
    if not rep.ok:
        return CheckReport.failing(
            "adjunction-monad", rep.failed, rep.witness, rep.message
        )
    return CheckReport.passing("adjunction-monad")


def quotient_relmonoid(
    m: RelMonoid, equiv: FinRel
) -> tuple[RelMonoid, LaxMorphism]:
    """Quotient of a relational monoid by a symmetric monad order.

    Classes are indexed by ascending least element. Returns the quotient
    monoid and the class map as a lax morphism; the class map is a left
    adjoint inducing exactly equiv.
    """
    monad_from_adjunction_conditions(MonadCandidate(m, equiv)).require(
        "quotient needs a symmetric monad order"
    )
    rel = class_map(m.carrier, equiv.rows)
    cls_of = [row.bit_length() - 1 for row in rel.rows]
    mult = {(cls_of[a1], cls_of[a2], cls_of[a]) for a1, a2, a in m.mult}
    units = {cls_of[y] for y in m.unit_list}
    quot = RelMonoid.make(rel.cod.size, units, mult, rel.cod.labels)
    return quot, LaxMorphism(m, quot, rel)
