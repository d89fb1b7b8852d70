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

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .rel import (
    Carrier,
    FinRel,
    bits,
    class_partition,
    compose_rows,
    is_equivalence,
    is_partial_order,
    is_preorder,
    is_subcell,
    lowest_bit,
    refl_trans_closure,
)
from .report import CheckReport, InputError, PreconditionError, cached_verdict


@dataclass(frozen=True)
class RelMonoid:
    carrier: Carrier
    units: frozenset[int]
    mult: frozenset[tuple[int, int, int]]

    def __post_init__(self) -> None:
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

    def products(self, a1: int, a2: int) -> tuple[int, ...]:
        return tuple(bits(self.prod_masks[a1 * self.n + a2]))

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
        if not isinstance(obj, dict):
            raise InputError("monoid JSON must be an object")
        for key in ("carrier", "units", "mult"):
            if key not in obj:
                raise InputError(f"monoid JSON missing field {key!r}")
        size = obj["carrier"]
        if not isinstance(size, int) or isinstance(size, bool):
            raise InputError("field 'carrier' must be an integer size")
        units = obj["units"]
        mult = obj["mult"]
        if not isinstance(units, list) or not all(type(y) is int for y in units):
            raise InputError("field 'units' must be a list of indices")
        if not isinstance(mult, list) or not all(
            isinstance(t, list) and len(t) == 3 and all(type(x) is int for x in t)
            for t in mult
        ):
            raise InputError("field 'mult' must be a list of [a1, a2, a] triples")
        labels = obj.get("labels")
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(s, str) for s in labels)
        ):
            raise InputError("field 'labels' must be a list of strings")
        return cls.make(size, units, mult, labels)


@dataclass(frozen=True)
class LaxMorphism:
    """A relation between the carriers of two relational monoids."""

    src: RelMonoid
    dst: RelMonoid
    rel: FinRel

    def __post_init__(self) -> None:
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
        if not isinstance(obj, dict):
            raise InputError("morphism JSON must be an object")
        for key in ("src", "dst", "rel"):
            if key not in obj:
                raise InputError(f"morphism JSON missing field {key!r}")
        src = RelMonoid.from_json(obj["src"])
        dst = RelMonoid.from_json(obj["dst"])
        rel = FinRel.from_pairs(src.carrier, dst.carrier, obj["rel"])
        return cls(src, dst, rel)


@dataclass(frozen=True)
class MonadCandidate:
    """A relational monoid with a candidate order 1-cell on its carrier."""

    base: RelMonoid
    order: FinRel

    def __post_init__(self) -> None:
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
        if not isinstance(obj, dict):
            raise InputError("monad candidate JSON must be an object")
        for key in ("base", "order"):
            if key not in obj:
                raise InputError(f"monad candidate JSON missing field {key!r}")
        base = RelMonoid.from_json(obj["base"])
        order = FinRel.from_pairs(base.carrier, base.carrier, obj["order"])
        return cls(base, order)


# ---------------------------------------------------------------------------
# axiom checking


def _assoc_witness(
    pm: Sequence[int], n: int
) -> tuple[int, int, int, int, int] | None:
    """First (a1, a2, a3) ascending whose two bracketings differ, or None.

    pm is a prod_masks table on n elements. The witness carries both outcome
    masks: (a1, a2, a3, outcomes of (a1*a2)*a3, outcomes of a1*(a2*a3)).
    """
    for a1 in range(n):
        row1 = a1 * n
        for a2 in range(n):
            m12 = pm[row1 + a2]
            for a3 in range(n):
                lhs = 0
                w = m12
                while w:
                    low = w & -w
                    lhs |= pm[(low.bit_length() - 1) * n + a3]
                    w ^= low
                rhs = 0
                w = pm[a2 * n + a3]
                while w:
                    low = w & -w
                    rhs |= pm[row1 + (low.bit_length() - 1)]
                    w ^= low
                if lhs != rhs:
                    return a1, a2, a3, lhs, rhs
    return None


@cached_verdict
def check_monoid_axioms(m: RelMonoid) -> CheckReport:
    """Unit and associativity axioms for a relational monoid.

    Scan order: right unit per element (existence, then uniqueness over units
    and stray products ascending), then left unit, then associativity over
    (a1, a2, a3) ascending with the first mismatched outcome as witness.

    Witness shapes: (a,) for a missing unit; (a, y, b) for a unit y relating a
    to a stray b != a; (a1, a2, a3, z) for an outcome z reachable under only
    one bracketing.
    """
    n = m.n
    pm = m.prod_masks
    lab = m.carrier.label
    for a in range(n):
        if not any(pm[a * n + y] >> a & 1 for y in m.unit_list):
            return CheckReport.failing(
                "monoid-axioms",
                "right-unit",
                (a,),
                f"element {lab(a)} has no right unit",
            )
        for y in m.unit_list:
            extra = pm[a * n + y] & ~(1 << a)
            if extra:
                b = lowest_bit(extra)
                return CheckReport.failing(
                    "monoid-axioms",
                    "right-unit",
                    (a, y, b),
                    f"unit {lab(y)} multiplies {lab(a)} to {lab(b)} on the right",
                )
    for a in range(n):
        if not any(pm[y * n + a] >> a & 1 for y in m.unit_list):
            return CheckReport.failing(
                "monoid-axioms",
                "left-unit",
                (a,),
                f"element {lab(a)} has no left unit",
            )
        for y in m.unit_list:
            extra = pm[y * n + a] & ~(1 << a)
            if extra:
                b = lowest_bit(extra)
                return CheckReport.failing(
                    "monoid-axioms",
                    "left-unit",
                    (a, y, b),
                    f"unit {lab(y)} multiplies {lab(a)} to {lab(b)} on the left",
                )
    bad = _assoc_witness(pm, n)
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


def right_unit_of(m: RelMonoid, a: int) -> int:
    """The unique unit y with (a, y)*a; errors if the unit axioms fail at a."""
    if not 0 <= a < m.n:
        raise InputError(f"element {a} out of range for carrier size {m.n}")
    candidates = [y for y in m.unit_list if m.prod_masks[a * m.n + y] >> a & 1]
    if len(candidates) != 1:
        raise PreconditionError(
            f"monoid axioms violated: element {m.carrier.label(a)} has "
            f"{len(candidates)} right units"
        )
    return candidates[0]


def left_unit_of(m: RelMonoid, a: int) -> int:
    """The unique unit y with (y, a)*a; errors if the unit axioms fail at a."""
    if not 0 <= a < m.n:
        raise InputError(f"element {a} out of range for carrier size {m.n}")
    candidates = [y for y in m.unit_list if m.prod_masks[y * m.n + a] >> a & 1]
    if len(candidates) != 1:
        raise PreconditionError(
            f"monoid axioms violated: element {m.carrier.label(a)} has "
            f"{len(candidates)} left units"
        )
    return candidates[0]


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
        for j, (c, d) in enumerate(quots):
            if b == c:
                mult.add((i, j, index[(a, d)]))
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
    src: RelMonoid, rows: Sequence[int], dst: RelMonoid
) -> tuple[int, int, int, int] | None:
    """First failure of the lax multiplication square, or None.

    rows relates src to dst. The square fails at (a1, a2, a, b) when
    (a1, a2)*a in src and a relates to b, but no b1, b2 related to a1, a2
    have (b1, b2)*b in dst. Scan order: src triples ascending, then b.

    right[b1][a2] masks the products (b1, b2)*b over every b2 related to a2
    (built on first use), so OR-ing it over the b1 related to a1 gives every
    product above (a1, a2); the least b of rows[a] left out is the witness.
    The OR stops once it covers rows[a].
    """
    m = dst.n
    dpm = dst.prod_masks
    right: list[tuple[int, ...] | None] = [None] * m
    for a1, a2, a in src.triples:
        want = rows[a]
        got = 0
        for b1 in bits(rows[a1]):
            if not want & ~got:
                break
            r = right[b1]
            if r is None:
                r = right[b1] = compose_rows(rows, dpm[b1 * m:b1 * m + m])
            got |= r[a2]
        missing = want & ~got
        if missing:
            return a1, a2, a, lowest_bit(missing)
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


@cached_verdict
def is_left_adjoint_relmon(h: LaxMorphism) -> CheckReport:
    """Left-adjointness of a lax morphism.

    Holds iff the relation is a mapping f such that every product
    decomposition of f(a) in the target lifts through f to a decomposition of
    a ("factorization"), and every element mapped to a unit is itself a unit
    ("unit-reflection"). Equivalently, the transpose of f is again a lax
    morphism. Raises if h is not a lax morphism to begin with.

    For the factorization, lift[b1, b2] masks the products of all source
    pairs over (b1, b2) and fmask[b] the fiber of b, so (b1, b2)*b fails to
    lift exactly at the bits of fmask[b] & ~lift[b1, b2], the least first.
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
    n, m = h.src.n, h.dst.n
    fmask = [0] * m
    for a, b in enumerate(f):
        fmask[b] |= 1 << a
    lift = [0] * (m * m)
    for a1, a2, a in h.src.triples:
        lift[f[a1] * m + f[a2]] |= 1 << a
    for b1, b2, b in h.dst.triples:
        missing = fmask[b] & ~lift[b1 * m + b2]
        if missing:
            a = lowest_bit(missing)
            return CheckReport.failing(
                "left-adjoint",
                "factorization",
                (b1, b2, a),
                f"target product {h.dst.carrier.render((b1, b2))}*"
                f"{h.dst.carrier.label(b)} does not lift at "
                f"{h.src.carrier.label(a)}",
            )
    for x in range(n):
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
    return MonadCandidate(h.src, h.rel.compose(h.rel.dagger()))


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
    cell = is_subcell(f.compose(u.rel), u.rel.compose(g))
    if cell.holds:
        return CheckReport.passing("endo-square")
    return CheckReport.failing(
        "endo-square",
        "inclusion",
        cell.counterexample,
        f"pair {cell.counterexample} reached via the endo-then-morphism "
        "composite only",
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
    cls_of, reps = class_partition(equiv)
    k = len(reps)
    mult = {(cls_of[a1], cls_of[a2], cls_of[a]) for a1, a2, a in m.mult}
    units = {cls_of[y] for y in m.unit_list}
    labels = None
    if m.carrier.labels is not None:
        labels = tuple(f"[{m.carrier.label(r)}]" for r in reps)
    quot = RelMonoid.make(k, units, mult, labels)
    rel = FinRel(m.carrier, quot.carrier, tuple(1 << cls_of[a] for a in range(m.n)))
    return quot, LaxMorphism(m, quot, rel)
