"""Finite lattices and the perspectivity order on their quotient monoids.

A lattice is stored as a partial order together with derived meet and join
tables. The quotients b/a of a lattice carry the order b/a up-to d/c iff
a = b meet c and d = b join c; whether that order is a monad order on the
quotient monoid is equivalent to modularity of the lattice, and both sides
of that equivalence are implemented as separate checkers so the comparison
itself is testable.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .monoid import MonadCandidate, from_poset_quotients, is_monad, quotient_pairs
from .rel import Carrier, FinRel, bits, in_field, is_partial_order, json_size, lowest_bit
from .report import CheckReport, Frozen, InputError, PreconditionError, _set, json_fields


class FinLattice(Frozen):
    order: FinRel
    meet: tuple[int, ...]
    join: tuple[int, ...]

    def __init__(self, order: FinRel, meet: tuple[int, ...], join: tuple[int, ...]) -> None:
        _set(self, "order", order)
        _set(self, "meet", meet)
        _set(self, "join", join)

    @cached_property
    def n(self) -> int:
        return self.order.dom.size

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        return self.order.rows

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        return self.order.dagger().rows

    def leq(self, x: int, y: int) -> bool:
        return bool(self.order.rows[x] >> y & 1)

    def meet_of(self, x: int, y: int) -> int:
        return self.meet[x * self.n + y]

    def join_of(self, x: int, y: int) -> int:
        return self.join[x * self.n + y]

    @cached_property
    def bottom(self) -> int:
        full = (1 << self.n) - 1
        return next(x for x in range(self.n) if self.up_masks[x] == full)

    @cached_property
    def top(self) -> int:
        full = (1 << self.n) - 1
        return next(x for x in range(self.n) if self.down_masks[x] == full)

    def to_json(self) -> dict:
        return {
            "carrier": self.n,
            "order": [[a, b] for a, row in enumerate(self.order.rows) for b in bits(row)],
        }

    @classmethod
    def from_json(cls, obj: object) -> "FinLattice":
        size, _ = json_fields(obj, "lattice", "carrier", "order")
        carrier = Carrier(json_size(size))
        rel = in_field("order", FinRel.from_pairs, carrier, carrier, obj["order"])
        # reflexive pairs may be omitted in files
        rel = FinRel(carrier, carrier, tuple(row | 1 << a for a, row in enumerate(rel.rows)))
        # on an empty carrier the size is at fault, not the order
        return in_field("order" if size else "carrier", lattice_from_order, rel)


def lattice_from_order(order: FinRel) -> FinLattice:
    """Derive meet and join tables; rejects non-lattices naming the bad pair."""
    rep = is_partial_order(order)
    if not rep.ok:
        raise InputError(f"not a partial order: {rep.summary()}")
    n = order.dom.size
    if n == 0:
        raise InputError("a lattice needs at least one element")
    meet, join = meet_join_tables(order.rows, order.dagger().rows)
    return FinLattice(order, meet, join)


def meet_join_tables(
    up: Sequence[int], down: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row-major meet and join tables of a partial order.

    up and down are the up-set and down-set rows of the order. The meet of
    x and y is the element whose down-set is the common down-set of x and
    y, if one is; by antisymmetry no two elements share a down-set, so it
    is unique. Joins dually. Raises InputError naming the first pair, in
    row-major order, that has no meet or no join, the meet checked first.
    """
    n = len(up)
    by_down = {d: z for z, d in enumerate(down)}
    by_up = {u: z for z, u in enumerate(up)}
    meet = [0] * (n * n)
    join = [0] * (n * n)
    for x in range(n):
        dx, ux = down[x], up[x]
        for y in range(n):
            m = by_down.get(dx & down[y])
            if m is None:
                raise InputError(f"not a lattice: pair ({x}, {y}) has no meet")
            j = by_up.get(ux & up[y])
            if j is None:
                raise InputError(f"not a lattice: pair ({x}, {y}) has no join")
            meet[x * n + y] = m
            join[x * n + y] = j
    return tuple(meet), tuple(join)


def is_modular(lat: FinLattice) -> CheckReport:
    """Modular law: x <= y implies y meet (x join z) = x join (y meet z)."""
    n = lat.n
    for x in range(n):
        for y in bits(lat.up_masks[x]):
            for z in range(n):
                lhs = lat.meet_of(y, lat.join_of(x, z))
                rhs = lat.join_of(x, lat.meet_of(y, z))
                if lhs != rhs:
                    lab = lat.order.dom.label
                    return CheckReport.failing(
                        "modular",
                        "modular-law",
                        (x, y, z),
                        f"{lab(y)} meet ({lab(x)} join {lab(z)}) = {lab(lhs)} "
                        f"but {lab(x)} join ({lab(y)} meet {lab(z)}) = {lab(rhs)}",
                    )
    return CheckReport.passing("modular")


def build_quotient_order(lat: FinLattice) -> MonadCandidate:
    """The quotient monoid of lat with its perspectivity order: b/a up-to
    d/c iff a = b meet c and d = b join c."""
    qmonoid = from_poset_quotients(lat.order)
    quots = quotient_pairs(lat.order)
    index = {q: i for i, q in enumerate(quots)}
    rows = [0] * len(quots)
    # d = b join c is forced, and a = b meet c puts c above a
    for i, (a, b) in enumerate(quots):
        for c in bits(lat.up_masks[a]):
            if lat.meet_of(b, c) == a:
                rows[i] |= 1 << index[(c, lat.join_of(b, c))]
    return MonadCandidate(qmonoid, FinRel(qmonoid.carrier, qmonoid.carrier, tuple(rows)))


def check_star_star(lat: FinLattice) -> CheckReport:
    """Perspectivity decomposition property of a lattice.

    For quotients b/a, c/b, c'/a' with c/a up-to c'/a', some b' between a'
    and c' must satisfy b/a up-to b'/a' and c/b up-to c'/b'. Holds exactly
    on modular lattices. Witness: the three quotient indices.
    """
    quots = quotient_pairs(lat.order)
    index = {q: i for i, q in enumerate(quots)}
    qcarrier = Carrier(
        len(quots),
        tuple(f"{lat.order.dom.label(b)}/{lat.order.dom.label(a)}" for a, b in quots),
    )

    # c/a up-to c'/a' forces c' = c join a' and puts a' above a = c meet a',
    # so ascending a' keeps the order of the quotients c'/a'. b/a up-to b'/a'
    # forces b' = b join a', which lies in [a', c']; b meet a' = a and
    # c join b' = c' then hold, so c/b up-to c'/b' asks only c meet b' = b.
    for a, b in quots:
        for c in bits(lat.up_masks[b]):
            for ap in bits(lat.up_masks[a]):
                if lat.meet_of(c, ap) != a:
                    continue
                if lat.meet_of(c, lat.join_of(b, ap)) != b:
                    cp = lat.join_of(c, ap)
                    wit = (index[(a, b)], index[(b, c)], index[(ap, cp)])
                    return CheckReport.failing(
                        "star-star",
                        "decomposition",
                        wit,
                        f"quotients {qcarrier.render(wit)} admit no midpoint",
                    )
    return CheckReport.passing("star-star")


def is_qa_monad(lat: FinLattice) -> CheckReport:
    """Monad conditions for the perspectivity order on the quotients of lat."""
    return is_monad(build_quotient_order(lat))


def check_qa_monad_iff_modular(lat: FinLattice) -> CheckReport:
    """Agreement between the quotient-order monad check and modularity."""
    monad_rep = is_qa_monad(lat)
    mod_rep = is_modular(lat)
    details = {
        "qa_monad": monad_rep.ok,
        "modular": mod_rep.ok,
        "qa_monad_report": monad_rep,
        "modular_report": mod_rep,
    }
    if monad_rep.ok == mod_rep.ok:
        return CheckReport.passing("qa-monad-iff-modular", **details)
    return CheckReport.failing(
        "qa-monad-iff-modular",
        "agreement",
        None,
        f"quotient-order monad check says {monad_rep.ok} "
        f"but modularity says {mod_rep.ok}",
        **details,
    )


def hom_defect(f: Sequence[int], src: FinLattice, dst: FinLattice) -> tuple | None:
    """First ("meet" or "join", x, y) that x -> f[x] fails to preserve, or None.

    Pairs go in row-major order, the meet checked first. The tables are
    symmetric and x meet x = x, so only pairs x < y can be first to fail.
    """
    for x in range(src.n):
        for y in range(x + 1, src.n):
            if f[src.meet_of(x, y)] != dst.meet_of(f[x], f[y]):
                return ("meet", x, y)
            if f[src.join_of(x, y)] != dst.join_of(f[x], f[y]):
                return ("join", x, y)
    return None


def quotient_map(f: Sequence[int], src: FinLattice, dst: FinLattice) -> tuple[int, ...]:
    """Index of f(b)/f(a) among dst's quotients per quotient b/a of src; f unchecked."""
    index = {q: i for i, q in enumerate(quotient_pairs(dst.order))}
    return tuple(index[(f[a], f[b])] for a, b in quotient_pairs(src.order))


def q_functor(v: FinRel, src: FinLattice, dst: FinLattice) -> FinRel:
    """Quotient map b/a -> v(b)/v(a) of a lattice homomorphism v.

    v must be a mapping src -> dst preserving binary meets and joins.
    """
    if v.dom.size != src.n or v.cod.size != dst.n:
        raise InputError("map does not connect the two lattice carriers")
    if not v.is_map():
        raise PreconditionError("lattice homomorphism must be a mapping")
    f = [lowest_bit(row) for row in v.rows]
    defect = hom_defect(f, src, dst)
    if defect is not None:
        raise PreconditionError("map does not preserve the %s of (%d, %d)" % defect)
    rows = tuple(1 << i for i in quotient_map(f, src, dst))
    return FinRel(Carrier(len(rows)), Carrier(len(quotient_pairs(dst.order))), rows)
