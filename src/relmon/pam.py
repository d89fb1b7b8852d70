"""Partial abelian monoids, effect algebras, congruences, quotients.

A partial abelian monoid is a carrier with a zero and a partial binary
addition; the defined-domain is first class, stored as an n*n table with -1
for undefined cells. On top of the basic axioms sit positivity,
cancellativity, the canonical order, effect algebras, the Riesz
decomposition property, congruences with their quotients, orthomodular
lattices read as effect algebras, and dimension equivalences.

Everything returns CheckReports with witnesses; the constructions raise on
violated preconditions. Several checks have an independent characterization
through the relational-monoid layer (RDP vs the order being a monad, quotient
maps vs left adjoints); where both sides are computed the reports cross-check
them and a disagreement raises an internal error rather than picking a side.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

from .lattice import FinLattice
from .monoid import (
    LaxMorphism,
    MonadCandidate,
    RelMonoid,
    induced_monad,
    is_left_adjoint_relmon,
    is_monad,
)
from .rel import (
    Carrier,
    FinRel,
    bits,
    class_carrier,
    class_partition,
    compose_rows,
    in_field,
    is_equivalence,
    is_partial_order,
    json_labels,
    json_size,
    kernel,
    lowest_bit,
)
from .report import (
    CheckReport,
    Frozen,
    InputError,
    InternalCheckError,
    _set,
    cached_verdict,
    json_fields,
)


class PartialAbelianMonoid(Frozen):
    carrier: Carrier
    zero: int
    plus: tuple[int, ...]  # flattened n*n, -1 marks an undefined cell

    def __init__(self, carrier: Carrier, zero: int, plus: tuple[int, ...]) -> None:
        _set(self, "carrier", carrier)
        _set(self, "zero", zero)
        _set(self, "plus", plus)
        n = self.carrier.size
        if not (type(self.zero) is int and 0 <= self.zero < n):
            raise InputError(f"zero index {self.zero!r} out of range for size {n}")
        if len(self.plus) != n * n:
            raise InputError(
                f"addition table has {len(self.plus)} cells, expected {n * n}"
            )
        for i, c in enumerate(self.plus):
            if not (type(c) is int and -1 <= c < n):
                raise InputError(
                    f"table cell ({i // n}, {i % n}) holds {c!r}, out of range"
                )

    @cached_property
    def n(self) -> int:
        return self.carrier.size

    def defined(self, a: int, b: int) -> bool:
        return self.plus[a * self.n + b] >= 0

    def value(self, a: int, b: int) -> int:
        """Result of a+b; only meaningful when defined(a, b)."""
        return self.plus[a * self.n + b]

    @cached_property
    def cells(self) -> tuple[tuple[int, int, int], ...]:
        n = self.n
        return tuple(
            (i // n, i % n, c) for i, c in enumerate(self.plus) if c >= 0
        )

    @classmethod
    def from_cells(
        cls,
        size: int,
        zero: int,
        cells: Iterable[Sequence[int]],
        labels: Sequence[str] | None = None,
    ) -> "PartialAbelianMonoid":
        table = [-1] * (size * size)
        for cell in cells:
            if len(cell) != 3:
                raise InputError(f"addition cell {list(cell)!r} is not a triple")
            a, b, c = cell
            if not all(type(x) is int and 0 <= x < size for x in (a, b, c)):
                raise InputError(f"addition cell ({a}, {b}, {c}) out of range")
            prev = table[a * size + b]
            if prev >= 0 and prev != c:
                raise InputError(
                    f"conflicting values {prev} and {c} for cell ({a}, {b})"
                )
            table[a * size + b] = c
        carrier = Carrier(size, tuple(labels) if labels is not None else None)
        return cls(carrier, zero, tuple(table))

    def to_json(self) -> dict:
        n = self.carrier.size
        out: dict = {
            "carrier": n,
            "zero": self.zero,
            "plus": [[i // n, i % n, c] for i, c in enumerate(self.plus) if c >= 0],
        }
        if self.carrier.labels is not None:
            out["labels"] = list(self.carrier.labels)
        return out

    @classmethod
    def from_json(cls, obj: object) -> "PartialAbelianMonoid":
        size, zero, plus = json_fields(obj, "partial monoid", "carrier", "zero", "plus")
        json_size(size)
        if not isinstance(zero, int) or isinstance(zero, bool):
            raise InputError("field 'zero' must be an element index")
        if not isinstance(plus, list) or not all(
            isinstance(t, list) and len(t) == 3 for t in plus
        ):
            raise InputError("field 'plus' must be a list of [a, b, a+b] cells")
        labels = json_labels(obj, size)
        in_field("zero", cls, Carrier(size), zero, (-1,) * (size * size))
        return in_field("plus", cls.from_cells, size, zero, plus, labels)


# ---------------------------------------------------------------------------
# axioms and derived classes


def _p1_witness(
    plus: Sequence[int], n: int, triples: Iterable[tuple[int, tuple[int, int, int]]]
) -> tuple[int, int, int] | None:
    """First triple (a, b, c) of triples at which P1 fails, or None: b+c and
    a+(b+c) are defined, but a+b is not or (a+b)+c is not a+(b+c).

    plus is an addition table on n elements, -1 for undefined; an entry below
    -1 is not placed yet, and a premise or outcome that reads one cannot fail.
    A triple comes as (a*n, (b, b*n + c, c)): the row of a and the cell b+c.
    """
    for an, (b, bc_i, c) in triples:
        bc = plus[bc_i]
        if bc < 0:
            continue
        abc = plus[an + bc]
        if abc < 0:
            continue
        ab = plus[an + b]
        # a+b undefined, or (a+b)+c placed and other than a+(b+c)
        if ab == -1 or ab >= 0 and abc != plus[ab * n + c] >= -1:
            return an // n, b, c
    return None


@cached_verdict
def check_pam_axioms(p: PartialAbelianMonoid) -> CheckReport:
    """Zero totality (P3), commutativity (P2), associativity transfer (P1).

    P1 reads: if b+c and a+(b+c) are defined then a+b and (a+b)+c are defined
    and associativity holds. Checked in the order P3, P2, P1 so the most
    basic breakage is named first. P1 is _p1_witness, the PAM generator's
    kernel, on each (a, b, c) with b+c defined, a then (b, c) ascending.
    """
    n, plus = p.n, p.plus
    lab = p.carrier.label
    for a in range(n):
        if not p.defined(a, p.zero) or p.value(a, p.zero) != a:
            return CheckReport.failing(
                "pam-axioms",
                "P3",
                (a,),
                f"{lab(a)} + {lab(p.zero)} is not {lab(a)}",
            )
    for a, b, s in p.cells:
        if plus[b * n + a] != s:
            return CheckReport.failing(
                "pam-axioms",
                "P2",
                (a, b),
                f"{lab(a)} + {lab(b)} defined but not matched by "
                f"{lab(b)} + {lab(a)}",
            )
    cells = [(b, b * n + c, c) for b, c, _ in p.cells]
    bad = _p1_witness(plus, n, product([a * n for a in range(n)], cells))
    if bad is not None:
        a, b, c = bad
        return CheckReport.failing(
            "pam-axioms",
            "P1",
            bad,
            f"{lab(a)} + ({lab(b)} + {lab(c)}) defined but {lab(a)} + {lab(b)} is not"
            if plus[a * n + b] < 0
            else f"({lab(a)} + {lab(b)}) + {lab(c)} does not reassociate",
        )
    return CheckReport.passing("pam-axioms")


def is_positive(p: PartialAbelianMonoid) -> CheckReport:
    """No nonzero summands add to zero."""
    check_pam_axioms(p).require("not a partial abelian monoid")
    for a, b, s in p.cells:
        if s == p.zero and not (a == p.zero and b == p.zero):
            return CheckReport.failing(
                "positive",
                "positivity",
                (a, b),
                f"{p.carrier.label(a)} + {p.carrier.label(b)} = "
                f"{p.carrier.label(p.zero)}",
            )
    return CheckReport.passing("positive")


def is_cancellative(p: PartialAbelianMonoid) -> CheckReport:
    """a+b = a+c forces b = c."""
    check_pam_axioms(p).require("not a partial abelian monoid")
    for a in range(p.n):
        seen: dict[int, int] = {}
        for b in range(p.n):
            if p.defined(a, b):
                v = p.value(a, b)
                if v in seen:
                    return CheckReport.failing(
                        "cancellative",
                        "cancellation",
                        (a, seen[v], b),
                        f"{p.carrier.label(a)} + {p.carrier.label(seen[v])} = "
                        f"{p.carrier.label(a)} + {p.carrier.label(b)}",
                    )
                seen[v] = b
    return CheckReport.passing("cancellative")


def is_gea(p: PartialAbelianMonoid) -> CheckReport:
    """Positive and cancellative."""
    pos = is_positive(p)
    if not pos.ok:
        return CheckReport.failing("gea", "positivity", pos.witness, pos.message)
    canc = is_cancellative(p)
    if not canc.ok:
        return CheckReport.failing("gea", "cancellation", canc.witness, canc.message)
    return CheckReport.passing("gea")


def canonical_order(p: PartialAbelianMonoid) -> FinRel:
    """a below c iff some b has a+b = c; a partial order on any GEA."""
    is_gea(p).require("not a generalized effect algebra")
    rows = [0] * p.n
    for a, _, c in p.cells:
        rows[a] |= 1 << c
    order = FinRel(p.carrier, p.carrier, tuple(rows))
    check = is_partial_order(order)
    if not check.ok:
        raise InternalCheckError(
            f"canonical order of a generalized effect algebra must be a "
            f"partial order, but {check.summary()}"
        )
    return order


def is_effect_algebra(p: PartialAbelianMonoid) -> CheckReport:
    """A GEA with a greatest element in its canonical order."""
    order = canonical_order(p)
    full = (1 << p.n) - 1
    down = order.dagger().rows
    for t in range(p.n):
        if down[t] == full:
            return CheckReport.passing("effect-algebra", top=t)
    maximal = [t for t in range(p.n) if order.rows[t] == 1 << t]
    return CheckReport.failing(
        "effect-algebra",
        "upper-bound",
        None,
        "no greatest element",
        maximal=maximal,
    )


def _decomposition_witness(
    p: PartialAbelianMonoid, rows: Sequence[int]
) -> tuple[int, int, int] | None:
    """First (x1, x2, y) where y in rows[x1+x2] is no y1+y2 with y1 in
    rows[x1], y2 in rows[x2]; None if every such y decomposes.

    This is the lax square of the relation over the partial addition, read
    off the table: cells x1+x2 = s in row-major order, and per cell the OR of
    the defined sums above (x1, x2); the witness is the least y of rows[s]
    the OR misses. Each row's members are listed once per call, and every
    cell reads those lists. Riesz decomposition passes the down-sets of the
    canonical order; dimension-equivalence clause B reads "y1 related to x1"
    in the transpose direction, which is rows itself since it passes
    equivalences.
    """
    n, plus = p.n, p.plus
    members = [list(bits(row)) for row in rows]
    for x1, x2, s in p.cells:
        got = 0
        second = members[x2]
        for y1 in members[x1]:
            base = y1 * n
            for y2 in second:
                y = plus[base + y2]
                if y >= 0:
                    got |= 1 << y
        missing = rows[s] & ~got
        if missing:
            return x1, x2, lowest_bit(missing)
    return None


def has_rdp(p: PartialAbelianMonoid) -> CheckReport:
    """Riesz decomposition: y below x1+x2 splits as y1+y2 with yi below xi.

    The same condition says the reverse canonical order is a monad order on
    the underlying relational monoid; both sides are computed and compared,
    and a mismatch raises an internal error.
    """
    down = canonical_order(p).dagger()
    witness = _decomposition_witness(p, down.rows)
    monad_rep = is_monad(MonadCandidate(to_relmonoid(p), down))
    if monad_rep.ok != (witness is None):
        raise InternalCheckError(
            "Riesz decomposition scan and the monad check disagree: "
            f"decomposition witness {witness}, monad says {monad_rep.summary()}"
        )
    if witness is None:
        return CheckReport.passing("rdp", monad_agrees=True)
    x1, x2, y = witness
    lab = p.carrier.label
    return CheckReport.failing(
        "rdp",
        "decomposition",
        witness,
        f"{lab(y)} lies below {lab(x1)} + {lab(x2)} "
        "but does not decompose along them",
        monad_agrees=True,
    )


@cached_verdict
def to_relmonoid(p: PartialAbelianMonoid) -> RelMonoid:
    """The graph of the partial addition as a relational monoid, one per PAM."""
    check_pam_axioms(p).require("not a partial abelian monoid")
    return RelMonoid(p.carrier, frozenset([p.zero]), frozenset(p.cells))


@cached_verdict
def pam_from_relmonoid(m: RelMonoid) -> PartialAbelianMonoid:
    """Inverse of to_relmonoid where it makes sense.

    Requires exactly one unit and a functional multiplication; commutativity
    and the rest are diagnosed by check_pam_axioms, not here.
    """
    if len(m.units) != 1:
        raise InputError(
            f"monoid has {len(m.units)} units, cannot serve as a partial "
            "addition with zero"
        )
    n = m.n
    table = [-1] * (n * n)
    for a1, a2, a in m.triples:
        if table[a1 * n + a2] >= 0:
            raise InputError(
                f"multiplication of ({a1}, {a2}) is not single-valued"
            )
        table[a1 * n + a2] = a
    return PartialAbelianMonoid(m.carrier, next(iter(m.units)), tuple(table))


# ---------------------------------------------------------------------------
# congruences and quotients


class CongruenceCandidate(Frozen):
    base: PartialAbelianMonoid
    classes: FinRel

    def __init__(self, base: PartialAbelianMonoid, classes: FinRel) -> None:
        _set(self, "base", base)
        _set(self, "classes", classes)
        if (
            self.classes.dom.size != self.base.n
            or self.classes.cod.size != self.base.n
        ):
            raise InputError(
                f"congruence relation is {self.classes.dom.size}->"
                f"{self.classes.cod.size} but the carrier has size {self.base.n}"
            )

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "classes": [[a, b] for a, b in self.classes.pairs()],
        }

    @classmethod
    def from_json(cls, obj: object) -> "CongruenceCandidate":
        base, _ = json_fields(obj, "congruence", "base", "classes")
        base = in_field("base", PartialAbelianMonoid.from_json, base)
        rel = in_field("classes", FinRel.from_pairs, base.carrier, base.carrier, obj["classes"])
        return cls(base, rel)


def _congruence_witness(
    p: PartialAbelianMonoid, rows: Sequence[int]
) -> tuple[str, tuple[int, ...]] | None:
    """First failure of C2, then of C5, of an equivalence's rows on p:
    ("C2", (x1, y1, x1+y1)) or ("C5", (x, y, z)); None if both hold.

    C2: defined sums of related summands are related. C5: if x+y exists and
    is related to z, then z = x1+y1 for some x1 related to x, y1 related to y.
    "Related to x" is the class of x, so both clauses read off sums[X, Y],
    the mask of all defined x1+y1 with x1 in X and y1 in Y: at each defined
    x+y = s, C2 fails iff sums & ~rows[s], C5 iff rows[s] & ~sums.
    """
    cells = p.cells
    cls_of, reps = class_partition(rows)
    k = len(reps)
    sums = [0] * (k * k)
    for x, y, s in cells:
        sums[cls_of[x] * k + cls_of[y]] |= 1 << s
    for x1, y1, s in cells:
        if sums[cls_of[x1] * k + cls_of[y1]] & ~rows[s]:
            return "C2", (x1, y1, s)
    for x, y, s in cells:
        missing = rows[s] & ~sums[cls_of[x] * k + cls_of[y]]
        if missing:
            return "C5", (x, y, lowest_bit(missing))
    return None


@cached_verdict
def check_congruence(c: CongruenceCandidate) -> CheckReport:
    """C1 equivalence, then C2 and C5 as _congruence_witness decides them."""
    check_pam_axioms(c.base).require("not a partial abelian monoid")
    eq = is_equivalence(c.classes)
    if not eq.ok:
        return CheckReport.failing("congruence", "C1", eq.witness, eq.message)
    p, rows = c.base, c.classes.rows
    found = _congruence_witness(p, rows)
    if found is None:
        return CheckReport.passing("congruence")
    clause, w = found
    lab = p.carrier.label
    if clause == "C2":
        x1, y1, s = w  # the first x2 ~ x1, y2 ~ y1 with x2+y2 not related to s
        w = next(
            (x1, y1, x2, y2) for x2 in bits(rows[x1]) for y2 in bits(rows[y1])
            if p.defined(x2, y2) and not rows[s] >> p.value(x2, y2) & 1
        )
        x1, y1, x2, y2 = map(lab, w)
        message = f"{x1}+{y1} and {x2}+{y2} are sums of related summands but are unrelated"
    else:
        x, y, z = map(lab, w)
        message = f"{z} is related to {x}+{y} but has no decomposition along related parts"
    return CheckReport.failing("congruence", clause, w, message)


def quotient_pam(c: CongruenceCandidate) -> PartialAbelianMonoid:
    """Quotient by a valid congruence; classes indexed by least member.

    The sum of two classes is the class of any defined representative sum;
    all representative choices are re-verified to agree, a disagreement
    raises an internal error.
    """
    return _quotient(c)[0]


def _quotient(c: CongruenceCandidate) -> tuple[PartialAbelianMonoid, list[int]]:
    """quotient_pam's quotient and the index of each element's class."""
    check_congruence(c).require("not a congruence")
    p, sim = c.base, c.classes
    cls_of, reps = class_partition(sim.rows)
    k = len(reps)
    table = [-1] * (k * k)
    for a, b, s in p.cells:
        i = cls_of[a] * k + cls_of[b]
        v = cls_of[s]
        if table[i] >= 0 and table[i] != v:
            raise InternalCheckError(
                "quotient addition is not well defined on classes "
                f"({cls_of[a]}, {cls_of[b]}) despite a valid congruence"
            )
        table[i] = v
    q = PartialAbelianMonoid(class_carrier(p.carrier, reps), cls_of[p.zero], tuple(table))
    return q, cls_of


def quotient_map_is_left_adjoint(c: CongruenceCandidate) -> CheckReport:
    """Left-adjointness of the class map onto the quotient.

    Holds exactly when only zero is related to zero. The report details
    record that side condition and whether the adjunction-induced order
    equals the congruence.
    """
    p, sim = c.base, c.classes
    q, cls_of = _quotient(c)
    rel = FinRel(p.carrier, q.carrier, tuple(1 << k for k in cls_of))
    h = LaxMorphism(to_relmonoid(p), to_relmonoid(q), rel)
    zero_stray = sim.rows[p.zero] & ~(1 << p.zero)
    details = {
        "zero_faithful": zero_stray == 0,
        "induced_equals_classes": kernel(rel).rows == sim.rows,
    }
    if zero_stray:
        details["zero_faithful_witness"] = (lowest_bit(zero_stray),)
    adj = is_left_adjoint_relmon(h)
    if adj.ok:
        return CheckReport.passing("quotient-left-adjoint", **details)
    return CheckReport.failing(
        "quotient-left-adjoint", adj.failed, adj.witness, adj.message, **details
    )


def adjoint_induces_c1c2c5(h: LaxMorphism) -> CheckReport:
    """A left adjoint between partial-addition monoids induces a congruence.

    The source monoid must present a partial abelian monoid (single unit,
    functional multiplication). The induced same-image equivalence is run
    through check_congruence; by general theory it must pass, so a failure
    here indicates an implementation fault and the message says so.
    """
    monad = induced_monad(h)
    src = pam_from_relmonoid(h.src)
    rep = check_congruence(CongruenceCandidate(src, monad.order))
    if rep.ok:
        return CheckReport.passing("adjoint-induces-congruence")
    return CheckReport.failing(
        "adjoint-induces-congruence",
        rep.failed,
        rep.witness,
        f"internal inconsistency, adjoint-induced relation is no congruence: "
        f"{rep.message}",
    )


# ---------------------------------------------------------------------------
# orthomodular lattices and dimension equivalence


class OmlStructure(Frozen):
    lattice: FinLattice
    ortho: tuple[int, ...]

    def __init__(self, lattice: FinLattice, ortho: tuple[int, ...]) -> None:
        _set(self, "lattice", lattice)
        _set(self, "ortho", ortho)
        n = self.lattice.n
        if len(self.ortho) != n:
            raise InputError(
                f"field 'ortho': orthocomplement lists {len(self.ortho)} values"
                f" for {n} elements"
            )
        for a, c in enumerate(self.ortho):
            if not (type(c) is int and 0 <= c < n):
                raise InputError(
                    f"field 'ortho': orthocomplement of {a} is {c!r}, out of range"
                )

    def orthogonal(self, a: int, b: int) -> bool:
        return self.lattice.leq(a, self.ortho[b])

    def to_json(self) -> dict:
        return {"lattice": self.lattice.to_json(), "ortho": list(self.ortho)}

    @classmethod
    def from_json(cls, obj: object) -> "OmlStructure":
        lattice, ortho = json_fields(obj, "orthomodular lattice", "lattice", "ortho")
        lattice = in_field("lattice", FinLattice.from_json, lattice)
        if not isinstance(ortho, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in ortho
        ):
            raise InputError("field 'ortho' must be a list of element indices")
        return cls(lattice, tuple(ortho))


def validate_oml(s: OmlStructure) -> CheckReport:
    """Orthocomplementation laws plus the orthomodular law."""
    lat = s.lattice
    lab = lat.order.dom.label
    for a in range(lat.n):
        if s.ortho[s.ortho[a]] != a:
            return CheckReport.failing(
                "oml", "involution", (a,), f"{lab(a)} is not its own double complement"
            )
    for a in range(lat.n):
        for b in bits(lat.up_masks[a]):
            if not lat.leq(s.ortho[b], s.ortho[a]):
                return CheckReport.failing(
                    "oml",
                    "antitone",
                    (a, b),
                    f"{lab(a)} below {lab(b)} but complements are not reversed",
                )
    for a in range(lat.n):
        if lat.join_of(a, s.ortho[a]) != lat.top:
            return CheckReport.failing(
                "oml", "complement-join", (a,), f"{lab(a)} join its complement is not the top"
            )
        if lat.meet_of(a, s.ortho[a]) != lat.bottom:
            return CheckReport.failing(
                "oml", "complement-meet", (a,), f"{lab(a)} meet its complement is not the bottom"
            )
    for a in range(lat.n):
        for b in bits(lat.up_masks[a]):
            if lat.join_of(a, lat.meet_of(b, s.ortho[a])) != b:
                return CheckReport.failing(
                    "oml",
                    "orthomodular",
                    (a, b),
                    f"{lab(b)} does not rebuild from {lab(a)} and the complement part",
                )
    return CheckReport.passing("oml")


def oml_as_effect_algebra(s: OmlStructure) -> PartialAbelianMonoid:
    """Partial addition on an orthomodular lattice: a+b = a join b when a
    is below the complement of b."""
    rep = validate_oml(s)
    if not rep.ok:
        raise InputError(f"not an orthomodular lattice: {rep.summary()}")
    lat = s.lattice
    n = lat.n
    table = [-1] * (n * n)
    for a in range(n):
        for b in range(n):
            if s.orthogonal(a, b):
                table[a * n + b] = lat.join_of(a, b)
    return PartialAbelianMonoid(lat.order.dom, lat.bottom, tuple(table))


def _orthogonal_families(s: OmlStructure) -> list[tuple[int, ...]]:
    """Nonempty pairwise-orthogonal subsets as sorted tuples, lexicographic."""
    n = s.lattice.n
    out: list[tuple[int, ...]] = []

    def extend(start: int, cur: tuple[int, ...]) -> None:
        for x in range(start, n):
            if all(s.orthogonal(y, x) for y in cur):
                nxt = cur + (x,)
                out.append(nxt)
                extend(x + 1, nxt)

    extend(0, ())
    return out


def _join_of(lat: FinLattice, fam: tuple[int, ...]) -> int:
    acc = lat.bottom
    for x in fam:
        acc = lat.join_of(acc, x)
    return acc


def is_dimension_equivalence(
    s: OmlStructure, sim: FinRel, literal_joins: bool = False
) -> CheckReport:
    """Dimension-equivalence clauses for a relation on an orthomodular lattice.

    Checked in order: equivalence; (A) only zero is related to zero;
    (B) a sum decomposition transfers across the relation; (C) memberwise
    related pairwise-orthogonal families have related joins (equal joins
    instead when literal_joins is set); (D) non-orthogonal elements dominate
    a related nonzero pair.
    """
    lat = s.lattice
    if sim.dom.size != lat.n or sim.cod.size != lat.n:
        raise InputError(
            f"relation is {sim.dom.size}->{sim.cod.size} but the lattice has {lat.n} elements"
        )
    p = oml_as_effect_algebra(s)
    lab = lat.order.dom.label
    eq = is_equivalence(sim)
    if not eq.ok:
        return CheckReport.failing("dimension-equivalence", "equivalence", eq.witness, eq.message)
    nonzero = ~(1 << lat.bottom)
    stray = sim.rows[lat.bottom] & nonzero
    if stray:
        a = lowest_bit(stray)
        return CheckReport.failing(
            "dimension-equivalence",
            "A",
            (a,),
            f"nonzero {lab(a)} is related to the bottom",
        )
    b_wit = _decomposition_witness(p, sim.rows)
    if b_wit is not None:
        a1, a2, b = b_wit
        return CheckReport.failing(
            "dimension-equivalence",
            "B",
            (a1, a2, b),
            f"{lab(b)} is related to {lab(a1)} join {lab(a2)} but "
            "has no matching orthogonal decomposition",
        )
    # under an equivalence two families pair off memberwise exactly when
    # they meet every class equally often
    families = _orthogonal_families(s)
    cls_of, _ = class_partition(sim.rows)
    keys = [sorted(map(cls_of.__getitem__, fam)) for fam in families]
    for fam1, key1 in zip(families, keys):
        for fam2, key2 in zip(families, keys):
            if key1 != key2:
                continue
            j1 = _join_of(lat, fam1)
            j2 = _join_of(lat, fam2)
            bad = j1 != j2 if literal_joins else not sim.has(j1, j2)
            if bad:
                kind = "equal" if literal_joins else "related"
                return CheckReport.failing(
                    "dimension-equivalence",
                    "C",
                    (j1, j2),
                    f"memberwise-related orthogonal families have joins "
                    f"{lab(j1)} and {lab(j2)}, which are not {kind}",
                    family_1=list(fam1),
                    family_2=list(fam2),
                )
    # per a, what is related to some nonzero element below a
    reach = compose_rows([down & nonzero for down in lat.down_masks], sim.rows)
    for a in range(lat.n):
        for b in range(lat.n):
            if s.orthogonal(a, b):
                continue
            if not reach[a] & lat.down_masks[b] & nonzero:
                return CheckReport.failing(
                    "dimension-equivalence",
                    "D",
                    (a, b),
                    f"non-orthogonal {lab(a)}, {lab(b)} dominate no related "
                    "nonzero pair",
                )
    return CheckReport.passing("dimension-equivalence")
