"""Finite binary relations stored as bit rows.

A carrier is an index set {0, ..., size-1} with optional display labels. A
relation from A to B keeps one Python int per element of A, the bitmask of its
images in B. Composition is then a row-by-row bitwise OR, i.e. a boolean
matrix product at O(n^3 / wordsize), and all the order/equivalence checks are
mask arithmetic. compose_rows is the one OR-of-rows kernel that composition,
closure and transitivity go through; symmetry, and the unit of an adjunction,
are read off transpose_rows. _adjoint_witness is the adjunction scan that
is_left_adjoint_rel reports from and the left-adjoint sweep reads directly,
and _inclusion_witness the one inclusion scan, of 2-cells and contains.
class_map sends each element of an equivalence to its class. The empty
carrier is legal everywhere.

Relations serialize as {"dom": n, "cod": m, "pairs": [[a, b], ...]}; pair
order is irrelevant on input and lexicographic on output.
"""

from __future__ import annotations

import sys
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Sequence

from .report import CheckReport, Frozen, InputError, PreconditionError, _set, json_fields


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def compose_rows(rows: Sequence[int], orows: Sequence[int]) -> tuple[int, ...]:
    """Row table of "rows then orows": row a is the OR of orows[b] over the
    set bits b of rows[a].

    Takes whole tables, so one call covers a relation; orows may be any
    table indexed by the bit positions of rows.
    """
    out = []
    for row in rows:
        acc = 0
        while row:
            low = row & -row
            acc |= orows[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return tuple(out)


def transpose_rows(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """Bit rows of the transpose of a relation whose codomain has width elements.

    out[b] has bit a set iff rows[a] has bit b set.
    """
    out = [0] * width
    for a, row in enumerate(rows):
        m = row
        while m:
            low = m & -m
            out[low.bit_length() - 1] |= 1 << a
            m ^= low
    return tuple(out)


class Carrier(Frozen):
    """An index set 0..size-1; labels are cosmetic and never affect checks."""

    size: int
    labels: tuple[str, ...] | None

    def __init__(self, size: int, labels: tuple[str, ...] | None = None) -> None:
        _set(self, "size", size)
        _set(self, "labels", labels)
        if self.size < 0:
            raise InputError("carrier size must be nonnegative")
        if self.labels is not None:
            if len(self.labels) != self.size:
                raise InputError(
                    f"carrier has {self.size} elements but {len(self.labels)} labels"
                )
            if len(set(self.labels)) != self.size:
                raise InputError("carrier labels must be distinct")

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return str(i)

    def render(self, elems: Iterable[int]) -> str:
        return "(" + ", ".join(self.label(i) for i in elems) + ")"


def in_field(key: str, load: Callable[..., Any], *args: Any) -> Any:
    """load(*args), with the message of any InputError it raises prefixed
    by the JSON field key it was loading."""
    try:
        return load(*args)
    except InputError as exc:
        raise InputError(f"field {key!r}: {exc}") from None


def json_labels(obj: dict, size: int) -> tuple[str, ...] | None:
    """The optional 'labels' field of a JSON structure on size elements,
    checked as Carrier checks it, with the field named in every error."""
    labels = obj.get("labels")
    if labels is None:
        return None
    if not (isinstance(labels, list) and all(isinstance(s, str) for s in labels)):
        raise InputError("field 'labels' must be a list of strings")
    return in_field("labels", Carrier, size, tuple(labels)).labels


def json_size(size: object, field: str = "carrier") -> int:
    """A size field of a JSON object, 'carrier' unless named: a nonnegative
    integer whose n x n tables can be indexed."""
    if not isinstance(size, int) or isinstance(size, bool) or size < 0:
        raise InputError(f"field '{field}' must be a nonnegative integer size")
    if size * size > sys.maxsize:
        raise InputError(f"field '{field}' must be a size whose n x n table can be indexed")
    return size


class FinRel(Frozen):
    """A relation dom -> cod; rows[a] is the bitmask of b with (a, b) related."""

    dom: Carrier
    cod: Carrier
    rows: tuple[int, ...]

    def __init__(self, dom: Carrier, cod: Carrier, rows: tuple[int, ...]) -> None:
        _set(self, "dom", dom)
        _set(self, "cod", cod)
        _set(self, "rows", rows)
        if len(self.rows) != self.dom.size:
            raise InputError(
                f"relation has {len(self.rows)} rows for a domain of size {self.dom.size}"
            )
        full = (1 << self.cod.size) - 1
        for a, row in enumerate(self.rows):
            if row < 0 or row & ~full:
                raise InputError(f"row {a} has bits outside the codomain")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_pairs(
        cls, dom: Carrier, cod: Carrier, pairs: Sequence[Sequence[int]]
    ) -> "FinRel":
        if not isinstance(pairs, (list, tuple)):
            raise InputError(
                f"relation pairs must be a list of [a, b] pairs, not {type(pairs).__name__}"
            )
        rows = [0] * dom.size
        for pair in pairs:
            if not isinstance(pair, (list, tuple)):
                raise InputError(f"relation pair {pair!r} is not a 2-element list")
            if len(pair) != 2:
                raise InputError(f"relation pair {list(pair)!r} is not a 2-element list")
            a, b = pair
            if not (type(a) is int and type(b) is int):
                raise InputError(f"relation pair {list(pair)!r} must hold integers")
            if not (0 <= a < dom.size and 0 <= b < cod.size):
                raise InputError(f"relation pair ({a}, {b}) out of range")
            rows[a] |= 1 << b
        return cls(dom, cod, tuple(rows))

    @classmethod
    def identity(cls, carrier: Carrier) -> "FinRel":
        return cls(carrier, carrier, tuple(1 << a for a in range(carrier.size)))

    @classmethod
    def empty(cls, dom: Carrier, cod: Carrier) -> "FinRel":
        return cls(dom, cod, (0,) * dom.size)

    @classmethod
    def full(cls, dom: Carrier, cod: Carrier) -> "FinRel":
        mask = (1 << cod.size) - 1
        return cls(dom, cod, (mask,) * dom.size)

    # -- basic queries -----------------------------------------------------

    def has(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    def pairs(self) -> list[tuple[int, int]]:
        return [(a, b) for a in range(self.dom.size) for b in bits(self.rows[a])]

    def count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def is_map(self) -> bool:
        """True when every domain element has exactly one image."""
        return all(row.bit_count() == 1 for row in self.rows)

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """Bit rows of the transpose, kept on the instance: cols[b] is the
        mask of a with (a, b) related."""
        return transpose_rows(self.rows, self.cod.size)

    def contains(self, other: "FinRel") -> bool:
        _require_parallel(other, self)
        return _inclusion_witness(other.rows, self.rows) is None

    # -- algebra -----------------------------------------------------------

    def compose(self, other: "FinRel") -> "FinRel":
        """Relational composite "self then other" (dom(self) -> cod(other))."""
        if self.cod.size != other.dom.size:
            raise InputError(
                f"cannot compose: middle carriers have sizes {self.cod.size} and {other.dom.size}"
            )
        return FinRel(self.dom, other.cod, compose_rows(self.rows, other.rows))

    def dagger(self) -> "FinRel":
        """Transpose; the dagger involution of the relation."""
        return FinRel(self.cod, self.dom, transpose_rows(self.rows, self.cod.size))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "dom": self.dom.size,
            "cod": self.cod.size,
            "pairs": [[a, b] for a, b in self.pairs()],
        }

    @classmethod
    def from_json(cls, obj: object) -> "FinRel":
        dom, cod, pairs = json_fields(obj, "relation", "dom", "cod", "pairs")
        for field, size in (("dom", dom), ("cod", cod)):
            json_size(size, field)
        if not isinstance(pairs, list):
            raise InputError("field 'pairs' must be a list of [a, b] pairs")
        return cls.from_pairs(Carrier(dom), Carrier(cod), pairs)


def _require_parallel(f: FinRel, g: FinRel) -> None:
    if f.dom.size != g.dom.size or f.cod.size != g.cod.size:
        raise InputError(
            "relations are not parallel: "
            f"{f.dom.size}x{f.cod.size} vs {g.dom.size}x{g.cod.size}"
        )


def _require_endo(f: FinRel) -> None:
    if f.dom.size != f.cod.size:
        raise InputError(
            f"expected an endo-relation, got {f.dom.size} -> {f.cod.size}"
        )


def _inclusion_witness(rows: Sequence[int], orows: Sequence[int]) -> tuple[int, int] | None:
    """First pair (a, b) of the rows that the parallel orows lack, or None."""
    for a, (row, orow) in enumerate(zip(rows, orows)):
        extra = row & ~orow
        if extra:
            return a, lowest_bit(extra)
    return None


def is_subcell(f: FinRel, g: FinRel) -> CheckReport:
    """The 2-cell f ⊆ g between parallel relations; the witness of a failed
    inclusion is the first pair of f that g lacks."""
    _require_parallel(f, g)
    extra = _inclusion_witness(f.rows, g.rows)
    if extra is None:
        return CheckReport.passing("subcell")
    return CheckReport.failing(
        "subcell", "inclusion", extra, f"{extra} is in the first relation but not the second"
    )


def union(rels: Sequence[FinRel]) -> FinRel:
    """Pairwise union of a nonempty family of parallel relations."""
    if not rels:
        raise InputError("union requires a nonempty family")
    first = rels[0]
    for other in rels[1:]:
        _require_parallel(first, other)
    rows = tuple(
        _or_all(r.rows[a] for r in rels) for a in range(first.dom.size)
    )
    return FinRel(first.dom, first.cod, rows)


def _or_all(masks: Iterable[int]) -> int:
    acc = 0
    for m in masks:
        acc |= m
    return acc


def _adjoint_witness(f: FinRel, g: FinRel) -> tuple[str, tuple[int, int]] | None:
    """First failing inclusion of f -| g as (clause, pair), or None.

    Each clause stops at its first failing row. The unit holds at a iff
    f.rows[a] meets g.cols[a], read off the transpose g keeps, without
    composing. Once the unit holds, the counit builds row b of g then f
    and returns at the first row with a bit other than b. Carriers are the
    caller's.
    """
    frows, cols = f.rows, g.cols
    for a, row in enumerate(frows):
        if not row & cols[a]:
            return "unit", (a, a)
    for b, row in enumerate(g.rows):
        acc = 0
        while row:
            low = row & -row
            acc |= frows[low.bit_length() - 1]
            row ^= low
        extra = acc & ~(1 << b)
        if extra:
            return "counit", (b, lowest_bit(extra))
    return None


def is_left_adjoint_rel(f: FinRel, g: FinRel) -> CheckReport:
    """Check f -| g in the relation 2-category.

    Requires id_dom ⊆ (f then g) and (g then f) ⊆ id_cod; the report records
    which inclusion fails, with the offending pair as witness. Holds exactly
    when f is a mapping and g is its transpose. The carriers are checked
    here and the scan is _adjoint_witness.
    """
    if g.dom.size != f.cod.size or g.cod.size != f.dom.size:
        raise InputError(
            "adjoint candidate has mismatched carriers: "
            f"f is {f.dom.size}->{f.cod.size} but g is {g.dom.size}->{g.cod.size}"
        )
    found = _adjoint_witness(f, g)
    if found is None:
        return CheckReport.passing("left-adjoint-rel")
    clause, (x, y) = found
    if clause == "unit":
        message = f"({x}, {y}) is missing from the round trip through f and g"
    else:
        message = f"({x}, {y}) appears in the round trip through g and f"
    return CheckReport.failing("left-adjoint-rel", clause, (x, y), message)


def kernel(f: FinRel) -> FinRel:
    """Fiber equivalence of a mapping: relates a, a' iff f(a) = f(a')."""
    if not f.is_map():
        bad = next(a for a, row in enumerate(f.rows) if row.bit_count() != 1)
        raise PreconditionError(
            f"kernel requires a mapping; element {bad} has {f.rows[bad].bit_count()} images"
        )
    return f.compose(f.dagger())


def class_partition(rows: Sequence[int]) -> tuple[list[int], list[int]]:
    """Class index per element and least member per class of an equivalence's rows.

    Classes are indexed in order of their least members.
    """
    seen: dict[int, int] = {}
    cls_of = []
    reps: list[int] = []
    for a, row in enumerate(rows):
        if row not in seen:
            seen[row] = len(reps)
            reps.append(a)
        cls_of.append(seen[row])
    return cls_of, reps


def class_carrier(dom: Carrier, reps: Sequence[int]) -> Carrier:
    """Carrier of the classes with least members reps, in that order,
    labelled [least member] when dom is labelled."""
    if dom.labels is None:
        return Carrier(len(reps))
    return Carrier(len(reps), tuple(f"[{dom.labels[r]}]" for r in reps))


def class_map(dom: Carrier, rows: Sequence[int]) -> FinRel:
    """The map of each element of dom to its class under the equivalence
    with rows, onto class_carrier's classes as class_partition indexes them."""
    cls_of, reps = class_partition(rows)
    return FinRel(dom, class_carrier(dom, reps), tuple(1 << c for c in cls_of))


def refl_trans_closure(f: FinRel) -> FinRel:
    """Least reflexive-transitive relation containing f."""
    _require_endo(f)
    return FinRel(f.dom, f.cod, _closure_rows(f.rows))


def _closure_rows(rows: Sequence[int]) -> tuple[int, ...]:
    """refl_trans_closure on rows: seeds with the identity and squares until
    fixpoint, so the loop count is logarithmic in the carrier size."""
    rows = tuple(row | (1 << a) for a, row in enumerate(rows))
    while True:
        squared = compose_rows(rows, rows)
        if squared == rows:
            return rows
        rows = squared


def _preorder_failure(f: FinRel, check: str) -> CheckReport | None:
    """The first reflexivity or transitivity failure, reported as check."""
    _require_endo(f)
    for a, row in enumerate(f.rows):
        if not row >> a & 1:
            return CheckReport.failing(
                check, "reflexivity", (a, a), f"missing ({a}, {a})"
            )
    for a, (row, two_steps) in enumerate(zip(f.rows, compose_rows(f.rows, f.rows))):
        extra = two_steps & ~row
        if extra:
            c = lowest_bit(extra)
            return CheckReport.failing(
                check,
                "transitivity",
                (a, c),
                f"({a}, {c}) is reachable in two steps but not related",
            )
    return None


def is_preorder(f: FinRel) -> CheckReport:
    """Reflexivity and transitivity, with the first missing pair as witness."""
    rep = _preorder_failure(f, "preorder")
    return CheckReport.passing("preorder") if rep is None else rep


def is_partial_order(f: FinRel) -> CheckReport:
    rep = _preorder_failure(f, "partial-order")
    if rep is not None:
        return rep
    down = transpose_rows(f.rows, f.cod.size)
    for a, row in enumerate(f.rows):
        both = row & down[a] & ~(1 << a)
        if both:
            b = lowest_bit(both)
            return CheckReport.failing(
                "partial-order",
                "antisymmetry",
                (a, b),
                f"({a}, {b}) and ({b}, {a}) both related",
            )
    return CheckReport.passing("partial-order")


def is_equivalence(f: FinRel) -> CheckReport:
    rep = _preorder_failure(f, "equivalence")
    if rep is not None:
        return rep
    down = transpose_rows(f.rows, f.cod.size)
    for a, row in enumerate(f.rows):
        one_way = row & ~down[a]
        if one_way:
            b = lowest_bit(one_way)
            return CheckReport.failing(
                "equivalence",
                "symmetry",
                (a, b),
                f"({a}, {b}) related but ({b}, {a}) is not",
            )
    return CheckReport.passing("equivalence")


def product_carrier(a: Carrier, b: Carrier) -> Carrier:
    """Cartesian product carrier, row-major: (x, y) maps to x * b.size + y."""
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = tuple(
            f"({la}, {lb})" for la in a.labels for lb in b.labels
        )
    return Carrier(a.size * b.size, labels)


def product_rel(f: FinRel, g: FinRel) -> FinRel:
    """Componentwise product relation on the row-major product carriers."""
    dom = product_carrier(f.dom, g.dom)
    cod = product_carrier(f.cod, g.cod)
    width = g.cod.size
    rows = []
    for frow in f.rows:
        for grow in g.rows:
            acc = 0
            for b in bits(frow):
                acc |= grow << (b * width)
            rows.append(acc)
    return FinRel(dom, cod, tuple(rows))
