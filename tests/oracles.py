"""Naive set-based reimplementations used as oracles.

Everything here works on explicit pair/triple sets and quantifies by brute
scan, so the answers are easy to audit and independent of the bitmask code
under test. pams_by_filter is the exception: it filters plain tables through
relmon's own PAM checker, so it is independent of the PAM generator's
pruning, not of the checker. The *_report functions rebuild a checker's
whole report, verdict, witness and message, by plain scans; the congruence
and left-adjoint ones take their preconditions and C1 from relmon. Slow on
purpose; keep carriers tiny.
"""

from itertools import product

from relmon.monoid import is_lax_morphism
from relmon.pam import PartialAbelianMonoid, check_pam_axioms
from relmon.rel import Carrier, bits
from relmon.rel import is_equivalence as is_equivalence_rel
from relmon.report import CheckReport


def compose(fp, gp):
    """Pairs of "f then g"."""
    return {(a, c) for a, b in fp for b2, c in gp if b == b2}


def dagger(fp):
    return {(b, a) for a, b in fp}


def closure(n, fp):
    out = set(fp) | {(a, a) for a in range(n)}
    while True:
        step = out | compose(out, out)
        if step == out:
            return out
        out = step


def is_preorder(n, fp):
    return all((a, a) in fp for a in range(n)) and compose(fp, fp) <= set(fp)


def is_equivalence(n, fp):
    return is_preorder(n, fp) and dagger(fp) == set(fp)


def kernel(fp):
    # fp must be the graph of a mapping
    return {(a, a2) for a, b in fp for a2, b2 in fp if b == b2}


def left_adjoint_pair(na, nb, fp, gp):
    """f -| g by the direct unit/counit inclusions."""
    unit = all((a, a) in compose(fp, gp) for a in range(na))
    counit = compose(gp, fp) <= {(b, b) for b in range(nb)}
    return unit and counit


def monoid_ok(n, units, triples):
    """RU, LU, AS quantified over everything, straight from the text."""
    mult = set(triples)
    for a in range(n):
        if not any((a, y, a) in mult for y in units):
            return False
        if not any((y, a, a) in mult for y in units):
            return False
        if any((a, y, b) in mult for y in units for b in range(n) if b != a):
            return False
        if any((y, a, b) in mult for y in units for b in range(n) if b != a):
            return False
    for a1, a2, a3, z in product(range(n), repeat=4):
        lhs = any((a1, a2, w) in mult and (w, a3, z) in mult for w in range(n))
        rhs = any((a2, a3, w) in mult and (a1, w, z) in mult for w in range(n))
        if lhs != rhs:
            return False
    return True


def monad_ok(n, units, triples, leq):
    """Preorder + the square and unit clauses, quantified directly."""
    if not is_preorder(n, leq):
        return False
    mult = set(triples)
    for a1, a2, a in mult:
        for ap in range(n):
            if (a, ap) in leq:
                lifted = any(
                    (a1, b1) in leq and (a2, b2) in leq and (b1, b2, ap) in mult
                    for b1 in range(n)
                    for b2 in range(n)
                )
                if not lifted:
                    return False
    return all(x in units for y in units for x in range(n) if (y, x) in leq)


def lax_ok(src, dst, rel):
    """Square and triangle of a lax morphism, quantified directly.

    src and dst are (n, units, triples); rel is a set of pairs from the
    source carrier to the target carrier.
    """
    (_, src_units, src_mult), (nd, dst_units, dst_mult) = src, dst
    for a1, a2, a in src_mult:
        for b in range(nd):
            if (a, b) in rel:
                lifted = any(
                    (a1, b1) in rel and (a2, b2) in rel and (b1, b2, b) in dst_mult
                    for b1 in range(nd)
                    for b2 in range(nd)
                )
                if not lifted:
                    return False
    return all(b in dst_units for y in src_units for b in range(nd) if (y, b) in rel)


def pam_ok(n, zero, cells):
    """P1, P2, P3 on a dict (a, b) -> c of the defined cells."""
    for a in range(n):
        if cells.get((a, zero)) != a:
            return False
    for (a, b), c in cells.items():
        if cells.get((b, a)) != c:
            return False
    for a, b, c in product(range(n), repeat=3):
        if (b, c) in cells and (a, cells[(b, c)]) in cells:
            s = cells[(a, cells[(b, c)])]
            if (a, b) not in cells or (cells[(a, b)], c) not in cells:
                return False
            if cells[(cells[(a, b)], c)] != s:
                return False
    return True


def pams_by_filter(n):
    """Sorted addition tables of every partial abelian monoid on n points.

    Every commutative table with the zero (0) row and column fixed is built
    and kept when it passes check_pam_axioms: a plain filter with no pruning,
    5^6 = 15,625 tables at n = 4.
    """
    cells = [(a, b) for a in range(1, n) for b in range(a, n)]
    out = []
    for values in product(range(-1, n), repeat=len(cells)):
        plus = [-1] * (n * n)
        for a in range(n):
            plus[a] = plus[a * n] = a
        for (a, b), v in zip(cells, values):
            plus[a * n + b] = plus[b * n + a] = v
        p = PartialAbelianMonoid(Carrier(n), 0, tuple(plus))
        if check_pam_axioms(p).ok:
            out.append(p.plus)
    return sorted(out)


def meet_join_or_error(n, leq):
    """Row-major meet and join tables of a partial order, or the message
    naming the first pair without a greatest lower or least upper bound."""
    meet, join = [], []
    for x, y in product(range(n), repeat=2):
        lows = [z for z in range(n) if (z, x) in leq and (z, y) in leq]
        glb = [z for z in lows if all((w, z) in leq for w in lows)]
        if not glb:
            return f"not a lattice: pair ({x}, {y}) has no meet"
        ups = [z for z in range(n) if (x, z) in leq and (y, z) in leq]
        lub = [z for z in ups if all((z, w) in leq for w in ups)]
        if not lub:
            return f"not a lattice: pair ({x}, {y}) has no join"
        meet.append(glb[0])
        join.append(lub[0])
    return tuple(meet), tuple(join)


def lattice_ok(n, leq):
    """Every pair has a greatest lower and least upper bound."""
    for x, y in product(range(n), repeat=2):
        lows = [z for z in range(n) if (z, x) in leq and (z, y) in leq]
        if not any(all((w, z) in leq for w in lows) for z in lows):
            return False
        ups = [z for z in range(n) if (x, z) in leq and (y, z) in leq]
        if not any(all((z, w) in leq for w in ups) for z in ups):
            return False
    return True


def modular_ok(n, leq, meet, join):
    return all(
        join[x][meet[y][z]] == meet[y][join[x][z]]
        for x, y, z in product(range(n), repeat=3)
        if (x, y) in leq
    )


def congruence_report(c):
    """C1, C2 and C5 of a congruence candidate by the nested-loop scan.

    The same report as relmon's check_congruence, found by walking both
    classes of every defined sum instead of through class-pair sum masks.
    """
    check_pam_axioms(c.base).require("not a partial abelian monoid")
    p, sim = c.base, c.classes
    eq = is_equivalence_rel(sim)
    if not eq.ok:
        return CheckReport.failing("congruence", "C1", eq.witness, eq.message)
    lab = p.carrier.label
    for x1, y1 in product(range(p.n), repeat=2):
        if not p.defined(x1, y1):
            continue
        for x2 in bits(sim.rows[x1]):
            for y2 in bits(sim.rows[y1]):
                if p.defined(x2, y2) and not sim.has(p.value(x1, y1), p.value(x2, y2)):
                    return CheckReport.failing(
                        "congruence",
                        "C2",
                        (x1, y1, x2, y2),
                        f"{lab(x1)}+{lab(y1)} and {lab(x2)}+{lab(y2)} are "
                        "sums of related summands but are unrelated",
                    )
    for x, y in product(range(p.n), repeat=2):
        if not p.defined(x, y):
            continue
        for z in bits(sim.rows[p.value(x, y)]):
            if not any(
                p.defined(x1, y1) and p.value(x1, y1) == z
                for x1 in bits(sim.rows[x])
                for y1 in bits(sim.rows[y])
            ):
                return CheckReport.failing(
                    "congruence",
                    "C5",
                    (x, y, z),
                    f"{lab(z)} is related to {lab(x)}+{lab(y)} but has no "
                    "decomposition along related parts",
                )
    return CheckReport.passing("congruence")


def left_adjoint_report(h):
    """Left-adjointness of a lax morphism by the per-element fiber scan.

    The same report as relmon's is_left_adjoint_relmon, found by searching
    the fibers of b1 and b2 for a lift of every a over b, one a at a time.
    """
    is_lax_morphism(h).require("not a lax morphism")
    rel, src, dst = h.rel, h.src, h.dst
    if not rel.is_map():
        bad = next(a for a, row in enumerate(rel.rows) if row.bit_count() != 1)
        return CheckReport.failing(
            "left-adjoint",
            "mapping",
            (bad,),
            f"element {src.carrier.label(bad)} has {rel.rows[bad].bit_count()} images",
        )
    f = [row.bit_length() - 1 for row in rel.rows]
    fibers = [[a for a in range(src.n) if f[a] == b] for b in range(dst.n)]
    for b1, b2, b in dst.triples:
        for a in fibers[b]:
            if not any(
                (a1, a2, a) in src.mult for a1 in fibers[b1] for a2 in fibers[b2]
            ):
                return CheckReport.failing(
                    "left-adjoint",
                    "factorization",
                    (b1, b2, a),
                    f"target product {dst.carrier.render((b1, b2))}*"
                    f"{dst.carrier.label(b)} does not lift at {src.carrier.label(a)}",
                )
    for x in range(src.n):
        if f[x] in dst.units and x not in src.units:
            return CheckReport.failing(
                "left-adjoint",
                "unit-reflection",
                (x,),
                f"non-unit {src.carrier.label(x)} maps to unit "
                f"{dst.carrier.label(f[x])}",
            )
    return CheckReport.passing("left-adjoint")


def additive_maps_by_filter(psrc, pdst):
    """Every map with 0 sent to the target zero that respects each defined
    source sum, filtered from all of itertools.product in its order."""
    out = []
    for tail in product(range(pdst.n), repeat=psrc.n - 1):
        values = (pdst.zero,) + tail
        if all(
            pdst.defined(values[a], values[b])
            and pdst.value(values[a], values[b]) == values[c]
            for a, b, c in psrc.cells
        ):
            out.append(values)
    return out


def pam_axioms_report(p):
    """P3, P2 and P1 of a partial abelian monoid by the cell-by-cell scan.

    The same report as relmon's check_pam_axioms, found by asking defined()
    and value() for every pair and triple of elements.
    """
    lab = p.carrier.label
    for a in range(p.n):
        if not p.defined(a, p.zero) or p.value(a, p.zero) != a:
            return CheckReport.failing(
                "pam-axioms", "P3", (a,), f"{lab(a)} + {lab(p.zero)} is not {lab(a)}"
            )
    for a, b in product(range(p.n), repeat=2):
        if p.defined(a, b) and (not p.defined(b, a) or p.value(a, b) != p.value(b, a)):
            return CheckReport.failing(
                "pam-axioms",
                "P2",
                (a, b),
                f"{lab(a)} + {lab(b)} defined but not matched by {lab(b)} + {lab(a)}",
            )
    for a, b, c in product(range(p.n), repeat=3):
        if not p.defined(b, c) or not p.defined(a, p.value(b, c)):
            continue
        if not p.defined(a, b):
            return CheckReport.failing(
                "pam-axioms",
                "P1",
                (a, b, c),
                f"{lab(a)} + ({lab(b)} + {lab(c)}) defined but "
                f"{lab(a)} + {lab(b)} is not",
            )
        ab = p.value(a, b)
        if not p.defined(ab, c) or p.value(ab, c) != p.value(a, p.value(b, c)):
            return CheckReport.failing(
                "pam-axioms",
                "P1",
                (a, b, c),
                f"({lab(a)} + {lab(b)}) + {lab(c)} does not reassociate",
            )
    return CheckReport.passing("pam-axioms")


# -- reference scans ---------------------------------------------------------
#
# The loops that rel.compose_rows, rel.transpose_rows and the mask-built
# lax square replaced, kept verbatim in behaviour: each returns the same
# rows or the same whole report as the relmon function it is named after.


def compose_rows_by_loop(rows, orows):
    """Row a is the OR of orows[b] over the set bits b of rows[a]."""
    out = []
    for row in rows:
        acc = 0
        m = row
        while m:
            low = m & -m
            acc |= orows[low.bit_length() - 1]
            m ^= low
        out.append(acc)
    return tuple(out)


def closure_rows_by_squaring(rows):
    """Reflexive-transitive closure: seed with the diagonal, square to fixpoint."""
    rows = tuple(row | (1 << a) for a, row in enumerate(rows))
    while True:
        squared = compose_rows_by_loop(rows, rows)
        if squared == rows:
            return rows
        rows = squared


def _lowest(mask):
    return (mask & -mask).bit_length() - 1


def preorder_report(f):
    for a, row in enumerate(f.rows):
        if not row >> a & 1:
            return CheckReport.failing(
                "preorder", "reflexivity", (a, a), f"missing ({a}, {a})"
            )
    for a, row in enumerate(f.rows):
        acc = 0
        for b in bits(row):
            acc |= f.rows[b]
        extra = acc & ~row
        if extra:
            c = _lowest(extra)
            return CheckReport.failing(
                "preorder",
                "transitivity",
                (a, c),
                f"({a}, {c}) is reachable in two steps but not related",
            )
    return CheckReport.passing("preorder")


def partial_order_report(f):
    """Antisymmetry probed pair by pair, after the preorder scan."""
    rep = preorder_report(f)
    if not rep.ok:
        return CheckReport.failing("partial-order", rep.failed, rep.witness, rep.message)
    for a, row in enumerate(f.rows):
        for b in bits(row):
            if a != b and f.rows[b] >> a & 1:
                return CheckReport.failing(
                    "partial-order",
                    "antisymmetry",
                    (a, b),
                    f"({a}, {b}) and ({b}, {a}) both related",
                )
    return CheckReport.passing("partial-order")


def _asymmetric_pair(rows):
    for a, row in enumerate(rows):
        for b in bits(row):
            if not rows[b] >> a & 1:
                return a, b
    return None


def equivalence_report(f):
    """Symmetry probed pair by pair, after the preorder scan."""
    rep = preorder_report(f)
    if not rep.ok:
        return CheckReport.failing("equivalence", rep.failed, rep.witness, rep.message)
    pair = _asymmetric_pair(f.rows)
    if pair is not None:
        a, b = pair
        return CheckReport.failing(
            "equivalence", "symmetry", pair, f"({a}, {b}) related but ({b}, {a}) is not"
        )
    return CheckReport.passing("equivalence")


def left_adjoint_rel_report(f, g):
    """The unit and counit inclusions, one round trip per element."""
    for a in range(f.dom.size):
        acc = 0
        for b in bits(f.rows[a]):
            acc |= g.rows[b]
        if not acc >> a & 1:
            return CheckReport.failing(
                "left-adjoint-rel",
                "unit",
                (a, a),
                f"({a}, {a}) is missing from the round trip through f and g",
            )
    for b in range(g.dom.size):
        acc = 0
        for a in bits(g.rows[b]):
            acc |= f.rows[a]
        extra = acc & ~(1 << b)
        if extra:
            c = _lowest(extra)
            return CheckReport.failing(
                "left-adjoint-rel",
                "counit",
                (b, c),
                f"({b}, {c}) appears in the round trip through g and f",
            )
    return CheckReport.passing("left-adjoint-rel")


def square_witness_by_search(src, rows, dst):
    """First (a1, a2, a, b) of the lax square with no (b1, b2)*b above it.

    Source triples ascending, then b ascending; for each b, the pairs
    (b1, b2) under (a1, a2) are searched until one has b as a product.
    """
    m = dst.n
    dpm = dst.prod_masks
    for a1, a2, a in src.triples:
        for b in bits(rows[a]):
            if not any(
                dpm[b1 * m + b2] >> b & 1
                for b1 in bits(rows[a1])
                for b2 in bits(rows[a2])
            ):
                return a1, a2, a, b
    return None


def _stray_unit(src, rows, dst):
    for y in src.unit_list:
        stray = rows[y] & ~dst.units_mask
        if stray:
            return y, _lowest(stray)
    return None


def lax_morphism_report(h):
    src, dst, rows = h.src, h.dst, h.rel.rows
    square = square_witness_by_search(src, rows, dst)
    if square is not None:
        a1, a2, a, b = square
        return CheckReport.failing(
            "lax-morphism",
            "square",
            square,
            f"product {src.carrier.render((a1, a2, a))} maps to "
            f"{dst.carrier.label(b)} with no product decomposition above it",
        )
    preserved_wit = _stray_unit(src, rows, dst)
    reached = 0
    for y in src.unit_list:
        reached |= rows[y]
    uncovered = dst.units_mask & ~reached
    covered_wit = (_lowest(uncovered),) if uncovered else None
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


def monad_conditions_report(base, order):
    rep = preorder_report(order)
    if not rep.ok:
        return CheckReport.failing("monad", rep.failed, rep.witness, rep.message)
    rows = order.rows
    square = square_witness_by_search(base, rows, base)
    if square is not None:
        a1, a2, a, ap = square
        return CheckReport.failing(
            "monad",
            "square",
            square,
            f"product {base.carrier.render((a1, a2, a))} does not "
            f"propagate up to {base.carrier.label(ap)}",
        )
    stray = _stray_unit(base, rows, base)
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


def adjunction_monad_report(c):
    """Monad conditions, then symmetry probed pair by pair."""
    rep = monad_conditions_report(c.base, c.order)
    if not rep.ok:
        return CheckReport.failing(
            "adjunction-monad", rep.failed, rep.witness, rep.message
        )
    pair = _asymmetric_pair(c.order.rows)
    if pair is not None:
        a, b = pair
        return CheckReport.failing(
            "adjunction-monad",
            "symmetry",
            pair,
            f"({a}, {b}) related but ({b}, {a}) is not",
        )
    return CheckReport.passing("adjunction-monad")
