"""Naive set-based reimplementations used as oracles.

Everything here works on explicit pair/triple sets and quantifies by brute
scan, so the answers are easy to audit and independent of the bitmask code
under test. pams_by_filter is the exception: it filters plain tables through
relmon's own PAM checker, so it is independent of the PAM generator's
pruning, not of the checker. labeled_pams_by_walk is the generator's
own P1-pruned walk with no relabelings, so it checks the orbit expansion
of the labeled PAM stream, not the pruning. lattices_by_poset_filter runs
relmon's labeled posets through its lattice filter, and dedups them by
the bit-by-bit permute_rows, so it checks how the lattice generator
builds, relabels and orders its candidates, not the filter.
relmonoids_by_product is the product-then-filter generator that the orderly
fill replaced; it filters with _assoc_witness, the kernel the generator
prunes with, so it checks the fill's walk and pruning only, and dedups
on its own, keeping the first of each orbit met in key order as
least_relmonoids_per_orbit does. The independent checks of associativity
and P1 stay: categories_by_rescan scans on its own, pams_by_filter runs the
PAM checker on whole tables, so it checks which triples the generator
gives the shared kernel, and monoid_ok and pam_ok check the checkers, and
so the kernels, by brute force. assoc_failure_where_placed and
p1_failure_where_placed pin the kernels' rule for a partial table.
lax_rels_by_filter and orthocomplementations_by_recursion are the searches
that _fill replaced, with relmon's lax-morphism and orthomodular checkers
as their verdicts, so they check the pruning, not the checkers;
left_adjoints_by_filter keeps those of its tables that left_adjoint_report
passes, so it checks the map search _left_adjoints, and
additive_maps_by_filter checks it on the monoids of PAMs by a plain scan
of the sums. factorization_witness_by_fibers is the bitmask fiber scan
that the per-element lifting kernel replaced. The
*_report functions rebuild a checker's whole report, verdict, witness and
message, by plain scans; the congruence and left-adjoint ones take their
preconditions and C1 from relmon, and dimension_equivalence_report its
clauses before C. poset_quotients_by_pair_scan,
quotient_order_rows_by_pair_scan, star_star_report and the backtracking
families_pair_off are the scans that the quotient-monoid, perspectivity,
star-star and dimension-equivalence code replaced by the one witness each
definition forces. adjoint_witness_by_composites is the adjunction scan
that composed the whole counit before it scanned, and
reflection_universal_by_every_endo the reflection sweep over every
endomorphism that the law reduced to one per box. Slow on purpose; keep
carriers tiny.
"""

from functools import lru_cache
from itertools import permutations, product

from relmon.laws import _lax_rels
from relmon.monoid import (
    LaxMorphism,
    RelMonoid,
    _assoc_witness,
    check_reflection_universal,
    is_lax_morphism,
    quotient_pairs,
)
from relmon.pam import (
    OmlStructure,
    PartialAbelianMonoid,
    _join_of,
    _orthogonal_families,
    check_pam_axioms,
    is_dimension_equivalence,
    to_relmonoid,
    validate_oml,
)
from relmon.rel import Carrier, FinRel, bits, compose_rows
from relmon.rel import is_equivalence as is_equivalence_rel
from relmon.report import CheckReport
from relmon.search import (
    _gen_monad_orders,
    _is_lattice_rows,
    _labeled_posets,
    _pam_tables,
    _perms,
    _pool_upto,
)


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


def assoc_failure_where_placed(table, triples):
    """First (a1, a2, a3) of triples whose bracketings differ in a partial
    table {(x, y): set of products}, or None. A missing key is a cell not
    placed, and a triple is checked only once every cell it reads is
    placed: (a1, a2), (a2, a3), (w, a3) for w in a1*a2, (a1, w) for w in
    a2*a3."""
    for a1, a2, a3 in triples:
        left, right = table.get((a1, a2)), table.get((a2, a3))
        if left is None or right is None:
            continue
        reads = [(w, a3) for w in left] + [(a1, w) for w in right]
        if any(cell not in table for cell in reads):
            continue
        lhs = set().union(*(table[(w, a3)] for w in left))
        rhs = set().union(*(table[(a1, w)] for w in right))
        if lhs != rhs:
            return a1, a2, a3
    return None


def p1_failure_where_placed(table, triples):
    """First (a, b, c) of triples at which P1 fails in a partial addition
    table {(x, y): value, None if undefined}, or None. A missing key is a
    cell not placed, and a triple is checked only once every cell it reads
    is placed: (b, c); (a, b+c) if b+c is defined; then (a, b); and
    (a+b, c) if a+b is defined."""
    for a, b, c in triples:
        bc = table.get((b, c))
        abc = table.get((a, bc)) if bc is not None else None
        if abc is None or (a, b) not in table:
            continue  # the premise fails, or is not placed yet
        ab = table[(a, b)]
        if ab is None:
            return a, b, c  # a+(b+c) defined but a+b not
        if (ab, c) in table and table[(ab, c)] != abc:
            return a, b, c  # (a+b)+c undefined or another element
    return None


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


def labeled_pams_by_walk(n):
    """The addition tables of the labeled PAMs on n points, ascending, from
    the plain P1-pruned walk: every table the orderly walk would prune for
    a smaller relabeling is kept. 5,326 tables at n = 5."""
    return [tuple(t) for t in _pam_tables(n, ())] if n else []


def relabel_pam(p, perm):
    """The addition table of p with every element a renamed perm[a]."""
    n = p.n
    image = [-1] * (n * n)
    for a, b, c in p.cells:
        image[perm[a] * n + perm[b]] = perm[c]
    return tuple(image)


def least_pams_per_orbit(stream):
    """The addition table of the first PAM of each isomorphism class met in
    stream: post-hoc deduplication, which keeps the relabelings (zero fixed)
    of every kept table in a set. On a stream ascending by table it gives
    the least table of each class, in ascending order.
    """
    seen = set()
    out = []
    for p in stream:
        if p.plus not in seen:
            seen.update(relabel_pam(p, (0,) + rest) for rest in permutations(range(1, p.n)))
            out.append(p.plus)
    return out


def permute_rows(rows, perm):
    """The row table of the relation rows relabeled by perm, bit by bit."""
    n = len(rows)
    out = [0] * n
    for a in range(n):
        mask = 0
        for b in range(n):
            if rows[a] >> b & 1:
                mask |= 1 << perm[b]
        out[perm[a]] = mask
    return tuple(out)


def lattices_by_poset_filter(n, dedup):
    """Row tables of the lattices on n points in relmon's stream order.

    Every labeled poset on n points is kept when it passes the lattice
    filter, in the order _labeled_posets builds them; with dedup on, the
    posets are walked in ascending order and each orbit keeps its first
    member. 130,023 posets at n = 6.
    """
    out = []
    seen = set()
    for rows in sorted(_labeled_posets(n)) if dedup else _labeled_posets(n):
        if rows in seen or _is_lattice_rows(rows) is None:
            continue
        out.append(rows)
        if dedup:
            seen.update(permute_rows(rows, p) for p in _perms(n))
    return out


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


def factorization_witness_by_fibers(f, src, dst):
    """The fiber scan that the per-element lifting kernel replaced: the first
    target triple (b1, b2, b), ascending, with an a over b outside the
    products of all source pairs over (b1, b2), and the least such a."""
    m = dst.n
    fmask = [0] * m
    for a, b in enumerate(f):
        fmask[b] |= 1 << a
    lift = [0] * (m * m)
    for a1, a2, a in src.triples:
        lift[f[a1] * m + f[a2]] |= 1 << a
    for b1, b2, b in dst.triples:
        missing = fmask[b] & ~lift[b1 * m + b2]
        if missing:
            return b1, b2, (missing & -missing).bit_length() - 1
    return None


def lax_rels_by_filter(src, dst):
    """The rows of every lax morphism src -> dst: all of itertools.product,
    in its order, filtered through relmon's is_lax_morphism."""
    return [
        rows
        for rows in product(range(1 << dst.n), repeat=src.n)
        if is_lax_morphism(LaxMorphism(src, dst, FinRel(src.carrier, dst.carrier, rows))).ok
    ]


def left_adjoints_by_filter(src, dst, tables):
    """The tables, in their order, that relmon's is_lax_morphism accepts and
    left_adjoint_report passes."""
    out = []
    for rows in tables:
        h = LaxMorphism(src, dst, FinRel(src.carrier, dst.carrier, rows))
        if is_lax_morphism(h).ok and left_adjoint_report(h).ok:
            out.append(rows)
    return out


@lru_cache(maxsize=None)
def relmonoid_left_adjoints(size):
    """Per ordered pair of relational-monoid classes up to size points:
    both monoids and the rows of left_adjoints_by_filter over all their
    maps. Cached, as two tests read all 8,100 pairs at 3."""
    monoids = _pool_upto("relmonoid", size)
    out = []
    for src, dst in product(monoids, repeat=2):
        maps = product([1 << b for b in range(dst.n)], repeat=src.n)
        out.append((src, dst, left_adjoints_by_filter(src, dst, maps)))
    return out


def orthocomplementations_by_recursion(lat):
    """Every orthocomplementation of lat that relmon's validate_oml accepts,
    ascending: element a, unless an earlier element chose it already, takes
    each complement c that no other element chose and that is not a itself
    (unless a is the only element), and c takes a back."""
    cands = [
        [c for c in range(lat.n)
         if lat.join_of(a, c) == lat.top and lat.meet_of(a, c) == lat.bottom]
        for a in range(lat.n)
    ]
    out = []

    def place(a, ortho):
        if a == lat.n:
            if validate_oml(OmlStructure(lat, tuple(ortho))).ok:
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


@lru_cache(maxsize=None)
def additive_map_reports(size):
    """Per ordered pair of PAM classes up to size points: both PAMs, their
    monoids and, per map of additive_maps_by_filter, its images and its
    left_adjoint_report. Cached, as several tests read all 32,529 at 4."""
    pams = _pool_upto("pam", size)
    out = []
    for psrc, pdst in product(pams, repeat=2):
        msrc, mdst = to_relmonoid(psrc), to_relmonoid(pdst)
        maps = []
        for values in additive_maps_by_filter(psrc, pdst):
            rel = FinRel(psrc.carrier, pdst.carrier, tuple(1 << v for v in values))
            maps.append((values, left_adjoint_report(LaxMorphism(msrc, mdst, rel))))
        out.append((psrc, pdst, msrc, mdst, maps))
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
# The loops that rel.compose_rows, rel.transpose_rows, the mask-built lax
# square and lattice.hom_defect replaced, kept verbatim in behaviour: each
# returns the same rows, defect or whole report as the relmon function it is
# named after.


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


def adjoint_witness_by_composites(f, g):
    """_adjoint_witness as it was before each clause stopped at its first
    failing row: the unit read off g's transpose, then the whole counit
    composite g then f, then its scan."""
    for a, (row, col) in enumerate(zip(f.rows, g.cols)):
        if not row & col:
            return "unit", (a, a)
    for b, row in enumerate(compose_rows(g.rows, f.rows)):
        extra = row & ~(1 << b)
        if extra:
            return "counit", (b, _lowest(extra))
    return None


def reflection_universal_by_every_endo(size):
    """Every (endo, monad order, arrow) cocone over the relational monoids up
    to size through check_reflection_universal, endo by endo, the sweep the
    reflection-universal law reduced to one largest endomorphism per box.

    Returns the first failing report, or None, and the rows of the endos
    checked per (monoid index, target index, order rows, arrow rows).
    """
    monoids = _pool_upto("relmonoid", size)
    covered = {}
    for i, m in enumerate(monoids):
        endos = [LaxMorphism(m, m, FinRel(m.carrier, m.carrier, rows)) for rows in _lax_rels(m, m)]
        for j, other in enumerate(monoids):
            orders = _gen_monad_orders(other)
            arrows = [
                LaxMorphism(m, other, FinRel(m.carrier, other.carrier, rows))
                for rows in _lax_rels(m, other)
            ]
            for endo in endos:
                f = endo.rel
                for cand in orders:
                    for u in arrows:
                        if not u.rel.compose(cand.order).contains(f.compose(u.rel)):
                            continue
                        rep = check_reflection_universal(endo, cand, u)
                        if not rep.ok:
                            return rep, covered
                        key = (i, j, cand.order.rows, u.rel.rows)
                        covered.setdefault(key, []).append(f.rows)
    return None, covered


def square_witness_by_search(src, rows, dst, triples=None):
    """First (a1, a2, a, b) of the lax square with no (b1, b2)*b above it.

    The given source triples (by default all, ascending), then b ascending;
    for each b, the pairs (b1, b2) under (a1, a2) are searched until one
    has b as a product.
    """
    m = dst.n
    dpm = dst.prod_masks
    for a1, a2, a in src.triples if triples is None else triples:
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


def hom_defect_by_loop(f, src, dst):
    """Every pair in row-major order, the meet checked before the join."""
    for x in range(src.n):
        for y in range(src.n):
            if f[src.meet_of(x, y)] != dst.meet_of(f[x], f[y]):
                return ("meet", x, y)
            if f[src.join_of(x, y)] != dst.join_of(f[x], f[y]):
                return ("join", x, y)
    return None


def rdp_witness_by_loop(p):
    """First (x1, x2, y) with y below x1+x2 and no y1+y2 = y, yi below xi.

    Cells row-major, then y ascending; for each y, every pair of parts
    below x1 and x2 is searched. Down-sets are read off the cells directly.
    """
    down = [0] * p.n
    for a, _, c in p.cells:
        down[c] |= 1 << a
    for x1 in range(p.n):
        for x2 in range(p.n):
            if not p.defined(x1, x2):
                continue
            s = p.value(x1, x2)
            for y in bits(down[s]):
                if not any(
                    p.defined(y1, y2) and p.value(y1, y2) == y
                    for y1 in bits(down[x1])
                    for y2 in bits(down[x2])
                ):
                    return x1, x2, y
    return None


def dimension_clause_b_by_loop(s, sim):
    """First (a1, a2, b) with b related to a1 join a2 (a1, a2 orthogonal)
    and no orthogonal b1, b2 joining to b with b1 ~ a1 and b2 ~ a2."""
    lat = s.lattice
    for a1 in range(lat.n):
        for a2 in range(lat.n):
            if not s.orthogonal(a1, a2):
                continue
            for b in bits(sim.rows[lat.join_of(a1, a2)]):
                if not any(
                    s.orthogonal(b1, b2)
                    and lat.join_of(b1, b2) == b
                    and sim.has(b1, a1)
                    and sim.has(b2, a2)
                    for b1 in range(lat.n)
                    for b2 in range(lat.n)
                ):
                    return a1, a2, b
    return None


def poset_quotients_by_pair_scan(order):
    """Monoid of the quotients b/a of a poset, from every pair of quotients:
    (b/a, d/c)*(d/a) iff b = c."""
    quots = quotient_pairs(order)
    index = {q: i for i, q in enumerate(quots)}
    mult = {
        (i, j, index[(a, d)])
        for i, (a, b) in enumerate(quots)
        for j, (c, d) in enumerate(quots)
        if b == c
    }
    units = {i for i, (a, b) in enumerate(quots) if a == b}
    lab = order.dom.label
    return RelMonoid.make(
        len(quots), units, mult, tuple(f"{lab(b)}/{lab(a)}" for a, b in quots)
    )


def quotient_order_rows_by_pair_scan(lat):
    """Rows of the perspectivity order, from every pair of quotients:
    b/a up-to d/c iff a = b meet c and d = b join c."""
    quots = quotient_pairs(lat.order)
    n, meet, join = lat.n, lat.meet, lat.join
    return tuple(
        sum(
            1 << j
            for j, (c, d) in enumerate(quots)
            if a == meet[b * n + c] and d == join[b * n + c]
        )
        for a, b in quots
    )


def star_star_report(lat, arrow):
    """The star-star report by scanning, for each c/a up-to c'/a' in arrow,
    the rows of the perspectivity order, every midpoint b' in [a', c']."""
    quots = quotient_pairs(lat.order)
    index = {q: i for i, q in enumerate(quots)}
    lab = lat.order.dom.label
    qcarrier = Carrier(len(quots), tuple(f"{lab(b)}/{lab(a)}" for a, b in quots))
    for a, b in quots:
        for c in bits(lat.up_masks[b]):
            for k in bits(arrow[index[(a, c)]]):
                ap, cp = quots[k]
                if not any(
                    arrow[index[(a, b)]] >> index[(ap, bp)] & 1
                    and arrow[index[(b, c)]] >> index[(bp, cp)] & 1
                    for bp in bits(lat.up_masks[ap] & lat.down_masks[cp])
                ):
                    wit = (index[(a, b)], index[(b, c)], k)
                    return CheckReport.failing(
                        "star-star",
                        "decomposition",
                        wit,
                        f"quotients {qcarrier.render(wit)} admit no midpoint",
                    )
    return CheckReport.passing("star-star")


def families_pair_off(fam1, fam2, sim):
    """Whether a bijection between the families relates them memberwise,
    by backtracking over the members of fam2."""
    used = [False] * len(fam2)

    def go(i):
        if i == len(fam1):
            return True
        for j, g in enumerate(fam2):
            if not used[j] and sim.has(fam1[i], g):
                used[j] = True
                if go(i + 1):
                    return True
                used[j] = False
        return False

    return len(fam1) == len(fam2) and go(0)


def dimension_equivalence_report(s, sim, literal_joins=False):
    """The dimension-equivalence report with clauses C and D by plain scans:
    every pair of orthogonal families through families_pair_off, and for D
    every nonzero element below a. The equivalence, A and B clauses are
    relmon's."""
    rep = is_dimension_equivalence(s, sim, literal_joins)
    if rep.failed in ("equivalence", "A", "B"):
        return rep
    lat = s.lattice
    lab = lat.order.dom.label
    families = _orthogonal_families(s)
    for fam1, fam2 in product(families, repeat=2):
        if not families_pair_off(fam1, fam2, sim):
            continue
        j1, j2 = _join_of(lat, fam1), _join_of(lat, fam2)
        if j1 != j2 if literal_joins else not sim.has(j1, j2):
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
    for a, b in product(range(lat.n), repeat=2):
        if s.orthogonal(a, b):
            continue
        if not any(
            sim.has(a1, b1)
            for a1 in range(lat.n)
            for b1 in range(lat.n)
            if a1 != lat.bottom and b1 != lat.bottom and lat.leq(a1, a) and lat.leq(b1, b)
        ):
            return CheckReport.failing(
                "dimension-equivalence",
                "D",
                (a, b),
                f"non-orthogonal {lab(a)}, {lab(b)} dominate no related "
                "nonzero pair",
            )
    return CheckReport.passing("dimension-equivalence")


def categories_by_rescan(narr):
    """All labeled categories with narr arrows, in relmon's order, as
    (object count, arrow endpoints, composition table) triples: the same
    search as relmon's _gen_categories, but every placed composite rescans
    associativity over the whole partial table."""
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
                comp = {}
                free = []
                for i, j in composable:
                    if i in idset:
                        comp[(i, j)] = j
                    elif j in idset:
                        comp[(i, j)] = i
                    else:
                        free.append((i, j))

                def assoc_ok():
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

                def place(k):
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


def relmonoids_by_product(n, dedup):
    """Every relational monoid on n points in relmon's stream order: the
    product-then-filter generator that the orderly fill replaced.

    Per unit set, ascending by mask, it takes the itertools.product of the
    nonempty witness sets of right and left units per non-unit and of every
    subset for each cell between non-units, and keeps the associative
    tables (12,505 candidates at n = 3). With dedup it sorts them by
    (units_mask, prod_masks) and keeps the first of each orbit met.
    """
    if dedup:
        seen = set()
        out = []
        for m in sorted(relmonoids_by_product(n, False), key=_relmonoid_key):
            if _relmonoid_key(m) not in seen:
                seen.update(_relmonoid_orbit(m))
                out.append(m)
        return out
    if n == 0:
        return [RelMonoid.make(0, [], [])]
    cells = [(b, b * n + c, c) for b, c in product(range(n), repeat=2)]
    triples = list(product([a * n for a in range(n)], cells))  # all, ascending
    out = []
    for units_mask in range(1, 1 << n):
        units = list(bits(units_mask))
        non_units = [a for a in range(n) if not units_mask >> a & 1]
        unit_subsets = [s for s in range(1, units_mask + 1) if s & ~units_mask == 0]
        base = [0] * (n * n)
        for y in units:
            base[y * n + y] = 1 << y
        free_cells = [(a, b) for a in non_units for b in non_units]
        k = len(non_units)
        choice_space = [unit_subsets] * (2 * k) + [range(1 << n)] * len(free_cells)
        for choice in product(*choice_space):
            pm = base.copy()
            for i, a in enumerate(non_units):
                for y in bits(choice[i]):
                    pm[a * n + y] = 1 << a
                for y in bits(choice[k + i]):
                    pm[y * n + a] = 1 << a
            for i, (a, b) in enumerate(free_cells):
                pm[a * n + b] = choice[2 * k + i]
            if _assoc_witness(pm, n, triples) is None:
                mult = [(i // n, i % n, a) for i, m in enumerate(pm) for a in bits(m)]
                out.append(RelMonoid.make(n, units, mult))
    return out


def _relmonoid_key(m):
    return (m.units_mask, m.prod_masks)


def _relmonoid_orbit(m):
    """The keys of every relabeling of m."""
    n = m.n
    keys = []
    for perm in _perms(n):
        moved = [1 << p for p in perm]
        cells = compose_rows(m.prod_masks, moved)
        (units,) = compose_rows((m.units_mask,), moved)
        ppm = [0] * (n * n)
        for a1 in range(n):
            for a2 in range(n):
                ppm[perm[a1] * n + perm[a2]] = cells[a1 * n + a2]
        keys.append((units, tuple(ppm)))
    return keys


def relabel_monoid(m, perm):
    """The triples of m with every element a renamed perm[a], sorted."""
    return tuple(sorted((perm[a], perm[b], perm[c]) for a, b, c in m.triples))


def least_relmonoids_per_orbit(stream):
    """The (units, triples) of the first relational monoid of each
    isomorphism class met in stream, keeping the relabelings of every kept
    one in a set, as least_pams_per_orbit does for PAMs."""
    seen = set()
    out = []
    for m in stream:
        key = (m.unit_list, m.triples)
        if key not in seen:
            seen.update(
                (tuple(sorted(p[y] for y in m.units)), relabel_monoid(m, p))
                for p in permutations(range(m.n))
            )
            out.append(key)
    return out
