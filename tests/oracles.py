"""Naive set-based reimplementations used as oracles.

Everything here works on explicit pair/triple sets and quantifies by brute
scan, so the answers are easy to audit and independent of the bitmask code
under test. pams_by_filter is the exception: it filters plain tables through
relmon's own PAM checker, so it is independent of the PAM generator's
pruning, not of the checker. Slow on purpose; keep carriers tiny.
"""

from itertools import product

from relmon.pam import PartialAbelianMonoid, check_pam_axioms
from relmon.rel import Carrier


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
