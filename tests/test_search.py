"""Enumeration of small structures and the universal-law registry."""

import collections
import functools
import heapq
import itertools
import random
import types
from math import factorial

import pytest

import oracles
from relmon import catalog, laws, monoid, pam, search
from relmon.lattice import lattice_from_order
from relmon.laws import _lax_rels, _left_adjoints, _orthocomplementations
from relmon.monoid import (
    LaxMorphism,
    MonadCandidate,
    RelMonoid,
    _assoc_witness,
    _monad_conditions,
    _square_witness,
    check_monoid_axioms,
    is_left_adjoint_relmon,
    is_monad,
)
from relmon.pam import (
    CongruenceCandidate,
    PartialAbelianMonoid,
    _p1_witness,
    check_congruence,
    check_pam_axioms,
    oml_as_effect_algebra,
    to_relmonoid,
)
from relmon.rel import (
    Carrier,
    FinRel,
    bits,
    is_partial_order,
    refl_trans_closure,
    transpose_rows,
)
from relmon.report import CheckReport, InputError, InternalCheckError, PreconditionError
from relmon.search import (
    _UNSET,
    EnumSpec,
    _completions,
    _congruence_rows,
    _equivalence_rows,
    _fill,
    _gen_congruences,
    _gen_lattices,
    _gen_monad_orders,
    _gen_pams,
    _gen_relmonoids,
    _labeled_posets,
    _mask_images,
    _perms_fixing_zero,
    _pool,
    _pool_upto,
    _poset_key,
    _preorders,
    _row_col_triples,
    enumerate_structures,
    property_keys,
    serialize_structure,
    verify_universal,
)


def isomorphic_orders(r1, r2):
    n = len(r1)
    if len(r2) != n:
        return False
    return any(oracles.permute_rows(r1, p) == r2 for p in itertools.permutations(range(n)))


# -- spec validation -----------------------------------------------------------


def test_enum_spec_rejects_unknown_kind():
    with pytest.raises(InputError, match="unknown kind"):
        EnumSpec("group", 2)


def test_enum_spec_rejects_bad_sizes():
    with pytest.raises(InputError, match="nonnegative"):
        EnumSpec("lattice", -1)
    with pytest.raises(InputError, match="exceeds"):
        EnumSpec("relmonoid", 4)
    with pytest.raises(InputError, match="exceeds"):
        EnumSpec("pam", 7)


def test_enum_spec_base_handling():
    with pytest.raises(InputError, match="needs a monoid base"):
        EnumSpec("monad-order", 2)
    with pytest.raises(InputError, match="size"):
        EnumSpec("monad-order", 3, base=catalog.z2_monoid())
    with pytest.raises(InputError, match="partial abelian monoid"):
        EnumSpec("congruence", 2, base=catalog.z2_monoid())
    with pytest.raises(InputError, match="takes no base"):
        EnumSpec("lattice", 2, base=catalog.chain_pam(2))


# -- relational monoids ---------------------------------------------------------


def test_relmonoids_size_zero_and_one():
    empty = list(enumerate_structures(EnumSpec("relmonoid", 0)))
    assert len(empty) == 1 and empty[0].n == 0
    singles = list(enumerate_structures(EnumSpec("relmonoid", 1)))
    assert len(singles) == 1
    assert set(singles[0].units) == {0}
    assert set(singles[0].triples) == {(0, 0, 0)}


# Recorded regression values, not a published sequence: the number of
# relational monoids on n = 0..3 points, labeled and up to isomorphism.
RELMONOID_COUNTS = {False: [1, 1, 9, 451], True: [1, 1, 5, 83]}


@pytest.mark.parametrize("dedup", [False, True])
def test_relmonoid_counts_are_pinned(dedup):
    counts = [
        sum(1 for _ in enumerate_structures(EnumSpec("relmonoid", n, dedup=dedup)))
        for n in range(4)
    ]
    assert counts == RELMONOID_COUNTS[dedup]


def monoid_key(m):
    return (m.units_mask, m.prod_masks)


def relabel_monoid(m, p):
    """The key of m with every element a renamed p[a]."""
    pm = [0] * (m.n * m.n)
    for a1, a2, a in m.triples:
        pm[p[a1] * m.n + p[a2]] |= 1 << p[a]
    units = 0
    for u in m.units:
        units |= 1 << p[u]
    return (units, tuple(pm))


@pytest.mark.parametrize("n", range(4))
def test_relmonoid_orbit_stabilizer(n):
    # each representative stands for n!/|Aut| labelings
    perms = list(itertools.permutations(range(n)))
    labeled = 0
    for m in enumerate_structures(EnumSpec("relmonoid", n)):
        aut = sum(1 for p in perms if relabel_monoid(m, p) == monoid_key(m))
        labeled += factorial(n) // aut
    assert labeled == RELMONOID_COUNTS[False][n]


@pytest.mark.parametrize("n", range(4))
def test_relmonoid_representatives_ascend_by_key(n):
    keys = [monoid_key(m) for m in _gen_relmonoids(n, True)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("n", range(4))
def test_relmonoid_representatives_put_units_first(n):
    # the least labeling of a class has its units at 0..k-1, so the orderly
    # walk fills only those unit sets
    for m in _gen_relmonoids(n, True):
        assert m.units_mask == 2 ** len(m.units) - 1


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("dedup", [False, True])
def test_relmonoids_match_the_product_oracle(n, dedup):
    # the same monoids in the same order as filtering the product of every
    # unit witness set and cell value, sorted and deduplicated post hoc
    fill = [m.to_json() for m in _gen_relmonoids(n, dedup)]
    assert fill == [m.to_json() for m in oracles.relmonoids_by_product(n, dedup)]


@pytest.mark.parametrize("n", range(4))
def test_orderly_relmonoids_match_post_hoc_dedup(n):
    # the pruned walk keeps the least labeling of each orbit, in key order
    orderly = [(m.unit_list, m.triples) for m in _gen_relmonoids(n, True)]
    labeled = sorted(_gen_relmonoids(n, False), key=monoid_key)
    assert orderly == oracles.least_relmonoids_per_orbit(labeled)


def test_generators_with_no_free_slots_yield_once():
    # a fill with nothing to place yields its fixed table exactly once
    for dedup in (False, True):
        assert [p.plus for p in _gen_pams(1, dedup)] == [(0,)]
        assert [monoid_key(m) for m in _gen_relmonoids(1, dedup)] == [(1, (1,))]
    assert laws._gen_categories(1) == [(1, ((0, 0),), {(0, 0): 0})]


def test_fill_yields_the_tables_ok_admits_in_product_order():
    # without relabelings: every table whose prefixes ok admits, in the
    # order of itertools.product over the slot values as given; after the
    # walk every slot entry is unset again and the other entries untouched
    def admits(table, k):
        return sum(table[e] for slot in slots[:k + 1] for e in slot) % 3 != 1

    slots = [(0, 4), (1,), (3,)]
    values = [range(3), [2, 0, 1], range(-1, 2)]
    t = [_UNSET, _UNSET, 7, _UNSET, _UNSET]
    filled = []
    for table in _fill(t, slots, values, lambda k: admits(t, k)):
        assert table is t
        filled.append(list(table))
    expect = []
    for combo in itertools.product(*values):
        u = [_UNSET, _UNSET, 7, _UNSET, _UNSET]
        for slot, v in zip(slots, combo):
            for e in slot:
                u[e] = v
        if all(admits(u, k) for k in range(len(slots))):
            expect.append(u)
    assert filled == expect
    assert 0 < len(expect) < 27
    assert t == [_UNSET, _UNSET, 7, _UNSET, _UNSET]


def test_kernels_on_partial_tables_match_the_placed_triple_oracles():
    # the generators run _assoc_witness and _p1_witness on the triples
    # through each placed cell of a partial table: a triple that reads an
    # entry not placed (_UNSET) is skipped, never failed, and the first
    # failing triple whose cells are all placed is the witness. Tables are
    # random or a monoid's or PAM's, with entries unset at random.
    rng = random.Random(23)
    seen = collections.Counter()
    for case in range(240):
        n = rng.randint(1, 3)
        if case % 2:
            full_pm = rng.choice(_pool("relmonoid", n, False)).prod_masks
            full_plus = rng.choice(_pool("pam", n, False)).plus
        else:
            full_pm = [rng.randrange(1 << n) for _ in range(n * n)]
            full_plus = [rng.randrange(-1, n) for _ in range(n * n)]
        share = rng.choice((0.0, 0.2, 0.5))
        pm = [_UNSET if rng.random() < share else m for m in full_pm]
        plus = [_UNSET if rng.random() < share else v for v in full_plus]
        products = {(i // n, i % n): set(bits(m)) for i, m in enumerate(pm) if m >= 0}
        sums = {(i // n, i % n): None if v == -1 else v for i, v in enumerate(plus) if v >= -1}
        for triples in _row_col_triples(n):
            plain = [(xn // n, y, z) for xn, (y, _, z) in triples]
            got = _assoc_witness(pm, n, triples)
            assert (got and got[:3]) == oracles.assoc_failure_where_placed(products, plain)
            p1 = _p1_witness(plus, n, triples)
            assert p1 == oracles.p1_failure_where_placed(sums, plain)
            checked = ((_assoc_witness, full_pm, got), (_p1_witness, full_plus, p1))
            for kernel, full, bad in checked:
                if bad is not None:
                    seen[kernel, "fails"] += 1
                elif kernel(full, n, triples) is not None:
                    seen[kernel, "skips a failure"] += 1
    assert len(seen) == 4


def test_relmonoids_all_satisfy_axioms():
    for m in enumerate_structures(EnumSpec("relmonoid", 2)):
        assert check_monoid_axioms(m).ok


def test_relmonoids_dedup_covers_all_labelings():
    # every raw structure must be isomorphic to exactly one representative
    reps = list(enumerate_structures(EnumSpec("relmonoid", 2)))
    raw = list(enumerate_structures(EnumSpec("relmonoid", 2, dedup=False)))
    assert len(raw) >= len(reps)

    def iso_class(m):
        return {relabel_monoid(m, p) for p in itertools.permutations(range(m.n))}

    rep_keys = [monoid_key(m) for m in reps]
    assert len(set(rep_keys)) == len(rep_keys)
    classes = [iso_class(m) for m in reps]
    for i, cls in enumerate(classes):
        for j in range(i + 1, len(classes)):
            assert not cls & classes[j]
    for m in raw:
        assert any(monoid_key(m) in cls for cls in classes)


# -- monad orders ----------------------------------------------------------------


def test_monad_orders_over_trivial_monoid():
    base = catalog.trivial_monoid()
    cands = list(enumerate_structures(EnumSpec("monad-order", 1, base=base)))
    assert len(cands) == 1
    assert cands[0].order.rows == (1,)


def test_monad_orders_are_monads():
    base = catalog.z2_monoid()
    cands = list(enumerate_structures(EnumSpec("monad-order", 2, base=base)))
    assert cands
    for cand in cands:
        assert is_monad(cand).ok
    identity_rows = (1, 2)
    assert any(c.order.rows == identity_rows for c in cands)


def test_monad_orders_are_the_monad_filter_over_preorders():
    # every labeled relational monoid up to 3 points: the kernel sweep keeps
    # the preorders is_monad passes, in order, each with that verdict
    for n in range(4):
        carrier = Carrier(n)
        for base in _pool("relmonoid", n, False):
            expect = [
                rows
                for rows in _preorders(n)
                if is_monad(MonadCandidate(base, FinRel(carrier, carrier, rows))).ok
            ]
            orders = _gen_monad_orders(base)
            assert [c.order.rows for c in orders] == expect
            for c in orders:
                assert c.__dict__["is_monad"] == is_monad(MonadCandidate(base, c.order))


def test_monad_orders_reject_broken_base():
    unitless = RelMonoid.make(1, [], [])
    with pytest.raises(InputError, match="not a relational monoid"):
        list(enumerate_structures(EnumSpec("monad-order", 1, base=unitless)))


# -- congruences ------------------------------------------------------------------


def equivalences(n):
    seen = set()
    carrier = Carrier(n)
    for split in itertools.product(range(n), repeat=n):
        canon = {}
        rows = [0] * n
        for a, blk in enumerate(split):
            canon.setdefault(blk, len(canon))
        key = tuple(canon[b] for b in split)
        if key in seen:
            continue
        seen.add(key)
        for a in range(n):
            for b in range(n):
                if key[a] == key[b]:
                    rows[a] |= 1 << b
        yield FinRel(carrier, carrier, tuple(rows))


def test_chain_congruences_are_trivial():
    p = catalog.chain_pam(5)
    cands = list(enumerate_structures(EnumSpec("congruence", 5, base=p)))
    rows = sorted(c.classes.rows for c in cands)
    identity = tuple(1 << a for a in range(5))
    total = tuple(31 for _ in range(5))
    assert rows == sorted([identity, total])


def test_congruence_enumeration_matches_naive_filter():
    for p in (catalog.boolean22_pam(), catalog.diamond_pam()):
        got = {
            c.classes.rows
            for c in enumerate_structures(EnumSpec("congruence", 4, base=p))
        }
        expect = {
            sim.rows
            for sim in equivalences(4)
            if check_congruence(CongruenceCandidate(p, sim)).ok
        }
        assert got == expect


def test_boolean_congruences_include_atom_gluing():
    p = catalog.boolean22_pam()
    gluing = (1, 6, 6, 8)  # blocks {0}, {1,2}, {3}
    rows = {c.classes.rows for c in enumerate_structures(EnumSpec("congruence", 4, base=p))}
    assert gluing in rows


def test_congruence_pool_matches_candidate_filter():
    # the pool keeps each PAM's passing class rows on the PAM instance, one
    # sweep per instance; a fresh equal PAM (as after clearing _pool) sweeps
    # again and shares nothing with the old one
    total = 0
    for p in _pool_upto("pam", 5):
        carrier = p.carrier
        expect = [
            rows
            for rows in _equivalence_rows(p.n)
            if check_congruence(CongruenceCandidate(p, FinRel(carrier, carrier, rows))).ok
        ]
        pool = _congruence_rows(p)
        assert list(pool) == expect
        assert all(type(rows) is tuple and all(type(r) is int for r in rows) for rows in pool)
        cands = _gen_congruences(p)
        assert [c.classes.rows for c in cands] == expect
        # each candidate carries the verdict its rows gave in the sweep
        for c in cands:
            assert c.__dict__["check_congruence"] == check_congruence(
                CongruenceCandidate(p, c.classes)
            )
        assert _congruence_rows(p) is pool
        fresh = PartialAbelianMonoid(p.carrier, p.zero, p.plus)
        assert fresh == p and "_congruence_rows" not in fresh.__dict__
        assert _congruence_rows(fresh) == pool and _congruence_rows(fresh) is not pool
        total += len(pool)
    assert total == 2917


# -- lattices ----------------------------------------------------------------------


def test_lattice_enumeration_small():
    ones = list(enumerate_structures(EnumSpec("lattice", 1)))
    assert len(ones) == 1
    twos = list(enumerate_structures(EnumSpec("lattice", 2)))
    assert len(twos) == 1
    assert isomorphic_orders(twos[0].order.rows, catalog.chain_lattice(2).order.rows)


def test_lattices_are_valid_and_non_isomorphic():
    lats = list(enumerate_structures(EnumSpec("lattice", 4)))
    for lat in lats:
        assert is_partial_order(lat.order).ok
        assert oracles.lattice_ok(4, set(lat.order.pairs()))
    for i, l1 in enumerate(lats):
        for l2 in lats[i + 1 :]:
            assert not isomorphic_orders(l1.order.rows, l2.order.rows)


# Lattices on n = 1..7 points: up to isomorphism OEIS A006966; labeled
# OEIS A055512 (the labeled-lattice sequence), not only recorded values.
LATTICE_COUNTS = {
    False: [1, 2, 6, 36, 380, 6390, 157962],
    True: [1, 1, 1, 2, 5, 15, 53],
}


@pytest.mark.parametrize("dedup", [False, True])
def test_lattice_counts_are_pinned(dedup):
    # the labeled stream at n = 7 takes about 3 s; the orbit-stabilizer
    # test below pins that count from the 53 classes instead
    counts = [
        sum(1 for _ in enumerate_structures(EnumSpec("lattice", n, dedup=dedup)))
        for n in range(1, 7)
    ]
    assert counts == LATTICE_COUNTS[dedup][:6]


@pytest.mark.parametrize("n", range(1, 8))
def test_lattice_orbit_stabilizer(n):
    # each representative stands for n!/|Aut| labelings; an automorphism
    # keeps the size of every up-set, which cheaply rules out most perms
    perms = list(itertools.permutations(range(n)))
    labeled = 0
    reps = list(enumerate_structures(EnumSpec("lattice", n)))
    for lat in reps:
        rows = lat.order.rows
        ups = [bin(r).count("1") for r in rows]
        aut = sum(
            1
            for p in perms
            if all(ups[p[a]] == ups[a] for a in range(n))
            and oracles.permute_rows(rows, p) == rows
        )
        labeled += factorial(n) // aut
    assert len(reps) == LATTICE_COUNTS[True][n - 1]
    assert labeled == LATTICE_COUNTS[False][n - 1]


@pytest.mark.parametrize("dedup", [False, True])
@pytest.mark.parametrize("n", range(7))
def test_lattice_generator_matches_poset_filter(n, dedup):
    # same rows in the same order as filtering every labeled n-point poset
    rows = [lat.order.rows for lat in _gen_lattices(n, dedup)]
    assert rows == oracles.lattices_by_poset_filter(n, dedup)


@pytest.mark.parametrize("n", range(1, 7))
def test_labeled_lattice_tables_match_the_derived_ones(n):
    # the labeled stream relabels the tables of one completion per poset
    for lat in _gen_lattices(n, False):
        derived = lattice_from_order(lat.order)
        assert (lat.meet, lat.join) == (derived.meet, derived.join)


@pytest.mark.parametrize("n", range(1, 7))
def test_each_completion_stream_ascends_by_poset_key(n):
    # one completion per poset on the labels between bottom n-1 and top 0
    keys = [_poset_key(rows, transpose_rows(rows, n)) for rows in _completions(n)]
    assert len(keys) == LABELED_POSETS[max(n - 2, 0)]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))


@pytest.mark.parametrize("n", range(2, 7))
def test_labeled_lattice_merge_reads_each_lattices_poset_key(n, monkeypatch):
    # each (bottom, top) stream yields the key of its relabeled rows beside
    # them, and ascends by it, as the merge needs
    streams = []

    def recording_merge(*merging):
        streams.extend(map(list, merging))
        return heapq.merge(*streams)

    monkeypatch.setattr(search, "merge", recording_merge)
    lats = [lat.order.rows for lat in _gen_lattices(n, False)]
    assert len(streams) == n * (n - 1)
    assert [rows for _, (rows, *_) in heapq.merge(*streams)] == lats
    for stream in streams:
        keys = [key for key, _ in stream]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
        for key, (rows, *_) in stream:
            assert key == _poset_key(rows, transpose_rows(rows, n))


@pytest.mark.parametrize("n", range(6))
def test_mask_images_relabel_every_mask_bit_by_bit(n):
    for p in itertools.permutations(range(n)):
        assert _mask_images(p) == tuple(
            sum(1 << p[b] for b in range(n) if m >> b & 1) for m in range(1 << n)
        )


# Published counts of the building blocks, n = 0, 1, 2, ...: labeled posets
# (OEIS A001035), preorders on labeled points (OEIS A000798) and set
# partitions (the Bell numbers, OEIS A000110).
LABELED_POSETS = [1, 1, 3, 19, 219, 4231, 130023]
PREORDERS = [1, 1, 4, 29, 355, 6942]
BELL = [1, 1, 2, 5, 15, 52, 203]


def test_poset_preorder_and_partition_counts_are_published():
    assert [len(_labeled_posets(n)) for n in range(7)] == LABELED_POSETS
    assert [len(_preorders(n)) for n in range(6)] == PREORDERS
    assert [len(_equivalence_rows(n)) for n in range(7)] == BELL


def test_size_five_lattices_contain_pentagon_and_diamond():
    lats = list(enumerate_structures(EnumSpec("lattice", 5)))
    n5 = catalog.n5_lattice().order.rows
    m3 = catalog.m3_lattice().order.rows
    assert any(isomorphic_orders(lat.order.rows, n5) for lat in lats)
    assert any(isomorphic_orders(lat.order.rows, m3) for lat in lats)


# -- partial abelian monoids ---------------------------------------------------------


def test_pam_enumeration_size_two_exact():
    pams = list(enumerate_structures(EnumSpec("pam", 2)))
    tables = sorted(p.plus for p in pams)
    assert tables == [(0, 1, 1, -1), (0, 1, 1, 0), (0, 1, 1, 1)]
    for p in pams:
        assert check_pam_axioms(p).ok


def pam_isomorphic(p1, p2):
    # zero stays put, the rest may be relabeled
    n = p1.n
    if p2.n != n:
        return False
    return any(
        oracles.relabel_pam(p1, (0,) + rest) == p2.plus
        for rest in itertools.permutations(range(1, n))
    )


# Recorded regression values, not a published sequence: the number of
# partial abelian monoids on n = 1..6 points with the zero at 0, labeled
# (every labeling that fixes the zero) and up to isomorphism.
PAM_COUNTS = {False: [1, 3, 19, 255, 5326, 171562], True: [1, 3, 11, 53, 286, 1886]}


@pytest.mark.parametrize("dedup", [False, True])
def test_pam_counts_are_pinned(dedup):
    # the labeled stream at 6 takes about 2 s; orbit-stabilizer pins its count
    sizes = range(1, 7) if dedup else range(1, 6)
    counts = [
        sum(1 for _ in enumerate_structures(EnumSpec("pam", n, dedup=dedup)))
        for n in sizes
    ]
    assert counts == PAM_COUNTS[dedup][: len(sizes)]


@pytest.mark.parametrize("n", range(1, 7))
def test_pam_orbit_stabilizer(n):
    # each representative stands for (n-1)!/|Aut| labelings, the zero fixed
    labeled = 0
    for p in enumerate_structures(EnumSpec("pam", n)):
        aut = sum(
            1 for perm in _perms_fixing_zero(n) if oracles.relabel_pam(p, perm) == p.plus
        )
        assert factorial(n - 1) % aut == 0
        labeled += factorial(n - 1) // aut
    assert labeled == PAM_COUNTS[False][n - 1]


@pytest.mark.parametrize("n", range(1, 6))
def test_labeled_pams_ascend_by_plus(n):
    # so the least table of each orbit is the first of it in this stream
    plus = [p.plus for p in _gen_pams(n, False)]
    assert all(a < b for a, b in zip(plus, plus[1:]))


@pytest.mark.parametrize("n", range(1, 6))
def test_orderly_pams_match_post_hoc_dedup(n):
    # the pruned walk keeps the least table of each orbit, in the same order;
    # the labeled stream is built from it, so dedup the plain walk instead
    orderly = [p.plus for p in _gen_pams(n, True)]
    walk = oracles.labeled_pams_by_walk(n)
    labeled = (PartialAbelianMonoid(Carrier(n), 0, plus) for plus in walk)
    assert orderly == oracles.least_pams_per_orbit(labeled)


@pytest.mark.parametrize("n", range(1, 6))
def test_labeled_pams_match_the_plain_walk(n):
    # the labeled stream expands the orderly classes into their orbits; the
    # walk with no relabelings reaches every table without that pruning
    assert [p.plus for p in _gen_pams(n, False)] == oracles.labeled_pams_by_walk(n)


@pytest.mark.parametrize("n", range(1, 5))
def test_pam_generation_matches_brute_filter(n):
    assert sorted(p.plus for p in _gen_pams(n, False)) == oracles.pams_by_filter(n)


def images(h):
    return tuple(r.bit_length() - 1 for r in h.rel.rows)


def test_additive_maps_match_product_filter():
    # every pair of PAMs up to 4 points, one per isomorphism class:
    # _left_adjoints on their monoids gives the same maps in the same order
    # as filtering all of itertools.product down to the additive maps that
    # the fiber scan finds left adjoint
    total = streamed = 0
    for _, _, msrc, mdst, maps in oracles.additive_map_reports(4):
        adjoints = [images(h) for h in _left_adjoints(msrc, mdst)]
        assert adjoints == [values for values, rep in maps if rep.ok]
        total += len(maps)
        streamed += len(adjoints)
    assert total == 32529
    assert streamed == 1493


def test_zero_reflecting_maps_keep_every_left_adjoint():
    # on all 32,529 additive maps the checker gives the fiber scan's whole
    # report, and every left adjoint among them reflects zero, so the map
    # search, which gives a nonzero element only nonzero images, misses none
    clauses = collections.Counter()
    for psrc, pdst, msrc, mdst, maps in oracles.additive_map_reports(4):
        for values, want in maps:
            rel = FinRel(psrc.carrier, pdst.carrier, tuple(1 << v for v in values))
            rep = is_left_adjoint_relmon(LaxMorphism(msrc, mdst, rel))
            assert rep.to_json() == want.to_json()
            zero_reflecting = pdst.zero not in values[1:]
            assert zero_reflecting or not rep.ok
            clauses[rep.failed, zero_reflecting] += 1
    assert clauses == {
        (None, True): 1493,
        ("factorization", True): 8897,
        ("factorization", False): 14930,
        ("unit-reflection", False): 7209,
    }


def test_pam_enumeration_contains_named_examples():
    pams3 = list(enumerate_structures(EnumSpec("pam", 3)))
    assert any(pam_isomorphic(catalog.chain_pam(3), p) for p in pams3)
    pams4 = list(enumerate_structures(EnumSpec("pam", 4)))
    assert any(pam_isomorphic(catalog.diamond_pam(), p) for p in pams4)


def test_pam_enumeration_deterministic():
    a = [p.plus for p in enumerate_structures(EnumSpec("pam", 3))]
    b = [p.plus for p in enumerate_structures(EnumSpec("pam", 3))]
    assert a == b


def test_enumerate_structures_streams_base_free_kinds():
    # generators all the way: the laws' cached pools stay empty
    _pool.cache_clear()
    kinds = (("pam", range(1, 5)), ("relmonoid", range(3)), ("lattice", range(1, 5)))
    for kind, sizes in kinds:
        for n in sizes:
            for dedup in (False, True):
                stream = enumerate_structures(EnumSpec(kind, n, dedup=dedup))
                assert isinstance(stream, types.GeneratorType)
                for _ in stream:
                    pass
    assert _pool.cache_info().currsize == 0


# -- serialization --------------------------------------------------------------------


def test_serialize_structure_dispatch():
    assert "plus" in serialize_structure(catalog.chain_pam(2))
    assert "units" in serialize_structure(catalog.z2_monoid())
    assert "order" in serialize_structure(catalog.chain_lattice(2))
    with pytest.raises(InputError, match="cannot serialize"):
        serialize_structure(object())


# -- the law registry ------------------------------------------------------------------


REDUCED_SIZES = {
    "adjoint-induces-congruence": 3,
    "adjoint-transpose-lax": 2,
    "adjunction-monads-symmetric": 2,
    "category-axioms": 3,
    "closure-least-preorder": 3,
    "compose-associativity": 2,
    "dagger-laws": 2,
    "dimeq-b-matches-square": 2,
    "enumeration-complete": 2,
    "enumeration-deterministic": 2,
    "faithful-congruence-adjoint": 3,
    "kernel-equivalence": 2,
    "left-adjoint-iff-map": 2,
    "monads-are-preorders": 2,
    "morphism-closure-ops": 2,
    "oml-effect-algebra": 3,
    "product-functorial": 2,
    "q-functorial": 3,
    "qa-monad-iff-modular": 4,
    "quotient-pam-valid": 3,
    "rdp-iff-monad": 3,
    "reflection-least": 2,
    "reflection-universal": 2,
    "star-star-iff-modular": 4,
    "trivial-quotient-arrow": 4,
    "unit-uniqueness": 2,
}


def test_registry_keys_are_exactly_the_reduced_map():
    assert property_keys() == sorted(REDUCED_SIZES)


@pytest.mark.parametrize("key", sorted(REDUCED_SIZES))
def test_law_holds_at_reduced_size(key):
    rep = verify_universal(key, size=REDUCED_SIZES[key])
    assert rep.ok, rep.summary()
    assert rep.check == f"verify:{key}"


# labeled categories with 0..4 arrows, recorded regression values
CATEGORY_COUNTS = [1, 1, 6, 75, 1536]


def test_categories_match_the_rescan_oracle():
    for narr, count in enumerate(CATEGORY_COUNTS):
        cats = laws._gen_categories(narr)
        assert cats == oracles.categories_by_rescan(narr)
        assert len(cats) == count


def test_adjoint_and_category_sweeps_count_at_default_sizes():
    # recorded regression values: every pair up to 3 x 3, every category up to 4 arrows
    rep = verify_universal("left-adjoint-iff-map")
    assert rep.ok and rep.details == {"pairs_checked": 270763}
    rep = verify_universal("category-axioms")
    assert rep.ok and rep.details == {"categories_checked": sum(CATEGORY_COUNTS)}
    assert sum(CATEGORY_COUNTS) == 1619


def test_reflection_least_holds_at_its_max_size():
    assert verify_universal("reflection-least", size=3).ok


def test_reflection_universal_checks_the_union_of_every_cocone(monkeypatch):
    # the law closes one endomorphism per box: the union of the endos that
    # the sweep over every endo checks at some (order, arrow), and every
    # such union is closed by the law
    closed = []

    def spy(f):
        closed.append(f.rows)
        return refl_trans_closure(f)

    monkeypatch.setattr(laws, "refl_trans_closure", spy)
    assert verify_universal("reflection-universal", size=2).ok
    failure, covered = oracles.reflection_universal_by_every_endo(2)
    assert failure is None
    unions = {
        functools.reduce(lambda f, g: tuple(a | b for a, b in zip(f, g)), endos)
        for endos in covered.values()
    }
    assert set(closed) == unions
    assert sum(map(len, covered.values())) > len(covered) > len(closed)


def full_relation(f):
    """A broken closure: the full relation on f's carrier."""
    return FinRel(f.dom, f.cod, ((1 << f.cod.size) - 1,) * f.dom.size)


def test_reflection_universal_fails_with_the_every_endo_sweep(monkeypatch):
    monkeypatch.setattr(laws, "refl_trans_closure", full_relation)
    monkeypatch.setattr(monoid, "refl_trans_closure", full_relation)
    assert not verify_universal("reflection-universal", size=2).ok
    failure, _ = oracles.reflection_universal_by_every_endo(2)
    assert failure is not None and failure.check == "reflection-universal"


def test_lax_rels_is_one_table_per_monoid_pair():
    # the laws that read lax arrows share one table per (src, dst), a
    # tuple of row tuples, with the rows the product filter keeps, in its
    # order; _left_adjoints streams the left adjoints among them
    monoids = _pool_upto("relmonoid", 2)
    total = adjoints = 0
    for src, dst in itertools.product(monoids, repeat=2):
        lax = _lax_rels(src, dst)
        assert _lax_rels(src, dst) is lax
        assert type(lax) is tuple
        assert all(type(rows) is tuple and all(type(r) is int for r in rows) for rows in lax)
        expect = oracles.lax_rels_by_filter(src, dst)
        assert list(lax) == expect
        streamed = [h.rel.rows for h in _left_adjoints(src, dst)]
        assert streamed == oracles.left_adjoints_by_filter(src, dst, expect)
        total += len(lax)
        adjoints += len(streamed)
    assert total == 164
    assert adjoints == 23


def test_lax_rels_match_the_product_filter_at_size_three():
    # a seeded sample of 200 of the 6,889 pairs of size-3 monoid classes
    monoids = _pool("relmonoid", 3, True)
    pairs = random.Random(20).sample(list(itertools.product(monoids, repeat=2)), 200)
    total = adjoints = 0
    for src, dst in pairs:
        expect = oracles.lax_rels_by_filter(src, dst)
        assert list(_lax_rels(src, dst)) == expect
        streamed = [h.rel.rows for h in _left_adjoints(src, dst)]
        assert streamed == oracles.left_adjoints_by_filter(src, dst, expect)
        total += len(expect)
        adjoints += len(streamed)
    assert total == 5035  # recorded regression value
    assert adjoints == 15  # recorded regression value


def test_sweeps_call_no_checker_per_candidate(monkeypatch):
    # the congruence, monad-order and lax-morphism sweeps decide each
    # candidate by the kernels their checkers report from, never through
    # the checkers, so no candidate is validated twice
    calls = collections.Counter()

    def counted(check):
        @functools.wraps(check)
        def wrapper(*args):
            calls[check.__name__] += 1
            return check(*args)
        return wrapper

    checks = (pam.check_congruence, monoid.is_monad, monoid._monad_conditions,
              monoid.is_lax_morphism)
    for check in checks:
        for module in (monoid, search, laws, pam):
            if hasattr(module, check.__name__):
                monkeypatch.setattr(module, check.__name__, counted(check))
    pams = [PartialAbelianMonoid(p.carrier, p.zero, p.plus) for p in _pool_upto("pam", 4)]
    assert sum(len(_congruence_rows(p)) for p in pams) == 343
    monoids = _pool_upto("relmonoid", 2)
    assert sum(len(_gen_monad_orders(m)) for m in monoids) == 14
    lax = [_lax_rels.__wrapped__(src, dst) for src, dst in itertools.product(monoids, repeat=2)]
    assert sum(map(len, lax)) == 164
    assert not calls


def test_adjoint_transpose_lax_holds_at_its_max_size():
    # recorded regression value: the left adjoints among every pair of
    # monoid classes up to 3 points, against the filter of all their maps
    assert verify_universal("adjoint-transpose-lax", size=3).ok
    adjoints = 0
    for src, dst, expect in oracles.relmonoid_left_adjoints(3):
        assert [h.rel.rows for h in _left_adjoints(src, dst)] == expect
        adjoints += len(expect)
    assert adjoints == 1054


def test_adjoint_law_checks_each_adjoint_once(monkeypatch):
    # adjoint-induces-congruence@4 asks is_left_adjoint_relmon once per
    # adjoint the search yields, through induced_monad, and reads the
    # verdict the search handed on: the checker's body, which calls
    # is_lax_morphism and _factorization_witness, runs on no adjoint; the
    # congruence check of each induced relation is the law's own claim
    calls = collections.Counter()

    def counted(check):
        @functools.wraps(check)
        def wrapper(*args):
            calls[check.__name__] += 1
            return check(*args)
        return wrapper

    checks = (monoid.is_left_adjoint_relmon, monoid.is_lax_morphism,
              monoid._factorization_witness, pam.check_congruence)
    for check in checks:
        for module in (monoid, search, laws, pam):
            if hasattr(module, check.__name__):
                monkeypatch.setattr(module, check.__name__, counted(check))
    rep = verify_universal("adjoint-induces-congruence", size=4)
    assert rep.details == {"adjoints_checked": 1493}
    assert calls == {"is_left_adjoint_relmon": 1493, "check_congruence": 1493}


def factor_counts(m):
    """Per element a of m, the number of its factor pairs (a1, a2)*a,
    counted off the triples."""
    counts = collections.Counter(a for _, _, a in m.triples)
    return [counts[a] for a in range(m.n)]


def test_left_adjoints_have_no_more_factor_pairs_than_their_sources():
    # the rule _left_adjoints prunes its images by: the square maps the
    # factor pairs of a into those of f[a], by (a1, a2) -> (f[a1], f[a2]),
    # and factorization makes it onto, so f[a] has at most as many; on the
    # left adjoints the oracles find among all 32,529 additive maps up to
    # 4 points and all maps between relational-monoid classes up to 3
    adjoints = 0
    found = [
        (msrc, mdst, [values for values, rep in maps if rep.ok])
        for _, _, msrc, mdst, maps in oracles.additive_map_reports(4)
    ]
    found += [
        (src, dst, [[r.bit_length() - 1 for r in rows] for rows in tables])
        for src, dst, tables in oracles.relmonoid_left_adjoints(3)
    ]
    for src, dst, adjoint_maps in found:
        have, get = factor_counts(src), factor_counts(dst)
        for f in adjoint_maps:
            assert all(get[b] <= have[a] for a, b in enumerate(f))
            adjoints += 1
    assert adjoints == 1493 + 1054


def test_left_adjoints_match_the_filter_between_size_five_pams():
    # a seeded sample of 300 ordered pairs of the PAM classes on 5 points,
    # the largest size adjoint-induces-congruence runs at, where the
    # factor-pair count cuts the most images: the same maps in the same
    # order as the fiber scan over the additive maps
    pams = _pool("pam", 5, True)
    pairs = random.Random(32).sample(list(itertools.product(pams, repeat=2)), 300)
    adjoints = 0
    for psrc, pdst in pairs:
        msrc, mdst = to_relmonoid(psrc), to_relmonoid(pdst)
        additive = oracles.additive_maps_by_filter(psrc, pdst)
        tables = [tuple(1 << v for v in values) for values in additive]
        streamed = [h.rel.rows for h in _left_adjoints(msrc, mdst)]
        assert streamed == oracles.left_adjoints_by_filter(msrc, mdst, tables)
        adjoints += len(streamed)
    assert adjoints == 88  # recorded regression value


def test_left_adjoints_carry_the_checkers_verdict():
    # each left adjoint the search yields carries the report that the
    # body of is_left_adjoint_relmon gives it, for later preconditions to
    # read, over the PAM classes up to 4 and the monoid classes up to 3
    pams = [to_relmonoid(p) for p in _pool_upto("pam", 4)]
    monoids = _pool_upto("relmonoid", 3)
    pairs = [*itertools.product(pams, repeat=2), *itertools.product(monoids, repeat=2)]
    adjoints = 0
    for src, dst in pairs:
        for h in _left_adjoints(src, dst):
            carried = h.__dict__["is_left_adjoint_relmon"]
            assert carried.to_json() == is_left_adjoint_relmon.__wrapped__(h).to_json()
            adjoints += 1
    assert adjoints == 1493 + 1054


def test_orthocomplementations_match_the_recursion():
    # every lattice class up to 7 points: the same structures in the same
    # order as the hand-written recursion the kernel replaced
    total = 0
    for lat in _pool_upto("lattice", 7):
        found = _orthocomplementations(lat)
        assert all(s.lattice is lat for s in found)
        assert [s.ortho for s in found] == oracles.orthocomplementations_by_recursion(lat)
        total += len(found)
    assert total == 6


def test_rdp_iff_monad_holds_at_its_max_size():
    rep = verify_universal("rdp-iff-monad", size=6)
    assert rep.ok and rep.details == {"geas_checked": 56}


def test_q_functorial_holds_at_its_max_size():
    assert verify_universal("q-functorial", size=5).ok


def test_q_functorial_catches_a_broken_quotient_map(monkeypatch):
    honest = laws.quotient_map

    def reversed_map(f, src, dst):
        return honest(f, src, dst)[::-1]

    def zeros_unless_injective(f, src, dst):
        q = honest(f, src, dst)
        return q if len(set(f)) == len(f) else (0,) * len(q)

    for kernel, message in [
        (reversed_map, "quotient map of the identity is not the identity"),
        (zeros_unless_injective, "quotient construction fails to preserve composition"),
    ]:
        monkeypatch.setattr(laws, "quotient_map", kernel)
        rep = verify_universal("q-functorial")
        assert not rep.ok
        assert rep.message == message


def test_dimeq_square_shortcut_keeps_the_monad_verdict():
    # dimeq-b-matches-square reads _square_witness on equivalence rows in
    # place of the full _monad_conditions report
    clauses = collections.Counter()
    for k in range(1, 4):
        m = to_relmonoid(oml_as_effect_algebra(catalog.boolean_oml(k)))
        for rows in _equivalence_rows(1 << k):
            rep = _monad_conditions(m, FinRel(m.carrier, m.carrier, rows))
            assert (_square_witness(m, rows, m) is None) == (rep.ok or rep.failed != "square")
            clauses[rep.failed] += 1
    assert set(clauses) >= {None, "square"}


def raising(error, message):
    """A stand-in kernel that raises error(message) whatever it is given."""

    def stub(*args):
        raise error(message)

    return stub


# law -> (name on laws, stand-in that breaks it, the whole report), one law
# per layer, and the two laws whose kernels raise on a counterexample
FORCED_FAILURES = {
    "left-adjoint-iff-map": (
        "_adjoint_witness",
        lambda f, g: None,
        {
            "check": "verify:left-adjoint-iff-map",
            "ok": False,
            "failed": "law",
            "message": "adjunction check disagrees with map-and-transpose",
            "details": {
                "f": {"dom": 1, "cod": 0, "pairs": []},
                "g": {"dom": 0, "cod": 1, "pairs": []},
                "adjoint": True,
                "map_and_transpose": False,
            },
        },
    ),
    "category-axioms": (
        "check_monoid_axioms",
        lambda m: CheckReport.failing("stub", "stub", None),
        {
            "check": "verify:category-axioms",
            "ok": False,
            "failed": "law",
            "message": "a finite category fails the monoid axioms",
            "details": {"objects": 0, "arrows": [], "comp": {}},
        },
    ),
    "star-star-iff-modular": (
        "check_star_star",
        lambda lat: CheckReport.passing("stub"),
        {
            "check": "verify:star-star-iff-modular",
            "ok": False,
            "failed": "law",
            "message": "perspectivity decomposition disagrees with modularity",
            "details": {
                "lattice": {
                    "carrier": 5,
                    "order": [
                        [0, 0], [1, 0], [1, 1], [2, 0], [2, 2], [3, 0], [3, 1],
                        [3, 3], [4, 0], [4, 1], [4, 2], [4, 3], [4, 4],
                    ],
                },
            },
        },
    ),
    "dimeq-b-matches-square": (
        "_decomposition_witness",
        lambda p, rows: None,
        {
            "check": "verify:dimeq-b-matches-square",
            "ok": False,
            "failed": "law",
            "message": "decomposition clause disagrees with the lax square",
            "details": {
                "exponent": 2,
                "sim": {
                    "dom": 4,
                    "cod": 4,
                    "pairs": [
                        [0, 0], [0, 1], [0, 3], [1, 0], [1, 1],
                        [1, 3], [2, 2], [3, 0], [3, 1], [3, 3],
                    ],
                },
            },
        },
    ),
    "reflection-universal": (
        "refl_trans_closure",
        full_relation,
        {
            "check": "verify:reflection-universal",
            "ok": False,
            "failed": "law",
            "message": "a cocone fails to factor through the closure",
            "details": {
                "monoid": {"carrier": 2, "units": [0], "mult": [[0, 0, 0], [0, 1, 1], [1, 0, 1]]},
                "endo": {"dom": 2, "cod": 2, "pairs": [[0, 0], [1, 1]]},
                "target": {"carrier": 1, "units": [0], "mult": [[0, 0, 0]]},
                "order": {"dom": 1, "cod": 1, "pairs": [[0, 0]]},
                "arrow": {"dom": 2, "cod": 1, "pairs": [[0, 0]]},
            },
        },
    ),
    "unit-uniqueness": (
        "right_unit_of",
        raising(PreconditionError, "monoid axioms violated: element 0 has 0 right units"),
        {
            "check": "verify:unit-uniqueness",
            "ok": False,
            "failed": "law",
            "message": "monoid axioms violated: element 0 has 0 right units",
            "details": {
                "monoid": {"carrier": 1, "units": [0], "mult": [[0, 0, 0]]},
                "element": 0,
            },
        },
    ),
    "rdp-iff-monad": (
        "has_rdp",
        raising(InternalCheckError, "Riesz decomposition scan and the monad check disagree"),
        {
            "check": "verify:rdp-iff-monad",
            "ok": False,
            "failed": "law",
            "message": "Riesz decomposition scan and the monad check disagree",
            "details": {"pam": {"carrier": 1, "zero": 0, "plus": [[0, 0, 0]]}},
        },
    ),
    "quotient-pam-valid": (
        "quotient_pam",
        lambda cand: PartialAbelianMonoid(Carrier(1), 0, (-1,)),
        {
            "check": "verify:quotient-pam-valid",
            "ok": False,
            "failed": "law",
            "message": "quotient by a valid congruence fails the axioms",
            "details": {
                "congruence": {
                    "base": {"carrier": 1, "zero": 0, "plus": [[0, 0, 0]]},
                    "classes": [[0, 0]],
                },
            },
        },
    ),
}


@pytest.mark.parametrize("key", sorted(FORCED_FAILURES))
def test_a_broken_kernel_gives_the_pinned_law_report(key, monkeypatch):
    name, stub, expected = FORCED_FAILURES[key]
    monkeypatch.setattr(laws, name, stub)
    assert verify_universal(key).to_json() == expected


LATTICE_LAWS = (
    "qa-monad-iff-modular",
    "star-star-iff-modular",
    "trivial-quotient-arrow",
    "oml-effect-algebra",
)


def test_lattice_laws_hold_at_size_seven():
    # the four share one pool: the 78 lattice classes on 1..7 points
    details = {key: verify_universal(key, size=7).to_json() for key in LATTICE_LAWS}
    assert all(rep["ok"] for rep in details.values()), details
    assert details["qa-monad-iff-modular"]["details"] == {"lattices_checked": 78}
    assert details["star-star-iff-modular"]["details"] == {"lattices_checked": 78}
    assert details["oml-effect-algebra"]["details"] == {"structures_checked": 6}
    for key in LATTICE_LAWS:
        with pytest.raises(InputError, match="safety bound"):
            verify_universal(key, size=8)


def test_verify_universal_rejects_bad_requests():
    with pytest.raises(InputError, match="unknown property"):
        verify_universal("flux-capacitance")
    with pytest.raises(InputError, match="safety bound"):
        verify_universal("left-adjoint-iff-map", size=9)
    with pytest.raises(InputError, match="nonnegative"):
        verify_universal("left-adjoint-iff-map", size=-1)
