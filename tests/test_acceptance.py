"""Acceptance gate: the eight headline guarantees, one test (and line) each.

Each test re-derives its guarantee from scratch at the stated sizes and
asserts the published runtime budget. Run with -v to get the per-criterion
pass/fail lines; the printed timing shows up under -rA or -s.
"""

import json
import time
from pathlib import Path

from relmon import catalog
from relmon.lattice import check_qa_monad_iff_modular
from relmon.monoid import (
    MonadCandidate,
    check_monoid_axioms,
    interval_monoid,
    is_left_adjoint_relmon,
    is_monad,
    monad_reflection,
)
from relmon.pam import has_rdp, is_dimension_equivalence
from relmon.rel import FinRel
from relmon.search import verify_universal

ROOT = Path(__file__).resolve().parents[1]


def _ok(key, size):
    rep = verify_universal(key, size=size)
    assert rep.ok, rep.summary()


def _stamp(n, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion {n}: PASS ({elapsed:.2f}s)")


def test_criterion_1_rel_level_facts():
    t0 = time.perf_counter()
    _ok("left-adjoint-iff-map", 3)
    _ok("monads-are-preorders", 3)
    _stamp(1, t0, 10)


def test_criterion_2_unit_uniqueness():
    t0 = time.perf_counter()
    _ok("unit-uniqueness", 3)
    _stamp(2, t0, 60)


def test_criterion_3_reflection_least_and_universal():
    t0 = time.perf_counter()
    _ok("reflection-least", 2)
    _ok("reflection-universal", 2)
    _stamp(3, t0, 60)


def test_criterion_4_quotient_monad_iff_modular():
    t0 = time.perf_counter()
    _ok("qa-monad-iff-modular", 6)
    pentagon = check_qa_monad_iff_modular(catalog.n5_lattice())
    assert pentagon.ok
    assert pentagon.details["qa_monad"] is False
    assert pentagon.details["modular"] is False
    diamond = check_qa_monad_iff_modular(catalog.m3_lattice())
    assert diamond.ok
    assert diamond.details["qa_monad"] is True
    assert diamond.details["modular"] is True
    _stamp(4, t0, 30)


def test_criterion_5_rdp_iff_reverse_order_monad():
    t0 = time.perf_counter()
    _ok("rdp-iff-monad", 5)
    negative = has_rdp(catalog.diamond_pam())
    assert not negative.ok
    assert negative.witness == (1, 1, 2)
    assert has_rdp(catalog.chain_pam(5)).ok
    _stamp(5, t0, 120)


PAM_LAWS = (
    "quotient-pam-valid",
    "faithful-congruence-adjoint",
    "adjoint-induces-congruence",
    "rdp-iff-monad",
)


def test_criterion_6_congruences_quotients_adjoints():
    # whole reports at default sizes, so a dropped adjoint or PAM moves a
    # counter (adjoints_checked, pams_checked) and fails here; the pins are
    # the benchmark's, only read
    t0 = time.perf_counter()
    pinned = json.loads((ROOT / "perfbench" / "expected.json").read_text())["laws"]
    for key in PAM_LAWS:
        assert verify_universal(key).to_json() == pinned[key], key
    _stamp(6, t0, 120)


def test_criterion_7_truncated_worked_examples():
    t0 = time.perf_counter()
    divis = MonadCandidate(catalog.truncated_nat_monoid(6), catalog.divisibility_order(6))
    assert is_monad(divis).ok

    subword = MonadCandidate(catalog.words_monoid(3), catalog.subword_order(3))
    assert is_monad(subword).ok

    for n in range(1, 7):
        assert check_monoid_axioms(interval_monoid(n)).ok

    closed = monad_reflection(catalog.truncated_nat_monoid(8), catalog.doubling_endo(8))
    assert closed.order.rows == catalog.power_order(8).rows

    degree = is_left_adjoint_relmon(catalog.degree_morphism(2, 2))
    assert not degree.ok
    assert degree.failed == "factorization"
    assert degree.witness == (1, 1, 6)
    assert catalog.degree_morphism(2, 2).src.carrier.label(6) == "x^2+x+1"
    _stamp(7, t0, 10)


def test_criterion_8_dimension_equivalence_instances():
    t0 = time.perf_counter()
    square = catalog.boolean_oml(2)
    assert is_dimension_equivalence(
        square, FinRel.identity(square.lattice.order.dom)
    ).ok
    mo2 = catalog.mo2_oml()
    rep = is_dimension_equivalence(mo2, FinRel.identity(mo2.lattice.order.dom))
    assert not rep.ok
    assert rep.failed == "D"
    print(f"criterion 8 witness pair: {rep.witness}")
    assert rep.witness == (1, 3)
    _stamp(8, t0, 1)
