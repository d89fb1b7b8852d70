"""Every entry point that needs a valid structure raises PreconditionError.

The axiom, lax-morphism, left-adjoint, monad, PAM and congruence verdicts
are cached on the structure they check, so each case calls its entry point
twice on the same instances: a cached failing verdict must raise again, with
the same message.
"""

import pytest

from relmon import catalog
from relmon.monoid import (
    LaxMorphism,
    MonadCandidate,
    RelMonoid,
    check_monoid_axioms,
    check_reflection_universal,
    from_monoid_table,
    induced_monad,
    is_endo_square,
    is_lax_morphism,
    is_left_adjoint_relmon,
    is_monad,
    monad_reflection,
    quotient_relmonoid,
)
from relmon.pam import (
    CongruenceCandidate,
    PartialAbelianMonoid,
    adjoint_induces_c1c2c5,
    canonical_order,
    check_congruence,
    check_pam_axioms,
    has_rdp,
    is_cancellative,
    is_gea,
    is_positive,
    pam_from_relmonoid,
    quotient_map_is_left_adjoint,
    quotient_pam,
    to_relmonoid,
)
from relmon.rel import Carrier, FinRel
from relmon.report import PreconditionError

Z2 = catalog.z2_monoid()
TRIV = catalog.trivial_monoid()
ID2 = FinRel.identity(Z2.carrier)
FULL2 = FinRel.full(Z2.carrier, Z2.carrier)
# unit 0 joined to the left-zero band {1, 2}: associative, not commutative
LEFT_ZERO = from_monoid_table([[0, 1, 2], [1, 1, 1], [2, 2, 2]], 0)
NOT_MONOID = RelMonoid(Carrier(1), frozenset({0}), frozenset())
NOT_PAM = PartialAbelianMonoid.from_cells(2, 0, [(0, 0, 0), (0, 1, 1)])
Z2_PAM = PartialAbelianMonoid.from_cells(
    2, 0, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
)
CHAIN2 = PartialAbelianMonoid.from_cells(2, 0, [(0, 0, 0), (0, 1, 1), (1, 0, 1)])
NOT_EQUIVALENCE = CongruenceCandidate(
    CHAIN2, FinRel(CHAIN2.carrier, CHAIN2.carrier, (0b11, 0b10))
)
BAD_ENDO = FinRel(Z2.carrier, Z2.carrier, (0b10, 0b10))
NOT_LAX = LaxMorphism(Z2, Z2, BAD_ENDO)
NOT_ADJOINT = LaxMorphism(Z2, TRIV, FinRel(Z2.carrier, TRIV.carrier, (1, 1)))

NOT_PAM_MSG = (
    "not a partial abelian monoid: pam-axioms: FAIL clause=P3 witness=(1,) "
    "1 + 0 is not 1"
)
NOT_GEA_MSG = (
    "not a generalized effect algebra: gea: FAIL clause=positivity "
    "witness=(1, 1) 1 + 1 = 0"
)
NOT_CONGRUENCE_MSG = (
    "not a congruence: congruence: FAIL clause=C1 witness=(0, 1) "
    "(0, 1) related but (1, 0) is not"
)
SQUARE_FAIL = (
    "lax-morphism: FAIL clause=square witness=(0, 0, 0, 1) product (0, 0, 0) "
    "maps to 1 with no product decomposition above it"
)
NOT_ADJOINT_MSG = (
    "not a left adjoint: left-adjoint: FAIL clause=unit-reflection "
    "witness=(1,) non-unit 1 maps to unit 0"
)
UNIT_FAIL = "FAIL clause=unit witness=(0, 1) non-unit 1 lies above unit 0"

CASES = {
    "is_positive": (is_positive, (NOT_PAM,), NOT_PAM_MSG),
    "is_cancellative": (is_cancellative, (NOT_PAM,), NOT_PAM_MSG),
    "is_gea": (is_gea, (NOT_PAM,), NOT_PAM_MSG),
    "canonical_order-not-pam": (canonical_order, (NOT_PAM,), NOT_PAM_MSG),
    "canonical_order-not-gea": (canonical_order, (Z2_PAM,), NOT_GEA_MSG),
    "has_rdp-not-pam": (has_rdp, (NOT_PAM,), NOT_PAM_MSG),
    "has_rdp-not-gea": (has_rdp, (Z2_PAM,), NOT_GEA_MSG),
    "to_relmonoid": (to_relmonoid, (NOT_PAM,), NOT_PAM_MSG),
    "check_congruence": (
        check_congruence,
        (CongruenceCandidate(NOT_PAM, FinRel.identity(NOT_PAM.carrier)),),
        NOT_PAM_MSG,
    ),
    "quotient_pam": (quotient_pam, (NOT_EQUIVALENCE,), NOT_CONGRUENCE_MSG),
    "quotient_map_is_left_adjoint": (
        quotient_map_is_left_adjoint,
        (NOT_EQUIVALENCE,),
        NOT_CONGRUENCE_MSG,
    ),
    "is_monad": (
        is_monad,
        (MonadCandidate(NOT_MONOID, FinRel.identity(Carrier(1))),),
        "base is not a relational monoid: monoid-axioms: FAIL clause=right-unit "
        "witness=(0,) element 0 has no right unit",
    ),
    "is_left_adjoint_relmon": (
        is_left_adjoint_relmon,
        (NOT_LAX,),
        f"not a lax morphism: {SQUARE_FAIL}",
    ),
    "induced_monad-not-lax": (
        induced_monad,
        (NOT_LAX,),
        f"not a lax morphism: {SQUARE_FAIL}",
    ),
    "induced_monad-not-adjoint": (induced_monad, (NOT_ADJOINT,), NOT_ADJOINT_MSG),
    "is_endo_square": (
        is_endo_square,
        (NOT_LAX, ID2, ID2),
        f"not a lax morphism: {SQUARE_FAIL}",
    ),
    "monad_reflection": (
        monad_reflection,
        (Z2, BAD_ENDO),
        f"not a lax endomorphism: {SQUARE_FAIL}",
    ),
    "monad_reflection-not-monoid": (
        monad_reflection,
        (NOT_MONOID, FinRel.identity(Carrier(1))),
        "base is not a relational monoid: monoid-axioms: FAIL clause=right-unit "
        "witness=(0,) element 0 has no right unit",
    ),
    "adjoint_induces_c1c2c5-not-lax": (
        adjoint_induces_c1c2c5,
        (NOT_LAX,),
        f"not a lax morphism: {SQUARE_FAIL}",
    ),
    "adjoint_induces_c1c2c5-not-adjoint": (
        adjoint_induces_c1c2c5,
        (NOT_ADJOINT,),
        NOT_ADJOINT_MSG,
    ),
    "adjoint_induces_c1c2c5-not-pam": (
        adjoint_induces_c1c2c5,
        (LaxMorphism(LEFT_ZERO, LEFT_ZERO, FinRel.identity(LEFT_ZERO.carrier)),),
        "not a partial abelian monoid: pam-axioms: FAIL clause=P2 witness=(1, 2) "
        "1 + 2 defined but not matched by 2 + 1",
    ),
    "check_reflection_universal-f": (
        check_reflection_universal,
        (NOT_LAX, MonadCandidate(Z2, ID2), LaxMorphism(Z2, Z2, ID2)),
        f"f is not a lax endomorphism: {SQUARE_FAIL}",
    ),
    "check_reflection_universal-leq": (
        check_reflection_universal,
        (LaxMorphism(Z2, Z2, ID2), MonadCandidate(Z2, FULL2), LaxMorphism(Z2, Z2, ID2)),
        f"leq is not a monad order: monad: {UNIT_FAIL}",
    ),
    "quotient_relmonoid": (
        quotient_relmonoid,
        (Z2, FULL2),
        f"quotient needs a symmetric monad order: adjunction-monad: {UNIT_FAIL}",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_invalid_structure_raises_every_time(case):
    fn, args, message = CASES[case]
    for _ in range(2):
        with pytest.raises(PreconditionError) as exc:
            fn(*args)
        assert str(exc.value) == message


CACHED = {
    "monoid-axioms-ok": (check_monoid_axioms, Z2),
    "monoid-axioms-fail": (check_monoid_axioms, NOT_MONOID),
    "lax-morphism-ok": (is_lax_morphism, LaxMorphism(Z2, Z2, ID2)),
    "lax-morphism-fail": (is_lax_morphism, NOT_LAX),
    "pam-axioms-ok": (check_pam_axioms, CHAIN2),
    "pam-axioms-fail": (check_pam_axioms, NOT_PAM),
    "congruence-ok": (
        check_congruence,
        CongruenceCandidate(CHAIN2, FinRel.identity(CHAIN2.carrier)),
    ),
    "congruence-fail": (check_congruence, NOT_EQUIVALENCE),
    "left-adjoint-ok": (is_left_adjoint_relmon, LaxMorphism(Z2, Z2, ID2)),
    "left-adjoint-fail": (is_left_adjoint_relmon, NOT_ADJOINT),
    "monad-ok": (is_monad, MonadCandidate(Z2, ID2)),
    "monad-fail": (is_monad, MonadCandidate(Z2, FULL2)),
    "pam-from-relmonoid": (pam_from_relmonoid, Z2),
}


@pytest.mark.parametrize("case", sorted(CACHED))
def test_verdict_is_computed_once_per_instance(case):
    check, structure = CACHED[case]
    assert check(structure) is check(structure)


def test_a_raising_check_caches_nothing():
    h = LaxMorphism(Z2, Z2, BAD_ENDO)
    for _ in range(2):
        with pytest.raises(PreconditionError):
            is_left_adjoint_relmon(h)
        assert "is_left_adjoint_relmon" not in vars(h)


def test_cached_verdict_leaves_equality_and_hash_alone():
    fresh = PartialAbelianMonoid.from_cells(2, 0, [(0, 0, 0), (0, 1, 1), (1, 0, 1)])
    checked = PartialAbelianMonoid.from_cells(2, 0, [(0, 0, 0), (0, 1, 1), (1, 0, 1)])
    check_pam_axioms(checked)
    assert checked == fresh and hash(checked) == hash(fresh)
    assert check_pam_axioms(fresh) == check_pam_axioms(checked)
