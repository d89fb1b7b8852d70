"""Finite relations as a posetal 2-category, relational monoids and their
monads, lattice quotient orders, and partial abelian monoids, all with
exhaustive checkers that report concrete witnesses.

``import relmon`` loads no submodule: each exported name is looked up in
the submodule that defines it on first use (PEP 562), and nothing is
copied into this namespace.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "rel": (
        "Carrier", "FinRel", "is_equivalence", "is_left_adjoint_rel",
        "is_partial_order", "is_preorder", "is_subcell", "kernel", "product_carrier",
        "product_rel", "refl_trans_closure", "union",
    ),
    "report": (
        "CheckReport", "InputError", "InternalCheckError", "PreconditionError", "ToolkitError",
    ),
    "monoid": (
        "LaxMorphism", "MonadCandidate", "RelMonoid", "check_monoid_axioms",
        "check_reflection_universal", "from_category", "from_monoid_table",
        "from_poset_quotients", "induced_monad", "interval_monoid", "is_endo_square",
        "is_lax_morphism", "is_left_adjoint_relmon", "is_monad", "left_unit_of",
        "monad_from_adjunction_conditions", "monad_reflection", "poly_monoid",
        "quotient_pairs", "quotient_relmonoid", "right_unit_of",
    ),
    "lattice": (
        "FinLattice", "build_quotient_order", "check_qa_monad_iff_modular",
        "check_star_star", "is_modular", "is_qa_monad", "lattice_from_order", "q_functor",
    ),
    "pam": (
        "CongruenceCandidate", "OmlStructure", "PartialAbelianMonoid",
        "adjoint_induces_c1c2c5", "canonical_order", "check_congruence", "check_pam_axioms",
        "has_rdp", "is_cancellative", "is_dimension_equivalence", "is_effect_algebra",
        "is_gea", "is_positive", "oml_as_effect_algebra", "pam_from_relmonoid",
        "quotient_map_is_left_adjoint", "quotient_pam", "to_relmonoid", "validate_oml",
    ),
    "search": (
        "EnumSpec", "KIND_LIMITS", "enumerate_structures", "property_keys", "verify_universal",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
