"""Batch front-end: load structures from JSON files, run named checks,
print verdicts with witnesses, drive enumeration sweeps.

Exit codes: 0 when the property holds or the construction succeeded, 1 when
the property fails (witness printed, machine-readable with --json), 2 on
parse, input, or precondition errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Sequence

from .lattice import (
    FinLattice,
    build_quotient_order,
    check_qa_monad_iff_modular,
    check_star_star,
    is_modular,
)
from .monoid import (
    LaxMorphism,
    MonadCandidate,
    RelMonoid,
    check_monoid_axioms,
    is_lax_morphism,
    is_left_adjoint_relmon,
    is_monad,
    monad_from_adjunction_conditions,
    monad_reflection,
)
from .pam import (
    CongruenceCandidate,
    OmlStructure,
    PartialAbelianMonoid,
    check_congruence,
    check_pam_axioms,
    has_rdp,
    is_cancellative,
    is_dimension_equivalence,
    is_effect_algebra,
    is_gea,
    is_positive,
    quotient_pam,
)
from .rel import FinRel
from .report import (
    CheckReport,
    InputError,
    InternalCheckError,
    PreconditionError,
    ToolkitError,
)
from .search import (
    KINDS,
    EnumSpec,
    enumerate_structures,
    serialize_structure,
    verify_universal,
)


def _load(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _finish(rep: CheckReport, args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps(rep.to_json(), sort_keys=True))
    else:
        print(rep.summary())
        for key, value in rep.details.items():
            if isinstance(value, (bool, int, str)):
                print(f"  {key} = {value}")
            elif isinstance(value, tuple) and all(isinstance(x, int) for x in value):
                print(f"  {key} = {value}")
    return 0 if rep.ok else 1


def _write_lines(lines: Iterable[str], args: argparse.Namespace) -> int:
    """Write each line to the --out file, or to stdout without one."""
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                for line in lines:
                    fh.write(line + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_check_monoid(args: argparse.Namespace) -> int:
    return _finish(check_monoid_axioms(RelMonoid.from_json(_load(args.path))), args)


def _cmd_check_morphism(args: argparse.Namespace) -> int:
    return _finish(is_lax_morphism(LaxMorphism.from_json(_load(args.path))), args)


def _cmd_check_adjoint(args: argparse.Namespace) -> int:
    return _finish(
        is_left_adjoint_relmon(LaxMorphism.from_json(_load(args.path))), args
    )


def _cmd_check_monad(args: argparse.Namespace) -> int:
    cand = MonadCandidate.from_json(_load(args.path))
    rep = (
        monad_from_adjunction_conditions(cand)
        if args.from_adjunction
        else is_monad(cand)
    )
    return _finish(rep, args)


def _cmd_reflect(args: argparse.Namespace) -> int:
    cand = MonadCandidate.from_json(_load(args.path))
    closed = monad_reflection(cand.base, cand.order).to_json()
    return _write_lines([json.dumps(closed, indent=2, sort_keys=True)], args)


def _cmd_check_lattice(args: argparse.Namespace) -> int:
    obj = _load(args.path)
    try:
        lat = FinLattice.from_json(obj)
    except InputError as exc:
        msg = str(exc)
        if "not a lattice" in msg or "not a partial order" in msg:
            # shape was fine, the order itself fails; that is a verdict
            return _finish(CheckReport.failing("lattice", "structure", None, msg), args)
        raise
    if args.qa_monad:
        return _finish(check_qa_monad_iff_modular(lat), args)
    if args.star_star:
        return _finish(check_star_star(lat), args)
    if args.modular:
        return _finish(is_modular(lat), args)
    return _finish(
        CheckReport.passing(
            "lattice", f"{lat.n} elements", modular=is_modular(lat).ok
        ),
        args,
    )


def _cmd_check_qa(args: argparse.Namespace) -> int:
    lat = FinLattice.from_json(_load(args.path))
    qo = build_quotient_order(lat)
    rep = is_monad(MonadCandidate(qo.qmonoid, qo.arrow))
    return _finish(rep, args)


def _cmd_check_pam(args: argparse.Namespace) -> int:
    p = PartialAbelianMonoid.from_json(_load(args.path))
    if args.positive:
        rep = is_positive(p)
    elif args.cancellative:
        rep = is_cancellative(p)
    elif args.gea:
        rep = is_gea(p)
    elif args.effect_algebra:
        rep = is_effect_algebra(p)
    else:
        rep = check_pam_axioms(p)
    return _finish(rep, args)


def _cmd_check_rdp(args: argparse.Namespace) -> int:
    return _finish(has_rdp(PartialAbelianMonoid.from_json(_load(args.path))), args)


def _cmd_check_congruence(args: argparse.Namespace) -> int:
    return _finish(
        check_congruence(CongruenceCandidate.from_json(_load(args.path))), args
    )


def _cmd_quotient(args: argparse.Namespace) -> int:
    cand = CongruenceCandidate.from_json(_load(args.path))
    quot = quotient_pam(cand).to_json()
    return _write_lines([json.dumps(quot, indent=2, sort_keys=True)], args)


def _cmd_check_dimeq(args: argparse.Namespace) -> int:
    oml = OmlStructure.from_json(_load(args.oml))
    n = oml.lattice.n
    sim = FinRel.from_json(_load(args.sim))
    if sim.dom.size != n or sim.cod.size != n:
        raise InputError(
            f"relation is {sim.dom.size}->{sim.cod.size} but the lattice has {n} elements"
        )
    return _finish(is_dimension_equivalence(oml, sim, args.literal_joins), args)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    base = None
    if args.base is not None:
        obj = _load(args.base)
        base_type = KINDS[args.kind].base
        if base_type is None:
            raise InputError(f"--base does not apply to kind {args.kind!r}")
        base = base_type.from_json(obj)
    size = args.size
    if size is None:
        if base is None:
            raise InputError("--size is required without a base structure")
        size = base.n
    spec = EnumSpec(args.kind, size, base, args.dedup)
    lines = (
        json.dumps(serialize_structure(s), sort_keys=True, separators=(",", ":"))
        for s in enumerate_structures(spec)
    )
    return _write_lines(lines, args)


def _cmd_verify(args: argparse.Namespace) -> int:
    rep = verify_universal(args.property, args.size, args.seed)
    return _finish(rep, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relmon",
        description=(
            "Checkers and constructions for relational monoids, their monads,"
            " lattice quotient orders, and partial abelian monoids."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON report"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def add(name: str, handler, help_text: str, **kwargs) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, parents=[common], help=help_text, **kwargs)
        sp.set_defaults(handler=handler)
        return sp

    sp = add("check-monoid", _cmd_check_monoid, "unit and associativity axioms")
    sp.add_argument("path", help="relational monoid JSON file")

    sp = add("check-morphism", _cmd_check_morphism, "lax morphism square and triangle")
    sp.add_argument("path", help="morphism JSON file (src, dst, rel)")

    sp = add(
        "check-adjoint",
        _cmd_check_adjoint,
        "left adjointness of a lax morphism (mapping, factorization, unit reflection)",
    )
    sp.add_argument("path", help="morphism JSON file (src, dst, rel)")

    sp = add("check-monad", _cmd_check_monad, "monad conditions for an order on a monoid")
    sp.add_argument("path", help="candidate JSON file (base, order)")
    sp.add_argument(
        "--from-adjunction",
        action="store_true",
        help="also require symmetry (orders induced by adjunctions)",
    )

    sp = add(
        "reflect",
        _cmd_reflect,
        "close a lax endo relation into the least monad order over it",
    )
    sp.add_argument("path", help="candidate JSON file (base, order = the endo relation)")
    sp.add_argument("--out", help="write the closed candidate JSON here instead of stdout")

    sp = add("check-lattice", _cmd_check_lattice, "lattice validity and named lattice laws")
    sp.add_argument("path", help="lattice JSON file (carrier, order pairs)")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--modular", action="store_true", help="check the modular law")
    group.add_argument(
        "--qa-monad",
        action="store_true",
        help="agreement of the quotient-order monad check with modularity",
    )
    group.add_argument(
        "--star-star",
        action="store_true",
        help="perspectivity decomposition property",
    )

    sp = add(
        "check-qa",
        _cmd_check_qa,
        "monad conditions for the perspectivity order on lattice quotients",
    )
    sp.add_argument("path", help="lattice JSON file")

    sp = add("check-pam", _cmd_check_pam, "partial abelian monoid axioms and subclasses")
    sp.add_argument("path", help="partial monoid JSON file")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--positive", action="store_true", help="zero sums have zero parts")
    group.add_argument("--cancellative", action="store_true", help="sums cancel")
    group.add_argument("--gea", action="store_true", help="positive and cancellative")
    group.add_argument(
        "--effect-algebra", action="store_true", help="generalized effect algebra with a top"
    )

    sp = add("check-rdp", _cmd_check_rdp, "Riesz decomposition property of a GEA")
    sp.add_argument("path", help="partial monoid JSON file")

    sp = add("check-congruence", _cmd_check_congruence, "C1/C2/C5 congruence conditions")
    sp.add_argument("path", help="congruence JSON file (base, classes)")

    sp = add("quotient", _cmd_quotient, "quotient of a partial monoid by a congruence")
    sp.add_argument("path", help="congruence JSON file (base, classes)")
    sp.add_argument("--out", help="write the quotient JSON here instead of stdout")

    sp = add(
        "check-dimeq",
        _cmd_check_dimeq,
        "dimension-equivalence clauses on an orthomodular lattice",
    )
    sp.add_argument("oml", help="orthomodular lattice JSON file (lattice, ortho)")
    sp.add_argument("sim", help="relation JSON file (dom, cod, pairs)")
    sp.add_argument(
        "--literal-joins",
        action="store_true",
        help="require equal rather than related joins in the families clause",
    )

    sp = add("enumerate", _cmd_enumerate, "stream all structures of a kind as JSON lines")
    sp.add_argument("--kind", required=True, choices=list(KINDS))
    sp.add_argument("--size", type=int, default=None, help="carrier size")
    sp.add_argument(
        "--dedup",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="emit one representative per isomorphism class (base-free kinds)",
    )
    based = ", ".join(key for key, kind in KINDS.items() if kind.base)
    sp.add_argument("--base", help=f"base structure JSON ({based})")
    sp.add_argument("--out", help="write JSON lines here instead of stdout")

    sp = add("verify", _cmd_verify, "run a registered law over its enumeration")
    sp.add_argument("--property", required=True, help="law name (see the README table)")
    sp.add_argument("--size", type=int, default=None, help="override the default size bound")
    sp.add_argument("--seed", type=int, default=0, help="seed for randomized sampling")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failure: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
