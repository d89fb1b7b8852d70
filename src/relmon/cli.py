"""Batch front-end: load structures from JSON files, run named checks,
print verdicts with witnesses, drive enumeration sweeps.

Each subcommand imports only the modules it runs; ``import relmon.cli``
loads ``relmon.report`` and nothing else. check-monoid, check-morphism,
check-adjoint, check-monad and reflect load rel and monoid; check-lattice
and check-qa also lattice; check-pam, check-rdp, check-congruence,
quotient and check-dimeq also pam. Only enumerate and verify import
search, which loads all of them, and only verify loads the law registry,
laws.

Exit codes: 0 when the property holds or the construction succeeded, 1 when
the property fails (witness printed, machine-readable with --json), 2 on
parse, input, or precondition errors. A reader that closes stdout early
(``relmon enumerate ... | head -1``) ends the output quietly and changes no
exit code: a stream the reader cut short exits 0, a check its verdict's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .report import (
    CheckReport,
    InputError,
    InternalCheckError,
    PreconditionError,
    ToolkitError,
)

if TYPE_CHECKING:  # the subcommands import what they run when they run it
    from .lattice import FinLattice
    from .monoid import MonadCandidate


def _load(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax or digits, not UTF-8, too deep
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _print_lines(lines: Iterable[str]) -> None:
    """Print each line and flush. If the reader has closed the pipe, stop,
    and point stdout at os.devnull so that the interpreter's last flush
    stays quiet too."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _finish(rep: CheckReport, args: argparse.Namespace) -> int:
    if args.json:
        lines = [json.dumps(rep.to_json(), sort_keys=True)]
    else:
        lines = [rep.summary()]
        for key, value in rep.details.items():
            if isinstance(value, (bool, int, str)):
                lines.append(f"  {key} = {value}")
            elif isinstance(value, tuple) and all(isinstance(x, int) for x in value):
                lines.append(f"  {key} = {value}")
    _print_lines(lines)
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
        _print_lines(lines)
    return 0


def _load_lattice(obj: object) -> FinLattice | CheckReport:
    from .lattice import FinLattice

    try:
        return FinLattice.from_json(obj)
    except InputError as exc:
        msg = str(exc).removeprefix("field 'order': ")
        if msg.startswith(("not a lattice", "not a partial order")):
            # shape was fine, the order itself fails; that is a verdict
            return CheckReport.failing("lattice", "structure", None, msg)
        raise


def _lattice_summary(lat: FinLattice) -> CheckReport:
    from .lattice import is_modular

    return CheckReport.passing("lattice", f"{lat.n} elements", modular=is_modular(lat).ok)


def _reflect(cand: MonadCandidate) -> MonadCandidate:
    from .monoid import monad_reflection

    return monad_reflection(cand.base, cand.order)


def _resolve(name: str) -> Callable:
    """What a table names: "module.attr" or "module.Class.attr" in a relmon
    module, imported now, or a bare name defined in this module."""
    module, *path = name.split(".")
    if not path:
        return globals()[module]
    obj = import_module(f".{module}", __package__)
    for attr in path:
        obj = getattr(obj, attr)
    return obj


class _FileCommand(NamedTuple):
    """A subcommand that loads one JSON file and runs one function on it.

    load turns the parsed JSON into the structure, or into a failing verdict
    when the file is well formed but not the structure. run is the default
    check; each (flag, check, help) in flags picks another. load, run and
    each check are names for _resolve, looked up when the subcommand runs.
    A row with an out_help is a construction: run builds a structure,
    written as JSON to --out or stdout.
    """

    name: str
    help: str
    path_help: str
    load: str
    run: str
    flags: tuple[tuple[str, str, str], ...] = ()
    out_help: str | None = None


# in the order of the subcommand list in --help
_FILE_COMMANDS = (
    _FileCommand("check-monoid", "unit and associativity axioms", "relational monoid JSON file",
                 "monoid.RelMonoid.from_json", "monoid.check_monoid_axioms"),
    _FileCommand("check-morphism", "lax morphism square and triangle",
                 "morphism JSON file (src, dst, rel)", "monoid.LaxMorphism.from_json",
                 "monoid.is_lax_morphism"),
    _FileCommand("check-adjoint",
                 "left adjointness of a lax morphism (mapping, factorization, unit reflection)",
                 "morphism JSON file (src, dst, rel)", "monoid.LaxMorphism.from_json",
                 "monoid.is_left_adjoint_relmon"),
    _FileCommand("check-monad", "monad conditions for an order on a monoid",
                 "candidate JSON file (base, order)", "monoid.MonadCandidate.from_json",
                 "monoid.is_monad",
                 (("--from-adjunction", "monoid.monad_from_adjunction_conditions",
                   "also require symmetry (orders induced by adjunctions)"),)),
    _FileCommand("reflect", "close a lax endo relation into the least monad order over it",
                 "candidate JSON file (base, order = the endo relation)",
                 "monoid.MonadCandidate.from_json", "_reflect",
                 out_help="write the closed candidate JSON here instead of stdout"),
    _FileCommand("check-lattice", "lattice validity and named lattice laws",
                 "lattice JSON file (carrier, order pairs)", "_load_lattice", "_lattice_summary",
                 (("--modular", "lattice.is_modular", "check the modular law"),
                  ("--qa-monad", "lattice.check_qa_monad_iff_modular",
                   "agreement of the quotient-order monad check with modularity"),
                  ("--star-star", "lattice.check_star_star",
                   "perspectivity decomposition property"))),
    _FileCommand("check-qa", "monad conditions for the perspectivity order on lattice quotients",
                 "lattice JSON file", "lattice.FinLattice.from_json", "lattice.is_qa_monad"),
    _FileCommand("check-pam", "partial abelian monoid axioms and subclasses",
                 "partial monoid JSON file", "pam.PartialAbelianMonoid.from_json",
                 "pam.check_pam_axioms",
                 (("--positive", "pam.is_positive", "zero sums have zero parts"),
                  ("--cancellative", "pam.is_cancellative", "sums cancel"),
                  ("--gea", "pam.is_gea", "positive and cancellative"),
                  ("--effect-algebra", "pam.is_effect_algebra",
                   "generalized effect algebra with a top"))),
    _FileCommand("check-rdp", "Riesz decomposition property of a GEA",
                 "partial monoid JSON file", "pam.PartialAbelianMonoid.from_json", "pam.has_rdp"),
    _FileCommand("check-congruence", "C1/C2/C5 congruence conditions",
                 "congruence JSON file (base, classes)", "pam.CongruenceCandidate.from_json",
                 "pam.check_congruence"),
    _FileCommand("quotient", "quotient of a partial monoid by a congruence",
                 "congruence JSON file (base, classes)", "pam.CongruenceCandidate.from_json",
                 "pam.quotient_pam", out_help="write the quotient JSON here instead of stdout"),
)


def _cmd_check(args: argparse.Namespace) -> int:
    loaded = _resolve(args.load)(_load(args.path))
    return _finish(loaded if isinstance(loaded, CheckReport) else _resolve(args.run)(loaded), args)


def _cmd_construct(args: argparse.Namespace) -> int:
    built = _resolve(args.run)(_resolve(args.load)(_load(args.path))).to_json()
    return _write_lines([json.dumps(built, indent=2, sort_keys=True)], args)


def _cmd_check_dimeq(args: argparse.Namespace) -> int:
    from .pam import OmlStructure, is_dimension_equivalence
    from .rel import FinRel

    oml = OmlStructure.from_json(_load(args.oml))
    sim = FinRel.from_json(_load(args.sim))
    return _finish(is_dimension_equivalence(oml, sim, args.literal_joins), args)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .search import KINDS, EnumSpec, enumerate_structures

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
        json.dumps(s.to_json(), sort_keys=True, separators=(",", ":"))
        for s in enumerate_structures(spec)
    )
    return _write_lines(lines, args)


def _cmd_verify(args: argparse.Namespace) -> int:
    from .search import verify_universal

    return _finish(verify_universal(args.property, args.size, args.seed), args)


def _enumerate_arguments(sp: argparse.ArgumentParser) -> None:
    from .search import KINDS

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


class _Subparser(argparse.ArgumentParser):
    """A subparser that calls add_arguments on itself the first time it
    parses or formats its help or usage, so that arguments drawn from a
    module (enumerate's kinds) import it only when they are needed."""

    def __init__(self, *args, add_arguments=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def _complete(self) -> None:
        add, self._add_arguments = self._add_arguments, None
        if add is not None:
            add(self)

    def parse_known_args(self, args=None, namespace=None):
        self._complete()
        return super().parse_known_args(args, namespace)

    def format_usage(self) -> str:
        self._complete()
        return super().format_usage()

    def format_help(self) -> str:
        self._complete()
        return super().format_help()


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
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="SUBCOMMAND", parser_class=_Subparser
    )

    def add(name: str, handler, help_text: str, add_arguments=None) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, parents=[common], help=help_text, add_arguments=add_arguments)
        sp.set_defaults(handler=handler)
        return sp

    for cmd in _FILE_COMMANDS:
        sp = add(cmd.name, _cmd_construct if cmd.out_help else _cmd_check, cmd.help)
        sp.add_argument("path", help=cmd.path_help)
        sp.set_defaults(load=cmd.load, run=cmd.run)
        if cmd.out_help:
            sp.add_argument("--out", help=cmd.out_help)
        if cmd.flags:  # argparse cannot format the help of an empty group
            group = sp.add_mutually_exclusive_group()
            for flag, check, help_text in cmd.flags:
                group.add_argument(
                    flag, action="store_const", const=check, dest="run", help=help_text
                )

    sp = add("check-dimeq", _cmd_check_dimeq,
             "dimension-equivalence clauses on an orthomodular lattice")
    sp.add_argument("oml", help="orthomodular lattice JSON file (lattice, ortho)")
    sp.add_argument("sim", help="relation JSON file (dom, cod, pairs)")
    sp.add_argument(
        "--literal-joins",
        action="store_true",
        help="require equal rather than related joins in the families clause",
    )

    add("enumerate", _cmd_enumerate, "stream all structures of a kind as JSON lines",
        _enumerate_arguments)

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
