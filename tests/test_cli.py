"""Command-line front end: verdicts, exit codes, constructions, diagnostics."""

import argparse
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import relmon
from relmon import catalog
from relmon.cli import _FILE_COMMANDS, _resolve, build_parser, main
from relmon.lattice import (
    FinLattice,
    check_qa_monad_iff_modular,
    check_star_star,
    is_modular,
    is_qa_monad,
)
from relmon.laws import PROPERTIES
from relmon.monoid import (
    LaxMorphism,
    MonadCandidate,
    RelMonoid,
    check_monoid_axioms,
    is_lax_morphism,
    is_left_adjoint_relmon,
    is_monad,
    monad_from_adjunction_conditions,
)
from relmon.pam import (
    CongruenceCandidate,
    PartialAbelianMonoid,
    check_congruence,
    check_pam_axioms,
    has_rdp,
    is_cancellative,
    is_effect_algebra,
    is_gea,
    is_positive,
)
from relmon.report import CheckReport
from relmon.search import KIND_LIMITS, property_keys

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
PYPROJECT = ROOT / "pyproject.toml"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


# -- worked examples -----------------------------------------------------------


def test_sample_generator_reproduces_every_sample(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_samples", SAMPLES / "make_samples.py")
    make_samples = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_samples)
    monkeypatch.setattr(make_samples, "HERE", tmp_path)
    make_samples.main()
    made = sorted(path.name for path in tmp_path.iterdir())
    assert made == sorted(path.name for path in SAMPLES.glob("*.json"))
    for name in made:
        assert (tmp_path / name).read_bytes() == (SAMPLES / name).read_bytes(), name


def test_check_monoid_z2(capsys):
    code, out, _ = run(capsys, "check-monoid", SAMPLES / "z2.json")
    assert code == 0
    assert out.startswith("monoid-axioms: ok")


def test_check_monad_diamond_reversed_order(capsys):
    code, out, _ = run(capsys, "check-monad", SAMPLES / "diamond_ge.json")
    assert code == 1
    assert "monad: FAIL clause=square witness=(1, 1, 3, 2)" in out
    assert "product (a, a, 1) does not propagate up to b" in out


def test_check_lattice_qa_monad_pentagon(capsys):
    code, out, _ = run(capsys, "check-lattice", "--qa-monad", SAMPLES / "n5.json")
    assert code == 0
    assert out.startswith("qa-monad-iff-modular: ok")
    assert "qa_monad = False" in out
    assert "modular = False" in out


def test_check_lattice_m3_agreement(capsys):
    code, out, _ = run(capsys, "check-lattice", "--qa-monad", SAMPLES / "m3.json")
    assert code == 0
    assert "qa_monad = True" in out and "modular = True" in out


def test_json_witness_matches_text(capsys):
    code, out, _ = run(capsys, "check-monad", "--json", SAMPLES / "diamond_ge.json")
    assert code == 1
    rep = json.loads(out)
    assert rep["ok"] is False
    assert rep["failed"] == "square"
    assert rep["witness"] == [1, 1, 3, 2]


def test_check_rdp_diamond(capsys):
    code, out, _ = run(capsys, "check-rdp", SAMPLES / "diamond_pam.json")
    assert code == 1
    assert "witness=(1, 1, 2)" in out


def test_check_rdp_chain(capsys):
    code, out, _ = run(capsys, "check-rdp", SAMPLES / "chain5_pam.json")
    assert code == 0


def test_check_dimeq_mo2(capsys):
    code, out, _ = run(
        capsys, "check-dimeq", SAMPLES / "mo2_oml.json", SAMPLES / "mo2_identity_rel.json"
    )
    assert code == 1
    assert "clause=D witness=(1, 3)" in out


def test_check_adjoint_degree_map(capsys):
    code, out, _ = run(capsys, "check-adjoint", SAMPLES / "degree_map.json")
    assert code == 1
    assert "clause=factorization" in out
    assert "witness=(1, 1, 6)" in out


def test_check_pam_flags(capsys):
    code, out, _ = run(capsys, "check-pam", "--effect-algebra", SAMPLES / "boolean22_pam.json")
    assert code == 0
    assert "top = 3" in out
    code, _, _ = run(capsys, "check-pam", "--gea", SAMPLES / "diamond_pam.json")
    assert code == 0


def test_check_qa_direct(capsys):
    code, _, _ = run(capsys, "check-qa", SAMPLES / "m3.json")
    assert code == 0
    code, out, _ = run(capsys, "check-qa", SAMPLES / "n5.json")
    assert code == 1
    assert "monad: FAIL" in out


def test_check_congruence_sample(capsys):
    code, _, _ = run(capsys, "check-congruence", SAMPLES / "boolean22_congruence.json")
    assert code == 0


# What each one-file check subcommand runs, by flag (None for no flag): the
# loader, the checker and a sample. The report printed with --json must be
# the checker's report on the loaded sample.
CHECKS = {
    ("check-monoid", None): (RelMonoid.from_json, check_monoid_axioms, "z2.json"),
    ("check-morphism", None): (LaxMorphism.from_json, is_lax_morphism, "degree_map.json"),
    ("check-adjoint", None): (LaxMorphism.from_json, is_left_adjoint_relmon, "degree_map.json"),
    ("check-monad", None): (MonadCandidate.from_json, is_monad, "diamond_ge.json"),
    ("check-monad", "--from-adjunction"): (
        MonadCandidate.from_json, monad_from_adjunction_conditions, "diamond_ge.json"
    ),
    ("check-lattice", None): (
        FinLattice.from_json,
        lambda lat: CheckReport.passing(
            "lattice", f"{lat.n} elements", modular=is_modular(lat).ok
        ),
        "n5.json",
    ),
    ("check-lattice", "--modular"): (FinLattice.from_json, is_modular, "n5.json"),
    ("check-lattice", "--qa-monad"): (
        FinLattice.from_json, check_qa_monad_iff_modular, "n5.json"
    ),
    ("check-lattice", "--star-star"): (FinLattice.from_json, check_star_star, "n5.json"),
    ("check-qa", None): (FinLattice.from_json, is_qa_monad, "n5.json"),
    ("check-pam", None): (PartialAbelianMonoid.from_json, check_pam_axioms, "diamond_pam.json"),
    ("check-pam", "--positive"): (PartialAbelianMonoid.from_json, is_positive, "diamond_pam.json"),
    ("check-pam", "--cancellative"): (
        PartialAbelianMonoid.from_json, is_cancellative, "diamond_pam.json"
    ),
    ("check-pam", "--gea"): (PartialAbelianMonoid.from_json, is_gea, "diamond_pam.json"),
    ("check-pam", "--effect-algebra"): (
        PartialAbelianMonoid.from_json, is_effect_algebra, "diamond_pam.json"
    ),
    ("check-rdp", None): (PartialAbelianMonoid.from_json, has_rdp, "diamond_pam.json"),
    ("check-congruence", None): (
        CongruenceCandidate.from_json, check_congruence, "boolean22_congruence.json"
    ),
}

FILE_CHECK_FLAGS = [
    (cmd.name, flag)
    for cmd in _FILE_COMMANDS
    if cmd.out_help is None
    for flag in (None, *(f for f, _, _ in cmd.flags))
]


@pytest.mark.parametrize("command, flag", FILE_CHECK_FLAGS)
def test_each_flag_runs_its_checker(command, flag, capsys):
    load, checker, sample = CHECKS[command, flag]
    rep = checker(load(json.loads((SAMPLES / sample).read_text())))
    argv = [command] + ([flag] if flag else []) + ["--json", SAMPLES / sample]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (
        0 if rep.ok else 1, json.dumps(rep.to_json(), sort_keys=True) + "\n", ""
    )


def test_check_table_covers_every_flag():
    assert sorted(CHECKS, key=str) == sorted(FILE_CHECK_FLAGS, key=str)


def test_every_table_name_resolves():
    # the table names its functions as text; a typo must fail here, not at a
    # user's first run
    for cmd in _FILE_COMMANDS:
        for name in (cmd.load, cmd.run, *(check for _, check, _ in cmd.flags)):
            assert callable(_resolve(name)), (cmd.name, name)


# -- constructions ----------------------------------------------------------------


def test_reflect_round_trip(tmp_path, capsys):
    out_path = tmp_path / "closed.json"
    code, out, _ = run(capsys, "reflect", SAMPLES / "doubling_endo.json", "--out", out_path)
    assert code == 0 and out == ""
    closed = MonadCandidate.from_json(json.loads(out_path.read_text()))
    assert closed.order.rows == catalog.power_order(8).rows
    code, _, _ = run(capsys, "check-monad", out_path)
    assert code == 0


def test_reflect_to_stdout(capsys):
    code, out, _ = run(capsys, "reflect", SAMPLES / "doubling_endo.json")
    assert code == 0
    assert json.loads(out)["base"]["carrier"] == 9


def test_reflect_rejects_a_base_that_is_not_a_monoid(tmp_path, capsys):
    # element 0 has no unit, so the base fails the monoid axioms as it does
    # for check-monad
    bad = {"base": {"carrier": 1, "units": [0], "mult": []}, "order": [[0, 0]]}
    path = write_json(tmp_path, "bad.json", bad)
    for command in ("reflect", "check-monad"):
        code, out, err = run(capsys, command, path)
        assert code == 2 and out == ""
        assert "base is not a relational monoid" in err, command


def test_quotient_round_trip(tmp_path, capsys):
    out_path = tmp_path / "quot.json"
    code, _, _ = run(capsys, "quotient", SAMPLES / "boolean22_congruence.json", "--out", out_path)
    assert code == 0
    quot = PartialAbelianMonoid.from_json(json.loads(out_path.read_text()))
    assert quot.plus == catalog.chain_pam(3).plus
    assert quot.carrier.labels == ("[{}]", "[{0}]", "[{0,1}]")
    code, _, _ = run(capsys, "check-pam", out_path)
    assert code == 0


def test_quotient_rejects_non_congruence(tmp_path, capsys):
    bad = {
        "base": catalog.chain_pam(3).to_json(),
        "classes": [[0, 0], [1, 1], [2, 2], [1, 2], [2, 1]],
    }
    path = write_json(tmp_path, "bad.json", bad)
    code, _, err = run(capsys, "quotient", path)
    assert code == 2
    assert "precondition error: not a congruence" in err


# -- enumeration --------------------------------------------------------------------


def test_enumerate_lattices(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "lattice", "--size", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    for line in lines:
        FinLattice.from_json(json.loads(line))


# A child interpreter that prints the sha256 of each `relmon enumerate` stream
# of PAMs on 1..5 points, lattices on 1..6 and relational monoids on 0..3,
# keyed as in perfbench/expected.json.
_ENUMERATE_STREAMS = """
import contextlib, hashlib, io, json
from relmon.cli import main
out = {}
for kind, sizes in (("pam", range(1, 6)), ("lattice", range(1, 7)), ("relmonoid", range(4))):
    for n in sizes:
        for form, flags in (("dedup", []), ("labeled", ["--no-dedup"])):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(["enumerate", "--kind", kind, "--size", str(n)] + flags) == 0
            out[f"{kind}.{n}.{form}"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    assert main(["enumerate", "--kind", "pam", "--size", "6"]) == 0
out["pam.6.dedup"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
print(json.dumps(out))
"""

# sha256 of the stdout of `relmon enumerate --kind pam --size 6`: the 1,886
# least tables, one per class, recorded from a cold CLI process
PAM_6_DEDUP_SHA256 = "28f6a173bc5a6066c80ab6eb37a0ec29dc260ae68c1d7e79f530f0cfb8159d0a"


def test_enumerate_streams_do_not_depend_on_the_hash_seed():
    # lattice dedup keeps orbits in a set; the streams must not follow its
    # hash order
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())["enumerate"]
    pinned = {key: entry["sha256"] for key, entry in expected.items()}
    pinned["pam.6.dedup"] = PAM_6_DEDUP_SHA256
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-c", _ENUMERATE_STREAMS],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        streams = json.loads(proc.stdout)
        assert len(streams) == 31
        for key, digest in streams.items():
            assert digest == pinned[key], (seed, key)


def cli_with_stdout_closed(argv, lines_read):
    """Exit status and stderr of `python -m relmon.cli argv` when the reader
    closes its stdout after lines_read lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "relmon.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    return proc.returncode, err


# files that pass every size check but whose n x n tables cannot be built
OVERSIZED = [
    ("check-pam", {"carrier": 2_000_000_000, "zero": 0, "plus": []}),
    ("check-rdp", {"carrier": 2_000_000_000, "zero": 0, "plus": []}),
    ("check-monoid", {"carrier": 2_000_000_000, "units": [], "mult": []}),
]


@pytest.mark.parametrize("command, obj", OVERSIZED)
def test_an_oversized_carrier_exits_2_without_a_traceback(command, obj, tmp_path):
    # a table of 4e18 cells fails to allocate before it takes any memory;
    # the run is held under a 1 GiB address-space limit (ulimit -v) anyway
    resource = pytest.importorskip("resource")
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "relmon.cli", command, str(path)],
        capture_output=True, text=True, env=env, cwd=ROOT, preexec_fn=limit_memory,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: out of memory: the input is too large to build\n"


def test_a_stream_cut_short_by_its_reader_exits_quietly():
    # about 1 MB of JSON lines, far more than a pipe holds: the writer is
    # still streaming when the reader goes
    status, err = cli_with_stdout_closed(
        ["enumerate", "--kind", "pam", "--size", "5", "--no-dedup"], 1
    )
    assert err == b""
    assert status == 0


def test_a_check_keeps_its_verdict_when_stdout_is_closed():
    status, err = cli_with_stdout_closed(["check-monad", "samples/diamond_ge.json"], 0)
    assert err == b""
    assert status == 1


def test_enumerate_congruences_from_base(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--kind", "congruence", "--base", SAMPLES / "chain5_pam.json"
    )
    assert code == 0
    lines = out.strip().splitlines()
    # only the identity and the total gluing survive on a chain
    assert len(lines) == 2
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == {"base", "classes"}


def test_enumerate_to_file(tmp_path, capsys):
    out_path = tmp_path / "pams.jsonl"
    code, out, _ = run(
        capsys, "enumerate", "--kind", "pam", "--size", "2", "--out", out_path
    )
    assert code == 0 and out == ""
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 3


def test_enumerate_diagnostics(tmp_path, capsys):
    code, _, err = run(capsys, "enumerate", "--kind", "relmonoid", "--size", "9")
    assert code == 2 and "exceeds" in err
    code, _, err = run(capsys, "enumerate", "--kind", "lattice")
    assert code == 2 and "--size is required" in err
    code, _, err = run(
        capsys, "enumerate", "--kind", "lattice", "--size", "2",
        "--base", SAMPLES / "chain5_pam.json",
    )
    assert code == 2 and "--base does not apply" in err


# -- verify ------------------------------------------------------------------------


def test_verify_law(capsys):
    code, out, _ = run(
        capsys, "verify", "--property", "left-adjoint-iff-map", "--size", "2"
    )
    assert code == 0
    assert out.startswith("verify:left-adjoint-iff-map: ok")


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--property", "unit-uniqueness", "--size", "2", "--json"
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize(
    "key, size",
    [
        pytest.param("compose-associativity", 3, id="compose-associativity"),
        pytest.param("dagger-laws", 3, id="dagger-laws"),
        pytest.param("reflection-universal", 4, id="reflection-universal"),
    ],
)
def test_verify_above_max_size_is_refused(key, size, capsys):
    # each size is one past the law's max: 2 for the two random-relation
    # laws, 3 for reflection-universal
    code, out, err = run(capsys, "verify", "--property", key, "--size", str(size))
    assert code == 2
    assert out == ""
    assert "safety bound" in err


def test_verify_enumeration_deterministic_stops_at_three(capsys):
    # relational monoids stop at 3, so size 4 would repeat the size-3 streams
    code, out, err = run(
        capsys, "verify", "--property", "enumeration-deterministic", "--size", "4"
    )
    assert code == 2
    assert out == ""
    assert "safety bound" in err


def test_verify_unknown_property_lists_keys(capsys):
    code, _, err = run(capsys, "verify", "--property", "flux")
    assert code == 2
    assert "unknown property" in err
    assert "qa-monad-iff-modular" in err
    assert "left-adjoint-iff-map" in err


# -- error reporting ------------------------------------------------------------------


def test_missing_file(capsys):
    code, _, err = run(capsys, "check-monoid", "no-such-file.json")
    assert code == 2
    assert "cannot read" in err


def test_invalid_json(tmp_path, capsys):
    # bad syntax, bytes that are not UTF-8, nesting past the recursion limit,
    # and an integer past the digit limit of int()
    deep = b"[" * 100_000 + b"]" * 100_000
    for data in (b"{", b"\xff\xfe{}", deep, b'{"carrier": ' + b"9" * 5000 + b"}"):
        path = tmp_path / "broken.json"
        path.write_bytes(data)
        code, _, err = run(capsys, "check-monoid", path)
        assert code == 2
        assert f"{path} is not valid JSON" in err


def test_missing_field_named(tmp_path, capsys):
    path = write_json(tmp_path, "partial.json", {"carrier": 2, "zero": 0})
    code, _, err = run(capsys, "check-pam", path)
    assert code == 2
    assert "missing field 'plus'" in err


def test_dimeq_size_mismatch(tmp_path, capsys):
    small = write_json(tmp_path, "small.json", {"dom": 4, "cod": 4, "pairs": [[0, 0]]})
    code, _, err = run(capsys, "check-dimeq", SAMPLES / "mo2_oml.json", small)
    assert code == 2
    assert "lattice has 6 elements" in err


def test_check_lattice_structure_verdict(tmp_path, capsys):
    path = write_json(tmp_path, "antichain.json", {"carrier": 2, "order": []})
    code, out, _ = run(capsys, "check-lattice", path)
    assert code == 1
    assert "lattice: FAIL clause=structure" in out
    assert "not a lattice" in out
    assert out == "lattice: FAIL clause=structure not a lattice: pair (0, 1) has no meet\n"


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["verify", "--property", "unit-uniqueness"],
    ["enumerate", "--kind", "lattice", "--size", "2"],
])
def test_threads_option_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


# -- docs ---------------------------------------------------------------------------


def readme_table_rows(header):
    """The body rows of the README table whose header row starts with header."""
    rows = []
    in_table = False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith(header):
            in_table = True
        elif in_table and line.startswith("| `"):
            rows.append(line)
        elif in_table and not line.startswith("|"):
            break
    return rows


def readme_subcommand_rows():
    """(subcommand, flags, "Does" text) for each row of the README's subcommand table."""
    rows = []
    for line in readme_table_rows("| Subcommand |"):
        usage = line.split("`")[1]
        # the usage cell escapes its pipes, so " | " only separates cells
        does = line.rstrip().rstrip("|").rsplit(" | ", 1)[1].strip()
        rows.append((usage.split()[0], re.findall(r"--[a-z][a-z-]*", usage), does))
    return rows


def subcommands():
    """The subparsers action of the relmon parser, with every subparser's
    arguments added: enumerate adds its own when it first formats its help."""
    action = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    for sp in action.choices.values():
        sp.format_help()
    return action


def test_readme_subcommand_table_matches_parser():
    action = subcommands()
    subparsers = action.choices
    helps = {choice.dest: choice.help for choice in action._choices_actions}
    rows = readme_subcommand_rows()
    assert sorted(name for name, _, _ in rows) == sorted(subparsers)
    for name, flags, does in rows:
        accepted = subparsers[name]._option_string_actions
        for flag in flags:
            assert flag in accepted, f"README lists {flag} for {name}"
        assert does == helps[name], name


def test_every_help_text_formats():
    # argparse checks some parser shapes (an empty mutually exclusive group)
    # only when it formats the help
    parser = build_parser()
    assert parser.format_help().startswith("usage: relmon ")
    for name, sp in subcommands().choices.items():
        assert sp.format_help().startswith(f"usage: relmon {name} "), name


def test_readme_law_table_matches_registry():
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in readme_table_rows("| Key | Law |")
    ]
    assert [key.strip("`") for key, *_ in rows] == property_keys()
    for key, law, default_size, max_size in rows:
        entry = PROPERTIES[key.strip("`")]
        assert (int(default_size), int(max_size)) == (entry.default_size, entry.max_size), key
        # the docstring with its line breaks and indentation collapsed to single spaces
        assert " ".join(entry.fn.__doc__.split()) == law, key


# the README's plural name for each enumerable kind
KIND_NAMES = {
    "relmonoid": "relational monoids",
    "monad-order": "monad orders",
    "congruence": "congruences",
    "lattice": "lattices",
    "pam": "partial abelian monoids",
}


def test_readme_kind_limits_match_the_kind_table():
    text = " ".join((ROOT / "README.md").read_text().split())
    listed = re.search(r"Enumeration size limits per kind: ([^.]*)\.", text).group(1)
    assert [item.rsplit(" ", 1) for item in listed.split(", ")] == [
        [KIND_NAMES[key], str(limit)] for key, limit in KIND_LIMITS.items()
    ]
    kind = subcommands().choices["enumerate"]._option_string_actions["--kind"]
    assert list(kind.choices) == list(KIND_LIMITS)


# -- installed entry point --------------------------------------------------------------

_SCRIPT_LINE = re.compile(r"""^\s*["']?([\w.-]+)["']?\s*=\s*["']([^"']+)["']""")


def declared_scripts(pyproject):
    """The ``[project.scripts]`` table of ``pyproject`` as ``{name: target}``.

    A plain-text read of that one table: ``tomllib`` only exists from
    Python 3.11, the package supports 3.10, and the test adds no dependency.
    """
    scripts = {}
    in_table = False
    for line in pyproject.read_text().splitlines():
        if line.lstrip().startswith("["):
            in_table = line.strip() == "[project.scripts]"
        elif in_table and (match := _SCRIPT_LINE.match(line)):
            scripts[match.group(1)] = match.group(2)
    return scripts


def console_script(name):
    """``(argv, env, cwd)`` that start the console script ``name`` in a new process.

    The installed script when it is on ``PATH``. Otherwise the target that
    ``pyproject.toml`` declares, run the way the generated wrapper runs it,
    against the ``relmon`` package this test process imported.
    """
    scripts = declared_scripts(PYPROJECT)
    assert name in scripts, f"pyproject.toml [project.scripts] should declare {name!r}"
    exe = shutil.which(name)
    if exe:
        return [exe], None, None
    module, _, attr = scripts[name].partition(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    package_root = str(Path(relmon.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    # `python -c` puts the working directory first on sys.path; run from the
    # package root so that no other copy of the package can shadow this one.
    return [sys.executable, "-c", code], env, package_root


def test_declared_scripts_reads_only_the_scripts_table(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        '[project]\nname = "x"\n\n'
        '[project.scripts]\n# a comment\nrelmon = "relmon.cli:main"  # trailing\n'
        "'other-tool' = 'pkg.mod:run'\n\n"
        '[tool.x]\nrelmon = "elsewhere:main"\n'
    )
    assert declared_scripts(pyproject) == {
        "relmon": "relmon.cli:main",
        "other-tool": "pkg.mod:run",
    }


def test_console_script_smoke():
    argv, env, cwd = console_script("relmon")
    proc = subprocess.run(
        [*argv, "check-monoid", str(SAMPLES / "z2.json")],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("monoid-axioms: ok")
