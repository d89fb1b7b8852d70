"""Command-line front end: verdicts, exit codes, constructions, diagnostics."""

import argparse
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
from relmon.cli import build_parser, main
from relmon.lattice import FinLattice
from relmon.monoid import MonadCandidate
from relmon.pam import PartialAbelianMonoid

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


@pytest.mark.parametrize("key", ["compose-associativity", "dagger-laws"])
def test_verify_above_max_size_is_refused(key, capsys):
    # both laws enumerate carriers up to the size; 3 is past their max of 2
    code, out, err = run(capsys, "verify", "--property", key, "--size", "3")
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
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, err = run(capsys, "check-monoid", path)
    assert code == 2
    assert "not valid JSON" in err


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


def readme_subcommand_rows():
    """(subcommand, flags) for each row of the README's subcommand table."""
    rows = []
    in_table = False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("| Subcommand |"):
            in_table = True
        elif in_table and line.startswith("| `"):
            usage = line.split("`")[1]
            rows.append((usage.split()[0], re.findall(r"--[a-z][a-z-]*", usage)))
        elif in_table and not line.startswith("|"):
            break
    return rows


def test_readme_subcommand_table_matches_parser():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    rows = readme_subcommand_rows()
    assert sorted(name for name, _ in rows) == sorted(subparsers)
    for name, flags in rows:
        accepted = subparsers[name]._option_string_actions
        for flag in flags:
            assert flag in accepted, f"README lists {flag} for {name}"


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
