"""What importing relmon loads: the package exports names lazily, and each
CLI subcommand imports only the modules it runs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relmon

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
BASE = {"relmon", "relmon.cli", "relmon.report", "relmon.rel", "relmon.monoid"}

# argv (after "relmon") -> the relmon modules loaded once main(argv) returns
LOADED = {
    ("check-monoid", "z2.json"): BASE,
    ("check-qa", "n5.json"): BASE | {"relmon.lattice"},
    ("check-pam", "boolean22_pam.json"): BASE | {"relmon.lattice", "relmon.pam"},
    ("enumerate", "--kind", "lattice", "--size", "2"):
        BASE | {"relmon.lattice", "relmon.pam", "relmon.search"},
}


# records are plain classes, so a cold process imports neither of these
UNWANTED = {"dataclasses", "inspect"}


def loaded_after(code):
    """The relmon modules, and the UNWANTED ones, in sys.modules of a fresh
    interpreter that ran code."""
    probe = code + (
        "\nimport sys\nprint(*(m for m in sys.modules"
        f" if m.split('.')[0] == 'relmon' or m in {UNWANTED!r}))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(relmon.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("argv", sorted(LOADED), ids=" ".join)
def test_each_subcommand_loads_only_what_it_runs(argv):
    args = [str(SAMPLES / a) if a.endswith(".json") else a for a in argv]
    code = f"import relmon.cli\nrelmon.cli.main({args!r})"
    assert loaded_after(code) == LOADED[argv]


def test_bare_import_loads_no_submodule():
    assert loaded_after("import relmon") == {"relmon"}


def test_cli_import_loads_only_the_report_module():
    assert loaded_after("import relmon.cli") == {"relmon", "relmon.cli", "relmon.report"}


def test_every_export_is_its_submodules_object():
    exported = set()
    for module, names in relmon._EXPORTS.items():
        mod = importlib.import_module(f"relmon.{module}")
        for name in names:
            assert getattr(relmon, name) is getattr(mod, name), name
        exported.update(names)
    assert relmon.__all__ == sorted(exported)


def test_dir_covers_all():
    assert set(relmon.__all__) <= set(dir(relmon))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from relmon import *", namespace)
    for name in relmon.__all__:
        assert namespace[name] is getattr(relmon, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        relmon.no_such_name  # noqa: B018


def test_exports_are_read_through(monkeypatch):
    # a patched submodule attribute shows through the package at once, so
    # the package keeps no copy of it
    from relmon import monoid

    patched = object()
    monkeypatch.setattr(monoid, "is_monad", patched)
    assert relmon.is_monad is patched
    assert "is_monad" not in vars(relmon)
