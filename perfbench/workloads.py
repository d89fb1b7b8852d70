"""The four workloads: what each runs, what it warms, and one run of an operation.

An operation is one enumeration (its count and stream digest), one law
verdict (its JSON report) or one CLI invocation (its exit code and stdout
digest). Every operation returns the observation the gate compares with
expected.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

WORK = ".perfbench"  # scratch space under the checkout root: outputs, spans

# (kind, sizes) generated cold, deduplicated and labeled, as `relmon enumerate` does
ENUMERATIONS = (("pam", range(1, 6)), ("lattice", range(1, 7)), ("relmonoid", range(0, 4)))

PAM_LAWS = (
    "quotient-pam-valid",
    "faithful-congruence-adjoint",
    "adjoint-induces-congruence",
    "rdp-iff-monad",
)

# the rest of the law registry as pinned in expected.json, at default sizes
ORDER_LAWS = (
    "adjoint-transpose-lax", "adjunction-monads-symmetric", "category-axioms",
    "closure-least-preorder", "compose-associativity", "dagger-laws",
    "dimeq-b-matches-square", "enumeration-complete", "enumeration-deterministic",
    "kernel-equivalence", "left-adjoint-iff-map", "monads-are-preorders",
    "morphism-closure-ops", "oml-effect-algebra", "product-functorial", "q-functorial",
    "qa-monad-iff-modular", "reflection-least", "reflection-universal",
    "star-star-iff-modular", "trivial-quotient-arrow", "unit-uniqueness",
)

# what each law workload reads from the enumerator caches, warmed in setup
PAM_WARM = tuple(f"pam:{n}:dedup" for n in range(1, 6))
ORDER_WARM = (
    tuple(f"lattice:{n}:dedup" for n in range(1, 7))
    + tuple(f"relmonoid:{n}:{f}" for n in range(4) for f in ("dedup", "labeled"))
    + tuple(f"monad-order:{n}:labeled" for n in range(4))
)


def _out(name: str) -> str:
    return f"{WORK}/{name}"


# Each unit is one invocation or a pipeline whose stages must stay in order.
# The README pipes `quotient` into `check-pam /dev/stdin`; here the stage
# writes a file under WORK instead, so every stage is one plain process.
CLI_UNITS = (
    (("check-monoid", "samples/z2.json"),),
    (("check-monoid", "samples/interval6.json"),),
    (("check-monad", "samples/diamond_ge.json"),),
    (("check-monad", "samples/doubling_endo.json"),),
    (
        ("reflect", "samples/doubling_endo.json", "--out", _out("closed.json")),
        ("check-monad", _out("closed.json")),
    ),
    (("check-lattice", "--qa-monad", "samples/n5.json"),),
    (("check-lattice", "--modular", "samples/m3.json"),),
    (("check-qa", "samples/n5.json"),),
    (("check-pam", "samples/boolean22_pam.json"),),
    (("check-pam", "--effect-algebra", "samples/chain5_pam.json"),),
    (("check-pam", "--gea", "samples/diamond_pam.json"),),
    (("check-rdp", "samples/diamond_pam.json"),),
    (("check-congruence", "samples/boolean22_congruence.json"),),
    (
        ("quotient", "samples/boolean22_congruence.json", "--out", _out("quotient.json")),
        ("check-pam", _out("quotient.json")),
    ),
    (("enumerate", "--kind", "congruence", "--base", "samples/chain5_pam.json"),),
    (("check-morphism", "samples/degree_map.json"),),
    (("check-adjoint", "samples/degree_map.json"),),
    (("check-dimeq", "samples/mo2_oml.json", "samples/mo2_identity_rel.json"),),
)


def enumeration_keys() -> list[str]:
    return [
        f"{kind}.{n}.{form}"
        for kind, sizes in ENUMERATIONS
        for form in ("dedup", "labeled")
        for n in sizes
    ]


def shuffled(items, rng: random.Random) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


# -- operations -------------------------------------------------------------


def enumerate_cold(key: str) -> dict:
    """Clear every enumerator cache, then stream one enumeration as JSON lines."""
    from relmon import search

    kind, size, form = key.split(".")
    for obj in list(vars(search).values()):
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    spec = search.EnumSpec(kind, int(size), None, form == "dedup")
    digest = hashlib.sha256()
    count = 0
    for s in search.enumerate_structures(spec):
        line = json.dumps(search.serialize_structure(s), sort_keys=True, separators=(",", ":"))
        digest.update(line.encode() + b"\n")
        count += 1
    return {"count": count, "sha256": digest.hexdigest()}


def verify_law(key: str, seed: int) -> dict:
    from relmon.search import verify_universal

    return verify_universal(key, None, seed).to_json()


def cli_key(argv) -> str:
    return " ".join(argv)


def child_env(*extra: str) -> dict:
    """Environment for a child interpreter that imports relmon from src/."""
    env = dict(os.environ)
    paths = [os.path.abspath("src"), *extra]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(args, env: dict) -> tuple[int, str, str, float]:
    """Run one child to its end: exit code, stdout, stderr, wall seconds."""
    t0 = time.perf_counter()
    proc = subprocess.run(args, stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env, timeout=150)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def cli_subprocess(argv, env: dict) -> tuple[dict, float, float]:
    """One cold `python -m relmon.cli` process: observation, wall s, peak RSS MB."""
    args = [sys.executable, "-m", "relmon.cli", *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        args, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env
    )
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    observed = {"exit": proc.returncode, "stdout_sha256": hashlib.sha256(out).hexdigest()}
    return observed, wall, usage.ru_maxrss / 1024.0


def cli_in_process(argv) -> dict:
    """relmon.cli.main(argv) in this process, with stdout and stderr captured."""
    from relmon import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    data = out.getvalue().encode()
    return {"exit": code, "stdout_sha256": hashlib.sha256(data).hexdigest()}
