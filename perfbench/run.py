"""Layered benchmark for relmon: one command, four workloads, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works in the checkout that holds this directory and
reads relmon from its src/ and samples/. With --trace 0 it measures the
end-to-end metrics with tracing off, in host-speed adjusted seconds
(hostspeed.py); with --trace 1 it measures the per-layer metrics, in wall
seconds, from a traced run whose spans it writes under .perfbench/.
Every operation's output is checked against expected.json. Human-readable
lines come first; the last line of stdout is the JSON result. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time

import gate as gate_mod
import hostspeed
import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("enumerate", "pam-laws", "order-laws", "cli-oneshot")
LAYERS = ("rel", "monoid", "lattice", "pam", "search", "cli")
SETUPS = 3  # set-up samples per run; setup_s is their median
SETUP_BATCH_SECONDS = 0.7  # a sample averages fresh set-ups over at least this long
TAIL = 10  # samples that must lie beyond the reported high percentile
PROBES = 10  # cold processes per CLI start-up probe
IN_PROCESS_PASSES = 5  # passes over the CLI units in one in-process job
IMPORTTIME_RUNS = 5
IMPORT_MODULES = (
    "relmon", "relmon.report", "relmon.rel", "relmon.monoid",
    "relmon.lattice", "relmon.pam", "relmon.search", "relmon.cli",
)

# A fresh interpreter times `import relmon` plus the workload's cache warm-up,
# in host-speed adjusted seconds (hostspeed.py).
SETUP_CHILD = (
    "import sys\n"
    "import hostspeed\n"
    "def setup():\n"
    "    import relmon, warm\n"
    "    warm.warm(sys.argv[1:])\n"
    "with hostspeed.Clock() as clock:\n"
    "    print(repr(clock.time(setup)[2]))\n"
)

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
SEARCH_ENUMERATORS = ("_gen_pams", "_labeled_posets", "_is_lattice_rows", "_gen_lattices", "_gen_relmonoids")
MONOID_FUNCTIONS = ("_monad_conditions", "is_lax_morphism", "is_left_adjoint_relmon", "check_monoid_axioms")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    units = {"error_share": "ratio", "trace_overhead": "ratio"}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "pam.check_pam_axioms.calls": "count",
        "pam.check_congruence.calls": "count",
        "pam.check_congruence.self_s": "s",
        "pam.validate_useful_ratio": "ratio",
        "pam.defined.calls": "count",
        "pam.value.calls": "count",
    })
    for fn in SEARCH_ENUMERATORS:
        units[f"search.{fn}.self_s"] = "s"
    for key in wl.enumeration_keys():
        units[f"search.enum.{key}_s"] = "s"
    for key in sorted(wl.PAM_LAWS + wl.ORDER_LAWS):
        units[f"search.law.{key}_s"] = "s"
    for fn in MONOID_FUNCTIONS:
        units[f"monoid.{fn}.calls"] = "count"
        units[f"monoid.{fn}.self_s"] = "s"
    units.update({
        "rel.is_left_adjoint_rel.self_s": "s",
        "rel.bits.calls": "count",
        "lattice.q_functor.self_s": "s",
        "cli.python_floor_ms": "ms",
        "cli.import_ms": "ms",
        "cli.main_ms": "ms",
    })
    for mod in IMPORT_MODULES:
        units[f"cli.import.{mod}_ms"] = "ms"
    units.update({"cli_p50_ms": "ms", "cli_p90_ms": "ms", "cli.samples": "count"})
    return units


# -- measuring ---------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def setup_times(specs) -> list[float]:
    """setup_s samples, each the mean over a batch of fresh interpreters that
    import relmon and warm the caches, timed in adjusted seconds. A cheap
    set-up is short beside the host's swings; a batch of at least
    SETUP_BATCH_SECONDS evens them out."""
    env = wl.child_env(HERE)  # SETUP_CHILD imports warm.py and hostspeed.py from here
    samples = []
    for _ in range(SETUPS):
        batch: list[float] = []
        while sum(batch) < SETUP_BATCH_SECONDS:
            code, stdout, stderr, _ = wl.run_child([sys.executable, "-c", SETUP_CHILD, *specs], env)
            if code != 0:
                raise RuntimeError(f"set-up child failed ({code}): {stderr.strip()[-400:]}")
            batch.append(float(stdout.strip().splitlines()[-1]))
        samples.append(statistics.mean(batch))
    return samples


def job_ops(workload: str, rng: random.Random, seed: int) -> list:
    """One repetition of a workload's fixed job, in seeded order.

    For cli-oneshot this is the in-process job of the traced run: passes of
    relmon.cli.main(argv) over every unit. Its end-to-end job is cli_passes.
    """
    if workload == "cli-oneshot":
        return [("cli", wl.cli_key(argv), lambda argv=argv: wl.cli_in_process(argv))
                for _ in range(IN_PROCESS_PASSES)
                for unit in wl.shuffled(wl.CLI_UNITS, rng) for argv in unit]
    if workload == "enumerate":
        return [("enumerate", k, lambda k=k: wl.enumerate_cold(k))
                for k in wl.shuffled(wl.enumeration_keys(), rng)]
    laws = wl.PAM_LAWS if workload == "pam-laws" else wl.ORDER_LAWS
    return [("laws", k, lambda k=k: wl.verify_law(k, seed)) for k in wl.shuffled(laws, rng)]


def attempt(op) -> dict:
    """An operation's observation; a crash is a failed operation, not a dead run."""
    try:
        return op()
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def timed(op, clock: hostspeed.Clock | None):
    """Observation and seconds of one operation: adjusted with a clock, else wall."""
    if clock is not None:
        observed, _, adjusted = clock.time(lambda: attempt(op))
        return observed, adjusted
    t0 = time.perf_counter()
    observed = attempt(op)
    return observed, time.perf_counter() - t0


def run_ops(ops, gate: gate_mod.Gate, reference: dict | None = None, clock=None,
            deadline: float = math.inf):
    """Run the operations in order, each once, until the deadline passes:
    seconds per key and observation per key.

    Each starts on a collected heap, untimed, so that the peak RSS it reaches
    does not depend on the cyclic garbage that the operations before it, in
    seeded order, left for the collector."""
    took, seen = {}, {}
    for section, key, op in ops:
        if time.perf_counter() >= deadline:
            break
        gc.collect()
        observed, dt = timed(op, clock)
        took[key] = took.get(key, 0.0) + dt
        seen[key] = observed
        gate.check(section, key, observed, None if reference is None else reference.get(key))
    return took, seen


def job_seconds(samples: dict[str, list[float]]) -> float:
    """Time of one whole job: the sum over its operations of each one's median."""
    return sum(median(v) for v in samples.values())


def repeat_job(workload, rng, seed, seconds, gate, clock=None):
    """Passes of the job, each in a fresh seeded order, for `seconds`: the
    first pass whole, the later ones until time is up. Seconds of every
    pass by key, and the latest observation by key."""
    samples: dict[str, list[float]] = {}
    seen: dict = {}
    deadline = math.inf
    start = time.perf_counter()
    while time.perf_counter() < deadline:
        took, observed = run_ops(job_ops(workload, rng, seed), gate, clock=clock, deadline=deadline)
        for key, s in took.items():
            samples.setdefault(key, []).append(s)
        seen.update(observed)
        deadline = start + seconds
    return samples, seen


def cli_passes(rng, seconds, gate, need_tail: bool, clock=None):
    """Seeded passes over every CLI unit, each stage a cold process, for
    `seconds` (the first pass whole, then whole units until time is up):
    seconds of every invocation by key, all latencies, peak child RSS."""
    env = wl.child_env()
    samples: dict[str, list[float]] = {}
    latencies: list[float] = []
    peak = 0.0
    deadline = math.inf
    start = time.perf_counter()
    with on_this_cpu():
        while time.perf_counter() < deadline or (need_tail and tail_count(latencies) < TAIL):
            for unit in wl.shuffled(wl.CLI_UNITS, rng):
                if time.perf_counter() >= deadline and not (need_tail and tail_count(latencies) < TAIL):
                    break
                for argv in unit:
                    key = wl.cli_key(argv)
                    if clock is None:
                        observed, wall, rss = wl.cli_subprocess(argv, env)
                        dt = wall
                    else:
                        (observed, wall, rss), _, dt = clock.time(lambda: wl.cli_subprocess(argv, env))
                    gate.check("cli", key, observed)
                    samples.setdefault(key, []).append(dt)
                    latencies.append(wall)
                    peak = max(peak, rss)
            deadline = start + seconds
    return samples, latencies, peak


@contextlib.contextmanager
def on_this_cpu():
    """Keep this process, and the children it starts, on the CPU it runs on.

    The host-speed probe runs in this process; pinned, it times the core that
    the CLI children run on, and not the other one, whose speed swings apart.
    """
    allowed = os.sched_getaffinity(0)
    with open("/proc/self/stat", encoding="ascii") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39, "processor"
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def p90(samples) -> float:
    return statistics.quantiles(samples, n=10)[8] if len(samples) >= 2 else 0.0


def tail_count(samples) -> int:
    hi = p90(samples)
    return sum(1 for x in samples if x > hi)


def cli_probes() -> dict[str, float]:
    """Interpreter floor, import cost, and per-module import self time, in ms."""
    env = wl.child_env()
    floor = [wl.run_child([sys.executable, "-c", "pass"], env)[3] for _ in range(PROBES)]
    imp = [wl.run_child([sys.executable, "-c", "import relmon.cli"], env)[3] for _ in range(PROBES)]
    per_module: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_RUNS):
        _, _, err, _ = wl.run_child([sys.executable, "-X", "importtime", "-c", "import relmon.cli"], env)
        for line in err.splitlines():
            # "import time:  self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in per_module:
                per_module[parts[2].strip()].append(int(parts[0].split(":")[1]) / 1000.0)
    out = {"cli.python_floor_ms": median(floor) * 1000, "cli.import_ms": median(imp) * 1000}
    for mod, vals in per_module.items():
        out[f"cli.import.{mod}_ms"] = median(vals)
    return out


def end_to_end(args, gate) -> tuple[dict, dict]:
    rng = random.Random(args.seed)
    specs = warm_specs(args.workload)
    setups = setup_times(specs)
    with hostspeed.Clock() as clock:
        if args.workload == "cli-oneshot":
            samples, latencies, peak = cli_passes(rng, args.seconds, gate, need_tail=False, clock=clock)
            extra = {"cli_samples": len(latencies), "cli_p50_ms": median(latencies) * 1000}
        else:
            import warm

            warm.warm(specs)
            samples, _ = repeat_job(args.workload, rng, args.seed, args.seconds, gate, clock=clock)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            extra = {}
    metrics = {"setup_s": median(setups), "run_s": job_seconds(samples), "peak_rss_mb": peak}
    extra.update(setup_samples=setups, passes=max(len(v) for v in samples.values()),
                 probe_ms=median(clock.samples) * 1000)
    return metrics, extra


def warm_specs(workload: str) -> tuple[str, ...]:
    return {"pam-laws": wl.PAM_WARM, "order-laws": wl.ORDER_WARM}.get(workload, ())


def per_layer(args, gate) -> tuple[dict, dict]:
    rng = random.Random(args.seed)
    values: dict[str, float] = {}
    tracer = tracing.Tracer(
        LAYERS,
        counted_methods=[("pam", "PartialAbelianMonoid", "defined"),
                         ("pam", "PartialAbelianMonoid", "value")],
        tag_args={"pam.check_pam_axioms": lambda p: (p.zero, p.plus)},
    )
    if args.workload == "cli-oneshot":
        _, latencies, _ = cli_passes(rng, args.seconds, gate, need_tail=True)
        values.update({"cli_p50_ms": median(latencies) * 1000, "cli_p90_ms": p90(latencies) * 1000,
                       "cli.samples": len(latencies)})
        values.update(cli_probes())
        import relmon.cli  # noqa: F401  (loaded before the in-process job is timed)
    else:
        import warm

        for spec, s in warm.warm(warm_specs(args.workload)).items():
            kind, size, form = spec.split(":")
            if kind != "monad-order":
                values[f"search.enum.{kind}.{size}.{form}_s"] = s
    # untraced passes, one traced, and one more untraced so that host drift
    # does not fall on one side of the overhead ratio only; wall seconds
    samples, seen = repeat_job(args.workload, rng, args.seed, args.seconds, gate)
    with tracer:
        took, _ = run_ops(job_ops(args.workload, rng, args.seed), gate, reference=seen)
    traced = sum(took.values())
    after, _ = run_ops(job_ops(args.workload, rng, args.seed), gate, reference=seen)
    for key, s in after.items():
        samples[key].append(s)
    plain = job_seconds(samples)
    if args.workload == "cli-oneshot":
        values["cli.main_ms"] = median([median(v) for v in samples.values()]) / IN_PROCESS_PASSES * 1000
    else:
        prefix = "search.enum." if args.workload == "enumerate" else "search.law."
        for key, v in samples.items():
            values[f"{prefix}{key}_s"] = median(v)
    leftover = tracing.installed_wrappers()
    if leftover:
        gate.fail(f"wrappers left after tracing: {leftover}")
    spans_path = os.path.join(wl.WORK, f"spans-{args.workload}")
    tracer.spans.dump(spans_path)
    values.update(span_metrics(tracer.spans))
    values["trace_overhead"] = traced / plain if plain else 0.0
    values["error_share"] = gate.error_share
    units = per_layer_units()
    metrics = {name: float(values.get(name, 0.0)) for name in units}
    return metrics, {"spans": spans_path, "span_count": len(tracer.spans.fn),
                     "traced_s": traced, "untraced_s": plain}


def span_metrics(spans: tracing.Spans) -> dict[str, float]:
    """Every per-layer figure that comes from the traced run."""
    summary = tracing.summarize(spans)
    row = lambda name: summary.get(name, {"calls": 0, "self_s": 0.0})  # noqa: E731
    out = {f"{layer}.self_s": s for layer, s in tracing.module_self_times(summary).items()}
    axioms = row("pam.check_pam_axioms")
    out.update({
        "pam.check_pam_axioms.calls": axioms["calls"],
        "pam.check_congruence.calls": row("pam.check_congruence")["calls"],
        "pam.check_congruence.self_s": row("pam.check_congruence")["self_s"],
        "pam.validate_useful_ratio": (axioms.get("distinct_args", 0) / axioms["calls"]
                                      if axioms["calls"] else 0.0),
        "pam.defined.calls": row("pam.defined")["calls"],
        "pam.value.calls": row("pam.value")["calls"],
        "rel.is_left_adjoint_rel.self_s": row("rel.is_left_adjoint_rel")["self_s"],
        "rel.bits.calls": row("rel.bits")["calls"],
        "lattice.q_functor.self_s": row("lattice.q_functor")["self_s"],
    })
    for fn in SEARCH_ENUMERATORS:
        out[f"search.{fn}.self_s"] = row(f"search.{fn}")["self_s"]
    for fn in MONOID_FUNCTIONS:
        out[f"monoid.{fn}.calls"] = row(f"monoid.{fn}")["calls"]
        out[f"monoid.{fn}.self_s"] = row(f"monoid.{fn}")["self_s"]
    return out


# -- reporting ---------------------------------------------------------------


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:  # read only
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git directly."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    missing = [p for p in ("src/relmon/__init__.py", "samples") if not os.path.exists(p)]
    if missing:
        print(f"error: {ROOT} lacks {', '.join(missing)}; run from a relmon checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(wl.WORK, exist_ok=True)
    gate = gate_mod.Gate(gate_mod.load_expected())

    measure = per_layer if args.trace else end_to_end
    metrics, extra = measure(args, gate)
    units = per_layer_units() if args.trace else END_TO_END

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "attempted": gate.attempted,
        "failed": gate.failed, "failures": gate.failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, **extra,
    }
    with open(os.path.join(wl.WORK, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"machine {json.dumps(record['machine'])}")
    for key, value in extra.items():
        print(f"  {key}: {value}")
    for name, value in metrics.items():
        shown = f"{value:.0f}" if units[name] == "count" else f"{value:.6g}"
        print(f"  {name} = {shown} {units[name]}")
    print(f"  error_share = {gate.error_share:.6g} ratio "
          f"({gate.failed} failed of {gate.attempted} operations)")
    for line in gate.failures[:20]:
        print(f"  FAIL {line}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
