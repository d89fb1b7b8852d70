"""Tests of the benchmark itself: span arithmetic, wrapping, the gate.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import signal
import sys
import textwrap
import time
from array import array

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gate as gate_mod  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    """A two-module package that imports by name, as relmon does."""
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import outer\n")
    (pkg / "b.py").write_text(textwrap.dedent("""
        def inner(x):
            return x + 1

        def evens(n):
            for i in range(n):
                if i % 2 == 0:
                    yield i

        class Box:
            def __init__(self, v):
                self.v = v

            def get(self, a, b):
                return self.v + a + b
    """))
    (pkg / "a.py").write_text(textwrap.dedent("""
        from .b import Box, evens, inner

        def outer(x):
            total = inner(x) + inner(x)
            total += sum(evens(4))
            return total + Box(1).get(0, 0)
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg

    yield fakepkg
    for name in [m for m in sys.modules if m == "fakepkg" or m.startswith("fakepkg.")]:
        del sys.modules[name]


def ticking_clock():
    state = {"t": 0.0}

    def clock():
        state["t"] += 1.0
        return state["t"]

    return clock


def test_self_time_of_a_synthetic_call_tree():
    # a [0, 10] holds b [1, 4], which holds c [2, 3]; a also holds d [5, 9]
    spans = tracing.Spans(
        ["m.a", "m.b", "m.c", "n.d"],
        array("i", [0, 1, 2, 3]),
        array("i", [tracing.ROOT, 0, 1, 0]),
        array("d", [0.0, 1.0, 2.0, 5.0]),
        array("d", [10.0, 4.0, 3.0, 9.0]),
    )
    summary = tracing.summarize(spans)
    assert {k: v["self_s"] for k, v in summary.items()} == {
        "m.a": 3.0, "m.b": 2.0, "m.c": 1.0, "n.d": 4.0,
    }
    assert summary["m.a"]["total_s"] == 10.0
    assert tracing.module_self_times(summary) == {"m": 6.0, "n": 4.0}


def test_nested_spans_from_wrapped_calls(fakepkg):
    tracer = tracing.Tracer(["a", "b"], package="fakepkg", clock=ticking_clock())
    with tracer:
        assert fakepkg.outer(1) == 2 + 2 + (0 + 2) + 1
    spans = tracer.spans
    names = [spans.names[f] for f in spans.fn]
    assert names == ["a.outer", "b.inner", "b.inner"]
    assert list(spans.parent) == [tracing.ROOT, 0, 0]
    # clock ticks: outer 1..6 around inner 2..3 and 4..5
    summary = tracing.summarize(spans)
    assert summary["a.outer"]["self_s"] == 5.0 - 1.0 - 1.0
    assert summary["b.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_generators_are_counted_not_timed(fakepkg):
    tracer = tracing.Tracer(["a", "b"], package="fakepkg")
    with tracer:
        fakepkg.outer(0)
        fakepkg.outer(0)
    assert "b.evens" not in tracer.spans.names
    assert tracer.spans.call_counts == {"b.evens": 2}
    summary = tracing.summarize(tracer.spans)
    assert summary["b.evens"] == {"calls": 2, "total_s": 0.0, "self_s": 0.0}


def test_counted_methods_and_tagged_arguments(fakepkg):
    tracer = tracing.Tracer(
        ["a", "b"], package="fakepkg",
        counted_methods=[("b", "Box", "get")],
        tag_args={"b.inner": lambda x: x},
    )
    with tracer:
        fakepkg.outer(1)
        fakepkg.outer(2)
    summary = tracing.summarize(tracer.spans)
    assert summary["b.get"]["calls"] == 2
    assert summary["b.inner"]["calls"] == 4
    assert summary["b.inner"]["distinct_args"] == 2


def test_wrappers_are_removed_afterwards(fakepkg):
    a, b = sys.modules["fakepkg.a"], sys.modules["fakepkg.b"]
    before = (a.inner, b.inner, b.evens, fakepkg.outer, a.outer, b.Box.get)
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer(["a", "b"], package="fakepkg", counted_methods=[("b", "Box", "get")]):
            assert a.inner is not before[0] and a.inner is b.inner
            assert fakepkg.outer is a.outer  # the package namespace is rebound too
            assert tracing.installed_wrappers("fakepkg")
            1 / 0
    assert (a.inner, b.inner, b.evens, fakepkg.outer, a.outer, b.Box.get) == before
    assert tracing.installed_wrappers("fakepkg") == []


def test_relmon_wrappers_are_removed_and_verdicts_unchanged():
    from relmon import pam, search
    from relmon.catalog import diamond_pam

    plain = search.verify_universal("kernel-equivalence").to_json()
    tracer = tracing.Tracer(run.LAYERS, counted_methods=[("pam", "PartialAbelianMonoid", "defined")])
    with tracer:
        # one wrapper, bound under every name that referred to the original
        assert search.check_pam_axioms is pam.check_pam_axioms
        assert getattr(search.check_pam_axioms, "__perfbench_wrapper__", False)
        traced = search.verify_universal("kernel-equivalence").to_json()
        pam.check_pam_axioms(diamond_pam())
    assert traced == plain
    assert tracing.installed_wrappers() == []
    assert search.check_pam_axioms is pam.check_pam_axioms
    assert tracer.spans.call_counts["pam.defined"] > 0


def test_dump_and_load_round_trip(fakepkg, tmp_path):
    tracer = tracing.Tracer(["a", "b"], package="fakepkg", tag_args={"b.inner": lambda x: x})
    with tracer:
        fakepkg.outer(3)
    path = str(tmp_path / "spans")
    tracer.spans.dump(path)
    back = tracing.Spans.load(path)
    assert tracing.summarize(back) == tracing.summarize(tracer.spans)


def test_gate_fails_when_a_pinned_value_changes():
    expected = gate_mod.load_expected()
    observed = wl.enumerate_cold("pam.3.dedup")
    law = wl.verify_law("kernel-equivalence", 7)

    good = gate_mod.Gate(expected)
    assert good.check("enumerate", "pam.3.dedup", observed)
    assert good.check("laws", "kernel-equivalence", law)
    assert (good.attempted, good.failed, good.error_share) == (2, 0, 0.0)

    changed = json.loads(json.dumps(expected))
    changed["enumerate"]["pam.3.dedup"]["count"] += 1
    changed["laws"]["kernel-equivalence"]["ok"] = False
    bad = gate_mod.Gate(changed)
    assert not bad.check("enumerate", "pam.3.dedup", observed)
    assert not bad.check("laws", "kernel-equivalence", law)
    assert (bad.attempted, bad.failed, bad.error_share) == (2, 2, 1.0)
    assert "count" in bad.failures[0]


def test_gate_fails_when_runs_disagree_or_nothing_is_pinned():
    gate = gate_mod.Gate({"cli": {"x": {"exit": 0}}})
    assert not gate.check("cli", "x", {"exit": 0}, reference={"exit": 1})
    assert not gate.check("cli", "y", {"exit": 0})
    assert gate.failed == 2


def test_pinned_counts_match_the_published_sequences():
    counts = {k: v["count"] for k, v in gate_mod.load_expected()["enumerate"].items()}
    series = lambda kind, form, sizes: [counts[f"{kind}.{n}.{form}"] for n in sizes]  # noqa: E731
    assert series("pam", "dedup", range(1, 6)) == [1, 3, 11, 53, 286]
    assert series("pam", "labeled", range(1, 6)) == [1, 3, 19, 255, 5326]
    assert series("lattice", "dedup", range(1, 7)) == [1, 1, 1, 2, 5, 15]  # OEIS A006966
    assert series("lattice", "labeled", range(1, 7)) == [1, 2, 6, 36, 380, 6390]
    assert series("relmonoid", "dedup", range(4)) == [1, 1, 5, 83]
    assert series("relmonoid", "labeled", range(4)) == [1, 1, 9, 451]


def test_adjusted_time_scales_wall_time_by_probe_speed(monkeypatch):
    # every probe reads twice the nominal time: the host runs at half speed
    monkeypatch.setattr(hostspeed, "probe", lambda: 2 * hostspeed.NOMINAL)
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Clock(interval=0.005) as clock:
        result, wall, adjusted = clock.time(lambda: time.sleep(0.05) or 7)
    assert result == 7
    assert len(clock.samples) > 2  # the initial probe and the timer's
    # wall time less the probes taken while it ran, at twice the speed
    probed = (len(clock.samples) - 1) * 2 * hostspeed.NOMINAL
    assert (wall - probed) / 2 <= adjusted <= wall / 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_job_time_is_the_sum_of_per_operation_medians():
    assert run.job_seconds({"a": [1.0, 9.0, 2.0], "b": [4.0]}) == 2.0 + 4.0


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert len(run.per_layer_units()) <= 128
