"""Correctness gate: every operation's output against a pinned value.

One entry per operation (one enumeration, one law verdict, one CLI
invocation). Each ``check`` counts as attempted, and as failed when any
observed field differs from the pinned one. ``error_share`` is failed over
attempted.
"""

from __future__ import annotations

import json
import os

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


class Gate:
    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, section: str, key: str, observed: dict, reference: dict | None = None) -> bool:
        """Compare observed against expected[section][key], field by field.

        With a reference (the same operation's outcome from another run),
        the operation also fails when observed differs from it.
        """
        self.attempted += 1
        want = self.expected.get(section, {}).get(key)
        if want is None:
            return self.fail(f"{section}/{key}: nothing pinned")
        diff = [f for f in sorted(set(want) | set(observed)) if want.get(f) != observed.get(f)]
        if diff:
            shown = ", ".join(f"{f}={observed.get(f)!r} (want {want.get(f)!r})" for f in diff)
            return self.fail(f"{section}/{key}: {shown}")
        if reference is not None and reference != observed:
            return self.fail(f"{section}/{key}: {observed!r} differs from {reference!r}")
        return True

    def fail(self, message: str) -> bool:
        self.failed += 1
        self.failures.append(message)
        return False

    @property
    def error_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
