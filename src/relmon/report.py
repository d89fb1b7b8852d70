"""Verdict-and-witness reporting shared by every checker in the package,
and Frozen, the base of every record class in it.

Records are not dataclasses, because a cold process would pay for them
before it checks anything. Importing dataclasses loads inspect, ast, dis and
tokenize, about 10.7 ms, and each @dataclass execs its generated methods,
about 1 ms per class: some 22 ms of a 117 ms cold ``relmon check-pam`` whose
checks take 2 ms (CPython 3.11 on a shared 2-vCPU Xeon virtual machine).
Frozen gives the same equality, hash, repr and frozenness from one
attrgetter per class; each record writes its own __init__, which sets its
fields with _set and then validates them.
"""

from __future__ import annotations

from functools import wraps
from operator import attrgetter
from typing import Any, Callable, Mapping, TypeVar

T = TypeVar("T")


class ToolkitError(Exception):
    """Base class for errors raised by this package."""


class InputError(ToolkitError):
    """Malformed, out-of-range, or mismatched input data."""


class PreconditionError(ToolkitError):
    """An operation was applied to a structure that fails its contract."""


class InternalCheckError(ToolkitError):
    """A cross-check that must hold by construction failed; indicates a bug here."""


def json_fields(obj: object, what: str, *keys: str) -> tuple[Any, ...]:
    """The values of the required fields of a JSON object, in key order.

    Raises InputError if obj is not an object or lacks one of the keys,
    naming the first missing key and the structure as what.
    """
    if not isinstance(obj, dict):
        raise InputError(f"{what} JSON must be an object")
    for key in keys:
        if key not in obj:
            raise InputError(f"{what} JSON missing field {key!r}")
    return tuple(obj[key] for key in keys)


_set = object.__setattr__  # how a record's __init__ sets its fields


class Frozen:
    """A record: equal to an instance of its own class with equal fields,
    hashed and printed by its fields, and never assigned or deleted. Its
    fields are its annotated names, in order. The instance __dict__ also
    holds cached properties and verdicts, which none of this reads."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class CheckReport(Frozen):
    """Outcome of a checker: verdict, failed clause, and a concrete witness.

    ``witness`` is a tuple of carrier indices whose meaning depends on the
    failed clause (documented at each checker). ``details`` carries secondary
    diagnostics such as sub-verdicts; it never affects ``ok``.
    """

    check: str
    ok: bool
    failed: str | None
    witness: tuple[int, ...] | None
    message: str
    details: Mapping[str, Any]

    def __init__(
        self, check: str, ok: bool, failed: str | None = None,
        witness: tuple[int, ...] | None = None, message: str = "",
        details: Mapping[str, Any] | None = None,
    ) -> None:
        # one __dict__ update, not one _set per field: reports are built in
        # the hundreds of thousands and only read back by name
        self.__dict__.update(
            check=check, ok=ok, failed=failed, witness=witness, message=message,
            details={} if details is None else details,
        )

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def passing(cls, check: str, message: str = "", **details: Any) -> "CheckReport":
        return cls(check, True, None, None, message, details)

    @classmethod
    def failing(
        cls,
        check: str,
        failed: str,
        witness: tuple[int, ...] | None,
        message: str = "",
        **details: Any,
    ) -> "CheckReport":
        return cls(check, False, failed, witness, message, details)

    def summary(self) -> str:
        if self.ok:
            return f"{self.check}: ok" + (f" ({self.message})" if self.message else "")
        parts = [f"{self.check}: FAIL", f"clause={self.failed}"]
        if self.witness is not None:
            parts.append(f"witness={self.witness}")
        if self.message:
            parts.append(self.message)
        return " ".join(parts)

    def require(self, prefix: str) -> None:
        """Raise PreconditionError naming prefix and this report unless it passed."""
        if not self.ok:
            raise PreconditionError(f"{prefix}: {self.summary()}")

    def to_json(self) -> dict:
        out: dict[str, Any] = {"check": self.check, "ok": self.ok}
        if self.failed is not None:
            out["failed"] = self.failed
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.message:
            out["message"] = self.message
        if self.details:
            out["details"] = _jsonable(self.details)
        return out


def cached_verdict(check: Callable[[Any], T]) -> Callable[[Any], T]:
    """Run a checker at most once per frozen structure instance.

    The report (or any other result but None) is kept in the instance's
    __dict__ under the checker's name, as functools.cached_property keeps its
    values, so every later call on the same instance returns the same object
    and it goes when the instance does. A call that raises keeps nothing, and
    raises again the next time.
    """
    key = check.__name__

    @wraps(check)
    def cached(x: Any) -> T:
        rep = x.__dict__.get(key)
        if rep is None:
            rep = x.__dict__[key] = check(x)
        return rep

    return cached


def record_verdict(check: Callable[[Any], T], x: Any, rep: T) -> None:
    """Keep rep as cached_verdict's result of check on x, for an instance
    rebuilt from one that is already known to have given rep."""
    x.__dict__[check.__name__] = rep


def _jsonable(value: Any) -> Any:
    if isinstance(value, CheckReport):
        return value.to_json()
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items)
        return [_jsonable(v) for v in items]
    if hasattr(value, "to_json"):
        return value.to_json()
    return value
