"""CheckReport: the passing/failing constructors against its __init__, and
the one result type of every exported checker."""

import inspect

import pytest

import relmon
from relmon.report import CheckReport

# exported checkers named otherwise than is_*, check_*, has_* or validate_*
OTHER_CHECKERS = (
    "adjoint_induces_c1c2c5", "monad_from_adjunction_conditions",
    "quotient_map_is_left_adjoint",
)

# (built by a constructor, the same report built by __init__)
CASES = {
    "passing-bare": (CheckReport.passing("c"), CheckReport("c", True)),
    "passing-details": (
        CheckReport.passing("c", "3 elements", modular=True, n=3),
        CheckReport("c", True, message="3 elements", details={"modular": True, "n": 3}),
    ),
    "failing-witness": (
        CheckReport.failing("c", "unit", (0, 0), "missing", pairs=[1, 2]),
        CheckReport("c", False, "unit", (0, 0), "missing", {"pairs": [1, 2]}),
    ),
    "failing-bare": (
        CheckReport.failing("c", "law", None),
        CheckReport("c", False, "law", None),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_constructors_match_the_generated_init(case):
    built, init = CASES[case]
    assert type(built) is CheckReport
    assert built == init and init == built
    assert repr(built) == repr(init)
    assert built.to_json() == init.to_json()
    assert built.summary() == init.summary()
    assert list(vars(built).items()) == list(vars(init).items())


@pytest.mark.parametrize("case", sorted(CASES))
def test_constructed_reports_stay_frozen(case):
    built, _ = CASES[case]
    with pytest.raises(AttributeError):
        built.ok = not built.ok
    with pytest.raises(AttributeError):
        del built.check

    def named(rep, check):
        return CheckReport(check, rep.ok, rep.failed, rep.witness, rep.message, rep.details)

    renamed = named(built, "verify:c")
    assert renamed.check == "verify:c" and built.check == "c"
    assert named(renamed, "c") == built


def test_reports_never_share_a_details_dict():
    details = {"n": 1}
    reports = [
        CheckReport.passing("c"),
        CheckReport.passing("c"),
        CheckReport.failing("c", "law", None),
        CheckReport.failing("c", "law", None),
        CheckReport.passing("c", **details),
        CheckReport.failing("c", "law", None, **details),
    ]
    assert len({id(rep.details) for rep in reports} | {id(details)}) == len(reports) + 1
    reports[0].details["n"] = 2
    assert reports[1].details == {} and details == {"n": 1}


def test_every_exported_checker_returns_a_check_report():
    checkers = [
        name for name in relmon.__all__
        if name.startswith(("is_", "check_", "has_", "validate_")) or name in OTHER_CHECKERS
    ]
    assert set(OTHER_CHECKERS) <= set(checkers)
    for name in checkers:
        returns = inspect.signature(getattr(relmon, name)).return_annotation
        assert returns in (CheckReport, "CheckReport"), name
