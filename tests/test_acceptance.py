"""Full acceptance run: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import itertools
import types

import pytest

from svgeom import selftest
from svgeom.selftest import CRITERIA, run
from svgeom.tube import tube_volume
from svgeom.weingarten import variance_profile


@pytest.mark.parametrize("name", CRITERIA,
                         ids=[c.__name__.removeprefix("criterion_")
                              for c in CRITERIA.values()])
def test_acceptance(name):
    result = run(name, full=True)
    print(result.line())
    assert result.passed, result.line()


def test_verdicts_read_no_clock(monkeypatch):
    # A clock that jumps 5 s per reading: every criterion still passes,
    # and the runner reports the 5 s between its two readings.
    ticks = itertools.count(step=5.0)
    monkeypatch.setattr(selftest, "time",
                        types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    results = selftest.run_all(full=False)
    assert [r.name for r in results] == list(CRITERIA)
    for result in results:
        assert result.passed, result.line()
        assert result.seconds == 5.0
        assert "(5.000s)" in result.line()


def paper_exponent(space, eps, exponent, mode, profile):
    return tube_volume(space, eps, "paper", mode, profile)


def paper_minor_mode(space, eps, exponent, mode, profile):
    return tube_volume(space, eps, exponent, "paper", profile)


def def_d(name, degrees):
    return variance_profile("def-d", degrees)


# Each fault replaces one name that the criterion reads from selftest.
FAULTS = {"paper-exponent": ("tube_volume", paper_exponent),
          "paper-minor-mode": ("tube_volume", paper_minor_mode),
          "def-d": ("variance_profile", def_d)}


@pytest.mark.parametrize("fault", FAULTS)
def test_gauss_bonnet_criterion_can_fail(monkeypatch, fault):
    monkeypatch.setattr(selftest, *FAULTS[fault])
    passed, detail = selftest.criterion_gauss_bonnet(full=False)
    assert passed is False, detail
