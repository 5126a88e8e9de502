"""Acceptance battery: every criterion at its stated tolerance.

Shared computations (damping sweeps, extremal scans, the bifurcation table)
are cached per session; each test prints its PASS/FAIL line so the battery
reads as a report under ``pytest -s`` or via ``pendamp verify``.
"""

import pytest

from pendamp.acceptance import CRITERIA, run_criterion


def _check(cid, cache):
    res = run_criterion(cid, cache)
    status = "PASS" if res.passed else "FAIL"
    print(f"{status}  criterion {res.cid:2d} ({res.name}): {res.detail} [{res.runtime:.1f}s]")
    assert res.passed, f"criterion {cid}: {res.detail}"
    assert res.runtime <= res.budget, (
        f"criterion {cid} took {res.runtime:.1f}s, budget {res.budget:.0f}s")


def test_unknown_criterion_rejected():
    with pytest.raises(KeyError, match="no criterion 99"):
        run_criterion(99, {})


@pytest.mark.parametrize("cid", [c[0] for c in CRITERIA])
def test_criterion(cid, acc_cache):
    _check(cid, acc_cache)
