"""tools/ab.py compares two checkouts' records and stats before it times
them, and labels each item identical, differs or refused; its timing is not
tested."""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _ab(monkeypatch):
    """tools/ab.py as a module; the thread caps it sets on import are undone
    after the test."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, ""))
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_a_checkout_is_identical_to_itself(monkeypatch, tmp_path):
    # this checkout loaded twice, side by side, as ab.py loads PARENT and CHANGE
    ab = _ab(monkeypatch)
    try:
        sides = [ab.menu(ab.load(name, ROOT), tmp_path) for name in ("tb_test_a", "tb_test_b")]
        assert len(sides[0]) == 5 and "spectrum --kmax 200" in sides[0]
        for name, run in sides[0].items():
            assert ab.verdict(run(), sides[1][name]()) == ("identical", "")
    finally:
        for name in [name for name in sys.modules if name.startswith("tb_test_")]:
            del sys.modules[name]


def _outcome(ab, lams, labels=None, counts=(7, 8, []), stats=None, rest=None):
    return ab.outcome(lams, labels or [(8, 1)] * len(lams), rest or [0.0] * len(lams), counts,
                      stats or {"calls": 3, "boxes": 2})


def test_the_first_item_that_differs_is_named(monkeypatch):
    # a sign of zero is a difference: the item differs, and its line names
    # the stats keys that moved
    ab = _ab(monkeypatch)
    lam = 1.0 + 2.0j
    assert ab.verdict(_outcome(ab, [lam]), _outcome(ab, [lam])) == ("identical", "")
    label, detail = ab.verdict(_outcome(ab, [lam], rest=[0.0]), _outcome(
        ab, [lam], rest=[-0.0], stats={"calls": 2, "boxes": 2}))
    assert label == "differs" and detail.endswith("stats moved: calls")


def test_records_within_eight_ulps_differ_and_further_are_refused(monkeypatch):
    ab = _ab(monkeypatch)
    lam = complex(-0.4, 600.0)
    ulp = np.spacing(abs(lam))
    near, far = lam + 8.0j * ulp, lam + 9.0j * ulp     # exact: Im lambda is 600
    label, detail = ab.verdict(_outcome(ab, [lam]), _outcome(ab, [near]))
    assert label == "differs"
    assert detail == (f"largest relative |d lambda| {8.0 * ulp / abs(lam):.2e}, "
                      "stats moved: none")
    assert ab.verdict(_outcome(ab, [lam]), _outcome(ab, [far]))[0] == "refused"
    # below |lambda| = 1 the ulps are those of 1, Newton's floor there
    root, eps = complex(-0.375, 0.0), np.spacing(1.0)
    assert ab.verdict(_outcome(ab, [root]), _outcome(ab, [root + 8.0 * eps]))[0] == "differs"
    assert ab.verdict(_outcome(ab, [root]), _outcome(ab, [root + 9.0 * eps]))[0] == "refused"
    # the number of records, a label and a certified count are never moved
    for changed in (_outcome(ab, [lam, lam]), _outcome(ab, [lam], labels=[(8, 2)]),
                    _outcome(ab, [lam], counts=(7, 9, []))):
        assert ab.verdict(_outcome(ab, [lam]), changed)[0] == "refused"
