"""tools/ab.py checks that two checkouts give the same records and stats
before it times them; its timing is not tested."""

import importlib.util
import os
import sys
from pathlib import Path

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
        assert len(sides[0]) == 4
        assert ab.identical(*sides) is None
    finally:
        for name in [name for name in sys.modules if name.startswith("tb_test_")]:
            del sys.modules[name]


def test_the_first_item_that_differs_is_named(monkeypatch):
    # a sign of zero is a difference
    ab = _ab(monkeypatch)
    first = {"a": lambda: ([1.0], {"calls": 3}), "b": lambda: [0.0], "c": lambda: [2.0]}
    second = {"a": lambda: ([1.0], {"calls": 3}), "b": lambda: [-0.0], "c": lambda: [3.0]}
    assert ab.identical(first, second) == "b"
