"""The package names the benchmark harness in perfbench/ reads still exist.

perfbench/ does not change with the package.  A site of perfbench/layers.py
that no longer resolves is skipped, which reads its per-layer metrics as 0
without an error; a traced strip reads fields of RootSearchReport; and every
setup_s probe builds a run config from its own argparse.Namespace.  These
tests load perfbench's files without writing under perfbench/.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

from tipbeam.spectrum import RootSearchReport

ROOT = Path(__file__).resolve().parents[1]

# sites of layers.SITES the package no longer has: their metrics read 0
KNOWN_ABSENT = {
    "tipbeam.spectrum.entire_char_fn", "tipbeam.spectrum.char_fn",
    "tipbeam.modes.boundary_matrix", "tipbeam.cli.boundary_matrix",
    "tipbeam.modes.predict_eigenvalue", "tipbeam.spectrum.refine_root",
    "tipbeam.modes.refine_root", "tipbeam.cli.refine_root",
    "tipbeam.spectrum.pair_at_frequency", "tipbeam.cli.eigenmode",
    "tipbeam.modes.nullspace_coeffs", "tipbeam.cli.nullspace_coeffs",
}


def _perfbench(monkeypatch, name: str):
    """perfbench/<name>.py as a module, no bytecode written."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_layer_sites_still_resolve(monkeypatch):
    # the 12 sites that resolve, among them the strip, the modes and the
    # integrator, keep their metrics
    layers = _perfbench(monkeypatch, "layers")
    restore, skipped = layers.install(layers.Tracer())
    restore()
    assert len(layers.SITES) == 24
    assert set(skipped) <= KNOWN_ABSENT


def test_traced_strip_reads_its_report_fields(monkeypatch):
    # `--trace 1` reads these from spectrum_in_strip's report
    layers = _perfbench(monkeypatch, "layers")
    assert layers._search_report({}, (None, RootSearchReport())) == {
        "boxes": 0, "incomplete_boxes": 0, "duplicates_merged": 0}


def test_setup_probe_builds_every_workload_config(monkeypatch, tmp_path):
    # setup_probe.py imports tipbeam from ./src, so it runs from the root
    workloads = _perfbench(monkeypatch, "workloads")
    params = tmp_path / "params.txt"
    workloads.write_params(params, workloads.make_params(0), 0)
    steps = sorted({(step.command, "--conservative" in step.flags)
                    for steps in workloads.WORKLOADS.values() for step in steps})
    assert len(steps) == 6
    for command, conservative in steps:
        proc = subprocess.run(
            [sys.executable, "-B", str(ROOT / "perfbench" / "setup_probe.py"), command,
             str(params), *(["--conservative"] if conservative else [])],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (command, conservative, proc.stderr[-300:])
        assert float(proc.stdout) > 0.0
