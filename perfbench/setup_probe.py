"""Fresh-process set-up probe: import tipbeam from ./src and build a run config.

Prints CLOCK_MONOTONIC at the moment the config is ready; the parent reads
the same system-wide clock just before starting this process.

    python3 perfbench/setup_probe.py <command> <params file> [--conservative]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from tipbeam import cli  # noqa: E402

command, params = sys.argv[1], sys.argv[2]
cli.build_config(argparse.Namespace(
    command=command, params=params, kmax=None, grid_n=None, horizon=None, dt=None,
    tolerance=None, conservative="--conservative" in sys.argv[3:], out="."))
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
