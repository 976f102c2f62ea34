"""A default run never imports scipy.

Unit-disk links come from a numpy cell grid and ``CompactGraph``'s
transpose from one numpy sort, so importing the package and running a
default n = 1000 scenario, or a small BFS-metered one (its hop rows fill
by bit-parallel sweep), loads no scipy module.  Only larger runs import
``scipy.sparse.csgraph``, lazily, for BFS rows and component labels.
Checked in a fresh interpreter: the test process has scipy loaded.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = textwrap.dedent("""
    import sys

    def scipy_modules():
        return sorted(m for m in sys.modules
                      if m == "scipy" or m.startswith("scipy."))

    import repro, repro.sim, repro.cli
    assert not scipy_modules(), ("import", scipy_modules())
    from repro.sim import Scenario, Simulator

    Simulator(Scenario(n=1000, steps=2)).run()
    assert not scipy_modules(), ("n=1000", scipy_modules())
    result = Simulator(Scenario(n=300, steps=2, hop_mode="bfs")).run()
    assert result.h_network, "the BFS run metered no hops"
    assert not scipy_modules(), ("bfs n=300", scipy_modules())
    print("scipy-free")
""")


def test_default_runs_load_no_scipy_module():
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "scipy-free"
