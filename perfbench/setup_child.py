"""Fresh-interpreter set-up of one workload, timed by run.py.

Run as ``python -X importtime perfbench/setup_child.py ROOT WORKLOAD`` with
``ROOT/src`` on PYTHONPATH. ``pbrsim`` is the first import, so everything it
pulls in is charged to it; the child prints ``ready`` once the workload's
inputs are loaded.
"""

import pbrsim  # noqa: F401  (first import: see the docstring)
import sys
from pathlib import Path

from workloads import WORKLOADS

WORKLOADS[sys.argv[2]].load(Path(sys.argv[1]))
print("ready", flush=True)
