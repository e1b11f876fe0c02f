"""Write reference.json: the seed-independent part of every workload's reports.

    python3 perfbench/make_reference.py

The committed file was written at the commit that added the benchmark and
is what later commits are checked against; rewriting it from a later
commit would hide a change in the reports instead of catching it.
"""

import json
import sys
from pathlib import Path

from check import REFERENCE_PATH, seed_free, sweep_reference
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    refs = {}
    for wl in WORKLOADS.values():
        ctx = wl.load(ROOT)
        for i in range(wl.cycle):
            _, out = wl.inproc_op(ctx, i, 0)
            for key, text in out.docs:
                doc = json.loads(text)
                refs[key] = sweep_reference(doc) if key == "line_sweep" else seed_free(doc)
    REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
