"""One cold set-up in a fresh process (spawned by ``run.py``).

Imports ``repro``, generates and partitions the workload's dataset
into the empty ``REPRO_DATA_DIR`` the parent chose, builds every
system the workload needs, and prints one JSON line: the monotonic
clock reading when the systems were ready (the parent subtracts its
spawn time), the ``import repro`` time and, with ``--trace 1``, the
set-up spans.

    python3 e2ebench/coldstart.py --workload train-products --seed 0 --trace 0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import monotonic


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    t0 = monotonic()
    import repro  # noqa: F401  (timed: the import a user pays)

    import_s = monotonic() - t0
    from workloads import WORKLOADS

    rec = None
    if args.trace:
        from spans import SpanRecorder, install

        rec = SpanRecorder(run_id="setup")
        install(rec)
    WORKLOADS[args.workload].setup(args.seed)
    ready = monotonic()
    out = {"ready": ready, "import_s": import_s}
    if rec is not None:
        out["spans"] = rec.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
