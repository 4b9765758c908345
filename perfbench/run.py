"""Entry point of the benchmark: ``python3 perfbench/run.py --workload NAME``.

Bootstrap only: puts the checkout's ``src/`` on ``sys.path`` and hands off
to :mod:`perfbench.cli`.  Run from the root of a checkout.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro package under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.cli import main

    sys.exit(main())
