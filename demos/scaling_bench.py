"""How preprocessing size and time grow with the instance.

A thin call into `planar-mssp bench` over grids of side 16 to 128, seed 0.
Stored entries should track n * log(number of ring roots): the ratio
stays basically flat while n grows 64-fold, and query depth is bounded
by ceil(log2 N) + 1. The command exits non-zero when either gate fails.

Run:  python3 demos/scaling_bench.py  (about a minute)
"""

from __future__ import annotations

import sys

from planar_mssp.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench", "--sizes", "16,32,64,128", "--seed", "0"]))
