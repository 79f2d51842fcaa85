"""Make the benchmark modules and the lasso-audit sources importable."""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import worker  # noqa: E402  (pins BLAS threads before numpy is imported)

worker.import_program()
