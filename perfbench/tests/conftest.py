"""Import paths for the benchmark's own tests: the program under
``src/`` and the benchmark modules beside this directory."""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
