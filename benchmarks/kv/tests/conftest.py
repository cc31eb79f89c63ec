"""Self-tests of the benchmark (not part of the repository's tier-1 run):

    PYTHONPATH=src python -m pytest benchmarks/kv/tests -q
"""

import os
import sys

KV = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(KV))
for path in (os.path.join(ROOT, "src"), KV):
    if path not in sys.path:
        sys.path.insert(0, path)
