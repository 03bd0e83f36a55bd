"""Times what `treecontract solve` does before solving: import the package
with its problem registry, then parse every input tree. Reads a JSON list of
tree texts on stdin (untimed) and prints the elapsed seconds. Run by
worker.py in a fresh interpreter each time, so the import is never cached.
"""

import json
import sys
import time

texts = json.load(sys.stdin)
t0 = time.perf_counter()
import treecontract.problems  # noqa: E402,F401
from treecontract import parse_tree  # noqa: E402

for text in texts:
    parse_tree(text)
print(repr(time.perf_counter() - t0))
