"""Fixed reference work, run as a child process next to every timed child.

It starts an interpreter, imports NumPy, round-trips a JSON document,
intersects and unions small sets and sorts an array: the same mix of
start-up, allocation, dict/set and NumPy work as an `lmgsum` command, in
code that no change to the program can touch.  Its wall time tracks how
fast the host runs such work at that moment.
"""

import json

import numpy as np

doc = {f"v{i}": [i, 2 * i, "x"] for i in range(8_000)}
json.loads(json.dumps(doc, indent=2))
adj = [set(range(i % 97, i % 97 + 40)) for i in range(4_000)]
acc = 0
for i in range(1, len(adj)):
    acc += len(adj[i] & adj[i - 1])
    acc += max(adj[i] | adj[i - 1], key=lambda n: n % 7)
np.unique(np.random.default_rng(0).integers(0, 1 << 40, 80_000))
