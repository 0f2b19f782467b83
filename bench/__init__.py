"""The repo benchmark: five workloads on the 8x8 federation, each a batch
of short applications.

``python -m bench`` runs every workload in its own child process,
checks the outputs, prints every end-to-end and per-layer metric by name
with its unit and writes a result file; ``python -m bench --workload W
--seed N --seconds S --trace 0|1`` is the single-workload form the
driver named in ``BENCHMARK.json`` calls.  See ``bench/README.md``.
"""

from pathlib import Path

#: the checkout this package sits in, and the sources it measures —
#: always the code under test, whatever else is installed
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: result file, per-workload detail and spans (git-ignored)
OUT_DIR = ROOT / "bench" / "out"
