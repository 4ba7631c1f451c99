"""One set-up of a workload in a fresh process.

``python3 perfbench/setup_probe.py <workload> <seed> <workdir>`` imports the
library and the workloads, validates the workload's config and builds its
models, then prints ``ready`` and exits.  ``run.py`` times process start to
that line.
"""

import sys

from common import pin_threads, use_source_tree

pin_threads()
use_source_tree()

import workloads  # noqa: E402  (needs the source tree on sys.path)

name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workloads.WORKLOADS[name](seed, workdir)
print("ready", flush=True)
