"""Cold start of a batch workload's system, run as a child process.

``python -m perfbench.coldstart '<config overrides as JSON>'`` constructs
the system on top of ``BASE_CONFIG``, builds its cluster and prints
``ready``.  The parent times spawn to that line as ``setup_s``.
"""

from __future__ import annotations

import json
import sys

from repro.pipeline import SystemConfig, TagCorrelationSystem

from perfbench.spec import BASE_CONFIG

if __name__ == "__main__":
    config = SystemConfig(**{**BASE_CONFIG, **json.loads(sys.argv[1])})
    TagCorrelationSystem(config).build_cluster(())
    print("ready", flush=True)
