"""End-to-end and per-layer benchmark of the Figure-2 tag-correlation system.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/GLOSSARY.md``
for the workloads and metrics.
"""
