"""End-to-end benchmark of the repro stack (see perfbench/README.md).

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints one JSON result line.
"""
