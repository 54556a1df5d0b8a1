"""End-to-end and per-layer benchmark of the placement system.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics; see
``perfbench/run.py`` for the workloads and ``perfbench/layers.json`` for
the layer metrics of the traced run.
"""
