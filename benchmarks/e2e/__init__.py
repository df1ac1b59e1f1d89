"""End-to-end benchmark of Prism discovery rounds, with a traced per-layer run.

``python -m benchmarks.e2e --workload NAME`` runs one workload in a closed
loop against the public v1 API and prints its metrics; see ``README.md``
in this directory for the workloads, metrics and how to compare commits.
"""
