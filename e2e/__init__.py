"""End-to-end benchmark of the repro toolchain (see ``e2e/README.md``).

``python3 e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in a fresh subprocess and prints one JSON result line;
``python3 e2e/compare.py A B`` judges two result sets against the bounds
in ``BENCHMARK.json``.
"""
