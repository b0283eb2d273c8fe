"""The repo benchmark: run with ``python3 -m perf.run`` (see README.md)."""
