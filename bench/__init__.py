"""The repository benchmark: oracle-checked workloads, timed end to end.

``python3 bench/run.py`` is the entry point; see ``bench/README.md``.
Nothing here is imported by the library or its tests.
"""
