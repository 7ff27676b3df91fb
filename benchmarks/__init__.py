"""Benchmark package: one experiment regenerator per paper artifact.

See DESIGN.md section 3 for the experiment index and EXPERIMENTS.md for
the paper-vs-measured record.  Run with ``pytest benchmarks/``; set
``REPRO_FULL=1`` for paper-scale parameters.
"""
