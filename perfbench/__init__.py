"""End-to-end benchmark of the repro solvers and service (see run.py)."""
