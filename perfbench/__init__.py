"""Benchmark of goal-oriented discovery (see run.py)."""
