"""Layered benchmark of vsgd; run it with ``python3 perfbench/run.py``."""
