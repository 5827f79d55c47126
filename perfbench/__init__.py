"""End-to-end and per-layer benchmark; entry point ``perfbench/run.py``."""
