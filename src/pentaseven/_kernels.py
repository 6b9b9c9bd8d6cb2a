"""The name of the simplicial elimination's backend, which perfbench/run.py
records with its machine facts; the elimination itself is in `decompose`."""

BACKEND = "bitset"
