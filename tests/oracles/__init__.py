"""Reference implementations the production code is checked against.

Each oracle is the plain, loop-at-a-time version of an operation that
``src/`` implements once, vectorized.  Tests and benchmarks compare the
two bit for bit; nothing in ``src/`` imports from here.
"""
