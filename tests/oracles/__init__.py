"""Reference implementations the test suite holds production code to.

Each oracle is the slow, obviously-correct form of something ``src/``
computes faster; none is imported by ``src/``.
"""
