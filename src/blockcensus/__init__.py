"""Exact character counts for blocks of finite classical groups at odd
primes, with defect-group comparisons, series bounds, brute-force oracles
on tiny groups, and static verification tables for exceptional types.

The package root exports only __version__; the API is the modules:
counting, slots, blocks, tables, oracle and cli."""

from ._version import __version__

__all__ = ["__version__"]
