"""Thin prime sets: enumeration, exponential sums, maximal and ergodic
averages, and ternary Goldbach counts, with a batch CLI."""

__version__ = "0.1.0"
