"""Fixed reference task that measures how fast the host runs right now.

It uses no thinprimes code: interpreter start, the third-party imports the
program also makes, a pure-Python loop and two numpy kernels.  run.py times
it once before each timed phase of a pass and scales that phase's times by
REFERENCE_*_S / (its time), so that minutes-long drift in the speed of a
shared host cancels while any change to the program shows in full.
"""

import mpmath  # noqa: F401
import numpy as np
import sympy  # noqa: F401

s = 0
for i in range(600_000):
    s += i * i % 7
a = np.random.default_rng(1).random(1 << 19)
for _ in range(3):
    np.fft.rfft(a)
    np.sort(a)
