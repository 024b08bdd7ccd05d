"""Span wrappers installed around thinprimes' public functions from outside.

install() replaces every public function of the traced modules, in its
defining module and under every other name bound to it inside the package,
with a wrapper that records a span (name, start, end, parent).  Calls made
through module globals, as thinprimes makes them, then nest as child spans.
uninstall() puts the originals back.  Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

TRACED = ("thinfn", "sieve", "expsum", "averages", "ergodic", "goldbach", "cli")
COUNTED_METHODS = (("thinfn", "ThinFunction", "floor_h"), ("thinfn", "ThinFunction", "phi_mp"))


def _phase_terms(args, kwargs, result):
    ks = args[4] if len(args) > 4 else kwargs["ks"]
    return {"expsum.phase_fracs.terms": len(ks)}


# per-span extra counts, computed from the call's arguments and result
EXTRAS = {
    "cli.run": lambda a, k, r: {"cli.rows": len(r[1])},
    "sieve.build_prime_table": lambda a, k, r: {"sieve.table_mb": r.spf.nbytes / 1e6},
    "sieve.enumerate_thin_primes": lambda a, k, r: {"sieve.thin_primes": len(r.primes)},
    "expsum.formlem_decay": lambda a, k, r: {"expsum.xi_points": r.xi_grid_size},
    "expsum.phase_fracs": _phase_terms,
}


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self.spans = []                  # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []               # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def _span(self, name, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            rec = [name, time.perf_counter(), None, stack[-1] if stack else None]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                with self._lock:
                    for key, val in extra(args, kwargs, result).items():
                        self.counts[key] += val
            return result
        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = {name: sys.modules[f"thinprimes.{name}"] for name in TRACED}
        wrapped = {}                     # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._span(f"{short}.{attr}", obj)
        package = [m for n, m in sys.modules.items()
                   if n == "thinprimes" or n.startswith("thinprimes.")]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
        for short, cls, meth in COUNTED_METHODS:
            owner = getattr(mods[short], cls)
            self._patch(owner, meth, self._counter(f"{short}.{meth}.calls",
                                                   getattr(owner, meth)))

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- reduction --------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> dict:
        """name -> (self seconds, calls); self = duration minus child spans."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name][0] += end - start - child[i]
            out[name][1] += 1
        return {k: tuple(v) for k, v in out.items()}
