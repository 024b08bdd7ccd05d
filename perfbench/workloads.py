"""The four workloads: thinprime command lines, their seeded inputs and checks.

Sizes are fixed; the seed only picks inputs (xi values, RNG seeds, Goldbach
targets, the ergodic start point), and every check holds for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks


@dataclass
class Command:
    name: str
    argv: list[str]
    check: Callable[[str], str | None]
    # (column, kind) corrupted in the checker self-test; see checks.corrupt
    corrupt: tuple[str, str]
    # body must be byte-identical to this command's body in the same pass
    same_body_as: str | None = None
    # error name of a known, still-open defect: this failure is expected
    known_defect: str | None = None


@dataclass
class Workload:
    name: str
    why: str
    commands: list[Command]


def _xi(rng: random.Random) -> float:
    return rng.randrange(1, 1 << checks.XI_BITS) / (1 << checks.XI_BITS)


def _odd_in(rng: random.Random, lo: int, hi: int) -> int:
    return lo + 2 * rng.randrange((hi - lo) // 2 + 1)


# sizes: one pass of a workload runs each command once as a subprocess
DECAY_N, DECAY_GRID, DECAY_ID_N, DECAY_ID_GRID = 1 << 17, 256, 1 << 16, 64
DECAY_CHECK_UPTO = 1 << 12
VAUGHAN_P1, VAUGHAN_P2, BILINEAR_KL = 200_000, 100_000, 1000
GOLDBACH_BAND, GOLDBACH_TARGETS = (19_001, 21_001), 41
GOLDBACH_SINGLE_BAND = (199_001, 201_001)
MAXIMAL_N, MAXIMAL_TRIALS, MAXIMAL_R = 1 << 12, 20, (1.5, 2.0, 4.0)
ERGODIC_N, OSCILLATION_N, DENSITY_N, DENSITY_DEFECT_N = 1 << 21, 1 << 20, 1 << 23, 1 << 20


def decay(seed: int) -> Workload:
    base = ["formlem-decay", "--gamma", "0.99", "--N", str(DECAY_N),
            "--xi-grid", str(DECAY_GRID)]
    gaps = lambda t: checks.check_decay_gaps(t, 0.99, DECAY_GRID, DECAY_CHECK_UPTO)
    return Workload("decay", "xi-grid sweep of formlem_decay, the only user of it", [
        Command("decay-t1", base + ["--threads", "1"], gaps, ("gap", "nudge")),
        Command("decay-t2", base + ["--threads", "2"], gaps, ("gap", "nudge"),
                same_body_as="decay-t1"),
        Command("decay-identity", ["formlem-decay", "--gamma", "1", "--N",
                                   str(DECAY_ID_N), "--xi-grid", str(DECAY_ID_GRID)],
                checks.check_exact_zero, ("gap", "nudge")),
    ])


def vaughan(seed: int) -> Workload:
    rng = random.Random(f"vaughan/{seed}")
    xi1, xi2, xi3 = _xi(rng), _xi(rng), _xi(rng)
    bseed = rng.randrange(1 << 31)
    K = L = BILINEAR_KL
    return Workload("vaughan", "Vaughan split and bilinear sums: many small phase_fracs calls", [
        Command("vaughan-0.95",
                ["vaughan", "--gamma", "0.95", "--P", str(VAUGHAN_P1), "--xi", repr(xi1),
                 "--mfreq", "1"],
                lambda t: checks.check_vaughan(t, VAUGHAN_P1, xi1, 1, [0, 1], 0.95),
                ("S3_re", "nudge")),
        Command("vaughan-0.99-quadratic",
                ["vaughan", "--gamma", "0.99", "--P", str(VAUGHAN_P2), "--xi", repr(xi2),
                 "--mfreq", "2", "--W", "0,1,1"],
                lambda t: checks.check_vaughan(t, VAUGHAN_P2, xi2, 2, [0, 1, 1], 0.99),
                ("S1_im", "nudge")),
        Command("bilinear",
                ["bilinear", "--gamma", "0.95", "--K", str(K), "--L", str(L),
                 "--delta", "random", "--xi", repr(xi3), "--seed", str(bseed)],
                lambda t: checks.check_bilinear(t, K, L, xi3, 0.95, bseed),
                ("value_re", "nudge")),
    ])


def goldbach(seed: int) -> Workload:
    rng = random.Random(f"goldbach/{seed}")
    n0 = _odd_in(rng, *GOLDBACH_BAND)
    n_end = n0 + 2 * (GOLDBACH_TARGETS - 1)
    recount = n0 + 2 * rng.randrange(GOLDBACH_TARGETS)
    single = _odd_in(rng, *GOLDBACH_SINGLE_BAND)
    return Workload("goldbach", "ternary Goldbach counts: rep_count over a range and one large target", [
        Command("goldbach-range",
                ["goldbach", "--gammas", "1,0.99,0.95", "--N", str(n0), "--N-end", str(n_end)],
                lambda t: checks.check_goldbach(t, (1.0, 0.99, 0.95), n0, n_end, recount),
                ("R", "nudge")),
        Command("goldbach-single",
                ["goldbach", "--gammas", "1,1,1", "--N", str(single)],
                lambda t: checks.check_goldbach(t, (1.0, 1.0, 1.0), single, single, single),
                ("R", "nudge")),
    ])


def averages(seed: int) -> Workload:
    rng = random.Random(f"averages/{seed}")
    mseed = rng.randrange(1 << 31)
    x = repr(_xi(rng))
    return Workload("averages", "maximal functions, ergodic averages and large-table density", [
        Command("maximal",
                ["maximal", "--gamma", "0.95", "--N", str(MAXIMAL_N), "--seed", str(mseed)],
                lambda t: checks.check_maximal(t, MAXIMAL_TRIALS, MAXIMAL_R),
                ("ratio", "nan")),
        Command("ergodic",
                ["ergodic", "--system", "rotation", "--N", str(ERGODIC_N), "--x", x],
                lambda t: checks.check_rotation_averages(t, ERGODIC_N), ("re", "nan")),
        Command("oscillation",
                ["oscillation", "--system", "rotation", "--N", str(OSCILLATION_N), "--x", x],
                lambda t: checks.check_oscillation(t, OSCILLATION_N), ("value", "nan")),
        Command("density-0.95",
                ["density", "--gamma", "0.95", "--N", str(DENSITY_N)],
                lambda t: checks.check_density(t, 0.95), ("count", "nudge")),
        # c = 1/0.8 = 5/4 is dyadic: exact integer values of h(n) currently
        # raise PrecisionExhausted.  Kept so the failure stays visible; once
        # it succeeds its counts are checked against exact integer roots.
        Command("density-0.8",
                ["density", "--gamma", "0.8", "--N", str(DENSITY_DEFECT_N)],
                lambda t: checks.check_density(t, 0.8, DENSITY_DEFECT_N, exact_5_4=True),
                ("count", "nudge"), known_defect="PrecisionExhausted"),
    ])


WORKLOADS = {w.__name__: w for w in (decay, vaughan, goldbach, averages)}

# span names (or "module." prefixes) whose self time is the layer each
# workload stresses; the traced run reports every layer's share on every
# workload
LAYERS = {
    "decay": ("expsum.formlem_decay",),
    "vaughan": ("expsum.vaughan_split", "expsum.phase_fracs", "expsum.bilinear_sum_bound"),
    "goldbach": ("goldbach.",),
    "averages": ("averages.", "sieve."),
}
