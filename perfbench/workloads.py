"""Seeded op lists for the four benchmark workloads.

Every op is one `rieszforge` CLI invocation plus the facts its output check
needs.  The seed picks spectra, windows offsets and selector seeds; it never
changes the amount of work (windows, schedules, trial counts and box counts
are fixed per op), so different seeds cost the same and the run-to-run spread
measures the machine, not the inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

CONSTRUCT_WINDOW = 8000
SELECT_WINDOW = 128
SELECT_TRIALS = 1000

# Regime slots for constructed sets: (low, high) fraction of 2*pi, chosen to
# stay clear of the regime boundaries 1/n and 1 - 1/n where choose_params
# refuses degenerate inputs.
SMALL_N3 = (0.36, 0.44)
SMALL_N4 = (0.27, 0.31)
LARGE_N2 = (0.56, 0.64)
LARGE_N3 = (0.69, 0.73)
LARGE_N4 = (0.765, 0.79)


@dataclass(frozen=True)
class Op:
    """One CLI call: argv, the exit codes it may return, and check inputs."""

    kind: str
    argv: tuple[str, ...]
    exit_codes: frozenset[int]
    facts: dict = field(default_factory=dict, compare=False)

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _split(rng: random.Random, total: float, parts: int) -> list[float]:
    weights = [1.0 + rng.random() for _ in range(parts)]
    scale = total / sum(weights)
    return [w * scale for w in weights]


def place(rng: random.Random, lengths) -> list[list[float]]:
    """Disjoint arcs of the given lengths (fractions of 2*pi) inside [0, 1).

    Gaps are random but at least 1% of the circle, so arcs never merge;
    endpoints are rounded to 6 decimals.
    """
    gaps = _split(rng, 1.0 - sum(lengths) - 0.01 * (len(lengths) + 1), len(lengths) + 1)
    out, pos = [], 0.0
    for length, gap in zip(lengths, gaps):
        pos += gap + 0.01
        out.append([round(pos, 6), round(pos + length, 6)])
        pos += length
    return out


def bands(rng: random.Random, slot: tuple[float, float], arcs: int) -> list[list[float]]:
    """`arcs` disjoint arcs whose total length lies in `slot`."""
    return place(rng, _split(rng, round(rng.uniform(*slot), 6), arcs))


def fraction(band_list) -> float:
    return sum(hi - lo for lo, hi in band_list)


def _spectrum_args(band_list) -> tuple[str, ...]:
    return ("--bands", json.dumps(band_list))


def _construct(kind: str, band_list, window: int) -> Op:
    argv = (kind, *_spectrum_args(band_list), "--window", str(window))
    return Op(kind, argv, frozenset({0}), {"bands": band_list, "window": window})


def _certify(band_list, schedule, *, step: int | None = None,
             window: int | None = None) -> Op:
    argv = ["certify", *_spectrum_args(band_list), "--schedule", ",".join(map(str, schedule))]
    if step is not None:
        argv += ["--step", str(step), "--window", str(window)]
    facts = {"bands": band_list, "schedule": tuple(schedule), "step": step, "window": window}
    # any verdict is a valid outcome; the check ties the exit code to it
    return Op("certify", tuple(argv), frozenset({0, 2, 3}), facts)


def _select(band_list, mode: str, r: int, target: float | None, trials: int,
            expect_met: bool, seed: int) -> Op:
    argv = ["select", *_spectrum_args(band_list), "--mode", mode, "--r", str(r),
            "--window", str(SELECT_WINDOW), "--trials", str(trials), "--seed", str(seed)]
    if target is not None:
        argv += ["--threshold", repr(target)]
    facts = {"bands": band_list, "mode": mode, "r": r, "target": target,
             "trials": trials, "expect_met": expect_met, "window": SELECT_WINDOW}
    return Op("select", tuple(argv), frozenset({0 if expect_met else 3}), facts)


def _boxes(rng: random.Random, count: int) -> list:
    """`count` 2-D boxes (fractions of 2*pi) with disjoint first-axis ranges."""
    edges = [0.0]
    for width in _split(rng, 0.9, count):
        edges.append(edges[-1] + width)
    out = []
    for lo, hi in zip(edges, edges[1:]):
        a = rng.uniform(0.0, 0.4)
        b = a + rng.uniform(0.3, 0.55)
        out.append([[round(lo + 0.02, 6), round(hi, 6)], [round(a, 6), round(b, 6)]])
    return out


def _partition(dim: int, r: int, window: int, seed: int, boxes=None) -> Op:
    argv = ["partition", "--dim", str(dim), "--r", str(r), "--window", str(window),
            "--seed", str(seed)]
    if boxes is not None:
        argv += ["--boxes", json.dumps(boxes)]
    facts = {"dim": dim, "r": r, "window": window, "boxes": boxes}
    return Op("partition", tuple(argv), frozenset({0}), facts)


def construct_window(rng: random.Random, scale: float = 1.0) -> list[Op]:
    w = max(50, int(CONSTRUCT_WINDOW * scale))
    return [
        _construct("construct", bands(rng, SMALL_N3, 1), w),
        _construct("construct", bands(rng, SMALL_N4, 2), w),
        _construct("construct", bands(rng, LARGE_N2, 1), w),
        _construct("construct", bands(rng, LARGE_N3, 3), w),
        _construct("density", bands(rng, SMALL_N3, 2), w),
        _construct("density", bands(rng, LARGE_N4, 1), w),
    ]


def certify_sections(rng: random.Random, scale: float = 1.0) -> list[Op]:
    top = 1024 if scale >= 1.0 else 32
    big = 2048 if scale >= 1.0 else 64
    nested = tuple(n for n in (16, 32, 64, 128, 256, 512, 1024) if n <= top)
    # Sections must keep lambda_min clear of zero: at lambda_min <= 0 the CLI
    # prints a non-strict Infinity (see predictions.json).  kZ is a Riesz
    # sequence on any set holding an arc longer than 1/k of the circle, and
    # constructed sets stay on single arcs, because on multiband spectra their
    # lambda_min falls as low as 1e-8 at n = 1024.
    step_single = bands(rng, (0.40, 0.60), 1)
    step_multi = place(rng, [rng.uniform(0.37, 0.42), rng.uniform(0.08, 0.15)])
    return [
        _certify(step_single, nested, step=3, window=3 * top),
        _certify(step_multi, nested, step=3, window=3 * top),
        _certify(bands(rng, SMALL_N3, 1), nested),
        _certify(bands(rng, LARGE_N2, 1), nested),
        _certify(bands(rng, (0.55, 0.70), 1), (big // 32, big // 8, big // 2, big),
                 step=2, window=big),
    ]


def select_search(rng: random.Random, scale: float = 1.0) -> list[Op]:
    trials = max(5, int(SELECT_TRIALS * scale))
    seed = rng.randrange(10**6)
    riesz_a, riesz_b = bands(rng, (0.80, 0.90), 1), bands(rng, (0.60, 0.75), 2)
    bessel_a, bessel_b = bands(rng, (0.50, 0.70), 1), bands(rng, (0.55, 0.75), 3)
    # Every diagonal entry of a normalized Gram equals the band's share of the
    # circle, which bounds lambda_min from above and lambda_max from below.
    # Targets past that bound are unreachable, so every trial runs.
    return [
        _select(riesz_a, "riesz", 2, round(fraction(riesz_a) + 0.02, 6), trials, False, seed),
        _select(riesz_b, "riesz", 2, round(fraction(riesz_b) + 0.02, 6), trials, False, seed + 1),
        _select(bessel_a, "bessel", 2, round(0.98 * fraction(bessel_a), 6), trials, False, seed + 2),
        _select(bessel_b, "bessel", 2, round(0.98 * fraction(bessel_b), 6), trials, False, seed + 3),
        _select(bands(rng, (0.85, 0.95), 1), "riesz", 2, 1e-3, trials, True, seed + 4),
        _select([[0.0, 1.0]], "tight", 4, None, trials, True, seed + 5),
    ]


def partition_scan(rng: random.Random, scale: float = 1.0) -> list[Op]:
    seed = rng.randrange(10**6)
    if scale < 1.0:
        return [_partition(3, 2, 4, seed), _partition(2, 2, 8, seed + 1, _boxes(rng, 2))]
    # several mid-sized ops rather than one long one: each op sits between two
    # calibration loops, and shorter ops track drifts in machine speed better
    return [
        _partition(3, 2, 12, seed),
        _partition(2, 2, 36, seed + 1, _boxes(rng, 2)),
        _partition(2, 2, 40, seed + 2, _boxes(rng, 3)),
        _partition(2, 2, 36, seed + 3, _boxes(rng, 3)),
    ]


BUILDERS = {
    "construct_window": construct_window,
    "certify_sections": certify_sections,
    "select_search": select_search,
    "partition_scan": partition_scan,
}


def ops_for(workload: str, seed: int, scale: float = 1.0) -> list[Op]:
    """The workload's op list for `seed`; scale < 1 gives the warm-up variant."""
    rng = random.Random(f"{workload}/{seed}/{scale}")
    return BUILDERS[workload](rng, scale)
