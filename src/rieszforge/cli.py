"""Command-line front end.

Subcommands: construct, certify, select, partition, density, selftest.
Exit codes: 0 success / supported, 1 usage or input error, 2 refuted (or a
failed internal check), 3 inconclusive / target not met.

All JSON output carries {"schema": "riesz-forge/1"} and is byte-identical
for identical invocations (sorted keys, no timestamps).  Unless stated
otherwise, --window N means the symmetric integer window [-N, N]; the select
command instead uses frequencies {0, ..., N-1}.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import gram as gramlib
from . import quasicrystal as qc
from .frames import BlockSystem, SelectorConfig, VectorSystem, exponential_system, \
    predicted_bessel_bound, select_bessel, select_riesz, select_tight
from .lattice import BoxSet, LatticeWindow, covering_radius, cube_partition, \
    cycling_partition, section_report
from .quadfield import integers
from .torus import TWO_PI, MultibandSet, normalize_bands

SCHEMA = "riesz-forge/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUTED = 2
EXIT_INCONCLUSIVE = 3

MAX_PARTITION_CELLS = 2 ** 20  # partition exits 1 above this, before enumerating
MAX_GRAM_N = 4096  # certify sections, select windows, --boxes selectors: exit 1 above this
MAX_WINDOW = 2 ** 22  # integers a window may span: exit 1 above this, before generating


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the interface reserves 2 for
    # refutations, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(command: str, payload: dict, out_path: str | None) -> None:
    obj = {"schema": SCHEMA, "command": command, **payload}
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _one_of(spec: argparse.Namespace, *flags: str) -> str | None:
    """The one of `flags` that was given, or None; giving two is an error."""
    given = [f for f in flags if getattr(spec, f[2:].replace("-", "_")) is not None]
    if len(given) > 1:
        raise ValueError(f"pass only one of {' / '.join(flags)}")
    return given[0] if given else None


def _read_json(inline: str | None, path: str | None):
    if inline is not None:
        return json.loads(inline)
    with open(path) as fh:
        return json.load(fh)


def _load_spectrum(spec: argparse.Namespace, required: bool = True) -> MultibandSet | None:
    given = _one_of(spec, "--bands", "--bands-file", "--measure")
    if given is None:
        if required:
            raise ValueError("a spectrum is required: pass --bands, --bands-file or --measure")
        return None
    if given == "--measure":
        if not 0.0 < spec.measure <= 1.0:
            raise ValueError("--measure is a fraction of 2*pi in (0, 1]")
        return normalize_bands([[0.0, spec.measure]], unit="2pi")
    return MultibandSet.from_json(_read_json(spec.bands, spec.bands_file))


def _check_window(count: int) -> None:
    if count > MAX_WINDOW:
        raise ValueError(f"a window of {count} integers is over the limit of {MAX_WINDOW}")


def _symmetric_window(n: int) -> tuple[int, int]:
    _check_window(2 * n + 1)
    return -n, n


def _load_points(spec: argparse.Namespace) -> qc.PointSet | None:
    given = _one_of(spec, "--points", "--points-file", "--step")
    if given is None:
        return None
    if given == "--step":
        if spec.step < 1:
            raise ValueError("--step must be a positive integer")
        lo, hi = _symmetric_window(spec.window)
        elems = tuple(range(-(hi // spec.step) * spec.step, hi + 1, spec.step))
        return qc.PointSet(elements=elems, window=(lo, hi))
    raw = _read_json(spec.points, spec.points_file)
    if isinstance(raw, dict):
        if not {"elements", "window"} <= raw.keys():
            raise ValueError(f"a points object needs 'elements' and 'window', got {sorted(raw)}")
        return qc.PointSet.from_json(raw)
    elems = tuple(sorted(integers(raw, "points")))
    if not elems:
        raise ValueError("empty point list")
    return qc.PointSet(elements=elems, window=(elems[0], elems[-1]))


def _parse_schedule(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad schedule {text!r}; expected comma-separated integers") from None


def _check_gram_size(n: int) -> None:
    if n > MAX_GRAM_N:
        raise ValueError(f"an n={n} Gram needs {16 * n * n} bytes; the limit is n={MAX_GRAM_N}")


# ---------------------------------------------------------------- commands --


def cmd_construct(spec: argparse.Namespace) -> int:
    spectrum = _load_spectrum(spec)
    params, points = qc.construct_riesz_set(spectrum, _symmetric_window(spec.window),
                                            mode=spec.mode)
    stats = qc.gap_stats(points)
    dens = qc.density_stats(points)
    landau_ok = qc.landau_check(points, spectrum)
    payload = {
        "spectrum": spectrum.to_json(),
        "params": params.to_json(),
        "points": points.to_json(),
        "gap_stats": stats.to_json(),
        "density": dens.to_json(),
        "landau": "pass" if landau_ok else "fail",
    }
    if params.mode == "large":
        removed = points.complement_in_window()
        payload["removed_gap_stats"] = qc.gap_stats(removed).to_json()
        payload["removed_separation_bound"] = params.n
    _emit("construct", payload, spec.out)
    return EXIT_OK if landau_ok else EXIT_REFUTED


def cmd_certify(spec: argparse.Namespace) -> int:
    spectrum = _load_spectrum(spec)
    schedule = _parse_schedule(spec.schedule)
    _check_gram_size(max(schedule))
    explicit = _load_points(spec)
    if explicit is not None:
        points = explicit
        source = f"step({spec.step})" if spec.step is not None else \
            f"explicit({len(points)} points)"
        params = None
    else:
        params = qc.choose_params(spectrum.fraction_of_torus, spec.mode)
        # generate_centered scans about max(schedule) / |interval| integers
        _check_window(int(max(schedule) / float(params.riesz_interval.length)))
        points = qc.generate_centered(params.alpha, params.riesz_interval,
                                     max(schedule))
        source = f"constructed(mode={params.mode}, n={params.n})"
    cert = gramlib.certify(points, spectrum, spec.threshold, schedule=schedule,
                           drop_ratio=spec.drop_ratio, source=source)
    payload = {"certificate": cert.to_json()}
    if params is not None:
        payload["params"] = params.to_json()
    _emit("certify", payload, spec.out)
    if spec.csv:
        with open(spec.csv, "w") as fh:
            fh.write(cert.csv_text())
    return {"supported": EXIT_OK, "refuted": EXIT_REFUTED}.get(cert.verdict, EXIT_INCONCLUSIVE)


def cmd_select(spec: argparse.Namespace) -> int:
    spectrum = _load_spectrum(spec)
    n = spec.window
    if n < spec.r:
        raise ValueError("--window must be at least --r")
    _check_gram_size(n)
    labels = range(n)
    system = exponential_system(labels, spectrum)
    blocks = BlockSystem.intervals(labels, spec.r)
    config = SelectorConfig(master_seed=spec.seed, max_trials=spec.trials)
    delta = spectrum.fraction_of_torus

    if spec.mode == "riesz":
        threshold = spec.threshold if spec.threshold is not None else 0.05
        result = select_riesz(system, blocks, threshold, config)
    elif spec.mode == "bessel":
        target = spec.threshold if spec.threshold is not None else \
            predicted_bessel_bound(spec.r, delta)
        result = select_bessel(system, blocks, target, config)
    elif spec.mode == "tight":
        eps = spec.threshold if spec.threshold is not None else 0.5
        # normalized exponentials have squared norm delta = |S|/2pi; scale them to unit
        # norm (by exactly 1.0 on the full torus)
        unit = VectorSystem(matrix=system.matrix / math.sqrt(delta), labels=system.labels)
        result = select_tight(unit, blocks, eps, config)
    else:
        raise ValueError(f"unknown selection mode {spec.mode!r}")

    theory = {
        "delta0": config.delta0,
        "eps0": config.eps0,
        "big_constant": config.big_constant,
        "vector_norm_squared": delta,
        "pair_bessel_bound": predicted_bessel_bound(2, delta, pairs=True)
        if delta < 0.25 else None,
        "block_bessel_bound": predicted_bessel_bound(spec.r, delta),
    }
    payload = {
        "spectrum": spectrum.to_json(),
        "window": n,
        "r": spec.r,
        "mode": spec.mode,
        "result": result.to_json(),
        "theory": theory,
    }
    _emit("select", payload, spec.out)
    return EXIT_OK if result.met else EXIT_INCONCLUSIVE


def _partition_window(spec: argparse.Namespace) -> LatticeWindow:
    d = spec.dim
    if d > 20:  # a window of side 2 has 2^dim cells, over MAX_PARTITION_CELLS
        raise ValueError(f"--dim {d} is over 20")
    if spec.window_2d is not None:
        parts = [int(x) for x in spec.window_2d.split(",")]
        if len(parts) != 2 * d:
            raise ValueError(f"--window-2d needs {2 * d} comma-separated integers for dim {d}")
        lo, hi = tuple(parts[0::2]), tuple(parts[1::2])
    else:
        n = spec.window if spec.window is not None else 6 * spec.r
        lo, hi = (0,) * d, (n - 1,) * d
    window = LatticeWindow(lo=lo, hi=hi)
    cells = math.prod(window.side_lengths)
    if cells > MAX_PARTITION_CELLS:
        raise ValueError(f"window has {cells} lattice cells; partition accepts "
                         f"at most {MAX_PARTITION_CELLS}")
    return window


def cmd_partition(spec: argparse.Namespace) -> int:
    d, r = spec.dim, spec.r
    window = _partition_window(spec)

    def one_cell_each(groups, key: int) -> list:
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(key,)))
        return [g.cells[int(rng.integers(len(g.cells)))] for g in groups]

    segments = cycling_partition(d, r, window)
    selector = one_cell_each(segments, 0)
    gap_bound = 2 * d * r
    axis_report = section_report(selector, window)

    s = spec.cube_side if spec.cube_side is not None else r
    cubes = cube_partition(d, s, window)
    cube_selector = one_cell_each(cubes, 1)
    radius = covering_radius(cube_selector, window)

    payload = {
        "dim": d,
        "r": r,
        "window": {"lo": list(window.lo), "hi": list(window.hi)},
        "segment_count": len(segments),
        "selector": [list(c) for c in selector],
        "section_gaps": axis_report,
        "section_gap_bound": gap_bound,
        "section_gap_ok": max(a["max_section_gap"] for a in axis_report) <= gap_bound,
        "cube_side": s,
        "cube_count": len(cubes),
        "covering_radius": radius,
        "covering_bound": s * math.sqrt(d),
        "covering_ok": radius <= s * math.sqrt(d),
    }

    if spec.boxes is not None:
        box_set = BoxSet.from_json(json.loads(spec.boxes))
        if box_set.dim != d:
            raise ValueError(f"--boxes dimension {box_set.dim} != --dim {d}")
        _check_gram_size(len(selector))
        g = gramlib.build_gram(selector, box_set, normalized=True)
        be = gramlib.extreme_eigs(g)
        payload["quality"] = {"lambda_min": be.lambda_min, "lambda_max": be.lambda_max}

    _emit("partition", payload, spec.out)
    ok = payload["section_gap_ok"] and payload["covering_ok"]
    return EXIT_OK if ok else EXIT_REFUTED


def cmd_density(spec: argparse.Namespace) -> int:
    spectrum = _load_spectrum(spec, required=False)
    points = _load_points(spec)
    constructed = None
    if points is None:
        if spectrum is None:
            raise ValueError("give points (--points/--points-file/--step) "
                             "or a spectrum to construct from")
        constructed, points = qc.construct_riesz_set(spectrum, _symmetric_window(spec.window),
                                                     mode=spec.mode)
    payload = {
        "points": {"count": len(points), "window": list(points.window)},
        "gap_stats": qc.gap_stats(points).to_json(),
        "density": qc.density_stats(points).to_json(),
    }
    if constructed is not None:
        payload["params"] = constructed.to_json()
    if spectrum is not None:
        payload["spectrum"] = spectrum.to_json()
        payload["landau"] = "pass" if qc.landau_check(points, spectrum) else "fail"
        if spec.step is not None and len(spectrum.arcs) == 1:
            payload["kahane"] = qc.kahane_classify(spec.step, spectrum)
    _emit("density", payload, spec.out)
    return EXIT_OK


def cmd_selftest(spec: argparse.Namespace) -> int:
    checks: list[tuple[str, bool, str]] = []

    def run(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    def full_torus_identity():
        s = normalize_bands([[0.0, 1.0]], unit="2pi")
        g = gramlib.build_gram(range(-16, 17), s)
        if float(np.abs(g - TWO_PI * np.eye(33)).max()) > 1e-10:
            raise AssertionError("Gram of the full torus is not 2*pi*I")

    def frozen_regression():
        from fractions import Fraction
        from .quadfield import QuadNum
        alpha = QuadNum(Fraction(1, 2), Fraction(-1, 12), 6)
        interval = qc.UnitInterval(0, QuadNum(0, Fraction(1, 6), 6))
        got = qc.generate(alpha, interval, (0, 18)).elements
        if got != (0, 1, 4, 7, 8, 11, 14, 17, 18):
            raise AssertionError(f"regression vector changed: {got}")

    def small_mode_gaps():
        s = normalize_bands([[0.0, 0.45]], unit="2pi")
        params, points = qc.construct_riesz_set(s, (-500, 500))
        values = set(qc.gap_stats(points).gaps)
        if not values <= {1, params.n}:
            raise AssertionError(f"gap set {values} escapes {{1, {params.n}}}")
        if not qc.landau_check(points, s):
            raise AssertionError("Landau check failed")

    def selector_determinism():
        s = normalize_bands([[0.0, 0.9]], unit="2pi")
        system = exponential_system(range(16), s)
        blocks = BlockSystem.intervals(range(16), 2)
        a = select_riesz(system, blocks, 0.05, SelectorConfig(max_trials=50))
        b = select_riesz(system, blocks, 0.05, SelectorConfig(max_trials=50))
        if a != b:
            raise AssertionError("selection is not reproducible")

    def partition_counts():
        window = LatticeWindow(lo=(0, 0), hi=(17, 17))
        segments = cycling_partition(2, 3, window)
        cells = [c for seg in segments for c in seg.cells]
        if len(segments) != 108 or len(set(cells)) != 324:
            raise AssertionError("cycling partition is not an exact 108-segment cover")

    run("full_torus_identity", full_torus_identity)
    run("frozen_regression_vector", frozen_regression)
    run("small_mode_gap_law", small_mode_gaps)
    run("selector_determinism", selector_determinism)
    run("cycling_partition_cover", partition_counts)

    passed = sum(1 for _, ok, _ in checks if ok)
    for name, ok, detail in checks:
        line = f"{'PASS' if ok else 'FAIL'} {name}"
        if detail:
            line += f"  ({detail})"
        print(line)
    print(f"{passed}/{len(checks)} checks passed")
    if spec.out:
        _emit("selftest", {
            "results": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
            "all_passed": passed == len(checks),
        }, spec.out)
    return EXIT_OK if passed == len(checks) else EXIT_REFUTED


# ------------------------------------------------------------------ parser --


def _add_spectrum_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bands", help="inline JSON: [[a,b],...] in fractions of 2*pi, "
                                   "or an object with bands_2pi / bands_rad")
    p.add_argument("--bands-file", help="path to a JSON file in the same format")
    p.add_argument("--measure", type=float,
                   help="single arc [0, x) as a fraction x of 2*pi")


def _add_points_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--points", help="inline JSON list of integers")
    p.add_argument("--points-file", help="path to a JSON list of integers")
    p.add_argument("--step", type=int,
                   help="arithmetic progression step*Z inside the window")


def build_parser() -> _Parser:
    parser = _Parser(prog="rieszforge", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a syndetic Riesz candidate for a spectrum")
    _add_spectrum_flags(p)
    p.add_argument("--mode", choices=["auto", "small", "large"], default="auto")
    p.add_argument("--window", type=int, default=5000,
                   help="inclusive symmetric window [-N, N] (default 5000)")
    p.add_argument("--out")

    p = sub.add_parser("certify", help="finite-section certificate for a point set")
    _add_spectrum_flags(p)
    _add_points_flags(p)
    p.add_argument("--mode", choices=["auto", "small", "large"], default="auto",
                   help="construction mode when no explicit points are given")
    p.add_argument("--window", type=int, default=5000, help="window for --step (default 5000)")
    p.add_argument("--schedule", default="16,32,64,128,256",
                   help="comma-separated section sizes")
    p.add_argument("--threshold", type=float, default=1e-3 * TWO_PI,
                   help="supported needs final lambda_min >= this (default 1e-3*2*pi)")
    p.add_argument("--drop-ratio", type=float, default=gramlib.DEFAULT_DROP_RATIO)
    p.add_argument("--out")
    p.add_argument("--csv", help="also write window,lambda_min,lambda_max rows here")

    p = sub.add_parser("select", help="randomized one-per-block selection")
    _add_spectrum_flags(p)
    p.add_argument("--mode", choices=["riesz", "bessel", "tight"], default="riesz")
    p.add_argument("--window", type=int, default=64, help="use frequencies 0..N-1 (default 64)")
    p.add_argument("--r", type=int, default=2, help="block size")
    p.add_argument("--threshold", type=float,
                   help="target: lambda_min (riesz), lambda_max (bessel) or eps (tight)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--out")

    p = sub.add_parser("partition", help="cycling/cube lattice partitions and their selectors")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--r", type=int, default=3, help="segment length")
    p.add_argument("--window-2d", help="lo1,hi1,lo2,hi2,... (inclusive, aligned to r)")
    p.add_argument("--window", type=int, help="per-axis window [0, N-1]")
    p.add_argument("--cube-side", type=int, help="cube partition side (default r)")
    p.add_argument("--boxes", help="inline JSON box spectrum for a selection quality report")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("density", help="gap/density statistics and Landau/Kahane verdicts")
    _add_spectrum_flags(p)
    _add_points_flags(p)
    p.add_argument("--mode", choices=["auto", "small", "large"], default="auto")
    p.add_argument("--window", type=int, default=5000,
                   help="window for --step or construction (default 5000)")
    p.add_argument("--out")

    p = sub.add_parser("selftest", help="run the built-in quick checks")
    p.add_argument("--out", help="write a JSON summary here as well")

    return parser


_COMMANDS = {
    "construct": cmd_construct,
    "certify": cmd_certify,
    "select": cmd_select,
    "partition": cmd_partition,
    "density": cmd_density,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors (and --help)
        return int(exc.code or 0)
    try:
        return _COMMANDS[ns.command](ns)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"rieszforge {ns.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
