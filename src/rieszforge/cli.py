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
import contextlib
import json
import math
import sys

import numpy as np

from . import gram as gramlib
from . import quasicrystal as qc
from .frames import BlockSystem, SelectorConfig, pair_bessel_bound, predicted_bessel_bound, \
    select_bessel, select_riesz, select_tight
from .lattice import LatticeWindow, covering_radius, cube_partition, \
    cycling_partition, section_report
from .quadfield import integers
from .torus import TWO_PI, BoxSet, MultibandSet, normalize_bands

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


_compact = json.JSONEncoder(separators=(",", ":")).encode  # the stdlib's C encoder


def _json_pieces(obj, pad: str = ""):
    """The text of json.dumps(obj, indent=2, sort_keys=True) at indent pad, byte for byte,
    in pieces, with no pure-Python encoder: lists of numbers, bools and nulls, and each row
    of an (n, d) integer array with n >= 1, rewrite the C encoder's compact text; other
    leaves are its text.  An array comes 4096 rows to a piece, so no piece holds it whole."""
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, np.ndarray):  # .tolist() 4096 rows at a time: no list of all n rows
        item = "\n" + inner + "  "
        yield "[\n" + inner
        for i in range(0, len(obj), 4096):
            rows = _compact(obj[i:i + 4096].tolist())[2:-2].replace(",", "," + item)
            rows = rows.replace("]," + item + "[", "\n" + inner + "]" + sep + "[" + item)
            yield (sep if i else "") + "[" + item + rows + "\n" + inner + "]"
        yield "\n" + pad + "]"
    elif isinstance(obj, dict) and obj:
        if not all(isinstance(key, str) for key in obj):  # keys the stdlib converts
            yield json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)
            return
        for i, (k, v) in enumerate(sorted(obj.items())):
            yield (sep if i else "{\n" + inner) + _compact(k) + ": "
            yield from _json_pieces(v, inner)
        yield "\n" + pad + "}"
    elif not isinstance(obj, (list, tuple)) or not obj:
        yield _compact(obj)
    elif '"' not in (text := _compact(obj)) and "{" not in text and "[" not in text[1:]:
        yield "[\n" + inner + text[1:-1].replace(",", sep) + "\n" + pad + "]"  # scalars only
    else:
        for i, x in enumerate(obj):
            yield (sep if i else "[\n" + inner)
            yield from _json_pieces(x, inner)
        yield "\n" + pad + "]"


def _emit(command: str, payload: dict, out_path: str | None) -> None:
    obj = {"schema": SCHEMA, "command": command, **payload}
    with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(_json_pieces(obj))  # no copy of the whole text
        fh.write("\n")


def _read_json(inline: str | None, path: str | None):
    if inline is not None:
        return json.loads(inline)
    with open(path) as fh:
        return json.load(fh)


def _load_spectrum(spec: argparse.Namespace, required: bool = True) -> MultibandSet | None:
    if spec.measure is not None:
        if not 0.0 < spec.measure <= 1.0:
            raise ValueError("--measure is a fraction of 2*pi in (0, 1]")
        return normalize_bands([[0.0, spec.measure]], unit="2pi")
    if spec.bands is None and spec.bands_file is None:
        if required:
            raise ValueError("a spectrum is required: pass --bands, --bands-file or --measure")
        return None
    return MultibandSet.from_json(_read_json(spec.bands, spec.bands_file))


def _check_window(count: int) -> None:
    if count > MAX_WINDOW:
        raise ValueError(f"a window of {count} integers is over the limit of {MAX_WINDOW}")


def _symmetric_window(n: int) -> tuple[int, int]:
    _check_window(2 * n + 1)
    return -n, n


def _load_points(spec: argparse.Namespace) -> qc.PointSet | None:
    if spec.step is not None:
        if spec.step < 1:
            raise ValueError("--step must be a positive integer")
        lo, hi = _symmetric_window(spec.window)
        elems = tuple(range(-(hi // spec.step) * spec.step, hi + 1, spec.step))
        return qc.PointSet(elements=elems, window=(lo, hi))
    if spec.points is None and spec.points_file is None:
        return None
    raw = _read_json(spec.points, spec.points_file)
    if isinstance(raw, dict):
        return qc.PointSet.from_json(raw)
    elems = tuple(sorted(integers(raw, "points")))
    if not elems:
        raise ValueError("empty point list")
    if repeated := [a for a, b in zip(elems, elems[1:]) if a == b]:
        raise ValueError(f"point {repeated[0]} appears more than once")
    return qc.PointSet(elements=elems, window=(elems[0], elems[-1]))


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad {what} {text!r}; expected comma-separated integers") from None


def _check_gram_size(n: int) -> None:
    if n > MAX_GRAM_N:
        raise ValueError(f"an n={n} Gram is refused; the limit is n={MAX_GRAM_N}")


# ---------------------------------------------------------------- commands --


def _report(points: qc.PointSet, spectrum: MultibandSet | None) -> dict:
    """Gap and density statistics of points, and with a spectrum, it and its Landau verdict."""
    _check_window(points.span)  # density_stats allocates one entry per integer of the window
    dens = qc.density_stats(points)
    report = {"gap_stats": qc.gap_stats(points).to_json(), "density": dens.to_json()}
    if spectrum is not None:
        report["spectrum"] = spectrum.to_json()
        report["landau"] = "pass" if dens.within_landau(spectrum) else "fail"
    return report


def cmd_construct(spec: argparse.Namespace) -> tuple[int, dict]:
    spectrum = _load_spectrum(spec)
    params, points = qc.construct_riesz_set(spectrum, _symmetric_window(spec.window),
                                            mode=spec.mode)
    payload = {"params": params.to_json(), "points": points.to_json(),
               **_report(points, spectrum)}
    if params.mode == "large":
        removed = points.complement_in_window()
        payload["removed_gap_stats"] = qc.gap_stats(removed).to_json()
        payload["removed_separation_bound"] = params.n
    return EXIT_OK if payload["landau"] == "pass" else EXIT_REFUTED, payload


def cmd_certify(spec: argparse.Namespace) -> tuple[int, dict]:
    spectrum = _load_spectrum(spec)
    schedule = gramlib._check_schedule(_parse_ints(spec.schedule, "schedule"))
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
    if spec.csv:  # before main emits the JSON, so a failed write leaves stdout empty
        with open(spec.csv, "w") as fh:
            fh.write(cert.csv_text())
    verdict = {"supported": EXIT_OK, "refuted": EXIT_REFUTED}
    return verdict.get(cert.verdict, EXIT_INCONCLUSIVE), payload


def cmd_select(spec: argparse.Namespace) -> tuple[int, dict]:
    spectrum = _load_spectrum(spec)
    n = spec.window
    for flag, value in (("--r", spec.r), ("--window", n)):
        if value < 1:
            raise ValueError(f"{flag} must be positive, got {value}")
    if spec.mode == "tight" and spec.r < 4:  # select_tight's check, before the Gram is built
        raise ValueError("tight selection needs blocks of size >= 4")
    _check_gram_size(n)
    config = SelectorConfig(master_seed=spec.seed, max_trials=spec.trials)
    blocks = BlockSystem.intervals(range(n), spec.r)
    gram = gramlib._solved_gram(range(n), spectrum)
    gram /= spectrum.total_volume
    delta = spectrum.fraction_of_torus

    if spec.mode == "riesz":
        threshold = spec.threshold if spec.threshold is not None else 0.05
        result = select_riesz(gram, blocks, threshold, config)
    elif spec.mode == "bessel":
        target = spec.threshold if spec.threshold is not None else \
            predicted_bessel_bound(spec.r, delta)
        result = select_bessel(gram, blocks, target, config)
    else:
        eps = spec.threshold if spec.threshold is not None else 0.5
        # normalized exponentials have squared norm delta = |S|/2pi; scale the Gram, in
        # place, to a unit diagonal (by exactly 1.0 on the full torus)
        result = select_tight(np.divide(gram, delta, out=gram), blocks, eps, config)

    theory = {
        "delta0": config.delta0,
        "eps0": config.eps0,
        "big_constant": config.big_constant,
        "vector_norm_squared": delta,
        "pair_bessel_bound": pair_bessel_bound(delta) if delta < 0.25 else None,
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
    return EXIT_OK if result.met else EXIT_INCONCLUSIVE, payload


def _partition_window(spec: argparse.Namespace) -> LatticeWindow:
    d = spec.dim
    if not 0 < d <= 20:  # a window of side 2 has 2^dim cells, over MAX_PARTITION_CELLS
        raise ValueError(f"--dim must be in 1..20, got {d}")
    if spec.r < 1:
        raise ValueError(f"--r must be positive, got {spec.r}")
    if spec.window_2d is not None:
        parts = _parse_ints(spec.window_2d, "--window-2d")
        if len(parts) != 2 * d:
            raise ValueError(f"--window-2d needs {2 * d} comma-separated integers for dim {d}")
        lo, hi = tuple(parts[0::2]), tuple(parts[1::2])
    else:
        n = spec.window if spec.window is not None else 6 * spec.r
        if n < 1:
            raise ValueError(f"--window must be positive, got {n}")
        lo, hi = (0,) * d, (n - 1,) * d
    window = LatticeWindow(lo=lo, hi=hi)
    cells = math.prod(window.side_lengths)
    if cells > MAX_PARTITION_CELLS:
        raise ValueError(f"window has {cells} lattice cells; partition accepts "
                         f"at most {MAX_PARTITION_CELLS}")
    return window


def _mirror_invariant(window: LatticeWindow, r: int) -> bool:
    """Whether lo + hi - parts == parts[::-1, ::-1] for the window's cycling partition (r >= 2).
    The mirror x -> lo + hi - x reverses the order of the cubes and of a cube's cells, and
    takes the axis residue s to C - s mod d for one C: s again for every cube in d = 1, and
    in d = 2 when sum(side_i / r) is even.  In d >= 3 adjacent cubes would need 2s = C =
    2s + 2 mod d, so only a one-cube window is invariant, and it is drawn plain."""
    return window.dim == 1 or window.dim == 2 and sum(window.side_lengths) // r % 2 == 0


def cmd_partition(spec: argparse.Namespace) -> tuple[int, dict]:
    d, r = spec.dim, spec.r
    window = _partition_window(spec)
    if spec.boxes is not None:  # checked before the partitions: the selector has cells // r rows
        box_set = BoxSet.from_json(json.loads(spec.boxes))
        if box_set.dim != d:
            raise ValueError(f"--boxes dimension {box_set.dim} != --dim {d}")
        _check_gram_size(math.prod(window.side_lengths) // r)

    def one_cell_each(parts: np.ndarray, key: int, mirrored: bool = False) -> np.ndarray:
        """One cell of each part, drawn by one call: an (n, d) int64 array.  If mirrored
        (see _mirror_invariant), the draw's second half mirrors its first, so the selector
        is point-symmetric and its Gram folds (see gram._section_bounds), unless the middle
        part is its own mirror and has no middle cell."""
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(key,)))
        n, size = parts.shape[:2]
        t = rng.integers(size, size=n)
        if mirrored:
            t[n - n // 2:] = size - 1 - t[:n // 2][::-1]
            if n % 2 and size % 2:  # the middle part's middle cell is its own mirror
                t[n // 2] = size // 2
        return parts[np.arange(n), t]

    s = spec.cube_side if spec.cube_side is not None else r
    cubes = one_cell_each(cube_partition(d, s, window), 1)  # first: a bad --cube-side fails fast
    radius, cube_count = covering_radius(cubes, window), len(cubes)
    del cubes  # before the cycling partition is enumerated
    selector = one_cell_each(cycling_partition(d, r, window), 0, _mirror_invariant(window, r))
    gap_bound = 2 * d * r
    axis_report = section_report(selector, window)

    payload = {
        "dim": d,
        "r": r,
        "window": {"lo": list(window.lo), "hi": list(window.hi)},
        "segment_count": len(selector),
        "selector": selector,
        "section_gaps": axis_report,
        "section_gap_bound": gap_bound,
        "section_gap_ok": max(a["max_section_gap"] for a in axis_report) <= gap_bound,
        "cube_side": s,
        "cube_count": cube_count,
        "covering_radius": radius,
        "covering_bound": s * math.sqrt(d),
        "covering_ok": radius <= s * math.sqrt(d),
    }

    if spec.boxes is not None:
        be, vol = gramlib._section_bounds(selector, box_set), box_set.total_volume
        payload["quality"] = {"lambda_min": be.lambda_min / vol, "lambda_max": be.lambda_max / vol}

    ok = payload["section_gap_ok"] and payload["covering_ok"]
    return EXIT_OK if ok else EXIT_REFUTED, payload


def cmd_density(spec: argparse.Namespace) -> tuple[int, dict]:
    spectrum = _load_spectrum(spec, required=False)
    points = _load_points(spec)
    payload = {}
    if points is None:
        if spectrum is None:
            raise ValueError("give points (--points/--points-file/--step) "
                             "or a spectrum to construct from")
        params, points = qc.construct_riesz_set(spectrum, _symmetric_window(spec.window),
                                                mode=spec.mode)
        payload["params"] = params.to_json()
    payload["points"] = {"count": len(points), "window": list(points.window)}
    payload.update(_report(points, spectrum))
    if spec.step is not None and spectrum is not None and spectrum.is_arc():
        payload["kahane"] = qc.kahane_classify(spec.step, spectrum)
    return EXIT_OK, payload


def cmd_selftest(spec: argparse.Namespace) -> tuple[int, dict | None]:
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
        if not qc.density_stats(points).within_landau(s):
            raise AssertionError("Landau check failed")

    def selector_determinism():
        s = normalize_bands([[0.0, 0.9]], unit="2pi")
        g = gramlib.build_gram(range(16), s, normalized=True)
        blocks = BlockSystem.intervals(range(16), 2)
        a = select_riesz(g, blocks, 0.05, SelectorConfig(max_trials=50))
        b = select_riesz(g, blocks, 0.05, SelectorConfig(max_trials=50))
        if a != b:
            raise AssertionError("selection is not reproducible")

    def partition_counts():
        window = LatticeWindow(lo=(0, 0), hi=(17, 17))
        cells = cycling_partition(2, 3, window)
        if cells.shape != (108, 3, 2) or len(np.unique(cells.reshape(-1, 2), axis=0)) != 324:
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
    payload = {  # JSON only to a file: stdout holds the lines above
        "results": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
        "all_passed": passed == len(checks),
    } if spec.out else None
    return EXIT_OK if passed == len(checks) else EXIT_REFUTED, payload


# ------------------------------------------------------------------ parser --


def _add_spectrum_flags(parser: argparse.ArgumentParser) -> None:
    p = parser.add_mutually_exclusive_group()
    p.add_argument("--bands", help="inline JSON: [[a,b],...] in fractions of 2*pi, "
                                   "or an object with bands_2pi / bands_rad")
    p.add_argument("--bands-file", help="path to a JSON file in the same format")
    p.add_argument("--measure", type=float,
                   help="single arc [0, x) as a fraction x of 2*pi")


def _seed(text: str) -> int:
    if (seed := int(text)) < 0:  # refused at parse time, before select builds its Gram
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _add_point_set_flags(parser: argparse.ArgumentParser, window_help: str,
                         points: bool = True) -> None:
    """The flags of construct, certify and density, declared once: the spectrum
    group, the points group unless points is False, --mode, --window and --out."""
    _add_spectrum_flags(parser)
    if points:
        p = parser.add_mutually_exclusive_group()
        p.add_argument("--points", help="inline JSON list of integers, "
                                        "or an object with elements and window")
        p.add_argument("--points-file", help="path to a JSON file in the same format")
        p.add_argument("--step", type=int,
                       help="arithmetic progression step*Z inside the window")
    regime = "construction regime" + (" when no points are given" if points else "")
    parser.add_argument("--mode", choices=["auto", "small", "large"], default="auto", help=regime)
    parser.add_argument("--window", type=int, default=5000, help=f"{window_help} (default 5000)")
    parser.add_argument("--out")


def build_parser() -> _Parser:
    parser = _Parser(prog="rieszforge", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a syndetic Riesz candidate for a spectrum")
    p.set_defaults(run=cmd_construct)
    _add_point_set_flags(p, "inclusive symmetric window [-N, N]", points=False)

    p = sub.add_parser("certify", help="finite-section certificate for a point set")
    p.set_defaults(run=cmd_certify)
    _add_point_set_flags(p, "window [-N, N] for --step")
    p.add_argument("--schedule", default=",".join(map(str, gramlib.DEFAULT_SCHEDULE)),
                   help="comma-separated section sizes")
    p.add_argument("--threshold", type=float, default=1e-3 * TWO_PI,
                   help="supported needs final lambda_min >= this (default 1e-3*2*pi)")
    p.add_argument("--drop-ratio", type=float, default=gramlib.DEFAULT_DROP_RATIO)
    p.add_argument("--csv", help="also write window,lambda_min,lambda_max rows here")

    p = sub.add_parser("select", help="randomized one-per-block selection")
    p.set_defaults(run=cmd_select)
    _add_spectrum_flags(p)
    p.add_argument("--mode", choices=["riesz", "bessel", "tight"], default="riesz")
    p.add_argument("--window", type=int, default=64, help="use frequencies 0..N-1 (default 64)")
    p.add_argument("--r", type=int, default=2, help="block size")
    p.add_argument("--threshold", type=float,
                   help="target: lambda_min (riesz), lambda_max (bessel) or eps (tight)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trials", type=int, default=SelectorConfig.max_trials)
    p.add_argument("--out")

    p = sub.add_parser("partition", help="cycling/cube lattice partitions and their selectors")
    p.set_defaults(run=cmd_partition)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--r", type=int, default=3, help="segment length")
    window = p.add_mutually_exclusive_group()
    window.add_argument("--window-2d", help="lo1,hi1,lo2,hi2,... (inclusive, aligned to r)")
    window.add_argument("--window", type=int, help="per-axis window [0, N-1]")
    p.add_argument("--cube-side", type=int, help="cube partition side (default r)")
    p.add_argument("--boxes", help="inline JSON box spectrum for a selection quality report")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")

    p = sub.add_parser("density", help="gap/density statistics and Landau/Kahane verdicts")
    p.set_defaults(run=cmd_density)
    _add_point_set_flags(p, "window [-N, N] for --step or construction")

    p = sub.add_parser("selftest", help="run the built-in quick checks")
    p.set_defaults(run=cmd_selftest)
    p.add_argument("--out", help="write a JSON summary here as well")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors (and --help)
        return int(exc.code or 0)
    try:
        code, payload = ns.run(ns)
        if payload is not None:
            _emit(ns.command, payload, ns.out)
        return code
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"rieszforge {ns.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
