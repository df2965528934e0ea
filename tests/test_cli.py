"""Command-line interface: exit codes, schema, determinism."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rieszforge
from rieszforge import gram, normalize_bands
from rieszforge.cli import _mirror_invariant, main
from rieszforge.gram import _solved_gram

import coefficient_oracle as oracle
import partition_oracle

PACKAGE_ROOT = str(Path(rieszforge.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_construct_small(capsys):
    code, obj = run_json(capsys, "construct", "--measure", "0.45", "--window", "300")
    assert code == 0
    assert obj["schema"] == "riesz-forge/1"
    assert obj["command"] == "construct"
    assert obj["landau"] == "pass"
    assert obj["params"]["mode"] == "small" and obj["params"]["n"] == 3
    assert obj["gap_stats"]["gap_values"] == [1, 3]


def test_construct_large_reports_separation(capsys):
    code, obj = run_json(capsys, "construct", "--bands",
                         "[[0, 0.5], [0.6, 0.9]]", "--window", "400")
    assert code == 0
    assert obj["params"]["mode"] == "large"
    assert obj["removed_separation_bound"] == 4
    assert min(obj["removed_gap_stats"]["gap_values"]) >= 4


def test_certify_exit_codes(capsys):
    # constructed points: supported -> 0
    code, obj = run_json(capsys, "certify", "--measure", "0.45",
                         "--schedule", "16,32,64,128")
    assert code == 0
    assert obj["certificate"]["verdict"] == "supported"
    # integer lattice on a half torus: refuted -> 2
    code, obj = run_json(capsys, "certify", "--measure", "0.5",
                         "--step", "1", "--window", "100", "--schedule", "16,32,64")
    assert code == 2
    assert obj["certificate"]["verdict"] == "refuted"
    # unreachable threshold: inconclusive -> 3
    code, obj = run_json(capsys, "certify", "--measure", "0.45",
                         "--schedule", "16,32", "--threshold", "100")
    assert code == 3


def test_certify_csv(tmp_path, capsys):
    csv_path = tmp_path / "trace.csv"
    code, _ = run(capsys, "certify", "--measure", "0.45",
                  "--schedule", "16,32", "--csv", str(csv_path))
    text = csv_path.read_text()
    assert text.startswith("window,lambda_min,lambda_max\n")
    assert len(text.strip().split("\n")) == 3


def test_certify_csv_write_failure_leaves_stdout_empty(tmp_path, capsys):
    code, out = run(capsys, "certify", "--measure", "0.45", "--schedule", "16,32",
                    "--csv", str(tmp_path / "missing" / "trace.csv"))
    assert code == 1
    assert out == ""


def test_certify_explicit_points(capsys):
    code, obj = run_json(capsys, "certify", "--measure", "0.4",
                         "--points", json.dumps(list(range(0, 120, 3))),
                         "--schedule", "8,16,32")
    assert obj["certificate"]["source"] == "explicit(40 points)"
    assert code in (0, 3)


def test_select_riesz(capsys):
    code, obj = run_json(capsys, "select", "--measure", "0.9",
                         "--window", "32", "--r", "2")
    assert code == 0
    assert obj["result"]["met"] is True
    assert obj["result"]["lambda_min"] >= 0.05
    assert len(obj["result"]["labels"]) == 16
    assert obj["theory"]["big_constant"] == pytest.approx(729.0)


def test_select_modes(capsys):
    code, obj = run_json(capsys, "select", "--measure", "0.5",
                         "--window", "16", "--r", "4", "--mode", "bessel")
    assert code == 0 and obj["result"]["objective"] == "bessel"
    code, obj = run_json(capsys, "select", "--measure", "1.0",
                         "--window", "16", "--r", "8", "--mode", "tight")
    assert code == 0 and obj["result"]["objective"] == "tight"


def test_partition(capsys):
    code, obj = run_json(capsys, "partition", "--dim", "2", "--r", "3")
    assert code == 0
    assert obj["segment_count"] == 108
    assert obj["section_gap_bound"] == 12
    assert obj["section_gap_ok"] and obj["covering_ok"]
    assert obj["covering_radius"] <= 3 * 2 ** 0.5


def test_partition_with_boxes(capsys):
    code, obj = run_json(capsys, "partition", "--dim", "2", "--r", "3",
                         "--boxes", "[[[0, 0.45], [0, 0.45]]]")
    assert code == 0
    assert "quality" in obj
    assert obj["quality"]["lambda_max"] >= obj["quality"]["lambda_min"]


@pytest.mark.parametrize("argv, boxes", [
    (["--dim", "1", "--r", "3", "--window", "60"], [[[0.1, 0.55]], [[0.7, 0.8]]]),
    (["--dim", "3", "--r", "2", "--window", "6"], [[[0, 0.45], [0.2, 0.7], [0, 0.5]]]),
], ids=["dim1", "dim3"])
def test_partition_boxes_quality_matches_an_independent_gram(capsys, argv, boxes):
    code, obj = run_json(capsys, "partition", *argv, "--boxes", json.dumps(boxes))
    assert code == 0
    box_set = rieszforge.BoxSet.from_json(boxes)
    cells = [tuple(c) for c in obj["selector"]]
    # the closed-form coefficients, one entry at a time, normalized entrywise
    g = np.array([[oracle.box(box_set, tuple(b - a for a, b in zip(p, q))) for q in cells]
                  for p in cells]) / box_set.total_volume
    w = np.linalg.eigvalsh(g)
    tol = len(cells) * np.finfo(float).eps * w[-1]
    assert abs(obj["quality"]["lambda_min"] - w[0]) <= tol
    assert abs(obj["quality"]["lambda_max"] - w[-1]) <= tol


def test_partition_boxes_of_another_dimension_exit_1(capsys):
    assert main(["partition", "--dim", "2", "--r", "3",
                 "--boxes", "[[[0, 0.5], [0, 0.5], [0, 0.5]]]"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--boxes dimension 3 != --dim 2" in captured.err



# exact stdout of three partition runs, pinned by sha256 and byte length:
# any change to the report, the selectors or the JSON layout shows here.  The
# first two draw mirrored selectors, the third (three dimensions) a plain one
PARTITION_PINS = [
    (["--dim", "1", "--r", "3", "--window", "12", "--seed", "5"],
     562, "dac15059dd3a306cac3a5201826f8d30f3c5039c6d21330a4ab777dba1638e0b",
     [{"axis": 1, "max_section_gap": 4, "sections_under_two_points": 0}]),
    (["--dim", "2", "--r", "2", "--window", "6", "--seed", "1",
      "--boxes", "[[[0, 0.5], [0, 0.5]]]"],
     1258, "579546daa3a578c932a21289c0401909bdeecba40b630139c28f056d5df700d4",
     [{"axis": 1, "max_section_gap": 3, "sections_under_two_points": 0},
      {"axis": 2, "max_section_gap": 3, "sections_under_two_points": 0}]),
    (["--dim", "3", "--r", "2", "--window", "4", "--seed", "0"],
     1982, "81e1f0401142d4239a608c554d686bdf6086efdddf3df93fe154e1b666cf4846",
     [{"axis": 1, "max_section_gap": 3, "sections_under_two_points": 2},
      {"axis": 2, "max_section_gap": 3, "sections_under_two_points": 2},
      {"axis": 3, "max_section_gap": 3, "sections_under_two_points": 3}]),
]


@pytest.mark.parametrize("argv, size, digest, sections", PARTITION_PINS,
                         ids=["dim1", "dim2-boxes", "dim3-sparse"])
def test_partition_stdout_pinned(capsys, argv, size, digest, sections):
    code, out = run(capsys, "partition", *argv)
    assert code == 0
    assert json.loads(out)["section_gaps"] == sections
    assert len(out.encode()) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# windows at the ends of int64, against the stdout and exit codes of the
# per-cell tuple partitions: from 2^62 in three dimensions, where an int64 sum
# of a cube's base wraps, and one past int64, refused with exit 1
EDGE = "4611686018427387904,4611686018427387907"


@pytest.mark.parametrize("window, code, size, digest, err", [
    (",".join([EDGE] * 3), 0, 3818,
     "4e855cc64022c150544a7f4190cfb70c96d041ffa78f94893ba4eef5d084d9c8", ""),
    ("9223372036854775806,9223372036854775809,0,3", 1, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "rieszforge partition: error: points do not fit in 64-bit integers\n"),
], ids=["2^62", "past-int64"])
def test_partition_at_the_ends_of_int64_pinned(capsys, window, code, size, digest, err):
    d = str(window.count(",") // 2 + 1)
    assert main(["partition", "--dim", d, "--r", "2", f"--window-2d={window}"]) == code
    captured = capsys.readouterr()
    assert len(captured.out.encode()) == size and captured.err == err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


@pytest.mark.parametrize("d, r", [(1, 2), (1, 3), (1, 9), (1, 27), (2, 2), (2, 3),
                                  (2, 9), (2, 27), (3, 2)])
@pytest.mark.parametrize("seed", range(5))
def test_partition_draws_equal_the_scalar_loop(capsys, d, r, seed):
    # one rng.integers call per selector draws what one call per part drew, and in one and
    # two dimensions mirrors it as the oracle's cell lookups do
    side = 2 * r if d > 1 else 4 * r
    code, obj = run_json(capsys, "partition", "--dim", str(d), "--r", str(r),
                         "--window", str(side), "--seed", str(seed))
    assert code == 0
    lo, hi = (0,) * d, (side - 1,) * d

    def rng(key):
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))

    segments = [cells for _, _, cells in partition_oracle.cycling_partition(d, r, lo, hi)]
    selector = partition_oracle.draw(segments, rng(0), (lo, hi))
    assert obj["selector"] == [list(c) for c in selector]
    assert obj["section_gaps"] == partition_oracle.section_report(selector, lo, hi)
    cubes = [cells for _, cells in partition_oracle.cube_partition(d, r, lo, hi)]
    window = rieszforge.LatticeWindow(lo=lo, hi=hi)
    assert obj["covering_radius"] == \
        rieszforge.covering_radius(partition_oracle.draw(cubes, rng(1)), window)


# windows beyond the square ones above: an odd number of segments whose middle one has a
# middle cell (r odd) or none (r even, so that segment keeps its draw), nonzero and negative
# lo with unequal sides, an odd sum of side/r (no mirrored draw), and a one-cube window in
# three dimensions, mirror-invariant but drawn plain
@pytest.mark.parametrize("d, r, window", [
    (1, 3, "0,14"), (1, 2, "-4,5"), (2, 3, "0,8,0,8"), (2, 2, "-4,7,2,9"),
    (2, 3, "3,11,-6,14"), (2, 2, "0,5,0,3"), (2, 3, "0,8,0,5"), (3, 2, "0,1,2,3,-2,-1"),
])
@pytest.mark.parametrize("seed", range(3))
def test_partition_draws_equal_the_scalar_loop_on_any_window(capsys, d, r, window, seed):
    code, obj = run_json(capsys, "partition", "--dim", str(d), "--r", str(r),
                         f"--window-2d={window}", "--seed", str(seed))
    assert code == 0
    bounds = [int(x) for x in window.split(",")]
    lo, hi = tuple(bounds[0::2]), tuple(bounds[1::2])
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    segments = [cells for _, _, cells in partition_oracle.cycling_partition(d, r, lo, hi)]
    selector = partition_oracle.draw(segments, rng, (lo, hi))
    assert obj["selector"] == [list(c) for c in selector]


# mirror-invariant in one dimension, and in two when sum(side/r) is even; never in
# three or more on a window of several cubes
@pytest.mark.parametrize("lo, hi, r, invariant", [
    ((0,), (0,), 1, True), ((0,), (14,), 3, True), ((-6,), (3,), 2, True),
    ((0, 0), (5, 5), 2, True), ((3, -6), (11, 14), 3, True), ((-4, 2), (7, 9), 2, True),
    ((0, 0), (5, 3), 2, False), ((-3, 0), (5, 5), 3, False), ((0, 0, 0), (3, 3, 3), 2, False),
    ((2, 0, -2), (5, 5, 1), 2, False), ((0, 0, 0), (5, 2, 2), 3, False),
    ((0,) * 4, (3,) * 4, 2, False),
])
def test_mirror_invariance_is_decided_from_the_sides(lo, hi, r, invariant):
    window = rieszforge.LatticeWindow(lo=lo, hi=hi)
    parts = rieszforge.cycling_partition(len(lo), r, window)
    assert np.array_equal(np.add(lo, hi) - parts, parts[::-1, ::-1]) == invariant
    assert _mirror_invariant(window, r) == invariant


def test_mirrored_box_gram_folds_to_the_whole_complex_solve(capsys):
    # a mirrored selector, even and odd in size, is point-symmetric: its box Gram is
    # solved as one real matrix, with the extremes of the whole complex Gram
    from rieszforge import gram

    boxes = [[[0.02, 0.4], [0.1, 0.55]], [[0.42, 0.9], [0.3, 0.7]]]
    box_set = rieszforge.BoxSet.from_json(boxes)
    for argv in (["--r", "2", "--window", "20"], ["--r", "3", "--window-2d=0,8,-3,11"]):
        code, obj = run_json(capsys, "partition", "--dim", "2", *argv,
                             "--boxes", json.dumps(boxes))
        assert code == 0
        selector = np.array(obj["selector"])
        n = len(selector)
        folded = gram._section_bounds(selector, box_set)
        whole = gram._bounds([rieszforge.build_gram(selector, box_set)], n)
        assert folded.solver == "centrohermitian-real" and whole.solver == "hermitian"
        tol = n * np.finfo(float).eps * whole.lambda_max
        assert abs(folded.lambda_min - whole.lambda_min) <= tol
        assert abs(folded.lambda_max - whole.lambda_max) <= tol
        vol = box_set.total_volume
        assert obj["quality"] == {"lambda_min": folded.lambda_min / vol,
                                  "lambda_max": folded.lambda_max / vol}


# one op per selection mode, each on one arc, so searched on the real Gram;
# the theory block carries the pair bound only below 1/4
SELECT_PINS = [
    (["--measure", "0.2", "--window", "32", "--r", "4", "--mode", "riesz", "--seed", "3",
      "--trials", "50"],
     3, 714, "9a809a7b3f6a41951652a33d68a8b146d174d285d586ae83ce272fbe4ea4a410",
     {"big_constant": 729.0, "block_bessel_bound": 0.8972135954999578, "delta0": 0.1,
      "eps0": 0.09999999999999998, "pair_bessel_bound": 0.9898979485566356,
      "vector_norm_squared": 0.2}),
    (["--measure", "0.66", "--window", "64", "--r", "4", "--mode", "bessel", "--seed", "1",
      "--trials", "40"],
     0, 793, "7d8bb4e20677e88e3a65a95754bb8b32c61d3fef809ff42025795cae4b85ba45",
     {"big_constant": 729.0, "block_bessel_bound": 1.722403840463596, "delta0": 0.1,
      "eps0": 0.09999999999999998, "pair_bessel_bound": None, "vector_norm_squared": 0.66}),
    (["--measure", "0.1", "--window", "32", "--r", "4", "--mode", "tight", "--seed", "2",
      "--trials", "20"],
     3, 698, "126c271fbe6694316ec52634931310fc730a2c42f4667ac34f5b8ab6c72eec71",
     {"big_constant": 729.0, "block_bessel_bound": 0.6662277660168381, "delta0": 0.1,
      "eps0": 0.09999999999999998, "pair_bessel_bound": 0.9, "vector_norm_squared": 0.1}),
]


@pytest.mark.parametrize("argv, exit_code, size, digest, theory", SELECT_PINS,
                         ids=["riesz", "bessel", "tight"])
def test_select_stdout_pinned(capsys, argv, exit_code, size, digest, theory):
    code, out = run(capsys, "select", *argv)
    assert code == exit_code
    assert json.loads(out)["theory"] == theory
    assert len(out.encode()) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# exact stdout of the point-set commands: construct in both regimes, density on
# explicit points, a progression with its Kahane verdict and a constructed set,
# and certify on a progression and a constructed set
POINT_SET_PINS = [
    (["construct", "--measure", "0.45", "--window", "60"],
     0, 1394, "6d4f5f5f0755d5baaa9e944e5feb94f0cbaae9a7739fe8d4490ed34cccef6ae9"),
    (["construct", "--bands", "[[0, 0.5], [0.6, 0.9]]", "--window", "60"],
     0, 2003, "37ab20cca3544875b62c58b7b428824a18752ce5f3700d2d1a9d47f01a2caa4a"),
    (["density", "--points", "[-7, 0, 3, 4, 9, 12]", "--measure", "0.4"],
     0, 485, "dd7291fcaedb3ba108c3253c63db3c84c0704af54f645aa86107f77497e470d9"),
    (["density", "--measure", "0.45", "--step", "3", "--window", "60"],
     0, 530, "574e3db21c59fdcf9e4652ca9d2a5b9b4645e4dce80d473f3bdac6427ef19227"),
    (["density", "--bands", "[[0.1, 0.3], [0.5, 0.9]]", "--window", "60"],
     0, 949, "d2555c3ffab211ddcf01cfe2640865b643c49d46e2540fb518485b34a35689f9"),
    (["certify", "--measure", "0.5", "--step", "2", "--window", "100", "--schedule", "8,16,32"],
     0, 1100, "65745d5a56666971362a28dd0d74638aaa53e8ce1cff9d848401959ccb35b5dd"),
    (["certify", "--measure", "0.45", "--schedule", "8,16,32"],
     3, 1476, "1aeeadf2ee28568b4a6039886f6c6edfed0be95eca57e779166396f495d66cc1"),
]


@pytest.mark.parametrize("argv, exit_code, size, digest", POINT_SET_PINS,
                         ids=["construct-small", "construct-large", "density-points",
                              "density-step-kahane", "density-constructed", "certify-step",
                              "certify-constructed"])
def test_point_set_stdout_pinned(capsys, argv, exit_code, size, digest):
    code, out = run(capsys, *argv)
    assert code == exit_code
    assert json.loads(out)["command"] == argv[0]
    assert len(out.encode()) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["construct", "--measure", "0.45", "--window", "60"],
    ["certify", "--measure", "0.45", "--schedule", "8,16"],
    ["select", "--measure", "0.9", "--window", "16", "--trials", "5"],
    ["partition", "--dim", "2", "--r", "2", "--window", "6"],
    ["density", "--measure", "0.45", "--step", "3", "--window", "60"],
], ids=["construct", "certify", "select", "partition", "density"])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv):
    code, want = run(capsys, *argv)
    path = tmp_path / "out.json"
    assert main([*argv, "--out", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == want.encode()


def test_select_refuses_a_window_short_of_one_block_before_the_gram(capsys, monkeypatch):
    from rieszforge import gram

    def no_gram(*args, **kwargs):
        raise AssertionError("Gram built for a refused window")

    # _table starts every Gram, the one-arc R that select solves too
    monkeypatch.setattr(gram, "_table", no_gram)
    assert main(["select", "--measure", "0.5", "--window", "3", "--r", "4"]) == 1
    assert "3 labels cannot fill a block of size 4" in capsys.readouterr().err


def test_every_eigensolve_runs_in_gram_bounds(capsys, monkeypatch):
    calls = set()

    def tracer(route, solve):
        def traced(*args, **kwargs):
            frame, stack = sys._getframe(1), []
            while frame is not None:
                if not frame.f_code.co_name.startswith("<"):  # <listcomp>, <genexpr>
                    stack.append(f"{frame.f_globals['__name__']}.{frame.f_code.co_name}")
                frame = frame.f_back
            calls.add((route, stack[0], "rieszforge.gram._bounds" in stack))
            return solve(*args, **kwargs)
        return traced

    # each LAPACK routine of the solve, traced; ?potrf and the thread count are not solves
    real, cplx = np.dtype(float), np.dtype(complex)
    routes = {(False, real): "one-stage real", (False, cplx): "one-stage complex",
              (True, real): "two-stage real", (True, cplx): "two-stage complex", "stemr": "dstemr"}
    symbols = {key: tracer(routes[key], fn) if key in routes else fn
               for key, fn in gram._openblas().items()}
    monkeypatch.setattr(gram, "_openblas", lambda: symbols)
    monkeypatch.setattr(np.linalg, "eigvalsh", tracer("eigvalsh", np.linalg.eigvalsh))
    two_arcs = ["--bands", "[[0.0, 0.2], [0.5, 0.7]]"]
    box = ["--boxes", "[[[0.0, 0.5], [0.0, 0.5]]]"]
    for argv in (
        ["certify", "--measure", "0.5", "--step", "2", "--window", "100", "--schedule", "16,33"],
        ["certify", *two_arcs, "--step", "1", "--window", "100", "--schedule", "16,33"],
        ["certify", "--measure", "0.45", "--schedule", "16,32"],
        ["select", "--measure", "0.5", "--window", "16", "--trials", "50"],
        ["select", *two_arcs, "--mode", "bessel", "--window", "16", "--trials", "50"],
        ["select", "--bands", "[[0.0, 1.0]]", "--mode", "tight", "--r", "4", "--window", "16",
         "--trials", "50"],
        ["partition", "--dim", "2", "--r", "2", "--window", "8", *box],
        # a mirrored 392-point selector: its box Gram folds to one real one-stage solve
        ["partition", "--dim", "2", "--r", "2", "--window", "28", *box],
        # sides 36 and 38, 18 + 19 cubes across, odd: no mirrored draw, so a 684-point
        # complex box Gram, above the complex minimum: the two-stage reduction
        ["partition", "--dim", "2", "--r", "2", "--window-2d=0,35,0,37", *box],
    ):
        assert main(argv) in (0, 2, 3), argv
    capsys.readouterr()
    # every solve is a reduction and two dstemr picks, under _bounds, and none is eigvalsh
    assert {caller for _, caller, _ in calls} == {"rieszforge.gram._reduce",
                                                  "rieszforge.gram._extremes"}
    assert all(under for *_, under in calls)
    assert {route for route, *_ in calls} == {"one-stage real", "one-stage complex",
                                              "two-stage complex", "dstemr"}


@pytest.mark.parametrize("argv, cells", [
    (["--dim", "8", "--window", "1000"], 1000 ** 8),
    (["--dim", "2", "--window-2d", "0,1049,0,1000"], 1050 * 1001),
])
def test_partition_refuses_huge_windows(capsys, monkeypatch, argv, cells):
    from rieszforge import cli

    def no_partition(*args):
        raise AssertionError("partition built for a refused window")

    monkeypatch.setattr(cli, "cycling_partition", no_partition)
    monkeypatch.setattr(cli, "cube_partition", no_partition)
    assert cells > cli.MAX_PARTITION_CELLS
    assert main(["partition", *argv]) == 1
    assert str(cells) in capsys.readouterr().err


@pytest.mark.parametrize("argv, n", [
    (["certify", "--measure", "0.5", "--step", "1", "--window", "3000",
      "--schedule", "16,5000"], 5000),
    (["certify", "--measure", "0.4", "--schedule", "64,4097"], 4097),
    (["select", "--measure", "0.5", "--window", "100000"], 100000),
])
def test_gram_size_guard_refuses_before_building(capsys, monkeypatch, argv, n):
    from rieszforge import cli, gram

    def no_gram(*args, **kwargs):
        raise AssertionError("Gram built for a refused size")

    # _table starts every Gram: build_gram's, select's, and certify's sections, folded or not
    monkeypatch.setattr(gram, "_table", no_gram)
    monkeypatch.setattr(cli.qc, "generate_centered", no_gram)
    assert 2048 < cli.MAX_GRAM_N < n
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"n={n}" in err and str(16 * n * n) in err


@pytest.mark.parametrize("argv", [
    ["certify", "--measure", "0.5", "--step", "1", "--window", "2048", "--schedule", "4096"],
    ["select", "--measure", "0.5", "--window", "4096"],
])
def test_gram_size_guard_admits_the_limit(monkeypatch, argv):
    from rieszforge import cli, gram

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(gram, "_table", reached)
    assert cli.MAX_GRAM_N == 4096
    with pytest.raises(Reached):
        main(argv)


@pytest.mark.parametrize("argv", [
    ["certify", "--measure", "0.5", "--points", '{"elements": [1, 2]}'],
    ["certify", "--measure", "0.5", "--points", "5"],
    ["certify", "--measure", "0.5", "--points", "null"],
    ["certify", "--bands", "[0.1]"],
    ["partition", "--boxes", '[[[0, "nan"], [0, 0.5]]]'],
    ["partition", "--boxes", '{"boxes_2pi": 5}'],
    ["partition", "--boxes", "[[0, 1]]"],
    ["construct", "--bands", '{"bands_2pi": [[0, 0.3]], "bands_rad": [[0, 1]]}',
     "--window", "50"],
    ["partition", "--boxes",
     '{"boxes_2pi": [[[0, 0.5], [0, 0.5]]], "boxes_rad": [[[0, 1], [0, 1]]]}'],
], ids=["points-no-window", "points-number", "points-null", "bands-flat",
        "boxes-nan-string", "boxes-number", "boxes-flat", "bands-both-units",
        "boxes-both-units"])
def test_malformed_json_exits_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"rieszforge {argv[0]}: error:")


@pytest.mark.parametrize("argv", [
    ["construct", "--measure", "0.45", "--window", str(2 ** 21)],
    ["density", "--measure", "0.45", "--window", str(2 ** 21)],
    ["density", "--step", "3", "--window", str(10 ** 12)],
    ["certify", "--measure", "0.5", "--step", "3", "--window", str(2 ** 21), "--schedule", "16"],
    # a constructed set at measure 1e-5 holds one integer in about 1e5
    ["certify", "--measure", "1e-5", "--schedule", "16,64"],
])
def test_window_guard_refuses_before_generating(capsys, monkeypatch, argv):
    from rieszforge import cli

    def no_window(*args, **kwargs):
        raise AssertionError("window generated for a refused size")

    monkeypatch.setattr(cli.qc, "generate", no_window)
    monkeypatch.setattr(cli.qc, "PointSet", no_window)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"over the limit of {cli.MAX_WINDOW}" in err and cli.MAX_WINDOW == 2 ** 22


@pytest.mark.parametrize("points", [
    "[0, 1000000000000]",
    '{"elements": [0, 1], "window": [0, 1000000000000]}',
], ids=["list", "object"])
def test_density_refuses_explicit_windows_over_the_limit(capsys, monkeypatch, points):
    from rieszforge import cli

    def no_stats(*args):
        raise AssertionError("density statistics computed for a refused window")

    # density_stats allocates one entry per integer of the window
    monkeypatch.setattr(cli.qc, "density_stats", no_stats)
    assert main(["density", "--points", points]) == 1
    assert capsys.readouterr().err == ("rieszforge density: error: a window of 1000000000001 "
                                       f"integers is over the limit of {cli.MAX_WINDOW}\n")


@pytest.mark.parametrize("argv", [
    ["construct", "--bands", "[[0.0, 0.45]]", "--window", "300"],
    ["construct", "--bands", "[[0.1, 0.3], [0.5, 0.9]]", "--mode", "large", "--window", "300"],
    ["density", "--bands", "[[0.0, 0.45]]", "--window", "300"],
    ["density", "--measure", "0.4", "--step", "2", "--window", "300"],
    ["density", "--points", "[0, 3, 4, 9]"],
])
def test_density_is_computed_once_per_command(capsys, monkeypatch, argv):
    from rieszforge import cli

    code = main(argv)
    want = capsys.readouterr().out
    calls = []
    density_stats = cli.qc.density_stats
    monkeypatch.setattr(cli.qc, "density_stats", lambda points: calls.append(1)
                        or density_stats(points))
    assert main(argv) == code
    assert capsys.readouterr().out == want
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["construct", "density"])
def test_window_guard_admits_the_limit(monkeypatch, command):
    from rieszforge import cli

    class Reached(Exception):
        pass

    def reached(alpha, interval, window):
        assert window == (-(2 ** 21 - 1), 2 ** 21 - 1)
        raise Reached

    monkeypatch.setattr(cli.qc, "generate", reached)
    with pytest.raises(Reached):
        main([command, "--measure", "0.45", "--window", str(2 ** 21 - 1)])


@pytest.mark.parametrize("measure", ["0.9", "0.6", "0.3"])
def test_select_tight_off_the_full_torus(capsys, measure):
    # 0.9 and 0.6 meet eps = 0.5 on every seed 0-39; 0.3 on about half of them,
    # so there the test holds what every seed must: the printed window is the
    # labels' spectrum, and met and the exit code follow it
    code, obj = run_json(capsys, "select", "--measure", measure, "--mode", "tight",
                         "--r", "4", "--window", "32", "--trials", "300")
    result = obj["result"]
    assert result["objective"] == "tight"
    spectrum = normalize_bands([(0.0, float(measure))], unit="2pi")
    g = _solved_gram(range(32), spectrum) / spectrum.total_volume / spectrum.fraction_of_torus
    # the search's own solve, which tests/test_gram.py checks against eigvalsh
    b = gram._bounds([g[np.ix_(result["labels"], result["labels"])]], len(result["labels"]))
    assert (result["lambda_min"], result["lambda_max"]) == (b.lambda_min, b.lambda_max)
    eps = result["target"]
    assert result["met"] == (1.0 - eps <= b.lambda_min and b.lambda_max <= 1.0 + eps)
    assert code == (0 if result["met"] else 3)
    if measure != "0.3":
        assert code == 0 and result["met"] is True
        assert 0.5 <= result["lambda_min"] <= result["lambda_max"] <= 1.5


def test_select_stdout_does_not_depend_on_blas_threads():
    # one arc at W=128: every trial's lambda_max is 1 within a few ulps, so a
    # Gram that moved by an ulp with the thread count would move the printed
    # lambda_max even where the first of the tied trials keeps its picks
    argv = ["select", "--measure", "0.66", "--mode", "bessel", "--window", "128",
            "--threshold", "0.5", "--trials", "200"]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=PACKAGE_ROOT)
        proc = subprocess.run([sys.executable, "-m", "rieszforge.cli", *argv],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == 3, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    # a constructed one-arc set: its n = 1024 section is solved whole and real
    ["certify", "--measure", "0.45", "--schedule", "256,1024"],
    # a two-arc progression: folded real solves of n = 64, 256 and 1024
    ["certify", "--bands", "[[0.0, 0.2], [0.5, 0.7]]", "--step", "3", "--window", "3072",
     "--schedule", "64,256,1024"],
    # a 684-point complex box Gram: sides 36 and 38, 18 + 19 cubes across, no mirrored draw
    ["partition", "--dim", "2", "--r", "2", "--window-2d=0,35,0,37",
     "--boxes", "[[[0.0, 0.5], [0.0, 0.5]]]"],
    # a mirrored 968-point selector: its box Gram folds to one real two-stage solve
    ["partition", "--dim", "2", "--r", "2", "--window", "44",
     "--boxes", "[[[0.0, 0.5], [0.0, 0.5]]]"],
], ids=["certify-real-1024", "certify-step-two-arcs", "partition-boxes",
        "partition-boxes-folded"])
def test_eigensolve_stdout_does_not_depend_on_blas_threads(argv):
    # gram._bounds pins every solve to one BLAS thread; unpinned, the real one-stage
    # and the complex two-stage reductions move the extremes' last digits at 2 threads
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=PACKAGE_ROOT)
        proc = subprocess.run([sys.executable, "-m", "rieszforge.cli", *argv],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode in (0, 2, 3), proc.stderr
        digests.append(hashlib.sha256(proc.stdout).hexdigest())
    assert digests[0] == digests[1]


SCIPY_PROBE = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from rieszforge.cli import main

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)

print(json.dumps([run(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_no_command_imports_scipy():
    # numpy is the one runtime dependency: scipy is needed only by the tests
    argvs = [
        ["construct", "--measure", "0.45", "--window", "200"],
        ["certify", "--measure", "0.45", "--schedule", "16,32"],
        ["certify", "--bands", "[[0, 0.2], [0.5, 0.7]]", "--step", "3", "--window", "300",
         "--schedule", "16,32"],
        ["select", "--measure", "0.9", "--window", "16", "--trials", "5"],
        ["density", "--step", "3", "--window", "200", "--measure", "0.45"],
        ["partition", "--dim", "2", "--r", "2", "--window", "8"],
        ["partition", "--dim", "3", "--r", "2", "--window", "12"],
        ["partition", "--dim", "2", "--r", "2", "--window", "8",
         "--boxes", "[[[0, 0.5], [0, 0.5]]]"],
        ["selftest"],
    ]
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout)
    assert len(codes) == len(argvs) and set(codes) <= {0, 2, 3}, codes


def test_density_step(capsys):
    code, obj = run_json(capsys, "density", "--step", "3",
                         "--window", "200", "--measure", "0.45")
    assert code == 0
    assert obj["landau"] == "pass"
    assert obj["kahane"] == "riesz"
    assert obj["density"]["asymptotic"] == pytest.approx(1 / 3, abs=0.01)
    # an arc across 0 is stored as two pieces but gets a verdict; two arcs do not
    code, obj = run_json(capsys, "density", "--step", "3", "--window", "200",
                         "--bands", "[[0.8, 1.2]]")
    assert code == 0 and len(obj["spectrum"]["bands_rad"]) == 2
    assert obj["kahane"] == "riesz"    # 1/3 < 0.4
    code, obj = run_json(capsys, "density", "--step", "3", "--window", "200",
                         "--bands", "[[0.2, 0.4], [0.6, 1.0]]")
    assert code == 0 and "kahane" not in obj


@pytest.mark.parametrize("points", [
    "[0, 1.5, 3.9]",
    "[0, NaN]",
    "[0, Infinity]",
    '["3", 4]',
    '{"elements": [0, 2.5], "window": [0, 3]}',
    '{"elements": [0, 2], "window": [0, 3.5]}',
    "[true, 3, 6]",
])
def test_points_must_be_integers(capsys, points):
    assert main(["density", "--points", points]) == 1
    assert "integers" in capsys.readouterr().err


def test_integral_points_keep_working(capsys):
    code, obj = run_json(capsys, "density", "--points", "[0, 3.0, 6, 9.0]")
    code2, obj2 = run_json(capsys, "density", "--points", "[0, 3, 6, 9]")
    assert code == code2 == 0
    assert obj == obj2


def test_density_needs_source(capsys):
    assert main(["density"]) == 1


@pytest.mark.parametrize("argv, message", [
    (["certify", "--measure", "0.4", "--bands", "[[0, 0.1]]"],
     "argument --bands: not allowed with argument --measure"),
    (["density", "--bands", "[[0, 0.1]]", "--bands-file", "b.json", "--step", "3"],
     "argument --bands-file: not allowed with argument --bands"),
    (["certify", "--measure", "0.4", "--points", "[0, 3]", "--step", "3"],
     "argument --step: not allowed with argument --points"),
    (["density", "--points", "[0, 3]", "--points-file", "p.json"],
     "argument --points-file: not allowed with argument --points"),
    (["certify", "--step", "3"],
     "a spectrum is required: pass --bands, --bands-file or --measure"),
    (["construct", "--window", "50"],
     "a spectrum is required: pass --bands, --bands-file or --measure"),
    (["partition", "--dim", "2", "--r", "2", "--window", "8", "--window-2d", "0,3,0,3"],
     "argument --window-2d: not allowed with argument --window"),
    (["partition", "--dim", "0"], "--dim must be in 1..20, got 0"),
    (["partition", "--r", "0"], "--r must be positive, got 0"),
    (["partition", "--dim", "2", "--r", "2", "--window", "0"], "--window must be positive, got 0"),
    (["partition", "--dim", "2", "--r", "3", "--window-2d", "0,5,0,x"],
     "bad --window-2d '0,5,0,x'; expected comma-separated integers"),
    (["certify", "--measure", "0.4", "--schedule", "16,x"],
     "bad schedule '16,x'; expected comma-separated integers"),
    (["certify", "--measure", "0.4", "--points", '{"elements": [0]}'],
     "a points object needs 'elements' and 'window', missing ['window']"),
])
def test_source_conflicts_exit_1(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    if message.startswith("argument "):
        # argparse's conflicts print a usage block first, wrapped to the terminal width
        assert captured.err.startswith(f"usage: rieszforge {argv[0]} ")
        assert captured.err.endswith(f"\nrieszforge {argv[0]}: error: {message}\n")
    else:
        assert captured.err == f"rieszforge {argv[0]}: error: {message}\n"


_GROUP_FLAGS = {  # each group's flags with a value argparse accepts
    "spectrum": [("--bands", "[[0, 0.1]]"), ("--bands-file", "b.json"), ("--measure", "0.4")],
    "points": [("--points", "[0, 3]"), ("--points-file", "p.json"), ("--step", "3")],
    "window": [("--window-2d", "0,3,0,3"), ("--window", "8")],
}


@pytest.mark.parametrize("command, group", [
    ("construct", "spectrum"), ("certify", "spectrum"), ("select", "spectrum"),
    ("density", "spectrum"), ("certify", "points"), ("density", "points"),
    ("partition", "window"),
])
def test_every_pair_in_a_flag_group_exits_1(capsys, command, group):
    flags = _GROUP_FLAGS[group]
    for first, second in itertools.permutations(flags, 2):
        assert main([command, *first, *second]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"rieszforge {command}: error: argument {second[0]}: "
                                     f"not allowed with argument {first[0]}\n")


def test_usage_errors_exit_1(capsys):
    assert main(["certify"]) == 1                       # no spectrum
    assert main(["bogus"]) == 1                         # unknown command
    assert main(["certify", "--measure", "2.0"]) == 1   # bad measure
    assert main(["certify", "--measure", "0.4", "--bands", "[[0,0.1]]"]) == 1
    assert main(["certify", "--measure", "0.4", "--schedule", "a,b"]) == 1
    assert main(["construct", "--bands", "not json"]) == 1


@pytest.mark.parametrize("argv", [
    ["certify", "--measure", "0.5", "--points", "[0, 18446744073709551616]",
     "--schedule", "2"],
    ["certify", "--measure", "0.5", "--points", "[-4611686018427387904, 4611686018427387904]",
     "--schedule", "2"],
    ["certify", "--measure", "0.5", "--step", "3", "--window", "300",
     "--schedule", "16,32", "--threshold", "nan"],
    ["select", "--measure", "0.9", "--window", "8", "--trials", "3", "--threshold", "nan"],
    ["construct", "--bands", "[[0.1, NaN]]", "--window", "50"],
    ["construct", "--measure", "1e-7", "--window", "50"],
    ["partition", "--dim", "99999999999"],
    ["density", "--bands", "[[0, 1], [0.5, 0.2]]", "--step", "2", "--window", "10"],
    ["construct", "--measure", "0.45", "--window", "-3"],
    ["density", "--measure", "0.45", "--window", "-1"],
    ["select", "--measure", "0.9", "--window", "8", "--seed", "-1"],
    ["partition", "--seed", "-1"],
    # bool and string endpoints, which float() would take
    ["density", "--bands", "[[0, true]]", "--step", "2", "--window", "10"],
    ["density", "--bands", '[["0.1", "0.5"]]', "--step", "2", "--window", "10"],
    ["partition", "--dim", "1", "--boxes", "[[[false, 0.5]]]"],
])
def test_bad_numbers_exit_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"rieszforge {argv[0]}: error:" in captured.err


def test_reversed_window_is_named(capsys):
    assert main(["construct", "--measure", "0.45", "--window", "-3"]) == 1
    assert capsys.readouterr().err == "rieszforge construct: error: window (3, -3) is reversed\n"


def test_short_window_is_named(capsys):
    assert main(["certify", "--measure", "0.5",
                 "--points", '{"elements": [1, 2], "window": [0]}']) == 1
    assert capsys.readouterr().err == "rieszforge certify: error: window must be two integers, got [0]\n"


def test_repeated_point_is_named(capsys):
    # the list form is sorted for the user, so the repeat, not the order, is the fault
    assert main(["certify", "--measure", "0.5", "--points", "[2, 1, 2]"]) == 1
    assert capsys.readouterr().err == "rieszforge certify: error: point 2 appears more than once\n"


def test_selftest(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert "5/5 checks passed" in out
    assert out.count("PASS") == 5


def test_selftest_out_writes_json(tmp_path, capsys):
    path = tmp_path / "selftest.json"
    code, out = run(capsys, "selftest", "--out", str(path))
    assert code == 0
    assert "5/5 checks passed" in out
    obj = json.loads(path.read_text())
    assert obj["schema"] == "riesz-forge/1" and obj["command"] == "selftest"
    assert obj["all_passed"] is True
    assert len(obj["results"]) == 5 and all(r["passed"] for r in obj["results"])


def test_json_is_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["construct", "--measure", "0.45", "--window", "150",
                     "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "rieszforge.cli", "selftest"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout


def test_bands_file(tmp_path, capsys):
    path = tmp_path / "bands.json"
    path.write_text(json.dumps({"bands_2pi": [[0.0, 0.45]]}))
    code, obj = run_json(capsys, "construct", "--bands-file", str(path),
                         "--window", "150")
    assert code == 0
    assert obj["params"]["mode"] == "small"


def test_several_arcs_construction_can_fail_its_own_certificate(capsys):
    # the single-arc theory backs the construction; on several arcs a set sized
    # from |S| alone need not be a Riesz sequence, and certify says so
    bands = "[[0.255,0.278],[0.303,0.445],[0.468,0.505]]"
    assert main(["construct", "--bands", bands, "--window", "2000"]) == 0
    capsys.readouterr()
    code, payload = run_json(capsys, "certify", "--bands", bands, "--schedule", "64,128,256,512")
    assert code == 2
    assert payload["certificate"]["verdict"] == "refuted"
