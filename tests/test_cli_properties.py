"""Property tests: whatever argv and JSON shapes it gets, the CLI exits with a
code of its interface and never with a traceback; and its JSON writer prints
what the stdlib's indenting encoder prints, byte for byte."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
import numpy as np  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from rieszforge.cli import _json_pieces, main  # noqa: E402

KEYS = ["elements", "window", "bands_2pi", "bands_rad", "boxes_2pi", "boxes_rad"]

numbers = (st.integers(-50, 50) | st.floats(-2.0, 2.0)
           | st.sampled_from([0.5, 1e400, -1e400, float("nan"), 10 ** 30]))
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
pairs = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)
unit_pairs = st.lists(pairs, min_size=1, max_size=3)
boxes = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(pairs, min_size=d, max_size=d), min_size=1, max_size=2))
point_lists = st.lists(st.integers(-40, 40), max_size=12, unique=True)
far = 10 ** 22  # past int64 and uint64
far_point_lists = point_lists.map(lambda xs: [far + x for x in xs])


def _json(value):
    return "".join(_json_pieces(value))


def as_json(values):
    return values.map(json.dumps)


def mostly(good, bad):
    """good nine times in ten, else bad (shrinking tends to good)."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 9 else good)


def ints(lo, hi):
    return mostly(st.integers(lo, hi).map(str),
                  st.sampled_from(["", "x", "nan", "-1", "1e400", "99999999999"]))


def reals(lo, hi):
    return mostly(st.floats(lo, hi).map(repr), st.sampled_from(["", "x", "nan", "inf", "-inf"]))


def csv_ints(lo, hi, size):
    return st.lists(st.integers(lo, hi), min_size=1, max_size=size).map(
        lambda xs: ",".join(map(str, xs)))


# flag -> strategy for its argument; the windows stay small so every call is quick
FLAGS = {
    "--bands": as_json(mostly(unit_pairs | st.fixed_dictionaries({"bands_2pi": unit_pairs}),
                              json_values)),
    "--measure": mostly(st.floats(0.05, 1.0).map(repr),
                        st.sampled_from(["1e-9", "0.9999999", "0", "2", "nan", "x"])),
    "--points": as_json(mostly(point_lists | far_point_lists | st.fixed_dictionaries(
        {"elements": point_lists, "window": st.just([-40, 40])}), json_values)),
    "--step": ints(-1, 9),
    "--window": ints(-3, 40),
    "--schedule": mostly(csv_ints(1, 48, 4), csv_ints(-2, 48, 4) | st.just("a,b")),
    "--threshold": reals(-1.0, 2.0),
    "--drop-ratio": reals(-0.5, 1.5),
    "--r": ints(-1, 6),
    "--seed": ints(-1, 5),
    "--dim": ints(0, 3),
    "--cube-side": ints(-1, 4),
    "--window-2d": csv_ints(-2, 12, 6),
    "--boxes": as_json(mostly(boxes | st.fixed_dictionaries({"boxes_2pi": boxes}), json_values)),
}
MODES = {"construct": ["auto", "small", "large"], "certify": ["auto", "small", "large"],
         "density": ["auto", "small", "large"], "select": ["riesz", "bessel", "tight"]}
SPECTRA = [["--measure"], ["--bands"]] * 3 + [[], ["--bands", "--measure"]]
POINTS = [[], [], ["--points"], ["--step"], ["--points", "--step"]]
# partition's selector, and so its --boxes Gram, grows as window^dim / r
PARTITION = {"--window": ints(-3, 16), "--r": ints(-1, 3)}
OTHER = {
    "construct": ["--window"],
    "certify": ["--window", "--schedule", "--threshold", "--drop-ratio"],
    "select": ["--window", "--r", "--threshold", "--seed"],
    "partition": ["--dim", "--r", "--window-2d", "--window", "--cube-side", "--boxes", "--seed"],
    "density": ["--window"],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OTHER)))
    flags = draw(st.lists(st.sampled_from(OTHER[command]), max_size=4, unique=True))
    if command != "partition":
        flags += draw(st.sampled_from(SPECTRA))
    if command in ("certify", "density"):
        flags += draw(st.sampled_from(POINTS))
    argv = [command]
    for flag in flags:
        argv += [flag, draw((PARTITION if command == "partition" else {}).get(flag, FLAGS[flag]))]
    if command in MODES:
        argv += ["--mode", draw(st.sampled_from(MODES[command]))]
    if command == "select":
        argv += ["--trials", "5"]  # the default of 10000 trials is slow
    return argv


@settings(max_examples=300, deadline=None, database=None)
@given(argvs())
@example(["density", "--points", json.dumps([far, far + 3])])
def test_cli_never_raises(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code != 1:
        # not strict: gap stats can print Infinity until the schema bump
        assert json.loads(out.getvalue())["command"] == argv[0]


ints = st.integers() | st.integers(2**63, 2**80) | st.booleans()  # bools are ints to the C encoder
emit_leaves = (st.none() | ints | st.floats() | st.floats().map(np.float64)
               | st.sampled_from([-0.0, float("inf"), -float("inf"), float("nan")]) | st.text())
emit_values = st.recursive(
    emit_leaves | st.lists(ints) | st.lists(st.lists(ints, min_size=1)),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=2),  # keys the stdlib converts
    max_leaves=30,
)


@settings(max_examples=500, deadline=None, database=None)
@given(emit_values)
@example([[], [[]], {}, [{}], {"a": []}, [[1], []], [[1], 2], [1, [2]], [[[1]]], [[1], [[2]]]])
@example({"\u00e9t\u00e9": ["\u2028\"\\", [True, 1, False], [[2**64, -0.0], [float("nan")]]],
          "z": {"": -float("inf")}, "a": (1, (2, 3))})
def test_json_writer_matches_the_stdlib(value):
    assert _json(value) == json.dumps(value, indent=2, sort_keys=True)


INT64 = st.integers(-2 ** 63, 2 ** 63 - 1) | st.sampled_from([-2 ** 63, 2 ** 63 - 1, -1, 0])
int64_matrices = st.integers(1, 4).flatmap(
    lambda d: hnp.arrays(np.int64, st.tuples(st.integers(1, 8), st.just(d)), elements=INT64))


def _nested(leaf, depth):
    """leaf under depth levels of dicts, beside a sibling key on each level."""
    for level in range(depth):
        leaf = {"selector": leaf, "dim": level}
    return leaf


@settings(max_examples=300, deadline=None, database=None)
@given(int64_matrices, st.integers(1, 3))
@example(np.array([[-2 ** 63, 2 ** 63 - 1, 0, -1]]), 1)
@example(np.array([[7]]), 2)
def test_json_writer_matches_the_stdlib_on_int64_matrices(arr, depth):
    # a partition selector is written from its array, never from a list of rows
    want = json.dumps(_nested(arr.tolist(), depth), indent=2, sort_keys=True)
    assert _json(_nested(arr, depth)) == want


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_json_writer_matches_the_stdlib_on_matrices_of_many_chunks(d):
    # rows are encoded a block at a time: a matrix of several blocks, and a last partial one
    arr = np.random.default_rng(d).integers(-2 ** 63, 2 ** 63 - 1, size=(2 * 4096 + 3, d))
    arr[::1000] = 0
    assert _json({"selector": arr}) == json.dumps({"selector": arr.tolist()}, indent=2)
    # and written a block at a time: no piece holds more than one block of rows
    longest = max(map(len, _json_pieces({"selector": arr})))
    assert longest <= len(_json({"selector": arr[:4096]}))
