"""Property test: whatever argv and JSON shapes it gets, the CLI exits with a
code of its interface and never with a traceback."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rieszforge.cli import main  # noqa: E402

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
    "--points": as_json(mostly(point_lists | st.fixed_dictionaries(
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
def test_cli_never_raises(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code != 1:
        # not strict: gap stats can print Infinity until the schema bump
        assert json.loads(out.getvalue())["command"] == argv[0]
