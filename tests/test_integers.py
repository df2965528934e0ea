"""One integer rule at every library boundary: integral values of any numeric
type are accepted, while bools and fractional, non-finite or non-numeric values
raise a ValueError that names the value."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from rieszforge import BlockSystem, BoxSet, LatticeWindow, PointSet, QuadNum, \
    SelectorConfig, UnitInterval, build_gram, certify, cube_partition, \
    cycling_partition, generate, generate_centered, kahane_classify, \
    normalize_bands, predicted_bessel_bound, section_gaps, select_riesz, stabilize
from rieszforge.quadfield import integers

HALF = normalize_bands([(0.0, 0.5)], unit="2pi")
SQUARE = BoxSet(boxes=(((0.0, 1.0), (0.0, 1.0)),))
ALPHA6 = QuadNum(Fraction(1, 2), Fraction(-1, 12), 6)
PLANE = LatticeWindow(lo=(0, 0), hi=(3, 3))

# each boundary as a call that puts the value v where an integer belongs
BOUNDARIES = {
    "build_gram": lambda v: build_gram([0, v, 3], HALF),
    "build_gram_tuples": lambda v: build_gram([(0, 0), (1, v)], SQUARE),
    "generate_window": lambda v: generate(ALPHA6, UnitInterval(0, 1), (0, v)),
    "certify_points": lambda v: certify([0, v, 3, 4], HALF, 0.1, schedule=(2, 4)),
    "certify_schedule": lambda v: certify([0, 1, 3, 4], HALF, 0.1, schedule=(1, v)),
    "select_blocks": lambda v: select_riesz(np.eye(2), ((0, v),), 0.1),
    "block_system": lambda v: BlockSystem(blocks=((0, v),)),
    "block_intervals": lambda v: BlockSystem.intervals([0, v, 4, 5], 2),
    "block_intervals_size": lambda v: BlockSystem.intervals(range(8), v),
    "selector_seed": lambda v: SelectorConfig(master_seed=v),
    "selector_trials": lambda v: SelectorConfig(max_trials=v),
    "predicted_bessel_bound": lambda v: predicted_bessel_bound(v, 0.1),
    "cycling_partition_dim": lambda v: cycling_partition(v, 2, PLANE),
    "cycling_partition_length": lambda v: cycling_partition(2, v, PLANE),
    "cube_partition_dim": lambda v: cube_partition(v, 2, PLANE),
    "cube_partition_side": lambda v: cube_partition(2, v, PLANE),
    "section_gaps_axis": lambda v: section_gaps([(0, 0), (2, 0)], v, (0,), PLANE),
    "section_gaps_fixed": lambda v: section_gaps([(0, 0), (2, 0)], 1, (v,), PLANE),
    "generate_centered_count": lambda v: generate_centered(ALPHA6, UnitInterval(0, 1), v),
    "kahane_step": lambda v: kahane_classify(v, HALF),
    "stabilize": lambda v: stabilize([(0,), (0, v)]),
    "lattice_window_lo": lambda v: LatticeWindow(lo=(0, v), hi=(5, 5)),
    "lattice_window_hi": lambda v: LatticeWindow(lo=(0, 0), hi=(5, v)),
    "point_set_elements": lambda v: PointSet(elements=(0, v, 3), window=(0, 3)),
    "point_set_window": lambda v: PointSet(elements=(0, 2), window=(0, v)),
    "point_set_json": lambda v: PointSet.from_json({"elements": [0, v], "window": [0, 3]}),
    "box_frequency": lambda v: SQUARE.fourier_coefficient((0, v)),
    "band_frequencies": lambda v: HALF.fourier_coefficient([[0], [v]]),
}


@pytest.mark.parametrize("value", [1.5, True, math.nan, math.inf, "3"],
                         ids=["fraction", "bool", "nan", "inf", "string"])
@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_boundary_rejects_non_integers(boundary, value):
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        BOUNDARIES[boundary](value)


def test_integers_accepts_integral_values_as_ints():
    got = integers([3, np.int64(-4), 5.0, np.float64(6.0), Fraction(14, 2), 2 ** 70], "x")
    assert got == (3, -4, 5, 6, 7, 2 ** 70)
    assert all(type(n) is int for n in got)
    assert integers(iter(range(3)), "x") == (0, 1, 2)
    with pytest.raises(ValueError, match="x must be a list of integers, got 5"):
        integers(5, "x")
    with pytest.raises(ValueError, match="x must be integers, got "):
        integers([0, np.True_], "x")


def test_boundaries_store_python_ints():
    ps = PointSet(elements=(0.0, np.int64(2), Fraction(3)), window=(0.0, 3.0))
    assert ps == PointSet(elements=(0, 2, 3), window=(0, 3))
    assert all(type(n) is int for n in (*ps.elements, *ps.window))
    assert LatticeWindow(lo=(0.0, np.int64(0)), hi=(2, 2.0)).hi == (2, 2)
    assert BlockSystem(blocks=[[0.0, np.int64(1)]]).blocks == ((0, 1),)
    assert stabilize([[0.0], (np.int64(0), 1.0)]) == (2, (0, 1))
    assert BlockSystem.intervals(range(8), 2.0) == BlockSystem.intervals(range(8), 2)
    assert cycling_partition(2.0, np.int64(2), PLANE) == cycling_partition(2, 2, PLANE)
    assert cube_partition(np.int64(2), 2.0, PLANE) == cube_partition(2, 2, PLANE)
    assert section_gaps([(0, 0), (2, 0)], 1.0, (np.int64(0),), PLANE).gaps == (2,)
    assert kahane_classify(4.0, HALF) == kahane_classify(4, HALF)
    config = SelectorConfig(master_seed=np.int64(3), max_trials=5.0)
    assert type(config.master_seed) is type(config.max_trials) is int
    json.dumps(select_riesz(np.eye(2), ((0, 1),), 0.1, config).to_json())  # numpy seed
    with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
        SelectorConfig(master_seed=-1)
    assert QuadNum.from_json({"p": "0/1", "q": "1/1", "D": 2.0}) == QuadNum(0, 1, 2)
    with pytest.raises(ValueError, match="2.5"):
        QuadNum.from_json({"p": "0/1", "q": "1/1", "D": 2.5})
