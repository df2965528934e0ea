"""Partitioning the planar lattice so one-per-part selectors stay spread out.

Length-r segments whose axis cycles from cube to cube tile Z^2 so that ANY
choice of one point per segment remains syndetic along every horizontal and
vertical line, with gaps at most 2*d*r.  Plain s-cubes give the coarser
guarantee of covering radius s*sqrt(d).  A 2-D box spectrum turns a selector
into an exponential system whose Gram can be checked directly.
"""

import math

import numpy as np

import rieszforge as rf


def main():
    window = rf.LatticeWindow(lo=(0, 0), hi=(17, 17))
    # an int64 array of shape (segments, 3, 2): each segment's cells in order
    segments = rf.cycling_partition(2, 3, window)
    print(f"{len(segments)} segments of length 3 tile the 18x18 window")

    # one cell per segment, drawn in one call, as a list of [x, y] points
    rng = np.random.default_rng(0)
    selector = segments[np.arange(len(segments)), rng.integers(3, size=len(segments))].tolist()

    worst = 0
    for axis in (1, 2):
        for fixed in range(18):
            st = rf.section_gaps(selector, axis, (fixed,), window)
            worst = max(worst, int(st.gamma))
    print(f"worst 1-D section gap of a random selector: {worst} "
          f"(guarantee: <= {2 * 2 * 3})")

    cubes = rf.cube_partition(2, 3, window)  # shape (cubes, 9, 2)
    cube_sel = cubes[np.arange(len(cubes)), rng.integers(9, size=len(cubes))].tolist()
    radius = rf.covering_radius(cube_sel, window)
    print(f"covering radius of a one-per-cube selector: {radius:.4f} "
          f"(guarantee: <= {3 * math.sqrt(2):.4f})")

    # spectral quality of the segment selector on a small 2-D box spectrum
    box = rf.BoxSet.from_json({"boxes_2pi": [[[0.0, 0.45], [0.0, 0.45]]]})
    g = rf.build_gram(selector, box, normalized=True)
    be = rf.extreme_eigs(g)
    print(f"\nnormalized Gram on a {box.fraction_of_torus:.1%} box spectrum: "
          f"lambda_min = {be.lambda_min:.2e}, lambda_max = {be.lambda_max:.4f}")
    print("(a 2-D box this small cannot support the full selector density; "
          "the Gram is rank-deficient, and the upper bound is what matters)")


if __name__ == "__main__":
    main()
