"""Lattice partitions, one-per-part draws and section reports in nested Python
loops over tuples, written apart from the package's array code (no import of
rieszforge) so that tests can compare the two cell by cell."""

import itertools
import math


def _bases(lo, hi, step):
    return itertools.product(*(range(a, b + 1, step) for a, b in zip(lo, hi)))


def cycling_partition(d, r, lo, hi):
    """(base, axis, cells) per segment, in order: the cube base, the 1-based
    axis (k_1+...+k_d)/r mod d (0 -> d) and the r cells along it, as tuples."""
    segments = []
    for base in _bases(lo, hi, r):
        residue = (sum(base) // r) % d
        axis = d if residue == 0 else residue
        before = axis - 1
        for offsets in itertools.product(range(r), repeat=d - 1):
            cells = []
            for t in range(r):
                rel = offsets[:before] + (t,) + offsets[before:]
                cells.append(tuple(k + o for k, o in zip(base, rel)))
            segments.append((base, axis, tuple(cells)))
    return segments


def cube_partition(d, s, lo, hi):
    """(base, cells) per aligned s-cube, in order, the cells as tuples."""
    return [(base, tuple(tuple(k + o for k, o in zip(base, rel))
                         for rel in itertools.product(range(s), repeat=d)))
            for base in _bases(lo, hi, s)]


def draw(parts, rng, mirror=None):
    """One cell of each part (a sequence of cells), one scalar draw per part.

    With mirror = (lo, hi) in one or two dimensions, where the image of every
    part under x -> lo + hi - x is a part, the picks are made point-symmetric:
    a part after its image takes the image of its image's pick, and a part that
    is its own image takes the cell that is its own image, if it has one.  The
    image part is found by looking its cells up, whatever its index."""
    picks = [part[int(rng.integers(len(part)))] for part in parts]
    if mirror is None or len(mirror[0]) > 2:
        return picks
    lo, hi = mirror

    def image(cell):
        return tuple(a + b - x for a, b, x in zip(lo, hi, cell))

    home = {}
    for i, part in enumerate(parts):
        for cell in part:
            home[cell] = i
    images = []
    for part in parts:
        owners = {home.get(image(cell)) for cell in part}
        if len(owners) != 1 or None in owners:
            return picks  # this part's image is no part: no mirrored draw
        (i,) = owners
        if len(parts[i]) != len(part):
            return picks
        images.append(i)
    for s, i in enumerate(images):
        if i < s:
            picks[s] = image(picks[i])
        elif i == s:
            for cell in parts[s]:
                if image(cell) == cell:
                    picks[s] = cell
    return picks


def section_report(points, lo, hi):
    """section_report of d-tuples in a dict of sections per axis; points
    outside the window [lo, hi] are dropped."""
    inside = [p for p in points if all(a <= x <= b for a, x, b in zip(lo, p, hi))]
    cells = math.prod(b - a + 1 for a, b in zip(lo, hi))
    report = []
    for axis in range(len(lo)):
        sections = {}
        for p in inside:
            sections.setdefault(p[:axis] + p[axis + 1:], []).append(p[axis])
        full = [sorted(c) for c in sections.values() if len(c) >= 2]
        gap = max((b - a for c in full for a, b in zip(c, c[1:])), default=0)
        report.append({"axis": axis + 1, "max_section_gap": gap,
                       "sections_under_two_points":
                           cells // (hi[axis] - lo[axis] + 1) - len(full)})
    return report
