"""Output checks that do not reuse the code paths they check.

Point sets are recomputed with 80-digit Decimal arithmetic instead of the
package's exact Q(sqrt(D)) arithmetic; Grams are rebuilt from the closed-form
arc and box coefficients with vectorized numpy instead of `build_gram`;
partitions are re-enumerated from the documented axis-cycling rule.  Each
check returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import itertools
import json
import math
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi
VERDICT_EXIT = {"supported": 0, "refuted": 2, "inconclusive": 3}
LAMBDA_TOL = 1e-8
DECIMAL_PREC = 80
AMBIGUOUS = Decimal("1e-50")


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def parse_strict(text: str):
    """Parse one JSON document, rejecting NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


# ------------------------------------------------------------ oracles --

def _quad_parts(obj) -> tuple[Fraction, Fraction, int]:
    return Fraction(obj["p"]), Fraction(obj["q"]), int(obj["D"])


def _decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def _quad_decimal(obj) -> Decimal:
    p, q, d = _quad_parts(obj)
    return _decimal(p) + _decimal(q) * Decimal(d).sqrt()


class Membership:
    """frac(alpha*x) in the Riesz interval, decided in 80-digit Decimal."""

    def __init__(self, params: dict):
        self.small = params["mode"] == "small"
        self.exact_alpha = _quad_parts(params["alpha"])
        self.exact_a = _quad_parts(params["a"])
        with localcontext() as ctx:
            ctx.prec = DECIMAL_PREC
            self.alpha = _quad_decimal(params["alpha"])
            self.a = _quad_decimal(params["a"])

    def _hits_a(self, x: int) -> bool:
        """Exactly frac(alpha*x) == a, i.e. alpha*x - a is an integer."""
        (lp, lq, _), (ap, aq, _) = self.exact_alpha, self.exact_a
        return lq * x == aq and (lp * x - ap).denominator == 1

    def __call__(self, x: int) -> bool:
        with localcontext() as ctx:
            ctx.prec = DECIMAL_PREC
            v = self.alpha * x
            f = v - v.to_integral_value(rounding=ROUND_FLOOR)
            if x != 0 and min(abs(f - self.a), f, 1 - f) < AMBIGUOUS:
                # alpha is irrational, so frac(alpha*x) meets 0 only at x = 0;
                # the construction puts x = -(n-1) exactly on a
                if not self._hits_a(x):
                    raise ArithmeticError(f"orbit point {x} too close to an endpoint")
                return not self.small
            return (f < self.a) == self.small

    def members(self, lo: int, hi: int) -> list[int]:
        return [x for x in range(lo, hi + 1) if self(x)]

    def nearest(self, count: int) -> list[int]:
        """The `count` members closest to 0, ordered as certify orders them."""
        out, x = [], 0
        while len(out) < count:
            for y in ((0,) if x == 0 else (-x, x)):
                if self(y) and len(out) < count:
                    out.append(y)
            x += 1
        return out


def arc_gram(freqs, band_list, normalized: bool) -> np.ndarray:
    """Gram of exp(i*p*t) on a band list given in fractions of 2*pi."""
    p = np.asarray(freqs, dtype=np.int64)
    m = (p[None, :] - p[:, None]).astype(float)
    safe = np.where(m == 0, 1.0, m)
    c = np.zeros(m.shape, dtype=complex)
    for lo, hi in band_list:
        a, b = lo * TWO_PI, hi * TWO_PI
        c += np.where(m == 0, b - a, (np.exp(-1j * m * a) - np.exp(-1j * m * b)) / (1j * safe))
    return c / TWO_PI if normalized else c


def box_gram(cells, boxes_2pi) -> np.ndarray:
    """Normalized Gram of exp(i<k,t>) on a union of boxes (fractions of 2*pi)."""
    k = np.asarray(cells, dtype=np.int64)
    dim = k.shape[1]
    diff = (k[None, :, :] - k[:, None, :]).astype(float)
    safe = np.where(diff == 0, 1.0, diff)
    c = np.zeros(diff.shape[:2], dtype=complex)
    for box in boxes_2pi:
        term = np.ones(diff.shape[:2], dtype=complex)
        for axis, (lo, hi) in enumerate(box):
            a, b = lo * TWO_PI, hi * TWO_PI
            m, s = diff[:, :, axis], safe[:, :, axis]
            term *= np.where(m == 0, b - a, (np.exp(-1j * m * a) - np.exp(-1j * m * b)) / (1j * s))
        c += term
    return c / TWO_PI ** dim


def _extremes(g: np.ndarray) -> tuple[float, float]:
    w = np.linalg.eigvalsh(g)
    return float(w[0]), float(w[-1])


def _close(got: float, want: float, scale: float = 1.0) -> bool:
    return abs(got - want) <= LAMBDA_TOL * max(1.0, abs(scale))


# ------------------------------------------------------- construction --

def _check_params(params: dict, band_list, problems: list) -> None:
    share = sum(hi - lo for lo, hi in band_list)
    if abs(params["s_norm"] - share) > 1e-9:
        problems.append(f"s_norm {params['s_norm']} != band share {share}")
    mode, n = params["mode"], params["n"]
    if mode != ("small" if share <= 0.5 else "large"):
        problems.append(f"mode {mode} for share {share}")
    ap, aq, d = _quad_parts(params["a"])
    lp, lq, _ = _quad_parts(params["alpha"])
    if (lp, lq) != ((1 - ap) / (n - 1), -aq / (n - 1)):
        problems.append("alpha != (1 - a)/(n - 1)")
    exact = Fraction(params["s_norm"])
    if mode == "small":
        lower, upper = Fraction(1, n), min(exact, Fraction(1, n - 1))
    else:
        lower, upper = max(Fraction(1, n + 1), 1 - exact), Fraction(1, n)
    with localcontext() as ctx:
        ctx.prec = DECIMAL_PREC
        a = _quad_decimal(params["a"])
        if not _decimal(lower) < a < _decimal(upper):
            problems.append(f"a outside its admissible interval ({lower}, {upper})")


def _gap_values(elems) -> set[int]:
    return {b - a for a, b in zip(elems, elems[1:])}


def _check_gap_law(params: dict, gap_values, problems: list) -> None:
    allowed = {1, params["n"]} if params["mode"] == "small" else {1, 2}
    if not set(gap_values) <= allowed:
        problems.append(f"gap values {sorted(gap_values)} escape {sorted(allowed)}")


def check_construct(payload: dict, code: int, facts: dict) -> list[str]:
    problems: list[str] = []
    w = facts["window"]
    params = payload["params"]
    _check_params(params, facts["bands"], problems)
    if payload["landau"] != "pass":
        problems.append("landau check failed")
    elems = payload["points"]["elements"]
    if payload["points"]["window"] != [-w, w]:
        problems.append(f"window {payload['points']['window']} != [-{w}, {w}]")
    if elems != Membership(params).members(-w, w):
        problems.append("point set differs from the Decimal oracle")
    gaps = _gap_values(elems)
    _check_gap_law(params, gaps, problems)
    if payload["gap_stats"]["gap_values"] != sorted(gaps):
        problems.append("gap_stats.gap_values disagree with the elements")
    if abs(payload["density"]["asymptotic"] - len(elems) / (2 * w + 1)) > 1e-12:
        problems.append("asymptotic density disagrees with the element count")
    if params["mode"] == "large":
        kept = set(elems)
        removed = [x for x in range(-w, w + 1) if x not in kept]
        n = params["n"]
        if removed and min(_gap_values(removed), default=n) < n:
            problems.append(f"removed points closer than n={n}")
        if payload["removed_separation_bound"] != n or \
                min(payload["removed_gap_stats"]["gap_values"], default=n) < n:
            problems.append("removed_gap_stats contradict the separation bound")
    return problems


def check_density(payload: dict, code: int, facts: dict) -> list[str]:
    problems: list[str] = []
    w = facts["window"]
    params = payload["params"]
    _check_params(params, facts["bands"], problems)
    if payload["landau"] != "pass":
        problems.append("landau check failed")
    count = len(Membership(params).members(-w, w))
    if payload["points"]["count"] != count:
        problems.append(f"count {payload['points']['count']} != oracle count {count}")
    _check_gap_law(params, payload["gap_stats"]["gap_values"], problems)
    return problems


# ------------------------------------------------------- certificates --

def check_certify(payload: dict, code: int, facts: dict) -> list[str]:
    problems: list[str] = []
    cert = payload["certificate"]
    schedule = list(facts["schedule"])
    lmin, lmax = cert["lambda_min"], cert["lambda_max"]
    if cert["schedule"] != schedule or len(lmin) != len(schedule) or len(lmax) != len(schedule):
        return [f"schedule {cert['schedule']} != requested {schedule}"]
    scale = max(abs(v) for v in lmin + lmax)
    slack = LAMBDA_TOL * max(1.0, scale)
    if any(b > a + slack for a, b in zip(lmin, lmin[1:])):
        problems.append(f"lambda_min increases along nested sections: {lmin}")
    if any(b < a - slack for a, b in zip(lmax, lmax[1:])):
        problems.append(f"lambda_max decreases along nested sections: {lmax}")

    prev, last = (lmin[-2], lmin[-1]) if len(lmin) >= 2 else (lmin[-1], lmin[-1])
    drop = max(0.0, (prev - last) / prev) if prev > 0 else (0.0 if last >= prev else math.inf)
    threshold, floor = 1e-3 * TWO_PI, 1e-6 * TWO_PI
    if last < floor:
        verdict = "refuted"
    elif last >= threshold and drop <= cert["drop_ratio"]:
        verdict = "supported"
    else:
        verdict = "inconclusive"
    if cert["verdict"] != verdict:
        problems.append(f"verdict {cert['verdict']} but the bounds give {verdict}")
    if code != VERDICT_EXIT.get(cert["verdict"]):
        problems.append(f"exit code {code} for verdict {cert['verdict']}")

    n = schedule[0]
    if facts["step"] is not None:
        k, w = facts["step"], facts["window"]
        elems = range(-(w // k) * k, w + 1, k)
        first = sorted(sorted(elems, key=lambda x: (abs(x), x))[:n])
    else:
        if "params" not in payload:
            return problems + ["constructed certificate without params"]
        _check_params(payload["params"], facts["bands"], problems)
        first = sorted(Membership(payload["params"]).nearest(n))
    want_min, want_max = _extremes(arc_gram(first, facts["bands"], normalized=False))
    if not (_close(lmin[0], want_min, scale) and _close(lmax[0], want_max, scale)):
        problems.append(f"first section bounds ({lmin[0]}, {lmax[0]}) != "
                        f"recomputed ({want_min}, {want_max})")
    return problems


# ---------------------------------------------------------- selection --

def check_select(payload: dict, code: int, facts: dict) -> list[str]:
    problems: list[str] = []
    result = payload["result"]
    labels, r = result["labels"], facts["r"]
    blocks = facts["window"] // r
    if len(labels) != blocks or any(not r * i <= lab < r * (i + 1) for i, lab in enumerate(labels)):
        problems.append("labels are not one pick per block")
        return problems
    lmin, lmax = _extremes(arc_gram(labels, facts["bands"], normalized=True))
    if not (_close(result["lambda_min"], lmin) and _close(result["lambda_max"], lmax)):
        problems.append(f"reported ({result['lambda_min']}, {result['lambda_max']}) != "
                        f"recomputed ({lmin}, {lmax})")
    mode, target = facts["mode"], result["target"]
    if mode == "riesz":
        met = lmin >= target
    elif mode == "bessel":
        met = lmax <= target
    else:
        met = lmin >= 1.0 - target and lmax <= 1.0 + target
    if result["met"] != met or met != facts["expect_met"]:
        problems.append(f"met={result['met']}, recomputed {met}, expected {facts['expect_met']}")
    if not facts["expect_met"] and result["trials"] != facts["trials"]:
        problems.append(f"unmet search stopped after {result['trials']} of {facts['trials']} trials")
    if mode == "riesz" and facts["expect_met"] and result["trials"] != 1:
        problems.append(f"target {target} took {result['trials']} trials, expected 1")
    return problems


# --------------------------------------------------------- partitions --

def cycling_segments(dim: int, r: int, w: int) -> list[list[tuple[int, ...]]]:
    """Segments of [0, w-1]^dim in the documented order, axis j = (sum k/r) mod d."""
    segments = []
    for base in itertools.product(range(0, w, r), repeat=dim):
        residue = (sum(base) // r) % dim
        axis = dim - 1 if residue == 0 else residue - 1
        for offsets in itertools.product(range(r), repeat=dim - 1):
            rel = list(offsets[:axis]) + [0] + list(offsets[axis:])
            cells = []
            for t in range(r):
                rel[axis] = t
                cells.append(tuple(b + o for b, o in zip(base, rel)))
            segments.append(cells)
    return segments


def _section_report(selector, dim: int, w: int) -> list[dict]:
    report = []
    for axis in range(dim):
        sections: dict[tuple, list[int]] = {}
        for cell in selector:
            key = cell[:axis] + cell[axis + 1:]
            sections.setdefault(key, []).append(cell[axis])
        max_gap, thin = 0, w ** (dim - 1) - sum(len(v) >= 2 for v in sections.values())
        for coords in sections.values():
            coords.sort()
            if len(coords) >= 2:
                max_gap = max(max_gap, max(b - a for a, b in zip(coords, coords[1:])))
        report.append({"axis": axis + 1, "max_section_gap": max_gap,
                       "sections_under_two_points": thin})
    return report


def check_partition(payload: dict, code: int, facts: dict) -> list[str]:
    problems: list[str] = []
    dim, r, w = facts["dim"], facts["r"], facts["window"]
    segments = cycling_segments(dim, r, w)
    cells = [c for seg in segments for c in seg]
    if len(cells) != w ** dim or len(set(cells)) != len(cells):
        return ["re-enumerated segments are not an exact cover"]
    if payload["segment_count"] != len(segments):
        problems.append(f"segment_count {payload['segment_count']} != {len(segments)}")
    selector = [tuple(c) for c in payload["selector"]]
    if len(selector) != len(segments) or \
            any(cell not in seg for cell, seg in zip(selector, segments)):
        problems.append("selector is not one cell per segment")
        return problems
    report = _section_report(selector, dim, w)
    if payload["section_gaps"] != report:
        problems.append("section_gaps disagree with the selector")
    bound = 2 * dim * r
    if not payload["section_gap_ok"] or max(a["max_section_gap"] for a in report) > bound:
        problems.append(f"section gaps exceed {bound}")
    radius_bound = payload["cube_side"] * math.sqrt(dim)
    if not payload["covering_ok"] or payload["covering_radius"] > radius_bound:
        problems.append(f"covering radius {payload['covering_radius']} > {radius_bound}")
    if facts["boxes"] is not None:
        lmin, lmax = _extremes(box_gram(selector, facts["boxes"]))
        quality = payload["quality"]
        if not (_close(quality["lambda_min"], lmin) and _close(quality["lambda_max"], lmax)):
            problems.append(f"quality ({quality['lambda_min']}, {quality['lambda_max']}) != "
                            f"recomputed ({lmin}, {lmax})")
    return problems


CHECKS = {
    "construct": check_construct,
    "density": check_density,
    "certify": check_certify,
    "select": check_select,
    "partition": check_partition,
}


def check_op(op, code: int, stdout: str) -> list[str]:
    """All problems with one op's exit code and stdout."""
    if code not in op.exit_codes:
        return [f"exit code {code}, expected one of {sorted(op.exit_codes)}"]
    try:
        payload = parse_strict(stdout)
    except ValueError as exc:
        return [f"stdout is not strict JSON: {exc}"]
    if payload.get("schema") != "riesz-forge/1" or payload.get("command") != op.kind:
        return [f"unexpected schema/command {payload.get('schema')}/{payload.get('command')}"]
    return CHECKS[op.kind](payload, code, op.facts)
