"""Per-layer tracing by wrapping the package's public functions from outside.

`Tracer.install()` replaces every function named in a module's `__all__`
with a timing wrapper, in that module and in every package module that
imported it by name (so `cli`'s `from .frames import select_riesz` is
covered too), and wraps `cli.main` as the root span of each op;
`uninstall()` puts the originals back.  Nothing under `src/` is modified.

Spans are kept in memory as [name, start, end, parent index] and reduced to
self times: a span's duration minus the time its child spans cover.
`quad_sign` runs millions of times per pass, so it gets a counter instead of
a span and its time stays in the caller's self time.  `numpy.linalg.eigvalsh`
and `eigh` get counters keyed by the innermost open span, which is how
eigensolves inside the selection search are counted.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "rieszforge"
MODULES = ("quadfield", "torus", "quasicrystal", "gram", "frames", "lattice", "cli")
SELECT = ("frames.select_riesz", "frames.select_bessel", "frames.select_tight")
STATS = ("quasicrystal.gap_stats", "quasicrystal.density_stats", "quasicrystal.landau_check")
LATTICE = ("lattice.cycling_partition", "lattice.cube_partition", "lattice.covering_radius",
           "lattice.section_gaps", "lattice.indicator_fourier_d")

# Span groups compared when naming a workload's dominant layer.
GROUPS = {
    "quasicrystal.generate": ("quasicrystal.generate", "quasicrystal.generate_centered"),
    "quasicrystal.stats": STATS,
    "torus.indicator_fourier": ("torus.indicator_fourier",),
    "gram.build_gram+extreme_eigs": ("gram.build_gram", "gram.extreme_eigs"),
    "gram.certify": ("gram.certify",),
    "frames.select": SELECT,
    "frames.exponential_system": ("frames.exponential_system",),
    "lattice+gram.build_gram.tuple": LATTICE + ("gram.build_gram.tuple",),
    "cli": ("cli.main",),
}

# Bytes per Gram entry that build_gram materializes: an int64 difference and
# a complex128 value.  Sum(n^2) * 24 B is a computed figure, not a measurement.
GRAM_ENTRY_BYTES = 24


class Tracer:
    """Spans and counters for the package's public functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    # -------------------------------------------------------- wrappers --

    def _wrap(self, name: str, fn, label=None, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span_name = name
            if label is not None:
                args, span_name = label(args)
            index = len(spans)
            record = [span_name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _eig_counter(self, fn):
        counts, spans, stack = self.counts, self.spans, self.stack

        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            owner = spans[stack[-1]][0] if stack else ""
            counts["eig." + owner] += math.prod(shape[:-2])
            return fn(a, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------ observers --

    def _build_gram_label(self, args):
        points = list(args[0])
        self.counts["gram.build_gram.entries"] += len(points) ** 2
        tuple_path = bool(points) and isinstance(points[0], tuple)
        return (points, *args[1:]), "gram.build_gram.tuple" if tuple_path else "gram.build_gram"

    def _observe_generate(self, args, result):
        lo, hi = args[2]
        self.counts["quasicrystal.generate.ints"] += int(hi) - int(lo) + 1

    def _observe_eigs(self, args, result):
        n = int(np.shape(args[0])[0])
        self.counts["gram.extreme_eigs.max_n"] = max(self.counts["gram.extreme_eigs.max_n"], n)

    def _observe_select(self, args, result):
        self.counts["frames.select.ops"] += 1
        self.counts["frames.select.trials"] += result.trials
        self.counts["frames.select.met"] += bool(result.met)

    def _observe_cycling(self, args, result):
        self.counts["lattice.cycling_partition.segments"] += len(result)

    # ------------------------------------------------------- patching --

    def install(self) -> list[str]:
        """Wrap the public functions; return the references to them that stay unwrapped.

        Module attributes are replaced in every loaded module of the package.
        A reference that attribute patching cannot reach (a module-level
        dict, list or tuple entry, a class attribute, a default argument or a
        functools.partial) would let its calls escape their spans, so each one
        is returned, and the run reports it as a failed check.
        """
        modules = {m: sys.modules[f"{PACKAGE}.{m}"] for m in MODULES}
        package = [mod for name, mod in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        observers = {
            "quasicrystal.generate": self._observe_generate,
            "gram.extreme_eigs": self._observe_eigs,
            "lattice.cycling_partition": self._observe_cycling,
            **{name: self._observe_select for name in SELECT},
        }
        originals, wrapped = {}, {}
        for short, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                originals[id(fn)] = fn
                if name == "quadfield.quad_sign":
                    wrapped[id(fn)] = self._counter("quadfield.quad_sign.calls", fn)
                elif name == "gram.build_gram":
                    wrapped[id(fn)] = self._wrap(name, fn, label=self._build_gram_label)
                else:
                    wrapped[id(fn)] = self._wrap(name, fn, observe=observers.get(name))
        quad_sign = modules["quadfield"].quad_sign
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if not _is_original(value, originals):
                    continue
                replacement = wrapped[id(value)]
                if value is quad_sign and mod is modules["quasicrystal"]:
                    # the generator loop's own reference, counted apart for per_int
                    replacement = self._counter("quadfield.quad_sign.generate_calls", value)
                self._patched.append((mod, attr, value))
                setattr(mod, attr, replacement)
        cli = modules["cli"]
        self._patched.append((cli, "main", cli.main))
        cli.main = self._wrap("cli.main", cli.main)
        for attr in ("eigvalsh", "eigh"):
            fn = getattr(np.linalg, attr)
            self._patched.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, self._eig_counter(fn))
        return [where for mod in package for where in _unwrapped(mod, originals)]

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # ------------------------------------------------------ reduction --

    def self_times(self) -> dict[str, float]:
        """Self time per span name over everything recorded since reset()."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return dict(out)

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)


def _is_original(value, originals: dict[int, object]) -> bool:
    return id(value) in originals and originals[id(value)] is value


def _unwrapped(mod, originals: dict[int, object]) -> list[str]:
    """Places in a module, other than its own attributes, that hold one of originals."""
    found = []

    def visit(where, value, depth):
        if _is_original(value, originals):
            found.append(where)
            return
        if depth == 0:
            return
        if isinstance(value, dict):
            items = [(f"{where}[{k!r}]", v) for k, v in value.items()]
        elif isinstance(value, (list, tuple, set, frozenset)):
            items = [(f"{where}[{i}]", v) for i, v in enumerate(value)]
        elif isinstance(value, type) and value.__module__ == mod.__name__:
            items = [(f"{where}.{k}", v) for k, v in vars(value).items()]
        elif isinstance(value, (staticmethod, classmethod)):
            items = [(where, value.__func__)]
        elif isinstance(value, functools.partial):
            items = [(f"{where}.func", value.func)]
        elif isinstance(value, types.FunctionType) and value.__module__ == mod.__name__:
            defaults = [*(value.__defaults__ or ()), *(value.__kwdefaults__ or {}).values()]
            items = [(f"{where} default", v) for v in defaults]
        else:
            return
        for inner_where, inner in items:
            visit(inner_where, inner, depth - 1)

    for attr, value in vars(mod).items():
        if attr != "__builtins__":
            visit(f"{mod.__name__}.{attr}", value, 3)
    return found


def group_times(self_s: dict[str, float]) -> dict[str, float]:
    """Self time per dominant-layer group; spans outside every group stand alone."""
    out = {group: sum(self_s.get(n, 0.0) for n in names) for group, names in GROUPS.items()}
    grouped = {n for names in GROUPS.values() for n in names}
    for name, value in self_s.items():
        if name not in grouped:
            out[name] = value
    return out


def pass_metrics(tracer: Tracer, wall_s: float, stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (everything recorded since reset).

    trace.accounted_ratio is the share of the pass's wall time that the
    spans' self times cover; what is missing ran outside any `cli.main` call.
    A call that escapes its own span still lands in its caller's self time,
    so this ratio cannot show it; `Tracer.install()` reports such calls.
    """
    s = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counts

    def t(*names):
        return sum(s.get(n, 0.0) for n in names)

    ints = c["quasicrystal.generate.ints"]
    trials = c["frames.select.trials"]
    select_ops = c["frames.select.ops"]
    return {
        "quadfield.quad_sign.calls": c["quadfield.quad_sign.calls"] + c["quadfield.quad_sign.generate_calls"],
        "quadfield.quad_sign.per_int": c["quadfield.quad_sign.generate_calls"] / ints if ints else 0.0,
        "quasicrystal.generate.s": t("quasicrystal.generate"),
        "quasicrystal.generate.ints": ints,
        "quasicrystal.generate.us_per_int": 1e6 * t("quasicrystal.generate") / ints if ints else 0.0,
        "quasicrystal.generate_centered.s": t("quasicrystal.generate_centered"),
        "quasicrystal.stats.s": t(*STATS),
        "torus.indicator_fourier.calls": calls["torus.indicator_fourier"],
        "torus.indicator_fourier.s": t("torus.indicator_fourier"),
        "gram.build_gram.calls": calls["gram.build_gram"] + calls["gram.build_gram.tuple"],
        "gram.build_gram.s": t("gram.build_gram"),
        "gram.build_gram.tuple_s": t("gram.build_gram.tuple"),
        "gram.build_gram.entries": c["gram.build_gram.entries"],
        "gram.build_gram.computed_mb": c["gram.build_gram.entries"] * GRAM_ENTRY_BYTES / 1e6,
        "gram.extreme_eigs.calls": calls["gram.extreme_eigs"],
        "gram.extreme_eigs.s": t("gram.extreme_eigs"),
        "gram.extreme_eigs.max_n": c["gram.extreme_eigs.max_n"],
        "gram.certify.s": t("gram.certify"),
        "frames.exponential_system.s": t("frames.exponential_system"),
        "frames.select.s": t(*SELECT),
        "frames.select.trials": trials,
        "frames.select.ms_per_trial": 1e3 * t(*SELECT) / trials if trials else 0.0,
        "frames.select.eigensolves": sum(c["eig." + n] for n in SELECT),
        "frames.select.met_ratio": c["frames.select.met"] / select_ops if select_ops else 0.0,
        "lattice.indicator_fourier_d.calls": calls["lattice.indicator_fourier_d"],
        "lattice.cycling_partition.s": t("lattice.cycling_partition"),
        "lattice.cycling_partition.segments": c["lattice.cycling_partition.segments"],
        "lattice.section_gaps.calls": calls["lattice.section_gaps"],
        "lattice.section_gaps.s": t("lattice.section_gaps"),
        "lattice.cube_partition.s": t("lattice.cube_partition"),
        "lattice.covering_radius.s": t("lattice.covering_radius"),
        "cli.self_s": t("cli.main"),
        "cli.stdout_bytes": stdout_bytes,
        "trace.accounted_ratio": sum(s.values()) / wall_s,
    }
