"""Finite frame utilities: Parseval completion, Naimark complements, and
randomized one-per-block selection of well-conditioned subsystems.

Completion and the complement take and return synthesis matrices f, whose
columns are the vectors: f @ f^H is the frame operator, f^H @ f the Gram.

The selectors take a Hermitian positive semidefinite Gram, such as
build_gram(range(n), S, normalized=True), whose row index is the label, and
blocks of row indices.  Selection targets come in three flavors:

* select_bessel  minimize lambda_max of the selected Gram (upper bound);
* select_riesz   maximize lambda_min (lower bound);
* select_tight   three stages (quarter blocks for a lower bound, pair blocks
  for the upper bound, then pair blocks on the biorthogonal dual to lift the
  lower bound), ending with one pick per original block and two-sided bounds
  near 1.

Trials draw in chunks of 64 from RNG streams keyed by (master seed, trial
index // 64), so results are bit-reproducible and independent of scheduling.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from .gram import _bounds, _check_hermitian, _cholesky_factors, dual_system
from .quadfield import integers

_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
_CHUNK = 64  # trials drawn from one keyed stream

__all__ = [
    "BlockSystem",
    "SelectorConfig",
    "SelectorResult",
    "complete_to_parseval_small",
    "naimark_complement",
    "pair_bessel_bound",
    "predicted_bessel_bound",
    "select_bessel",
    "select_riesz",
    "select_tight",
    "stabilize",
]


@dataclass(frozen=True)
class BlockSystem:
    """Disjoint, non-empty blocks of labels; selectors pick one label per block."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(integers(b, "block labels") for b in self.blocks)
        if not blocks:
            raise ValueError("need at least one block")
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise ValueError("blocks must be non-empty")
            if seen.intersection(b):
                raise ValueError("blocks must be disjoint")
            seen.update(b)
        object.__setattr__(self, "blocks", blocks)

    @property
    def r_min(self) -> int:
        return min(len(b) for b in self.blocks)

    def __len__(self):
        return len(self.blocks)

    @classmethod
    def intervals(cls, labels, r: int) -> "BlockSystem":
        """Chunk sorted labels into consecutive blocks of size r (tail dropped)."""
        (r,) = integers([r], "block size")
        if r < 1:
            raise ValueError("block size must be positive")
        ordered = sorted(integers(labels, "labels"))
        full = len(ordered) // r
        if full == 0:
            raise ValueError(f"{len(ordered)} labels cannot fill a block of size {r}")
        return cls(blocks=tuple(tuple(ordered[i * r:(i + 1) * r]) for i in range(full)))


@dataclass(frozen=True)
class SelectorConfig:
    """Knobs for the randomized search plus the theory-side reference constants.

    delta0 = 0.1 fixes the pair-selection bound: eps0 = 1 -
    pair_bessel_bound(delta0) and C = 9*((1-delta0)/delta0)^2 give the
    predicted block size 2*ceil(C/eps) for a lower Riesz bound of eps*eps0
    (r = 2 suffices when eps > 3/4).  These constants come from an existence
    proof and are far from empirically sharp; they are reported, never
    asserted.
    """

    delta0: ClassVar[float] = 0.1
    master_seed: int = 0
    max_trials: int = 10000

    def __post_init__(self):
        for name, least in (("master_seed", 0), ("max_trials", 1)):
            (value,) = integers([getattr(self, name)], name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
            object.__setattr__(self, name, value)

    @property
    def eps0(self) -> float:
        return 1.0 - pair_bessel_bound(self.delta0)

    @property
    def big_constant(self) -> float:
        return 9.0 * ((1.0 - self.delta0) / self.delta0) ** 2

    def predicted_block_size(self, eps: float) -> int:
        if eps <= 0:
            raise ValueError("eps must be positive")
        if eps > 0.75:
            return 2
        return 2 * math.ceil(self.big_constant / eps)


@dataclass(frozen=True)
class SelectorResult:
    """One label per block, achieved spectral bounds, and search bookkeeping."""

    labels: tuple[int, ...]
    lambda_min: float
    lambda_max: float
    met: bool
    trials: int
    seed: int
    target: float
    objective: str

    def to_json(self) -> dict:
        return {**asdict(self), "labels": list(self.labels)}


def _synthesis(vectors) -> np.ndarray:
    m = np.asarray(vectors, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {m.shape}")
    return m


def complete_to_parseval_small(vectors, delta: float) -> np.ndarray:
    """Vectors of squared norm <= delta completing `vectors` to a Parseval frame.

    Columns of `vectors` are the vectors.  Requires Bessel bound 1 (to 1e-10,
    which also decides which deficits are zero) and all input squared norms
    <= delta.  For each nonzero eigenvalue lam of the frame operator, adds m
    copies of sqrt((1-lam)/m) times the eigenvector, with m the smallest
    integer making (1 - lam_min_nonzero)/m < delta.  Returns the added vectors
    as the columns of a d x K matrix (K = 0 when none are needed).
    """
    f = _synthesis(vectors)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    tol = 1e-10
    norms = np.real(np.sum(f.conj() * f, axis=0))
    if norms.size and float(norms.max()) > delta + 1e-12:
        raise ValueError(f"a vector has squared norm {norms.max():.6f} > delta={delta}")
    w, v = np.linalg.eigh(f @ f.conj().T)
    if w.size and float(w[-1]) > 1.0 + tol:
        raise ValueError(f"Bessel bound exceeds 1: lambda_max={w[-1]:.6f}")

    zero_tol = max(tol, len(w) * np.finfo(float).eps * max(float(w[-1]), 1.0) if w.size else tol)
    nonzero = w > zero_tol
    deficits = np.maximum(0.0, 1.0 - w[nonzero])
    short = deficits > tol
    if not short.any():
        return np.zeros((f.shape[0], 0), dtype=complex)

    m = math.floor((1.0 - float(w[nonzero].min())) / delta) + 1
    return np.repeat(v[:, nonzero][:, short] * np.sqrt(deficits[short] / m), m, axis=1)


def naimark_complement(vectors) -> np.ndarray:
    """A Parseval frame G with Gram(F) + Gram(G) = I, for Parseval F.

    F and G are synthesis matrices (columns are the vectors); G comes from an
    orthonormal basis of the null space of F, one representative of the
    unitary equivalence class.  The Gram of F must be idempotent to 1e-8.  G
    is (count - rank) x count: an orthonormal-basis input yields 0 x count.
    """
    f = _synthesis(vectors)
    g = f.conj().T @ f
    resid = float(np.abs(g @ g - g).max()) if g.size else 0.0
    if resid > 1e-8:
        raise ValueError(f"Gram is not idempotent (residual {resid:.3e}); "
                         "input must be a Parseval frame for its span")
    _, s, vh = np.linalg.svd(f, full_matrices=True)
    rank = int(np.sum(s > 0.5))
    return vh[rank:, :]


def predicted_bessel_bound(r: int, delta: float) -> float:
    """Theory reference bound for a one-per-block selection from blocks of
    size r with squared norms <= delta: (1/sqrt(r) + sqrt(delta))^2."""
    (r,) = integers([r], "block size")
    if r < 1:
        raise ValueError("block size must be positive")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return (1.0 / math.sqrt(r) + math.sqrt(delta)) ** 2


def pair_bessel_bound(delta: float) -> float:
    """Theory reference bound for a one-per-pair selection from vectors of
    squared norm <= delta < 1/4: 1/2 + sqrt(2*delta*(1-2*delta)), which is
    1 - eps0 at delta = SelectorConfig.delta0."""
    if not 0.0 < delta < 0.25:
        raise ValueError("pair bound needs delta in (0, 1/4)")
    return 0.5 + math.sqrt(2.0 * delta * (1.0 - 2.0 * delta))


def _search(gram: np.ndarray, blocks: tuple, config: SelectorConfig,
            objective: str, target: float, stage: int | None = None):
    """Randomized one-per-block search over a fixed Gram; blocks hold row indices.

    Returns (rows, lambda_min, lambda_max, trials, met).  Trials t of chunk
    c = t // 64 draw their indices, one per block, in one `integers(lengths,
    size=(64, n))` call on the stream keyed (master_seed, c), or
    (master_seed, stage, c): row t % 64 holds trial t, drawn as a loop of
    scalar `integers(len(block))` calls would.  The search stops at the
    first trial meeting the target.  Otherwise it keeps the first trial until
    one is certifiably better: with quality q = lambda_max (bessel) or
    -lambda_min (riesz), lower being better, it must reach q < q_b - 3m.
    With one label a block every trial repeats trial 1, so trial 1 alone runs.

    The margin m = 4 n^2 eps (trace(A) + |q_b|) + tiny bounds the rounding
    (README, "select", derives it).  Only a block A of exact quality below
    c = max(q_b - 2m, q_goal + m), q_goal the quality meeting the target, can
    win or meet the target, and then sign*A + cI is positive definite, so a
    failed Cholesky factorization of it proves the trial cannot matter.  The
    first trial and those that factor are solved by gram._bounds: results have
    the bits of a search solving every trial, at any BLAS thread count.  Both
    the screen and _bounds read the upper triangle of A, gathered from gram with no
    copy of it (bessel negates A in place, through its float64 view); traces sum per chunk.
    """
    n = len(blocks)
    lengths = np.array([len(b) for b in blocks])
    table = np.array([list(b) + [0] * (lengths.max() - len(b)) for b in blocks])
    rows, diag = np.arange(n), np.real(np.diagonal(gram))
    goal = target if objective == "bessel" else -target
    best = None
    for t in range(config.max_trials if lengths.max() > 1 else 1):
        if t % _CHUNK == 0:
            key = (t // _CHUNK,) if stage is None else (stage, t // _CHUNK)
            rng = np.random.default_rng(np.random.SeedSequence(config.master_seed, spawn_key=key))
            chunk = table[rows, rng.integers(lengths, size=(_CHUNK, n))]
            traces = diag[chunk].sum(axis=1).tolist()
        idx = chunk[t % _CHUNK]
        if best is not None:
            margin = 4 * n * n * _EPS * (traces[t % _CHUNK] + abs(best_q)) + _TINY
            shifted = gram.take(idx, 0).take(idx, 1)
            if objective == "bessel":
                np.negative(v := shifted.view(np.float64), out=v)
            shifted.ravel()[::n + 1] += max(best_q - 2 * margin, goal + margin)
            if not _cholesky_factors(shifted):
                continue
        b = _bounds([gram.take(idx, 0).take(idx, 1)], n)
        lmin, lmax = b.lambda_min, b.lambda_max
        q = lmax if objective == "bessel" else -lmin
        if q <= goal:
            return tuple(idx.tolist()), lmin, lmax, t + 1, True
        if best is None or q < best_q - 3 * margin:
            best_q, best = q, (tuple(idx.tolist()), lmin, lmax)
    return (*best, config.max_trials, False)


def _prepare(gram, blocks, target: float) -> tuple[np.ndarray, BlockSystem]:
    if not math.isfinite(target):
        raise ValueError(f"selection target must be finite, got {target}")
    gram = _check_hermitian(gram)
    bs = blocks if isinstance(blocks, BlockSystem) else BlockSystem(blocks=tuple(blocks))
    n = len(gram)
    outside = [lab for b in bs.blocks for lab in b if not 0 <= lab < n]
    if outside:
        raise ValueError(f"block label {outside[0]} is not a row of the {n}x{n} Gram")
    return gram, bs


def _select(gram, blocks, target: float, config: SelectorConfig | None,
            objective: str) -> SelectorResult:
    config = config or SelectorConfig()
    gram, bs = _prepare(gram, blocks, target)
    labels, lmin, lmax, trials, met = _search(gram, bs.blocks, config, objective, target)
    return SelectorResult(labels=labels, lambda_min=lmin, lambda_max=lmax, met=met,
                          trials=trials, seed=config.master_seed, target=target,
                          objective=objective)


def select_bessel(gram, blocks, target: float,
                  config: SelectorConfig | None = None) -> SelectorResult:
    """One row per block with lambda_max of the selected Gram <= target (sought)."""
    return _select(gram, blocks, target, config, "bessel")


def select_riesz(gram, blocks, threshold: float,
                 config: SelectorConfig | None = None) -> SelectorResult:
    """One row per block with lambda_min of the selected Gram >= threshold (sought)."""
    return _select(gram, blocks, threshold, config, "riesz")


def _pairs(labels: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    return tuple(zip(labels[0::2], labels[1::2]))


def select_tight(gram, blocks, eps: float,
                 config: SelectorConfig | None = None) -> SelectorResult:
    """Two-sided selection: aim for spectrum of the selected Gram in [1-eps, 1+eps].

    Stage 1 keeps four survivors per block (quarter blocks, lower-bound
    search); stage 2 keeps two (pair blocks, upper-bound search); stage 3
    runs the upper-bound search on the biorthogonal dual of the stage-2 Gram
    g2, which lifts the primal lower bound to at least 1/(1+eps) when it
    succeeds.  Requires a unit diagonal (unit-norm vectors) and blocks of
    size >= 4.  Ties keep the earliest trial, so stage 3, which searches g2
    by position, picks what a search over the rows would.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    config = config or SelectorConfig()
    gram, bs = _prepare(gram, blocks, eps)
    if bs.r_min < 4:
        raise ValueError("tight selection needs blocks of size >= 4")
    if float(np.abs(np.real(np.diag(gram)) - 1.0).max()) > 1e-8:
        raise ValueError("tight selection expects unit-norm vectors")

    quarter_blocks = tuple(tuple(part.tolist()) for b in bs.blocks
                           for part in np.array_split(np.asarray(b), 4))
    s1, _, _, t1, _ = _search(gram, quarter_blocks, config, "riesz", config.eps0, stage=1)
    s2, _, _, t2, _ = _search(gram, _pairs(s1), config, "bessel", 1.0 + eps, stage=2)

    g2 = gram[np.ix_(s2, s2)]
    try:
        g3, objective, target = dual_system(g2), "bessel", 1.0 + eps
    except ValueError:
        # stage-2 Gram degenerate: fall back to a primal lower-bound search
        g3, objective, target = g2, "riesz", 1.0 - eps
    pos, _, _, t3, _ = _search(g3, _pairs(tuple(range(len(s2)))), config,
                               objective, target, stage=3)

    b = _bounds([g2[np.ix_(pos, pos)]], len(pos))
    met = b.lambda_min >= 1.0 - eps and b.lambda_max <= 1.0 + eps
    return SelectorResult(labels=tuple(s2[i] for i in pos), lambda_min=b.lambda_min,
                          lambda_max=b.lambda_max, met=met, trials=t1 + t2 + t3,
                          seed=config.master_seed, target=eps, objective="tight")


def stabilize(selectors) -> tuple[int, tuple[int, ...]]:
    """Stable prefix of a family of growing partial selectors.

    selectors[t] must cover blocks 0..t (length t+1).  Position by position,
    keep the most frequent pick among the still-consistent selectors (ties:
    the value seen first) and discard the others; returns (depth, choices) of
    the longest prefix pinned this way.  This is the finitary shadow of the
    diagonal/pigeonhole argument producing a selector of the whole family.
    """
    sels = [integers(s, "selector picks") for s in selectors]
    if not sels:
        raise ValueError("need at least one selector")
    for t, s in enumerate(sels):
        if len(s) != t + 1:
            raise ValueError(f"selector {t} has length {len(s)}, expected {t + 1}")
    survivors = list(range(len(sels)))
    agreed: list[int] = []
    j = 0
    while True:
        alive = [i for i in survivors if len(sels[i]) > j]
        if not alive:
            break
        choice = Counter(sels[i][j] for i in alive).most_common(1)[0][0]  # ties: first seen
        survivors = [i for i in alive if sels[i][j] == choice]
        agreed.append(choice)
        j += 1
    return j, tuple(agreed)
