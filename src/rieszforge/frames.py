"""Finite frame utilities: Parseval completion, Naimark complements, and
randomized one-per-block selection of well-conditioned subsystems.

Selection targets come in three flavors:

* select_bessel  minimize lambda_max of the selected Gram (upper bound);
* select_riesz   maximize lambda_min (lower bound);
* select_tight   three stages (quarter blocks for a lower bound, pair blocks
  for the upper bound, then pair blocks on the biorthogonal dual to lift the
  lower bound), ending with one pick per original block and two-sided bounds
  near 1.

Every trial draws from an RNG stream keyed by (master seed, trial index), so
results are bit-reproducible and independent of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from .gram import build_gram, dual_system
from .quadfield import integers

_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny

__all__ = [
    "VectorSystem",
    "BlockSystem",
    "SelectorConfig",
    "SelectorResult",
    "exponential_system",
    "complete_to_parseval_small",
    "naimark_complement",
    "predicted_bessel_bound",
    "select_bessel",
    "select_riesz",
    "select_tight",
    "stabilize",
]


@dataclass(frozen=True, eq=False)
class VectorSystem:
    """Columns of `matrix` are the vectors; labels name them (one per column)."""

    matrix: np.ndarray
    labels: tuple[int, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        labels = integers(self.labels, "labels")
        if len(labels) != m.shape[1]:
            raise ValueError(f"{len(labels)} labels for {m.shape[1]} columns")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        object.__setattr__(self, "labels", labels)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def count(self) -> int:
        return self.matrix.shape[1]

    def gram(self) -> np.ndarray:
        return self.matrix.conj().T @ self.matrix

    def frame_operator(self) -> np.ndarray:
        return self.matrix @ self.matrix.conj().T

    def norms_squared(self) -> np.ndarray:
        return np.real(np.sum(self.matrix.conj() * self.matrix, axis=0))

    def subsystem(self, labels) -> "VectorSystem":
        index = {lab: i for i, lab in enumerate(self.labels)}
        labels = integers(labels, "labels")
        try:
            cols = [index[lab] for lab in labels]
        except KeyError as exc:
            raise ValueError(f"unknown label {exc.args[0]}") from None
        return VectorSystem(matrix=self.matrix[:, cols], labels=labels)


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

    delta0 = 0.1 fixes the pair-selection bound: eps0 = 1/2 -
    sqrt(2*delta0*(1-2*delta0)) and C = 9*((1-delta0)/delta0)^2 give the
    predicted block size 2*ceil(C/eps) for a lower Riesz bound of eps*eps0
    (r = 2 suffices when eps > 3/4).  These constants come from an existence
    proof and are far from empirically sharp; they are reported, never
    asserted.
    """

    delta0: ClassVar[float] = 0.1
    master_seed: int = 0
    max_trials: int = 10000

    def __post_init__(self):
        if self.max_trials < 1:
            raise ValueError("max_trials must be positive")

    @property
    def eps0(self) -> float:
        return 0.5 - math.sqrt(2.0 * self.delta0 * (1.0 - 2.0 * self.delta0))

    @property
    def big_constant(self) -> float:
        return 9.0 * ((1.0 - self.delta0) / self.delta0) ** 2

    def predicted_block_size(self, eps: float) -> int:
        if eps <= 0:
            raise ValueError("eps must be positive")
        if eps > 0.75:
            return 2
        return 2 * math.ceil(self.big_constant / eps)

    def predicted_tight_block_size(self, eps: float) -> int:
        """ceil(C/eps^4), the block size for Bessel bound 1."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        return math.ceil(self.big_constant / eps**4)


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


def exponential_system(points, spectrum) -> VectorSystem:
    """Concrete coordinates for exponentials restricted to a spectrum.

    Factors the normalized Gram as V^H V via an eigendecomposition; the
    resulting columns reproduce all inner products, which is all the frame
    algorithms consume.  Labels are the frequencies themselves.
    """
    pts = integers(points, "points")
    g = build_gram(pts, spectrum, normalized=True)
    w, u = np.linalg.eigh(g)
    w = np.clip(w, 0.0, None)
    v = np.sqrt(w)[:, None] * u.conj().T
    return VectorSystem(matrix=v, labels=pts)


def complete_to_parseval_small(system: VectorSystem, delta: float) -> VectorSystem:
    """Vectors of squared norm <= delta completing `system` to a Parseval frame.

    Requires Bessel bound 1 (to 1e-10, which also decides which deficits are
    zero) and all input squared norms <= delta.  For each nonzero eigenvalue
    lam of the frame operator, adds m copies of sqrt((1-lam)/m) times the
    eigenvector, with m the smallest integer making (1 - lam_min_nonzero)/m <
    delta.  Returns only the added vectors (possibly none), labeled 0..K-1.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    tol = 1e-10
    norms = system.norms_squared()
    if norms.size and float(norms.max()) > delta + 1e-12:
        raise ValueError(f"a vector has squared norm {norms.max():.6f} > delta={delta}")
    s = system.frame_operator()
    w, v = np.linalg.eigh(s)
    if w.size and float(w[-1]) > 1.0 + tol:
        raise ValueError(f"Bessel bound exceeds 1: lambda_max={w[-1]:.6f}")

    zero_tol = max(tol, len(w) * np.finfo(float).eps * max(float(w[-1]), 1.0) if w.size else tol)
    nonzero = [(float(lam), v[:, i]) for i, lam in enumerate(w) if lam > zero_tol]
    deficits = [(max(0.0, 1.0 - lam), vec) for lam, vec in nonzero]
    if not any(d > tol for d, _ in deficits):
        return VectorSystem(matrix=np.zeros((system.ambient_dim, 0), dtype=complex), labels=())

    lam_min_nz = min(lam for lam, _ in nonzero)
    m = math.floor((1.0 - lam_min_nz) / delta) + 1
    cols = []
    for deficit, vec in deficits:
        if deficit <= tol:
            continue
        coeff = math.sqrt(deficit / m)
        cols.extend([coeff * vec] * m)
    added = np.column_stack(cols)
    return VectorSystem(matrix=added, labels=tuple(range(added.shape[1])))


def naimark_complement(system: VectorSystem) -> VectorSystem:
    """A Parseval frame G with Gram(F) + Gram(G) = I, for Parseval F.

    Computed from an orthonormal basis of the null space of the synthesis
    matrix, so it is one representative of the unitary equivalence class.
    Labels carry over; the input's Gram must be idempotent to 1e-8.  The
    complement lives in dimension count - rank (an orthonormal-basis input
    yields an empty, zero-dimensional complement).
    """
    g = system.gram()
    resid = float(np.abs(g @ g - g).max()) if g.size else 0.0
    if resid > 1e-8:
        raise ValueError(f"Gram is not idempotent (residual {resid:.3e}); "
                         "input must be a Parseval frame for its span")
    _, s, vh = np.linalg.svd(system.matrix, full_matrices=True)
    rank = int(np.sum(s > 0.5))
    comp = vh[rank:, :]
    return VectorSystem(matrix=comp, labels=system.labels)


def predicted_bessel_bound(r: int, delta: float, pairs: bool = False) -> float:
    """Theory reference bound for a one-per-block selection.

    General blocks of size r with squared norms <= delta: (1/sqrt(r) +
    sqrt(delta))^2.  With pairs=True (blocks of 2, delta < 1/4): 1 - eps0 =
    1/2 + sqrt(2*delta*(1-2*delta)).
    """
    if pairs:
        if not 0.0 < delta < 0.25:
            raise ValueError("pair bound needs delta in (0, 1/4)")
        return 0.5 + math.sqrt(2.0 * delta * (1.0 - 2.0 * delta))
    if r < 1:
        raise ValueError("block size must be positive")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return (1.0 / math.sqrt(r) + math.sqrt(delta)) ** 2


def _search(gram: np.ndarray, label_pos: dict, blocks: tuple, config: SelectorConfig,
            objective: str, target: float, stage: int | None = None):
    """Randomized one-per-block search over a fixed Gram.

    Returns (labels, lambda_min, lambda_max, trials, met).  Trial t draws one
    index per block in one `integers(lengths)` call on the stream keyed
    (master_seed, t), or (master_seed, stage, t).  The search stops at the
    first trial meeting the target; otherwise it keeps the best trial, ties
    broken by the lexicographically smallest label sequence.

    Once a best trial has bound b (lambda_min for riesz, lambda_max for
    bessel), only a block A that reaches b can win or meet the target, which,
    being unmet, lies beyond b.  For such an A the shifted block A - (b - m)I
    (riesz) or (b + m)I - A (bessel) is positive definite, and a failed
    Cholesky factorization of it rejects the trial.  The first trial and the
    trials that factor run `eigvalsh`, so results have the bits of a full
    search.  The margin m = 4 n^2 eps (trace(A) + |b|) + tiny covers the
    eigensolver's backward error, the shift's rounding and the room Cholesky
    needs (README, "select", derives it), so a rejection is a proven bound,
    not a rounding race, and the filter adds no BLAS-thread dependence.
    """
    n = len(blocks)
    lengths = np.array([len(b) for b in blocks])
    table = np.array([[label_pos[lab] for lab in b] + [0] * (lengths.max() - len(b))
                      for b in blocks])
    diag = np.real(np.diagonal(gram))
    sign = -1.0 if objective == "bessel" else 1.0
    best_key = best = None
    for t in range(config.max_trials):
        key = (t,) if stage is None else (stage, t)
        rng = np.random.default_rng(np.random.SeedSequence(config.master_seed, spawn_key=key))
        draws = rng.integers(lengths)
        idx = table[np.arange(n), draws]
        sub = gram[idx[:, None], idx]
        if best_key is not None:  # best_key[0] is -b for riesz, b for bessel
            margin = 4 * n * n * _EPS * (float(diag[idx].sum()) + abs(best_key[0])) + _TINY
            shifted = sign * sub
            shifted.flat[::n + 1] += best_key[0] + margin
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                continue
        picks = tuple(b[d] for b, d in zip(blocks, draws.tolist()))
        w = np.linalg.eigvalsh(sub)
        lmin, lmax = float(w[0]), float(w[-1])
        quality, met = (lmax, lmax <= target) if objective == "bessel" else (-lmin, lmin >= target)
        if met:
            return picks, lmin, lmax, t + 1, True
        cand_key = (quality, picks)
        if best_key is None or cand_key < best_key:
            best_key, best = cand_key, (picks, lmin, lmax)
    return (*best, config.max_trials, False)


def _prepare(system: VectorSystem, blocks,
             target: float) -> tuple[np.ndarray, dict, BlockSystem]:
    if not math.isfinite(target):
        raise ValueError(f"selection target must be finite, got {target}")
    bs = blocks if isinstance(blocks, BlockSystem) else BlockSystem(blocks=tuple(blocks))
    label_pos = {lab: i for i, lab in enumerate(system.labels)}
    missing = [lab for b in bs.blocks for lab in b if lab not in label_pos]
    if missing:
        raise ValueError(f"block label {missing[0]} not in the system")
    return system.gram(), label_pos, bs


def _select(system: VectorSystem, blocks, target: float, config: SelectorConfig | None,
            objective: str) -> SelectorResult:
    config = config or SelectorConfig()
    gram, label_pos, bs = _prepare(system, blocks, target)
    labels, lmin, lmax, trials, met = _search(gram, label_pos, bs.blocks, config,
                                              objective, target)
    return SelectorResult(labels=labels, lambda_min=lmin, lambda_max=lmax, met=met,
                          trials=trials, seed=config.master_seed, target=target,
                          objective=objective)


def select_bessel(system: VectorSystem, blocks, target: float,
                  config: SelectorConfig | None = None) -> SelectorResult:
    """One pick per block with lambda_max of the selected Gram <= target (sought)."""
    return _select(system, blocks, target, config, "bessel")


def select_riesz(system: VectorSystem, blocks, threshold: float,
                 config: SelectorConfig | None = None) -> SelectorResult:
    """One pick per block with lambda_min of the selected Gram >= threshold (sought)."""
    return _select(system, blocks, threshold, config, "riesz")


def _pairs(labels: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    return tuple(zip(labels[0::2], labels[1::2]))


def select_tight(system: VectorSystem, blocks, eps: float,
                 config: SelectorConfig | None = None) -> SelectorResult:
    """Two-sided selection: aim for spectrum of the selected Gram in [1-eps, 1+eps].

    Stage 1 keeps four survivors per block (quarter blocks, lower-bound
    search); stage 2 keeps two (pair blocks, upper-bound search); stage 3
    runs the upper-bound search on the biorthogonal dual of the stage-2
    subsystem, which lifts the primal lower bound to at least 1/(1+eps) when
    it succeeds.  Requires unit-norm vectors and blocks of size >= 4.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    config = config or SelectorConfig()
    gram, label_pos, bs = _prepare(system, blocks, eps)
    if bs.r_min < 4:
        raise ValueError("tight selection needs blocks of size >= 4")
    if float(np.abs(np.real(np.diag(gram)) - 1.0).max()) > 1e-8:
        raise ValueError("tight selection expects unit-norm vectors")

    quarter_blocks = tuple(tuple(part.tolist()) for b in bs.blocks
                           for part in np.array_split(np.asarray(b), 4))
    s1_labels, _, _, t1, _ = _search(gram, label_pos, quarter_blocks, config,
                                     "riesz", config.eps0, stage=1)
    s2_labels, _, _, t2, _ = _search(gram, label_pos, _pairs(s1_labels), config,
                                     "bessel", 1.0 + eps, stage=2)

    g2 = system.subsystem(s2_labels).gram()
    sub_pos = {lab: i for i, lab in enumerate(s2_labels)}
    try:
        g3, objective, target = dual_system(g2), "bessel", 1.0 + eps
    except ValueError:
        # stage-2 subsystem degenerate: fall back to a primal lower-bound search
        g3, objective, target = g2, "riesz", 1.0 - eps
    s3_labels, _, _, t3, _ = _search(g3, sub_pos, _pairs(s2_labels), config,
                                     objective, target, stage=3)

    idx = [sub_pos[lab] for lab in s3_labels]
    w = np.linalg.eigvalsh(g2[np.ix_(idx, idx)])
    lmin, lmax = float(w[0]), float(w[-1])
    met = lmin >= 1.0 - eps and lmax <= 1.0 + eps
    return SelectorResult(labels=s3_labels, lambda_min=lmin, lambda_max=lmax, met=met,
                          trials=t1 + t2 + t3, seed=config.master_seed, target=eps,
                          objective="tight")


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
        counts: dict[int, int] = {}
        for i in alive:
            counts[sels[i][j]] = counts.get(sels[i][j], 0) + 1
        choice = max(counts, key=lambda v: counts[v])  # dict order breaks ties
        survivors = [i for i in alive if sels[i][j] == choice]
        agreed.append(choice)
        j += 1
    return j, tuple(agreed)
