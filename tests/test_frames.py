"""Frame-operator algebra: completions, complements, randomized selection."""

import math
import re

import numpy as np
import pytest

import rieszforge
from rieszforge import BlockSystem, SelectorConfig, build_gram, \
    complete_to_parseval_small, dual_system, frames, gram, \
    naimark_complement, normalize_bands, pair_bessel_bound, predicted_bessel_bound, \
    select_bessel, select_riesz, select_tight, stabilize
from rieszforge.gram import _bounds, _solved_gram

EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny


def random_parseval(rng, dim, count):
    """dim rows of a random count x count unitary: synthesis FF^H = I."""
    z = rng.normal(size=(count, count)) + 1j * rng.normal(size=(count, count))
    q, _ = np.linalg.qr(z)
    return q[:dim, :]


def random_bessel(rng, dim, count, delta):
    z = rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
    z /= np.linalg.norm(z, axis=0, keepdims=True)
    z *= np.sqrt(rng.uniform(0.2 * delta, delta, size=count))
    w = np.linalg.eigvalsh(z @ z.conj().T)
    if w[-1] > 1.0:
        z /= math.sqrt(w[-1]) * (1 + 1e-12)
    return z


def norms_squared(f):
    return np.real(np.sum(f.conj() * f, axis=0))


@pytest.mark.parametrize("as_input", [np.asarray, np.ndarray.tolist], ids=["ndarray", "list"])
def test_frame_steps_take_and_return_synthesis_matrices(as_input):
    # columns are the vectors: a real ndarray or a nested list in, a complex ndarray out
    added = complete_to_parseval_small(as_input(np.diag([math.sqrt(0.2)] * 2)), 0.25)
    assert type(added) is np.ndarray and added.dtype == complex and added.shape == (2, 8)
    comp = naimark_complement(as_input(np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])))
    assert type(comp) is np.ndarray and comp.dtype == complex and comp.shape == (1, 3)
    assert "VectorSystem" not in rieszforge.__all__


def test_block_system():
    bs = BlockSystem.intervals(range(10), 3)
    assert bs.blocks == ((0, 1, 2), (3, 4, 5), (6, 7, 8))  # tail dropped
    assert bs.r_min == 3 and len(bs) == 3
    with pytest.raises(ValueError):
        BlockSystem(blocks=((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        BlockSystem(blocks=((0, 1), ()))
    with pytest.raises(ValueError):
        BlockSystem.intervals(range(2), 3)


def test_completion_two_vector_example():
    # two orthogonal vectors of squared norm 0.2, delta = 0.25:
    # deficit 0.8 per direction, m = floor(0.8/0.25)+1 = 4 copies each
    vs = np.diag([math.sqrt(0.2), math.sqrt(0.2)])
    added = complete_to_parseval_small(vs, 0.25)
    assert added.shape[1] == 8
    assert float(norms_squared(added).max()) <= 0.25 + 1e-12
    total = vs @ vs.conj().T + added @ added.conj().T
    assert np.abs(total - np.eye(2)).max() < 1e-12


def test_completion_m_rule_forces_five():
    # deficit 0.8 with delta = 0.2 needs m = 5 (0.8/4 = 0.2 is not < 0.2)
    vs = np.diag([math.sqrt(0.2)])
    added = complete_to_parseval_small(vs, 0.2)
    assert added.shape[1] == 5
    assert float(norms_squared(added).max()) < 0.2


def test_completion_random_systems():
    rng = np.random.default_rng(21)
    for delta in (0.1, 0.2):
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            count = int(rng.integers(1, 2 * dim + 1))
            vs = random_bessel(rng, dim, count, delta)
            added = complete_to_parseval_small(vs, delta)
            if added.shape[1]:
                assert float(norms_squared(added).max()) <= delta + 1e-12
            total = vs @ vs.conj().T + added @ added.conj().T
            # identity on the span of the input
            w, v = np.linalg.eigh(vs @ vs.conj().T)
            span = v[:, w > 1e-10]
            assert np.abs(total @ span - span).max() < 1e-8


def completion_by_columns(f, delta):
    """Reference: the added columns appended one eigenvector copy at a time."""
    w, v = np.linalg.eigh(f @ f.conj().T)
    zero_tol = max(1e-10, len(w) * EPS * max(float(w[-1]), 1.0))
    nonzero = [(float(lam), v[:, i]) for i, lam in enumerate(w) if lam > zero_tol]
    m = math.floor((1.0 - min(lam for lam, _ in nonzero)) / delta) + 1
    cols = []
    for lam, vec in nonzero:
        if max(0.0, 1.0 - lam) > 1e-10:
            cols.extend([math.sqrt(max(0.0, 1.0 - lam) / m) * vec] * m)
    return np.column_stack(cols) if cols else np.zeros((f.shape[0], 0), dtype=complex)


def test_completion_matches_the_column_loop_bitwise():
    rng = np.random.default_rng(22)
    for delta in (0.1, 0.2, 0.45):
        for _ in range(40):
            dim = int(rng.integers(1, 6))
            vs = random_bessel(rng, dim, int(rng.integers(1, 2 * dim + 1)), delta)
            want = completion_by_columns(vs, delta)
            got = complete_to_parseval_small(vs, delta)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_completion_validation():
    vs = np.eye(2)
    with pytest.raises(ValueError):
        complete_to_parseval_small(vs, 0.5)  # norms exceed delta
    with pytest.raises(ValueError):
        complete_to_parseval_small(vs, 1.5)
    # four copies of one vector of squared norm 0.3: norms fit delta, Bessel bound 1.2
    copies = np.full((1, 4), math.sqrt(0.3))
    with pytest.raises(ValueError, match="Bessel bound exceeds 1"):
        complete_to_parseval_small(copies, 0.5)
    # a Parseval frame with small norms needs nothing added
    rng = np.random.default_rng(0)
    f = random_parseval(rng, 2, 8)
    added = complete_to_parseval_small(f, 0.9)
    assert added.shape == (2, 0)


def test_naimark_complement_identity():
    rng = np.random.default_rng(3)
    f = random_parseval(rng, 3, 7)
    g = naimark_complement(f)
    assert g.shape == (7 - 3, 7)
    assert np.abs(f.conj().T @ f + g.conj().T @ g - np.eye(7)).max() < 1e-12
    # complement of a Parseval frame is Parseval for its span
    wg = np.linalg.eigvalsh(g @ g.conj().T)
    assert np.abs(wg - 1.0).max() < 1e-10


def test_naimark_rejects_non_parseval():
    with pytest.raises(ValueError):
        naimark_complement(np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_naimark_of_orthonormal_basis_is_empty():
    f = np.eye(4)
    g = naimark_complement(f)
    assert g.shape == (0, 4)
    assert np.abs(f.conj().T @ f + g.conj().T @ g - np.eye(4)).max() < 1e-12


def test_predicted_bounds():
    assert predicted_bessel_bound(4, 0.25) == pytest.approx((0.5 + 0.5) ** 2)
    assert predicted_bessel_bound(1, 0.0) == pytest.approx(1.0)
    # pair bound at delta0 = 0.1: 1 - eps0 = 0.9
    assert pair_bessel_bound(0.1) == pytest.approx(0.9)
    with pytest.raises(ValueError):
        pair_bessel_bound(0.3)
    with pytest.raises(ValueError):
        predicted_bessel_bound(0, 0.1)
    cfg = SelectorConfig()
    assert cfg.predicted_block_size(0.8) == 2          # eps > 3/4
    assert cfg.predicted_block_size(0.5) == 2 * math.ceil(cfg.big_constant / 0.5)


def test_pair_bound_is_one_minus_eps0():
    # SelectorConfig.eps0 is written through pair_bessel_bound; both print the same digits
    cfg = SelectorConfig()
    assert cfg.eps0 == 1.0 - pair_bessel_bound(cfg.delta0)
    assert repr(cfg.eps0) == repr(0.5 - math.sqrt(2 * 0.1 * (1 - 2 * 0.1))) == "0.09999999999999998"


@pytest.mark.parametrize("call, message", [
    (lambda: predicted_bessel_bound(2, -0.1), "delta must be nonnegative"),
    (lambda: pair_bessel_bound(0.0), "pair bound needs delta"),
    (lambda: SelectorConfig().predicted_block_size(0), "eps must be positive"),
    (lambda: BlockSystem(blocks=()), "need at least one block"),
    (lambda: complete_to_parseval_small(np.ones(3), 0.5), "matrix must be 2-D"),
    (lambda: naimark_complement(np.ones(3)), "matrix must be 2-D"),
])
def test_theory_and_container_validation(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_completion_skips_a_direction_already_at_one():
    # four copies of e1/2 give frame-operator eigenvalue 1 on e1: no deficit there,
    # so only e2 (eigenvalue 1/4) is completed, by m = 4 copies of sqrt(3/16) e2
    m = np.array([[0.5, 0.5, 0.5, 0.5, 0.0], [0.0, 0.0, 0.0, 0.0, 0.5]])
    added = complete_to_parseval_small(m, 0.25)
    assert added.shape[1] == 4
    assert np.abs(added[0]).max() < 1e-15
    assert np.allclose(np.abs(added[1]), math.sqrt(3 / 16))
    total = m @ m.conj().T + added @ added.conj().T
    assert np.abs(total - np.eye(2)).max() < 1e-12


def test_selector_config_validation():
    with pytest.raises(ValueError):
        SelectorConfig(max_trials=0)
    cfg = SelectorConfig()
    assert cfg.delta0 == 0.1
    assert cfg.eps0 == pytest.approx(0.5 - math.sqrt(0.16))  # = 0.1
    assert cfg.big_constant == pytest.approx(729.0)


def test_select_riesz_deterministic():
    g = _arc_gram(0.9, 32)
    blocks = BlockSystem.intervals(range(32), 2)
    r1 = select_riesz(g, blocks, 0.05)
    r2 = select_riesz(g, blocks, 0.05)
    assert r1 == r2
    assert r1.met and r1.lambda_min >= 0.05
    assert len(r1.labels) == len(blocks)
    for lab, block in zip(r1.labels, blocks.blocks):
        assert lab in block


def test_select_bessel_beats_prediction():
    blocks = BlockSystem.intervals(range(32), 4)
    bound = predicted_bessel_bound(4, 0.5)
    res = select_bessel(_arc_gram(0.5, 32), blocks, bound)
    assert res.met
    assert res.lambda_max <= bound


def test_select_exhaustive_oracle():
    # tiny instance: randomized search with enough trials matches brute force
    import itertools
    rng = np.random.default_rng(8)
    z = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    f = z / 3.0
    g = f.conj().T @ f
    blocks = BlockSystem(blocks=((0, 1), (2, 3), (4, 5)))
    best = -math.inf
    for combo in itertools.product(*blocks.blocks):
        idx = list(combo)
        best = max(best, float(np.linalg.eigvalsh(g[np.ix_(idx, idx)])[0]))
    res = select_riesz(g, blocks, best + 1e-9, SelectorConfig(max_trials=500))
    # 500 seeded trials over 8 selectors: misses one choice with prob ~0
    assert not res.met
    assert res.lambda_min == pytest.approx(best, abs=1e-12)


def test_select_validates_labels():
    # block labels are Gram rows, so each must lie in 0..n-1
    for label in (3, -1):
        for select in (select_riesz, select_bessel):
            with pytest.raises(ValueError, match=f"block label {label} is not a row of the 3x3"):
                select(np.eye(3), BlockSystem(blocks=((0, label),)), 0.1)
    with pytest.raises(ValueError, match="block label 8 is not a row of the 8x8"):
        select_tight(np.eye(8), BlockSystem(blocks=((0, 1, 2, 8),)), 0.5)


@pytest.mark.parametrize("gram, message", [
    (np.eye(3)[:2], "expected a square matrix, got shape (2, 3)"),
    (np.array([[1.0, 0.5], [0.0, 1.0]]), "matrix is not Hermitian"),
    (np.array([[1.0, 0.5j], [0.5j, 1.0]]), "matrix is not Hermitian"),
], ids=["non-square", "asymmetric", "not-conjugate"])
def test_select_rejects_a_gram_that_is_not_hermitian(gram, message):
    blocks = BlockSystem(blocks=((0,),))
    for select in (select_riesz, select_bessel, select_tight):
        with pytest.raises(ValueError, match=re.escape(message)):
            select(gram, blocks, 0.5)


@pytest.mark.parametrize("target", [math.nan, math.inf])
def test_select_rejects_non_finite_target(target):
    with pytest.raises(ValueError):
        select_riesz(np.eye(8), BlockSystem.intervals(range(8), 2), target)
    with pytest.raises(ValueError):
        select_bessel(np.eye(8), BlockSystem.intervals(range(8), 2), target)
    with pytest.raises(ValueError):
        select_tight(np.eye(8), BlockSystem.intervals(range(8), 4), target)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_select_rejects_non_finite_gram(bad):
    g = np.eye(4)
    g[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        select_riesz(g, [[0, 1], [2, 3]], 0.1)


def test_select_tight():
    g = _arc_gram(1.0, 16)  # full torus: orthonormal core
    blocks = BlockSystem.intervals(range(16), 8)
    res = select_tight(g, blocks, 0.5)
    assert res.objective == "tight"
    assert res.met
    assert len(res.labels) == 2
    assert 0.5 <= res.lambda_min and res.lambda_max <= 1.5
    # reproducible
    assert res == select_tight(g, blocks, 0.5)


def test_select_tight_validation():
    with pytest.raises(ValueError):
        select_tight(np.eye(8), BlockSystem.intervals(range(8), 2), 0.5)  # r < 4
    with pytest.raises(ValueError):
        select_tight(np.eye(8), BlockSystem.intervals(range(8), 4), 0.0)
    with pytest.raises(ValueError):
        select_tight(4 * np.eye(8), BlockSystem.intervals(range(8), 4), 0.5)  # not unit norm


def test_stabilize():
    # growing selectors agreeing on a prefix
    sels = [(3,), (3, 7), (3, 7, 1), (2, 7, 1, 9)]
    depth, choices = stabilize(sels)
    assert choices[:2] == (3, 7)
    assert depth >= 2
    # all-identical selectors pin the full diagonal
    sels = [(1,), (1, 2), (1, 2, 3)]
    depth, choices = stabilize(sels)
    assert depth == 3 and choices == (1, 2, 3)
    with pytest.raises(ValueError):
        stabilize([])
    with pytest.raises(ValueError):
        stabilize([(1, 2)])  # wrong length


def test_stabilize_ties_go_to_the_value_seen_first():
    # block 0 takes 5 (three votes to one); at block 1 the survivors 2 and 3 tie,
    # and 2 is seen first
    sels = [(5,), (4, 1), (5, 2, 0), (5, 1, 1, 1)]
    assert stabilize(sels) == (3, (5, 2, 0))
    assert stabilize([(4,), (5, 0)]) == (1, (4,))


# ------------------------------------------------- selection search oracle --


def _margin(gram, picks, best_q):
    """The search's per-trial margin m = 4 n^2 eps (trace + |q_b|) + tiny."""
    trace = float(np.real(np.diagonal(gram))[list(picks)].sum())
    return 4 * len(picks) ** 2 * EPS * (trace + abs(best_q)) + TINY


def _quality(objective, result):
    return result[2] if objective == "bessel" else -result[1]


def _draws(blocks, config, stage=None):
    """Each trial's picks from scalar draws: trials 64c .. 64c + 63 share the
    stream keyed (seed, c), or (seed, stage, c), and draw one
    integers(len(block)) per block in turn."""
    for t in range(config.max_trials):
        if t % 64 == 0:
            key = (t // 64,) if stage is None else (stage, t // 64)
            rng = np.random.default_rng(np.random.SeedSequence(config.master_seed, spawn_key=key))
        yield tuple(b[int(rng.integers(len(b)))] for b in blocks)


def _extremes(g):
    """lambda_min and lambda_max of g by gram._bounds, the package's one eigensolve,
    which tests/test_gram.py checks against eigvalsh: a search and its oracle
    then agree bit for bit."""
    b = _bounds([np.array(g)], len(g))
    return b.lambda_min, b.lambda_max


def _search_oracle(gram, blocks, config, objective, target, stage=None, certified=True):
    """The search without fast rejection: _draws, np.ix_, _extremes every trial.

    A trial replaces the best quality q_b (lambda_max for bessel, -lambda_min
    for riesz) only when its own is below q_b - 3m.  certified=False is the
    earlier rule: any lower (quality, picks) key wins, so ulp-level ties let
    the labels decide.
    """
    best = None
    for t, picks in enumerate(_draws(blocks, config, stage)):
        # the transposed block, read column-major: A's lower triangle, as the search solves it
        lmin, lmax = _extremes(gram.T[np.ix_(picks, picks)])
        quality = _quality(objective, (picks, lmin, lmax))
        if (lmax <= target) if objective == "bessel" else (lmin >= target):
            return picks, lmin, lmax, t + 1, True
        if best is None:
            better = True
        elif certified:
            better = quality < best[0] - 3 * _margin(gram, picks, best[0])
        else:
            better = (quality, picks) < best[:2]
        if better:
            best = (quality, picks, lmin, lmax)
    _, picks, lmin, lmax = best
    return picks, lmin, lmax, config.max_trials, False


def _search_both(gram, blocks, objective, target, trials, seed=0, stage=None):
    config = SelectorConfig(master_seed=seed, max_trials=trials)
    fast = frames._search(gram, blocks, config, objective, target, stage)
    slow = _search_oracle(gram, blocks, config, objective, target, stage)
    # against the earlier rule's best, the certified rule gives up at most 3m,
    # where m is bounded by the largest trace and |quality| any block can have
    old = _search_oracle(gram, blocks, config, objective, target, stage, certified=False)
    if slow[4]:
        assert old == slow  # the first trial meeting the target does not depend on the rule
    else:
        diag = np.real(np.diagonal(gram))
        trace = sum(max(float(diag[i]) for i in b) for b in blocks)
        top = float(np.abs(np.linalg.eigvalsh(gram)).max())
        m = 4 * len(blocks) ** 2 * EPS * (trace + top) + TINY
        assert 0 <= _quality(objective, slow) - _quality(objective, old) <= 3 * m
    return fast, slow


def _count_eigensolves(monkeypatch):
    calls = []
    monkeypatch.setattr(frames, "_bounds", lambda *args: calls.append(1) or _bounds(*args))
    return calls


def _arc_gram(fraction, window):
    return build_gram(range(window), normalize_bands([(0.0, fraction)], unit="2pi"), normalized=True)


def _random_gram(seed, dim, count, scale=1.0):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
    f = scale * z
    return f.conj().T @ f


@pytest.mark.parametrize("objective, bands", [("riesz", [(0.0, 0.85)]),
                                              ("bessel", [(0.0, 0.3), (0.45, 0.75)])])
def test_search_matches_oracle_unmet(monkeypatch, objective, bands):
    g = build_gram(range(48), normalize_bands(bands, unit="2pi"), normalized=True)
    blocks = BlockSystem.intervals(range(48), 2).blocks
    # the diagonal entry, the band's share, bounds lambda_min above and lambda_max below
    share = sum(b - a for a, b in bands)
    target = share + 0.02 if objective == "riesz" else 0.98 * share
    calls = _count_eigensolves(monkeypatch)
    fast = frames._search(g, blocks, SelectorConfig(master_seed=11, max_trials=300),
                          objective, target)
    assert len(calls) < 30  # the Cholesky test rejects most trials
    assert fast == _search_both(g, blocks, objective, target, 300, seed=11)[1]
    assert fast[3] == 300 and not fast[4]


@pytest.mark.parametrize("objective", ["riesz", "bessel"])
def test_search_matches_oracle_met_mid_run(objective):
    g = _arc_gram(0.7, 40)
    blocks = BlockSystem.intervals(range(40), 2).blocks
    # the best bound over 200 trials, reached first at a trial past the first
    _, lmin, lmax, _, _ = _search_oracle(
        g, blocks, SelectorConfig(master_seed=4, max_trials=200),
        objective, 2.0 if objective == "riesz" else 0.0)
    target = lmin if objective == "riesz" else lmax
    fast, slow = _search_both(g, blocks, objective, target, 200, seed=4)
    assert fast == slow
    assert fast[4] and 1 < fast[3] < 200


def test_search_matches_oracle_saturated_bessel(monkeypatch):
    # one arc at W=128: every trial's lambda_max is 1 within a few ulps, far
    # inside the margin, so no trial improves on the first and Cholesky
    # rejects the other 149
    g = _arc_gram(0.66, 128)
    blocks = BlockSystem.intervals(range(128), 2).blocks
    calls = _count_eigensolves(monkeypatch)
    fast = frames._search(g, blocks, SelectorConfig(max_trials=150), "bessel", 0.5)
    assert len(calls) <= 3
    assert fast == _search_both(g, blocks, "bessel", 0.5, 150, seed=0)[1]
    assert fast[0] == _search_oracle(g, blocks, SelectorConfig(max_trials=1), "bessel", 0.5)[0]
    assert abs(fast[2] - 1.0) < 1e-14


@pytest.mark.parametrize("objective, seed, trial", [("bessel", 579, 9), ("riesz", 2, 3)])
def test_search_meets_a_target_inside_the_margin(objective, seed, trial):
    # diagonal entries one ulp apart: lambda_max is 1 + 14 eps or 1 + 15 eps
    # (the last block's pick) and lambda_min 1 or 1 + eps (the first block's).
    # A target at the better value lies within 3m of the first trial's
    # quality, so only the shift's goal branch keeps the trial meeting it
    g = np.diag(1.0 + EPS * np.arange(16))
    blocks = BlockSystem.intervals(range(16), 2).blocks
    target = 1.0 + 14 * EPS if objective == "bessel" else 1.0 + EPS
    first = _search_oracle(g, blocks, SelectorConfig(master_seed=seed, max_trials=1),
                           objective, target)
    q = _quality(objective, first)
    goal = target if objective == "bessel" else -target
    assert not first[4] and q - 3 * _margin(g, first[0], q) < goal < q
    fast, slow = _search_both(g, blocks, objective, target, 40, seed=seed)
    assert fast == slow
    assert fast[4] and fast[3] == trial


@pytest.mark.parametrize("objective", ["bessel", "riesz"])
def test_search_shift_sits_two_margins_below_the_best(monkeypatch, objective):
    # one block: a 1x1 block factors exactly when its entry is positive, so the
    # shift is seen exactly.  Trial 0 picks the entry of quality 1, and trials
    # 1, 2, 4, 5 the other one; with m = 8 eps, an entry 12 eps better is
    # rejected by Cholesky, one 20 eps better is solved but ties, and one
    # 28 eps better wins at trial 1
    sign = 1.0 if objective == "bessel" else -1.0
    g = np.diag(1.0 - sign * EPS * np.array([0.0, 12.0, 20.0, 28.0]))
    config, target = SelectorConfig(master_seed=1, max_trials=6), -1.0 if sign > 0 else 2.0
    for other, solves, winner in ((1, 1, 0), (2, 5, 0), (3, 2, 3)):
        calls = _count_eigensolves(monkeypatch)
        fast = frames._search(g, ((0, other),), config, objective, target)
        assert (len(calls), fast[0], fast[4]) == (solves, (winner,), False)
        assert fast == _search_oracle(g, ((0, other),), config, objective, target)


@pytest.mark.parametrize("objective", ["riesz", "bessel"])
def test_search_matches_oracle_unequal_blocks(objective):
    g = _random_gram(5, 12, 40, scale=0.2)
    sizes = [1, 3, 1, 5, 2, 1, 4, 1, 6, 2, 3, 1, 7, 3]  # sums to 40
    edges = np.cumsum([0] + sizes)
    blocks = tuple(tuple(range(a, b)) for a, b in zip(edges, edges[1:]))
    fast, slow = _search_both(g, blocks, objective, 1e3 if objective == "riesz" else -1.0, 250,
                              seed=9)
    assert fast == slow
    # select_tight's quarter blocks of a 5-block have lengths 2, 1, 1, 1
    quarters = tuple(tuple(int(x) for x in part) for b in blocks if len(b) >= 4
                     for part in np.array_split(np.asarray(b), 4))
    assert min(len(q) for q in quarters) == 1
    fast, slow = _search_both(g, quarters, objective, 1e3 if objective == "riesz" else -1.0,
                              250, seed=9, stage=1)
    assert fast == slow


def test_search_matches_oracle_stage_keys_and_dual_gram():
    g2 = _random_gram(2, 24, 16, scale=0.3)
    dual = dual_system(g2)
    assert np.iscomplexobj(dual) and np.abs(dual.imag).max() > 0
    blocks = tuple((2 * i, 2 * i + 1) for i in range(8))
    for stage in (1, 2, 3):
        for objective, target in (("bessel", 0.0), ("riesz", 1e6)):
            fast, slow = _search_both(dual, blocks, objective, target, 200, seed=3, stage=stage)
            assert fast == slow
    keyed = _search_both(dual, blocks, "bessel", 0.0, 200, seed=3, stage=3)[0]
    assert keyed != _search_both(dual, blocks, "bessel", 0.0, 200, seed=3)[0]


@pytest.mark.parametrize("objective", ["riesz", "bessel"])
def test_search_matches_oracle_zero_gram(objective):
    # every trial ties at 0, so the first trial wins
    g = np.zeros((12, 12), dtype=complex)
    blocks = BlockSystem.intervals(range(12), 3).blocks
    fast, slow = _search_both(g, blocks, objective, 1.0 if objective == "riesz" else -1.0, 60)
    assert fast == slow
    first = _search_both(g, blocks, objective, 1.0 if objective == "riesz" else -1.0, 1)[1]
    assert fast[1] == fast[2] == 0.0 and fast[0] == first[0]


def test_select_tight_matches_oracle(monkeypatch):
    # unit vectors in C^12: no stage meets its target, so all three run in full
    rng = np.random.default_rng(6)
    z = rng.normal(size=(12, 32)) + 1j * rng.normal(size=(12, 32))
    f = z / np.linalg.norm(z, axis=0)
    g = f.conj().T @ f
    blocks = BlockSystem.intervals(range(32), 8)
    config = SelectorConfig(master_seed=6, max_trials=200)
    fast = select_tight(g, blocks, 0.05, config)
    assert fast.trials == 600 and not fast.met
    # stage 3 searches by position; its picks come back as rows of g, one per block
    assert all(lab in block for lab, block in zip(fast.labels, blocks.blocks))
    assert (fast.lambda_min, fast.lambda_max) == _extremes(g[np.ix_(fast.labels, fast.labels)])
    monkeypatch.setattr(frames, "_search", _search_oracle)
    assert fast == select_tight(g, blocks, 0.05, config)


def test_select_tight_degenerate_stage_2_falls_back_to_riesz(monkeypatch):
    # eight copies of one unit vector in C^1: the stage-2 pair Gram is the
    # singular 2x2 all-ones matrix, so dual_system raises and stage 3 runs the
    # primal lower-bound search
    g = np.ones((8, 8))
    blocks = BlockSystem.intervals(range(8), 8)
    config = SelectorConfig(max_trials=20)
    fast = select_tight(g, blocks, 0.5, config)
    assert fast.labels == (0,) and fast.lambda_min == fast.lambda_max == 1.0
    assert fast.met and fast.trials == 41
    monkeypatch.setattr(frames, "_search", _search_oracle)
    assert fast == select_tight(g, blocks, 0.5, config)


def test_vector_draw_matches_scalar_draws():
    # one integers(lengths) call, and one integers(lengths, size=(64, n)) call
    # as _search draws a chunk, consume the stream exactly as a row-major loop
    # of scalar calls does, for lengths 1 (no draw) through 2**33
    lengths = [1, 2, 3, 7, 1, 64, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 1, 2**33, 5, 2]
    for seed in range(4):
        for key in ((0,), (7,), (3, 11)):
            vec = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
            one = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
            draws = vec.integers(np.array(lengths))
            assert draws.tolist() == [int(one.integers(n)) for n in lengths]
            chunk = vec.integers(np.array(lengths), size=(64, len(lengths)))
            assert chunk.tolist() == [[int(one.integers(n)) for n in lengths] for _ in range(64)]
            assert vec.integers(2**40) == one.integers(2**40)


@pytest.mark.parametrize("stage", [None, 2])
@pytest.mark.parametrize("objective", ["riesz", "bessel"])
def test_search_matches_oracle_across_chunk_boundaries(monkeypatch, objective, stage):
    # 130 trials read three streams: trials 0-63, 64-127 and 128-129
    g = _random_gram(8, 10, 24, scale=0.3)
    blocks = BlockSystem.intervals(range(24), 3).blocks
    unmet = 1e3 if objective == "riesz" else -1.0
    fast, slow = _search_both(g, blocks, objective, unmet, 130, seed=5, stage=stage)
    assert fast == slow and fast[3] == 130 and not fast[4]
    # a target at the best quality of the 130 trials stops at the trial first reaching it
    target = fast[1] if objective == "riesz" else fast[2]
    fast, slow = _search_both(g, blocks, objective, target, 130, seed=5, stage=stage)
    assert fast == slow and fast[4]
    # every trial after the first reaches the Cholesky gate, whose block is
    # sign * A + cI: failing each factorization shows every trial's picks in
    # the block's off-diagonal entries, which are distinct in this Gram
    shifted = []

    def fail(b):
        shifted.append(b.copy())
        return False

    monkeypatch.setattr(frames, "_cholesky_factors", fail)
    config = SelectorConfig(master_seed=5, max_trials=130)
    frames._search(g, blocks, config, objective, unmet, stage)
    sign, off = (1.0 if objective == "riesz" else -1.0), ~np.eye(len(blocks), dtype=bool)
    picks = list(_draws(blocks, config, stage))[1:]
    assert len(shifted) == len(picks) == 129
    for b, p in zip(shifted, picks):
        assert np.array_equal(b[off], sign * g[np.ix_(p, p)][off])


@pytest.mark.parametrize("objective", ["riesz", "bessel"])
def test_search_screens_and_solves_the_lower_triangle(objective):
    # the Cholesky screen and the eigensolve of each trial read one triangle, the
    # lower one, so the screen decides on the matrix that is solved: junk above the
    # diagonal of a Gram whose blocks keep their order changes nothing
    g = _random_gram(8, 10, 24, scale=0.3)
    blocks = BlockSystem.intervals(range(24), 3).blocks
    config = SelectorConfig(master_seed=5, max_trials=130)
    unmet = 1e3 if objective == "riesz" else -1.0
    junk = g.copy()
    junk[np.triu_indices(24, 1)] = np.nan
    assert frames._search(junk, blocks, config, objective, unmet) == \
        frames._search(g, blocks, config, objective, unmet)


@pytest.mark.parametrize("stage", [None, 2])
@pytest.mark.parametrize("objective", ["riesz", "bessel"])
def test_search_without_potrf_is_bit_identical(monkeypatch, objective, stage):
    # a build without the ?potrf symbols screens with np.linalg.cholesky; only
    # which trials reach the eigensolve may differ, never the result
    g = _random_gram(8, 10, 24, scale=0.3)
    blocks = BlockSystem.intervals(range(24), 3).blocks
    config = SelectorConfig(master_seed=5, max_trials=130)
    unmet = 1e3 if objective == "riesz" else -1.0
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda b: calls.append(1) or cholesky(b))
    with_potrf = frames._search(g, blocks, config, objective, unmet, stage)
    target = with_potrf[1] if objective == "riesz" else with_potrf[2]
    met = frames._search(g, blocks, config, objective, target, stage)
    potrf = {("potrf", np.dtype(np.float64)), ("potrf", np.dtype(np.complex128))}
    uses_potrf = potrf <= set(gram._openblas())
    assert not calls or not uses_potrf
    openblas = {k: v for k, v in gram._openblas().items() if k not in potrf}
    monkeypatch.setattr(gram, "_openblas", lambda: openblas)
    assert frames._search(g, blocks, config, objective, unmet, stage) == with_potrf
    assert frames._search(g, blocks, config, objective, target, stage) == met
    assert met[4] and not with_potrf[4] and len(calls) >= 129


@pytest.mark.parametrize("bands, window, objective, target, trials", [
    ([(0.1, 0.4)], 48, "riesz", 0.32, 300),   # a short arc, lambda_min below its share
    ([(0.1, 0.4)], 48, "bessel", 0.29, 300),  # lambda_max above it
    ([(0.9, 1.1)], 48, "riesz", 0.22, 300),   # across 0: normalize_bands splits it in two
    ([(0.9, 1.1)], 48, "bessel", 0.19, 300),
    ([(0.0, 0.66)], 128, "bessel", 0.5, 150),  # saturated: every lambda_max is 1 within ulps
    ([(0.0, 1.0)], 48, "riesz", 1.02, 300),   # the full torus: both are I but for rounding
    ([(0.0, 1.0)], 48, "bessel", 0.98, 300),
])
def test_real_one_arc_gram_searches_as_the_complex_one(bands, window, objective, target, trials):
    s = normalize_bands(bands, unit="2pi")
    assert s.is_arc() and len(s.arcs) == len(bands) + (bands[0][1] > 1.0)
    real = _solved_gram(range(window), s) / s.total_volume
    full = build_gram(range(window), s, normalized=True)
    assert np.isrealobj(real) and np.iscomplexobj(full)
    # a diagonal unitary conjugate of build_gram's matrix: the same spectrum
    assert np.allclose(np.linalg.eigvalsh(real), np.linalg.eigvalsh(full), rtol=0, atol=1e-13)
    blocks = BlockSystem.intervals(range(window), 2)
    select = select_riesz if objective == "riesz" else select_bessel
    config = SelectorConfig(master_seed=7, max_trials=trials)
    a, b = select(real, blocks, target, config), select(full, blocks, target, config)
    assert (a.labels, a.trials, a.met) == (b.labels, b.trials, b.met)
    assert a.trials == trials and not a.met
    q = b.lambda_max if objective == "bessel" else -b.lambda_min
    m = _margin(full, b.labels, q)
    assert abs(a.lambda_min - b.lambda_min) <= m and abs(a.lambda_max - b.lambda_max) <= m
