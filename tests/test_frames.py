"""Frame-operator algebra: completions, complements, randomized selection."""

import math

import numpy as np
import pytest

from rieszforge import BlockSystem, SelectorConfig, VectorSystem, \
    complete_to_parseval_small, dual_system, exponential_system, frames, \
    naimark_complement, normalize_bands, predicted_bessel_bound, select_bessel, \
    select_riesz, select_tight, stabilize


def random_parseval(rng, dim, count):
    """dim rows of a random count x count unitary: synthesis FF^H = I."""
    z = rng.normal(size=(count, count)) + 1j * rng.normal(size=(count, count))
    q, _ = np.linalg.qr(z)
    return VectorSystem(matrix=q[:dim, :], labels=tuple(range(count)))


def random_bessel(rng, dim, count, delta):
    z = rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
    z /= np.linalg.norm(z, axis=0, keepdims=True)
    z *= np.sqrt(rng.uniform(0.2 * delta, delta, size=count))
    w = np.linalg.eigvalsh(z @ z.conj().T)
    if w[-1] > 1.0:
        z /= math.sqrt(w[-1]) * (1 + 1e-12)
    return VectorSystem(matrix=z, labels=tuple(range(count)))


def test_vector_system_basics():
    m = np.array([[1.0, 0.0], [0.0, 2.0]])
    vs = VectorSystem(matrix=m, labels=(5, 9))
    assert vs.ambient_dim == 2 and vs.count == 2
    assert np.allclose(vs.norms_squared(), [1.0, 4.0])
    sub = vs.subsystem([9])
    assert sub.labels == (9,) and sub.matrix.shape == (2, 1)
    with pytest.raises(ValueError):
        vs.subsystem([7])
    with pytest.raises(ValueError):
        VectorSystem(matrix=m, labels=(1,))
    with pytest.raises(ValueError):
        VectorSystem(matrix=m, labels=(1, 1))


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


def test_exponential_system_reproduces_gram():
    from rieszforge import build_gram
    s = normalize_bands([(0.0, 0.7 * 2 * math.pi)])
    pts = [0, 1, 3, 6]
    sys_ = exponential_system(pts, s)
    g = build_gram(pts, s, normalized=True)
    assert np.abs(sys_.gram() - g).max() < 1e-12
    assert sys_.labels == (0, 1, 3, 6)


def test_completion_two_vector_example():
    # two orthogonal vectors of squared norm 0.2, delta = 0.25:
    # deficit 0.8 per direction, m = floor(0.8/0.25)+1 = 4 copies each
    m = np.diag([math.sqrt(0.2), math.sqrt(0.2)])
    vs = VectorSystem(matrix=m, labels=(0, 1))
    added = complete_to_parseval_small(vs, 0.25)
    assert added.count == 8
    assert float(added.norms_squared().max()) <= 0.25 + 1e-12
    total = vs.frame_operator() + added.frame_operator()
    assert np.abs(total - np.eye(2)).max() < 1e-12


def test_completion_m_rule_forces_five():
    # deficit 0.8 with delta = 0.2 needs m = 5 (0.8/4 = 0.2 is not < 0.2)
    m = np.diag([math.sqrt(0.2)])
    vs = VectorSystem(matrix=m, labels=(0,))
    added = complete_to_parseval_small(vs, 0.2)
    assert added.count == 5
    assert float(added.norms_squared().max()) < 0.2


def test_completion_random_systems():
    rng = np.random.default_rng(21)
    for delta in (0.1, 0.2):
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            count = int(rng.integers(1, 2 * dim + 1))
            vs = random_bessel(rng, dim, count, delta)
            added = complete_to_parseval_small(vs, delta)
            if added.count:
                assert float(added.norms_squared().max()) <= delta + 1e-12
            total = vs.frame_operator() + added.frame_operator()
            # identity on the span of the input
            w, v = np.linalg.eigh(vs.frame_operator())
            span = v[:, w > 1e-10]
            assert np.abs(total @ span - span).max() < 1e-8


def test_completion_validation():
    vs = VectorSystem(matrix=np.eye(2), labels=(0, 1))
    with pytest.raises(ValueError):
        complete_to_parseval_small(vs, 0.5)  # norms exceed delta
    with pytest.raises(ValueError):
        complete_to_parseval_small(vs, 1.5)
    # four copies of one vector of squared norm 0.3: norms fit delta, Bessel bound 1.2
    copies = VectorSystem(matrix=np.full((1, 4), math.sqrt(0.3)), labels=(0, 1, 2, 3))
    with pytest.raises(ValueError, match="Bessel bound exceeds 1"):
        complete_to_parseval_small(copies, 0.5)
    # a Parseval frame with small norms needs nothing added
    rng = np.random.default_rng(0)
    f = random_parseval(rng, 2, 8)
    added = complete_to_parseval_small(f, 0.9)
    assert added.count == 0


def test_naimark_complement_identity():
    rng = np.random.default_rng(3)
    f = random_parseval(rng, 3, 7)
    g = naimark_complement(f)
    assert g.ambient_dim == 7 - 3
    assert np.abs(f.gram() + g.gram() - np.eye(7)).max() < 1e-12
    assert g.labels == f.labels
    # complement of a Parseval frame is Parseval for its span
    wg = np.linalg.eigvalsh(g.frame_operator())
    assert np.abs(wg - 1.0).max() < 1e-10


def test_naimark_rejects_non_parseval():
    vs = VectorSystem(matrix=np.array([[2.0, 0.0], [0.0, 1.0]]), labels=(0, 1))
    with pytest.raises(ValueError):
        naimark_complement(vs)


def test_naimark_of_orthonormal_basis_is_empty():
    f = VectorSystem(matrix=np.eye(4), labels=(0, 1, 2, 3))
    g = naimark_complement(f)
    assert g.ambient_dim == 0
    assert np.abs(f.gram() + g.gram() - np.eye(4)).max() < 1e-12


def test_predicted_bounds():
    assert predicted_bessel_bound(4, 0.25) == pytest.approx((0.5 + 0.5) ** 2)
    assert predicted_bessel_bound(1, 0.0) == pytest.approx(1.0)
    # pair bound at delta0 = 0.1: 1 - eps0 = 0.9
    assert predicted_bessel_bound(2, 0.1, pairs=True) == pytest.approx(0.9)
    with pytest.raises(ValueError):
        predicted_bessel_bound(2, 0.3, pairs=True)
    with pytest.raises(ValueError):
        predicted_bessel_bound(0, 0.1)
    cfg = SelectorConfig()
    assert cfg.predicted_block_size(0.8) == 2          # eps > 3/4
    assert cfg.predicted_block_size(0.5) == 2 * math.ceil(cfg.big_constant / 0.5)
    assert cfg.predicted_tight_block_size(0.5) == math.ceil(cfg.big_constant / 0.5**4)


def test_selector_config_validation():
    with pytest.raises(ValueError):
        SelectorConfig(max_trials=0)
    cfg = SelectorConfig()
    assert cfg.delta0 == 0.1
    assert cfg.eps0 == pytest.approx(0.5 - math.sqrt(0.16))  # = 0.1
    assert cfg.big_constant == pytest.approx(729.0)


def test_select_riesz_deterministic():
    s = normalize_bands([(0.0, 0.9)], unit="2pi")
    sys_ = exponential_system(range(32), s)
    blocks = BlockSystem.intervals(range(32), 2)
    r1 = select_riesz(sys_, blocks, 0.05)
    r2 = select_riesz(sys_, blocks, 0.05)
    assert r1 == r2
    assert r1.met and r1.lambda_min >= 0.05
    assert len(r1.labels) == len(blocks)
    for lab, block in zip(r1.labels, blocks.blocks):
        assert lab in block


def test_select_bessel_beats_prediction():
    s = normalize_bands([(0.0, 0.5)], unit="2pi")
    sys_ = exponential_system(range(32), s)
    blocks = BlockSystem.intervals(range(32), 4)
    bound = predicted_bessel_bound(4, 0.5)
    res = select_bessel(sys_, blocks, bound)
    assert res.met
    assert res.lambda_max <= bound


def test_select_exhaustive_oracle():
    # tiny instance: randomized search with enough trials matches brute force
    import itertools
    rng = np.random.default_rng(8)
    z = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    sys_ = VectorSystem(matrix=z / 3.0, labels=tuple(range(6)))
    blocks = BlockSystem(blocks=((0, 1), (2, 3), (4, 5)))
    g = sys_.gram()
    best = -math.inf
    for combo in itertools.product(*blocks.blocks):
        idx = list(combo)
        best = max(best, float(np.linalg.eigvalsh(g[np.ix_(idx, idx)])[0]))
    res = select_riesz(sys_, blocks, best + 1e-9, SelectorConfig(max_trials=500))
    # 500 seeded trials over 8 selectors: misses one choice with prob ~0
    assert not res.met
    assert res.lambda_min == pytest.approx(best, abs=1e-12)


def test_select_validates_labels():
    sys_ = VectorSystem(matrix=np.eye(3), labels=(0, 1, 2))
    with pytest.raises(ValueError):
        select_riesz(sys_, BlockSystem(blocks=((0, 5),)), 0.1)


@pytest.mark.parametrize("target", [math.nan, math.inf])
def test_select_rejects_non_finite_target(target):
    sys_ = VectorSystem(matrix=np.eye(8), labels=tuple(range(8)))
    with pytest.raises(ValueError):
        select_riesz(sys_, BlockSystem.intervals(range(8), 2), target)
    with pytest.raises(ValueError):
        select_bessel(sys_, BlockSystem.intervals(range(8), 2), target)
    with pytest.raises(ValueError):
        select_tight(sys_, BlockSystem.intervals(range(8), 4), target)


def test_select_tight():
    s = normalize_bands([(0.0, 1.0)], unit="2pi")  # full torus: orthonormal core
    sys_ = exponential_system(range(16), s)
    blocks = BlockSystem.intervals(range(16), 8)
    res = select_tight(sys_, blocks, 0.5)
    assert res.objective == "tight"
    assert res.met
    assert len(res.labels) == 2
    assert 0.5 <= res.lambda_min and res.lambda_max <= 1.5
    # reproducible
    assert res == select_tight(sys_, blocks, 0.5)


def test_select_tight_validation():
    sys_ = VectorSystem(matrix=np.eye(8), labels=tuple(range(8)))
    with pytest.raises(ValueError):
        select_tight(sys_, BlockSystem.intervals(range(8), 2), 0.5)  # r < 4
    with pytest.raises(ValueError):
        select_tight(sys_, BlockSystem.intervals(range(8), 4), 0.0)
    bad = VectorSystem(matrix=2 * np.eye(8), labels=tuple(range(8)))
    with pytest.raises(ValueError):
        select_tight(bad, BlockSystem.intervals(range(8), 4), 0.5)  # not unit norm


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


# ------------------------------------------------- selection search oracle --


def _search_oracle(gram, label_pos, blocks, config, objective, target, stage=None):
    """The search without fast rejection: scalar draws, np.ix_, eigvalsh every trial."""
    best_key = None
    best = None
    for t in range(config.max_trials):
        key = (t,) if stage is None else (stage, t)
        rng = np.random.default_rng(np.random.SeedSequence(config.master_seed, spawn_key=key))
        picks = tuple(b[int(rng.integers(len(b)))] for b in blocks)
        idx = [label_pos[lab] for lab in picks]
        w = np.linalg.eigvalsh(gram[np.ix_(idx, idx)])
        lmin, lmax = float(w[0]), float(w[-1])
        if objective == "bessel":
            quality, met = lmax, lmax <= target
        else:
            quality, met = -lmin, lmin >= target
        if met:
            return picks, lmin, lmax, t + 1, True
        cand_key = (quality, picks)
        if best_key is None or cand_key < best_key:
            best_key = cand_key
            best = (picks, lmin, lmax)
    picks, lmin, lmax = best
    return picks, lmin, lmax, config.max_trials, False


def _search_both(gram, blocks, objective, target, trials, seed=0, stage=None):
    label_pos = {i: i for i in range(gram.shape[0])}
    config = SelectorConfig(master_seed=seed, max_trials=trials)
    fast = frames._search(gram, label_pos, blocks, config, objective, target, stage)
    slow = _search_oracle(gram, label_pos, blocks, config, objective, target, stage)
    return fast, slow


def _count_eigensolves(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    return calls


def _arc_gram(fraction, window):
    return exponential_system(range(window), normalize_bands([(0.0, fraction)], unit="2pi")).gram()


def _random_gram(seed, dim, count, scale=1.0):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
    return VectorSystem(matrix=scale * z, labels=tuple(range(count))).gram()


@pytest.mark.parametrize("objective, bands", [("riesz", [(0.0, 0.85)]),
                                              ("bessel", [(0.0, 0.3), (0.45, 0.75)])])
def test_search_matches_oracle_unmet(monkeypatch, objective, bands):
    g = exponential_system(range(48), normalize_bands(bands, unit="2pi")).gram()
    blocks = BlockSystem.intervals(range(48), 2).blocks
    # the diagonal entry, the band's share, bounds lambda_min above and lambda_max below
    share = sum(b - a for a, b in bands)
    target = share + 0.02 if objective == "riesz" else 0.98 * share
    calls = _count_eigensolves(monkeypatch)
    fast = frames._search(g, {i: i for i in range(48)}, blocks,
                          SelectorConfig(master_seed=11, max_trials=300), objective, target)
    assert len(calls) < 30  # the Cholesky test rejects most trials
    assert fast == _search_both(g, blocks, objective, target, 300, seed=11)[1]
    assert fast[3] == 300 and not fast[4]


@pytest.mark.parametrize("objective", ["riesz", "bessel"])
def test_search_matches_oracle_met_mid_run(objective):
    g = _arc_gram(0.7, 40)
    blocks = BlockSystem.intervals(range(40), 2).blocks
    # the best bound over 200 trials, reached first at a trial past the first
    _, lmin, lmax, _, _ = _search_oracle(
        g, {i: i for i in range(40)}, blocks, SelectorConfig(master_seed=4, max_trials=200),
        objective, 2.0 if objective == "riesz" else 0.0)
    target = lmin if objective == "riesz" else lmax
    fast, slow = _search_both(g, blocks, objective, target, 200, seed=4)
    assert fast == slow
    assert fast[4] and 1 < fast[3] < 200


def test_search_matches_oracle_saturated_bessel():
    # one arc at W=128: every trial's lambda_max is 1 within a few ulps, so the
    # filter can reject almost nothing and ulp-level order decides the winner
    g = _arc_gram(0.66, 128)
    blocks = BlockSystem.intervals(range(128), 2).blocks
    fast, slow = _search_both(g, blocks, "bessel", 0.5, 150, seed=0)
    assert fast == slow
    assert abs(fast[2] - 1.0) < 1e-14


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
    # every trial ties at 0, so the label order alone picks the winner
    g = np.zeros((12, 12), dtype=complex)
    blocks = BlockSystem.intervals(range(12), 3).blocks
    fast, slow = _search_both(g, blocks, objective, 1.0 if objective == "riesz" else -1.0, 60)
    assert fast == slow
    first = _search_both(g, blocks, objective, 1.0 if objective == "riesz" else -1.0, 1)[1]
    assert fast[1] == fast[2] == 0.0 and fast[0] < first[0]


def test_select_tight_matches_oracle(monkeypatch):
    # unit vectors in C^12: no stage meets its target, so all three run in full
    rng = np.random.default_rng(6)
    z = rng.normal(size=(12, 32)) + 1j * rng.normal(size=(12, 32))
    sys_ = VectorSystem(matrix=z / np.linalg.norm(z, axis=0), labels=tuple(range(32)))
    blocks = BlockSystem.intervals(range(32), 8)
    config = SelectorConfig(master_seed=6, max_trials=200)
    fast = select_tight(sys_, blocks, 0.05, config)
    assert fast.trials == 600 and not fast.met
    monkeypatch.setattr(frames, "_search", _search_oracle)
    assert fast == select_tight(sys_, blocks, 0.05, config)


def test_select_tight_degenerate_stage_2_falls_back_to_riesz(monkeypatch):
    # eight copies of one unit vector in C^1: the stage-2 pair Gram is the
    # singular 2x2 all-ones matrix, so dual_system raises and stage 3 runs the
    # primal lower-bound search
    sys_ = VectorSystem(matrix=np.ones((1, 8)), labels=tuple(range(8)))
    blocks = BlockSystem.intervals(range(8), 8)
    config = SelectorConfig(max_trials=20)
    fast = select_tight(sys_, blocks, 0.5, config)
    assert fast.labels == (0,) and fast.lambda_min == fast.lambda_max == 1.0
    assert fast.met and fast.trials == 41
    monkeypatch.setattr(frames, "_search", _search_oracle)
    assert fast == select_tight(sys_, blocks, 0.5, config)


def test_vector_draw_matches_scalar_draws():
    # one integers(lengths) call consumes the stream exactly as a loop of
    # scalar calls does, for lengths 1 (no draw) through 2**33
    lengths = [1, 2, 3, 7, 1, 64, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 1, 2**33, 5, 2]
    for seed in range(4):
        for key in ((0,), (7,), (3, 11)):
            vec = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
            one = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
            draws = vec.integers(np.array(lengths))
            assert draws.tolist() == [int(one.integers(n)) for n in lengths]
            assert vec.integers(2**40) == one.integers(2**40)
