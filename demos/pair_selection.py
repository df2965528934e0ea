"""Randomized one-per-block selection against the theory-side predictions.

Splitting the frequencies 0..63 into 32 consecutive pairs and picking one
frequency per pair at random keeps, with high probability, a healthy lower
bound for the normalized Gram on a 90%-of-the-circle band.  The existence
constants predict astronomically large blocks; the seeded search shows how
far from sharp they are in practice.
"""

import rieszforge as rf


def main():
    s = rf.normalize_bands([(0.0, 0.9)], unit="2pi")
    system = rf.exponential_system(range(64), s)
    blocks = rf.BlockSystem.intervals(range(64), 2)
    config = rf.SelectorConfig(master_seed=0, max_trials=10000)

    delta = s.fraction_of_torus
    print(f"vector squared norms: {delta:.3f}")
    print(f"reference bound for arbitrary pair picks: "
          f"{rf.predicted_bessel_bound(2, delta):.4f}")
    print(f"existence-proof block size for lambda_min >= eps0*eps at eps=0.5: "
          f"{config.predicted_block_size(0.5)}")

    result = rf.select_riesz(system, blocks, 0.05, config)
    print(f"\nselect_riesz: met={result.met} after {result.trials} trial(s)")
    print(f"lambda_min = {result.lambda_min:.6f}  lambda_max = {result.lambda_max:.6f}")
    print(f"first picks: {result.labels[:8]} ...")

    # two-sided selection needs unit vectors; the full circle provides them
    full = rf.normalize_bands([(0.0, 1.0)], unit="2pi")
    ortho = rf.exponential_system(range(32), full)
    tight = rf.select_tight(ortho, rf.BlockSystem.intervals(range(32), 8), 0.25)
    print(f"\nselect_tight on an orthonormal system: met={tight.met}, "
          f"spectrum in [{tight.lambda_min:.3f}, {tight.lambda_max:.3f}]")

    # growing partial selectors stabilize position by position
    sels = [result.labels[: t + 1] for t in range(len(result.labels))]
    depth, choices = rf.stabilize(sels)
    print(f"\nstabilize pins {depth} positions; first eight: {choices[:8]}")


if __name__ == "__main__":
    main()
