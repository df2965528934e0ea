"""Build a syndetic spectrum for a single band and certify its lower bound.

The target is a band covering 45% of the circle.  The constructor picks an
irrational density a just under 0.45 and a slope alpha = (1-a)/2, then keeps
the integers n whose fractional multiple {alpha*n} falls in [0, a).  The
resulting set has only gaps 1 and 3, density a, and its exponentials keep a
positive lower Riesz bound on the band, which the growing Gram sections
support empirically.
"""

import rieszforge as rf


def main():
    s = rf.normalize_bands([(0.0, 0.45)], unit="2pi")
    print(f"spectrum: {len(s.arcs)} arc(s), measure {s.measure:.6f} "
          f"({s.fraction_of_torus:.2%} of the circle)")

    params, points = rf.construct_riesz_set(s, (-5000, 5000))
    print(f"mode={params.mode}  n={params.n}")
    print(f"a     = {float(params.a):.12f}  (exact: {params.a!r})")
    print(f"alpha = {float(params.alpha):.12f}")

    stats = rf.gap_stats(points)
    print(f"{len(points)} points, gap set {sorted(set(stats.gaps))}, "
          f"density {points.density:.6f} vs a = {float(params.a):.6f}")
    print(f"max-density check passes: {rf.density_stats(points).within_landau(s)}")

    cert = rf.certify(points, s, threshold=1e-3 * rf.TWO_PI,
                      schedule=(16, 32, 64, 128, 256))
    print(f"\ncertificate: {cert.verdict}")
    print("  N    lambda_min  lambda_max")
    for n, b in zip(cert.schedule, cert.bounds):
        print(f"{n:5d}  {b.lambda_min:10.6f}  {b.lambda_max:10.6f}")
    print(f"last-step drop of lambda_min: {cert.final_drop:.2%}")
    print(f"(upper bounds stay below the ambient volume 2*pi = {rf.TWO_PI:.4f})")


if __name__ == "__main__":
    main()
