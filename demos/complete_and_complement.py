"""Two frame-operator constructions: small-norm completion and the complement.

A Bessel system with small vectors can always be topped up to a Parseval
frame using vectors no larger than the originals: each deficient eigendirection
of the frame operator receives m equal copies with m chosen so the copies stay
under the norm budget.  And every Parseval frame has a complement whose Gram
is exactly the identity minus the original Gram.
"""

import numpy as np

import rieszforge as rf


def norms_squared(f):
    return np.real(np.sum(f.conj() * f, axis=0))


def main():
    rng = np.random.default_rng(42)

    # a Bessel system of 5 small vectors in C^3
    delta = 0.2
    z = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    z /= np.linalg.norm(z, axis=0, keepdims=True)
    z *= np.sqrt(rng.uniform(0.05, delta, size=5))
    # columns are the vectors: f @ f^H is the frame operator, f^H @ f the Gram
    print(f"input: {z.shape[1]} vectors in C^{z.shape[0]}, "
          f"squared norms <= {norms_squared(z).max():.4f}")

    added = rf.complete_to_parseval_small(z, delta)
    total = z @ z.conj().T + added @ added.conj().T
    resid = np.abs(total - np.eye(3)).max()
    print(f"completion added {added.shape[1]} vectors "
          f"(squared norms <= {norms_squared(added).max():.4f})")
    print(f"frame operator vs identity: max residual {resid:.2e}")

    # a random Parseval frame of 7 vectors in C^3 and its complement
    q, _ = np.linalg.qr(rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
    f = q[:3, :]
    g = rf.naimark_complement(f)
    print(f"\nParseval frame: 7 vectors in C^3, complement lives in C^{g.shape[0]}")
    gram_f, gram_g = f.conj().T @ f, g.conj().T @ g
    resid = np.abs(gram_f + gram_g - np.eye(7)).max()
    print(f"Gram(F) + Gram(G) vs identity: max residual {resid:.2e}")
    # the complement turns an upper bound on F into a lower bound on G
    lf = float(np.linalg.eigvalsh(gram_f)[-1])
    lg = float(np.linalg.eigvalsh(gram_g)[0])
    print(f"lambda_max(F Gram) = {lf:.6f},  lambda_min(G Gram) = {lg:.6f}, "
          f"sum = {lf + lg:.6f}")

if __name__ == "__main__":
    main()
