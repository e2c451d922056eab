"""Plus modular symbols of an elliptic curve: the exact side of every orbit.

A Manin symbol (c:d) is a point of P^1(Z/N), a pair (c, d) mod N with
gcd(c, d, N) = 1 up to units of Z/N; it stands for the modular symbol
g{0, oo} of any g in SL_2(Z) with bottom row (c, d) (Cremona, *Algorithms
for Modular Elliptic Curves*, ch. 2).  The curve's plus eigen-functional phi
is the primitive integer vector on them that

- kills the relations (c:d) + (d:-c) = 0 and (c:d) + (d:-c-d) + (-c-d:c) = 0,
- is even, phi(c:d) = phi(-c:d),
- is a Hecke eigenvector, sum_{h in X_q} phi((c:d) h) = a_q phi(c:d), for the
  least primes q prime to N, with Merel's set
  X_q = {[[a, b], [c', d']] : ad' - bc' = q, a > b >= 0, d' > c' >= 0} and
  (c:d) [[a, b], [c', d']] = (ca + dc' : cb + dd') (Merel, LNM 1585, 1994).

Primes are added until the solutions form one line.  The system is
row-reduced modulo the prime 2^31 - 1; rank n - 1 there bounds the rational
solution space to dimension 1, and the kernel vector, rebuilt by rational
reconstruction, is checked to kill every relation exactly over Z.

For 0 < a < f with convergent denominators q_-1 = 0, q_0 = 1, ..., q_k = f,

    phi({oo, a/f}) = sum_{j=0..k} phi(((-1)^(j-1) q_j : q_(j-1))),

the j = 0 term being (1:0); phi is even, so the signs drop out.  The
orbit's symbol sums M_t = sum_{a < f, ind(a) = t} phi({oo, a/f}) give its
coset sums exactly, S_t = r M_t, with one rational r per curve and order
(Mazur, Tate and Teitelbaum, Invent. Math. 84, 1986).

The Fricke involution W_N = [[0, -1], [N, 0]] commutes with the plus
condition and acts on phi's line by a sign eps_N, and the root number of the
curve is w = -eps_N.  Since W_N {oo, a/c} = {0, -c/(N a)},

    phi({oo, -c/(N a)}) - phi({oo, 0}) = eps_N phi({oo, a/c}),

and W_N {oo, 0} = {0, oo} gives -phi({oo, 0}) = eps_N phi({oo, 0}).
root_number fits eps_N to these exact integers on the cusps of small
denominator, so a declared root number is checked without a series.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np

from .numcore import is_prime

_P = 2 ** 31 - 1            # row reduction modulus; products fit int64
_BOUND = isqrt(_P // 2)     # rational reconstruction: |num|, den <= _BOUND
_MAX_HECKE_PRIME = 100      # Hecke operators tried before giving up
_CUSP_BOUND = 30            # root_number fits W_N on a/c with c <= this

# largest level a curve config may name: PlusSymbols is dense, its time
# growing about as N^3 and its memory as N^2.  On a 2 vCPU Xeon it took
# 3.4 s and a 60 MB peak at N = 389, and 59 s and 213 MB at N = 997.
MAX_LEVEL = 1000


def _merel_set(q: int) -> list[tuple[int, int, int, int]]:
    """X_q as (a, b, c, d); ad - bc >= a + d - 1 bounds a + d by q + 1."""
    out = []
    for a in range(1, q + 1):
        for d in range(1, q + 2 - a):
            for b in range(a):
                if b == 0:
                    out.extend((a, 0, c, d) for c in range(d) if a * d == q)
                elif (a * d - q) % b == 0 and 0 <= (a * d - q) // b < d:
                    out.append((a, b, (a * d - q) // b, d))
    return out


def _rref(A: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The nonzero rows of the reduced row echelon form of A mod _P, and
    their pivot columns."""
    A = A % _P
    pivots: list[int] = []
    for col in range(A.shape[1]):
        r = len(pivots)
        nz = np.flatnonzero(A[r:, col])
        if not len(nz):
            continue
        A[[r, r + nz[0]]] = A[[r + nz[0], r]]
        A[r] = A[r] * pow(int(A[r, col]), _P - 2, _P) % _P
        factors = A[:, col].copy()
        factors[r] = 0
        A = (A - factors[:, None] * A[r] % _P) % _P
        pivots.append(col)
    return A[:len(pivots)], pivots


def _rational(x: int) -> Fraction:
    """u / v = x mod _P with |u|, v <= _BOUND (Wang's half extended Euclid)."""
    r0, r1, s0, s1 = _P, x, 0, 1
    while r1 > _BOUND:
        k = r0 // r1
        r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
    if abs(s1) > _BOUND or gcd(r1, s1) != 1:
        raise ArithmeticError(f"{x} mod {_P} has no small fraction")
    return Fraction(r1, s1)


class PlusSymbols:
    """phi for the newform of level N with Hecke eigenvalues ap(q)."""

    def __init__(self, N: int, ap):
        self.N = N
        units = np.array([s for s in range(1, N) if gcd(s, N) == 1])
        # cls[c, d]: the label of (c:d), -1 where gcd(c, d, N) > 1
        cls = np.full((N, N), -1, dtype=np.int64)
        reps = []
        for c in range(N):
            for d in range(N):
                if cls[c, d] < 0 and gcd(c, d, N) == 1:
                    cls[units * c % N, units * d % N] = len(reps)
                    reps.append((c, d))
        c, d = np.array(reps).T
        n = len(reps)

        def block(*terms):
            """One row per symbol x: sum of coeff e_{label} over terms."""
            rows = np.zeros((n, n), dtype=np.int64)
            for coeff, (x, y) in terms:
                np.add.at(rows, (np.arange(n), cls[x % N, y % N]), coeff)
            return rows

        blocks = [block((1, (c, d)), (1, (d, -c))),
                  block((1, (c, d)), (1, (d, -c - d)), (1, (-c - d, c))),
                  block((1, (c, d)), (-1, (-c, d)))]
        reduced, pivots = np.vstack(blocks), []
        hecke_primes = (q for q in range(2, _MAX_HECKE_PRIME)
                        if N % q and is_prime(q))
        for q in hecke_primes:
            blocks.append(block((-ap(q), (c, d)), *(
                (1, (c * a + d * cc, c * b + d * dd))
                for a, b, cc, dd in _merel_set(q))))
            reduced, pivots = _rref(np.vstack((reduced, blocks[-1])))
            if len(pivots) >= n - 1:
                break
        if len(pivots) != n - 1:
            raise ArithmeticError(f"the Hecke eigenvalues at level {N} leave "
                                  f"{n - len(pivots)} dimensions, not one")
        # the free column, the last in phi's support, is set to 1, so phi's
        # last nonzero coordinate is positive; a pivot coordinate is minus
        # its row's entry in the free column
        free = next(j for j in range(n) if j not in pivots)
        vec = [Fraction(1)] * n
        for row, col in zip(reduced, pivots):
            vec[col] = -_rational(int(row[free]))
        scale = lcm(*(v.denominator for v in vec))
        phi = [int(v * scale) for v in vec]
        content = gcd(*phi)
        self.phi = np.array([v // content for v in phi], dtype=np.int64)
        if any(np.vstack(blocks).astype(object) @ self.phi.astype(object)):
            raise ArithmeticError(f"the kernel vector mod {_P} fails over Z")
        self.rank = len(pivots)
        # phi on the (c, d) grid, 0 off P^1
        self._grid = np.where(cls >= 0, self.phi[cls], 0)

    def __call__(self, c: int, d: int) -> int:
        """phi((c:d))."""
        return int(self._grid[c % self.N, d % self.N])

    def _oo_to(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """phi({oo, u/v}) for arrays of coprime pairs with v > 0.  phi is
        invariant under u -> u + v, so u is reduced mod v, and the continued
        fractions of the u/v run in lockstep."""
        u = u % v
        total = np.full(len(u), self(1, 0), dtype=np.int64)
        idx = np.flatnonzero(u)
        x, y = v[idx], u[idx]              # the complete quotient is x / y
        q0, q1 = np.zeros_like(idx), np.ones_like(idx)   # q_(j-1), q_j mod N
        while len(idx):
            k, rem = np.divmod(x, y)
            q0, q1 = q1, (k % self.N * q1 + q0) % self.N
            total[idx] += self._grid[q1, q0]
            live = rem > 0
            idx, x, y, q0, q1 = idx[live], y[live], rem[live], q0[live], q1[live]
        return total

    def orbit_sums(self, period: np.ndarray, ell: int) -> tuple[int, ...]:
        """M_t for t = 0..ell-1, period the exponent table of chi and f its
        size.  chi is even and phi({oo, 1 - x}) = phi({oo, x}), so a and
        f - a add the same term: the a < f/2 are summed and doubled."""
        f = period.size
        exps = period[:f // 2 + 1]
        a = np.flatnonzero(exps >= 0)
        sums = np.zeros(ell, dtype=np.int64)
        np.add.at(sums, exps[a], self._oo_to(a, np.full(len(a), f)))
        return tuple(2 * int(s) for s in sums)

    def root_number(self) -> int:
        """The root number w = -eps_N, eps_N fitted exactly to the Fricke
        relation on every cusp a/c, 0 <= a < c <= _CUSP_BOUND.  Raises
        ArithmeticError unless exactly one sign fits."""
        N = self.N
        a, c = np.array([(a, c) for c in range(2, _CUSP_BOUND + 1)
                         for a in range(1, c) if gcd(a, c) == 1]).T
        g = np.gcd(c, N * a)
        phi0 = self(1, 0)                  # phi({oo, 0})
        # W_N {oo, a/c} = {0, -c/(N a)}, and W_N {oo, 0} = {0, oo}
        image = np.append(self._oo_to(-c // g, N * a // g) - phi0, -phi0)
        phi = np.append(self._oo_to(a, c), phi0)
        signs = [e for e in (1, -1) if np.array_equal(image, e * phi)]
        if len(signs) != 1:
            raise ArithmeticError(
                f"{len(signs)} Fricke signs fit phi at level {N} on the "
                f"cusps of denominator <= {_CUSP_BOUND}, not one")
        return -signs[0]
