"""Roots of f modulo p and modulo prime powers.

Level-1 roots come from ``roots_mod_primes``, which works on a block of
primes and picks one finder per degree case:

- deg f <= 2: the closed form, with a Tonelli-Shanks square root of the
  discriminant;
- deg f >= 3 and p < 2^31: x^p mod (f, p) in lockstep for the whole block
  in numpy int64 arrays, then per prime gcd(x^p - x, f), whose roots are
  read off directly (degree 1), by the closed form (degree 2) or by
  equal-degree splitting (degree >= 3);
- p = 2, p dividing the leading coefficient, and (for deg f >= 3)
  p >= 2^31: gcd(x^p - x, f mod p) with the generic GF(p) arithmetic.

Simple roots lift uniquely by a Newton step (Hensel); roots at ramified
primes are lifted exhaustively over all p candidates per level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import gfpoly
from .polynomial import IntPoly


# Primes per call of roots_mod_primes in the ledger and the Chebotarev sum;
# bounds the lockstep arrays and the RootSets held at once.
BLOCK_SIZE = 2048

# Lockstep residues stay below p, so every product stays below 2^62.
_LOCKSTEP_PRIME_LIMIT = 1 << 31

# f vanishing identically mod p (p divides its content) makes every residue
# a root; the roots are listed for primes up to this size, refused above.
_ALL_RESIDUES_LIMIT = 2048


@dataclass(frozen=True)
class RootSet:
    """Residues r in [0, p^k - 1] with p^k | f(r)."""

    p: int
    k: int
    roots: tuple
    simple_flags: tuple  # per root: f'(r) invertible mod p

    def __post_init__(self):
        if len(self.roots) != len(self.simple_flags):
            raise ValueError("roots and simple_flags must align")


def roots_mod_p(f: IntPoly, p, seed=0):
    """All residues r in [0, p-1] with p | f(r), as a level-1 RootSet."""
    return roots_mod_primes(f, (p,), seed)[0]


def roots_mod_primes(f: IntPoly, primes, seed=0):
    """The level-1 RootSet of f for each prime in ``primes``, in order.

    Roots are sorted and do not depend on ``seed``, which only drives the
    random splitting of gcds of degree >= 3.
    """
    primes = list(primes)
    lead = f.coeffs[-1]
    found = {}
    lockstep = []
    for p in dict.fromkeys(primes):
        if p == 2 or lead % p == 0 or (f.degree > 2 and p >= _LOCKSTEP_PRIME_LIMIT):
            found[p] = _roots_generic(f, p, seed)
        elif f.degree <= 2:
            found[p] = _roots_low_degree([c % p for c in f.coeffs], p)
        else:
            lockstep.append(p)
    if lockstep:
        found.update(zip(lockstep, _roots_lockstep(f, lockstep, seed)))
    return [_root_set(f, p, found[p]) for p in primes]


def _root_set(f, p, roots):
    flags = tuple(f.deriv_eval(r) % p != 0 for r in roots)
    return RootSet(p=p, k=1, roots=roots, simple_flags=flags)


def _roots_generic(f, p, seed):
    """Roots of f mod p with the GF(p) polynomial arithmetic alone; the
    only finder for p = 2, for primes dividing the leading coefficient and,
    when deg f >= 3, for p >= 2^31."""
    fred = gfpoly.reduce_mod(f.coeffs, p)
    if not fred:
        if p > _ALL_RESIDUES_LIMIT:
            raise ValueError(f"f vanishes identically mod {p}")
        return tuple(range(p))
    if p == 2:
        return tuple(r for r in (0, 1) if gfpoly.eval_at(fred, r, 2) == 0)
    if gfpoly.deg(fred) == 0:
        return ()
    g = gfpoly.frobenius_root_poly(fred, p)
    if gfpoly.deg(g) == 0:
        return ()
    return tuple(gfpoly.roots_of_split(g, p, random.Random((seed << 20) ^ p)))


def _roots_low_degree(c, p):
    """Sorted roots in GF(p), p odd, of c[0] + c[1] x (+ c[2] x^2), whose
    leading coefficient is a unit mod p."""
    if len(c) == 2:
        return ((-c[0] * pow(c[1], -1, p)) % p,)
    c0, c1, c2 = c
    disc = (c1 * c1 - 4 * c0 * c2) % p
    if disc and pow(disc, (p - 1) // 2, p) != 1:
        return ()
    inv2a = pow(2 * c2, -1, p)
    if disc == 0:
        return ((-c1 * inv2a) % p,)
    s = _sqrt_mod(disc, p)
    return tuple(sorted(((s - c1) * inv2a % p, (-s - c1) * inv2a % p)))


def _sqrt_mod(a, p):
    """A square root of the nonzero quadratic residue a mod the odd prime
    p (Tonelli-Shanks)."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _roots_lockstep(f, primes, seed):
    """Root tuples of f mod each odd prime p < 2^31 not dividing the
    leading coefficient, for deg f >= 3.

    x^p mod (f, p) is computed for all primes at once: one column of int64
    residues per prime, square-and-multiply over the bits of p from the
    top, every product reduced mod p before it is added.
    """
    d = f.degree
    monic = []
    for p in primes:
        inv = pow(f.coeffs[-1], -1, p)
        monic.append([c * inv % p for c in f.coeffs])
    P = np.array(primes, dtype=np.int64)
    # neg_low[j] = -g_j mod p for the monic g = x^d + sum_{j<d} g_j x^j,
    # so x^d = sum_j neg_low[j] x^j mod (g, p).
    neg_low = (-np.array(monic, dtype=np.int64)[:, :d].T) % P
    acc = np.zeros((d, len(primes)), dtype=np.int64)
    acc[0] = 1
    for bit in range(max(primes).bit_length() - 1, -1, -1):
        sq = np.zeros((2 * d - 1, len(primes)), dtype=np.int64)
        for i in range(d):
            sq[i : i + d] = (sq[i : i + d] + acc[i] * acc % P) % P
        for k in range(2 * d - 2, d - 1, -1):
            sq[k - d : k] = (sq[k - d : k] + sq[k] * neg_low % P) % P
        acc = sq[:d]
        times_x = np.empty_like(acc)
        times_x[0] = 0
        times_x[1:] = acc[:-1]
        times_x = (times_x + acc[d - 1] * neg_low % P) % P
        acc = np.where((P >> bit) & 1 == 1, times_x, acc)
    out = []
    for p, g, xp in zip(primes, monic, acc.T.tolist()):
        xp[1] = (xp[1] - 1) % p
        diff = gfpoly.trim(xp)
        h = gfpoly.gcd(diff, g, p) if diff else g
        if len(h) == 1:
            out.append(())
        elif len(h) <= 3:
            out.append(_roots_low_degree(h, p))
        else:
            rng = random.Random((seed << 20) ^ p)
            out.append(tuple(gfpoly.roots_of_split(h, p, rng)))
    return out


def lift_roots(f: IntPoly, prev: RootSet):
    """Roots of f mod p^k from the roots mod p^(k-1).

    Simple roots get their unique Newton lift; non-simple roots are tested
    against all p candidates.
    """
    p = prev.p
    k = prev.k + 1
    pk = p**k
    pk_prev = pk // p
    roots = []
    flags = []
    for r, simple in zip(prev.roots, prev.simple_flags):
        if simple:
            fr = f.eval(r)
            inv = pow(f.deriv_eval(r) % pk, -1, pk)
            lifted = (r - fr * inv) % pk
            roots.append(lifted)
            flags.append(True)
        else:
            for t in range(p):
                cand = r + t * pk_prev
                if f.eval(cand) % pk == 0:
                    roots.append(cand)
                    flags.append(False)
    order = sorted(range(len(roots)), key=roots.__getitem__)
    return RootSet(
        p=p,
        k=k,
        roots=tuple(roots[i] for i in order),
        simple_flags=tuple(flags[i] for i in order),
    )


def count_progression(r, m, N):
    """#{n in [1, N]: n = r mod m} for 0 <= r < m."""
    if not 0 <= r < m:
        raise ValueError("residue out of range")
    if N < 0:
        raise ValueError("N must be >= 0")
    if r == 0:
        return N // m
    if r > N:
        return 0
    return (N - r) // m + 1
