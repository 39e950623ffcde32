"""Roots of f modulo p and modulo prime powers.

Level-1 roots come from ``roots_mod_primes``, which works on a block of
primes. It reduces f mod each prime once, makes the result monic and
dispatches on what is left:

- p = 2: the residues 0 and 1 are tested;
- degree <= 2: the closed form, with a Tonelli-Shanks square root of the
  discriminant;
- degree >= 3: x^p mod (g, p) in lockstep for all primes of that degree
  in numpy columns (int64 below 2^31, Python ints above), then per prime
  gcd(x^p - x, g), whose roots are read off by the closed form (degree
  <= 2) or by equal-degree splitting (degree >= 3).

f must not vanish identically mod p: a prime of the content of f is
refused, since every residue would be a root. The ledger strips the
content first.

Simple roots lift uniquely by a Newton step (Hensel); roots at ramified
primes are lifted exhaustively over all p candidates per level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import gfpoly

if TYPE_CHECKING:
    from .polynomial import IntPoly


# Primes per call of roots_mod_primes in the ledger; bounds the lockstep
# arrays and the RootSets held at once.
BLOCK_SIZE = 2048

# Below this, lockstep residues fit int64 columns: every product of two
# residues stays below 2^62.
_LOCKSTEP_PRIME_LIMIT = 1 << 31


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
    random splitting of gcds of degree >= 3. A prime that divides every
    coefficient of f raises ValueError.
    """
    primes = list(primes)
    found = {}
    lockstep = {}
    for p in dict.fromkeys(primes):
        g = gfpoly.monic(gfpoly.reduce_mod(f.coeffs, p), p)
        if not g:
            raise ValueError(f"f vanishes identically mod {p}")
        if p == 2:
            found[p] = tuple(r for r in (0, 1) if f.eval(r) % 2 == 0)
        elif len(g) <= 3:
            found[p] = _roots_low_degree(g, p)
        else:
            key = (len(g), p < _LOCKSTEP_PRIME_LIMIT)
            lockstep.setdefault(key, []).append((p, g))
    for pairs in lockstep.values():
        found.update(_roots_lockstep(pairs, seed))
    return [_root_set(f, p, found[p]) for p in primes]


def _root_set(f, p, roots):
    flags = tuple(f.deriv_eval(r) % p != 0 for r in roots)
    return RootSet(p=p, k=1, roots=roots, simple_flags=flags)


def _roots_low_degree(g, p):
    """Sorted roots in GF(p), p odd, of the monic g of degree <= 2."""
    if len(g) == 1:
        return ()
    if len(g) == 2:
        return ((-g[0]) % p,)
    c0, c1, _ = g
    disc = (c1 * c1 - 4 * c0) % p
    if disc and pow(disc, (p - 1) // 2, p) != 1:
        return ()
    half = (p + 1) // 2
    if disc == 0:
        return ((-c1 * half) % p,)
    s = _sqrt_mod(disc, p)
    return tuple(sorted(((s - c1) * half % p, (-s - c1) * half % p)))


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


def _roots_lockstep(pairs, seed):
    """(p, roots) for each pair (p, g) of an odd prime and a monic g of
    degree d >= 3 over GF(p), d the same for every pair.

    x^p mod (g, p) is computed for all pairs at once, one column of
    residues per prime, by square-and-multiply over the bits of p from the
    top, every product reduced mod p before it is added. The columns are
    int64 when every p < 2^31 (no product reaches 2^62) and Python ints
    otherwise; the arithmetic is the same.
    """
    primes = [p for p, _ in pairs]
    d = len(pairs[0][1]) - 1
    dtype = np.int64 if max(primes) < _LOCKSTEP_PRIME_LIMIT else object
    P = np.array(primes, dtype=dtype)
    # neg_low[j] = -g_j mod p for g = x^d + sum_{j<d} g_j x^j,
    # so x^d = sum_j neg_low[j] x^j mod (g, p).
    neg_low = (-np.array([g[:d] for _, g in pairs], dtype=dtype).T) % P
    acc = np.zeros((d, len(primes)), dtype=dtype)
    acc[0] = 1
    for bit in range(max(primes).bit_length() - 1, -1, -1):
        sq = np.zeros((2 * d - 1, len(primes)), dtype=dtype)
        for i in range(d):
            sq[i : i + d] = (sq[i : i + d] + acc[i] * acc % P) % P
        for k in range(2 * d - 2, d - 1, -1):
            sq[k - d : k] = (sq[k - d : k] + sq[k] * neg_low % P) % P
        acc = sq[:d]
        times_x = np.zeros_like(acc)
        times_x[1:] = acc[:-1]
        times_x = (times_x + acc[d - 1] * neg_low % P) % P
        acc = np.where((P >> bit) & 1 == 1, times_x, acc)
    out = []
    for (p, g), xp in zip(pairs, acc.T.tolist()):
        xp[1] = (xp[1] - 1) % p
        diff = gfpoly.trim(xp)
        h = gfpoly.gcd(diff, g, p) if diff else g
        if len(h) <= 3:
            out.append((p, _roots_low_degree(h, p)))
        else:
            rng = random.Random((seed << 20) ^ p)
            out.append((p, tuple(gfpoly.roots_of_split(h, p, rng))))
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
