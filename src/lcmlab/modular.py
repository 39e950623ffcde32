"""Roots of f modulo p and modulo prime powers, for a block of primes at
once.

``roots_mod_primes`` reduces f mod each prime of a block as a coefficient
matrix, one column per prime, and makes each column monic
(``gfpoly.monic_columns``). A column's degree is that of f mod p, lower
at a prime of the leading coefficient. At p = 2 the residues 0 and 1 are
tested. At the odd primes the columns of degree >= 3 are replaced by
gcd(x^p - x, g) (one ``gfpoly.frobenius_root_poly`` call), and then one
``gfpoly.roots_of_split`` call finds the roots of every column: in closed
form at degree <= 2, by equal-degree splitting above, all in lockstep on
the matrix. The roots come back as ``RootColumns``, one row per root.

f must not vanish identically mod p: a prime of the content of f is
refused, since every residue would be a root. The ledger strips the
content first.

``lift_columns`` lifts the roots mod p^k of a block to p^(k+1). Simple
roots lift uniquely by a Newton step (Hensel), all rows in lockstep;
roots at ramified primes are lifted exhaustively over all p candidates
per level. ``roots_mod_p`` and ``lift_roots`` are the same for one prime,
as a ``RootSet``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import gfpoly
from .primes import INT64_LIMIT

if TYPE_CHECKING:
    from .polynomial import IntPoly


# Primes per call of roots_mod_primes in the ledger. Each Frobenius power
# and each splitting round is a few hundred numpy calls however wide the
# block, so wider blocks pay that fixed cost less often. Leg 1 alone, ms,
# best of 3, interleaved, on a 2-vCPU Xeon VM (numpy 2.4), at 2^11, 2^12,
# 2^14 and 2^16 primes a block:
#   x^2+1 at 10^6            301 / 262 / 243 / 274
#   x^3+2 at 10^5            268 / 225 / 189 / 182
#   x^4+1 at 2*10^4          126 / 102 /  83 /  84
#   x^5-x+1 at 2*10^4        138 / 108 / 102 / 101
# A block's memory is its lockstep matrices, at most 2d - 1 rows of
# BLOCK_SIZE residues each, and its root and progression columns, a few
# int64 words per root and level: one block's traced peak is 6.3-7.0 MiB
# at 2^14 for x^2+1 at 10^6, x^3+2 at 10^5 and x^5-x+1 at 2*10^4. A pool
# holds at most 2 * workers blocks in flight.
BLOCK_SIZE = 1 << 14


@dataclass(frozen=True)
class RootSet:
    """Residues r in [0, p^k - 1] with p^k | f(r)."""

    p: int
    k: int
    roots: tuple
    simple_flags: tuple  # per root: f'(r) invertible mod p


@dataclass(frozen=True, eq=False)
class RootColumns:
    """The roots of f mod p^k at the primes of a block, one row per root,
    sorted by (prime, root): root j is r[j] mod p[row[j]]^k."""

    p: np.ndarray  # the primes, a ``gfpoly.modulus_column``
    k: int
    row: np.ndarray  # int64: the index of the root's prime in p
    r: np.ndarray  # in ``power_dtype(p, k)``
    simple: np.ndarray  # bool: f'(r) invertible mod p

    def take(self, rows):
        """The roots the boolean mask ``rows`` selects."""
        return dataclasses.replace(
            self, row=self.row[rows], r=self.r[rows], simple=self.simple[rows]
        )

    def root_sets(self):
        """The RootSet of each prime, in order."""
        ends = np.searchsorted(self.row, np.arange(len(self.p) + 1)).tolist()
        r, simple = self.r.tolist(), self.simple.tolist()
        for i, p in enumerate(self.p.tolist()):
            lo, hi = ends[i], ends[i + 1]
            yield RootSet(p, self.k, tuple(r[lo:hi]), tuple(simple[lo:hi]))


def power_dtype(p, k):
    """int64 when every p^k of the column of primes p is below 2^63, object
    otherwise."""
    return np.int64 if not len(p) or int(p.max()) ** k < INT64_LIMIT else object


def powers(p, k):
    """p^k for the column of primes p, in ``power_dtype(p, k)``."""
    return p.astype(power_dtype(p, k)) ** k


def _horner(coeffs, r, m):
    """f(r) and f'(r) mod m for the columns r and m, the coefficients of f
    in ascending order, each a number or a column."""
    val = np.zeros_like(r)
    der = np.zeros_like(r)
    for c in reversed(coeffs):
        der = (der * r + val) % m
        val = (val * r + c) % m
    return val, der


def roots_mod_p(f: IntPoly, p, seed=0):
    """All residues r in [0, p-1] with p | f(r), as a level-1 RootSet."""
    return next(roots_mod_primes(f, (p,), seed).root_sets())


def roots_mod_primes(f: IntPoly, primes, seed=0):
    """The level-1 RootColumns of f at the primes of ``primes``.

    Roots are sorted and do not depend on ``seed``, which only drives the
    random splitting of gcds of degree >= 3: ``gfpoly.roots_of_split``
    returns the odd primes' roots sorted by column and root, and the roots
    of 2 go in at its column, with no sort. The ledger's blocks ascend, so
    there 2 is column 0 and its roots go first. A prime that divides every
    coefficient of f raises ValueError.
    """
    P = gfpoly.modulus_column(primes)
    C, degree = gfpoly.monic_columns(f.coeffs, P)
    if (degree < 0).any():
        raise ValueError(f"f vanishes identically mod {P[np.argmax(degree < 0)]}")
    odd = np.flatnonzero(P != 2)
    H = C[:, odd]
    high = np.flatnonzero(degree[odd] >= 3)
    if len(high):
        H[:, high] = gfpoly.frobenius_root_poly(H[:, high], P[odd[high]])
    row, r = gfpoly.roots_of_split(H, P[odd], seed)
    # one (column, root) pair per root
    row = odd[row]
    for i in np.flatnonzero(P == 2).tolist():
        two = [x for x in (0, 1) if f.eval(x) % 2 == 0]
        at = np.searchsorted(row, i)
        row, r = np.insert(row, at, [i] * len(two)), np.insert(r, at, two)
    _, der = _horner(C[:, row], r, P[row])
    r = r.astype(power_dtype(P, 1))
    return RootColumns(p=P, k=1, row=row, r=r, simple=der != 0)


def lift_columns(f: IntPoly, cols: RootColumns, moduli):
    """The RootColumns of f mod p^(k+1) from those mod p^k, where
    ``moduli`` holds p^(k+1) for each root.

    A simple root r lifts to its one root r - p^k * t mod p^(k+1), with
    t = (f(r)/p^k) * f'(r)^-1 mod p, in lockstep: one Horner pass gives
    f(r) and f'(r) mod p^(k+1), in int64 while every p^(k+1) < 2^31 and in
    Python ints otherwise, and f'(r) mod p is the latter mod p. Each
    non-simple root is tested against all p candidates r + j * p^k; its
    lifts are non-simple too.
    """
    k = cols.k
    s = np.flatnonzero(cols.simple)
    row = cols.row[s]
    p = cols.p[row]
    m = gfpoly.modulus_column(moduli[s])
    pk = m // p.astype(m.dtype)
    r = cols.r[s].astype(m.dtype)
    val, der = _horner([gfpoly.residue(c, m) for c in f.coeffs], r, m)
    der = (der % p).astype(p.dtype)
    # f(r) mod p^(k+1) is p^k * (f(r)/p^k mod p)
    t = (val // pk).astype(p.dtype) * gfpoly.inverse(der, p) % p
    lifted = [(row, (r - pk * t) % m)]
    rest = np.flatnonzero(~cols.simple)
    for i in dict.fromkeys(cols.row[rest].tolist()):
        prime = int(cols.p[i])
        pk = prime**k
        new = [
            x + j * pk
            for x in cols.r[rest][cols.row[rest] == i].tolist()
            for j in range(prime)
            if f.eval(x + j * pk) % (pk * prime) == 0
        ]
        lifted.append((np.full(len(new), i), np.array(new, dtype=object)))
    dtype = power_dtype(cols.p, k + 1)
    row = np.concatenate([np.zeros(0, np.int64)] + [i for i, _ in lifted])
    r = np.concatenate([x.astype(dtype) for _, x in lifted])
    simple = np.repeat(
        [True] + [False] * (len(lifted) - 1), [len(x) for _, x in lifted]
    )
    order = np.lexsort((r, row))
    return RootColumns(
        p=cols.p, k=k + 1, row=row[order], r=r[order], simple=simple[order]
    )


def lift_roots(f: IntPoly, prev: RootSet):
    """Roots of f mod p^(k+1) from the RootSet of the roots mod p^k:
    ``lift_columns`` at the one prime p."""
    P = gfpoly.modulus_column([prev.p])
    cols = RootColumns(
        p=P,
        k=prev.k,
        row=np.zeros(len(prev.roots), dtype=np.int64),
        r=np.array(prev.roots, dtype=power_dtype(P, prev.k)),
        simple=np.array(prev.simple_flags, dtype=bool),
    )
    return next(lift_columns(f, cols, powers(P[cols.row], prev.k + 1)).root_sets())
