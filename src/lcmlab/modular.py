"""Roots of f modulo p and modulo prime powers.

Level-1 roots come from ``roots_mod_primes``, which works on a block of
primes. It reduces f mod each prime once and makes the result monic. At
p = 2 the residues 0 and 1 are tested; every odd prime of the block goes
to one call of ``gfpoly.roots``, which runs gfpoly's lockstep powering
kernel for the block: x^p mod (g, p) and gcd(x^p - x, g) for degree >= 3,
equal-degree splitting of that gcd, and the closed form for degree <= 2.

f must not vanish identically mod p: a prime of the content of f is
refused, since every residue would be a root. The ledger strips the
content first.

Simple roots lift uniquely by a Newton step (Hensel); roots at ramified
primes are lifted exhaustively over all p candidates per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import gfpoly

if TYPE_CHECKING:
    from .polynomial import IntPoly


# Primes per call of roots_mod_primes in the ledger; bounds the lockstep
# arrays and the RootSets held at once.
BLOCK_SIZE = 2048


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
    odd = {}
    for p in dict.fromkeys(primes):
        g = gfpoly.monic(gfpoly.reduce_mod(f.coeffs, p), p)
        if not g:
            raise ValueError(f"f vanishes identically mod {p}")
        if p == 2:
            found[p] = tuple(r for r in (0, 1) if f.eval(r) % 2 == 0)
        else:
            odd[p] = g
    found.update(zip(odd, gfpoly.roots(list(odd.values()), list(odd), seed)))
    return [_root_set(f, p, found[p]) for p in primes]


def _root_set(f, p, roots):
    flags = tuple(f.deriv_eval(r) % p != 0 for r in roots)
    return RootSet(p=p, k=1, roots=roots, simple_flags=flags)


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

