"""Dense polynomial arithmetic over GF(p), and the one powering kernel.

Polynomials are lists of ints in ascending order, reduced mod p. Every
power mod (g, p) is taken by one kernel, ``_pow_x_plus_a``, which raises
x + a_i to e_i mod (g_i, p_i) for a whole column of primes at once, by
square-and-multiply in numpy. ``_powers`` groups any list of such powers
by the degree of g and the dtype of the column. Three batch functions run
on it, each over a list of (g, p):

- ``frobenius_root_poly``: gcd(x^p - x, g), from x^p mod (g, p);
- ``roots_of_split``: the roots of a g that splits into distinct linear
  factors, by equal-degree splitting (Cantor & Zassenhaus 1981) with
  (x + a)^((p-1)/2) in lockstep rounds, and the closed form once a factor
  has degree <= 2;
- ``is_irreducible``: Rabin's test (Rabin 1980) from x^(p^k) mod (g, p),
  for all its primes in one call.

``roots`` chains the first two for ``modular.roots_mod_primes``.
"""

from __future__ import annotations

import random

import numpy as np

# Below this, kernel residues fit int64 columns: every product of two
# residues stays below 2^62.
_INT64_PRIME_LIMIT = 1 << 31

# A product of k >= 3 distinct linear factors over GF(p) stays whole in a
# splitting round with probability at most 0.31 (the worst case, p = 13;
# about 1/4 for large p), so it survives this many rounds with probability
# below 10^-32. A factor that does is not such a product.
_SPLIT_ROUNDS = 64


def trim(a):
    """a without its trailing zeros; a itself when it has none."""
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a if i == len(a) else a[:i]


def reduce_mod(coeffs, p):
    return trim([c % p for c in coeffs])


def deg(a):
    return len(a) - 1


def div_rem(a, b, p):
    """Quotient and remainder of a by the nonzero b over GF(p)."""
    b = trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = trim([c % p for c in a])
    inv_lead = pow(b[-1], -1, p)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db:
        shift = len(a) - 1 - db
        factor = a[-1] * inv_lead % p
        q[shift] = factor
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bc) % p
        a = trim(a)
    return trim(q), a


def monic(a, p):
    """a scaled to leading coefficient 1; a itself when it already is."""
    a = trim(a)
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def gcd(a, b, p):
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, div_rem(a, b, p)[1]
    return monic(a, p)


def _minus_x_to(w, k, p):
    """w - x^k over GF(p), for k = 0 or 1."""
    w = list(w) + [0] * (k + 1 - len(w))
    w[k] = (w[k] - 1) % p
    return trim(w)


def _pow_x_plus_a(a, e, gs, ps):
    """(x + a_i)^e_i mod (g_i, p_i) for each column i, every g_i monic of
    the same degree d >= 1 over GF(p_i).

    Square-and-multiply over the bits of e_i from the top, all columns in
    lockstep, every product reduced mod p before it is added. The residue
    columns are int64 when every p < 2^31 (no product reaches 2^62) and
    Python ints otherwise; the exponent column is int64 while every
    e_i < 2^63. The arithmetic is the same either way.
    """
    d = len(gs[0]) - 1
    dtype = np.int64 if max(ps) < _INT64_PRIME_LIMIT else object
    P = np.array(ps, dtype=dtype)
    E = np.array(e, dtype=np.int64 if max(e) < 1 << 63 else object)
    A = np.array(a, dtype=dtype) % P
    # neg_low[j] = -g_j mod p for g = x^d + sum_{j<d} g_j x^j,
    # so x^d = sum_j neg_low[j] x^j mod (g, p).
    neg_low = (-np.array([g[:d] for g in gs], dtype=dtype).T) % P
    acc = np.zeros((d, len(ps)), dtype=dtype)
    acc[0] = 1
    for bit in range(max(e).bit_length() - 1, -1, -1):
        sq = np.zeros((2 * d - 1, len(ps)), dtype=dtype)
        for i in range(d):
            sq[i : i + d] = (sq[i : i + d] + acc[i] * acc % P) % P
        for k in range(2 * d - 2, d - 1, -1):
            sq[k - d : k] = (sq[k - d : k] + sq[k] * neg_low % P) % P
        acc = sq[:d]
        # acc * (x + a): shift up one place, fold x^d back in, add a * acc
        times = np.zeros_like(acc)
        times[1:] = acc[:-1]
        times = (times + acc[d - 1] * neg_low % P + A * acc % P) % P
        acc = np.where((E >> bit) & 1 == 1, times, acc)
    return [trim(w) for w in acc.T.tolist()]


def _powers(a, e, gs, ps):
    """(x + a_i)^e_i mod (g_i, p_i) for each i, every g_i monic of degree
    >= 1: one kernel call per group of equal degree and dtype."""
    groups = {}
    for i, (g, p) in enumerate(zip(gs, ps)):
        groups.setdefault((len(g), p < _INT64_PRIME_LIMIT), []).append(i)
    out = [None] * len(gs)
    for idx in groups.values():
        cols = [[seq[i] for i in idx] for seq in (a, e, gs, ps)]
        for i, w in zip(idx, _pow_x_plus_a(*cols)):
            out[i] = w
    return out


def roots(gs, ps, seed):
    """The sorted roots over GF(p_i), p_i odd, of each monic g_i: those of
    gcd(x^p - x, g) when g has degree >= 3, read off by roots_of_split."""
    big = [i for i, g in enumerate(gs) if len(g) > 3]
    hs = list(gs)
    found = frobenius_root_poly([gs[i] for i in big], [ps[i] for i in big])
    for i, h in zip(big, found):
        hs[i] = h
    return roots_of_split(hs, ps, seed)


def frobenius_root_poly(gs, ps):
    """gcd(x^p - x, g) over GF(p) for each monic g of degree >= 1 in gs
    and p in ps: the product of (x - r) over the distinct roots r of g."""
    xps = _powers([0] * len(gs), ps, gs, ps)
    return [gcd(_minus_x_to(xp, 1, p), g, p) for g, p, xp in zip(gs, ps, xps)]


def roots_of_split(hs, ps, seed):
    """The sorted roots, as a tuple, of each monic h over GF(p) for h in hs
    and the odd prime p in ps. h has degree <= 2, or is a squarefree product
    of linear factors (a divisor of x^p - x).

    A factor of degree <= 2 is read off by the closed form. The others are
    split in lockstep rounds (Cantor & Zassenhaus 1981): each round, every
    h_i with such a factor left draws one a from its own
    random.Random((seed << 20) ^ p_i), and each of those factors h is split
    by u = gcd((x + a)^((p-1)/2) - 1, h) into u and h/u when u is a proper
    factor. The roots are sorted, so they do not depend on seed. A factor
    left whole for _SPLIT_ROUNDS rounds in a row raises ValueError naming
    it and p.
    """
    found = [_roots_low_degree(h, p) if len(h) <= 3 else () for h, p in zip(hs, ps)]
    # (i, factor, rounds it has gone unsplit)
    pending = [(i, h, 0) for i, h in enumerate(hs) if len(h) > 3]
    rngs = {i: random.Random((seed << 20) ^ ps[i]) for i, _, _ in pending}
    while pending:
        draws = dict.fromkeys(i for i, _, _ in pending)
        a = {i: rngs[i].randrange(ps[i]) for i in draws}
        ws = _powers(
            [a[i] for i, _, _ in pending],
            [(ps[i] - 1) // 2 for i, _, _ in pending],
            [h for _, h, _ in pending],
            [ps[i] for i, _, _ in pending],
        )
        split, pending = pending, []
        for (i, h, rounds), w in zip(split, ws):
            p = ps[i]
            u = gcd(_minus_x_to(w, 0, p), h, p)
            if not 0 < deg(u) < deg(h):
                if rounds + 1 == _SPLIT_ROUNDS:
                    raise ValueError(
                        f"roots_of_split: {h} mod p={p} did not split in "
                        f"{_SPLIT_ROUNDS} rounds, so it is not a product of "
                        "distinct linear factors"
                    )
                pending.append((i, h, rounds + 1))
                continue
            for piece in (u, div_rem(h, u, p)[0]):
                if len(piece) <= 3:
                    found[i] += _roots_low_degree(piece, p)
                else:
                    pending.append((i, piece, 0))
    for i in rngs:
        found[i] = tuple(sorted(found[i]))
    return found


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


def is_irreducible(f, ps):
    """Whether f mod p is irreducible over GF(p), for each prime p in ps;
    f is a list of integer coefficients.

    Rabin's test: the monic g = f mod p of degree n >= 2 is irreducible iff
    x^(p^n) = x mod (g, p) and gcd(x^(p^(n/q)) - x, g) = 1 for every prime
    q | n. The powers of all the primes are one call of ``_powers``. A
    g of degree 1 is irreducible, one of degree < 1 is not.
    """
    gs = [monic(reduce_mod(f, p), p) for p in ps]
    jobs = []  # (index into ps, k) for the power x^(p^k)
    for i, g in enumerate(gs):
        n = deg(g)
        if n >= 2:
            qs = [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]
            jobs += [(i, n // q) for q in qs] + [(i, n)]
    ws = _powers(
        [0] * len(jobs),
        [ps[i] ** k for i, k in jobs],
        [gs[i] for i, _ in jobs],
        [ps[i] for i, _ in jobs],
    )
    irreducible = [deg(g) >= 1 for g in gs]
    for (i, k), w in zip(jobs, ws):
        diff = _minus_x_to(w, 1, ps[i])
        if k == deg(gs[i]):
            irreducible[i] &= not diff
        else:
            irreducible[i] &= deg(gcd(diff, gs[i], ps[i])) == 0
    return irreducible
