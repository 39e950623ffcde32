"""Dense polynomial arithmetic over GF(p), and the one powering kernel.

Polynomials are lists of ints in ascending order, reduced mod p. Every
power mod (g, p) is taken by one kernel, ``_pow_columns``, which raises
x + a_i to e_i mod (g_i, p_i) for a whole column of primes at once, by
square-and-multiply in numpy; ``pow_mod`` is the same loop on columns of
numbers, a_i^e_i mod p_i. ``_powers`` groups any list of powers of x + a
by the degree of g and the dtype of the column. Four batch functions run
on them:

- ``low_degree_roots``: the roots of columns of monic polynomials of
  degree <= 2 in closed form: Euler's criterion, then D^((p+1)/4) or
  Cipolla's square root of the discriminant D;
- ``frobenius_root_poly``: gcd(x^p - x, g), from x^p mod (g, p);
- ``roots_of_split``: the roots of a g that splits into distinct linear
  factors, by equal-degree splitting (Cantor & Zassenhaus 1981) with
  (x + a)^((p-1)/2) in lockstep rounds, and ``low_degree_roots`` once a
  factor has degree <= 2;
- ``is_irreducible``: Rabin's test (Rabin 1980) from x^(p^k) mod (g, p),
  for all its primes in one call.

``modular.roots_mod_primes`` chains the middle two for degree >= 3.
"""

from __future__ import annotations

import random

import numpy as np

# Below this modulus, residues fit int64 columns: every product of two
# residues stays below 2^62.
_INT64_MODULUS_LIMIT = 1 << 31

# A product of k >= 3 distinct linear factors over GF(p) stays whole in a
# splitting round with probability at most 0.31 (the worst case, p = 13;
# about 1/4 for large p), so it survives this many rounds with probability
# below 10^-32. A factor that does is not such a product.
_SPLIT_ROUNDS = 64

# Candidates t per lockstep round of Cipolla's search for a non-square
# t^2 - a: about one column in 2^_CIPOLLA_TRIES needs a second round.
_CIPOLLA_TRIES = 4


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


def modulus_column(ms):
    """The moduli ms as the column residues mod them are computed in: int64
    when every m < 2^31, so that no product of two residues reaches 2^62,
    and Python ints otherwise."""
    small = not len(ms) or np.max(ms) < _INT64_MODULUS_LIMIT
    return np.array(ms, dtype=np.int64 if small else object)


def _pow_columns(A, E, neg_low, P):
    """(x + A_i)^E_i mod (g_i, P_i) for each column i, as a (d, n) array
    of coefficients, for the monic g_i of degree d with
    x^d = sum_j neg_low[j, i] x^j mod (g_i, P_i).

    Square-and-multiply over the bits of E_i from the top, all columns in
    lockstep. Each product of two residues is reduced mod p before it is
    summed, and each sum before it is multiplied, so no int64 value reaches
    2^63. A, neg_low and the result are residues in P's dtype
    (``modulus_column``); E is int64 while every E_i < 2^63. The arithmetic
    is the same either way.
    """
    d, n = neg_low.shape
    acc = np.zeros((d, n), dtype=P.dtype)
    acc[0] = 1
    if not n:
        return acc
    for bit in range(int(E.max()).bit_length() - 1, -1, -1):
        # acc^2, each coefficient a sum of at most d reduced products
        sq = np.zeros((2 * d - 1, n), dtype=P.dtype)
        for i in range(d):
            sq[i : i + d] += acc[i] * acc % P
        # x^k = x^(k-d) * x^d, folded back from the top
        for k in range(2 * d - 2, d - 1, -1):
            sq[k - d : k] += sq[k] % P * neg_low % P
        acc = sq[:d] % P
        # acc * (x + a): shift up one place, fold x^d back in, add a * acc
        times = A * acc % P + acc[d - 1] * neg_low % P
        times[1:] += acc[:-1]
        acc = np.where((E >> bit) & 1 == 1, times % P, acc)
    return acc


def pow_mod(a, e, P):
    """a_i^e_i mod P_i for residue columns a and P (``modulus_column``) and
    an exponent column e, by square-and-multiply in lockstep: the kernel's
    powering of x + a mod g = x, without its polynomial bookkeeping. a may
    hold several rows of columns, which share e and P."""
    acc = np.ones_like(a)
    if not acc.size:
        return acc
    for bit in range(int(e.max()).bit_length() - 1, -1, -1):
        acc = acc * acc % P
        acc = np.where((e >> bit) & 1 == 1, acc * a % P, acc)
    return acc


def inverse(a, P):
    """a_i^-1 mod P_i for the nonzero residues a_i (Fermat)."""
    return pow_mod(a, P - 2, P)


def _pow_x_plus_a(a, e, gs, ps):
    """(x + a_i)^e_i mod (g_i, p_i) as lists, every g_i monic of the same
    degree d >= 1 over GF(p_i): ``_pow_columns`` on lists."""
    d = len(gs[0]) - 1
    P = modulus_column(ps)
    A = np.array(a, dtype=P.dtype) % P
    neg_low = (-np.array([g[:d] for g in gs], dtype=P.dtype).T) % P
    E = np.array(e, dtype=np.int64 if max(e) < 1 << 63 else object)
    acc = _pow_columns(A, E, neg_low, P)
    return [trim(w) for w in acc.T.tolist()]


def _powers(a, e, gs, ps):
    """(x + a_i)^e_i mod (g_i, p_i) for each i, every g_i monic of degree
    >= 1: one kernel call per group of equal degree and dtype."""
    groups = {}
    for i, (g, p) in enumerate(zip(gs, ps)):
        groups.setdefault((len(g), p < _INT64_MODULUS_LIMIT), []).append(i)
    out = [None] * len(gs)
    for idx in groups.values():
        cols = [[seq[i] for i in idx] for seq in (a, e, gs, ps)]
        for i, w in zip(idx, _pow_x_plus_a(*cols)):
            out[i] = w
    return out


def frobenius_root_poly(gs, ps):
    """gcd(x^p - x, g) over GF(p) for each monic g of degree >= 1 in gs
    and p in ps: the product of (x - r) over the distinct roots r of g."""
    xps = _powers([0] * len(gs), ps, gs, ps)
    return [gcd(_minus_x_to(xp, 1, p), g, p) for g, p, xp in zip(gs, ps, xps)]


def roots_of_split(hs, ps, seed):
    """The sorted roots, as a tuple, of each monic h over GF(p) for h in hs
    and the odd prime p in ps. h has degree <= 2, or is a squarefree product
    of linear factors (a divisor of x^p - x).

    The factors of degree <= 2 are read off by ``low_degree_roots``, in
    one call for the input and one per round. The others are split in
    lockstep rounds (Cantor & Zassenhaus 1981): each round, every h_i with
    such a factor left draws one a from its own
    random.Random((seed << 20) ^ p_i), and each of those factors h is split
    by u = gcd((x + a)^((p-1)/2) - 1, h) into u and h/u when u is a proper
    factor. The roots are sorted, so they do not depend on seed. A factor
    left whole for _SPLIT_ROUNDS rounds in a row raises ValueError naming
    it and p.
    """
    found = [[] for _ in hs]
    low = [(i, h) for i, h in enumerate(hs) if len(h) <= 3]
    # (i, factor, rounds it has gone unsplit)
    pending = [(i, h, 0) for i, h in enumerate(hs) if len(h) > 3]
    rngs = {i: random.Random((seed << 20) ^ ps[i]) for i, _, _ in pending}
    while True:
        _add_low_roots(found, low, ps)
        if not pending:
            break
        draws = dict.fromkeys(i for i, _, _ in pending)
        a = {i: rngs[i].randrange(ps[i]) for i in draws}
        ws = _powers(
            [a[i] for i, _, _ in pending],
            [(ps[i] - 1) // 2 for i, _, _ in pending],
            [h for _, h, _ in pending],
            [ps[i] for i, _, _ in pending],
        )
        split, pending, low = pending, [], []
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
                    low.append((i, piece))
                else:
                    pending.append((i, piece, 0))
    return [tuple(sorted(r)) for r in found]


def _add_low_roots(found, pieces, ps):
    """Add to found[i] the roots of each monic piece of degree <= 2 of
    (i, piece) in ``pieces``, by one ``low_degree_roots`` call."""
    pieces = [(i, [*h] + [0] * (3 - len(h))) for i, h in pieces if len(h) > 1]
    if not pieces:
        return
    P = modulus_column([ps[i] for i, _ in pieces])
    c0, c1, c2 = np.array([h for _, h in pieces], dtype=P.dtype).T
    roots, count = low_degree_roots(c0, c1, c2 == 1, P)
    for (i, _), rs, n in zip(pieces, roots.T.tolist(), count.tolist()):
        found[i] += rs[:n]


def low_degree_roots(c0, c1, quad, P):
    """The roots over GF(p) of x + c0 where ``quad`` is False and of
    x^2 + c1*x + c0 where it is True, for residue columns c0, c1 mod the
    odd primes P (``modulus_column``), all in lockstep.

    Returns (roots, count): column i has the count[i] roots
    roots[0, i] <= roots[1, i], or the one root roots[0, i]. A quadratic
    has 2, 1 or 0 roots as its discriminant D = c1^2 - 4*c0 is a nonzero
    square, zero, or not a square (Euler's criterion); its roots are
    (-c1 +- s)/2 for a square root s of D: D^((p+1)/4) when p = 3 mod 4,
    and by Cipolla's method (``_cipolla``) when p = 1 mod 4.
    """
    roots = np.zeros((2, len(P)), dtype=P.dtype)
    roots[0] = -c0 % P
    count = np.ones(len(P), dtype=np.int64)
    q = np.flatnonzero(quad)
    if not len(q):
        return roots, count
    P, c0, c1 = P[q], c0[q], c1[q]
    disc = (c1 * c1 - 4 * c0) % P
    euler = pow_mod(disc, (P - 1) // 2, P)
    s = np.zeros_like(P)
    three = np.flatnonzero((euler == 1) & (P % 4 == 3))
    s[three] = pow_mod(disc[three], (P[three] + 1) // 4, P[three])
    one = np.flatnonzero((euler == 1) & (P % 4 == 1))
    s[one] = _cipolla(disc[one], P[one])
    half = (P + 1) // 2
    lo, hi = (-c1 - s) % P * half % P, (s - c1) % P * half % P
    roots[0, q] = np.where(lo < hi, lo, hi)
    roots[1, q] = np.where(lo < hi, hi, lo)
    count[q] = np.where(euler == 1, 2, np.where(disc == 0, 1, 0))
    return roots, count


def _cipolla(a, P):
    """A square root of each nonzero square a_i mod the prime P_i = 1 mod 4
    (Cipolla 1903): (t + x)^((p+1)/2) mod (x^2 - w, p), where w = t^2 - a
    is not a square. t is the least such t >= 1. The candidates are tried
    _CIPOLLA_TRIES at a time, in lockstep over the columns that have no t
    yet; some t <= p is one, as (p - 1)/2 of the residues t are."""
    t = np.zeros_like(P)
    todo = np.arange(len(P))
    start = 1
    while len(todo):
        cand = np.arange(start, start + _CIPOLLA_TRIES).astype(P.dtype)[:, None]
        p = P[todo]
        w = (cand * cand - a[todo]) % p
        nonsquare = pow_mod(w, (p - 1) // 2, p) == p - 1
        first = np.argmax(nonsquare, axis=0)
        found = nonsquare.any(axis=0)
        t[todo[found]] = cand[first[found], 0]
        todo = todo[~found]
        start += _CIPOLLA_TRIES
    neg_low = np.stack(((t * t - a) % P, np.zeros_like(P)))
    return _pow_columns(t, (P + 1) // 2, neg_low, P)[0]


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
