"""Polynomial arithmetic over GF(p) on columns, one prime per column.

Polynomials are coefficient matrices of shape (degree + 1, n), ascending
rows, column i reduced mod the prime P_i, with zeros above a column's own
degree (``degrees``; -1 for zero). Residues are int64 when every p < 2^31
and Python ints otherwise (``modulus_column``), by the same code.

One kernel, ``_pow_columns``, raises x + a_i to e_i mod (g_i, p_i) for a
column of primes at once, by square-and-multiply in numpy, and ``_powers``
groups a matrix by degree for it; ``_pow_mod`` powers columns of numbers
on ``primes.pow_mod``, the package's one ladder for a column of bases.
``_gcd`` is Euclid's algorithm in lockstep: each step cancels one leading
term of every column whose a has degree >= deg b by pseudo-division
(Knuth, TAOCP vol. 2, 4.6.1), so one inverse at the end makes it monic;
``_quotient`` divides exactly by monic columns with the same step. On
these run:

- ``low_degree_roots``: the roots of monic columns of degree <= 2 in
  closed form, with the square root of the discriminant by Tonelli-Shanks
  (Shanks 1973) in lockstep, from nonresidues that quadratic reciprocity
  gives without powering;
- ``frobenius_root_poly``: gcd(x^p - x, g), from x^p mod (g, p);
- ``roots_of_split``: the roots of columns of degree <= 2 or that split
  into distinct linear factors, by equal-degree splitting (Cantor &
  Zassenhaus 1981) in lockstep rounds, with one seeded generator per
  call, and ``low_degree_roots``;
- ``is_irreducible``: Rabin's test (Rabin 1980) from x^(p^k) mod (g, p),
  for all its primes in one call.
"""

from __future__ import annotations

import random
from math import isqrt

import numpy as np

from . import primes

# Below this modulus, residues fit int64 columns: every product of two
# residues stays below 2^62.
_INT64_MODULUS_LIMIT = 1 << 31

# A product of k >= 3 distinct linear factors over GF(p) stays whole in a
# splitting round with probability at most 0.31 (the worst case, p = 13;
# about 1/4 for large p), so it survives this many rounds with probability
# below 10^-32. A factor that does is not such a product.
_SPLIT_ROUNDS = 64


def modulus_column(ms):
    """The moduli ms as the column residues mod them are computed in: int64
    when every m < 2^31, so that no product of two residues reaches 2^62,
    and Python ints otherwise."""
    small = not len(ms) or np.max(ms) < _INT64_MODULUS_LIMIT
    return np.array(ms, dtype=np.int64 if small else object)


def residue(c, m):
    """The integer c mod each entry of the positive column m, in m's
    dtype."""
    if m.dtype == object or -primes.INT64_LIMIT < c < primes.INT64_LIMIT:
        return c % m
    return (c % m.astype(object)).astype(m.dtype)


def degrees(C):
    """The degree of each column of the coefficient matrix C; -1 for a
    zero column."""
    return (np.arange(1, len(C) + 1)[:, None] * (C != 0)).max(axis=0) - 1


def _lead(C, d):
    """The coefficient of x^d_i in each column i of C: the leading one for
    d = degrees(C), and 0 for a zero column."""
    return C[d, np.arange(C.shape[1])]


def monic_columns(coeffs, P):
    """f mod each prime of the column P, made monic, as a (len(coeffs), n)
    matrix, and its degree vector, which is -1 where f vanishes mod p;
    coeffs are the integer coefficients of f in ascending order."""
    C = np.stack([residue(c, P) for c in coeffs])
    d = degrees(C)
    lead = _lead(C, d)
    scale = np.flatnonzero(lead > 1)
    C[:, scale] = C[:, scale] * inverse(lead[scale], P[scale]) % P[scale]
    return C, d


def _cancel(A, da, B, db, P):
    """lead(b) a - lead(a) x^(da - db) b mod p for each column pair (a, b)
    of the equal-height matrices A and B: where da >= db >= 0, the term of
    a of degree da cancels; the callers discard the other columns. Each
    product is reduced before the difference."""
    rows = np.arange(len(A))[:, None] - np.maximum(da - db, 0)
    shifted = np.take_along_axis(B, np.maximum(rows, 0), axis=0)
    shifted = np.where(rows >= 0, shifted, 0)
    return (_lead(B, db) * A % P - _lead(A, da) * shifted % P) % P


def _gcd(A, B, P):
    """The monic gcd of each column pair of the equal-height matrices A
    and B, and its degree (-1 where both are zero), as a matrix of the
    same height.

    Euclid's algorithm in lockstep: a and b swap where a has the lower
    degree, then every column with b != 0 has one leading term of a
    cancelled by ``_cancel``, until every b is zero. The scaling by
    lead(b) changes no gcd, so one ``inverse`` at the end makes a monic.
    """
    da, db = degrees(A), degrees(B)
    while True:
        swap = da < db
        A, B = np.where(swap, B, A), np.where(swap, A, B)
        da, db = np.maximum(da, db), np.minimum(da, db)
        live = db >= 0
        if not live.any():
            break
        A = np.where(live, _cancel(A, da, B, db, P), A)
        da = degrees(A)
    return A * inverse(_lead(A, da), P) % P, da


def _quotient(H, U, du, P):
    """H / U for the monic columns U of degrees du, each dividing its
    column of H exactly, by the step of ``_gcd``: with lead(u) = 1 the
    step subtracts lead(h) x^(dh - du) u, a term of the quotient."""
    Q = np.zeros_like(H)
    dh = degrees(H)
    while (live := dh >= du).any():
        Q[(dh - du)[live], np.flatnonzero(live)] = _lead(H, dh)[live]
        H = np.where(live, _cancel(H, dh, U, du, P), H)
        dh = degrees(H)
    return Q


def _pow_columns(A, E, neg_low, P):
    """(x + A_i)^E_i mod (g_i, P_i) for each column i, as a (d, n) array
    of coefficients, for the monic g_i of degree d with
    x^d = sum_j neg_low[j, i] x^j mod (g_i, P_i).

    Square-and-multiply over the bits of E_i from the top, all columns in
    lockstep. A, neg_low and the result are residues in P's dtype
    (``modulus_column``); E is int64 while every E_i < 2^63, and Python
    ints otherwise. A coefficient of a step is a sum of fewer than 2d + 1
    products of two residues. When (2d + 1) p^2 < 2^63, or in Python
    ints, the products are summed as they are and the sum is reduced;
    otherwise each product is reduced mod p before it is summed, so no
    int64 value reaches 2^63 either way.
    """
    d, n = neg_low.shape
    acc = np.zeros((d, n), dtype=P.dtype)
    acc[0] = 1
    if not n:
        return acc
    eager = P.dtype != object and (2 * d + 1) * int(P.max()) ** 2 >= primes.INT64_LIMIT

    def red(x):
        return x % P if eager else x

    for bit in range(int(E.max()).bit_length() - 1, -1, -1):
        # acc^2
        sq = np.zeros((2 * d - 1, n), dtype=P.dtype)
        for i in range(d):
            sq[i : i + d] += red(acc[i] * acc)
        # x^k = x^(k-d) * x^d, folded back from the top
        for k in range(2 * d - 2, d - 1, -1):
            sq[k - d : k] += red(sq[k] % P * neg_low)
        acc = sq[:d] % P
        # acc * (x + a): shift up one place, fold x^d back in, add a * acc
        times = red(A * acc) + red(acc[d - 1] * neg_low)
        times[1:] += acc[:-1]
        acc = np.where((E >> bit) & 1 == 1, times % P, acc)
    return acc


def _pow_mod(a, e, P):
    """a_i^e_i mod P_i for residue columns a and P (``modulus_column``):
    ``primes.pow_mod`` with the product x * y % P, written in place."""

    def mul(x, y, out):
        return np.remainder(np.multiply(x, y, out=out), P, out=out)

    return primes.pow_mod(a, e, mul, 1)


def inverse(a, P):
    """a_i^-1 mod P_i for the nonzero residues a_i (Fermat); 0 for a_i = 0."""
    return _pow_mod(a, P - 2, P)


def _powers(A, E, G, P):
    """(x + A_i)^E_i mod (G_i, P_i) for each column i of the matrix G of
    monic polynomials of degree >= 1, as a matrix as high as G: one kernel
    call per degree."""
    dg = degrees(G)
    out = np.zeros_like(G)
    for d in sorted(set(dg.tolist())):
        at = np.flatnonzero(dg == d)
        p = P[at]
        out[:d, at] = _pow_columns(A[at], E[at], -G[:d, at] % p, p)
    return out


def frobenius_root_poly(G, P):
    """gcd(x^p - x, g) over GF(p) for each column g of the matrix G of
    monic polynomials of degree >= 1 and p of P: the product of (x - r)
    over the distinct roots r of g, as a matrix as high as G."""
    W = _powers(np.zeros_like(P), P, G, P)
    W[1] = (W[1] - 1) % P
    return _gcd(W, G, P)[0]


def roots_of_split(H, P, seed):
    """The roots of each monic column h of the matrix H over GF(p), for the
    odd primes P, as (column, root) columns sorted by column and root. h
    has degree <= 2, or is a squarefree product of linear factors (a
    divisor of x^p - x).

    The factors of degree <= 2 are read off by ``low_degree_roots``, in
    one call for the input and one per round. The others are split in
    lockstep rounds (Cantor & Zassenhaus 1981): each round, every column
    with such a factor left draws one a from random.Random(seed), one
    generator for the whole call, and each of those factors h is split by
    u = gcd((x + a)^((p-1)/2) - 1, h) into u and h/u when u is a proper
    factor. The roots are sorted, so they do not depend on seed. A factor
    left whole for _SPLIT_ROUNDS rounds in a row raises ValueError naming
    it and p.
    """
    if len(H) < 3:
        H = np.concatenate((H, np.zeros((3 - len(H), H.shape[1]), H.dtype)))
    ps = P.tolist()
    owner = np.arange(len(P))
    rounds = np.zeros(len(P), dtype=np.int64)
    rng = random.Random(seed)
    found = []
    while True:
        d = degrees(H)
        low = d <= 2
        at = np.flatnonzero(low & (d >= 1))
        roots, count = low_degree_roots(H[0, at], H[1, at], d[at] == 2, P[owner[at]])
        roots = roots.T[np.arange(2) < count[:, None]]
        found.append((np.repeat(owner[at], count), roots))
        if low.all():
            break
        d, owner, rounds = d[~low], owner[~low], rounds[~low]
        H = H[: d.max() + 1, ~low]
        a = {i: rng.randrange(ps[i]) for i in dict.fromkeys(owner.tolist())}
        p = P[owner]
        A = np.array([a[i] for i in owner.tolist()], dtype=P.dtype)
        W = _powers(A, (p - 1) // 2, H, p)
        W[0] = (W[0] - 1) % p
        U, du = _gcd(W, H, p)
        split = (du > 0) & (du < d)
        rounds = np.where(split, 0, rounds + 1)
        if (stuck := rounds == _SPLIT_ROUNDS).any():
            j = int(np.argmax(stuck))
            raise ValueError(
                f"roots_of_split: {H[: d[j] + 1, j].tolist()} mod "
                f"p={ps[owner[j]]} did not split in {_SPLIT_ROUNDS} rounds, "
                "so it is not a product of distinct linear factors"
            )
        Q = _quotient(H[:, split], U[:, split], du[split], p[split])
        H = np.concatenate((H[:, ~split], U[:, split], Q), axis=1)
        owner = np.concatenate((owner[~split], owner[split], owner[split]))
        rounds = np.concatenate((rounds[~split], 0 * du[split], 0 * du[split]))
    if len(found) == 1:
        # nothing was split: read off by column, each column's roots in order
        return found[0]
    row, r = map(np.concatenate, zip(*found))
    order = np.lexsort((r, row))
    return row[order], r[order]


def low_degree_roots(c0, c1, quad, P):
    """The roots over GF(p) of x + c0 where ``quad`` is False and of
    x^2 + c1*x + c0 where it is True, for residue columns c0, c1 mod the
    odd primes P (``modulus_column``), all in lockstep.

    Returns (roots, count): column i has the count[i] roots
    roots[0, i] <= roots[1, i], or the one root roots[0, i]. A quadratic
    has 2, 1 or 0 roots as its discriminant D = c1^2 - 4*c0 is a nonzero
    square, zero, or not a square; its roots are (-c1 +- s)/2 for the
    square root s of D from ``_square_roots`` (Tonelli-Shanks, with
    nonresidues from quadratic reciprocity).
    """
    roots = np.zeros((2, len(P)), dtype=P.dtype)
    roots[0] = -c0 % P
    count = np.ones(len(P), dtype=np.int64)
    q = np.flatnonzero(quad)
    P, c0, c1 = P[q], c0[q], c1[q]
    disc = (c1 * c1 - 4 * c0) % P
    s, square = _square_roots(disc, P)
    half = (P + 1) // 2
    lo, hi = (-c1 - s) * half % P, (s - c1) * half % P
    roots[0, q] = np.where(lo < hi, lo, hi)
    roots[1, q] = np.where(lo < hi, hi, lo)
    count[q] = np.where(square, 2, np.where(disc == 0, 1, 0))
    return roots, count


def _square_roots(a, P):
    """(s, square) for residue columns a mod the odd primes P: square[i]
    is whether a_i is a nonzero square mod p_i, and then s_i^2 = a_i;
    s_i = 0 where a_i = 0.

    Tonelli-Shanks (Shanks 1973) in lockstep. With p - 1 = 2^e q, q odd,
    one ladder gives u = a^((q-1)/2), x = a u and b = x u = a^q. At e = 1,
    a is a square iff b = 1, and x is its root. At e >= 2, a is a square
    iff b^(2^(e-1)) = 1, by squarings. Only the squares with b != 1 run
    the loop, on c = z^q, of order 2^e, for the nonresidue z of
    ``_nonresidues``: while b has order 2^i > 1, x is multiplied by
    c^(2^(e-i-1)) and b by its square, which lowers the order of b; a
    step that does not, which no prime allows, raises ArithmeticError. The
    powers c^(2^j) are squared once, before the loop.
    """
    m = P - 1
    low = m & -m
    q = m // low
    if P.dtype == object:
        e = np.array([v.bit_length() for v in (low - 1).tolist()], dtype=np.int64)
    else:
        e = np.bitwise_count(low - 1).astype(np.int64)
    u = _pow_mod(a, (q - 1) // 2, P)
    x = a * u % P
    b = x * u % P
    square = b == 1
    deep = np.flatnonzero(e >= 2)
    i = _order_log(b[deep], e[deep], P[deep])
    square[deep] = i < e[deep]
    go = square[deep] & (i > 0)
    live, i = deep[go], i[go]
    p, b, e = P[live], b[live], e[live]
    tower = [_pow_mod(_nonresidues(p), q[live], p)]
    for _ in range(1, e.max(initial=1)):
        tower.append(tower[-1] * tower[-1] % p)
    tower = np.stack(tower)
    col = np.arange(len(live))
    while len(live):
        x[live] = x[live] * tower[e - i - 1, col] % p
        b = b * tower[e - i, col] % p
        last, i = i, _order_log(b, i, p)
        if (stalled := i == last).any():
            raise ArithmeticError(f"Tonelli-Shanks stalled mod {p[np.argmax(stalled)]}")
        more = i > 0
        live, col, p, b, e, i = (v[more] for v in (live, col, p, b, e, i))
    return x, square


def _order_log(b, e, P):
    """The least i < e_i with b_i^(2^i) = 1 mod p_i for each column, or
    e_i where there is none: how many of b_i, b_i^2, b_i^4, ... come
    before the first 1, at most e_i, with every column squared in
    lockstep."""
    i = (b != 1).astype(np.int64)
    for _ in range(1, int(e.max(initial=0))):
        b = b * b % P
        i += b != 1
    return np.minimum(i, e)


def _nonresidues(P):
    """A quadratic nonresidue mod each odd prime of the column P, found by
    quadratic reciprocity, with no powering: 2 where p = 3 or 5 mod 8, and
    otherwise the least odd prime l with p mod l a nonsquare mod l, whose
    symbol (l/p) = (p/l) (-1)^((p-1)/2 (l-1)/2) makes it a nonresidue, or
    -l where p = l = 3 mod 4.

    The odd primes l are tried in turn, each with its table of squares
    built here, until every column has one."""
    z = np.zeros_like(P)
    z[(P % 8 == 3) | (P % 8 == 5)] = 2
    todo = np.flatnonzero(z == 0)
    l = 1
    while len(todo):
        l += 2
        if any(l % r == 0 for r in range(3, isqrt(l) + 1, 2)):
            continue
        squares = np.zeros(l, dtype=bool)
        squares[np.arange(l) ** 2 % l] = True
        p = P[todo]
        found = ~squares[(p % l).astype(np.int64)]
        p = p[found]
        z[todo[found]] = np.where((p % 4 == 3) & (l % 4 == 3), p - l, l)
        todo = todo[~found]
    return z


def is_irreducible(f, ps):
    """Whether f mod p is irreducible over GF(p), for each prime p in ps;
    f is a list of integer coefficients.

    Rabin's test: the monic g = f mod p of degree n >= 2 is irreducible iff
    x^(p^n) = x mod (g, p) and gcd(x^(p^(n/q)) - x, g) = 1 for every prime
    q | n. The powers of all the primes are one call of ``_powers``. A
    g of degree 1 is irreducible, one of degree < 1 is not.
    """
    P = modulus_column(ps)
    G, n = monic_columns(f, P)
    # (column, k) for each x^(p^k): k = n, and k = n/q for each prime q | n
    jobs = [
        (i, d // q)
        for i, d in enumerate(n.tolist())
        if d >= 2
        for q in range(1, d + 1)
        if d % q == 0 and all(q % r for r in range(2, q))
    ]
    col = np.array([i for i, _ in jobs], dtype=np.int64)
    full = np.array([k for _, k in jobs], dtype=np.int64) == n[col]
    G, p = G[:, col], P[col]
    E = np.array([ps[i] ** k for i, k in jobs], dtype=object)
    W = _powers(np.zeros_like(p), E, G, p)
    W[1] = (W[1] - 1) % p
    # x^(p^n) - x must vanish, and each gcd(x^(p^(n/q)) - x, g) be 1
    ok = degrees(W) == -1
    ok[~full] = _gcd(W[:, ~full], G[:, ~full], p[~full])[1] == 0
    return ((n >= 1) & (np.bincount(col[~ok], minlength=len(P)) == 0)).tolist()
