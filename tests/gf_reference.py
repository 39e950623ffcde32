"""Pure-Python polynomial arithmetic over GF(p), one prime at a time.

The independent reference for ``lcmlab.gfpoly``'s lockstep columns: the
tests compare the root finder, the lockstep gcd and exact division, the
closed form for degree <= 2 and the batched Rabin test against these.
Polynomials are lists of ints in ascending order, reduced mod p. Nothing
here shares code with the package.
"""


def trim(a):
    """a without its trailing zeros."""
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def reduce_mod(coeffs, p):
    return trim([c % p for c in coeffs])


def deg(a):
    return len(a) - 1


def monic(a, p):
    """a scaled to leading coefficient 1."""
    a = trim(a)
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return trim(out)


def rem(a, b, p):
    """Remainder of a mod b over GF(p); b nonzero."""
    b = trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = trim([c % p for c in a])
    inv_lead = pow(b[-1], -1, p)
    db = len(b) - 1
    while len(a) - 1 >= db:
        shift = len(a) - 1 - db
        factor = a[-1] * inv_lead % p
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bc) % p
        a = trim(a)
    return a


def quo(a, b, p):
    """Exact quotient a // b over GF(p)."""
    b = trim(list(b))
    a = [c % p for c in a]
    inv_lead = pow(b[-1], -1, p)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 1)
    a = trim(a)
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        factor = a[-1] * inv_lead % p
        q[shift] = factor
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bc) % p
        a = trim(a)
    return trim(q)


def gcd(a, b, p):
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, rem(a, b, p)
    return monic(a, p)


def powmod(base, e, modulus, p):
    """base^e mod (modulus, p) by square-and-multiply."""
    result = [1]
    base = rem(base, modulus, p)
    while e:
        if e & 1:
            result = rem(mul(result, base, p), modulus, p)
        base = rem(mul(base, base, p), modulus, p)
        e >>= 1
    return result


def roots_of_split(g, p, rng):
    """Roots of g over GF(p), where g is a squarefree product of linear
    factors (e.g. a divisor of x^p - x). Equal-degree splitting with the
    supplied RNG; p odd."""
    roots = []
    stack = [monic(g, p)]
    half = (p - 1) // 2
    while stack:
        h = stack.pop()
        d = deg(h)
        if d <= 0:
            continue
        if d == 1:
            roots.append((-h[0]) % p)
            continue
        while True:
            a = rng.randrange(p)
            w = powmod([a, 1], half, h, p)
            w = trim([(w[0] - 1) % p] + list(w[1:])) if w else [p - 1]
            u = gcd(w, h, p)
            if 0 < deg(u) < d:
                stack.append(u)
                stack.append(quo(h, u, p))
                break
    return sorted(roots)


def frobenius_root_poly(f, p):
    """gcd(x^p - x, f) over GF(p): the product of (x - r) over the distinct
    roots r of f mod p. f must be nonzero mod p."""
    xp = powmod([0, 1], p, f, p)
    # x^p - x reduced mod f
    diff = list(xp) + [0] * max(0, 2 - len(xp))
    diff[1] = (diff[1] - 1) % p
    diff = trim(diff)
    if not diff:
        # f divides x^p - x: f itself splits into distinct linear factors
        return monic(f, p)
    return gcd(diff, f, p)


def is_irreducible(f, p):
    """Rabin irreducibility test for f over GF(p). Requires deg f >= 1."""
    f = monic(reduce_mod(f, p), p)
    n = deg(f)
    if n < 1:
        return False
    if n == 1:
        return True
    # x^(p^n) == x mod f, and gcd(x^(p^(n/q)) - x, f) == 1 for prime q | n
    def x_pow_p_tower(height):
        g = [0, 1]
        for _ in range(height):
            g = powmod(g, p, f, p)
        return g

    qs = set()
    m = n
    q = 2
    while q * q <= m:
        while m % q == 0:
            qs.add(q)
            m //= q
        q += 1
    if m > 1:
        qs.add(m)
    for q in sorted(qs):
        g = x_pow_p_tower(n // q)
        g = list(g) + [0] * max(0, 2 - len(g))
        g[1] = (g[1] - 1) % p
        g = trim(g)
        if deg(gcd(g, f, p)) != 0:
            return False
    g = x_pow_p_tower(n)
    g = list(g) + [0] * max(0, 2 - len(g))
    g[1] = (g[1] - 1) % p
    return not trim(g)


def roots_low_degree(g, p):
    """Sorted roots in GF(p), p odd, of the monic g of degree <= 2: the
    quadratic formula with Tonelli-Shanks."""
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
    s = sqrt_mod(disc, p)
    return tuple(sorted(((s - c1) * half % p, (-s - c1) * half % p)))


def sqrt_mod(a, p):
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
