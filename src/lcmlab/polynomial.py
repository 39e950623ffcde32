"""Integer polynomials and their derived constants.

Everything downstream (root lifting, the ledger, the verification checks) consumes
an IntPoly together with its PolyProfile: discriminant, the linear-zone
constant D = 1 + d*|f_d|, an irreducibility hint and the rational roots.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from . import gfpoly, modular, primes


class ZeroDiscriminant(ValueError):
    """f is not squarefree; multiplicity analysis downstream is meaningless."""


@dataclass(frozen=True)
class IntPoly:
    """f(x) = sum coeffs[i] * x^i with coeffs[-1] != 0 and degree >= 1."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) < 2:
            raise ValueError("degree must be at least 1")
        if coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        # f' for deriv_eval; not a field, so equality and hashing see only
        # coeffs
        deriv = tuple(i * c for i, c in enumerate(coeffs) if i >= 1)
        object.__setattr__(self, "_deriv", deriv)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def eval(self, n):
        """f(n), exact, by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def deriv_coeffs(self):
        """Coefficients of f', ascending (length d; may be constant)."""
        return self._deriv

    def deriv_eval(self, n):
        acc = 0
        for c in reversed(self._deriv):
            acc = acc * n + c
        return acc

    def __str__(self):
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                x = "x" if i == 1 else f"x^{i}"
                body = x if mag == 1 else f"{mag}*{x}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"{sign}{body}")
        return "".join(terms) if terms else "0"


@dataclass(frozen=True)
class PolyProfile:
    """Derived constants of f used by every zone and verification computation."""

    disc: int
    D: int
    irreducible_hint: str  # "proved" | "assumed" | "unknown"
    rational_roots: tuple  # Fractions; nonempty means f is reducible

    def integer_roots_in_range(self, N):
        """Integer roots of f inside [1, N] (nonempty only for reducible f)."""
        return tuple(
            int(r) for r in self.rational_roots if r.denominator == 1 and 1 <= r <= N
        )


_TERM_RE = re.compile(
    r"^([+-]?)\s*(?:(\d+)\s*\*?\s*)?(x(?:\^(\d+))?)?$"
)


def parse_poly(text):
    """Parse the polynomial grammar: an ascending coefficient list
    "f0,f1,...,fd" or symbolic terms like "x^3 - 2*x + 7"."""
    text = text.strip().replace("−", "-")
    if not text:
        raise ValueError("empty polynomial")
    if "x" not in text:
        parts = [s.strip() for s in text.split(",")]
        if len(parts) < 2:
            raise ValueError("coefficient list needs at least two entries")
        try:
            return IntPoly(tuple(int(s) for s in parts))
        except ValueError as exc:
            raise ValueError(f"bad coefficient list {text!r}: {exc}") from None
    squashed = text.replace(" ", "")
    chunks = re.findall(r"[+-]?[^+-]+", squashed)
    if not chunks or "".join(chunks) != squashed:
        raise ValueError(f"cannot parse polynomial {text!r}")
    coeffs = {}
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"bad term {chunk!r} in {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = int(m.group(2)) if m.group(2) is not None else 1
        if m.group(3) is None:
            power = 0
        elif m.group(4) is not None:
            power = int(m.group(4))
        else:
            power = 1
        coeffs[power] = coeffs.get(power, 0) + sign * coeff
    d = max(coeffs)
    return IntPoly(tuple(coeffs.get(i, 0) for i in range(d + 1)))


def _pseudo_rem(a, b):
    """Pseudo-remainder prem(a, b) over Z, coefficients ascending."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    da = len(a) - 1
    e = da - db + 1
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        shift = len(a) - 1 - db
        top = a[-1]
        a = [c * lead for c in a]
        for i, bc in enumerate(b):
            a[shift + i] -= top * bc
        e -= 1
        while a and a[-1] == 0:
            a.pop()
    if e > 0:
        a = [c * lead**e for c in a]
    return a


def resultant(a, b):
    """Res(a, b) over Z via the subresultant PRS, exact."""
    a = list(a)
    b = list(b)
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    if not a or not b:
        return 0
    s = 1
    if len(a) < len(b):
        if (len(a) - 1) % 2 == 1 and (len(b) - 1) % 2 == 1:
            s = -s
        a, b = b, a
    g = h = 1
    while len(b) - 1 > 0:
        delta = (len(a) - 1) - (len(b) - 1)
        if (len(a) - 1) % 2 == 1 and (len(b) - 1) % 2 == 1:
            s = -s
        r = _pseudo_rem(a, b)
        while r and r[-1] == 0:
            r.pop()
        a = b
        denom = g * h**delta
        b = [c // denom for c in r]
        g = a[-1]
        h = g**delta // h ** (delta - 1) if delta > 0 else h
        if not b:
            return 0
    da = len(a) - 1
    return s * (b[0] ** da // h ** (da - 1))


def discriminant(f: IntPoly):
    """disc(f) = (-1)^(d(d-1)/2) * Res(f, f') / f_d, exact."""
    d = f.degree
    res = resultant(f.coeffs, f.deriv_coeffs())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res // f.coeffs[-1]


def rational_roots(f: IntPoly):
    """All rational roots of the squarefree f, p-adically.

    A root z of f has lead*z in Z with |lead*z| <= |lead| + max_{i<d} |f_i|
    (Cauchy's bound), and z = r mod l^k for a root r of f mod l^k at every
    prime l that does not divide lead*disc. So the roots of f mod the least
    such l are lifted until l^k exceeds twice that bound, and each symmetric
    residue y of lead*r mod l^k is kept when f(y/lead) = 0 exactly. Nothing
    is factored.
    """
    lead = f.coeffs[-1]
    disc = discriminant(f)
    if disc == 0:
        raise ZeroDiscriminant(f"{f} is not squarefree")
    ell = next(
        q
        for q in itertools.count(2)
        if lead * disc % q and primes.is_probable_prime(q)
    )
    bound = 2 * (abs(lead) + max(abs(c) for c in f.coeffs[:-1]))
    rs = modular.roots_mod_p(f, ell)
    while ell**rs.k <= bound:
        rs = modular.lift_roots(f, rs)
    pk = ell**rs.k
    roots = set()
    for r in rs.roots:
        y = lead * r % pk
        cand = Fraction(y - pk if 2 * y > pk else y, lead)
        if _eval_fraction(f, cand) == 0:
            roots.add(cand)
    return tuple(sorted(roots))


def _eval_fraction(f, x):
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


_CERTIFYING_PRIME_BOUND = 200


def profile(f: IntPoly):
    """Discriminant, D, rational roots and an irreducibility hint.

    Nothing is factored: a prime p ramifies exactly when p | disc, which
    callers test directly, and the rational roots are lifted from the roots
    of f mod one small prime.

    hint = "proved" when f mod p is irreducible for some prime p < 200, or
    when d <= 3 and f has no rational root. "assumed" for d >= 4 without a
    certificate. "unknown" when a rational root exists (f is reducible).
    """
    if f.degree < 2:
        raise ValueError(f"{f} has degree {f.degree}; profile needs degree >= 2")
    disc = discriminant(f)
    if disc == 0:
        raise ZeroDiscriminant(f"{f} is not squarefree")
    D = 1 + f.degree * abs(f.coeffs[-1])
    rr = rational_roots(f)
    hint = None
    if not rr:
        for p in primes.sieve_primes(_CERTIFYING_PRIME_BOUND):
            if f.coeffs[-1] % p == 0:
                continue
            if gfpoly.is_irreducible(gfpoly.reduce_mod(f.coeffs, p), p):
                hint = "proved"
                break
        if hint is None:
            hint = "proved" if f.degree <= 3 else "assumed"
    else:
        hint = "unknown"
    return PolyProfile(
        disc=disc,
        D=D,
        irreducible_hint=hint,
        rational_roots=rr,
    )


def value_bound(f: IntPoly, N):
    """sum |f_i| N^i, an exact integer bound on |f(n)| for 1 <= n <= N."""
    return sum(abs(c) * N**i for i, c in enumerate(f.coeffs))
