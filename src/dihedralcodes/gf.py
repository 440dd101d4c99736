"""Exact arithmetic in prime fields GF(p) and extension fields GF(p^m).

Elements are polynomial residues with coefficients stored little-endian
(constant term first).  A :class:`FieldCtx` fixes the prime p, the monic
irreducible modulus and the cardinality q = p^m; contexts are immutable
and safe to share between threads.  All operations are pure.  One Euclid
(_pxgcd) serves gcds and inverses, one square-and-multiply (_ppowmod) powers.

Canonical choices, so that identical inputs reproduce identical outputs
everywhere:

* elements are enumerated by their index sum(c_i * p^i), ascending;
* the canonical multiplicative generator is the first element of order
  q-1 in that enumeration;
* the canonical primitive n-th root of unity is generator^((q-1)/n); a
  FieldCtx keeps its powers for the last n asked (_xi_entries).

Each FieldCtx builds one entry form, ctx.form, the integers every matrix
and distance walk holds its entries as: residues over GF(p) (_Residues),
and over GF(p^m), m >= 2, coefficients packed into one integer (_Packed),
with closed forms at m = 2 (_Pairs).  Each is a _Form, written once on the
closed forms a form supplies.  FieldElement's polynomial route is their
reference.
"""

from __future__ import annotations

import itertools
import json
import math
import re

from .errors import (
    MixedContextsError,
    NotMonicError,
    NotPrimeError,
    ReducibleError,
    RootUnavailableError,
    ZeroElementError,
)

# ---------------------------------------------------------------------------
# integer and polynomial helpers (coefficients little-endian, reduced mod p)


# Miller-Rabin bases.  No strong pseudoprime to all of them lies below
# PRIMALITY_LIMIT (Sorenson and Webster, 2015), so is_prime is exact there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact below PRIMALITY_LIMIT; above it, n passing every base raises NotPrimeError."""
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PRIMALITY_LIMIT:
        raise NotPrimeError(f"primality of {n} is decided only below {PRIMALITY_LIMIT}")
    return True


def factorize(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending.

    The Miller-Rabin bases are divided out first; every cofactor left that
    is_prime rejects is split by Pollard-Brent rho, so only a cofactor
    above PRIMALITY_LIMIT that passes every base is refused.
    """
    out = set()
    for f in _MR_BASES:
        if n % f == 0:
            out.add(f)
            while n % f == 0:
                n //= f
    stack = [n] if n > 1 else []
    while stack:
        n = stack.pop()
        if is_prime(n):
            out.add(n)
        else:
            f = _rho_factor(n)
            stack += [f, n // f]
    return sorted(out)


def _rho_factor(n: int) -> int:
    """A proper factor of an odd composite n: Pollard rho, Brent's cycle search."""
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _residues(coeffs, p: int) -> list[int]:
    """Integer coefficients mod p; a bool, float or str is refused, not read as an int."""
    for c in coeffs:
        if not _is_int(c):
            raise ValueError(f"coefficient {c!r} is not an integer")
    return [c % p for c in coeffs]


def _trim(cs):
    while cs and cs[-1] == 0:
        cs = cs[:-1]
    return cs


def _psub(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _pdivmod(a, b, p):
    """Quotient and remainder of a by b over GF(p); b need not be monic."""
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = _trim(list(a))
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        c = (r[-1] * inv_lead) % p
        q[shift] = c
        for i, bc in enumerate(b):
            r[shift + i] = (r[shift + i] - c * bc) % p
        while r and not r[-1]:
            r.pop()
    return _trim(q), r


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pxgcd(a, b, p):
    """Monic g = gcd(a, b) over GF(p) and s with s b = g (mod a), by
    extended Euclid; both [] for a = b = 0."""
    r0, r1 = _trim(list(a)), _trim(list(b))
    s0, s1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
    inv_lead = pow(r0[-1], p - 2, p) if r0 else 0
    return [c * inv_lead % p for c in r0], [c * inv_lead % p for c in s0]


def _pgcd(a, b, p):
    """Monic gcd over GF(p)."""
    return _pxgcd(a, b, p)[0]


def _ppowmod(base, e, modulus, p):
    """base^e mod modulus over GF(p), e >= 0, squaring from e's top bit."""
    result, base = [1], _pmod(base, modulus, p)
    for bit in bin(e)[2:]:
        result = _pmod(_pmul(result, result, p), modulus, p)
        if bit == "1":
            result = _pmod(_pmul(result, base, p), modulus, p)
    return result


def _linear_roots(g, p):
    """Roots of a monic g over GF(p) that is a product of distinct linear factors.

    Over GF(2) g divides x^2 - x and is read off directly; otherwise it is
    split deterministically by gcd(g, (x+c)^((p-1)/2) - 1) for c = 0, 1, ...
    """
    if len(g) == 2:
        return [-g[0] % p]
    if p == 2:
        return [0, 1]
    for c in itertools.count():
        h = _pgcd(_psub(_ppowmod([c, 1], (p - 1) // 2, g, p), [1], p), g, p)
        if 1 < len(h) < len(g):
            return _linear_roots(h, p) + _linear_roots(_pdivmod(g, h, p)[0], p)


def _check_irreducible(modulus, p):
    """Raise ReducibleError if the monic polynomial factors over GF(p).

    gcd(x^p - x, f) is the product of f's linear factors, so it settles
    roots in GF(p) and with them degree <= 3; degree >= 4 goes on up the
    x^(p^k) gcd ladder (f of degree m is irreducible iff x^(p^m) = x mod f
    and gcd(x^(p^(m/r)) - x, f) = 1 for every prime r | m).
    """
    m = len(modulus) - 1
    if m == 1:
        return
    x = [0, 1]
    powers = [x, _ppowmod(x, p, modulus, p)]  # powers[k] = x^(p^k) mod modulus
    g = _pgcd(_psub(powers[1], x, p), modulus, p)
    if len(g) > 1:
        root = min(_linear_roots(g, p))
        raise ReducibleError(f"modulus has root {root} in GF({p})", root=root)
    if m <= 3:
        return
    for _ in range(m - 1):
        powers.append(_ppowmod(powers[-1], p, modulus, p))
    if _trim(powers[m]) != x:
        raise ReducibleError(f"modulus fails x^(p^{m}) = x over GF({p})")
    for r in factorize(m):
        g = _pgcd(_psub(powers[m // r], x, p), modulus, p)
        if len(g) - 1 > 0:
            witness = g if len(g) - 1 < m else None
            raise ReducibleError(
                f"modulus shares a factor with x^(p^{m // r}) - x over GF({p})",
                factor=witness,
            )


# ---------------------------------------------------------------------------
# field context and elements


class FieldCtx:
    """Immutable description of GF(p^m): prime, modulus, cardinality and
    entry form (form, built here and nowhere else)."""

    __slots__ = ("p", "m", "modulus", "q", "_generator", "_xi", "form")

    def __init__(self, p: int, modulus: tuple[int, ...]):
        # use make_field(); this constructor assumes validated input
        self.p = p
        self.modulus = modulus
        self.m = len(modulus) - 1
        self.q = p ** self.m
        self._generator = None
        # (n, xi^0 .. xi^(n-1)) for the last n asked (_xi_entries), replaced
        # whole, so a thread never reads one n's powers under another n
        self._xi = None
        self.form = (_Residues if self.m == 1 else _Pairs if self.m == 2 else _Packed)(self)

    # -- construction of elements ------------------------------------------

    def element(self, value) -> "FieldElement":
        """Coerce an int (scalar), coefficient list, text form, or element."""
        if isinstance(value, FieldElement):
            if value.ctx != self:
                raise MixedContextsError("element belongs to a different field")
            return value
        if _is_int(value):
            coeffs = [value % self.p] + [0] * (self.m - 1)
            return FieldElement(self, tuple(coeffs))
        if isinstance(value, str):
            return parse_element(self, value)
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{value!r} is not an integer, a coefficient list, text or an element")
        coeffs = _residues(value, self.p)
        if len(coeffs) > self.m:
            extra = _trim(coeffs[self.m:])
            if extra:
                raise ValueError(f"coefficient list longer than extension degree {self.m}")
            coeffs = coeffs[: self.m]
        coeffs += [0] * (self.m - len(coeffs))
        return FieldElement(self, tuple(coeffs))

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.m)

    def one(self) -> "FieldElement":
        return self.element(1)

    def from_index(self, i: int) -> "FieldElement":
        """Element number i in the canonical enumeration, 0 <= i < q."""
        if not 0 <= i < self.q:
            raise IndexError(f"element index {i} out of range for q={self.q}")
        coeffs = []
        for _ in range(self.m):
            coeffs.append(i % self.p)
            i //= self.p
        return FieldElement(self, tuple(coeffs))

    def elements(self):
        for i in range(self.q):
            yield self.from_index(i)

    def random_element(self, rng) -> "FieldElement":
        return self.from_index(rng.randrange(self.q))

    def generator(self) -> "FieldElement":
        """Canonical primitive element: first of order q-1 in index order."""
        if self._generator is None:
            q1 = self.q - 1
            primes = factorize(q1) if q1 > 1 else []
            one = self.one()
            # for m > 1 skip the constants, indices 1..p-1: their orders divide p-1 < q-1
            for i in range(self.p if self.m > 1 else 1, self.q):
                x = self.from_index(i)
                if all(x ** (q1 // r) != one for r in primes):
                    self._generator = x
                    break
        return self._generator

    # -- encoding ------------------------------------------------------------

    def spec(self) -> str:
        return f"p={self.p};mod=[{','.join(map(str, self.modulus))}]"

    def __eq__(self, other):
        if not isinstance(other, FieldCtx):
            return NotImplemented
        return self.p == other.p and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        return f"FieldCtx(GF({self.q}), {self.spec()})"


class FieldElement:
    """A residue in GF(p^m), canonical form: exactly m coefficients in [0, p)."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise MixedContextsError("operands from different fields")
            return other
        if _is_int(other):  # a bool is not read as 0 or 1
            return self.ctx.element(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.ctx.p
        return FieldElement(self.ctx, tuple([(a + b) % p for a, b in zip(self.coeffs, o.coeffs)]))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.ctx.p
        return FieldElement(self.ctx, tuple([(a - b) % p for a, b in zip(self.coeffs, o.coeffs)]))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        p = self.ctx.p
        return FieldElement(self.ctx, tuple([-a % p for a in self.coeffs]))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        if ctx.m == 1:
            return FieldElement(ctx, ((self.coeffs[0] * o.coeffs[0]) % ctx.p,))
        return _padded(ctx, _pmod(_pmul(self.coeffs, o.coeffs, ctx.p), ctx.modulus, ctx.p))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        ctx = self.ctx
        if e < 0:
            return self.inverse() ** (-e)
        if ctx.m == 1:
            return FieldElement(ctx, (pow(self.coeffs[0], e, ctx.p),))
        return _padded(ctx, _ppowmod(self.coeffs, e, ctx.modulus, ctx.p))

    def inverse(self) -> "FieldElement":
        ctx = self.ctx
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        p = ctx.p
        if ctx.m == 1:
            return FieldElement(ctx, (pow(self.coeffs[0], p - 2, p),))
        return _padded(ctx, _pxgcd(ctx.modulus, self.coeffs, p)[1])

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.ctx == other.ctx and self.coeffs == other.coeffs
        if _is_int(other):
            return self == self.ctx.element(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def to_list(self) -> list[int]:
        return list(self.coeffs)

    def text(self) -> str:
        """Polynomial string, highest power first: "3x+4", "x", "0"."""
        return poly_text(self.coeffs)

    def __repr__(self):
        return self.text()


def _padded(ctx: FieldCtx, cs) -> FieldElement:
    """The element of ctx with the coefficients cs, a residue of degree < m."""
    return FieldElement(ctx, tuple(cs) + (0,) * (ctx.m - len(cs)))


# ---------------------------------------------------------------------------
# entry forms: a field's elements as integers, FieldCtx.form


def _inverses(xs, p: int) -> list[int]:
    """x^-1 mod p for each residue x in xs, 0 for x = 0, by one pow:
    Montgomery's batch inversion, 1/x_k = (x_0 ... x_(k-1)) / (x_0 ... x_k)."""
    prefix, acc = [], 1
    for x in xs:
        prefix.append(acc)
        if x:
            acc = acc * x % p
    inv, out = pow(acc, -1, p), [0] * len(xs)
    for k in range(len(xs) - 1, -1, -1):
        if xs[k]:
            out[k] = inv * prefix[k] % p
            inv = inv * xs[k] % p
    return out


class _Form:
    """An entry form's generic operations, elements, is_zero, point, reduce
    and the lead scan, written once on what each form supplies: entries,
    coeffs, flat_coeffs (the m coefficients of each entry in turn, in one
    list of ints), canon (a value built by + - * back to an entry), submul,
    points.
    Every form holds an element of GF(p) as its residue: 0 and 1 are the
    entries 0 and 1.
    """

    def __init__(self, ctx: FieldCtx):
        self.ctx, self.p = ctx, ctx.p

    def elements(self, entries) -> list[FieldElement]:
        ctx = self.ctx
        return [FieldElement(ctx, tuple(c)) for c in self.coeffs(entries)]

    def is_zero(self, a) -> bool:
        """Whether a, a value built from entries by + - *, is 0."""
        return not self.canon([a])[0]

    def point(self, v):
        """v's projective point: its lead (first nonzero index) and v/v[lead]
        past it; None for v = 0."""
        return self.points([v])[0]

    def reduce(self, c, vs, keys=False):
        """Each v, a list or a tuple, less v[lead] c, off c's lead, as a
        list, for c given as its point; with keys, their points."""
        (lead, *tail), submul = c, self.submul
        out = [[*v[:lead], *submul(v[lead + 1:], v[lead], tail)] for v in vs]
        return self.points(out) if keys else out

    @staticmethod
    def _leads(vs) -> list[int]:
        """Each v's first nonzero index, len(v) for v = 0.  The lead is
        index 0 unless v[0] is 0, and only then is v scanned for it."""
        leads = []
        for v in vs:
            lead = 0
            if v and not v[0]:
                lead = 1
                while lead < len(v) and not v[lead]:
                    lead += 1
            leads.append(lead)
        return leads


class _Residues(_Form):
    """GF(p) entries as residues mod p, canonical in [0, p)."""

    def entries(self, elements) -> list[int]:
        return [e.coeffs[0] for e in elements]

    def coeffs(self, entries) -> list[list[int]]:  # as FieldElement.to_list gives them
        return [[a] for a in entries]

    def flat_coeffs(self, entries) -> list[int]:
        return entries

    def canon(self, values) -> list[int]:  # integers built from entries by + - *
        p = self.p
        return [a % p for a in values]

    def submul(self, xs, f, ys) -> list[int]:
        """xs - f ys, entrywise."""
        p = self.p
        return [(a - f * b) % p for a, b in zip(xs, ys)]

    def point(self, v):  # one pow, no batch
        p = self.p
        for lead, a in enumerate(v):
            if a:
                inv = pow(a, -1, p)
                return lead, *[b * inv % p for b in v[lead + 1:]]
        return None

    def points(self, vs):
        """The point of each v, by one batched inversion of their leads.
        The lead is index 0 unless v[0] is 0, and only then is v scanned for
        it.  A key of 2 or 3 entries, as a column of a paper code's H gives,
        is built as one tuple; longer keys entry by entry."""
        p, leads, xs = self.p, [], []
        for v in vs:
            if v and v[0]:
                leads.append(0)
                xs.append(v[0])
            else:
                lead = 1
                while lead < len(v) and not v[lead]:
                    lead += 1
                leads.append(lead)
                xs.append(v[lead] if lead < len(v) else 0)
        out = []
        for v, lead, inv in zip(vs, leads, _inverses(xs, p)):
            k = len(v) - lead
            if not inv:
                out.append(None)
            elif k == 3:
                out.append((lead, v[lead + 1] * inv % p, v[lead + 2] * inv % p))
            elif k == 2:
                out.append((lead, v[lead + 1] * inv % p))
            else:
                out.append((lead, *[b * inv % p for b in v[lead + 1:]]))
        return out

    def reduce(self, c, vs, keys=False):
        """As _Form.reduce, but the keys of vectors of length 3, two
        coordinates (x, y) left, are y/x by one batched inversion, never
        forming them: p for x = 0, None for x = y = 0."""
        p, lead = self.p, c[0]
        if not keys or lead + len(c) != 3:
            return super().reduce(c, vs, keys)
        (s, a), (t, b) = [(i, u) for i, u in enumerate([0] * lead + [1, *c[1:]]) if i != lead]
        xs = [(v[s] - v[lead] * a) % p for v in vs]
        return [(v[t] - v[lead] * b) * inv % p if x else (p if (v[t] - v[lead] * b) % p else None)
                for v, x, inv in zip(vs, xs, _inverses(xs, p))]


class _Packed(_Form):
    """GF(p^m) entries, m >= 2, sum c_i t^i as the integers sum c_i X^i,
    X = 2^w (Kronecker substitution), canonical with 0 <= c_i < p.

    + - * act on them as on polynomials in X, exact and unreduced until
    canon reads back slots 0..3m-3, each biased by a multiple of p near
    2^(w-1), reduces each mod p and folds them by the modulus (_pmod).
    w holds the deepest expressions the library forms, six cubic products
    summed (_on_a_conic, codes._rank; slots under 6 m^2 p^3), and sums of
    under 2^32 products (slots under m p^2), with a sign bit to spare.
    """

    def __init__(self, ctx: FieldCtx):
        super().__init__(ctx)
        m, b = ctx.m, ctx.p.bit_length()
        self.w = w = max(3 * b + (6 * m * m - 1).bit_length(), 2 * b + (m - 1).bit_length() + 32) + 2
        self.slots = range(0, (3 * m - 2) * w, w)
        self.mask, self.shifts = (1 << w) - 1, self.slots[:m]
        self.bias = (1 << w - 1) // ctx.p * ctx.p * sum(1 << s for s in self.slots)

    def entries(self, elements) -> list[int]:
        shifts = self.shifts
        return [sum(c << s for c, s in zip(e.coeffs, shifts)) for e in elements]

    def coeffs(self, entries) -> list[list[int]]:
        mask, shifts = self.mask, self.shifts
        return [[e >> s & mask for s in shifts] for e in entries]

    def flat_coeffs(self, entries) -> list[int]:
        mask, shifts = self.mask, self.shifts
        return [e >> s & mask for e in entries for s in shifts]

    def canon(self, values) -> list[int]:
        p, f, mask, slots, shifts = self.p, self.ctx.modulus, self.mask, self.slots, self.shifts
        return [sum(c << s for c, s in zip(_pmod([(e >> s & mask) % p for s in slots], f, p), shifts))
                for e in map(self.bias.__add__, values)]  # each slot biased into [0, 2^w)

    def submul(self, xs, f, ys) -> list[int]:
        return self.canon([a - f * b for a, b in zip(xs, ys)])

    def points(self, vs):
        """The point of each v, its lead inverted as a FieldElement."""
        out = []
        for v, lead in zip(vs, self._leads(vs)):
            inv = self.entries([x.inverse() for x in self.elements(v[lead:lead + 1])])
            out.append((lead, *self.canon([b * inv[0] for b in v[lead + 1:]])) if inv else None)
        return out


class _Pairs(_Packed):
    """GF(p^2) entries a + b t, for the modulus t^2 + c1 t + c0, on _Packed's
    layout, in closed form: canon folds t^2 = -c1 t - c0 and
    t^3 = (c1^2 - c0) t + c0 c1 into the slots, and submul and points work
    on the pairs, inverting by the norm map
    (a + b t)((a - b c1) - b t) = a^2 - a b c1 + b^2 c0.
    """

    def coeffs(self, entries) -> list[list[int]]:
        m, w = self.mask, self.w
        return [[e & m, e >> w] if e else [0, 0] for e in entries]

    def canon(self, values) -> list[int]:
        (c0, c1, _), p, w, m, bias = self.ctx.modulus, self.p, self.w, self.mask, self.bias
        c01, c11, w2 = c0 * c1, c1 * c1 - c0, 2 * w
        out = []
        for e in values:
            e += bias
            s2, s3 = e >> w2 & m, e >> w2 + w
            out.append(((e & m) - c0 * s2 + c01 * s3) % p
                       | ((e >> w & m) - c1 * s2 + c11 * s3) % p << w)
        return out

    def submul(self, xs, f, ys) -> list[int]:
        # f b = (f0 b0 - g0 b1) + (f1 b0 + g1 b1) t, g0 = f1 c0, g1 = f0 - f1 c1
        (c0, c1, _), p, w, m = self.ctx.modulus, self.p, self.w, self.mask
        f0, f1 = f & m, f >> w
        g0, g1 = f1 * c0, f0 - f1 * c1
        return [((a & m) - f0 * (b & m) + g0 * (b >> w)) % p
                | ((a >> w) - f1 * (b & m) - g1 * (b >> w)) % p << w for a, b in zip(xs, ys)]

    def points(self, vs):
        """The point of each v, by one batched inversion of their leads'
        norms.  A key of 2 or 3 entries, as a column of a paper code's H
        gives, is built as one tuple; longer keys entry by entry."""
        (c0, c1, _), p, w, m = self.ctx.modulus, self.p, self.w, self.mask
        leads, norms = self._leads(vs), []
        for v, lead in zip(vs, leads):
            a0, a1 = (v[lead] & m, v[lead] >> w) if lead < len(v) else (0, 0)
            norms.append((a0 * a0 - a0 * a1 * c1 + a1 * a1 * c0) % p)
        out = []
        for v, lead, n in zip(vs, leads, _inverses(norms, p)):
            if not n:
                out.append(None)
                continue
            a0, a1 = v[lead] & m, v[lead] >> w
            f0, f1 = (a0 - a1 * c1) * n % p, -a1 * n % p  # 1/a, as submul multiplies
            g0, g1 = f1 * c0, f0 - f1 * c1
            k = len(v) - lead
            if k == 3:
                b, d = v[lead + 1], v[lead + 2]
                b0, b1, d0, d1 = b & m, b >> w, d & m, d >> w
                out.append((lead, (f0 * b0 - g0 * b1) % p | (f1 * b0 + g1 * b1) % p << w,
                            (f0 * d0 - g0 * d1) % p | (f1 * d0 + g1 * d1) % p << w))
            elif k == 2:
                b = v[lead + 1]
                b0, b1 = b & m, b >> w
                out.append((lead, (f0 * b0 - g0 * b1) % p | (f1 * b0 + g1 * b1) % p << w))
            else:
                out.append((lead, *[(f0 * (b & m) - g0 * (b >> w)) % p
                                    | (f1 * (b & m) + g1 * (b >> w)) % p << w for b in v[lead + 1:]]))
        return out


# ---------------------------------------------------------------------------
# public constructors and operations


def make_field(p: int, modulus) -> FieldCtx:
    """Build GF(p^m) from a prime and a monic irreducible modulus.

    The modulus is a little-endian coefficient list; [0, 1] (the polynomial
    x) gives the prime field itself.  Raises NotPrimeError, NotMonicError,
    or ReducibleError (with a root or factor witness when available).
    """
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    coeffs = _residues(modulus, p)
    trimmed = _trim(coeffs)
    if len(trimmed) != len(coeffs) or len(coeffs) < 2 or coeffs[-1] != 1:
        raise NotMonicError(f"modulus {coeffs} is not monic of degree >= 1 over GF({p})")
    _check_irreducible(coeffs, p)
    return FieldCtx(p, tuple(coeffs))


def element_order(x: FieldElement) -> int:
    """Least t >= 1 with x^t = 1; divides q-1."""
    if not x:
        raise ZeroElementError("order of zero is undefined")
    q1 = x.ctx.q - 1
    one = x.ctx.one()
    t = q1
    for r in factorize(q1):
        while t % r == 0 and x ** (t // r) == one:
            t //= r
    return t


def primitive_nth_root(ctx: FieldCtx, n: int) -> FieldElement:
    """Canonical element of exact multiplicative order n (needs n | q-1)."""
    if n < 1:
        raise ValueError("n must be positive")
    if (ctx.q - 1) % n != 0:
        raise RootUnavailableError(f"{n} does not divide q-1={ctx.q - 1}")
    return ctx.generator() ** ((ctx.q - 1) // n)


def _xi_entries(ctx: FieldCtx, n: int) -> tuple[int, ...]:
    """xi^0 .. xi^(n-1) for the canonical primitive n-th root xi, in ctx's
    entry form (FieldCtx.form); ValueError for n < 1 and RootUnavailableError
    unless n | q-1, as primitive_nth_root.  ctx keeps them for the last n
    asked, since the idempotents of one (field, n), P and every code of it
    read the same powers."""
    cached = ctx._xi
    if cached is None or cached[0] != n:
        form = ctx.form
        (xi,) = form.entries([primitive_nth_root(ctx, n)])
        pows = [1]
        for _ in range(n - 1):
            pows += form.canon([pows[-1] * xi])
        cached = ctx._xi = (n, tuple(pows))
    return cached[1]


# ---------------------------------------------------------------------------
# text / spec parsing

_FIELD_SPEC_RE = re.compile(r"^\s*p\s*=\s*(\d+)\s*(?:;\s*mod\s*=\s*(\[[^\]]*\])\s*)?$")
# one term of polynomial text: [c][*]x[^e], or a constant c
_TERM_RE = re.compile(r"(?:(\d+)\s*(?:\*\s*)?)?x(?:\^(\d+))?|(\d+)", re.ASCII)


def parse_field_spec(spec: str) -> FieldCtx:
    """Parse "p=5;mod=[2,0,1]" (mod defaults to [0,1], the prime field)."""
    m = _FIELD_SPEC_RE.match(spec)
    if not m:
        raise ValueError(f"cannot parse field spec {spec!r}")
    p = int(m.group(1))
    modulus = json.loads(m.group(2)) if m.group(2) else [0, 1]
    return make_field(p, modulus)


def poly_text(coeffs) -> str:
    """A little-endian coefficient list as polynomial text: "x^2+3x+4", "0"."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            xs = "x" if e == 1 else f"x^{e}"
            parts.append(xs if c == 1 else f"{c}{xs}")
    return "+".join(parts) if parts else "0"


def parse_element(ctx: FieldCtx, s: str) -> FieldElement:
    """Parse "[4,3]" (little-endian list) or "3x+4" (polynomial text).

    Polynomial text is terms joined by + or -, with an optional sign before
    the first; a term is an integer, or x or x^e after an optional integer
    coefficient (3x, 3*x, 3 x).  Spaces may also stand around the signs,
    but a sign joins every two terms: "4 + 3x" is read, while "3 4", "3-"
    and "x--3" are refused.
    """
    s = s.strip()
    if s.startswith("["):
        try:
            coeffs = json.loads(s)
        except ValueError as exc:  # json.JSONDecodeError: "[4,", "[4,3] x"
            raise ValueError(f"{s!r} is not a field element: {exc.msg}") from None
        return ctx.element(coeffs)
    if not s:
        raise ValueError("empty element string")
    # "", sign, term, sign, term, ...: every sign is followed by one term
    parts = re.split(r"([+-])", s if s[0] in "+-" else "+" + s)
    coeffs = [0] * ctx.m
    for sign, term in zip(parts[1::2], parts[2::2]):
        tm = _TERM_RE.fullmatch(term.strip())
        if not tm:
            raise ValueError(f"cannot parse element {s!r}")
        if tm.group(3):
            c, e = int(tm.group(3)), 0
        else:
            c = int(tm.group(1)) if tm.group(1) else 1
            e = int(tm.group(2)) if tm.group(2) else 1
        if e >= ctx.m:
            raise ValueError(f"term {term.strip()!r} has degree {e} >= extension degree {ctx.m}")
        coeffs[e] = (coeffs[e] + (c if sign == "+" else -c)) % ctx.p
    return ctx.element(coeffs)
