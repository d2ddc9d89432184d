"""Exact arithmetic in odd prime fields F_p and in Q.

Scalars hold ints: a residue mod p, or over Q a reduced numerator and a
positive denominator, so both fields run on int arithmetic with one gcd
per Q result.  `fractions.Fraction` only parses input ('a/b' strings and
Fractions handed in) and is `Scalar.value` over Q, the reading view
outside the kernel.  There is one FieldDesc per field.  Square detection
and canonical square-class representatives are exact: Euler's criterion
and Tonelli-Shanks over F_p, squarefree-part extraction by trial
division by primes over Q.

`FieldDesc.ints` and `FieldDesc.scalars` are the int view that the int
kernels of linalg, quadforms and towers share: Scalars as ints over one
denominator (residues over 1 in F_p, numerators over the lcm of the
denominators in Q) and back to one Scalar per entry.  No other module
turns Q values into ints.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from fractions import Fraction
from math import gcd
from typing import Optional

from .errors import DivisionByZero, FieldMismatch, ParseError, ZeroArgument

# Trial division bound for squarefree-part extraction over Q.  The
# library only needs desk-scale numerators; anything bigger fails loudly.
SQUAREFREE_TRIAL_BOUND = 10 ** 6
# the first odd number past the bound: a cofactor n with _PAST^2 <= n left
# after every prime up to the bound is beyond the trial division
_PAST = (SQUAREFREE_TRIAL_BOUND + 1) | 1
# odd primes below this are a tuple; the rest come from _prime_gaps
_SMALL = 1000
_HASH = sys.hash_info


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin, valid far beyond 2**31
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldDesc:
    """Descriptor of the base field: an odd prime field or Q.  There is one
    descriptor per field: FieldDesc(p) returns the one made first, so
    fields compare, and Scalars mix, by identity."""

    __slots__ = ("p", "_nonresidue", "_zero", "_one")
    _made: dict = {}

    def __new__(cls, p: Optional[int] = None):
        field = cls._made.get(p)
        if field is not None:
            return field
        if p is not None:
            if p == 2:
                raise ValueError("characteristic 2 is not supported")
            if p > 2 ** 31:
                raise ValueError("prime too large: %d" % p)
            if not _is_prime(p):
                raise ValueError("%d is not prime" % p)
        field = cls._made[p] = object.__new__(cls)
        field.p = p
        field._nonresidue = None
        # Scalars are immutable, so one zero and one one serve every caller
        field._zero, field._one = field.scalars([0, 1])
        return field

    def __reduce__(self):
        return FieldDesc, (self.p,)

    def __hash__(self):
        return hash(("FieldDesc", self.p))

    def __repr__(self):
        return "F_%d" % self.p if self.p else "Q"

    # -- ring-descriptor interface (shared with EtaleQuad / QuadTower) --

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def from_scalar(self, s: "Scalar") -> "Scalar":
        if s.field is not self:
            raise FieldMismatch("scalar from %r used over %r" % (s.field, self))
        return s

    def __call__(self, value) -> "Scalar":
        """Coerce an int, Fraction, or 'a/b' string into a Scalar; a Scalar
        of this field comes back unchanged."""
        kind = type(value)
        if kind is Scalar:
            return self.from_scalar(value)
        if kind is int:
            return Scalar(self, value % self.p) if self.p else Scalar(self, value)
        value = Fraction(value)
        return self.scalars([value.numerator], value.denominator)[0]

    # -- the int view shared by the int kernels --

    def ints(self, scalars):
        """A sequence of Scalars of this field as (ints, d) with
        scalars = ints / d: the residues and d = 1 over F_p, over Q the
        numerators over the lcm d of the denominators."""
        if self.p:
            return [s.num for s in scalars], 1
        d = math.lcm(*[s.den for s in scalars])
        if d == 1:
            return [s.num for s in scalars], 1
        return [s.num * (d // s.den) for s in scalars], d

    def scalars(self, ints, d=1):
        """One Scalar per entry, equal to ints / d (d any int); over F_p
        ints times d^-1 mod p.  DivisionByZero when d is 0 in the field."""
        p = self.p
        if p:
            if d == 1:
                return [Scalar(self, v % p) for v in ints]
            if not d % p:
                raise DivisionByZero("denominator divisible by p")
            f = pow(d, -1, p)
            return [Scalar(self, v * f % p) for v in ints]
        if d == 1:
            return [Scalar(self, v) for v in ints]
        if not d:
            raise DivisionByZero("denominator 0")
        if d < 0:
            d, ints = -d, [-v for v in ints]
        out = []
        for v in ints:
            g = gcd(v, d)
            out.append(Scalar(self, v // g, d // g))
        return out

    def elements(self):
        """All field elements; prime fields only."""
        if self.p is None:
            raise ValueError("cannot enumerate Q")
        return [Scalar(self, r) for r in range(self.p)]

    def least_nonresidue(self) -> "Scalar":
        """Least positive quadratic nonresidue mod p (deterministic)."""
        if self.p is None:
            raise ValueError("nonresidue is a prime-field notion")
        if self._nonresidue is None:
            for r in range(2, self.p):
                if pow(r, (self.p - 1) // 2, self.p) == self.p - 1:
                    self._nonresidue = r
                    break
        return Scalar(self, self._nonresidue)


class Scalar:
    """Element of F_p or Q on ints: `num` is the residue in [0, p) over
    F_p (`den` 1), and over Q the numerator of the reduced fraction
    num / den with den > 0.  Each Q result takes one gcd, and none when
    both operands are integers."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: FieldDesc, num: int, den: int = 1):
        self.field = field
        self.num = num
        self.den = den

    @property
    def value(self):
        """The value for readers outside the kernel: the residue over F_p,
        over Q the equal Fraction.  No arithmetic here goes through it."""
        if self.field.p is not None:
            return self.num
        return Fraction(self.num, self.den)

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise FieldMismatch("%r vs %r" % (self.field, other.field))
            return other
        if isinstance(other, (int, Fraction)):
            return self.field(other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not Scalar or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        field = self.field
        if field.p is not None:
            return Scalar(field, (self.num + other.num) % field.p)
        a, b = self.den, other.den
        if a == b == 1:
            return Scalar(field, self.num + other.num)
        n, d = self.num * b + other.num * a, a * b
        g = gcd(n, d)
        return Scalar(field, n // g, d // g)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        field = self.field
        if field.p is not None:
            return Scalar(field, (self.num - other.num) % field.p)
        a, b = self.den, other.den
        if a == b == 1:
            return Scalar(field, self.num - other.num)
        n, d = self.num * b - other.num * a, a * b
        g = gcd(n, d)
        return Scalar(field, n // g, d // g)

    def __rsub__(self, other):
        return self.field(other) - self

    def __mul__(self, other):
        if type(other) is not Scalar or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        field = self.field
        if field.p is not None:
            return Scalar(field, self.num * other.num % field.p)
        n, d = self.num * other.num, self.den * other.den
        if d == 1:
            return Scalar(field, n)
        g = gcd(n, d)
        return Scalar(field, n // g, d // g)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.field.p is not None:
            return self * other.inverse()
        n, d = self.num * other.den, self.den * other.num
        if not d:
            raise DivisionByZero("inverse of zero")
        if d < 0:
            n, d = -n, -d
        g = gcd(n, d)
        return Scalar(self.field, n // g, d // g)

    def __rtruediv__(self, other):
        return self.field(other) / self

    def __neg__(self):
        if self.field.p is not None:
            return Scalar(self.field, -self.num % self.field.p)
        return Scalar(self.field, -self.num, self.den)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        if self.field.p is not None:
            return Scalar(self.field, pow(self.num, n, self.field.p))
        # powers of coprime ints stay coprime
        return Scalar(self.field, self.num ** n, self.den ** n)

    def inverse(self) -> "Scalar":
        if not self.num:
            raise DivisionByZero("inverse of zero")
        if self.field.p is not None:
            return Scalar(self.field, pow(self.num, -1, self.field.p))
        if self.num < 0:
            return Scalar(self.field, -self.den, -self.num)
        return Scalar(self.field, self.den, self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        # Scalar first: an isinstance test against Fraction's ABC is slow
        if type(other) is not Scalar:
            if isinstance(other, (int, Fraction)):
                other = self.field(other)
            elif not isinstance(other, Scalar):
                return NotImplemented
        return (self.field is other.field and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        # the hash of (field, value) with value the int or Fraction equal
        # to self, so that sets of Scalars keep their iteration order
        if self.den == 1:
            return hash((self.field, self.num))
        return hash((self.field, _rational_hash(self.num, self.den)))

    def __repr__(self):
        return str(self.num) if self.den == 1 else "%d/%d" % (self.num, self.den)


def _rational_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for n / d in lowest terms, d > 1: Python's
    numeric hash, |n| d^-1 modulo the hash prime, signed as n."""
    try:
        h = hash(hash(abs(n)) * pow(d, -1, _HASH.modulus))
    except ValueError:      # d a multiple of the hash prime
        h = _HASH.inf
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


QQ = FieldDesc()


def GF(p: int) -> FieldDesc:
    return FieldDesc(p)


def parse_field(spec: str) -> FieldDesc:
    """Parse a field spec of the form 'p=N' (N an odd prime) or 'Q';
    ParseError on anything else."""
    spec = spec.strip()
    if spec in ("Q", "q"):
        return QQ
    if spec.startswith("p="):
        try:
            return FieldDesc(int(spec[2:]))
        except ValueError as ex:
            raise ParseError("bad field spec %r: %s" % (spec, ex)) from None
    raise ParseError("bad field spec %r (expected 'p=N' or 'Q')" % spec)


# ---------------------------------------------------------------------------
# squares and square classes
# ---------------------------------------------------------------------------

def is_square(x: Scalar) -> bool:
    """True iff x is a square in its field (0 counts)."""
    if not x.num:
        return True
    if x.field.p is not None:
        return pow(x.num, (x.field.p - 1) // 2, x.field.p) == 1
    return (x.num > 0 and math.isqrt(x.num) ** 2 == x.num
            and math.isqrt(x.den) ** 2 == x.den)


def sqrt_exact(x: Scalar) -> Optional[Scalar]:
    """A square root of x if one exists, chosen deterministically.

    F_p: the least residue among the two roots (Tonelli-Shanks).
    Q: the positive root.
    """
    if not x.num:
        return x.field.zero()
    if x.field.p is not None:
        if not is_square(x):
            return None
        r = _tonelli_shanks(x.num, x.field.p)
        return Scalar(x.field, min(r, x.field.p - r))
    if x.num < 0:
        return None
    a, b = math.isqrt(x.num), math.isqrt(x.den)
    if a * a != x.num or b * b != x.den:
        return None
    return Scalar(x.field, a, b)


def _tonelli_shanks(n: int, p: int) -> int:
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _odd_sieve(limit: int) -> bytearray:
    """Flags over the odd numbers below limit: entry i is 1 when 2i + 1 is
    prime."""
    size = limit // 2
    flags = bytearray([1]) * size
    flags[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if flags[i]:
            d = 2 * i + 1
            flags[d * d // 2::d] = bytes(len(range(d * d // 2, size, d)))
    return flags


_SMALL_PRIMES = tuple(itertools.compress(range(1, _SMALL, 2), _odd_sieve(_SMALL)))


@functools.cache
def _prime_gaps() -> bytes:
    """The odd primes past _SMALL_PRIMES up to the bound, as the gaps
    between consecutive primes from _SMALL_PRIMES[-1] on, one byte each
    (every gap below 10^6 is under 256): read off a sieve over the odd
    numbers, once, on the first cofactor that outlasts _SMALL_PRIMES."""
    # each prime past _SMALL_PRIMES minus the prime before it
    start = _SMALL_PRIMES[-1] // 2 + 1
    odd, tail = range(2 * start + 1, _PAST, 2), memoryview(_odd_sieve(_PAST))[start:]
    return bytes(map(operator.sub, itertools.compress(odd, tail),
                     itertools.chain(_SMALL_PRIMES[-1:], itertools.compress(odd, tail))))


def _divide_out(n: int, d: int, out: int):
    """n without its factors d, and out times d if they were odd in number."""
    e = 0
    while n % d == 0:
        n //= d
        e += 1
    return n, out * d if e % 2 else out


def squarefree_part(n: int) -> int:
    """Signed squarefree part of a nonzero integer, by trial division by 2
    and the odd primes up to SQUAREFREE_TRIAL_BOUND, stopping at the first
    prime d with d^2 above the cofactor left; ValueError when a cofactor
    of _PAST^2 or more is left after them all."""
    if n == 0:
        raise ZeroArgument("squarefree part of 0")
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    e = (n & -n).bit_length() - 1   # the power of 2
    n >>= e
    if e % 2 == 1:
        out = 2
    for d in _SMALL_PRIMES:
        if d * d > n:
            return sign * out * n
        if n % d == 0:
            n, out = _divide_out(n, d, out)
    if n < _SMALL * _SMALL:     # below the next prime's square
        return sign * out * n
    d = _SMALL_PRIMES[-1]
    for gap in _prime_gaps():
        d += gap
        if d * d > n:
            return sign * out * n
        if n % d == 0:
            n, out = _divide_out(n, d, out)
    if _PAST * _PAST <= n:
        raise ValueError(
            "trial division bound %d exceeded while factoring %d"
            % (SQUAREFREE_TRIAL_BOUND, n)
        )
    return sign * out * n


class SquareClass:
    """Canonical representative of a class in F^x / (F^x)^2.

    F_p: 1 or the least positive nonresidue.  Q: a signed squarefree
    integer.  Classes multiply (group law) and compare by representative.
    """

    __slots__ = ("field", "rep")

    def __init__(self, field: FieldDesc, rep):
        self.field = field
        self.rep = rep

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self.field != other.field:
            raise FieldMismatch("square classes over different fields")
        if self.field.p is not None:
            return square_class(Scalar(self.field, self.rep * other.rep % self.field.p))
        return SquareClass(self.field, squarefree_part(self.rep * other.rep))

    def is_trivial(self) -> bool:
        return self.rep == 1

    def __eq__(self, other):
        if isinstance(other, int):
            return self == square_class(self.field(other))
        return (
            isinstance(other, SquareClass)
            and self.field == other.field
            and self.rep == other.rep
        )

    def __hash__(self):
        return hash((self.field, self.rep))

    def __repr__(self):
        return "[%s]" % self.rep


def square_class(x: Scalar) -> SquareClass:
    """Canonical square class of a nonzero scalar."""
    if not x.num:
        raise ZeroArgument("square class of 0")
    if x.field.p is not None:
        if is_square(x):
            return SquareClass(x.field, 1)
        return SquareClass(x.field, x.field.least_nonresidue().num)
    return SquareClass(x.field, squarefree_part(x.num * x.den))
