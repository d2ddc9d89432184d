"""Exact arithmetic in odd prime fields F_p and in Q.

Scalars are immutable wrappers around an int residue (prime case) or a
``fractions.Fraction`` (rational case).  Square detection and canonical
square-class representatives are exact: Euler's criterion and
Tonelli-Shanks over F_p, squarefree-part extraction by trial division
over Q.

`FieldDesc.ints` and `FieldDesc.scalars` are the int view that the int
kernels of linalg, quadforms and towers share: values as ints over one
denominator (residues over 1 in F_p, numerators over the lcm of the
denominators in Q) and back to one Scalar per entry.  No other module
turns Q values into ints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .errors import DivisionByZero, FieldMismatch, ParseError, ZeroArgument

# Trial division bound for squarefree-part extraction over Q.  The
# library only needs desk-scale numerators; anything bigger fails loudly.
SQUAREFREE_TRIAL_BOUND = 10 ** 6


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
    """Descriptor of the base field: an odd prime field or Q."""

    __slots__ = ("p", "_nonresidue", "_zero", "_one")

    def __init__(self, p: Optional[int] = None):
        if p is not None:
            if p == 2:
                raise ValueError("characteristic 2 is not supported")
            if p > 2 ** 31:
                raise ValueError("prime too large: %d" % p)
            if not _is_prime(p):
                raise ValueError("%d is not prime" % p)
        self.p = p
        self._nonresidue: Optional[int] = None
        # Scalars are immutable, so one zero and one one serve every caller
        self._zero, self._one = self.scalars([0, 1])

    def __eq__(self, other):
        return isinstance(other, FieldDesc) and self.p == other.p

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
        if s.field != self:
            raise FieldMismatch("scalar from %r used over %r" % (s.field, self))
        return s

    def __call__(self, value) -> "Scalar":
        """Coerce an int, Fraction, or 'a/b' string into a Scalar; a Scalar
        of this field comes back unchanged."""
        kind = type(value)
        if kind is Scalar and value.field is self:
            return value
        if kind is int:
            return Scalar(self, value % self.p if self.p else Fraction(value))
        if isinstance(value, Scalar):
            return self.from_scalar(value)
        value = Fraction(value)
        return self.scalars([value.numerator], value.denominator)[0]

    # -- the int view shared by the int kernels --

    def ints(self, values):
        """Values of this field (ints, over Q also Fractions) as (ints, d)
        with values = ints / d: residues mod p and d = 1 over F_p, over Q
        numerators over the lcm d of the denominators."""
        p = self.p
        if p:
            return [v % p for v in values], 1
        dens = [v.denominator for v in values]
        d = math.lcm(*dens)
        return [v.numerator * (d // e) for v, e in zip(values, dens)], d

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
        if not d:
            raise DivisionByZero("denominator 0")
        return [Scalar(self, Fraction(v, d)) for v in ints]

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
    """Element of F_p (int residue) or Q (reduced Fraction)."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldDesc, value):
        self.field = field
        self.value = value

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field != self.field:
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
        p = self.field.p
        if p is not None:
            return Scalar(self.field, (self.value + other.value) % p)
        return Scalar(self.field, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        p = self.field.p
        if p is not None:
            return Scalar(self.field, (self.value - other.value) % p)
        return Scalar(self.field, self.value - other.value)

    def __rsub__(self, other):
        return self.field(other) - self

    def __mul__(self, other):
        if type(other) is not Scalar or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        p = self.field.p
        if p is not None:
            return Scalar(self.field, (self.value * other.value) % p)
        return Scalar(self.field, self.value * other.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field(other) / self

    def __neg__(self):
        if self.field.p is not None:
            return Scalar(self.field, (-self.value) % self.field.p)
        return Scalar(self.field, -self.value)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        if self.field.p is not None:
            return Scalar(self.field, pow(self.value, n, self.field.p))
        return Scalar(self.field, self.value ** n)

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.field.p is not None:
            return Scalar(self.field, pow(self.value, -1, self.field.p))
        return Scalar(self.field, 1 / self.value)

    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other):
        # Scalar first: an isinstance test against Fraction's ABC is slow
        if type(other) is not Scalar:
            if isinstance(other, (int, Fraction)):
                other = self.field(other)
            elif not isinstance(other, Scalar):
                return NotImplemented
        return ((self.field is other.field or self.field == other.field)
                and self.value == other.value)

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return str(self.value)


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
    if x.is_zero():
        return True
    if x.field.p is not None:
        return pow(x.value, (x.field.p - 1) // 2, x.field.p) == 1
    f: Fraction = x.value
    if f < 0:
        return False
    return (
        math.isqrt(f.numerator) ** 2 == f.numerator
        and math.isqrt(f.denominator) ** 2 == f.denominator
    )


def sqrt_exact(x: Scalar) -> Optional[Scalar]:
    """A square root of x if one exists, chosen deterministically.

    F_p: the least residue among the two roots (Tonelli-Shanks).
    Q: the positive root.
    """
    if x.is_zero():
        return x.field(0)
    if x.field.p is not None:
        if not is_square(x):
            return None
        r = _tonelli_shanks(x.value, x.field.p)
        return Scalar(x.field, min(r, x.field.p - r))
    f: Fraction = x.value
    if f < 0:
        return None
    a, b = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if a * a != f.numerator or b * b != f.denominator:
        return None
    return Scalar(x.field, Fraction(a, b))


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


def squarefree_part(n: int) -> int:
    """Signed squarefree part of a nonzero integer, by trial division by 2
    and the odd numbers up to SQUAREFREE_TRIAL_BOUND."""
    if n == 0:
        raise ZeroArgument("squarefree part of 0")
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    e = (n & -n).bit_length() - 1   # the power of 2
    n >>= e
    if e % 2 == 1:
        out = 2
    d = 3
    while d * d <= n:
        if d > SQUAREFREE_TRIAL_BOUND:
            raise ValueError(
                "trial division bound %d exceeded while factoring %d"
                % (SQUAREFREE_TRIAL_BOUND, n)
            )
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2 == 1:
                out *= d
        d += 2
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
    if x.is_zero():
        raise ZeroArgument("square class of 0")
    if x.field.p is not None:
        if is_square(x):
            return SquareClass(x.field, 1)
        return SquareClass(x.field, x.field.least_nonresidue().value)
    f: Fraction = x.value
    return SquareClass(x.field, squarefree_part(f.numerator * f.denominator))
