"""Field arithmetic, square detection, square classes, exact roots."""

import math
import pathlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import isogeny_kit
from isogeny_kit.errors import DivisionByZero, FieldMismatch, ParseError, ZeroArgument
from isogeny_kit.exactfield import (
    GF,
    QQ,
    FieldDesc,
    is_square,
    parse_field,
    sqrt_exact,
    square_class,
    squarefree_part,
)

F3 = GF(3)
F5 = GF(5)
F7 = GF(7)


def test_field_ops_examples():
    assert F7(2) * F7(4) == F7(1)          # 8 = 1 mod 7
    assert QQ(2).inverse() == QQ("1/2")
    assert QQ("1/3") + QQ("1/6") == QQ("1/2")


def test_field_axioms_sampled():
    import random
    rng = random.Random(0)
    for field in (F7, QQ):
        for _ in range(50):
            a = field(rng.randint(-9, 9))
            b = field(rng.randint(-9, 9))
            c = field(rng.randint(-9, 9))
            assert (a + b) * c == a * c + b * c
            assert a - a == field(0)
            if not b.is_zero():
                assert (a / b) * b == a


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        F7(0).inverse()
    with pytest.raises(DivisionByZero):
        QQ(3) / QQ(0)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        F7(1) + F5(1)


def test_constructor_rejects_bad_primes():
    with pytest.raises(ValueError):
        FieldDesc(2)
    with pytest.raises(ValueError):
        FieldDesc(9)
    with pytest.raises(ValueError):
        FieldDesc(2 ** 31 + 11)


def test_is_square_derived():
    # squares mod 7 are {0, 1, 2, 4}: enumerate to derive, then assert
    squares7 = {(x * x) % 7 for x in range(7)}
    assert squares7 == {0, 1, 2, 4}
    assert is_square(F7(2))
    squares3 = {(x * x) % 3 for x in range(3)}
    assert 2 not in squares3
    assert not is_square(F3(2))
    assert is_square(QQ(4))
    assert not is_square(QQ(-4))
    assert is_square(QQ("9/16"))


def test_square_class_examples():
    assert square_class(QQ(18)).rep == 2          # 18 = 2 * 3^2
    assert square_class(F7(5)).rep == 3           # least nonresidue of F_7
    for field in (F7, QQ):
        for r in (1, 2, 5):
            assert square_class(field(r) * field(r)).rep == 1
    with pytest.raises(ZeroArgument):
        square_class(F7(0))


def test_square_class_group_law():
    import random
    rng = random.Random(1)
    for field in (F5, F7, QQ):
        for _ in range(60):
            x = field(rng.randint(1, 40))
            y = field(rng.randint(1, 40))
            if x.is_zero() or y.is_zero():
                continue
            assert square_class(x * y) == square_class(x) * square_class(y)


def test_sqrt_exact_examples():
    assert sqrt_exact(F7(2)) == F7(3)             # least of {3, 4}
    assert sqrt_exact(QQ("9/4")) == QQ("3/2")
    assert sqrt_exact(QQ(2)) is None
    for field in (F3, F5, F7, QQ):
        for v in range(0, 12):
            r = sqrt_exact(field(v))
            if r is not None:
                assert r * r == field(v)
                assert is_square(field(v))


def test_square_counts_all_odd_primes_up_to_100():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97):
        field = GF(p)
        squares = sum(1 for r in range(1, p) if is_square(field(r)))
        assert squares == (p - 1) // 2


def test_squarefree_part():
    assert squarefree_part(18) == 2
    assert squarefree_part(-12) == -3
    assert squarefree_part(1) == 1
    with pytest.raises(ZeroArgument):
        squarefree_part(0)


def test_squarefree_part_matches_factorint():
    """Random signed products of prime powers (2 among them, and at most
    one prime past the trial bound) against sympy's factorisation."""
    import random
    sympy = pytest.importorskip("sympy")
    rng = random.Random(10)
    primes = list(sympy.primerange(2, 200)) + [99991, 999983]
    big = [1000003, 1212683, 7000003]
    for _ in range(300):
        n = rng.choice((-1, 1))
        for q in rng.sample(primes, rng.randrange(0, 5)):
            n *= q ** rng.randrange(1, 5)
        if rng.random() < 0.3:
            n *= rng.choice(big)
        want = -1 if n < 0 else 1
        for q, e in sympy.factorint(abs(n)).items():
            want *= q ** (e % 2)
        assert squarefree_part(n) == want, n


def test_squarefree_part_bound_message():
    with pytest.raises(ValueError, match="^trial division bound 1000000 "
                       "exceeded while factoring 1470600058489$"):
        squarefree_part(1212683 ** 2)


def test_parse_field():
    assert parse_field("p=11").p == 11
    assert parse_field("Q").p is None
    with pytest.raises(ValueError):
        parse_field("r=4")


@pytest.mark.parametrize("spec", ["r=4", "R", "p=2", "p=9", "p=x", "p=-3"])
def test_parse_field_raises_parse_error(spec):
    with pytest.raises(ParseError):
        parse_field(spec)


# ---------------------------------------------------------------------------
# shared values: one zero and one one per field, Scalars passed through
# unchanged, and no Scalar or A^- vector mutated in the library
# ---------------------------------------------------------------------------

def test_zero_and_one_are_built_once_per_field():
    f = GF(5)
    assert f.zero() is f.zero() and f.one() is f.one()
    assert QQ.zero() is QQ.zero() and QQ.one() is QQ.one()
    assert (f.zero().value, f.one().value) == (0, 1)
    assert QQ.zero().value == Fraction(0) and type(QQ.one().value) is Fraction
    x = f(3)
    assert f(x) is x and f(f.one()) is f.one()
    assert GF(5)(x) == x and GF(5)(x) is x
    with pytest.raises(FieldMismatch):
        GF(7)(x)


# assignments through an attribute of a Scalar (num, den) or of an A^- vector
# (x, y), in place or augmented, and list mutators called on x or y
MUTATIONS = [
    re.compile(r"\.(?:num|den)\s*(?:[-+*/%&|^]|//|\*\*)?=(?!=)"),
    re.compile(r"\.[xy]\s*\[[^\]]*\]\s*(?:[-+*/%&|^]|//|\*\*)?=(?!=)"),
    re.compile(r"\.[xy]\s*(?:[-+*/%&|^]|//|\*\*)?=(?!=)"),
    re.compile(r"\.[xy]\.(?:append|extend|insert|pop|remove|sort|reverse|clear)\("),
    re.compile(r"setattr\("),
]
# Scalar's constructor, the denominator of a _Restriction's structure
# constants, and RhoQ8Elem's cover element (named x); an A^- vector's x and
# y are read-only views of its element
CONSTRUCTOR_LINES = {
    ("exactfield.py", "self.num = num"),
    ("exactfield.py", "self.den = den"),
    ("towers.py", "nums, self.den = self.reduce(nums, kd * unit_den * unit_den)"),
    ("spin_eight.py", "self.x = x"),
}


def test_no_scalar_or_aminus_vector_is_mutated():
    """Zero, one and the shear vectors are shared between callers, so
    nothing in the library may change a Scalar or an A^- vector."""
    src = pathlib.Path(isogeny_kit.__file__).parent
    hits = []
    for path in sorted(src.glob("*.py")):
        for no, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#")[0].strip()
            if (path.name, code) in CONSTRUCTOR_LINES:
                continue
            if any(p.search(code) for p in MUTATIONS):
                hits.append("%s:%d: %s" % (path.name, no, code))
    assert hits == []


# -- the int view: FieldDesc.ints and FieldDesc.scalars -----------------------
INT_VIEW = settings(max_examples=60, deadline=None)
# large coprime denominators over Q
BIG_DENS = (10007, 10009, 10037, 65537, 2 ** 61 - 1)


@pytest.mark.parametrize("field", [F3, F5, F7], ids=["F3", "F5", "F7"])
@INT_VIEW
@given(values=st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=8),
       d=st.integers(-60, 60))
def test_int_view_over_fp_matches_fraction_arithmetic(field, values, d):
    p = field.p
    ints, one = field.ints([field(v) for v in values])
    assert one == 1 and ints == [v % p for v in values]
    assert field.scalars(ints) == [field(v) for v in values]
    if d % p == 0:
        # d = 0 in F_p, whether d is 0 or a nonzero multiple of p
        with pytest.raises(DivisionByZero):
            field.scalars(values, d)
        return
    got = field.scalars(values, d)
    assert got == [field(Fraction(v, d)) for v in values]
    assert all(type(s.value) is int and 0 <= s.value < p for s in got)


rationals = st.one_of(
    st.integers(-10 ** 9, 10 ** 9),
    st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.sampled_from(BIG_DENS)),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)))


@INT_VIEW
@given(values=st.lists(rationals, max_size=8), d=st.integers(-10 ** 5, 10 ** 5))
def test_int_view_over_q_matches_fraction_arithmetic(values, d):
    ints, den = QQ.ints([QQ(v) for v in values])
    assert den > 0 and all(type(n) is int for n in ints)
    assert [Fraction(n, den) for n in ints] == [Fraction(v) for v in values]
    assert den == math.lcm(*(Fraction(v).denominator for v in values))
    assert QQ.scalars(ints, den) == [QQ(v) for v in values]
    if not d:
        with pytest.raises(DivisionByZero):
            QQ.scalars(ints, d)
        return
    got = QQ.scalars(ints, d)
    assert got == [QQ(Fraction(n, d)) for n in ints]
    assert all(type(s.value) is Fraction for s in got)


def test_int_view_examples():
    assert QQ.ints([QQ(Fraction(1, 6)), QQ(-2), QQ(Fraction(3, 4))]) == ([2, -24, 9], 12)
    assert QQ.ints([]) == ([], 1)
    assert F5.ints([F5(7), F5(-1), F5(0)]) == ([2, 4, 0], 1)
    assert F5.scalars([1, 2], 3) == [F5(2), F5(4)]      # 3^-1 = 2 mod 5
    assert QQ.scalars([4, -6], -8) == [QQ("-1/2"), QQ("3/4")]
    with pytest.raises(DivisionByZero):
        F5.scalars([1], 10)
    with pytest.raises(DivisionByZero):
        QQ.scalars([1], 0)


# -- Q Scalars on ints against fractions.Fraction ---------------------------

small_q = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40))
big_q = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.sampled_from(BIG_DENS))
q_values = st.one_of(st.integers(-10 ** 12, 10 ** 12), small_q, big_q)


def assert_is(s, f):
    """The Q Scalar s holds the Fraction f: reduced ints, den > 0."""
    assert s.field is QQ and (s.num, s.den) == (f.numerator, f.denominator)
    assert type(s.num) is int and type(s.den) is int


@settings(max_examples=300, deadline=None)
@given(a=q_values, b=q_values, n=st.integers(-6, 6))
def test_q_scalars_match_fraction(a, b, n):
    """Every operator, inverse, powers of both signs, equality, hash, str
    and repr of Q Scalars against the same computation on Fractions."""
    fa, fb = Fraction(a), Fraction(b)
    x, y = QQ(a), QQ(b)
    assert_is(x, fa)
    assert_is(x + y, fa + fb)
    assert_is(x - y, fa - fb)
    assert_is(x * y, fa * fb)
    assert_is(-x, -fa)
    for got, want in ((x + b, fa + fb), (a + y, fa + fb), (x - b, fa - fb),
                      (a - y, fa - fb), (x * b, fa * fb), (a * y, fa * fb)):
        assert_is(got, want)
    if fb:
        assert_is(x / y, fa / fb)
        assert_is(x / b, fa / fb)
        assert_is(a / y, fa / fb)
        assert_is(y.inverse(), 1 / fb)
    else:
        for op in (lambda: x / y, lambda: x / b, lambda: a / y, y.inverse):
            with pytest.raises(DivisionByZero):
                op()
    if fa or n >= 0:
        assert_is(x ** n, fa ** n)
    else:
        with pytest.raises(DivisionByZero):
            x ** n
    assert (x == y) == (fa == fb) and (x == b) == (fa == fb) and (x == fb) == (fa == fb)
    assert x.is_zero() == (fa == 0)
    assert str(x) == repr(x) == str(fa)
    assert hash(x) == hash((QQ, fa))
    assert x.value == fa and type(x.value) is Fraction


@settings(max_examples=200, deadline=None)
@given(values=st.lists(q_values, max_size=8), d=st.integers(-10 ** 6, 10 ** 6))
def test_q_int_view_round_trips(values, d):
    """ints reads the Scalars' own ints, and scalars(ints, d) is ints / d
    in lowest terms for either sign of d."""
    xs = [QQ(v) for v in values]
    ints, den = QQ.ints(xs)
    assert den == math.lcm(*(Fraction(v).denominator for v in values))
    assert QQ.scalars(ints, den) == xs
    if not d:
        with pytest.raises(DivisionByZero):
            QQ.scalars(ints, d)
        return
    for s, v in zip(QQ.scalars(ints, d), ints):
        assert_is(s, Fraction(v, d))


def test_q_hash_past_the_hash_prime():
    """A denominator that is a multiple of the hash prime hashes as the
    Fraction does (the infinite hash)."""
    m = 2 ** 61 - 1
    for f in (Fraction(1, m), Fraction(-3, 2 * m)):
        assert hash(QQ(f)) == hash((QQ, f))


def test_one_descriptor_per_field():
    """FieldDesc(p), GF(p) and parse_field return one object per field,
    and copies and pickles come back as that object."""
    import copy
    import pickle
    assert parse_field("p=5") is parse_field("p=5") is GF(5) is FieldDesc(5) is F5
    assert parse_field("Q") is FieldDesc() is QQ
    for f in (F5, QQ):
        assert copy.copy(f) is f and copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f
    assert F5 != F7 and F5 != QQ and hash(F5) == hash(("FieldDesc", 5))


COERCE_COUNT = r"""
import contextlib, io, sys
from isogeny_kit import cli
from isogeny_kit.exactfield import Scalar
calls = [0]
coerce = Scalar._coerce
def counted(self, other):
    calls[0] += isinstance(other, Scalar)
    return coerce(self, other)
Scalar._coerce = counted
counts = []
for _ in range(2):
    calls[0] = 0
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["verify", "all", "--field", "p=5", "--seed", "1", "--trials", "8"])
    counts.append((rc, calls[0]))
print(counts)
"""


def test_repeated_runs_mix_no_scalars_across_descriptors():
    """Two `verify all` runs in one fresh process (as perfbench runs its
    passes) coerce no Scalar: every Scalar of F_5 holds the one F_5."""
    import os
    import subprocess
    import sys
    src = pathlib.Path(isogeny_kit.__file__).parent.parent
    out = subprocess.run([sys.executable, "-c", COERCE_COUNT], capture_output=True,
                         text=True, timeout=300, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[(0, 0), (0, 0)]"


# -- squarefree_part: trial division by the primes of a sieve ---------------

def odd_loop_squarefree_part(n: int) -> int:
    """squarefree_part as it trial-divided by every odd number up to the
    bound (the oracle)."""
    if n == 0:
        raise ZeroArgument("squarefree part of 0")
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    e = (n & -n).bit_length() - 1
    n >>= e
    if e % 2 == 1:
        out = 2
    d = 3
    while d * d <= n:
        if d > 10 ** 6:
            raise ValueError("trial division bound %d exceeded while factoring %d"
                             % (10 ** 6, n))
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2 == 1:
                out *= d
        d += 2
    return sign * out * n


def outcome(f, n):
    try:
        return f(n)
    except ValueError as ex:
        return "ValueError: %s" % ex


EDGES = [1000001 ** 2 - 1, 1000001 ** 2, 1000003 ** 2, 999983 ** 2, 999983 * 1000003,
         21851313568272057156526096, 2 * 999983 ** 2, 3 * 1000003 ** 2, 997 ** 2 * 1009 ** 3,
         1009 ** 2, 999983, 2 ** 40 * 1000003, 12, 1]


@pytest.mark.parametrize("n", EDGES)
def test_squarefree_part_matches_the_odd_loop_at_the_edges(n):
    for m in (n, -n):
        assert outcome(squarefree_part, m) == outcome(odd_loop_squarefree_part, m)


@settings(max_examples=150, deadline=None)
@given(n=st.one_of(st.integers(-10 ** 9, 10 ** 9).filter(bool),
                   st.builds(lambda a, b, c: a * b * b * c, st.integers(1, 10 ** 4),
                             st.integers(1, 10 ** 5), st.sampled_from([1, -1, 999983, 1000003]))))
def test_squarefree_part_matches_the_odd_loop(n):
    assert outcome(squarefree_part, n) == outcome(odd_loop_squarefree_part, n)


SIEVE_PROBE = r"""
from isogeny_kit import exactfield
for n in (12, -18, 997 ** 2 * 991, 2 ** 80 * 3 ** 7, 1009 * 983, 999 ** 2):
    exactfield.squarefree_part(n)
before = exactfield._prime_gaps.cache_info().currsize
exactfield.squarefree_part(1000003 * 999983)
gaps = exactfield._prime_gaps()
print(before, type(gaps).__name__, len(memoryview(gaps).tobytes()),
      exactfield._prime_gaps() is gaps)
"""


def test_prime_table_is_compact_and_built_only_for_large_cofactors():
    """Cofactors that the small primes settle never build the prime table;
    once built it is bytes-like, at most 0.6 MB, and built once."""
    import os
    import subprocess
    import sys
    src = pathlib.Path(isogeny_kit.__file__).parent.parent
    out = subprocess.run([sys.executable, "-c", SIEVE_PROBE], capture_output=True,
                         text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.returncode == 0, out.stderr
    before, kind, size, same = out.stdout.split()
    assert before == "0" and same == "True"
    assert kind in ("bytes", "bytearray") and int(size) <= 600_000


def test_small_primes_and_prime_gaps_are_the_odd_primes_to_the_bound():
    sympy = pytest.importorskip("sympy")
    from isogeny_kit import exactfield
    primes = list(exactfield._SMALL_PRIMES)
    for gap in exactfield._prime_gaps():
        primes.append(primes[-1] + gap)
    assert primes == list(sympy.primerange(3, 10 ** 6 + 1))
