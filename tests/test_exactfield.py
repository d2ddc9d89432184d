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


# assignments through an attribute of a Scalar (value) or of an A^- vector
# (x, y), in place or augmented, and list mutators called on x or y
MUTATIONS = [
    re.compile(r"\.value\s*(?:[-+*/%&|^]|//|\*\*)?=(?!=)"),
    re.compile(r"\.[xy]\s*\[[^\]]*\]\s*(?:[-+*/%&|^]|//|\*\*)?=(?!=)"),
    re.compile(r"\.[xy]\s*(?:[-+*/%&|^]|//|\*\*)?=(?!=)"),
    re.compile(r"\.[xy]\.(?:append|extend|insert|pop|remove|sort|reverse|clear)\("),
    re.compile(r"setattr\("),
]
# Scalar's constructor, and RhoQ8Elem's cover element (named x); an A^-
# vector's x and y are read-only views of its element
CONSTRUCTOR_LINES = {
    ("exactfield.py", "self.value = value"),
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
    ints, one = field.ints(values)
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
    ints, den = QQ.ints(values)
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
    assert QQ.ints([Fraction(1, 6), -2, Fraction(3, 4)]) == ([2, -24, 9], 12)
    assert QQ.ints([]) == ([], 1)
    assert F5.ints([7, -1, 0]) == ([2, 4, 0], 1)
    assert F5.scalars([1, 2], 3) == [F5(2), F5(4)]      # 3^-1 = 2 mod 5
    assert QQ.scalars([4, -6], -8) == [QQ("-1/2"), QQ("3/4")]
    with pytest.raises(DivisionByZero):
        F5.scalars([1], 10)
    with pytest.raises(DivisionByZero):
        QQ.scalars([1], 0)
