"""Spin and Gspin constructions in dimensions 1-4.

Dimension 2: the norm form of an etale quadratic algebra E, acted on by
E^x via z -> g z g^(-rho).  Dimension 3: the traceless quaternions B_0
acted on by B^x via u -> g u bar(g) / N(g).  Dimension 4: the unitary
anti-invariants (B_E)^- = E_0 + B_0 acted on by the norm-in-F subgroup of
(B_E)^x.  Each model exposes coordinates so the quadforms machinery
(reflections, Cartan-Dieudonne, spinor norm) applies verbatim.
"""

from __future__ import annotations



from .algebras import EQElem, EtaleQuad, QuatAlg, QuatElem
from .errors import (
    NonInvertible,
    NormMismatch,
    NormNotInBaseField,
    NotSpecialOrthogonal,
)
from .exactfield import FieldDesc, Scalar, SquareClass, square_class
from .linalg import Mat
from .quadforms import Isometry, QuadSpace, cartan_dieudonne


def isometry_from_images(space: QuadSpace, cols, check: bool = True) -> Isometry:
    """Isometry whose j-th column is the image of the j-th basis vector."""
    m = Mat(space.field, [[cols[j][i] for j in range(space.dim)]
                          for i in range(space.dim)])
    return Isometry(space, m, check=check)


# ---------------------------------------------------------------------------
# dimension 2
# ---------------------------------------------------------------------------

class Dim2Model:
    """E with the norm form, in the F-basis (1, gen0)."""

    def __init__(self, e: EtaleQuad):
        self.E = e
        self.field = e.field
        h = e.gen0()
        # |1|^2 = 1, |h|^2 = N(h) = -h^2
        self.h_sq = (h * h).scalar_part()
        self.space = QuadSpace.diagonal(self.field, [self.field(1), -self.h_sq])

    def to_vec(self, z: EQElem):
        return list(z.coords())

    def from_vec(self, v) -> EQElem:
        one, h = self.E.one(), self.E.gen0()
        return one * v[0] + h * v[1]

    def act_on(self, g: EQElem, z: EQElem) -> EQElem:
        """z -> g z g^(-rho)."""
        if g.norm().is_zero():
            raise NonInvertible("g must be invertible")
        return g * z * g.conj().inverse()

    def act(self, g: EQElem) -> Isometry:
        cols = [self.to_vec(self.act_on(g, self.from_vec(self.space.basis_vector(i))))
                for i in range(2)]
        return isometry_from_images(self.space, cols)

    def rho_isometry(self) -> Isometry:
        cols = [self.to_vec(self.from_vec(self.space.basis_vector(i)).conj())
                for i in range(2)]
        return isometry_from_images(self.space, cols)

    def reflection_on(self, g: EQElem, z: EQElem, h: EQElem = None) -> EQElem:
        """z -> (gh) z^rho (gh)^(-rho), the reflection inverting g."""
        if g.norm().is_zero():
            raise NonInvertible("mirror must be anisotropic")
        h = h if h is not None else self.E.gen0()
        gh = g * h
        return gh * z.conj() * gh.conj().inverse()

    def reflection(self, g: EQElem, h: EQElem = None) -> Isometry:
        cols = [self.to_vec(self.reflection_on(g, self.from_vec(self.space.basis_vector(i)), h))
                for i in range(2)]
        return isometry_from_images(self.space, cols)

    def spinor_of_norm_one(self, u: EQElem) -> SquareClass:
        """Spinor norm of multiplication by u in E^1.

        N(1 + u) for u != -1.  At u = -1 (the map -Id) the value is the
        determinant class -d: the product of the mirror norms 1 and -d of
        an orthogonal basis.  (This equals the discriminant d only when
        -1 is a square.)
        """
        minus_one = -self.E.one()
        if u == minus_one:
            return square_class(-self.h_sq)
        return square_class((self.E.one() + u).norm())


# ---------------------------------------------------------------------------
# dimension 3
# ---------------------------------------------------------------------------

class Dim3Model:
    """B_0 with the reduced norm, basis (i, j, ij)."""

    def __init__(self, b: QuatAlg):
        self.B = b
        self.field = b.ring
        self.space = b.traceless_space()

    def to_vec(self, u: QuatElem):
        if not u.is_traceless():
            raise ValueError("element is not traceless")
        return list(u.traceless_coords())

    def from_vec(self, v) -> QuatElem:
        return self.B.elem([self.field.zero()] + list(v))

    def act_on(self, g: QuatElem, u: QuatElem) -> QuatElem:
        n = g.norm()
        if n.is_zero():
            raise NonInvertible("g must be invertible")
        return (g * u * g.bar()).scale(n.inverse())

    def act(self, g: QuatElem) -> Isometry:
        cols = [self.to_vec(self.act_on(g, self.from_vec(self.space.basis_vector(i))))
                for i in range(3)]
        return isometry_from_images(self.space, cols)

    def reflection_on(self, g: QuatElem, u: QuatElem) -> QuatElem:
        return -self.act_on(g, u)

    def reflection(self, g: QuatElem) -> Isometry:
        cols = [self.to_vec(self.reflection_on(g, self.from_vec(self.space.basis_vector(i))))
                for i in range(3)]
        return isometry_from_images(self.space, cols)

    def lift(self, t: Isometry) -> QuatElem:
        """g in B^x with act(g) = t; product of paired CDT mirrors."""
        if t.det() != self.field(1):
            raise NotSpecialOrthogonal("determinant is not 1")
        mirrors = cartan_dieudonne(t)
        if len(mirrors) % 2 == 1:
            raise NotSpecialOrthogonal("odd factorization of a rotation")
        g = self.B.one()
        for v in mirrors:
            g = g * self.from_vec(v)
        return g


# ---------------------------------------------------------------------------
# dimension 4
# ---------------------------------------------------------------------------

class Dim4Model:
    """(B_E)^- = E_0 + B_0 with |x|^2 = N(x), basis (h, i, j, ij)."""

    def __init__(self, b: QuatAlg, e: EtaleQuad):
        if b.ring != e.field:
            raise ValueError("B and E over different fields")
        self.B = b
        self.E = e
        self.field = b.ring
        self.BE = QuatAlg(e, e.from_scalar(b.alpha), e.from_scalar(b.beta))
        h = e.gen0()
        self.h_sq = (h * h).scalar_part()
        self.space = QuadSpace.diagonal(
            self.field, [self.h_sq, -b.alpha, -b.beta, b.alpha * b.beta])

    def embed_base(self, x: QuatElem) -> QuatElem:
        """B -> B_E coefficientwise."""
        return x.map_coeffs(self.E.from_scalar, self.BE)

    def rho(self, x: QuatElem) -> QuatElem:
        return x.map_coeffs(lambda c: c.conj())

    def in_minus(self, x: QuatElem) -> bool:
        c0 = x.c[0]
        return c0.trace().is_zero() and all(c.conj() == c for c in x.c[1:])

    def to_vec(self, x: QuatElem):
        if not self.in_minus(x):
            raise ValueError("element is not in (B_E)^-")
        return [x.c[0].coords()[1]] + [c.coords()[0] for c in x.c[1:]]

    def from_vec(self, v) -> QuatElem:
        h = self.E.gen0()
        coeffs = [h * v[0]] + [self.E.from_scalar(c) for c in v[1:]]
        return QuatElem(self.BE, coeffs)

    def norm_in_base(self, g: QuatElem) -> Scalar:
        n = g.norm()
        if not n.is_scalar():
            raise NormNotInBaseField("N(g) is not in F")
        return n.scalar_part()

    def act_on(self, g: QuatElem, x: QuatElem) -> QuatElem:
        n = self.norm_in_base(g)
        if n.is_zero():
            raise NonInvertible("g must be invertible")
        return (g * x * self.rho(g.bar())).scale(self.E.from_scalar(n.inverse()))

    def act(self, g: QuatElem) -> Isometry:
        cols = [self.to_vec(self.act_on(g, self.from_vec(self.space.basis_vector(i))))
                for i in range(4)]
        return isometry_from_images(self.space, cols)

    def iota_isometry(self) -> Isometry:
        cols = [self.to_vec(self.from_vec(self.space.basis_vector(i)).bar())
                for i in range(4)]
        return isometry_from_images(self.space, cols)

    def reflection_on(self, g: QuatElem, x: QuatElem) -> QuatElem:
        """x -> g bar(x) bar(g)^rho / N(g), the reflection inverting g."""
        return self.act_on(g, x.bar())

    def reflection(self, g: QuatElem) -> Isometry:
        cols = [self.to_vec(self.reflection_on(g, self.from_vec(self.space.basis_vector(i))))
                for i in range(4)]
        return isometry_from_images(self.space, cols)

    def lift(self, t: Isometry) -> QuatElem:
        """g with act(g) = t, assembled as g1 g2^rho g3 g4^rho ..."""
        if t.det() != self.field(1):
            raise NotSpecialOrthogonal("determinant is not 1")
        mirrors = cartan_dieudonne(t)
        if len(mirrors) % 2 == 1:
            raise NotSpecialOrthogonal("odd factorization of a rotation")
        g = self.BE.one()
        for idx, v in enumerate(mirrors):
            m = self.from_vec(v)
            g = g * (self.rho(m) if idx % 2 == 1 else m)
        return g


class Dim4D1Model:
    """B itself with the reduced norm (discriminant 1), basis (1, i, j, ij)."""

    def __init__(self, b: QuatAlg):
        self.B = b
        self.field = b.ring
        self.space = b.norm_form()

    def to_vec(self, x: QuatElem):
        return list(x.c)

    def from_vec(self, v) -> QuatElem:
        return self.B.elem(v)

    def act_on(self, g: QuatElem, h: QuatElem, x: QuatElem) -> QuatElem:
        if g.norm() != h.norm():
            raise NormMismatch("pair must have equal reduced norms")
        return g * x * h.inverse()

    def act(self, g: QuatElem, h: QuatElem) -> Isometry:
        cols = [self.to_vec(self.act_on(g, h, self.from_vec(self.space.basis_vector(i))))
                for i in range(4)]
        return isometry_from_images(self.space, cols)


# ---------------------------------------------------------------------------
# split 2x2 pictures (alternative representations)
# ---------------------------------------------------------------------------

def mat2_of_split_quat(x: QuatElem) -> Mat:
    """The (1,1/F)-normalized matrix picture: i -> diag(1,-1), j -> offdiag."""
    b = x.algebra
    one = b.ring(1) if isinstance(b.ring, FieldDesc) else b.ring.one()
    if b.alpha != one or b.beta != one:
        raise ValueError("expects the (1,1/F) normalized split algebra")
    a, bb, c, d = x.c
    return Mat(b.ring, [[a + bb, c + d], [c - d, a - bb]])


def split_quat_of_mat2(b: QuatAlg, m: Mat) -> QuatElem:
    two_inv = b.ring(2).inverse()
    a = (m[0, 0] + m[1, 1]) * two_inv
    bb = (m[0, 0] - m[1, 1]) * two_inv
    c = (m[0, 1] + m[1, 0]) * two_inv
    d = (m[0, 1] - m[1, 0]) * two_inv
    return b.elem([a, bb, c, d])


def r2_matrix(field: FieldDesc) -> Mat:
    """The 2x2 matrix ((0,1),(-1,0)) used for all Sadjt-style twists."""
    return Mat(field, [[field(0), field(1)], [field(-1), field(0)]])


def alt3_symmetric_image(x: QuatElem) -> Mat:
    """Traceless split quaternion -> symmetric matrix: M(x) * ((0,1),(-1,0))."""
    m = mat2_of_split_quat(x)
    return m * r2_matrix(x.algebra.ring)


def alt3_action(g: Mat, sym: Mat) -> Mat:
    """X -> g X g^t / det g on symmetric matrices."""
    d = g.det()
    if d.is_zero():
        raise NonInvertible("g must be invertible")
    return (g * sym * g.T) * d.inverse()


def alt4_action(g: Mat, h: Mat, m: Mat) -> Mat:
    """(g, h): M -> g M h^t / common determinant (split-E dim-4 picture)."""
    if g.det() != h.det():
        raise NormMismatch("pair must have equal determinants")
    return (g * m * h.T) * g.det().inverse()
