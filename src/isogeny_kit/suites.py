"""Named verification suites, one per lemma-level claim.

Each suite draws its randomness from a stream derived from (seed, suite
name), runs the configured number of trials, and reports counterexamples
verbatim; identical configurations give identical reports.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional

from . import algebras, spin_eight, spin_six
from .algebras import (
    AminusVector,
    BiquatAlg,
    EtaleQuad,
    QuatAlg,
    albert_norm,
    albert_pair,
    quat_to_mat2_tower,
    reduced_norm_A,
    reduced_norm_A_oracle,
    reduced_norm_M2B,
)
from .errors import DecompositionFailed, SingularReparam, UnknownSuite
from .exactfield import FieldDesc, Scalar, is_square, parse_field, square_class, sqrt_exact
from .linalg import Mat, berkowitz_det
from .quadforms import (
    QuadSpace,
    cartan_dieudonne,
    complement,
    compose_reflections,
    discriminant,
    find_isotropic,
    random_isometry,
    reflect,
    spinor_norm,
    to_ambient,
)
from .spin_low import (
    Dim2Model,
    Dim3Model,
    Dim4D1Model,
    Dim4Model,
    alt3_action,
    alt3_symmetric_image,
    alt4_action,
    isometry_of_map,
    mat2_of_split_quat,
    r2_matrix,
    split_quat_of_mat2,
)
from .towers import QuadTower


@dataclass
class RunConfig:
    seed: int = 0
    field: FieldDesc = dc_field(default_factory=lambda: FieldDesc(5))
    trials: int = 100

    @classmethod
    def from_args(cls, field_spec: str = "p=5", seed: int = 0,
                  trials: int = 100) -> "RunConfig":
        return cls(seed=seed, field=parse_field(field_spec), trials=trials)


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: List[dict]

    @property
    def passed(self) -> bool:
        return not self.failures


def suite_rng(config: RunConfig, name: str) -> random.Random:
    h = hashlib.sha256(("%d|%s" % (config.seed, name)).encode()).hexdigest()
    return random.Random(int(h, 16))


class _Recorder:
    def __init__(self):
        self.cases = 0
        self.failures = []

    def check(self, ok: bool, label: str, **data):
        self.cases += 1
        if not ok:
            self.failures.append({"case": label,
                                  **{k: repr(v) for k, v in data.items()}})


def _run(name, config, body) -> SuiteResult:
    rec = _Recorder()
    body(rec, suite_rng(config, name), config)
    return SuiteResult(name, rec.cases, rec.failures)


# ---------------------------------------------------------------------------
# shared sample builders
# ---------------------------------------------------------------------------

def field_elems(field: FieldDesc, rng: random.Random, n: int, height: int = 4):
    if field.p is not None:
        return [field(rng.randrange(field.p)) for _ in range(n)]
    return [field(rng.randint(-height, height)) for _ in range(n)]


def default_symbols(field: FieldDesc):
    """Two bi-quaternion symbol pairs per field."""
    if field.p is not None:
        n = field.least_nonresidue()
        return [((n, field(-1)), (field(1), field(1))),
                ((n, n), (field(1), n))]
    return [((field(-1), field(-1)), (field(2), field(3))),
            ((field(2), field(3)), (field(-1), field(5)))]


def biquat_instances(field: FieldDesc) -> List[BiquatAlg]:
    out = []
    for (a, b), (c, d) in default_symbols(field):
        out.append(BiquatAlg(QuatAlg(field, a, b), QuatAlg(field, c, d)))
    return out


def nonsquare_of(field: FieldDesc) -> Scalar:
    if field.p is not None:
        return field.least_nonresidue()
    return field(2)


def random_aminus(algebra: BiquatAlg, rng: random.Random, height: int = 4):
    f = algebra.ring
    return algebra.aminus(field_elems(f, rng, 3, height), field_elems(f, rng, 3, height))


def random_aminus_aniso(algebra, rng, height: int = 4):
    while True:
        u = random_aminus(algebra, rng, height)
        if not albert_norm(u).is_zero():
            return u


def random_biquat(algebra: BiquatAlg, rng: random.Random, height: int = 3):
    return algebra.elem(field_elems(algebra.ring, rng, 16, height))


def random_invertible_biquat(algebra, rng, height: int = 3):
    while True:
        g = random_biquat(algebra, rng, height)
        if not reduced_norm_A(g).is_zero():
            return g


def random_quat(b: QuatAlg, rng: random.Random, height: int = 4):
    return b.elem(field_elems(b.ring, rng, 4, height))


def random_invertible_quat(b, rng, height: int = 4):
    while True:
        x = random_quat(b, rng, height)
        if not x.norm().is_zero():
            return x


def random_cover(algebra: BiquatAlg, rng: random.Random, k: int = 3):
    """Random covered GSp element: product of unipotents and diagonals."""
    field = algebra.ring
    x = spin_eight.cover_identity(algebra)
    zero_v = spin_eight._zero_aminus(algebra)
    for _ in range(k):
        kind = rng.randrange(3)
        if kind == 0:
            gf = spin_eight.GenForm(algebra, random_aminus(algebra, rng),
                                    algebra.one(), zero_v, zero_v, field(1))
            y = spin_eight.CoveredGSpElem(gf, field(1), check=False)
        elif kind == 1:
            gf = spin_eight.GenForm(algebra, zero_v, algebra.one(), zero_v,
                                    random_aminus(algebra, rng), field(1))
            y = spin_eight.CoveredGSpElem(gf, field(1), check=False)
        else:
            while True:
                a = random_biquat(algebra, rng)
                na = reduced_norm_A(a)
                if not na.is_zero() and is_square(na):
                    break
            t = sqrt_exact(na)
            m = field(1)
            if field.p is not None:
                m = field(rng.randrange(1, field.p))
            gf = spin_eight.GenForm(algebra, zero_v, a, zero_v, zero_v, m)
            y = spin_eight.CoveredGSpElem(gf, t, check=False)
        x = spin_eight.cover_mul(x, y)
    return x


def _anisotropic_q(algebra: BiquatAlg):
    """The fixed anisotropic Q of the dimension-5 and twisted suites."""
    field = algebra.ring
    q = algebra.aminus([field.zero()] * 3, [field(1), field(1), field.zero()])
    if albert_norm(q).is_zero():
        q = algebra.aminus([field.zero()] * 3, [field(1), field.zero(), field.zero()])
    return q


def twisted_instance(field: FieldDesc, which: int = 0):
    algebra = biquat_instances(field)[which]
    e = EtaleQuad(field, nonsquare_of(field))
    return spin_six.TwistedSpace(algebra, e, _anisotropic_q(algebra))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_BEpol(rec, rng, config):
    f3 = FieldDesc(3)
    for e in (EtaleQuad(f3), EtaleQuad(f3, f3.least_nonresidue())):
        for z in e.elements():
            for w in e.elements():
                lhs = (z + w).norm()
                rhs = z.norm() + w.norm() + (z * w.conj()).trace()
                rec.check(lhs == rhs, "E-polarization", z=z, w=w)
    field = config.field
    for (a, b), _ in default_symbols(field):
        bb = QuatAlg(field, a, b)
        for _ in range(config.trials):
            x, y = random_quat(bb, rng), random_quat(bb, rng)
            lhs = (x + y).norm()
            rhs = x.norm() + y.norm() + (x * y.bar()).trace()
            rec.check(lhs == rhs, "B-polarization", x=x, y=y)


def suite_Sadjt(rec, rng, config):
    field = config.field
    s = Mat(field, [[field(0), field(-1)], [field(1), field(0)]])
    s_inv = s.inverse()
    mats = [Mat(field, [[field(a), field(b)], [field(c), field(d)]])
            for a, b, c, d in itertools.product((0, 1), repeat=4)]
    for _ in range(config.trials):
        mats.append(Mat(field, [field_elems(field, rng, 2),
                                field_elems(field, rng, 2)]))
    for g in mats:
        gbar = Mat(field, [[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])
        rec.check(s * g.T * s_inv == gbar, "Sadjt", g=g.rows)


def suite_NAexp(rec, rng, config):
    field = config.field
    for (a, b), _ in default_symbols(field):
        bb = QuatAlg(field, a, b)
        tower = QuadTower(field, [bb.alpha])
        lift = tower.from_scalar
        delta = lift(bb.beta)
        for _ in range(config.trials):
            m = [[random_quat(bb, rng, 3) for _ in range(2)] for _ in range(2)]
            val = reduced_norm_M2B(m)
            rows = []
            blocks = [[quat_to_mat2_tower(m[i][j], tower, 0, delta, lift)
                       for j in range(2)] for i in range(2)]
            for i in range(2):
                for r in range(2):
                    rows.append(list(blocks[i][0].rows[r]) + list(blocks[i][1].rows[r]))
            det = berkowitz_det(Mat(tower, rows))
            rec.check(det.is_scalar() and det.scalar_part() == val,
                      "NAexp-vs-det", m=[[x.c for x in row] for row in m])


def suite_NAvn2(rec, rng, config):
    f3 = FieldDesc(3)
    for algebra in biquat_instances(f3):
        for coords in itertools.product(range(3), repeat=6):
            u = algebra.aminus(
                [f3(c) for c in coords[:3]], [f3(c) for c in coords[3:]])
            n = albert_norm(u)
            rec.check(reduced_norm_A(u.embed()) == n * n, "NAvn2-exhaustive",
                      u=coords)
    field = config.field
    for algebra in biquat_instances(field):
        for _ in range(config.trials):
            u = random_aminus(algebra, rng)
            n = albert_norm(u)
            ue = u.embed()
            rec.check(reduced_norm_A(ue) == n * n, "NAvn2", u=u)
            rec.check(reduced_norm_A(ue) == reduced_norm_A_oracle(ue),
                      "display-vs-oracle", u=u)


def suite_NAFg(rec, rng, config):
    field = config.field
    for algebra in biquat_instances(field):
        for _ in range(config.trials):
            g = random_invertible_biquat(algebra, rng)
            u = random_aminus(algebra, rng)
            w = (g * u.embed() * g.bar()).to_aminus()
            rec.check(albert_norm(w) == reduced_norm_A(g) * albert_norm(u),
                      "norm-multiplier", g=g, u=u)
    # scalar-kernel: pairs (g, h) with g u = u h for all u in A^- form the
    # diagonal scalars; solved as a linear system over F_3
    f3 = FieldDesc(3)
    algebra = biquat_instances(f3)[0]
    basis_u = [algebra.basis_elem(s, 0) for s in (1, 2, 3)] + \
              [algebra.basis_elem(0, t) for t in (1, 2, 3)]
    rows = []
    for u in basis_u:
        lu = u.mult_matrix()   # x -> u * x
        ru_cols = []
        for idx in range(16):
            coords = [f3.zero()] * 16
            coords[idx] = f3.one()
            ru_cols.append((algebras.BiquatElem(algebra, coords) * u).c)
        ru = Mat(f3, ru_cols).T
        # g u - u h = 0: [R_u | -L_u] (g; h) = 0
        for i in range(16):
            rows.append(list(ru.rows[i]) + [-x for x in lu.rows[i]])
    m = Mat(f3, rows)
    rank = m.rank()
    rec.check(rank == 31, "scalar-kernel-dimension", rank=rank)


def suite_AxA_rel(rec, rng, config):
    field = config.field
    for algebra in biquat_instances(field):
        for _ in range(config.trials):
            g = random_invertible_biquat(algebra, rng)
            u = random_aminus(algebra, rng)
            rec.check(spin_six.axa_rel_check(g, u), "AxA-rel", g=g, u=u)


def suite_normsq(rec, rng, config):
    field = config.field
    for algebra in biquat_instances(field):
        for _ in range(config.trials):
            eta = random_aminus(algebra, rng)
            om = random_aminus(algebra, rng)
            rec.check(spin_eight.normsq_check(eta, om), "normsq", eta=eta, omega=om)
        # isotropic omega cases need their own samples
        tried = 0
        while tried < max(5, config.trials // 20):
            om = random_aminus(algebra, rng)
            if not albert_norm(om).is_zero():
                continue
            eta = random_aminus(algebra, rng)
            rec.check(spin_eight.normsq_check(eta, om), "normsq-isotropic",
                      eta=eta, omega=om)
            tried += 1


def suite_GSphom(rec, rng, config):
    field = config.field
    algebra = biquat_instances(field)[0]
    n_pairs = max(1, config.trials)
    for _ in range(n_pairs):
        x = random_cover(algebra, rng)
        g = x.as_gsp()
        cls1 = spin_eight.phi(g)
        # a second decomposition at a different v
        gf = spin_eight.gsp_decompose(g)
        moved = False
        for v in spin_eight._shear_candidates(algebra)[:8]:
            try:
                gf2, _ = spin_eight.comp_reparam(gf, v)
            except SingularReparam:
                continue
            cls2 = square_class(reduced_norm_A(gf2.a))
            rec.check(cls1 == cls2, "phi-decomposition-independent", v=v)
            moved = True
            break
        if not moved:
            rec.check(True, "phi-single-decomposition")
        y = random_cover(algebra, rng)
        prod = spin_eight.gsp_membership(x.matrix() * y.matrix())
        rec.check(prod is not None
                  and spin_eight.phi(prod) == cls1 * spin_eight.phi(y.as_gsp()),
                  "phi-multiplicative")


def suite_GSppsi(rec, rng, config):
    field = config.field
    algebra = biquat_instances(field)[0]
    for _ in range(config.trials):
        x = random_cover(algebra, rng)
        y = random_cover(algebra, rng)
        rec.check(spin_eight.psi(spin_eight.psi(x)) == x, "psi-order-2", x=x)
        rec.check(spin_eight.psi(spin_eight.cover_mul(x, y))
                  == spin_eight.cover_mul(spin_eight.psi(x), spin_eight.psi(y)),
                  "psi-multiplicative")
        rec.check(spin_eight.psi(x).gf.m == x.gf.m, "psi-multiplier-commutes")


def suite_GSpprod(rec, rng, config):
    """Closed-form product parameters against the literal matrix product."""
    field = config.field
    algebra = biquat_instances(field)[0]
    for _ in range(config.trials):
        x = random_cover(algebra, rng)
        y = random_cover(algebra, rng)
        prod_mat = x.matrix() * y.matrix()
        target = spin_eight.GSpElem(prod_mat, x.gf.m * y.gf.m)
        try:
            gf_prod = spin_eight.gsp_decompose(target, v_constraints=[x.matrix()])
        except DecompositionFailed as exc:
            rec.check(False, "GSpprod-decomposition-failed", error=exc)
            continue
        v = gf_prod.v
        x2 = x.reparam(v)
        a, alpha, beta, m = x2.gf.a, x2.gf.alpha, x2.gf.beta, x2.gf.m
        e, z, kappa, nu, n = y.gf.a, y.gf.v, y.gf.alpha, y.gf.beta, y.gf.m
        az = alpha + z
        dd = spin_eight.D(az, nu)
        x_blk = a * (algebra.one() + az.embed() * nu.embed()) * e
        rec.check(x_blk == gf_prod.a, "GSpprod-x", dd=dd)
        if not dd.is_zero():
            dd_inv = dd.inverse()
            mid_xi = (az + algebras.theta(nu).scale(albert_norm(az))).scale(dd_inv)
            xi = kappa.embed() + (e.inverse() * mid_xi.embed()
                                  * e.bar().inverse()).scale(n)
            mid_ze = (nu + algebras.theta(az).scale(albert_norm(nu))).scale(dd_inv)
            zeta = beta.embed() + (a.bar().inverse() * mid_ze.embed()
                                   * a.inverse()).scale(m)
            rec.check(xi == gf_prod.alpha.embed(), "GSpprod-xi")
            rec.check(zeta == gf_prod.beta.embed(), "GSpprod-zeta")


def suite_comp(rec, rng, config):
    field = config.field
    algebra = biquat_instances(field)[0]
    for _ in range(config.trials):
        x = random_cover(algebra, rng)
        gf = x.gf
        w = random_aminus(algebra, rng)
        try:
            gf2, _ = spin_eight.comp_reparam(gf, w)
        except SingularReparam:
            rec.check(True, "comp-singular-skipped")
            continue
        rec.check(gf2.assemble() == gf.assemble(), "comp-assemble", w=w)


def suite_vnorm8(rec, rng, config):
    field = config.field
    algebra = biquat_instances(field)[0]
    for _ in range(config.trials):
        u = spin_eight.Vec8(algebra, random_aminus(algebra, rng),
                            field_elems(field, rng, 1)[0],
                            field_elems(field, rng, 1)[0])
        n = u.vnorm()
        prod = u.matrix() * u.hat_psi().matrix()
        rec.check(prod == spin_eight.M2A.identity(algebra).scale(n),
                  "U-hatpsiU", u=u)
        if not n.is_zero():
            mem = spin_eight.gsp_membership(u.matrix())
            rec.check(mem is not None and mem.m == n, "vec8-multiplier", u=u)
        v = spin_eight.Vec8(algebra, random_aminus(algebra, rng),
                            field_elems(field, rng, 1)[0],
                            field_elems(field, rng, 1)[0])
        space = spin_eight.vec8_space(algebra)
        pr = space.pairing(u.coords(), v.coords())
        lhs = u.matrix() * v.hat_psi().matrix() + v.matrix() * u.hat_psi().matrix()
        rec.check(lhs == spin_eight.M2A.identity(algebra).scale(pr + pr),
                  "vec8-pairing", u=u, v=v)


def suite_GSppresHA(rec, rng, config):
    field = config.field
    algebra = biquat_instances(field)[0]
    space = spin_eight.vec8_space(algebra)
    for _ in range(config.trials):
        x = random_cover(algebra, rng)
        u = spin_eight.vec8_from_coords(
            algebra, [field_elems(field, rng, 1)[0] for _ in range(8)])
        img = spin_eight.act8(x, u)
        rec.check(img.vnorm() == u.vnorm(), "act8-norm", x=x, u=u)
    # generator formulas
    for _ in range(max(5, config.trials // 10)):
        v = random_aminus(algebra, rng)
        u = spin_eight.vec8_from_coords(
            algebra, [field_elems(field, rng, 1)[0] for _ in range(8)])
        zero_v = spin_eight._zero_aminus(algebra)
        gf = spin_eight.GenForm(algebra, v, algebra.one(), zero_v, zero_v, field(1))
        x = spin_eight.CoveredGSpElem(gf, field(1), check=False)
        img = spin_eight.act8(x, u)
        rec.check(img.q == u.q and img.u == u.u + v.scale(u.q)
                  and img.p == u.p + albert_pair(u.u, v) * field(2)
                  + u.q * albert_norm(v),
                  "act8-unipotent-formula", v=v)
        a = random_invertible_biquat(algebra, rng)
        na = reduced_norm_A(a)
        if not is_square(na):
            continue
        t = sqrt_exact(na)
        m = field_elems(field, rng, 1)[0]
        if m.is_zero():
            m = field(1)
        gfd = spin_eight.GenForm(algebra, zero_v, a, zero_v, zero_v, m)
        xd = spin_eight.CoveredGSpElem(gfd, t, check=False)
        img = spin_eight.act8(xd, u)
        exp_u = (a * u.u.embed() * a.bar()).scale(t.inverse()).to_aminus()
        rec.check(img.p == t * u.p / m and img.q == m * u.q / t
                  and img.u == exp_u, "act8-diagonal-formula")


def suite_hpsiGSprel(rec, rng, config):
    field = config.field
    algebra = biquat_instances(field)[0]
    for _ in range(config.trials):
        x = random_cover(algebra, rng)
        u = spin_eight.vec8_from_coords(
            algebra, [field_elems(field, rng, 1)[0] for _ in range(8)])
        rec.check(spin_eight.hpsi_gsp_relation(x, u), "hpsiGSprel", x=x, u=u)


def _model_mirror(model):
    """(space, shown, got) for a spin_low model with its own `reflection`."""
    return model.space, list, lambda c: model.reflection(model.from_vec(c))


def _albert_mirror(algebra: BiquatAlg):
    space = algebra.albert_space()
    return space, algebra.aminus_of, lambda u: isometry_of_map(
        space, spin_six.ref6d1_map(u), AminusVector.coords, algebra.aminus_of)


def _ref6gen_mirror(field: FieldDesc):
    ts = twisted_instance(field)
    return ts.space, list, lambda c: spin_six.ref6gen_isometry(ts, ts.from_vec(c))


def _ref8id1_mirror(field: FieldDesc):
    algebra = biquat_instances(field)[0]
    space = spin_eight.vec8_space(algebra)
    vec8 = functools.partial(spin_eight.vec8_from_coords, algebra)

    def got(c):
        lift, _ = spin_eight.ref8_lift(vec8(c))
        return isometry_of_map(space, lambda u: spin_eight.ref8_apply(lift, u),
                               spin_eight.Vec8.coords, vec8)

    return space, list, got


def _ref8igen_mirror(field: FieldDesc):
    tw8 = spin_eight.Twisted8(twisted_instance(field))

    def got(c):
        lift = spin_eight.ref8igen_lift(tw8, tw8.from_coords(c))
        return isometry_of_map(tw8.space,
                               lambda v: spin_eight.ref8igen_apply(tw8, lift, v),
                               tw8.to_coords, tw8.from_coords)

    return tw8.space, list, got


# kind: (failure-data key, mirrors per instance from the trial count,
# instances over a field).  An instance is (space, shown, got): a mirror
# drawn as coordinates is recorded as shown(coords), and got(shown(coords))
# is the model's own reflection in it.
_REFLECTION_KINDS = {
    "ref2": ("g", lambda n: n // 2 + 1, lambda f: [
        _model_mirror(Dim2Model(EtaleQuad(f, d))) for d in (f(1), nonsquare_of(f))]),
    "ref3": ("g", lambda n: n // 2 + 1, lambda f: [
        _model_mirror(Dim3Model(QuatAlg(f, a, b))) for (a, b), _ in default_symbols(f)]),
    "ref4": ("g", lambda n: n // 4 + 1, lambda f: [
        _model_mirror(Dim4Model(QuatAlg(f, a, b), EtaleQuad(f, d)))
        for (a, b), _ in default_symbols(f) for d in (f(1), nonsquare_of(f))]),
    "ref6d1": ("u", lambda n: n // 2 + 1, lambda f: [
        _albert_mirror(algebra) for algebra in biquat_instances(f)]),
    "ref6gen": ("g", lambda n: n, lambda f: [_ref6gen_mirror(f)]),
    "ref8id1": ("u", lambda n: n, lambda f: [_ref8id1_mirror(f)]),
    "ref8igen": ("v", lambda n: n, lambda f: [_ref8igen_mirror(f)]),
}


def _reflection_suite(rec, rng, config, kind: str):
    """Each model's own reflection in random anisotropic mirrors against
    quadforms.reflect; an isotropic draw is drawn again."""
    field = config.field
    key, count, instances = _REFLECTION_KINDS[kind]
    for space, shown, got in instances(field):
        done = 0
        while done < count(config.trials):
            coords = field_elems(field, rng, space.dim)
            if space.vnorm(coords).is_zero():
                continue
            mirror = shown(coords)
            rec.check(got(mirror).matrix == reflect(space, coords).matrix,
                      kind, **{key: mirror})
            done += 1


def _mirror_value(space, mirrors):
    val = space.field(1)
    for v in mirrors:
        val = val * space.vnorm(v)
    return val


def _same_square_class(x, y) -> bool:
    """Exact class comparison without canonicalizing representatives."""
    return is_square(x / y)


def suite_CDT(rec, rng, config):
    field = config.field
    for dim in range(1, 9):
        entries = []
        while len(entries) < dim:
            e = field_elems(field, rng, 1)[0]
            if not e.is_zero():
                entries.append(e)
        space = QuadSpace.diagonal(field, entries)
        max_mirrors = None if field.p else dim
        for _ in range(max(2, config.trials // 8)):
            t = random_isometry(space, rng, height=1, max_mirrors=max_mirrors)
            mirrors = cartan_dieudonne(t)
            rec.check(len(mirrors) <= 2 * dim, "CDT-length", dim=dim)
            rec.check(compose_reflections(space, mirrors) == t,
                      "CDT-compose", dim=dim)
            sn1 = _mirror_value(space, mirrors)
            order = list(range(dim))
            rng.shuffle(order)
            mirrors2 = cartan_dieudonne(t, pivot_order=order)
            # square classes compared by the exact square test of ratios,
            # which avoids factoring large rational representatives
            rec.check(is_square(_mirror_value(space, mirrors2) / sn1),
                      "spinor-pivot-independent", dim=dim)
            s = random_isometry(space, rng, height=1, max_mirrors=max_mirrors)
            prod_val = _mirror_value(space, cartan_dieudonne(s * t))
            rec.check(is_square(prod_val / (_mirror_value(
                space, cartan_dieudonne(s)) * sn1)),
                "spinor-multiplicative", dim=dim)


def suite_dim12(rec, rng, config):
    field = config.field
    f3 = FieldDesc(3)
    for base in {f3, field if field.p is not None else f3}:
        for d in (base(1), base.least_nonresidue()):
            e = EtaleQuad(base, d)
            model = Dim2Model(e)
            ident = Mat.identity(base, 2)
            for g in e.units():
                trivial = model.act(g).matrix == ident
                rec.check(trivial == g.is_scalar(), "dim2-kernel", g=g)
            for u in e.norm_one_elements():
                mult = isometry_of_map(model.space, lambda z: u * z,
                                       model.to_vec, model.from_vec)
                rec.check(spinor_norm(mult) == model.spinor_of_norm_one(u),
                          "dim12-spinor-remark", u=u)


def suite_dim3(rec, rng, config):
    f3 = FieldDesc(3)
    n3 = f3.least_nonresidue()
    bb = QuatAlg(f3, n3, f3(-1))
    model = Dim3Model(bb)
    ident = Mat.identity(f3, 3)
    images = set()
    for g in bb.elements():
        if g.norm().is_zero():
            continue
        m = model.act(g)
        images.add(tuple(tuple(e.value for e in row) for row in m.matrix.rows))
        rec.check((m.matrix == ident) == all(c.is_zero() for c in g.c[1:]),
                  "dim3-kernel", g=g)
    from .smallfields import enumerate_isometries
    so = {tuple(tuple(e.value for e in row) for row in i.matrix.rows)
          for i in enumerate_isometries(model.space) if i.det() == f3(1)}
    rec.check(len(so) == 24, "SO(3,F3)-size", size=len(so))
    rec.check(images == so, "dim3-image-equals-SO")
    # lifts over the configured field
    field = config.field
    mm = None if field.p else 3
    for (a, b), _ in default_symbols(field):
        bq = QuatAlg(field, a, b)
        mod = Dim3Model(bq)
        for _ in range(max(3, config.trials // 10)):
            t = random_isometry(mod.space, rng, special=True, height=1,
                                max_mirrors=mm)
            g = mod.lift(t)
            rec.check(mod.act(g).matrix == t.matrix, "dim3-lift")
            if not g.norm().is_zero():
                rec.check(_same_square_class(
                    _mirror_value(mod.space, cartan_dieudonne(t)), g.norm()),
                    "dim3-spinor-is-norm")


def suite_dim4(rec, rng, config):
    field = config.field
    for (a, b), _ in default_symbols(field):
        bq = QuatAlg(field, a, b)
        for d in (field(1), nonsquare_of(field)):
            model = Dim4Model(bq, EtaleQuad(field, d))
            ident = Mat.identity(field, 4)
            # E0 scalars act as -Id
            h = model.E.gen0()
            rec.check(model.act(model.BE.from_scalar(h)).matrix
                      == ident * field(-1), "dim4-E0-minus-id")
            mm = None if field.p else 4
            for _ in range(max(3, config.trials // 10)):
                t = random_isometry(model.space, rng, special=True, height=1,
                                    max_mirrors=mm)
                g = model.lift(t)
                rec.check(model.act(g).matrix == t.matrix, "dim4-lift")
                n = model.norm_in_base(g)
                if not n.is_zero():
                    rec.check(_same_square_class(
                        _mirror_value(model.space, cartan_dieudonne(t)), n),
                        "dim4-spinor-is-norm")


def suite_dim4d1(rec, rng, config):
    field = config.field
    bq = QuatAlg(field, *default_symbols(field)[0][0])
    model = Dim4D1Model(bq)
    for _ in range(config.trials):
        g = random_invertible_quat(bq, rng)
        h = random_invertible_quat(bq, rng)
        if g.norm() != h.norm():
            # rescale h to match norms when the ratio is a square
            r = sqrt_exact(g.norm() / h.norm())
            if r is None:
                continue
            h = h.scale(r)
        iso = model.act(g, h)
        rec.check(iso.is_valid(), "dim4d1-isometry")
        rec.check(model.act_on(g, g, bq.one()) == bq.one(), "dim4d1-conj-fixes-1")


def suite_alt34(rec, rng, config):
    field = config.field
    bq = QuatAlg(field, 1, 1)
    model = Dim3Model(bq)
    r2 = r2_matrix(field)
    for _ in range(config.trials):
        g = Mat(field, [field_elems(field, rng, 2), field_elems(field, rng, 2)])
        if g.det().is_zero():
            continue
        u = model.from_vec(field_elems(field, rng, 3))
        gq = split_quat_of_mat2(bq, g)
        act = model.act_on(gq, u)
        lhs = alt3_symmetric_image(act)
        rhs = alt3_action(g, alt3_symmetric_image(u))
        rec.check(lhs == rhs, "alt3-intertwines", g=g.rows)
        rec.check(lhs.T == lhs, "alt3-symmetric")
        # alt4: (g,h) on M_2(F) with equal determinants
        h = Mat(field, [field_elems(field, rng, 2), field_elems(field, rng, 2)])
        if h.det() != g.det() or h.det().is_zero():
            continue
        hq = split_quat_of_mat2(bq, h)
        x = random_quat(bq, rng)
        d4 = Dim4D1Model(bq)
        img = d4.act_on(gq, hq, x)
        lhs4 = mat2_of_split_quat(img) * r2
        rhs4 = alt4_action(g, h, mat2_of_split_quat(x) * r2)
        rec.check(lhs4 == rhs4, "alt4-intertwines")


def suite_dim6d1(rec, rng, config):
    field = config.field
    for algebra in biquat_instances(field):
        space = algebra.albert_space()
        mm = None if field.p else 6
        for _ in range(max(3, config.trials // 10)):
            t = random_isometry(space, rng, special=True, height=1,
                                max_mirrors=mm)
            x = spin_six.dim6d1_lift(t, algebra)
            rec.check(spin_six.cover_act_isometry(x, space).matrix == t.matrix,
                      "dim6d1-lift")
            rec.check(_same_square_class(
                _mirror_value(space, cartan_dieudonne(t)), x.t),
                "dim6d1-spinor-is-t")
        minus = spin_six.CoveredElem(algebra.one(), field(-1), check=False)
        rec.check(spin_six.cover_act_isometry(minus, space).matrix
                  == Mat.identity(field, 6) * field(-1), "(1,-1)-is-minus-id")


def suite_dim5(rec, rng, config):
    field = config.field
    algebra = biquat_instances(field)[0]
    space = algebra.albert_space()
    q = _anisotropic_q(algebra)
    perp = complement(space, q.coords())
    for _ in range(config.trials):
        # SO(A^-) element fixing q: product of two reflections in q-perp
        mirrors = []
        while len(mirrors) < 2:
            v = to_ambient([field_elems(field, rng, 1)[0] for _ in perp], perp)
            if not space.vnorm(v).is_zero():
                mirrors.append(v)
        t = compose_reflections(space, mirrors)
        x = spin_six.dim6d1_lift(t, algebra)
        st = spin_six.dim5_stabilizer(x.g, q)
        rec.check(st is not None, "dim5-stabilizer-exists")
        if st:
            rec.check(spin_six.cover_act_isometry(st.as_cover(), space).matrix
                      == t.matrix, "dim5-lift-acts")
    # NQF2NA: conjugation carries stabilizers across norms
    for _ in range(max(3, config.trials // 10)):
        c = random_invertible_biquat(algebra, rng)
        r = field(1)
        new_q = (c * q.embed() * c.bar()).to_aminus().scale(r)
        # sample a member of the q-stabilizer
        v1 = [field.zero()] * 6
        for w in perp:
            v1 = [x + field_elems(field, rng, 1)[0] * y for x, y in zip(v1, w)]
        if space.vnorm(v1).is_zero():
            continue
        g = spin_six.pair_lift(algebra.aminus_of(v1), algebra.aminus_of(v1))
        member = spin_six.dim5_stabilizer(g.g, q)
        if member is None:
            continue
        conj = c * g.g * c.inverse()
        rec.check(spin_six.dim5_stabilizer(conj, new_q) is not None,
                  "NQF2NA-conjugation")
    # NM2B: norm group of M_2(B) equals that of B
    from .spin_six import norm_group_M2B
    bq = algebra.B
    pred = norm_group_M2B(bq)
    if field.p is not None:
        for r in range(1, field.p):
            rec.check(pred(field(r)), "NM2B-all-nonzero")
    else:
        rec.check(pred(field(4)), "NM2B-square")


def suite_ind2int(rec, rng, config):
    field = config.field
    ts = twisted_instance(field)
    h = ts.E.gen0()
    members = []
    for _ in range(config.trials):
        coords = field_elems(field, rng, 6)
        g = ts.from_vec(coords)
        if ts.vnorm_of(g).is_zero():
            continue
        ghq = g.scale(h) * ts.QE.inverse()
        mem = spin_six.rhoQ_membership(ts, ghq)
        rec.check(mem is not None, "ref6gen-membership")
        if mem:
            members.append(mem)
    for i in range(0, len(members) - 1, 2):
        prod = members[i].g * members[i + 1].g
        rec.check(spin_six.rhoQ_membership(ts, prod) is not None,
                  "t2-closed-under-product")


def suite_Qtheta(rec, rng, config):
    field = config.field
    ts = twisted_instance(field)
    for _ in range(config.trials):
        u1 = random_aminus_aniso(ts.A, rng)
        u2 = random_aminus_aniso(ts.A, rng)
        x = spin_six.pair_lift(u1, u2)
        xe = spin_six.CoveredElem(x.g.over(ts.AE), ts.E.from_scalar(x.t),
                                  check=False)
        y = spin_six.qtheta_cover_conj(ts, xe)
        z = spin_six.qtheta_cover_conj(ts, y)
        rec.check(z == xe, "Qtheta-order-2")
        rec.check(y.t == xe.t, "Qtheta-preserves-t")
    # the Qtheta action squares to the identity map on the twisted space
    u0 = ts.from_vec([field(1)] + [field.zero()] * 5)
    rec.check(ts.qtheta_map(ts.qtheta_map(u0)) == u0,
              "Qtheta-action-squares-to-identity")


def suite_sp6gen(rec, rng, config):
    field = config.field
    ts = twisted_instance(field)
    rec.check(ts.space.dim == 6, "twisted-dimension")
    rec.check(discriminant(ts.space) == square_class(nonsquare_of(field)),
              "twisted-discriminant")
    for b in ts.basis:
        rec.check(ts.contains(b), "twisted-basis-membership")
    rec.check(not ts.contains(ts.QE), "Q-not-member")
    for _ in range(config.trials):
        u = ts.from_vec(field_elems(field, rng, 6))
        w = ts.from_vec(field_elems(field, rng, 6))
        rec.check(ts.contains(u + w), "twisted-linear")
        # rho acts as the reflection in hQ
        refl = reflect(ts.space, ts.to_vec(ts.QE.scale(ts.E.gen0())))
        rec.check(ts.to_vec(u.rho()) == refl.apply(ts.to_vec(u)),
                  "rho-is-reflection-in-hQ")


EXTRA_DRAWS = 32


def _draws(trials, found):
    """The draws of a suite that samples group members: most draws fall
    outside the group over small fields, so a run whose first `trials`
    draws give no member (`found()` false) keeps drawing from the same
    stream until one does, up to EXTRA_DRAWS more."""
    draws = 0
    while draws < trials + (0 if found() else EXTRA_DRAWS):
        draws += 1
        yield


def suite_dim7rd(rec, rng, config):
    field = config.field
    algebra = biquat_instances(field)[0]
    delta = nonsquare_of(field)
    q = spin_eight.dim7_q(algebra, delta)
    stab_count = 0
    for _ in _draws(config.trials, lambda: stab_count > 0):
        v = random_aminus(algebra, rng)
        mat = spin_eight.M2A(algebra, v.embed(), algebra.from_scalar(delta),
                             algebra.one(), -algebras.theta(v).embed())
        g = spin_eight.gsp_membership(mat)
        if g is None:
            continue
        mem = spin_eight.dim7_stab_membership(g, delta)
        rec.check(mem is not None, "generator-is-member", v=v)
        if mem is None:
            continue
        stab_count += 1
        rec.check(mem.first is not None or mem.second is not None,
                  "stabinv-block-invertible")
        rec.check(spin_eight.act8(mem.cover, q) == q, "stabilizer-fixes-q")
        spin_flag = (g.mat.a * g.mat.d.bar()
                     + g.mat.b * g.mat.c.bar()) == algebra.one()
        rec.check(mem.is_spin == spin_flag, "spin-condition")
        # products of two generators remain members (stabinv sampling)
        w = random_aminus(algebra, rng)
        mat2 = spin_eight.M2A(algebra, w.embed(), algebra.from_scalar(delta),
                              algebra.one(), -algebras.theta(w).embed())
        g2 = spin_eight.gsp_membership(mat2)
        if g2 is None:
            continue
        prod = spin_eight.gsp_membership(g.mat * g2.mat)
        if prod is None:
            continue
        pm = spin_eight.dim7_stab_membership(prod, delta)
        rec.check(pm is not None, "product-is-member")
    rec.check(stab_count > 0, "sampled-any-stabilizers")


def suite_deltadep(rec, rng, config):
    field = config.field
    algebra = biquat_instances(field)[0]
    delta = nonsquare_of(field)
    for _ in range(max(3, config.trials // 5)):
        v = random_aminus(algebra, rng)
        mat = spin_eight.M2A(algebra, v.embed(), algebra.from_scalar(delta),
                             algebra.one(), -algebras.theta(v).embed())
        g = spin_eight.gsp_membership(mat)
        if g is None or spin_eight.dim7_stab_membership(g, delta) is None:
            continue
        r = field(2)
        g2 = spin_eight.deltadep_conjugate_scalar(g, r)
        rec.check(spin_eight.dim7_stab_membership(
            spin_eight.gsp_membership(g2.mat), r * r * delta) is not None,
            "deltadep-scalar")
        e = random_invertible_biquat(algebra, rng)
        g3 = spin_eight.deltadep_conjugate_norm(g, e)
        rec.check(spin_eight.dim7_stab_membership(
            spin_eight.gsp_membership(g3.mat),
            reduced_norm_A(e) * delta) is not None, "deltadep-norm")


def suite_QthetaQrel(rec, rng, config):
    field = config.field
    ts = twisted_instance(field)
    ts_tilde = spin_six.TwistedSpace(ts.A, ts.E, algebras.theta(ts.Q))
    for _ in range(config.trials):
        v = ts.from_vec(field_elems(field, rng, 6))
        w = ts_tilde.from_vec(field_elems(field, rng, 6))
        vv, wv = v.to_aminus(), w.to_aminus()
        rec.check(ts_tilde.contains(algebras.theta(vv).embed()), "part-i")
        rec.check(ts_tilde.contains(ts.QE.inverse() * v * ts.QE.inverse()),
                  "part-ii")
        t = ts.multiplier(v * ts.QE.inverse())
        rec.check(t == -ts.vnorm_of(v) / ts.q_norm, "part-iii")
        rec.check(ts.contains(algebras.theta(wv).embed()), "part-iv")
        rec.check(ts.contains(ts.QE * w * ts.QE), "part-v")
        t2 = ts.multiplier(ts.QE * w)
        rec.check(t2 == -ts.q_norm * ts_tilde.vnorm_of(w), "part-vi")
        mult = spin_eight.one_plus_eta_omega_multiplier(ts, v, w)
        rec.check(mult is not None
                  and ts.E.from_scalar(mult) == spin_eight.D(vv, wv),
                  "combAErhoFQm20")


def suite_Qhatpsi(rec, rng, config):
    field = config.field
    ts = twisted_instance(field)
    tw8 = spin_eight.Twisted8(ts)
    qh = tw8.q_hat
    # psi(Qhat) has the stated diagonal; Qhat psi(Qhat) = -|Q|^2 with root |Q|^4
    pq = spin_eight.psi(qh)
    expect = spin_eight.M2A.diag(tw8.AE, -algebras.theta(ts.QE.to_aminus()).embed(), ts.QE)
    rec.check(pq.matrix() == expect, "psi-Qhat-matrix")
    prod = spin_eight.cover_mul(qh, pq)
    qn = ts.E.from_scalar(ts.q_norm)
    rec.check(prod.matrix() == spin_eight.M2A.identity(tw8.AE).scale(-qn),
              "Qhat-psiQhat-scalar")
    rec.check(prod.t == qn * qn, "Qhat-square-root")
    # the action of Qhat psi~ on the twisted 8-space is rho
    for _ in range(config.trials):
        coords = field_elems(field, rng, 8)
        v8 = tw8.from_coords(coords)
        img = spin_eight.act8(qh, v8.hat_psi())
        want_u = v8.u.embed().rho()
        rec.check(img.u.embed() == want_u and img.p == v8.p and img.q == v8.q,
                  "Qhatpsi-acts-as-rho", v=coords)


def suite_GSprhoQst(rec, rng, config):
    field = config.field
    ts = twisted_instance(field)
    tw8 = spin_eight.Twisted8(ts)
    members = 0
    for _ in _draws(config.trials, lambda: members > 0):
        coords = field_elems(field, rng, 8)
        v8 = tw8.from_coords(coords)
        n = v8.vnorm()
        if not n.is_scalar() or n.scalar_part().is_zero():
            continue
        member = tw8.membership(v8.matrix() * tw8.q_hat_gsp_inv_mat)
        rec.check(member is not None, "gQhat-inverse-is-member")
        if member is None:
            continue
        members += 1
        # the defining condition holds on the membership branch
        rec.check(tw8.psi_qhat(member.x) == spin_eight.cover_rho(member.x),
                  "psiQhat-equals-rho")
        # the other root branch is excluded
        other = spin_eight.CoveredGSpElem(member.x.gf, -member.x.t, check=False)
        rec.check(not (tw8.psi_qhat(other) == spin_eight.cover_rho(other)),
                  "other-branch-excluded")
        # and the action preserves the F-structure
        w8 = tw8.from_coords(field_elems(field, rng, 8))
        img = member.act_on(w8)
        rec.check(tw8.contains_vec(img), "action-preserves-subspace")
        rec.check(img.vnorm() == w8.vnorm(), "action-preserves-norm")
    rec.check(members > 0, "sampled-any-members")


def suite_iso8id1(rec, rng, config):
    field = config.field
    if field.p is not None:
        algebra = biquat_instances(field)[0]
    else:
        # triality needs a fully split algebra over Q
        algebra = BiquatAlg(QuatAlg(field, 1, 1), QuatAlg(field, 1, 1))
    ks = spin_eight.triality_kernels(algebra)
    rec.check(set(ks) == {"action", "projection", "psi_projection"},
              "triality-kernels-exist")


def suite_wedge2equiv(rec, rng, config):
    from . import wedge
    field = config.field
    for _ in range(config.trials):
        g = Mat(field, [field_elems(field, rng, 4) for _ in range(4)])
        u = field_elems(field, rng, 6)
        w = field_elems(field, rng, 6)
        l2 = wedge.lambda2_matrix(g)
        lhs = wedge.wedge_to_antisym(field, l2.apply(u))
        rhs = g * wedge.wedge_to_antisym(field, u) * g.T
        rec.check(lhs == rhs, "naturality", g=g.rows)
        rec.check(wedge.wedge_pairing(field, l2.apply(u), l2.apply(w))
                  == g.det() * wedge.wedge_pairing(field, u, w),
                  "pairing-det-multiplier")
        tu = wedge.wedge_to_antisym(field, u)
        rec.check(wedge.pfaffian(tu) * wedge.pfaffian(tu) == tu.det(),
                  "pf-squared-is-det")


def suite_F_F2_2(rec, rng, config):
    from .smallfields import classify_form, explicit_isometry, norm_surjectivity
    field = config.field if config.field.p is not None else FieldDesc(3)
    p = field.p
    reps = {}
    for entries in itertools.product(range(1, p), repeat=3):
        space = QuadSpace.diagonal(field, [field(e) for e in entries])
        key = classify_form(space)
        key = (key[0], key[1].rep)
        if key in reps:
            m = explicit_isometry(space, reps[key])
            rec.check(m is not None, "isometry-constructed", entries=entries)
        else:
            reps[key] = space
        v = find_isotropic(space)
        rec.check(v is not None, "dim3-isotropic", entries=entries)
    e = EtaleQuad(field, field.least_nonresidue())
    wit = norm_surjectivity(e)
    rec.check(len(wit) == p - 1, "norm-surjective")


def suite_SO_ind2(rec, rng, config):
    from .smallfields import so_plus_index
    field = config.field if config.field.p is not None else FieldDesc(3)
    for dim in (2, 3, 4):
        for entries in [[1] * dim, [1] * (dim - 1) + [field.least_nonresidue().value]]:
            space = QuadSpace.diagonal(field, [field(e) for e in entries])
            idx, wit = so_plus_index(space)
            rec.check(idx == 2 and wit is not None, "index-2", dim=dim)
    space1 = QuadSpace.diagonal(field, [field(1)])
    rec.check(so_plus_index(space1)[0] == 1, "dim1-trivial")


def suite_census(rec, rng, config):
    from .smallfields import census
    p = config.field.p if config.field.p in (3, 5, 7) else 3
    max_dim = 4 if p > 3 else 6
    rep = census(p, max_dim)
    rec.check(len(rep.rows) >= max_dim, "census-rows")
    for row in rep.rows:
        rec.check(row.so_plus * 2 == row.so or row.dim == 1, "so-plus-half",
                  dim=row.dim)


SUITES: Dict[str, Callable] = {
    "BEpol": suite_BEpol,
    "Sadjt": suite_Sadjt,
    "NAexp": suite_NAexp,
    "NAvn2": suite_NAvn2,
    "NAFg": suite_NAFg,
    "AxA-rel": suite_AxA_rel,
    "normsq": suite_normsq,
    "GSphom": suite_GSphom,
    "GSppsi": suite_GSppsi,
    "GSpprod": suite_GSpprod,
    "comp": suite_comp,
    "vnorm8": suite_vnorm8,
    "GSppresHA": suite_GSppresHA,
    "hpsiGSprel": suite_hpsiGSprel,
    **{kind: functools.partial(_reflection_suite, kind=kind)
       for kind in _REFLECTION_KINDS},
    "CDT": suite_CDT,
    "dim12": suite_dim12,
    "dim3": suite_dim3,
    "dim4": suite_dim4,
    "dim4d1": suite_dim4d1,
    "alt34": suite_alt34,
    "dim6d1": suite_dim6d1,
    "dim5": suite_dim5,
    "ind2int": suite_ind2int,
    "Qtheta": suite_Qtheta,
    "sp6gen": suite_sp6gen,
    "dim7rd": suite_dim7rd,
    "deltadep": suite_deltadep,
    "QthetaQrel": suite_QthetaQrel,
    "Qhatpsi": suite_Qhatpsi,
    "GSprhoQst": suite_GSprhoQst,
    "iso8id1": suite_iso8id1,
    "wedge2equiv": suite_wedge2equiv,
    "F/F2=2": suite_F_F2_2,
    "SO+ind2": suite_SO_ind2,
    "census": suite_census,
}


def run_suite(name: str, config: RunConfig) -> SuiteResult:
    if name not in SUITES:
        raise UnknownSuite("unknown suite %r (known: %s)"
                           % (name, ", ".join(sorted(SUITES))))
    return _run(name, config, SUITES[name])


def run_all(config: RunConfig, names: Optional[List[str]] = None) -> List[SuiteResult]:
    results = [run_suite(n, config) for n in names or sorted(SUITES)]
    return sorted(results, key=lambda r: r.name)
