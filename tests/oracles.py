"""Test oracles: rad M, submodules and syzygies by kernels over all of M,
and the rank of the regular module by brute force.

`reps` reads rad M only through its annihilator soc M^t (as a quotient of
M^t, see `reps.first_radical_layers` and `reps.syzygy`).  The direct
constructions here are what those quotients are tested against: rad M as
one `nullspace_basis` kernel of the socle functionals, a submodule from a
basis with private unit coordinates, and the syzygy as that submodule of
the cover's kernel.  `AlgebraContext.verify_regular_decomposition` decides
u = sum of the shifted P_k from one socle vector per label; `regular_rank`
ranks all of their spanning vectors instead.  The quasi-Hopf identities
that `quasihopf` decides on the generators are checked here on the samples
it once read, the grading on its old samples by its old support
certificate, Phi by its n^3 idempotent triples, the pentagon as the scalar
cocycle condition, and the height of every `ef` normal form, the premise
of the grading argument.
"""

import random

from uqsl2 import quasihopf
from uqsl2.errors import ConstructionError, InvalidArgumentError, RepresentationError
from uqsl2.linalg import Echelon, nullspace_basis, rank
from uqsl2.qgroup import AlgebraElement
from uqsl2.quasihopf import TensorElement, _height, tensor_of
from uqsl2.reps import (
    Representation,
    _socle_sweep,
    all_labels,
    direct_sum,
    hom_space,
    projective,
    transpose,
)


def radical(M):
    """The top multiplicities of M and a basis of rad M.

    Tops and the image columns spanning soc M^t come from one
    `_socle_sweep(M^t)`.  As functionals on M those columns have rad M as
    their joint kernel (see `reps.transpose`), taken by one
    `nullspace_basis` over all of M.  Tops are nonzero counts keyed in
    label order, as `top_multiplicities` gives them.  When M is graded,
    the functionals are grade-pure rows, so as in `hom_from_simple` the one
    kernel is eliminated grade by grade: each kernel vector is grade-pure,
    and rad M keeps M's grading.
    """
    tops, functionals = _socle_sweep(transpose(M))
    return tops, nullspace_basis(M.field, functionals, M.dim)


def sub_rep(M, vectors, label):
    """The submodule spanned by class-pure vectors (must be E/F invariant).

    Each vector must have a private unit coordinate: a column where it is 1
    and every other vector is absent.  Unit vectors have one, and so does
    every `nullspace_basis` output: each of its vectors is 1 at its own free
    column and 0 at every other free column.  The coefficient of an image
    on vector t is then the image's entry at t's private column, and the
    image lies in the span exactly when subtracting that combination leaves
    zero.  So no inverse is needed, over Q(zeta) or over F_p.

    If M is graded and every spanning vector is grade-pure, the submodule
    inherits the grading.
    """
    if not vectors:
        return Representation(M.ctx, label, (), (), {}, {}, None, M.field)
    kexp = []
    khatexp = []
    grades = [] if M.grades is not None else None
    for vec in vectors:
        classes = {M.classes()[r] for r in vec}
        if len(classes) != 1:
            raise InvalidArgumentError("subspace basis vectors must be class-pure")
        r0 = next(iter(vec))
        kexp.append(M.kexp[r0])
        khatexp.append(M.khatexp[r0])
        if grades is not None:
            gs = {M.grades[r] for r in vec}
            if len(gs) == 1:
                grades.append(M.grades[r0])
            else:
                grades = None
    f = M.field
    owners = {}
    for vec in vectors:
        for c in vec:
            owners[c] = owners.get(c, 0) + 1
    private = {}  # private column -> index of its vector
    for t, vec in enumerate(vectors):
        pc = next((c for c, s in vec.items() if owners[c] == 1 and s == f.one), None)
        if pc is None:
            raise InvalidArgumentError("subspace basis vector has no private unit coordinate")
        private[pc] = t
    E = {}
    F = {}
    for mp, apply in ((E, M.apply_E), (F, M.apply_F)):
        for jdx, vec in enumerate(vectors):
            img = apply(vec)
            if not img:
                continue
            col = {private[c]: s for c, s in img.items() if c in private}
            for t, s in col.items():
                f.axpy(img, vectors[t], f.neg(s))
            if img:
                raise RepresentationError(f"subspace of {M.label} is not invariant")
            mp[jdx] = col
    return Representation(M.ctx, label, kexp, khatexp, E, F, grades, M.field)


def syzygy_by_kernel(M):
    """Kernel of a projective cover of M, as a submodule of the cover: the
    generator images are picked independent modulo the `radical` basis,
    and the kernel of the cover map is one `nullspace_basis` built into a
    module by `sub_rep`."""
    ctx = M.ctx
    f = M.field
    tops, rows = radical(M)
    ech = Echelon(f)
    for row in rows:
        ech.add(row)
    blocks = []
    gen = ctx.N  # column of the generator gamma, the start of P's second E-chain
    for i, j in all_labels(ctx):
        if (i, j) not in tops:
            continue
        P = projective(ctx, i, j)
        picked = 0
        for h in hom_space(P, M):
            v = h.get(gen)
            if v and ech.add(v) is not None:
                blocks.append((P, h))
                picked += 1
        if picked != tops[(i, j)]:
            raise ConstructionError(f"no projective cover found for {M.label}")
    coord_rows = {}
    off = 0
    for P, h in blocks:
        for c, col in h.items():
            for r, s in col.items():
                coord_rows.setdefault(r, {})[off + c] = s
        off += P.dim
    kernel = nullspace_basis(f, list(coord_rows.values()), off)
    if len(kernel) != off - M.dim:
        raise ConstructionError(f"cover of {M.label} is not surjective")
    cover = direct_sum([P for P, _ in blocks], f"cover({M.label})")
    return sub_rep(cover, kernel, f"syzygy({M.label})")


def cosyzygy_by_kernel(M):
    """syzygy_by_kernel(M^t)^t, the cokernel of an injective envelope."""
    return transpose(syzygy_by_kernel(transpose(M)))


def regular_rank(actx):
    """Rank of all E^l alpha E^h and E^l gamma E^h, blocked by eigenclass.

    Every spanning vector is height-homogeneous and a simultaneous left
    eigenvector of k^-1 khat and k khat^(n/2); vectors in distinct
    (height, eigenvalue) classes are independent, so the total rank is
    the sum of per-class ranks and each class is tiny.
    """
    f = actx.field
    N = actx.N
    buckets = {}
    for i in range(1, actx.half + 1):
        for j in (0, 1):
            chains = (
                (actx.alpha_vec(i, j), 2 * i - 2, j + 1),
                (actx.gamma_vec(i, j), -2 * i, j),
            )
            for vec, eig0, sgn0 in chains:
                cur = vec
                for l in range(N):
                    if cur.is_zero():
                        raise ConstructionError("chain vector vanished early")
                    heights = cur.heights()
                    if len(heights) != 1:
                        raise ConstructionError("chain vector is not height-homogeneous")
                    h0 = heights.pop()
                    eig = (eig0 - 2 * l) % N
                    sgn = (sgn0 + l) % 2
                    if actx.kinv_khat * cur != cur.scale(f.qpow(eig)):
                        raise ConstructionError(
                            f"chain vector eigenvalue drifted at (2i,j,l)=({2 * i},{j},{l})"
                        )
                    if actx.k_khat_half * cur != cur.scale(f.sign(sgn)):
                        raise ConstructionError(
                            f"chain vector sign drifted at (2i,j,l)=({2 * i},{j},{l})"
                        )
                    for h in range(N - 2 * i + 1):
                        shifted = actx._shift_right_e(cur, h)
                        buckets.setdefault((h0 + h, eig, sgn), []).append(
                            actx.coords(shifted)
                        )
                    if l + 1 < N:
                        cur = actx.E * cur
    return sum(rank(f, rows) for rows in buckets.values())


def axiom_samples(qh, seed=0):
    """The samples the quasi-Hopf identities were checked on before they
    were decided on the generators: (counit keys, coassociativity elements,
    zigzag keys), 34, 10 and 148 of them at n = 4, drawn in the old order
    from one `random.Random(seed)` per identity."""
    actx = qh.actx
    one = actx.field.one
    counit = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)]
    counit += [(0, eps, c, 0) for eps in (0, 1) for c in range(actx.half)]
    counit += [(a, 1, 3, d) for a in range(3) for d in range(3)]
    counit += sample_monomials(qh, random.Random(seed), 6, 4)
    coassoc = [actx.k, actx.khat, actx.E, actx.F, actx.idempotent_e(2, 1), actx.flat()]
    coassoc += [
        AlgebraElement(actx, {key: one})
        for key in sample_monomials(qh, random.Random(seed), 4, 3)
    ]
    zigzag = [
        (a, eps, c, d)
        for a in range(3) for d in range(3) for eps in (0, 1) for c in range(actx.half)
    ]
    zigzag += sample_monomials(qh, random.Random(seed), 4, 4)
    return counit, coassoc, zigzag


def axiom_sample_failures(qh, seed=0):
    """The first sample of `axiom_samples` on which each identity fails,
    or None: the counit on both legs of D(key), quasi-coassociativity by
    `commutes_with_phi` (which a Tier-1 test compares with the products
    Phi L and R Phi on the same ten elements), and both zigzags of each
    key."""
    actx = qh.actx
    counit, coassoc, zigzag = axiom_samples(qh, seed)
    one = actx.field.one

    def counit_fails(key):
        expect = TensorElement(actx, 1, {(key,): one})
        dm = qh.delta_mono(key)
        return not qh.counit_on_leg(dm, 0) == expect == qh.counit_on_leg(dm, 1)

    def coassoc_fails(x):
        dx = qh.delta(x)
        return not qh.commutes_with_phi(qh.delta_on_leg(dx, 0), qh.delta_on_leg(dx, 1))

    def zigzag_fails(key):
        x = AlgebraElement(actx, {key: one})
        eps_x = qh.counit(x)
        left, right = qh.zigzags(x)
        return left != qh.alpha_elem.scale(eps_x) or right != qh.beta_elem.scale(eps_x)

    return {
        name: next((s for s in samples if fails(s)), None)
        for name, samples, fails in (
            ("counit", counit, counit_fails),
            ("coassociativity", coassoc, coassoc_fails),
            ("zigzag", zigzag, zigzag_fails),
        )
    }


def sample_monomials(qh, rng, count, max_exp):
    """count PBW keys (a, eps, c, d) with a, d <= max_exp, drawn from rng."""
    return [
        (rng.randrange(max_exp + 1), rng.randrange(2), rng.randrange(qh.actx.half),
         rng.randrange(max_exp + 1))
        for _ in range(count)
    ]


def grading_samples(qh, seed=0):
    """The 40 monomials the grading was checked on before it was decided on
    the generators: a 4 x 4 grid of exponents with two grouplikes, and
    eight sampled monomials."""
    half = qh.actx.half
    keys = []
    for a in range(4):
        for d in range(4):
            keys.append((a, 0, 1, d))
            keys.append((a, 1, 5 % half, d))
    return keys + sample_monomials(qh, random.Random(seed), 8, qh.actx.N - 1)


def grading_certificate(qh, key):
    """True only if every term of D(key) has height d - a, decided from
    supports without forming D(key); False decides nothing.

    D(key) = D(F^a) D(g) D(E^d), and the support of a product lies in the
    leg-wise `mono_mul` products of the factors' supports, so a kept set of
    keys per leg holds the leg's support of each partial product.  Heights
    add across every such `mono_mul`, and each factor totals -a, 0 and d,
    so every term of D(key) totals d - a."""
    a, eps, c, d = key
    factors = [(qh.delta_mono((a, 0, 0, 0)), -a)]
    if eps or c:
        factors.append((qh.delta_mono((0, eps, c, 0)), 0))
    if d:
        factors.append((qh.delta_mono((0, 0, 0, d)), d))
    for fac, h in factors:
        if any(_height(ka) + _height(kb) != h for ka, kb in fac.terms):
            return False
    mono_mul = qh.actx.mono_mul
    for leg in (0, 1):
        reached = {keys[leg] for keys in factors[0][0].terms}
        for fac, _ in factors[1:]:
            nxt = set()
            for m in {keys[leg] for keys in fac.terms}:
                for l in reached:
                    h = _height(l) + _height(m)
                    for out, _, _ in mono_mul(l, m):
                        if _height(out) != h:
                            return False
                        nxt.add(out)
            reached = nxt
    return True


def grading_sample_failure(qh, seed=0):
    """The old grading statement on `grading_samples`: (instances,
    counterexample) at its first failing key, or None.  Each key is tried
    by `grading_certificate` and, when that declines, read from D(key)."""
    for count, key in enumerate(grading_samples(qh, seed), 1):
        if grading_certificate(qh, key):
            continue
        h = _height(key)
        splits = [
            (ka, kb) for (ka, kb) in qh.delta_mono(key).terms
            if _height(ka) + _height(kb) != h
        ]
        if splits:
            return count, f"monomial {key} split {splits[0]}"
    return None


def ef_height_failures(actx):
    """The (d, a, key) with a term key of `ef(d, a)`, the normal form of
    E^d F^a, off the height d - a, over every d, a < n^2."""
    return [
        (d, a, (a1, e1, c1, d1))
        for d in range(actx.N) for a in range(actx.N)
        for a1, e1, c1, d1, _ in actx.ef(d, a)
        if d1 - a1 != d - a
    ]


def phi_by_triples(qh, sign):
    """Phi (sign +1) or Phi^-1 (sign -1) as the sum over all n^3 triples of
    qbar^(sign phi(i, j, k)) 1_i (x) 1_j (x) 1_k, each an n^3-term product."""
    actx = qh.actx
    f = actx.field
    n = actx.n
    acc = TensorElement(actx, 3, {})
    for i in range(n):
        for j in range(n):
            for k in range(n):
                piece = tensor_of(actx.idempotent_1(i), actx.idempotent_1(j), actx.idempotent_1(k))
                acc = acc + piece.scale(f.qbarpow(sign * quasihopf._phi_exponent(n, i, j, k)))
    return acc


def cocycle_failures(n):
    """The I in Z_n^4 where phi = `_phi_exponent` breaks the 3-cocycle
    condition phi(i1, i2, i3+i4) + phi(i1+i2, i3, i4) = phi(i2, i3, i4) +
    phi(i1, i2+i3, i4) + phi(i1, i2, i3) mod n."""
    def phi(i, j, k):
        return quasihopf._phi_exponent(n, i % n, j % n, k % n)

    return [
        (i1, i2, i3, i4)
        for i1 in range(n) for i2 in range(n) for i3 in range(n) for i4 in range(n)
        if (phi(i1, i2, i3 + i4) + phi(i1 + i2, i3, i4)
            - phi(i2, i3, i4) - phi(i1, i2 + i3, i4) - phi(i1, i2, i3)) % n
    ]
