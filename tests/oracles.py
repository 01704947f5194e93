"""The algebraic-space constructions of the paper, kept as test oracles.

The library builds every product and structural map from the products'
sector members.  These functions build them as the paper defines them:
on the algebraic tensor space (bounded basis) x (basis) for ltimes and
(basis) x (bounded basis) for rtimes, with its Gram matrix G, the
quotient Q = (G V)^H onto the members V and the section E = Q^H, and
spanning families of elementary tensors solved by ``map_from_spanning``.
The library reads Hom(X, Y) and multiplicity matrices off the frames;
:func:`hom_null_space` and :func:`multiplicity_traces` find them from the
action stacks alone.
"""

import numpy as np

from bimodcat.algebra import standard_form
from bimodcat.bimodule import Morphism, dual_bimodule, transpose
from bimodcat.bounded import left_bounded_space, right_bounded_space
from bimodcat.linalg import (RANK_EPS, fix_phases, hermitize, op_norm, psd_eig,
                             unit_inner)
from bimodcat.tensor import (KIND_LEFT, WellDefinednessError, _sector_columns,
                             tensor_left, tensor_right)


def bounded(tp):
    """The bounded leg's basis: right-bounded of X (ltimes), left-bounded of Y."""
    if tp.kind == KIND_LEFT:
        return right_bounded_space(tp.left_factor)
    return left_bounded_space(tp.right_factor)


def sector_bases(x, side, kind):
    """Per block of the ``side`` algebra, X p or p X: the frame columns selected.

    ``side`` "right" gives X p, "left" p X, for the kind's sector unit p;
    the columns are those :func:`bimodcat.tensor._sector_columns` selects.
    """
    w = np.eye(x.dim, dtype=complex) if x.frame.w is None else x.frame.w
    return tuple(w[:, cols] for cols in _sector_columns(x, side, kind))


def gram(tp):
    """The algebraic Gram sum_w A_w (x) B_w of a product, from its factors.

    For ltimes A_w holds the w-coordinates of the inner products
    [f_i, f_j]_B of the bounded basis and B_w is the left action on Y; for
    rtimes A_w is the right action on X and B_w holds those of _B[v_k, v_j].
    """
    x, y, v = tp.left_factor, tp.right_factor, bounded(tp).vectors
    if tp.kind == KIND_LEFT:
        legs = unit_inner(x.right_units, v, v), y.left_units
    else:
        legs = x.right_units, unit_inner(y.left_units, v, v)
    n = x.dim * y.dim
    return np.einsum("wij,wst->isjt", *legs).reshape(n, n)


def quotient(tp):
    """Q = (G V)^H : algebraic -> member coordinates, Q Q^H = 1 and Q^H Q = G.

    V's column i is member i in algebraic coordinates: the bounded leg in
    bounded-basis coefficients.  G is an orthogonal projection and V is
    G-orthonormal, so Q V = 1.
    """
    bb, m = bounded(tp), tp.members
    first, second = (np.eye(factor.dim)[:, cols] if w is None else w[:, cols]
                     for factor, w, cols in ((tp.left_factor, m.wx, m.a),
                                             (tp.right_factor, m.wy, m.b)))
    if tp.kind == KIND_LEFT:
        first = bb.expand(first)
    else:
        second = bb.expand(second)
    v = np.einsum("ir,sr->isr", first, second).reshape(
        len(first) * len(second), m.a.size)
    return (gram(tp) @ v).conj().T


def induced_map(src, tgt, alg_map):
    """Q_tgt A E_src for a map A of algebraic coordinates.

    It raises unless A maps the source's Gram null space into the
    target's, so that A descends.  With K an
    orthonormal basis of that null space, E Q = 1 - K K^H, so
    ||QA - (QA E) Q||_F is the Gram seminorm ||Q_tgt A K||_F of its image.
    ||Q|| = 1, so the defect scales with ||A|| alone; a true kernel vector
    leaves a residual of order sqrt(machine epsilon), hence the loose 1e-6.
    """
    q_src = quotient(src)
    qa = quotient(tgt) @ alg_map
    out = qa @ q_src.conj().T
    if src.dim < src.alg_dim:
        defect = np.linalg.norm(qa - out @ q_src)
        if defect > 1e-6 * max(1.0, op_norm(alg_map)):
            raise WellDefinednessError(
                f"map does not descend to the tensor quotient (defect {defect:.3e})")
    return out


def standard_images(b_alg, avecs, cvecs):
    """Images in ^I L2(B) ^J of spanning tensors, entry (i', j') = vec(a_i' c_j').

    ``avecs``: (|B|, n, colsA) algebra vectors per frame row and first spanning
    index; ``cvecs``: (|B|, m, colsC) per frame row and second spanning index.
    Returns (n*m*|B|, colsA*colsC) with rows (i', j', w) and columns
    (first, second), both row-major.
    """
    lunits = standard_form(b_alg).bimodule.left_units       # (w, v, u)
    # vec(a c)[v] = sum_{w,u} a[w] L_w[v, u] c[u]
    out = np.tensordot(np.tensordot(avecs, lunits, axes=(0, 0)), cvecs,
                       axes=(3, 0))                          # (i, x, v, j, s)
    n, ca, w, m, cc = out.shape
    return out.transpose(0, 3, 2, 1, 4).reshape(n * m * w, ca * cc)


def m_realization(x, y, right_rotation=None, left_rotation=None):
    """m_{X,Y} through projective realizations u : X -> p ^I L2(B), v : Y -> L2(B)^J q.

    The tight frames are the bounded bases of the two products (right-bounded
    of X for ltimes, left-bounded of Y for rtimes); both sides are mapped
    into ^I L2(B) ^J by the entrywise multiplication formula and composed.
    Unitary rotations recombine the frames into other realizations, and m
    does not depend on them.
    """
    tp_left, tp_right = tensor_left(x, y), tensor_right(x, y)
    b_alg = x.right_algebra
    gframe, hframe = bounded(tp_left).vectors, bounded(tp_right).vectors
    if right_rotation is not None:
        gframe = gframe @ right_rotation
    if left_rotation is not None:
        hframe = hframe @ left_rotation
    # per matrix unit w of B, the rows g_i'^H R_w^H on X and h_j'^H L_w^H on Y
    gh = (x.right_units @ gframe).conj().transpose(0, 2, 1)
    hh = (y.left_units @ hframe).conj().transpose(0, 2, 1)
    # ltimes side, spanning columns (i, s), xi_i the right-bounded basis of X:
    #   a-part: vec(a_i') = g_i'^H xi_i ; c-part: vec(c_j') = h_j'^H e_s
    big_l = standard_images(b_alg, gh @ bounded(tp_left).vectors, hh)
    m_l = big_l @ quotient(tp_left).conj().T
    # rtimes side, spanning columns (s, j), eta_j the left-bounded basis of Y:
    #   b-part: vec(b_i') = g_i'^H e_s ; d-part: vec(d_j') = h_j'^H eta_j
    big_r = standard_images(b_alg, gh, hh @ bounded(tp_right).vectors)
    m_r = big_r @ quotient(tp_right).conj().T
    return m_r.conj().T @ m_l


def ext_family(tp_xy, tp_ext, ni, nj):
    """(source, target) spanning family of the extension identification.

    The family pairs the bounded vectors (slot i, f_a) of ^I X (ltimes) or
    (v_b, slot j) of Y^J (rtimes) with the other factor's basis vectors.
    """
    bb, ext = bounded(tp_xy), bounded(tp_ext)
    left = tp_xy.kind == KIND_LEFT
    coeff = ext.expand(np.kron(np.eye(ni if left else nj), bb.vectors))
    if left:
        n1, n2 = bb.size, tp_xy.right_factor.dim
        src = coeff.T @ quotient(tp_ext).reshape(tp_ext.dim, ext.size, nj * n2)
    else:
        n1, n2 = tp_xy.left_factor.dim, bb.size
        src = quotient(tp_ext).reshape(tp_ext.dim, ni * n1, ext.size) @ coeff
    # target columns e_i (x) e_j (x) Q(e_a (x) e_b), in the order (i, a, j, b)
    r = tp_xy.dim
    tgt = np.kron(np.eye(ni * nj), quotient(tp_xy)).reshape(
        ni * nj * r, ni, nj, n1, n2).transpose(0, 1, 3, 2, 4)
    return (src.reshape(tp_ext.dim, ni * n1 * nj * n2),
            tgt.reshape(ni * nj * r, ni * n1 * nj * n2))


def conjugation_family(x, y):
    """(source, target) spanning family of c_{X,Y} : Y* rtimes X* -> (X ltimes Y)*.

    eta-bar (x) x-star maps to the conjugate of the class of x (x) eta, for
    the right bounded basis vectors x of X and the basis vectors eta of Y;
    the evaluation vector of x-star is the plain conjugate of x's.
    """
    tp_left = tensor_left(x, y)
    tp_dual = tensor_right(dual_bimodule(y), dual_bimodule(x))
    star_coeff = bounded(tp_dual).expand(np.conj(bounded(tp_left).vectors))
    qd = quotient(tp_dual).reshape(tp_dual.dim, y.dim, bounded(tp_dual).size)
    src = np.swapaxes(qd @ star_coeff, 1, 2).reshape(
        tp_dual.dim, star_coeff.shape[1] * y.dim)
    return src, quotient(tp_left).conj()


def canonical_units(a, b, mult):
    """A canonical model's stacks with no basis unitary, one np.kron per unit.

    On sector (k, l), C^n_k (x) C^mult[k, l] (x) C^m_l, the left unit
    e_pq of block k acts as e_pq (x) 1 and the right unit e_pq of block l
    as 1 (x) e_pq^T; the nonzero sectors follow each other row-major.
    """
    d = int(np.asarray(a.blocks) @ mult @ np.asarray(b.blocks))
    left = np.zeros((a.dim, d, d), dtype=complex)
    right = np.zeros((b.dim, d, d), dtype=complex)
    start = 0
    for k, l in zip(*np.nonzero(mult)):
        nk, ml, mu = a.blocks[k], b.blocks[l], int(mult[k, l])
        sec = slice(start, start + nk * mu * ml)
        start = sec.stop
        for u, e in enumerate(np.eye(nk * nk).reshape(-1, nk, nk)):
            left[a.offsets[k] + u, sec, sec] = np.kron(e, np.eye(mu * ml))
        for u, e in enumerate(np.eye(ml * ml).reshape(-1, ml, ml)):
            right[b.offsets[l] + u, sec, sec] = np.kron(np.eye(nk * mu), e.T)
    return left, right


def hom_null_space(x, y):
    """Orthonormal basis of Hom(X, Y) as the joint kernel of the intertwiner equations.

    Vectorizes candidate maps T (dY x dX, row-major), accumulates the
    normal matrix sum_u K_u^H K_u of T U_u - U'_u T over every matrix unit
    of both sides and keeps the eigenvectors below RANK_EPS times the
    sum of the squared unit norms.
    """
    dx, dy = x.dim, y.dim
    n = dx * dy
    if n == 0:
        return []
    normal = np.zeros((n, n), dtype=complex)
    scale = 0.0
    for side in ("left_units", "right_units"):
        for su, tu in zip(getattr(x, side), getattr(y, side)):
            k = np.kron(np.eye(dy), su.T) - np.kron(tu, np.eye(dx))
            normal += k.conj().T @ k
            scale += max(op_norm(su), op_norm(tu)) ** 2
    w, v = np.linalg.eigh(hermitize(normal))
    kernel = fix_phases(v[:, w < RANK_EPS * max(scale, 1.0)])
    return [Morphism(x, y, kernel[:, j].reshape(dy, dx))
            for j in range(kernel.shape[1])]


def multiplicity_traces(x):
    """Multiplicity matrix from sector dimensions: tr(z_k z_l) / (n_k m_l).

    z_k and z_l are the central projections of the blocks: the sums of the
    actions of their diagonal units.
    """
    z_left, z_right = ([units[off + np.arange(n) * (n + 1)].sum(axis=0)
                        for off, n in zip(alg.offsets, alg.blocks)]
                       for units, alg in ((x.left_units, x.left_algebra),
                                          (x.right_units, x.right_algebra)))
    mu = np.array([[np.trace(zk @ zl).real / (nk * ml)
                    for zl, ml in zip(z_right, x.right_algebra.blocks)]
                   for zk, nk in zip(z_left, x.left_algebra.blocks)])
    assert np.abs(mu - np.round(mu)).max(initial=0.0) <= 1e-6, mu
    return np.round(mu).astype(int).reshape(len(z_left), len(z_right))


def psd_rank(m, scale=0.0):
    """Numerical rank; ``scale`` sets an absolute eigenvalue floor."""
    w, _ = psd_eig(m)
    if w.size == 0 or w[0] == 0.0:
        return 0
    return int(np.count_nonzero(w > RANK_EPS * max(w[0], scale)))


def transpose_on_product(f, c_src, c_tgt):
    """Conjugate a morphism f : X kind Y -> X' kind Y' through the c maps.

    Here c_src = c_{X,Y} and c_tgt = c_{X',Y'}.
    Returns c_src^{-1} o (transpose f) o c_tgt : Y'* kind X'* -> Y* kind X*,
    which equals (transpose of the second leg) kind (transpose of the first)
    by naturality when f is an elementary tensor of morphisms.
    """
    mat = c_src.matrix.conj().T @ transpose(f).matrix @ c_tgt.matrix
    return Morphism(c_tgt.source, c_src.source, mat)
