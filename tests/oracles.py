"""The algebraic-space constructions of the paper, kept as test oracles.

The library builds every product and structural map from the products'
sector members.  These functions build them as the paper defines them:
on the algebraic tensor space (bounded basis) x (basis) for ltimes and
(basis) x (bounded basis) for rtimes, with its Gram matrix G, the
quotient Q = (G V)^H onto the members V and the section E = Q^H, and
spanning families of elementary tensors solved by ``map_from_spanning``.
The library reads Hom(X, Y), multiplicity matrices and the B-linearity of
f (x) g's legs off the frames; :func:`hom_null_space`,
:func:`multiplicity_traces` and :func:`stack_b_linear` find them from the
action stacks alone.  It reads m and the unitors off the frame columns as
index arrays; :func:`m_stacks` and :func:`unitor_stacks` build them as
dense matrices from the factors' action stacks.  It gathers a dual's and
a product's result's corner bases and moved columns from the bimodule
they came from; :func:`column_table_moves` reads them off a table of the
bimodule's own frame columns by corner and rank.  It cuts a product's
members from one mask of the frame labels; :func:`members` lists them
block by block, from each block's :func:`sector_columns`.
"""

import numpy as np

from bimodcat.algebra import standard_form
from bimodcat.bimodule import Morphism, dual_bimodule, transpose
from bimodcat.bounded import left_bounded_space, right_bounded_space
from bimodcat.linalg import (RANK_EPS, fix_phases, hermitize, op_norm, psd_eig,
                             unit_inner)
from bimodcat.tensor import (KIND_LEFT, KIND_RIGHT, WellDefinednessError,
                             _member_map, tensor, tensor_left, tensor_right)


def bounded(tp):
    """The bounded leg's basis: right-bounded of X (ltimes), left-bounded of Y."""
    if tp.kind == KIND_LEFT:
        return right_bounded_space(tp.left_factor)
    return left_bounded_space(tp.right_factor)


def sector_columns(x, side, kind):
    """Per block of the ``side`` algebra, the indices of the frame columns labelled p.

    ltimes takes p = e_00 of each block, rtimes the last diagonal unit e_dd.
    """
    alg = x.left_algebra if side == "left" else x.right_algebra
    labels = getattr(x.frame, side)
    first = alg.diagonal.first
    cut = first[:-1] if kind == KIND_LEFT else first[1:] - 1
    return tuple((labels == p).nonzero()[0] for p in cut)


def sector_bases(x, side, kind):
    """Per block of the ``side`` algebra, X p or p X: the frame columns selected.

    ``side`` "right" gives X p, "left" p X, for the kind's sector unit p;
    the columns are those :func:`sector_columns` selects.
    """
    w = np.eye(x.dim, dtype=complex) if x.frame.w is None else x.frame.w
    return tuple(w[:, cols] for cols in sector_columns(x, side, kind))


def members(kind, x, y):
    """A product's members (a, b) and their table, block by block.

    Block l pairs each of X's columns labelled p_l on the right with each
    of Y's labelled p_l on the left, by a, then by b; rtimes lists the
    members in reverse.  ``index[a[i], b[i]] = i``, else -1.
    """
    pairs = [(cx.repeat(cy.size), np.tile(cy, cx.size))
             for cx, cy in zip(sector_columns(x, "right", kind),
                               sector_columns(y, "left", kind))]
    a, b = (np.concatenate(cols) for cols in zip(*pairs))
    if kind == KIND_RIGHT:
        a, b = a[::-1], b[::-1]
    index = np.full((x.dim, y.dim), -1, dtype=np.intp)
    index[a, b] = np.arange(a.size)
    return a, b, index


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
    bb = bounded(tp)
    first, second = (np.eye(factor.dim)[:, cols] if factor.frame.w is None
                     else factor.frame.w[:, cols]
                     for factor, cols in ((tp.left_factor, tp.a),
                                          (tp.right_factor, tp.b)))
    if tp.kind == KIND_LEFT:
        first = bb.expand(first)
    else:
        second = bb.expand(second)
    v = np.einsum("ir,sr->isr", first, second).reshape(
        len(first) * len(second), tp.a.size)
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


def stack_b_linear(m, x, x2, side):
    """The stack test of B-linearity for a raw leg m : X -> X' of f (x) g.

    m passes when ||m U_w - U'_w m||_F, stacked over every matrix unit w of
    the ``side`` algebra, is at most 1e-6 max(1, ||m||_F); rounding leaves
    about machine epsilon ||m||.  It reads both bimodules' action stacks.
    """
    units = f"{side}_units"
    defect = np.linalg.norm(m @ getattr(x, units) - getattr(x2, units) @ m)
    return defect <= 1e-6 * max(1.0, np.linalg.norm(m))


def m_stacks(x, y):
    """m_{X,Y} : X ltimes Y -> X rtimes Y as R_X(u) (x) L_Y(u*) on the members.

    u = sum_l e_(0, m_l - 1) over the blocks of B; R_X(u) and L_Y(u*) are
    sums of X's right and Y's left action stacks, taken in frame
    coordinates W^H R W.
    """
    alg = x.right_algebra
    k, last = np.arange(len(alg.blocks)), np.subtract(alg.blocks, 1)
    f, g = (units[alg.unit(*idx)].sum(axis=0)
            for units, idx in ((x.right_units, (k, 0, last)),
                               (y.left_units, (k, last, 0))))
    f, g = (m if z.frame.w is None else z.frame.w.conj().T @ m @ z.frame.w
            for m, z in ((f, x), (g, y)))
    tp_left, tp_right = tensor_left(x, y), tensor_right(x, y)
    return _member_map(np.asarray(f, dtype=complex), np.asarray(g, dtype=complex),
                       tp_left.a, tp_left.b, tp_right.a, tp_right.b)


def unitor_stacks(kind, x, side):
    """The ``side`` unitor from X's action stack: L(e_a) W_X[:, b] or R(e_b) W_X[:, a].

    Member (a, b) pairs a unit of L2 with a frame column of X; L2's frame
    is the identity, so its column is the unit's index.
    """
    l2 = standard_form(getattr(x, f"{side}_algebra")).bimodule
    if side == "left":
        tp = tensor(kind, l2, x)
        units, cols = tp.a, tp.b
    else:
        tp = tensor(kind, x, l2)
        units, cols = tp.b, tp.a
    moved = getattr(x, f"{side}_units")
    if x.frame.w is not None:
        moved = moved @ x.frame.w
    return moved[units, :, cols].T


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


def canonical_sector_loop(a, b, mult):
    """A canonical model's stacks with no basis unitary and its frame labels, sector by sector.

    One pass per nonzero sector (k, l), row-major: coordinate (i, s, j)
    of C^n_k (x) C^mult[k, l] (x) C^m_l is labelled by the i-th diagonal
    unit of block k and the j-th of block l; the left unit e_pi of block k
    sends it to (p, s, j), the right unit e_jq of block l to (i, s, q).
    Returns (left stack, right stack, (left labels, right labels)).
    """
    d = int(np.asarray(a.blocks) @ mult @ np.asarray(b.blocks))
    left = np.zeros((a.dim, d, d), dtype=complex)
    right = np.zeros((b.dim, d, d), dtype=complex)
    labels = np.empty((2, d), dtype=np.intp)
    start = 0
    for k, l in zip(*np.nonzero(mult)):
        nk, ml, mu = a.blocks[k], b.blocks[l], int(mult[k, l])
        i, _, j = np.indices((nk, mu, ml)).reshape(3, -1)
        c = start + np.arange(i.size)
        labels[:, c] = a.diagonal.first[k] + i, b.diagonal.first[l] + j
        p, q = np.arange(nk)[:, None], np.arange(ml)[:, None]
        left[a.unit(k, p, i), c + (p - i) * mu * ml, c] = 1.0
        right[b.unit(l, j, q), c + q - j, c] = 1.0
        start += i.size
    return left, right, tuple(labels)


def member_stacks(tp):
    """A product's result stacks from its factors' stacks, L_u (x) 1 and 1 (x) R_v.

    The left stack is W_X^H L_u W_X of X gathered at the members' first
    columns, times the mask b' == b of Y's identity; the right stack is the
    mirror image.  Rounding of W^H W leaves them off 0/1 by about 1e-15.
    """
    out = []
    for units, w, i, j in ((tp.left_factor.left_units, tp.left_factor.frame.w,
                            tp.a, tp.b),
                           (tp.right_factor.right_units, tp.right_factor.frame.w,
                            tp.b, tp.a)):
        units = np.asarray(units, dtype=complex)
        frame = units if w is None else w.conj().T @ units @ w
        out.append(frame[:, i[:, None], i] * (j[:, None] == j))
    return tuple(out)


def dual_stacks(x):
    """X*'s stacks from X's: b acts on xi* as (xi b*)*, conjugated and permuted."""
    return (np.conj(x.right_units[x.right_algebra.adjoint_perm()]),
            np.conj(x.left_units[x.left_algebra.adjoint_perm()]))


def kronecker_extension(x, ni, nj):
    """The stacks of ^I X ^J, one np.kron per matrix unit of M_ni(A) and M_nj(B).

    The unit e_ij (x) e_pq acts as e_ij (x) 1_nj (x) L(e_pq) on the left
    and as 1_ni (x) e_ij^T (x) R(e_pq) on the right.
    """
    out = []
    for alg, units, n, slots in (
            (x.left_algebra, x.left_units, ni, lambda e: np.kron(e, np.eye(nj))),
            (x.right_algebra, x.right_units, nj,
             lambda e: np.kron(np.eye(ni), e.T))):
        stack = []
        for k, nk in enumerate(alg.blocks):
            for pp, qq in np.ndindex(n * nk, n * nk):
                (i, p), (j, q) = divmod(pp, nk), divmod(qq, nk)
                outer = np.zeros((n, n))
                outer[i, j] = 1.0
                stack.append(np.kron(slots(outer), units[alg.unit(k, p, q)]))
        d = ni * nj * x.dim
        out.append(np.array(stack, dtype=complex).reshape(len(stack), d, d))
    return tuple(out)


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


def column_table_moves(x):
    """(moved, base, corners): X's column moves read off its own frame labels.

    The s-th frame column of each corner, by frame order, is multiplicity
    index s there, found by a stable argsort of the corners.
    ``moved(side, cols, labels)`` is the s-th column of the corner at
    ``labels`` on ``side`` and the column's own label on the other side,
    ``base(side)`` the move of every column to the first label of its
    block, and ``corners`` the per pair of blocks [i, j, s] tables of
    :func:`bimodcat.bimodule._corner_columns`.
    """
    a, b = x.left_algebra, x.right_algebra
    n_a, n_b = a.matrix_dim, b.matrix_dim
    corner = x.frame.left * n_b + x.frame.right
    order = corner.argsort(kind="stable")
    ranked = corner[order]
    rank = np.empty(x.dim, dtype=np.intp)
    rank[order] = np.arange(x.dim) - ranked.searchsorted(ranked)
    table = np.full((n_a * n_b, rank.max(initial=-1) + 1), -1, dtype=np.intp)
    table[corner, rank] = np.arange(x.dim)

    def moved(side, cols, labels):
        left = labels if side == "left" else x.frame.left[cols]
        right = labels if side == "right" else x.frame.right[cols]
        return table[left * n_b + right, rank[cols]]

    def base(side):
        diag = getattr(x, f"{side}_algebra").diagonal
        labels = getattr(x.frame, side)
        return moved(side, np.arange(x.dim), diag.first[diag.block[labels]])

    counts = np.bincount(corner, minlength=n_a * n_b)
    corners = [table[((p0 + np.arange(n))[:, None] * n_b + q0 + np.arange(m)),
                     :counts[p0 * n_b + q0]]
               for p0, n in zip(a.diagonal.first, a.blocks)
               for q0, m in zip(b.diagonal.first, b.blocks)]
    return moved, base, corners
