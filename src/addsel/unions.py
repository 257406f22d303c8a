"""The unions J u J0 that the RIP constant and event E range over, and the
largest deviation from 1 of the eigenvalues of their normalized Grams."""

from __future__ import annotations

import numpy as np

from .basis import block_column_chunks, principal_submatrices
from .geometry import EIG_FLOOR, check_budget, count_subsets_up_to, singular_gram_error, \
    subsets_up_to

#: margin by which Cholesky must clear a union's deviation below the running
#: maximum, or P_U's least eigenvalue above EIG_FLOOR, before the eigensolver
#: skips it; it dwarfs the rounding of both, so a skipped union is never the maximum
CERT_MARGIN = 1e-10
#: most matrices one Cholesky certificate factors at once
CERT_STACK = 64


def union_collection(q, qstar, J0, subsets=None):
    """The nonempty unions J cup J0 over all candidate J, each once, in order
    of first occurrence."""
    J0 = set(J0)
    if subsets is None:
        check_budget(count_subsets_up_to(q, qstar, include_empty=True),
                     "{count} candidate subsets exceed the budget {budget}; "
                     "pass an explicit (sampled) subset collection")
        subsets = subsets_up_to(q, qstar, include_empty=True)
    unions = dict.fromkeys(tuple(sorted(J0.union(J))) for J in subsets)
    unions.pop((), None)
    return list(unions)


def _max_deviation(w):
    """max over a stack of ascending eigenvalue rows of max(w_max - 1, 1 - w_min)."""
    return float(np.max(np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0])))


def _factorizes(A, fails=False):
    """Mask of the matrices in the stack A that ``np.linalg.cholesky`` factors.

    One call factors the whole stack and raises LinAlgError if any matrix
    fails, so a failing stack is halved until the failures are found; when the
    first half factors, the second is known to fail (``fails``) untested.
    """
    if not fails:
        try:
            np.linalg.cholesky(A)
            return np.ones(len(A), dtype=bool)
        except np.linalg.LinAlgError:
            pass
    if len(A) == 1:
        return np.zeros(1, dtype=bool)
    h = len(A) // 2
    head = _factorizes(A[:h])
    return np.concatenate([head, _factorizes(A[h:], fails=bool(head.all()))])


def _definite(E, lower, upper=None, P=None):
    """Mask of the stack E: whether ``E - lower P`` and, given ``upper``,
    ``upper P - E`` are positive definite by Cholesky (``P = None``: the identity)."""
    p = np.eye(E.shape[-1]) if P is None else P
    ok = _factorizes(E - lower * p)
    if upper is not None:
        ok &= _factorizes(upper * p - E)
    return ok


def _deviation_below(E, P, t):
    """Mask of the unions whose eigenvalues of P^{-1/2} E P^{-1/2} (the
    generalized eigenvalues of (E, P); ``P = None``: the identity) Cholesky
    proves to lie in [1 - t + CERT_MARGIN, 1 + t - CERT_MARGIN]."""
    return _definite(E, 1.0 - t + CERT_MARGIN, 1.0 + t - CERT_MARGIN, P)


def union_deviation(G_emp, G_pop, slices, unions) -> float:
    """Largest deviation from 1 of the eigenvalues of P_U^{-1/2} E_U P_U^{-1/2}
    over the unions, E = G_emp, P = G_pop; ``G_pop = None`` is the identity
    and whitens nothing. Raises SingularBlockError for the first union, in
    enumeration order, whose P_U has an eigenvalue at or below EIG_FLOOR.

    Once the running maximum exceeds CERT_MARGIN, every stack but the first of
    each column count is certified: a union is whitened and gets ``eigvalsh``
    only where Cholesky cannot prove its deviation below that maximum by
    CERT_MARGIN, and P_U gets ``eigh`` only where Cholesky cannot prove its
    least eigenvalue above EIG_FLOOR by CERT_MARGIN. The maximum is therefore
    read off ``eigvalsh`` of the same matrix as in a pass over every union,
    and the singular union found is the same.
    """
    worst = 0.0
    singular = None  # (position, union, min eigenvalue) of the first singular union
    width = None  # column count of the previous stack
    for members, cols in block_column_chunks(slices, unions, CERT_STACK):
        E = principal_submatrices(G_emp, cols)
        P = None
        if G_pop is not None:
            P = principal_submatrices(G_pop, cols)
            P = 0.5 * (P + P.transpose(0, 2, 1))
        # wider unions mostly raise the maximum, so on the first stack of a
        # column count the certificate would fail nearly throughout
        certify = worst > CERT_MARGIN and E.shape[-1] == width
        width = E.shape[-1]
        if P is None:
            if certify:
                E = E[~_deviation_below(E, None, worst)]
            if len(E):
                worst = max(worst, _max_deviation(np.linalg.eigvalsh(E)))
            continue
        if singular is None and not certify:
            todo = check = np.ones(len(P), dtype=bool)
        else:
            # once the call raises, the remaining deviations are not needed
            todo = (np.zeros(len(P), dtype=bool) if singular is not None
                    else ~_deviation_below(E, P, worst))
            check = todo | ~_definite(P, EIG_FLOOR + CERT_MARGIN)
        rows = np.flatnonzero(check)
        if not len(rows):
            continue
        w, V = np.linalg.eigh(P[rows])
        bad = np.flatnonzero(w[:, 0] <= EIG_FLOOR)
        if len(bad):
            pos, union = members[rows[bad[0]]]
            if singular is None or pos < singular[0]:
                singular = (pos, union, w[bad[0], 0])
        keep = todo[rows]
        if singular is not None or not keep.any():
            continue
        w, V = w[keep], V[keep]
        W = (V * w[:, None, :] ** -0.5) @ V.transpose(0, 2, 1)
        worst = max(worst, _max_deviation(np.linalg.eigvalsh(W @ E[todo] @ W)))
    if singular is not None:
        _, union, min_eig = singular
        raise singular_gram_error(f"population Gram on {union}", min_eig)
    return worst
