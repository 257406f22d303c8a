"""The unions J u J0 that the RIP constant and event E range over, and the
largest deviation from 1 of the eigenvalues of their normalized Grams."""

from __future__ import annotations

import itertools

import numpy as np

from .basis import block_column_chunks, principal_submatrices
from .geometry import EIG_FLOOR, check_budget, count_subsets_up_to, singular_gram_error

#: margin by which Cholesky must clear a union's deviation below the running
#: maximum, or the population Gram's least eigenvalue above EIG_FLOOR, before
#: the eigensolver skips it; it dwarfs the rounding of both, so a skipped union
#: is never the maximum
CERT_MARGIN = 1e-10


def union_collection(q, qstar, J0, subsets=None):
    """The nonempty unions J cup J0 over all candidate J, each once, in order
    of first occurrence.

    Over every J with |J| <= qstar that order is known without a pass to
    dedupe: J0 itself (J = ()), then K cup J0 for each nonempty K outside J0
    with |K| <= qstar, in ``itertools.combinations`` order by size (J = K is
    the first J that gives it).
    """
    if subsets is not None:
        J0 = set(J0)
        unions = dict.fromkeys(tuple(sorted(J0.union(J))) for J in subsets)
        unions.pop((), None)
        return list(unions)
    check_budget(count_subsets_up_to(q, qstar, include_empty=True),
                 "{count} candidate subsets exceed the budget {budget}; "
                 "pass an explicit (sampled) subset collection")
    J0 = tuple(sorted(set(J0)))
    rest = [j for j in range(q) if j not in J0]
    unions = [J0] if J0 else []
    for r in range(1, qstar + 1):
        unions += (tuple(sorted(K + J0)) for K in itertools.combinations(rest, r))
    return unions


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


def _refuse_singular(G_pop, slices, unions):
    """Raise SingularBlockError for the first union, in enumeration order,
    whose P_U, sliced from the symmetric G_pop, has an eigenvalue at or below
    EIG_FLOOR. By Cauchy interlacing no P_U has a smaller least eigenvalue
    than G_pop, so one Cholesky of G_pop clears every union at once; only if
    it fails does every P_U get ``eigh``."""
    if _definite(G_pop[None], EIG_FLOOR + CERT_MARGIN)[0]:
        return
    bad = []  # (position, union, least eigenvalue) of each stack's first singular union
    for members, cols in block_column_chunks(slices, unions):
        least = np.linalg.eigh(principal_submatrices(G_pop, cols))[0][:, 0]
        bad += [(*members[i], least[i]) for i in np.flatnonzero(least <= EIG_FLOOR)[:1]]
    if bad:
        _, union, least = min(bad)  # positions are distinct
        raise singular_gram_error(f"population Gram on {union}", least)


def union_deviation(G_emp, G_pop, slices, unions) -> float:
    """Largest deviation from 1 of the eigenvalues of P_U^{-1/2} E_U P_U^{-1/2}
    over the unions, E = G_emp, P = G_pop; ``G_pop = None`` is the identity
    and whitens nothing. Raises SingularBlockError for the first union, in
    enumeration order, whose P_U has an eigenvalue at or below EIG_FLOOR,
    before any deviation is computed.

    The unions come in stacks of at most EIG_CHUNK of one column count. Once
    the running maximum exceeds CERT_MARGIN, every stack but the first of each
    column count is certified: a union is whitened by ``eigh`` of P_U and gets
    ``eigvalsh`` only where Cholesky cannot prove its deviation below that
    maximum by CERT_MARGIN. The maximum is therefore read off ``eigvalsh`` of
    the same matrix as in a pass over every union.
    """
    if G_pop is not None:
        G_pop = 0.5 * (G_pop + G_pop.T)
        _refuse_singular(G_pop, slices, unions)
    worst = 0.0
    width = None  # column count of the previous stack
    for _, cols in block_column_chunks(slices, unions):
        E = principal_submatrices(G_emp, cols)
        P = None if G_pop is None else principal_submatrices(G_pop, cols)
        # wider unions mostly raise the maximum, so on the first stack of a
        # column count the certificate would fail nearly throughout
        if worst > CERT_MARGIN and E.shape[-1] == width:
            keep = ~_deviation_below(E, P, worst)
            E, P = E[keep], (None if P is None else P[keep])
        width = cols.shape[-1]
        if not len(E):
            continue
        if P is not None:
            w, V = np.linalg.eigh(P)
            W = (V * w[:, None, :] ** -0.5) @ V.transpose(0, 2, 1)
            E = W @ E @ W
        worst = max(worst, _max_deviation(np.linalg.eigvalsh(E)))
    return worst
