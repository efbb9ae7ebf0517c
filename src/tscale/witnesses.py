"""Extremal test functions: solutions of each hypothesis with equality.

Each builder solves its inequality hypothesis with equality, or with the
feedback term shrunk by a factor in [0, 1) (or a slack subtracted) to sit
strictly inside the hypothesis cone.  In two variables row i depends only on
the rows below it, so the pointwise, system and integro-dynamic witnesses
share one O(n1)-step row sweep that carries Neumaier-compensated column sums
and takes each row's rectangle sums from one compensated prefix sum.  The
sweep allocates its column sums, their errors, the rectangle sums, the row's
cells and the prefix sum's scratch once and overwrites them row by row;
each row body writes its lattice row and its cells with out=, through
buffers of its witness, so no row allocates array data.  A
kernel of r separable terms runs the sweep with r fields, O(r N) in total,
the pointwise kernel k(s) being the one term (1, k); a dense kernel table is
contracted one row slab at a time, O(N^2) like the table, and holds one
instance.  The two-variable witnesses sweep a stack of instances at once,
each with its own bits (see grid2d._common_stack).  The first-order
comparison witness composes its affine steps by a two-level scan, O(n) work
in O(log n) numpy steps: doubling within blocks of 16 steps, then over the
block totals, about 5 full-length rounds at n = 10**5 where one doubling
scan over all steps takes 17, in plain floats while no IEEE flag fires.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import (GridFn1, _computed, _neumaier_cumsum, _plain_floats, _require_one_scale,
                   _two_sum_error)
from .errors import DomainError, ScaleMismatchError
from .grid2d import GridFn2, KernelOracle, TimeScale2D, _cell_weights, _common_stack

# Steps per block of the comparison scan, composed in log2 of it rounds.
_BLOCK = 16


def _check_feedback(feedback_scale) -> np.ndarray:
    """The checked feedback factor, shape (1,) or (count, 1) to scale a row."""
    fs = np.asarray(feedback_scale, dtype=float)[..., None]
    if not np.all((0.0 <= fs) & (fs <= 1.0)):
        raise DomainError("feedback_scale must lie in [0, 1]")
    return fs


# A witness past the float range needs no warning: GridFn2 rejects it.
@np.errstate(over="ignore", invalid="ignore")
def _row_sweep(domain: TimeScale2D, lead: tuple[int, ...],
               row: Callable[[int, np.ndarray, np.ndarray], None]) -> None:
    """Call row(i, sums, cells) for i = 0, 1, ..., n1 - 1 in order.

    lead is (fields,), or (fields, count) for a stack of instances.
    sums[f, ..., j] is the double integral of field f over [0, i) x [0, j):
    the compensated sum of its integrand times mu1 * mu2 over that rectangle,
    so sums[..., 0] and row 0 are zero.  row fills lattice row i and writes
    each field's integrand on row i's kappa cells to cells, shape
    (*lead, n2 - 1).  sums, cells, the column sums and their scratch are
    allocated once and overwritten row by row.
    """
    n1, n2 = domain.shape
    wmu = _cell_weights(domain)
    sums = np.zeros((*lead, n2))
    prefix = sums[..., 1:]
    # column sums over the rows fed so far, their accumulated rounding errors,
    # the compensated column totals (then the next column sums), the row's
    # cells, and the prefix sum's scratch
    col, comp, acc, cells, *scratch = np.zeros((8, *lead, n2 - 1))
    err, bb = scratch[2:]
    for i in range(n1):
        np.add(col, comp, out=acc)
        _neumaier_cumsum(acc, prefix, scratch)
        row(i, sums, cells)
        if i < n1 - 1:
            cells *= wmu[i]
            np.add(col, cells, out=acc)
            comp += _two_sum_error(col, cells, acc, err, bb)
            col, acc = acc, col


def _rows(*arrays: np.ndarray) -> list[np.ndarray]:
    """Views of arrays with the lattice-row axis first: [i] is row i of every
    instance of a stack."""
    return [np.moveaxis(x, -2, 0) for x in arrays]


def _unit_factors(k: GridFn2) -> tuple[np.ndarray, np.ndarray]:
    """The pointwise kernel k(s) as the one separable term (alpha, beta) = (1, k)."""
    return np.broadcast_to(1.0, (1, *k.values.shape)), k.values[None]


def _witness_factored(p: GridFn2, q: GridFn2, alpha, beta, rho: np.ndarray) -> GridFn2:
    """The row sweep with one field per term r: row i takes the sum over r of
    alpha[r, i] * sums[r] and feeds beta[r, i] * u[i]; alpha and beta hold
    p's stack after their term axis.  rho * q is formed once."""
    u = np.empty(p.values.shape)
    ur, pr, rq = _rows(u, p.values, rho[..., None] * q.values)
    ar, br = (np.moveaxis(x, -2, 1) for x in (alpha, beta))
    terms = np.empty(ar.shape[:1] + ar.shape[2:])
    inner = np.empty(terms.shape[1:])

    def row(i, sums, cells):
        np.multiply(ar[:, i], sums, out=terms)
        np.add.reduce(terms, 0, out=inner)
        np.multiply(inner, rq[i], out=inner)
        np.add(pr[i], inner, out=ur[i])
        np.multiply(br[:, i, ..., :-1], ur[i, ..., :-1], out=cells)

    _row_sweep(p.domain, alpha.shape[:-2], row)
    return GridFn2(p.domain, u)


def witness_pointwise(p: GridFn2, q: GridFn2, k: GridFn2,
                      feedback_scale=1.0) -> GridFn2:
    """u with u = p + feedback_scale * q * double integral of k*u.

    feedback_scale 1 is the equality case of the pointwise-kernel
    hypothesis; smaller factors keep u strictly below the right-hand side
    wherever the feedback term is positive; it is the one-term kernel (1, k).
    """
    _common_stack(p, q, k, feedback_scale)
    return _witness_factored(p, q, *_unit_factors(k), _check_feedback(feedback_scale))


def witness_kernel(p: GridFn2, q: GridFn2, kernel: KernelOracle,
                   feedback_scale=1.0) -> GridFn2:
    """Like witness_pointwise, but the kernel also sees the outer point:
    u(t) = p(t) + feedback_scale * q(t) * sum of k(t1, t2, s1, s2) u(s) mu mu.

    A factored kernel runs the shared row sweep with one field per term; a
    dense table holds one instance and contracts each row's slab instead.
    """
    _common_stack(p, q, kernel, feedback_scale)
    rho = _check_feedback(feedback_scale)
    if kernel.factors is not None:
        return _witness_factored(p, q, *kernel.factors, rho)
    n1, n2 = p.domain.shape
    u = np.empty((n1, n2))
    wmu = _cell_weights(p.domain)
    before = np.tri(n2, n2 - 1, -1)    # before[j, b] = 1 where b < j
    uw = np.empty((n1 - 1, n2 - 1))
    # A witness past the float range needs no warning: GridFn2 rejects it.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n1):
            inner = np.einsum("jab,ab->jb", kernel.slab(i, i, n2 - 1), uw[:i])
            u[i] = p.values[i] + rho * q.values[i] * (inner * before).sum(axis=1)
            if i < n1 - 1:
                uw[i] = u[i, :-1] * wmu[i]
    return GridFn2(p.domain, u)


def witness_system(c1, c2, h1: GridFn2, h2: GridFn2, h3: GridFn2, h4: GridFn2,
                   feedback_scale=1.0) -> tuple[GridFn2, GridFn2]:
    """Coupled pair solving u = c1 + ii(h1 u + h2 v), v = c2 + ii(h3 u + h4 v).

    ii is the double integral over [0, t1) x [0, t2); the feedback factor
    scales both integral terms.
    """
    _common_stack(h1, h2, h3, h4, c1, c2, feedback_scale)
    rho = _check_feedback(feedback_scale)
    c1, c2 = (np.asarray(c, dtype=float)[..., None] for c in (c1, c2))
    dom = h1.domain
    u = np.empty(h1.values.shape)
    v = np.empty(h1.values.shape)
    ur, vr, *hr = _rows(u, v, *(h.values[..., :-1] for h in (h1, h2, h3, h4)))
    term = np.empty(hr[0].shape[1:])

    def row(i, sums, cells):
        np.multiply(rho, sums[0], out=ur[i])
        np.add(c1, ur[i], out=ur[i])
        np.multiply(rho, sums[1], out=vr[i])
        np.add(c2, vr[i], out=vr[i])
        ui, vi = ur[i, ..., :-1], vr[i, ..., :-1]
        g1, g2, g3, g4 = (h[i] for h in hr)
        for cell, gu, gv in ((cells[0], g1, g2), (cells[1], g3, g4)):
            np.multiply(gu, ui, out=cell)
            np.multiply(gv, vi, out=term)
            cell += term

    _row_sweep(dom, (2, *u.shape[:-2]), row)
    return GridFn2(dom, u), GridFn2(dom, v)


def witness_integrodynamic(a1d: GridFn1, b1d: GridFn1, c2d: GridFn2,
                           feedback_scale=1.0) -> tuple[GridFn2, GridFn2]:
    """u vanishing on the axes whose mixed delta w solves the feedback relation.

    w(t1, t2) = a(t1) + b(t2) + feedback_scale * ii(c * (u + w)) and
    u(t1, t2) = ii(w), so u(0, .) = u(., 0) = 0 exactly and w is u's mixed
    partial delta on kappa x kappa by construction.
    """
    dom = c2d.domain
    if not (a1d.scale.same_points(dom.scale1) and b1d.scale.same_points(dom.scale2)):
        raise ScaleMismatchError("axis coefficients must live on the product scale's axes")
    _common_stack(c2d, a1d, b1d, feedback_scale)
    rho = _check_feedback(feedback_scale)
    u = np.empty(c2d.values.shape)
    w = np.empty(c2d.values.shape)
    ur, wr, cr = _rows(u, w, c2d.values[..., :-1])
    a, b = np.moveaxis(a1d.values, -1, 0)[..., None], b1d.values
    feedback = np.empty(b.shape)

    def row(i, sums, cells):
        np.add(a[i], b, out=wr[i])
        np.multiply(rho, sums[0], out=feedback)
        wr[i] += feedback
        ur[i] = sums[1]
        ui, wi = ur[i, ..., :-1], wr[i, ..., :-1]
        np.add(ui, wi, out=cells[0])
        cells[0] *= cr[i]
        cells[1] = wi

    _row_sweep(dom, (2, *u.shape[:-2]), row)
    return GridFn2(dom, u), GridFn2(dom, w)


def _blocked(v: np.ndarray) -> np.ndarray:
    """Steps in order viewed block-minor: [r, c] is step 16c + r."""
    return v.reshape(-1, _BLOCK).T


def _affine_steps(f: GridFn1, g: GridFn1, x_a: float, a: int, slack: float):
    """x, the comparison witness's output with x[0] = x_a, and its steps from
    index a in block-minor layout: m = 1 + mu*g, b = mu*(f - slack) and
    scratch tmp, each of shape (16, ceil(n/16)) for n steps; the steps past
    n that fill the last block are the identity.  Each step is formed in
    step order and then copied once into the layout."""
    pts = f.scale.points[a:]
    n = len(pts) - 1
    cols = -(-n // _BLOCK)
    x = np.empty(_BLOCK * cols + 1)
    x[0] = float(x_a)
    # mu until the output is written; steps past n are the identity, mu = 0
    mu = x[1:]
    np.subtract(pts[1:], pts[:-1], out=mu[:n])
    mu[n:] = 0.0
    m, b, tmp = np.empty((3, _BLOCK, cols))
    # tmp holds mu*(f - slack), then 1 + mu*g, in step order until the scans use it
    flat = tmp.reshape(-1)
    flat[n:] = 0.0
    # an infinite step would pass through the scans: name it, as
    # exponential._mu_p names an infinite mu*p
    try:
        with np.errstate(over="raise"):
            np.subtract(f.values[a:-1], slack, out=flat[:n])
            flat *= mu
            b[...] = _blocked(flat)
            np.multiply(g.values[a:-1], mu[:n], out=flat[:n])
    except FloatingPointError:
        with np.errstate(over="ignore"):
            for what, v in (("mu*(f - slack)", f.values[a:-1] - slack), ("mu*g", g.values[a:-1])):
                k = a + np.flatnonzero(np.isinf(v * mu[:n]))
                if k.size:
                    raise DomainError(f"{what} overflows the float range at index {k[0]}") from None
        raise
    flat += 1.0
    m[...] = _blocked(flat)
    return x, m, b, tmp


def _plain_scan(m: np.ndarray, b: np.ndarray, tmp: np.ndarray) -> None:
    """Compose affine steps along axis 0 in place by a Hillis-Steele doubling
    scan, in ceil(log2 len) rounds: step k maps x to m[k] * x + b[k], and
    afterwards [k] holds steps 0..k composed.  tmp is scratch of m's shape,
    so no round allocates."""
    n = len(m)
    d = 1
    while d < n:
        # (m, b)[k] <- (m, b)[k] o (m, b)[k - d] for k >= d:
        # B = A_hi * B_lo + B_hi first, while A_hi is still uncomposed
        t = tmp[:n - d]
        np.multiply(m[d:], b[:-d], out=t)
        b[d:] += t
        np.multiply(m[d:], m[:-d], out=t)
        m[d:] = t
        d *= 2


def _block_scan(m: np.ndarray, b: np.ndarray, tmp: np.ndarray) -> None:
    """_plain_scan, its rounds composed in place: each round runs d rows at a
    time from the last row, so the rows k - d it reads are not yet composed
    in this round.  tmp holds at least len(m) // 2 rows."""
    n = len(m)
    d = 1
    while d < n:
        hi = n
        while hi > d:
            lo = max(hi - d, d)
            t = tmp[:hi - lo]
            np.multiply(m[lo:hi], b[lo - d:hi - d], out=t)
            b[lo:hi] += t
            m[lo:hi] *= m[lo - d:hi - d]
            hi = lo
        d *= 2


def _compose_plain(x: np.ndarray, m: np.ndarray, b: np.ndarray, tmp: np.ndarray) -> None:
    """Write x[k + 1], steps 0..k of _affine_steps applied to x[0], for every
    k by the two-level scan: the doubling scan within each block (column),
    then over the block totals in the last row, then one pass that applies
    each total to the block after it."""
    _block_scan(m, b, tmp)
    _plain_scan(m[-1], b[-1], tmp[-1])
    # every row but the last of block c takes the steps of blocks 0..c-1,
    # composed in the last row of column c - 1; the identity comes before
    # block 0
    mt, bt = (np.concatenate(([first], v[-1, :-1])) for first, v in ((1.0, m), (0.0, b)))
    t = tmp[:-1]
    np.multiply(m[:-1], bt, out=t)
    b[:-1] += t
    mt *= x[0]
    m[:-1] *= mt
    m[-1] *= x[0]
    m += b
    _blocked(x[1:])[...] = m


def _doubling_scan(m: np.ndarray, e: np.ndarray, b: np.ndarray,
                   tmp: np.ndarray, etmp: np.ndarray) -> None:
    """_plain_scan with step k's A the mantissa m[k] times 2**e[k]; each
    composed A is again a mantissa and an exponent.  etmp is scratch of e's
    shape."""
    n = len(m)
    d = 1
    while d < n:
        t, et = tmp[:n - d], etmp[:n - d]
        np.frexp(b[:-d], out=(t, et))
        t *= m[d:]
        et += e[d:]
        b[d:] += np.ldexp(t, et, out=t)
        np.multiply(m[d:], m[:-d], out=t)
        np.add(e[d:], e[:-d], out=et)
        np.frexp(t, out=(m[d:], e[d:]))
        e[d:] += et
        d *= 2


def _compose_exponents(x: np.ndarray, m: np.ndarray, b: np.ndarray, tmp: np.ndarray) -> None:
    """_compose_plain with each composed A a mantissa times a power of two,
    and B and x[0] split so before A multiplies them: no product underflows
    early or overflows on its own and exact zeros stay exact, so x leaves the
    float range only where A*x[0] or B itself does."""
    e = np.empty(m.shape, np.int64)
    etmp = np.empty_like(e)
    np.frexp(m, out=(m, e))
    with np.errstate(over="ignore", invalid="ignore"):
        _doubling_scan(m, e, b, tmp, etmp)
        _doubling_scan(m[-1], e[-1], b[-1], tmp[-1], etmp[-1])
        mt, et, bt = (np.concatenate(([first], v[-1, :-1]))
                      for first, v in ((0.5, m), (1, e), (0.0, b)))
        mx, ex = np.frexp(x[0])
        mb, eb = np.frexp(bt)
        t, tt = tmp[:-1], etmp[:-1]
        np.multiply(m[:-1], mb, out=t)
        np.add(e[:-1], eb, out=tt)
        b[:-1] += np.ldexp(t, tt, out=t)
        m[:-1] *= mt * mx
        e[:-1] += et + ex
        m[-1] *= mx
        e[-1] += ex
        np.add(np.ldexp(m, e, out=m), b, out=_blocked(x[1:]))


def witness_comparison(f: GridFn1, g: GridFn1, x_a: float, a: int,
                       slack: float = 0.0) -> GridFn1:
    """x on the tail scale with x(a) = x_a and x^delta = f + g*x - slack.

    slack 0 solves the first-order hypothesis with equality; positive slack
    keeps x^delta strictly below f + g*x everywhere.  Step k is the affine
    map x -> A_k*x + B_k with A_k = 1 + mu_k*g_k and B_k = mu_k*(f_k - slack);
    x[k + 1] is the composition of steps 0..k applied to x_a, taken for every
    k at once by a two-level scan in O(n) work (Blelloch 1990).  The steps
    lie block-minor in a (16, ceil(n/16)) array, each block of 16 steps a
    column: a doubling scan of 4 rounds on its contiguous rows composes every
    block, the doubling scan composes the block totals in the last row, and
    one pass applies each total to the block after it.  At n = 10**5 that is
    about 5 full-length rounds, where one doubling scan takes 17, each of 3
    array passes in plain floats: the rounds within the blocks compose in
    place.  The scan runs in plain floats under
    core._plain_floats; where an IEEE flag fires, it runs again on the
    steps rebuilt from the inputs with each composed A a mantissa and an
    exponent (see _compose_exponents), each round then of 9 passes.  No
    factor needs to be positive or nonzero.
    """
    _require_one_scale(f, g)
    if not np.isfinite(x_a):
        raise DomainError(f"x_a must be finite, got {x_a}")
    if not (np.isfinite(slack) and slack >= 0):
        raise DomainError(f"slack must be finite and nonnegative, got {slack}")
    scale = f.scale
    a = scale._check_index(a)
    x, m, b, tmp = _affine_steps(f, g, x_a, a, slack)
    try:
        with _plain_floats():
            _compose_plain(x, m, b, tmp)
    except FloatingPointError:
        x, m, b, tmp = _affine_steps(f, g, x_a, a, slack)
        _compose_exponents(x, m, b, tmp)
    return _computed(scale.tail(a), x[:len(scale) - a], "comparison witness")
