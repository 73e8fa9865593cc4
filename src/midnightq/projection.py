"""Galerkin projection solver for the stationary density of the daily diffusion.

The stationary density pi* satisfies an adjoint identity: for every bounded
test function f, the expected one-step change L f = P f - f integrates to
zero against pi*.  Writing pi* = q * r for a strictly positive reference
density r turns that into an orthogonality statement in the r-weighted L2
space: q is orthogonal to every L f.  Projecting the constant function onto
the span of {L f_i} for a finite element family {f_i} and rescaling the
orthogonal remainder yields a computable approximation of q, hence of pi*.

The test space is a family of piecewise-linear hats on a uniform grid with
a node pinned at zero, where the kernel's conditional mean has a kink.  The
inner one-step expectation P f is available in closed form (truncated
Gaussian moments per linear piece); only the outer r-weighted integrals
need quadrature: one Gauss-Legendre rule on each element and on ten panels,
one step sd each, along each semi-infinite tail beyond the grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemv, dsymv, dsyrk
from scipy.linalg.lapack import dpocon, dpotrs, dpstrf
from scipy.special import ndtr

from .model import SQRT2PI, DiffusionParams, SolverError, check_budget
from .diffusion import TransitionKernel, proxy_density

# Points per batch of hat evaluations: the kernel's (window width x points)
# work arrays stay small enough to be reused from cache.
_CHUNK = 512
# Half-width, in step standard deviations, of the hats each point evaluates:
# the step's mass beyond it is Phi(-10) = 7.6e-24.
_REACH_SD = 10
# Residual a Gram solve may leave, relative to the norm of its right-hand side.
_REL_TOL = 1e-8
# Gauss-Legendre nodes per panel of every integral: the Gram's elements and
# tail panels, and the pieces of a bin mass beyond them.
_ORDER = 8
_BLOCK = 64  # rows or columns of a Gram-assembly matrix that one temporary holds


@dataclass(frozen=True, eq=False)
class FemBasis:
    """Uniform hat-function family on [grid_lo, grid_hi] with a node at zero."""

    grid_lo: float
    grid_hi: float
    num_elements: int
    nodes: np.ndarray

    @property
    def size(self) -> int:
        """Number of basis functions (one hat per node)."""
        return self.num_elements + 1

    @property
    def width(self) -> float:
        return float(self.nodes[1] - self.nodes[0])


def build_basis(grid_lo: float, grid_hi: float, m: int) -> FemBasis:
    """Uniform basis with ``m`` elements, shifted so that zero is a node.

    The kernel's conditional mean is non-smooth at zero, so zero has to be
    an element boundary.  The node nearest zero, kept at least one element
    from either end, is moved onto it: the domain shifts by at most half an
    element, or under one element when zero lies within half an element of
    an end.  The width is then recomputed from the shifted ends.
    """
    if not grid_lo < 0.0 < grid_hi:
        raise ValueError(
            f"the working domain must straddle zero, got ({grid_lo!r}, {grid_hi!r})"
        )
    if m < 4:
        raise ValueError(f"need at least 4 elements, got {m!r}")
    h = (grid_hi - grid_lo) / m
    j0 = min(max(round(-grid_lo / h), 1), m - 1)
    grid_lo = -j0 * h
    h = (grid_lo + m * h - grid_lo) / m
    # Anchor the grid at the zero node so it is exact, not merely close.
    nodes = (np.arange(m + 1) - j0) * h
    return FemBasis(
        grid_lo=float(nodes[0]), grid_hi=float(nodes[-1]), num_elements=m, nodes=nodes
    )


def working_domain(
    d: DiffusionParams, grid_lo: float | None = None, grid_hi: float | None = None
) -> tuple[float, float]:
    """``(grid_lo, grid_hi)``, by default the domain covering the Gaussian
    branch to 6 sd and the exponential branch to twelve e-folds of decay.

    Refuses with ValueError ends not both given, finite and increasing.
    """
    if (grid_lo is None) != (grid_hi is None):
        raise ValueError("the working domain needs both grid_lo and grid_hi, or neither")
    if grid_lo is not None:
        if not -math.inf < grid_lo < grid_hi < math.inf:
            raise ValueError(f"grid_lo and grid_hi must be finite and increasing, "
                             f"got ({grid_lo!r}, {grid_hi!r})")
        return grid_lo, grid_hi
    if d.tail_rate <= 0.0:
        raise ValueError("default domain needs a stable regime (positive tail rate)")
    return d.gaussian_center - 6.0 * math.sqrt(d.ou_variance), 12.0 / d.tail_rate


def _pf_windows(nodes: np.ndarray, h: float, means: np.ndarray, sd: float, first: np.ndarray,
                width: int):
    """P f of a window of hats at each point, one batch of ``_CHUNK`` points at a time.

    The hats interpolate on the pieces of ``nodes``, a uniform grid of
    width ``h``, and vanish outside it, so the first and last are half hats.
    The point whose step is Normal(``means[j]``, ``sd``^2)
    (``TransitionKernel.step_law``) gets the ``width`` hats from
    ``first[j]``.  Yields ``(part, rows, pf)`` per batch: P f of hat
    ``rows[k, j]`` is ``pf[k, j]`` at the point ``means[part][j]``.  ``rows``
    and ``pf`` are views of buffers made once per call, which the next
    batch overwrites.

    P f of a hat sums the Gaussian mass I0 and first moment I1 of each of
    its two pieces.  The smaller tail ndtr(-|z|) of each break is the cdf
    left of the mean and the survival function right of it, so a piece on
    one side of the mean has I0 = |tail_a - tail_b|, the difference of its
    smaller tails, exact to the last bit as fl(a - b) = -fl(b - a) and
    precise in the far tails.  On the piece that holds the mean, I0 is one
    minus both tails, the larger one subtracted first.
    """
    n = means.size
    batch = min(n, _CHUNK)
    rows_buf = np.empty(width * batch, dtype=np.intp)
    t_buf, z_buf, tail_buf = (np.empty(width * batch) for _ in range(3))
    i0_buf = np.empty((width - 1) * batch)
    offsets = np.arange(width)[:, None]
    # Piece of each window whose left break is the last at or left of the
    # mean (z <= 0 there, z > 0 right of it); outside 0..width-2 none is.
    straddle = np.searchsorted(nodes, means, side="right") - 1 - first
    for start in range(0, n, _CHUNK):
        part = slice(start, min(start + _CHUNK, n))
        b = part.stop - start
        mean = means[part]
        # Contiguous (width, b) views, laid out as fresh arrays: a short
        # batch runs the same numpy loops, so each value keeps its bits.
        rows, t, z, tail = (buf[: width * b].reshape(width, b)
                            for buf in (rows_buf, t_buf, z_buf, tail_buf))
        i0 = i0_buf[: (width - 1) * b].reshape(width - 1, b)
        np.add(offsets, first[part], out=rows)
        # rows is always in range; mode="clip" writes t without buffering it.
        np.take(nodes, rows, out=t, mode="clip")
        np.subtract(t, mean, out=z)
        z /= sd
        np.abs(z, out=tail)
        np.negative(tail, out=tail)
        ndtr(tail, out=tail)
        np.subtract(tail[:-1], tail[1:], out=i0)
        np.abs(i0, out=i0)
        k = straddle[part]
        col = np.flatnonzero((k >= 0) & (k < width - 1))
        k = k[col]
        ta, tb = tail[k, col], tail[k + 1, col]
        i0[k, col] = np.where(z[k, col] + z[k + 1, col] > 0.0, (1.0 - ta) - tb, (1.0 - tb) - ta)
        pdf = tail
        np.multiply(z, -0.5, out=pdf)
        pdf *= z
        np.exp(pdf, out=pdf)
        pdf /= SQRT2PI
        # I1 = mean I0 + sd (pdf_a - pdf_b) in z's first rows; then the
        # rising half of each piece's hats in pdf's and the falling half in i0.
        i1, up, down = z[:-1], pdf[:-1], i0
        np.subtract(pdf[:-1], pdf[1:], out=i1)
        i1 *= sd
        np.multiply(mean, i0, out=up)
        i1 += up
        np.multiply(t[:-1], i0, out=up)
        np.subtract(i1, up, out=up)
        up /= h
        np.multiply(t[1:], i0, out=down)
        np.subtract(down, i1, out=down)
        down /= h
        # Each end row is 0.0 plus its one half, so it holds no -0.0.
        pf = z
        np.add(down[0], 0.0, out=pf[0])
        np.add(up[:-1], down[1:], out=pf[1:-1])
        np.add(up[-1], 0.0, out=pf[-1])
        yield part, rows, pf


def _combine_rows(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_i weights[i] * rows[i], added up in index order.

    A BLAS product rounds a column's dot product by the column's position
    and the batch size; this way each column's value is a function of that
    column alone.
    """
    out = weights[0] * rows[0]
    for w, row in zip(weights[1:], rows[1:]):
        out += w * row
    return out


def _pf_band(basis: FemBasis, means: np.ndarray, sd: float):
    """``_pf_windows`` of the hats of ``basis`` near each point, whose step
    is Normal(``means[j]``, ``sd``^2).

    A step of mean m and sd s lands beyond m +- Z s, Z = ``_REACH_SD``, with
    mass Phi(-Z) only, so x gets the W = min(size, ceil(2 Z s / h) + 2)
    consecutive hats from first = clip(floor((m - Z s - grid_lo) / h), 0,
    size - W), whose breaks cover [m - Z s, m + Z s]: a window of x alone.
    P f of every other hat is taken as zero, so each value is within Phi(-Z)
    of P f over the whole grid, and equal to it bit for bit but for the
    window's two end rows.
    """
    h = basis.width
    reach = _REACH_SD * sd
    width = min(basis.size, math.ceil(2.0 * reach / h) + 2)
    # Unlike clip, fmax sends a nan mean to a window, where P f stays nan.
    first = np.fmin(np.fmax(np.floor((means - reach - basis.grid_lo) / h), 0), basis.size - width)
    return _pf_windows(basis.nodes, h, means, sd, first.astype(np.intp), width)


def _lf(basis: FemBasis, kernel: TransitionKernel, x: np.ndarray, order: int) -> np.ndarray:
    """L applied to every hat at the points ``x``, whose first m ``order`` are
    ``order`` nodes in each element in turn, as the Gram's (``_panels``).

    P f is from ``_pf_band`` but on the trailing elements where the kernel
    steps from x itself: there P f of full hat k + d at node g of element k
    depends on d and g alone, so the first one's window, on a grid extended
    past both ends, fills hats 1..m-1; half hats 0 and m take windows of two.
    Such entries are within Phi(-Z) + (a few ulps of max|x|) / h of P f.

    A point of the grid in element j is covered by hats j and j + 1 only,
    but rounding of the node positions can leave a hat one node further
    slightly positive at a node.  So hats j - 1 to j + 2 are subtracted, each
    as the tent max(1 - |x - node| / h, 0); the rest are zero there.
    """
    (h, m, t), (means, sd) = (basis.width, basis.num_elements, basis.nodes), kernel.step_law(x)
    b, reach, xe = order * m, _REACH_SD * sd, x[: order * m].reshape(m, order)
    a = order * (1 + max(np.flatnonzero((kernel.step_base(xe) != xe).any(axis=1)), default=-1))
    lf, rest = np.zeros((basis.size, x.size)), np.r_[:a, b:x.size]
    for part, rows, pf in _pf_band(basis, means[rest], sd):
        lf[rows, rest[part]] = pf
    if a < b:
        below = (b - a) // order + 2 + math.ceil((reach + abs(kernel.diffusion.drift)) / h)
        ext = (t[-1] - t[0]) / m * np.arange(1, below + 1)
        wide = np.concatenate([t[0] - ext[::-1], t, t[-1] + ext])
        ref = means[a:a + order]
        first = np.floor((ref - reach - wide[0]) / h).astype(np.intp)
        _, rows, pf = next(_pf_windows(wide, h, ref, sd, first, math.ceil(2.0 * reach / h) + 2))
        stencil = np.zeros((wide.size, order))
        stencil[rows, np.arange(order)] = pf
        # lf[r, a + order k + g] = stencil[below + r - k, g] for hats r = 1..m-1, k = 0, 1, ...
        s0, s1, shape = *stencil.strides, (m - 1, (b - a) // order, order)
        lf[1:m, a:b].reshape(shape)[...] = np.lib.stride_tricks.as_strided(
            stencil[1 + below:], shape, (s0, -s0, s1), writeable=False)
        for hat, lo in ((0, 0), (m, m - 1)):
            cols = a + np.flatnonzero(np.abs(means[a:b] - (t[lo] + t[lo + 1]) / 2) < reach + h)
            for part, _, pf in _pf_windows(t, h, means[cols], sd, np.full(cols.size, lo), 2):
                lf[hat, cols[part]] = pf[hat - lo]
    cols = np.flatnonzero((x >= basis.grid_lo) & (x <= basis.grid_hi))
    element = np.clip(np.floor((x[cols] - basis.grid_lo) / h).astype(np.intp), 0, m - 1)
    for offset in (-1, 0, 1, 2):
        k = element + offset
        ok = (k >= 0) & (k <= m)
        hat, col = k[ok], cols[ok]
        tent = 1.0 - np.abs(x[col] - basis.nodes[hat]) / h
        lf[hat, col] -= np.clip(tent, 0.0, None)
    return lf


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes u_j and weights wu_j of the ``order``-point Gauss-Legendre rule
    on [-1, 1], and the Legendre coefficients (row k of P_k) of each B_j(u),
    the integral over [-1, u] of l_j / wu_j for the Lagrange basis l_j on the
    nodes: the rule is exact for l_j P_k, k < ``order``, so l_j / wu_j = sum_k
    (k + 1/2) P_k(u_j) P_k.  B_j(1) = 1.  Made once per order, read-only."""
    legendre = np.polynomial.legendre
    u, wu = legendre.leggauss(order)
    series = legendre.legvander(u, order - 1) * (np.arange(order) + 0.5)
    rule = (u, wu, legendre.legint(series.T, lbnd=-1))
    for part in rule:
        part.flags.writeable = False
    return rule


def _panels(left: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``_ORDER``-point Gauss-Legendre rule on each
    panel [left, left + width], ``_ORDER`` consecutive nodes per panel."""
    u, wu, _ = _gauss_legendre(_ORDER)
    width = width[:, None]
    return (left[:, None] + width * ((u + 1.0) / 2.0)).ravel(), (width * (wu / 2.0)).ravel()


def _gram_panels(basis: FemBasis, kernel: TransitionKernel) -> tuple[np.ndarray, np.ndarray]:
    """(left, width) of the Gram's panels: the m elements, then ``_REACH_SD``
    panels one kernel-step sd long along each semi-infinite tail beyond the
    grid, the lower tail's going outward, then the upper's.  That is the
    reach of a point's hat window (``_pf_band``): past the upper panels a step
    starts that far above the grid, less the drift; past the lower ones the
    reference's Gaussian tail is negligible."""
    step_sd = kernel.step_law(0.0)[1]  # the same from every state
    outward = step_sd * np.arange(_REACH_SD)
    left = np.concatenate([basis.nodes[:-1], basis.grid_lo - step_sd - outward,
                           basis.grid_hi + outward])
    return left, np.repeat([basis.width, step_sd], [basis.num_elements, 2 * _REACH_SD])


@dataclass(frozen=True, eq=False)
class GramSystem:
    """Assembled normal equations of the projection, plus quadrature state.

    ``matrix`` holds the pairwise r-weighted inner products of the mapped
    basis, ``rhs`` their inner products with the constant function.  The
    quadrature nodes and weights (r included) are kept so the
    reconstruction reuses exactly the same discrete inner product, and
    ``weighted_lf``, sqrt(w) L f there.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    reference: object
    kernel: TransitionKernel
    basis: FemBasis
    quad_x: np.ndarray
    quad_w: np.ndarray
    rhs_scale: float
    weighted_lf: np.ndarray


def assemble_gram(basis: FemBasis, kernel: TransitionKernel, r) -> GramSystem:
    """Assemble the r-weighted normal equations of the projection at the
    ``_panels`` nodes of ``_gram_panels``.  The reference density ``r`` need
    only be callable."""
    m = basis.num_elements
    quad_x, quad_w = _panels(*_gram_panels(basis, kernel))
    quad_w *= np.asarray(r(quad_x), dtype=float)
    finite = np.isfinite(quad_x) & np.isfinite(quad_w)
    if not finite.all():
        bad = int(np.argmin(finite))
        panel = bad // _ORDER
        where = f"element {panel}" if panel < m else f"tail panel {panel - m}"
        raise SolverError(f"non-finite reference weight in {where} (x={quad_x[bad]!r})")
    if not quad_w.any():
        raise ValueError("the reference density is 0 at every quadrature node; set more --elements")

    # One copy of L f, kept by the system: the rhs reads it, then dsyrk reads
    # it weighted by sqrt(w) in place and fills its upper triangle.  The
    # transposes are the Fortran-ordered views BLAS takes without a copy.
    lf = _lf(basis, kernel, quad_x, _ORDER)
    rhs = dgemv(1.0, lf.T, quad_w, trans=1)
    root_w = np.sqrt(quad_w)
    lf *= root_w
    matrix = dsyrk(1.0, lf.T, trans=1)
    # Mirrored, so exactly symmetric, _BLOCK columns at a time: a + 0 above
    # the diagonal and 0 + a^T below.
    for j in range(0, m + 1, _BLOCK):
        k = j + _BLOCK
        matrix[j:, j:k] = np.triu(matrix[j:, j:k]) + np.tril(matrix[j:k, j:].T, -1)
    # || |L f|^T w || as || |sqrt(w) L f|^T sqrt(w) ||, _BLOCK rows of |.| at a time.  It
    # can overflow where the entries do not, which would make solve_gram's tolerance infinite.
    abs_rhs = np.concatenate([dgemv(1.0, np.abs(lf[j:j + _BLOCK]).T, root_w, trans=1)
                              for j in range(0, m + 1, _BLOCK)])
    rhs_scale = float(np.linalg.norm(abs_rhs))
    if not (np.isfinite(matrix).all() and np.isfinite(rhs).all() and math.isfinite(rhs_scale)):
        raise SolverError("non-finite Gram entries; check the reference density scale")
    return GramSystem(
        matrix=matrix,
        rhs=rhs,
        reference=r,
        kernel=kernel,
        basis=basis,
        quad_x=quad_x,
        quad_w=quad_w,
        rhs_scale=rhs_scale,
        weighted_lf=lf,
    )


def solve_gram(system: GramSystem) -> tuple[np.ndarray, float, int, float]:
    """One pivoted Cholesky (``dpstrf``) solve of the Jacobi-scaled system
    S a S, S = diag(s), s_i = 1 / sqrt(a_ii) where a_ii > 0, else 0: the hats
    past its rank, at LAPACK's default tolerance, get coefficient 0.  Any
    vector reproducing the right-hand side is as good as any other, as the
    projection itself is unique, so the test is on the residual.  Returns
    (alpha, residual, rank, condition): the hats the factor kept, and
    ``dpocon``'s 1-norm condition estimate of the block it factored, from the
    whole scaled matrix's 1-norm (the block's while it keeps every hat of
    positive diagonal).  Raises SolverError at rank 0 or above the tolerance.
    """
    a, b = system.matrix, system.rhs
    # The rhs entries carry roundoff of order eps times their absolute-value
    # quadrature sums; no solver can push the residual below that noise.
    tol = max(_REL_TOL * float(np.linalg.norm(b)),
              100.0 * np.finfo(float).eps * system.rhs_scale)
    # A copy in dsyrk's Fortran order, so dpstrf factors it in place; its
    # 1-norm is taken first, _BLOCK columns of |.| at a time.
    scale = 1.0 / np.sqrt(np.where(np.diagonal(a) > 0.0, np.diagonal(a), np.inf))
    scaled = a * scale[:, None]
    scaled *= scale
    anorm = max(np.abs(scaled[:, j:j + _BLOCK]).sum(axis=0).max() for j in range(0, b.size, _BLOCK))
    factor, piv, rank, _ = dpstrf(scaled, lower=1, overwrite_a=1)
    if rank == 0:
        raise SolverError("the Gram matrix has no positive diagonal entry; check basis and quadrature")
    condition = 1.0 / dpocon(factor[:rank, :rank], anorm, uplo="L")[0]
    # Rows past the rank become the identity's, so dpotrs solves the first rank alone.
    factor[rank:] = 0.0
    np.fill_diagonal(factor[rank:, rank:], 1.0)
    pivots = piv - 1
    coeffs = scale[pivots] * b[pivots]
    coeffs[rank:] = 0.0
    alpha = np.empty(b.size)
    alpha[pivots] = scale[pivots] * dpotrs(factor, coeffs, lower=1)[0]
    res = float(np.linalg.norm(dsymv(1.0, a, alpha) - b))
    if not res <= tol:
        raise SolverError(f"Gram solve residual {res:.3e} exceeds tolerance {tol:.3e}; "
                          "check basis and quadrature", residual=res)
    return alpha, res, rank, condition


class RatioReconstruction:
    """Stationary-density estimate r * (1 - projection) / norm_sq.

    Solves ``system`` on construction: ``alpha``, ``residual``, ``rank`` and
    ``condition`` are the coefficients, residual, hats kept and 1-norm
    condition estimate of ``solve_gram``.  ``projected`` is the best
    approximation of the constant function inside the mapped test space,
    ``norm_sq`` the squared distance left over, and ``ratio``/``density``
    the resulting correction factor and density.  ``node_mass`` is w * ratio
    at the Gram's quadrature nodes, the density's mass at each node.
    """

    def __init__(self, system: GramSystem):
        if system.quad_w.size == 0:
            raise ValueError("the Gram system has no quadrature nodes")
        self.alpha, self.residual, self.rank, self.condition = solve_gram(system)
        self._system = system
        # The remainder sqrt(w) (1 - L f^T alpha) at the nodes, by one dgemv.
        root_w = np.sqrt(system.quad_w)
        remainder = root_w - dgemv(1.0, system.weighted_lf.T, self.alpha)
        self.norm_sq = float(remainder @ remainder)
        if not self.norm_sq > 0.0:
            raise SolverError(
                "projection captured the constant function (nonpositive remainder norm)"
            )
        # w (1 - L f^T alpha) / norm_sq, never dividing by r: it underflows.
        self.node_mass = root_w * remainder / self.norm_sq

    def projected(self, x):
        """The projected constant function, evaluable anywhere.

        sum alpha_i L f_i = P g - g for the g that interpolates alpha on the
        nodes and vanishes off the grid: each point combines alpha over its
        ``_pf_band`` window and subtracts g(x).  A point off the grid whose
        step's reach, ``_REACH_SD`` sd about its mean, misses the grid has
        no hat in its window and g(x) = 0, so its value is 0 unevaluated.
        The other points are evaluated in batches of ``_CHUNK``, and each
        point's value depends on that point alone.
        """
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        basis = self._system.basis
        means, sd = self._system.kernel.step_law(x_arr)
        off_grid = (x_arr < basis.grid_lo) | (x_arr > basis.grid_hi)
        beyond = np.maximum(basis.grid_lo - means, means - basis.grid_hi)
        near = np.flatnonzero(~(off_grid & (beyond > _REACH_SD * sd)))
        out = np.zeros(x_arr.size)
        for part, rows, pf in _pf_band(basis, means[near], sd):
            point = near[part]
            g = np.interp(x_arr[point], basis.nodes, self.alpha, left=0.0, right=0.0)
            out[point] = _combine_rows(self.alpha[rows], pf) - g
        return out if np.ndim(x) else float(out[0])

    def ratio(self, x):
        """Correction factor against the reference density."""
        return (1.0 - self.projected(x)) / self.norm_sq

    def density(self, x):
        """Unclipped stationary-density estimate."""
        out = np.asarray(self._system.reference(x), dtype=float) * self.ratio(x)
        return out if np.ndim(x) else float(out)

    def domain_mass(self) -> tuple[float, float]:
        """(raw mass, clipped-away negative mass) of ``node_mass`` on the elements."""
        element = self.node_mass[: _ORDER * self._system.basis.num_elements]
        return float(element.sum()), float(np.clip(-element, 0.0, None).sum())

    def bin_masses(self, edges: np.ndarray) -> np.ndarray:
        """Per-bin integrals of the clipped density.

        Each bin is split into pieces at the Gram's panel boundaries.  Inside
        a panel the density is analytic (its kinks lie at basis nodes), so a
        piece [a, b] takes the integral of the interpolant of its panel's
        clipped ``node_mass`` nu, sum_j max(nu_j, 0) (B_j(u_b) - B_j(u_a))
        (``_gauss_legendre``), clipped at 0; u in [-1, 1] is the panel's
        coordinate.  Beyond the outermost panels, with no nodes, a piece
        takes ``_panels`` on the clipped ``density``.
        """
        edges = np.asarray(edges, dtype=float)
        left, width = _gram_panels(self._system.basis, self._system.kernel)
        order = np.argsort(left)
        bounds = np.append(left[order], left[order[-1]] + width[order[-1]])
        within = bounds[(bounds > edges[0]) & (bounds < edges[-1])]
        cuts = np.unique(np.concatenate([edges, within]))
        a, b = cuts[:-1], cuts[1:]
        slot = np.searchsorted(bounds, (a + b) / 2.0, side="right") - 1
        inside = (slot >= 0) & (slot < order.size)
        panel = order[slot[inside]]
        u_a, u_b = (np.clip(2.0 * (end[inside] - left[panel]) / width[panel] - 1.0, -1.0, 1.0)
                    for end in (a, b))
        legvander = np.polynomial.legendre.legvander
        span = legvander(u_b, _ORDER) - legvander(u_a, _ORDER)  # P_k(u_b) - P_k(u_a)
        nu = np.clip(self.node_mass, 0.0, None).reshape(-1, _ORDER)[panel]
        piece = np.empty(a.size)
        piece[inside] = np.clip(np.einsum("ik,kj,ij->i", span, _gauss_legendre(_ORDER)[2], nu),
                                0.0, None)
        x, w = _panels(a[~inside], (b - a)[~inside])
        piece[~inside] = (w * np.clip(self.density(x), 0.0, None)).reshape(-1, _ORDER).sum(axis=1)
        bins = np.searchsorted(edges, a, side="right") - 1
        return np.bincount(bins, weights=piece, minlength=edges.size - 1)

    def table(self, grid: np.ndarray) -> tuple[np.ndarray, dict]:
        """Clipped, domain-renormalized samples plus diagnostics.

        Returns (density on ``grid``, diagnostics dict).  Diagnostics report
        the remainder norm, the Gram solve's residual, its 1-norm condition
        estimate and rank (``solve_gram``) and the clipped-away mass.  Each
        keeps only the digits it has: the condition number moves by about
        1e-8 relative when the Gram entries move by roundoff, so it keeps 6
        significant digits, and the residual is roundoff itself, so it keeps 1.
        """
        raw_mass, clipped_mass = self.domain_mass()
        diagnostics = {
            "norm_sq": self.norm_sq,
            "residual": float(f"{self.residual:.1g}"),
            "condition_estimate": float(f"{self.condition:.6g}"),
            "rank": self.rank,
            "clipped_mass": clipped_mass,
        }
        density = np.clip(np.atleast_1d(self.density(grid)), 0.0, None)
        return density / (raw_mass + clipped_mass), diagnostics


def project_stationary_density(
    d: DiffusionParams,
    mu: float,
    num_elements: int = 160,
    grid_lo: float | None = None,
    grid_hi: float | None = None,
):
    """End-to-end pipeline: proxy reference, basis, assembly, solve, rebuild.

    Returns (basis, system, reconstruction).  Refuses with ValueError,
    before building the basis, an assembly that would take over
    ``model.memory_budget``: it holds L f, (m + 1) x q, and two (m + 1)^2
    Gram arrays at once.
    """
    m = num_elements
    q = _ORDER * (m + 2 * _REACH_SD)  # the nodes assemble_gram makes
    check_budget(8 * (m + 1) * (q + 2 * m + 2),
                 f"the Gram assembly of {m} elements needs", "set fewer --elements")
    r = proxy_density(d, mu)
    basis = build_basis(*working_domain(d, grid_lo, grid_hi), num_elements)
    kernel = TransitionKernel(diffusion=d, service_prob=mu)
    system = assemble_gram(basis, kernel, r)
    return basis, system, RatioReconstruction(system)
