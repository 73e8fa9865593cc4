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
need quadrature: fixed-order Gauss-Legendre per element plus composite
panels marching down the two semi-infinite tails beyond the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, svdvals
from scipy.linalg.blas import dgemv, dsymv, dsyrk
from scipy.special import ndtr

from .model import DiffusionParams
from .diffusion import TransitionKernel, proxy_density

_SQRT2PI = math.sqrt(2.0 * math.pi)
# Bound on |projected| below which it is taken as 0: far under the 2^-54 that
# 1 - projected would need to differ from 1.0.
_FAR_FIELD = 2.0**-60
# Points per batch of hat evaluations: the (basis size x points) temporaries
# of one batch stay small enough to be reused from cache.
_CHUNK = 512
# Residual a Gram solve may leave, relative to the norm of its right-hand side.
_REL_TOL = 1e-8


class GramError(RuntimeError):
    """Gram assembly or solve failed in a way that signals misconfiguration."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


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

    def hat_matrix(self, x) -> np.ndarray:
        """Values of every hat at the points ``x``; shape (size, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        h = self.width
        tent = 1.0 - np.abs(x[None, :] - self.nodes[:, None]) / h
        inside = (x >= self.grid_lo) & (x <= self.grid_hi)
        return np.clip(tent, 0.0, None) * inside[None, :]


def build_basis(grid_lo: float, grid_hi: float, m: int) -> FemBasis:
    """Uniform basis with ``m`` elements; zero must land on a node.

    The kernel's conditional mean is non-smooth at zero, so zero has to be
    resolvable by the element boundaries; inputs whose uniform grid misses it
    are rejected.
    """
    if not grid_lo < 0.0 < grid_hi:
        raise ValueError(
            f"the working domain must straddle zero, got ({grid_lo!r}, {grid_hi!r})"
        )
    if m < 4:
        raise ValueError(f"need at least 4 elements, got {m!r}")
    h = (grid_hi - grid_lo) / m
    j0 = round(-grid_lo / h)
    if abs(grid_lo + j0 * h) > 1e-9 * h or not 0 < j0 < m:
        raise ValueError(
            "zero must be a node of the uniform grid (the kernel changes branch there); "
            f"got grid ({grid_lo!r}, {grid_hi!r}) with {m} elements"
        )
    # Anchor the grid at the zero node so it is exact, not merely close.
    nodes = (np.arange(m + 1) - j0) * h
    return FemBasis(
        grid_lo=float(nodes[0]), grid_hi=float(nodes[-1]), num_elements=m, nodes=nodes
    )


def default_domain(d: DiffusionParams) -> tuple[float, float]:
    """Working domain covering the Gaussian branch to 6 sd and the
    exponential branch to twelve e-folds of decay."""
    if d.tail_rate <= 0.0:
        raise ValueError("default domain needs a stable regime (positive tail rate)")
    lo = d.gaussian_center - 6.0 * math.sqrt(d.ou_variance)
    hi = 12.0 / d.tail_rate
    return lo, hi


def default_basis(d: DiffusionParams, m: int) -> FemBasis:
    """Basis on the default domain, shifted minimally so zero is a node."""
    lo, hi = default_domain(d)
    h = (hi - lo) / m
    j0 = min(max(round(-lo / h), 1), m - 1)
    lo = -j0 * h
    return build_basis(lo, lo + m * h, m)


def _piece_integrals(breaks: np.ndarray, means: np.ndarray, sd: float):
    """Gaussian moments over each interval of ``breaks``, per mean.

    Returns (I0, I1) of shape (n_pieces, n_means): the Gaussian mass and
    first moment of Normal(mean, sd^2) restricted to each piece.  Uses the
    survival function on the right half so far-tail masses keep relative
    precision.  One ndtr per break and mean: the smaller tail ndtr(-|z|) is
    the cdf left of the mean and the survival function right of it, and the
    other one is its complement.  For |z| >= 1 that complement is exactly
    ndtr's own value.
    """
    z = (breaks[:, None] - means[None, :]) / sd
    tail = ndtr(-np.abs(z))
    rest = 1.0 - tail
    right = z > 0.0
    cdf = np.where(right, rest, tail)
    sf = np.where(right, tail, rest)
    pdf = np.exp(-0.5 * z * z) / _SQRT2PI
    use_sf = (z[:-1] + z[1:]) > 0.0
    i0 = np.where(use_sf, sf[:-1] - sf[1:], cdf[1:] - cdf[:-1])
    i1 = means[None, :] * i0 + sd * (pdf[:-1] - pdf[1:])
    return i0, i1


def _pf_hats(t: np.ndarray, h: float, kernel: TransitionKernel, x: np.ndarray) -> np.ndarray:
    """P applied to the hat of every breakpoint in ``t``, at the points ``x``.

    The hats interpolate on the pieces of ``t``, a uniform grid of width
    ``h``, and vanish outside it, so the first and last are half hats.
    Returns shape (len(t), len(x)).
    """
    d = kernel.diffusion
    means = np.asarray(kernel.step_base(x), dtype=float) + d.drift
    sd = math.sqrt(d.variance)
    i0, i1 = _piece_integrals(t, means, sd)
    up = (i1 - t[:-1, None] * i0) / h
    down = (t[1:, None] * i0 - i1) / h
    pf = np.zeros((t.size, x.size))
    pf[1:] += up
    pf[:-1] += down
    return pf


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


def lf_hat_matrix(basis: FemBasis, kernel: TransitionKernel, x) -> np.ndarray:
    """L applied to every hat (P f - f) at the points ``x``.

    A point of the grid in element j is covered by hats j and j + 1 only,
    but rounding of the node positions can leave a hat one node further
    slightly positive at a node.  So hats j - 1 to j + 2 are subtracted, each
    by the formula of ``FemBasis.hat_matrix``; the rest are zero there.
    P f is evaluated in batches of ``_CHUNK`` points.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lf = np.empty((basis.size, x.size))
    for start in range(0, x.size, _CHUNK):
        part = slice(start, start + _CHUNK)
        lf[:, part] = _pf_hats(basis.nodes, basis.width, kernel, x[part])
    cols = np.flatnonzero((x >= basis.grid_lo) & (x <= basis.grid_hi))
    h = basis.width
    m = basis.num_elements
    element = np.clip(np.floor((x[cols] - basis.grid_lo) / h).astype(np.intp), 0, m - 1)
    for offset in (-1, 0, 1, 2):
        k = element + offset
        ok = (k >= 0) & (k <= m)
        hat, col = k[ok], cols[ok]
        tent = 1.0 - np.abs(x[col] - basis.nodes[hat]) / h
        lf[hat, col] -= np.clip(tent, 0.0, None)
    return lf


def _gauss_legendre01(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return (nodes + 1.0) / 2.0, weights / 2.0


@dataclass(frozen=True, eq=False)
class GramSystem:
    """Assembled normal equations of the projection, plus quadrature state.

    ``matrix`` holds the pairwise r-weighted inner products of the mapped
    basis, ``rhs`` their inner products with the constant function.  The
    quadrature nodes, weights (r included), and mapped-basis values are kept
    so the reconstruction reuses exactly the same discrete inner product.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    reference: object
    kernel: TransitionKernel
    basis: FemBasis
    quad_x: np.ndarray
    quad_w: np.ndarray
    lf: np.ndarray
    e_mass: float
    n_core: int
    rhs_scale: float = 1.0


def _tail_segments(r, cut: float, step_sd: float, outward: float) -> list[tuple[float, float]]:
    """Segments marching away from ``cut``, one step-sd long each.

    Stops once the reference has shed 45 e-folds of its tail mass or after
    ten step standard deviations, beyond which the mapped basis functions
    are zero to double precision.
    """
    def remaining(x: float) -> float:
        c = float(r.cdf(x))
        return c if outward < 0 else 1.0 - c

    total = remaining(cut)
    if total <= 1e-280:
        return []
    segments = []
    a = cut
    for _ in range(10):
        b = a + outward * step_sd
        segments.append((a, b))
        if remaining(b) <= math.exp(-45.0) * total:
            break
        a = b
    return segments


def assemble_gram(
    basis: FemBasis,
    kernel: TransitionKernel,
    r,
    quad_order: int = 16,
    tail_order: int = 24,
) -> GramSystem:
    """Assemble the r-weighted normal equations of the projection.

    The reference density ``r`` must be callable and expose a ``cdf``.  The
    two semi-infinite tails beyond the grid are integrated by composite
    Gauss-Legendre panels, one kernel-step standard deviation long, marched
    outward until either the reference mass or the mapped basis functions
    are exhausted.
    """
    u, wu = _gauss_legendre01(quad_order)
    t = basis.nodes
    h = basis.width
    core_x = (t[:-1, None] + h * u[None, :]).ravel()
    core_w = (h * np.tile(wu, basis.num_elements)) * np.asarray(r(core_x), dtype=float)
    if not np.isfinite(core_w).all():
        bad = int(np.argmin(np.isfinite(core_w)))
        raise GramError(
            f"non-finite reference weight in element {bad // quad_order} "
            f"(x={core_x[bad]!r})"
        )

    ut, wut = _gauss_legendre01(tail_order)
    step_sd = math.sqrt(kernel.diffusion.variance)
    xs = [core_x]
    ws = [core_w]
    for cut, outward in ((basis.grid_lo, -1.0), (basis.grid_hi, +1.0)):
        for a, b in _tail_segments(r, cut, step_sd, outward):
            seg_x = a + (b - a) * ut
            xs.append(seg_x)
            ws.append(abs(b - a) * wut * np.asarray(r(seg_x), dtype=float))
    quad_x = np.concatenate(xs)
    quad_w = np.concatenate(ws)
    if not (np.isfinite(quad_x).all() and np.isfinite(quad_w).all()):
        raise GramError("tail quadrature produced non-finite nodes or weights")

    lf = lf_hat_matrix(basis, kernel, quad_x)
    weighted = lf * np.sqrt(quad_w)[None, :]
    # dsyrk fills the upper triangle of weighted @ weighted.T; mirroring it
    # makes the matrix exactly symmetric.  The transposes are the Fortran-
    # ordered views BLAS takes without a copy.
    upper = dsyrk(1.0, weighted.T, trans=1)
    matrix = np.triu(upper) + np.triu(upper, 1).T
    rhs = dgemv(1.0, lf.T, quad_w, trans=1)
    if not (np.isfinite(matrix).all() and np.isfinite(rhs).all()):
        raise GramError("non-finite Gram entries; check the reference density scale")
    return GramSystem(
        matrix=matrix,
        rhs=rhs,
        reference=r,
        kernel=kernel,
        basis=basis,
        quad_x=quad_x,
        quad_w=quad_w,
        lf=lf,
        e_mass=float(quad_w.sum()),
        n_core=core_x.size,
        rhs_scale=float(np.linalg.norm(dgemv(1.0, np.abs(lf).T, quad_w, trans=1))),
    )


def solve_gram(system: GramSystem) -> tuple[np.ndarray, float]:
    """Cholesky solve of the assembled system, with a tiny diagonal shift.

    The shift alone leaves a residual of about shift * |alpha|, so two steps
    of iterative refinement against the unshifted matrix reuse the shifted
    factor to remove it.  The acceptance test is on the residual: any
    coefficient vector reproducing the right-hand side is as good as any
    other, because the projection itself is unique.  Returns (alpha,
    residual).  Raises GramError if the factorization fails or the residual
    exceeds the tolerance.
    """
    a = system.matrix
    b = system.rhs
    m = b.size
    shift = 1e-12 * np.trace(a) / m
    # The rhs entries carry roundoff of order eps times their absolute-value
    # quadrature sums; no solver can push the residual below that noise.
    tol = max(
        _REL_TOL * float(np.linalg.norm(b)), 100.0 * np.finfo(float).eps * system.rhs_scale
    )
    try:
        factor = cho_factor(a + shift * np.eye(m), lower=True)
    except np.linalg.LinAlgError as err:
        raise GramError(f"Gram factorization failed: {err}; check basis and quadrature")
    alpha = cho_solve(factor, b)
    for _ in range(2):
        alpha += cho_solve(factor, b - dsymv(1.0, a, alpha))
    res = float(np.linalg.norm(dsymv(1.0, a, alpha) - b))
    if not res <= tol:
        raise GramError(
            f"Gram solve residual {res:.3e} exceeds tolerance {tol:.3e}; "
            "check basis and quadrature",
            residual=res,
        )
    return alpha, res


class RatioReconstruction:
    """Stationary-density estimate r * (1 - projection) / norm_sq.

    Solves ``system`` on construction: ``alpha`` and ``residual`` are the
    coefficients and residual of ``solve_gram``.  ``projected`` is the best
    approximation of the constant function inside the mapped test space,
    ``norm_sq`` the squared distance left over, and ``ratio``/``density``
    the resulting correction factor and density.
    """

    def __init__(self, system: GramSystem):
        alpha, self.residual = solve_gram(system)
        self._system = system
        self.alpha = alpha
        norm_sq = float(
            system.e_mass - 2.0 * alpha @ system.rhs + alpha @ dsymv(1.0, system.matrix, alpha)
        )
        if norm_sq <= 0.0:
            raise GramError(
                "projection captured the constant function (nonpositive remainder norm)"
            )
        self.norm_sq = norm_sq

    def projected(self, x):
        """The projected constant function, evaluable anywhere.

        Off the grid the hats vanish, so |alpha . L f(x)| is at most
        sum |alpha_i| times the mass of the step from x that lands on the
        grid.  Where that bound is below ``_FAR_FIELD`` the hats are not
        evaluated and the value is 0; 1 - projected rounds to 1.0 either way.
        The other points are evaluated in batches of ``_CHUNK``, and each
        point's value depends on that point alone.
        """
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        basis, kernel = self._system.basis, self._system.kernel
        means = np.asarray(kernel.step_base(x_arr), dtype=float) + kernel.diffusion.drift
        beyond = np.maximum(basis.grid_lo - means, means - basis.grid_hi)
        reach = ndtr(-beyond / math.sqrt(kernel.diffusion.variance))
        off_grid = (x_arr < basis.grid_lo) | (x_arr > basis.grid_hi)
        near = np.flatnonzero(~off_grid | (np.abs(self.alpha).sum() * reach >= _FAR_FIELD))
        out = np.zeros(x_arr.size)
        for start in range(0, near.size, _CHUNK):
            part = near[start : start + _CHUNK]
            out[part] = _combine_rows(self.alpha, lf_hat_matrix(basis, kernel, x_arr[part]))
        return out if np.ndim(x) else float(out[0])

    def ratio(self, x):
        """Correction factor against the reference density."""
        out = (1.0 - np.atleast_1d(self.projected(x))) / self.norm_sq
        return out if np.ndim(x) else float(out[0])

    def density(self, x):
        """Unclipped stationary-density estimate."""
        out = np.atleast_1d(np.asarray(self._system.reference(x), dtype=float)) * np.atleast_1d(
            self.ratio(x)
        )
        return out if np.ndim(x) else float(out[0])

    def domain_mass(self) -> tuple[float, float]:
        """(raw mass, clipped-away negative mass) over the working domain."""
        sl = slice(0, self._system.n_core)
        q = (1.0 - _combine_rows(self.alpha, self._system.lf[:, sl])) / self.norm_sq
        w = self._system.quad_w[sl]
        raw = float(w @ q)
        clipped = float(w @ np.clip(-q, 0.0, None))
        return raw, clipped

    def bin_masses(self, edges: np.ndarray, points_per_bin: int = 8) -> np.ndarray:
        """Per-bin integrals of the clipped density.

        The density has derivative kinks at every basis node, so each bin is
        split there before applying the fixed-order panel rule; every panel
        then integrates a smooth piece.
        """
        edges = np.asarray(edges, dtype=float)
        nodes = self._system.basis.nodes
        interior = nodes[(nodes > edges[0]) & (nodes < edges[-1])]
        cuts = np.unique(np.concatenate([edges, interior]))
        u, wu = _gauss_legendre01(points_per_bin)
        widths = np.diff(cuts)
        x = (cuts[:-1, None] + widths[:, None] * u[None, :]).ravel()
        vals = np.clip(self.density(x), 0.0, None).reshape(-1, points_per_bin)
        panel = widths * _combine_rows(wu, vals.T)
        masses = np.zeros(edges.size - 1)
        np.add.at(masses, np.searchsorted(edges, cuts[:-1], side="right") - 1, panel)
        return masses

    def table(self, grid: np.ndarray) -> tuple[np.ndarray, dict]:
        """Clipped, domain-renormalized samples plus diagnostics.

        Returns (density on ``grid``, diagnostics dict).  Diagnostics report
        the Gram solve's residual and 2-norm condition number, the raw mass
        before any clipping, the clipped-away mass, and the largest negative
        excursion on the requested grid.
        """
        raw_vals = np.atleast_1d(self.density(grid))
        raw_mass, clipped_mass = self.domain_mass()
        clipped = np.clip(raw_vals, 0.0, None)
        positive_mass = raw_mass + clipped_mass
        singular = svdvals(self._system.matrix)
        diagnostics = {
            "norm_sq": self.norm_sq,
            "residual": self.residual,
            "condition_estimate": float(singular[0] / singular[-1]),
            "raw_mass": raw_mass,
            "clipped_mass": clipped_mass,
            "max_clip": float(np.clip(-raw_vals, 0.0, None).max()),
        }
        return clipped / positive_mass, diagnostics


def project_stationary_density(
    d: DiffusionParams,
    mu: float,
    num_elements: int = 160,
    grid_lo: float | None = None,
    grid_hi: float | None = None,
):
    """End-to-end pipeline: proxy reference, basis, assembly, solve, rebuild.

    Returns (basis, system, reconstruction).
    """
    r = proxy_density(d, mu)
    if grid_lo is None or grid_hi is None:
        basis = default_basis(d, num_elements)
    else:
        basis = build_basis(grid_lo, grid_hi, num_elements)
    kernel = TransitionKernel(diffusion=d, service_prob=mu)
    system = assemble_gram(basis, kernel, r)
    return basis, system, RatioReconstruction(system)
