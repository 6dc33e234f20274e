"""Finite-difference machinery: the regularized dual equation, the
dual-to-primal transform, the nonlinear-operator residual, and the
supersolution verifier.

The dual equation is one linear backward equation on (x_1..x_d, q),

    w_t + 1/2 sum_ij A_ij d_i d_j w = 0,

    A = [[ alpha,              sigma theta q           ],
         [ (sigma theta q)',   (|theta|^2 + eps^2) q^2 ]],   alpha = sigma sigma',

with terminal data (q - g(x))^+.  `_coefficients` is the one place that
evaluates the model; the solver and the primal residual read it.

The solver steps it in characteristic coordinates, v(t, x, eta) =
w(t, x, e^(eta + phi(x))) with grad phi = sigma'^{-1} theta (`_phase`),
where the x-eta cross terms vanish identically:

    v_t + 1/2 sum_ij alpha_ij v_{x_i x_j} + 1/2 eps^2 v_etaeta
        - 1/2 (sum_ij alpha_ij phi_ij + |theta|^2 + eps^2) v_eta = 0.

For bessel3 phi = log x and v = x f(eta); for gbm phi is linear in log x.
The eta drift taken is the one whose discrete operator annihilates q =
e^(eta + phi): the drift above up to O(dx^2 + de^2).  Mixed terms remain
only between x axes (gbm with a full volatility matrix), at the model's
own correlation.  Since q solves the equation, on the grid as well, the
solver steps u = v - q, which solves it too: on the slope-1 tail of every
slice, w = q - c(x) with c = E[Z_T g(X_T)] the p = 1 (superhedging)
capital, u = -c(x) does not depend on eta, and the edges and the
read-back below need no term of q.

Time stepping is Douglas ADI in delta form (Douglas & Rachford 1956), on
one step length h = dt / r_t for r_t time refinements.  The operator
describes each axis once, x_1..x_d then eta, by its interior three-point
weights (`bands`) and the node beyond each end as a near + b far
(`ends`), and builds from them, once per solve, the stencil of h F (F
the whole discrete operator, x-x mixed terms included) and each implicit
sweep's factors (`_factor`).  A substep takes the increment z = h F(W) in
one explicit pass, solves (I - th A_i) z_i = z_(i-1) one axis at a time
(`sweep`) and sets W <- W + z.  The first _RANNACHER_STEPS steps are each
two implicit Euler half steps (Rannacher startup: theta = 1 on h / 2),
which halve z, exactly; the rest are Crank-Nicolson (theta = 1/2 on h),
so every substep sweeps at th = theta h' = h / 2.  A sweep is one
tridiagonal system per line, swept axis first and every other axis a
lane, factored once per solve (_kernels.factor_lines) and solved by one
Thomas recurrence per substep (_kernels.thomas_batch) on all lanes at
once, in place on the increment, or along eta on one eta-first copy.  The
Thomas kernel does not pivot: it is stable where the rows are diagonally
dominant, in every x sweep (slack 1), and in the eta sweep while h (|ce1|
- ce2) <= 1, which a strong eta drift on a coarse t axis can break.

Every state u a substep starts from satisfies the edge relations below:
apply_bc sets them on the terminal data, max(-q, -g(x)), after each
substep, and after the projection onto w >= 0, u >= -q, at each output
level, which clips the x edges (project, then restore the edges).  The
sweeps act on the increment, so with the relations holding their end
terms vanish, and the step is the standard Douglas step with the edges
folded in.

Edges, folded into the sweeps: at both ends of each (non-uniform) x axis
u is extrapolated linearly at fixed eta, exact where q is large.  The
uniform eta axis has as many nodes as the padded q axis would have (more
on the numeraire routes below).  At its bottom w = 0, u = -q,
which errs by at most the q there (0 <= w <= q), at most e^-_ETA_MARGIN
times the smallest requested positive q at every requested x; at its
top, which reaches the padded q_max at every requested x, w_q = 1: u
repeats the node below.  u is fixed at the bottom and repeats at the top
whatever the step, so the increments' relations are homogeneous at every
edge.  Requested nodes are read back by cubic interpolation of u in eta
(`read`), in Newton form on the stencil's differences, which the
convexity clamp shares, plus the requested q: exact on the slope-1 tail,
where every difference is 0, and clamped at 0, since a restored x edge
can dip below it; q <= 0 reads 0, and the terminal level is (q - g(x))^+
itself.

The numeraire routes.  The price-ratio route (`_price_ratio`): a builtin
gbm in d = 2 with a 1-homogeneous payoff, g(c x) = c g(x) (w1 x1 + w2 x2
is one), is scale-free.  With x2 as numeraire (Geman, El Karoui &
Rochet, J. Appl. Probab. 1995), Z g(X) = x2 Z^ g~(rho) with rho = X1 /
X2, Z^ = Z X2 / x2 and g~(rho) = g(rho, 1).  rho is a gbm with b~ = b1 -
b2 + |s2|^2 - s1.s2 and s~ = |s1 - s2| (s1, s2 the rows of s), whose own
deflator is the part of Z^ along rho's noise; the rest of Z^ is an
independent mean-one lognormal with volatility nu, nu^2 = |s2 - theta|^2
- (b~ / s~)^2, which smears like eps.  So, exactly,

    w(t, x1, x2, q) = x2 w~(t, x1 / x2, q / x2),

with w~ the d = 1 dual of that gbm at eps_eff = sqrt(eps^2 + nu^2).  Where
the two x axes are log-uniform with one common log step, every x1_i /
x2_j is a node of one log-uniform rho axis; where, in addition, g(x1_i,
x2_j) = x2_j g~(x1_i / x2_j) holds to rounding on the grid's mesh (the
route's test of homogeneity), solve_dual_pde solves w~ there with the
d = 1 solver (its default pad a quarter of the rho axis, its eta axis
twice the cells of the padded q axis) instead of the Douglas solve on
the d = 2 mesh.  The read-back is one map over targets, built
once: each is a rho row, a q read at q / x2 (its eta shifted by log x2)
and a factor x2, and reads w = x2 u~ + q.  The d = 1 read is the same
map with the requested rows and a factor of 1.  Every other d = 2 input
takes the direct solve: custom models (those with a constant (s s')^{-1}
b), gbm on axes with different log steps, and payoffs that are not
1-homogeneous.

The numeraire route, d = 1 (`_stock_numeraire`): the same change of
numeraire with nothing left to take a ratio of.  For g = c x, the stock itself as numeraire
gives w(t, x, q) = x f(t, q / x): substituted into the dual equation, the
x-x, x-q and q-q terms collapse onto y = q / x, to

    f_t + 1/2 y^2 ((s - theta)^2 + eps^2) f_yy = 0,   f(T, y) = (y - c)^+,

with s the relative volatility.  Where s - theta is a constant nu, the
log-volatility of the deflated price Z X, f is the dual with no x axis at
eps_eff = sqrt(eps^2 + nu^2): for every builtin gbm, nu = |s - b / s|,
and for bessel3, where s = theta = 1 / x and Z X = x0, nu = 0.  So a
builtin gbm or bessel3 whose payoff is g = c x with c = g(1) > 0 (to
1e-9 relative; linear_payoff() is one) on the x mesh the direct solve
would step, its pad included, is solved on the eta axis alone, eta = log
y; each target (x_i, q) reads that one line at q / x_i with factor x_i,
through the same read map, every target's row being the line's.  The
test takes the pad because the direct solve evaluates g there: min(x1,
x_max) is x1 on the requested nodes, and the route would drop its cap.
The line spans the q axis and log(x_max / x_min), which the direct solve
resolves on its x axis, so it takes twice the cells of the padded q axis
and at most the refined x axis's mean log step between nodes (no more
nodes than the direct solve's state), and it is shifted by under a cell
so that the terminal data's one kink, at eta = log c, sits mid-cell: on
a node it erred 3-4 times more.  Every other d = 1 input takes the
direct solve: custom models (the tests solve each builtin's custom twin
there), and payoffs that are not c x.

f also has a closed form, the lognormal one that oracles.gbm_dual_smeared
and bessel_dual_smeared evaluate; the route solves it numerically all the
same.  Those closed forms are what the solver is checked against, by the
tests and by the benchmark's accuracy metrics on its gbm and bessel3
workloads, and these builtins with g = c x are the only inputs that have
one: evaluating it on the route would leave those checks comparing the
oracle with itself, where they now measure the scheme every other input
is solved with.

Memory: beyond the surface it returns, the solve holds the state, which
each substep updates in place, -q on the state's nodes, one increment of
the state's interior and the eta sweep's eta-first copy of it, the
sweeps' factors, the read-back's data per target (stencil index, offset
and two convexity bounds, 8 B each, and a flag) and slab-sized scratch.
The eta sweep's factors have the increment's size; the x sweeps' keep
their bands' shape, one value per line broadcast over the eta lanes,
except in d = 1 (see `_factor`).  The explicit pass and the read-back work
one slab of the first x axis at a time, as many rows as keep one slab
array within _SLAB_BYTES (at least one), and the read-back's slabs reuse
the memory of the increment.  On the d = 2 benchmark grid (48^2 x, 64 q)
the price-ratio route peaks 8.2 MiB above its 36.0 MiB surface
(tracemalloc): 4.6 MiB of read-back data for its 48^2 x 63 targets, 1.8
MiB in its eight read slabs, and its (141 rho, 175 eta) state, 0.19 MiB
each, with the sweeps.  The direct solve of a custom model with the same
coefficients peaks 15.5 MiB above the surface there.  On the numeraire
route the state, -q, the increment and the sweep's factors are one eta
line each (671 nodes on the pipeline grid, 128 x, 128 q), and the
working set is the read-back's: there the solve peaks 1.70 MiB above its
8.0 MiB surface, 0.51 MiB of read data for its 128 x 127 targets and 0.99
MiB in its eight read slabs, where the direct solve of the gbm's custom
twin peaks 3.87 MiB above it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .duality import convex_envelope_rows
from .errors import (
    ArgmaxAtBoundary,
    DimensionUnsupported,
    DomainMismatch,
    Nonfinite,
)
from .market import MarketModel, Payoff, builtin_model
from .surfaces import GridSpec, Surface


def _d2_weights(x: np.ndarray):
    """Three-point second-derivative weights on a non-uniform axis (interior)."""
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    wl = 2.0 / (hm * (hm + hp))
    wc = -2.0 / (hm * hp)
    wr = 2.0 / (hp * (hm + hp))
    return wl, wc, wr


def _mesh(x_axes) -> np.ndarray:
    """Every node of the x mesh as an (n_nodes, d) array, in C order."""
    return np.stack(np.meshgrid(*x_axes, indexing="ij"), axis=-1).reshape(-1, len(x_axes))


def _coefficients(model: MarketModel, x_axes, eps: float):
    """sigma (..., d, d), theta (..., d) and A (..., d+1, d+1) on the x mesh.

    A is the dual operator's matrix with the q factors taken out: alpha on
    the x block, sigma theta in the x-q entries, |theta|^2 + eps^2 in the
    q-q entry.  The primal residual uses it as it is."""
    shape = tuple(ax.size for ax in x_axes)
    d = len(x_axes)
    mesh = _mesh(x_axes)
    sigma = model.sigma(mesh).reshape(shape + (d, d))
    theta = model.theta(mesh).reshape(shape + (d,))
    A = np.empty(shape + (d + 1, d + 1))
    A[..., :d, :d] = sigma @ np.swapaxes(sigma, -1, -2)
    stheta = np.einsum("...ij,...j->...i", sigma, theta)
    A[..., :d, d] = stheta
    A[..., d, :d] = stheta
    A[..., d, d] = (theta * theta).sum(axis=-1) + eps * eps
    return sigma, theta, A


def _phase(x_axes, sigma: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """phi with grad phi = sigma'^{-1} theta on the x mesh, up to a constant:
    the cumulative trapezoid in y = log x of its gradient there, psi =
    diag(x) sigma'^{-1} theta = (s s')^{-1} b.  Exact where psi is constant
    (bessel3, every gbm), second order otherwise; in d = 2 a psi that varies
    need not be a gradient, and raises DimensionUnsupported."""
    d = len(x_axes)
    x = _mesh(x_axes).reshape(sigma.shape[:-1])
    psi = x * np.linalg.solve(np.swapaxes(sigma, -1, -2), theta[..., None])[..., 0]
    ys = [np.log(ax) for ax in x_axes]
    if d == 1:
        p = psi[:, 0]
        return np.concatenate(([0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(ys[0]))))
    mean = psi.reshape(-1, d).mean(axis=0)
    if not np.allclose(psi, mean, rtol=1e-9, atol=1e-12):
        raise DimensionUnsupported("the dual solver needs a constant (s s')^{-1} b "
                                   "in d = 2 (a gbm-type model)")
    return sum(_along(m * y, i, d) for i, (m, y) in enumerate(zip(mean, ys)))


_LO, _MID, _HI = slice(None, -2), slice(1, -1), slice(2, None)


def _view(W: np.ndarray, lead: int, shifts=()) -> np.ndarray:
    """W on the interior nodes of every axis from `lead` on, moved one node
    down (_LO) or up (_HI) along the axes given as (axis, slice) pairs."""
    idx = [slice(None)] * lead + [_MID] * (W.ndim - lead)
    for axis, s in shifts:
        idx[axis] = s
    return W[tuple(idx)]


def _along(v: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """A 1-d array shaped to broadcast along `axis` of an ndim array."""
    shape = [1] * ndim
    shape[axis] = -1
    return v.reshape(shape)


def _second_diff(W: np.ndarray, axis: int, weights, lead: int = 0) -> np.ndarray:
    """Three-point second difference along `axis` (interior nodes)."""
    wl, wc, wr = (_along(w, axis, W.ndim) for w in weights)
    return (wl * _view(W, lead, ((axis, _LO),)) + wc * _view(W, lead)
            + wr * _view(W, lead, ((axis, _HI),)))


def _cross_diff(W: np.ndarray, i: int, j: int, lead: int = 0) -> np.ndarray:
    """Central cross difference along axes i and j (interior nodes), not
    yet divided by the product of the two-cell spans."""
    return (_view(W, lead, ((i, _HI), (j, _HI))) - _view(W, lead, ((i, _HI), (j, _LO)))
            - _view(W, lead, ((i, _LO), (j, _HI))) + _view(W, lead, ((i, _LO), (j, _LO))))


# how far, in log q, the eta axis reaches below every requested q > 0
_ETA_MARGIN = 0.75

# bytes of one slab-sized array: the dual solver's explicit pass and
# read-back and the verifier's residual work through an array one slab of
# its first axis at a time, as many rows as fit in this, at least one.
# For the verifier 256 kB was the fastest of 128 kB to 2 MB on the 128^2
# and 256^2 pipeline primals
_SLAB_BYTES = 1 << 18


def _slab_rows(shape) -> int:
    """Rows of axis 0 in one slab of a float array of this shape."""
    return max(1, _SLAB_BYTES // (8 * math.prod(shape[1:])))


def _carve(pool: np.ndarray, shapes) -> list:
    """Consecutive views of the flat array pool, one per shape."""
    views, at = [], 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(pool[at:at + n].reshape(shape))
        at += n
    return views


class _DualOperator:
    """Workspace for the dual solve on (x_1..x_d, eta) with step length h:
    coefficients on the interior nodes, the stencil of h F, the sweeps
    factored at th = h / 2, the edges and the read-back to the targets,
    with the buffers they reuse.  gx is the payoff g on the x mesh, in its
    shape; the terminal state is max(-q, -g).  A target is a requested x
    node, by the flat index of its row of the state in `rows`, times each
    requested q; it reads the state at q / scale, for its `scale`
    (broadcast against rows), and w = scale u + q.  `scale` is 1 but on
    the numeraire routes: a multiply by 1 and a shift by log 1 = 0 are
    exact.

    With zero x axes (the numeraire route, d = 1) there is no model, gx is
    the 0-d c of g = c x and phi = 0: the state is one eta line, the
    operator is eta's bands, edges and stencil, its one sweep solves one
    line, the explicit pass is one slab, and every target reads row 0."""

    def __init__(self, model: Optional[MarketModel], gx: np.ndarray, x_axes, eps: float,
                 rows: np.ndarray, scale, q: np.ndarray, q_top: float, n_eta: int,
                 h: float):
        self.d = d = len(x_axes)
        if d:
            sigma, theta, A = _coefficients(model, x_axes, eps)
            alpha = A[..., :d, :d]
            self.phi = _phase(x_axes, sigma, theta)
        else:
            # no x axis and no model (the numeraire route): q = e^eta
            alpha, self.phi = np.empty((0, 0)), np.zeros(())
        self.first = int(np.count_nonzero(q <= 0.0))  # index of the first q > 0
        # each target reads the state on its row at q / scale, at eta = log
        # q - shift
        self.scale = np.broadcast_to(scale, rows.shape)[..., None]
        shift = self.phi.ravel()[rows] + np.log(self.scale[..., 0])
        lo = math.log(q[self.first]) - float(shift.max()) - _ETA_MARGIN
        self.eta = np.linspace(lo, math.log(q_top) - float(shift.min()), n_eta)
        if not d:
            # the terminal data's one kink, at eta = log c, sits mid-cell:
            # the axis drops by under a cell and gains a node.  On a node it
            # erred 3-4x more (33 x, 33 q, 17 t at refine 1 to 4)
            de = float(self.eta[1] - self.eta[0])
            lo -= (0.5 - (math.log(gx) - lo) / de) % 1.0 * de
            self.eta = lo + de * np.arange(n_eta + 1)
        self.de = de = float(self.eta[1] - self.eta[0])
        self.gx = gx
        e_phi = np.exp(self.phi)
        # the state is u = w - q, and -q = -e^(eta + phi) its value where w =
        # 0, built in place: temporaries of the state's size raised the d=2
        # benchmark solve's peak RSS by 1.4 MB
        self.neg_q = np.add(self.eta, self.phi[..., None])
        np.exp(self.neg_q, out=self.neg_q)
        np.negative(self.neg_q, out=self.neg_q)
        inner = (_MID,) * d
        # per axis, x_1..x_d then eta: the interior three-point weights
        # (below, centre, above), and the node beyond each end as a near + b
        # far, near the interior node next to it.  The x weights broadcast
        # along eta; at the x edges u is continued linearly
        self.bands, self.ends = [], []
        for axis, x in enumerate(x_axes):
            c = 0.5 * alpha[inner + (axis, axis)][..., None]
            self.bands.append(tuple(c * _along(w, axis, d + 1) for w in _d2_weights(x)))
            ratios = ((x[1] - x[0]) / (x[2] - x[1]), (x[-1] - x[-2]) / (x[-2] - x[-3]))
            self.ends.append(tuple((1.0 + r, -r) for r in ratios))
        # x pairs whose coefficient vanishes everywhere are left out
        spans = [_along(x[2:] - x[:-2], i, d + 1) for i, x in enumerate(x_axes)]
        self.pairs = [(i, j, alpha[inner + (i, j)][..., None], spans[i] * spans[j])
                      for i in range(d) for j in range(i + 1, d) if np.any(alpha[..., i, j])]
        # eta: diffusion ce2 per second difference, and the drift ce1 per
        # two-cell difference with which the x terms and eta's annihilate q
        # = e^(eta + phi).  u = -q is fixed at the bottom, repeats at the top
        ce2 = 0.5 * eps * eps / (de * de)
        e_three = np.broadcast_to(e_phi[..., None], e_phi.shape + (3,))
        x_part = sum(c * _view(e_three, 0, shifts) for c, shifts in self._x_terms())
        eta_part = ce2 * (2.0 * math.cosh(de) - 2.0)
        ce1 = -(x_part / e_phi[inner][..., None] + eta_part) / (2.0 * math.sinh(de))
        self.bands.append((ce2 - ce1, -2.0 * ce2, ce2 + ce1))
        self.ends.append(((0.0, 0.0), (1.0, 0.0)))
        # per target with q > 0: the flat index of its stencil's first node,
        # its place u among the stencil's nodes, 0..3, where the cubic is
        # evaluated, and its place among their q values Q_m = Q_0 e^(m
        # de): f = (q - Q_1) / (Q_2 - Q_1), with e^de f = (q - Q_1) / (Q_1 -
        # Q_0), and g = (q - Q_2) / (Q_3 - Q_2).  Built in place, with at
        # most two temporaries of the targets' size
        self.q_read = q[self.first:]
        self.u = u = np.subtract(np.log(self.q_read), shift[..., None])
        u -= self.eta[0]
        u /= de
        k = np.floor(u)
        k -= 1.0
        np.clip(k, 0, self.eta.size - 4, out=k)
        u -= k
        self.start = k.astype(np.intp)
        del k
        self.start += rows[..., None] * self.eta.size
        self.centred = (u >= 1.0) & (u < 2.0)
        self.bounds = tuple(np.subtract(u, c) for c in (1.0, 2.0))
        for f in self.bounds:
            f *= de
            np.expm1(f, out=f)
            f /= math.expm1(de)
        # the working set beyond the state, allocated once: the increment,
        # its eta-first copy and explicit's product slab for a substep, eight
        # slabs for read.  A substep and a read never run at once, and what
        # a substep leaves there is spent, so they share one pool
        inner_shape = tuple(n - 2 for n in self.phi.shape) + (self.eta.size - 2,)
        # with no x axis the one eta line is one slab
        self._z_rows = _slab_rows(inner_shape) if d else inner_shape[0]
        self._read_rows = _slab_rows(self.start.shape)
        step = [inner_shape, inner_shape[-1:] + inner_shape[:-1],
                (min(self._z_rows, inner_shape[0]),) + inner_shape[1:]]
        read = (8, min(self._read_rows, self.start.shape[0])) + self.start.shape[1:]
        pool = np.empty(max(sum(map(math.prod, step)), math.prod(read)))
        self._z, self._cols, self._prod = _carve(pool, step)
        self._read_slabs = pool[:math.prod(read)].reshape(read)
        self.h = h
        self.terms = self._stencil(h)
        self.sweeps = [self._factor(0.5 * h, axis) for axis in range(d + 1)]

    def apply_bc(self, W: np.ndarray) -> None:
        """Set the edge relations on a state W = w - q in place: each x edge
        node from its `ends` relation, then w = 0 at the eta bottom and w_q
        = 1 at the top, where W repeats the node below."""
        for axis, ends in enumerate(self.ends[:-1]):
            Wa = np.moveaxis(W, axis, 0)
            for (a, b), (end, step) in zip(ends, ((0, 1), (-1, -1))):
                Wa[end] = a * Wa[end + step] + b * Wa[end + 2 * step]
        W[..., 0] = self.neg_q[..., 0]
        W[..., -1] = W[..., -2]

    def _x_terms(self):
        """The x part of the interior operator as (coefficient, shifts)
        terms: the centre, then one term per neighbour along each x axis,
        and the four corners of each x-x mixed term.  With no x axis the
        centre is an array of 0."""
        centre = sum((c for _, c, _ in self.bands[:self.d]), np.zeros(1))
        sides = [(b, ((axis, s),)) for axis, (lo, _, up) in enumerate(self.bands[:self.d])
                 for b, s in ((lo, _LO), (up, _HI))]
        sides += [(sign * c / span, ((i, si), (j, sj)))
                  for i, j, c, span in self.pairs
                  for si, sj, sign in ((_HI, _HI, 1.0), (_HI, _LO, -1.0),
                                       (_LO, _HI, -1.0), (_LO, _LO, 1.0))]
        return [(centre, ())] + sides

    def _stencil(self, h: float):
        """h times the interior operator as (coefficient, shifts) terms: the
        x terms, eta's centre added to theirs, and eta's two neighbours.
        The coefficients broadcast along eta."""
        d = self.d
        lo, mid, up = self.bands[d]
        (centre, _), *sides = self._x_terms()
        sides += [(lo, ((d, _LO),)), (up, ((d, _HI),))]
        return [(h * c, shifts) for c, shifts in [(centre + mid, ())] + sides]

    def explicit(self, W: np.ndarray) -> np.ndarray:
        """h F(W) on the interior nodes, F the whole discrete operator (every
        axis and the x-x mixed terms) on W as it stands, edges included,
        written to the operator's increment buffer, which the next substep
        or read reuses, and returned.  It is summed one slab of the first x
        axis at a time, term by term through one slab-sized product buffer,
        in the order of the stencil built for h; every coefficient spans
        that axis."""
        (centre, _), *terms = self.terms
        views = [_view(W, 0, shifts) for _, shifts in terms]
        z, rows = self._z, self._z_rows
        for lo in range(0, z.shape[0], rows):
            hi = min(lo + rows, z.shape[0])
            zs, prod = z[lo:hi], self._prod[:hi - lo]
            np.multiply(centre[lo:hi], _view(W, 0)[lo:hi], out=zs)
            for (c, _), v in zip(terms, views):
                np.multiply(c[lo:hi], v[lo:hi], out=prod)
                zs += prod
        return z

    def _factor(self, th: float, axis: int):
        """(I - th*A_axis) on the interior nodes of `axis`, swept axis first,
        one line per node of the other axes: the axis's bands broadcast
        along it, with the node beyond each end, a near + b far for an
        increment, folded in.  The pivot-free Thomas factors are stable
        where the rows are diagonally dominant: every x row, with a slack
        of 1 whatever th (the folded edge rows reduce to the identity, the
        linear extrapolation having no second difference), and every eta
        row while th (|ce1| - ce2) <= 1/2, that is, at th = h / 2, while h
        (|ce1| - ce2) <= 1.

        A lane axis the bands do not vary along keeps length 1, and each
        factor row broadcasts over it: the x factors of a direct d=2 solve
        on the 48^2 x 88 eta grid (the d=2 benchmark grid before its gbm
        took the price-ratio route) are (46, 46, 1), 0.1 MB where
        lane-shaped ones took 8.7 MB, at 0.96 against 0.79 ms per kernel
        call on axis 0.
        Where a row would be one value (the x sweep in d = 1) the lanes are
        materialised: a broadcast row took 1.08 ms per call against 0.74.
        With no x axis the eta factors are one line, which the kernel
        solves on Python floats."""
        lo, c, up = self.bands[axis]
        bands = [np.moveaxis(a, axis, 0)
                 for a in np.broadcast_arrays(-th * lo, 1.0 - th * c, -th * up)]
        shape = self._z.shape[axis:axis + 1] + bands[0].shape[1:]
        if math.prod(shape) == shape[0]:
            shape = np.moveaxis(self._z, axis, 0).shape
        lo, di, up = (np.array(np.broadcast_to(a, shape), order="C") for a in bands)
        (a0, b0), (a1, b1) = self.ends[axis]
        di[0] += lo[0] * a0
        up[0] += lo[0] * b0
        di[-1] += up[-1] * a1
        lo[-1] += up[-1] * b1
        name = f"x axis {axis}" if axis < self.d else "eta"
        return _kernels.factor_lines(lo, di, up, f"{name} sweep at th={th:g}")

    def sweep(self, z: np.ndarray, axis: int) -> np.ndarray:
        """The implicit sweep along `axis` for an increment z, every line of
        the axis at once, in place; returns z.  Along eta, the last axis,
        whose lines are strided one value apart, it solves an eta-first copy
        in the operator's buffer and returns an (x, eta) view of that: the
        strided view took 3.7 against 2.0 ms."""
        if axis < z.ndim - 1:
            _kernels.thomas_batch(self.sweeps[axis], np.moveaxis(z, axis, 0))
            return z
        np.copyto(self._cols, np.moveaxis(z, -1, 0))
        return np.moveaxis(_kernels.thomas_batch(self.sweeps[axis], self._cols), 0, -1)

    def substep(self, W: np.ndarray, half: bool) -> np.ndarray:
        """One Douglas step in delta form, in place, returning W: the
        increment z = h F(W), halved on a Rannacher half step, then (I - th
        A_i) z_i = z_(i-1) along each axis with th = h / 2, and W + z on the
        interior, from which apply_bc rewrites every edge node."""
        z = self.explicit(W)
        if half:
            z *= 0.5
        for axis in range(self.d + 1):
            z = self.sweep(z, axis)
        inner = _view(W, 0)
        np.add(inner, z, out=inner)
        self.apply_bc(W)
        return W

    def read(self, W: np.ndarray, out: np.ndarray) -> None:
        """Write w = W + q on the targets to out: the 4-point cubic
        interpolant of the state W = w - q in eta, clamped in the stencil's
        middle cell to the bounds convexity of w in q sets (below the
        cell's chord, above either neighbouring chord extended), times the
        target's scale, plus the requested q.  Both come from the stencil's
        differences d0 = v1 - v0, d1 = v2 - v1 and d2 = v3 - v2: the chords
        are v1 + f d1, v1 + e^de f d0 and v2 + g d2, exact on q, so clamping
        W against them clamps w against its own, and the cubic is taken in
        Newton form about v1 with s = u - 1,

            v1 + s (d1 + (s - 1) ((d1 - d0) / 2 + (s + 1) (d2 - d1 - (d1 - d0)) / 6)).

        On the dual's slope-1 tail, where W does not depend on q, every
        difference is 0 and w reads back as q + W exactly.  Smooth convex
        data keep the cubic in the bounds up to O(de^4); at an unresolved
        kink the clamp stops overshoot.  What is written is clamped at 0:
        a restored x edge can take w, and the cubic through it, below 0.

        It runs one slab of the first x axis at a time: the four stencil
        values are gathered into the operator's slab buffers, turned into
        their differences there, and each slab goes straight to out.  Every
        node sees the operations of one whole-level pass in the same order,
        so the values do not depend on the slab size.  The interpolant can
        be -0.0 (the Lagrange sum from 0 never was); adding the requested q
        > 0 leaves no -0.0 in w."""
        flat = W.ravel()
        out[..., :self.first] = 0.0
        e_de = math.exp(self.de)
        n, rows = self.start.shape[0], self._read_rows
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            v0, v1, v2, v3, value, floor, a, b = self._read_slabs[:, :hi - lo]
            # every index is in range; mode "clip" skips take's buffered copy
            for m, v in enumerate((v0, v1, v2, v3)):
                np.take(flat[m:], self.start[lo:hi], out=v, mode="clip")
            u, f, g = self.u[lo:hi], self.bounds[0][lo:hi], self.bounds[1][lo:hi]
            d0 = np.subtract(v1, v0, out=v0)
            d1 = np.subtract(v2, v1, out=a)
            d2 = np.subtract(v3, v2, out=v3)
            np.multiply(e_de, f, out=floor)
            floor *= d0
            floor += v1
            np.multiply(g, d2, out=b)
            b += v2
            np.maximum(floor, b, out=floor)
            chord = np.multiply(f, d1, out=v2)
            chord += v1
            # the cubic in Newton form, from the inside out: s + 1 = u and
            # s - 1 = u - 2
            dd = np.subtract(d1, d0, out=v0)
            ddd = np.subtract(d2, d1, out=v3)
            ddd -= dd
            ddd /= 6.0
            ddd *= u
            dd /= 2.0
            dd += ddd
            dd *= np.subtract(u, 2.0, out=b)
            dd += d1
            dd *= np.subtract(u, 1.0, out=b)
            np.add(v1, dd, out=value)
            np.maximum(value, floor, out=floor)
            np.minimum(floor, chord, out=floor)
            np.copyto(value, floor, where=self.centred[lo:hi])
            value *= self.scale[lo:hi]
            value += self.q_read
            np.maximum(value, 0.0, out=out[lo:hi, ..., self.first:])


def _refine_axis(x: np.ndarray, r: int) -> np.ndarray:
    """Insert r-1 geometric nodes per cell; the original nodes stay bit-exact."""
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size - 1) * r + 1)
    out[::r] = x
    step = (x[1:] / x[:-1]) ** (1.0 / r)
    for j in range(1, r):
        out[j::r] = x[:-1] * step ** j
    return out


def _pad_geometric(x: np.ndarray, n: int) -> np.ndarray:
    """Extend both ends, continuing the edge spacing ratios."""
    if n <= 0:
        return x
    lo = x[0] / (x[1] / x[0]) ** np.arange(n, 0, -1)
    hi = x[-1] * (x[-1] / x[-2]) ** np.arange(1, n + 1)
    return np.concatenate([lo, x, hi])


# implicit Euler half-step pairs that start the solve (Rannacher startup)
_RANNACHER_STEPS = 2


@dataclass(frozen=True)
class _PriceRatio:
    """The d = 1 gbm dual in rho = x1 / x2 that a d = 2 gbm dual with a
    1-homogeneous payoff is: w(t, x1, x2, q) = x2 w~(t, x1 / x2, q / x2).
    `nodes[i, j]` is the node of x1_i / x2_j on `axis`."""

    model: MarketModel
    payoff: Payoff
    axis: np.ndarray
    nodes: np.ndarray
    nu: float
    eps: float


def _price_ratio(model: MarketModel, payoff: Payoff, grid: GridSpec,
                 gx: np.ndarray) -> Optional[_PriceRatio]:
    """The problem in the price ratio rho = x1 / x2 for a builtin d = 2 gbm
    on x axes that are log-uniform with one common log step, so that every
    x1_i / x2_j is a node of one log-uniform rho axis, with a payoff g that
    is 1-homogeneous on the grid's mesh: g(x1_i, x2_j) = x2_j g~(x1_i /
    x2_j) to rounding, for g~(rho) = g(rho, 1) and gx = g on the mesh (w1 x1
    + w2 x2 is one).  None for any other input.  rho is a gbm with b~ = b1 -
    b2 + |s2|^2 - s1.s2 and s~ = |s1 - s2| (s1, s2 the rows of s), the
    payoff is g~, and the deflator's part orthogonal to rho's noise, nu =
    |(s2 - theta) x (s1 - s2)| / s~, smears like eps: eps_eff = sqrt(eps^2
    + nu^2)."""
    if model.dim != 2 or model.kind != "gbm":
        return None
    ys = [np.log(ax) for ax in grid.x_axes]
    step = (ys[0][-1] - ys[0][0]) / (ys[0].size - 1)
    if not all(np.allclose(np.diff(y), step, rtol=1e-9, atol=0.0) for y in ys):
        return None
    n1, n2 = (y.size for y in ys)
    axis = np.exp(np.linspace(ys[0][0] - ys[1][-1], ys[0][-1] - ys[1][0], n1 + n2 - 1))
    nodes = np.subtract.outer(np.arange(n1), np.arange(n2)) + (n2 - 1)
    reduced = Payoff(lambda x: payoff(np.column_stack((x[:, 0], np.ones(x.shape[0])))),
                     f"{payoff.name}(rho, 1)")
    # the tolerance of the step check: rho nodes sit within about 1e-9 of
    # the mesh's ratios
    if not np.allclose(grid.x_axes[1] * reduced(axis[:, None])[nodes], gx,
                       rtol=1e-9, atol=0.0):
        return None
    b, s = model.params["b"], model.params["s"]
    # s is not singular, so its rows differ and s~ > 0
    diff = s[0] - s[1]
    s_rho = float(np.hypot(*diff))
    b_rho = float(b[0] - b[1] - diff @ s[1])
    v = s[1] - np.linalg.solve(s, b)
    nu = abs(float(v[0] * diff[1] - v[1] * diff[0])) / s_rho
    return _PriceRatio(builtin_model("gbm", b=b_rho, s=s_rho), reduced, axis, nodes, nu,
                       math.hypot(grid.epsilon, nu))


def _stock_numeraire(model: MarketModel, payoff: Payoff, x_axes,
                     gx: np.ndarray) -> Optional[tuple]:
    """(c, nu) for a builtin d = 1 gbm or bessel3 whose payoff is g = c x
    with c = g(1) > 0 (to 1e-9 relative) on the x mesh the direct solve
    steps, gx = g there, pad included: a payoff that bends beyond the
    requested nodes, as min(x1, x_max) does, is not c x.  nu, the constant
    log-volatility of the deflated price Z X, is |s - b / s| for gbm and 0
    for bessel3 (Z X = x0).  None for any other input."""
    if model.dim != 1 or model.kind not in ("gbm", "bessel3"):
        return None
    c = float(payoff(np.ones((1, 1)))[0])
    if not (c > 0.0 and np.allclose(gx, c * x_axes[0], rtol=1e-9, atol=0.0)):
        return None
    if model.kind == "bessel3":
        return c, 0.0
    b, s = float(model.params["b"][0]), float(model.params["s"][0, 0])
    return c, abs(s - b / s)


def solve_dual_pde(model: MarketModel, payoff: Payoff, grid: GridSpec, *,
                   pad=None, refine=None) -> Surface:
    """Backward solve of the regularized dual equation on a q-domain grid.

    The returned surface lives on `grid`; the solver works on (x, eta) with
    a larger x mesh.  `pad` adds cells beyond the x edges (geometric
    continuation) and raises the q that the eta axis reaches above q_max,
    pushing the artificial side conditions away from the region of
    interest; `refine` subdivides each x and t cell and multiplies the eta
    nodes.  Requested x nodes stay on the internal mesh exactly.  The
    first _RANNACHER_STEPS steps are each two implicit Euler half steps.

    Two inputs take a numeraire's route (module docstring).  A builtin d =
    2 gbm on x axes that are log-uniform with one common log step
    (GridSpec.regular with equal x axes), with a payoff that is
    1-homogeneous on the grid's mesh (w1 x1 + w2 x2 is one), takes the
    price-ratio route: the d = 1 dual of rho = x1 / x2, read back as w = x2
    w~(t, x1 / x2, q / x2); `pad` and `refine` then apply to the rho axis.
    A builtin d = 1 gbm or bessel3 with g = c x, c > 0, on the x mesh the
    direct solve would step, its pad included (linear_payoff() is one),
    takes the numeraire route: the dual on the eta axis alone, read back as
    w = x f(t, q / x).  There is no x axis to pad or refine there: the x
    part of `pad` only sets the mesh that g is tested on, r_x divides the
    x axis's mean log step that bounds the eta spacing, and both are
    recorded; the q and t parts act as elsewhere.  Every other input
    (custom models among them) takes the direct Douglas solve on (x, eta).

    pad : None for the default margin (quarter of the x range, or of the
        rho range, ~3/8 of the q range; no x margin on the direct d=2
        solve, and none recorded on the numeraire route, whose g is tested
        on the direct d=1 solve's default margin), 0 to disable, or a pair
        (x_cells, q_cells) in units of the requested grid's spacing; each
        >= 0.
    refine : None for no refinement, an int, or a triple (r_x, r_q, r_t);
        each >= 1.

    meta: kind, model, payoff, epsilon, substeps, rannacher_steps, pad
    and refine (as applied), scheme, and "route": "direct", "price-ratio"
    (d = 2) or "numeraire" (d = 1); on a route also "nu" and
    "epsilon_eff".
    """
    if model.dim > 2:
        raise DimensionUnsupported(f"finite differences support d <= 2, got d={model.dim}")
    if grid.domain != "q":
        raise DomainMismatch("solve_dual_pde expects a q-domain grid")
    if grid.dim != model.dim:
        raise ValueError(f"grid dimension {grid.dim} != model dimension {model.dim}")
    if grid.z[-1] <= 0.0:
        raise ValueError("the q axis needs a positive node")

    if refine is None:
        rx, rq, rt = 1, 1, 1
    elif np.isscalar(refine):
        rx = rq = rt = int(refine)
    else:
        rx, rq, rt = (int(v) for v in refine)
    if min(rx, rq, rt) < 1:
        raise ValueError("refinement factors must be >= 1")

    gx = payoff(_mesh(grid.x_axes)).reshape(tuple(ax.size for ax in grid.x_axes))
    ratio = _price_ratio(model, payoff, grid, gx)
    if ratio is None:
        solved, g, axes, eps = model, payoff, grid.x_axes, grid.epsilon
    else:
        solved, g, axes, eps = ratio.model, ratio.payoff, (ratio.axis,), ratio.eps
    if pad is None:
        px = axes[0].size // 4 if len(axes) == 1 else 0
        pq = (3 * grid.z.size) // 8
    elif np.isscalar(pad):
        px = pq = int(pad)
    else:
        px, pq = (int(v) for v in pad)
    if min(px, pq) < 0:
        raise ValueError("padding cells must be >= 0")

    q = grid.z
    q_top = float(q[-1] + pq * (q[-1] - q[-2]))
    x_int = tuple(_pad_geometric(_refine_axis(ax, rx), px * rx) for ax in axes)
    g_int = g(_mesh(x_int)).reshape(tuple(ax.size for ax in x_int))
    n_eta = (q.size - 1) * rq + 1 + pq * rq
    restrict = tuple(slice(px * rx, px * rx + (ax.size - 1) * rx + 1, rx) for ax in axes)
    rows = np.arange(math.prod(ax.size for ax in x_int)).reshape(
        tuple(ax.size for ax in x_int))[restrict]
    scale = 1.0
    stock = _stock_numeraire(model, payoff, x_int, g_int) if ratio is None else None
    if ratio is not None:
        rows, scale, nu = rows[ratio.nodes], grid.x_axes[1], ratio.nu
        # a target at x2 reads q / x2, at q spacings that shrink as x2
        # grows, several to an eta cell of the q axis's count, where the
        # cubic read breaks convexity in q near T; the rho solve is cheap,
        # so eta takes twice the cells
        n_eta = 2 * n_eta - 1
    elif stock is not None:
        c, nu = stock
        x = grid.x_axes[0]
        # the one eta line spans the q axis and log(x_max / x_min), which
        # the direct solve resolves on its x axis.  It takes twice the q
        # axis's cells (at its count the gbm benchmark dual errs 2.0e-4 at
        # x0), at most the refined x axis's mean log step apart (without
        # that bound the heat-equation test's gbm erred 7.1e-4, its direct
        # solve 3.2e-4), and no more nodes than the direct solve's state
        log_x = math.log(x[-1] / x[0])
        span = math.log(q_top / q[q > 0.0][0]) + log_x + _ETA_MARGIN
        cells = math.ceil(span * (x.size - 1) * rx / log_x)
        n_eta = max(2 * n_eta - 1, min(cells + 1, x_int[0].size * n_eta))
        solved, eps, x_int, g_int = None, math.hypot(eps, nu), (), np.array(c)
        rows, scale = np.zeros(x.size, dtype=np.intp), x
        if pad is None:
            px = 0
    ws = _DualOperator(solved, g_int, x_int, eps, rows, scale, q, q_top, n_eta,
                       float(grid.dt) / rt)

    values = np.empty(grid.shape)
    np.subtract(q, gx[..., None], out=values[-1])
    np.maximum(values[-1], 0.0, out=values[-1])
    # (q - g(x))^+ - q = max(-q, -g(x))
    W = np.maximum(ws.neg_q, -ws.gx[..., None])
    ws.apply_bc(W)
    step = 0
    for k in range(grid.t.size - 2, -1, -1):
        for _ in range(rt):
            half = step < _RANNACHER_STEPS
            for _ in range(2 if half else 1):
                ws.substep(W, half)
            step += 1
        # min and max propagate NaN: no temporary of W's size
        if not (np.isfinite(W.min()) and np.isfinite(W.max())):
            raise Nonfinite(f"dual solve: non-finite values at t = {grid.t[k]:g}")
        # the exact flow preserves the sign of the terminal data; FD
        # undershoot below w = 0 is projected out, then the edge relations
        # the projection clips are restored
        np.maximum(W, ws.neg_q, out=W)
        ws.apply_bc(W)
        ws.read(W, values[k])

    meta = {"kind": "dual", "model": model.name, "payoff": payoff.name,
            "epsilon": grid.epsilon, "substeps": 1, "rannacher_steps": _RANNACHER_STEPS,
            "pad": [px, pq], "refine": [rx, rq, rt], "scheme": "douglas-adi"}
    if ratio is None and stock is None:
        meta["route"] = "direct"
    else:
        meta.update(route="price-ratio" if stock is None else "numeraire", nu=nu, epsilon_eff=eps)
    return Surface(grid, values, meta)


# ---------------------------------------------------------------------------
# Dual-to-primal transform.
#
# Slices are conjugated through a shape-preserving quadratic spline
# (Schumaker): estimate node slopes to second order, split each cell at
# the knot that makes the mid slope equal the secant, and the spline
# interpolates with a continuous nondecreasing piecewise-linear
# derivative.  Inverting that derivative at a target p is one linear
# solve per piece.  Unlike a cubic fit, the quadratic spline cannot ring
# around an under-resolved kink; where the data is genuinely flat the
# conjugate comes out exactly linear in p (zero discrete curvature,
# excluded by the residual's convexity mask) instead of acquiring
# spurious near-zero curvature that explodes any operator dividing by
# it.  At and above the top slope the transform saturates at q_max, read
# at the node (a truncation artifact near p=1); saturation for mid-range
# p on a slice whose q_max covers 4x the payoff signals a genuinely
# undersized grid and raises ArgmaxAtBoundary.
#
# The transform runs one time level at a time, on all x slices of the
# level together, in array passes (after Lucet's linear-time Legendre
# transform, Numer. Algorithms 1997), so its scratch memory is
# O(slices x n_q):
#   - the second differences of the whole level flag the slices that
#     need their convex envelope, and one row-wise hull envelopes them;
#   - the spline pieces of every slice are built at once;
#   - each target p takes the last piece whose start slope is <= p,
#     found by a row-wise count of those slopes.
# The start slopes are taken in one monotone order, their running maximum
# along the row.  In exact arithmetic the spline's derivative is
# continuous and nondecreasing, so they are in order already; only
# rounding (clamped offsets, the slope-1 tail of a dual slice) breaks it.
# A cell whose knot falls on one of its ends leaves a zero-length piece,
# which under the running maximum carries the end slope of the piece
# before it: when it is chosen, its start, the end of that piece, is the
# maximizer.
# ---------------------------------------------------------------------------

def _schumaker_pieces(q: np.ndarray, W: np.ndarray):
    """Convex C1 quadratic interpolants of the rows of W over the axis q.

    Returns per-piece arrays of shape (rows, 2 (n - 1)), two pieces per
    cell in order of q: start q, length, start value, start slope and slope
    rate.  The start slopes are their running maximum along the row, so
    they are nondecreasing; zero-length pieces stay in place.  Cells split
    at xi = q_i + h d2/(d1+d2) carry slope exactly s at the knot, which
    keeps the interpolation error second order without breaking shape.
    """
    h = np.diff(q)
    s = np.diff(W, axis=1) / h
    d = np.empty_like(W)
    d[:, 1:-1] = (s[:, :-1] * h[1:] + s[:, 1:] * h[:-1]) / (h[1:] + h[:-1])
    d[:, 0] = np.maximum(0.0, 2.0 * s[:, 0] - d[:, 1])
    d[:, -1] = 2.0 * s[:, -1] - d[:, -2]
    np.maximum.accumulate(d, axis=1, out=d)
    # rounding can push a slope past a secant; clamped offsets keep every
    # piece's slope rate nonnegative
    d1 = np.maximum(s - d[:, :-1], 0.0)
    d2 = np.maximum(d[:, 1:] - s, 0.0)
    tot = d1 + d2
    safe = np.where(tot > 0.0, tot, 1.0)
    a = np.where(tot > 0.0, h * d2 / safe, h)
    b = h - a
    with np.errstate(divide="ignore", invalid="ignore"):
        rate_l = np.where(a > 0.0, d1 / np.where(a > 0.0, a, 1.0), 0.0)
        rate_r = np.where(b > 0.0, d2 / np.where(b > 0.0, b, 1.0), 0.0)
    w_knot = W[:, :-1] + 0.5 * (d[:, :-1] + s) * a
    rows = W.shape[0]

    def pieces(left, right):
        return np.stack([left, right], axis=2).reshape(rows, -1)

    slopes = pieces(d[:, :-1], s)
    np.maximum.accumulate(slopes, axis=1, out=slopes)
    return (pieces(np.broadcast_to(q[:-1], a.shape), q[:-1] + a), pieces(a, b),
            pieces(W[:, :-1], w_knot), slopes, pieces(rate_l, rate_r))


def _conjugate_level(q: np.ndarray, W: np.ndarray, p: np.ndarray):
    """Spline conjugate of every x slice (row of W) of one time level.

    Returns (U, top_slope, enveloped): U has one row per slice, top_slope
    is each row's largest spline slope, and enveloped flags the rows that
    were replaced by their convex envelope first: those with a second
    difference in q below -1e-8, which a solved dual has where it is not
    convex in q (at a d = 2 kink, or for the volatility-stabilized model),
    not in its slope-1 tail, which the solver reads back exactly.  At or above a row's top slope the maximizer is
    q_max, and U = p q_max - W[:, -1] is read at the node: the last spline
    piece, taken after the running maximum of the slopes, can end up to
    3e-11 below it.
    """
    d2 = W[:, :-2] - 2.0 * W[:, 1:-1] + W[:, 2:]
    enveloped = d2.min(axis=1) < -1e-8
    if enveloped.any():
        W = W.copy()
        W[enveloped] = convex_envelope_rows(q, W[enveloped])
    starts, lens, vals, slopes, rates = _schumaker_pieces(q, W)
    rows, width = slopes.shape
    # the piece of target p is the last one whose start slope is <= p: its
    # index is the count of such slopes less one.  A slope is <= p[j] for
    # every j at or past its left insertion point in p.
    first = np.searchsorted(p, slopes.ravel(), side="left")
    first += np.repeat(np.arange(rows) * (p.size + 1), width)
    per_p = np.bincount(first, minlength=rows * (p.size + 1)).reshape(rows, p.size + 1)
    k = np.clip(np.cumsum(per_p[:, :-1], axis=1) - 1, 0, width - 1)
    k += (np.arange(rows) * width)[:, None]
    q0, seg, w0, sl0, rate = (arr.ravel()[k] for arr in (starts, lens, vals, slopes, rates))
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (p - sl0) / rate
    # linear pieces divide to +inf when p exceeds their slope; the clip
    # saturates them at the right end, which is where the argmax sits.  A p
    # above the top slope takes the last piece, whose right end is q_max.
    # 0/0 means p ties the slope and either end gives the same value.
    u = np.where(np.isnan(u), 0.0, u)
    u = np.clip(u, 0.0, seg)
    qstar = q0 + u
    wstar = w0 + (sl0 + 0.5 * rate * u) * u
    U = p * qstar - wstar
    top = slopes[:, -1] + rates[:, -1] * lens[:, -1]
    # at or above the top slope the maximizer is q_max, read at the node
    np.copyto(U, p * q[-1] - W[:, -1:], where=p >= top[:, None])
    U[:, p == 0.0] = 0.0
    return U, top, enveloped


# a slice whose largest spline slope stays below 1 - _SATURATION_GAP
# saturates at q_max for the p above it
_SATURATION_GAP = 0.02


def dual_to_primal(w_surface: Surface, p_grid) -> Surface:
    """Legendre transform of a dual surface to the p-domain, one time level
    at a time.

    The terminal slice is imposed analytically as p g(x), with g read off
    the terminal data; the p=0 column is exactly 0.  The output GridSpec,
    built first, checks the p grid (1-d, >= 3 strictly increasing nodes in
    [0, 1]) before any slice is conjugated.  Slices whose top slope is
    below 1 - _SATURATION_GAP count as saturated.
    """
    g = w_surface.grid
    if g.domain != "q":
        raise DomainMismatch("dual_to_primal expects a q-domain surface")
    grid_p = GridSpec(g.t.copy(), tuple(ax.copy() for ax in g.x_axes), p_grid, "p", g.epsilon)
    p = grid_p.z
    q = g.z
    nt = g.t.size
    xshape = tuple(ax.size for ax in g.x_axes)
    nslices = int(np.prod(xshape))
    wflat = w_surface.values.reshape(nt, nslices, q.size)

    # recover g(x) from the terminal ramp; slices with q_max < 4 g(x) are
    # undercovered by the default-domain rule, so their saturation is
    # tolerated as a truncation artifact rather than raised
    gx = q[-1] - wflat[-1, :, -1]
    covered = 4.0 * gx <= q[-1] * (1.0 + 1e-12)

    out = np.empty((nt, nslices, p.size))
    out[-1] = p[None, :] * gx[:, None]
    n_env = 0
    n_sat = 0
    for k in range(nt - 1):
        out[k], top, enveloped = _conjugate_level(q, wflat[k], p)
        n_env += int(enveloped.sum())
        saturated = top < 1.0 - _SATURATION_GAP
        n_sat += int(saturated.sum())
        bad = np.flatnonzero(saturated & covered)
        if bad.size:
            i = int(bad[0])
            raise ArgmaxAtBoundary(
                f"slice t-index {k}, x-slice {i}: maximizer at q_max for "
                f"p >= {top[i]:.4f} although q_max >= 4 g(x); enlarge q_max"
            )

    meta = dict(w_surface.meta)
    meta.update(
        {
            "kind": "primal",
            "source": "dual_to_primal",
            "enveloped_slices": n_env,
            "saturated_slices": n_sat,
        }
    )
    return Surface(grid_p, out.reshape((nt,) + xshape + (p.size,)), meta)


# ---------------------------------------------------------------------------
# Nonlinear operator residual and the supersolution verifier.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HJBResult:
    """Central-difference residual of the nonlinear operator on interior
    nodes with positive curvature in p, NaN elsewhere, and the p curvature
    U_pp on the same nodes."""

    residual: np.ndarray
    curvature: np.ndarray
    n_nonconvex: int


def _curvature_floor(U: np.ndarray) -> float:
    # a p second difference below machine rounding on the value scale is
    # indistinguishable from zero, so the node counts as an envelope node;
    # max |U| from min and max, with no surface-sized temporary
    return 64.0 * np.finfo(float).eps * max(1.0, -float(U.min()), float(U.max()))


def _resolved_mask(convex: np.ndarray) -> np.ndarray:
    """Drop p-neighbours of envelope nodes as well: the facet edge carries
    a curvature atom that the central stencil smears onto them."""
    bad = ~convex
    out = convex.copy()
    out[..., 1:] &= ~bad[..., :-1]
    out[..., :-1] &= ~bad[..., 1:]
    return out


def hjb_residual(U_surface: Surface, model: MarketModel, start: int = 1,
                 stop: Optional[int] = None, floor: Optional[float] = None) -> HJBResult:
    """Residual of the primal nonlinear operator at interior nodes, at the
    surface grid's epsilon.

    Nodes whose discrete p curvature is not positive beyond machine
    rounding take the operator's envelope value (minus infinity) and are
    excluded: counted, NaN residual.

    Memory: the residual covers the time levels start..stop-1 (by default
    every interior level, 1..n_t-2) and reads the levels start-1..stop.
    The call peaks at about eight arrays the size of the residual it
    returns (nine in d = 2), so a caller bounds its memory by the levels
    it asks for.  `floor` is the curvature floor of the whole surface
    (_curvature_floor of its values, the default); a caller that covers the
    surface in several calls passes it, so that every node sees the same
    floor.  A floor that is not finite and >= 0 raises ValueError: a NaN
    floor would mark every node non-convex, so that none is checked.
    """
    g = U_surface.grid
    if g.domain != "p":
        raise DomainMismatch("hjb_residual expects a p-domain surface")
    d = g.dim
    U = U_surface.values
    if stop is None:
        stop = g.t.size - 1
    if not 1 <= start < stop <= g.t.size - 1:
        raise ValueError(f"time levels {start}..{stop - 1} are not interior levels of "
                         f"a grid with {g.t.size} time nodes")
    if floor is None:
        floor = _curvature_floor(U)
    elif not 0.0 <= floor < math.inf:
        raise ValueError(f"curvature floor must be finite and >= 0, got {floor!r}")
    dp = g.dz
    A = _coefficients(model, g.x_axes, g.epsilon)[2]
    inner = (_MID,) * d

    def sym_sum(M, entry):
        """sum_ij M_ij entry(i, j) for a symmetric matrix field M and a
        symmetric entry, summed over the upper triangle in place."""
        total = None
        n = M.shape[-1]
        for i in range(n):
            for j in range(i, n):
                term = entry(i, j)
                # the entry on interior x nodes, broadcast over t and p
                term *= M[..., i, j][inner][None, ..., None] * (1.0 if i == j else 2.0)
                total = term if total is None else np.add(total, term, out=total)
        return total

    # axes of Ui: t (interior times start..stop-1), x_1..x_d, p
    Ui = U[start:stop]
    Ux = Ui[(slice(None),) + inner]
    Up = (Ux[..., 2:] - Ux[..., :-2]) / (2.0 * dp)
    Upp = (Ux[..., 2:] - 2.0 * Ux[..., 1:-1] + Ux[..., :-2]) / (dp * dp)
    spans = [_along(x[2:] - x[:-2], 1 + i, d + 2) for i, x in enumerate(g.x_axes)]
    Uxp = [_cross_diff(Ui, 1 + i, 1 + d, lead=1) / (spans[i] * (2.0 * dp)) for i in range(d)]

    def U_xx(i, j):
        if i == j:
            return _second_diff(Ui, 1 + i, _d2_weights(g.x_axes[i]), lead=1)
        return _cross_diff(Ui, 1 + i, 1 + j, lead=1) / (spans[i] * spans[j])

    # the operator is U_t + 1/2 sum_ij<d alpha_ij U_xixj - v' A v / (2 U_pp)
    # with v = (U_x1p .. U_xdp, -U_p)
    v = Uxp + [-Up]
    res = sym_sum(A[..., :d, :d], U_xx)
    quad = sym_sum(A, lambda i, j: v[i] * v[j])
    nonconvex = ~_resolved_mask(Upp > floor / (dp * dp))
    with np.errstate(divide="ignore", invalid="ignore"):
        res *= 0.5
        res += (_view(U[start + 1:stop + 1], 1) - _view(U[start - 1:stop - 1], 1)) / (2.0 * g.dt)
        res -= np.divide(quad, 2.0 * Upp, out=quad)
    res[nonconvex] = np.nan
    return HJBResult(residual=res, curvature=Upp, n_nonconvex=int(nonconvex.sum()))


@dataclass(frozen=True)
class SupersolutionReport:
    passed: bool
    terminal_ok: bool
    terminal_max_err: float
    terminal_tol: float
    max_residual: float
    n_checked: int
    n_violations: int
    n_auto_pass: int
    n_nonconvex: int
    tol: float
    tol_convex: float
    worst_node: Optional[tuple]
    notes: str = ""


def default_residual_tol(grid: GridSpec) -> float:
    """10 (dt + dx^2 + dz^2), with dx the largest spacing over all x axes."""
    dx = float(max(np.diff(ax).max() for ax in grid.x_axes))
    return 10.0 * (grid.dt + dx * dx + grid.dz * grid.dz)


# the verifier's surrogate: a terminal slice within _TERMINAL_TOL of p g(x);
# residuals checked where U_pp > _TOL_CONVEX, on tau >= _TIME_MARGIN (T - t0)
# and p in _P_WINDOW, outside the terminal kink's reach
_TERMINAL_TOL = 1e-8
_TOL_CONVEX = 1e-8
_TIME_MARGIN = 0.1
_P_WINDOW = (0.02, 0.98)


def verify_supersolution(u_surface: Surface, model: MarketModel, payoff: Payoff,
                         tol: Optional[float] = None) -> SupersolutionReport:
    """Grid surrogate for the supersolution property.

    (a) terminal data must equal p g(x) within _TERMINAL_TOL (a sharp check:
    boundary data is imposed, not approximated); (b) the nonlinear-operator
    residual must stay below tol (default_residual_tol when None) at
    interior nodes with curvature above _TOL_CONVEX; nodes at or below it
    auto-pass by the envelope convention.  The residual check skips a layer
    of width _TIME_MARGIN*(T-t0) before the terminal time and p outside
    _P_WINDOW, where the kink of the terminal data makes central
    differences meaningless; the margins are part of the surrogate's
    definition and recorded in the report.

    Memory: the residual is taken one slab of interior time levels at a
    time, one hjb_residual call per slab, with as many levels as keep one
    slab-sized array within _SLAB_BYTES.  Beyond the surface itself the
    verifier then peaks at about a dozen such arrays, whatever the number
    of time levels, where one whole-surface pass held about eight times
    the surface.  Every node sees the operations and the curvature floor
    it would see in one whole-surface call, and the worst node is the
    first in C order, so the report does not depend on the slab length.
    A tol that is not finite raises ValueError (a NaN tol passes every
    node); a negative one asks for residuals below 0.
    """
    g = u_surface.grid
    if g.domain != "p":
        raise DomainMismatch("verify_supersolution expects a p-domain surface")
    if tol is None:
        tol = default_residual_tol(g)
    elif not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")

    U = u_surface.values
    p = g.z
    gx = payoff(_mesh(g.x_axes)).reshape(tuple(ax.size for ax in g.x_axes))
    terminal_err = float(np.abs(U[-1] - gx[..., None] * p).max())
    terminal_ok = terminal_err <= _TERMINAL_TOL

    t_int = g.t[1:-1]
    keep_t = g.t[-1] - t_int >= _TIME_MARGIN * (g.t[-1] - g.t[0])
    p_int = p[1:-1]
    keep_p = (p_int >= _P_WINDOW[0]) & (p_int <= _P_WINDOW[1])

    floor = _curvature_floor(U)
    slab = _slab_rows([n - 2 for n in g.shape])
    n_checked = n_violations = n_auto = n_nonconvex = 0
    max_residual, worst = float("-inf"), None
    for start in range(1, g.t.size - 1, slab):
        stop = min(start + slab, g.t.size - 1)
        hjb = hjb_residual(u_surface, model, start, stop, floor)
        res = hjb.residual
        n_nonconvex += hjb.n_nonconvex
        window = keep_t[start - 1:stop - 1].reshape((-1,) + (1,) * (g.dim + 1)) & keep_p
        convex = hjb.curvature > _TOL_CONVEX
        n_auto += int(np.count_nonzero(window & ~convex))
        checkable = window & convex & np.isfinite(res)
        checked = res[checkable]
        if not checked.size:
            continue
        n_checked += checked.size
        n_violations += int(np.count_nonzero(checked > tol))
        top = float(checked.max())
        # strictly greater: a tie keeps the earlier slab's node, and argmax
        # the first in the slab, so the worst node is the first in C order
        if top > max_residual:
            max_residual = top
            idx = np.unravel_index(int(np.argmax(np.where(checkable, res, -np.inf))), res.shape)
            worst = (start - 1 + idx[0],) + idx[1:]

    worst_node = None
    if worst is not None:
        worst_node = (float(t_int[worst[0]]),
                      *(float(ax[1:-1][i]) for ax, i in zip(g.x_axes, worst[1:-1])),
                      float(p_int[worst[-1]]))

    passed = terminal_ok and n_violations == 0
    notes = (
        f"residual checked on tau >= {_TIME_MARGIN:g}*(T-t0), p in [{_P_WINDOW[0]:g}, {_P_WINDOW[1]:g}]; "
        "pointwise FD surrogate, not a test-function verification"
    )
    return SupersolutionReport(
        passed=passed,
        terminal_ok=terminal_ok,
        terminal_max_err=terminal_err,
        terminal_tol=_TERMINAL_TOL,
        max_residual=max_residual,
        n_checked=n_checked,
        n_violations=n_violations,
        n_auto_pass=n_auto,
        n_nonconvex=n_nonconvex,
        tol=float(tol),
        tol_convex=_TOL_CONVEX,
        worst_node=worst_node,
        notes=notes,
    )
