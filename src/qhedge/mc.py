"""Terminal samples of Z(T) g(X(T)) and the estimators on them.

sample_terminal draws the samples block by block through
engine.terminal_block and keeps them in draw order (block order, the same
for any thread count).  The sample array is the empirical distribution;
every estimator here is a closed-form functional of it.  The quantile
estimators sort their own copy of the values; the dual estimators take
each sample on its own and need no order.
quantile_curve and dual_curve evaluate whole grids; quantile_value,
dual_value and dual_value_regularized are their one-point forms.

quantile_value implements the fractional-atom rule: with m = p*n and
k = floor(m), the value is (sum_{i<k} v_i + (m - k) v_k) / n, i.e. the
mean of the lowest p-mass with the boundary order statistic fractionally
weighted.  Its standard error
uses the influence function (a - v)^+ - const at the empirical p-quantile
a = v_k, whose sample standard deviation vanishes in the degenerate case.

aux stores the auxiliary Brownian increment B(T) - B(t0) per sample (not a
fixed multiplier), so regularized estimates at any eps reuse the same
draws: common random numbers across an eps study by construction.

dual_curve gives mean (q L_eps - v)^+ on a whole q grid in one pass
(L = 1 at eps = 0).  Sample i pays at every q above its threshold
u_i = v_i / L_i, so each sample is binned once by where u_i falls in the
grid; per-bin sums of L, v and their products about centres cL and cv,
accumulated over the bins, give every value and standard error in
O(n log m) for n samples and m grid points.  Both are exact for any
centre, so the centres move rounding only: cv is the mean of v, and cL
is L_eps at the mean increment (one pass over aux, one exp), about
exp(-eps^2 tau / 2), at most 0.301 of L's standard deviation
sqrt(exp(eps^2 tau) - 1) from its mean 1 for any eps and tau.  Each eps
uses the same aux draws, so curves at different eps keep the common
random numbers.

Memory: the curve estimators take the samples one block of _BIN_BLOCK
(2^14) at a time, so their scratch is O(block) and O(grid); only
quantile_curve keeps an array as large as the values, its sorted copy,
since the order statistics come from a whole-array sort.  dual_curve at
eps > 0 builds each block's L_eps once, in its bin loop.  The results
are those of the whole-array passes bit for bit: np.add.at continues
np.bincount's in-order sums across blocks, each block's prefix sums
start from the previous block's total, and the centres come from
whole-array means, which no blocking changes.  At 10^6 samples
dual_curve peaks at about 0.12 times the value array at eps > 0 and
0.09 at eps = 0, quantile_curve at 1.05 (tracemalloc).  sample_terminal
keeps the aux draws only when asked to, so a run that needs no eps > 0
holds the values alone.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import engine
from .errors import EmptySamples, MissingAux, Nonfinite, POutOfRange
from .market import MarketModel, Payoff


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    n: int


@dataclass(frozen=True)
class SampleSet:
    """Terminal draws of Z(T) g(X(T)) in draw order."""

    values: np.ndarray
    aux: Optional[np.ndarray]
    horizon: float

    def __post_init__(self):
        v = self.values
        if v.ndim != 1 or v.size < 1:
            raise EmptySamples("need a non-empty 1-d value array")
        # min and max propagate NaN, and take no sample-sized temporary
        if not (v.min() > 0 and v.max() < np.inf):
            raise ValueError("sample values must be finite and > 0")
        if self.aux is not None and self.aux.shape != v.shape:
            raise ValueError("aux must match values in shape")

    @property
    def n(self) -> int:
        return self.values.size


def sample_set(values, aux=None, *, horizon: float = 1.0) -> SampleSet:
    """Build a SampleSet from raw draws, kept in the order given.  values
    and aux are read-only 1-d views of the float arrays given (copies only
    where the dtype needs one), so the caller must not write to those."""
    v = np.asarray(values, dtype=float).reshape(-1)
    a = None
    if aux is not None:
        a = np.asarray(aux, dtype=float).reshape(-1)
        a.flags.writeable = False
    v.flags.writeable = False
    return SampleSet(values=v, aux=a, horizon=float(horizon))


def _check_samples(v: np.ndarray, Z_T: np.ndarray, g: np.ndarray, first_path: int):
    """Raise Nonfinite on the first path whose sample v = Z_T g(X_T) is not
    finite and > 0; first_path is v[0]'s global index.  The message names
    both factors, so an underflow of the product reads apart from a payoff
    of 0."""
    # min/max propagate NaN, which fails the comparisons
    if v.min() > 0.0 and v.max() < np.inf:
        return
    i = int(np.argmin(np.isfinite(v) & (v > 0.0)))
    idx = first_path + i
    g_i = np.broadcast_to(g, v.shape)[i]
    raise Nonfinite(f"sample Z_T g(X_T) = {float(v[i])!r} on path {idx} is not finite and > 0 "
                    f"(Z_T = {float(Z_T[i])!r}, g(X_T) = {float(g_i)!r})", path_index=idx)


def sample_terminal(model: MarketModel, payoff: Payoff, x0, cfg: engine.SimConfig,
                    threads: int = 1, aux: bool = True) -> SampleSet:
    """Streaming terminal sampler: evolves fixed path blocks (engine.BLOCK)
    keeping only terminal states; thread count never changes the result.
    With aux=False the auxiliary increments are neither drawn nor kept
    (the set's aux is None) and the values are the same bit for bit.
    A sample that is not finite and > 0 raises Nonfinite with the global
    index of the first such path of its block; blocks fail in block order,
    so the path named is the same for any thread count."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = cfg.n_paths
    values = np.empty(n)
    B = np.empty(n) if aux else None
    tasks = list(engine._blocks(n))

    def run_block(args):
        blk, start, bn = args
        X_T, Z_T, B_T = engine.terminal_block(model, x0, cfg, blk, bn, aux=aux)
        g = payoff(X_T)
        v = values[start : start + bn]
        np.multiply(Z_T, g, out=v)
        _check_samples(v, Z_T, g, start)
        if aux:
            B[start : start + bn] = B_T

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_block, tasks))
    else:
        for task in tasks:
            run_block(task)

    return sample_set(values, aux=B, horizon=cfg.horizon)


def quantile_value(samples: SampleSet, p: float) -> Estimate:
    if not 0.0 <= p <= 1.0:
        raise POutOfRange(f"p={p} outside [0, 1]")
    v = np.sort(samples.values)
    n = v.size
    m = p * n
    k = int(np.floor(m))
    if k >= n:
        k = n
    head = float(v[:k].sum())
    if k < n:
        value = (head + (m - k) * v[k]) / n
        a = v[k]
    else:
        value = head / n
        a = v[-1]
    if n < 2:
        return Estimate(float(value), 0.0, n)
    infl = np.maximum(a - v, 0.0)
    se = float(infl.std(ddof=1) / np.sqrt(n))
    return Estimate(float(value), se, n)


def quantile_curve(samples: SampleSet, p_grid=None):
    """Vectorized quantile_value over a p grid via prefix sums.

    Returns (p, value, std_error) arrays.  Beyond the sorted copy of the
    values, one prefix pass gives the value and the standard error: it sums
    v, v - c and (v - c)**2 (c the mean of v) one block of _BIN_BLOCK
    samples at a time and keeps only the sums at the k of the p grid.
    """
    if p_grid is None:
        p_grid = default_p_grid()
    p = np.asarray(p_grid, dtype=float)
    # NaN fails both comparisons
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise POutOfRange("p grid outside [0, 1]")
    v = np.sort(samples.values)
    n = v.size
    m = p * n
    k = np.minimum(np.floor(m).astype(int), n)
    vk = v[np.minimum(k, n - 1)]
    # the moments of the standard error are taken about the mean of v, so
    # that near-constant samples cancel exactly (as in dual_curve)
    c = v.mean()
    s, sd, sdd = _prefix_sums_at(v, k, c)
    value = (s + np.where(k < n, (m - k) * vk, 0.0)) / n
    se = np.zeros_like(value)
    if n >= 2:
        # influence function (a - v)^+ at a = v_k: the k lowest samples pay
        # a - v_i.  Its variance is the spread among the payers plus the
        # gap between their mean and the n - k zeros.
        t = k * (vk - c) - sd
        k1 = np.maximum(k, 1)
        within = np.maximum(sdd - sd * sd / k1, 0.0)
        se = np.sqrt((within + (n - k) * t * t / (n * k1)) / (n - 1) / n)
    return p, value, se


def _prefix_sums_at(v: np.ndarray, k: np.ndarray, c: float) -> np.ndarray:
    """The sums of the first k of v, of v - c and of (v - c)**2, at each k
    in 0..n, as three rows: what np.cumsum of each whole array gives, bit
    for bit, taken in one pass of one block of _BIN_BLOCK at a time in one
    reused three-row buffer.  Each block's first terms get the sums before
    it, so every running sum is the whole array's sequential one."""
    n = v.size
    kk = k.reshape(-1)
    terms = np.empty((3, min(n, _BIN_BLOCK)))
    out = np.zeros((3, kk.size))
    for lo in range(0, n, _BIN_BLOCK):
        hi = min(lo + _BIN_BLOCK, n)
        blk = terms[:, :hi - lo]
        blk[0] = v[lo:hi]
        np.subtract(blk[0], c, out=blk[1])
        np.multiply(blk[1], blk[1], out=blk[2])
        if lo:
            blk[:, 0] += carry
        np.cumsum(blk, axis=1, out=blk)
        carry = blk[:, -1].copy()
        # the sums of the first lo + 1 .. hi samples
        at = (kk > lo) & (kk <= hi)
        out[:, at] = blk[:, kk[at] - lo - 1]
    return out.reshape((3,) + k.shape)


def _check_finite_nonnegative(name: str, value) -> None:
    """Raise ValueError unless every element of value is finite and >= 0;
    NaN fails the comparisons."""
    v = np.asarray(value, dtype=float)
    if not np.all((v >= 0.0) & (v < np.inf)):
        raise ValueError(f"{name} must be finite and >= 0")


def dual_value(samples: SampleSet, q: float) -> Estimate:
    """Mean of (q - v)^+ with standard error."""
    _check_finite_nonnegative("q", q)
    w = np.maximum(q - samples.values, 0.0)
    n = w.size
    se = float(w.std(ddof=1) / np.sqrt(n)) if n >= 2 else 0.0
    return Estimate(float(w.mean()), se, n)


def dual_curve(samples: SampleSet, q_grid, eps: float = 0.0):
    """dual_value_regularized over a whole q grid in one pass; (q, value, se).

    q may come in any order; value and se follow it.  The samples are
    binned and summed one block of _BIN_BLOCK at a time.  At eps > 0 each
    block builds its own multipliers L_eps, n of them in all, so the call
    holds no sample-sized array of its own.
    """
    q = np.asarray(q_grid, dtype=float)
    _check_finite_nonnegative("q grid", q)
    _check_finite_nonnegative("eps", eps)
    v = samples.values
    n = v.size
    order = np.argsort(q, kind="stable")
    qs = q[order]
    # moments about cv = mean v and cL = L_eps(mean aux): where the
    # increments' mean is B_i, cL is L_i.  At eps = 0, L = 1 = cL on every
    # sample, so the sums over a = L - cL are exactly +0.0 and v / L is v.
    cL = 1.0
    if eps > 0:
        cL = float(_multipliers(_increments(samples).mean(keepdims=True), eps,
                                samples.horizon)[0])
    cv = v.mean()
    # per-bin counts and sums of a, a a, d, a d and d d (d = v - cv); a
    # sample i pays q L_i - v_i at every q_j > v_i / L_i, i.e. from sorted
    # grid index first_i on.  np.add.at adds in sample order, as
    # np.bincount does, so the blocks give the whole array's sums.
    count = np.zeros(q.size + 1, dtype=np.intp)
    bins = np.zeros((5, q.size + 1))
    ba, baa, bd, bad, bdd = bins
    for lo in range(0, n, _BIN_BLOCK):
        vb = v[lo:lo + _BIN_BLOCK]
        a = _aux_multipliers(samples, eps, lo, lo + vb.size) if eps > 0 else None
        first = _bin_right(qs, vb if a is None else np.divide(vb, a))
        count += np.bincount(first, minlength=q.size + 1)
        d = np.subtract(vb, cv)
        np.add.at(bd, first, d)
        np.add.at(bdd, first, d * d)
        if a is not None:
            a -= cL
            np.add.at(ba, first, a)
            np.add.at(baa, first, a * a)
            np.add.at(bad, first, a * d)
    # the sums over the paying samples at each q
    k = np.cumsum(count)[:-1]
    sa, saa, sd, sad, sdd = np.cumsum(bins, axis=1)[:, :-1]
    t = qs * sa - sd
    total = np.maximum(t + k * (qs * cL - cv), 0.0)
    value = np.empty_like(qs)
    se = np.zeros_like(qs)
    value[order] = total / n
    if n >= 2:
        # spread among the k paying samples plus the gap between their
        # mean and the n - k zeros
        k1 = np.maximum(k, 1.0)
        within = np.maximum(qs * qs * saa - 2.0 * qs * sad + sdd - t * t / k1, 0.0)
        se[order] = np.sqrt((within + (n - k) * total * total / (n * k1)) / (n - 1) / n)
    return q, value, se


# samples per block of the curve estimators, so that their scratch stays
# O(block) whatever the number of samples.  At 10^6 samples the four
# dual_curve calls of a study-epsilon run (eps 0, 0.5, 0.2, 0.1; 41 q)
# take 136 ms of CPU with 2^14 against 152 ms with 2^16 (median of 9, one
# thread, 2-core VM), and one call at eps 0.2 holds 0.91 MB of scratch
# against 3.6 MB (tracemalloc).
_BIN_BLOCK = 1 << 14


def _bin_right(qs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(qs, u, side="right") for a sorted grid qs: the index
    j with qs[j-1] <= u < qs[j].  A first guess from the grid's mean
    spacing is corrected by +-1 until that holds for every sample, which
    on a uniform grid takes a round or two; a non-uniform grid just takes
    more.  Its scratch is a few arrays of u's size: dual_curve passes one
    block of _BIN_BLOCK samples per call."""
    m = qs.size
    span = qs[-1] - qs[0]
    # below[j] = qs[j-1] and above[j] = qs[j], framed by -inf and by NaN,
    # which compares false, so that no u, +inf included, moves past m
    framed = np.concatenate(([-np.inf], qs, [np.nan]))
    below, above = framed[:-1], framed[1:]
    guess = np.subtract(u, qs[0])
    if span > 0.0:
        guess *= (m - 1) / span
    else:
        guess.fill(0.0)
    np.floor(guess, out=guess)
    guess += 1.0
    j = np.clip(guess, 0, m, out=guess).astype(np.intp)
    todo = np.flatnonzero((below[j] > u) | (above[j] <= u))
    while todo.size:
        jt, ut = j[todo], u[todo]
        jt += above[jt] <= ut
        jt -= below[jt] > ut
        j[todo] = jt
        todo = todo[(below[jt] > ut) | (above[jt] <= ut)]
    return j


def _increments(samples: SampleSet) -> np.ndarray:
    """The auxiliary increments B(T) - B(t0); MissingAux without them."""
    if samples.aux is None:
        raise MissingAux("sample set carries no auxiliary Brownian increments")
    return samples.aux


def _multipliers(b: np.ndarray, eps: float, horizon: float) -> np.ndarray:
    """L_eps = exp(-eps^2 tau / 2 + eps b) of the increments b, built in
    the one array it returns.  Each element is computed on its own."""
    out = np.multiply(b, eps)
    out += -0.5 * eps * eps * horizon
    return np.exp(out, out=out)


def _aux_multipliers(samples: SampleSet, eps: float, lo: int = 0,
                     hi: Optional[int] = None) -> np.ndarray:
    """L_eps of samples lo:hi (all of them by default), equal bit for bit
    to the same slice of the whole array's L_eps."""
    return _multipliers(_increments(samples)[lo:hi], eps, samples.horizon)


def dual_value_regularized(samples: SampleSet, q: float, eps: float) -> Estimate:
    """Mean of (q L_eps - v)^+ with L_eps = exp(-eps^2 tau/2 + eps (B(T)-B(t0)));
    the same B draws serve every (q, eps), so gaps to dual_value are
    common-random-number estimates."""
    _check_finite_nonnegative("q", q)
    _check_finite_nonnegative("eps", eps)
    if eps == 0.0:
        return dual_value(samples, q)
    L = _aux_multipliers(samples, eps)
    w = np.maximum(q * L - samples.values, 0.0)
    n = w.size
    se = float(w.std(ddof=1) / np.sqrt(n)) if n >= 2 else 0.0
    return Estimate(float(w.mean()), se, n)


def default_p_grid(n: int = 101) -> np.ndarray:
    return np.linspace(0.0, 1.0, n)
