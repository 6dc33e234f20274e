"""Whole-array forms of the Monte Carlo curve estimators, kept as the
reference that the block-wise estimators of qhedge.mc must match bit for
bit.  Every pass here spans all n samples at once: L_eps, the thresholds,
the bins and each weighted sum are n-arrays, and the prefix sums of the
quantile curve cover every sorted sample.  The bins come from
np.searchsorted, which mc._bin_right is tested against."""
import numpy as np


def _prefix_sum(v):
    out = np.zeros(v.size + 1)
    np.cumsum(v, out=out[1:])
    return out


def aux_multipliers(samples, eps, aux=None):
    """L_eps of every sample, or of the increments aux where given."""
    b = samples.aux if aux is None else aux
    return np.exp(-0.5 * eps * eps * samples.horizon + eps * b)


def quantile_curve(samples, p_grid):
    p = np.asarray(p_grid, dtype=float)
    v = np.sort(samples.values)
    n = v.size
    m = p * n
    k = np.minimum(np.floor(m).astype(int), n)
    vk = v[np.minimum(k, n - 1)]
    value = (_prefix_sum(v)[k] + np.where(k < n, (m - k) * vk, 0.0)) / n
    se = np.zeros_like(value)
    if n >= 2:
        c = v.mean()
        dv = v - c
        sd = _prefix_sum(dv)[k]
        sdd = _prefix_sum(dv * dv)[k]
        t = k * (vk - c) - sd
        k1 = np.maximum(k, 1)
        within = np.maximum(sdd - sd * sd / k1, 0.0)
        se = np.sqrt((within + (n - k) * t * t / (n * k1)) / (n - 1) / n)
    return p, value, se


def dual_curve(samples, q_grid, eps=0.0):
    q = np.asarray(q_grid, dtype=float)
    v = samples.values
    n = v.size
    L = aux_multipliers(samples, eps) if eps > 0 else np.ones(n)
    order = np.argsort(q, kind="stable")
    qs = q[order]
    first = np.searchsorted(qs, v / L, side="right")

    def paying(weights=None):
        return np.cumsum(np.bincount(first, weights, minlength=q.size + 1))[:-1]

    # the centre of L is L_eps at the mean increment
    cL = aux_multipliers(samples, eps, samples.aux.mean()) if eps > 0 else 1.0
    cv = v.mean()
    a = L - cL
    d = v - cv
    k, sa, saa = paying(), paying(a), paying(a * a)
    sd, sad, sdd = paying(d), paying(a * d), paying(d * d)
    t = qs * sa - sd
    total = np.maximum(t + k * (qs * cL - cv), 0.0)
    value = np.empty_like(qs)
    se = np.zeros_like(qs)
    value[order] = total / n
    if n >= 2:
        k1 = np.maximum(k, 1.0)
        within = np.maximum(qs * qs * saa - 2.0 * qs * sad + sdd - t * t / k1, 0.0)
        se[order] = np.sqrt((within + (n - k) * total * total / (n * k1)) / (n - 1) / n)
    return q, value, se


def dual_value_regularized(samples, q, eps):
    """(value, std_error) of mean (q L_eps - v)^+ at eps > 0."""
    w = np.maximum(q * aux_multipliers(samples, eps) - samples.values, 0.0)
    n = w.size
    se = float(w.std(ddof=1) / np.sqrt(n)) if n >= 2 else 0.0
    return float(w.mean()), se
