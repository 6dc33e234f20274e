"""Exact Neyman-Pearson optimum on a discrete distribution, an independent
reference for `qhedge.mc.quantile_value`: the greedy fill below shares no
code with the fractional-atom rule of the estimator."""
import numpy as np


def neyman_pearson_bruteforce(dist, p: float) -> float:
    """Exact minimum of E[v phi] over randomized tests phi with E[phi] >= p
    on a discrete distribution given as (value, prob) pairs: greedy fill of
    the smallest values with a fractional weight at the marginal atom."""
    arr = np.atleast_2d(np.asarray(dist, dtype=float))
    if arr.shape[1] != 2:
        raise ValueError("expected (value, prob) pairs")
    vals, probs = arr[:, 0], arr[:, 1]
    if np.any(probs < -1e-15):
        raise ValueError("negative probability")
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, not 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    order = np.argsort(vals, kind="stable")
    vals, probs = vals[order], probs[order]
    before = np.cumsum(probs) - probs
    used = np.clip(p - before, 0.0, probs)
    return float(np.dot(used, vals))
