"""Independent reference computations for every derived constant in the test suite.

Run as a script:  python tests/oracle_derivations.py

Each block recomputes a value by brute force (quadrature, dense-grid search,
high-precision special functions, or plain Monte Carlo with a recorded seed)
without importing the package under test.  The printed numbers are the ones
frozen into the regression and acceptance tests; if a formula and its brute
force disagree here, the formula is wrong and must not be shipped.
"""

import numpy as np
from scipy import integrate, optimize
from scipy.special import ndtr, ndtri
import mpmath

mpmath.mp.dps = 30

OK = {"pass": 0, "fail": 0}


def check(label, got, want, tol):
    err = abs(got - want)
    status = "ok " if err <= tol else "FAIL"
    if err <= tol:
        OK["pass"] += 1
    else:
        OK["fail"] += 1
    print(f"[{status}] {label}: got={got!r} want={want!r} |err|={err:.3e}")


def phi(z):
    return float(ndtr(z))


# ---------------------------------------------------------------------------
# 1. standard normal CDF reference points (mpmath, 30 digits)
# ---------------------------------------------------------------------------
print("== normal cdf ==")
phi1 = float(mpmath.ncdf(1))
print("Phi(1) =", repr(phi1))
check("ndtr(1) vs mpmath", phi(1.0), phi1, 1e-15)
check("ndtr(0)", phi(0.0), 0.5, 1e-16)
phi05 = float(mpmath.ncdf(0.5))
print("Phi(0.5) =", repr(phi05))

# ---------------------------------------------------------------------------
# 2. smoothing-gap bound  q * [(1 + Phi(e*sqrt(T)) - Phi(-e*sqrt(T))) * exp(e^2 T) - 1]
#    Identity: the bracket equals E[exp(e^2 T / 2 + e*|G|)] - 1 for G ~ N(0, T).
#    It dominates E|exp(-e^2 T/2 + e G) - 1|, which in turn dominates the
#    worst-case gap sup_q |E[(qL - v)^+] - (q - v)^+| / q for any fixed v.
# ---------------------------------------------------------------------------
print("== smoothing bound ==")


def bound_formula(q, eps, T):
    r = eps * np.sqrt(T)
    return q * ((1.0 + phi(r) - phi(-r)) * np.exp(eps * eps * T) - 1.0)


def bound_quad(q, eps, T):
    # q * E[exp(eps^2 T / 2 + eps |G|) - 1], G ~ N(0, T)
    def f(g):
        return (np.exp(eps * eps * T / 2.0 + eps * abs(g)) - 1.0) * \
            np.exp(-g * g / (2 * T)) / np.sqrt(2 * np.pi * T)
    val, _ = integrate.quad(f, -40 * np.sqrt(T), 40 * np.sqrt(T), limit=200)
    return q * val


for (q, eps, T) in [(1.0, 0.5, 1.0), (2.0, 0.5, 1.0), (2.0, 0.2, 1.0), (2.0, 0.1, 1.0)]:
    bf = bound_formula(q, eps, T)
    bq = bound_quad(q, eps, T)
    check(f"bound({q},{eps},{T}) formula vs quadrature", bf, bq, 1e-10)
    print(f"    bound({q},{eps},{T}) = {bf!r}")


def l_gap_quad(q, eps, T):
    # E|exp(-eps^2 T/2 + eps G) - 1| for G ~ N(0,T): the pathwise smearing error
    def f(g):
        return abs(np.exp(-eps * eps * T / 2.0 + eps * g) - 1.0) * \
            np.exp(-g * g / (2 * T)) / np.sqrt(2 * np.pi * T)
    val, _ = integrate.quad(f, -40 * np.sqrt(T), 40 * np.sqrt(T), limit=200)
    return q * val


for eps in (0.5, 0.2, 0.1):
    g = l_gap_quad(2.0, eps, 1.0)
    b = bound_formula(2.0, eps, 1.0)
    check(f"pathwise gap <= bound at eps={eps}", min(g, b), g, 0.0)
    print(f"    q*E|L-1| = {g:.6f}  bound = {b:.6f}")

# ---------------------------------------------------------------------------
# 3. shifted 3-d radial sampler: E[x0/|x0 e1 + G|] with G ~ N(0, T I3)
#    Radial density of R = |x0 e1 + G|:
#      f(r) = r / (x0 sqrt(2 pi T)) * [exp(-(r-x0)^2/2T) - exp(-(r+x0)^2/2T)]
# ---------------------------------------------------------------------------
print("== 3-d radial identities ==")


def radial_density(r, x0, T):
    c = 1.0 / (x0 * np.sqrt(2 * np.pi * T))
    return r * c * (np.exp(-(r - x0) ** 2 / (2 * T)) - np.exp(-(r + x0) ** 2 / (2 * T)))


x0, T = 1.0, 1.0
mass, _ = integrate.quad(radial_density, 0, 60, args=(x0, T), limit=200)
check("radial density integrates to 1", mass, 1.0, 1e-10)
ez, _ = integrate.quad(lambda r: (x0 / r) * radial_density(r, x0, T), 0, 60, limit=200)
check("E[x0/R] vs 2*Phi(1)-1", ez, 2 * phi1 - 1.0, 1e-10)
print("E[x0/R] =", repr(ez))

rng = np.random.Generator(np.random.Philox(20240817))
G = rng.standard_normal((2_000_000, 3))
R = np.sqrt((np.array([x0, 0, 0]) + G * np.sqrt(T)) ** 2 @ np.ones(3))
zs = x0 / R
se = zs.std(ddof=1) / np.sqrt(len(zs))
check("MC E[x0/R] (n=2e6, seed 20240817)", zs.mean(), ez, 4 * se)

# ---------------------------------------------------------------------------
# 4. lognormal put:
#    E[(q - L)^+] with L lognormal, mean x, log-variance v^2
#      = q*Phi(h+) - x*Phi(h-),  h+- = (ln(q/x) +- v^2/2)/v
# ---------------------------------------------------------------------------
print("== lognormal put ==")


def put_formula(x, q, v):
    if q <= 0.0:
        return 0.0
    h = np.log(q / x) / v
    return q * phi(h + v / 2) - x * phi(h - v / 2)


def put_quad(x, q, v):
    # integrate only where q - L > 0, i.e. below the kink z* = ln(q/x)/v + v/2
    zstar = np.log(q / x) / v + v / 2.0

    def f(z):
        ln = x * np.exp(v * z - v * v / 2.0)
        return (q - ln) * np.exp(-z * z / 2) / np.sqrt(2 * np.pi)
    val, _ = integrate.quad(f, -40, zstar, limit=200)
    return val


v03 = 0.3  # |s - theta| * sqrt(tau) for s=0.2, b=0.1, tau=1
for q in (0.5, 0.8, 1.0, 1.2, 1.5):
    check(f"put(x=1,q={q},v=0.3) formula vs quadrature",
          put_formula(1.0, q, v03), put_quad(1.0, q, v03), 1e-10)
    print(f"    put(1,{q},0.3) = {put_formula(1.0, q, v03)!r}")

N = rng.standard_normal(4_000_000)
L = np.exp(v03 * N - v03 * v03 / 2.0)
pay = np.maximum(1.0 - L, 0.0)
check("MC put(1,1,0.3) (n=4e6)", pay.mean(), put_formula(1.0, 1.0, v03),
      4 * pay.std(ddof=1) / np.sqrt(len(pay)))

# parity: put - (q - x) -> 0 for large q
check("put parity at q=20x", put_formula(1.0, 20.0, v03) - (20.0 - 1.0), 0.0, 1e-6)

# ---------------------------------------------------------------------------
# 5. lognormal lower partial expectation at probability p:
#      E[L ; L <= quantile_p(L)] = x * Phi(Phi^{-1}(p) - v)
# ---------------------------------------------------------------------------
print("== lognormal partial expectation ==")


def lpe_formula(x, p, v):
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return x
    return x * phi(ndtri(p) - v)


def lpe_quad(x, p, v):
    zcut = ndtri(p)

    def f(z):
        return x * np.exp(v * z - v * v / 2.0) * np.exp(-z * z / 2) / np.sqrt(2 * np.pi)
    val, _ = integrate.quad(f, -40, zcut, limit=200)
    return val


for p in (0.1, 0.3, 0.5, 0.7, 0.9):
    check(f"lpe(x=1,p={p},v=0.3) formula vs quadrature",
          lpe_formula(1.0, p, v03), lpe_quad(1.0, p, v03), 1e-10)
    print(f"    lpe(1,{p},0.3) = {lpe_formula(1.0, p, v03)!r}")
print("lpe(1,0.5,0.3) =", repr(lpe_formula(1.0, 0.5, 0.3)))

# sample check of the fractional-order-statistic estimator against the formula
vals = np.sort(np.exp(v03 * rng.standard_normal(1_000_000) - v03 * v03 / 2.0))
for p in (0.3, 0.7):
    m = p * len(vals)
    k = int(np.floor(m))
    est = (vals[:k].sum() + (m - k) * vals[k]) / len(vals)
    check(f"sorted-partial-sum estimator p={p}", est, lpe_formula(1.0, p, v03), 3e-3)

# ---------------------------------------------------------------------------
# 6. two-factor difference with independent lognormal smearing:
#    E[(q*L_e - M)^+], L_e vol e*sqrt(tau), M mean x vol v, independent
#      = put/call value with combined vol vbar = sqrt(v^2 + e^2 tau)
#    Brute force: condition on L_e, use the 1-factor formula, integrate.
# ---------------------------------------------------------------------------
print("== combined-vol smearing ==")


def call_formula(x, q, v):
    # E[(q*L - x*M)^+] for independent unit-mean lognormals, total vol v
    return put_formula(x, q, v)  # symmetric in the two factors


def smeared_quad(x, q, v, ev):
    # outer integral over L_e = exp(ev*z - ev^2/2); v=0 means a hard ramp inner
    # value with a kink at z* -- split the integral there
    def inner(le):
        return max(q * le - x, 0.0) if v == 0.0 else put_formula(x, q * le, v)

    def f(z):
        return inner(np.exp(ev * z - ev * ev / 2.0)) * np.exp(-z * z / 2) / np.sqrt(2 * np.pi)
    if v == 0.0:
        zstar = np.log(x / q) / ev + ev / 2.0
        lo, _ = integrate.quad(f, -40, zstar, limit=200)
        hi, _ = integrate.quad(f, zstar, 40, limit=200)
        return lo + hi
    val, _ = integrate.quad(f, -40, 40, limit=200)
    return val


for (v, ev) in [(0.3, 0.1), (0.3, 0.5), (0.0, 0.1)]:
    vbar = np.sqrt(v * v + ev * ev)
    for q in (0.7, 1.0, 1.6):
        check(f"smeared(x=1,q={q},v={v},ev={ev}) vs combined vol",
              smeared_quad(1.0, q, v, ev), call_formula(1.0, q, vbar), 1e-9)

# worst-case smearing gap over q in [0.2, 2] for the degenerate value v=0
print("degenerate-value smearing gaps, q in [0.2, 2]:")
qs = np.linspace(0.2, 2.0, 1801)
for ev in (0.5, 0.2, 0.1):
    gaps = np.array([call_formula(1.0, q, ev) - max(q - 1.0, 0.0) for q in qs])
    print(f"    eps={ev}: sup gap = {gaps.max():.6f}  at q = {qs[gaps.argmax()]:.3f}"
          f"  (bound(2,{ev},1) = {bound_formula(2.0, ev, 1.0):.6f})")

# ---------------------------------------------------------------------------
# 7. primal value from the smeared dual by dense-grid conjugation:
#    sup_q [p q - E[(q L_e - v_const)^+]] should equal x * Phi(Phi^{-1}(p) - ev)
#    when the terminal value is the constant x (degenerate law).
# ---------------------------------------------------------------------------
print("== conjugate of the smeared dual ==")
for (p, ev) in [(0.5, 0.1), (0.5, 0.2), (0.5, 0.05), (0.25, 0.1), (0.9, 0.1)]:
    qd = np.linspace(0.0, 8.0, 160_001)
    w = np.array([call_formula(1.0, q, ev) if q > 0 else 0.0 for q in qd])
    u_brute = (p * qd - w).max()
    u_closed = phi(ndtri(p) - ev)
    check(f"sup_q conj p={p} ev={ev}", u_brute, u_closed, 5e-7)
    print(f"    U(p={p}, ev={ev}) = {u_closed!r}")

# combined-vol version for the gbm suite
for (p, v, ev) in [(0.5, 0.3, 0.1), (0.8, 0.3, 0.1)]:
    vbar = np.sqrt(v * v + ev * ev)
    qd = np.linspace(0.0, 12.0, 240_001)
    w = np.array([call_formula(1.0, q, vbar) if q > 0 else 0.0 for q in qd])
    u_brute = (p * qd - w).max()
    u_closed = phi(ndtri(p) - vbar)
    check(f"gbm conj p={p} v={v} ev={ev}", u_brute, u_closed, 5e-7)

# ---------------------------------------------------------------------------
# 8. operator canaries: the closed forms above must annihilate both the linear
#    dual operator and the nonlinear primal operator (finite differences).
#    Dual (value W on (t,x,q)):
#      W_t + 0.5 sig^2 W_xx + 0.5 (th^2 + e^2) q^2 W_qq + q sig th W_xq = 0
#    Primal (value U on (t,x,p)):
#      U_t + 0.5 sig^2 U_xx - sig^2 U_xp^2/(2 U_pp)
#          - 0.5 (th^2 + e^2) U_p^2/U_pp + (U_p/U_pp) sig th U_xp = 0
#    with sig = s(x) * x and th = market price of risk.
# ---------------------------------------------------------------------------
print("== operator canaries ==")


def fd_dual_residual(W, model_sig, model_th, eps, t, x, q, T):
    h = 1e-4

    def d(f, *args, i, rel):
        a = list(args)
        step = h * max(1.0, abs(a[i])) * rel
        a[i] += step
        up = f(*a)
        a[i] -= 2 * step
        dn = f(*a)
        a[i] += step
        return (up - dn) / (2 * step), (up - 2 * f(*args) + dn) / (step * step)

    Wt, _ = d(W, t, x, q, i=0, rel=1.0)
    _, Wxx = d(W, t, x, q, i=1, rel=1.0)
    _, Wqq = d(W, t, x, q, i=2, rel=1.0)
    hx = h * max(1.0, abs(x))
    hq = h * max(1.0, abs(q))
    Wxq = (W(t, x + hx, q + hq) - W(t, x + hx, q - hq)
           - W(t, x - hx, q + hq) + W(t, x - hx, q - hq)) / (4 * hx * hq)
    sig = model_sig(x)
    th = model_th(x)
    return Wt + 0.5 * sig * sig * Wxx + 0.5 * (th * th + eps * eps) * q * q * Wqq \
        + q * sig * th * Wxq


def fd_primal_residual(U, model_sig, model_th, eps, t, x, p):
    h = 1e-4
    ht, hx, hp = h, h * max(1.0, abs(x)), h

    Ut = (U(t + ht, x, p) - U(t - ht, x, p)) / (2 * ht)
    Uxx = (U(t, x + hx, p) - 2 * U(t, x, p) + U(t, x - hx, p)) / (hx * hx)
    Up = (U(t, x, p + hp) - U(t, x, p - hp)) / (2 * hp)
    Upp = (U(t, x, p + hp) - 2 * U(t, x, p) + U(t, x, p - hp)) / (hp * hp)
    Uxp = (U(t, x + hx, p + hp) - U(t, x + hx, p - hp)
           - U(t, x - hx, p + hp) + U(t, x - hx, p - hp)) / (4 * hx * hp)
    sig = model_sig(x)
    th = model_th(x)
    return Ut + 0.5 * sig * sig * Uxx - sig * sig * Uxp * Uxp / (2 * Upp) \
        - 0.5 * (th * th + eps * eps) * Up * Up / Upp + (Up / Upp) * sig * th * Uxp


T = 1.0
eps = 0.1

# radial-drift model: sig(x) = 1, th(x) = 1/x; dual value is the smeared ramp
bes_sig = lambda x: 1.0
bes_th = lambda x: 1.0 / x


def bes_dual(t, x, q):
    return call_formula(x, q, eps * np.sqrt(T - t))


def bes_primal(t, x, p):
    return x * phi(ndtri(p) - eps * np.sqrt(T - t))


for (t, x, q) in [(0.3, 1.0, 1.2), (0.5, 0.8, 0.9), (0.1, 2.0, 2.5)]:
    r = fd_dual_residual(bes_dual, bes_sig, bes_th, eps, t, x, q, T)
    check(f"radial dual canary at {(t, x, q)}", r, 0.0, 2e-5)
for (t, x, p) in [(0.3, 1.0, 0.5), (0.5, 0.8, 0.3), (0.1, 2.0, 0.7)]:
    r = fd_primal_residual(bes_primal, bes_sig, bes_th, eps, t, x, p)
    check(f"radial primal canary at {(t, x, p)}", r, 0.0, 2e-5)

# constant-coefficient model: b=0.1, s=0.2
b_, s_ = 0.1, 0.2
th_ = b_ / s_
gbm_sig = lambda x: s_ * x
gbm_th = lambda x: th_
vu = np.sqrt((s_ - th_) ** 2 + eps * eps)  # per unit time


def gbm_dualf(t, x, q):
    return call_formula(x, q, vu * np.sqrt(T - t))


def gbm_primalf(t, x, p):
    return x * phi(ndtri(p) - vu * np.sqrt(T - t))


for (t, x, q) in [(0.3, 1.0, 1.2), (0.5, 0.8, 0.9), (0.1, 2.0, 2.5)]:
    r = fd_dual_residual(gbm_dualf, gbm_sig, gbm_th, eps, t, x, q, T)
    check(f"const-coef dual canary at {(t, x, q)}", r, 0.0, 2e-5)
for (t, x, p) in [(0.3, 1.0, 0.5), (0.5, 0.8, 0.3), (0.1, 2.0, 0.7)]:
    r = fd_primal_residual(gbm_primalf, gbm_sig, gbm_th, eps, t, x, p)
    check(f"const-coef primal canary at {(t, x, p)}", r, 0.0, 2e-5)

# ---------------------------------------------------------------------------
# 9. hand enumerations frozen into unit tests
# ---------------------------------------------------------------------------
print("== hand enumerations ==")
vals = np.array([1.0, 2.0, 3.0, 4.0])
n = len(vals)
for p, want in [(0.5, 0.75), (0.6, 1.05), (0.0, 0.0), (1.0, 2.5)]:
    m = p * n
    k = int(np.floor(m))
    got = (vals[:k].sum() + ((m - k) * vals[k] if k < n else 0.0)) / n
    check(f"sorted partial sum p={p}", got, want, 1e-15)

# greedy fill on atoms {(1, .5), (3, .5)} at p = 0.75
atoms = [(1.0, 0.5), (3.0, 0.5)]
p = 0.75
acc, mass = 0.0, 0.0
for v, pr in atoms:
    take = min(pr, p - mass)
    acc += v * take
    mass += take
check("greedy atoms p=0.75", acc, 1.25, 1e-15)

# partial expectations on {1, 3}
check("partial {1,3} q=2 a=2", (2.0 - 1.0) / 2.0, 0.5, 1e-15)
check("partial {1,3} q=2 a=4", ((2.0 - 1.0) + (2.0 - 3.0)) / 2.0, 0.0, 1e-15)

# lower hull of {0, 1, 0.1} on {0, 0.5, 1}
check("hull midpoint", 0.0 + 0.5 * (0.1 - 0.0), 0.05, 1e-15)

# ---------------------------------------------------------------------------
# 10. dense-grid conjugation of p^2 on [0,1]
# ---------------------------------------------------------------------------
print("== conjugate of p^2 ==")
pd = np.linspace(0, 1, 400_001)
for q, want in [(0.5, 0.0625), (1.0, 0.25), (2.0, 1.0), (3.0, 2.0)]:
    got = (pd * q - pd ** 2).max()
    check(f"conj(p^2)({q})", got, want, 1e-9)

# ---------------------------------------------------------------------------
# 11. the d=2 gbm dual in the price ratio rho = x1/x2 (pde._price_ratio).
#     With x2 as numeraire, Z g(X) = x2 Zh g~(rho), Zh = Z X2 / x2, and rho
#     a gbm with b~ = b1 - b2 + |s2|^2 - s1.s2, s~ = |s1 - s2|; the part of
#     Zh orthogonal to rho's noise has volatility nu, nu^2 = |s2 - theta|^2
#     - (b~/s~)^2, and smears like eps.  For g = x1 (g~ = rho):
#       (s~ - b~/s~)^2 + nu^2 = |s1 - theta|^2,
#       x2 * smeared(x1/x2, q/x2; b~, s~, eps_eff) = smeared(x1, q; 0, |s1 - theta|, eps)
#     with smeared(x, q; b, s, eps) the put at log-vol sqrt((s - b/s)^2 +
#     eps^2) sqrt(tau), eps_eff^2 = eps^2 + nu^2.  Brute force: the d=2
#     expectation E[(q L - Z X1)^+] by 2-d Gauss-Hermite quadrature over
#     the two Brownian motions, L integrated in closed form.
# ---------------------------------------------------------------------------
print("== d=2 gbm dual in the price ratio ==")


def smeared(x, q, b, s, tau, ev):
    return put_formula(x, q, np.sqrt(((s - b / s) ** 2 + ev * ev) * tau))


gh_z, gh_w = np.polynomial.hermite_e.hermegauss(120)
gh_w = gh_w / gh_w.sum()
for label, sm in (("diagonal", np.diag([0.3, 0.25])), ("full", np.array([[0.3, 0.1], [0.0, 0.25]]))):
    bv = np.array([0.05, 0.03])
    th = np.linalg.solve(sm, bv)
    s1, s2 = sm
    b_t = bv[0] - bv[1] + s2 @ s2 - s1 @ s2
    s_t = np.linalg.norm(s1 - s2)
    nu2 = (s2 - th) @ (s2 - th) - (b_t / s_t) ** 2
    v1 = np.linalg.norm(s1 - th)
    check(f"{label}: (s~ - b~/s~)^2 + nu^2 = |s1 - theta|^2", (s_t - b_t / s_t) ** 2 + nu2,
          v1 * v1, 1e-15)
    print(f"    {label}: b~ = {b_t!r}, s~ = {s_t!r}, nu = {np.sqrt(nu2)!r}")
    ev, tau = 0.2, 1.0
    ev_eff = np.sqrt(ev * ev + nu2)
    for x1, x2, q in ((1.0, 1.0, 1.2), (0.6, 1.7, 0.9), (1.9, 0.55, 2.5)):
        ratio = x2 * smeared(x1 / x2, q / x2, b_t, s_t, tau, ev_eff)
        check(f"{label}: x2 smeared(rho) = smeared(x1) at {(x1, x2, q)}", ratio,
              smeared(x1, q, 0.0, v1, tau, ev), 1e-14)
        w1, w2 = np.meshgrid(gh_z, gh_z, indexing="ij")
        m = x1 * np.exp(np.sqrt(tau) * ((s1 - th)[0] * w1 + (s1 - th)[1] * w2) - 0.5 * v1 * v1 * tau)
        inner = np.vectorize(lambda mm: put_formula(mm, q, ev * np.sqrt(tau)))(m)
        brute = float((gh_w[:, None] * gh_w[None, :] * inner).sum())
        check(f"{label}: 2-d quadrature = x2 smeared(rho) at {(x1, x2, q)}", brute, ratio, 1e-9)

# ---------------------------------------------------------------------------
# 12. a claim of one under the radial model (g = 1, eps = 0), the paper's
#     strict local martingale case (oracles.bessel_unit_quantile_value).
#     The cheapest set of probability p is {R >= a}, P(R >= a) = p, where
#     Z = x0/R is smallest, and E[x0/R; R >= a] is the mass of Brownian
#     motion from x0 killed at 0 above a (the density of R times x0/r):
#       P(R >= a) = Phi((x0-a)/r) + Phi(-(x0+a)/r)
#                   + (r/x0) (phi((a-x0)/r) - phi((a+x0)/r)),  r = sqrt(T),
#       U(p)      = Phi((x0-a)/r) + Phi((x0+a)/r) - 1,
#     so U(1) = 2 Phi(x0/r) - 1 = E[x0/R] of block 3.  Brute force: both by
#     quadrature of the radial density, a by root finding on the quadrature,
#     and U by the lowest-Z p-mass of the radial samples of block 3.
# ---------------------------------------------------------------------------
print("== claim of one under the radial model ==")


def npdf(z):
    return np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)


def survival_formula(a, x0, T):
    r = np.sqrt(T)
    return (phi((x0 - a) / r) + phi(-(x0 + a) / r)
            + r / x0 * (npdf((a - x0) / r) - npdf((a + x0) / r)))


def survival_quad(a, x0, T):
    return integrate.quad(radial_density, a, 60, args=(x0, T), limit=200,
                          epsabs=0.0, epsrel=1e-13)[0]


for a in (0.0, 0.1, 0.7, 1.5, 3.0):
    check(f"P(R >= {a}) closed form vs quadrature", survival_formula(a, x0, T),
          survival_quad(a, x0, T), 1e-15)

R_sorted = np.sort(R)[::-1]
for p in (0.5, 0.9, 1.0):
    a = 0.0 if p == 1.0 else optimize.brentq(lambda t: survival_quad(t, x0, T) - p, 0.0, 20.0,
                                             xtol=1e-15)
    r = np.sqrt(T)
    formula = phi((x0 - a) / r) + phi((x0 + a) / r) - 1.0
    quad_u = integrate.quad(lambda y: (x0 / y) * radial_density(y, x0, T), max(a, 1e-300), 60,
                            limit=200, epsabs=1e-15, epsrel=1e-13)[0]
    check(f"U({p}) closed form vs quadrature", formula, quad_u, 1e-10)
    k = int(p * len(R_sorted))
    zp = np.zeros(len(R_sorted))
    zp[:k] = x0 / R_sorted[:k]
    se = zp.std(ddof=1) / np.sqrt(len(zp))
    check(f"U({p}) MC lowest-Z p-mass (n=2e6, seed 20240817)", zp.mean(), formula, 4 * se)
    print(f"    U({p}) = {formula!r}  a = {a!r}")

# ---------------------------------------------------------------------------
# 13. the d=2 gbm dual of g = x_k on the stock itself (pde._stock_numeraire).
#     Z X_k = x_k exp((s_k - theta).W_tau - |s_k - theta|^2 tau / 2): the
#     drift b_k - s_k.theta is 0, so Z X_k is lognormal with log-volatility
#     v_k = |s_k - theta| whatever the other stock does, and
#       E[(q L - Z X_k)^+] = x_k smeared(1, q/x_k; 0, v_k, eps)
#                          = x_k put(1, q/x_k, eps_eff sqrt(tau)),
#     eps_eff^2 = eps^2 + v_k^2: the eta-only dual f at eps_eff, which is
#     that of the d=1 gbm(b = 0, s = v_k).  Brute force: as in block 11, the
#     2-d Gauss-Hermite quadrature over the two Brownian motions, for k = 1
#     and k = 2 (block 11 has k = 1 only, through rho).
# ---------------------------------------------------------------------------
print("== d=2 gbm dual on the stock itself ==")

for label, sm in (("diagonal", np.diag([0.3, 0.25])), ("full", np.array([[0.3, 0.1], [0.0, 0.25]]))):
    bv = np.array([0.05, 0.03])
    th = np.linalg.solve(sm, bv)
    ev, tau = 0.2, 1.0
    w1, w2 = np.meshgrid(gh_z, gh_z, indexing="ij")
    for k in (0, 1):
        u = sm[k] - th
        vk = np.linalg.norm(u)
        check(f"{label}, k = {k + 1}: drift of Z X_k, b_k - s_k.theta", bv[k] - sm[k] @ th, 0.0,
              1e-15)
        print(f"    {label}, k = {k + 1}: v_k = {vk!r}, eps_eff = {np.hypot(ev, vk)!r}")
        for x1, x2, q in ((1.0, 1.0, 1.2), (0.6, 1.7, 0.9), (1.9, 0.55, 2.5)):
            xk = (x1, x2)[k]
            want = xk * smeared(1.0, q / xk, 0.0, vk, tau, ev)
            check(f"{label}, k = {k + 1}: smeared = put at eps_eff at {(x1, x2, q)}",
                  xk * put_formula(1.0, q / xk, np.hypot(ev, vk) * np.sqrt(tau)), want, 1e-15)
            m = xk * np.exp(np.sqrt(tau) * (u[0] * w1 + u[1] * w2) - 0.5 * vk * vk * tau)
            inner = np.vectorize(lambda mm: put_formula(mm, q, ev * np.sqrt(tau)))(m)
            brute = float((gh_w[:, None] * gh_w[None, :] * inner).sum())
            check(f"{label}, k = {k + 1}: 2-d quadrature = x_k smeared(1, q/x_k) at {(x1, x2, q)}",
                  brute, want, 1e-9)

print()
print(f"passed {OK['pass']}  failed {OK['fail']}")
raise SystemExit(0 if OK["fail"] == 0 else 1)
