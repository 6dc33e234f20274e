"""Model construction, coefficient conventions, payoffs."""
import numpy as np
import pytest

from qhedge import market
from qhedge.errors import InvalidCoefficients, SingularDiffusion, UnknownModel
from qhedge.market import (MarketModel, builtin_model, linear_payoff,
                           payoff_from_expression)


def test_radial_builtin_coefficients():
    m = builtin_model("bessel3")
    assert m.dim == 1 and m.kind == "bessel3"
    x = np.array([[0.5], [2.0]])
    # relative drift 1/x^2, relative vol 1/x, so mu = 1/x and sigma = 1
    assert np.allclose(m.drift(x), [[4.0], [0.25]])
    assert np.allclose(m.vol(x)[:, 0, 0], [2.0, 0.5])
    assert np.allclose(m.sigma(x)[:, 0, 0], [1.0, 1.0])
    # market price of risk is 1/x
    assert np.allclose(m.theta(x)[:, 0], [2.0, 0.5])


def test_gbm_builtin_scalar_and_matrix():
    m = builtin_model("gbm", b=0.1, s=0.2)
    assert m.dim == 1 and m.kind == "gbm"
    x = np.array([[1.0], [3.0]])
    assert np.allclose(m.drift(x), 0.1)
    assert np.allclose(m.vol(x), 0.2)
    assert np.allclose(m.theta(x), 0.5)
    m2 = builtin_model("gbm", b=[0.1, 0.0], s=[[0.2, 0.0], [0.05, 0.3]])
    assert m2.dim == 2
    th = m2.theta(np.array([[1.0, 1.0]]))[0]
    # solve s theta = b by hand for the lower-triangular matrix
    assert th[0] == pytest.approx(0.5)
    assert th[1] == pytest.approx((0.0 - 0.05 * 0.5) / 0.3)


def test_gbm_parameter_validation():
    with pytest.raises(InvalidCoefficients):
        builtin_model("gbm", b=0.1)
    with pytest.raises(InvalidCoefficients):
        builtin_model("gbm", b=0.1, s=0.2, extra=1)
    with pytest.raises(InvalidCoefficients):
        builtin_model("gbm", b=[0.1, 0.2], s=[[0.2]])
    with pytest.raises(UnknownModel):
        builtin_model("heston")
    with pytest.raises(InvalidCoefficients):
        builtin_model("bessel3", b=0.1)


def test_singular_volatility_raises():
    # constant singular matrix is caught at construction
    with pytest.raises(InvalidCoefficients):
        builtin_model("gbm", b=[0.1, 0.1], s=[[0.2, 0.2], [0.2, 0.2]])
    # pointwise singularity away from the construction probes surfaces at use
    m = builtin_model("custom", dim=1, b_exprs=["0.1"], s_exprs=[["x1 - 1"]])
    with pytest.raises(SingularDiffusion):
        m.theta(np.array([[1.0]]))


@pytest.mark.parametrize("model", [
    builtin_model("bessel3"),
    builtin_model("gbm", b=[0.05, 0.03], s=[0.3, 0.25]),
    builtin_model("custom", dim=2, b_exprs=["(x1 + x2) / (2 * x1)", "(x1 + x2) / (2 * x2)"],
                  s_exprs=[["sqrt((x1 + x2) / x1)", "0"], ["0", "sqrt((x1 + x2) / x2)"]]),
], ids=["bessel3", "gbm-d2", "vsm"])
def test_diagonal_theta_divides_as_the_solve_does(monkeypatch, model):
    # a diagonal s, always so in d = 1, gives theta = b / diag(s) with no
    # solve, and that is what the solve returns, bit for bit
    x = np.random.default_rng(3).uniform(0.05, 20.0, (5000, model.dim))
    want = np.linalg.solve(model.vol(x), model.drift(x)[..., None])[..., 0]

    def no_solve(*args, **kwargs):
        raise AssertionError("a diagonal volatility went to the solve")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    assert np.array_equal(model.theta(x), want)


def test_custom_model_expressions():
    m = builtin_model("custom", dim=2,
                      b_exprs=["0.1", "0.2 * x1"],
                      s_exprs=[["0.3", "0"], ["0", "0.4 / x2"]])
    assert m.kind == "custom" and m.dim == 2
    x = np.array([[2.0, 4.0]])
    assert np.allclose(m.drift(x), [[0.1, 0.4]])
    assert np.allclose(m.vol(x)[0], [[0.3, 0.0], [0.0, 0.1]])
    with pytest.raises(InvalidCoefficients):
        builtin_model("custom", dim=1, b_exprs=["os.kill"], s_exprs=[["1"]])
    with pytest.raises(InvalidCoefficients):
        builtin_model("custom", dim=2, b_exprs=["1"], s_exprs=[["1"]])


def stacked_expressions(exprs, x):
    """The per-expression form the custom coefficients replaced: each
    result broadcast to (n,) and copied, then stacked along axis 1."""
    if isinstance(exprs, list):
        return np.stack([stacked_expressions(e, x) for e in exprs], axis=1)
    scope = dict(market._EXPR_NAMES, **{f"x{i + 1}": x[:, i] for i in range(x.shape[1])})
    out = eval(compile(exprs, "<expr>", "eval"), {"__builtins__": {}}, scope)
    return np.broadcast_to(np.asarray(out, dtype=float), (x.shape[0],)).copy()


@pytest.mark.parametrize("dim, b_exprs, s_exprs", [
    *[pytest.param(1, [e], [[e]], id=e) for e in ("0.05", "1", "x1", "0.2 * x1")],
    pytest.param(2, ["0.05", "0.03*x2"], [["0.3", "0"], ["0.1*x1", "0.25"]], id="full-matrix-d2"),
])
def test_custom_coefficients_match_the_stacked_expressions(dim, b_exprs, s_exprs):
    # each expression is written straight into its entry of one array: the
    # same float64 bits as the stacked form, in memory apart from x even
    # where an expression evaluates to a view of it
    m = builtin_model("custom", dim=dim, b_exprs=b_exprs, s_exprs=s_exprs)
    x = np.linspace(0.5, 2.0, 7 * dim).reshape(7, dim)
    for got, want in ((m.b(x), stacked_expressions(b_exprs, x)),
                      (m.s(x), stacked_expressions(s_exprs, x))):
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, x)


def test_quadratic_forms_consistency():
    m = builtin_model("gbm", b=0.1, s=0.2)
    x = np.array([[1.5]])
    # a = s s' and alpha = sigma sigma', sigma_ik = s_ik x_i
    s, sigma = m.vol(x), m.sigma(x)
    assert (s @ np.swapaxes(s, -1, -2))[0, 0, 0] == pytest.approx(0.04)
    assert (sigma @ np.swapaxes(sigma, -1, -2))[0, 0, 0] == pytest.approx(0.04 * 1.5 ** 2)


def test_point_dimension_check():
    m = builtin_model("bessel3")
    with pytest.raises(ValueError):
        m.drift(np.ones((3, 2)))
    with pytest.raises(ValueError):
        m.theta([1.0, 1.0])
    with pytest.raises(ValueError):
        m.sigma(np.ones((3, 2)))


def test_linear_payoff_variants():
    g = linear_payoff()
    assert g.name == "first-coordinate"
    assert np.allclose(g(np.array([[2.0, 5.0]])), [2.0])
    g2 = linear_payoff([0.5, 0.25])
    assert g2.name == "weighted-sum"
    assert np.allclose(g2(np.array([[2.0, 4.0]])), [2.0])
    # 1-d convenience: a flat vector is a single point
    assert np.allclose(g(np.array([3.0])), [3.0])


def test_payoff_from_expression():
    g = payoff_from_expression("maximum(x1 - 1, 0)", 1)
    assert np.allclose(g(np.array([[0.5], [2.0]])), [0.0, 1.0])
    assert "maximum" in g.name
    with pytest.raises(InvalidCoefficients):
        payoff_from_expression("__import__('os')", 1)


def test_model_is_frozen():
    m = builtin_model("bessel3")
    with pytest.raises(AttributeError):
        m.dim = 2
    assert isinstance(m, MarketModel)
