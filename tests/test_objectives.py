import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsgd_lab.objectives import (
    MAKERS,
    DiagonalQuadraticProblem,
    LogisticProblem,
    ProblemConstants,
    SinusoidQuadraticProblem,
    make_convex_quadratics,
    make_logistic_family,
    make_nonconvex_family,
    make_strongly_convex_quadratics,
    problem_from_spec,
)

FAMILY_BLOCKS = {  # a config problem block for each family, less its "family" key
    "strongly-convex-quadratic": {"n": 4, "d": 5, "mu": 0.1, "L": 1.0, "delta": 1.0,
                                  "sigma_noise": 0.5, "seed": 7},
    "convex-quadratic": {"n": 3, "d": 4, "L": 2.0, "eps_pd": 0.05, "delta": 0.7,
                         "sigma_noise": 0.3, "seed": 11},
    "nonconvex": {"n": 4, "d": 5, "Q_diag": np.linspace(0.2, 1.0, 5).tolist(), "delta": 1.0,
                  "eps_sin": 0.3, "sigma_noise": 0.4, "seed": 3},
    "logistic": {"n": 4, "d": 4, "K": 5, "m": 12, "shards_per_agent": 2, "lam": 0.05,
                 "seed": 19},
}


def hand_quadratic(sigma_noise=0.3):
    # q = 1 everywhere, centers +-e1: x* = 0, f* = 0.5, sigma_bar_sq = 1 + noise^2
    q = np.ones((2, 2))
    c = np.array([[1.0, 0.0], [-1.0, 0.0]])
    return DiagonalQuadraticProblem(q, c, sigma_noise, mu=1.0, L=1.0)


def fd_grad(f, x, h=1e-5):
    """Central differences of f at x (..., dim); f gives one value per leading
    index, so f = values differentiates every agent at its own row of x."""
    g = np.zeros_like(x)
    for k in range(x.shape[-1]):
        e = np.zeros(x.shape[-1])
        e[k] = h
        g[..., k] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def drawn(p, gens):
    """p's noise block with one row per generator, drawn by draw_noise."""
    noise = p.noise_block(len(gens))
    p.draw_noise(gens, noise)
    return noise


def at_every_agent(x, n):
    """x (..., dim) as the (..., n, dim) points of n agents that all sit at x."""
    return np.repeat(x[..., None, :], n, axis=-2)


def all_test_problems():
    """(family, problem) for every family, each problem built by its maker from
    the family's FAMILY_BLOCKS parameters."""
    return [
        ("strongly-convex-quadratic",
         make_strongly_convex_quadratics(**FAMILY_BLOCKS["strongly-convex-quadratic"])),
        ("convex-quadratic", make_convex_quadratics(**FAMILY_BLOCKS["convex-quadratic"])),
        ("nonconvex", make_nonconvex_family(**FAMILY_BLOCKS["nonconvex"])),
        ("logistic", make_logistic_family(**FAMILY_BLOCKS["logistic"])),
    ]


def test_hand_quadratic_oracles():
    p = hand_quadratic()
    k = p.constants()
    np.testing.assert_allclose(k.x_star, [0.0, 0.0], atol=1e-15)
    assert k.f_star == pytest.approx(0.5)
    assert k.sigma_bar_sq == pytest.approx(1.09)
    np.testing.assert_allclose(p.values(np.zeros((2, 2))), [0.5, 0.5])
    np.testing.assert_allclose(p.grads(np.zeros((2, 2))), [[-1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(p.global_grad([2.0, 3.0]), [2.0, 3.0])
    assert p.global_value([0.0, 0.0]) == pytest.approx(0.5)


def test_homogeneous_single_agent_has_zero_G():
    p = DiagonalQuadraticProblem(np.array([[2.0, 0.5]]), np.array([[1.0, -1.0]]),
                                 0.0, mu=0.5, L=2.0)
    k = p.constants()
    assert k.G == pytest.approx(0.0, abs=1e-12)
    assert k.B >= 1.0


def test_x_validation():
    for _, p in all_test_problems():
        with pytest.raises(ValueError):
            p.global_value(np.full(p.dim, np.nan))
        with pytest.raises(ValueError):
            p.global_grad(np.zeros(p.dim + 1))


def test_constants_invariants_all_families():
    for family, p in all_test_problems():
        k = p.constants()
        assert isinstance(k, ProblemConstants)
        assert k.L >= k.mu >= 0
        assert k.B >= 1
        assert k.G >= 0
        assert k.sigma_sq >= 0
        if family == "nonconvex":
            assert k.x_star is None and k.f_star is None and k.sigma_bar_sq is None
        else:
            assert k.sigma_bar_sq >= 0
            assert np.linalg.norm(p.global_grad(k.x_star)) <= 1.1e-10
            for name in ("L", "mu", "sigma_sq", "G", "B", "x_star", "f_star"):
                assert name in k.provenance


def test_constants_cache_is_reused():
    _, p = all_test_problems()[0]
    assert p.constants() is p.constants()


def test_provenance_pinned_per_family():
    # every constant's tag, in field order; only logistic computes any numerically
    analytic = dict.fromkeys(("L", "mu", "sigma_bar_sq", "sigma_sq", "G", "B", "x_star",
                              "f_star"), "analytic")
    want = {
        "strongly-convex-quadratic": analytic,
        "convex-quadratic": analytic,
        "nonconvex": {**analytic, **dict.fromkeys(("sigma_bar_sq", "x_star", "f_star"),
                                                  "undefined")},
        "logistic": {**analytic, **dict.fromkeys(("L", "sigma_bar_sq", "x_star", "f_star"),
                                                 "numeric")},
    }
    for family, p in all_test_problems():
        k = p.constants()
        assert list(k.provenance.items()) == list(want[family].items())
        if k.f_star is not None:  # the default lower bound is f* itself
            assert p.value_lower_bound() == k.f_star


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["strongly-convex-quadratic", "convex-quadratic", "nonconvex",
                        "logistic"]),
       st.integers(1, 4), st.integers(2, 4), st.integers(0, 50),
       st.lists(st.floats(-50, 50), min_size=12, max_size=12))
def test_value_lower_bound_is_below_f(family, n, d, seed, coords):
    p = family_problem(family, n, d, seed)
    x = np.array(coords[:p.dim])  # logistic has 3 * d <= 12 variables
    assert p.value_lower_bound() <= p.global_value(x)


def test_strongly_convex_pins_extreme_curvatures():
    p = make_strongly_convex_quadratics(n=5, d=6, mu=0.2, L=3.0, delta=0.5,
                                        sigma_noise=0.0, seed=1)
    assert np.all(p.q[:, 0] == 3.0)
    assert np.all(p.q[:, 1] == 0.2)
    assert p.q.min() >= 0.2 and p.q.max() <= 3.0


def test_zero_delta_means_identical_centers():
    p = make_strongly_convex_quadratics(n=6, d=4, mu=0.1, L=1.0, delta=0.0,
                                        sigma_noise=0.0, seed=5)
    assert np.ptp(p.c, axis=0).max() == pytest.approx(0.0, abs=1e-14)


def test_convex_family_structure():
    p = make_convex_quadratics(n=3, d=4, L=2.0, eps_pd=0.05, delta=0.7,
                               sigma_noise=0.3, seed=11)
    assert np.any(p.q == 0.0)
    assert np.all(p.q.mean(axis=0) >= 0.05)
    k = p.constants()
    assert k.mu == 0.0
    assert np.linalg.norm(p.global_grad(k.x_star)) <= 1e-10


def test_convex_family_impossible_eps_raises():
    # eps_pd = L can essentially never hold after coin-flip zeroing
    with pytest.raises(ValueError, match="100 attempts"):
        make_convex_quadratics(n=8, d=8, L=1.0, eps_pd=1.0, delta=0.0,
                               sigma_noise=0.0, seed=0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _, p in all_test_problems():
        X = rng.standard_normal((p.n, p.dim))  # a point of its own per agent
        G = p.grads(X)
        fd = fd_grad(p.values, X)
        assert np.all(np.linalg.norm(fd - G, axis=1) / (1 + np.linalg.norm(G, axis=1)) < 1e-6)
        x = X[0]
        g = p.global_grad(x)
        fd = fd_grad(p.global_value, x)
        assert np.linalg.norm(fd - g) / (1 + np.linalg.norm(g)) < 1e-6


def family_problem(family, n, d, seed):
    """A noisy problem of the family with n agents; the logistic one has 3 * d variables."""
    if family == "strongly-convex-quadratic":
        return make_strongly_convex_quadratics(n=n, d=d, mu=0.2, L=1.0, delta=1.0,
                                               sigma_noise=0.7, seed=seed)
    if family == "convex-quadratic":
        return make_convex_quadratics(n=n, d=d, L=1.0, eps_pd=0.01, delta=1.0,
                                      sigma_noise=0.7, seed=seed)
    if family == "nonconvex":
        return make_nonconvex_family(n=n, d=d, Q_diag=np.linspace(0.2, 1.0, d), delta=1.0,
                                     eps_sin=0.3, sigma_noise=0.7, seed=seed)
    return make_logistic_family(n=n, d=d, K=3, m=6, shards_per_agent=2, lam=0.2, seed=seed)


@st.composite
def oracle_cases(draw):
    family = draw(st.sampled_from(["strongly-convex-quadratic", "convex-quadratic",
                                   "nonconvex", "logistic"]))
    n, d = draw(st.integers(1, 5)), draw(st.integers(2, 5))
    k, S = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lead = draw(st.sampled_from([(), (k,), (k, S)]))
    scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    return family, n, d, k, S, lead, scale, draw(st.integers(0, 50)), draw(st.integers(0, 2**31))


@settings(max_examples=80, deadline=None)
@given(oracle_cases())
def test_batched_oracle_interface(case):
    family, n, d, k, S, lead, scale, problem_seed, draw_seed = case
    p = family_problem(family, n, d, problem_seed)
    rng = np.random.default_rng(draw_seed)
    # every leading index of X is evaluated on its own, bit for bit
    X = rng.standard_normal((*lead, n, p.dim)) * scale
    V, G = p.values(X), p.grads(X)
    assert V.shape == (*lead, n) and G.shape == X.shape
    for idx in np.ndindex(*lead):
        assert p.values(X[idx]).tobytes() == V[idx].tobytes()
        assert p.grads(X[idx]).tobytes() == G[idx].tobytes()
    # f and its gradient are the agents' means: bitwise where they are computed
    # that way (logistic), to rounding where they have closed forms
    x = X[..., 0, :]
    value, grad = p._global_value(x), p._global_grad(x)
    mean_value = p.values(at_every_agent(x, n)).mean(axis=-1)
    mean_grad = p.grads(at_every_agent(x, n)).mean(axis=-2)
    assert np.shape(value) == lead and grad.shape == x.shape
    if family == "logistic":
        assert np.asarray(value).tobytes() == mean_value.tobytes()
        assert grad.tobytes() == mean_grad.tobytes()
    else:
        np.testing.assert_allclose(value, mean_value, rtol=1e-12)
        np.testing.assert_allclose(grad, mean_grad, rtol=1e-12,
                                   atol=1e-14 * (1 + np.abs(mean_grad).max()))
        # the agents' mean of the quadratic part has the bits of its np.mean form
        diff = x[..., None, :] - p.c
        curv = p.Q if family == "nonconvex" else p.q
        want = 0.5 * np.mean(np.sum(curv * diff * diff, axis=-1), axis=-1)
        if family == "nonconvex":
            want = want + p.eps_sin * np.sum(np.sin(x), axis=-1)
        assert np.asarray(value).tobytes() == np.asarray(want).tobytes()
    # row c of a (k, S, n, dim) call shares seed s's draw with the (S, n, dim) call
    X4 = rng.standard_normal((k, S, n, p.dim)) * scale

    def gens():
        return [np.random.default_rng([draw_seed, s]) for s in range(S)]

    G4 = p.stochastic_grads(X4, drawn(p, gens()))
    for c in range(k):
        assert p.stochastic_grads(X4[c], drawn(p, gens())).tobytes() == G4[c].tobytes()
    # written into a caller's buffer, the same bits at either lead shape; the
    # order makes the one-entry cache of broadcast constants change shape twice
    for Xo in (X4, X4[0], X4):
        noise = drawn(p, gens())
        buf = np.full(Xo.shape, np.nan)
        assert p.stochastic_grads(Xo, noise, out=buf) is buf
        assert buf.tobytes() == p.stochastic_grads(Xo, noise).tobytes()
        if family != "logistic":  # and the bits of the broadcasting formula
            assert buf.tobytes() == (p.grads(Xo) + noise).tobytes()


def test_stochastic_grad_unbiased_light():
    # 4000 draws per agent (40 calls through 100 generators) at 5 sigma; the
    # heavyweight 1e5-draw check lives in acceptance
    rng = np.random.default_rng(123)
    N, S = 4000, 100
    for family, p in all_test_problems():
        X = at_every_agent(rng.standard_normal(p.dim) * 0.5, p.n)
        exact = p.grads(X)
        gens = [np.random.default_rng([123, s]) for s in range(S)]
        draws = np.concatenate([p.stochastic_grads(np.stack([X] * S), drawn(p, gens))
                                for _ in range(N // S)])
        dev = np.linalg.norm(draws.mean(axis=0) - exact, axis=1)
        second = np.mean(np.sum((draws - exact) ** 2, axis=2), axis=0)
        tol = 5 * np.sqrt(np.maximum(second, 1e-30) / N)
        assert np.all(dev <= tol), f"{family}: |mean - grad| = {dev} > {tol}"


def test_logistic_stochastic_grad_enumerates_to_full_grad():
    p = make_logistic_family(n=3, d=3, K=4, m=8, shards_per_agent=2, lam=0.05, seed=2)
    x = np.random.default_rng(1).standard_normal(p.dim) * 0.3
    for i in range(p.n):
        W = x.reshape(p.K, p.d)
        per_sample = []
        for j in range(p.counts[i]):
            a = p.feats[i, j]
            prob = np.exp(W @ a - np.max(W @ a))
            prob /= prob.sum()
            prob[p.labels[i, j]] -= 1.0
            per_sample.append(np.outer(prob, a).ravel() + p.lam * x)
        np.testing.assert_allclose(np.mean(per_sample, axis=0), p.grads(at_every_agent(x, p.n))[i],
                                   rtol=1e-10, atol=1e-12)


def test_quadratic_noise_second_moment():
    p = hand_quadratic(sigma_noise=0.7)
    X = at_every_agent(np.array([0.3, -0.2]), p.n)
    gens = [np.random.default_rng([9, s]) for s in range(100)]
    # 20000 draws: 100 calls through 100 generators, two agents each
    draws = np.concatenate([p.stochastic_grads(np.stack([X] * 100), drawn(p, gens))
                            for _ in range(100)])
    second = np.mean(np.sum((draws - p.grads(X)) ** 2, axis=2))
    assert second == pytest.approx(0.49, rel=0.05)


def test_nonconvex_bgd_identity_exact():
    p = make_nonconvex_family(n=5, d=4, Q_diag=np.array([0.3, 0.6, 1.0, 0.1]),
                              delta=1.3, eps_sin=0.4, sigma_noise=0.2, seed=8)
    k = p.constants()
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((100, p.dim)) * rng.uniform(0.1, 5, size=(100, 1))
    lhs = np.mean(np.sum(p.grads(at_every_agent(xs, p.n)) ** 2, axis=2), axis=1)
    rhs = np.sum(p._global_grad(xs) ** 2, axis=1) + k.G**2
    assert np.all(np.abs(lhs - rhs) <= 1e-9 * (1 + rhs))


def test_bgd_inequality_quadratics_and_logistic():
    rng = np.random.default_rng(4)
    for family, p in all_test_problems():
        k = p.constants()
        xs = rng.standard_normal((200, p.dim)) * rng.uniform(0.1, 3, size=(200, 1))
        lhs = np.mean(np.sum(p.grads(at_every_agent(xs, p.n)) ** 2, axis=2), axis=1)
        rhs = k.G**2 + k.B**2 * np.sum(p._global_grad(xs) ** 2, axis=1)
        assert np.all(lhs <= rhs * (1 + 1e-9)), f"{family}: {lhs} > {rhs}"


def _quadratic_pair_checks(p, n_pairs=10_000):
    k = p.constants()
    rng = np.random.default_rng(77)
    X = rng.standard_normal((n_pairs, p.dim)) * 2
    Y = rng.standard_normal((n_pairs, p.dim)) * 2
    for i in range(p.n):
        gx = p.q[i] * (X - p.c[i]) if isinstance(p, DiagonalQuadraticProblem) \
            else p.Q * (X - p.c[i]) + p.eps_sin * np.cos(X)
        gy = p.q[i] * (Y - p.c[i]) if isinstance(p, DiagonalQuadraticProblem) \
            else p.Q * (Y - p.c[i]) + p.eps_sin * np.cos(Y)
        lips = np.linalg.norm(gx - gy, axis=1) <= k.L * np.linalg.norm(X - Y, axis=1) * (1 + 1e-9) + 1e-12
        assert np.all(lips)
        if k.mu > 0:
            dq = p.q[i]
            fx = 0.5 * np.sum(dq * (X - p.c[i]) ** 2, axis=1)
            fy = 0.5 * np.sum(dq * (Y - p.c[i]) ** 2, axis=1)
            inner = np.sum(gx * (Y - X), axis=1)
            gap = fy - fx - inner - 0.5 * k.mu * np.sum((Y - X) ** 2, axis=1)
            assert np.all(gap >= -1e-9 * (1 + np.abs(fy)))


def test_smoothness_and_strong_convexity_quadratic_families():
    _quadratic_pair_checks(make_strongly_convex_quadratics(4, 5, 0.1, 1.0, 1.0, 0.0, 7))
    _quadratic_pair_checks(make_convex_quadratics(3, 4, 2.0, 0.05, 0.7, 0.0, 11))
    _quadratic_pair_checks(make_nonconvex_family(4, 5, np.linspace(0.2, 1.0, 5),
                                                 1.0, 0.3, 0.0, 3))


def test_smoothness_and_strong_convexity_logistic():
    p = make_logistic_family(n=4, d=4, K=5, m=12, shards_per_agent=2, lam=0.05, seed=19)
    k = p.constants()
    rng = np.random.default_rng(5)
    n_pairs = 10_000
    X = rng.standard_normal((n_pairs, p.dim))
    Y = rng.standard_normal((n_pairs, p.dim))
    for i in range(p.n):
        A = p.feats[i, : p.counts[i]]
        y = p.labels[i, : p.counts[i]]
        onehot = np.eye(p.K)[y]

        def batch_grads(pts):
            Z = np.einsum("md,pkd->pmk", A, pts.reshape(-1, p.K, p.d))
            Z -= Z.max(axis=2, keepdims=True)
            P = np.exp(Z)
            P /= P.sum(axis=2, keepdims=True)
            G = np.einsum("pmk,md->pkd", P - onehot, A) / len(y)
            return G.reshape(len(pts), p.dim) + p.lam * pts

        def batch_vals(pts):
            Z = np.einsum("md,pkd->pmk", A, pts.reshape(-1, p.K, p.d))
            zmax = Z.max(axis=2)
            logZ = zmax + np.log(np.exp(Z - zmax[:, :, None]).sum(axis=2))
            picked = np.einsum("pmk,mk->pm", Z, onehot)
            ce = (logZ - picked).mean(axis=1)
            return ce + 0.5 * p.lam * np.sum(pts**2, axis=1)

        gx, gy = batch_grads(X), batch_grads(Y)
        lips = np.linalg.norm(gx - gy, axis=1) <= k.L * np.linalg.norm(X - Y, axis=1) * (1 + 1e-9) + 1e-12
        assert np.all(lips), f"agent {i}: smoothness violated on {np.sum(~lips)} pairs"
        fx, fy = batch_vals(X), batch_vals(Y)
        gap = fy - fx - np.sum(gx * (Y - X), axis=1) - 0.5 * k.mu * np.sum((Y - X) ** 2, axis=1)
        assert np.all(gap >= -1e-9 * (1 + np.abs(fy)))


def test_logistic_constants_against_brute_force():
    p = make_logistic_family(n=3, d=3, K=4, m=10, shards_per_agent=2, lam=0.1, seed=6)
    k = p.constants()
    # sigma_bar_sq: independent enumeration at x*
    total = 0.0
    for i in range(p.n):
        acc = 0.0
        for j in range(p.counts[i]):
            W = k.x_star.reshape(p.K, p.d)
            a = p.feats[i, j]
            prob = np.exp(W @ a - np.max(W @ a))
            prob /= prob.sum()
            prob[p.labels[i, j]] -= 1.0
            g = np.outer(prob, a).ravel() + p.lam * k.x_star
            acc += float(g @ g)
        total += acc / p.counts[i]
    assert k.sigma_bar_sq == pytest.approx(total / p.n, rel=1e-10)
    # L: lam + max_i lambda_max(second moment)/4
    best = max(np.linalg.eigvalsh(p.feats[i, : p.counts[i]].T @ p.feats[i, : p.counts[i]] / p.counts[i])[-1]
               for i in range(p.n))
    assert k.L == pytest.approx(p.lam + best / 4, rel=1e-12)
    assert k.mu == p.lam


def test_logistic_small_mu_field():
    p = make_logistic_family(n=2, d=2, K=3, m=9, shards_per_agent=3, lam=0.001, seed=13)
    k = p.constants()
    assert k.mu == 0.001
    assert np.linalg.norm(p.global_grad(k.x_star)) <= 1.1e-10


def test_logistic_shard_skew():
    p = make_logistic_family(n=5, d=3, K=10, m=40, shards_per_agent=2, lam=0.05, seed=21)
    per_agent_classes = [len(np.unique(p.labels[i, : p.counts[i]])) for i in range(p.n)]
    assert max(per_agent_classes) < p.K
    assert set(np.concatenate([p.labels[i, : p.counts[i]] for i in range(p.n)])) == set(range(p.K))
    assert p.counts.sum() == 5 * 40


def test_problem_from_spec_round_trip():
    assert set(FAMILY_BLOCKS) == set(MAKERS)
    for family, p in all_test_problems():
        q = problem_from_spec({"family": family, **FAMILY_BLOCKS[family]})
        assert type(q) is type(p)
        assert q.n == p.n and q.dim == p.dim
        if isinstance(p, DiagonalQuadraticProblem):
            np.testing.assert_array_equal(q.q, p.q)
            np.testing.assert_array_equal(q.c, p.c)
        if isinstance(p, SinusoidQuadraticProblem):
            np.testing.assert_array_equal(q.Q, p.Q)
            np.testing.assert_array_equal(q.c, p.c)
        if isinstance(p, LogisticProblem):
            np.testing.assert_array_equal(q.feats, p.feats)
            np.testing.assert_array_equal(q.labels, p.labels)
    with pytest.raises(ValueError, match="family"):
        problem_from_spec({"family": "nope"})


def test_constants_reject_invalid():
    with pytest.raises(ValueError):
        ProblemConstants(L=1, mu=2, sigma_bar_sq=0, sigma_sq=0, G=0, B=1,
                         x_star=None, f_star=None)
    with pytest.raises(ValueError):
        ProblemConstants(L=1, mu=0, sigma_bar_sq=0, sigma_sq=0, G=0, B=0.5,
                         x_star=None, f_star=None)
