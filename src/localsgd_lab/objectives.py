"""Synthetic objective families for distributed optimization experiments.

Each problem is a collection of n agent objectives f_i over a shared variable,
f(x) = (1/n) sum_i f_i(x). Problems expose one batched oracle interface (see
Problem), certified constants and a lower bound on inf f, value_lower_bound():

  L            smoothness of every f_i
  mu           strong convexity of every f_i (0 when only convex)
  sigma_bar_sq (1/n) sum_i E||g_i(x*)||^2, the stationary-noise level
               (None when no closed-form minimizer exists)
  sigma_sq     uniform bound on E||g_i(x) - grad f_i(x)||^2
  G, B         heterogeneity constants with
               (1/n) sum_i ||grad f_i(x)||^2 <= G^2 + B^2 ||grad f(x)||^2
  x_star       the minimizer of f, and f_star = f(x_star) (both None when sigma_bar_sq is)

Each constant's provenance is "undefined" when it is None, "numeric" when the
family names it in ProblemConstants.numeric, and "analytic" otherwise.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, fields

import numpy as np

Vector = np.ndarray


class ConstantsError(ArithmeticError):
    """Raised when a numeric constant oracle fails to converge."""


@dataclass(frozen=True, eq=False)
class ProblemConstants:
    L: float
    mu: float
    sigma_bar_sq: float | None
    sigma_sq: float
    G: float
    B: float
    x_star: Vector | None
    f_star: float | None
    numeric: tuple[str, ...] = ()  # the constants computed numerically, not in closed form

    @property
    def provenance(self) -> dict[str, str]:
        """Every constant's name -> "undefined", "numeric" or "analytic"."""
        return {f.name: "undefined" if getattr(self, f.name) is None else
                "numeric" if f.name in self.numeric else "analytic" for f in fields(self)[:-1]}

    def __post_init__(self):
        if not (self.L >= self.mu >= 0):
            raise ValueError(f"need L >= mu >= 0, got L={self.L}, mu={self.mu}")
        if self.B < 1:
            raise ValueError(f"need B >= 1, got B={self.B}")
        if self.G < 0 or self.sigma_sq < 0:
            raise ValueError("G and sigma_sq must be nonnegative")
        if self.sigma_bar_sq is not None and self.sigma_bar_sq < 0:
            raise ValueError("sigma_bar_sq must be nonnegative")


def _at_every_agent(x, n: int) -> np.ndarray:
    """x (..., dim) as the (..., n, dim) points of n agents that all sit at x."""
    return np.broadcast_to(x[..., None, :], (*x.shape[:-1], n, x.shape[-1]))


class Problem:
    """Common validation and the oracle interface all families implement.

    X is (..., n, dim), agent i's point at X[..., i, :]; values(X) is (..., n)
    and grads(X) (..., n, dim). The stochastic oracle is a point-free draw,
    draw_noise(gens, out), which fills a noise_block(*lead) with one row per
    generator in C order (here (n, dim) normals times _noise_scale), and an
    apply, stochastic_grads(X, noise, out=None), with X of shape
    (..., S, n, dim) and one (S, ...) row of noise that every leading index
    shares, as the configs of one engine batch do. The apply writes into out
    when one is given (a fresh array otherwise) and returns it; its per-agent
    constants come broadcast to X.shape (see _shaped), so the values and bits
    are those of the broadcasting formula. _global_value and _global_grad take
    x of shape (..., dim); global_value and global_grad are their validated
    one-point views.
    """

    n: int
    dim: int
    has_gradient_noise: bool

    def _check_x(self, x) -> Vector:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.dim},)")
        if not np.all(np.isfinite(x)):
            raise ValueError("x contains non-finite components")
        return x

    def global_value(self, x) -> float:
        return float(self._global_value(self._check_x(x)))

    def global_grad(self, x) -> Vector:
        return self._global_grad(self._check_x(x))

    def noise_block(self, *lead) -> np.ndarray:
        return np.empty((*lead, self.n, self.dim))

    def draw_noise(self, gens, out: np.ndarray) -> None:
        for gen, z in zip(gens, out.reshape(-1, self.n, self.dim)):
            gen.standard_normal(out=z)
        out *= self._noise_scale

    def _shaped(self, shape, *constants) -> tuple[np.ndarray, ...]:
        """The oracle's constants broadcast to `shape` as read-only contiguous arrays,
        built once per shape: one entry is kept, and a call at another shape replaces it."""
        cached = getattr(self, "_shaped_cache", None)
        if cached is None or cached[0] != shape:
            arrays = tuple(np.ascontiguousarray(np.broadcast_to(a, shape)) for a in constants)
            for a in arrays:
                a.flags.writeable = False
            cached = self._shaped_cache = (shape, arrays)
        return cached[1]

    def value_lower_bound(self) -> float:
        """A value no larger than inf f; f* by default."""
        return self.constants().f_star

    def constants(self) -> ProblemConstants:
        cached = getattr(self, "_constants_cache", None)
        if cached is None:
            cached = self._constants()
            self._constants_cache = cached
        return cached


class DiagonalQuadraticProblem(Problem):
    """f_i(x) = (1/2) sum_k q_ik (x_k - c_ik)^2 plus isotropic gradient noise.

    Gradient noise is Gaussian with E||noise||^2 = sigma_noise^2 per draw.
    Covers both the strongly convex family (all q_ik in [mu, L]) and the
    merely convex one (per-agent zero curvatures, positive on average).
    """

    def __init__(self, q, c, sigma_noise: float, mu: float, L: float):
        q = np.asarray(q, dtype=float)
        c = np.asarray(c, dtype=float)
        if q.ndim != 2 or q.shape != c.shape:
            raise ValueError("q and c must both have shape (n, d)")
        if np.any(q < 0):
            raise ValueError("curvatures must be nonnegative")
        if sigma_noise < 0:
            raise ValueError("sigma_noise must be nonnegative")
        self.q = q
        self.c = c
        self.sigma_noise = float(sigma_noise)
        self.declared_mu = float(mu)
        self.declared_L = float(L)
        self.n, self.dim = q.shape
        self.has_gradient_noise = sigma_noise > 0
        self._qbar = q.mean(axis=0)
        if np.any(self._qbar <= 0):
            raise ValueError("averaged curvature must be positive in every coordinate")
        self._m = (q * c).mean(axis=0)
        self._noise_scale = self.sigma_noise / math.sqrt(self.dim)

    def values(self, X) -> Vector:
        diff = X - self.c
        return 0.5 * np.sum(self.q * diff * diff, axis=-1)

    def grads(self, X) -> Vector:
        return self.q * (X - self.c)

    def stochastic_grads(self, X, noise, out=None) -> Vector:
        q, c = self._shaped(X.shape, self.q, self.c)
        G = np.subtract(X, c, out=out)
        G *= q
        if self.has_gradient_noise:
            G += noise
        return G

    def _global_value(self, x):
        diff = x[..., None, :] - self.c
        return 0.5 * (np.add.reduce(np.sum(self.q * diff * diff, axis=-1), axis=-1) / self.n)

    def _global_grad(self, x):
        return self._qbar * x - self._m

    def _constants(self):
        x_star = self._m / self._qbar
        f_star = float(self._global_value(x_star))
        station = self.q * (x_star - self.c)
        sigma_bar_sq = float(np.mean(np.sum(station * station, axis=1))) + self.sigma_noise**2
        G, B = self._bgd_certificate(x_star)
        return ProblemConstants(
            L=self.declared_L,
            mu=self.declared_mu,
            sigma_bar_sq=sigma_bar_sq,
            sigma_sq=self.sigma_noise**2,
            G=G,
            B=B,
            x_star=x_star,
            f_star=f_star,
        )

    def _bgd_certificate(self, x_star):
        """Closed-form (G, B) with (1/n) sum ||grad f_i||^2 <= G^2 + B^2 ||grad f||^2.

        Per coordinate the difference is a quadratic in x_k; B^2 slightly
        inflates max_k avg(q^2)/qbar^2 so each difference is strictly concave,
        then G^2 collects the vertex suprema.
        """
        A = np.mean(self.q**2, axis=0)
        Bc = np.mean(self.q**2 * self.c, axis=0)
        C = np.mean(self.q**2 * self.c**2, axis=0)
        qb2 = self._qbar**2
        B_sq = 1.01 * float(np.max(A / qb2))
        a2 = A - B_sq * qb2
        b1 = 2.0 * (B_sq * qb2 * x_star - Bc)
        c0 = C - B_sq * qb2 * x_star**2
        sup = c0 - b1**2 / (4.0 * a2)
        G_sq = max(0.0, math.fsum(sup))
        return math.sqrt(G_sq), math.sqrt(B_sq)


class SinusoidQuadraticProblem(Problem):
    """f_i(x) = (1/2)(x - c_i)' Q (x - c_i) + eps_sin * sum_k sin(x_k), noisy grads.

    The sinusoid is shared across agents, so grad f_i - grad f = Q(cbar - c_i)
    is constant and the heterogeneity identity
    (1/n) sum_i ||grad f_i(x)||^2 = ||grad f(x)||^2 + G^2 holds exactly.
    """

    def __init__(self, Q, c, eps_sin: float, sigma_noise: float):
        Q = np.asarray(Q, dtype=float)
        c = np.asarray(c, dtype=float)
        if Q.ndim != 1 or c.ndim != 2 or c.shape[1] != Q.shape[0]:
            raise ValueError("Q must be (d,) and c must be (n, d)")
        if np.any(Q < 0) or eps_sin < 0 or sigma_noise < 0:
            raise ValueError("Q, eps_sin and sigma_noise must be nonnegative")
        self.Q = Q
        self.c = c
        self.eps_sin = float(eps_sin)
        self.sigma_noise = float(sigma_noise)
        self.n, self.dim = c.shape
        self.has_gradient_noise = sigma_noise > 0
        self._cbar = c.mean(axis=0)
        self._noise_scale = self.sigma_noise / math.sqrt(self.dim)

    def values(self, X) -> Vector:
        diff = X - self.c
        return (0.5 * np.sum(self.Q * diff * diff, axis=-1)
                + self.eps_sin * np.sum(np.sin(X), axis=-1))

    def grads(self, X) -> Vector:
        return self.Q * (X - self.c) + self.eps_sin * np.cos(X)

    def stochastic_grads(self, X, noise, out=None) -> Vector:
        Q, c = self._shaped(X.shape, self.Q, self.c)
        G = np.subtract(X, c, out=out)
        G *= Q
        G += self.eps_sin * np.cos(X)
        if self.has_gradient_noise:
            G += noise
        return G

    def _global_value(self, x):
        diff = x[..., None, :] - self.c
        quad = 0.5 * (np.add.reduce(np.sum(self.Q * diff * diff, axis=-1), axis=-1) / self.n)
        return quad + self.eps_sin * np.sum(np.sin(x), axis=-1)

    def _global_grad(self, x):
        return self.Q * (x - self._cbar) + self.eps_sin * np.cos(x)

    def value_lower_bound(self) -> float:
        """A value no larger than inf f: quadratic part's minimum minus eps_sin * d.

        f's quadratic part is minimized at cbar with value
        (1/2n) sum_i (c_i - cbar)' Q (c_i - cbar); each sin term is >= -1.
        """
        dev = self.c - self._cbar
        quad_min = 0.5 * float(np.mean(np.sum(self.Q * dev * dev, axis=1)))
        return quad_min - self.eps_sin * self.dim

    def _constants(self):
        drift = self.Q * (self._cbar - self.c)
        G_sq = float(np.mean(np.sum(drift * drift, axis=1)))
        return ProblemConstants(
            L=float(np.max(self.Q)) + self.eps_sin,
            mu=0.0,
            sigma_bar_sq=None,
            sigma_sq=self.sigma_noise**2,
            G=math.sqrt(G_sq),
            B=1.0,
            x_star=None,
            f_star=None,
        )


class LogisticProblem(Problem):
    """Multiclass ridge-regularized logistic regression over sharded blob data.

    The variable is the flattened (K, d) weight matrix; agent i holds m_i
    samples and f_i(x) = mean cross-entropy + (lam/2)||x||^2. The one-draw
    stochastic gradient picks a uniform local sample and keeps the exact
    ridge term; its noise is that sample's index, an int64 (*lead, n) block.
    """

    def __init__(self, features: list, labels: list, K: int, lam: float):
        if lam <= 0:
            raise ValueError("lam must be positive")
        self.n = len(features)
        if self.n == 0 or len(labels) != self.n:
            raise ValueError("features and labels must be nonempty parallel lists")
        self.K = int(K)
        self.lam = float(lam)
        self.d = int(np.asarray(features[0]).shape[1])
        self.dim = self.K * self.d
        self.has_gradient_noise = True
        self.counts = np.array([len(f) for f in features], dtype=np.int64)
        if np.any(self.counts < 1):
            raise ValueError("every agent needs at least one sample")
        m_max = int(self.counts.max())
        self.feats = np.zeros((self.n, m_max, self.d))
        self.labels = np.zeros((self.n, m_max), dtype=np.int64)
        for i, (A, y) in enumerate(zip(features, labels)):
            A = np.asarray(A, dtype=float)
            y = np.asarray(y, dtype=np.int64)
            if A.shape != (len(y), self.d) or np.any(y < 0) or np.any(y >= K):
                raise ValueError(f"agent {i}: bad feature/label block")
            self.feats[i, : len(y)] = A
            self.labels[i, : len(y)] = y

    def _agent(self, i, x):
        """Agent i's samples A (m, d) and, at every leading index of x (..., dim),
        the per-sample cross-entropies (..., m) and the softmax residuals
        softmax(A W') minus the one-hot labels (..., m, K)."""
        m = self.counts[i]
        A, y = self.feats[i, :m], self.labels[i, :m]
        z = A @ x.reshape(*x.shape[:-1], self.K, self.d).swapaxes(-1, -2)
        z -= z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        total = e.sum(axis=-1, keepdims=True)
        rows = np.arange(m)
        ce = np.log(total[..., 0]) - z[..., rows, y]
        P = e / total
        P[..., rows, y] -= 1.0
        return A, ce, P

    def values(self, X) -> Vector:
        out = np.empty(X.shape[:-1])
        for i in range(self.n):
            x = X[..., i, :]
            _, ce, _ = self._agent(i, x)
            out[..., i] = ce.mean(axis=-1) + 0.5 * self.lam * np.vecdot(x, x)
        return out

    def grads(self, X) -> Vector:
        out = np.empty(X.shape)
        for i in range(self.n):
            x = X[..., i, :]
            A, _, P = self._agent(i, x)
            out[..., i, :] = (P.swapaxes(-1, -2) @ A).reshape(x.shape) / len(A) + self.lam * x
        return out

    def noise_block(self, *lead) -> np.ndarray:
        return np.empty((*lead, self.n), dtype=np.int64)

    def draw_noise(self, gens, out: np.ndarray) -> None:
        for gen, row in zip(gens, out.reshape(-1, self.n)):
            row[:] = gen.integers(0, self.counts)

    def stochastic_grads(self, X, idx, out=None) -> Vector:
        S = len(idx)
        agents = np.arange(self.n)
        W = X.reshape(*X.shape[:-1], self.K, self.d)
        a = self.feats[agents, idx]
        z = np.einsum("...snkd,snd->...snk", W, a)
        P = np.exp(z - z.max(axis=-1, keepdims=True))
        P /= P.sum(axis=-1, keepdims=True)
        P[..., np.arange(S)[:, None], agents, self.labels[agents, idx]] -= 1.0
        return np.add((P[..., None] * a[..., None, :]).reshape(X.shape), self.lam * X, out=out)

    def _global_value(self, x):
        return self.values(_at_every_agent(x, self.n)).mean(axis=-1)

    def _global_grad(self, x):
        return self.grads(_at_every_agent(x, self.n)).sum(axis=-2) / self.n

    def _constants(self):
        second_moments = [
            self.feats[i, : self.counts[i]].T @ self.feats[i, : self.counts[i]] / self.counts[i]
            for i in range(self.n)
        ]
        lam_max = max(float(np.linalg.eigvalsh(S)[-1]) for S in second_moments)
        L = self.lam + 0.25 * lam_max
        x_star = self._solve_x_star()
        f_star = float(self._global_value(x_star))
        sigma_bar_sq = self._mean_sq_sample_grad(x_star)
        row_norms = [
            np.linalg.norm(self.feats[i, : self.counts[i]], axis=1) for i in range(self.n)
        ]
        gamma = np.array([math.sqrt(2.0) * float(np.mean(r)) for r in row_norms])
        G_sq = float(np.mean((gamma + gamma.mean()) ** 2))
        sigma_sq = max(2.0 * float(np.mean(r**2)) for r in row_norms)
        return ProblemConstants(
            L=L,
            mu=self.lam,
            sigma_bar_sq=sigma_bar_sq,
            sigma_sq=sigma_sq,
            G=math.sqrt(G_sq),
            B=1.0,
            x_star=x_star,
            f_star=f_star,
            numeric=("L", "sigma_bar_sq", "x_star", "f_star"),
        )

    def _solve_x_star(self, tol: float = 1e-10, max_iter: int = 500_000):
        """Minimize f by Nesterov's method for strongly convex objectives.

        Uses the safe curvature bound lam + 0.5 * lambda_max(mean second
        moment) for the stepsize; stops at ||grad f|| <= tol.
        """
        Sbar = np.zeros((self.d, self.d))
        for i in range(self.n):
            A = self.feats[i, : self.counts[i]]
            Sbar += A.T @ A / self.counts[i]
        Sbar /= self.n
        L_gd = self.lam + 0.5 * float(np.linalg.eigvalsh(Sbar)[-1])
        kappa = L_gd / self.lam
        momentum = (math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)
        x = np.zeros(self.dim)
        y = x.copy()
        for it in range(max_iter):
            if it % 25 == 0 and np.linalg.norm(self._global_grad(x)) <= tol:
                return x
            x_next = y - self._global_grad(y) / L_gd
            y = x_next + momentum * (x_next - x)
            x = x_next
        if np.linalg.norm(self._global_grad(x)) <= tol:
            return x
        raise ConstantsError(
            f"x* solver did not reach ||grad|| <= {tol} within {max_iter} iterations"
        )

    def _mean_sq_sample_grad(self, x):
        """(1/n) sum_i (1/m_i) sum_j ||grad per-sample f at x||^2, exact."""
        total = 0.0
        for i in range(self.n):
            A, _, P = self._agent(i, x)
            per_sample = P[:, :, None] * A[:, None, :]
            per_sample = per_sample.reshape(len(A), self.dim) + self.lam * x
            total += float(np.mean(np.sum(per_sample**2, axis=1)))
        return total / self.n


def _deflected_centers(rng, n, d, delta):
    """cbar + delta * u_i with u standard normal, mean-deflated across agents."""
    cbar = rng.standard_normal(d)
    u = rng.standard_normal((n, d))
    u -= u.mean(axis=0)
    return cbar + delta * u


def make_strongly_convex_quadratics(n: int, d: int, mu: float, L: float,
                                    delta: float, sigma_noise: float, seed: int) -> DiagonalQuadraticProblem:
    """Heterogeneous diagonal quadratics with curvatures in [mu, L].

    Every agent's first two coordinates are pinned to L and mu so the declared
    constants are attained exactly; centers are cbar + delta * (mean-deflated
    normals).
    """
    if not 0 < mu <= L:
        raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    if n < 1 or d < 2:
        raise ValueError(f"need n >= 1 and d >= 2, got n={n}, d={d}")
    if delta < 0 or sigma_noise < 0:
        raise ValueError("delta and sigma_noise must be nonnegative")
    rng = np.random.default_rng(seed)
    q = rng.uniform(mu, L, size=(n, d))
    q[:, 0] = L
    q[:, 1] = mu
    c = _deflected_centers(rng, n, d, delta)
    return DiagonalQuadraticProblem(q, c, sigma_noise, mu, L)


def make_convex_quadratics(n: int, d: int, L: float, eps_pd: float,
                           delta: float, sigma_noise: float, seed: int) -> DiagonalQuadraticProblem:
    """Per-agent flat directions (zeroed curvatures) that average positive.

    Draws q_ik ~ U[0, L], zeroes each entry with probability 1/2, pins one
    entry to L, and retries (up to 100 fresh substreams) until every averaged
    coordinate curvature is at least eps_pd.
    """
    if L <= 0 or not 0 < eps_pd <= L:
        raise ValueError(f"need 0 < eps_pd <= L, got eps_pd={eps_pd}, L={L}")
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if delta < 0 or sigma_noise < 0:
        raise ValueError("delta and sigma_noise must be nonnegative")
    for attempt in range(100):
        rng = np.random.default_rng([seed, attempt])
        q = rng.uniform(0, L, size=(n, d))
        q *= rng.integers(0, 2, size=(n, d))
        q[0, 0] = L
        if np.all(q.mean(axis=0) >= eps_pd):
            c = _deflected_centers(rng, n, d, delta)
            return DiagonalQuadraticProblem(q, c, sigma_noise, 0.0, L)
    raise ValueError(
        f"no draw with averaged curvature >= {eps_pd} in 100 attempts; lower eps_pd"
    )


def make_nonconvex_family(n: int, d: int, Q_diag, delta: float, eps_sin: float,
                          sigma_noise: float, seed: int) -> SinusoidQuadraticProblem:
    """Shared-sinusoid quadratics with exact gradient-heterogeneity level."""
    Q_diag = np.asarray(Q_diag, dtype=float)
    if Q_diag.shape != (d,):
        raise ValueError(f"Q_diag must have shape ({d},)")
    if n < 1 or delta < 0 or eps_sin < 0 or sigma_noise < 0:
        raise ValueError("need n >= 1 and nonnegative delta, eps_sin, sigma_noise")
    rng = np.random.default_rng(seed)
    c = _deflected_centers(rng, n, d, delta)
    return SinusoidQuadraticProblem(Q_diag, c, eps_sin, sigma_noise)


def make_logistic_family(n: int, d: int, K: int, m: int, shards_per_agent: int,
                         lam: float, seed: int) -> LogisticProblem:
    """Label-skewed multiclass logistic regression.

    Draws n*m samples from K Gaussian blobs, sorts by label, splits into
    n*shards_per_agent contiguous shards, and deals shards_per_agent shards to
    each agent by a seeded permutation. Each agent therefore sees only a few
    classes when shards_per_agent << K.
    """
    if n < 1 or d < 1 or K < 2 or m < 1 or shards_per_agent < 1:
        raise ValueError("need n, d, m, shards_per_agent >= 1 and K >= 2")
    if lam <= 0:
        raise ValueError("lam must be positive")
    rng = np.random.default_rng(seed)
    N = n * m
    centers = 2.0 * rng.standard_normal((K, d))
    y = np.sort(np.arange(N) % K)
    A = centers[y] + rng.standard_normal((N, d))
    shard_ids = np.array_split(np.arange(N), n * shards_per_agent)
    deal = rng.permutation(n * shards_per_agent)
    features, labels = [], []
    for i in range(n):
        mine = np.concatenate([shard_ids[s] for s in deal[i * shards_per_agent:(i + 1) * shards_per_agent]])
        features.append(A[mine])
        labels.append(y[mine])
    return LogisticProblem(features, labels, K, lam)


MAKERS = {  # every problem family, by the name a config's problem block gives it
    "strongly-convex-quadratic": make_strongly_convex_quadratics,
    "convex-quadratic": make_convex_quadratics,
    "nonconvex": make_nonconvex_family,
    "logistic": make_logistic_family,
}


def problem_from_spec(spec: dict) -> Problem:
    """Build a problem from a config's problem block (family + parameters + seed)."""
    spec = dict(spec)
    family = spec.pop("family", None)
    maker = MAKERS.get(family)
    if maker is None:
        raise ValueError(f"unknown problem family {family!r}; know {sorted(MAKERS)}")
    try:
        inspect.signature(maker).bind(**spec)
    except TypeError as exc:
        raise ValueError(f"problem family {family!r}: {exc}") from None
    return maker(**spec)
