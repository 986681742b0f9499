"""Theoretical predictions and statistical verification.

The state space splits orthogonally into the consensus line (multiples of the
all-ones vector per component) and the disagreement subspace picked out by the
rows of ``T1``.  Consensus means the reduced coordinate
``xi = (T1 kron I_M) Q`` vanishes; scaled by the square root of the step size
it converges in distribution to a zero-mean normal whose covariance ``S``
solves a continuous Lyapunov equation driven by the network and message
noise.  The network acts on agents and the message noise on opinions, so
``S = kron(x, c)`` with an (n-1)-square agent factor ``x`` and the M-square
message covariance ``c``; only the factors are built.  This module builds
those objects and compares them against Monte Carlo trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import (
    BIRKHOFF,
    FIXED,
    IID,
    mean_matrix,
    metropolis_complete,
    spectral_gap,
    step_mean_matrices,
)
from .sampling import categorical_covariance
from .state import as_opinion_vector, network_average

DEGENERATE_VARIANCE = 1e-12


class StabilityError(ValueError):
    """Raised when the mean network does not mix fast enough for the
    asymptotic-normality covariance to exist."""

    def __init__(self, lambda2, delta):
        super().__init__(
            "asymptotic-normality stability condition failed: "
            f"lambda2 = {lambda2:.12g} is not below 1 - delta/2 = {1 - delta / 2:.12g}"
        )
        self.lambda2 = lambda2
        self.delta = delta


@dataclass(frozen=True)
class ProjectionBasis:
    """Orthogonal split of agent space into disagreement rows and the mean.

    ``t`` is an orthogonal n-by-n matrix whose last row is ``1/sqrt(n)`` in
    every entry; ``t1`` holds the first n-1 rows, so ``t1 @ ones == 0`` and
    ``t1 @ t1.T == I``.  Built from a fixed Householder reflection, hence
    identical across runs and platforms.
    """

    t1: np.ndarray
    t: np.ndarray

    @property
    def n_agents(self):
        return self.t.shape[0]


def build_projection(n):
    if n < 2:
        raise ValueError("need at least two agents for a disagreement basis")
    # Householder reflection carrying e_n to the normalized all-ones vector
    v = np.full(n, -1.0 / math.sqrt(n))
    v[n - 1] += 1.0
    t = np.eye(n) - np.outer(v, v) * (2.0 / (v @ v))
    t1 = np.ascontiguousarray(t[:-1])
    t = np.ascontiguousarray(t)
    t1.setflags(write=False)
    t.setflags(write=False)
    return ProjectionBasis(t1=t1, t=t)


def q_star_prediction(state0):
    """Consensus limit in the conserving regime (b_ii = 1): the initial average."""
    return network_average(state0)


def disagreement_rows(wbar, basis):
    """``L = T1 (wbar - I)``: the mean drift seen from the disagreement rows."""
    wbar = np.asarray(wbar, dtype=float)
    return basis.t1 @ (wbar - np.eye(basis.n_agents))


@dataclass(frozen=True)
class ReducedDrift:
    """Mean drift restricted to the disagreement subspace, plus its shift.

    Both are (n-1)-by-(n-1) agent-space cores: the drift of the reduced
    coordinate is ``kron(fbar, I_M)``, the same for every opinion.
    ``fbar + fbar.T`` is negative semidefinite for any doubly stochastic
    mean; the shifted matrix must be strictly stable for the asymptotic
    covariance to exist.
    """

    fbar: np.ndarray
    shifted: np.ndarray
    lambda2: float
    delta: float


def reduced_drift(wbar, basis, delta):
    """Build the reduced drift core ``L T1.T`` and verify the stability condition.

    Raises :class:`StabilityError` when ``lambda2 >= 1 - delta/2``.
    """
    wbar = np.asarray(wbar, dtype=float)
    lam2 = 1.0 - spectral_gap(wbar)
    if not lam2 < 1.0 - delta / 2.0:
        raise StabilityError(lam2, delta)
    fbar = disagreement_rows(wbar, basis) @ basis.t1.T
    shifted = fbar + (delta / 2.0) * np.eye(fbar.shape[0])
    return ReducedDrift(fbar=fbar, shifted=shifted, lambda2=lam2, delta=delta)


def check_prediction(cfg, trials=None):
    """Refuse a covariance or normality check of ``cfg``, an ExperimentConfig,
    that has no prediction to check: every hypothesis of the prediction, and
    with ``trials`` final states to compare with it, at least two of them.
    Raises ``ValueError`` led by the check refused, ``covariance: `` or
    ``normality: ``."""
    key = "covariance" if cfg.covariance else "normality"
    p, b, refusal = cfg.policy, cfg.b, None
    if len(set(cfg.initial_samples)) == 1:
        refusal = (f"every initial sample is {cfg.initial_samples[0]}, so the limit q* "
                   f"is a vertex and its predicted covariance is zero: there is nothing "
                   f"to check")
    elif p.kind == "censored" and p.censor_floor_scale > 0 and p.censor_exponent < 2:
        refusal = (f"censored sampling with exponent {p.censor_exponent:.17g} < 2 is "
                   f"outside the regime of the asymptotic normality result: there is "
                   f"no prediction to check")
    # a covariance check alone stays: its error is at the Monte Carlo floor
    # in both cases below
    elif cfg.normality and not b.any():
        key, refusal = "normality", (
            "every b_ii is 0, where the scaled disagreement is not normal at the "
            "horizons measured: there is no normality prediction to check")
    elif cfg.normality and cfg.schedule.exponent == 1.0 and (b != 1.0).any():
        i = int((b != 1.0).argmax())
        key, refusal = "normality", (
            f"gamma = 1 with b_ii = {float(b[i])!r} at i={i + 1}, where the normality "
            f"test misses with the covariance at its Monte Carlo floor: there is no "
            f"normality prediction to check")
    elif trials is not None and trials < 2:
        refusal = (f"need at least two trials for a sample covariance, got "
                   f"replications = {trials}")
    if refusal:
        raise ValueError(f"{key}: {refusal}")
    try:
        reduced_drift(mean_matrix(cfg.weight_model), build_projection(cfg.n_agents),
                      cfg.schedule.limit_constant)
        # the theory's scipy modules load now, not at their first use
        import scipy.linalg  # noqa: F401
        import scipy.special  # noqa: F401
    except StabilityError as e:
        raise ValueError(f"{key}: {e}") from None
    except ImportError as e:
        raise ValueError(f"{key}: the theory needs scipy: {e}") from None


def weight_noise_moment(model, b):
    """``E[(W - B)(W - B).T]`` of one step's weights ``W``, ``B = diag(b)``.

    A switching network averages the product over one period, an iid one
    over its support.  A birkhoff weight ``c0 I + sum_j c_j P_j`` with
    independent uniform permutations has ``E[P] = E[P_i P_j.T] = J/n`` and
    ``P P.T = I``, so ``E[W W.T] = s I + (1 - s) J/n`` with ``s`` the sum
    of the squared mixing weights, ``c0`` included.
    """
    bmat = np.diag(np.broadcast_to(np.asarray(b, dtype=float), (model.n,)))
    if model.kind == BIRKHOFF:
        s = sum(c * c for c in model.mixing)
        wbar = mean_matrix(model)
        second = s * np.eye(model.n) + (1.0 - s) * metropolis_complete(model.n)
        return second - bmat @ wbar.T - wbar @ bmat + bmat @ bmat
    if model.kind == IID:
        weights = model.probabilities
    else:
        weights = [1.0 / len(model.support)] * len(model.support)
    return sum(p * (w - bmat) @ (w - bmat).T for p, w in zip(weights, model.support))


def s0_matrix(model, b, basis):
    """Agent-space factor ``g = T1 E[(W - B)(W - B).T] T1.T`` of the reduced
    driving noise (see :func:`weight_noise_moment`).

    At consensus the martingale noise is ``(W - B)(Y - P)``: the term
    ``(W - Wbar) P`` vanishes there, because ``P = 1 q*.T`` and every ``W``
    is stochastic.  Agents draw independently and every agent's message has
    the same limit covariance ``c``, so the driving noise is
    ``kron(g, c)``.  A fixed network with every ``b_ii = 1`` gives
    ``g = L L.T``, with ``L`` the :func:`disagreement_rows` of its matrix,
    and is computed so.
    """
    if model.kind == FIXED and np.all(np.asarray(b) == 1.0):
        left = disagreement_rows(model.support[0], basis)
        g = left @ left.T
    else:
        g = basis.t1 @ weight_noise_moment(model, b) @ basis.t1.T
    return (g + g.T) / 2.0


def lyapunov_solve(a, s0, residual_tol=1e-10):
    """Solve ``a s + s a.T = -s0`` for the stationary covariance ``s``.

    Equals the integral of ``expm(a t) s0 expm(a.T t)`` over t >= 0, which
    exists because all eigenvalues of ``a`` must have negative real part.
    """
    import scipy.linalg
    a = np.atleast_2d(np.asarray(a, dtype=float))
    s0 = np.atleast_2d(np.asarray(s0, dtype=float))
    eigs = np.linalg.eigvals(a)
    worst = eigs[np.argmax(eigs.real)]
    if worst.real >= 0:
        raise ValueError(
            f"matrix is not stable: eigenvalue {worst:.12g} has nonnegative real part"
        )
    s = scipy.linalg.solve_continuous_lyapunov(a, -s0)
    s = (s + s.T) / 2.0
    scale = max(1.0, float(np.linalg.norm(s0)))
    for _ in range(3):
        residual = a @ s + s @ a.T + s0
        if np.linalg.norm(residual) <= residual_tol * scale:
            break
        correction = scipy.linalg.solve_continuous_lyapunov(a, -residual)
        s = s + (correction + correction.T) / 2.0
    return s


def lyapunov_residual(a, s, s0, c=None):
    """Frobenius norm of ``a s + s a.T + s0`` relative to ``max(1, |s0|)``.

    With a factor ``c``, the same for the Kronecker-factored equation with
    drift ``kron(a, I)``, source ``kron(s0, c)`` and solution ``kron(s, c)``:
    its residual is ``kron(a s + s a.T + s0, c)``, whose norm is the product
    of the factors' norms.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    s = np.atleast_2d(np.asarray(s, dtype=float))
    s0 = np.atleast_2d(np.asarray(s0, dtype=float))
    c_norm = 1.0 if c is None else float(np.linalg.norm(c))
    residual = np.linalg.norm(a @ s + s @ a.T + s0) * c_norm
    return float(residual / max(1.0, np.linalg.norm(s0) * c_norm))


def s_tilde(x, basis):
    """Embed the agent-space factor into the full agent space: ``T1.T x T1``.

    The full-space covariance is ``kron(s_tilde(x), c)``.  The embedding has
    no variance along the consensus direction: ``ones @ s_tilde(x) == 0``.
    """
    out = basis.t1.T @ np.atleast_2d(np.asarray(x, dtype=float)) @ basis.t1
    return (out + out.T) / 2.0


def empirical_scaled_covariance(final_states, q_ref, basis, delta_k):
    """Sample covariance of the scaled disagreement coordinate across trials.

    Each trial contributes ``xi / sqrt(delta_k)`` computed from its final
    ``(N, M)`` state, a row of the ``(trials, N, M)`` ``final_states``;
    returns ``(covariance, samples)`` with one sample row per trial.
    """
    final_states = np.asarray(final_states, dtype=float)
    if len(final_states) < 2:
        raise ValueError("need at least two trials for a sample covariance")
    xi = basis.t1 @ (final_states - np.asarray(q_ref, dtype=float))
    samples = xi.reshape(len(final_states), -1) / math.sqrt(delta_k)
    cov = np.atleast_2d(np.cov(samples, rowvar=False, ddof=1))
    return cov, samples


# The two-sided one-sample Kolmogorov-Smirnov test against the standard
# normal below is ported from SciPy 1.17.1 (``scipy/stats/_ksstats.py`` and
# ``scipy.stats.ks_1samp``; BSD-3-Clause, "Copyright (c) 2001-2002 Enthought,
# Inc. 2003, SciPy Developers"), trimmed to the survival function.  It
# returns the same bits as ``scipy.stats.kstest(z, "norm").pvalue`` and keeps
# ``scipy.stats`` (most of this package's import time) out of the import path.
# The p-value is the exact distribution of Simard & L'Ecuyer (2011): Durbin's
# matrix method as computed by Marsaglia, Tsang & Wang (2003), Pomeranz's
# recursion (1974) and the Pelz-Good approximation (1976), chosen by n and d.

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# Stirling coefficients B_{2j}/(2j)/(2j-1) for j = 8, ..., 1
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def _log_nfactorial_div_n_pow_n(n):
    """``log(n! / n**n)`` by Stirling's series, with ``n log n`` taken out."""
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _kolmogn_dmtw(n, d):
    """``Pr(D_n <= d)`` by Durbin's matrix method as computed by Marsaglia,
    Tsang & Wang, for ``0.5 < n d`` and ``d < 1``."""
    # d = (k - h)/n with integer k and 0 <= h < 1; the answer is the k-th
    # diagonal entry of (n!/n^n) H^n for an m-square H, m = 2k - 1, with the
    # intermediate results rescaled by 2**128 (in long double) as needed
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h ** m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):  # times n!/n^n
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return np.clip(p, 0.0, 1.0)


def _pomeranz_j1j2(i, n, ll, ceilf, roundf):
    """Endpoints of the nonzero interval of row ``i`` of the recursion."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _kolmogn_pomeranz(n, x):
    """``Pr(D_n <= x)`` by Pomeranz's recursion."""
    # Each of the 2n + 1 rows convolves the previous one with one of three
    # scaled Poisson weight sequences; only two rows, and only their nonzero
    # stretch, are kept.  The answer is n! times the last entry.
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)
    g = min(f, 1.0 - f)
    ceilf = (1 if f > 0 else 0)
    roundf = (1 if f > 0.5 else 0)
    npwrs = 2 * (ll + 1)
    gpower = np.empty(npwrs)  # (g/n)^m/m!
    twogpower = np.empty(npwrs)  # (2g/n)^m/m!
    onem2gpower = np.empty(npwrs)  # ((1-2g)/n)^m/m!

    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1
    V0s, V1s = 0, 0  # start indices of the two rows

    j1, j2 = _pomeranz_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = (twogpower if i % 2 else onem2gpower)
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1
            conv_len = j2 - j1 + 1
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:  # rescale against underflow
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    ans = V1[n - V1s]
    for m in range(1, n + 1):  # times n!
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return np.clip(ans, 0.0, 1.0)


def _kolmogn_pelz_good(n, x):
    """Pelz-Good approximation to ``Pr(D_n <= x)`` for ``0 < x < 1``: the
    Li-Chien/Korolyuk series ``K0 + K1/sqrt(n) + K2/n + K3/n**1.5`` in
    ``z = x sqrt(n)``, recast by Jacobi's theta identity for small z."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0

    q = np.exp(qlog)

    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    # Horner scheme for sum c_i q^(i^2) over the odd integers
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the terms of K2 and K3 summed over all integers k, directly
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)


def _kolmogn_sf(n, x):
    """``Pr(D_n > x)`` for ``0.5/n < x < 1``, by Simard & L'Ecuyer's choice of
    method; ``x`` is a 0-d float64 array, as SciPy's loop passes it, so that
    every operation takes the numpy path it takes there."""
    import scipy.special
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
        return 1.0 - prob
    if t >= n - 1:  # Ruben-Gambino
        return 2 * (1.0 - x) ** n
    if x >= 0.5:  # exact: 2 * smirnov
        return 2 * scipy.special.smirnov(n, x)
    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return 1.0 - _kolmogn_dmtw(n, x)
        if nxsquared <= 4:
            return 1.0 - _kolmogn_pomeranz(n, x)
        return 2 * scipy.special.smirnov(n, x)  # Miller's approximation
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return 2 * scipy.special.smirnov(n, x)
    if n <= 100000 and n * x**1.5 <= 1.4:
        return 1.0 - _kolmogn_dmtw(n, x)
    return 1.0 - _kolmogn_pelz_good(n, x)


def _kolmogorov_sf(d, n):
    """``scipy.stats.kstwo.sf(d, n)``: the two-sided KS statistic of ``n``
    draws exceeds ``d``.  NaN for NaN; 1 below the support, 0 above it."""
    if np.isnan(d):
        return math.nan
    if d <= 0.5 / n:
        return 1.0
    if d >= 1.0:
        return 0.0
    p = _kolmogn_sf(n, np.asarray(d, dtype=np.float64))
    return float(np.clip(np.float64(p), 0.0, 1.0))


def _ks_normal_pvalue(z):
    """``scipy.stats.kstest(z, "norm").pvalue``: the exact two-sided p-value."""
    import scipy.special
    z = np.sort(np.asarray(z, dtype=float))
    n = z.size
    cdf = scipy.special.ndtr(z)
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return _kolmogorov_sf(d_plus if d_plus > d_minus else d_minus, n)


@dataclass
class NormalityResult:
    p_values: np.ndarray
    pass_fraction: float
    tested: list
    degenerate: list
    anomalies: list
    significance: float


def normality_test(samples, predicted_variances, significance=0.01):
    """Per-component Kolmogorov-Smirnov tests against the standard normal.

    Components are standardized by their predicted standard deviation.
    Components whose predicted variance is below ``DEGENERATE_VARIANCE`` are
    excluded as degenerate when the samples agree they are constant;
    otherwise they are flagged as anomalies and counted as failures.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    predicted = np.asarray(predicted_variances, dtype=float).reshape(-1)
    if samples.shape[1] != predicted.size:
        raise ValueError("one predicted variance per component is required")
    p_values = np.full(predicted.size, np.nan)
    tested, degenerate, anomalies = [], [], []
    passes = 0
    for j in range(predicted.size):
        if predicted[j] < DEGENERATE_VARIANCE:
            if float(np.var(samples[:, j])) >= DEGENERATE_VARIANCE:
                anomalies.append(j)
            else:
                degenerate.append(j)
            continue
        z = samples[:, j] / math.sqrt(predicted[j])
        p = _ks_normal_pvalue(z)
        p_values[j] = p
        tested.append(j)
        if p >= significance:
            passes += 1
    denom = len(tested) + len(anomalies)
    fraction = passes / denom if denom else math.nan
    return NormalityResult(
        p_values=p_values,
        pass_fraction=fraction,
        tested=tested,
        degenerate=degenerate,
        anomalies=anomalies,
        significance=significance,
    )


def joint_stability_margin(model, basis):
    """Smallest eigenvalue of the summed negated symmetric reduced drift.

    Positive iff the mean graphs mix jointly over one period; a diagnostic
    for the existence of the contraction constant used by the convergence
    argument.
    """
    n = basis.n_agents
    acc = np.zeros((n - 1, n - 1))
    for w in step_mean_matrices(model):
        f = disagreement_rows(w, basis) @ basis.t1.T
        acc += f + f.T
    return float(np.linalg.eigvalsh(-acc)[0])


@dataclass
class AsymptoticReport:
    """Theory-side objects plus optional Monte Carlo comparisons.

    The covariances are kept as Kronecker factors: the message covariance
    is ``kron(I_N, c)``, the driving noise ``kron(g, c)``, the reduced
    covariance ``S = kron(x, c)`` and its embedding ``kron(x_tilde, c)``.
    """

    q_star: np.ndarray
    lambda2: float
    delta: float
    stability_margin: float
    c: np.ndarray
    g: np.ndarray
    x: np.ndarray
    x_tilde: np.ndarray
    lyapunov_residual: float
    empirical_cov: np.ndarray | None = None
    cov_rel_error: float = math.nan
    p_values: np.ndarray | None = None
    normality_pass_fraction: float = math.nan


def asymptotic_report(
    model,
    delta,
    q_star,
    n_opinions,
    b=1.0,
    final_states=None,
    final_step_size=None,
    significance=0.01,
):
    """Assemble the asymptotic covariance report for one configuration.

    Uses the exact one-hot message covariance at the consensus limit.  The
    drift ``kron(fbar, I_M)`` and the noise ``kron(g, c)`` share their
    Kronecker structure, so ``S = kron(x, c)`` where ``x`` solves the
    (n-1)-dimensional equation ``F x + x F.T = -g``; ``g`` is
    :func:`s0_matrix` of the transmission coefficients ``b``, one for every
    agent or one per agent.  When ``final_states`` from repeated trials are
    supplied (a ``(trials, N, M)`` array, together with the step size of
    their last update), the empirical scaled covariance and per-component
    normality tests are attached.
    """
    q_star = as_opinion_vector(q_star, n_opinions)
    basis = build_projection(model.n)
    wbar = mean_matrix(model)
    drift = reduced_drift(wbar, basis, delta)
    c = categorical_covariance(q_star, 1)
    g = s0_matrix(model, b, basis)
    x = lyapunov_solve(drift.shifted, g)
    report = AsymptoticReport(
        q_star=q_star,
        lambda2=drift.lambda2,
        delta=delta,
        stability_margin=joint_stability_margin(model, basis),
        c=c,
        g=g,
        x=x,
        x_tilde=s_tilde(x, basis),
        lyapunov_residual=lyapunov_residual(drift.shifted, x, g, c),
    )
    if final_states is not None:
        if final_step_size is None:
            raise ValueError("final_step_size is required with final_states")
        if not c.any():
            raise ValueError(
                "q* is a vertex, so the predicted covariance is zero: there is "
                "nothing to compare the trials with"
            )
        cov, samples = empirical_scaled_covariance(
            final_states, q_star, basis, final_step_size
        )
        s = np.kron(x, c)  # the size of the sample covariance it is compared with
        report.empirical_cov = cov
        report.cov_rel_error = float(
            np.linalg.norm(cov - s) / np.linalg.norm(s)
        )
        result = normality_test(
            samples, np.kron(np.diag(x), np.diag(c)), significance
        )
        report.p_values = result.p_values
        report.normality_pass_fraction = result.pass_fraction
    return report
