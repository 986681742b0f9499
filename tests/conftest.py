import numpy as np
import pytest

import socsamp as ss

from oracles import random_doubly_stochastic


def random_trial_config(rng, idx, horizon=1000, renormalize=True):
    """Random small protocol configuration for fuzz corpora.

    Even indices use the conserving mixing b = 1; odd indices draw b freely.
    Returns (config, trial, conserving flag), where ``trial`` is the
    ``(idx, seed)`` pair that :func:`socsamp.run_chunk` steps.
    """
    n = int(rng.integers(2, 11))
    m = int(rng.integers(2, 6))
    kind = rng.choice(["fixed", "iid", "birkhoff", "switching", "complete"])
    tau = 1e-9
    if kind == "complete":
        model = ss.fixed_model(ss.metropolis_complete(n), tau=tau)
    elif kind == "fixed":
        model = ss.fixed_model(random_doubly_stochastic(rng, n), tau=tau)
    elif kind == "iid":
        mats = [random_doubly_stochastic(rng, n) for _ in range(int(rng.integers(2, 4)))]
        probs = rng.dirichlet(np.ones(len(mats)))
        probs = probs / probs.sum()
        model = ss.iid_model(mats, probs, tau=tau)
    elif kind == "switching":
        mats = [random_doubly_stochastic(rng, n) for _ in range(int(rng.integers(2, 4)))]
        model = ss.switching_model(mats, tau=tau, window=len(mats) - 1)
    else:
        coefs = rng.dirichlet(np.ones(3)) * 0.85 + 0.05
        coefs = coefs / coefs.sum()
        model = ss.birkhoff_model(n, coefs, tau=tau)
    conserving = idx % 2 == 0
    b = np.ones(n) if conserving else rng.uniform(0.0, 1.0, size=n)
    if rng.random() < 0.5:
        policy = ss.SamplingPolicy("direct")
    else:
        policy = ss.SamplingPolicy(
            "censored",
            censor_floor_scale=float(rng.uniform(0.0, 0.5)),
            censor_exponent=float(rng.choice([1.0, 2.0])),
            renormalize=renormalize,
        )
    schedule = ss.StepSchedule(
        amplitude=float(rng.uniform(0.5, 2.0)),
        exponent=float(rng.uniform(0.55, 1.0)),
        offset=int(rng.integers(0, 6)),
    )
    samples = tuple(int(x) for x in rng.integers(1, m + 1, size=n))
    seed = int(rng.integers(0, 2**63))
    config = ss.ExperimentConfig(
        n_agents=n,
        n_opinions=m,
        horizon=horizon,
        replications=1,
        master_seed=0,
        initial_samples=samples,
        weight_model=model,
        b=b,
        policy=policy,
        schedule=schedule,
    )
    return config, (idx, seed), conserving


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
