import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import socsamp as ss
from socsamp.sampling import censor_threshold, draw_columns, policy_matrix

from oracles import (
    draw_messages,
    reference_inverse_cdf_draw,
    reference_policy_matrix,
    reference_stream,
)

DIRECT = ss.SamplingPolicy("direct")


def censored(c=1.0, exponent=1.0, renormalize=True):
    return ss.SamplingPolicy("censored", c, exponent, renormalize)


def mapped(policy, q, delta_k, nonnegative=False):
    """``(p, uniform_fallbacks, clamped_agents)`` of the map, into a new array."""
    p = np.full(q.shape, np.nan)
    return (p, *policy_matrix(policy, q, delta_k, p, nonnegative))


def one_row(policy, q, delta_k):
    """Sampling distribution of a single estimate: a one-agent state."""
    p, _, _ = mapped(policy, np.asarray(q, dtype=float)[None], delta_k)
    return p[0]


def test_direct_is_bitwise_identity():
    q = np.array([[0.2, 0.8]])
    p, fallbacks, clamped = mapped(DIRECT, q, 0.5)
    assert p.tobytes() == q.tobytes()
    assert fallbacks == 0 and clamped == 0


def test_censored_single_survivor_renormalizes():
    p = one_row(censored(), [0.004, 0.996], 0.01)
    np.testing.assert_array_equal(p, [0.0, 1.0])


def test_censored_nothing_below_threshold():
    q = np.array([0.3, 0.3, 0.4])
    np.testing.assert_allclose(one_row(censored(), q, 0.01), q)


def test_censored_all_below_falls_back_to_q():
    q = np.array([0.5, 0.5])
    p = one_row(censored(c=10.0), q, 1.0)  # floor above every entry
    np.testing.assert_allclose(p, q)


def test_censored_silent_without_renormalization():
    q = np.array([0.5, 0.5])
    p = one_row(censored(c=10.0, renormalize=False), q, 1.0)
    np.testing.assert_array_equal(p, [0.0, 0.0])


def test_censored_sub_stochastic_without_renormalization():
    q = np.array([0.05, 0.45, 0.5])
    p = one_row(censored(c=0.1, renormalize=False), q, 1.0)
    np.testing.assert_allclose(p, [0.0, 0.45, 0.5])


def test_degenerate_estimate_falls_back_to_uniform():
    # the first row has no positive mass at all: only the uniform is left
    q = np.array([[-0.5, 0.0, 0.0], [0.1, 0.5, 0.4]])
    for policy in (censored(c=5.0), DIRECT):
        p, fallbacks, clamped = mapped(policy, q, 1.0)
        assert fallbacks == 1 and clamped == 1
        np.testing.assert_array_equal(p[0], [1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_allclose(p[1], q[1])
    # without renormalization the all-censored agents stay silent instead
    p, fallbacks, clamped = mapped(censored(c=5.0, renormalize=False), q, 1.0)
    assert fallbacks == 0 and clamped == 1
    np.testing.assert_array_equal(p, np.zeros((2, 3)))


def test_policy_matrix_direct_clamps_negative_rows():
    q = np.array([[0.2, 0.8], [1.1, -0.1]])
    p, fallbacks, clamped = mapped(DIRECT, q, 0.5)
    assert clamped == 1 and fallbacks == 0
    np.testing.assert_array_equal(p[0], q[0])
    np.testing.assert_allclose(p[1], [1.0, 0.0])
    assert p[1].sum() == pytest.approx(1.0)
    # a batch of states gives each state's rows and its own counts
    batch = np.stack([q, np.array([[0.3, 0.7], [0.5, 0.5]])])
    pb, fallbacks, clamped = mapped(DIRECT, batch, 0.5)
    np.testing.assert_array_equal(pb[0], p)
    np.testing.assert_array_equal(pb[1], batch[1])
    np.testing.assert_array_equal(clamped, [1, 0])
    np.testing.assert_array_equal(fallbacks, [0, 0])


def random_estimate_row(rng, m):
    """An estimate row of one of the kinds the sampling map tells apart."""
    v = rng.dirichlet(np.ones(m))
    a = rng.integers(m)
    kind = rng.integers(6)
    if kind == 1:  # in flight: sums to 1, maybe with a negative component
        e = rng.uniform(0.0, 0.3)
        v[a] -= e
        v[(a + 1) % m] += e
    elif kind == 2:  # all mass below a small floor
        v *= rng.uniform(0.0, 1e-3)
    elif kind == 3:  # no positive mass: negative entries and zeros of either sign
        v = -rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.5)
    elif kind == 4:  # a negative component; positive part above or below 1
        v *= 1.2
        v[a] = -0.2
    elif kind == 5:  # positive, sums to more than 1
        v *= rng.uniform(1.0, 2.0)
    return v


def test_policy_matrix_matches_row_by_row_reference():
    # bits and counts against the one-row-at-a-time oracle on direct and
    # censored policies, 2-D and batched states
    rng = np.random.default_rng(20261018)
    seen = set()
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        shape = (*rng.integers(1, 4, size=rng.integers(0, 3)), int(rng.integers(1, 7)), m)
        rows = [random_estimate_row(rng, m) for _ in range(int(np.prod(shape[:-1])))]
        q = np.array(rows).reshape(shape)
        if rng.random() < 0.3:
            policy = DIRECT
        else:
            c = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 5.0))
            policy = censored(c, float(rng.choice([1.0, 2.0])), bool(rng.random() < 0.5))
        delta = float(rng.uniform(0.01, 1.0))

        before = q.copy()
        p, fallbacks, clamped = mapped(policy, q, delta)
        want_p = np.full(q.shape, np.nan)
        want_fallbacks, want_clamped = reference_policy_matrix(policy, q, delta, want_p)
        assert p.tobytes() == want_p.tobytes()
        for got, want in ((fallbacks, want_fallbacks), (clamped, want_clamped)):
            np.testing.assert_array_equal(got, want)
        assert q.tobytes() == before.tobytes()

        kept = np.where(q >= censor_threshold(policy, delta), q, 0.0).sum(axis=-1)
        positive = np.clip(q, 0.0, None).sum(axis=-1)
        seen.add((policy.kind, policy.renormalize, "pass through",
                  p.tobytes() == q.tobytes()))
        seen.add((policy.kind, policy.renormalize, "fallback", bool(np.sum(fallbacks))))
        seen.add((policy.kind, policy.renormalize, "all censored",
                  bool(((kept <= 0.0) & (positive > 0.0)).any())))
        seen.add((policy.kind, "positive part above 1",
                  bool(((q < 0.0).any(axis=-1) & (positive > 1.0)).any())))
    # every branch of the map was reached
    for renormalize in (True, False):
        assert ("censored", renormalize, "all censored", True) in seen
    assert ("censored", True, "fallback", True) in seen
    assert ("direct", True, "fallback", True) in seen
    assert ("direct", True, "pass through", True) in seen
    assert ("direct", "positive part above 1", True) in seen


@given(
    m=st.integers(1, 5),
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    policy=st.sampled_from(
        [DIRECT, censored(0.5), censored(0.5, renormalize=False), censored(2.0, 2.0),
         censored(0.0)]
    ),
)
@settings(max_examples=200, deadline=None)
def test_nonnegative_hint_changes_no_bit(m, shape, seed, policy):
    # a state known to have no negative or NaN component: the hinted map
    # gives the bits and counts of the unhinted one, on rows above the
    # threshold, rows whose every component is below it, all-zero rows of
    # either sign and rows that sum to more than 1
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(m), size=shape)
    q *= rng.choice([1.0, 1.0, 1.0, 1.5, 1e-3, 0.0, -0.0], size=(*shape, 1))
    q[rng.random(q.shape) < 0.1] = 0.0
    delta = float(rng.uniform(0.01, 1.0))
    before = q.copy()
    want_p, want_fallbacks, want_clamped = mapped(policy, q, delta)
    p, fallbacks, clamped = mapped(policy, q, delta, nonnegative=True)
    assert p.tobytes() == want_p.tobytes()
    for got, want in ((fallbacks, want_fallbacks), (clamped, want_clamped)):
        np.testing.assert_array_equal(got, want)
    assert q.tobytes() == before.tobytes()


def test_hinted_censored_map_allocates_no_state_sized_array():
    # the hinted map writes its survivors straight into ``out``; what it
    # allocates besides, a mask and the row totals, stays below one array
    # of the batch's size
    q = np.random.default_rng(5).dirichlet(np.ones(3), size=(100, 20))
    policy = censored(c=0.5, exponent=2.0)  # every row keeps mass at 0.1
    want_p, _, _ = mapped(policy, q, 0.1)
    out = np.empty_like(q)
    policy_matrix(policy, q, 0.1, out, nonnegative=True)  # warm up
    tracemalloc.start()
    try:
        counts = policy_matrix(policy, q, 0.1, out, nonnegative=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < q.nbytes
    assert counts == (0, 0)
    assert out.tobytes() == want_p.tobytes()


def test_threshold_shape():
    pol = censored(c=0.5, exponent=2.0)
    assert censor_threshold(pol, 0.1) == pytest.approx(0.5 * 0.01)


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.01, max_value=0.6),
)
@settings(max_examples=60, deadline=None)
def test_censoring_distortion_bound(m, seed, delta_k):
    # for a proper distribution the sup-norm distortion is at most M * floor
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(m))
    pol = censored(c=0.4, exponent=1.0)
    alpha = censor_threshold(pol, delta_k)
    p = one_row(pol, q, delta_k)
    assert np.abs(p - q).max() <= m * alpha + 1e-12


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_stacked_censoring_bound_with_quadratic_floor(n, m, seed):
    # exponent 2 keeps the stacked distortion at most M*N*c*delta**2
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(m), size=n)
    c, delta = 0.4, float(rng.uniform(0.01, 0.9))
    pol = censored(c=c, exponent=2.0)
    p, _, _ = mapped(pol, q, delta)
    assert np.linalg.norm(p - q) <= m * n * c * delta**2 + 1e-12


def test_draw_message_deterministic():
    rng = reference_stream(0, 0)
    for _ in range(20):
        y = draw_messages(np.array([1.0, 0.0, 0.0]), rng.random(1))[0]
        np.testing.assert_array_equal(y, [1.0, 0.0, 0.0])


def test_draw_message_frequencies():
    # binomial standard error sqrt(0.25 / 1e5), spec allows 4 sigma
    rng = reference_stream(31337, 0)
    p = np.array([0.5, 0.5])
    n_draws = 100_000
    u = rng.random(n_draws)
    count = sum(
        draw_messages(p, u[j : j + 1])[0, 0] for j in range(n_draws)
    )
    assert abs(count / n_draws - 0.5) <= 0.006


def test_draw_message_residual_mass_is_silent():
    rng = reference_stream(4242, 0)
    p = np.array([0.4, 0.4])
    n_draws = 100_000
    y = draw_messages(np.tile(p, (n_draws, 1)), rng.random(n_draws))
    silent = (y.sum(axis=1) == 0).mean()
    assert abs(silent - 0.2) <= 0.006


def test_draw_message_unbiased():
    rng = reference_stream(7, 0)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    n_draws = 100_000
    y = draw_messages(np.tile(p, (n_draws, 1)), rng.random(n_draws))
    se = np.sqrt(p * (1 - p) / n_draws)
    assert (np.abs(y.mean(axis=0) - p) <= 4 * se).all()
    # a batch of matrices draws row by row with the same uniforms
    u = reference_stream(7, 1).random(12)
    rows = np.tile(p, (12, 1))
    np.testing.assert_array_equal(
        draw_messages(rows.reshape(3, 4, 4), u.reshape(3, 4)).reshape(12, 4),
        draw_messages(rows, u),
    )


def test_draw_message_rejects_negative():
    rng = reference_stream(1, 0)
    with pytest.raises(ValueError, match="negative"):
        draw_messages(np.array([-0.1, 1.1]), rng.random(1))


def test_draw_message_rejects_super_stochastic():
    rng = reference_stream(1, 0)
    with pytest.raises(ValueError, match="more than 1"):
        draw_messages(np.array([0.7, 0.7]), rng.random(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_draw_messages_rejects_non_finite(bad):
    # a NaN passes both the sign and the sum check; the inverse-CDF draw
    # would turn it into a message that is not one-hot
    with pytest.raises(ValueError, match="non-finite"):
        draw_messages(np.array([[0.5, bad], [0.5, 0.5]]), np.array([0.2, 0.2]))


@given(
    m=st.integers(1, 6),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 5)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_inverse_cdf_draw_matches_five_pass_reference(m, shape, seed):
    # the component-at-a-time draw against the whole-row one, bit for bit,
    # on (R, N, M) batches with zero leading and trailing components,
    # sub-stochastic and all-zero (silent) rows, and uniforms equal to a
    # partial sum of their row or to 0
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(m), size=shape)
    p[..., : rng.integers(0, m)] = 0.0
    p[..., m - rng.integers(0, m) :] = 0.0
    p *= rng.choice([1.0, 1.0, 0.5, 0.0], size=(*shape, 1))
    u = rng.random(shape)
    on_sum = rng.random(shape) < 0.4
    cdf = np.add.accumulate(p, axis=-1)
    u[on_sum] = np.take_along_axis(cdf, rng.integers(0, m, (*shape, 1)), -1)[on_sum, 0]
    u[rng.random(shape) < 0.1] = 0.0
    expected, expected_active = reference_inverse_cdf_draw(p, u)
    rows = u.size
    messages, work = np.empty_like(p), np.zeros((m + 1, rows))
    # twice on the same buffers, as the kernel reuses them
    for _ in range(2):
        draw_columns(
            p.reshape(rows, m).T, u.reshape(rows), messages.reshape(rows, m).T, work
        )
        np.testing.assert_array_equal(messages, expected)
        assert not np.signbit(messages).any()
        np.testing.assert_array_equal(
            work[m].reshape(u.shape), expected_active.astype(float)
        )


@pytest.mark.parametrize("m", [1, 2, 3, 8, 9])
def test_inverse_cdf_draw_wide_chunks_match_reference(m):
    # on both sides of CDF_ROW_ADDS, where the CDF switches from
    # np.add.accumulate to adds of whole components, with silent rows and
    # uniforms equal to a partial sum of their row
    rng = np.random.default_rng(m)
    for rows in (1, ss.sampling.CDF_ROW_ADDS - 1, ss.sampling.CDF_ROW_ADDS, 2500):
        p = rng.dirichlet(np.ones(m), size=(rows, 1))
        p *= rng.choice([1.0, 0.5, 0.0], size=(rows, 1, 1))
        u = rng.random((rows, 1))
        on_sum = rng.random((rows, 1)) < 0.4
        cdf = np.add.accumulate(p, axis=-1)
        picked = np.take_along_axis(cdf, rng.integers(0, m, (rows, 1, 1)), -1)
        u[on_sum] = picked[on_sum, 0]
        expected, expected_active = reference_inverse_cdf_draw(p, u)
        messages, work = np.empty_like(p), np.zeros((m + 1, rows))
        draw_columns(p[:, 0].T, u[:, 0], messages[:, 0].T, work)
        np.testing.assert_array_equal(messages, expected)
        np.testing.assert_array_equal(work[m], expected_active[:, 0].astype(float))


def uniform_panel(seeds, n_agents, horizon):
    """Streamed message uniforms as one (trials, agents, steps) array."""
    return np.concatenate(
        [b.copy() for b in ss.message_uniform_blocks(seeds, n_agents, horizon)],
        axis=-1,
    )


STREAM_SEEDS = [0, 1, 5, 2**32 - 1, 2**32, 2**32 + 7, 2**64 - 1, -3] + [
    ss.derive_trial_seed(712, t) for t in range(50)
]


@pytest.mark.parametrize(
    "path",
    [(ss.sampling.AGENT_DOMAIN, range(3)), (ss.sampling.WEIGHT_DOMAIN,),
     (ss.sampling.INIT_DOMAIN,)],
    ids=["agent", "weight", "init"],
)
def test_substreams_match_numpy_seed_sequence(path):
    # the array-hashed streams are numpy's SeedSequence streams, bit for bit,
    # in the product's order: seeds outermost
    streams = ss.substreams(STREAM_SEEDS, *path)
    addresses = list(itertools.product(STREAM_SEEDS, *[np.atleast_1d(k) for k in path]))
    assert len(streams) == len(addresses)
    for gen, (seed, *key) in zip(streams, addresses):
        expected = reference_stream(seed, *(int(k) for k in key)).random(200)
        np.testing.assert_array_equal(gen.random(200), expected)


@pytest.mark.parametrize("key", [-1, 2**32, [0, 2**32]])
def test_substreams_refuse_path_entries_beyond_one_word(key):
    with pytest.raises(ValueError, match="path entries"):
        ss.substreams([1], key)


def test_reproducibility_per_agent_step(monkeypatch):
    # same (seed, agent, step) gives the same uniform, hence the same message
    a = uniform_panel([123], 4, 50)
    b = uniform_panel([123], 4, 50)
    np.testing.assert_array_equal(a, b)
    c = uniform_panel([124], 4, 50)
    assert not np.array_equal(a, c)
    # agent rows are independent streams: a shorter draw is a prefix
    d = uniform_panel([123], 4, 20)
    np.testing.assert_array_equal(a[..., :20], d)
    # so blocks of any length, and any other trials streamed alongside, give
    # the same uniforms as one draw per (trial, agent)
    monkeypatch.setattr(ss.sampling, "BLOCK_STEPS", 7)
    # every block is written into one buffer, so they are kept as copies
    blocks = [blk.copy() for blk in ss.message_uniform_blocks([7, 123], 4, 50)]
    assert [blk.shape[-1] for blk in blocks] == [7] * 7 + [1]
    np.testing.assert_array_equal(np.concatenate(blocks, axis=-1)[1:], a)
    for i in range(4):
        np.testing.assert_array_equal(
            np.concatenate(blocks, axis=-1)[0, i],
            reference_stream(7, ss.sampling.AGENT_DOMAIN, i).random(50),
        )


# the one-hot covariance at the limit has the per-component variances
# q(1-q) on its diagonal


def test_message_covariance_limit_vertex():
    np.testing.assert_array_equal(
        ss.categorical_covariance(np.array([1.0, 0.0]), 1), np.zeros((2, 2))
    )


def test_message_covariance_limit_bernoulli():
    np.testing.assert_allclose(
        np.diag(ss.categorical_covariance(np.array([0.5, 0.5]), 1)), [0.25, 0.25]
    )


def test_message_covariance_limit_blocks():
    q = np.array([0.2, 0.3, 0.4, 0.1])
    sigma = ss.categorical_covariance(q, 2)
    variances = [0.16, 0.21, 0.24, 0.09]
    np.testing.assert_allclose(np.diag(sigma), variances * 2)
    np.testing.assert_array_equal(sigma[:4, 4:], np.zeros((4, 4)))


def test_per_component_variances_match_empirical():
    q = np.array([0.2, 0.3, 0.4, 0.1])
    rng = reference_stream(2718, 0)
    n_draws = 100_000
    y = draw_messages(np.tile(q, (n_draws, 1)), rng.random(n_draws))
    dev = y - q
    var = (dev**2).mean(axis=0)
    se = np.sqrt(2.0 / n_draws) * q * (1 - q) * 4  # generous scale bound
    predicted = np.diag(ss.categorical_covariance(q, 1))
    assert (np.abs(var - predicted) <= se + 4 / n_draws).all()


def test_categorical_covariance_matches_empirical_including_cross_terms():
    q = np.array([0.2, 0.3, 0.4, 0.1])
    rng = reference_stream(999, 0)
    n_draws = 100_000
    y = draw_messages(np.tile(q, (n_draws, 1)), rng.random(n_draws))
    dev = y - q
    emp = dev.T @ dev / n_draws
    exact = ss.categorical_covariance(q, 1)
    # fourth-moment bound on the entrywise standard error
    assert np.abs(emp - exact).max() <= 4 * np.sqrt(0.25 / n_draws)
    assert np.abs(exact.sum(axis=1)).max() < 1e-15  # rows sum to zero


def test_categorical_covariance_blocks():
    q = np.array([0.5, 0.5])
    out = ss.categorical_covariance(q, 2)
    block = np.array([[0.25, -0.25], [-0.25, 0.25]])
    np.testing.assert_allclose(out[:2, :2], block)
    np.testing.assert_allclose(out[2:, 2:], block)
    np.testing.assert_array_equal(out[:2, 2:], np.zeros((2, 2)))
