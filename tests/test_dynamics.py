import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import socsamp as ss
from socsamp.dynamics import (
    _agent_sums,
    _increment,
    _martingale_noise,
    _row_maxima,
    _row_sums,
    _sent_counts,
    resolve_checkpoints,
)
from socsamp.sampling import draw_columns, policy_matrix

from conftest import random_trial_config
from oracles import per_trial_reference, random_doubly_stochastic


def make_config(n, m, samples, model, b, policy, schedule, horizon, **kw):
    return ss.ExperimentConfig(
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
        **kw,
    )


def run_seeded(cfg, seed):
    """Trial 0 of ``cfg`` stepped from ``seed``, a one-trial result."""
    return ss.run_chunk(cfg, [(0, seed)])


# ---------------------------------------------------------------- schedules


def test_step_size_example_values():
    sched = ss.StepSchedule(1.0, 0.75, 0)
    assert sched.step_size(1) == pytest.approx(1.0)
    assert sched.step_size(16) == pytest.approx(0.125)  # 16**-0.75 == 1/8


def test_step_size_telescoping_for_unit_exponent():
    sched = ss.StepSchedule(2.0, 1.0, 0)
    assert sched.limit_constant == pytest.approx(0.5)
    for k in range(1, 50):
        inv_diff = 1 / sched.step_size(k + 1) - 1 / sched.step_size(k)
        assert inv_diff == pytest.approx(0.5, abs=1e-12)


def test_limit_constant_zero_below_unit_exponent():
    assert ss.StepSchedule(1.0, 0.75, 0).limit_constant == 0.0


def test_schedule_validation():
    with pytest.raises(ValueError, match="A1"):
        ss.StepSchedule(1.0, 0.4, 0)
    with pytest.raises(ValueError, match="A1"):
        ss.StepSchedule(-1.0, 0.75, 0)
    with pytest.raises(ValueError):
        ss.StepSchedule(1.0, 0.75, 0).step_size(0)
    assert ss.StepSchedule(1.0, 0.75, 0).step_size(1) == 1.0


def test_schedule_is_decreasing_and_square_summable_shape():
    sched = ss.StepSchedule(1.3, 0.6, 2)
    ds = np.array([sched.step_size(k) for k in range(1, 2000)])
    assert (np.diff(ds) < 0).all()
    assert ds[-1] > 0


# ---------------------------------------------------------------- update
#
# run_chunk's own primitives: Q + d * _increment(...) is one protocol round,
# and the realized increment splits as drift + censor noise +
# _martingale_noise(...), with drift and censor noise written out here.


def test_single_agent_fixed_point():
    q = np.array([[0.3, 0.7]])
    y = np.array([[1.0, 0.0]])
    out = q + 0.3 * _increment(np.array([[1.0]]), q, y, y - q, None)  # b = 1
    np.testing.assert_allclose(out, q, atol=1e-15)


def test_two_agent_hand_computation():
    # one-hot opposed agents, uniform weights, messages equal to estimates
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    w = ss.metropolis_complete(2)
    out = q + 0.1 * _increment(w, q, q, q - q, None)  # b = 1
    np.testing.assert_allclose(out, [[0.95, 0.05], [0.05, 0.95]], atol=1e-15)


@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=200, deadline=None)
def test_increment_subtracts_q_when_retention_plus_transmission_is_one(b, m, seed):
    # a_ii = 1 - b_ii, and (1 - b) + b rounds to exactly 1 for every b in
    # [0, 1], so q is subtracted as it is, bit for bit the product with
    # A + B
    rng = np.random.default_rng(seed)
    b = np.array(b)
    n = len(b)
    q = rng.dirichlet(np.ones(m), size=n)
    w = random_doubly_stochastic(rng, n)
    y = np.eye(m)[rng.integers(0, m, n)]
    want = w @ y - ((1.0 - b) + b)[:, None] * q - b[:, None] * (y - q)
    got = _increment(w, q, y, y - q, b[:, None])
    assert got.tobytes() == want.tobytes()


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_update_preserves_component_sums(n, m, seed):
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(m), size=n)
    w = random_doubly_stochastic(rng, n)
    b = rng.uniform(0, 1, size=n)
    labels = rng.integers(0, m, size=n)
    y = np.zeros((n, m))
    y[np.arange(n), labels] = 1.0
    inc = _increment(w, q, y, y - q, b[:, None])
    out = q + float(rng.uniform(0.01, 1.0)) * inc
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_increment_on_the_kernel_b_layout_allocates_no_buffer():
    # run_chunk repeats the b_ii to a step's (chunk, N, M) state once per
    # chunk; a b_ii column made numpy allocate a broadcast buffer of up to
    # 64 kB on every b != 1 step
    rng = np.random.default_rng(6)
    chunk, n, m = 82, 50, 4
    b = rng.uniform(0, 1, size=n)
    b_state = np.tile(np.repeat(b, m), chunk).reshape(chunk, n, m)
    q = rng.dirichlet(np.ones(m), size=(chunk, n))
    y = np.eye(m)[rng.integers(0, m, size=(chunk, n))]
    w = random_doubly_stochastic(rng, n)
    want = _increment(w, q, y, y - q, b[:, None])
    ym_q, out, scratch = y - q, np.empty_like(q), np.empty_like(q)
    _increment(w, q, y, ym_q, b_state, out=out, scratch=scratch)  # warm up
    tracemalloc.start()
    try:
        _increment(w, q, y, ym_q, b_state, out=out, scratch=scratch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096
    assert out.tobytes() == want.tobytes()


# ---------------------------------------------------------------- noise split


def test_decompose_direct_policy_kills_censor_noise():
    # the direct policy samples from the estimates themselves, p = q, so the
    # censor noise wbar (p - q) - B (p - q) vanishes
    rng = np.random.default_rng(0)
    q = rng.dirichlet(np.ones(3), size=4)
    w = ss.metropolis_complete(4)
    b = np.ones((4, 1))
    p = np.empty_like(q)
    policy_matrix(ss.SamplingPolicy("direct"), q, 0.2, p)
    censor = w @ (p - q) - b * (p - q)
    np.testing.assert_array_equal(censor, np.zeros((4, 3)))


def test_decompose_mean_realizations_kill_martingale_noise():
    rng = np.random.default_rng(1)
    q = rng.dirichlet(np.ones(3), size=4)
    b = np.full((4, 1), 0.5)
    w = ss.metropolis_complete(4)
    mart = _martingale_noise(w, w, b, q - q, q)  # y at its mean p=q
    np.testing.assert_allclose(mart, 0.0, atol=1e-15)


def test_decompose_two_agent_hand_values():
    # messages at their mean: the increment is all drift, wbar q - q
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    w = ss.metropolis_complete(2)
    np.testing.assert_allclose(
        _increment(w, q, q, q - q, None).reshape(-1),  # b = 1
        [-0.5, 0.5, 0.5, -0.5], atol=1e-15,
    )
    np.testing.assert_allclose(_martingale_noise(w, w, None, q - q, q), 0.0, atol=1e-15)


def test_decomposition_reconstructs_increment(rng):
    for _ in range(25):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 5))
        q = rng.dirichlet(np.ones(m), size=n)
        mats = [random_doubly_stochastic(rng, n) for _ in range(2)]
        wbar = ss.mean_matrix(ss.iid_model(mats, [0.5, 0.5], tau=1e-9))
        w = mats[int(rng.integers(0, 2))]
        b = rng.uniform(0, 1, size=(n, 1))
        p = rng.dirichlet(np.ones(m), size=n)
        y = np.zeros((n, m))
        y[np.arange(n), rng.integers(0, m, size=n)] = 1.0
        drift = wbar @ q - q
        censor = wbar @ (p - q) - b * (p - q)
        mart = _martingale_noise(w, wbar, b, y - p, p)
        inc = _increment(w, q, y, y - q, b)
        np.testing.assert_allclose(drift + censor + mart, inc, atol=1e-12)


# ---------------------------------------------------------------- trials


def test_null_dynamics_constant_states():
    # no inter-agent edges and b = 1 freezes every estimate
    model = ss.fixed_model(np.eye(3))
    sched = ss.StepSchedule(1.0, 0.75, 0)
    tc = make_config(3, 2, (1, 2, 2), model, 1.0, ss.SamplingPolicy("direct"),
                     sched, 200)
    tr = run_seeded(tc, 5)
    q0 = ss.initial_state((1, 2, 2), 2)
    for snap in tr.snapshots[0]:
        np.testing.assert_array_equal(snap, q0)


def test_average_conservation_with_unit_b(rng):
    for idx in range(10):
        tc, trial, conserving = random_trial_config(rng, idx * 2, horizon=300)
        tr = ss.run_chunk(tc, [trial])
        assert tr.diagnostics["max_sum_drift"][0] <= 1e-12 * 300
        if conserving:
            initial_avg = ss.network_average(
                ss.initial_state(tc.initial_samples, tc.n_opinions)
            )
            for snap in tr.snapshots[0]:
                drift = np.abs(snap.mean(axis=0) - initial_avg).max()
                assert drift <= 1e-9


def test_trial_determinism():
    model = ss.fixed_model(ss.metropolis_complete(4))
    sched = ss.StepSchedule(1.0, 0.75, 0)
    tc = make_config(4, 3, (1, 2, 3, 1), model, 1.0, ss.SamplingPolicy("direct"),
                     sched, 500)
    a, b = run_seeded(tc, 77), run_seeded(tc, 77)
    np.testing.assert_array_equal(a.final_states, b.final_states)
    np.testing.assert_array_equal(a.snapshots, b.snapshots)


def test_qstar_running_zero_series_with_unit_b():
    # b = 1 conserves the average: every step's shift of it is zero
    model = ss.fixed_model(ss.metropolis_complete(3))
    sched = ss.StepSchedule(1.0, 0.75, 0)
    tc = make_config(3, 2, (1, 2, 2), model, 1.0, ss.SamplingPolicy("direct"),
                     sched, 200)
    _, inc = per_trial_reference(tc, 0, 3)
    assert np.abs(inc).max() <= 1e-14
    initial_avg = ss.network_average(ss.initial_state((1, 2, 2), 2))
    np.testing.assert_allclose(initial_avg + inc.sum(axis=0), initial_avg, atol=1e-14)


def test_qstar_series_partial_sums_shrink():
    # half-retention mixing: the limit exists, so late partial sums of the
    # average shifts, avg(q_j) - avg(q_i), are small
    model = ss.fixed_model(ss.metropolis_complete(4))
    sched = ss.StepSchedule(1.0, 0.75, 0)
    tc = make_config(4, 3, (1, 2, 3, 3), model, 0.5, ss.SamplingPolicy("direct"),
                     sched, 10_000)
    tr = run_seeded(tc, 11)
    avg = {k: snap.mean(axis=0) for k, snap in zip(tr.checkpoints, tr.snapshots[0])}
    prev = np.linalg.norm(avg[1000] - avg[100])
    last = np.linalg.norm(avg[10_000] - avg[1000])
    assert last < prev


def test_silent_dynamics_do_not_conserve_component_sums():
    # sub-stochastic censoring emits zero messages, which leak mass
    model = ss.fixed_model(ss.metropolis_complete(4))
    sched = ss.StepSchedule(1.0, 0.75, 0)
    policy = ss.SamplingPolicy("censored", 0.5, 1.0, renormalize=False)
    tc = make_config(4, 3, (1, 2, 3, 3), model, 1.0, policy, sched, 200)
    tr = run_seeded(tc, 2)
    assert tr.diagnostics["silent_messages"][0] > 0


def test_noise_norm_stays_below_static_bound(rng):
    for idx in range(8):
        tc, trial, _ = random_trial_config(rng, idx, horizon=300)
        diagnostics = ss.run_chunk(tc, [trial]).diagnostics
        assert diagnostics["max_noise_norm"][0] <= diagnostics["noise_norm_bound"][0]


def test_consensus_error_envelope_decreases():
    # error at logarithmic checkpoints shrinks on every corpus seed
    model = ss.fixed_model(ss.metropolis_complete(6))
    sched = ss.StepSchedule(1.0, 0.75, 0)
    for seed in (1, 2, 3):
        tc = make_config(6, 3, (1, 1, 2, 2, 3, 3), model, 1.0,
                         ss.SamplingPolicy("direct"), sched, 10_000)
        tr = run_seeded(tc, seed)
        err = dict(zip(tr.checkpoints, tr.consensus_errors[0]))
        assert err[10_000] < err[1000] < err[100]


def test_trace_checkpoints_strictly_increasing():
    model = ss.fixed_model(ss.metropolis_complete(3))
    sched = ss.StepSchedule(1.0, 0.75, 0)
    tc = make_config(3, 2, (1, 2, 2), model, 1.0, ss.SamplingPolicy("direct"),
                     sched, 1234)
    tr = run_seeded(tc, 8)
    ks = np.array(tr.checkpoints)
    assert (np.diff(ks) > 0).all()
    assert ks[-1] == 1234
    assert ss.default_checkpoints(100) == (0, 1, 2, 5, 10, 20, 50, 100)


def test_resolve_checkpoints_variants():
    assert resolve_checkpoints("all", 5) == (0, 1, 2, 3, 4, 5)
    assert resolve_checkpoints((3, 1), 10) == (1, 3, 10)
    with pytest.raises(ValueError):
        resolve_checkpoints((12,), 10)


def test_component_sums_hold_over_long_horizon():
    # 1e5 steps of drift stays orders of magnitude inside 1e-9
    model = ss.fixed_model(ss.metropolis_complete(5))
    sched = ss.StepSchedule(1.0, 0.75, 0)
    tc = make_config(5, 3, (1, 2, 3, 1, 2), model, 0.7, ss.SamplingPolicy("direct"),
                     sched, 100_000)
    tr = run_seeded(tc, 13)
    assert tr.diagnostics["max_sum_drift"][0] <= 1e-9


def test_early_steps_go_negative_and_are_counted():
    # large early steps overshoot below zero; recorded, never clipped
    model = ss.fixed_model(ss.metropolis_complete(6))
    sched = ss.StepSchedule(1.0, 0.75, 0)
    tc = make_config(6, 4, (1, 2, 3, 4, 1, 2), model, 1.0,
                     ss.SamplingPolicy("direct"), sched, 50)
    tr = run_seeded(tc, 21)
    assert tr.diagnostics["simplex_violation_agent_steps"][0] > 0
    assert tr.diagnostics["max_negative_component"][0] > 0
    assert tr.diagnostics["max_sum_drift"][0] <= 1e-12  # sums still conserved


def test_trial_abort_on_nonfinite():
    # a step far above stability blows the iteration up to non-finite.  With
    # b = 1/2 the round is Q + d * (W Y - Y/2 - Q/2), which retains
    # (1 - d/2) Q: at d = 10 the estimate near the largest double overflows,
    # while the row that stays in the simplex does not
    big = np.array([[1e308, 1 - 1e308], [0.0, 1.0]])
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    with np.errstate(over="ignore"):
        out = big + 10.0 * _increment(w, big, y, y - big, np.full((2, 1), 0.5))
    assert np.isneginf(out[0, 0]) and np.isposinf(out[0, 1])
    np.testing.assert_array_equal(out[1], [10.0, -9.0])


# the window reductions of run_chunk against the numpy expressions they
# replace, bit for bit, below and above numpy's pairwise threshold of 8
REDUCTION_SHAPES = pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 9, 17])


def reduction_input(rng, n, m):
    """``(steps, chunk, n, m)`` values over many magnitudes and both signs,
    with signed zeros, so that any change of summation order shows."""
    x = rng.standard_normal((5, 3, n, m)) * 10.0 ** rng.integers(-8, 9, (5, 3, n, m))
    x[rng.random(x.shape) < 0.1] = -0.0
    return x


@REDUCTION_SHAPES
@pytest.mark.parametrize("n", [1, 2, 9, 50])
def test_row_sums_match_numpy_sum(rng, n, m):
    x = reduction_input(rng, n, m)
    out = np.full(x.shape[:-1], np.nan)
    got = _row_sums(x, out=out)
    assert got is out
    want = x.sum(axis=-1)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@REDUCTION_SHAPES
@pytest.mark.parametrize("n", [1, 2, 9, 50])
def test_row_maxima_match_numpy_reduce(rng, n, m):
    # on |sum - 1| values as run_chunk takes them, with NaNs, which both
    # pass on
    x = np.abs(reduction_input(rng, n, m))
    x[rng.random(x.shape) < 0.05] = np.nan
    out = np.full(x.shape[:-1], -1.0)
    got = _row_maxima(x, out=out)
    assert got is out
    want = np.maximum.reduce(x, axis=-1)
    assert got.tobytes() == want.tobytes()


@REDUCTION_SHAPES
@pytest.mark.parametrize("n", [1, 2, 9, 50])
def test_agent_sums_match_numpy_reduce(rng, n, m):
    x = reduction_input(rng, n, m)
    work = np.full(x.size + 5, np.nan)
    got = _agent_sums(x, work)
    want = np.add.reduce(x, axis=2)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@REDUCTION_SHAPES
@pytest.mark.parametrize("n", [1, 2, 9, 50])
def test_sent_counts_match_active_rows(rng, n, m):
    # messages drawn from sub-stochastic rows, so some agents are silent;
    # the count equals the sum of the draws' active rows, the expression
    # the silent count was taken from before
    steps, chunk = 6, 3
    p = rng.dirichlet(np.ones(m), size=(steps, chunk, n)) * rng.uniform(
        0.5, 1.0, (steps, chunk, n, 1)
    )
    u = rng.random((steps, chunk, n))
    messages = np.empty_like(p)
    active = np.empty((steps, chunk * n))
    work = np.zeros((m + 1, chunk * n))
    for k in range(steps):
        rows = messages[k].reshape(-1, m)
        draw_columns(p[k].reshape(-1, m).T, u[k].reshape(-1), rows.T, work)
        active[k] = work[m]
    want = np.add.reduce(active.reshape(steps, chunk, n), axis=(0, 2))
    got = _sent_counts(messages)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want.astype(np.int64))
    assert 0 < got.sum() < steps * chunk * n
