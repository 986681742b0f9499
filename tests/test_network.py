import itertools

import numpy as np
import pytest

import socsamp as ss
from socsamp.network import (
    birkhoff_permutation_blocks,
    birkhoff_weights,
    iid_picks,
    step_mean_matrices,
)
from socsamp.sampling import WEIGHT_DOMAIN

from oracles import (
    random_doubly_stochastic,
    reference_stream,
    reference_weight_matrix,
    strongly_connected_bruteforce,
)


def test_validate_identity_and_uniform():
    for n in (1, 2, 5):
        assert ss.validate_doubly_stochastic(np.eye(n))
        assert ss.validate_doubly_stochastic(ss.metropolis_complete(n))


def test_validate_rejects_bad_column_sums():
    assert not ss.validate_doubly_stochastic(np.array([[0.9, 0.1], [0.2, 0.8]]))


def test_validate_rejects_negative_entries():
    assert not ss.validate_doubly_stochastic(np.array([[1.5, -0.5], [-0.5, 1.5]]))


def test_metropolis_complete_small():
    np.testing.assert_allclose(ss.metropolis_complete(2), [[0.5, 0.5], [0.5, 0.5]])
    np.testing.assert_allclose(ss.metropolis_complete(1), [[1.0]])


def test_metropolis_complete_50():
    w = ss.metropolis_complete(50)
    np.testing.assert_allclose(w, 0.02)
    assert ss.validate_doubly_stochastic(w)


def test_metropolis_complete_rejects_nonpositive():
    with pytest.raises(ValueError):
        ss.metropolis_complete(0)


def test_fixed_model_constant():
    model = ss.fixed_model(np.eye(2))
    assert len(model.support) == 1
    np.testing.assert_array_equal(model.support[0], np.eye(2))
    np.testing.assert_array_equal(ss.mean_matrix(model), np.eye(2))


@pytest.mark.parametrize("factory", [
    lambda ws: ss.fixed_model(ws[0]),
    lambda ws: ss.iid_model(ws, (0.5, 0.5)),
    lambda ws: ss.switching_model(ws, window=1),
], ids=["fixed", "iid", "switching"])
def test_models_freeze_a_copy_of_the_callers_matrices(factory):
    ws = [np.eye(3), np.eye(3)[[1, 2, 0]]]
    model = factory(ws)
    assert all(w.flags.writeable for w in ws)
    assert all(not w.flags.writeable for w in model.support)
    # the model keeps its own matrices when the caller's change
    ws[0][0, 0] = 7.0
    np.testing.assert_array_equal(model.support[0], np.eye(3))


IID_MEAN = np.array([[0.75, 0.25], [0.25, 0.75]])


def test_iid_model_mean_matrix_exact():
    model = ss.iid_model([np.eye(2), ss.metropolis_complete(2)], [0.5, 0.5])
    np.testing.assert_allclose(ss.mean_matrix(model), IID_MEAN)


def test_iid_model_empirical_mean():
    # entry standard deviation is 0.25, so 3 standard errors over 1e5 draws
    model = ss.iid_model([np.eye(2), ss.metropolis_complete(2)], [0.5, 0.5])
    n_draws = 100_000
    picks = iid_picks(model, [reference_stream(2024, 5)], n_draws)
    assert picks.shape == (n_draws, 1)
    total = np.stack(model.support)[picks[:, 0]].sum(axis=0)
    se = 0.25 / np.sqrt(n_draws)
    assert np.abs(total / n_draws - IID_MEAN).max() <= 3 * se


def kernel_weight_draws(model, rngs, horizon):
    """``(streams, horizon, n, n)`` weights, each block built in one call, as
    run_chunk builds a window's."""
    return np.concatenate([
        birkhoff_weights(model, block)
        for block in birkhoff_permutation_blocks(model, rngs, horizon)
    ], axis=1)


def test_birkhoff_always_doubly_stochastic():
    model = ss.birkhoff_model(3, (0.4, 0.3, 0.3))
    draws = kernel_weight_draws(model, [reference_stream(99, 1)], 10_000)[0]
    for w in draws:
        assert ss.validate_doubly_stochastic(w)


def test_birkhoff_permutation_count_follows_the_mixing_weights():
    # one permutation per weight after the identity's; not settable apart
    assert ss.birkhoff_model(3, (0.4, 0.3, 0.3)).permutation_count == 2
    model = ss.WeightMatrixModel("birkhoff-random", 3, mixing=(0.5, 0.5))
    assert model.permutation_count == 1
    with pytest.raises(ValueError, match="at least one permutation"):
        ss.birkhoff_model(3, (1.0,))
    with pytest.raises(TypeError):
        ss.WeightMatrixModel("birkhoff-random", 3, permutation_count=2, mixing=(0.5, 0.5))


def test_birkhoff_mean_matrix():
    model = ss.birkhoff_model(4, (0.5, 0.25, 0.25))
    expected = 0.5 * np.eye(4) + 0.5 * ss.metropolis_complete(4)
    np.testing.assert_allclose(ss.mean_matrix(model), expected)


def test_birkhoff_empirical_mean_matches_analytic():
    model = ss.birkhoff_model(3, (0.2, 0.5, 0.3))
    n_draws = 100_000
    perms = np.concatenate(
        list(birkhoff_permutation_blocks(model, [reference_stream(4321, 8)], n_draws)),
        axis=1,
    )
    total = birkhoff_weights(model, perms[0]).sum(axis=0)
    # each permutation entry is Bernoulli(1/3) scaled by its coefficient
    se = np.sqrt((0.5**2 + 0.3**2) * (1 / 3) * (2 / 3) / n_draws)
    assert np.abs(total / n_draws - ss.mean_matrix(model)).max() <= 4 * se


@pytest.mark.parametrize("block_steps", [None, 7])
def test_birkhoff_blocks_match_per_step_reference(monkeypatch, block_steps):
    # the block-streamed permutations, built into matrices a block at a time
    # as run_chunk builds a window's, give the reference's bits, and leave each
    # stream where the reference leaves it, whatever the block length and
    # the streams alongside
    if block_steps is not None:
        monkeypatch.setattr(ss.sampling, "BLOCK_STEPS", block_steps)
    rng = np.random.default_rng(31)
    seeds = [int(s) for s in rng.integers(0, 2**63, size=3)]

    def streams():
        return [reference_stream(s, WEIGHT_DOMAIN) for s in seeds]

    for n in range(1, 11):
        count = 1 + (n - 1) % 4
        mixing = rng.dirichlet(np.ones(count + 1))
        if n % 3 == 0:
            mixing[n % (count + 1)] = 0.0
        model = ss.birkhoff_model(n, mixing / mixing.sum(), tau=1e-12)
        for horizon in (1, 127, 128, 129, 300):
            refs, batch = streams(), streams()
            want = np.stack([
                [reference_weight_matrix(model, g) for _ in range(horizon)]
                for g in refs
            ])
            got = kernel_weight_draws(model, batch, horizon)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (n, horizon)
            assert [g.random() for g in batch] == [g.random() for g in refs]


def test_switching_model_mean_and_steps():
    wa, wb = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
    model = ss.switching_model([wa, wb], window=1)
    np.testing.assert_allclose(ss.mean_matrix(model), (wa + wb) / 2)
    np.testing.assert_array_equal(step_mean_matrices(model), [wa, wb])
    # run_chunk steps with support[k % period]: the swap at steps 1 and 3,
    # the identity at step 2.  One-hot estimates send themselves, and the
    # step sizes are 1/k
    cfg = ss.ExperimentConfig(
        n_agents=2, n_opinions=2, horizon=3, replications=1, master_seed=0,
        initial_samples=(1, 2), weight_model=model,
        b=1.0, policy=ss.SamplingPolicy("direct"),
        schedule=ss.StepSchedule(1.0, 1.0, 0), stride="all",
    )
    snapshots = ss.run_chunk(cfg, [(0, 7)]).snapshots[0]
    np.testing.assert_array_equal(snapshots[1], wb)
    np.testing.assert_array_equal(snapshots[2], wb)
    np.testing.assert_allclose(snapshots[3], [[1 / 3, 2 / 3], [2 / 3, 1 / 3]])


def test_empty_support_rejected():
    with pytest.raises(ValueError, match="empty support"):
        ss.WeightMatrixModel("fixed", 2, support=())


def test_non_doubly_stochastic_support_rejected():
    with pytest.raises(ValueError, match="A2"):
        ss.fixed_model(np.array([[0.9, 0.1], [0.2, 0.8]]))


def test_tau_bound_enforced():
    w = np.array([[1 - 1e-8, 1e-8], [1e-8, 1 - 1e-8]])
    with pytest.raises(ValueError, match="tau"):
        ss.fixed_model(w, tau=1e-6)
    ss.fixed_model(w, tau=1e-9)  # loose bound accepts it


def test_column_stochasticity_identities():
    model = ss.birkhoff_model(4, (0.25, 0.5, 0.25))
    wbar = ss.mean_matrix(model)
    ones = np.ones(4)
    for w in kernel_weight_draws(model, [reference_stream(5, 0)], 200)[0]:
        assert np.abs(ones @ (w - np.eye(4))).max() <= 1e-12
        assert np.abs(ones @ (w - wbar)).max() <= 1e-12


def test_strongly_connected_complete():
    for n in (1, 2, 4, 7):
        assert ss.strongly_connected(ss.topology(ss.metropolis_complete(n)))


def test_strongly_connected_one_way_edge():
    adj = np.array([[True, True], [False, True]])  # agent 1 never hears back
    assert not ss.strongly_connected(adj)


def test_strongly_connected_directed_ring():
    n = 5
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i, (i + 1) % n] = True
    assert ss.strongly_connected(adj)
    assert strongly_connected_bruteforce(adj)


def test_strongly_connected_matches_bruteforce_exhaustive_n3():
    n = 3
    off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product([False, True], repeat=len(off_diag)):
        adj = np.eye(n, dtype=bool)
        for (i, j), bit in zip(off_diag, bits):
            adj[i, j] = bit
        assert ss.strongly_connected(adj) == strongly_connected_bruteforce(adj)


def test_strongly_connected_matches_bruteforce_random():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(2, 6))
        adj = rng.random((n, n)) < rng.uniform(0.1, 0.9)
        assert ss.strongly_connected(adj) == strongly_connected_bruteforce(adj)


def test_jointly_connected_fixed_uniform():
    model = ss.fixed_model(ss.metropolis_complete(3), window=0)
    assert ss.jointly_connected(model)


def test_jointly_connected_identity_never():
    for window in (0, 1, 5):
        model = ss.fixed_model(np.eye(3), window=window)
        assert not ss.jointly_connected(model)


def test_jointly_connected_needs_window():
    # neither the identity nor the swap connects alone at every offset, but
    # their union over any two consecutive steps does
    wa = np.eye(2)
    wb = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert not ss.jointly_connected(ss.switching_model([wa, wb], window=0))
    assert ss.jointly_connected(ss.switching_model([wa, wb], window=1))


def test_union_window_connected_single_direction_matrices():
    # row-stochastic one-way matrices: only together do they connect
    forward = np.array([[1.0, 0.0], [1.0, 0.0]])   # agent 2 listens to agent 1
    backward = np.array([[0.0, 1.0], [0.0, 1.0]])  # agent 1 listens to agent 2
    assert not ss.union_window_connected([forward, backward], window=0)
    assert ss.union_window_connected([forward, backward], window=1)


def test_spectral_gap_uniform():
    assert ss.spectral_gap(ss.metropolis_complete(4)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_gap_identity():
    assert ss.spectral_gap(np.eye(3)) == pytest.approx(0.0, abs=1e-12)


def test_spectral_gap_two_agent():
    w = np.array([[0.75, 0.25], [0.25, 0.75]])
    assert ss.spectral_gap(w) == pytest.approx(0.5, abs=1e-12)


def test_spectral_gap_matches_dense_eigensolver():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        w = random_doubly_stochastic(rng, n)
        sym = (w + w.T) / 2
        lam2 = np.sort(np.linalg.eigvals(sym).real)[-2]
        assert ss.spectral_gap(w) == pytest.approx(1 - lam2, abs=1e-10)


def test_sampled_matrices_always_doubly_stochastic(rng):
    for _ in range(30):
        n = int(rng.integers(2, 7))
        mats = [random_doubly_stochastic(rng, n) for _ in range(2)]
        model = ss.iid_model(mats, [0.3, 0.7], tau=1e-9)
        picks = iid_picks(model, [reference_stream(int(rng.integers(0, 2**62)), 1)], 50)
        for k in picks[:, 0]:
            assert ss.validate_doubly_stochastic(model.support[k])
