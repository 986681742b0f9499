import numpy as np
import pytest

import socsamp as ss

from oracles import empirical_distribution


def test_empirical_distribution_counts():
    # the network average of the one-hot initial state is the histogram
    np.testing.assert_allclose(
        ss.network_average(ss.initial_state([1, 1, 2, 3], 3)), [0.50, 0.25, 0.25]
    )


def test_empirical_distribution_single_agent():
    np.testing.assert_allclose(
        ss.network_average(ss.initial_state([2], 2)), [0.0, 1.0]
    )


def test_empirical_distribution_iid_draws_are_multiples():
    rng = np.random.default_rng(42)
    probs = np.array([0.2, 0.3, 0.4, 0.1])
    samples = [int(x) + 1 for x in rng.choice(4, size=50, p=probs)]
    hist = ss.network_average(ss.initial_state(samples, 4))
    assert hist.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(hist * 50, np.round(hist * 50), atol=1e-9)
    assert np.abs(hist - probs).max() < 0.25  # 50 draws land near the law


@pytest.mark.parametrize("bad", [[0, 1], [1, 4], [1, 2.5]])
def test_empirical_distribution_rejects_bad_samples(bad):
    with pytest.raises(ValueError, match="out of range"):
        ss.initial_state(bad, 3)


def test_initial_state_one_hot():
    st0 = ss.initial_state([2], 3)
    np.testing.assert_array_equal(st0, [[0.0, 1.0, 0.0]])


def test_initial_state_stacking_order():
    st0 = ss.initial_state([1, 3], 3)
    np.testing.assert_array_equal(st0.reshape(-1), [1, 0, 0, 0, 0, 1])


def test_initial_state_duplicate_samples():
    st0 = ss.initial_state([1, 1], 2)
    np.testing.assert_array_equal(st0, [[1.0, 0.0], [1.0, 0.0]])


def test_network_average_symmetry():
    st0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(ss.network_average(st0), [0.5, 0.5])


def test_network_average_single_agent_identity():
    st0 = np.array([[0.3, 0.7]])
    np.testing.assert_allclose(ss.network_average(st0), [0.3, 0.7])


def test_network_average_counting():
    st0 = ss.initial_state([1, 1, 2, 2], 2)
    np.testing.assert_allclose(ss.network_average(st0), [0.5, 0.5])


def test_network_average_equals_empirical_distribution():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 12))
        samples = [int(x) for x in rng.integers(1, m + 1, size=n)]
        np.testing.assert_array_equal(
            ss.network_average(ss.initial_state(samples, m)),
            empirical_distribution(samples, m),
        )


def test_consensus_error_zero_at_consensus():
    st0 = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert ss.consensus_error(st0, np.array([0.5, 0.5])) == 0.0


def test_consensus_error_hand_values():
    st0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert ss.consensus_error(st0, np.array([0.5, 0.5])) == pytest.approx(0.5)
    st1 = np.array([[0.6, 0.4]])
    assert ss.consensus_error(st1, np.array([0.5, 0.5])) == pytest.approx(0.1)
    # a batch gives one error per state, against a shared or a per-state target
    batch = np.stack([st0, np.array([[0.6, 0.4], [0.5, 0.5]])])
    np.testing.assert_allclose(ss.consensus_error(batch, np.array([0.5, 0.5])), [0.5, 0.1])
    np.testing.assert_allclose(
        ss.consensus_error(batch, np.array([[1.0, 0.0], [0.6, 0.4]])), [1.0, 0.1]
    )


def test_consensus_error_dimension_mismatch():
    st0 = np.array([[0.5, 0.5]])
    with pytest.raises(ValueError, match="does not match"):
        ss.consensus_error(st0, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="does not match"):
        ss.consensus_error(st0, np.array([[0.5, 0.5]]))  # one target per state


def test_state_is_read_only():
    state = ss.initial_state([1, 2], 2)
    with pytest.raises(ValueError):
        state[0, 0] = 5.0


def test_as_opinion_vector_checks_sum():
    ss.as_opinion_vector([0.5, 0.5])
    ss.as_opinion_vector([1.2, -0.2])  # negative components allowed
    with pytest.raises(ValueError, match="sum to 1"):
        ss.as_opinion_vector([0.5, 0.6])

