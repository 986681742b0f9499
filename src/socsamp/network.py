"""Random weight-matrix models, connectivity checks, and spectral utilities.

Edge convention: entry ``w[i, j] > 0`` means agent i receives from agent j.
All admissible weight matrices are doubly stochastic, which is what makes the
network average a conserved quantity under the protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sampling

DS_TOL = 1e-12

FIXED = "fixed"
IID = "iid-finite-support"
BIRKHOFF = "birkhoff-random"
SWITCHING = "switching-periodic"
KINDS = (FIXED, IID, BIRKHOFF, SWITCHING)


def validate_doubly_stochastic(w, tol=DS_TOL):
    """True iff ``w`` is nonnegative with unit row and column sums (within tol)."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("weight matrix must be square")
    if (w < 0).any():
        return False
    rows_ok = np.abs(w.sum(axis=1) - 1.0) <= tol
    cols_ok = np.abs(w.sum(axis=0) - 1.0) <= tol
    return bool(rows_ok.all() and cols_ok.all())


def metropolis_complete(n):
    """Equal weights on the complete graph with self-loops: all entries 1/n."""
    if n < 1:
        raise ValueError("need at least one agent")
    return np.full((n, n), 1.0 / n)


def _frozen(a):
    a = np.array(a, dtype=float, order="C")  # a copy: the caller's stays writeable
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class WeightMatrixModel:
    """Generator of the weight-matrix sequence and its exact mean.

    Kinds:

    * ``fixed``: the single support matrix at every step.
    * ``iid-finite-support``: each step draws one support matrix by the given
      probabilities, independently of everything else.
    * ``birkhoff-random``: each step returns ``mixing[0] * I`` plus
      ``mixing[r]`` times a fresh uniformly random permutation matrix for
      each remaining coefficient; always doubly stochastic by construction.
    * ``switching-periodic``: deterministic round-robin ``support[k % period]``
      (used for joint-connectivity experiments).

    ``tau`` lower-bounds the nonzero entries of every per-step mean matrix;
    ``window`` is the joint-connectivity horizon (union over ``window + 1``
    consecutive mean graphs).
    """

    kind: str
    n: int
    support: tuple = ()
    probabilities: tuple = ()
    mixing: tuple = ()
    tau: float = 1e-6
    window: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown weight model kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("model needs at least one agent")
        if self.window < 0:
            raise ValueError("window must be nonnegative")
        # a NaN fails every comparison, so each range check below refuses it
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        object.__setattr__(self, "support", tuple(_frozen(w) for w in self.support))
        object.__setattr__(
            self, "probabilities", tuple(float(p) for p in self.probabilities)
        )
        object.__setattr__(self, "mixing", tuple(float(c) for c in self.mixing))

        if self.kind in (FIXED, IID, SWITCHING):
            if not self.support:
                raise ValueError("empty support: no weight matrix to draw")
            for idx, w in enumerate(self.support):
                if w.shape != (self.n, self.n):
                    raise ValueError(
                        f"support matrix {idx} has shape {w.shape}, expected "
                        f"({self.n}, {self.n})"
                    )
                if not validate_doubly_stochastic(w):
                    raise ValueError(
                        f"A2 violated: support matrix {idx} is not doubly stochastic"
                    )
        if self.kind == FIXED and len(self.support) != 1:
            raise ValueError("fixed model takes exactly one support matrix")
        if self.kind == IID:
            if len(self.probabilities) != len(self.support):
                raise ValueError("need one probability per support matrix")
            if not all(0 <= p < math.inf for p in self.probabilities):
                raise ValueError(
                    "selection probabilities must be finite and nonnegative"
                )
            if abs(sum(self.probabilities) - 1.0) > DS_TOL:
                raise ValueError("selection probabilities must sum to 1")
        if self.kind == BIRKHOFF:
            if self.permutation_count < 1:
                raise ValueError("birkhoff model needs at least one permutation")
            if not all(0 <= c < math.inf for c in self.mixing):
                raise ValueError("mixing weights must be finite and nonnegative")
            if abs(sum(self.mixing) - 1.0) > DS_TOL:
                raise ValueError("mixing weights must sum to 1")

        # A2 lower bound tau applies to the nonzero entries of every
        # per-step mean matrix.
        for wbar in step_mean_matrices(self):
            nz = wbar[wbar > 0]
            if nz.size and nz.min() < self.tau:
                raise ValueError(
                    f"A2 violated: nonzero mean weight {nz.min():.3g} below "
                    f"tau = {self.tau:.3g}"
                )

    @property
    def permutation_count(self):
        """The birkhoff kind's permutations per step: one per mixing
        weight after the identity's."""
        return len(self.mixing) - 1


# The factories take the model's other fields, ``tau`` and ``window``, as
# keywords.
def fixed_model(w, **options):
    return WeightMatrixModel(FIXED, len(w), support=(w,), **options)


def iid_model(support, probabilities, **options):
    return WeightMatrixModel(
        IID, len(support[0]), support=support, probabilities=probabilities, **options
    )


def birkhoff_model(n, mixing, **options):
    return WeightMatrixModel(BIRKHOFF, n, mixing=mixing, **options)


def switching_model(support, **options):
    return WeightMatrixModel(SWITCHING, len(support[0]), support=support, **options)


def iid_picks(model, rngs, horizon):
    """The iid model's support index at each of ``horizon`` steps, per stream.

    Returns a ``(horizon, streams)`` array in the smallest unsigned type that
    holds every index: one ``rng.choice`` over the whole horizon per stream.
    """
    count = len(model.support)
    probs = np.asarray(model.probabilities)
    small = np.min_scalar_type(count - 1)
    return np.stack([
        rng.choice(count, size=horizon, p=probs).astype(small) for rng in rngs
    ], axis=1)


def birkhoff_permutation_blocks(model, rngs, horizon):
    """The birkhoff model's permutations for ``rngs``, streamed in blocks of steps.

    Yields integer arrays of shape ``(streams, steps, permutation_count, n)``,
    each holding the next ``sampling.BLOCK_STEPS`` steps (fewer in the last
    block) of the first ``horizon``.  Each stream's block is one
    ``rng.permuted`` call over rows of ``arange(n)``, which consumes the
    generator exactly as that many successive ``rng.permutation(n)`` calls
    do, so the draws and the stream position after them do not depend on the
    block length.
    """
    count, n = model.permutation_count, model.n
    template = np.arange(n, dtype=np.min_scalar_type(n - 1))
    for start in range(0, horizon, sampling.BLOCK_STEPS):
        steps = min(sampling.BLOCK_STEPS, horizon - start)
        block = np.empty((len(rngs), steps * count, n), dtype=template.dtype)
        rows = np.broadcast_to(template, block.shape[1:])
        for rng, out in zip(rngs, block):
            rng.permuted(rows, axis=1, out=out)
        yield block.reshape(len(rngs), steps, count, n)


def birkhoff_weights(model, perms, out=None):
    """Birkhoff weight matrices of a batch of permutation draws.

    ``perms`` has shape ``(..., permutation_count, n)``; row ``j`` of a draw
    is the permutation weighted by ``mixing[j + 1]``.  Returns the
    ``(..., n, n)`` matrices ``mixing[0] * I + sum_j mixing[j + 1] * P_j``
    with ``P_j[i, perms[j, i]] = 1``, in ``out`` (C-contiguous) when given.
    Every entry is summed in the order ``mixing[0], mixing[1], ...``, so a
    batch holds the bits of its draws built one at a time.
    """
    *lead, _, n = perms.shape
    w = np.empty((*lead, n, n)) if out is None else out
    w.fill(0.0)
    flat = w.reshape(-1)
    flat.reshape(-1, n * n)[:, :: n + 1] = model.mixing[0]
    # flat offset of each matrix row, one row of offsets per draw
    row_starts = np.arange(0, flat.size, n).reshape(-1, n)
    for j, c in enumerate(model.mixing[1:]):
        flat[row_starts + perms[..., j, :].reshape(-1, n)] += c
    return w


def mean_matrix(model):
    """Exact expectation of the sampled weight matrix.

    For the switching kind this is the average over one period; a uniformly
    random permutation has mean ``1/n`` in every entry, which gives the
    birkhoff mean in closed form.
    """
    if model.kind == FIXED:
        return model.support[0].copy()
    if model.kind == IID:
        out = np.zeros((model.n, model.n))
        for p, w in zip(model.probabilities, model.support):
            out += p * w
        return out
    if model.kind == SWITCHING:
        return sum(model.support) / len(model.support)
    c0 = model.mixing[0]
    return c0 * np.eye(model.n) + (1.0 - c0) * metropolis_complete(model.n)


def step_mean_matrices(model):
    """The per-step mean matrices of one period, step ``k``'s at index
    ``k % period``: a switching model's support, for every other kind its
    one mean."""
    if model.kind == SWITCHING:
        return list(model.support)
    return [mean_matrix(model)]


def topology(w, tol=0.0):
    """Boolean adjacency of a weight matrix: edges where the weight exceeds tol."""
    return np.asarray(w, dtype=float) > tol


def _reaches_all(adj, start):
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[start] = True
    frontier = [start]
    while frontier:
        nxt = adj[frontier].any(axis=0) & ~seen
        seen |= nxt
        frontier = np.flatnonzero(nxt).tolist()
    return bool(seen.all())


def strongly_connected(adj):
    """True iff every ordered pair of nodes is joined by a directed path."""
    a = np.asarray(adj, dtype=bool)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be square")
    if a.shape[0] == 1:
        return True
    return _reaches_all(a, 0) and _reaches_all(a.T, 0)


def union_window_connected(mean_mats, window):
    """Strong connectivity of the cyclic union over ``window + 1`` mean graphs."""
    mats = [np.asarray(w, dtype=float) for w in mean_mats]
    period = len(mats)
    for offset in range(period):
        acc = np.zeros_like(mats[0])
        for s in range(window + 1):
            acc = acc + mats[(offset + s) % period]
        if not strongly_connected(topology(acc)):
            return False
    return True


def jointly_connected(model):
    """True iff every window of mean graphs of length ``window + 1`` connects."""
    return union_window_connected(step_mean_matrices(model), model.window)


def spectral_gap(wbar):
    """``1 - lambda2`` of the symmetrized mean matrix.

    ``lambda2`` is the second-largest eigenvalue of ``(wbar + wbar.T) / 2``;
    the gap is positive iff the mean graph mixes.
    """
    w = np.asarray(wbar, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("weight matrix must be square")
    if w.shape[0] < 2:
        raise ValueError("spectral gap needs at least two agents")
    eigs = np.linalg.eigvalsh((w + w.T) / 2.0)
    return float(1.0 - eigs[-2])
