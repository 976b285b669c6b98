"""The four loss terms of GCMAE (paper Eqs. 8, 11, 14-20).

* :func:`sce_loss` — scaled cosine error for masked-feature reconstruction
  (Eq. 11, inherited from GraphMAE).
* :func:`info_nce` — the symmetric InfoNCE contrastive loss over projected
  views (Eqs. 14-15).
* :func:`adjacency_reconstruction_loss` — MSE + BCE + relative-distance over
  the *entire* reconstructed adjacency (Eqs. 16-19), the paper's answer to
  "how to learn the entire graph structure".
* :func:`discrimination_loss` — the variance-based discrimination term
  (Eq. 20), which combats feature smoothing.

Two clarifications of ambiguous paper notation, recorded here and in
DESIGN.md:

1. Eq. 18 calls ``D`` a "distance" but minimising ``-log(sum_edges D /
   sum_nonedges D)`` only makes sense when ``D`` grows with *similarity*
   (the text explains the term as "a proxy task of evaluating node
   similarity").  We use ``D(z_i, z_j) = exp(cos(z_i, z_j))``.
2. Eq. 20's ``sqrt(Var(h) + eps)`` is described as *increasing* embedding
   variance, so — as in VICReg, which the formulation mirrors — it enters
   the objective as a hinge ``mean(max(0, 1 - sqrt(Var_dim(h) + eps)))``
   that penalises per-dimension standard deviation falling below 1.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..graph.sparse import edge_codes, is_edge
from ..nn import functional as F
from ..nn.tensor import Tensor


def sce_loss(
    reconstructed: Tensor,
    original: Tensor,
    masked_nodes: np.ndarray,
    gamma: float = 2.0,
) -> Tensor:
    """Scaled cosine error over the masked nodes (Eq. 11).

    ``(1 - cos(x_i, z_i))^gamma`` averaged over the masked node set;
    ``gamma > 1`` down-weights easy examples to speed convergence.
    """
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    masked_nodes = np.asarray(masked_nodes)
    if masked_nodes.size == 0:
        raise ValueError("sce_loss needs a non-empty masked node set")
    similarity = F.cosine_similarity(
        reconstructed[masked_nodes], original.detach()[masked_nodes]
    )
    return ((1.0 - similarity) ** gamma).mean()


def info_nce(
    projected_u: Tensor,
    projected_v: Tensor,
    temperature: float = 0.5,
) -> Tensor:
    """Symmetric InfoNCE over aligned views (Eqs. 14-15).

    Positives are the aligned rows ``(u_i, v_i)``; negatives are every other
    node in both the cross-view and intra-view similarity matrices, exactly
    as in GRACE and the paper's Eq. 14.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    n = projected_u.shape[0]
    if projected_v.shape[0] != n:
        raise ValueError("views must contain the same number of nodes")

    def one_direction(a: Tensor, b: Tensor) -> Tensor:
        cross = F.cosine_similarity_matrix(a, b) * (1.0 / temperature)
        intra = F.cosine_similarity_matrix(a, a) * (1.0 / temperature)
        # log-sum-exp over [cross, intra minus the self column].
        stacked_max = np.maximum(cross.data.max(axis=1), intra.data.max(axis=1))
        shift = Tensor(stacked_max[:, None])
        exp_cross = (cross - shift).exp()
        exp_intra = (intra - shift).exp()
        rows = np.arange(n)
        # Remove self-similarity from the intra-view negatives.
        self_mask = np.ones((n, n))
        self_mask[rows, rows] = 0.0
        denominator = exp_cross.sum(axis=1) + (exp_intra * Tensor(self_mask)).sum(axis=1)
        positive = cross[rows, rows] - shift.reshape(n)
        return -(positive - denominator.log()).mean()

    return (one_direction(projected_u, projected_v) + one_direction(projected_v, projected_u)) * 0.5


def _edge_logits(decoded: Tensor, pairs: np.ndarray) -> Tensor:
    """Inner products ``z_u . z_v`` for an ``(E, 2)`` array of node pairs."""
    return (decoded[pairs[:, 0]] * decoded[pairs[:, 1]]).sum(axis=1)


def sample_nonedges(
    adjacency: sp.spmatrix, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``count`` node pairs that are not edges (rejection sampling).

    Attempt ``i`` draws ``rng.integers(0, n, size=2)`` and keeps the pair
    unless it is a self pair or an edge; sampling stops at the ``count``-th
    kept pair or after ``count * 50`` attempts.  When nothing is kept
    (pathological density) one more draw picks an off-diagonal pair.

    The attempts are drawn in blocks: ``Generator.integers`` draws each
    element of a bounded block from the bit generator in turn (Lemire
    rejections and PCG64's cached 32-bit half included), so a block of
    ``k`` pairs is the stream of ``k`` per-pair draws.  Blocks run past the
    stopping attempt, so the generator is then rewound and advanced by
    exactly the attempts used, leaving it where per-pair sampling would.
    """
    n = adjacency.shape[0]
    codes = edge_codes(adjacency)
    cap = count * 50
    start_state = rng.bit_generator.state
    pairs = []
    drawn = have = 0
    while have < count and drawn < cap:
        block = rng.integers(0, n, size=(min(2 * (count - have) + 8, cap - drawn), 2))
        u, v = block[:, 0], block[:, 1]
        keep = np.flatnonzero((u != v) & ~is_edge(codes, n, u, v))[: count - have]
        pairs.append(block[keep])
        drawn += len(block)
        have += len(keep)
    # Attempts used: through the count-th kept pair, else the whole cap.
    attempts = drawn - len(block) + int(keep[-1]) + 1 if 0 < count == have else drawn
    rng.bit_generator.state = start_state
    rng.integers(0, n, size=(attempts, 2))
    if have == 0:  # pathological density: fall back to any off-diagonal pair
        u = int(rng.integers(0, n))
        return np.array([(u, (u + 1) % n)], dtype=np.int64)
    return np.concatenate(pairs)


def adjacency_reconstruction_loss(
    decoded: Tensor,
    adjacency: sp.spmatrix,
    rng: np.random.Generator,
    num_negative: Optional[int] = None,
    terms: tuple = ("mse", "bce", "dist"),
) -> Tensor:
    """Full adjacency reconstruction error ``L_E`` (Eqs. 16-19).

    ``A_hat = sigmoid(Z Z^T)`` is compared against the binary adjacency with
    MSE (Eq. 16) and BCE (Eq. 17) over all positive edges plus sampled
    non-edges, and the relative-distance term (Eq. 18) contrasts the total
    similarity mass on edges against non-edges.

    Sampling non-edges (instead of materialising the dense ``N x N`` error)
    keeps the loss *estimating the same quantity* while making the cost
    linear in the number of edges — the subsampling the paper alludes to in
    Section 4.4.

    ``terms`` selects which of the three sub-losses participate (used by the
    design-ablation bench); the default is the paper's full combination.
    """
    if not terms or any(t not in ("mse", "bce", "dist") for t in terms):
        raise ValueError(f"terms must be a non-empty subset of mse/bce/dist, got {terms}")
    csr = sp.csr_matrix(adjacency)
    edges = np.column_stack(sp.triu(csr, k=1).nonzero())
    if len(edges) == 0:
        raise ValueError("graph has no edges to reconstruct")
    num_negative = num_negative if num_negative is not None else len(edges)
    nonedges = sample_nonedges(adjacency, num_negative, rng)

    pos_logits = _edge_logits(decoded, edges)
    neg_logits = _edge_logits(decoded, nonedges)

    total: Optional[Tensor] = None

    def accumulate(term: Tensor) -> None:
        nonlocal total
        total = term if total is None else total + term

    if "mse" in terms:
        # Eq. 16: MSE between A_hat and A on the sampled entries.
        pos_probabilities = pos_logits.sigmoid()
        neg_probabilities = neg_logits.sigmoid()
        accumulate(
            ((pos_probabilities - 1.0) ** 2).mean() + (neg_probabilities ** 2).mean()
        )

    if "bce" in terms:
        # Eq. 17: BCE on the same entries (stable logits form).
        accumulate(
            F.binary_cross_entropy_with_logits(
                pos_logits, Tensor(np.ones(len(edges)))
            )
            + F.binary_cross_entropy_with_logits(
                neg_logits, Tensor(np.zeros(len(nonedges)))
            )
        )

    if "dist" in terms:
        # Eq. 18: relative-distance (similarity-ratio) term.
        pos_similarity = F.cosine_similarity(decoded[edges[:, 0]], decoded[edges[:, 1]])
        neg_similarity = F.cosine_similarity(
            decoded[nonedges[:, 0]], decoded[nonedges[:, 1]]
        )
        edge_mass = pos_similarity.exp().sum()
        nonedge_mass = neg_similarity.exp().sum()
        accumulate(-(edge_mass / (edge_mass + nonedge_mass)).log())

    assert total is not None
    return total


def discrimination_loss(hidden: Tensor, eps: float = 1e-4) -> Tensor:
    """Variance-hinge discrimination loss ``L_Var`` (Eq. 20).

    Penalises dimensions of the shared-encoder output whose standard
    deviation falls below 1, pushing node embeddings apart and preventing
    the feature-smoothing collapse of plain graph MAE.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    std = (hidden.var(axis=0) + eps) ** 0.5
    return (1.0 - std).relu().mean()
