"""Class-conditioned label propagation in node space: CLP and its sender-only
variant CLP* on one weight form, classic label propagation, and analytic
convergence verification.

CLP weighs an arc (i, j) by ``F_ij = (b0[i] @ H) * b0[j]``, which has rank one
in each class: ``F_ij[k] = G[i, k] * R[j, k]`` with ``G = b0 @ H`` and ``R =
b0``.  CLP* drops the receiver factor, ``F_ij = G[i]``.  So neither needs the
(arcs x classes) weights: :class:`NodeWeights` keeps ``incoming = A^T`` in CSR
(row j lists j's senders in ascending order, each with the arc's scalar weight
``a_ij``, 1 in the pipeline), ``outgoing = G`` and ``receiving = R`` (None for
CLP*).  On (nodes x classes) beliefs B, one step in LinBP's matrix form
(Gatterbauer et al., VLDB 2015) is:

- unnormalized, ``R * (A^T (G * B))``, or ``A^T (G * B)`` for CLP*;
- normalized, with ``P = G * B``: the message of arc (i, j) is divided by its
  sum ``s_ij = a_ij <P[i], R[j]>`` where that is positive, which is ``R * (A_s
  P)`` with ``A_s`` the pattern of A^T holding ``a_ij / s_ij`` (``a_ij`` where
  ``s_ij`` is not positive).  The inner products ``<P[i], R[j]>`` of all arcs
  are one sparse product ``S @ P.ravel()``, with S made once per weights
  object: row (i, j) holds ``R[j, k]`` at column ``i*C + k``.  Each sum
  adds ``P[i, k] * R[j, k]`` over k ascending, from 0, and is then
  multiplied by ``a_ij``.  For CLP* the arc sum is ``a_ij`` times the row sum
  of P[i]; with the 0/1 arc weights of :func:`sender_weights`, dividing each
  row of P by its sum first and taking ``A^T P`` is that step exactly.

Class k's operator is ``W_k = diag(R[:, k]) A^T diag(G[:, k])``, with
``W_k[j, i] = G[i, k] * R[j, k] * a_ij``; the certificate steps every class
at once on the factors.

Against the arc-major form ``incidence @ (weights * beliefs[senders])`` on the
expanded weights, CLP* is bit-identical: a receiver adds its senders in the
order of A^T, and a row sum of P is numpy's sum of that arc's contiguous
messages.  CLP's step is not: taking R out of the receiver sum, adding an
arc's class terms one by one where numpy's row sum may group them, and
dividing ``a_ij`` instead of each message round differently, by a few units
in the last place, which leaves the chosen candidates and the reports as they
were.

The certificate proves, class by class, whether the unnormalized iteration
converges at alpha, that is whether ``rho(W_k) < 1/alpha``.  A class is
``certified`` when its Frobenius norm ``sqrt(sum_j R[j, k]**2 sum_i a_ij**2
G[i, k]**2)`` is below 1/alpha.  Otherwise the Collatz–Wielandt bound
``min_i (Mx)_i/x_i <= rho(M) <= max_i (Mx)_i/x_i`` for M >= 0 and x > 0
brackets rho(|W_k|) >= rho(W_k) on its live nodes (zero rows and their
columns dropped), with x from at most ``SPECTRAL_STEPS`` (300) unnormalized
steps on the absolute factors from x = 1.  Each bound is widened by the
relative margin ``(d + 2) * 2**-52``, with d the most arcs a live node
receives from live nodes: a computed ``(|W_k| x)_j / x_j`` takes one rounding
for each of ``|G| x``, ``* |a|``, the at most d - 1 additions, ``* |R|`` and
the ratio, d + 3 in all, against the 2(d + 2) units of 2**-53 in the margin.
The class is ``convergent`` when the upper bound is below 1/alpha,
``divergent`` when the lower bound is above it, and ``unproved`` otherwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .compatibility import Beliefs, CompatibilityMatrix
from .graph import Graph

DIVERGENCE_STREAK = 10  # consecutive residual increases that abort the iteration


class DivergenceError(RuntimeError):
    """Iterative propagation detected a growing residual."""

    def __init__(self, message: str, log=None):
        super().__init__(message)
        self.log = log or []


@dataclass(frozen=True)
class PropagationConfig:
    """Knobs of the fixed-point iteration.

    ``alpha`` weighs the neighbor aggregate against the teleport anchor;
    0 is admitted as the degenerate teleport-only case.
    """

    alpha: float
    max_iters: int = 50
    tol: float = 1e-9
    message_normalization: bool = False

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    residual: float


class NodeWeights:
    """Propagation weights as node-space factors (see the module docstring).

    Arc (i, j) is entry [j, i] of ``incoming`` (A^T in CSR, senders ascending
    in each row), whose value ``a_ij`` scales its weight ``outgoing[i] *
    receiving[j]``, or ``outgoing[i]`` when ``receiving`` is None (CLP*, whose
    normalized step is written for 0/1 arc weights).
    """

    def __init__(self, incoming: sparse.csr_matrix, outgoing: np.ndarray,
                 receiving: np.ndarray | None = None):
        n = incoming.shape[0]
        if incoming.shape != (n, n) or outgoing.shape[0] != n:
            raise ValueError(f"A^T {incoming.shape} and outgoing {outgoing.shape} disagree "
                             "on the number of nodes")
        if receiving is not None and receiving.shape != outgoing.shape:
            raise ValueError("outgoing and receiving factors differ in shape")
        self.incoming = incoming
        self.outgoing = outgoing
        self.receiving = receiving

    @property
    def num_classes(self) -> int:
        return self.outgoing.shape[1]

    @cached_property
    def receivers(self) -> np.ndarray:
        """The receiver of each arc, in the order of ``incoming``."""
        a = self.incoming
        return np.repeat(np.arange(a.shape[0], dtype=a.indices.dtype), np.diff(a.indptr))

    @property
    def arcs(self) -> np.ndarray:
        """The (sender, receiver) pairs, in the order of ``incoming``: stable by receiver."""
        return np.column_stack([self.incoming.indices, self.receivers])

    @cached_property
    def _arc_sums(self) -> sparse.csr_matrix:
        """The (arcs x nodes*classes) operator S of the normalized CLP step:
        ``(S @ P.ravel())[arc]`` is ``<P[i], R[j]>`` for arc (i, j), in the
        order of ``incoming``.  An arc's row holds ``receiving[j, k]`` at
        column ``i*C + k``, k ascending.  Its indices are built in the type
        scipy would choose, int32 while every index and the entry count fit,
        so scipy makes no narrowing copy of them."""
        a, c = self.incoming, self.num_classes
        index = np.int32 if max(a.nnz, a.shape[1]) * c <= np.iinfo(np.int32).max else np.int64
        columns = np.add.outer(a.indices.astype(index) * c, np.arange(c, dtype=index))
        return sparse.csr_matrix(
            (self.receiving[self.receivers].ravel(), columns.ravel(),
             np.arange(0, a.nnz * c + 1, c, dtype=index)),
            shape=(a.nnz, a.shape[1] * c))


def _outgoing(graph: Graph, b0: Beliefs, h_hat: CompatibilityMatrix) -> np.ndarray:
    """``b0 @ H``, in [0, 1]: b0 rows are distributions, H entries lie in [0, 1]."""
    if b0.values.shape != (graph.node_count, h_hat.num_classes):
        raise ValueError(f"beliefs {b0.values.shape} do not match {graph.node_count} nodes "
                         f"x {h_hat.num_classes} classes")
    return b0.values @ h_hat.values


def edge_weights(graph: Graph, b0: Beliefs, h_hat: CompatibilityMatrix) -> NodeWeights:
    """The CLP weights: arc (i, j) weighs ``(b0[i] @ H) * b0[j]``."""
    return NodeWeights(graph.adjacency.T.tocsr(), _outgoing(graph, b0, h_hat), b0.values)


def sender_weights(graph: Graph, b0: Beliefs, h_hat: CompatibilityMatrix) -> NodeWeights:
    """The CLP* weights: arc (i, j) weighs ``b0[i] @ H``."""
    return NodeWeights(graph.adjacency.T.tocsr(), _outgoing(graph, b0, h_hat))


def _step(weights: NodeWeights, normalize: bool):
    """One aggregation step on (nodes x classes) beliefs, for CLP or, without
    ``receiving``, CLP*.  The normalized CLP step takes every arc's ``<P[i],
    R[j]>`` from the cached operator of the weights in one sparse product,
    which adds the class terms in ascending order as a loop over k would; the
    buffer of ``A_s`` is made here, per call, and dies with the step."""
    a, g, r = weights.incoming, weights.outgoing, weights.receiving
    if r is None:
        def sender_only(b: np.ndarray) -> np.ndarray:
            p = g * b
            if normalize:
                sums = p.sum(axis=1)
                sums[~(sums > 0)] = 1.0  # rows that do not sum above zero stay as they are
                p /= sums[:, None]
            return a @ p

        return sender_only
    if not normalize:
        return lambda b: r * (a @ (g * b))
    arc_sums = weights._arc_sums
    scaled = sparse.csr_matrix((np.empty(a.nnz), a.indices, a.indptr), shape=a.shape)

    def normalized(b: np.ndarray) -> np.ndarray:
        p = g * b
        sums = arc_sums @ p.ravel()
        sums *= a.data
        sums[~(sums > 0)] = 1.0  # arcs whose messages do not sum above zero stay as they are
        np.divide(a.data, sums, out=scaled.data)
        out = scaled @ p
        out *= r
        return out

    return normalized


def _iterate(step, teleport: np.ndarray, config: PropagationConfig):
    """Shared fixed-point loop with residual logging and divergence detection.

    ``step`` must return a fresh array, which becomes the next iterate in
    place: ``step(b) * alpha + anchor`` has the bits of ``anchor + alpha *
    step(b)``, since IEEE products and sums commute."""
    alpha = config.alpha
    anchor = (1.0 - alpha) * teleport
    b = teleport.copy()
    diff = np.empty(teleport.shape)
    log: list[IterationRecord] = []
    prev_res = math.inf
    streak = 0
    for it in range(1, config.max_iters + 1):
        new_b = step(b)
        new_b *= alpha
        new_b += anchor
        np.subtract(new_b, b, out=diff)
        res = float(np.abs(diff, out=diff).max()) if b.size else 0.0
        log.append(IterationRecord(it, res))
        b = new_b
        if res < config.tol:
            break
        streak = streak + 1 if res > prev_res else 0
        prev_res = res
        if streak >= DIVERGENCE_STREAK:
            raise DivergenceError(
                f"residual grew for {DIVERGENCE_STREAK} consecutive iterations "
                f"(last {res:.3g} at iteration {it})",
                log,
            )
    return b, log


def propagate_clp(
    awf: NodeWeights,
    teleport: Beliefs,
    config: PropagationConfig,
) -> tuple[Beliefs, list[IterationRecord]]:
    """Iterate beliefs <- (1-alpha) teleport + alpha (weighted aggregate).

    Starts from the teleport beliefs and stops when the max entrywise change
    drops below ``config.tol`` or the iteration budget runs out.  Raises
    :class:`DivergenceError` when the residual grows persistently.
    """
    if teleport.values.shape != awf.outgoing.shape:
        raise ValueError("teleport shape does not match the weights")
    values, log = _iterate(_step(awf, config.message_normalization), teleport.values, config)
    return Beliefs(values, "propagated"), log


def propagate_clp_star(
    weights: NodeWeights,
    teleport: Beliefs,
    config: PropagationConfig,
) -> tuple[Beliefs, list[IterationRecord]]:
    """:func:`propagate_clp` on the sender-only weights of
    :func:`sender_weights`, under a name of its own, so that a run's CLP* calls
    can be told from its CLP calls."""
    return propagate_clp(weights, teleport, config)


def lp_operator(graph: Graph) -> sparse.csr_matrix:
    """The symmetric degree-normalized adjacency ``D^-1/2 (A | A^T) D^-1/2``,
    built on the 0/1 pattern: entry (i, j) is ``d_i^-1/2 * d_j^-1/2``."""
    pattern = graph.neighborhood
    deg = graph.degrees()
    inv_sqrt = np.zeros(deg.shape)
    np.divide(1.0, np.sqrt(deg), out=inv_sqrt, where=deg > 0)
    row_factor = np.repeat(inv_sqrt, deg)
    return sparse.csr_matrix((row_factor * inv_sqrt[pattern.indices], pattern.indices,
                              pattern.indptr), shape=pattern.shape)


def propagate_lp(
    operator: sparse.csr_matrix,
    teleport: np.ndarray,
    config: PropagationConfig,
) -> tuple[Beliefs, list[IterationRecord]]:
    """Classic label propagation over :func:`lp_operator`.

    The teleport is the one-hot training labels (zero rows elsewhere) and the
    compatibility is implicitly the identity.  Nodes that remain at an
    all-zero row (unreachable from every training node) are reported uniform
    with a warning.
    """
    values, log = _iterate(lambda b: operator @ b, teleport, config)
    zero_rows = values.sum(axis=1) <= 0
    if zero_rows.any():
        warnings.warn(
            f"{int(zero_rows.sum())} nodes are unreachable from the training set; "
            "predicting uniform beliefs there"
        )
        values = values.copy()
        values[zero_rows] = 1.0 / teleport.shape[1]
    return Beliefs(values, "propagated"), log


SPECTRAL_STEPS = 300  # power steps of the Collatz–Wielandt bracket before it gives up


def spectral_radius(weights: NodeWeights, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Collatz–Wielandt brackets ``(lower, upper)`` of ``rho(W_k)``, one entry
    per class (Horn & Johnson, *Matrix Analysis*, section 8.1).

    Per class, nodes whose row of |W_k| has no positive entry in a live column
    are dropped with their columns until none is left: such a row only adds
    the eigenvalue 0.  No live node gives ``(0, 0)``.  Each step takes ``x <-
    |W_k|x / max + 1e-12`` on the live nodes (the shift keeps x positive on
    reducible matrices); a class's bounds freeze at the step where they exclude
    ``threshold``, or after ``SPECTRAL_STEPS`` steps.  ``lower`` is 0 for a
    class with a negative entry in its column of G or R, or with a negative arc
    weight, which covers every W_k with a negative entry; the pipeline's
    factors are nonnegative.
    """
    a, g, r = weights.incoming, weights.outgoing, weights.receiving
    step = _step(NodeWeights(abs(a), np.abs(g), None if r is None else np.abs(r)), False)
    live = np.ones(g.shape, dtype=bool)
    while not (keep := step(live) > 0)[live].all():
        live &= keep
    pattern = sparse.csr_matrix((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape)
    degree = np.max(pattern @ live, axis=0, where=live, initial=0.0)
    margin = (degree + 2) * 2.0**-52
    nonneg = (g >= 0).all(axis=0) & (a.data >= 0).all()
    if r is not None:
        nonneg &= (r >= 0).all(axis=0)
    lower, upper = np.zeros(g.shape[1]), np.zeros(g.shape[1])
    open_ = live.any(axis=0)
    x = live.astype(np.float64)
    for _ in range(SPECTRAL_STEPS):
        if not open_.any():
            break
        y = step(x)
        ratios = np.divide(y, x, out=np.zeros_like(y), where=live)
        least = np.min(ratios, axis=0, where=live, initial=np.inf) * (1.0 - margin)
        lower[open_] = np.where(nonneg, least, 0.0)[open_]
        upper[open_] = (np.max(ratios, axis=0, where=live, initial=0.0) * (1.0 + margin))[open_]
        open_ &= (lower <= threshold) & (threshold <= upper)
        x = np.divide(y, np.max(y, axis=0, where=live, initial=0.0),
                      out=np.zeros_like(y), where=live)
        x[live] += 1e-12
    return lower, upper


@dataclass(frozen=True)
class ClassConvergence:
    """Per-class convergence verdict for a given alpha.  ``status`` is
    ``certified`` (the Frobenius norm is below 1/alpha; no bracket ran, and
    ``lower``/``upper`` are None), ``convergent`` (the Collatz–Wielandt upper
    bound, widened by its rounding margin, is below 1/alpha), ``divergent``
    (the widened lower bound is above it) or ``unproved`` (the bracket still
    holds 1/alpha after ``SPECTRAL_STEPS`` steps, or has no lower bound)."""

    class_index: int
    status: str  # certified | convergent | divergent | unproved
    frobenius: float
    lower: float | None = None
    upper: float | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("certified", "convergent")


def convergence_check(weights: NodeWeights, alpha: float) -> list[ClassConvergence]:
    """Verdict per class: does the fixed-point iteration converge at this alpha?

    A class whose Frobenius norm is below 1/alpha is certified.  The others
    get their bracket ``[lower, upper]`` from one :func:`spectral_radius` call
    on their columns of the factors: convergent when ``upper < 1/alpha``,
    divergent when ``lower > 1/alpha`` and unproved otherwise.  Each verdict
    is a proof about the unnormalized operator.  Every call recomputes the
    norms: the pipeline certifies only the chosen candidate's alpha, once per
    seed.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    threshold = math.inf if alpha == 0.0 else 1.0 / alpha
    a, g, r = weights.incoming, weights.outgoing, weights.receiving
    squares = a.power(2) @ (g * g)
    if r is not None:
        squares *= r * r
    frobenius = np.sqrt(squares.sum(axis=0)).tolist()
    verdicts = [ClassConvergence(k, "certified", norm) for k, norm in enumerate(frobenius)]
    todo = [k for k, norm in enumerate(frobenius) if not norm < threshold]
    if todo:
        columns = NodeWeights(a, g[:, todo], None if r is None else r[:, todo])
        bounds = (b.tolist() for b in spectral_radius(columns, threshold))
        for k, lower, upper in zip(todo, *bounds):
            status = ("convergent" if upper < threshold
                      else "divergent" if lower > threshold else "unproved")
            verdicts[k] = ClassConvergence(k, status, frobenius[k], lower, upper)
    return verdicts
