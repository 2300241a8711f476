"""Class-conditioned label propagation in node space: CLP and its sender-only
variant CLP* on one weight form, classic label propagation, the closed-form
solver, and analytic convergence verification.

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

Class k's receiver-row slice ``slice_k[j, i] = G[i, k] * R[j, k] * a_ij``
(``per_class``) serves the closed-form solver and the convergence certificate.

Against the arc-major form ``incidence @ (weights * beliefs[senders])`` on the
expanded weights, CLP* and the certificate are bit-identical: a receiver adds
its senders in the order of A^T, a row sum of P is numpy's sum of that arc's
contiguous messages, and a slice's data is the single product ``G * R`` that
an arc weight is.  CLP's step is not: taking R out of the receiver sum,
adding an arc's class terms one by one where numpy's row sum may group
them, and dividing ``a_ij`` instead of each message round differently, by a
few units in the last place, which leaves the chosen candidates and the
reports as they were.

The certificate proves, class by class, whether the unnormalized iteration
converges at alpha, that is whether ``rho(slice_k) < 1/alpha``.  A class is
``certified`` when the Frobenius norm of its slice is below 1/alpha.
Otherwise the Collatz–Wielandt bound ``min_i (Mx)_i/x_i <= rho(M) <= max_i
(Mx)_i/x_i`` for M >= 0 and x > 0 brackets rho on the slice without its zero
rows, with x from at most ``SPECTRAL_STEPS`` (300) power steps from x = 1 and
each bound widened by the relative rounding margin ``(max row nnz + 2) *
2**-52``.  The class is ``convergent`` when the upper bound is below 1/alpha,
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
CLOSED_FORM_MAX_NODES = 5000


class DivergenceError(RuntimeError):
    """Iterative propagation detected a growing residual."""

    def __init__(self, message: str, log=None):
        super().__init__(message)
        self.log = log or []


class SingularSystemError(RuntimeError):
    """The closed-form linear system is singular."""


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

    @property
    def per_class(self) -> tuple[sparse.csr_matrix, ...]:
        """Receiver-row weight slices, built on each access: ``incoming`` with
        class k's arc weights as data, explicit zeros included."""
        a = self.incoming
        slices = []
        for k in range(self.num_classes):
            data = self.outgoing[a.indices, k]
            if self.receiving is not None:
                data *= self.receiving[self.receivers, k]
            data *= a.data
            slices.append(sparse.csr_matrix((data, a.indices, a.indptr), shape=a.shape))
        return tuple(slices)


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


def aggregate(weights: NodeWeights, beliefs: Beliefs, normalize: bool = False) -> np.ndarray:
    """The aggregate of one step (nodes x classes), without the teleport: each
    receiver's sum of its messages ``F_ij * beliefs[i]``, each message divided
    by its sum where that is positive when ``normalize``."""
    if beliefs.values.shape != weights.outgoing.shape:
        raise ValueError("beliefs shape does not match the weights")
    return _step(weights, normalize)(beliefs.values)


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
    """The symmetric degree-normalized adjacency ``D^-1/2 (A | A^T) D^-1/2``."""
    pattern = graph.neighborhood
    deg = np.asarray(pattern.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(deg)
    np.divide(1.0, np.sqrt(deg), out=inv_sqrt, where=deg > 0)
    d_half = sparse.diags(inv_sqrt)
    return (d_half @ pattern @ d_half).tocsr()


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


def closed_form_clp(
    awf_k: sparse.spmatrix | np.ndarray,
    teleport_k: np.ndarray,
    alpha: float,
    class_index: int | None = None,
) -> np.ndarray:
    """Exact per-class solution of (I - alpha W_k) x = (1 - alpha) d_k.

    Dense LU factorization; guarded to desk scale (n <= 5000).
    """
    dense = awf_k.toarray() if sparse.issparse(awf_k) else np.asarray(awf_k, dtype=np.float64)
    n = dense.shape[0]
    if dense.shape != (n, n):
        raise ValueError("per-class weight matrix must be square")
    if n > CLOSED_FORM_MAX_NODES:
        raise ValueError(
            f"closed-form solve is limited to {CLOSED_FORM_MAX_NODES} nodes (got {n}); "
            "use the iterative solver"
        )
    system = np.eye(n) - alpha * dense
    try:
        return np.linalg.solve(system, (1.0 - alpha) * np.asarray(teleport_k, dtype=np.float64))
    except np.linalg.LinAlgError as exc:
        which = f" for class {class_index}" if class_index is not None else ""
        raise SingularSystemError(f"singular propagation system{which}: {exc}") from exc


SPECTRAL_STEPS = 300  # power steps of the Collatz–Wielandt bracket before it gives up


def spectral_radius(m: sparse.spmatrix | np.ndarray, threshold: float) -> tuple[float, float]:
    """Collatz–Wielandt bracket ``(lower, upper)`` of the spectral radius of ``m``.

    For M >= 0 and x > 0, ``min_i (Mx)_i/x_i <= rho(M) <= max_i (Mx)_i/x_i``
    (Horn & Johnson, *Matrix Analysis*, section 8.1), and ``rho(m) <=
    rho(|m|)``.  The zero rows of ``|m|``, whose ratio would hold the lower
    bound at 0, are dropped with their columns until none is left (an empty
    rest is rho 0).  From x = 1, each step takes ``x <- |m|x / max + 1e-12``
    (the shift keeps x positive on reducible matrices) until the bracket
    excludes ``threshold`` or after ``SPECTRAL_STEPS`` steps.  Each bound is
    widened by the relative margin ``(max row nnz + 2) * 2**-52``, which
    covers the rounding of ``|m|x`` and of the ratios.  ``lower`` is 0 when
    ``m`` has a negative entry.
    """
    m = sparse.csr_matrix(m, dtype=np.float64)
    if m.shape[0] != m.shape[1]:
        raise ValueError("spectral radius requires a square matrix")
    nonneg = m.nnz == 0 or m.data.min() >= 0
    m = m if nonneg else abs(m)
    while not (live := m @ np.ones(m.shape[0]) > 0).all():
        m = m[live][:, live]  # a zero row, and its column, only add the eigenvalue 0
    if m.shape[0] == 0:
        return 0.0, 0.0
    margin = (int(np.diff(m.indptr).max()) + 2) * 2.0**-52
    x = np.ones(m.shape[0])
    for _ in range(SPECTRAL_STEPS):
        y = m @ x
        ratios = y / x
        lower = float(ratios.min()) * (1.0 - margin) if nonneg else 0.0
        upper = float(ratios.max()) * (1.0 + margin)
        if not lower <= threshold <= upper:
            break
        x = y / y.max() + 1e-12
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


def convergence_check(slices, alpha: float) -> list[ClassConvergence]:
    """Verdict per class: does the fixed-point iteration converge at this alpha?

    ``slices`` are the receiver-row class slices, ``per_class`` of the
    weights.  A class whose Frobenius norm is below 1/alpha is certified.  Any
    other gets the bracket ``[lower, upper]`` of its slice's spectral radius
    from :func:`spectral_radius` (zero rows dropped, at most
    ``SPECTRAL_STEPS`` power steps, each bound widened by the rounding margin
    ``(max row nnz + 2) * 2**-52``): it is convergent when ``upper <
    1/alpha``, divergent when ``lower > 1/alpha`` and unproved otherwise.
    Each verdict is a proof about the unnormalized operator.  Every call
    recomputes the norms: the pipeline certifies only the chosen candidate's
    alpha, once per seed.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    threshold = math.inf if alpha == 0.0 else 1.0 / alpha
    verdicts = []
    for k, slice_k in enumerate(slices):
        data = slice_k.data
        frobenius = float(np.sqrt(np.sum(data * data)))
        if frobenius < threshold:
            verdicts.append(ClassConvergence(k, "certified", frobenius))
            continue
        lower, upper = spectral_radius(slice_k, threshold)
        if upper < threshold:
            status = "convergent"
        elif lower > threshold:
            status = "divergent"
        else:
            status = "unproved"
        verdicts.append(ClassConvergence(k, status, frobenius, lower, upper))
    return verdicts
