"""Class-conditioned label propagation: per-edge weight tensors, iterative and
closed-form solvers, the sender-only variant in node space, classic label
propagation, and analytic convergence verification.

CLP weighs an arc by ``F_ij = (b0[i] @ H) * b0[j]``.  An
:class:`EdgeWeightTensor` lists its arcs in one order, stably by receiver, and
stores its weights once, in the block-diagonal CSR matrix ``operator`` built by
its constructor: the weights stored class by class, and row ``k*n + j``
holding ``F_ij[k]`` at column ``k*n + i`` for each arc (i, j) into j.  Every
computation on the weights reads that matrix or its views on the tensor, and
every per-arc array it returns is in that arc order.  Beliefs are flat
class-major vectors inside the solver.

- The unnormalized step is one CSR mat-vec with ``operator``.
- The normalized step gathers the sender beliefs, multiplies them by
  ``class_weights``, divides each arc's messages by their sum where it is
  positive, and sums each receiver's messages through the same row pointer.
- Class k's block of ``operator`` is the receiver-row matrix ``slice_k[j, i]
  = F_ij[k]``, a view in ``per_class`` that serves the closed-form solver and
  the convergence certificate.

Each receiver sums its arcs in arc order, and an arc's class sum repeats
numpy's order for ``ndarray.sum(axis=1)``, so every result is bit-identical
to the arc-major form ``incidence @ (weights * beliefs[senders])``.

The sender-only variant CLP* drops the receiver factor, ``F_ij = b0[i] @ H``,
so it needs no edge tensor: :class:`SenderWeights` keeps ``incoming = A^T`` and
``outgoing = b0 @ H``, and a step is ``A^T (outgoing * B)`` on (nodes x
classes) beliefs (LinBP's matrix form, Gatterbauer et al., VLDB 2015).  It is
bit-identical to CLP on the tensor of those weights: each receiver adds its
senders in the CSR order of A^T, which is the tensor's arc order, and the
class sums of the contiguous messages are the ones ``_class_sums`` repeats.

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

_WEIGHT_SLACK = 1e-12


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


class EdgeWeightTensor:
    """Per-arc, per-class propagation weights.

    The caller's ``arcs[a] = (i, j)`` carries the weight vector ``weights[a] =
    F_ij``; the arcs are distinct, and all entries are products of
    probabilities and lie in [0, 1].  The tensor keeps one arc order, stable
    by receiver: ``self.arcs``, the rows of ``weights`` (a new array on each
    access) and the columns of ``class_weights`` follow it.  The weights are
    stored once, as the block-diagonal ``operator`` of the module docstring;
    ``class_weights`` is a view of ``operator.data`` and ``senders`` one of
    class 0's column indices, and all three are read-only.
    """

    def __init__(self, arcs: np.ndarray, weights: np.ndarray, node_count: int):
        weights = np.asarray(weights, dtype=np.float64)
        if arcs.shape != (weights.shape[0], 2):
            raise ValueError("arcs and weights disagree on the number of arcs")
        if arcs.size and (arcs.min() < 0 or arcs.max() >= node_count):
            raise ValueError(f"arc endpoints must lie in [0, {node_count})")
        if weights.size and (weights.min() < -_WEIGHT_SLACK or weights.max() > 1 + _WEIGHT_SLACK):
            raise ValueError("edge weights must lie in [0, 1]")
        order = np.argsort(arcs[:, 1], kind="stable")
        self.arcs = arcs[order]
        self.node_count = node_count
        n, (m, c) = node_count, weights.shape
        # scipy keeps int32 index arrays as they are; int64 ones it copies down when they fit
        index_type = np.int32 if c * max(n, m) <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(c * n + 1, dtype=index_type)
        np.cumsum(np.tile(np.bincount(arcs[:, 1], minlength=n), c), out=indptr[1:])
        senders = self.arcs[:, 0].astype(index_type)
        indices = (np.arange(c, dtype=index_type)[:, None] * n + senders).ravel()
        data = np.empty((c, m))
        for k in range(c):  # class by class: no (arcs x classes) copy in arc order
            np.take(weights[:, k], order, out=data[k])
        self.operator = sparse.csr_matrix((data.ravel(), indices, indptr), shape=(c * n, c * n))
        for array in (self.operator.data, self.operator.indices, self.operator.indptr):
            array.flags.writeable = False
        self.class_weights = self.operator.data.reshape(c, m)
        self.senders = self.operator.indices[:m]

    @property
    def num_classes(self) -> int:
        return self.class_weights.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """The (arcs x classes) weights in the order of ``arcs``, a new array."""
        return self.class_weights.T.copy()

    @cached_property
    def per_class(self) -> tuple[sparse.csr_matrix, ...]:
        """Receiver-row weight slices, views of the tensor: class k's block of
        ``operator``.  Explicit zeros keep the shared pattern."""
        n = self.node_count
        slices = []
        for row in self.class_weights:
            # assigned, not passed: the constructor copies a slice of a much larger array
            slice_k = sparse.csr_matrix((n, n))
            slice_k.data = row
            slice_k.indices = self.senders
            slice_k.indptr = self.operator.indptr[:n + 1]
            slices.append(slice_k)
        return tuple(slices)


def _outgoing(graph: Graph, b0: Beliefs, h_hat: CompatibilityMatrix) -> np.ndarray:
    """``b0 @ H``, in [0, 1]: b0 rows are distributions, H entries lie in [0, 1]."""
    if b0.values.shape != (graph.node_count, h_hat.num_classes):
        raise ValueError(f"beliefs {b0.values.shape} do not match {graph.node_count} nodes "
                         f"x {h_hat.num_classes} classes")
    return b0.values @ h_hat.values


def edge_weights(graph: Graph, b0: Beliefs, h_hat: CompatibilityMatrix) -> EdgeWeightTensor:
    """The CLP weight vector of each arc (i, j), ``(b0[i] @ H) * b0[j]``."""
    weights = _outgoing(graph, b0, h_hat)[graph.arcs[:, 0]]
    weights *= b0.values[graph.arcs[:, 1]]
    return EdgeWeightTensor(graph.arcs, weights, graph.node_count)


class SenderWeights:
    """The CLP* weights in node space, computed once from the prior beliefs:
    arc (i, j) weighs ``outgoing[i] = (b0 @ H)[i]``, and row j of ``incoming``
    (A^T in CSR) lists j's senders in the arc order of an edge tensor."""

    def __init__(self, graph: Graph, b0: Beliefs, h_hat: CompatibilityMatrix):
        self.outgoing = _outgoing(graph, b0, h_hat)
        self.incoming = graph.adjacency.T.tocsr()

    @property
    def per_class(self) -> tuple[sparse.csr_matrix, ...]:
        """Receiver-row weight slices, built on each access: ``incoming`` with
        class k's sender weights as data, explicit zeros included."""
        a = self.incoming
        return tuple(sparse.csr_matrix((column[a.indices], a.indices, a.indptr), shape=a.shape)
                     for column in self.outgoing.T)


def _class_sums(rows: np.ndarray) -> np.ndarray:
    """Column sums of class-major ``rows`` (classes x arcs): the values of
    ``rows.T.sum(axis=1)``, added in numpy's order for a contiguous row.

    numpy sums a row of fewer than 8 entries sequentially, up to 128 entries
    with 8 accumulators (entry i goes to accumulator i mod 8, the leftover
    entries after the last full group of 8 are added in order at the end),
    and longer rows as two halves whose split is a multiple of 8.
    """
    c, m = rows.shape
    if c < 8:
        total = np.zeros(m)
        for row in rows:
            total += row
        return total
    if c <= 128:
        tail = c - c % 8
        acc = rows[:8] if tail == 8 else rows[:8] + rows[8:16]
        for i in range(16, tail, 8):
            acc += rows[i:i + 8]
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), in place where possible
        total = acc[0] + acc[1]
        pair = acc[2] + acc[3]
        total += pair
        right = acc[4] + acc[5]
        np.add(acc[6], acc[7], out=pair)
        right += pair
        total += right
        for row in rows[tail:]:
            total += row
        return total
    half = c // 2 - (c // 2) % 8
    return _class_sums(rows[:half]) + _class_sums(rows[half:])


def _messages(
    awf: EdgeWeightTensor, beliefs: np.ndarray, out: np.ndarray, normalize: bool
) -> np.ndarray:
    """Write the messages ``F_ij[k] * beliefs[k, i]`` of every arc of ``awf``
    into ``out`` (classes x arcs), optionally divided by their class sum where
    that sum is positive; ``beliefs`` is class-major (classes x nodes)."""
    # senders are validated node ids, so "clip" never clips; it only avoids
    # the buffered copy that "raise" makes of ``out``
    np.take(beliefs, awf.senders, axis=1, out=out, mode="clip")
    out *= awf.class_weights
    if normalize:
        sums = _class_sums(out)
        # arcs whose messages do not sum above zero are divided by 1.0, which leaves them as they are
        sums[~(sums > 0)] = 1.0
        out /= sums
    return out


def compute_messages(awf: EdgeWeightTensor, b: Beliefs, normalize: bool = False) -> np.ndarray:
    """Per-arc messages F_ij * B_i (arcs x classes) in the order of
    ``awf.arcs``, optionally normalized to unit sum.

    Messages that do not sum above zero are left as they are.
    """
    if b.values.shape != (awf.node_count, awf.num_classes):
        raise ValueError("beliefs shape does not match the edge weight tensor")
    return _messages(awf, b.values.T, np.empty(awf.class_weights.shape), normalize).T


def _normalized_step(awf: EdgeWeightTensor):
    """The normalized-message step on flat class-major beliefs, for one call.

    The message buffer is the data of a CSR matrix over the pattern of
    ``awf.operator``, so the receiver sums are that matrix times ones.
    Buffer and matrix are made here, per call, and die with the step.
    """
    operator = awf.operator
    segments = sparse.csr_matrix(
        (np.empty(operator.nnz), operator.indices, operator.indptr), shape=operator.shape
    )
    msgs = segments.data.reshape(awf.class_weights.shape)
    ones = np.ones(operator.shape[1])

    def step(b: np.ndarray) -> np.ndarray:
        _messages(awf, b.reshape(msgs.shape[0], awf.node_count), msgs, normalize=True)
        return segments @ ones

    return step


def _iterate(step, teleport: np.ndarray, config: PropagationConfig):
    """Shared fixed-point loop with residual logging and divergence detection."""
    alpha = config.alpha
    anchor = (1.0 - alpha) * teleport
    b = teleport.copy()
    log: list[IterationRecord] = []
    prev_res = math.inf
    streak = 0
    for it in range(1, config.max_iters + 1):
        new_b = anchor + alpha * step(b)
        res = float(np.abs(new_b - b).max()) if b.size else 0.0
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
    awf: EdgeWeightTensor,
    teleport: Beliefs,
    config: PropagationConfig,
) -> tuple[Beliefs, list[IterationRecord]]:
    """Iterate beliefs <- (1-alpha) teleport + alpha (weighted aggregate).

    Starts from the teleport beliefs and stops when the max entrywise change
    drops below ``config.tol`` or the iteration budget runs out.  Raises
    :class:`DivergenceError` when the residual grows persistently.
    """
    if teleport.values.shape != (awf.node_count, awf.num_classes):
        raise ValueError("teleport shape does not match the edge weight tensor")
    step = _normalized_step(awf) if config.message_normalization else awf.operator.dot
    flat, log = _iterate(step, teleport.values.T.ravel(), config)
    values = np.ascontiguousarray(flat.reshape(teleport.values.T.shape).T)
    return Beliefs(values, "propagated"), log


def propagate_clp_star(
    weights: SenderWeights,
    teleport: Beliefs,
    config: PropagationConfig,
) -> tuple[Beliefs, list[IterationRecord]]:
    """Sender-only propagation in node space, bit-identical to
    :func:`propagate_clp` on the tensor of the same weights."""
    if teleport.values.shape != weights.outgoing.shape:
        raise ValueError("teleport shape does not match the sender weights")

    def step(b: np.ndarray) -> np.ndarray:
        messages = weights.outgoing * b
        if config.message_normalization:
            sums = messages.sum(axis=1)
            sums[~(sums > 0)] = 1.0  # rows that do not sum above zero stay as they are
            messages /= sums[:, None]
        return weights.incoming @ messages

    values, log = _iterate(step, teleport.values, config)
    return Beliefs(values, "propagated"), log


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
    ``m`` has a negative entry, which ``_WEIGHT_SLACK`` admits down to -1e-12.
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
