"""Training objectives: reconstruction (neg-SNR) plus one of two
representation losses (anisotropic total variation, or an entropic-regularized
optimal-transport distance between the representation's time frames solved by
Sinkhorn-Knopp scaling).  The reconstruction term is capped at
``SNR_FLOOR_DB``.

The transport plan is held constant during backpropagation; gradients flow
only through the cost matrix and the simplex normalization that feeds it.  At
a converged plan that is the exact gradient of the entropic objective
F = <P,M> - H(P)/lambda, with H(P) = -sum P log P (the envelope theorem;
Peyre & Cuturi 2019, section 9.1), not the gradient of the <P,M> that the loss
reports.

The Sinkhorn term transports the frames onto themselves over a cost M with a
zero diagonal, so the diagonal of exp(-lambda*M) stays 1: no row underflows
and this cost never raises :class:`SaturationError`, whatever lambda.

The representation terms compute in the dtype of the representation.  Only
the Sinkhorn scaling stays float64 whatever M's dtype: its termination
threshold on the summed marginal error (``tau = 1e-6``) is below float32
resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Node, Tape, as_node
from .dataset import float64_blocks
from .errors import SaturationError, finite

_LN10 = math.log(10.0)

#: neg-SNR cap for (near-)perfect reconstruction, in dB
SNR_FLOOR_DB = -120.0

#: the representation losses, and the allowed exponents of the pairwise frame distance
LOSS_VARIANTS = ("tv", "sinkhorn")
DISTANCE_EXPONENTS = (1, 2)


@dataclass(frozen=True)
class LossConfig:
    omega: float = 1.0        # weight of the representation loss
    lam: float = 0.5          # K = exp(-lam*M) (> 0); regularization strength is 1/lam
    p: int = 1                # pairwise frame-distance exponent, one of DISTANCE_EXPONENTS
    max_iters: int = 100      # Sinkhorn iteration cap
    tau: float = 1e-6         # Sinkhorn termination threshold on marginal error

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega >= 0):
            raise ValueError(f"omega must be finite and >= 0, got {self.omega}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")
        if self.p not in DISTANCE_EXPONENTS:
            raise ValueError(f"p must be one of {DISTANCE_EXPONENTS}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class TransportPlan:
    plan: np.ndarray      # (T, T) non-negative coupling
    iterations: int
    converged: bool
    saturation: float     # fraction of Gibbs-kernel entries that underflowed to 0


@dataclass
class LossBreakdown:
    total: Node
    neg_snr_db: float
    rep_loss: float
    plan: TransportPlan | None = None


def neg_snr(x: np.ndarray, est, tape: Tape | None = None) -> Node:
    """Negative signal-to-noise ratio in dB: -10*log10(||x||^2 / ||x - est||^2).

    Clamped at ``SNR_FLOOR_DB`` when the residual (nearly) vanishes; on the
    clamped plateau the gradient is zero.  A non-finite estimate raises
    :class:`NumericalError` rather than scoring as perfect.

    The residual energy is summed over :func:`dataset.float64_blocks`, as in
    :func:`evaluation.si_sdr`, so no signal-length residual is made; a
    training segment is one block, which gets the single-pass value bit for
    bit.  The backward makes the whole residual only when it runs.
    """
    x = np.asarray(x, dtype=np.float64)
    est_node = as_node(est)
    if x.shape != est_node.value.shape:
        raise ValueError("signals must have equal length")
    energy = float(x @ x)
    if energy == 0.0:
        raise ValueError("neg_snr reference signal is all-zero")
    resid = finite("neg_snr: the estimate is not finite", lambda: sum(
        float(d @ d) for d in (xb - eb for xb, eb in float64_blocks(x, est_node.value))))
    raw = -10.0 * math.log10(energy / resid) if resid > 0.0 else -math.inf
    capped = raw < SNR_FLOOR_DB
    out = Node(SNR_FLOOR_DB if capped else raw)

    if tape is not None:
        def backward():
            if capped:
                return
            diff = x - est_node.value
            est_node.add_grad(float(out.grad) * (-20.0 / _LN10) * diff / resid)
        tape.record(backward, out)
    return out


def tv_loss(a, tape: Tape | None = None) -> Node:
    """Mean absolute first-order difference of the representation, along both
    the component and the time axis.  Zero iff the matrix is constant."""
    a_node = as_node(a)
    av = a_node.value
    if av.ndim != 2:
        raise ValueError("tv_loss expects a (C, T) matrix")
    c, t = av.shape
    dc = av[1:, :] - av[:-1, :]
    dt = av[:, 1:] - av[:, :-1]
    out = Node((np.abs(dc).sum(dtype=np.float64) + np.abs(dt).sum(dtype=np.float64)) / (c * t))

    if tape is not None:
        def backward():
            g = float(out.grad) / (c * t)
            grad = np.zeros_like(av)
            sc = np.sign(dc)  # subgradient 0 at ties
            st = np.sign(dt)
            grad[1:, :] += sc
            grad[:-1, :] -= sc
            grad[:, 1:] += st
            grad[:, :-1] -= st
            a_node.add_grad(g * grad)
        tape.record(backward, out)
    return out


def normalize_simplex(a, tape: Tape | None = None) -> Node:
    """Per-frame normalization A[:, t] / (sum_c A[:, t] + 1).

    The +1 comes from adding 1/C to every entry of the column sum, so an
    all-zero column stays all-zero and every output column sums to s/(s+1) < 1.
    """
    a_node = as_node(a)
    av = a_node.value
    den = av.sum(axis=0) + 1.0
    out = Node(av / den)

    if tape is not None:
        def backward():
            g = out.grad
            dot = (g * out.value).sum(axis=0)
            a_node.add_grad((g - dot) / den)
        tape.record(backward, out)
    return out


def pairwise_cost(ao: np.ndarray, p: int) -> np.ndarray:
    """(T, T) Minkowski distance matrix between the columns of ``ao``, in
    float32 for a float32 ``ao`` and in float64 otherwise.

    Each frame pair is computed once, so M is exactly symmetric with an
    exactly zero diagonal; it satisfies the triangle inequality.  A p=1 row
    is summed by a BLAS matrix-vector product.
    """
    if p not in DISTANCE_EXPONENTS:
        raise ValueError(f"p must be one of {DISTANCE_EXPONENTS}")
    at = np.ascontiguousarray(Node(ao).value.T)  # (T, C): frames as rows; float32 stays float32
    t = at.shape[0]
    m = np.zeros((t, t), dtype=at.dtype)
    ones = np.ones(at.shape[1], dtype=at.dtype)
    for i in range(t - 1):
        d = at[i + 1:] - at[i]
        row = np.abs(d, out=d) @ ones if p == 1 else np.sqrt(np.einsum("ij,ij->i", d, d))
        m[i, i + 1:] = row
        m[i + 1:, i] = row
    return m


def sinkhorn_plan(
    m: np.ndarray,
    lam: float,
    max_iters: int = LossConfig.max_iters,
    tau: float = LossConfig.tau,
) -> TransportPlan:
    """Entropic-regularized transport plan between uniform marginals.

    Scales K = exp(-lam * M) with diagonal vectors u, v until every row and
    column of P = diag(u) K diag(v) sums to 1, i.e. P lives in the polytope
    of non-negative matrices with unit row/column sums (whose vertices are
    the permutation matrices).  Iteration stops once the summed absolute
    marginal error drops below ``tau``, or after ``max_iters``.

    Raises :class:`SaturationError` instead of dividing by zero when the
    Gibbs kernel underflows on a full row or column (large ``lam``), or when
    a scaling step's reciprocal overflows.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("cost matrix must be square")
    if not np.all(np.isfinite(m)) or np.any(m < 0):
        raise ValueError("cost matrix must be finite and non-negative")
    if lam <= 0:
        raise ValueError("lam must be > 0")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    gibbs = np.exp(-lam * m)
    saturation = float(np.mean(gibbs == 0.0))

    def inverse(k: np.ndarray) -> np.ndarray:
        # k = 0 or inf, or a subnormal k whose reciprocal overflows, raises
        with np.errstate(all="ignore"):
            r = 1.0 / k
        if not np.all((r > 0.0) & np.isfinite(r)):
            raise SaturationError(lam, saturation)
        return r

    t = m.shape[0]
    u = np.full(t, 1.0 / t)
    for iterations in range(1, max_iters + 1):
        v = inverse(gibbs.T @ u)
        u = inverse(gibbs @ v)
        plan = (u[:, None] * gibbs) * v[None, :]
        err = np.abs(plan.sum(axis=1) - 1.0).sum() + np.abs(plan.sum(axis=0) - 1.0).sum()
        if err < tau:
            return TransportPlan(plan, iterations, True, saturation)
    return TransportPlan(plan, max_iters, False, saturation)


def _plan_cost_inner(ao: Node, m: np.ndarray, plan: np.ndarray, p: int, tape: Tape | None) -> Node:
    """<P, M(ao)> with P held constant; gradients flow into ``ao`` only.

    The inner product is summed in float64 (``plan`` is float64); the
    backward runs in the dtype of ``ao``."""
    out = Node(float((plan * m).sum()))

    if tape is not None:
        def backward():
            av = ao.value
            q = (float(out.grad) * (plan + plan.T)).astype(av.dtype, copy=False)  # symmetric
            if p == 1:
                # sign(a_i - a_j) is antisymmetric, so each frame pair is visited once
                at = np.ascontiguousarray(av.T)
                gt = np.zeros_like(at)
                for i in range(at.shape[0] - 1):
                    s = np.sign(at[i] - at[i + 1:])
                    gt[i] += q[i, i + 1:] @ s
                    s *= q[i, i + 1:, None]
                    gt[i + 1:] -= s
                grad = gt.T
            else:
                # sum_j (a_i - a_j) w_ij with w = q / m symmetric, so sum_j a_j w_ij = av @ w;
                # identical frames (m == 0) get no weight
                w = np.divide(q, m, out=np.zeros_like(q), where=m > 0)
                grad = av * w.sum(axis=1) - av @ w
            ao.add_grad(grad)
        tape.record(backward, out)
    return out


def sinkhorn_loss(
    a,
    cfg: LossConfig,
    tape: Tape | None = None,
    plan: TransportPlan | None = None,
) -> tuple[Node, TransportPlan]:
    """Transport distance between the time frames of a representation.

    The representation is simplex-normalized, the pairwise frame-distance
    matrix M is computed once, the plan is solved on M, and the loss is the
    Frobenius inner product <P, M>.  Passing ``plan`` reuses a precomputed
    plan (useful for gradient checking, since the plan is detached anyway).
    """
    ao = normalize_simplex(a, tape)
    m = pairwise_cost(ao.value, cfg.p)
    if plan is None:
        plan = sinkhorn_plan(m, cfg.lam, cfg.max_iters, cfg.tau)
    loss = _plan_cost_inner(ao, m, plan.plan, cfg.p, tape)
    return loss, plan


def total_loss(
    x_v: np.ndarray,
    xhat_v,
    a_m,
    cfg: LossConfig,
    variant: str,
    tape: Tape | None = None,
    plan: TransportPlan | None = None,
) -> LossBreakdown:
    """Reconstruction loss plus ``omega`` times the representation loss.

    ``variant`` selects the representation term: ``"tv"`` or ``"sinkhorn"``.
    The representation term is computed on the mixture representation only.
    """
    rec = neg_snr(x_v, xhat_v, tape)
    plan_out = None
    if variant == "tv":
        rep = tv_loss(a_m, tape)
    elif variant == "sinkhorn":
        rep, plan_out = sinkhorn_loss(a_m, cfg, tape, plan)
    else:
        raise ValueError(f"unknown loss variant {variant!r} (expected one of {LOSS_VARIANTS})")

    total = Node(float(rec.value) + cfg.omega * float(rep.value))
    if tape is not None:
        def backward():
            rec.add_grad(total.grad)
            rep.add_grad(cfg.omega * total.grad)
        tape.record(backward, total)
    return LossBreakdown(total, float(rec.value), float(rep.value), plan_out)
