"""Self-contained correctness oracles: central-difference gradient checks for
every differentiable operation, and brute-force optimal-transport checks
(permutation enumeration) for the Sinkhorn solver.

The oracles deliberately share no code with the analytic paths they verify:
gradients are re-derived numerically from forward evaluations only, and
transport optima are found by enumerating assignments.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from . import training
from .autodiff import Node, Tape, as_node, split_columns
from .dataset import TrainingPair
from .decoder import DecoderParameters, build_kernels, decode_values, mel_init_frequencies, synthesize
from .encoder import (EncoderParameters, conv1, conv2_dilated, encode, init_encoder, relu,
                      relu_residual)
from .losses import (
    LossConfig,
    neg_snr,
    sinkhorn_loss,
    sinkhorn_plan,
    total_loss,
    tv_loss,
)

GRAD_TOLERANCE = 1e-4
FD_STEP = 1e-5


def central_difference(fn: Callable[[], float], x: np.ndarray) -> np.ndarray:
    """Central finite differences, of step ``FD_STEP``, of ``fn()`` w.r.t.
    every entry of ``x``.

    ``fn`` must read ``x`` by reference; entries are perturbed in place and
    restored afterwards.
    """
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + FD_STEP
        f_plus = fn()
        x[idx] = orig - FD_STEP
        f_minus = fn()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * FD_STEP)
        it.iternext()
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Entrywise |a - n| / max(|a|, |n|, 1e-3), maximized.

    The floor keeps finite-difference round-off on near-zero entries from
    inflating the relative error; genuine formula bugs show up at the scale
    of the gradients themselves, far above it.
    """
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
    return float(np.max(np.abs(a - n) / scale))


def _check_op(report: dict[str, float], label: str, op: Callable[..., Node],
              inputs: dict[str, np.ndarray], weights: np.ndarray | None = None) -> None:
    """Add a ``label/<input>`` entry to ``report`` per input of ``op(*nodes, tape=...)``.

    The output, reduced to a scalar by the fixed random functional ``weights``
    unless ``op`` already returns one, is taped and replayed; each input's
    gradient is then compared against central differences of the untaped
    forward on the same arrays.
    """
    def scalar(nodes, tape=None) -> Node:
        out = op(*nodes, tape=tape)
        if weights is None:
            return out
        total = Node(float((out.value * weights).sum()))
        if tape is not None:
            tape.record(lambda: out.add_grad(float(total.grad) * weights), total)
        return total

    def forward() -> float:
        return float(scalar([as_node(arr) for arr in inputs.values()]).value)

    tape = Tape()
    nodes = [Node(arr) for arr in inputs.values()]
    tape.backward(scalar(nodes, tape))
    for (name, arr), node in zip(inputs.items(), nodes):
        report[f"{label}/{name}"] = max_relative_error(node.grad, central_difference(forward, arr))


def _toy_model(seed: int) -> tuple[EncoderParameters, DecoderParameters, np.random.Generator]:
    rng = np.random.default_rng(seed)
    enc = init_encoder(n_components=3, kernel_len=8, kernel2_len=2, stride=2, dilation=2, seed=seed)
    dec = DecoderParameters(
        freq=mel_init_frequencies(3) + rng.uniform(0.01, 0.05, 3),
        phase=rng.uniform(-0.5, 0.5, 3),
        modulator=rng.normal(0.1, 0.05, (3, 8)),
        stride=2,
        square_freq=True,
    )
    return enc, dec, rng


def grad_check_report(seed: int) -> dict[str, float]:
    """Max relative error of analytic vs central-difference gradients, per op."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    report: dict[str, float] = {}

    # --- conv1 -----------------------------------------------------------
    x = rng.uniform(-1, 1, 11)
    k = rng.normal(0, 0.5, (3, 5))
    _check_op(report, "conv1", lambda kn, tape: conv1(x, kn, 3, tape),
              {"kernels": k}, rng.normal(size=(3, 4)))

    # --- conv2 (dilated) ---------------------------------------------------
    h = rng.normal(0, 1, (3, 6))
    kp = rng.normal(0, 0.5, (3, 2, 3))
    _check_op(report, "conv2", lambda hn, kn, tape: conv2_dilated(hn, kn, 2, tape),
              {"latent": h, "kernels": kp}, rng.normal(size=(3, 6)))

    # --- relu residual (away from the kink) --------------------------------
    while True:
        h1 = rng.normal(0, 1, (3, 5))
        h2 = rng.normal(0, 1, (3, 5))
        if np.min(np.abs(h1 + h2)) > 1e-2:
            break
    _check_op(report, "relu_residual", lambda n1, n2, tape: relu_residual(n2, n1, tape),
              {"h1": h1, "h2": h2}, rng.normal(size=(3, 5)))

    # --- modulated-cosine kernels ------------------------------------------
    freq = np.array([0.06, 0.19, 0.37]) + rng.uniform(0, 0.02, 3)
    phase = rng.uniform(-1, 1, 3)
    mod = rng.normal(0.2, 0.1, (3, 8))
    r = rng.normal(size=(3, 8))
    for squared in (True, False):
        _check_op(report, "build_kernels" if squared else "build_kernels_nosquare",
                  lambda fn, pn, mn, tape: build_kernels(fn, pn, mn, squared, tape),
                  {"freq": freq, "phase": phase, "modulator": mod}, r)

    # --- overlap-add synthesis (with truncation) ----------------------------
    a = rng.normal(0, 1, (3, 4))
    w = rng.normal(0, 1, (3, 5))
    _check_op(report, "synthesize", lambda an, wn, tape: synthesize(an, wn, 2, 9, tape),
              {"representation": a, "kernels": w}, rng.normal(size=9))

    # --- neg-SNR (away from the floor) --------------------------------------
    ref = rng.uniform(-1, 1, 16)
    est = ref + 0.3 * rng.normal(0, 1, 16)
    _check_op(report, "neg_snr", lambda en, tape: neg_snr(ref, en, tape), {"estimate": est})

    # --- total variation (away from ties) -----------------------------------
    while True:
        a = rng.normal(0, 1, (4, 5))
        if min(np.min(np.abs(np.diff(a, axis=0))), np.min(np.abs(np.diff(a, axis=1)))) > 1e-3:
            break
    _check_op(report, "tv_loss", tv_loss, {"representation": a})

    # --- Sinkhorn loss with the plan held fixed ------------------------------
    for p in (1, 2):
        a = _separated_representation(rng, 3, 4)
        cfg = LossConfig(lam=2.0, p=p, max_iters=2000, tau=1e-10)
        _, plan = sinkhorn_loss(as_node(a), cfg)
        _check_op(report, f"sinkhorn_loss_p{p}",
                  lambda an, tape: sinkhorn_loss(an, cfg, tape, plan=plan)[0],
                  {"representation": a})

    # --- the layers on a stack of two signals, and the split back into them ----
    xs = rng.uniform(-1, 1, (2, 11))
    _check_op(report, "conv1_stack2", lambda kn, tape: conv1(xs, kn, 3, tape),
              {"kernels": rng.normal(0, 0.5, (3, 5))}, rng.normal(size=(3, 8)))
    _check_op(report, "conv2_stack2", lambda hn, kn, tape: conv2_dilated(hn, kn, 2, tape, signals=2),
              {"latent": rng.normal(0, 1, (3, 12)), "kernels": rng.normal(0, 0.5, (3, 2, 3))},
              rng.normal(size=(3, 12)))
    _check_op(report, "synthesize_stack2",
              lambda an, wn, tape: synthesize(an, wn, 2, 9, tape, signals=2),
              {"representation": rng.normal(0, 1, (3, 8)), "kernels": rng.normal(0, 1, (3, 5))},
              rng.normal(size=(2, 9)))
    # blocks 0 and 2 of three, summed: block 1's columns must get no gradient
    _check_op(report, "split_columns",
              lambda an, tape: relu_residual(*split_columns(an, 3, tape)[::2], tape, linear=True),
              {"stack": rng.normal(0, 1, (3, 6))}, rng.normal(size=(3, 2)))

    # --- end-to-end training objectives --------------------------------------
    for variant in ("tv", "sinkhorn"):
        report.update(_end_to_end_check(seed, variant))
    return report


def _separated_representation(rng: np.random.Generator, c: int, t: int) -> np.ndarray:
    """Non-negative matrix whose normalized columns stay clear of L1-cost ties."""
    while True:
        a = np.abs(rng.normal(1.0, 0.8, (c, t))) + 0.05
        ao = a / (a.sum(axis=0) + 1.0)
        gaps = [np.min(np.abs(ao[:, i] - ao[:, j])) for i in range(t) for j in range(t) if i != j]
        if min(gaps) > 1e-3:
            return a


def _end_to_end_check(seed: int, variant: str) -> dict[str, float]:
    """Gradients of the full objective w.r.t. all five parameter tensors, as
    the training step computes them (:func:`training.batch_gradients`)."""
    for attempt in range(50):
        enc, dec, rng = _toy_model(seed + 1000 * attempt)
        x_v = rng.uniform(-0.8, 0.8, 12)
        noisy = x_v + 0.01 * rng.normal(0, 1, 12)
        mixture = x_v + rng.uniform(-0.8, 0.8, 12)
        cfg = LossConfig(omega=0.7, lam=2.0, p=1, max_iters=2000, tau=1e-10)

        pre_v = encode(noisy, enc, linear=True).value
        pre_m = encode(mixture, enc, linear=True).value
        if min(np.min(np.abs(pre_v)), np.min(np.abs(pre_m))) < 1e-3:
            continue  # too close to a ReLU kink for finite differences
        a_m = relu(pre_m)
        d_comp = np.abs(np.diff(a_m, axis=0))
        d_time = np.abs(np.diff(a_m, axis=1))
        active_gaps = np.concatenate([d_comp[d_comp > 0], d_time[d_time > 0]])
        if active_gaps.size and np.min(active_gaps) < 1e-3:
            continue  # too close to a total-variation tie
        break
    else:
        raise RuntimeError("could not find a kink-free toy configuration")

    plan = None
    if variant == "sinkhorn":
        _, plan = sinkhorn_loss(as_node(a_m), cfg)

    def forward() -> float:
        xhat = decode_values(encode(noisy, enc).value, dec, len(x_v))
        bd = total_loss(x_v, xhat, encode(mixture, enc), cfg, variant, plan=plan)
        return float(bd.total.value)

    pair = TrainingPair(x_v, noisy, mixture)
    grads, _ = training.batch_gradients([pair], enc, dec, training.TrainConfig(variant=variant, loss=cfg))

    report = {}
    for name, arr in training._param_dict(enc, dec).items():
        numeric = central_difference(forward, arr)
        report[f"total_{variant}/{name}"] = max_relative_error(grads[name], numeric)
    return report


# ---------------------------------------------------------------------------
# optimal-transport oracles
# ---------------------------------------------------------------------------

def assignment_cost(m: np.ndarray) -> float:
    """Exact minimum of sum_i M[i, perm(i)] over all permutations."""
    m = np.asarray(m, dtype=np.float64)
    t = m.shape[0]
    return min(sum(m[i, p[i]] for i in range(t)) for p in itertools.permutations(range(t)))


def random_cost_matrix(rng: np.random.Generator, t: int) -> np.ndarray:
    """Random non-negative cost matrix with a non-trivial optimal assignment.

    Entries are bounded away from zero so the exact optimum is positive
    (a zero-diagonal distance matrix would make the identity assignment
    trivially optimal at zero cost).
    """
    return rng.uniform(0.2, 2.0, (t, t))


def ot_check_report(seed: int) -> dict:
    """Sinkhorn solver vs the brute-force assignment oracle.

    Checks that (a) at strong regularization the transport cost matches the
    optimal assignment within 1%, (b) the transport cost never undershoots the
    exact optimum at any regularization strength, and (c) row sums and column
    sums of converged plans each agree mutually within 1e-6.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    worst_gap = 0.0
    dominated = True
    for t in (3, 4):
        for _ in range(3):
            m = random_cost_matrix(rng, t)
            opt = assignment_cost(m)
            plan = sinkhorn_plan(m, lam=50.0, max_iters=2000, tau=1e-9)
            cost = float((plan.plan * m).sum())
            worst_gap = max(worst_gap, abs(cost - opt) / opt)
            for lam in (0.5, 2.0, 5.0, 20.0, 50.0):
                p = sinkhorn_plan(m, lam=lam, max_iters=2000, tau=1e-9)
                # 1e-12 of slack: a converged plan at strong regularization IS
                # the optimal permutation, and the two sums round differently
                if float((p.plan * m).sum()) < opt - 1e-12:
                    dominated = False

    worst_row_spread = 0.0
    worst_col_spread = 0.0
    all_converged = True
    for _ in range(20):
        t = int(rng.integers(3, 9))
        m = random_cost_matrix(rng, t)
        plan = sinkhorn_plan(m, lam=2.0, max_iters=10_000, tau=1e-6)
        all_converged &= plan.converged
        rows = plan.plan.sum(axis=1)
        cols = plan.plan.sum(axis=0)
        worst_row_spread = max(worst_row_spread, float(rows.max() - rows.min()))
        worst_col_spread = max(worst_col_spread, float(cols.max() - cols.min()))

    return {
        "assignment_gap": worst_gap,
        "never_undershoots": dominated,
        "row_sum_spread": worst_row_spread,
        "col_sum_spread": worst_col_spread,
        "all_converged": all_converged,
        "ok": bool(worst_gap <= 0.01 and dominated
                   and worst_row_spread <= 1e-6 and worst_col_spread <= 1e-6
                   and all_converged),
    }
