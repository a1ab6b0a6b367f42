import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waverep.autodiff import Node, Tape, as_node
from waverep.dataset import ENERGY_BLOCK
from waverep.diagnostics import (
    GRAD_TOLERANCE,
    assignment_cost,
    central_difference,
    max_relative_error,
    random_cost_matrix,
)
from waverep.encoder import encode_values, init_encoder
from waverep.errors import NumericalError, SaturationError
from waverep.evaluation import SEGMENT_LEN
from waverep.losses import (
    DISTANCE_EXPONENTS,
    LossConfig,
    _plan_cost_inner,
    neg_snr,
    normalize_simplex,
    pairwise_cost,
    sinkhorn_loss,
    sinkhorn_plan,
    total_loss,
    tv_loss,
)


class TestNegSnr:
    def test_perfect_reconstruction_hits_floor(self, rng):
        x = rng.uniform(-1, 1, 50)
        assert float(neg_snr(x, x.copy()).value) == -120.0

    def test_zero_estimate_is_zero_db(self, rng):
        x = rng.uniform(-1, 1, 50)
        assert float(neg_snr(x, np.zeros(50)).value) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        val = float(neg_snr(np.array([1.0, 0.0]), np.array([0.5, 0.0])).value)
        assert val == pytest.approx(-10 * math.log10(4), abs=1e-12)
        assert val == pytest.approx(-6.0206, abs=1e-4)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            neg_snr(np.zeros(10), np.ones(10))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            neg_snr(np.ones(3), np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_estimate_raises_instead_of_scoring_the_floor(self, rng, bad):
        x = rng.uniform(-1, 1, 50)
        est = x.copy()
        est[7] = bad
        with pytest.raises(NumericalError, match="not finite"):
            neg_snr(x, est)

    @pytest.mark.parametrize("n", [SEGMENT_LEN, ENERGY_BLOCK])
    @pytest.mark.parametrize("taped", [False, True])
    def test_one_block_is_the_single_pass_formula_bit_for_bit(self, rng, n, taped):
        # a training segment is one block, so every training signal keeps its bits
        x = rng.uniform(-1, 1, n)
        est = x + 0.3 * rng.normal(size=n)
        resid = x - est
        want = -10.0 * math.log10(float(x @ x) / float(resid @ resid))
        assert float(neg_snr(x, est, Tape() if taped else None).value) == want

    def test_taped_long_estimate_keeps_its_values_and_gets_the_residual_gradient(self, rng):
        # the backward makes the residual itself; the forward's blocks never
        # write into the estimate
        n = 3 * ENERGY_BLOCK
        x = rng.uniform(-1, 1, n)
        est = Node(x + 0.3 * rng.normal(size=n))
        kept = est.value.copy()
        tape = Tape()
        loss = neg_snr(x, est, tape)
        tape.backward(loss)
        np.testing.assert_array_equal(est.value, kept)
        resid = x - kept
        np.testing.assert_allclose(est.grad, (-20.0 / math.log(10.0)) * resid / float(resid @ resid),
                                   rtol=1e-12)

    def test_long_estimate_sums_blocks(self, rng):
        # a float32 estimate of 16 blocks: no signal-length float64 residual
        # (8 MiB), and the single-pass value to rounding
        n = 16 * ENERGY_BLOCK
        x = rng.uniform(-1, 1, n)
        est = (x + 0.3 * rng.normal(size=n)).astype(np.float32)
        tracemalloc.start()
        try:
            got = float(neg_snr(x, est).value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * ENERGY_BLOCK * 8
        resid = x - est.astype(np.float64)
        assert got == pytest.approx(-10.0 * math.log10((x @ x) / (resid @ resid)), rel=1e-12)


class TestTvLoss:
    def test_constant_matrix_is_zero(self):
        assert float(tv_loss(np.full((4, 7), 3.3)).value) == 0.0

    def test_checkerboard(self):
        assert float(tv_loss(np.array([[0.0, 1.0], [1.0, 0.0]])).value) == 1.0

    def test_single_row_only_temporal_term(self):
        a = np.array([[0.0, 2.0, 2.0, 5.0]])
        assert float(tv_loss(a).value) == pytest.approx((2 + 0 + 3) / 4)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative(self, seed):
        a = np.random.default_rng(seed).normal(size=(3, 5))
        assert float(tv_loss(a).value) >= 0.0

    def test_zero_iff_constant(self, rng):
        a = rng.normal(size=(3, 4))
        assert float(tv_loss(a).value) > 0.0

    def test_float32_gradient_is_the_float64_one_rounded(self, rng):
        # the signs of the differences are exact in float32, so only the
        # scale 1/(C*T) rounds: within one ulp of the float64 gradient
        a32 = np.maximum(rng.normal(size=(16, 40)), 0.0).astype(np.float32)
        grads = []
        for a in (a32, a32.astype(np.float64)):
            node, tape = Node(a), Tape()
            tape.backward(tv_loss(node, tape), 0.7)
            grads.append(node.grad)
        assert grads[0].dtype == np.float32
        np.testing.assert_array_max_ulp(grads[0], grads[1].astype(np.float32), maxulp=1)


class TestNormalizeSimplex:
    def test_zero_column_stays_zero(self):
        a = np.zeros((3, 2))
        a[:, 1] = [1.0, 1.0, 1.0]
        out = normalize_simplex(a).value
        assert np.all(out[:, 0] == 0.0)

    def test_pair_of_ones(self):
        out = normalize_simplex(np.array([[1.0], [1.0]])).value
        np.testing.assert_allclose(out, [[1 / 3], [1 / 3]])

    def test_column_sum_identity(self, rng):
        a = np.abs(rng.normal(size=(5, 8)))
        out = normalize_simplex(a).value
        s = a.sum(axis=0)
        np.testing.assert_allclose(out.sum(axis=0), s / (s + 1), rtol=1e-12)
        assert np.all(out.sum(axis=0) < 1.0)


def _tied_frames(rng, c=16, t=40):
    """Normalized (C, T) frames with the exact ties a ReLU encoder produces:
    exact zeros, frames 3 and 7 identical, frame 11 all-zero."""
    a = np.maximum(rng.normal(size=(c, t)), 0.0)
    a[:, 7] = a[:, 3]
    a[:, 11] = 0.0
    return normalize_simplex(as_node(a)).value


def _brute_force_cost(ao, p):
    d = np.abs(ao[:, :, None] - ao[:, None, :])  # (C, T, T)
    return d.sum(axis=0) if p == 1 else np.sqrt((d * d).sum(axis=0))


def _plan_cost_grad_per_frame(av, m, q, p):
    """Reference gradient of <P, M(av)>: one (C, T) pass per frame, visiting
    every frame pair twice."""
    grad = np.empty_like(av)
    for i in range(av.shape[1]):
        diff = av[:, [i]] - av
        if p == 1:
            grad[:, i] = np.sign(diff) @ q[i]
        else:
            w = np.divide(q[i], m[i], out=np.zeros_like(q[i]), where=m[i] > 0)
            grad[:, i] = diff @ w
    return grad


def _plan_cost_grad_recomputed(av, q):
    """The p=1 backward that recomputes every frame difference and takes
    np.sign of it: the cached signs must give its gradient bit for bit."""
    at = np.ascontiguousarray(av.T)
    gt = np.zeros_like(at)
    for i in range(at.shape[0] - 1):
        s = np.sign(at[i] - at[i + 1:])
        gt[i] += q[i, i + 1:] @ s
        s *= q[i, i + 1:, None]
        gt[i + 1:] -= s
    return gt.T


def _sinkhorn_every_iteration(m, lam, max_iters, tau):
    """The Sinkhorn loop that forms P and its exact marginal error on every
    iteration: (plan, iterations, converged, saturation)."""
    m = np.asarray(m, dtype=np.float64)
    gibbs = np.exp(-lam * m)
    saturation = float(np.mean(gibbs == 0.0))

    def inverse(k):
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
            return plan, iterations, True, saturation
    return plan, max_iters, False, saturation


def _signs_of(ao, p):
    """The int8 frame-pair signs that pairwise_cost writes for ``ao``."""
    c, t = ao.shape
    signs = np.empty((t * (t - 1) // 2, c), dtype=np.int8)
    pairwise_cost(ao, p, signs)
    return signs


class TestPairwiseCost:
    def test_identical_columns_zero(self):
        a = np.tile(np.array([[0.3], [0.2]]), (1, 4))
        assert np.all(pairwise_cost(a, 1) == 0.0)

    def test_unit_basis_columns(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert pairwise_cost(a, 1)[0, 1] == pytest.approx(2.0)
        assert pairwise_cost(a, 2)[0, 1] == pytest.approx(math.sqrt(2))

    def test_metric_properties(self, rng):
        for p in (1, 2):
            a = np.abs(rng.normal(size=(4, 6)))
            m = pairwise_cost(a, p)
            np.testing.assert_allclose(m, m.T, atol=1e-12)
            assert np.all(np.diag(m) == 0.0)
            assert np.all(m >= 0.0)
            for i, j, k in itertools.product(range(6), repeat=3):
                assert m[i, k] <= m[i, j] + m[j, k] + 1e-9

    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_brute_force(self, rng, p):
        ao = _tied_frames(rng)
        m = pairwise_cost(ao, p)
        ref = _brute_force_cost(ao, p)
        np.testing.assert_allclose(m, ref, rtol=1e-12, atol=0.0)
        assert m[3, 7] == 0.0 and m[11, 11] == 0.0

    @pytest.mark.parametrize("p", [1, 2])
    def test_exactly_symmetric_zero_diagonal(self, rng, p):
        m = pairwise_cost(_tied_frames(rng), p)
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)

    @pytest.mark.parametrize("p", [1, 2])
    def test_float32_exactly_symmetric_zero_diagonal(self, rng, p):
        m = pairwise_cost(_tied_frames(rng).astype(np.float32), p)
        assert m.dtype == np.float32
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)
        assert m[3, 7] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signs_are_the_frame_pair_signs_in_row_order(self, rng, dtype):
        ao = _tied_frames(rng).astype(dtype)
        signs = _signs_of(ao, 1)
        i, j = np.triu_indices(ao.shape[1], k=1)
        np.testing.assert_array_equal(signs, np.sign(ao[:, i] - ao[:, j]).T)
        assert not signs[np.flatnonzero((i == 3) & (j == 7))].any()  # duplicate frames tie

    @pytest.mark.parametrize("p", [1, 2])
    def test_float32_matches_brute_force(self, rng, p):
        # each entry sums C rounded non-negative terms in float32: within
        # C float32 epsilons of the float64 sum over the same frames
        ao = _tied_frames(rng).astype(np.float32)
        ref = _brute_force_cost(ao.astype(np.float64), p)
        np.testing.assert_allclose(pairwise_cost(ao, p), ref,
                                   rtol=ao.shape[0] * np.finfo(np.float32).eps, atol=0.0)


class TestPlanCostGradient:
    def _gradient(self, ao, m, plan, p, seed):
        node = as_node(ao)
        tape = Tape()
        out = _plan_cost_inner(node, m, _signs_of(ao, p), plan, p, tape)
        tape.backward(out, seed)
        return node.grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cached_signs_give_the_recomputed_p1_gradient_bit_for_bit(self, rng, dtype):
        ao = _tied_frames(rng).astype(dtype)
        m = pairwise_cost(ao, 1)
        plan = sinkhorn_plan(m, 0.5).plan
        grad = self._gradient(ao, m, plan, 1, 1.7)
        ref = _plan_cost_grad_recomputed(ao, (1.7 * (plan + plan.T)).astype(dtype, copy=False))
        assert grad.dtype == dtype
        assert np.ascontiguousarray(grad).tobytes() == np.ascontiguousarray(ref).tobytes()

    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_per_frame_reference(self, rng, p):
        ao = _tied_frames(rng)
        m = pairwise_cost(ao, p)
        plan = sinkhorn_plan(m, 0.5).plan
        grad = self._gradient(ao, m, plan, p, 1.7)
        ref = _plan_cost_grad_per_frame(ao, m, 1.7 * (plan + plan.T), p)
        assert np.abs(grad - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("p", [1, 2])
    def test_float32_matches_per_frame_reference(self, rng, p):
        # the float64 reference on the same frames, cost and plan; each
        # gradient entry sums T terms in float32
        ao = _tied_frames(rng).astype(np.float32)
        m = pairwise_cost(ao, p)
        plan = sinkhorn_plan(m, 0.5).plan
        grad = self._gradient(ao, m, plan, p, 1.7)
        assert grad.dtype == np.float32
        ref = _plan_cost_grad_per_frame(ao.astype(np.float64), m.astype(np.float64),
                                        1.7 * (plan + plan.T), p)
        t = ao.shape[1]
        assert np.abs(grad - ref).max() <= t * np.finfo(np.float32).eps * np.abs(ref).max()

    def test_float32_near_duplicate_frames_get_finite_p2_gradient(self, rng):
        # frames 3 and 7 one float32 ulp apart in one entry: their distance is
        # tiny but positive, and its weight q/m stays finite in float32
        ao = _tied_frames(rng).astype(np.float32)
        i = int(np.argmax(ao[:, 3]))
        ao[i, 7] = np.nextafter(ao[i, 3], np.float32(1.0))
        m = pairwise_cost(ao, 2)
        assert 0.0 < m[3, 7] < 1e-7
        grad = self._gradient(ao, m, sinkhorn_plan(m, 0.5).plan, 2, 1.0)
        assert grad.dtype == np.float32
        assert np.all(np.isfinite(grad))

    def test_duplicated_frames_get_finite_p2_gradient(self, rng):
        ao = _tied_frames(rng)
        m = pairwise_cost(ao, 2)
        assert m[3, 7] == 0.0
        grad = self._gradient(ao, m, sinkhorn_plan(m, 0.5).plan, 2, 1.0)
        assert np.all(np.isfinite(grad))
        # the zero-distance pair contributes nothing, so the duplicates,
        # which see the same distances to every other frame, get equal gradients
        np.testing.assert_allclose(grad[:, 3], grad[:, 7], rtol=0.0,
                                   atol=1e-12 * np.abs(grad).max())


class TestSinkhornPlan:
    def test_uniform_cost_gives_uniform_plan(self):
        plan = sinkhorn_plan(np.zeros((2, 2)), 1.0)
        np.testing.assert_allclose(plan.plan, np.full((2, 2), 0.5), atol=1e-12)
        assert plan.converged

    def test_marginals_mutually_agree(self, rng):
        for _ in range(20):
            t = int(rng.integers(3, 9))
            plan = sinkhorn_plan(random_cost_matrix(rng, t), lam=2.0, max_iters=10_000, tau=1e-6)
            rows = plan.plan.sum(axis=1)
            cols = plan.plan.sum(axis=0)
            assert rows.max() - rows.min() < 1e-6
            assert cols.max() - cols.min() < 1e-6

    def test_strong_regularization_matches_assignment(self, rng):
        for t in (3, 4):
            m = random_cost_matrix(rng, t)
            opt = assignment_cost(m)
            plan = sinkhorn_plan(m, lam=50.0, max_iters=2000, tau=1e-9)
            cost = float((plan.plan * m).sum())
            assert abs(cost - opt) / opt < 0.01

    def test_never_undershoots_optimum(self, rng):
        m = random_cost_matrix(rng, 4)
        opt = assignment_cost(m)
        for lam in (0.5, 1.0, 5.0, 20.0, 50.0):
            plan = sinkhorn_plan(m, lam=lam, max_iters=2000, tau=1e-9)
            assert float((plan.plan * m).sum()) >= opt - 1e-12

    def test_weakest_lambda_gives_independent_coupling(self, rng):
        # closed-form oracle at the strongest entropic regularization (1/lambda):
        # K = exp(-lambda M) -> 1, so P -> ones/T and <P, M> -> sum(M)/T
        m = pairwise_cost(_tied_frames(rng), 1)
        t = m.shape[0]
        plan = sinkhorn_plan(m, lam=1e-8)
        np.testing.assert_allclose(plan.plan, np.full((t, t), 1.0 / t), rtol=0.0, atol=1e-6)
        assert float((plan.plan * m).sum()) == pytest.approx(m.sum() / t, rel=1e-6)

    def test_float32_cost_gives_the_plan_of_its_float64_cast(self, rng):
        # the scaling runs in float64 whatever the cost's dtype
        m = pairwise_cost(_tied_frames(rng).astype(np.float32), 1)
        got, want = sinkhorn_plan(m, 0.5), sinkhorn_plan(m.astype(np.float64), 0.5)
        assert got.plan.dtype == np.float64
        assert got.iterations == want.iterations and got.converged
        np.testing.assert_array_equal(got.plan, want.plan)

    def test_full_row_underflow_raises_not_nan(self):
        # a full column fails the first half-step (v = 1/K^T u), a full row the
        # second (u = 1/K v), both in the first iteration
        for m in ([[800.0, 900.0], [0.0, 0.1]], [[0.0, 800.0], [0.0, 800.0]]):
            with pytest.raises(SaturationError, match="lambda"):
                sinkhorn_plan(np.array(m), lam=1.0, max_iters=1)

    def test_overflowing_reciprocal_raises_without_a_warning(self):
        # exp(-720) is subnormal, so the first half-step's 1/(K^T u) overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SaturationError, match="lambda"):
                sinkhorn_plan(np.ones((2, 2)), 720.0)

    @pytest.mark.parametrize("t", [12, 345])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("lam", [0.05, 0.5, 5.0, 50.0])
    def test_same_bits_as_forming_the_plan_every_iteration(self, rng, t, p, lam):
        # ReLU-sparse frames with ties; tau 1e-13 is below the cheap test's
        # rounding slack, so P is formed on iterations that do not converge
        m = pairwise_cost(_tied_frames(rng, c=64, t=t), p)
        for tau in (1e-6, 1e-13):
            for max_iters in (1, 3, 100):
                got = sinkhorn_plan(m, lam, max_iters, tau)
                plan, iterations, converged, saturation = _sinkhorn_every_iteration(
                    m, lam, max_iters, tau)
                assert got.plan.tobytes() == plan.tobytes()
                assert (got.iterations, got.converged, got.saturation) == (
                    iterations, converged, saturation)

    @pytest.mark.parametrize("m", [[[800.0, 900.0], [0.0, 0.1]], [[0.0, 800.0], [0.0, 800.0]]])
    def test_full_row_underflow_raises_what_the_every_iteration_loop_raises(self, m):
        with pytest.raises(SaturationError) as want:
            _sinkhorn_every_iteration(np.array(m), 1.0, 1, 1e-6)
        with pytest.raises(SaturationError) as got:
            sinkhorn_plan(np.array(m), lam=1.0, max_iters=1)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("lam, tau, name", [
        (math.nan, 1e-6, "lam"), (math.inf, 1e-6, "lam"), (0.0, 1e-6, "lam"), (-1.0, 1e-6, "lam"),
        (0.5, math.nan, "tau"), (0.5, math.inf, "tau"), (0.5, 0.0, "tau"), (0.5, -1.0, "tau"),
    ])
    def test_lambda_and_tau_must_be_finite_and_positive(self, lam, tau, name):
        # as in LossConfig; a nan lambda would raise a SaturationError, an
        # infinite one warn, and a nan or negative tau run unconverged to max_iters
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                sinkhorn_plan(np.array([[0.0, 1.0], [1.0, 0.0]]), lam, tau=tau)

    def test_saturation_fraction_reported(self):
        m = np.array([[0.0, 800.0], [800.0, 0.0]])
        plan = sinkhorn_plan(m, lam=1.0)
        assert plan.saturation == pytest.approx(0.5)

    def test_invalid_cost_rejected(self):
        with pytest.raises(ValueError):
            sinkhorn_plan(np.array([[0.0, -1.0], [1.0, 0.0]]), 1.0)
        with pytest.raises(ValueError):
            sinkhorn_plan(np.zeros((2, 3)), 1.0)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_iteration_cap_below_one_rejected(self, max_iters):
        # as in LossConfig: without one iteration there is no plan to return
        with pytest.raises(ValueError, match="max_iters"):
            sinkhorn_plan(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]),
                          1.0, max_iters=max_iters)


class TestSinkhornLoss:
    def test_identical_frames_zero_loss(self):
        a = np.tile(np.array([[0.5], [0.25]]), (1, 4))
        loss, plan = sinkhorn_loss(as_node(a), LossConfig())
        assert float(loss.value) == pytest.approx(0.0, abs=1e-12)
        assert plan.converged

    def test_frame_permutation_invariance(self, rng):
        a = np.abs(rng.normal(size=(4, 5))) + 0.1
        cfg = LossConfig(lam=1.0, max_iters=5000, tau=1e-10)
        base = float(sinkhorn_loss(as_node(a), cfg)[0].value)
        for _ in range(3):
            perm = rng.permutation(5)
            permuted = float(sinkhorn_loss(as_node(a[:, perm]), cfg)[0].value)
            assert permuted == pytest.approx(base, rel=1e-6)

    def test_nonnegative_and_dominates_enumeration(self, rng):
        # the cost matrix of normalized frames has a zero diagonal, so the
        # exact minimum over permutation plans is 0 (identity): the loss must
        # stay above it for every regularization strength
        for t in (3, 4):
            a = np.abs(rng.normal(size=(3, t))) + 0.05
            from waverep.losses import normalize_simplex as norm
            m = pairwise_cost(norm(as_node(a)).value, 1)
            opt = assignment_cost(m)
            assert opt == pytest.approx(0.0, abs=1e-12)
            for lam in (0.5, 5.0, 50.0):
                cfg = LossConfig(lam=lam, max_iters=5000, tau=1e-10)
                loss = float(sinkhorn_loss(as_node(a), cfg)[0].value)
                assert loss >= opt
                assert loss >= 0.0

    def test_strong_regularization_approaches_enumeration(self, rng):
        # opt is 0 here, so "within 1%" is measured against the cost scale
        a = np.abs(rng.normal(size=(3, 3))) + 0.05
        cfg = LossConfig(lam=50.0, max_iters=10_000, tau=1e-10)
        loss, plan = sinkhorn_loss(as_node(a), cfg)
        m = pairwise_cost(normalize_simplex(as_node(a)).value, 1)
        assert float(loss.value) <= 0.01 * m[m > 0].mean()


class TestSinkhornClosedForm:
    """The loss transports a representation's frames onto themselves over a
    zero-diagonal cost M, so its plan has closed forms at both ends of lambda:
    the independent coupling 11^T/T plus a first-order correction as
    lambda -> 0, and the identity (no transport, zero cost) as lambda grows."""

    @staticmethod
    def _cost(p):
        # a fixed encoding: 24 frames of a seeded init encoder on a seeded input
        enc = init_encoder(16, 32, 2, 16, 2, seed=1)
        x = np.random.default_rng(0).uniform(-1, 1, 16 * 24)
        return pairwise_cost(normalize_simplex(encode_values(x, enc)).value, p)

    @pytest.mark.parametrize("p", DISTANCE_EXPONENTS)
    def test_first_order_error_falls_with_lambda_squared(self, p):
        # <P,M> ~= sum(M)/T - (lambda/T) <M_c, M>, M_c the double-centred M:
        # the error falls about 100x for each 10x smaller lambda
        m = self._cost(p)
        t = m.shape[0]
        m_c = m - m.mean(axis=0) - m.mean(axis=1, keepdims=True) + m.mean()
        errors = []
        for lam in (0.05, 0.005, 0.0005):
            plan = sinkhorn_plan(m, lam, max_iters=1000, tau=1e-13)
            assert plan.converged
            first_order = m.sum() / t - (lam / t) * float((m_c * m).sum())
            errors.append(abs(float((plan.plan * m).sum()) - first_order))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(80.0 <= r <= 125.0 for r in ratios), ratios

    @pytest.mark.parametrize("p", DISTANCE_EXPONENTS)
    def test_large_lambda_keeps_every_frame_in_place(self, p):
        # exp(-lambda*M) keeps its unit diagonal, so no row underflows and no
        # SaturationError is raised: the plan tends to I and <P,M> to 0, and
        # once every off-diagonal entry underflows they are reached exactly
        m = self._cost(p)
        t = m.shape[0]
        costs, gaps = [], []
        for lam in (0.5, 50.0, 500.0, 5000.0):
            plan = sinkhorn_plan(m, lam)
            costs.append(float((plan.plan * m).sum()))
            gaps.append(float(np.max(np.abs(plan.plan - np.eye(t)))))
        assert all(a > b for a, b in zip(costs, costs[1:])), costs
        assert all(a > b for a, b in zip(gaps[:-1], gaps[1:-1])), gaps
        assert costs[-1] == gaps[-1] == 0.0
        assert plan.saturation == (t - 1) / t


class TestSinkhornEnvelopeGradient:
    """The backward holds the plan constant.  At a converged plan that is the
    exact gradient of the entropic objective F = <P,M> - H(P)/lambda, with
    H(P) = -sum P log P (the envelope theorem), and not the gradient of the
    <P,M> that the loss reports."""

    @staticmethod
    def _cost_and_entropy(a, cfg):
        m = pairwise_cost(normalize_simplex(as_node(a)).value, cfg.p)
        plan = sinkhorn_plan(m, cfg.lam, cfg.max_iters, cfg.tau)
        assert plan.converged
        return float((plan.plan * m).sum()), -float((plan.plan * np.log(plan.plan)).sum())

    @pytest.mark.parametrize("lam", [0.5, 5.0])
    @pytest.mark.parametrize("p", DISTANCE_EXPONENTS)
    def test_backward_is_the_gradient_of_the_entropic_objective(self, p, lam):
        cfg = LossConfig(lam=lam, p=p, max_iters=200_000, tau=1e-13)
        a = np.random.default_rng(0).uniform(0.0, 1.0, (16, 12))
        node, tape = as_node(a), Tape()
        tape.backward(sinkhorn_loss(node, cfg, tape)[0])

        def entropic():
            cost, entropy = self._cost_and_entropy(a, cfg)
            return cost - entropy / lam

        assert max_relative_error(node.grad, central_difference(entropic, a)) < GRAD_TOLERANCE
        if lam == 5.0:
            sharp = central_difference(lambda: self._cost_and_entropy(a, cfg)[0], a)
            assert max_relative_error(node.grad, sharp) > 0.1


class TestTotalLoss:
    def _inputs(self, rng):
        x = rng.uniform(-1, 1, 40)
        xhat = x + 0.1 * rng.normal(size=40)
        a_m = np.abs(rng.normal(size=(3, 5)))
        return x, xhat, a_m

    def test_zero_omega_is_pure_reconstruction(self, rng):
        x, xhat, a_m = self._inputs(rng)
        cfg = LossConfig(omega=0.0)
        bd = total_loss(x, as_node(xhat), as_node(a_m), cfg, "tv")
        assert float(bd.total.value) == bd.neg_snr_db

    def test_constant_representation_adds_nothing(self, rng):
        x, xhat, _ = self._inputs(rng)
        cfg = LossConfig(omega=2.0)
        bd = total_loss(x, as_node(xhat), as_node(np.full((3, 5), 0.7)), cfg, "tv")
        assert float(bd.total.value) == bd.neg_snr_db

    def test_weighted_composition(self):
        # neg-SNR -6.0206 plus omega=2 times TV=1 gives -4.0206
        x = np.array([1.0, 0.0])
        xhat = np.array([0.5, 0.0])
        a_m = np.array([[0.0, 1.0], [1.0, 0.0]])
        bd = total_loss(x, as_node(xhat), as_node(a_m), LossConfig(omega=2.0), "tv")
        assert float(bd.total.value) == pytest.approx(-10 * math.log10(4) + 2.0, abs=1e-12)
        assert float(bd.total.value) == pytest.approx(-4.0206, abs=1e-4)

    def test_sinkhorn_variant_returns_plan(self, rng):
        x, xhat, a_m = self._inputs(rng)
        bd = total_loss(x, as_node(xhat), as_node(a_m), LossConfig(), "sinkhorn")
        assert bd.plan is not None
        assert bd.rep_loss >= 0.0

    def test_unknown_variant_rejected(self, rng):
        x, xhat, a_m = self._inputs(rng)
        with pytest.raises(ValueError, match="variant"):
            total_loss(x, as_node(xhat), as_node(a_m), LossConfig(), "huber")


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(omega=-1.0)
    with pytest.raises(ValueError):
        LossConfig(lam=0.0)
    with pytest.raises(ValueError):
        LossConfig(p=3)
    with pytest.raises(ValueError):
        LossConfig(tau=0.0)
    for name in ("omega", "lam", "tau"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                LossConfig(**{name: bad})
    with pytest.raises(ValueError, match="max_iters"):
        LossConfig(max_iters=0)
