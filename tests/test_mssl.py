"""View fusion, modality contexts, and the contrastive BCE objective."""

import math

import numpy as np
import pytest
from scipy.special import expit

from mossl import mssl
from mossl.errors import ShapeError
from mossl.tensor import Tensor
from oracles import contrastive_loop


def rng(seed=0):
    return np.random.default_rng(seed)


def make_fusion(seed, hidden):
    b = rng(seed)
    return mssl.FusionParams(
        original_gate=Tensor(b.standard_normal(hidden)),
        augmented_gate=Tensor(b.standard_normal(hidden)),
        pair_matrix=Tensor(b.standard_normal((hidden, hidden))),
    )


class TestFuse:
    def test_selector_gates(self):
        fusion = make_fusion(1, 4)
        fusion.original_gate.data[...] = 1.0
        fusion.augmented_gate.data[...] = 0.0
        h = Tensor(rng(2).standard_normal((1, 1, 2, 2, 4)))
        h2 = Tensor(rng(3).standard_normal((1, 1, 2, 2, 4)))
        assert np.array_equal(mssl.fuse(h, h2, fusion).data, h.data)

    def test_half_half_of_equal_views_is_identity(self):
        fusion = make_fusion(4, 3)
        fusion.original_gate.data[...] = 0.5
        fusion.augmented_gate.data[...] = 0.5
        h = Tensor(rng(5).standard_normal((1, 1, 2, 2, 3)))
        assert np.allclose(mssl.fuse(h, h, fusion).data, h.data, atol=1e-15)

    def test_matches_elementwise_oracle(self):
        fusion = make_fusion(6, 5)
        h = rng(7).standard_normal((2, 1, 2, 3, 5))
        h2 = rng(8).standard_normal((2, 1, 2, 3, 5))
        out = mssl.fuse(Tensor(h), Tensor(h2), fusion)
        expected = h * fusion.original_gate.data + h2 * fusion.augmented_gate.data
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_shape_mismatch(self):
        fusion = make_fusion(9, 3)
        with pytest.raises(ShapeError):
            mssl.fuse(Tensor(np.zeros((1, 1, 2, 2, 3))), Tensor(np.zeros((1, 1, 2, 3, 3))), fusion)


class TestContext:
    def test_zero_input_gives_half(self):
        out = mssl.modality_context(Tensor(np.zeros((2, 1, 3, 4, 5))))
        assert np.allclose(out.data, 0.5, atol=1e-15)

    def test_constant_per_modality(self):
        fused = np.zeros((1, 2, 3, 2, 1))
        fused[..., 0, :] = 1.5
        fused[..., 1, :] = -0.5
        out = mssl.modality_context(Tensor(fused))
        assert np.allclose(out.data[0, 0], expit(1.5), atol=1e-12)
        assert np.allclose(out.data[0, 1], expit(-0.5), atol=1e-12)

    def test_matches_mean_sigmoid_oracle(self):
        fused = rng(10).standard_normal((2, 2, 3, 4, 5))
        out = mssl.modality_context(Tensor(fused))
        assert np.max(np.abs(out.data - expit(fused.mean(axis=(1, 2))))) < 1e-12

    def test_outputs_in_unit_interval(self):
        fused = rng(11).standard_normal((3, 1, 2, 2, 4)) * 10
        out = mssl.modality_context(Tensor(fused))
        assert np.all(out.data > 0) and np.all(out.data < 1)


class TestLoss:
    def test_zero_coupling_closed_form(self):
        # sigma(0) = 1/2 for every pair: each anchor contributes
        # (1 positive + M-1 negatives) * ln 2
        t, n, m, hidden = 2, 3, 2, 4
        fused = Tensor(rng(12).standard_normal((1, t, n, m, hidden)))
        context = Tensor(rng(13).standard_normal((1, m, hidden)))
        loss = mssl.mssl_loss(fused, context, Tensor(np.zeros((hidden, hidden))))
        anchors = t * n * m
        assert abs(float(loss.data) - anchors * m * math.log(2)) < 1e-9

    def test_matches_exhaustive_pair_oracle(self):
        b = rng(14)
        for _ in range(5):
            fused = b.standard_normal((1, 2, 2, 2, 3))
            context = b.standard_normal((1, 2, 3))
            w3 = b.standard_normal((3, 3))
            loss = mssl.mssl_loss(Tensor(fused), Tensor(context), Tensor(w3))
            expected = contrastive_loop(fused[0], context[0], w3)
            assert abs(float(loss.data) - expected) < 1e-10

    def test_perfect_discrimination_drives_loss_to_zero(self):
        fused = np.array([[[[[5.0], [-5.0]]]]])  # [1,1,1,2,1]
        context = np.array([[[0.9], [-0.9]]])
        losses = [
            float(
                mssl.mssl_loss(
                    Tensor(fused), Tensor(context), Tensor(np.array([[scale]]))
                ).data
            )
            for scale in (1.0, 5.0, 20.0)
        ]
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-9

    def test_loss_is_nonnegative(self):
        b = rng(15)
        for _ in range(10):
            fused = b.standard_normal((2, 1, 2, 3, 4))
            context = b.random((2, 3, 4))
            w3 = b.standard_normal((4, 4))
            loss = mssl.mssl_loss(Tensor(fused), Tensor(context), Tensor(w3))
            assert float(loss.data) >= 0.0

    def test_modality_permutation_leaves_loss_unchanged(self):
        b = rng(16)
        fused = b.standard_normal((1, 2, 2, 3, 4))
        context = b.random((1, 3, 4))
        w3 = b.standard_normal((4, 4))
        base = float(mssl.mssl_loss(Tensor(fused), Tensor(context), Tensor(w3)).data)
        perm = np.array([2, 0, 1])
        permuted = float(
            mssl.mssl_loss(
                Tensor(fused[:, :, :, perm]), Tensor(context[:, perm]), Tensor(w3)
            ).data
        )
        assert abs(base - permuted) < 1e-10

    def test_single_modality_warns_and_keeps_positives(self):
        fused = Tensor(rng(17).standard_normal((1, 2, 2, 1, 3)))
        context = Tensor(rng(18).random((1, 1, 3)))
        w3 = Tensor(np.zeros((3, 3)))
        with pytest.warns(UserWarning, match="single modality"):
            loss = mssl.mssl_loss(fused, context, w3)
        assert abs(float(loss.data) - 4 * math.log(2)) < 1e-12  # positives only

    def test_batch_mean_reduction(self):
        b = rng(20)
        one = b.standard_normal((1, 1, 2, 2, 3))
        two = b.standard_normal((1, 1, 2, 2, 3))
        context = b.random((1, 2, 3))
        w3 = b.standard_normal((3, 3))
        singles = [
            float(mssl.mssl_loss(Tensor(f), Tensor(context), Tensor(w3)).data)
            for f in (one, two)
        ]
        both = mssl.mssl_loss(
            Tensor(np.concatenate([one, two])),
            Tensor(np.concatenate([context, context])),
            Tensor(w3),
        )
        assert abs(float(both.data) - np.mean(singles)) < 1e-12
