"""Relevance-driven masking and the additive grid embedding."""

import numpy as np
from scipy.special import softmax as scipy_softmax

from mossl import augmentation as aug
from mossl.tensor import Tensor, gradients
from mossl.training import window_mask_uniforms


def rng(seed=0):
    return np.random.default_rng(seed)


class TestRelevance:
    def test_zero_weight_gives_uniform(self):
        h = Tensor(rng(1).standard_normal((2, 1, 3, 4, 5)))
        phi = aug.modality_relevance(h, Tensor(np.zeros(5)))
        assert np.allclose(phi.data, 0.25, atol=1e-15)

    def test_single_modality_is_one(self):
        h = Tensor(rng(2).standard_normal((1, 1, 2, 1, 3)))
        phi = aug.modality_relevance(h, Tensor(rng(3).standard_normal(3)))
        assert np.allclose(phi.data, 1.0, atol=1e-15)

    def test_matches_scipy_softmax(self):
        h = rng(4).standard_normal((2, 1, 3, 4, 6))
        w = rng(5).standard_normal(6)
        phi = aug.modality_relevance(Tensor(h), Tensor(w))
        assert np.max(np.abs(phi.data - scipy_softmax(h @ w, axis=-1))) < 1e-12

    def test_rows_sum_to_one(self):
        h = rng(6).standard_normal((3, 2, 2, 5, 4))
        phi = aug.modality_relevance(Tensor(h), Tensor(rng(7).standard_normal(4)))
        assert np.max(np.abs(phi.data.sum(axis=-1) - 1.0)) < 1e-12


class TestMaskSampling:
    """The mask ``forward_pass`` applies: ``mask_from_uniforms`` on training's uniforms."""

    def mask(self, phi, seed, window=0, input_steps=4):
        prob = aug.input_mask_probability(Tensor(phi), input_steps)
        return aug.mask_from_uniforms(prob, window_mask_uniforms(seed, 0, window, prob.shape))

    def test_full_relevance_never_masks(self):
        assert not self.mask(np.full((1, 20, 3), 1.0), seed=0).any()

    def test_fixed_seed_reproduces_mask(self):
        phi = rng(8).uniform(0.1, 0.9, size=(1, 6, 3))
        assert np.array_equal(self.mask(phi, seed=5), self.mask(phi, seed=5))
        assert not np.array_equal(self.mask(phi, seed=5), self.mask(phi, seed=6))

    def test_empirical_rate_tracks_probability(self):
        phi = np.full((1, 2, 4), 0.25)
        rate = np.mean([self.mask(phi, seed=9, window=i, input_steps=10) for i in range(2000)])
        assert abs(rate - 0.75) < 0.01

    def test_input_probability_broadcasts_over_time(self):
        phi = Tensor(rng(11).uniform(0.2, 0.8, size=(2, 1, 3, 4)))
        prob = aug.input_mask_probability(phi, input_steps=6)
        assert prob.shape == (2, 6, 3, 4)
        assert np.allclose(prob.data[:, 0], prob.data[:, 5])
        assert np.allclose(prob.data[:, 0], 1.0 - phi.data[:, 0], atol=1e-12)

    def test_uniforms_for_mask_reproduce_it_at_every_probability(self):
        # probabilities 0 and 1 are the edges where a pinned cell could flip
        prob = Tensor(np.concatenate([[0.0, 1.0, 1e-300], rng(12).random(997)]))
        mask = aug.mask_from_uniforms(prob, rng(13).random(prob.shape))
        assert np.array_equal(aug.mask_from_uniforms(prob, aug.uniforms_for_mask(mask)), mask)


class TestAugmentedInput:
    def grid(self, t=3, n=2, m=2, hidden=4, seed=12):
        b = rng(seed)
        x = Tensor(b.standard_normal((1, t, n, m)))
        emb = aug.EmbeddingParams(
            time=Tensor(b.standard_normal((t, hidden)), requires_grad=True),
            node=Tensor(b.standard_normal((n, hidden)), requires_grad=True),
            modality=Tensor(b.standard_normal((m, hidden)), requires_grad=True),
        )
        return x, emb

    def test_all_masked_zeroes_value_channel(self):
        x, emb = self.grid()
        out = aug.build_augmented_input(x, Tensor(np.zeros(x.shape)), emb)
        assert out.shape == (1, 3, 2, 2, 5)
        assert np.allclose(out.data[..., 0], 0.0)

    def test_unmasked_keeps_values_and_embeddings(self):
        x, emb = self.grid()
        out = aug.build_augmented_input(x, Tensor(np.ones(x.shape)), emb)
        assert np.array_equal(out.data[..., 0], x.data)
        expected = (
            emb.time.data[:, None, None, :]
            + emb.node.data[None, :, None, :]
            + emb.modality.data[None, None, :, :]
        )
        assert np.allclose(out.data[0, ..., 1:], expected, atol=1e-12)

    def test_embeddings_receive_gradient(self):
        x, emb = self.grid()
        out = aug.build_augmented_input(x, Tensor(np.ones(x.shape)), emb)
        params = {"time": emb.time, "node": emb.node, "modality": emb.modality}
        grads = gradients((out * out).sum(), params)
        for name, g in grads.items():
            assert np.abs(g).max() > 0.0, name


class TestKeepFactor:
    def test_hard_draw_is_constant_by_default(self):
        prob = Tensor(np.full((2, 4, 1, 2), 0.5), requires_grad=False)
        uniforms = rng(13).random((2, 4, 1, 2))
        keep = aug.keep_factor(aug.mask_from_uniforms(prob, uniforms))
        assert not keep.requires_grad
        assert set(np.unique(keep.data)) <= {0.0, 1.0}
        assert np.array_equal(keep.data == 0.0, uniforms < 0.5)
