"""Temporal machinery: masks, positions, sequence assembly, attention."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lignn.model import TemporalConfig, build_prefix_causal_mask, sinusoidal_positions

from oracles import (
    AttentionParams,
    assemble_temporal_sequence,
    long_term_target_pairs,
    masked_attention_forward,
)


class TestPrefixCausalMask:
    def test_hand_expanded_h2_n3(self):
        mask = build_prefix_causal_mask(2, 3)
        expected = np.array(
            [
                [1, 1, 1, 1, 1],
                [1, 1, 1, 1, 1],
                [1, 1, 1, 0, 0],
                [1, 1, 1, 1, 0],
                [1, 1, 1, 1, 1],
            ],
            dtype=bool,
        )
        np.testing.assert_array_equal(mask, expected)

    def test_n_zero_all_true(self):
        mask = build_prefix_causal_mask(3, 0)
        assert mask.shape == (3, 3)
        assert mask.all()

    def test_last_activity_row_attends_everything(self):
        mask = build_prefix_causal_mask(4, 10)
        assert mask[-1].all()

    def test_regular_causal_row_counts(self):
        mask = build_prefix_causal_mask(2, 5, "regular_causal")
        for i in range(7):
            assert mask[i].sum() == i + 1

    def test_every_row_nonempty(self):
        for mode in ("prefix_causal", "regular_causal"):
            mask = build_prefix_causal_mask(3, 7, mode)
            assert mask.any(axis=1).all()


class TestSinusoidalPositions:
    def test_position_zero_alternates(self):
        table = sinusoidal_positions(4, 6)
        np.testing.assert_allclose(table[0], [0, 1, 0, 1, 0, 1])

    def test_bounded(self):
        table = sinusoidal_positions(50, 8)
        assert np.all(table >= -1.0) and np.all(table <= 1.0)

    def test_direct_value(self):
        table = sinusoidal_positions(2, 4)
        assert table[1, 0] == pytest.approx(math.sin(1.0))
        assert table[1, 0] == pytest.approx(0.84147, abs=1e-5)
        assert table[1, 1] == pytest.approx(math.cos(1.0))

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            sinusoidal_positions(3, 5)


class TestAssemble:
    def test_single_head_no_activities(self):
        cfg = TemporalConfig(heads=1, token_dim=2, seq_len=0, future_len=0,
                             positional_mode="none")
        seq = assemble_temporal_sequence(np.array([3.0, 4.0]), [], cfg)
        assert seq.tokens.shape == (1, 2)
        np.testing.assert_allclose(seq.tokens[0], [3.0, 4.0])

    def test_row_major_reshape(self):
        cfg = TemporalConfig(heads=2, token_dim=2, seq_len=1, future_len=0,
                             positional_mode="none")
        seq = assemble_temporal_sequence(np.array([1.0, 2.0, 3.0, 4.0]), [np.zeros(2)], cfg)
        np.testing.assert_allclose(seq.tokens[0], [1.0, 2.0])
        np.testing.assert_allclose(seq.tokens[1], [3.0, 4.0])
        # round-trip flatten restores the encoder output
        np.testing.assert_allclose(seq.tokens[:2].reshape(-1), [1, 2, 3, 4])

    def test_left_padding_and_mask_columns(self):
        cfg = TemporalConfig(heads=1, token_dim=2, seq_len=5, future_len=1,
                             positional_mode="none")
        acts = [np.ones(2) * k for k in (1, 2, 3)]
        seq = assemble_temporal_sequence(np.zeros(2), acts, cfg)
        assert list(seq.activity_real) == [False, False, True, True, True]
        # pad columns (tokens 1 and 2) disabled in every row
        assert not seq.mask[:, 1].any()
        assert not seq.mask[:, 2].any()
        # every row still attends at least the head token
        assert seq.mask.any(axis=1).all()
        np.testing.assert_allclose(seq.tokens[1], 0.0)
        np.testing.assert_allclose(seq.tokens[3], [1.0, 1.0])

    def test_truncates_to_last_n(self):
        cfg = TemporalConfig(heads=1, token_dim=2, seq_len=2, future_len=1,
                             positional_mode="none")
        acts = [np.ones(2) * k for k in (1, 2, 3, 4)]
        seq = assemble_temporal_sequence(np.zeros(2), acts, cfg)
        np.testing.assert_allclose(seq.tokens[1], [3.0, 3.0])
        np.testing.assert_allclose(seq.tokens[2], [4.0, 4.0])

    def test_positions_only_on_activities(self):
        cfg = TemporalConfig(heads=2, token_dim=4, seq_len=3, future_len=1)
        seq = assemble_temporal_sequence(np.zeros(8), [np.ones(4)], cfg)
        np.testing.assert_allclose(seq.positions[:2], 0.0)
        np.testing.assert_allclose(seq.positions[2:], sinusoidal_positions(3, 4))

    def test_dim_mismatch_rejected(self):
        cfg = TemporalConfig(heads=1, token_dim=2, seq_len=2, future_len=1)
        with pytest.raises(ValueError):
            assemble_temporal_sequence(np.zeros(2), [np.zeros(3)], cfg)


class TestMaskedAttention:
    def setup_method(self):
        rng = np.random.default_rng(3)
        d = 4
        self.params = AttentionParams(
            rng.normal(size=(d, d)), rng.normal(size=(d, d)), rng.normal(size=(d, d))
        )
        self.tokens = rng.normal(size=(5, d))

    def test_identity_mask_returns_values(self):
        out = masked_attention_forward(self.tokens, np.eye(5, dtype=bool), self.params)
        np.testing.assert_allclose(out, self.tokens @ self.params.w_value, atol=1e-12)

    def test_equal_tokens_equal_outputs(self):
        tokens = np.tile(self.tokens[0], (5, 1))
        out = masked_attention_forward(tokens, np.ones((5, 5), dtype=bool), self.params)
        for row in out[1:]:
            np.testing.assert_allclose(row, out[0], atol=1e-12)

    def test_masked_independence_zero_ulp(self):
        mask = np.ones((5, 5), dtype=bool)
        mask[:, 3] = False
        mask[3, 3] = True  # keep row 3 nonempty via itself
        out1 = masked_attention_forward(self.tokens, mask, self.params)
        perturbed = self.tokens.copy()
        perturbed[3] += 1e6
        out2 = masked_attention_forward(perturbed, mask, self.params)
        rows_unaffected = [i for i in range(5) if not mask[i, 3]]
        assert rows_unaffected
        for i in rows_unaffected:
            assert np.array_equal(out1[i], out2[i])  # 0 ulp

    def test_outputs_in_convex_hull_of_values(self):
        mask = build_prefix_causal_mask(2, 3)
        out = masked_attention_forward(self.tokens, mask, self.params)
        v = self.tokens @ self.params.w_value
        for i in range(5):
            allowed = v[mask[i]]
            lo, hi = allowed.min(axis=0), allowed.max(axis=0)
            assert np.all(out[i] >= lo - 1e-12) and np.all(out[i] <= hi + 1e-12)

    def test_empty_row_rejected(self):
        mask = np.ones((5, 5), dtype=bool)
        mask[2, :] = False
        with pytest.raises(ValueError):
            masked_attention_forward(self.tokens, mask, self.params)


class TestLongTermPairs:
    def test_hand_expansion_n30(self):
        cfg = TemporalConfig(heads=1, token_dim=2, seq_len=30, future_len=10)
        pairs = long_term_target_pairs(cfg)
        assert len(pairs) == 10
        assert all(p == 19 for p, _ in pairs)
        assert [t for _, t in pairs] == list(range(20, 30))

    def test_single_future(self):
        cfg = TemporalConfig(heads=1, token_dim=2, seq_len=5, future_len=1)
        assert long_term_target_pairs(cfg) == [(3, 4)]

    @pytest.mark.parametrize("future", [10, 20, 40])
    def test_reported_future_lengths(self, future):
        cfg = TemporalConfig(heads=4, token_dim=2, seq_len=50, future_len=future)
        pairs = long_term_target_pairs(cfg)
        n1 = 50 - future
        assert len(pairs) == future
        assert pairs[0] == (n1 - 1, n1)
        assert pairs[-1] == (n1 - 1, 49)

    def test_zero_future_empty(self):
        cfg = TemporalConfig(heads=1, token_dim=2, seq_len=5, future_len=0)
        assert long_term_target_pairs(cfg) == []
