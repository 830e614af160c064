"""Tests for score_herb_tiles, the fixed tile grid behind every scoring path."""

import numpy as np
import pytest

from repro.models.base import HERB_BLOCK, score_herb_tiles


def _tile_by_tile(syndrome, herbs, row_block):
    """Each (row_block, herb_block) gemm on its own, then concatenated."""
    return np.hstack(
        [
            np.vstack(
                [
                    syndrome[row : row + row_block] @ herbs[col : col + HERB_BLOCK].T
                    for row in range(0, syndrome.shape[0], row_block)
                ]
            )
            for col in range(0, herbs.shape[0], HERB_BLOCK)
        ]
    )


class TestScoreHerbTiles:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("num_herbs", [1, HERB_BLOCK - 1, HERB_BLOCK + 1, 3 * HERB_BLOCK + 7])
    @pytest.mark.parametrize("rows,row_block", [(64, 64), (128, 64), (3, 1), (12, 4)])
    def test_bit_identical_to_separate_tile_gemms(self, dtype, num_herbs, rows, row_block):
        rng = np.random.default_rng(num_herbs + rows)
        syndrome = rng.normal(size=(rows, 16)).astype(dtype)
        herbs = rng.normal(size=(num_herbs, 16)).astype(dtype)
        scores = score_herb_tiles(syndrome, herbs, row_block=row_block)
        expected = _tile_by_tile(syndrome, herbs, row_block)
        assert scores.dtype == expected.dtype
        assert scores.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_many_tiles_and_row_groups_at_serving_width(self, dtype):
        """The stacked call over 40 tiles × 3 row groups, at dim 64."""
        rng = np.random.default_rng(7)
        syndrome = rng.normal(size=(12, 64)).astype(dtype)
        herbs = rng.normal(size=(40 * HERB_BLOCK + 13, 64)).astype(dtype)
        scores = score_herb_tiles(syndrome, herbs, row_block=4)
        assert scores.tobytes() == _tile_by_tile(syndrome, herbs, 4).tobytes()

    def test_empty_shapes(self):
        assert score_herb_tiles(np.zeros((4, 3)), np.zeros((0, 3)), row_block=4).shape == (4, 0)
        assert score_herb_tiles(np.zeros((0, 3)), np.ones((5, 3)), row_block=4).shape == (0, 5)

    def test_rows_must_fill_row_blocks(self):
        with pytest.raises(ValueError, match="multiple of row_block"):
            score_herb_tiles(np.zeros((3, 2)), np.zeros((5, 2)), row_block=2)
