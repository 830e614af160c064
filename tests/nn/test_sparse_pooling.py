"""Tests for the CSR pooling builder and the sparse ``scatter_mean``.

The seed's dense ``pool[i, indices] = 1/len`` assignment silently dropped
duplicate ids inside a set, so ``[2, 2]`` pooled to ``0.5 * row2`` instead of
``row2``.  The sparse rewrite must compute the exact multiset mean.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import SparseMatrix, Tensor, build_pooling_matrix, scatter_mean


def coo_reference(sets, num_columns, normalize="mean"):
    """The pooling matrix assembled in COO form and converted to CSR."""
    lengths = np.array([len(s) for s in sets], dtype=np.int64)
    rows = np.repeat(np.arange(len(sets), dtype=np.int64), lengths)
    cols = np.concatenate([np.asarray(s, dtype=np.int64) for s in sets])
    if normalize == "mean":
        weights = np.repeat(1.0 / np.maximum(lengths, 1), lengths)
    else:
        weights = np.ones(cols.size)
    coo = sp.coo_matrix((weights, (rows, cols)), shape=(len(sets), num_columns))
    return SparseMatrix(coo.tocsr()).scipy


def assert_same_csr(actual, expected):
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert actual.shape == expected.shape


class TestBuildPoolingMatrix:
    def test_mean_weights(self):
        pool = build_pooling_matrix([(0, 2)], num_columns=4).toarray()
        np.testing.assert_allclose(pool, [[0.5, 0.0, 0.5, 0.0]])

    def test_duplicates_accumulate(self):
        pool = build_pooling_matrix([(1, 1, 3)], num_columns=4).toarray()
        np.testing.assert_allclose(pool, [[0.0, 2.0 / 3.0, 0.0, 1.0 / 3.0]])

    def test_sum_mode(self):
        pool = build_pooling_matrix([(0, 0, 1)], num_columns=3, normalize="sum").toarray()
        np.testing.assert_allclose(pool, [[2.0, 1.0, 0.0]])

    def test_empty_set_gives_zero_row(self):
        pool = build_pooling_matrix([(), (1,)], num_columns=3).toarray()
        np.testing.assert_allclose(pool, [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_no_sets(self):
        pool = build_pooling_matrix([], num_columns=3)
        assert pool.shape == (0, 3)

    def test_all_empty_sets(self):
        pool = build_pooling_matrix([(), ()], num_columns=3).toarray()
        np.testing.assert_allclose(pool, np.zeros((2, 3)))

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            build_pooling_matrix([(3,)], num_columns=3)
        with pytest.raises(IndexError):
            build_pooling_matrix([(-1,)], num_columns=3)

    def test_invalid_normalize_rejected(self):
        with pytest.raises(ValueError):
            build_pooling_matrix([(0,)], num_columns=2, normalize="max")
        with pytest.raises(ValueError):
            build_pooling_matrix([(0,)], num_columns=0)


class TestDirectCsr:
    """Sets without repeated ids skip COO assembly and give the same arrays."""

    @pytest.mark.parametrize("normalize", ["mean", "sum"])
    def test_matches_coo_on_random_blocks(self, normalize):
        rng = np.random.default_rng(7)
        for _ in range(50):
            num_columns = int(rng.integers(1, 40))
            rows = int(rng.integers(1, 70))
            sets = [
                # unsorted ids, empty sets included; a tuple, a list or an array
                [tuple, list, np.array][i % 3](
                    rng.choice(num_columns, size=rng.integers(0, num_columns + 1), replace=False)
                )
                for i in range(rows)
            ]
            if sum(len(s) for s in sets) == 0:
                continue
            actual = build_pooling_matrix(sets, num_columns, normalize=normalize).scipy
            assert_same_csr(actual, coo_reference(sets, num_columns, normalize))

    def test_one_row_and_empty_rows(self):
        for sets in ([(4, 0, 2)], [(), (3, 1), ()], [(5,)]):
            assert_same_csr(build_pooling_matrix(sets, 6).scipy, coo_reference(sets, 6))

    def test_repeated_ids_take_the_coo_path(self, monkeypatch):
        import repro.nn.sparse as sparse

        calls = []
        real = sparse.sp.coo_matrix

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sparse.sp, "coo_matrix", counting)
        distinct = [(3, 1), (0, 2, 1)]
        build_pooling_matrix(distinct, 4)
        assert calls == []
        # a repeat in any row (not one shared across rows) sends the block to COO
        repeated = [(3, 1), (0, 2, 0)]
        actual = build_pooling_matrix(repeated, 4).scipy
        assert len(calls) == 1
        monkeypatch.undo()
        assert_same_csr(actual, coo_reference(repeated, 4))
        np.testing.assert_allclose(actual.toarray()[1], [2.0 / 3.0, 0.0, 1.0 / 3.0, 0.0])


class TestScatterMean:
    def test_duplicate_ids_exact_mean(self):
        table = Tensor(np.arange(12, dtype=np.float64).reshape(4, 3))
        pooled = scatter_mean(table, [(2, 2)]).data
        # the multiset mean of {row2, row2} is row2 itself — the seed's dense
        # pooling matrix returned 0.5 * row2 here
        np.testing.assert_allclose(pooled, table.data[2][None, :])

    def test_mixed_duplicates(self):
        table = Tensor(np.array([[1.0, 10.0], [2.0, 20.0], [4.0, 40.0]]))
        pooled = scatter_mean(table, [(0, 0, 1)]).data
        np.testing.assert_allclose(pooled, [[4.0 / 3.0, 40.0 / 3.0]])

    def test_matches_numpy_mean_without_duplicates(self):
        rng = np.random.default_rng(3)
        table = Tensor(rng.normal(size=(20, 5)))
        sets = [tuple(rng.choice(20, size=size, replace=False)) for size in (1, 3, 7)]
        pooled = scatter_mean(table, sets).data
        expected = np.stack([table.data[list(s)].mean(axis=0) for s in sets])
        np.testing.assert_allclose(pooled, expected)

    def test_matches_numpy_mean_with_duplicates(self):
        rng = np.random.default_rng(4)
        table = Tensor(rng.normal(size=(10, 4)))
        sets = [tuple(rng.integers(0, 10, size=size)) for size in (2, 5, 9)]
        pooled = scatter_mean(table, sets).data
        expected = np.stack([table.data[list(s)].mean(axis=0) for s in sets])
        np.testing.assert_allclose(pooled, expected)

    def test_empty_set_pools_to_zero(self):
        table = Tensor(np.ones((3, 2)))
        pooled = scatter_mean(table, [(), (0,)]).data
        np.testing.assert_allclose(pooled, [[0.0, 0.0], [1.0, 1.0]])

    def test_gradient_flows_through_sparse_pooling(self):
        table = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), requires_grad=True)
        pooled = scatter_mean(table, [(0, 0, 2)])
        pooled.sum().backward()
        # d(sum)/d(row) is the total pooling weight that row received
        np.testing.assert_allclose(table.grad, [[2.0 / 3.0] * 2, [0.0] * 2, [1.0 / 3.0] * 2])
