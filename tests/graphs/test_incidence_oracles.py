"""The graphs are incidence products; these pin them to the pair-loop builders.

The oracles below are the Python loops that built the symptom-herb graph and
the co-occurrence counts before the corpus was held as CSR id arrays.  The
products must equal them byte for byte: ``indptr``, ``indices``, ``data``,
their dtypes and scipy's canonical-format flags.
"""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data import IdSets, PrescriptionDataset
from repro.experiments.datasets import experiment_split
from repro.graphs import (
    SymptomHerbGraph,
    build_herb_synergy_graph,
    build_symptom_synergy_graph,
    cooccurrence_counts,
)


def bipartite_oracle(dataset):
    rows = []
    cols = []
    for prescription in dataset:
        for symptom in prescription.symptoms:
            for herb in prescription.herbs:
                rows.append(symptom)
                cols.append(herb)
    data = np.ones(len(rows), dtype=np.float64)
    adjacency = sp.coo_matrix(
        (data, (rows, cols)), shape=(dataset.num_symptoms, dataset.num_herbs)
    ).tocsr()
    adjacency.sum_duplicates()
    adjacency.data = np.ones_like(adjacency.data)
    return adjacency


def cooccurrence_oracle(item_sets, num_items):
    counter = Counter()
    for items in item_sets:
        unique = sorted(set(items))
        for a, b in combinations(unique, 2):
            counter[(a, b)] += 1
    if not counter:
        return sp.csr_matrix((num_items, num_items), dtype=np.float64)
    rows, cols, data = [], [], []
    for (a, b), count in counter.items():
        rows.extend((a, b))
        cols.extend((b, a))
        data.extend((count, count))
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(num_items, num_items), dtype=np.float64)
    return matrix.tocsr()


def assert_same_csr(actual, expected):
    assert actual.format == expected.format == "csr"
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        a, e = getattr(actual, name), getattr(expected, name)
        assert a.dtype == e.dtype, name
        assert a.tobytes() == e.tobytes(), name
    assert actual.has_canonical_format == expected.has_canonical_format
    assert actual.has_sorted_indices == expected.has_sorted_indices


def random_sets(rng, count, num_items, max_size):
    """Unsorted sets with repeats, singletons, and ids at both vocabulary ends."""
    sets = [
        tuple(rng.integers(0, num_items, size=rng.integers(1, max_size + 1)).tolist())
        for _ in range(count)
    ]
    sets[0] = (num_items - 1, 0, num_items - 1)
    sets[1] = (0,)
    sets[2] = (num_items - 1,)
    return sets


@pytest.fixture(
    scope="module",
    params=[
        "random-40",
        "random-300",
        "random-3",
        "smoke-train",
        "smoke-test",
        "default-train",
        "default-test",
    ],
)
def dataset(request):
    name, _, part = request.param.partition("-")
    if name != "random":
        train, test = experiment_split(name)
        return train if part == "train" else test
    count = int(part)
    num_symptoms, num_herbs = {40: (5, 7), 300: (30, 60), 3: (1, 2)}[count]
    rng = np.random.default_rng(count)
    pairs = zip(random_sets(rng, count, num_symptoms, 6), random_sets(rng, count, num_herbs, 9))
    return PrescriptionDataset.from_id_sets(pairs, num_symptoms, num_herbs)


class TestGraphsMatchPairLoops:
    def test_symptom_herb_graph(self, dataset):
        graph = SymptomHerbGraph.from_dataset(dataset)
        assert_same_csr(graph._adjacency, bipartite_oracle(dataset))

    @pytest.mark.parametrize("threshold", [0, 2, 5])
    def test_synergy_graphs(self, dataset, threshold):
        for build, sets, size in (
            (build_symptom_synergy_graph, dataset.symptom_sets(), dataset.num_symptoms),
            (build_herb_synergy_graph, dataset.herb_sets(), dataset.num_herbs),
        ):
            graph = build(dataset, threshold=threshold)
            counts = cooccurrence_oracle(sets, size)
            assert_same_csr(graph._counts, counts)
            adjacency = counts.copy()
            adjacency.data = (adjacency.data > threshold).astype(np.float64)
            adjacency.eliminate_zeros()
            assert_same_csr(graph._adjacency, adjacency)


class TestCooccurrenceCounts:
    @pytest.mark.parametrize("seed", range(5))
    def test_raw_sets_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        num_items = int(rng.integers(2, 40))
        sets = random_sets(rng, int(rng.integers(3, 60)), num_items, 8)
        expected = cooccurrence_oracle(sets, num_items)
        assert_same_csr(cooccurrence_counts(sets, num_items), expected)
        assert_same_csr(cooccurrence_counts(IdSets.from_sets(sets), num_items), expected)
        assert_same_csr(cooccurrence_counts(iter(sets), num_items), expected)

    @pytest.mark.parametrize(
        "sets", [[], [(3,)], [(0,), (4,), (2, 2)], [()]], ids=["none", "one", "singletons", "empty"]
    )
    def test_no_pairs_give_a_zero_float64_matrix(self, sets):
        counts = cooccurrence_counts(sets, 5)
        assert counts.nnz == 0 and counts.dtype == np.float64
        assert_same_csr(counts, cooccurrence_oracle(sets, 5))

    def test_unused_items_have_empty_rows(self):
        # items 1 and 3 never appear: their diagonal entries never exist
        assert_same_csr(
            cooccurrence_counts([(4, 0), (0, 2, 4)], 5),
            cooccurrence_oracle([(4, 0), (0, 2, 4)], 5),
        )
