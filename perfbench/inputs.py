"""Seeded input generation: the same seed gives byte-identical inputs.

Each workload draws from its own ``numpy`` stream, ``default_rng([seed,
stream])``, so adding draws to one workload never shifts another's inputs.
The program under test only ever receives the generated files and lines.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, NamedTuple, Tuple

import numpy as np

from common import cache_dir, child_env

#: Requested list lengths, mixed in every request-driven workload.
KS = (5, 10, 20)

SERVE_STREAM, BATCH_STREAM, TOPK_STREAM = 1, 2, 3

#: ``run_batch_file`` input files: records per file (4 default windows).
BATCH_FILE_RECORDS = 4096

#: ``topk_*``: a 50k-herb clustered vocabulary, queried in 64-row calls.
TOPK_HERBS = 50_000
TOPK_DIM = 64
TOPK_CLUSTERS = 512
TOPK_ROWS = 64
#: Distinct query blocks; calls cycle through them so every answer is checked.
TOPK_BLOCKS = 32


class ServeRequest(NamedTuple):
    line: str  #: the request line sent on the wire
    tokens: Tuple[str, ...]  #: symptom tokens, in order
    k: int
    json_mode: bool


def _corpus_symptom_tokens() -> List[Tuple[str, ...]]:
    """Symptom-token sets of the default-scale corpus the served model knows."""
    from repro.experiments.datasets import experiment_corpus

    dataset = experiment_corpus("default").dataset
    vocab = dataset.symptom_vocab
    return [tuple(vocab.decode(p.symptoms)) for p in dataset]


def serve_requests(seed: int, count: int) -> List[ServeRequest]:
    """``count`` requests: half text, half JSON lines, ``k`` drawn from ``KS``."""
    sets = _corpus_symptom_tokens()
    rng = np.random.default_rng([seed, SERVE_STREAM])
    picks = rng.integers(len(sets), size=count)
    ks = rng.integers(len(KS), size=count)
    json_modes = rng.random(count) < 0.5
    requests = []
    for pick, k_index, json_mode in zip(picks, ks, json_modes):
        tokens, k = sets[int(pick)], KS[int(k_index)]
        if json_mode:
            line = json.dumps({"symptoms": list(tokens), "k": k})
        else:
            line = f"k={k} " + " ".join(tokens)
        requests.append(ServeRequest(line, tokens, k, bool(json_mode)))
    return requests


def batch_records(seed: int, file_index: int) -> List[dict]:
    """One ``repro batch`` input file's records (valid, ``k`` drawn from ``KS``)."""
    sets = _corpus_symptom_tokens()
    rng = np.random.default_rng([seed, BATCH_STREAM, file_index])
    picks = rng.integers(len(sets), size=BATCH_FILE_RECORDS)
    ks = rng.integers(len(KS), size=BATCH_FILE_RECORDS)
    return [
        {"id": f"rx-{file_index}-{row:05d}", "symptoms": list(sets[int(p)]), "k": KS[int(k)]}
        for row, (p, k) in enumerate(zip(picks, ks))
    ]


def write_batch_files(seed: int, count: int, directory: Path) -> List[Path]:
    paths = []
    for file_index in range(count):
        path = directory / f"batch-{file_index}.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            for record in batch_records(seed, file_index):
                handle.write(json.dumps(record) + "\n")
        paths.append(path)
    return paths


def write_paper_corpus(seed: int, path: Path) -> None:
    """Generate the paper-size corpus for ``seed`` and save it at ``path``."""
    from repro.data.loaders import save_corpus
    from repro.data.synthetic import SyntheticTCMConfig, generate_corpus

    save_corpus(generate_corpus(SyntheticTCMConfig.paper_scale(seed=seed)).dataset, path)


def paper_corpus(seed: int) -> Path:
    """The paper-size corpus for ``seed``, written once to the cache directory.

    ``SyntheticTCMConfig.paper_scale`` (26,360 prescriptions, 360 symptoms,
    753 herbs) takes ~6 s of Python to generate, so a run generates it
    before timing and later runs with the same seed and sources reuse it.
    """
    path = cache_dir() / f"paper-corpus-{seed}.tsv"
    if not path.exists():
        partial = path.with_suffix(f".{os.getpid()}.tmp")
        write_paper_corpus(seed, partial)
        partial.replace(path)
    return path


def default_checkpoint() -> Path:
    """The default-scale SMGCN checkpoint serve and batch load (trained once).

    Training is benchmark work, done with ``repro train`` before any timing;
    the file is cached per source fingerprint, so a change to the program
    retrains it.
    """
    path = cache_dir() / "smgcn-default.npz"
    if not path.exists():
        partial = path.with_name(f"partial-{os.getpid()}.npz")
        subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "train",
                "--model",
                "SMGCN",
                "--scale",
                "default",
                "--checkpoint",
                str(partial),
            ],
            env=child_env(),
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=600,
        )
        partial.replace(path)
    return path


def topk_inputs(seed: int) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """``(vocabulary, query blocks, k per block)`` for the top-k workloads.

    The vocabulary is a Gaussian mixture (the structure real embedding
    spaces have and the regime IVF partitioning exists for); query rows are
    drawn near vocabulary rows.
    """
    rng = np.random.default_rng([seed, TOPK_STREAM])
    centers = rng.normal(scale=3.0, size=(TOPK_CLUSTERS, TOPK_DIM))
    herbs = centers[rng.integers(TOPK_CLUSTERS, size=TOPK_HERBS)]
    herbs += rng.normal(scale=0.4, size=herbs.shape)
    anchors = herbs[rng.integers(TOPK_HERBS, size=TOPK_BLOCKS * TOPK_ROWS)]
    queries = anchors + rng.normal(scale=0.2, size=anchors.shape)
    blocks = queries.reshape(TOPK_BLOCKS, TOPK_ROWS, TOPK_DIM)
    ks = [KS[int(i)] for i in rng.integers(len(KS), size=TOPK_BLOCKS)]
    return herbs, blocks, ks
