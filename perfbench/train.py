"""``train_paper``: ``Trainer.fit`` on a paper-size corpus, multilabel loss.

The corpus (``SyntheticTCMConfig.paper_scale``: 22,933 training
prescriptions after the default 13% test split, 360 symptoms, 753 herbs) is
generated from the seed and written to disk before timing.  Set-up loads it,
splits it, builds SMGCN with the default profile's config (graph
construction) and creates the trainer.  One untimed epoch warms up and is
checked bit for bit against ``ReferenceTrainer``; then ``Trainer.fit`` runs
one epoch per call until the run's seconds are spent.  Step latency is the time
between consecutive batches handed out by ``batch_iterator``, timed by a
generator wrapper (two clock reads per 256-prescription step).
"""

from __future__ import annotations

import copy
import gc
import math
import time
from pathlib import Path
from typing import List

from checks import losses_identical
from common import (
    INTERPRETER_AND_NUMPY,
    SETUP_REPEATS,
    ProbeLog,
    at_reference_speed,
    median,
    peak_rss_mb,
    percentile,
    run_worker,
)
from inputs import paper_corpus


def _setup(corpus: str, epochs: int):
    """Corpus load, split, ``SMGCN.from_dataset`` and trainer creation."""
    import numpy as np

    from repro.data.loaders import load_corpus
    from repro.experiments.datasets import get_profile
    from repro.models.smgcn import SMGCN
    from repro.training import Trainer

    profile = get_profile("default")
    dataset = load_corpus(corpus)
    train, _ = dataset.train_test_split(
        test_fraction=profile.test_fraction, rng=np.random.default_rng(profile.split_seed)
    )
    model = SMGCN.from_dataset(train, profile.smgcn_config())
    trainer = Trainer(profile.trainer_config(epochs=epochs))
    return train, model, trainer


def _timed_steps(steps: List[float], marks: List[int], probes: ProbeLog):
    """A ``batch_iterator`` stand-in that times each step in CPU seconds.

    A step runs from asking for a batch to asking for the next one; host
    probes run between steps and are not part of any step.  ``marks`` gets
    the number of run probes taken before each step.
    """
    import repro.training.trainer as trainer_module

    batch_iterator = trainer_module.batch_iterator

    def timed(*args, **kwargs):
        start = time.process_time()
        for batch in batch_iterator(*args, **kwargs):
            yield batch
            steps.append(time.process_time() - start)
            marks.append(len(probes.samples["run"]))
            probes.maybe("run")
            start = time.process_time()

    return timed


def measure(spec: dict) -> dict:
    """Worker side of the end-to-end run."""
    import repro.training.trainer as trainer_module
    from repro.experiments.datasets import get_profile
    from repro.training import ReferenceTrainer
    from tracing import patched

    probes = ProbeLog()
    setups = []
    for _ in range(SETUP_REPEATS):
        train = model = trainer = None
        gc.collect()
        probes.take("setup")
        started = time.process_time()
        train, model, trainer = _setup(spec["corpus"], epochs=1)
        setups.append(time.process_time() - started)
    probes.take("setup")
    reference_model = copy.deepcopy(model)
    warm = trainer.fit(model, train)
    steps: List[float] = []
    marks: List[int] = []
    epochs_cpu, losses = [], []
    started, probes_wall = time.perf_counter(), probes.wall_s
    with patched(trainer_module, "batch_iterator", _timed_steps(steps, marks, probes)):
        while time.perf_counter() - started < spec["seconds"]:
            probes_cpu, epoch_start = probes.cpu_s, time.process_time()
            losses.extend(trainer.fit(model, train).epoch_losses)
            epochs_cpu.append(time.process_time() - epoch_start - (probes.cpu_s - probes_cpu))
    wall = time.perf_counter() - started - (probes.wall_s - probes_wall)
    rss = peak_rss_mb()
    profile = get_profile("default")
    reference = ReferenceTrainer(profile.trainer_config(epochs=1)).fit(reference_model, train)
    return {
        "setups": setups,
        "prescriptions": len(train),
        "epochs_cpu_s": epochs_cpu,
        "wall_s": wall,
        "steps_s": steps,
        "step_marks": marks,
        "rss_mb": rss,
        "probes": probes.samples,
        "warm_losses": warm.epoch_losses,
        "reference_losses": reference.epoch_losses,
        "losses": losses,
    }


def run(seed: int, seconds: float, workdir: Path) -> dict:
    corpus = paper_corpus(seed)
    result = run_worker(
        {"module": "train", "entry": "measure", "corpus": str(corpus), "seconds": seconds},
        workdir,
    )
    failed = sum(not math.isfinite(loss) for loss in result["losses"])
    failed += not losses_identical(result["warm_losses"], result["reference_losses"])
    steps = result["steps_s"]
    epochs = len(result["epochs_cpu_s"])
    metrics, scaling = at_reference_speed(
        {
            "setup_s": median(result["setups"]),
            "throughput": epochs * result["prescriptions"] / sum(result["epochs_cpu_s"]),
            "p50_ms": percentile(steps, 50) * 1e3,
            "p90_ms": percentile(steps, 90) * 1e3,
            "peak_rss_mb": result["rss_mb"],
        },
        result["probes"],
        INTERPRETER_AND_NUMPY,
        steps,
        result["step_marks"],
    )
    return {
        "metrics": metrics,
        "attempted": epochs + 1,
        "failed": failed,
        "detail": dict(
            scaling,
            epochs=epochs,
            steps=len(steps),
            prescriptions_per_wall_s=epochs * result["prescriptions"] / result["wall_s"],
            setup_runs_cpu_s=result["setups"],
            first_epoch_loss=result["warm_losses"][0],
        ),
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def measure_traced(spec: dict) -> dict:
    """Worker side: a warm-up epoch, one untraced epoch, one traced epoch."""
    import repro.nn.optim as optim
    import repro.nn.tensor as tensor
    import repro.training.trainer as trainer_module
    from repro.models.smgcn import SMGCN
    from tracing import Spans, patched

    spans = Spans()
    with patched(SMGCN, "from_dataset", spans.wrap("from_dataset", SMGCN.from_dataset)):
        train, model, trainer = _setup(spec["corpus"], epochs=1)
    trainer.fit(model, train)  # warm-up
    started = time.perf_counter()
    plain = trainer.fit(model, train)
    plain_s = time.perf_counter() - started

    pools = []
    pool_class = trainer_module.GradientBufferPool

    def recording_pool():
        pools.append(pool_class())
        return pools[-1]

    misses_after_first_batch = []
    batch_iterator = trainer_module.batch_iterator

    def traced_batches(*args, **kwargs):
        for batch in batch_iterator(*args, **kwargs):
            start = time.perf_counter()
            yield batch
            spans.records["batch"].append((start, time.perf_counter()))
            if not misses_after_first_batch:
                misses_after_first_batch.append(pools[-1].misses)

    with patched(trainer_module, "batch_iterator", traced_batches), patched(
        trainer_module, "GradientBufferPool", recording_pool
    ), patched(model, "encode", spans.wrap("encode", model.encode)), patched(
        model, "induce_syndrome", spans.wrap("induce_syndrome", model.induce_syndrome)
    ), patched(
        trainer_module,
        "weighted_multilabel_mse",
        spans.wrap("loss", trainer_module.weighted_multilabel_mse),
    ), patched(
        tensor.Tensor, "backward", spans.wrap("backward", tensor.Tensor.backward)
    ), patched(
        optim.Adam, "step", spans.wrap("step", optim.Adam.step)
    ):
        started = time.perf_counter()
        traced = trainer.fit(model, train)
        traced_s = time.perf_counter() - started
    losses = plain.epoch_losses + traced.epoch_losses
    return {
        "metrics": {
            "training.batch_ms": spans.median_ms("batch"),
            "models.encode_ms": spans.median_ms("encode"),
            "models.induce_syndrome_ms": spans.median_ms("induce_syndrome"),
            "nn.loss_ms": spans.median_ms("loss"),
            "nn.backward_ms": spans.median_ms("backward"),
            "nn.step_ms": spans.median_ms("step"),
            "nn.pool_misses": pools[-1].misses - misses_after_first_batch[0],
            "models.from_dataset_s": spans.total("from_dataset"),
            "train_paper.span_coverage": spans.total("batch") / traced_s,
            "train_paper.trace_overhead": traced_s / plain_s - 1.0,
        },
        "losses": losses,
    }


def run_traced(seed: int, workdir: Path) -> dict:
    corpus = paper_corpus(seed)
    result = run_worker(
        {"module": "train", "entry": "measure_traced", "corpus": str(corpus)}, workdir
    )
    return {
        "metrics": result["metrics"],
        "attempted": len(result["losses"]),
        "failed": sum(not math.isfinite(loss) for loss in result["losses"]),
    }
