"""Shared serving-test fixtures.

The socket end-to-end tests all score against one smoke-scale pipeline;
training it once per session keeps the suite fast without weakening any
bit-identity assertion — determinism is asserted against the *same*
weights everywhere.
"""

import pytest

from repro.api import Pipeline
from repro.experiments.datasets import get_profile


@pytest.fixture(scope="session")
def pipeline():
    return Pipeline(
        "SMGCN", scale="smoke", trainer_config=get_profile("smoke").trainer_config(epochs=1)
    ).fit()


@pytest.fixture(scope="session")
def approx_pipeline(pipeline, tmp_path_factory):
    """The same weights served through the two-stage approximate tier.

    Round-tripped through a checkpoint (the production shape: train once,
    serve approx from the saved bundle).  ``candidate_factor=2`` with the
    handlers' ``k=5`` keeps a 10-herb survivor pool out of the smoke
    vocabulary's 50, so the first pass genuinely prunes.  The smoke
    vocabulary is too small for a derived partition, so the lists are
    explicit: four, all probed.
    """
    path = tmp_path_factory.mktemp("serving-approx") / "smgcn.npz"
    pipeline.save(path)
    served = Pipeline.load(path, retrieval="approx", candidate_factor=2, num_lists=4, nprobe=4)
    assert served.engine.retrieval_active
    yield served
    served.close()


@pytest.fixture()
def serving_pipeline(request, pipeline, approx_pipeline):
    """Indirect-parametrization hook: ``"exact"`` (the default) or ``"approx"``.

    Front-end fixtures build their serving stack on this, so any test can be
    parametrized over retrieval modes with
    ``pytest.mark.parametrize("serving_pipeline", [...], indirect=True)``
    while unparametrized tests keep serving the exact oracle.
    """
    return approx_pipeline if getattr(request, "param", "exact") == "approx" else pipeline
