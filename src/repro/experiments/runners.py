"""Shared model-building / training helpers for the experiment runners.

The model zoo is resolved through :data:`repro.models.MODEL_REGISTRY` — every
model self-registers its config dataclass and builder, so the helpers below
contain no per-model name dispatch.  Adding a model to the zoo is a
``@register_model`` decorator on its class; every experiment, the CLI and the
:class:`repro.api.Pipeline` facade pick it up automatically.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..evaluation.evaluator import EvaluationResult, Evaluator
from ..models import MODEL_REGISTRY
from ..models.registry import ModelEntry
from ..training import Trainer, TrainerConfig, TrainingHistory
from .datasets import experiment_corpus, experiment_evaluator, experiment_split, get_profile

__all__ = [
    "NEURAL_MODEL_NAMES",
    "SUBMODEL_NAMES",
    "ALL_MODEL_NAMES",
    "build_registered_model",
    "build_neural_model",
    "train_registered_model",
    "train_neural_model",
    "train_hc_kgetm",
    "train_and_evaluate",
]


def _zoo_names() -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]:
    return (
        MODEL_REGISTRY.neural_names(),
        MODEL_REGISTRY.variant_names(),
        MODEL_REGISTRY.primary_names(),
    )


#: Trainer-trained primary models, ablation sub-models, and every primary
#: model (baselines included) — derived from the registry, in table order.
NEURAL_MODEL_NAMES, SUBMODEL_NAMES, ALL_MODEL_NAMES = _zoo_names()


def build_registered_model(
    name: str, scale: str = "default", seed: int = 0, **model_overrides
):
    """Instantiate any registered model on the profile's training split.

    ``seed`` reaches the model config (every registered config has a ``seed``
    field), so differently-seeded builds get independent initialisations.
    """
    entry = MODEL_REGISTRY.get(name)
    profile = get_profile(scale)
    train, _ = experiment_split(scale)
    config = entry.default_config(profile, seed=seed, **model_overrides)
    return entry.build(train, config)


def build_neural_model(name: str, scale: str = "default", seed: int = 0, **model_overrides):
    """Instantiate one of the neural models on the profile's training split."""
    entry = MODEL_REGISTRY.get(name)
    if not entry.needs_trainer:
        raise KeyError(f"{name!r} is not a neural model; use build_registered_model")
    return build_registered_model(name, scale=scale, seed=seed, **model_overrides)


def train_registered_model(
    name: str,
    scale: str = "default",
    trainer_config: Optional[TrainerConfig] = None,
    seed: int = 0,
    **model_overrides,
) -> Tuple[object, Optional[TrainingHistory]]:
    """Build and fit any registered model; returns ``(model, history)``.

    Neural models run through :class:`~repro.training.Trainer` (``history`` is
    the loss curve); self-fitting baselines call their own ``fit`` with the
    extra arguments their registry entry derives from the corpus (``history``
    is ``None``).
    """
    entry: ModelEntry = MODEL_REGISTRY.get(name)
    profile = get_profile(scale)
    train, _ = experiment_split(scale)
    if not entry.needs_trainer and trainer_config is not None:
        raise ValueError(
            f"{name!r} fits itself and ignores TrainerConfig; drop trainer_config "
            "and tune its own iteration knobs instead (e.g. gibbs_iterations)"
        )
    model = build_registered_model(name, scale=scale, seed=seed, **model_overrides)
    if entry.needs_trainer:
        config = trainer_config if trainer_config is not None else profile.trainer_config()
        history = Trainer(config).fit(model, train)
        return model, history
    fit_kwargs = entry.fit_kwargs(experiment_corpus(scale)) if entry.fit_kwargs else {}
    model.fit(train, **fit_kwargs)
    return model, None


def train_neural_model(
    name: str,
    scale: str = "default",
    trainer_config: Optional[TrainerConfig] = None,
    seed: int = 0,
    **model_overrides,
):
    """Build and train one neural model; returns ``(model, history)``."""
    entry = MODEL_REGISTRY.get(name)
    if not entry.needs_trainer:
        raise KeyError(f"{name!r} is not a neural model; use train_registered_model")
    return train_registered_model(
        name, scale=scale, trainer_config=trainer_config, seed=seed, **model_overrides
    )


def train_hc_kgetm(scale: str = "default", seed: int = 0, **config_overrides):
    """Fit the HC-KGETM topic-model baseline on the profile's training split."""
    model, _ = train_registered_model("HC-KGETM", scale=scale, seed=seed, **config_overrides)
    return model


def train_and_evaluate(
    name: str,
    scale: str = "default",
    evaluator: Optional[Evaluator] = None,
    trainer_config: Optional[TrainerConfig] = None,
    seed: int = 0,
    **model_overrides,
) -> EvaluationResult:
    """Train one registered model (neural or baseline) and evaluate it."""
    evaluator = evaluator if evaluator is not None else experiment_evaluator(scale)
    model, _ = train_registered_model(
        name, scale=scale, trainer_config=trainer_config, seed=seed, **model_overrides
    )
    return evaluator.evaluate(model, name=name)
