"""From-scratch classifier suite behind a uniform fit/predict contract."""

from .base import (
    ALGORITHMS,
    Dataset,
    ModelSpec,
    ShapeError,
    Standardizer,
    TrainedModel,
    fit,
    fit_standardizer,
    predict,
)

__all__ = [
    "ALGORITHMS",
    "Dataset",
    "ModelSpec",
    "ShapeError",
    "Standardizer",
    "TrainedModel",
    "fit",
    "fit_standardizer",
    "predict",
]
