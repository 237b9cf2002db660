"""Predictor substrate: the VPC/TCgen-style baseline and the C/DC predictor."""

from repro.predictors.cdc import CdcConfig, CdcPredictor, PredictionBreakdown, simulate_cdc
from repro.predictors.value import DifferentialFiniteContextPredictor, FiniteContextPredictor
from repro.predictors.vpc import VpcCodec, VpcStats

__all__ = [
    "FiniteContextPredictor",
    "DifferentialFiniteContextPredictor",
    "VpcCodec",
    "VpcStats",
    "CdcConfig",
    "CdcPredictor",
    "PredictionBreakdown",
    "simulate_cdc",
]
