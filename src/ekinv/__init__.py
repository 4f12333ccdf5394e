"""Ensemble Kalman inversion with hierarchical and geometric parameterizations."""

__version__ = "0.1.0"
