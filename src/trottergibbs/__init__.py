"""Partition-function estimation by Chebyshev interpolation of Trotterized Gibbs traces."""

__version__ = "0.1.0"

from .cheb import exact_partition
from .pipeline import PipelineConfig, run_pipeline
from .syk import build_syk_hamiltonian, normalize_one_norm, sample_syk
