"""Partition-function estimation by Chebyshev interpolation of Trotterized Gibbs traces."""

__version__ = "0.1.0"

from .cheb import (
    ChebGrid,
    bernstein_bound,
    cheb_grid,
    exact_partition,
    interpolate_to_zero,
    mcheb_size,
    rho_from_radius,
    scaling_schedule,
)
from .gqsp import GqspAngles, LaurentPoly, synthesize_laurent, verify_block
from .lwf import FourierApprox, gibbs_fourier, gibbs_taylor
from .paulis import PauliString, pauli_commutes, pauli_multiply, to_dense
from .pipeline import (
    PartitionResult,
    PipelineConfig,
    ancilla_savings,
    cost_model,
    run_pipeline,
    trace_bound_check,
)
from .seeding import split_seed
from .syk import (
    HamiltonianTerms,
    build_syk_hamiltonian,
    group_commuting,
    normalize_one_norm,
    sample_syk,
)
from .thermal import (
    BoltzmannOracle,
    TraceEstimate,
    amplitude_estimate,
    boltzmann_oracle,
    build_u_boltz,
    exact_p0,
    qubit_ledger,
)
from .trotter import (
    EffectiveHamiltonian,
    FormulaPlan,
    apply_formula,
    build_plan,
    effective_hamiltonian,
    trotter_error_norm,
)
