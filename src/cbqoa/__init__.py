"""Classically-boosted quantum optimization at desk scale.

Classical relaxation-plus-rounding seeds, feasibility-preserving quantum
walks, an amplitude-amplification-style ansatz, lower-tail cost tuning, a
binned fast simulator, and a benchmarking harness for Max 3SAT and Max
Bisection.
"""

from .bench import (
    BenchmarkSpec,
    PipelineConfig,
    RunRecord,
    export_results,
    gen_hard_instances,
    import_results,
    pogs_exact,
    pogs_repeated,
    random_max3sat,
    random_max_bisection,
    run_pipeline,
)
from .cvar import AdamConfig, CvarConfig, cvar_discrete, tune_ansatz_params, tune_walk_params
from .errors import CapacityError, DegenerateInstanceError
from .fast_sim import bin_costs, binned_distribution, eta_from_state, evolve_binned
from .mixer import PermutationFamily, WalkParams, bit_flip, build_family, transposition
from .problems import (
    Max3SatInstance,
    MaxBisectionInstance,
    approx_ratio_beta,
    feasible_indices,
    instance_id,
    is_feasible,
    load_instance,
    save_instance,
)
from .seeds import SdpConfig
from .simulate import (
    AnsatzParams,
    CircuitConfig,
    apply_phase_separator,
    apply_rank1_mixer,
    basis_state,
    cbqoa_ansatz,
    cbqoa_initial_state,
    ctqw_trotter_xy,
    gm_qaoa_ansatz,
    uniform_feasible_state,
)

__version__ = "0.1.0"
