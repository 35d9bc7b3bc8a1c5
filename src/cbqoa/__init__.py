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
    random_satisfiable_max3sat,
    run_pipeline,
)
from .cvar import (
    AdamConfig,
    CvarConfig,
    OptResult,
    adam_minimize,
    cvar_discrete,
    tune_ansatz_params,
    tune_walk_params,
)
from .errors import CapacityError, DegenerateInstanceError
from .fast_sim import (
    BinnedState,
    CostBinning,
    bin_costs,
    binned_distribution,
    choose_num_bins,
    eta_from_state,
    evolve_binned,
)
from .mixer import (
    AssumptionReport,
    LocalPermutation,
    PermutationFamily,
    WalkParams,
    apply_permutation,
    bit_flip,
    build_family,
    sigmoid_weight,
    transposition,
    verify_assumption,
)
from .problems import (
    FeasibilityStructure,
    Max3SatInstance,
    MaxBisectionInstance,
    approx_ratio_beta,
    brute_force_optimum,
    enumerate_feasible,
    evaluate_cost,
    feasibility_structure,
    feasible_indices,
    instance_from_dict,
    instance_id,
    is_feasible,
    ising_diagonal,
    load_instance,
    mean_feasible_cost,
    save_instance,
)
from .seeds import (
    SdpConfig,
    UnitVectorSet,
    s_linear,
    solve_fl_sdp,
    solve_kz_sdp,
)
from .simulate import (
    AnsatzParams,
    CircuitConfig,
    apply_phase_separator,
    apply_rank1_mixer,
    apply_xy_gate,
    basis_state,
    cbqoa_ansatz,
    cbqoa_initial_state,
    ctqw_hypercube,
    ctqw_trotter_xy,
    gm_qaoa_ansatz,
    measurement_distribution,
    uniform_feasible_state,
)

__version__ = "0.1.0"
