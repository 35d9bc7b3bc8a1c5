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
    run_pipeline,
)
from .cvar import AdamConfig, CvarConfig
from .errors import CapacityError, DegenerateInstanceError
from .mixer import WalkParams
from .problems import (
    Max3SatInstance, MaxBisectionInstance, instance_id, load_instance, save_instance,
)
from .seeds import SdpConfig
from .simulate import AnsatzParams, CircuitConfig

__version__ = "0.1.0"
