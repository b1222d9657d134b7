"""Solvers and benchmarks for ad allocation in content feeds with decaying
user attention."""

from .core import (Allocation, DecompositionTerm, InvalidInstanceError, Mode,
                   ProblemInstance, SolveReport, decompose, expected_reward,
                   read_allocation, read_instance, suffix_reward,
                   validate_allocation, write_allocation, write_instance)
from .algorithms import (IterationLog, backwards_greedy, instrumented_run,
                         nonoblivious_backwards_greedy)
from .baselines import (flow_baseline, flow_greedy, forward_greedy,
                        global_greedy, mwm_baseline, online_threshold)
from .generators import GeneratorConfig, generate
from .oracle import (SessionTrace, brute_force_mapping, brute_force_matching,
                     simulate_sessions)
from .postprocess import prune_to_k

__all__ = [
    "Allocation", "DecompositionTerm", "GeneratorConfig",
    "InvalidInstanceError", "IterationLog", "Mode", "ProblemInstance", "SessionTrace", "SolveReport",
    "backwards_greedy", "brute_force_mapping", "brute_force_matching",
    "decompose", "expected_reward", "flow_baseline", "flow_greedy",
    "forward_greedy", "generate", "global_greedy", "instrumented_run",
    "mwm_baseline", "nonoblivious_backwards_greedy", "online_threshold",
    "prune_to_k", "read_allocation", "read_instance", "simulate_sessions",
    "suffix_reward", "validate_allocation", "write_allocation",
    "write_instance",
]

__version__ = "0.1.0"
