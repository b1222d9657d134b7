"""Names, units and directions of the benchmark's metrics; BENCHMARK.json
lists the same names (a test keeps them in step)."""

# (name, unit, better) of the end-to-end metrics of a --trace 0 run
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("reward_ratio", "ratio", "higher"),
]

# Per-layer metrics of a traced run: (name, unit, better).  Times are self
# times in seconds per pass over the workload's jobs; counts are per pass.
LAYER_METRICS = [
    ("generators.generate_s", "s", "lower"),
    ("core.instance_build_s", "s", "lower"),
    ("core.edges_built", "count", "lower"),
    ("core.expected_reward_s", "s", "lower"),
    ("core.expected_reward_calls", "count", "lower"),
    ("core.verify_s", "s", "lower"),
    ("algorithms.gb_s", "s", "lower"),
    ("algorithms.gb.gain_evals", "count", "lower"),
    ("algorithms.gb.commits", "count", "lower"),
    ("algorithms.gb.reassignments", "count", "lower"),
    ("algorithms.gb-mapping_s", "s", "lower"),
    ("algorithms.gb-mapping.gain_evals", "count", "lower"),
    ("algorithms.gbp_s", "s", "lower"),
    ("algorithms.gbp.scores", "count", "lower"),
    ("algorithms.gbp.reassignments", "count", "lower"),
    ("baselines.global_s", "s", "lower"),
    ("baselines.global.pops", "count", "lower"),
    ("baselines.global.gain_evals", "count", "lower"),
    ("baselines.global.commits_per_pop", "ratio", "higher"),
    ("baselines.flowg_s", "s", "lower"),
    ("baselines.flowg.flow_s", "s", "lower"),
    ("baselines.flowg.sweep_s", "s", "lower"),
    ("baselines.flow_s", "s", "lower"),
    ("baselines.mwm_s", "s", "lower"),
    ("baselines.forward_s", "s", "lower"),
    ("baselines.online_s", "s", "lower"),
    ("matching.solve_s", "s", "lower"),
    ("matching.calls", "count", "lower"),
    ("matching.edges_in", "count", "lower"),
    ("postprocess.prune_s", "s", "lower"),
    ("postprocess.removals", "count", "higher"),
    ("postprocess.evals_per_removal", "ratio", "lower"),
    ("oracle.simulate_s", "s", "lower"),
    ("oracle.sessions_simulated", "count", "higher"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
