"""Follow one simulation of the sector-clustering protocol from full
batteries to total death, sampling the per-round metrics along the way."""

from amdiscnt import NetworkConfig, run_simulation

config = NetworkConfig()
result = run_simulation(config, "amdiscnt")

print(f"protocol amdiscnt, seed {config.seed}, horizon {config.max_rounds} rounds")
print(f"simulated {result.rounds} rounds")
print()

print(f"{'round':>6} {'alive':>6} {'heads':>6} {'sent':>5} {'rcvd':>5} "
      f"{'delay':>6} {'energy J':>10}")
marks = sorted({0, 1, 100, 500, 1000,
                result.first_node_death or 0,
                result.half_nodes_death or 0,
                result.rounds - 1})
for index in marks:
    if not 0 <= index < result.rounds:
        continue
    m = result.per_round[index]
    print(f"{m.round_index:>6} {m.alive:>6} {m.ch_count:>6} "
          f"{m.packets_sent_to_bs:>5} {m.packets_received_by_bs:>5} "
          f"{m.mean_delay:>6.2f} {m.total_residual_energy:>10.4f}")
print()

print("Milestones (completed rounds)")
print(f"  first death : {result.first_node_death}")
print(f"  half dead   : {result.half_nodes_death}")
print(f"  all dead    : {result.last_node_death}")
print()
print(f"Delivered {result.cumulative_received} of {result.cumulative_sent} "
      f"packets transmitted toward the sink")
