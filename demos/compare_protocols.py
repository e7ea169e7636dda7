"""Race the three protocols over a five-seed ensemble and summarise
lifetime, throughput, and the confidence bands on the alive curve."""

from amdiscnt import ExperimentSpec, NetworkConfig, run_experiment

config = NetworkConfig()
seeds = (42, 43, 44, 45, 46)
protocols = ("amdiscnt", "leach", "deec")

print(f"{len(protocols)} protocols x {len(seeds)} seeds, "
      f"{config.n_nodes} nodes, horizon {config.max_rounds} rounds")
stats = run_experiment(ExperimentSpec(config, protocols, seeds, confidence=0.95))
print()

print(f"{'protocol':>9} {'first death':>12} {'half dead':>10} {'all dead':>9} "
      f"{'delivered':>10}")
for name, bundle in stats.items():
    print(f"{name:>9} {bundle.fnd_mean:>12.1f} {bundle.hnd_mean:>10.1f} "
          f"{bundle.lnd_mean:>9.1f} {bundle.received_mean:>10.1f}")
print()

print("Mean alive nodes with 95% bands")
print(f"{'round':>6}" + "".join(f"  {name:>22}" for name in stats))
for index in (0, 250, 500, 750, 1000, 1250, 1500, 1750, 2000, 2500):
    cells = []
    for bundle in stats.values():
        if index < bundle.rounds:
            mean = bundle.per_round_mean["alive"][index]
            lo = bundle.per_round_lo["alive"][index]
            hi = bundle.per_round_hi["alive"][index]
            cells.append(f"{mean:6.1f} [{lo:6.1f},{hi:6.1f}]")
        else:
            cells.append(" " * 22)
    print(f"{index:>6}" + "".join(f"  {c:>22}" for c in cells))
