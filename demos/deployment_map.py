"""Deploy the benchmark field and draw it: an inner disk of
direct-to-sink nodes ringed by eight wedges, with the battery tiers
marked."""

import math
from collections import Counter
from random import Random

from amdiscnt import NetworkConfig, RegionId, deploy

config = NetworkConfig()
nodes = deploy(config, Random(config.seed))
census = Counter(node.region for node in nodes)

print(f"{config.n_nodes} nodes, sink at the origin, "
      f"inner radius {config.geometry.r_inner} m, outer {config.geometry.r_outer} m")
print()

print("Region census")
print(f"  inner disk: {census[RegionId()]} nodes")
for sector in range(8):
    count = census[RegionId(sector)]
    lo, hi = sector * 45, (sector + 1) * 45
    print(f"  wedge {sector} ({lo:3d}-{hi:3d} deg): {count} nodes")
print()

advanced = [n for n in nodes if n.initial_energy > config.heterogeneity.e0]
print(f"Battery tiers: {len(nodes) - len(advanced)} normal at "
      f"{config.heterogeneity.e0} J, {len(advanced)} advanced at "
      f"{config.heterogeneity.e0 * (1 + config.heterogeneity.alpha)} J")
print(f"Total on-field energy: {math.fsum(n.initial_energy for n in nodes)} J")
print()

# character map, 2 m per cell; o normal, A advanced, + sink
size = int(config.geometry.r_outer) + 2
cell = 2.0
width = int(2 * size / cell) + 1
grid = [[" "] * width for _ in range(width)]


def plot(x, y, mark):
    col = int((x + size) / cell)
    row = int((size - y) / cell)
    if 0 <= row < width and 0 <= col < width:
        grid[row][col] = mark


for node in nodes:
    mark = "A" if node.initial_energy > config.heterogeneity.e0 else "o"
    plot(*node.position, mark)
plot(0.0, 0.0, "+")

for row in grid:
    print(" ".join(row).rstrip())
