#!/usr/bin/env python
"""Quickstart: distributed Louvain community detection in ten lines.

Generates a stand-in for the paper's soc-friendster input, runs the
distributed Louvain algorithm on 8 simulated MPI ranks, and prints the
result with the modelled execution-time breakdown.

Run:  python examples/quickstart.py
"""

from repro import DetectionRequest, LouvainConfig, Variant, detect, make_graph

# A scaled-down synthetic graph with the structure class of the paper's
# 1.8B-edge soc-friendster input (see repro.generators.registry).
graph = make_graph("soc-friendster", scale="small")
print(f"input: {graph}")

# The paper's best-performing configuration for this input: ETC(0.25)
# (early termination + the global inactive-count exit, Table IV).
config = LouvainConfig(variant=Variant.ETC, alpha=0.25)
result = detect(DetectionRequest(graph=graph, nranks=8, config=config)).result

print(f"result: {result.summary()}")
print(f"communities found: {result.num_communities}")
print(f"largest community: {result.community_sizes().max()} vertices")
print()
print("modelled time breakdown (per §V-A of the paper):")
print(result.trace.format())
