"""Walk through the two distance derivations that feed the attention bias.

Run:  python demos/01_distance_structures.py
"""

import numpy as np

from aste.evaluation import bench_distance, bench_summary
from aste.structure import (
    DEPENDENCY,
    RELATIVE,
    DependencyGraph,
    StructureConfig,
    augmented_distance_matrix,
    dependency_distance_matrix,
    relative_distance_matrix,
)

TOKENS = ["Great", "food", "but", "the", "service", "was", "dreadful", "!"]
# A hand-written dependency analysis of the sentence above, as a head
# array (0-based, -1 = root): "food" governs "Great", "dreadful" governs
# "service", and so on.
HEADS = [1, -1, 1, 4, 6, 6, 1, 6]


def show(title, matrix):
    print(f"\n{title}")
    header = "      " + " ".join(f"{t[:4]:>4}" for t in TOKENS)
    print(header)
    for token, row in zip(TOKENS, matrix):
        print(f"{token[:5]:>5} " + " ".join(f"{v:>4}" for v in row))


def main():
    n = len(TOKENS)
    print("sentence:", " ".join(TOKENS))

    print("\n== relative distances (clip j - i to [-tau, tau]) ==")
    for tau in (8, 3):
        show(f"tau = {tau}", relative_distance_matrix(n, tau))
    print("\nwith tau = 3 the long-range entries saturate at +-3: the bias")
    print("table has one row per clipped value, so far-apart pairs share a bucket.")

    print("\n== dependency distances (shortest path on the tree) ==")
    graph = DependencyGraph.from_heads(HEADS)
    show("tau = 8", dependency_distance_matrix(graph, 8))
    print("\nnote 'Great' -> 'dreadful' is 2 hops through 'food', while their")
    print("linear-order distance is 6: syntax shortens evaluative links.")

    print("\n== the matrix the encoder actually consumes ==")
    config = StructureConfig(tau=8, kind=DEPENDENCY)
    augmented = augmented_distance_matrix(n, config, heads=HEADS)
    print(f"augmented shape: {augmented.shape} (start/end markers use the")
    print("relative rule because they never occur in dependency graphs)")
    print("marker row:", augmented[0])

    print("\n== derivation cost ==")
    # The relative derivation takes microseconds, so it gets 10x the
    # repetitions for a steadier timing region; throughput is per token.
    print(bench_summary([bench_distance("relative", 128, 500),
                         bench_distance("dependency", 128, 50)]), end="")


if __name__ == "__main__":
    main()
