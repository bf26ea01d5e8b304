"""Signed, clipped pairwise distance matrices.

Two derivations produce the integer matrix that indexes the attention
bias tables: linear-order offsets, and shortest paths over a syntactic
dependency graph. Both are antisymmetric with zero diagonal and clipped
to ``[-tau, tau]``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

RELATIVE = "relative"
DEPENDENCY = "dependency"
NONE = "none"


@dataclass(frozen=True)
class StructureConfig:
    """Which distance derivation feeds the attention bias, and its clip."""

    tau: int = 8
    kind: str = NONE

    def __post_init__(self):
        if self.tau < 1:
            raise ValidationError("tau must be >= 1")
        if self.kind not in (RELATIVE, DEPENDENCY, NONE):
            raise ValidationError(f"unknown structure kind {self.kind!r}")

    @property
    def table_rows(self) -> int:
        return 2 * self.tau + 1


@dataclass(frozen=True)
class DependencyGraph:
    """Undirected dependency edges over ``n`` tokens.

    Built from a per-token head array (0-based, -1 for root). Distances
    ignore edge direction, so edges are stored as normalized pairs.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_edges(cls, n: int, edges) -> "DependencyGraph":
        normalized = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValidationError(f"edge ({a}, {b}) out of range for n={n}")
            if a == b:
                raise ValidationError(f"self-loop at token {a}")
            normalized.add((min(a, b), max(a, b)))
        return cls(n=n, edges=frozenset(normalized))

    @classmethod
    def from_heads(cls, heads) -> "DependencyGraph":
        heads = list(heads)
        n = len(heads)
        edges = []
        for dep, head in enumerate(heads):
            if head == -1:
                continue
            edges.append((head, dep))
        return cls.from_edges(n, edges)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


def relative_distance_matrix(n: int, tau: int) -> np.ndarray:
    """``values[i][j] = clip(j - i, -tau, tau)``.

    Every row is a window of the same clipped ramp, so the matrix is
    materialized as a strided copy of one length-(2n-1) vector instead of
    an n x n broadcast subtraction.
    """
    if n < 1:
        raise ValidationError("need at least one token")
    ramp = np.clip(np.arange(1 - n, n, dtype=np.int64), -tau, tau)
    window = np.lib.stride_tricks.as_strided(
        ramp[n - 1:], shape=(n, n), strides=(-ramp.itemsize, ramp.itemsize)
    )
    return np.ascontiguousarray(window)


def dependency_distance_matrix(graph: DependencyGraph, tau: int) -> np.ndarray:
    """Signed shortest-path distances on the undirected dependency graph.

    Magnitude is BFS hop count, clipped to ``tau``; unreachable pairs get
    the clipped maximum. The sign follows linear order (positive when
    j > i), matching the relative derivation.
    """
    n = graph.n
    if n < 1:
        raise ValidationError("need at least one token")
    adj = graph.adjacency()
    magnitude = np.full((n, n), tau, dtype=np.int64)
    for source in range(n):
        magnitude[source, source] = 0
        depth = np.full(n, -1, dtype=np.int64)
        depth[source] = 0
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for nxt in adj[node]:
                if depth[nxt] < 0:
                    depth[nxt] = depth[node] + 1
                    magnitude[source, nxt] = min(depth[nxt], tau)
                    queue.append(nxt)
    sign = np.sign(np.arange(n)[None, :] - np.arange(n)[:, None])
    return magnitude * sign


def distances_to_indices(values: np.ndarray, tau: int) -> np.ndarray:
    """Map signed distances onto bias-table rows, ``values + tau``, in the
    narrowest unsigned type that holds all 2 * tau + 1 rows: one byte up to
    tau = 127."""
    values = np.asarray(values, dtype=np.int64)
    if values.size and np.abs(values).max() > tau:
        raise ValidationError(f"distances exceed tau={tau}; clip first")
    return (values + tau).astype(np.min_scalar_type(2 * tau))


def augmented_distance_matrix(
    n: int,
    config: StructureConfig,
    heads=None,
    total_len: int | None = None,
) -> np.ndarray | None:
    """Distance matrix for the full encoder input of a sentence.

    The encoder sees ``[start] t_1 .. t_n [end]`` plus optional padding.
    Content-vs-content pairs use the configured derivation; pairs touching
    the start/end markers fall back to the relative rule, since markers do
    not appear in dependency graphs. Padded rows and columns are stored as
    0 (they are masked out of attention anyway). An empty sentence has no
    content pairs and needs no head array: it gets the markers' relative
    distances under either derivation. Returns None when the adapter is
    disabled.
    """
    if config.kind == NONE:
        return None
    m = n + 2 if total_len is None else total_len
    if m < n + 2:
        raise ValidationError("total_len too small for the augmented sentence")
    full = relative_distance_matrix(m, config.tau)
    if config.kind == DEPENDENCY and n > 0:
        if heads is None:
            raise ValidationError("dependency structure requires a head array")
        graph = DependencyGraph.from_heads(heads)
        if graph.n != n:
            raise ValidationError("head array length does not match token count")
        full[1:n + 1, 1:n + 1] = dependency_distance_matrix(graph, config.tau)
    if m > n + 2:
        full[n + 2:, :] = 0
        full[:, n + 2:] = 0
    return full


def random_tree_heads(n: int, rng: np.random.Generator) -> list[int]:
    """Random recursive tree as a head array; node 0 is the root."""
    if n < 1:
        raise ValidationError("need at least one node")
    heads = [-1]
    for node in range(1, n):
        heads.append(int(rng.integers(0, node)))
    return heads
