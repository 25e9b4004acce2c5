"""Model GB instance sampling.

Each of the t constraints is drawn independently: first a scope of k
distinct variables (uniform over k-subsets, selection without repetition),
then exactly q forbidden value tuples (uniform over q-subsets of the d**k
tuples, selection without repetition).  Constraints may repeat across the
list and are never deduplicated.

Sampling primitives are chosen for exact uniformity without rejection
loops: the scope comes from a sparse prefix Fisher-Yates shuffle, the
forbidden set from Floyd's subset-sampling algorithm over tuple ranks in
[0, d**k).  Rank -> tuple decoding is big-endian base d: the first scope
position is the most significant digit.
"""

from __future__ import annotations

from .model import ConstraintSpec, Instance, Params
from .rng import SeedSpec, Stream


def sample_scope(n: int, k: int, stream: Stream) -> tuple[int, ...]:
    """k distinct variable indices in [0, n); order is the draw order."""
    swap: dict[int, int] = {}
    out = []
    for j in range(k):
        pick = j + stream.randbelow(n - j)
        out.append(swap.get(pick, pick))
        swap[pick] = swap.get(j, j)
    return tuple(out)


def _rank_to_tuple(rank: int, d: int, k: int) -> tuple[int, ...]:
    digits = []
    for _ in range(k):
        rank, a = divmod(rank, d)
        digits.append(a)
    digits.reverse()
    return tuple(digits)


def sample_incompatible(d: int, k: int, q: int, stream: Stream) -> frozenset[tuple[int, ...]]:
    """Uniform q-subset of the d**k value tuples (Floyd's algorithm)."""
    space = d**k
    if not 1 <= q <= space:
        raise ValueError(f"q={q} outside [1, d^k={space}]")
    chosen: set[int] = set()
    for j in range(space - q, space):
        pick = stream.randbelow(j + 1)
        chosen.add(j if pick in chosen else pick)
    return frozenset([_rank_to_tuple(rank, d, k) for rank in chosen])


def sample_constraint(params: Params, stream: Stream) -> ConstraintSpec:
    scope = sample_scope(params.n, params.k, stream)
    incompatible = sample_incompatible(params.d, params.k, params.q, stream)
    return ConstraintSpec(scope, incompatible)


def sample_instance(params: Params, seed: SeedSpec, label: str = "instance") -> Instance:
    """Draw one instance; fully determined by (params, seed, label)."""
    stream = seed.stream(label)
    constraints = tuple(sample_constraint(params, stream) for _ in range(params.t))
    return Instance(params, constraints)
