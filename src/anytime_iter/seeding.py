"""Seed-splitting helpers.

All stochastic operations in this package accept what numpy's default_rng
accepts as a seed: a plain integer, a sequence of integers or a numpy
SeedSequence.  Replications derive their seeds from a base seed via
``rep_seed(seed_base, rep_index)``, so adding replications never changes the
random stream of earlier ones, and results are independent of how replications
are scheduled across workers.  The pair ``(seed_base, rep_index)`` seeds the
same generator as rep_seed does, since it is that SeedSequence's entropy; the
harness and the CLI pass the pairs, which the compiled kernels' generators
mix in C without building a SeedSequence per replication (_kernel).
"""
from __future__ import annotations

from typing import Sequence, Union

import numpy as np

SeedLike = Union[int, Sequence[int], np.random.SeedSequence]


def rep_seed(seed_base: int, rep_index: int) -> np.random.SeedSequence:
    """Deterministic per-replication seed derived from (seed_base, rep_index)."""
    if seed_base < 0 or rep_index < 0:
        raise ValueError("seed_base and rep_index must be nonnegative")
    return np.random.SeedSequence(entropy=[int(seed_base), int(rep_index)])


def make_generator(seed: SeedLike) -> np.random.Generator:
    """Build a PCG64 generator from an int seed, a sequence of ints or a
    SeedSequence."""
    return np.random.default_rng(seed)
