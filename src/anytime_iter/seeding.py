"""Seed-splitting helpers.

All stochastic operations in this package accept either a plain integer seed
or a numpy SeedSequence.  Replications derive their seeds from a base seed via
``rep_seed(seed_base, rep_index)``, so adding replications never changes the
random stream of earlier ones, and results are independent of how replications
are scheduled across workers.
"""
from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence]


def rep_seed(seed_base: int, rep_index: int) -> np.random.SeedSequence:
    """Deterministic per-replication seed derived from (seed_base, rep_index)."""
    if seed_base < 0 or rep_index < 0:
        raise ValueError("seed_base and rep_index must be nonnegative")
    return np.random.SeedSequence(entropy=[int(seed_base), int(rep_index)])


def make_generator(seed: SeedLike) -> np.random.Generator:
    """Build a PCG64 generator from an int seed or a SeedSequence."""
    return np.random.default_rng(seed)
