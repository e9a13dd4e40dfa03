"""Bernoulli realization of inclusion probabilities.

Randomness contract, pinned so runs replay bit-for-bit: uniforms come from
numpy's PCG64 generator seeded with ``SeedSequence(seed, spawn_key=(draw_index,))``,
one substream per draw index, and member ``i`` is selected iff
``p_i > r_i`` with ``r_i`` the ``i``-th variate of ``Generator.random(n)``.
``random()`` samples ``[0, 1)``, so ``p_i = 1`` always selects and
``p_i = 0`` never does.  The uniforms depend only on ``(seed, draw_index,
n)``; raising any single ``p_i`` can therefore only add member ``i`` to the
draw, never remove another.

A member with ``p_i`` of 0 or 1 thus has the same outcome in every draw, so
two draws that agree on the fractional members are the same mask;
:func:`draw_best` scores each such mask once and gives every draw of it the
same RSSE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Population
from .errors import (
    AllDrawsDegenerate,
    EmptySelection,
    InsufficientData,
    InvalidDraws,
    OutOfRangeProbability,
    ZeroVariance,
)
from .evaluate import EvaluationReport, evaluate_selection
from .moments import TargetSet

__all__ = [
    "SelectionMask",
    "RealizationResult",
    "DrawStats",
    "uniform_stream",
    "draw",
    "draw_best",
]


@dataclass(frozen=True)
class SelectionMask:
    """Binary member selection plus the randomness that produced it."""

    b: np.ndarray
    seed: int
    draw_index: int

    def __post_init__(self):
        b = np.asarray(self.b)
        if not np.all((b == 0) | (b == 1)):
            raise OutOfRangeProbability(f"mask entries must be 0/1, got {np.unique(b)[:5]}")
        b = np.ascontiguousarray(b, dtype=np.int8)
        b.setflags(write=False)
        object.__setattr__(self, "b", b)

    @property
    def size(self) -> int:
        return int(np.sum(self.b))


@dataclass(frozen=True)
class DrawStats:
    """One draw's summary used for best-of selection and diagnostics."""

    draw_index: int
    size: int
    rsse: float


@dataclass(frozen=True)
class RealizationResult:
    """The chosen draw with the report that scored it."""

    mask: SelectionMask
    size: int
    report: EvaluationReport


def uniform_stream(seed: int, draw_index: int, n: int) -> np.ndarray:
    """The pinned uniforms for one draw: PCG64 on ``SeedSequence(seed, (draw_index,))``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(draw_index),))
    return np.random.Generator(np.random.PCG64(ss)).random(n)


def _pvec(p) -> np.ndarray:
    vec = np.asarray(getattr(p, "p", p), dtype=float).ravel()
    if not np.all((vec >= 0.0) & (vec <= 1.0)):  # also refuses NaN
        raise OutOfRangeProbability("probabilities must lie in [0, 1]")
    return vec


def draw(p, seed: int, draw_index: int = 0) -> SelectionMask:
    """One Bernoulli realization of ``p`` (accepts a vector or a solve result)."""
    vec = _pvec(p)
    r = uniform_stream(seed, draw_index, vec.size)
    return SelectionMask((vec > r).astype(np.int8), int(seed), int(draw_index))


def draw_best(
    p,
    pop: Population,
    targets: TargetSet,
    n_draws: int,
    seed: int,
    rsse_epsilon: float = 0.0,
) -> tuple[RealizationResult, list[DrawStats]]:
    """Best of ``n_draws`` independent realizations, scored by realized RSSE.

    A draw that cannot be scored (empty, or too few members for a targeted
    order, or zero spread under a standardised target) gets RSSE ``+inf``.
    Ties prefer the larger draw, then the earlier draw index.  If every draw
    is unscorable the population/probability pairing is hopeless and
    :class:`AllDrawsDegenerate` is raised with the full diagnostic list.

    Every draw is realized and listed in the returned stats, but draws that
    share their outcome on the fractional members (``0 < p < 1``) are one
    mask, scored once: a later draw of it reuses the first draw's RSSE (or
    ``inf``), and cannot win the tie-break against that first draw.
    """
    if isinstance(n_draws, bool) or not isinstance(n_draws, (int, np.integer)) or n_draws < 1:
        raise InvalidDraws(f"n_draws must be a positive integer, got {n_draws!r}")
    vec = _pvec(p)
    if vec.size != pop.n_members:
        raise InvalidDraws(
            f"{vec.size} probabilities for population of {pop.n_members}"
        )
    fractional = np.flatnonzero((vec > 0.0) & (vec < 1.0))
    scored: dict[bytes, float] = {}
    best: RealizationResult | None = None
    best_key: tuple | None = None
    stats: list[DrawStats] = []
    for k in range(int(n_draws)):
        mask = draw(vec, seed, k)
        size = mask.size
        outcome = mask.b[fractional].tobytes()
        if outcome not in scored:
            try:
                report = evaluate_selection(pop, targets, mask, rsse_epsilon=rsse_epsilon)
            except (EmptySelection, InsufficientData, ZeroVariance):
                scored[outcome] = float("inf")
            else:
                scored[outcome] = report.rsse
                key = (report.rsse, -size, k)
                if best_key is None or key < best_key:
                    best = RealizationResult(mask, size, report)
                    best_key = key
        stats.append(DrawStats(k, size, scored[outcome]))
    if best is None:
        raise AllDrawsDegenerate(
            f"all {n_draws} draws were unusable for scoring; sizes "
            f"{[s.size for s in stats]}"
        )
    return best, stats
