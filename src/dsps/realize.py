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

Each draw is a read-only ``int8`` 0/1 array over the members: the one mask
type, which :func:`evaluate_selection` scores and the CLI writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Population
from .errors import AllDrawsDegenerate, DspsError, InsufficientData
from .evaluate import EvaluationReport, evaluate_selection
from .moments import TargetSet, count, probability_vector

__all__ = ["RealizationResult", "DrawStats", "uniform_stream", "draw", "draw_best"]


@dataclass(frozen=True)
class DrawStats:
    """One draw's summary used for best-of selection and diagnostics."""

    draw_index: int
    size: int
    rsse: float


@dataclass(frozen=True)
class RealizationResult:
    """The best draw's read-only int8 mask, its index and its report (``realized_size``)."""

    mask: np.ndarray
    draw_index: int
    report: EvaluationReport


def uniform_stream(seed: int, draw_index: int, n: int) -> np.ndarray:
    """The pinned uniforms for one draw: PCG64 on ``SeedSequence(seed, (draw_index,))``.

    Each is a :func:`~dsps.moments.count` >= 0, or :class:`DspsError` is raised.
    """
    ss = np.random.SeedSequence(entropy=count(seed, 0, "seed"),
                                spawn_key=(count(draw_index, 0, "draw index"),))
    return np.random.Generator(np.random.PCG64(ss)).random(n)


def draw(p, seed: int, draw_index: int = 0) -> np.ndarray:
    """One Bernoulli realization of the probability vector ``p``: a read-only int8 0/1 mask."""
    vec = probability_vector(p)
    mask = (vec > uniform_stream(seed, draw_index, vec.size)).astype(np.int8)
    mask.setflags(write=False)
    return mask


def draw_best(
    p,
    pop: Population,
    targets: TargetSet,
    n_draws: int,
    seed: int,
) -> tuple[RealizationResult, list[DrawStats]]:
    """Best of ``n_draws`` independent realizations, scored by realized RSSE.

    ``p`` is the probability vector; draw ``k`` is ``draw(p, seed, k)``.
    ``n_draws`` is a positive and ``seed`` a non-negative integer (numpy ones too).
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
    n_draws = count(n_draws, 1, "n_draws")
    vec = probability_vector(p)
    if vec.size != pop.n_members:
        raise DspsError(
            f"{vec.size} probabilities for population of {pop.n_members}"
        )
    fractional = np.flatnonzero((vec > 0.0) & (vec < 1.0))
    scored: dict[bytes, float] = {}
    best: RealizationResult | None = None
    best_key: tuple | None = None
    stats: list[DrawStats] = []
    for k in range(n_draws):
        mask = draw(vec, seed, k)
        size = int(np.count_nonzero(mask))
        outcome = mask[fractional].tobytes()
        if outcome not in scored:
            try:
                report = evaluate_selection(pop, targets, mask)
            except InsufficientData:
                scored[outcome] = float("inf")
            else:
                scored[outcome] = report.rsse
                key = (report.rsse, -size, k)
                if best_key is None or key < best_key:
                    best = RealizationResult(mask, k, report)
                    best_key = key
        stats.append(DrawStats(k, size, scored[outcome]))
    if best is None:
        raise AllDrawsDegenerate(
            f"all {n_draws} draws were unusable for scoring; sizes "
            f"{[s.size for s in stats]}"
        )
    return best, stats
