"""Synthetic populations with known structure, for demos and self-tests.

Each feature column is drawn i.i.d. from its own marginal (normal,
log-normal, or a finite mixture of those); columns are independent.
Generation is deterministic: column ``j`` uses PCG64 seeded with
``SeedSequence(seed, spawn_key=(j,))``, so appending features never
perturbs the existing columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .dataset import Population
from .errors import DspsError
from .moments import TargetCriterion, TargetSet, count, json_count, json_number, sample_moment

__all__ = [
    "Normal",
    "LogNormal",
    "Mixture",
    "FeatureSpec",
    "SynthSpec",
    "generate_population",
    "plant_subset",
]


@dataclass(frozen=True)
class Normal:
    """Gaussian marginal; ``sigma = 0`` degenerates to a constant column."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma >= 0.0:
            raise DspsError(f"normal sigma must be nonnegative, got {self.sigma}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, n)


@dataclass(frozen=True)
class LogNormal:
    """Parameters are of the underlying normal on the log scale."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma >= 0.0:
            raise DspsError(f"lognormal sigma must be nonnegative, got {self.sigma}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, n)


@dataclass(frozen=True)
class Mixture:
    """Finite mixture: (weight, component) pairs, weights normalised to 1."""

    components: tuple

    def __post_init__(self):
        comps = tuple((float(w), dist) for w, dist in self.components)
        if not comps:
            raise DspsError("mixture needs at least one component")
        if not all(0.0 <= w < np.inf for w, _ in comps):
            raise DspsError("mixture weights must be finite and nonnegative")
        if not sum(w for w, _ in comps) > 0.0:
            raise DspsError("mixture weights must have positive total")
        object.__setattr__(self, "components", comps)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        weights = np.array([w for w, _ in self.components])
        weights = weights / weights.sum()
        choice = rng.choice(len(self.components), size=n, p=weights)
        out = np.empty(n)
        for idx, (_, dist) in enumerate(self.components):
            sel = choice == idx
            if sel.any():
                out[sel] = dist.sample(rng, int(sel.sum()))
        return out


Distribution = Union[Normal, LogNormal, Mixture]


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    dist: Distribution

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise DspsError(f"feature name must be a string, got {self.name!r}")


@dataclass(frozen=True)
class SynthSpec:
    n_p: int
    seed: int
    features: tuple[FeatureSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "n_p", count(self.n_p, 1, "n_p"))
        object.__setattr__(self, "seed", count(self.seed, 0, "seed"))
        object.__setattr__(self, "features", tuple(self.features))
        if not self.features:
            raise DspsError("spec needs at least one feature")

    @staticmethod
    def from_json(text: str | bytes) -> "SynthSpec":
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad syntax, huge integer, deep nesting
            raise DspsError(f"spec JSON does not parse: {exc}") from None
        try:
            features = tuple(
                FeatureSpec(f["name"], _dist_from_json(f["dist"]))
                for f in raw["features"]
            )
            n_p, seed = json_count(raw["n_p"], 1, "n_p"), json_count(raw["seed"], 0, "seed")
            return SynthSpec(n_p, seed, features)
        except (KeyError, TypeError) as exc:
            raise DspsError(f"spec JSON is missing fields: {exc}") from None


def _dist_from_json(node) -> Distribution:
    if not isinstance(node, dict) or "type" not in node:
        raise DspsError(f"distribution node {node!r} needs a type")
    kind = node["type"]
    if kind in ("normal", "lognormal"):
        mu, sigma = (json_number(node[k], f"{kind} {k}") for k in ("mu", "sigma"))
        return (Normal if kind == "normal" else LogNormal)(mu, sigma)
    if kind == "mixture":
        comps = tuple(
            (json_number(c["weight"], "mixture weight"), _dist_from_json(c["dist"]))
            for c in node["components"]
        )
        return Mixture(comps)
    raise DspsError(f"unknown distribution type {kind!r}")


def generate_population(spec: SynthSpec) -> Population:
    """Deterministic population; member ids are ``m0001``-style, 1-based.

    The data is allocated before the ids, so an ``n_p`` too large to hold
    raises :class:`DspsError` at once instead of growing the id tuple.
    """
    try:
        data = np.empty((spec.n_p, len(spec.features)))
    except (MemoryError, ValueError) as exc:
        raise DspsError(f"n_p = {spec.n_p} is too large to allocate ({exc})") from None
    width = max(4, len(str(spec.n_p)))
    ids = tuple(f"m{i:0{width}d}" for i in range(1, spec.n_p + 1))
    for j, feat in enumerate(spec.features):
        ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(j,))
        rng = np.random.Generator(np.random.PCG64(ss))
        data[:, j] = feat.dist.sample(rng, spec.n_p)
    return Population(ids, tuple(f.name for f in spec.features), data)


def plant_subset(
    pop: Population,
    indices: Sequence[int],
    features: Sequence[str] | None = None,
    orders: Sequence[int] = (1, 2),
) -> TargetSet:
    """Targets copied from the sample moments of a chosen member subset.

    The returned targets are achievable by construction (the planted subset
    achieves them exactly), which makes them the standard way to build
    feasible test instances.  ``orders`` must include the prerequisites of
    its higher orders (1 for anything above 1, and 2 for orders 3 and 4), each a
    :func:`~dsps.moments.count` >= 1: a float, bool or string raises :class:`DspsError`.
    ``indices`` are distinct integer member indices; a 0/1 mask, floats or
    bools raise :class:`DspsError` rather than being read as indices.
    """
    idx = np.asarray(indices)
    if idx.size == 0:
        raise DspsError("planted subset needs at least one member")
    # sorted neighbours, not np.unique: its first call raises peak RSS by over 1 MB
    if idx.ndim != 1 or idx.dtype.kind not in "iu" or np.any(np.diff(np.sort(idx)) == 0):
        raise DspsError(f"indices must be distinct integers, not a mask, got {idx.dtype} {idx[:5]}")
    if idx.min() < 0 or idx.max() >= pop.n_members:
        raise DspsError(f"indices out of range for population of {pop.n_members}")
    orders = tuple(count(k, 1, "order") for k in orders)
    if max(orders, default=1) >= 2 and idx.size < 2:
        raise DspsError("need at least 2 planted members above order 1")
    names = tuple(features) if features is not None else pop.feature_names
    criteria = []
    for name in names:
        x = pop.data[idx, pop.feature_index(name)]
        for k in sorted(orders):
            criteria.append(TargetCriterion(name, k, sample_moment(x, k)))
    return TargetSet(tuple(criteria))
