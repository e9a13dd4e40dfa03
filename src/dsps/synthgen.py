"""Synthetic populations with known structure, for demos and self-tests.

A spec is its JSON (``dsps generate --spec``): each feature column is drawn
i.i.d. from its own marginal (normal, log-normal, or a finite mixture of
those); columns are independent.  Generation is deterministic: column ``j``
uses PCG64 seeded with ``SeedSequence(seed, spawn_key=(j,))``, so appending
features never perturbs the existing columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataset import Population
from .errors import DspsError
from .moments import (
    TargetCriterion, TargetSet, count, json_count, json_number, json_parse, sample_moment,
)

__all__ = ["SynthSpec", "generate_population", "plant_subset"]


@dataclass(frozen=True)
class SynthSpec:
    """``n_p`` members, a ``seed``, and one ``(name, sample)`` pair per feature.

    ``sample(rng, n)`` draws ``n`` values of the feature's marginal;
    :meth:`from_json` builds it from the spec's distribution node.
    """

    n_p: int
    seed: int
    features: tuple[tuple[str, Callable[[np.random.Generator, int], np.ndarray]], ...]

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        for name, _ in self.features:
            if not isinstance(name, str):
                raise DspsError(f"feature name must be a string, got {name!r}")
        object.__setattr__(self, "n_p", count(self.n_p, 1, "n_p"))
        object.__setattr__(self, "seed", count(self.seed, 0, "seed"))
        if not self.features:
            raise DspsError("spec needs at least one feature")

    @staticmethod
    def from_json(text: str | bytes) -> "SynthSpec":
        raw = json_parse(text, "spec")
        try:
            features = tuple((f["name"], _sampler(f["dist"])) for f in raw["features"])
            n_p, seed = json_count(raw["n_p"], 1, "n_p"), json_count(raw["seed"], 0, "seed")
            return SynthSpec(n_p, seed, features)
        except (KeyError, TypeError) as exc:
            raise DspsError(f"spec JSON is missing fields: {exc}") from None


def _sampler(node) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Check a JSON distribution node and return its ``sample(rng, n)``.

    ``normal`` and ``lognormal`` take ``mu`` and ``sigma`` (of the underlying
    normal, for ``lognormal``); ``sigma = 0`` gives a constant column.  A
    ``mixture`` draws each value's component with ``rng.choice`` under the
    normalised weights, then samples the components in turn.
    """
    if not isinstance(node, dict) or "type" not in node:
        raise DspsError(f"distribution node {node!r} needs a type")
    kind = node["type"]
    if kind in ("normal", "lognormal"):
        mu, sigma = (json_number(node[k], f"{kind} {k}") for k in ("mu", "sigma"))
        if not sigma >= 0.0:
            raise DspsError(f"{kind} sigma must be nonnegative, got {sigma}")
        return lambda rng, n: getattr(rng, kind)(mu, sigma, n)  # rng.normal or rng.lognormal
    if kind != "mixture":
        raise DspsError(f"unknown distribution type {kind!r}")
    comps = [(json_number(c["weight"], "mixture weight"), _sampler(c["dist"]))
             for c in node["components"]]
    if not comps:
        raise DspsError("mixture needs at least one component")
    if not all(0.0 <= w < np.inf for w, _ in comps):
        raise DspsError("mixture weights must be finite and nonnegative")
    weights = np.array([w for w, _ in comps])
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not 0.0 < total < np.inf:
        raise DspsError(f"mixture weights must have positive total within float64, got {total}")
    p = weights / total

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        choice = rng.choice(len(comps), size=n, p=p)
        out = np.empty(n)
        for idx, (_, part) in enumerate(comps):
            sel = choice == idx
            if sel.any():
                out[sel] = part(rng, int(sel.sum()))
        return out

    return sample


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
    for j, (_, sample) in enumerate(spec.features):
        ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(j,))
        rng = np.random.Generator(np.random.PCG64(ss))
        data[:, j] = sample(rng, spec.n_p)
    return Population(ids, tuple(name for name, _ in spec.features), data)


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
