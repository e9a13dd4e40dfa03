"""Benchmark workloads: seeded inputs for ``dsps generate`` and ``dsps select``.

Every input is a function of the workload seed alone.  Instance ``k`` of a
run derives its generator spec seed and its planted-member choice from
``SeedSequence(seed, spawn_key=(k,))``; the program under test only ever
receives the files written here (a spec JSON, the population CSV that
``dsps generate`` makes from it, and a targets JSON).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# The three marginal shapes every workload mixes: symmetric, right-skewed and
# bimodal, so order-3/4 rows carry both small and large target magnitudes.
_NORMAL = {"type": "normal", "mu": 150.0, "sigma": 25.0}
_LOGNORMAL = {"type": "lognormal", "mu": 4.2, "sigma": 0.2}
_MIXTURE = {
    "type": "mixture",
    "components": [
        {"weight": 0.7, "dist": {"type": "lognormal", "mu": 2.5, "sigma": 0.4}},
        {"weight": 0.3, "dist": {"type": "normal", "mu": 30.0, "sigma": 5.0}},
    ],
}
_SHAPES = (_NORMAL, _LOGNORMAL, _MIXTURE)
TARGET_FEATURES = 3


@dataclass(frozen=True)
class Workload:
    """Shape of one workload's instances.

    The planted members are those whose first feature lies between the
    ``band`` percentiles when ``band`` is set, and otherwise a seeded random
    ``planted_fraction`` of the population.  A run generates ``instances``
    populations and cycles its selects over them.  ``rsse_bound`` is the
    largest realized RSSE the output check accepts for the best draw.  Over
    30 to 45 seeded instances the largest seen was 1.8e-3 on ``cohort-band``,
    2.9e-5 on ``wide-means`` and 0 on ``strict-o4``; a selection that ignored
    the band targets would score about 1e2 on the band workloads.
    ``known_failure`` names a defect that makes every select fail today.
    """

    name: str
    n_p: int
    n_features: int
    orders: tuple[int, ...]
    mode: str
    draws: int
    instances: int
    rsse_bound: float
    band: tuple[float, float] | None = None
    planted_fraction: float = 0.0
    known_failure: str | None = None

    def scaled(self, scale: float) -> "Workload":
        """The same workload with ``n_p`` shrunk, for the self-test.

        The realized RSSE of a draw shrinks like one over its size, so the
        bound grows by the factor the population shrinks.
        """
        n_p = max(200, int(round(self.n_p * scale)))
        return replace(self, n_p=n_p, instances=min(self.instances, 2),
                       rsse_bound=self.rsse_bound * self.n_p / n_p)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cohort-band", n_p=4_000, n_features=3, orders=(1, 2), mode="max",
                 draws=10, instances=12, rsse_bound=2e-2, band=(60.0, 90.0)),
        Workload("wide-means", n_p=10_000, n_features=16, orders=(1,), mode="max",
                 draws=100, instances=8, rsse_bound=1e-3, planted_fraction=0.5),
        Workload("strict-o4", n_p=4_000, n_features=3, orders=(1, 2, 3, 4), mode="max-strict",
                 draws=10, instances=12, rsse_bound=1e-2, band=(60.0, 90.0)),
        Workload("max-o4", n_p=2_000, n_features=3, orders=(1, 2, 3, 4), mode="max",
                 draws=10, instances=3, rsse_bound=1e-2, planted_fraction=0.1,
                 known_failure="ROADMAP item 1: relaxed order-3/4 rows end in a singular basis"),
    )
}


@dataclass(frozen=True)
class Instance:
    """Files of one generated instance and the arguments to select it."""

    name: str
    population: Path
    targets: Path
    select_args: tuple[str, ...]
    n_p: int
    iterations: set = field(default_factory=set, compare=False)  # as reported by each select


def write_spec(w: Workload, seed: int, index: int, directory: Path) -> tuple[Path, np.random.Generator]:
    """Write instance ``index``'s spec for ``dsps generate``; return it and the planting rng."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    features = [
        {"name": f"x{j:02d}", "dist": _SHAPES[j % len(_SHAPES)]}
        for j in range(w.n_features)
    ]
    spec = {"n_p": w.n_p, "seed": int(ss.generate_state(1)[0]), "features": features}
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "spec.json"
    path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return path, np.random.Generator(np.random.PCG64(ss.spawn(1)[0]))


def planted_members(w: Workload, first_feature: np.ndarray, rng: np.random.Generator):
    """Sorted member indices whose moments become the targets."""
    if w.band is not None:
        lo, hi = np.percentile(first_feature, w.band)
        return np.flatnonzero((first_feature >= lo) & (first_feature <= hi))
    size = int(round(w.planted_fraction * w.n_p))
    return np.sort(rng.choice(w.n_p, size=size, replace=False))


def plant(w: Workload, spec: Path, rng: np.random.Generator, population: Path) -> Instance:
    """Write targets planted in the population ``dsps generate`` made from ``spec``.

    The population is regenerated in process from the same spec; the CSV
    stores every value with ``repr`` precision, so both hold the same numbers.
    """
    from dsps.synthgen import SynthSpec, generate_population, plant_subset

    pop = generate_population(SynthSpec.from_json(spec.read_text(encoding="utf-8")))
    members = planted_members(w, pop.data[:, 0], rng)
    features = pop.feature_names[:TARGET_FEATURES]
    if w.band is None:
        features = tuple(rng.choice(pop.feature_names, size=TARGET_FEATURES, replace=False))
    targets = spec.parent / "targets.json"
    targets.write_text(plant_subset(pop, members, features, w.orders).to_json() + "\n", encoding="utf-8")
    args = (
        "--mode", w.mode,
        "--trial-size", str(len(members)),
        "--draws", str(w.draws),
        "--seed", str(int(rng.integers(0, 2**31 - 1))),
    )
    return Instance(spec.parent.name, population, targets, args, w.n_p)
