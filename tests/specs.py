"""Synthetic specs for the tests, built as the JSON that ``dsps generate`` reads."""

import json

from dsps.synthgen import SynthSpec


def synth_spec(n_p, seed, features) -> SynthSpec:
    """``SynthSpec.from_json`` of a spec whose ``features`` map each name to its distribution node."""
    features = [{"name": name, "dist": dist} for name, dist in features.items()]
    return SynthSpec.from_json(json.dumps({"n_p": n_p, "seed": seed, "features": features}))


def normal(mu, sigma) -> dict:
    return {"type": "normal", "mu": mu, "sigma": sigma}


def lognormal(mu, sigma) -> dict:
    return {"type": "lognormal", "mu": mu, "sigma": sigma}


def mixture(*components) -> dict:
    """A mixture node of ``(weight, node)`` pairs."""
    return {"type": "mixture", "components": [{"weight": w, "dist": d} for w, d in components]}
