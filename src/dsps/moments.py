"""Sample and probability-weighted moments, and the targets they are matched to.

Conventions, fixed across the package:

* order 1 -- arithmetic mean
* order 2 -- unbiased variance, divisor ``n - 1``
* order 3 -- standardised skewness ``(1/n) sum((x-mu)^3) / sigma^3``
* order 4 -- excess kurtosis  ``(1/n) sum((x-mu)^4) / sigma^4 - 3``
* order >= 5 -- raw central moment ``(1/n) sum((x-mu)^k)``

The probability-weighted analogues replace counts with the total weight
``sum(p)`` and centre on a supplied target mean (and target variance for the
standardised orders), because during selection the reference distribution is
the target, not the weighted sample itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import (
    DegenerateWeight,
    DuplicateCriterion,
    InsufficientData,
    InvalidCriterion,
    LengthMismatch,
    MissingPrerequisiteTarget,
    OutOfRangeProbability,
    ZeroVariance,
)

__all__ = [
    "TargetCriterion",
    "TargetSet",
    "sample_moment",
    "expected_size",
    "expected_moment",
]


@dataclass(frozen=True)
class TargetCriterion:
    """One target: feature name, moment order, target value."""

    feature: str
    order: int
    value: float

    def __post_init__(self):
        if not isinstance(self.feature, str):
            raise InvalidCriterion(f"feature must be a string, got {self.feature!r}")
        # a JSON true is a Python bool, which is an int
        if isinstance(self.order, bool) or not isinstance(self.order, int) or self.order < 1:
            raise InvalidCriterion(f"order must be a positive integer, got {self.order!r}")
        value = float(self.value)
        if not np.isfinite(value):
            raise InvalidCriterion(f"target for ({self.feature!r}, {self.order}) is not finite")
        if self.order == 2 and value < 0.0:
            raise InvalidCriterion(f"variance target for {self.feature!r} is negative")
        object.__setattr__(self, "value", value)


@dataclass(frozen=True)
class TargetSet:
    """Collection of criteria with prerequisite checks.

    Any order >= 2 requires an order-1 target for the same feature, and the
    standardised orders 3 and 4 additionally require order 2, since those
    statistics are centred and scaled by the lower-order targets.
    """

    criteria: tuple[TargetCriterion, ...]
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        criteria = tuple(self.criteria)
        object.__setattr__(self, "criteria", criteria)
        index: dict[tuple[str, int], float] = {}
        for c in criteria:
            key = (c.feature, c.order)
            if key in index:
                raise DuplicateCriterion(f"duplicate target for {key}")
            index[key] = c.value
        for c in criteria:
            if c.order >= 2 and (c.feature, 1) not in index:
                raise MissingPrerequisiteTarget(
                    f"({c.feature!r}, {c.order}) needs an order-1 target"
                )
            if c.order in (3, 4) and (c.feature, 2) not in index:
                raise MissingPrerequisiteTarget(
                    f"({c.feature!r}, {c.order}) needs an order-2 target"
                )
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.criteria)

    def __iter__(self) -> Iterator[TargetCriterion]:
        return iter(self.criteria)

    def has(self, feature: str, order: int) -> bool:
        return (feature, order) in self._index

    def value_of(self, feature: str, order: int) -> float:
        try:
            return self._index[(feature, order)]
        except KeyError:
            raise MissingPrerequisiteTarget(f"no target for ({feature!r}, {order})") from None

    @staticmethod
    def from_json(text: str | bytes) -> "TargetSet":
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad syntax, huge integer, deep nesting
            raise InvalidCriterion(f"targets JSON does not parse: {exc}") from None
        if not isinstance(raw, list):
            raise InvalidCriterion("targets JSON must be an array of criterion objects")
        criteria = []
        for item in raw:
            if not isinstance(item, dict) or not {"feature", "order", "value"} <= set(item):
                raise InvalidCriterion(f"criterion {item!r} needs feature/order/value")
            feature, order = item["feature"], item["order"]
            if isinstance(order, float) and order.is_integer():
                order = int(order)
            what = f"value of ({feature!r}, {order!r})"
            value = json_number(item["value"], what, InvalidCriterion)
            criteria.append(TargetCriterion(feature, order, value))
        return TargetSet(tuple(criteria))

    def to_json(self) -> str:
        rows = [
            {"feature": c.feature, "order": c.order, "value": float(c.value)}
            for c in self.criteria
        ]
        return json.dumps(rows, indent=2, sort_keys=True)


def json_number(value, what: str, error: type) -> float:
    """``value`` as a float if JSON holds a number there (not ``true``), else ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise error(f"{what} is out of range, got {value}") from None


def sample_moment(values, order: int) -> float:
    """Moment of ``values`` about their own mean, under the package conventions.

    About given reference values it is :func:`expected_moment` with unit weights.
    """
    x = np.asarray(values, dtype=float).ravel()
    n = x.size
    if n < 1:
        raise InsufficientData("no values")
    if order in (2, 3, 4) and n < 2:
        raise InsufficientData(f"order-{order} moment needs at least 2 values")
    d = x
    if order >= 2:
        d = x - float(np.mean(x))
    sv = _variance_scale(np.sum(d**2) / (n - 1)) if order in (3, 4) else None
    dof, scale, shift = moment_terms(order, sv)
    return float(np.sum(d**order) / (n - dof) / scale - shift)


def moment_terms(order: int, var: float | None = None) -> tuple[int, float, float]:
    """``(dof, scale, shift)`` of an order, so that under weights ``w``

    ``moment = sum(w * d**order) / (sum(w) - dof) / scale - shift``

    with ``d`` the deviation from the centre (0 for order 1) and ``var`` the
    variance that standardises orders 3 and 4.  The LP rows are built from
    the same terms, so a row and the moment it matches cannot drift apart.
    """
    if order == 2:
        return 1, 1.0, 0.0
    if order == 3:
        return 0, var**1.5, 0.0
    if order == 4:
        return 0, var**2, 3.0
    return 0, 1.0, 0.0


def _variance_scale(var) -> float:
    sv = float(var)
    if sv <= 0.0:
        raise ZeroVariance(f"variance scale {sv} is not positive")
    return sv


def expected_size(p) -> float:
    """Expected selected count ``sum(p)`` of independent inclusion probabilities."""
    q = np.asarray(p, dtype=float).ravel()
    ok = (q >= 0.0) & (q <= 1.0)  # NaN fails both comparisons
    if not np.all(ok):
        bad = q[~ok][0]
        raise OutOfRangeProbability(f"probability {bad} outside [0, 1]")
    return float(np.sum(q))


def expected_moment(
    values,
    p,
    order: int,
    target_mean: float | None = None,
    target_var: float | None = None,
) -> float:
    """Probability-weighted moment of ``values`` under inclusion weights ``p``.

    Mirrors :func:`sample_moment` with ``sum(p)`` in place of the count, but
    centres on ``target_mean`` (orders >= 2) and standardises by
    ``target_var`` (orders 3 and 4), which must be supplied.
    """
    x = np.asarray(values, dtype=float).ravel()
    q = np.asarray(p, dtype=float).ravel()
    if x.size != q.size:
        raise LengthMismatch(f"{x.size} values but {q.size} probabilities")
    total = expected_size(q)
    d = x
    if order >= 2:
        if target_mean is None:
            raise InsufficientData(f"order-{order} weighted moment requires target_mean")
        d = x - float(target_mean)
    if order == 2 and total <= 1.0:
        raise DegenerateWeight("weighted variance needs expected size above 1")
    if total <= 0.0:
        raise DegenerateWeight("expected size is zero")
    sv = None
    if order in (3, 4):
        if target_var is None:
            raise InsufficientData(f"order-{order} weighted moment requires target_var")
        sv = _variance_scale(target_var)
    dof, scale, shift = moment_terms(order, sv)
    return float(np.dot(q, d**order) / (total - dof) / scale - shift)
