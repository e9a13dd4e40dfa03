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
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DspsError, InsufficientData

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
            raise DspsError(f"feature must be a string, got {self.feature!r}")
        object.__setattr__(self, "order", count(self.order, 1, "order"))
        value = float(self.value)
        if not np.isfinite(value):
            raise DspsError(f"target for ({self.feature!r}, {self.order}) is not finite")
        if self.order == 2 and value < 0.0:
            raise DspsError(f"variance target for {self.feature!r} is negative")
        object.__setattr__(self, "value", value)


@dataclass(frozen=True)
class TargetSet:
    """The criteria, in target order and checked; :meth:`references` is its one lookup.

    Any order >= 2 requires an order-1 target for the same feature, and the
    standardised orders 3 and 4 additionally require order 2, since those
    statistics are centred and scaled by the lower-order targets.
    """

    criteria: tuple[TargetCriterion, ...]

    def __post_init__(self):
        criteria = tuple(self.criteria)
        object.__setattr__(self, "criteria", criteria)
        seen = set()
        for c in criteria:
            if not isinstance(c, TargetCriterion):
                raise DspsError(f"a target set holds TargetCriterion values, got {c!r}")
            key = (c.feature, c.order)
            if key in seen:
                raise DspsError(f"duplicate target for {key}")
            seen.add(key)
        for c in criteria:
            self.references(c.feature, c.order)

    def __len__(self) -> int:
        return len(self.criteria)

    def __iter__(self) -> Iterator[TargetCriterion]:
        return iter(self.criteria)

    def references(self, feature: str, order: int) -> tuple[float | None, float | None]:
        """The target ``(mean, var)`` an order's moment is taken about, ``None`` where unused.

        The mean centres orders >= 2 and the variance scales orders 3 and 4.
        """
        values = {(c.feature, c.order): c.value for c in self.criteria}
        refs = []
        for ref, used in ((1, order >= 2), (2, order in (3, 4))):
            if used and (feature, ref) not in values:
                raise DspsError(f"({feature!r}, {order}) needs an order-{ref} target")
            refs.append(values[(feature, ref)] if used else None)
        return refs[0], refs[1]

    @staticmethod
    def from_json(text: str | bytes) -> "TargetSet":
        raw = json_parse(text, "targets")
        if not isinstance(raw, list):
            raise DspsError("targets JSON must be an array of criterion objects")
        criteria = []
        for item in raw:
            if not isinstance(item, dict) or not {"feature", "order", "value"} <= set(item):
                raise DspsError(f"criterion {item!r} needs feature/order/value")
            feature, order = item["feature"], json_count(item["order"], 1, "order")
            what = f"value of ({feature!r}, {order!r})"
            value = json_number(item["value"], what)
            criteria.append(TargetCriterion(feature, order, value))
        return TargetSet(tuple(criteria))

    def to_json(self) -> str:
        rows = [
            {"feature": c.feature, "order": c.order, "value": float(c.value)}
            for c in self.criteria
        ]
        return json.dumps(rows, indent=2, sort_keys=True)


def json_parse(text: str | bytes, what: str):
    """``json.loads(text)``; text that does not parse raises :class:`DspsError` naming ``what``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, huge integer, deep nesting
        raise DspsError(f"{what} JSON does not parse: {exc}") from None


def json_number(value, what: str) -> float:
    """``value`` as a float if JSON holds a number there (not ``true``), else :class:`DspsError`."""
    if type(value) not in (int, float):  # json.loads gives exactly these, or a bool
        raise DspsError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise DspsError(f"{what} is out of range, got {value}") from None


def json_count(value, low: int, what: str) -> int:
    """:func:`count` of a JSON number, where an integral float up to ``2**53`` is an integer."""
    exact = isinstance(value, float) and value.is_integer() and abs(value) <= 2.0**53
    return count(int(value) if exact else value, low, what)


def count(value, low: int, what: str) -> int:
    """A Python or numpy integer >= ``low`` as an int; a bool, float or string raises DspsError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        kind = "positive" if low else "non-negative"
        raise DspsError(f"{what} must be a {kind} integer, got {value!r}")
    return int(value)


def sample_moment(values, order: int) -> float:
    """Moment of ``values`` about their own mean, under the package conventions.

    ``order`` is a :func:`count` >= 1, as in :func:`expected_moment`, which is this
    moment about given reference values when the weights are all 1.
    """
    order = count(order, 1, "order")
    x = np.asarray(values, dtype=float).ravel()
    n = x.size
    if n < 1:
        raise InsufficientData("no values")
    if order in (2, 3, 4) and n < 2:
        raise InsufficientData(f"order-{order} moment needs at least 2 values")
    with np.errstate(over="ignore", invalid="ignore"):
        d = x - float(np.mean(x)) if order >= 2 else x
        sv = _variance_scale(np.sum(d**2) / (n - 1)) if order in (3, 4) else None
        dof, scale, shift = moment_terms(order, sv)
        value = float(np.sum(d**order) / (n - dof) / scale - shift)
    if not np.isfinite(value):
        raise DspsError(f"the order-{order} moment overflows float64")
    return value


def moment_terms(order: int, var: float | None = None) -> tuple[int, float, float]:
    """``(dof, scale, shift)`` of an order, so that under weights ``w``

    ``moment = sum(w * d**order) / (sum(w) - dof) / scale - shift``

    with ``d`` the deviation from the centre (0 for order 1) and ``var`` the
    variance that standardises orders 3 and 4.  The LP rows are built from
    the same terms, so a row and the moment it matches cannot drift apart.
    A scale beyond float64 is NaN, so nothing built on it reads as finite.
    """
    if order == 2:
        return 1, 1.0, 0.0
    if order in (3, 4):
        with np.errstate(over="ignore"):  # a Python float would raise OverflowError
            scale = np.float64(var) ** (1.5 if order == 3 else 2)
        return 0, scale if np.isfinite(scale) else np.nan, 0.0 if order == 3 else 3.0
    return 0, 1.0, 0.0


def _variance_scale(var) -> float:
    sv = float(var)
    if sv <= 0.0:
        raise InsufficientData(f"variance scale {sv} is not positive")
    return sv


def probability_vector(p) -> np.ndarray:
    """``p`` as a 1-D float array in ``[0, 1]``: the one rule for probabilities.

    Any other shape, or an entry outside ``[0, 1]`` (or NaN), raises
    :class:`DspsError`.
    """
    q = np.asarray(p, dtype=float)
    if q.ndim != 1:
        raise DspsError(f"probabilities must be a 1-D vector, got shape {q.shape}")
    ok = (q >= 0.0) & (q <= 1.0)  # NaN fails both comparisons
    if not np.all(ok):
        raise DspsError(f"probability {q[~ok][0]} outside [0, 1]")
    return q


def expected_size(p) -> float:
    """Expected selected count ``sum(p)`` of independent inclusion probabilities."""
    return float(np.sum(probability_vector(p)))


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
    ``target_var`` (orders 3 and 4); a missing one, or a moment beyond
    float64, is a :class:`DspsError`.
    """
    order = count(order, 1, "order")
    x = np.asarray(values, dtype=float).ravel()
    q = np.asarray(p, dtype=float)
    if x.size != q.size:
        raise DspsError(f"{x.size} values but {q.size} probabilities")
    total = expected_size(q)
    if order >= 2 and target_mean is None:
        raise DspsError(f"order-{order} weighted moment requires target_mean")
    if order == 2 and total <= 1.0:
        raise InsufficientData("weighted variance needs expected size above 1")
    if total <= 0.0:
        raise InsufficientData("expected size is zero")
    sv = None
    if order in (3, 4):
        if target_var is None:
            raise DspsError(f"order-{order} weighted moment requires target_var")
        sv = _variance_scale(target_var)
    with np.errstate(over="ignore", invalid="ignore"):
        d = x - float(target_mean) if order >= 2 else x
        dof, scale, shift = moment_terms(order, sv)
        value = float(np.dot(q, d**order) / (total - dof) / scale - shift)
    if not np.isfinite(value):
        raise DspsError(f"the order-{order} moment overflows float64")
    return value
