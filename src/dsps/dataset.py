"""Population container and CSV round-trip.

A population is a rectangular table: one row per candidate member, one id
column followed by one column per numeric feature.  Cells must parse as
finite reals with ``.`` as the decimal separator; missing or malformed cells
are hard errors, never imputed.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Union

import numpy as np

from .errors import (
    DuplicateFeatureName,
    DuplicateMemberId,
    LengthMismatch,
    MalformedCsv,
    NonNumericCell,
    UnknownFeature,
)

__all__ = ["Population", "load_population", "save_population", "write_id_csv", "feature_column"]

Source = Union[str, Path, bytes, IO[str], IO[bytes]]


@dataclass(frozen=True, eq=False)
class Population:
    """Immutable member table: ids, feature names, and an (n_p, n_x) float matrix."""

    member_ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "member_ids", tuple(self.member_ids))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        data = np.ascontiguousarray(np.asarray(self.data, dtype=float))
        if data.ndim != 2:
            raise MalformedCsv("population data must be a 2-d matrix")
        n_p, n_x = data.shape
        if n_p < 1 or n_x < 1:
            raise MalformedCsv("population needs at least one member and one feature")
        if len(self.member_ids) != n_p:
            raise LengthMismatch(f"{len(self.member_ids)} ids for {n_p} rows")
        if len(self.feature_names) != n_x:
            raise LengthMismatch(f"{len(self.feature_names)} names for {n_x} columns")
        if not np.all(np.isfinite(data)):
            raise NonNumericCell("population contains non-finite entries")
        _check_names(self.member_ids, DuplicateMemberId, "member id")
        _check_names(self.feature_names, DuplicateFeatureName, "feature name")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def n_members(self) -> int:
        return self.data.shape[0]

    @property
    def n_features(self) -> int:
        return self.data.shape[1]

    def feature_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise UnknownFeature(f"no feature named {name!r}") from None


def _check_names(items: Iterable[str], exc: type, what: str) -> None:
    """Each name is unique and survives a CSV round trip, whose load strips every cell."""
    seen = set()
    for item in items:
        if item in seen:
            raise exc(f"duplicate {what} {item!r}")
        if item != item.strip():
            raise MalformedCsv(f"{what} {item!r} has surrounding whitespace, which a CSV load strips")
        seen.add(item)


def _open_text(source: Source):
    """Return (text stream, needs_close) for a path, bytes, or file object."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8")), False
    if hasattr(source, "read"):
        probe = source.read(0)
        if isinstance(probe, bytes):
            return io.TextIOWrapper(source, encoding="utf-8", newline=""), False
        return source, False
    raise TypeError(f"cannot read population from {type(source).__name__}")


def load_population(source: Source) -> Population:
    """Parse a population CSV: header ``id,<feature>,...`` then one row per member."""
    stream, needs_close = _open_text(source)
    try:
        lines = list(stream)
    finally:
        if needs_close:
            stream.close()
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedCsv("empty population file") from None
    if len(header) < 2:
        raise MalformedCsv("header must name an id column and at least one feature")
    feature_names = [h.strip() for h in header[1:]]
    ids, data = _parse_plain(lines, len(header)) or _parse_rows(reader, header, feature_names)
    return Population(tuple(ids), tuple(feature_names), data)


def _parse_plain(lines: list[str], n_cols: int):
    """``(ids, data)`` parsed by ``np.loadtxt``, or None to use the row loop.

    Only for text the row loop would read the same way: no quotes,
    ``n_cols - 1`` commas per non-blank line in total (a line with an extra
    cell, which ``usecols`` would drop unseen, leaves another line short of
    the last column, and ``np.loadtxt`` rejects that one), every cell parsed
    without error or warning, and every value finite.  Anything else, errors
    included, goes to :func:`_parse_rows` for its messages.
    """
    # csv yields no cells for a blank line
    rows = [line for line in lines[1:] if line != "\n" and line != "\r\n"]
    text = "".join(rows)
    if not rows or '"' in text or text.count(",") != len(rows) * (n_cols - 1):
        return None
    ids = [line.partition(",")[0].strip() for line in rows]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(
                lines, delimiter=",", comments=None, skiprows=1,
                usecols=range(1, n_cols), dtype=float, ndmin=2,
            )
    except (ValueError, Warning):
        return None
    if data.shape != (len(ids), n_cols - 1) or not np.all(np.isfinite(data)):
        return None
    return ids, data


def _parse_rows(reader, header: list[str], feature_names: list[str]):
    """The row loop: every cell through ``float``, each error naming its line."""
    ids: list[str] = []
    rows: list[list[float]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue  # trailing blank line
        if len(row) != len(header):
            raise MalformedCsv(
                f"line {lineno}: expected {len(header)} cells, got {len(row)}"
            )
        ids.append(row[0].strip())
        values = []
        for name, cell in zip(feature_names, row[1:]):
            text = cell.strip()
            try:
                value = float(text)
            except ValueError:
                raise NonNumericCell(
                    f"line {lineno}, feature {name!r}: {text!r} is not numeric"
                ) from None
            if not math.isfinite(value):
                raise NonNumericCell(
                    f"line {lineno}, feature {name!r}: {text!r} is not finite"
                )
            values.append(value)
        rows.append(values)
    if not rows:
        raise MalformedCsv("population has a header but no members")
    return ids, np.array(rows, dtype=float)


def save_population(pop: Population, destination: Union[str, Path, IO[str]]) -> None:
    """Write a population CSV that reloads to full float precision."""
    write_id_csv(destination, ("id", *pop.feature_names), pop.member_ids, pop.data)


# a cell holding one of these is written in quotes
_CSV_SPECIAL = re.compile(r'[,"\r\n]')
_CHUNK_ROWS = 1024


def _quoted(cell: str) -> str:
    """``cell`` in quotes, each ``"`` doubled, if it holds ``,`` ``"`` CR or LF; else as is."""
    return '"' + cell.replace('"', '""') + '"' if _CSV_SPECIAL.search(cell) else cell


def write_id_csv(destination: Union[str, Path, IO[str]], header, ids, values) -> None:
    """Write ``header``, then one ``id,v_1,...,v_k`` line per id, each ending in ``\\n``.

    ``values`` is a vector (one cell per id) or has one row per id, and each
    value is written by ``repr``, so a float reloads bit for bit.  Header
    cells and ids are written by :func:`_quoted`, the one quoting rule; a
    number's ``repr`` never needs quotes.  Rows become Python lists
    ``_CHUNK_ROWS`` at a time, which bounds the memory they take.
    """
    values = np.asarray(values)
    own = isinstance(destination, (str, Path))
    stream = open(destination, "w", encoding="utf-8", newline="") if own else destination
    try:
        stream.write(",".join(map(_quoted, header)) + "\n")
        for start in range(0, len(ids), _CHUNK_ROWS):
            block = values[start:start + _CHUNK_ROWS].tolist()
            texts = map(repr, block) if values.ndim == 1 else (",".join(map(repr, row)) for row in block)
            stream.write("".join([
                # the search is inline so that a plain id costs no call
                f"{_quoted(member_id) if _CSV_SPECIAL.search(member_id) else member_id},{text}\n"
                for member_id, text in zip(ids[start:start + _CHUNK_ROWS], texts)
            ]))
    finally:
        if own:
            stream.close()


def feature_column(pop: Population, name: str) -> np.ndarray:
    """Read-only view of one feature column, in member order."""
    return pop.data[:, pop.feature_index(name)]
