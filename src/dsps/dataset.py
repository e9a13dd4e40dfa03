"""Population container and CSV round-trip.

A population is a rectangular table: one row per candidate member, one id
column followed by one column per numeric feature.  Cells must parse as
finite reals with ``.`` as the decimal separator; missing or malformed cells
are hard errors, never imputed.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DspsError

__all__ = ["Population", "load_population", "save_population", "write_id_csv", "feature_column"]


@dataclass(frozen=True, eq=False)
class Population:
    """Immutable member table: ids, feature names, and an (n_p, n_x) float matrix.

    ``data`` is a read-only copy of the matrix given, so no write through the
    caller's array, or through an array it is a view of, reaches it.
    """

    member_ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "member_ids", tuple(self.member_ids))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        data = np.array(self.data, dtype=float, order="C")
        if data.ndim != 2:
            raise DspsError("population data must be a 2-d matrix")
        n_p, n_x = data.shape
        if n_p < 1 or n_x < 1:
            raise DspsError("population needs at least one member and one feature")
        if len(self.member_ids) != n_p:
            raise DspsError(f"{len(self.member_ids)} ids for {n_p} rows")
        if len(self.feature_names) != n_x:
            raise DspsError(f"{len(self.feature_names)} names for {n_x} columns")
        if not np.all(np.isfinite(data)):
            raise DspsError("population contains non-finite entries")
        _check_names(self.member_ids, "member id")
        _check_names(self.feature_names, "feature name")
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
            raise DspsError(f"no feature named {name!r}") from None


def _check_names(items: Iterable[str], what: str) -> None:
    """Each name is a unique string that survives a CSV round trip, whose load strips every cell."""
    seen = set()
    for item in items:
        if not isinstance(item, str):
            raise DspsError(f"{what} {item!r} is not a string")
        if item in seen:
            raise DspsError(f"duplicate {what} {item!r}")
        if item != item.strip():
            raise DspsError(f"{what} {item!r} has surrounding whitespace, which a CSV load strips")
        seen.add(item)


def load_population(path: str | Path) -> Population:
    """Parse a population CSV: header ``id,<feature>,...`` then one row per member.

    ``path`` is a ``str`` or path object; bytes, a stream or a file descriptor
    raise ``TypeError``.  Lines may end in LF, CRLF or a bare CR.  The body
    starts after the header's last physical line (a quoted cell may span lines).
    """
    with open(Path(path), encoding="utf-8", newline="") as stream:
        lines = list(stream)
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DspsError("empty population file") from None
    if len(header) < 2:
        raise DspsError("header must name an id column and at least one feature")
    feature_names = [h.strip() for h in header[1:]]
    # reader.line_num: the physical lines the header took
    ids, data = _parse_plain(lines[reader.line_num:], len(header)) or _parse_rows(reader, header, feature_names)
    return Population(tuple(ids), tuple(feature_names), data)


def _parse_plain(body: list[str], n_cols: int):
    """``(ids, data)`` from one ``np.loadtxt`` call, or None to use the row loop.

    ``body`` is the lines after the header's last physical line.  Only for a
    body the row loop reads the same way: no quotes, ``n_cols`` cells on each
    non-blank line (``np.loadtxt`` rejects a ragged one), every cell parsed
    without error or warning (an empty body warns), and every value finite.
    Anything else, errors included, goes to :func:`_parse_rows` for its messages.
    """
    if any('"' in line for line in body):
        return None
    dtype = [("id", object), ("data", float, (n_cols - 1,))]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(body, delimiter=",", comments=None, ndmin=1, dtype=dtype)
    except (ValueError, Warning):
        return None
    if not np.all(np.isfinite(table["data"])):
        return None
    return [member_id.strip() for member_id in table["id"]], table["data"]


def _parse_rows(reader, header: list[str], feature_names: list[str]):
    """The row loop: every cell through ``float``, each error naming its line."""
    ids: list[str] = []
    rows: list[list[float]] = []
    for row in reader:  # reader.line_num: the physical line the row ends on
        if not row:
            continue  # trailing blank line
        if len(row) != len(header):
            raise DspsError(
                f"line {reader.line_num}: expected {len(header)} cells, got {len(row)}"
            )
        ids.append(row[0].strip())
        values = []
        for name, cell in zip(feature_names, row[1:]):
            text = cell.strip()
            try:
                value = float(text)
            except ValueError:
                raise DspsError(
                    f"line {reader.line_num}, feature {name!r}: {text!r} is not numeric"
                ) from None
            if not math.isfinite(value):
                raise DspsError(
                    f"line {reader.line_num}, feature {name!r}: {text!r} is not finite"
                )
            values.append(value)
        rows.append(values)
    if not rows:
        raise DspsError("population has a header but no members")
    return ids, np.array(rows, dtype=float)


def save_population(pop: Population, path: str | Path) -> None:
    """Write a population CSV that reloads to full float precision."""
    write_id_csv(path, ("id", *pop.feature_names), pop.member_ids, pop.data)


# a cell holding one of these is written in quotes
_CSV_SPECIAL = re.compile(r'[,"\r\n]')
_CHUNK_ROWS = 1024


def _quoted(cell: str) -> str:
    """``cell`` in quotes, each ``"`` doubled, if it holds ``,`` ``"`` CR or LF; else as is."""
    return '"' + cell.replace('"', '""') + '"' if _CSV_SPECIAL.search(cell) else cell


def write_id_csv(path: str | Path, header, ids, values) -> None:
    """Write ``header``, then one ``id,v_1,...,v_k`` line per id, each ending in ``\\n``.

    ``values`` is a vector (one cell per id) or has one row per id, and each
    value is written by ``repr``, so a float reloads bit for bit.  Header
    cells and ids are written by :func:`_quoted`, the one quoting rule; a
    number's ``repr`` never needs quotes.  Rows become Python lists
    ``_CHUNK_ROWS`` at a time, which bounds the memory they take.  Values
    of a shape that does not fit ``ids`` and ``header`` raise
    :class:`DspsError` before the file is opened.
    """
    values = np.asarray(values)
    n, width = len(ids), len(header) - 1
    if values.shape != (n, width) and not (width == 1 and values.shape == (n,)):
        raise DspsError(f"values of shape {values.shape} for {n} ids and {width + 1} header cells")
    with open(Path(path), "w", encoding="utf-8", newline="") as stream:
        stream.write(",".join(map(_quoted, header)) + "\n")
        for start in range(0, len(ids), _CHUNK_ROWS):
            block = values[start:start + _CHUNK_ROWS].tolist()
            texts = map(repr, block) if values.ndim == 1 else (",".join(map(repr, row)) for row in block)
            stream.write("".join([
                # the search is inline so that a plain id costs no call
                f"{_quoted(member_id) if _CSV_SPECIAL.search(member_id) else member_id},{text}\n"
                for member_id, text in zip(ids[start:start + _CHUNK_ROWS], texts)
            ]))


def feature_column(pop: Population, name: str) -> np.ndarray:
    """Read-only view of one feature column, in member order."""
    return pop.data[:, pop.feature_index(name)]
