import csv
import io
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsps import dataset
from dsps.dataset import (
    Population,
    feature_column,
    load_population,
    save_population,
    write_id_csv,
)
from dsps.errors import DspsError

CSV = "id,hba1c,fpg\ns1,7.5,160.0\ns2,8.25,172.5\ns3,6.9,-1.5e2\n"


def load_file(text: bytes, load=load_population):
    """``load`` of a file of its own holding ``text``: the loader reads only paths."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pop.csv"
        path.write_bytes(text)
        return load(path)


def test_load_basic():
    pop = load_file(CSV.encode())
    assert pop.member_ids == ("s1", "s2", "s3")
    assert pop.feature_names == ("hba1c", "fpg")
    assert pop.data.shape == (3, 2)
    assert pop.data[2, 1] == -150.0


def test_load_from_path(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text(CSV)
    assert load_population(path).n_features == 2
    assert load_population(str(path)).n_features == 2


def test_bare_carriage_return_line_ends():
    pop = load_file(b"id,x\rs1,1.0\rs2,2.0\r")
    assert pop.member_ids == ("s1", "s2")
    assert pop.data.tolist() == [[1.0], [2.0]]


def test_only_a_path_is_read(tmp_path, monkeypatch):
    # bytes, streams and file descriptors are refused before anything is
    # opened: neither the file the bytes name nor the descriptor is read
    monkeypatch.chdir(tmp_path)
    Path("pop.csv").write_text(CSV)
    fd = os.open("pop.csv", os.O_RDONLY)
    try:
        for source in (b"pop.csv", CSV.encode(), io.StringIO(CSV), io.BytesIO(CSV.encode()), fd):
            with pytest.raises(TypeError):
                load_population(source)
        assert os.read(fd, 3) == b"id,"  # still open, still at the start
    finally:
        os.close(fd)


def test_only_a_path_is_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pop = load_file(CSV.encode())
    fd = os.open("fd.csv", os.O_WRONLY | os.O_CREAT)
    try:
        for destination in (b"out.csv", io.StringIO(), io.BytesIO(), fd):
            with pytest.raises(TypeError):
                save_population(pop, destination)
            with pytest.raises(TypeError):
                write_id_csv(destination, ("member_id", "p"), pop.member_ids, pop.data[:, 0])
        os.fstat(fd)  # still open
    finally:
        os.close(fd)
    assert os.listdir() == ["fd.csv"]
    assert Path("fd.csv").read_bytes() == b""


def test_data_is_read_only():
    pop = load_file(CSV.encode())
    with pytest.raises(ValueError):
        pop.data[0, 0] = 1.0


def test_round_trip_full_precision(tmp_path):
    values = np.array([[0.1, 1e-17], [1 / 3, 123456.789012345], [-2.5e300, 7.0]])
    pop = Population(("a", "b", "c"), ("u", "v"), values)
    path = tmp_path / "out.csv"
    save_population(pop, path)
    again = load_population(path)
    assert again.member_ids == pop.member_ids
    assert again.feature_names == pop.feature_names
    assert np.array_equal(again.data, pop.data)
    # serialising the reloaded population changes nothing
    path2 = tmp_path / "twice.csv"
    save_population(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_round_trip_bare_carriage_returns(tmp_path):
    # a bare CR in an id or a feature name is quoted, so its row stays one row
    values = np.array([[0.5, -1.0], [2.0, 1e-9], [3.0, 7.0]])
    pop = Population(("a\rb", "", "c"), ("x\ry", "z"), values)
    path = tmp_path / "pop.csv"
    save_population(pop, path)
    again = load_population(path)
    assert again.member_ids == pop.member_ids
    assert again.feature_names == pop.feature_names
    assert again.data.tobytes() == pop.data.tobytes()
    # an id that is only a CR is quoted too; the loader strips every cell, so it
    # reloads as "", and a Population refuses it (test_names_must_survive_a_csv_load)
    write_id_csv(path, ("id", "x\ry", "z"), ("a\rb", "\r", "c"), values)
    assert load_population(path).member_ids == ("a\rb", "", "c")


@pytest.mark.parametrize("ids, names, bad", [
    (("a", " a"), ("x",), " a"),
    (("a", "\r"), ("x",), "\r"),
    (("a", "cr\rlf\n"), ("x",), "cr\rlf\n"),
    (("a", " padded "), ("x",), " padded "),
    (("a", "b"), ("x ",), "x "),
], ids=["leading-space", "lone-cr", "trailing-lf", "padded", "feature-name"])
def test_names_must_survive_a_csv_load(ids, names, bad):
    # the loader strips every cell, so such a name would reload as another one
    with pytest.raises(DspsError, match="surrounding whitespace") as exc:
        Population(ids, names, np.zeros((len(ids), len(names))))
    assert repr(bad) in str(exc.value)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
@settings(max_examples=50)
def test_round_trip_arbitrary_floats(xs):
    pop = Population(
        tuple(f"m{i}" for i in range(len(xs))),
        ("x",),
        np.array(xs)[:, None],
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pop.csv"
        save_population(pop, path)
        again = load_population(path)
    assert np.array_equal(again.data, pop.data)


def test_empty_file():
    with pytest.raises(DspsError, match="empty population file"):
        load_file(b"")


def test_header_only():
    with pytest.raises(DspsError, match="header but no members"):
        load_file(b"id,x\n")


def test_header_without_features():
    with pytest.raises(DspsError, match="header must name an id column"):
        load_file(b"id\ns1\n")


def test_ragged_row():
    with pytest.raises(DspsError, match="line 2: expected 3 cells, got 2"):
        load_file(b"id,x,y\ns1,1.0\n")


def test_extra_cell_names_its_line():
    with pytest.raises(DspsError, match="line 2: expected 2 cells, got 3"):
        load_file(b"id,x\ns1,1.0,2.0\n")


def test_non_numeric_cell():
    with pytest.raises(DspsError, match="is not numeric") as err:
        load_file(b"id,x\ns1,abc\n")
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("text, message", [
    (b'id,"a\nb"\ns1,abc\n', "line 3, feature 'a\\nb': 'abc' is not numeric"),
    (b'id,x\n"s\n0",1\ns1,abc\n', "line 4, feature 'x': 'abc' is not numeric"),
    (b"id,x\ns0,1\n\ns1,abc\n", "line 4, feature 'x': 'abc' is not numeric"),
    (b"id,x\r\ns0,1\r\ns1,2,3\r\n", "line 3: expected 2 cells, got 3"),
], ids=["quoted header", "quoted id", "blank line", "crlf ragged"])
def test_error_names_the_physical_line(text, message):
    # a quoted cell that spans lines counts each of its lines
    with pytest.raises(DspsError) as err:
        load_file(text)
    assert str(err.value) == message


def test_missing_cell_is_error():
    with pytest.raises(DspsError, match="line 2, feature 'y': '' is not numeric"):
        load_file(b"id,x,y\ns1,1.0,\n")


def test_nan_cell_rejected():
    with pytest.raises(DspsError, match="'nan' is not finite"):
        load_file(b"id,x\ns1,nan\n")
    with pytest.raises(DspsError, match="'inf' is not finite"):
        load_file(b"id,x\ns1,inf\n")


def test_duplicate_member_id():
    with pytest.raises(DspsError, match="duplicate member id 's1'"):
        load_file(b"id,x\ns1,1.0\ns1,2.0\n")


def test_duplicate_feature_name():
    with pytest.raises(DspsError, match="duplicate feature name 'x'"):
        load_file(b"id,x,x\ns1,1.0,2.0\n")


def test_feature_column():
    pop = load_file(CSV.encode())
    np.testing.assert_array_equal(feature_column(pop, "hba1c"), [7.5, 8.25, 6.9])
    with pytest.raises(DspsError, match="no feature named 'weight'"):
        feature_column(pop, "weight")


def test_feature_column_single_member():
    pop = load_file(b"id,x\nonly,4.25\n")
    np.testing.assert_array_equal(feature_column(pop, "x"), [4.25])


def test_population_rejects_nonfinite():
    with pytest.raises(DspsError, match="non-finite entries"):
        Population(("a",), ("x",), np.array([[np.inf]]))


@pytest.mark.parametrize("ids, names, data, message", [
    (("a",), ("x",), [1.0], "must be a 2-d matrix"),
    ((), ("x",), np.zeros((0, 1)), "at least one member and one feature"),
    (("a",), (), np.zeros((1, 0)), "at least one member and one feature"),
    (("a", "b"), ("x",), [[1.0]], "^2 ids for 1 rows$"),
    (("a",), ("x", "y"), [[1.0]], "^2 names for 1 columns$"),
], ids=["1-d", "no members", "no features", "ids", "names"])
def test_population_rejects_a_shape_its_labels_do_not_fit(ids, names, data, message):
    with pytest.raises(DspsError, match=message):
        Population(ids, names, data)


def test_population_copies_the_matrix_it_is_given():
    # a write through the caller's array, or through the array it views, never reaches pop.data
    base = np.array([[1.0, 2.0], [3.0, 4.0]])
    view = base[:, :]
    pop = Population(("a", "b"), ("x", "y"), view)
    base[0, 0] = view[1, 1] = 9.0
    assert pop.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert view.flags.writeable and not pop.data.flags.writeable


@pytest.mark.parametrize("ids, names, bad", [
    ((1, 2), ("x",), "member id 1"),
    (("a", None), ("x",), "member id None"),
    (("a", "b"), (3,), "feature name 3"),
], ids=["int-ids", "none-id", "int-name"])
def test_a_name_that_is_not_a_string_is_input_error(ids, names, bad):
    with pytest.raises(DspsError, match=f"^{bad} is not a string$"):
        Population(ids, names, np.zeros((len(ids), len(names))))


def _outcome(load, text: bytes):
    """``(ids, feature names, data bytes)`` of a file's load, or ``(error class, message)``."""
    try:
        pop = load_file(text, load)
    except DspsError as exc:  # compared by class and message; any other error fails
        return type(exc), str(exc)
    return pop.member_ids, pop.feature_names, pop.data.tobytes()


def _load_by_rows(path):
    with mock.patch.object(dataset, "_parse_plain", lambda lines, n_cols: None):
        return load_population(path)


_PLAIN_IDS = st.sampled_from(["s", " s ", "#s", "s\t"])
_QUOTED_IDS = st.sampled_from(['"s,a"', '"s ""q"""'])
_GOOD_CELLS = st.sampled_from(["1.5", "-2.25e3", " 7 ", "\t0.1\t", "+.5", "5e-324", "-0.0"])
_BAD_CELLS = st.sampled_from([
    "", " ", "nan", "inf", "-inf", "1e400", "1_0", "0x1p3", "#", "3#", '"4.5"', '"1,5"',
])
# Header feature cells: plain, quoted over a comma, quoted over a line end,
# and a quote that never closes, which swallows the rest of the file.
_HEADER_CELLS = st.sampled_from(["f"] * 6 + ['"f,c"', '"f{end}n"', '"f'])
# Mostly well-formed lines, so that both parsers get exercised.
_LINE_KINDS = st.sampled_from(
    ["row"] * 12 + ["quoted id", "bad cell", "few cells", "many cells", "stray cr", "blank", "spaces"]
)


@st.composite
def _csv_texts(draw):
    """A population CSV text mixing well-formed rows with the loop's edge cases."""
    n_features = draw(st.integers(1, 3))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    cells = [draw(_HEADER_CELLS).replace("f", f"f{j}").format(end=end) for j in range(n_features)]
    lines = [",".join(["id", *cells])]
    for k in range(draw(st.integers(1, 6))):
        kind = draw(_LINE_KINDS)
        if kind in ("blank", "spaces"):
            lines.append("" if kind == "blank" else draw(st.sampled_from([" ", "\t", "  "])))
            continue
        member = draw(_QUOTED_IDS if kind == "quoted id" else _PLAIN_IDS).replace("s", f"s{k}")
        n_cells = n_features + {"few cells": -1, "many cells": 1}.get(kind, 0)
        cells = [draw(_GOOD_CELLS) for _ in range(n_cells)]
        if kind == "bad cell" and cells:
            cells[draw(st.integers(0, n_cells - 1))] = draw(_BAD_CELLS)
        line = ",".join([member, *cells])
        lines.append("\r" + line if kind == "stray cr" else line)
    return (end.join(lines) + (end if draw(st.booleans()) else "")).encode()


@given(_csv_texts())
@settings(max_examples=300, deadline=None)
# one line with a cell too many, one with a cell too few
@example(b"id,x\ns0,1.5,2\n \n")
# a header whose quote never closes swallows the file: no member follows it
@example(b'id,"x\ns0,1.5\n')
# a quoted id, whose quotes np.loadtxt would keep
@example(b'id,x\n"s ""q""",1.5\n')
def test_loader_matches_the_row_loop(text):
    # a file splits lines at any line end, a stray CR included
    assert _outcome(load_population, text) == _outcome(_load_by_rows, text)


def test_plain_csv_skips_the_row_loop():
    # The repr-written CSV that save_population emits, with either line end,
    # is parsed without the per-cell loop; so are blank lines between rows, a
    # single feature, and quoted header cells over an unquoted body.
    for text in (
        CSV,
        CSV.replace("\n", "\r\n") + "\r\n",
        CSV.replace("\n", "\n\n"),
        CSV.replace("\n", "\r\n\r\n"),
        "id,x\ns1,1.5\ns2,-2e-3\n",
        'id,"a,b","c\nd"\ns1,1,2\ns2,3,4\n',
    ):
        with mock.patch.object(dataset, "_parse_rows", side_effect=AssertionError("row loop")):
            pop = load_file(text.encode())
        want = load_file(text.encode(), _load_by_rows)
        assert pop.member_ids == want.member_ids
        assert pop.data.tobytes() == want.data.tobytes()


# ids that csv quotes (",", '"', "\r", "\n") or that sit next to such ids
_IDS = st.text(alphabet=[",", '"', "\r", "\n", " ", "a", "7", "é", "漢"], max_size=5)
_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-5, -1e-5]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _reference_id_csv(header, ids, values) -> str:
    """The csv module's rendering: a float by repr, an integer by str, lines ending in LF.

    Each line is written with ``lineterminator="\\r\\n"``, under which every
    Python version quotes a cell holding CR or LF, and its CRLF becomes LF.
    """
    fmt = (lambda v: repr(float(v))) if values.dtype.kind == "f" else (lambda v: str(int(v)))

    def line(cells):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(cells)
        return buf.getvalue()[:-2] + "\n"

    rows = ([mid, *map(fmt, row)] for mid, row in zip(ids, values.reshape(len(ids), -1)))
    return "".join(map(line, [header, *rows]))


def _id_csv_text(header, ids, values) -> str:
    """The text :func:`write_id_csv` writes, from a file of its own."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ids.csv"
        write_id_csv(path, header, ids, values)
        return path.read_bytes().decode("utf-8")


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_id_csv_matches_the_csv_module(data):
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, 3))
    ids = data.draw(st.lists(_IDS, min_size=n, max_size=n))
    header = ("id", *data.draw(st.lists(_IDS, min_size=k, max_size=k)))
    floats = np.array(data.draw(st.lists(_FLOATS, min_size=n * k, max_size=n * k)))
    mask = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
    for head, values in (
        (header, floats.reshape(n, k)),  # population rows
        (header[:2], floats[:n]),  # probabilities.csv
        (header[:2], mask),  # mask.csv
    ):
        assert _id_csv_text(head, ids, values) == _reference_id_csv(head, ids, values)


def test_id_csv_file_bytes_match_the_csv_module(tmp_path):
    ids = ["a,b", 'say "hi"', "cr\rlf\n", " padded ", "é漢", "", "plain"]
    values = np.array([-0.0, 5e-324, 1e16, 1e-5, 0.1, -2.5e300, 7.0])
    for name, vals in (("p.csv", values), ("mask.csv", (values > 0).astype(np.int8))):
        write_id_csv(tmp_path / name, ("member_id", "v"), ids, vals)
        want = _reference_id_csv(("member_id", "v"), ids, vals).encode("utf-8")
        assert (tmp_path / name).read_bytes() == want
    # the loader strips every cell, so the Population takes the ids a load gives back
    pop = Population(tuple(mid.strip() for mid in ids), ("u",), values[:, None])
    save_population(pop, tmp_path / "pop.csv")
    again = load_population(tmp_path / "pop.csv")
    assert again.member_ids == pop.member_ids
    assert again.data.tobytes() == pop.data.tobytes()


@pytest.mark.parametrize("header, ids, values, shape", [
    (("member_id", "p"), ("a", "b", "c"), [0.1, 0.2], "(2,)"),
    (("member_id", "p"), ("a", "b"), [0.1, 0.2, 0.3], "(3,)"),
    (("id", "x"), ("a", "b"), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], "(2, 3)"),
    (("id", "x", "y"), ("a", "b"), [0.1, 0.2], "(2,)"),
    (("id", "x"), ("a",), [[[1.0]]], "(1, 1, 1)"),
], ids=["short", "long", "wide", "vector-under-two-features", "3-d"])
def test_id_csv_refuses_values_that_do_not_fit_before_writing(tmp_path, header, ids, values, shape):
    path = tmp_path / "ids.csv"
    with pytest.raises(DspsError, match=rf"^values of shape {re.escape(shape)} for {len(ids)} ids"):
        write_id_csv(path, header, ids, values)
    assert not path.exists()


def test_id_csv_across_row_chunks():
    # rows are formatted a chunk at a time; quoted ids sit on both sides of each seam
    n = 2 * dataset._CHUNK_ROWS + 5
    ids = [f"m{i}" for i in range(n)]
    for i in (0, dataset._CHUNK_ROWS - 1, dataset._CHUNK_ROWS, 2 * dataset._CHUNK_ROWS, n - 1):
        ids[i] = f'id "{i}", quoted'
    rng = np.random.default_rng(5)
    data = rng.normal(0.0, 1e3, (n, 3))
    for head, values in (
        (("id", "a", "b", "c"), data),
        (("member_id", "p"), data[:, 0]),
        (("member_id", "selected"), (data[:, 1] > 0).astype(np.int8)),
    ):
        assert _id_csv_text(head, ids, values) == _reference_id_csv(head, ids, values)
