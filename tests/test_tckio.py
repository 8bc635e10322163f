import re

import numpy as np
import pytest

from swmparc.tckio import TrackFileError, read_tck, write_tck


def data_offset(raw: bytes) -> int:
    return raw.find(b"\nEND\n") + 5


def write_raw(tmp_path, streamlines, name="t.tck"):
    path = tmp_path / name
    write_tck(streamlines, path)
    return path, path.read_bytes()


def test_round_trip_values(tmp_path):
    rng = np.random.default_rng(7)
    lines = [rng.uniform(-100, 100, (n, 3)) for n in (2, 5, 21)]
    path, _ = write_raw(tmp_path, lines)
    back = read_tck(path)
    assert len(back) == 3
    for orig, rt in zip(lines, back):
        assert rt.dtype == np.float64
        # storage is float32, so the round trip lands on float32 values
        assert np.array_equal(rt, orig.astype("<f4").astype(np.float64))


def test_rewrite_is_bit_identical(tmp_path):
    rng = np.random.default_rng(8)
    lines = [rng.uniform(-50, 50, (4, 3)) for _ in range(5)]
    path, raw1 = write_raw(tmp_path, lines)
    path2, raw2 = write_raw(tmp_path, read_tck(path), name="t2.tck")
    assert raw1 == raw2


def test_empty_file_round_trip(tmp_path):
    path, raw = write_raw(tmp_path, [])
    assert read_tck(path) == []
    assert b"count: 0" in raw


def test_header_offset_is_self_consistent(tmp_path):
    path, raw = write_raw(tmp_path, [np.zeros((2, 3))])
    offset = data_offset(raw)
    m = re.search(rb"file: \. (\d+)", raw)
    assert int(m.group(1)) == offset


def test_write_rejects_bad_shapes(tmp_path):
    with pytest.raises(ValueError, match="streamline 0"):
        write_tck([np.zeros((1, 3))], tmp_path / "x.tck")
    with pytest.raises(ValueError, match="streamline 1"):
        write_tck([np.zeros((2, 3)), np.zeros((2, 2))], tmp_path / "x.tck")
    bad = np.zeros((3, 3))
    bad[1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        write_tck([bad], tmp_path / "x.tck")


def test_write_names_the_first_bad_streamline_in_input_order(tmp_path):
    good = np.ones((3, 3))
    nan = np.full((3, 3), np.nan)
    cases = [
        ([good, good, nan, good[:1]], "streamline 2 has non-finite points"),
        ([good, good[:1], nan], r"streamline 1 is not an \(n>=2, 3\) array"),
        ([good, nan[:1]], r"streamline 1 is not an \(n>=2, 3\) array"),
        # a coordinate beyond the float32 range would be stored as Inf,
        # which no reader takes for a point
        ([good, good * 1e39], "streamline 1 has non-finite points"),
    ]
    for lines, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            write_tck(lines, tmp_path / "x.tck")
        assert not (tmp_path / "x.tck").exists()


def test_stack_list_and_iterator_write_the_same_bytes(tmp_path):
    stack = np.random.default_rng(4).uniform(-80, 80, (6, 21, 3))
    _, from_stack = write_raw(tmp_path, stack, "a.tck")
    _, from_list = write_raw(tmp_path, list(stack), "b.tck")
    _, from_iter = write_raw(tmp_path, iter(stack), "c.tck")
    assert from_stack == from_list == from_iter
    body = np.frombuffer(from_stack[data_offset(from_stack):], dtype="<f4").reshape(-1, 3)
    expected = np.concatenate([np.concatenate([s.astype("<f4"), np.full((1, 3), np.nan)])
                               for s in stack] + [np.full((1, 3), np.inf)])
    assert body.tobytes() == expected.astype("<f4").tobytes()


def test_bad_magic(tmp_path):
    path, raw = write_raw(tmp_path, [np.zeros((2, 3))])
    path.write_bytes(b"mrtrix quacks" + raw[13:])
    with pytest.raises(TrackFileError, match="bad magic at byte 0"):
        read_tck(path)


def test_missing_end_line(tmp_path):
    path, raw = write_raw(tmp_path, [np.zeros((2, 3))])
    path.write_bytes(raw.replace(b"\nEND\n", b"\nEND "))
    with pytest.raises(TrackFileError, match="END line not found"):
        read_tck(path)


def test_unsupported_datatype(tmp_path):
    path, raw = write_raw(tmp_path, [np.zeros((2, 3))])
    path.write_bytes(raw.replace(b"Float32LE", b"Float64BE"))
    with pytest.raises(TrackFileError, match="unsupported datatype"):
        read_tck(path)


def test_offset_outside_file(tmp_path):
    path, raw = write_raw(tmp_path, [np.zeros((2, 3))])
    offset = data_offset(raw)
    grown = raw.replace(f"file: . {offset}".encode(), b"file: . 99999")
    path.write_bytes(grown)
    with pytest.raises(TrackFileError, match="data offset 99999 outside file"):
        read_tck(path)


def test_truncated_binary_reports_byte(tmp_path):
    path, raw = write_raw(tmp_path, [np.zeros((2, 3))])
    path.write_bytes(raw[:-5])
    with pytest.raises(TrackFileError, match=rf"truncated at byte {len(raw) - 5}"):
        read_tck(path)


def corrupt_triplet(raw: bytes, row: int, values) -> bytes:
    offset = data_offset(raw)
    start = offset + 12 * row
    patch = np.asarray(values, dtype="<f4").tobytes()
    return raw[:start] + patch + raw[start + 12:]


def test_malformed_separator_reports_byte(tmp_path):
    path, raw = write_raw(tmp_path, [np.ones((3, 3))])
    offset = data_offset(raw)
    # row 3 is the NaN separator; make it half-NaN
    path.write_bytes(corrupt_triplet(raw, 3, [np.nan, 0.0, 0.0]))
    with pytest.raises(TrackFileError,
                       match=rf"malformed separator triplet at byte {offset + 36}"):
        read_tck(path)


def test_malformed_terminator(tmp_path):
    path, raw = write_raw(tmp_path, [np.ones((3, 3))])
    path.write_bytes(corrupt_triplet(raw, 4, [np.inf, -np.inf, np.inf]))
    with pytest.raises(TrackFileError, match="malformed terminator"):
        read_tck(path)


def test_empty_streamline_rejected(tmp_path):
    path, raw = write_raw(tmp_path, [np.ones((3, 3))])
    path.write_bytes(corrupt_triplet(raw, 0, [np.nan] * 3))
    with pytest.raises(TrackFileError, match="empty streamline at byte"):
        read_tck(path)


def test_unterminated_streamline_before_terminator(tmp_path):
    path, raw = write_raw(tmp_path, [np.ones((3, 3))])
    # overwrite the separator with a data point: points then Inf, no NaN
    path.write_bytes(corrupt_triplet(raw, 3, [1.0, 2.0, 3.0]))
    with pytest.raises(TrackFileError, match="unterminated streamline"):
        read_tck(path)


def test_trailing_data_after_terminator(tmp_path):
    path, raw = write_raw(tmp_path, [np.ones((3, 3))])
    path.write_bytes(raw + np.zeros((1, 3), dtype="<f4").tobytes())
    with pytest.raises(TrackFileError, match="trailing data after terminator"):
        read_tck(path)


def test_missing_terminator(tmp_path):
    path, raw = write_raw(tmp_path, [np.ones((3, 3))])
    path.write_bytes(raw[:-12])
    with pytest.raises(TrackFileError, match="missing terminator"):
        read_tck(path)


def test_count_mismatch(tmp_path):
    path, raw = write_raw(tmp_path, [np.ones((3, 3))])
    path.write_bytes(raw.replace(b"count: 1", b"count: 3"))
    with pytest.raises(TrackFileError, match="header count 3 != 1"):
        read_tck(path)


def test_missing_file_raises(tmp_path):
    with pytest.raises(TrackFileError, match="cannot read"):
        read_tck(tmp_path / "nope.tck")


# -- the vectorized reader against the per-row loop it replaced ---------------

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from swmparc.tckio import _parse_header


def reference_read_tck(path) -> list[np.ndarray]:
    """The reader as a loop over every triplet, frozen as the oracle of
    `read_tck`: the same streamlines, or the same error text."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise TrackFileError(f"cannot read track file {path}: {e}") from e
    fields, offset = _parse_header(raw, path)

    body = raw[offset:]
    if len(body) % 12 != 0:
        raise TrackFileError(
            f"{path}: binary section truncated at byte {offset + len(body)} "
            f"({len(body)} bytes is not a whole number of triplets)")
    triplets = np.frombuffer(body, dtype="<f4").reshape(-1, 3).astype(np.float64)

    nan_rows = np.isnan(triplets).any(axis=1)
    inf_rows = np.isinf(triplets).any(axis=1)
    streamlines: list[np.ndarray] = []
    start = 0
    ended = False
    for row in range(len(triplets)):
        byte = offset + 12 * row
        if inf_rows[row]:
            if not np.all(np.isposinf(triplets[row])):
                raise TrackFileError(f"{path}: malformed terminator triplet at byte {byte}")
            if row != start:
                raise TrackFileError(
                    f"{path}: unterminated streamline before terminator at byte {byte}")
            ended = True
            if row != len(triplets) - 1:
                raise TrackFileError(f"{path}: trailing data after terminator at byte {byte + 12}")
            break
        if nan_rows[row]:
            if not np.all(np.isnan(triplets[row])):
                raise TrackFileError(f"{path}: malformed separator triplet at byte {byte}")
            if row == start:
                raise TrackFileError(f"{path}: empty streamline at byte {byte}")
            streamlines.append(triplets[start:row].copy())
            start = row + 1
    if not ended:
        raise TrackFileError(
            f"{path}: missing terminator triplet at byte {offset + len(body)}")

    declared = fields.get("count")
    if declared is not None:
        try:
            declared_n = int(declared)
        except ValueError:
            raise TrackFileError(f"{path}: non-integer count field {declared!r}") from None
        if declared_n != len(streamlines):
            raise TrackFileError(
                f"{path}: header count {declared_n} != {len(streamlines)} streamlines decoded")
    return streamlines


def outcome(reader, path):
    """(streamline bytes, None) or (None, error text) of one read."""
    try:
        return [(s.shape, s.dtype.str, s.tobytes()) for s in reader(path)], None
    except TrackFileError as e:
        return None, str(e)


NAN, INF = np.nan, np.inf
# rows written over a triplet of the body: partial and full NaN separators,
# partial, negative and full Inf terminators, and mixes of the two
FAULT_ROWS = [
    [NAN, NAN, NAN], [NAN, 0.0, 0.0], [0.0, NAN, 1.0], [1.0, 2.0, NAN],
    [INF, INF, INF], [INF, 0.0, 0.0], [0.0, 0.0, INF], [-INF, -INF, -INF],
    [INF, -INF, INF], [NAN, INF, INF], [INF, INF, NAN], [1.5, -2.5, 3.5],
]
FAULTS = st.one_of(
    st.tuples(st.just("row"), st.integers(0, 400), st.sampled_from(range(len(FAULT_ROWS)))),
    st.tuples(st.just("insert"), st.integers(0, 400), st.sampled_from(range(len(FAULT_ROWS)))),
    st.tuples(st.just("append"), st.integers(1, 3), st.sampled_from(range(len(FAULT_ROWS)))),
    st.tuples(st.just("cut"), st.integers(1, 40), st.none()),
    st.tuples(st.just("count"), st.integers(-2, 3), st.none()),
    st.tuples(st.just("count_text"), st.sampled_from(["x", "1.5", ""]), st.none()),
)


def apply_fault(raw: bytes, fault) -> bytes:
    offset = data_offset(raw)
    rows = (len(raw) - offset) // 12
    kind, where, which = fault
    if kind in ("row", "insert"):
        row = where % max(rows, 1)
        patch = np.asarray(FAULT_ROWS[which], dtype="<f4").tobytes()
        cut = offset + 12 * row
        return raw[:cut] + patch + raw[cut + 12 * (kind == "row"):]
    if kind == "append":
        return raw + np.asarray([FAULT_ROWS[which]] * where, dtype="<f4").tobytes()
    if kind == "cut":
        return raw[:max(offset, len(raw) - where)]
    count = re.search(rb"count: ([^\n]*)", raw)
    if kind == "count":
        declared = count.group(1)
        value = str(max(0, int(declared) + where if declared.isdigit() else where)).encode()
    else:
        value = where.encode()
    return raw[:count.start(1)] + value + raw[count.end(1):]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lengths=st.lists(st.integers(1, 12), max_size=8),
       faults=st.lists(FAULTS, max_size=3), seed=st.integers(0, 2 ** 32 - 1))
def test_vector_reader_matches_the_row_loop(tmp_path, lengths, faults, seed):
    rng = np.random.default_rng(seed)
    lines = [rng.uniform(-1e5, 1e5, (max(n, 2), 3)) for n in lengths]
    path, raw = write_raw(tmp_path, lines)
    for fault in faults:
        raw = apply_fault(raw, fault)
    path.write_bytes(raw)
    expected = outcome(reference_read_tck, path)
    assert outcome(read_tck, path) == expected


def test_reader_examples_take_every_path(tmp_path):
    """Each fault the property draws gives its own error on some file."""
    path, raw = write_raw(tmp_path, [np.ones((3, 3)), np.zeros((2, 3))])
    cases = {
        ("row", 3, 1): "malformed separator triplet",
        ("row", 0, 0): "empty streamline",
        ("row", 4, 0): "empty streamline",
        ("insert", 4, 0): "empty streamline",
        ("row", 7, 5): "malformed terminator triplet",
        ("row", 1, 6): "malformed terminator triplet",
        ("row", 7, 11): "missing terminator triplet",
        ("row", 6, 4): "unterminated streamline",
        ("append", 1, 11): "trailing data after terminator",
        ("append", 2, 4): "trailing data after terminator",
        ("cut", 12, None): "missing terminator triplet",
        ("cut", 5, None): "truncated at byte",
        ("count", 1, None): "header count 3 != 2",
        ("count_text", "x", None): "non-integer count field",
    }
    for fault, message in cases.items():
        path.write_bytes(apply_fault(raw, fault))
        expected = outcome(reference_read_tck, path)
        assert expected[1] is not None and message in expected[1], fault
        assert outcome(read_tck, path) == expected, fault


def test_streamlines_are_views_of_one_array(tmp_path):
    path, _ = write_raw(tmp_path, [np.ones((3, 3)), np.zeros((4, 3)), np.ones((2, 3))])
    lines = read_tck(path)
    assert [s.shape for s in lines] == [(3, 3), (4, 3), (2, 3)]
    base = lines[0].base
    assert base is not None and all(s.base is base for s in lines)
    assert all(s.dtype == np.float64 for s in lines)
