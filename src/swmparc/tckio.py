"""Track-file reader and writer.

Layout: a text header opened by the magic line "mrtrix tracks", key-value
lines, and a closing "END" line; then float32 little-endian xyz triplets
starting at the byte position named by the "file: . <offset>" field.  A
(NaN,NaN,NaN) triplet closes each streamline and an (Inf,Inf,Inf) triplet
closes the stream.  Output bytes are deterministic for identical input.

The reader views the body in place as float32 triplets and finds the
separators and the terminator among the rows that are not finite, with
array operations and no loop over rows; a malformed file is rejected with
the byte offset of its first bad row in file order.  It returns float64
views into one copy of the body.
"""
from __future__ import annotations

import numpy as np

MAGIC = "mrtrix tracks"
DATATYPE = "Float32LE"


_NAN_ROW = np.full((1, 3), np.nan)
_INF_ROW = np.full((1, 3), np.inf)


class TrackFileError(ValueError):
    """Malformed track file; message carries the byte offset when known."""


def _header_bytes(count: int, offset: int) -> bytes:
    lines = [
        MAGIC,
        f"datatype: {DATATYPE}",
        f"count: {count}",
        f"file: . {offset}",
        "END",
    ]
    return ("\n".join(lines) + "\n").encode("ascii")


def write_tck(streamlines, path) -> None:
    """Write streamlines, an (n, k, 3) stack or a sequence of (m, 3) arrays,
    to a track file.

    The points are cast to float32 in one concatenation into the file's
    body, between the NaN separators, and the body is checked for
    finiteness in one pass.  A bad streamline, also one with a coordinate
    beyond the float32 range, raises ValueError naming the first one in
    input order, and nothing is written.
    """
    arrays = [np.asarray(s, dtype=np.float64) for s in streamlines]
    shape_bad = next((i for i, a in enumerate(arrays)
                      if a.ndim != 2 or a.shape[1] != 3 or len(a) < 2), None)
    if shape_bad is not None:
        arrays = arrays[:shape_bad]
    n = len(arrays)
    # streamline i's points end on its NaN separator at row seps[i]; the Inf
    # terminator is the last row
    seps = np.cumsum(np.fromiter(map(len, arrays), dtype=np.int64, count=n) + 1) - 1
    payload = np.empty((int(seps[-1]) + 2 if n else 1, 3), dtype="<f4")
    parts = [_NAN_ROW] * (2 * n) + [_INF_ROW]
    parts[0:2 * n:2] = arrays
    with np.errstate(over="ignore"):
        np.concatenate(parts, out=payload)
    finite = np.isfinite(payload)
    if np.count_nonzero(finite) != 3 * (len(payload) - n - 1):
        bad = ~finite.all(axis=1)
        bad[seps] = False
        bad[-1] = False
        i = int(np.searchsorted(seps, np.argmax(bad)))
        raise ValueError(f"streamline {i} has non-finite points")
    if shape_bad is not None:
        raise ValueError(f"streamline {shape_bad} is not an (n>=2, 3) array")

    # the header states the byte offset of its own end, so the offset field
    # is grown until the length stops changing
    offset = len(_header_bytes(n, 0))
    while True:
        header = _header_bytes(n, offset)
        if len(header) == offset:
            break
        offset = len(header)

    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
    except OSError as e:
        raise OSError(f"cannot write track file {path}: {e}") from e


def _parse_header(raw: bytes, path) -> tuple[dict[str, str], int]:
    """Returns (fields, data offset). Raises TrackFileError on bad layout."""
    limit = min(len(raw), 65536)
    text_end = raw.find(b"\nEND\n", 0, limit)
    if not raw.startswith(MAGIC.encode("ascii") + b"\n"):
        raise TrackFileError(f"{path}: bad magic at byte 0 (expected '{MAGIC}')")
    if text_end < 0:
        raise TrackFileError(f"{path}: header END line not found in the first {limit} bytes")
    header_text = raw[: text_end + 1].decode("ascii", errors="replace")
    fields: dict[str, str] = {}
    for line in header_text.splitlines()[1:]:
        if ":" not in line:
            raise TrackFileError(f"{path}: malformed header line {line!r}")
        key, value = line.split(":", 1)
        fields[key.strip()] = value.strip()
    file_field = fields.get("file")
    if file_field is None:
        raise TrackFileError(f"{path}: header missing 'file' field")
    parts = file_field.split()
    if len(parts) != 2 or parts[0] != ".":
        raise TrackFileError(f"{path}: unsupported file field {file_field!r}")
    try:
        offset = int(parts[1])
    except ValueError:
        raise TrackFileError(f"{path}: non-integer data offset {parts[1]!r}") from None
    if offset < text_end + 5 or offset > len(raw):
        raise TrackFileError(f"{path}: data offset {offset} outside file of {len(raw)} bytes")
    datatype = fields.get("datatype")
    if datatype != DATATYPE:
        raise TrackFileError(f"{path}: unsupported datatype {datatype!r}")
    return fields, offset


def read_tck(path) -> list[np.ndarray]:
    """Read a track file into a list of float64 (n,3) arrays, views into
    one array; the header count is checked before the split."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise TrackFileError(f"cannot read track file {path}: {e}") from e
    fields, offset = _parse_header(raw, path)

    size = len(raw) - offset
    if size % 12 != 0:
        raise TrackFileError(
            f"{path}: binary section truncated at byte {len(raw)} "
            f"({size} bytes is not a whole number of triplets)")
    triplets = np.frombuffer(raw, dtype="<f4", offset=offset).reshape(-1, 3)

    # separators and the terminator are the only rows that are not finite
    marks = np.flatnonzero(~np.isfinite(triplets).all(axis=1))
    rows = triplets[marks]
    inf = np.isinf(rows).any(axis=1)
    end = int(np.argmax(inf)) if inf.any() else len(marks)
    seps = marks[:end]
    # a gap of one row from the previous mark (or from row -1) closes nothing
    closes_nothing = np.diff(marks[:end + 1], prepend=-1) == 1
    bad_sep = ~np.isnan(rows[:end]).all(axis=1)
    first = np.flatnonzero(bad_sep | closes_nothing[:end])
    if first.size:
        i = first[0]
        byte = offset + 12 * int(seps[i])
        if bad_sep[i]:
            raise TrackFileError(f"{path}: malformed separator triplet at byte {byte}")
        raise TrackFileError(f"{path}: empty streamline at byte {byte}")
    if end == len(marks):
        raise TrackFileError(f"{path}: missing terminator triplet at byte {len(raw)}")
    row = int(marks[end])
    byte = offset + 12 * row
    if not np.all(np.isposinf(rows[end])):
        raise TrackFileError(f"{path}: malformed terminator triplet at byte {byte}")
    if not closes_nothing[end]:
        raise TrackFileError(f"{path}: unterminated streamline before terminator at byte {byte}")
    if row != len(triplets) - 1:
        raise TrackFileError(f"{path}: trailing data after terminator at byte {byte + 12}")

    declared = fields.get("count")
    if declared is not None:
        try:
            declared_n = int(declared)
        except ValueError:
            raise TrackFileError(f"{path}: non-integer count field {declared!r}") from None
        if declared_n != len(seps):
            raise TrackFileError(
                f"{path}: header count {declared_n} != {len(seps)} streamlines decoded")

    points = triplets[:row].astype(np.float64)
    starts = np.concatenate(([0], seps[:-1] + 1)).tolist()
    return [points[a:b] for a, b in zip(starts, seps.tolist())]
