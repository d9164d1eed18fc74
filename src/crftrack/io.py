"""Text formats: MOT-style track records, sequence metadata and frame JSON.

One record per line, comma separated, ten fields:
frame, id, left, top, width, height, score, -1, -1, -1. The three trailing
fields are placeholders kept for layout compatibility; every field must
parse as a finite number, and frame and id as integers that fit in int64.
`parse_mot` reads with numpy's C reader, and with int() and float() line by
line where that reader refuses. A TrackFile holds the rows as numpy
columns: frame and id as int64, the box and score as float64. Pixel values
are written with two decimals, scores with four, rounded half-up on the
exact binary value (`fixed_point`: "%.*f", with exact half-way cases
rounded away from zero in integer arithmetic); a non-finite value is a
ValidationError.
A frame object (one frame's context and windows) is the input of
`crftrack infer` and, with gold labels, one line of a training dataset.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
import warnings
from typing import NamedTuple

import numpy as np

from .errors import FormatError, ValidationError
from .features import Box, FrameContext, HypothesisWindow, is_integer, is_real


class TrackRecord(NamedTuple):
    """One row of a track file."""

    frame: int
    track_id: int
    left: float
    top: float
    width: float
    height: float
    score: float

    def box(self) -> Box:
        return Box(self.left, self.top, self.width, self.height)


class TrackFile:
    """Rows sorted by (frame, id), no duplicates, held as numpy columns.

    frame and track_id are int64 columns; left, top, width, height and score
    float64 columns. TrackFile(records) builds the columns from TrackRecord
    rows; `records`, `by_frame()` and `frames()` give rows back. A frame or id that
    is not an integer (a float or a bool is not) or lies outside int64, or a row
    out of order, is a FormatError whose line is the row's position.
    """

    def __init__(self, records=()):
        frame, track_id, *values = list(zip(*records)) or [()] * len(TrackRecord._fields)
        # One check per type, not per row: int64 conversion truncates floats and bools.
        if not all(issubclass(kind, numbers.Integral) and kind is not bool
                   for kind in {*map(type, frame), *map(type, track_id)}):
            row = next(i for i, key in enumerate(zip(frame, track_id))
                       if not all(map(is_integer, key)))
            raise FormatError(f"frame and id must be integers, got frame {frame[row]}, "
                              f"id {track_id[row]}", line=row + 1)
        self._fill(frame, track_id, *values)

    @classmethod
    def _from_columns(cls, *columns) -> TrackFile:
        track = cls.__new__(cls)
        track._fill(*columns)
        return track

    def _fill(self, frame, track_id, *values):
        try:
            self.frame = np.array(frame, dtype=np.int64)
            self.track_id = np.array(track_id, dtype=np.int64)
        except OverflowError:
            row = next(i for i, key in enumerate(zip(frame, track_id))
                       if not all(-2**63 <= v < 2**63 for v in key))
            raise FormatError(f"frame and id must fit in 64-bit integers, got frame "
                              f"{frame[row]}, id {track_id[row]}", line=row + 1)
        self.left, self.top, self.width, self.height, self.score = (
            np.asarray(c, dtype=float) for c in values)
        frame, track_id = self.frame, self.track_id
        later = (frame[1:] > frame[:-1]) | ((frame[1:] == frame[:-1])
                                            & (track_id[1:] > track_id[:-1]))
        if not later.all():
            row = int(np.argmin(later)) + 1
            same = frame[row] == frame[row - 1] and track_id[row] == track_id[row - 1]
            fault = "duplicate record" if same else "records not sorted by (frame, id)"
            raise FormatError(f"{fault} at frame {frame[row]}, id {track_id[row]}",
                              line=row + 1)

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The seven columns in TrackRecord field order."""
        return tuple(getattr(self, name) for name in TrackRecord._fields)

    @property
    def records(self) -> list[TrackRecord]:
        return list(map(TrackRecord, *(c.tolist() for c in self.columns)))

    def __len__(self):
        return len(self.frame)

    def __eq__(self, other):
        if not isinstance(other, TrackFile):
            return NotImplemented
        return all(map(np.array_equal, self.columns, other.columns))

    def __repr__(self):
        return f"TrackFile({self.records!r})"

    def _spans(self):
        """(frame, first row, end row) of every frame, frames ascending."""
        frames, starts = np.unique(self.frame, return_index=True)
        bounds = [*starts.tolist(), len(self)]
        return zip(frames.tolist(), bounds, bounds[1:])

    def by_frame(self) -> dict[int, list[TrackRecord]]:
        records = self.records
        return {f: records[a:b] for f, a, b in self._spans()}

    def frames(self):
        """Yield (frame, rows) for every frame, ascending, without building records.

        A row is (id, (left, top, width, height), score) of Python numbers.
        """
        boxes = zip(*(c.tolist() for c in (self.left, self.top, self.width, self.height)))
        rows = list(zip(self.track_id.tolist(), boxes, self.score.tolist()))
        for f, a, b in self._spans():
            yield f, rows[a:b]


def fixed_point(value: float, decimals: int) -> str:
    """value with `decimals` decimals, rounded half-up on its exact binary value.

    "%.*f" rounds the binary value correctly but half-even, so only exact
    half-way cases differ from half-up. At d decimals a double is one exactly
    when value * 2**(d + 1) is an odd integer (a power-of-two scaling is
    exact). Values that pass that test (it also passes a few negatives one
    ulp from a tie, as the float % rounds) are rounded away from zero in
    integer arithmetic on the exact ratio n/m of abs(value): the digits are
    floor(n * 10**d / m + 1/2). Raises ValidationError on a non-finite value.
    """
    value = float(value)  # a numpy float64 would warn where this scaling overflows
    scaled = value * (2 << decimals)
    if not math.isfinite(scaled):
        if not math.isfinite(value):
            raise ValidationError(f"cannot write the non-finite value {value}")
    elif scaled % 2.0 == 1.0:
        n, m = abs(value).as_integer_ratio()
        whole, fraction = divmod((2 * n * 10**decimals + m) // (2 * m), 10**decimals)
        return "%s%d.%0*d" % ("-" * (value < 0), whole, decimals, fraction)
    return "%.*f" % (decimals, value)


def round_half_up(value: float, decimals: int) -> float:
    return float(fixed_point(value, decimals))


def _read_row(line: str, lineno: int) -> tuple:
    """One non-blank line's (frame, id, left, top, width, height, score) by int()
    and float(); raises the FormatError of the first check the line fails."""
    fields = line.split(",")
    if len(fields) != 10:
        raise FormatError(f"expected 10 fields, got {len(fields)}", line=lineno)
    try:
        frame = int(fields[0])
        track_id = int(fields[1])
        values = list(map(float, fields[2:]))
    except ValueError:
        raise FormatError(f"non-numeric field in {line!r}", line=lineno)
    if not all(map(math.isfinite, values)):
        raise FormatError(f"non-finite field in {line!r}", line=lineno)
    width, height = values[2:4]
    if frame < 1:
        raise FormatError(f"frame numbers start at 1, got {frame}", line=lineno)
    if width <= 0 or height <= 0:
        raise FormatError(f"non-positive box dimensions {width}x{height}", line=lineno)
    return frame, track_id, *values[:5]


# One row for numpy's C reader: frame, id, then box, score and the three placeholders.
_TABLE = np.dtype([("frame", np.int64), ("id", np.int64), ("values", np.float64, 8)])


def _read_table(rows) -> tuple | None:
    """The seven columns of non-blank `rows` by numpy's C reader, or None when there
    are no rows, the reader refuses a field or warns, or a column check fails."""
    text = "".join(rows)
    # numpy's reader warns on no data, reads a non-ASCII letter in an integer as a
    # digit, and strips the separators \x1c-\x1f, which int() and float() refuse.
    if not text or not text.isascii() or any(c in text for c in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(rows, dtype=_TABLE, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    values = table["values"].T.copy()
    if table["frame"].min() >= 1 and np.isfinite(values).all() and (values[2:4] > 0).all():
        return table["frame"], table["id"], *values[:5]
    return None


def parse_mot(source) -> TrackFile:
    """Parse a MOT text file from a path or an iterable of lines; every number must be finite.

    numpy's C reader (`np.loadtxt`, whose float conversion is float()'s) reads
    all rows and the columns are checked as a whole. Any refusal (see
    `_read_table`) sends the lines to int() and float() line by line, which
    read what only Python accepts, such as "1_0", or name the first bad line.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, encoding="ascii") as fh:
            lines = fh.readlines()
    else:
        lines = list(source)

    rows = [line for line in map(str.strip, lines) if line]
    columns = _read_table(rows)
    if columns is None:
        records = map(_read_row, rows, _line_numbers(lines))
        columns = list(zip(*records)) or [()] * len(TrackRecord._fields)
    try:
        return TrackFile._from_columns(*columns)
    except FormatError as exc:
        exc.line = _line_numbers(lines)[exc.line - 1]  # TrackFile counts rows, not blank lines
        raise


def _line_numbers(lines) -> list[int]:
    """The 1-based numbers of the lines that are not blank."""
    return [n for n, line in enumerate(lines, start=1) if line.strip()]


_ROW = "%d,%d,%.2f,%.2f,%.2f,%.2f,%.4f,-1,-1,-1\n"
_DECIMALS = np.array([[2], [2], [2], [2], [4]])


def write_mot(track: TrackFile, path):
    """Write records in the fixed decimal layout; round-trips through parse_mot.

    Rows holding a value that fixed_point's tie test admits are written value
    by value with fixed_point; every other row by one %-format, which rounds
    as fixed_point does away from ties.
    """
    values = np.stack(track.columns[2:])
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        for value in values[:, np.argmin(finite)].tolist():
            fixed_point(value, 2)  # raises on the row's first non-finite value
    with np.errstate(over="ignore", invalid="ignore"):
        tie = (np.remainder(values * (2 << _DECIMALS), 2.0) == 1.0).any(axis=0)
    rows = list(zip(track.frame.tolist(), track.track_id.tolist(), *values.tolist()))
    lines = [_ROW % row for row in rows]
    for i in np.flatnonzero(tie).tolist():
        frame, track_id, *pixels, score = rows[i]
        lines[i] = ",".join([str(frame), str(track_id), *(fixed_point(v, 2) for v in pixels),
                             fixed_point(score, 4), "-1", "-1", "-1"]) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)


SEQINFO_KEYS = ("imWidth", "imHeight", "frameRate", "seqLength")


def _exact(value: float) -> str:
    """value as %g when that reads back exactly, else as the shortest exact repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def write_seqinfo(path, ctx: FrameContext, seq_length: int):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"imWidth={_exact(ctx.image_width)}\n")
        fh.write(f"imHeight={_exact(ctx.image_height)}\n")
        fh.write(f"frameRate={_exact(ctx.frame_rate)}\n")
        fh.write(f"seqLength={seq_length}\n")


def parse_seqinfo(path) -> tuple[FrameContext, int]:
    values = {}
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("["):
                continue
            if "=" not in line:
                raise FormatError(f"expected key=value, got {line!r}", line=lineno)
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in SEQINFO_KEYS:
                continue
            try:
                values[key] = int(text) if key == "seqLength" else float(text)
            except ValueError:
                raise FormatError(f"bad value for {key!r}: {text!r}", line=lineno)
    missing = [k for k in SEQINFO_KEYS if k not in values]
    if missing:
        raise FormatError(f"seqinfo missing keys {missing}")
    if values["seqLength"] < 1:
        raise FormatError(f"seqLength must be a positive integer, got {values['seqLength']}")
    ctx = FrameContext(image_width=values["imWidth"], image_height=values["imHeight"],
                       frame_rate=values["frameRate"])
    return ctx, values["seqLength"]


def _decode_json(text: str, what: str):
    """Decoded JSON text; malformed, too deeply nested or overlong-integer text is a
    FormatError naming `what`."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"bad {what}: {exc}")
    except ValueError:  # the only other: an integer past Python's conversion limit
        raise FormatError(f"bad {what}: integer longer than {sys.get_int_max_str_digits()} digits")


def frame_to_json(ctx: FrameContext, windows, gold=None) -> dict:
    """The frame object of `ctx` and `windows`; a window whose id is in `gold` gets its label."""
    items = []
    for w in windows:
        items.append({"id": w.tracklet_id, "boxes": [
            [float(b.left), float(b.top), float(b.width), float(b.height)] for b in w.boxes],
            "score": float(w.score)})
        if gold and w.tracklet_id in gold:
            items[-1]["gold"] = gold[w.tracklet_id]
    return {"image_width": float(ctx.image_width), "image_height": float(ctx.image_height),
            "frame_rate": float(ctx.frame_rate), "windows": items}


def _typed(value, kind: type, what: str):
    """value as kind (int or float); JSON true is neither, and a float is no int."""
    if not (is_integer if kind is int else is_real)(value):
        noun = "an integer" if kind is int else "a number"
        raise FormatError(f"frame JSON {what} must be {noun}, got {value!r}")
    return kind(value)


def frame_from_json(data) -> tuple[FrameContext, list[HypothesisWindow], dict[int, int]]:
    """Parse a decoded frame object into (ctx, windows, gold labels).

    Sizes, frame rate and scores must be JSON numbers, and each box a list
    of four numbers (left, top, width, height); ids and the optional
    per-window gold labels (0 or 1) integers. Other keys are ignored.
    """
    try:
        ctx = FrameContext(*(_typed(data[key], float, key)
                             for key in ("image_width", "image_height", "frame_rate")))
        windows, gold = [], {}
        for w in data["windows"]:
            if not all(isinstance(b, list) and len(b) == 4 and all(map(is_real, b))
                       for b in w["boxes"]):
                raise FormatError(f"frame JSON box must be a list of 4 numbers: {w['boxes']!r}")
            boxes = tuple(Box(*map(float, b)) for b in w["boxes"])
            windows.append(HypothesisWindow(
                tracklet_id=_typed(w["id"], int, "window id"), boxes=boxes,
                score=_typed(w["score"], float, "score")))
            if "gold" in w:
                if _typed(w["gold"], int, "gold label") not in (0, 1):
                    raise FormatError(f"frame JSON gold label must be 0 or 1, got {w['gold']}")
                gold[w["id"]] = w["gold"]
    except KeyError as exc:
        raise FormatError(f"frame JSON missing field: {exc}")
    except (TypeError, OverflowError) as exc:
        raise FormatError(f"bad frame JSON: {exc}")
    return ctx, windows, gold
