"""Text formats: MOT-style track records, sequence metadata and frame JSON.

One record per line, comma separated, ten fields:
frame, id, left, top, width, height, score, -1, -1, -1. The three trailing
fields are placeholders kept for layout compatibility. Pixel values are
written with two decimals, scores with four, rounded half-up on the exact
binary value (`fixed_point`: "%.*f", with exact half-way cases rounded away
from zero in integer arithmetic); a non-finite value is a ValidationError.
A frame object (one frame's context and windows) is the input of `infer`
and, with gold labels, one line of a training dataset.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .errors import FormatError, ValidationError
from .features import Box, FrameContext, HypothesisWindow, is_integer, is_real


@dataclass(frozen=True)
class TrackRecord:
    frame: int
    track_id: int
    left: float
    top: float
    width: float
    height: float
    score: float

    def box(self) -> Box:
        return Box(self.left, self.top, self.width, self.height)


@dataclass
class TrackFile:
    """Records sorted by (frame, id), no duplicates; an error's line is the record's position."""

    records: list[TrackRecord] = field(default_factory=list)

    def __post_init__(self):
        prev = None
        for line, rec in enumerate(self.records, start=1):
            key = (rec.frame, rec.track_id)
            if prev is not None and key <= prev:
                fault = "duplicate record" if key == prev else "records not sorted by (frame, id)"
                raise FormatError(f"{fault} at frame {rec.frame}, id {rec.track_id}", line=line)
            prev = key

    def __len__(self):
        return len(self.records)

    def by_frame(self) -> dict[int, list[TrackRecord]]:
        table: dict[int, list[TrackRecord]] = {}
        for rec in self.records:
            table.setdefault(rec.frame, []).append(rec)
        return table


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


def parse_mot(source) -> TrackFile:
    """Parse a MOT text file from a path or an iterable of lines; every number must be finite."""
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, encoding="ascii") as fh:
            lines = fh.readlines()
    else:
        lines = list(source)

    records, linenos = [], []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 10:
            raise FormatError(f"expected 10 fields, got {len(fields)}", line=lineno)
        try:
            frame = int(fields[0])
            track_id = int(fields[1])
            values = list(map(float, fields[2:]))
        except ValueError:
            raise FormatError(f"non-numeric field in {line!r}", line=lineno)
        # A finite sum proves every value finite; only a sum that is not
        # (or overflowed) needs the check of each value.
        if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
            raise FormatError(f"non-finite field in {line!r}", line=lineno)
        left, top, width, height, score = values[:5]
        if frame < 1:
            raise FormatError(f"frame numbers start at 1, got {frame}", line=lineno)
        if width <= 0 or height <= 0:
            raise FormatError(f"non-positive box dimensions {width}x{height}", line=lineno)
        records.append(TrackRecord(frame, track_id, left, top, width, height, score))
        linenos.append(lineno)

    try:
        return TrackFile(records)
    except FormatError as exc:
        exc.line = linenos[exc.line - 1]  # TrackFile counts records; blank lines count here
        raise


def write_mot(track: TrackFile, path):
    """Write records in the fixed decimal layout; round-trips through parse_mot."""
    with open(path, "w", encoding="ascii") as fh:
        for rec in track.records:
            pixels = (fixed_point(v, 2) for v in (rec.left, rec.top, rec.width, rec.height))
            fh.write(",".join([str(rec.frame), str(rec.track_id), *pixels,
                               fixed_point(rec.score, 4), "-1", "-1", "-1"]) + "\n")


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
    """Decoded JSON text; malformed or too deeply nested text is a FormatError naming `what`."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"bad {what}: {exc}")


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
