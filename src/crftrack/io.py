"""MOT-style text files: track records and sequence metadata.

One record per line, comma separated, ten fields:
frame, id, left, top, width, height, score, -1, -1, -1. The three trailing
fields are placeholders kept for layout compatibility. Pixel values are
written with two decimals, scores with four, rounded half-up.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

from .errors import FormatError
from .features import Box, FrameContext


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
    """Ordered track records; sorted by (frame, id) with no duplicates."""

    records: list[TrackRecord] = field(default_factory=list)

    def __post_init__(self):
        prev = None
        for rec in self.records:
            key = (rec.frame, rec.track_id)
            if key == prev:
                raise FormatError(f"duplicate record for frame {rec.frame}, id {rec.track_id}")
            if prev is not None and key < prev:
                raise FormatError(f"records not sorted at frame {rec.frame}, id {rec.track_id}")
            prev = key

    def __len__(self):
        return len(self.records)

    def by_frame(self) -> dict[int, list[TrackRecord]]:
        table: dict[int, list[TrackRecord]] = {}
        for rec in self.records:
            table.setdefault(rec.frame, []).append(rec)
        return table

    def by_track(self) -> dict[int, list[TrackRecord]]:
        table: dict[int, list[TrackRecord]] = {}
        for rec in self.records:
            table.setdefault(rec.track_id, []).append(rec)
        return table


def round_half_up(value: float, decimals: int) -> float:
    """Decimal rounding that never banker's-rounds: 0.125 -> 0.13 at 2 places."""
    q = Decimal(1).scaleb(-decimals)
    return float(Decimal(value).quantize(q, rounding=ROUND_HALF_UP))


def _fmt(value: float, decimals: int) -> str:
    q = Decimal(1).scaleb(-decimals)
    return str(Decimal(value).quantize(q, rounding=ROUND_HALF_UP))


def parse_mot(source) -> TrackFile:
    """Parse a MOT text file from a path or an iterable of lines."""
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, encoding="ascii") as fh:
            lines = fh.readlines()
    else:
        lines = list(source)

    records = []
    prev_key = None
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
            left, top, width, height, score = (float(v) for v in fields[2:7])
            for v in fields[7:]:
                float(v)
        except ValueError:
            raise FormatError(f"non-numeric field in {line!r}", line=lineno)
        if frame < 1:
            raise FormatError(f"frame numbers start at 1, got {frame}", line=lineno)
        if width <= 0 or height <= 0:
            raise FormatError(f"non-positive box dimensions {width}x{height}", line=lineno)
        key = (frame, track_id)
        if key == prev_key:
            raise FormatError(f"duplicate record for frame {frame}, id {track_id}",
                              line=lineno)
        if prev_key is not None and key < prev_key:
            raise FormatError(f"records not sorted by (frame, id) at frame {frame}, "
                              f"id {track_id}", line=lineno)
        prev_key = key
        records.append(TrackRecord(frame, track_id, left, top, width, height, score))

    return TrackFile(records)


def write_mot(track: TrackFile, path):
    """Write records in the fixed decimal layout; round-trips through parse_mot."""
    with open(path, "w", encoding="ascii") as fh:
        for rec in track.records:
            fh.write(format_record(rec) + "\n")


def format_record(rec: TrackRecord) -> str:
    return ",".join([
        str(rec.frame), str(rec.track_id),
        _fmt(rec.left, 2), _fmt(rec.top, 2), _fmt(rec.width, 2), _fmt(rec.height, 2),
        _fmt(rec.score, 4), "-1", "-1", "-1",
    ])


SEQINFO_KEYS = ("imWidth", "imHeight", "frameRate", "seqLength")


def write_seqinfo(path, ctx: FrameContext, seq_length: int):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"imWidth={ctx.image_width:g}\n")
        fh.write(f"imHeight={ctx.image_height:g}\n")
        fh.write(f"frameRate={ctx.frame_rate:g}\n")
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
