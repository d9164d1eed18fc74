"""Columnar track files against row-by-row references.

parse_mot converts whole columns and checks them at once; write_mot finds
half-way values column by column. Both are compared here with the
line-by-line parser and the value-by-value writer they replaced, kept below
as references. The CLI's layer functions are also checked to be reached
through their module attributes, which the benchmark's per-layer spans wrap.
"""

import json
import math
import random
import sys
from collections import Counter

import numpy as np
import pytest

from crftrack import cli, io, metrics
from crftrack.errors import FormatError, ValidationError
from crftrack.io import TrackFile, TrackRecord, fixed_point, parse_mot, write_mot
from crftrack.tracker import DriftEvent, ScenarioSpec, generate_scenario

INT64 = range(-2**63, 2**63)


def reference_rows(lines):
    """The row-by-row parser's rows, (frame, id, left, top, width, height, score),
    and their line numbers. Raises the FormatError of the first bad line."""
    rows, linenos = [], []
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
        if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
            raise FormatError(f"non-finite field in {line!r}", line=lineno)
        left, top, width, height, score = values[:5]
        if frame < 1:
            raise FormatError(f"frame numbers start at 1, got {frame}", line=lineno)
        if width <= 0 or height <= 0:
            raise FormatError(f"non-positive box dimensions {width}x{height}", line=lineno)
        rows.append((frame, track_id, left, top, width, height, score))
        linenos.append(lineno)
    return rows, linenos


def reference_order(rows, linenos):
    """The row-by-row parser's (frame, id) order check, made after every line passed."""
    for i in range(1, len(rows)):
        key, prev = rows[i][:2], rows[i - 1][:2]
        if key <= prev:
            fault = "duplicate record" if key == prev else "records not sorted by (frame, id)"
            raise FormatError(f"{fault} at frame {key[0]}, id {key[1]}", line=linenos[i])


def expected_parse(lines):
    """What parse_mot must return or raise: the reference's rows or error, except
    that a frame or id outside int64 fails after the row checks and before the
    order check."""
    try:
        rows, linenos = reference_rows(lines)
        for (frame, track_id, *_), lineno in zip(rows, linenos):
            if frame not in INT64 or track_id not in INT64:
                return ("error", f"line {lineno}: frame and id must fit in 64-bit integers, "
                                 f"got frame {frame}, id {track_id}")
        reference_order(rows, linenos)
    except FormatError as exc:
        return ("error", str(exc))
    return ("rows", repr(rows))


def actual_parse(lines):
    try:
        return ("rows", repr([tuple(r) for r in parse_mot(lines).records]))
    except FormatError as exc:
        return ("error", str(exc))


INT_TEXTS = ["1_0", "+3", " 7 ", "1e3", "0", "-1", str(2**63), str(-2**63 - 1),
             str(2**63 - 1), "x", ""]
FLOAT_TEXTS = ["nan", "inf", "-inf", "1e999", "0", "-5", "-0.0", "1_0.5", " 3 ", "+2",
               "1e-320", "x"]


def mutate(lines, rng):
    """One seeded edit of a track file's lines; returns the kind of edit and the lines."""
    kind = rng.choice(["blank", "crlf", "int", "float", "swap", "duplicate", "fields"])
    lines = list(lines)
    i = rng.choice([j for j, line in enumerate(lines) if line.strip()])
    fields = lines[i].rstrip("\r\n").split(",")
    if kind == "blank":
        lines.insert(i, rng.choice(["\n", "   \n", "\r\n", "\t\n"]))
    elif kind == "crlf":
        lines = [line.rstrip("\r\n") + "\r\n" for line in lines]
    elif kind in ("int", "float"):
        k = rng.randrange(2) if kind == "int" else rng.randrange(2, 10)
        fields[min(k, len(fields) - 1)] = rng.choice(INT_TEXTS if kind == "int" else FLOAT_TEXTS)
    elif kind == "swap" and i + 1 < len(lines):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "fields":
        fields = fields[:-1] if rng.random() < 0.5 else fields + ["-1"]
    if kind in ("int", "float", "fields"):
        lines[i] = ",".join(fields) + "\n"
    return kind, lines


@pytest.fixture(scope="module")
def generated_lines(tmp_path_factory):
    spec = ScenarioSpec(num_frames=30, num_targets=3, seed=4, drift_events=[DriftEvent(4, 0, 1)])
    hyp, _, _ = generate_scenario(spec)
    path = tmp_path_factory.mktemp("columns") / "hyp.txt"
    write_mot(hyp, path)
    return path.read_text().splitlines(keepends=True)


class TestParseReference:
    def test_seeded_mutations_match_row_reference(self, generated_lines):
        kinds, outcomes, failures = Counter(), Counter(), []
        for case in range(200):
            rng = random.Random(f"columns-{case}")
            lines = generated_lines
            for _ in range(rng.choice([1, 1, 2, 3])):
                kind, lines = mutate(lines, rng)
                kinds[kind] += 1
            expected, actual = expected_parse(lines), actual_parse(lines)
            outcomes[expected[0]] += 1
            if actual != expected:
                failures.append((case, expected, actual))
        assert not failures, "\n".join(map(str, failures[:5]))
        assert set(kinds) == {"blank", "crlf", "int", "float", "swap", "duplicate", "fields"}
        assert min(outcomes.values()) > 20

    @pytest.mark.parametrize("field", [0, 1])
    @pytest.mark.parametrize("text", INT_TEXTS)
    def test_every_int_text_in_every_int_field(self, generated_lines, field, text):
        lines = list(generated_lines)
        fields = lines[5].split(",")
        fields[field] = text
        lines[5] = ",".join(fields)
        assert actual_parse(lines) == expected_parse(lines)

    @pytest.mark.parametrize("field", range(2, 10))
    @pytest.mark.parametrize("text", FLOAT_TEXTS)
    def test_every_float_text_in_every_float_field(self, generated_lines, field, text):
        lines = list(generated_lines)
        fields = lines[5].rstrip("\n").split(",")
        fields[field] = text
        lines[5] = ",".join(fields) + "\n"
        assert actual_parse(lines) == expected_parse(lines)

    @pytest.mark.parametrize("frame, track_id", [(2**63, 1), (1, 2**63), (1, -2**63 - 1),
                                                 (10**20, 1)])
    def test_frame_or_id_outside_int64_names_its_line(self, frame, track_id, tmp_path):
        lines = ["1,1,1,1,5,5,0.9,-1,-1,-1\n", "\n", f"{frame},{track_id},1,1,5,5,0.9,-1,-1,-1\n"]
        with pytest.raises(FormatError, match="line 3: frame and id must fit in 64-bit"):
            parse_mot(lines)
        path = tmp_path / "big.txt"
        path.write_text("".join(lines))
        assert cli.main(["eval", "--gt", str(path), "--hyp", str(path),
                         "--out", str(tmp_path / "report.txt")]) == 2

    def test_int64_bounds_accepted(self):
        track = parse_mot([f"{2**63 - 1},{-2**63},1,1,5,5,0.9,-1,-1,-1\n"])
        assert (track.frame.tolist(), track.track_id.tolist()) == ([2**63 - 1], [-2**63])


def reference_write(track):
    """The value-by-value writer: every value through fixed_point."""
    lines = []
    for rec in track.records:
        pixels = (fixed_point(v, 2) for v in (rec.left, rec.top, rec.width, rec.height))
        lines.append(",".join([str(rec.frame), str(rec.track_id), *pixels,
                               fixed_point(rec.score, 4), "-1", "-1", "-1"]) + "\n")
    return "".join(lines)


def writer_values(rng, n):
    """Exact ties at 2 and 4 decimals, their neighbours one ulp either side,
    +-0.0, 1e308, +-DBL_MAX and pixel-range values, all finite."""
    m = 2 * rng.integers(-2**30, 2**30, n // 4) + 1
    ties = np.concatenate([m / 8.0, m / 32.0])
    values = np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf),
                             rng.uniform(-5e3, 5e3, n // 4)])
    edges = [0.0, -0.0, 1e308, -1e308, sys.float_info.max, -sys.float_info.max,
             -0.12499999999999999, -0.031249999999999997, 0.125, -0.125, 2.675]
    return edges + values.tolist()


class TestWriteReference:
    def test_writer_matches_fixed_point_reference(self, tmp_path):
        rng = np.random.default_rng(22)
        values = writer_values(rng, 8_000)
        columns = [rng.permutation(values).tolist() for _ in range(5)]
        track = TrackFile([TrackRecord(f, 1, *row) for f, row in enumerate(zip(*columns), 1)])
        path = tmp_path / "t.txt"
        write_mot(track, path)
        assert path.read_text() == reference_write(track)
        for d, column in ((2, columns[0]), (4, columns[4])):
            assert sum((v * (2 << d)) % 2.0 == 1.0 for v in column) > 1_000

    @pytest.mark.parametrize("column", range(5))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected_as_reference(self, tmp_path, column, value):
        rows = [[1.0, 2.0, 3.0, 4.0, 0.5] for _ in range(3)]
        rows[1][column] = value
        rows[2][0] = -value  # a later row's value is not the one named
        track = TrackFile([TrackRecord(f, 1, *row) for f, row in enumerate(rows, 1)])
        with pytest.raises(ValidationError) as wanted:
            reference_write(track)
        with pytest.raises(ValidationError) as got:
            write_mot(track, tmp_path / "t.txt")
        assert str(got.value) == str(wanted.value)

    def test_first_non_finite_value_of_a_row_is_named(self, tmp_path):
        track = TrackFile([TrackRecord(1, 1, 1.0, math.inf, 3.0, 4.0, math.nan)])
        with pytest.raises(ValidationError, match="non-finite value inf"):
            write_mot(track, tmp_path / "t.txt")


class TestTrackFile:
    def test_records_round_trip_through_columns(self):
        rows = [TrackRecord(1, 2, 0.5, 1.5, 3.0, 4.0, 0.9), TrackRecord(2, -1, 0, 0, 1, 1, 1)]
        track = TrackFile(rows)
        assert track.records == rows
        assert track.frame.dtype == track.track_id.dtype == np.int64
        assert track.score.dtype == np.float64
        assert track.by_frame() == {1: rows[:1], 2: rows[1:]}
        assert all(type(v) is int for r in track.records for v in r[:2])
        assert list(track.frames()) == [(1, [(2, (0.5, 1.5, 3.0, 4.0), 0.9)]),
                                        (2, [(-1, (0.0, 0.0, 1.0, 1.0), 1.0)])]
        assert list(TrackFile().frames()) == []
        assert TrackFile(rows) == track != TrackFile(rows[:1])

    def test_record_id_outside_int64_is_a_format_error(self):
        with pytest.raises(FormatError, match="line 2: frame and id must fit"):
            TrackFile([TrackRecord(1, 1, 0, 0, 1, 1, 1), TrackRecord(2, 2**64, 0, 0, 1, 1, 1)])


def test_cli_reaches_layer_functions_through_module_attributes(tmp_path, monkeypatch):
    """Each function the benchmark wraps in a span is called through its module."""
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((io, "parse_mot"), (io, "write_mot"),
                         (metrics, "clear_mot"), (metrics, "idf1")):
        count(module, name)
    from crftrack.crf_model import default_params, save_params
    save_params(tmp_path / "params.txt", *default_params())
    spec = {"num_frames": 40, "num_targets": 3, "drift_events": [[8, 0, 1]], "seed": 1}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    paths = {name: str(tmp_path / name) for name in
             ("spec.json", "hyp.txt", "gt.txt", "seqinfo.txt", "params.txt", "out.txt")}
    assert cli.main(["gen", "--spec", paths["spec.json"], "--seed", "1",
                     "--out-hyp", paths["hyp.txt"], "--out-gt", paths["gt.txt"],
                     "--out-seqinfo", paths["seqinfo.txt"]]) == 0
    assert calls == {"write_mot": 2}
    assert cli.main(["track", "--hyp", paths["hyp.txt"], "--seqinfo", paths["seqinfo.txt"],
                     "--params", paths["params.txt"], "--mode", "crf",
                     "--out", paths["out.txt"]]) == 0
    assert calls == {"write_mot": 3, "parse_mot": 1}
    assert cli.main(["eval", "--gt", paths["gt.txt"], "--hyp", paths["out.txt"],
                     "--out", str(tmp_path / "report.txt")]) == 0
    assert calls == {"write_mot": 3, "parse_mot": 3, "clear_mot": 1, "idf1": 1}
    gt, hyp = io.parse_mot(paths["gt.txt"]), io.parse_mot(paths["out.txt"])
    metrics.evaluate(gt, hyp)
    assert calls == {"write_mot": 3, "parse_mot": 5, "clear_mot": 2, "idf1": 2}
