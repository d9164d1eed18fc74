import decimal
import inspect
import json
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from crftrack import cli, crf_model, tracker
from crftrack.cli import exit_code_for, main
from crftrack.crf_model import DEFAULT_INFERENCE, INFERENCE_MODES
from crftrack.errors import CapacityError, FormatError, NumericalError, ValidationError
from crftrack.features import FrameContext
from crftrack.io import (TrackFile, TrackRecord, fixed_point, parse_mot, parse_seqinfo,
                         round_half_up, write_mot, write_seqinfo)
from crftrack.tracker import DriftEvent, ScenarioSpec, generate_scenario

SPEC_JSON = {
    "num_frames": 70,
    "num_targets": 4,
    "frame_rate": 5.0,
    "camera_pan": [0.0, 0.5],
    "drift_events": [[20, 0, 1]],
    "noise_std": 0.1,
    "seed": 1,
}

# Enough digits for any finite double (at most 309 before the point) to 4 decimals.
HALF_UP = decimal.Context(prec=320, rounding=decimal.ROUND_HALF_UP)


def quantize(value, decimals):
    """The reference rounding: value's exact binary expansion, rounded half-up
    (0.125 -> 0.13 at 2 places) by decimal arithmetic."""
    return HALF_UP.quantize(decimal.Decimal(value), decimal.Decimal(1).scaleb(-decimals))


class TestParse:
    def test_single_record(self):
        track = parse_mot(["1,1,10.0,20.0,30.0,60.0,0.98,-1,-1,-1\n"])
        assert len(track) == 1
        rec = track.records[0]
        assert (rec.frame, rec.track_id) == (1, 1)
        assert (rec.left, rec.top, rec.width, rec.height) == (10.0, 20.0, 30.0, 60.0)
        assert rec.score == 0.98

    def test_non_positive_width_rejected_with_line(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_mot(["1,1,10,20,0,60,0.9,-1,-1,-1\n"])

    def test_wrong_field_count(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_mot(["1,1,1,1,5,5,0.9,-1,-1,-1\n", "2,1,1,1,5,5,0.9,-1\n"])

    def test_non_numeric_field(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_mot(["1,1,x,1,5,5,0.9,-1,-1,-1\n"])

    @pytest.mark.parametrize("field", range(2, 10))
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_field_rejected(self, field, text):
        fields = "1,1,10,20,30,60,0.9,-1,-1,-1".split(",")
        fields[field] = text
        with pytest.raises(FormatError, match="line 1"):
            parse_mot([",".join(fields) + "\n"])

    def test_finite_fields_whose_sum_overflows_accepted(self):
        track = parse_mot(["1,1,1e308,1e308,1e308,1e308,0.9,-1,-1,-1\n"])
        assert track.records[0].width == 1e308

    def test_duplicate_frame_id(self):
        rows = ["1,1,1,1,5,5,0.9,-1,-1,-1\n", "1,1,2,2,5,5,0.9,-1,-1,-1\n"]
        with pytest.raises(FormatError, match="line 2"):
            parse_mot(rows)

    def test_unsorted_rows_rejected(self):
        rows = ["2,1,1,1,5,5,0.9,-1,-1,-1\n", "1,1,2,2,5,5,0.9,-1,-1,-1\n"]
        with pytest.raises(FormatError, match="line 2"):
            parse_mot(rows)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert len(parse_mot(path)) == 0


class TestWrite:
    def test_round_trip_of_generated_scenario(self, tmp_path):
        spec = ScenarioSpec(num_frames=50, num_targets=4, seed=3,
                            drift_events=[DriftEvent(15, 0, 1)])
        hyp, gt, _ = generate_scenario(spec)
        for track in (hyp, gt):
            path = tmp_path / "t.txt"
            write_mot(track, path)
            assert parse_mot(path) == track

    def test_half_up_rounding_on_binary_value(self, tmp_path):
        # 1.005 is stored as 1.00499..., so two-decimal half-up gives 1.00.
        track = TrackFile([TrackRecord(2, 7, 1.005, 1.0, 5.0, 5.0, 0.9)])
        path = tmp_path / "t.txt"
        write_mot(track, path)
        assert path.read_text().startswith("2,7,1.00,")

    def test_quantize_covers_every_finite_double(self):
        assert str(quantize(sys.float_info.max, 4)).endswith(".0000")
        assert fixed_point(sys.float_info.max, 4) == str(quantize(sys.float_info.max, 4))
        assert round_half_up(-sys.float_info.max, 2) == -sys.float_info.max
        assert fixed_point(2.675, 2) == str(quantize(2.675, 2)) == "2.67"  # stored as 2.67499...

    def test_half_up_not_bankers(self):
        # 0.125 is exactly representable; bankers rounding would give 0.12.
        assert round_half_up(0.125, 2) == 0.13
        assert round_half_up(0.135, 2) == 0.14

    def test_writer_and_round_half_up_match_quantize(self, tmp_path):
        values = oracle_doubles(np.random.default_rng(12), 100_000)
        ties = {d: sum((v * (2 << d)) % 2.0 == 1.0 for v in values) for d in (2, 4)}
        assert min(ties.values()) > 5_000
        # numpy.float64 inputs too, +-DBL_MAX among them: scaling those must not warn.
        values += list(np.array(values[:2_000]))
        expected = {d: [quantize(v, d) for v in values] for d in (2, 4)}
        for d, wanted in expected.items():
            assert [fixed_point(v, d) for v in values] == list(map(str, wanted))
        records = [TrackRecord(i, 1, v, 1.0, 1.0, 1.0, v) for i, v in enumerate(values, 1)]
        path = tmp_path / "t.txt"
        write_mot(TrackFile(records), path)
        lines = path.read_text().splitlines()
        assert [line.split(",")[2] for line in lines] == list(map(str, expected[2]))
        assert [line.split(",")[6] for line in lines] == list(map(str, expected[4]))
        for d, wanted in expected.items():
            got = [repr(round_half_up(v, d)) for v in values]
            assert got == [repr(float(q)) for q in wanted]

    def test_negative_near_ties_round_on_exact_value(self):
        # The tie test passes these one ulp inside -0.125 and -0.03125, as the
        # float % rounds its result; their exact values round toward zero.
        for value, d, text in ((-0.12499999999999999, 2, "-0.12"),
                               (-0.031249999999999997, 4, "-0.0312")):
            assert (value * (2 << d)) % 2.0 == 1.0
            assert fixed_point(value, d) == str(quantize(value, d)) == text
            assert round_half_up(value, d) == float(text)

    def test_non_finite_value_rejected(self, tmp_path):
        for value in (math.nan, math.inf, -math.inf):
            for fn in (fixed_point, round_half_up):
                with pytest.raises(ValidationError, match="non-finite"):
                    fn(value, 2)
            with pytest.raises(ValidationError, match="non-finite"):
                write_mot(TrackFile([TrackRecord(1, 1, 1.0, 1.0, 1.0, 1.0, value)]),
                          tmp_path / "t.txt")

    def test_empty_track_file(self, tmp_path):
        path = tmp_path / "t.txt"
        write_mot(TrackFile([]), path)
        assert path.read_text() == ""

    def test_seqinfo_round_trip(self, tmp_path):
        path = tmp_path / "seqinfo.txt"
        write_seqinfo(path, FrameContext(1920, 1080, 5.0), 70)
        assert path.read_text() == "imWidth=1920\nimHeight=1080\nframeRate=5\nseqLength=70\n"
        ctx, length = parse_seqinfo(path)
        assert ctx == FrameContext(1920, 1080, 5.0)
        assert length == 70
        # %g would write 1.23457e+06 and 29.97; these must read back exactly.
        for exact in (FrameContext(1234567, 1080, 30000 / 1001), FrameContext(1e300, 1080, 5.0)):
            write_seqinfo(path, exact, 70)
            assert parse_seqinfo(path) == (exact, 70)


def oracle_doubles(rng, n):
    """n seeded doubles as Python floats: exact ties at 2 and 4 decimals (m/8 and
    m/32), their neighbours, pixel-range values, subnormals, random bit
    patterns, and -0.0 and +-DBL_MAX. All are finite."""
    big = sys.float_info.max
    edges = [0.0, -0.0, big, -big, 5e-324, -5e-324, sys.float_info.min,
             0.005, 0.125, 0.135, 2.675, 1.005, 0.00005, 0.00015, 2.0 ** 53 + 0.5]
    m = rng.integers(-2 ** 40, 2 ** 40, n // 8) >> rng.integers(0, 40, n // 8)
    ties = np.concatenate([m / 8.0, m / 32.0])
    parts = [ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf),
             rng.uniform(-1e4, 1e4, n // 8),
             rng.integers(1, 2 ** 52, n // 16, dtype=np.uint64).view(float)
             * rng.choice([-1.0, 1.0], n // 16),
             rng.integers(0, 2 ** 64, n // 16, dtype=np.uint64).view(float)]
    values = np.concatenate(parts)
    values = values[np.isfinite(values)]
    return edges + values[:n - len(edges)].tolist()


@pytest.fixture
def workdir(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC_JSON))
    return tmp_path


def gen_args(d, suffix=""):
    return ["gen", "--spec", str(d / "spec.json"), "--seed", "1",
            "--out-hyp", str(d / f"hyp{suffix}.txt"),
            "--out-gt", str(d / f"gt{suffix}.txt"),
            "--out-seqinfo", str(d / f"seqinfo{suffix}.txt")]


def train_args(d, lr):
    """Parameters, a generated sequence and its threshold-only run; then train args."""
    from crftrack.crf_model import default_params, save_params
    save_params(d / "params.txt", *default_params())
    assert main(gen_args(d)) == 0
    runs, gts = d / "runs", d / "gts"
    runs.mkdir(), gts.mkdir()
    assert main(["track", "--hyp", str(d / "hyp.txt"), "--seqinfo", str(d / "seqinfo.txt"),
                 "--params", str(d / "params.txt"),
                 "--mode", "threshold", "--out", str(runs / "seq.txt")]) == 0
    (gts / "seq.txt").write_bytes((d / "gt.txt").read_bytes())
    (runs / "seq.seqinfo").write_bytes((d / "seqinfo.txt").read_bytes())
    return ["train", "--runs", str(runs), "--gt", str(gts),
            "--params-init", str(d / "params.txt"),
            "--lr", lr, "--epochs", "2", "--ratio", "3", "--seed", "5",
            "--out-params", str(d / "trained.txt"),
            "--out-dataset", str(d / "dataset.txt")]


def hand_train_args(d, run_text, gt_text):
    """Parameters, a hand-written run `seq` and its ground truth; then train args."""
    from crftrack.crf_model import default_params, save_params
    save_params(d / "params.txt", *default_params())
    runs, gts = d / "runs", d / "gts"
    runs.mkdir(), gts.mkdir()
    (runs / "seq.txt").write_text(run_text)
    (gts / "seq.txt").write_text(gt_text)
    (runs / "seq.seqinfo").write_text("imWidth=1920\nimHeight=1080\nframeRate=5\nseqLength=10\n")
    return ["train", "--runs", str(runs), "--gt", str(gts),
            "--params-init", str(d / "params.txt"), "--out-params", str(d / "trained.txt")]


class TestCli:
    def test_gen_track_eval_pipeline(self, workdir, capsys):
        assert main(gen_args(workdir)) == 0
        assert main(["track", "--hyp", str(workdir / "hyp.txt"),
                     "--seqinfo", str(workdir / "seqinfo.txt"),
                     "--params", str(workdir / "params.txt"),
                     "--mode", "crf", "--inference", "loopy-bp",
                     "--out", str(workdir / "out.txt"),
                     "--dump-decisions", str(workdir / "dec.txt")]) == 2  # params missing
        from crftrack.crf_model import default_params, save_params
        params, bp = default_params()
        save_params(workdir / "params.txt", params, bp)
        assert main(["track", "--hyp", str(workdir / "hyp.txt"),
                     "--seqinfo", str(workdir / "seqinfo.txt"),
                     "--params", str(workdir / "params.txt"),
                     "--mode", "crf", "--inference", "loopy-bp",
                     "--out", str(workdir / "out.txt"),
                     "--dump-decisions", str(workdir / "dec.txt")]) == 0
        assert "inactivated-crf" in (workdir / "dec.txt").read_text()
        assert main(["eval", "--gt", str(workdir / "gt.txt"),
                     "--hyp", str(workdir / "out.txt"),
                     "--out", str(workdir / "report.txt")]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-2].startswith("mota,idf1,")
        report = (workdir / "report.txt").read_text()
        assert report.startswith("mota=")

    def test_infer_command(self, workdir, capsys):
        from crftrack.crf_model import default_params, save_params
        params, bp = default_params()
        save_params(workdir / "params.txt", params, bp)
        frame = {
            "image_width": 1920, "image_height": 1080, "frame_rate": 30,
            "windows": [
                {"id": 1, "boxes": [[100, 100, 40, 100], [102, 100, 40, 100],
                                    [104, 100, 40, 100]], "score": 0.9},
                {"id": 2, "boxes": [[500, 100, 40, 100], [502, 100, 40, 100],
                                    [560, 100, 40, 100]], "score": 0.8},
            ],
        }
        (workdir / "frame.json").write_text(json.dumps(frame))
        assert main(["infer", "--frame-json", str(workdir / "frame.json"),
                     "--params", str(workdir / "params.txt"),
                     "--inference", "loopy-bp",
                     "--dump-messages", str(workdir / "msgs.txt")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["1 1", "2 0"]
        dump = (workdir / "msgs.txt").read_text().splitlines()
        assert dump and all(len(line.split(",")) == 6 for line in dump)

    def test_train_and_check_gradients(self, workdir, capsys):
        from crftrack.crf_model import default_params, load_params
        params, _ = default_params()
        assert main(train_args(workdir, "0.01")) == 0
        trained, _ = load_params(workdir / "trained.txt")
        assert trained.theta_u != params.theta_u
        assert main(["check-gradients", "--params", str(workdir / "params.txt"),
                     "--dataset", str(workdir / "dataset.txt"), "--h", "1e-5"]) == 0
        captured = capsys.readouterr()
        assert "max_relative_error" in captured.out
        assert "warning" not in captured.err

    @pytest.mark.parametrize("h, code, words", [("inf", 2, "step h must be finite"),
                                                ("1e308", 3, "step h=1e+308 is not finite"),
                                                ("5e-324", 2, "step h=5e-324 is too small"),
                                                ("1e-17", 2, "step h=1e-17 is too small")])
    def test_check_gradients_bad_step_exit_code(self, workdir, capsys, h, code, words):
        # pytest turns any RuntimeWarning into an error, so an overflow warning fails here.
        assert main(train_args(workdir, "0.01")) == 0
        capsys.readouterr()
        assert main(["check-gradients", "--params", str(workdir / "params.txt"),
                     "--dataset", str(workdir / "dataset.txt"), "--h", h]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and words in lines[0]

    @pytest.mark.parametrize("option", [("--seed", "-1"), ("--epochs", "0"), ("--ratio", "-1")])
    def test_train_bad_integer_option_exit_code(self, workdir, capsys, option):
        args = train_args(workdir, "0.01")
        args[args.index(option[0]) + 1] = option[1]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (workdir / "trained.txt").exists()

    def test_train_warns_when_loglik_falls(self, workdir, capsys):
        # A step this large overshoots the likelihood maximum on every update.
        assert main(train_args(workdir, "1000")) == 0
        captured = capsys.readouterr()
        init, final = (float(field.partition("=")[2]) for field in
                       captured.out.split() if field.startswith("loglik_"))
        assert final < init
        assert captured.err.startswith("warning: SGD lowered the log-likelihood")

    def test_train_overflowing_likelihood_exit_code(self, workdir, capsys):
        # Steps this large take the log-likelihood to -inf while every gradient
        # stays finite; pytest turns a numpy RuntimeWarning into an error.
        spec = {"num_frames": 40, "num_targets": 3, "frame_rate": 5.0,
                "camera_pan": [[1, [0.0, 0.5]], [20, [0.4, 0.0]]],
                "drift_events": [[8, 0, 1]], "noise_std": 0.1, "seed": 1}
        (workdir / "spec.json").write_text(json.dumps(spec))
        args = train_args(workdir, "1e304")
        args[args.index("--epochs") + 1] = "30"
        capsys.readouterr()
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: log-likelihood -inf after epoch 7 of 30 is not finite: "
                                "the energies overflow float range\n")
        assert not (workdir / "trained.txt").exists()

    def test_train_step_overflowing_the_weights_exit_code(self, workdir, capsys):
        args = train_args(workdir, "1e308")
        capsys.readouterr()
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: SGD step on sample seq:") and "leaves the weights" in err
        assert not (workdir / "trained.txt").exists()

    def test_train_overflowing_initial_weights_exit_code(self, workdir, capsys):
        args = train_args(workdir, "0.01")
        params = workdir / "params.txt"
        params.write_text("".join(
            f"{line.partition('=')[0]}=1e308\n" if line.startswith(("theta_u=", "theta_b="))
            else line + "\n" for line in params.read_text().splitlines()))
        capsys.readouterr()
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: log-likelihood nan after epoch 0 of 2 ")
        assert not (workdir / "trained.txt").exists()

    def test_clean_run_warns_on_stderr(self, workdir, capsys):
        # Ground truth as its own baseline run has no negative frame to learn from.
        args = train_args(workdir, "0.01")
        runs = workdir / "runs"
        (runs / "seq.txt").write_bytes((workdir / "gt.txt").read_bytes())
        capsys.readouterr()
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("warning: no negative frames found")
        assert (workdir / "trained.txt").read_bytes() == (workdir / "params.txt").read_bytes()

    @pytest.mark.parametrize("key, value", [("theta_b", "nan"), ("alpha1", "inf"),
                                            ("tolerance", "inf")])
    def test_non_finite_parameter_exit_code(self, workdir, capsys, key, value):
        from crftrack.crf_model import default_params, save_params
        save_params(workdir / "params.txt", *default_params())
        params = workdir / "params.txt"
        lines = [f"{key}={value}" if ln.startswith(key + "=") else ln
                 for ln in params.read_text().splitlines()]
        params.write_text("\n".join(lines) + "\n")
        # One tracklet: the sequence builds no pair table that could catch a bad weight.
        (workdir / "hyp.txt").write_text("".join(
            f"{f},1,{10 + 2 * f},20,30,60,0.9,-1,-1,-1\n" for f in range(1, 6)))
        (workdir / "seqinfo.txt").write_text(
            "imWidth=1920\nimHeight=1080\nframeRate=5\nseqLength=5\n")
        for inference in ("exact", "loopy-bp"):
            code = main(["track", "--hyp", str(workdir / "hyp.txt"),
                         "--seqinfo", str(workdir / "seqinfo.txt"), "--params", str(params),
                         "--mode", "crf", "--inference", inference,
                         "--out", str(workdir / "out.txt")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and key in err and "Traceback" not in err

    def test_non_finite_learning_rate_exit_code(self, workdir, capsys):
        args = train_args(workdir, "nan")
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "learning_rate" in err and "Traceback" not in err
        assert not (workdir / "trained.txt").exists()

    def test_training_over_capacity_exit_code(self, workdir, capsys):
        # check-gradients on a 21-node sample: its labelings cannot be enumerated.
        from crftrack.crf_model import default_params, save_params
        from crftrack.features import Box, HypothesisWindow
        from crftrack.training import TrainingSample, save_dataset
        params, bp = default_params()
        save_params(workdir / "params.txt", params, bp)
        text = (workdir / "params.txt").read_text().replace("node_budget=10", "node_budget=25")
        (workdir / "params25.txt").write_text(text)
        windows = [HypothesisWindow(tracklet_id=tid, score=0.9, boxes=tuple(
            Box(90.0 * tid + 2 * t, 100.0, 40.0, 100.0) for t in range(3)))
            for tid in range(21)]
        save_dataset(workdir / "dataset.txt", [TrainingSample(
            windows=windows, ctx=FrameContext(1920, 1080, 30.0),
            gold={tid: 1 for tid in range(21)}, sequence="s", frame=1)])
        code = main(["check-gradients", "--params", str(workdir / "params25.txt"),
                     "--dataset", str(workdir / "dataset.txt")])
        assert code == 4
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("target, byte", [
        ("mot", b"\xff"), ("seqinfo", b"\xe9"), ("params", b"\xff"), ("frame", b"\xff"),
        ("spec", b"\xff"), ("dataset", b"\xff")])
    def test_non_ascii_input_exit_code(self, workdir, capsys, target, byte):
        from crftrack.crf_model import default_params, save_params
        save_params(workdir / "params.txt", *default_params())
        assert main(gen_args(workdir)) == 0
        (workdir / "frame.json").write_text(json.dumps(
            {"image_width": 1920, "image_height": 1080, "frame_rate": 30, "windows": []}))
        (workdir / "dataset.txt").write_text("")
        d = {name: str(workdir / name) for name in ("hyp.txt", "gt.txt", "seqinfo.txt",
                                                     "params.txt", "frame.json",
                                                     "dataset.txt", "out.txt")}
        track = ["track", "--hyp", d["hyp.txt"], "--seqinfo", d["seqinfo.txt"],
                 "--params", d["params.txt"], "--mode", "crf", "--out", d["out.txt"]]
        file, command = {
            "mot": ("gt.txt", ["eval", "--gt", d["gt.txt"], "--hyp", d["hyp.txt"],
                               "--out", d["out.txt"]]),
            "seqinfo": ("seqinfo.txt", track),
            "params": ("params.txt", track),
            "frame": ("frame.json", ["infer", "--frame-json", d["frame.json"],
                                     "--params", d["params.txt"]]),
            "spec": ("spec.json", gen_args(workdir)),
            "dataset": ("dataset.txt", ["check-gradients", "--params", d["params.txt"],
                                        "--dataset", d["dataset.txt"]]),
        }[target]
        bad = workdir / file
        bad.write_bytes(bad.read_bytes() + byte + b"\n")
        capsys.readouterr()
        code = main(command)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_format_error_exit_code(self, workdir):
        bad = workdir / "bad.txt"
        bad.write_text("1,1,10,20,0,60,0.9,-1,-1,-1\n")
        (workdir / "seqinfo.txt").write_text(
            "imWidth=1920\nimHeight=1080\nframeRate=5\nseqLength=10\n")
        from crftrack.crf_model import default_params, save_params
        params, bp = default_params()
        save_params(workdir / "params.txt", params, bp)
        code = main(["track", "--hyp", str(bad), "--seqinfo", str(workdir / "seqinfo.txt"),
                     "--params", str(workdir / "params.txt"), "--mode", "crf",
                     "--out", str(workdir / "out.txt")])
        assert code == 2

    def test_non_finite_score_exit_code(self, workdir, capsys):
        (workdir / "gt.txt").write_text("1,1,10,20,30,60,1,-1,-1,-1\n")
        (workdir / "hyp.txt").write_text("1,1,10,20,30,60,nan,-1,-1,-1\n")
        code = main(["eval", "--gt", str(workdir / "gt.txt"), "--hyp", str(workdir / "hyp.txt"),
                     "--out", str(workdir / "report.json")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("box", ["0,0,1e-200,1e-200", "1e308,0,1e308,10"])
    def test_eval_non_finite_iou_exit_code(self, workdir, capsys, box):
        # The first box's areas underflow to 0, the second's right edge overflows.
        (workdir / "gt.txt").write_text(f"1,1,{box},1,-1,-1,-1\n")
        (workdir / "hyp.txt").write_text(f"1,2,{box},1,-1,-1,-1\n")
        code = main(["eval", "--gt", str(workdir / "gt.txt"), "--hyp", str(workdir / "hyp.txt"),
                     "--out", str(workdir / "report.txt")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: frame 1: IoU of ground-truth id 1 Box(")
        assert "hypothesis id 2 Box(" in err and err.endswith("is not finite\n")

    @pytest.mark.parametrize("mode", ["threshold", "crf"])
    @pytest.mark.parametrize("box", ["0,0,1e-200,1e-200", "1e308,0,1e308,10"])
    def test_track_non_finite_iou_exit_code(self, workdir, capsys, mode, box):
        # Suppression compares the second detection with the first.
        hyp = workdir / "hyp.txt"
        hyp.write_text(f"1,1,{box},0.9,-1,-1,-1\n1,2,{box},0.8,-1,-1,-1\n")
        (workdir / "seqinfo.txt").write_text(
            "imWidth=1920\nimHeight=1080\nframeRate=5\nseqLength=10\n")
        from crftrack.crf_model import default_params, save_params
        save_params(workdir / "params.txt", *default_params())
        code = main(["track", "--hyp", str(hyp), "--seqinfo", str(workdir / "seqinfo.txt"),
                     "--params", str(workdir / "params.txt"), "--mode", mode,
                     "--out", str(workdir / "out.txt")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: frame 1: IoU of detection id 2 Box(")
        assert "kept tracklet id 1 Box(" in err and err.endswith("is not finite\n")
        assert not (workdir / "out.txt").exists()

    @pytest.mark.parametrize("box", ["0,0,1e-200,1e-200", "1e308,0,1e308,10"])
    def test_train_non_finite_iou_exit_code(self, workdir, capsys, box):
        # Tracklet 3 meets trajectory 7 on its second frame, where it is no CRF
        # node yet and 7 is not its owner: every same-frame pair is checked.
        args = hand_train_args(
            workdir, f"1,3,500,500,30,60,0.9,-1,-1,-1\n2,3,{box},0.9,-1,-1,-1\n",
            f"1,1,500,500,30,60,1,-1,-1,-1\n2,7,{box},1,-1,-1,-1\n")
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: frame 2: IoU of ground-truth id 7 Box(")
        assert "hypothesis id 3 Box(" in err and err.endswith("is not finite\n")
        assert not (workdir / "trained.txt").exists()

    def test_train_out_of_range_score_names_run_frame_and_tracklet(self, workdir, capsys):
        args = hand_train_args(
            workdir, "1,1,10,20,30,60,0.9,-1,-1,-1\n2,1,12,20,30,60,1.2,-1,-1,-1\n",
            "1,1,10,20,30,60,1,-1,-1,-1\n2,1,12,20,30,60,1,-1,-1,-1\n")
        assert main(args) == 2
        assert capsys.readouterr().err == \
            "error: run seq, frame 2, tracklet 1: score 1.2 outside [0, 1]\n"
        assert not (workdir / "trained.txt").exists()

    @pytest.mark.parametrize("mode", ["threshold", "crf"])
    def test_out_of_range_score_exit_code(self, workdir, capsys, mode):
        hyp = workdir / "hyp.txt"
        hyp.write_text("1,1,10,20,30,60,0.9,-1,-1,-1\n2,1,12,20,30,60,1.5,-1,-1,-1\n")
        (workdir / "seqinfo.txt").write_text(
            "imWidth=1920\nimHeight=1080\nframeRate=5\nseqLength=10\n")
        from crftrack.crf_model import default_params, save_params
        save_params(workdir / "params.txt", *default_params())
        code = main(["track", "--hyp", str(hyp), "--seqinfo", str(workdir / "seqinfo.txt"),
                     "--params", str(workdir / "params.txt"), "--mode", mode,
                     "--out", str(workdir / "out.txt")])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("seqLength=1e400", "seqLength"), ("seqLength=nan", "seqLength"),
        ("seqLength=2.5", "seqLength"), ("imWidth=nan", "finite"), ("frameRate=inf", "finite")])
    def test_bad_seqinfo_value_exit_code(self, workdir, capsys, line, message):
        assert main(gen_args(workdir)) == 0
        key = line.partition("=")[0]
        seqinfo = workdir / "seqinfo.txt"
        kept = [ln for ln in seqinfo.read_text().splitlines() if not ln.startswith(key + "=")]
        seqinfo.write_text("\n".join(kept + [line]) + "\n")
        from crftrack.crf_model import default_params, save_params
        save_params(workdir / "params.txt", *default_params())
        code = main(["track", "--hyp", str(workdir / "hyp.txt"), "--seqinfo", str(seqinfo),
                     "--params", str(workdir / "params.txt"), "--mode", "crf",
                     "--out", str(workdir / "out.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_capacity_error_exit_code(self, workdir, capsys):
        # A node budget beyond the enumeration bound lets 21 CRF nodes in,
        # which exact mode cannot enumerate.
        from crftrack.crf_model import default_params, save_params
        params, bp = default_params()
        text = (workdir / "params.txt")
        save_params(text, params, bp)
        content = text.read_text().replace("node_budget=10", "node_budget=25")
        (workdir / "params25.txt").write_text(content)
        frame = {"image_width": 1920, "image_height": 1080, "frame_rate": 30,
                 "windows": [{"id": tid, "boxes": [[0, 0, 10, 20]] * 3,
                              "score": 0.9} for tid in range(1, 22)]}
        (workdir / "frame.json").write_text(json.dumps(frame))
        code = main(["infer", "--frame-json", str(workdir / "frame.json"),
                     "--params", str(workdir / "params25.txt"),
                     "--inference", "exact"])
        assert code == 4

    def test_exact_tracking_over_capacity_exit_code(self, workdir, capsys):
        # 21 tracklets reach their third box together at node budget 21: exact
        # tracking refuses the 2**21 labelings before allocating them.
        from crftrack.crf_model import default_params, save_params
        params, bp = default_params()
        save_params(workdir / "params.txt", params, bp)
        content = (workdir / "params.txt").read_text().replace("node_budget=10", "node_budget=21")
        (workdir / "params21.txt").write_text(content)
        (workdir / "hyp.txt").write_text("".join(
            f"{t},{tid},{85 * tid + 2 * t},100,40,100,0.9,-1,-1,-1\n"
            for t in (1, 2, 3) for tid in range(1, 22)))
        (workdir / "seqinfo.txt").write_text(
            "imWidth=1920\nimHeight=1080\nframeRate=5\nseqLength=3\n")
        tracemalloc.start()
        try:
            code = main(["track", "--hyp", str(workdir / "hyp.txt"),
                         "--seqinfo", str(workdir / "seqinfo.txt"),
                         "--params", str(workdir / "params21.txt"), "--mode", "crf",
                         "--inference", "exact", "--out", str(workdir / "out.txt")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert capsys.readouterr().err == ("error: exact inference enumerates 2**K labelings; "
                                           "K=21 exceeds 20, so use loopy-bp\n")
        assert peak < 2**20
        assert not (workdir / "out.txt").exists()

    @pytest.mark.parametrize("field", [
        {"image_width": "abc"}, {"id": 1.7}, {"id": True}, {"boxes": ["1234"]}, {"score": True},
        {"image_width": "1920"}, {"boxes": [[1, 2, 3]]}, {"boxes": [[1, 2, 3, 4, 5]]},
        {"boxes": [5]}])
    def test_non_numeric_frame_field_exit_code(self, workdir, capsys, field):
        from crftrack.crf_model import default_params, save_params
        save_params(workdir / "params.txt", *default_params())
        window = {"id": 1, "boxes": [[100, 100, 40, 100]] * 3, "score": 0.9}
        frame = {"image_width": 1920, "image_height": 1080, "frame_rate": 30,
                 "windows": [window]}
        (frame if "image_width" in field else window).update(field)
        (workdir / "frame.json").write_text(json.dumps(frame))
        code = main(["infer", "--frame-json", str(workdir / "frame.json"),
                     "--params", str(workdir / "params.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        if "boxes" in field:
            assert "box must be a list of 4 numbers" in err

    @pytest.mark.parametrize("inference", ["exact", "loopy-bp"])
    def test_infer_ignores_window_length(self, workdir, capsys, inference):
        # A window's age is its box count: frame_to_json writes no `length`,
        # and frame_from_json ignores one, whatever its value.
        from crftrack.crf_model import default_params, save_params
        from crftrack.features import Box, FrameContext, HypothesisWindow
        from crftrack.io import frame_to_json
        save_params(workdir / "params.txt", *default_params())
        windows = [HypothesisWindow(1, tuple(Box(100.0 + 2 * t, 100, 40, 100) for t in range(3)),
                                    score=0.9),
                   HypothesisWindow(2, (Box(500, 100, 40, 100), Box(502, 100, 40, 100),
                                        Box(560, 100, 40, 100)), score=0.8),
                   HypothesisWindow(3, (Box(900, 100, 40, 100), Box(902, 100, 40, 100)),
                                    score=0.45)]
        frame = frame_to_json(FrameContext(1920, 1080, 30), windows)
        assert all("length" not in w for w in frame["windows"])
        outputs = set()
        for length in (None, 3, 18, 1, 0, -3, 3.9, True, "x", [3]):
            for w in frame["windows"]:
                w.pop("length", None)
                if length is not None:
                    w["length"] = length
            (workdir / "frame.json").write_text(json.dumps(frame))
            assert main(["infer", "--frame-json", str(workdir / "frame.json"),
                         "--params", str(workdir / "params.txt"),
                         "--inference", inference]) == 0
            outputs.add(capsys.readouterr().out)
        assert outputs == {"1 1\n2 0\n3 0\n"}

    def test_message_dump_needs_loopy_bp(self, workdir, capsys):
        from crftrack.crf_model import default_params, save_params
        save_params(workdir / "params.txt", *default_params())
        frame = {"image_width": 1920, "image_height": 1080, "frame_rate": 30,
                 "windows": [{"id": 1, "boxes": [[100, 100, 40, 100]] * 3,
                              "score": 0.9}]}
        (workdir / "frame.json").write_text(json.dumps(frame))
        code = main(["infer", "--frame-json", str(workdir / "frame.json"),
                     "--params", str(workdir / "params.txt"), "--inference", "exact",
                     "--dump-messages", str(workdir / "msgs.txt")])
        assert code == 2
        assert "loopy-bp" in capsys.readouterr().err
        assert not (workdir / "msgs.txt").exists()

    @pytest.mark.parametrize("field", [
        {"camera_pan": 5}, {"camera_pan": [1]}, {"drift_events": [[1, 2]]},
        {"num_frames": "x"}, {"image_width": "abc"}, {"frame_rate": "5"},
        {"num_targets": 2.5}, {"num_frames": 2.5}, {"image_width": -5},
        {"noise_std": math.nan}, {"num_targets": True}, {"camera_pan": {}},
        {"camera_pan": [math.inf, 0.0]}, {"camera_pan": [[1, [0.0, math.nan]]]},
        {"drift_events": [[20.5, 0, 1]]}, {"seed": -1}, {"frame_rate": True},
        {"noise_std": True}, {"camera_pan": [[1, [0, 0.5]], [2.5, [0.4, 0]]]},
        {"camera_pan": [True, 0.0]}, {"camera_pan": [[1, [0.0, 0.5, 9.0]]]}])
    def test_wrong_typed_spec_field_exit_code(self, workdir, capsys, field):
        (workdir / "spec.json").write_text(json.dumps({**SPEC_JSON, **field}))
        assert main(gen_args(workdir)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    # Each spec asks for arrays above 64 PiB, more than any x86-64 address space
    # holds, so the allocation fails at once and reserves no memory. From
    # 8 EiB on numpy cannot even describe the array and rejects it earlier.
    @pytest.mark.parametrize("field", [
        {"num_frames": 10 ** 17}, {"num_targets": 10 ** 17},
        {"num_targets": 2 * 10 ** 18}, {"num_targets": 10 ** 19},
        {"num_frames": 10 ** 18}, {"num_frames": 10 ** 19}])
    def test_unallocatable_spec_exit_code(self, workdir, capsys, field):
        (workdir / "spec.json").write_text(json.dumps({**SPEC_JSON, **field}))
        assert main(gen_args(workdir)) == 4
        err = capsys.readouterr().err
        (name, value), = field.items()
        assert err.startswith(f"error: {name} {value} is too large") and err.count("\n") == 1
        assert ("Unable to allocate" in err) == (value == 10 ** 17)

    def test_dataset_lines_are_infer_frames(self, workdir, capsys):
        from crftrack.crf_model import decide_inactivation, load_params
        from crftrack.training import load_dataset
        assert main(train_args(workdir, "0.01")) == 0
        params, bp = load_params(workdir / "params.txt")
        lines = (workdir / "dataset.txt").read_text().splitlines()
        samples = load_dataset(workdir / "dataset.txt")
        assert len(lines) == len(samples) > 0
        for line, sample in zip(lines, samples):
            (workdir / "frame.json").write_text(line)
            capsys.readouterr()
            assert main(["infer", "--frame-json", str(workdir / "frame.json"),
                         "--params", str(workdir / "params.txt")]) == 0
            labels = decide_inactivation(sample.windows, params, sample.ctx, "loopy-bp", bp)
            assert capsys.readouterr().out.splitlines() == \
                [f"{tid} {labels[tid]}" for tid in sorted(labels)]

    def test_readme_json_examples_run(self, tmp_path, capsys):
        # The scenario spec and infer frame shown in README.md must stay valid inputs.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
        spec = next(b for b in blocks if "num_frames" in b)
        frame = next(b for b in blocks if "windows" in b)
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        (tmp_path / "frame.json").write_text(json.dumps(frame))
        from crftrack.crf_model import default_params, save_params
        save_params(tmp_path / "params.txt", *default_params())
        assert main(gen_args(tmp_path)) == 0
        assert main(["infer", "--frame-json", str(tmp_path / "frame.json"),
                     "--params", str(tmp_path / "params.txt"), "--inference", "loopy-bp",
                     "--dump-messages", str(tmp_path / "messages.txt")]) == 0
        out = capsys.readouterr().out.split()
        assert out[::2] == [str(w["id"]) for w in frame["windows"]]
        # The README's --dump-messages example writes messages: its frame has pair factors.
        assert (tmp_path / "messages.txt").read_text().strip()

    def test_huge_coordinates_round_trip(self, workdir):
        # Finite values beyond 1e26 overflowed a 28-digit decimal context.
        (workdir / "hyp.txt").write_text("1,1,1e30,20,30,60,0.9,-1,-1,-1\n")
        (workdir / "seqinfo.txt").write_text(
            "imWidth=1920\nimHeight=1080\nframeRate=5\nseqLength=1\n")
        from crftrack.crf_model import default_params, save_params
        save_params(workdir / "params.txt", *default_params())
        assert main(["track", "--hyp", str(workdir / "hyp.txt"),
                     "--seqinfo", str(workdir / "seqinfo.txt"),
                     "--params", str(workdir / "params.txt"), "--mode", "crf",
                     "--out", str(workdir / "out.txt")]) == 0
        assert (workdir / "out.txt").read_text() == \
            "1,1,1000000000000000019884624838656.00,20.00,30.00,60.00,0.9000,-1,-1,-1\n"
        assert parse_mot(workdir / "out.txt").records[0].left == 1e30

    def test_huge_image_width_generates(self, workdir):
        (workdir / "spec.json").write_text(json.dumps({**SPEC_JSON, "image_width": 1e300}))
        assert main(gen_args(workdir)) == 0
        ctx, _ = parse_seqinfo(workdir / "seqinfo.txt")
        assert ctx.image_width == 1e300

    @pytest.mark.parametrize("field, message", [
        # Finite fields whose generated jitter or pan overflows.
        ({"noise_std": 1e308}, "noise_std and camera_pan must keep every box finite"),
        ({"noise_std": 5e307, "camera_pan": [2.5e306, 0.0]},
         "noise_std and camera_pan must keep every box finite"),
        ({"camera_pan": [1e308, 0.0]}, "camera_pan must keep every pan offset finite")],
        ids=["noise", "noise-and-pan", "pan"])
    def test_overflowing_spec_exit_code(self, workdir, capsys, field, message):
        (workdir / "spec.json").write_text(json.dumps({**SPEC_JSON, **field}))
        assert main(gen_args(workdir)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("frame_rate, boxes, message", [
        (1e200, [[100, 100, 40, 100], [104, 100, 40, 100], [110, 100, 40, 100]],
         "pairwise feature of tracklets 1 and 2"),
        (30, [[1e307, 100, 40, 100], [-1e307, 100, 40, 100], [1e307, 100, 40, 100]],
         "pairwise feature of tracklets 1 and 2"),
        (30, [[100, 100, 40, 1e-300], [104, 100, 40, 1e-300], [110, 100, 40, 1e300]],
         "pairwise feature of tracklets 1 and 2"),
        (30, [[100, 100, 1e300, 1e-300], [100, 100, 1, 1], [100, 100, 1e300, 1e-300]],
         "unary feature of tracklet 1")],
        ids=["frame-rate", "huge-left", "height-jump", "aspect-jump"])
    def test_infer_feature_overflow_exit_code(self, workdir, capsys, frame_rate, boxes, message):
        # Well-formed frames whose features overflow are numerical errors.
        from crftrack.crf_model import default_params, save_params
        save_params(workdir / "params.txt", *default_params())
        frame = {"image_width": 1920, "image_height": 1080, "frame_rate": frame_rate,
                 "windows": [{"id": 1, "boxes": boxes, "score": 0.9},
                             {"id": 2, "boxes": [[500, 100, 40, 100], [502, 100, 40, 100],
                                                 [560, 100, 40, 100]], "score": 0.8}]}
        (workdir / "frame.json").write_text(json.dumps(frame))
        for inference in ("exact", "loopy-bp"):
            assert main(["infer", "--frame-json", str(workdir / "frame.json"),
                         "--params", str(workdir / "params.txt"),
                         "--inference", inference]) == 3
            assert capsys.readouterr().err == f"error: non-finite {message}\n"

    def test_track_feature_overflow_exit_code(self, workdir, capsys):
        (workdir / "hyp.txt").write_text("".join(
            f"{t},1,{x},20,30,60,0.9,-1,-1,-1\n{t},2,{100 + t},20,30,60,0.8,-1,-1,-1\n"
            for t, x in enumerate(["1e307", "-1e307", "1e307"], start=1)))
        (workdir / "seqinfo.txt").write_text(
            "imWidth=1920\nimHeight=1080\nframeRate=5\nseqLength=3\n")
        from crftrack.crf_model import default_params, save_params
        save_params(workdir / "params.txt", *default_params())
        assert main(["track", "--hyp", str(workdir / "hyp.txt"),
                     "--seqinfo", str(workdir / "seqinfo.txt"),
                     "--params", str(workdir / "params.txt"), "--mode", "crf",
                     "--out", str(workdir / "out.txt")]) == 3
        assert capsys.readouterr().err == \
            "error: non-finite pairwise feature of tracklets 1 and 2\n"

    @pytest.mark.parametrize("command", ["track", "infer", "check-gradients"])
    def test_degenerate_aspect_ratio_exit_code(self, workdir, capsys, command):
        # A valid 1e-30 x 1e300 box has an aspect ratio that underflows to 0, so the
        # next frame's aspect-ratio change is infinite.
        from crftrack.crf_model import default_params, save_params
        save_params(workdir / "params.txt", *default_params())
        boxes = {tid: [[x + 2 * t, 100, 40, 100] for t in (1, 2, 3)]
                 for tid, x in ((1, 100), (2, 500), (3, 900))}
        boxes[1][1][2:] = [1e-30, 1e300]
        (workdir / "hyp.txt").write_text("".join(
            f"{t},{tid},{','.join(map(str, boxes[tid][t - 1]))},0.9,-1,-1,-1\n"
            for t in (1, 2, 3) for tid in (1, 2, 3)))
        (workdir / "seqinfo.txt").write_text(
            "imWidth=1920\nimHeight=1080\nframeRate=5\nseqLength=3\n")
        frame = {"sequence": "s", "frame": 3, "image_width": 1920, "image_height": 1080,
                 "frame_rate": 5, "windows": [{"id": tid, "boxes": boxes[tid], "score": 0.9,
                                               "gold": int(tid > 1)} for tid in (1, 2, 3)]}
        (workdir / "frame.json").write_text(json.dumps(frame) + "\n")
        code = main({
            "track": ["track", "--hyp", str(workdir / "hyp.txt"),
                      "--seqinfo", str(workdir / "seqinfo.txt"), "--mode", "crf",
                      "--out", str(workdir / "out.txt")],
            "infer": ["infer", "--frame-json", str(workdir / "frame.json")],
            "check-gradients": ["check-gradients", "--dataset", str(workdir / "frame.json")],
        }[command] + ["--params", str(workdir / "params.txt")])
        assert code == 3
        assert capsys.readouterr().err == "error: non-finite unary feature of tracklet 1\n"

    @pytest.mark.parametrize("inference", ["loopy-bp", "exact"])
    @pytest.mark.parametrize("command, weight", [("track", "theta_u"), ("infer", "theta_b")])
    def test_overflowing_weights_exit_code(self, workdir, capsys, command, weight, inference):
        # Weights of 1e308 overflow the energies theta * phi of well-formed features.
        from crftrack.crf_model import default_params, save_params, with_weights
        params, bp = default_params()
        save_params(workdir / "params.txt", with_weights(params, 1e308, 1e308), bp)
        assert main(gen_args(workdir)) == 0
        (workdir / "frame.json").write_text(json.dumps({
            "image_width": 1920, "image_height": 1080, "frame_rate": 30,
            "windows": [{"id": 1, "boxes": [[100, 100, 40, 100], [102, 100, 40, 100],
                                            [104, 100, 40, 100]], "score": 0.9},
                        {"id": 2, "boxes": [[500, 100, 40, 100], [502, 100, 40, 100],
                                            [560, 100, 40, 100]], "score": 0.8}]}))
        capsys.readouterr()
        args = {"track": ["track", "--hyp", str(workdir / "hyp.txt"),
                          "--seqinfo", str(workdir / "seqinfo.txt"), "--mode", "crf",
                          "--out", str(workdir / "out.txt")],
                "infer": ["infer", "--frame-json", str(workdir / "frame.json")]}[command]
        assert main([*args, "--params", str(workdir / "params.txt"),
                     "--inference", inference]) == 3
        assert capsys.readouterr().err == \
            f"error: energies of weight {weight} overflow float range\n"

    @pytest.mark.parametrize("command", ["infer", "gen", "check-gradients"])
    def test_deeply_nested_json_exit_code(self, workdir, capsys, command):
        from crftrack.crf_model import default_params, save_params
        save_params(workdir / "params.txt", *default_params())
        for name in ("frame.json", "spec.json", "dataset.txt"):
            (workdir / name).write_text("[" * 100_000)
        code = main({
            "infer": ["infer", "--frame-json", str(workdir / "frame.json"),
                      "--params", str(workdir / "params.txt")],
            "gen": gen_args(workdir),
            "check-gradients": ["check-gradients", "--params", str(workdir / "params.txt"),
                                "--dataset", str(workdir / "dataset.txt")],
        }[command])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "JSON" in err and "Traceback" not in err

    def test_exit_code_mapping(self):
        assert exit_code_for(FormatError("x")) == 2
        assert exit_code_for(ValidationError("x")) == 2
        assert exit_code_for(NumericalError("x")) == 3
        assert exit_code_for(CapacityError("x")) == 4
        assert exit_code_for(MemoryError()) == 4

    def test_bare_memory_error_names_itself(self, workdir, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError()
        monkeypatch.setitem(cli._HANDLERS, "gen", exhausted)
        assert main(gen_args(workdir)) == 4
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_gen_is_deterministic(self, workdir):
        assert main(gen_args(workdir, "a")) == 0
        assert main(gen_args(workdir, "b")) == 0
        for name in ("hyp", "gt", "seqinfo"):
            assert (workdir / f"{name}a.txt").read_bytes() \
                == (workdir / f"{name}b.txt").read_bytes()


def test_default_inference_is_named_once():
    # `is`: each default reads the constant instead of restating its value.
    assert DEFAULT_INFERENCE == "loopy-bp" and DEFAULT_INFERENCE in INFERENCE_MODES
    for fn in (crf_model.decide_frame, crf_model.decide_inactivation, tracker.step, tracker.run):
        assert inspect.signature(fn).parameters["inference"].default is DEFAULT_INFERENCE
    parser = cli.build_parser()
    for argv in (["track", "--hyp", "h", "--seqinfo", "s", "--params", "p", "--mode", "crf",
                  "--out", "o"], ["infer", "--frame-json", "f", "--params", "p"]):
        assert parser.parse_args(argv).inference is DEFAULT_INFERENCE
