import json

import pytest

from crftrack.cli import exit_code_for, main
from crftrack.errors import CapacityError, FormatError, NumericalError, ValidationError
from crftrack.features import FrameContext
from crftrack.io import (TrackFile, TrackRecord, parse_mot, parse_seqinfo,
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

    def test_half_up_not_bankers(self):
        # 0.125 is exactly representable; bankers rounding would give 0.12.
        assert round_half_up(0.125, 2) == 0.13
        assert round_half_up(0.135, 2) == 0.14

    def test_empty_track_file(self, tmp_path):
        path = tmp_path / "t.txt"
        write_mot(TrackFile([]), path)
        assert path.read_text() == ""

    def test_seqinfo_round_trip(self, tmp_path):
        path = tmp_path / "seqinfo.txt"
        write_seqinfo(path, FrameContext(1920, 1080, 5.0), 70)
        ctx, length = parse_seqinfo(path)
        assert ctx == FrameContext(1920, 1080, 5.0)
        assert length == 70


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
                                    [104, 100, 40, 100]], "score": 0.9, "length": 3},
                {"id": 2, "boxes": [[500, 100, 40, 100], [502, 100, 40, 100],
                                    [560, 100, 40, 100]], "score": 0.8, "length": 3},
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
        from crftrack.crf_model import default_params, load_params, save_params
        params, bp = default_params()
        save_params(workdir / "params.txt", params, bp)
        assert main(gen_args(workdir)) == 0
        # Baseline run to learn from.
        runs = workdir / "runs"
        gts = workdir / "gts"
        runs.mkdir(), gts.mkdir()
        assert main(["track", "--hyp", str(workdir / "hyp.txt"),
                     "--seqinfo", str(workdir / "seqinfo.txt"),
                     "--params", str(workdir / "params.txt"),
                     "--mode", "threshold", "--out", str(runs / "seq.txt")]) == 0
        (gts / "seq.txt").write_bytes((workdir / "gt.txt").read_bytes())
        (runs / "seq.seqinfo").write_bytes((workdir / "seqinfo.txt").read_bytes())
        assert main(["train", "--runs", str(runs), "--gt", str(gts),
                     "--params-init", str(workdir / "params.txt"),
                     "--lr", "0.01", "--epochs", "2", "--ratio", "3", "--seed", "5",
                     "--inference", "exact",
                     "--out-params", str(workdir / "trained.txt"),
                     "--out-dataset", str(workdir / "dataset.txt")]) == 0
        trained, _ = load_params(workdir / "trained.txt")
        assert trained.theta_u != params.theta_u
        assert main(["check-gradients", "--params", str(workdir / "params.txt"),
                     "--dataset", str(workdir / "dataset.txt"), "--h", "1e-5"]) == 0
        out = capsys.readouterr().out
        assert "max_relative_error" in out

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
                              "score": 0.9, "length": 3} for tid in range(1, 22)]}
        (workdir / "frame.json").write_text(json.dumps(frame))
        code = main(["infer", "--frame-json", str(workdir / "frame.json"),
                     "--params", str(workdir / "params25.txt"),
                     "--inference", "exact"])
        assert code == 4

    def test_non_numeric_frame_field_exit_code(self, workdir, capsys):
        from crftrack.crf_model import default_params, save_params
        save_params(workdir / "params.txt", *default_params())
        frame = {"image_width": "abc", "image_height": 1080, "frame_rate": 30,
                 "windows": []}
        (workdir / "frame.json").write_text(json.dumps(frame))
        code = main(["infer", "--frame-json", str(workdir / "frame.json"),
                     "--params", str(workdir / "params.txt")])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_message_dump_needs_loopy_bp(self, workdir, capsys):
        from crftrack.crf_model import default_params, save_params
        save_params(workdir / "params.txt", *default_params())
        frame = {"image_width": 1920, "image_height": 1080, "frame_rate": 30,
                 "windows": [{"id": 1, "boxes": [[100, 100, 40, 100]] * 3,
                              "score": 0.9, "length": 3}]}
        (workdir / "frame.json").write_text(json.dumps(frame))
        code = main(["infer", "--frame-json", str(workdir / "frame.json"),
                     "--params", str(workdir / "params.txt"), "--inference", "exact",
                     "--dump-messages", str(workdir / "msgs.txt")])
        assert code == 2
        assert "loopy-bp" in capsys.readouterr().err
        assert not (workdir / "msgs.txt").exists()

    @pytest.mark.parametrize("field", [{"camera_pan": 5}, {"camera_pan": [1]},
                                       {"drift_events": [[1, 2]]}, {"num_frames": "x"}])
    def test_wrong_typed_spec_field_exit_code(self, workdir, capsys, field):
        (workdir / "spec.json").write_text(json.dumps({**SPEC_JSON, **field}))
        assert main(gen_args(workdir)) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_exit_code_mapping(self):
        assert exit_code_for(FormatError("x")) == 2
        assert exit_code_for(ValidationError("x")) == 2
        assert exit_code_for(NumericalError("x")) == 3
        assert exit_code_for(CapacityError("x")) == 4

    def test_gen_is_deterministic(self, workdir):
        assert main(gen_args(workdir, "a")) == 0
        assert main(gen_args(workdir, "b")) == 0
        for name in ("hyp", "gt", "seqinfo"):
            assert (workdir / f"{name}a.txt").read_bytes() \
                == (workdir / f"{name}b.txt").read_bytes()
