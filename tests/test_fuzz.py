"""Seeded fuzz test of the command-line input boundary.

Valid inputs of six kinds (MOT track file, seqinfo, parameter file, scenario
spec, frame JSON, dataset) are mutated and fed to `cli.main` in-process.
Every run must end in a documented exit code, with an `error:` line when it
fails, and no exception may escape. Mutations delete, duplicate or truncate
a line, swap one number for a malformed value, or drop a JSON key. None of
them can turn a count into a large value: `gen` allocates
num_frames x num_targets arrays. The boundary test's 5000-digit integer is
past Python's integer conversion limit, so it fails in the parser before
anything is allocated.
"""

import json
import random
import re
import sys

import pytest

from crftrack.cli import main
from crftrack.crf_model import default_params, save_params
from crftrack.features import Box, FrameContext, HypothesisWindow
from crftrack.training import TrainingSample, save_dataset

CASES_PER_KIND = 60
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e-?\d+)?")
TEXT_VALUES = ["nan", "inf", "-1", "2.5", "x", "true", "null", "é"]
JSON_VALUES = ["NaN", "Infinity", "-1", "2.5", '"x"', "true", "null", "é"]

SPEC = {"num_frames": 40, "num_targets": 3, "frame_rate": 5.0,
        "camera_pan": [[1, [0.0, 0.5]], [20, [0.4, 0.0]]],
        "drift_events": [[8, 0, 1]], "noise_std": 0.1, "seed": 1}

WINDOW_BOXES = [[100, 100, 40, 100], [103, 100, 40, 101], [106, 101, 41, 101]]
FRAME = {"image_width": 1920, "image_height": 1080, "frame_rate": 5,
         "windows": [{"id": tid, "score": 0.6 + 0.1 * tid, "length": 2 + tid,
                      "boxes": [[x + 60 * tid, y, w, h] for x, y, w, h in WINDOW_BOXES]}
                     for tid in (1, 2, 3)]}


def dataset_samples():
    windows = [HypothesisWindow(tracklet_id=tid, boxes=tuple(
        Box(x + 60.0 * tid, y, w, h) for x, y, w, h in WINDOW_BOXES), score=0.7)
        for tid in (1, 2)]
    return [TrainingSample(windows=windows, ctx=FrameContext(1920.0, 1080.0, 5.0),
                           gold={1: 1, 2: 0}, sequence="s", frame=frame)
            for frame in (4, 5)]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "spec.json").write_text(json.dumps(SPEC, indent=1))
    (d / "frame.json").write_text(json.dumps(FRAME, indent=1))
    save_params(d / "params.txt", *default_params())
    save_dataset(d / "dataset.txt", dataset_samples())
    assert main(["gen", "--spec", str(d / "spec.json"), "--seed", "1",
                 "--out-hyp", str(d / "hyp.txt"), "--out-gt", str(d / "gt.txt"),
                 "--out-seqinfo", str(d / "seqinfo.txt")]) == 0
    return d


def mutate(text: str, rng: random.Random, is_json: bool) -> str:
    ops = ["delete", "duplicate", "truncate", "swap", "swap"] + ["drop-key"] * is_json
    op = rng.choice(ops)
    lines = text.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "truncate":
        lines[i] = lines[i][:rng.randrange(len(lines[i]))] + "\n"
    elif op == "swap":
        match = rng.choice(list(NUMBER.finditer(text)))
        value = rng.choice(JSON_VALUES if is_json else TEXT_VALUES)
        return text[:match.start()] + value + text[match.end():]
    else:
        data = json.loads(text)
        objects = [data] + [w for w in data.get("windows", [])]
        target = rng.choice(objects)
        del target[rng.choice(sorted(target))]
        return json.dumps(data, indent=1)
    return "".join(lines)


def command(kind: str, d, bad: str, case: int) -> list[str]:
    """The command that reads the mutated input `bad` in place of its valid original."""
    paths = {"hyp": str(d / "hyp.txt"), "gt": str(d / "gt.txt"),
             "seqinfo": str(d / "seqinfo.txt"), "params": str(d / "params.txt"),
             "out": str(d / "out.txt")}
    if kind == "mot":
        if case % 2:
            return ["eval", "--gt", bad, "--hyp", paths["hyp"], "--out", paths["out"]]
        paths["hyp"] = bad
    if kind in ("seqinfo", "params"):
        paths[kind] = bad
    if kind in ("mot", "seqinfo", "params"):
        inference = "loopy-bp" if kind == "params" else "exact"
        return ["track", "--hyp", paths["hyp"], "--seqinfo", paths["seqinfo"],
                "--params", paths["params"], "--mode", "crf", "--inference", inference,
                "--out", paths["out"]]
    if kind == "spec":
        return ["gen", "--spec", bad, "--seed", "1", "--out-hyp", str(d / "out-hyp.txt"),
                "--out-gt", str(d / "out-gt.txt"), "--out-seqinfo", str(d / "out-seq.txt")]
    if kind == "frame":
        return ["infer", "--frame-json", bad, "--params", paths["params"]]
    return ["check-gradients", "--params", paths["params"], "--dataset", bad]


SOURCES = {"mot": "hyp.txt", "seqinfo": "seqinfo.txt", "params": "params.txt",
           "spec": "spec.json", "frame": "frame.json", "dataset": "dataset.txt"}


@pytest.mark.parametrize("kind", sorted(SOURCES))
def test_mutated_input_exits_with_documented_code(inputs, capsys, kind):
    valid = (inputs / SOURCES[kind]).read_text()
    bad = inputs / f"bad-{SOURCES[kind]}"
    failures = []
    for case in range(CASES_PER_KIND):
        rng = random.Random(f"{kind}-{case}")
        text = mutate(valid, rng, SOURCES[kind].endswith(".json"))
        bad.write_text(text, encoding="utf-8")
        argv = command(kind, inputs, str(bad), case)
        capsys.readouterr()
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - the finding is that anything escaped
            failures.append((case, f"{type(exc).__name__}: {exc}", text))
            continue
        err = capsys.readouterr().err
        if code not in (0, 2, 3, 4) or (code != 0 and not err.startswith("error:")):
            failures.append((case, f"exit {code}, stderr {err!r}", text))
    assert not failures, "\n\n".join(f"case {c}: {what}\n{text}" for c, what, text in failures)


@pytest.mark.parametrize("kind", sorted(SOURCES))
def test_oversized_integer_exits_2(inputs, capsys, kind):
    valid = (inputs / SOURCES[kind]).read_text()
    first = NUMBER.search(valid)
    bad = inputs / f"big-{SOURCES[kind]}"
    bad.write_text(valid[:first.start()] + "9" * 5000 + valid[first.end():], encoding="ascii")
    capsys.readouterr()
    assert main(command(kind, inputs, str(bad), 0)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    # The error states the limit instead of advising a Python call.
    assert "sys.set_int_max_str_digits" not in err
    if kind in ("spec", "frame", "dataset"):
        assert err.endswith(f"JSON: integer longer than {sys.get_int_max_str_digits()} digits\n")
