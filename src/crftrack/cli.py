"""Command-line surface tying the modules into runnable workflows.

Exit codes: 0 success, 2 format/validation error, 3 numerical error,
4 capacity error (a size bound, or an allocation that fails).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import crf_model, io, metrics, tracker, training
from .crf_model import DEFAULT_INFERENCE, INFERENCE_MODES
from .errors import CapacityError, CrfTrackError, FormatError, NumericalError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crftrack",
                                     description="CRF-based tracklet inactivation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic scenario")
    p.add_argument("--spec", required=True, help="scenario spec JSON file")
    p.add_argument("--seed", type=int, required=True, help="overrides the spec seed")
    p.add_argument("--out-hyp", required=True)
    p.add_argument("--out-gt", required=True)
    p.add_argument("--out-seqinfo", required=True)

    p = sub.add_parser("track", help="run the tracker over a hypothesis file")
    p.add_argument("--hyp", required=True)
    p.add_argument("--seqinfo", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--mode", choices=("threshold", "crf"), required=True)
    p.add_argument("--inference", choices=INFERENCE_MODES, default=DEFAULT_INFERENCE)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-decisions", default=None)

    p = sub.add_parser("train", help="estimate the CRF weights from baseline runs")
    p.add_argument("--runs", required=True, help="directory of baseline run files (*.txt), "
                   "each with its <run>.seqinfo here or else in --gt")
    p.add_argument("--gt", required=True, help="directory of matching ground-truth files")
    p.add_argument("--params-init", required=True)
    config = training.TrainConfig()
    p.add_argument("--lr", type=float, default=config.learning_rate)
    p.add_argument("--epochs", type=int, default=config.epochs)
    p.add_argument("--ratio", type=int, default=config.positive_ratio)
    p.add_argument("--seed", type=int, default=config.shuffle_seed)
    p.add_argument("--out-params", required=True)
    p.add_argument("--out-dataset", default=None)

    p = sub.add_parser("infer", help="single-frame inactivation decision")
    p.add_argument("--frame-json", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--inference", choices=INFERENCE_MODES, default=DEFAULT_INFERENCE)
    p.add_argument("--dump-messages", default=None,
                   help="write per-iteration BP messages (loopy-bp only)")

    p = sub.add_parser("eval", help="CLEAR-MOT and identity metrics")
    p.add_argument("--gt", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("check-gradients", help="finite-difference gradient certificate")
    p.add_argument("--params", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--h", type=float, default=1e-5)

    return parser


def _cmd_gen(args) -> int:
    spec = tracker.scenario_from_json(Path(args.spec).read_text(encoding="ascii"))
    spec.seed = args.seed
    hyp, gt, ctx = tracker.generate_scenario(spec)
    io.write_mot(hyp, args.out_hyp)
    io.write_mot(gt, args.out_gt)
    io.write_seqinfo(args.out_seqinfo, ctx, spec.num_frames)
    return 0


def _cmd_track(args) -> int:
    hyp = io.parse_mot(args.hyp)
    ctx, _ = io.parse_seqinfo(args.seqinfo)
    params, bp = crf_model.load_params(args.params)
    mode = "threshold-only" if args.mode == "threshold" else "crf"
    results = [] if args.dump_decisions else None
    out = tracker.run(hyp, params, ctx, mode=mode, inference=args.inference,
                      bp=bp, results=results)
    io.write_mot(out, args.out)
    if args.dump_decisions:
        with open(args.dump_decisions, "w", encoding="ascii") as fh:
            for fr in results:
                for d in fr.decisions:
                    fh.write(f"{fr.frame},{d.track_id},{d.decision}\n")
    return 0


def _cmd_train(args) -> int:
    params, bp = crf_model.load_params(args.params_init)
    config = training.TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                                  positive_ratio=args.ratio, shuffle_seed=args.seed)
    run_files = sorted(Path(args.runs).glob("*.txt"))
    if not run_files:
        raise FormatError(f"no run files (*.txt) found in {args.runs}")
    samples = []
    for run_path in run_files:
        gt_path = Path(args.gt) / run_path.name
        if not gt_path.exists():
            raise FormatError(f"no ground truth for {run_path.name} in {args.gt}")
        seqinfo = run_path.with_suffix(".seqinfo")
        if not seqinfo.exists():
            seqinfo = Path(args.gt) / seqinfo.name
        if not seqinfo.exists():
            raise FormatError(f"no seqinfo for {run_path.name}")
        ctx, _ = io.parse_seqinfo(seqinfo)
        samples.extend(training.generate_dataset(
            io.parse_mot(run_path), io.parse_mot(gt_path), params, config, ctx,
            sequence_id=run_path.stem))
    if args.out_dataset:
        training.save_dataset(args.out_dataset, samples)
    if not samples:
        print("warning: no negative frames found; dataset is empty, weights unchanged",
              file=sys.stderr)
        crf_model.save_params(args.out_params, params, bp)
        return 0
    result = training.sgd_train(samples, params, config, bp)
    crf_model.save_params(args.out_params, result.params, bp)
    print(f"samples={len(samples)} negatives={sum(s.negative for s in samples)} "
          f"loglik_init={result.epoch_loglik[0]:.6f} loglik_final={result.epoch_loglik[-1]:.6f}")
    print(f"theta_u={result.params.theta_u:.6f} theta_b={result.params.theta_b:.6f}")
    if result.epoch_loglik[-1] < result.epoch_loglik[0]:
        print("warning: SGD lowered the log-likelihood; the learning rate may be too large",
              file=sys.stderr)
    return 0


def _cmd_infer(args) -> int:
    data = io._decode_json(Path(args.frame_json).read_text(encoding="ascii"), "frame JSON")
    ctx, windows, _ = io.frame_from_json(data)
    params, bp = crf_model.load_params(args.params)
    trace = [] if args.dump_messages else None
    labels = crf_model.decide_inactivation(windows, params, ctx, args.inference, bp, trace)
    for tid in sorted(labels):
        print(f"{tid} {labels[tid]}")
    if args.dump_messages:
        with open(args.dump_messages, "w", encoding="ascii") as fh:
            for it, fid, vid, direction, p0, p1 in trace:
                fh.write(f"{it},{fid},{vid},{direction},{p0!r},{p1!r}\n")
    return 0


def _cmd_eval(args) -> int:
    gt = io.parse_mot(args.gt)
    hyp = io.parse_mot(args.hyp)
    report = metrics.evaluate(gt, hyp)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(metrics.report_text(report))
    sys.stdout.write(metrics.report_csv(report))
    return 0


def _cmd_check_gradients(args) -> int:
    params, _ = crf_model.load_params(args.params)
    samples = training.load_dataset(args.dataset)
    if not samples:
        raise FormatError(f"dataset {args.dataset} holds no samples")
    training._fill_tables(samples, params)
    worst = max(training.finite_diff_check(params, sample, args.h) for sample in samples)
    print(f"samples={len(samples)} h={args.h} max_relative_error={worst:.3e}")
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "track": _cmd_track,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "check-gradients": _cmd_check_gradients,
}


def exit_code_for(exc: CrfTrackError | MemoryError) -> int:
    if isinstance(exc, (CapacityError, MemoryError)):  # a size the input asks for
        return 4
    if isinstance(exc, NumericalError):
        return 3
    return 2  # FormatError, ValidationError


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (CrfTrackError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return exit_code_for(exc)
    except (OSError, UnicodeDecodeError) as exc:
        # Every reader opens its input as ASCII text.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
