"""Workloads, timed flows and output checks of the crftrack benchmark.

Each workload generates its sequences from the seed, writes them as the MOT
files the command line would read, and then repeats rounds until its time is
up. A round runs the three user flows through the same public functions the
`track`, `eval` and `train` commands call, without interpreter start-up:

- track: io.parse_mot and io.parse_seqinfo, tracker.step folded over the
  frames in CRF mode, io.write_mot; once with loopy-bp and once with exact;
- eval: parse ground truth and the loopy-bp result, metrics.evaluate;
- train: threshold-mode baselines plus training.generate_dataset, then
  training.sgd_train at the published settings.

All runs use the published parameters from crf_model.default_params().
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from crftrack import crf_model, io, metrics, tracker, training
from crftrack.errors import CrfTrackError
from crftrack.factor_graph import BpConfig

from spans import Tracer, leftover_wrappers

NUM_FRAMES = 130
DRIFT_FRAMES = (18, 44, 70, 96)
SETUP_REPEATS = 5
NAN = float("nan")
# Seconds the reference kernel is taken to last in reference time: about its
# time in the host's fast state on a 2-vCPU Xeon VM under Python 3.11.
REFERENCE_S = 0.0025
# Timed kernel runs per probe; the probe is their median, so that one run
# that caught a momentary stall does not rescale a whole unit.
PROBE_RUNS = 3


@dataclass(frozen=True)
class Workload:
    """One scenario family and how much of each flow a round runs.

    The first `train_sequences` of the `sequences` tracked ones are also the
    training sequences. `loglik_must_rise` gates the run on the final exact
    log-likelihood beating the initial one. The train workload gates it; on
    battery and crowd one epoch over two sequences is a timing vehicle, and
    on crowd it lowers the log-likelihood on some seeds (6, 10 and 11 of
    0-29), the known non-monotone SGD, which the report line shows.
    """

    name: str
    targets: int
    sequences: int
    train_sequences: int
    epochs: int
    loglik_must_rise: bool = False


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("battery", targets=8, sequences=10, train_sequences=2, epochs=1),
    Workload("crowd", targets=20, sequences=8, train_sequences=2, epochs=1),
    Workload("train", targets=8, sequences=8, train_sequences=2, epochs=3,
             loglik_must_rise=True),
)}


def benchmark_units() -> dict[str, str]:
    """Units of the end-to-end and per-layer metrics, from BENCHMARK.json.

    Timed end-to-end metrics are in reference time (see Reference), hence
    their "ref-" units; the report line keeps them raw too, under the unit
    without "ref-".
    """
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# In the report line only: ids and error_rate read 0 on a healthy run and
# train_loglik is negative, so a relative bound cannot judge them; the output
# checks guard them instead.
REPORTED_UNITS = {"ids": "count", "train_loglik": "nats",
                  "train_loglik_initial": "nats", "error_rate": "ratio"}
# Per-layer metric -> the end-to-end metrics and workloads it should move.
# Times are per call; counts are per traced round.
MOVES = {
    "io.parse_mot_ms": "track_fps, eval_ms; mostly crowd",
    "io.write_mot_ms": "track_fps; mostly crowd",
    "features.tables_ms": "frame_p50_ms, track_fps on crowd; dataset_s on train",
    "features.pairs_per_frame": "frame_p50_ms, track_fps on crowd",
    "crf_model.assemble_ms": "frame_p50_ms on battery and crowd",
    "crf_model.graph_ms": "frame_p50_ms on battery and crowd",
    "crf_model.real_nodes_mean": "frame_p50_ms on battery and crowd",
    "crf_model.bypass_ratio": "frame_p50_ms on battery and crowd",
    "factor_graph.max_product_ms": "track_fps, frame_p50_ms, frame_p99_ms on battery "
                                   "and crowd",
    "factor_graph.max_product_calls": "track_fps on battery and crowd",
    "factor_graph.bp_iterations_p50": "frame_p50_ms on battery and crowd",
    "factor_graph.bp_iterations_max": "frame_p99_ms on battery and crowd",
    "factor_graph.bp_converged_ratio": "frame_p99_ms on battery and crowd",
    "factor_graph.exact_ms": "track_fps_exact on battery; train_samples_per_s on train",
    "factor_graph.exact_calls": "track_fps_exact; train_samples_per_s on train",
    "factor_graph.labelings": "track_fps_exact on battery; train_samples_per_s on train",
    "factor_graph.labelings_useful_ratio": "track_fps_exact on battery",
    "factor_graph.errors": "error_rate on all",
    "tracker.step_ms": "frame_p50_ms on all; dataset_s via the baselines",
    "tracker.step_self_ms": "frame_p50_ms on all",
    "tracker.windows_per_frame": "frame_p50_ms on all",
    "tracker.decision_agreement": "useful-outcome ratio of BP; idf1",
    "training.generate_dataset_ms": "dataset_s on train",
    "training.samples": "dataset_s, train_samples_per_s on train",
    "training.negatives": "dataset_s on train",
    "training.gradient_ms": "train_samples_per_s on train",
    "training.gradient_calls": "train_samples_per_s on train",
    "training.log_likelihood_ms": "train_samples_per_s on train",
    "training.table_cache_hit_ratio": "train_samples_per_s on train",
    "metrics.clear_mot_ms": "eval_ms; crowd far more than battery",
    "metrics.idf1_ms": "eval_ms; crowd far more than battery",
    "trace_overhead_ratio": "none: traced over untraced round time, both in reference time",
}


@dataclass
class Sequence:
    name: str
    hyp: Path
    gt: Path
    seqinfo: Path


@dataclass
class Inputs:
    params: crf_model.ModelParams
    bp: BpConfig
    sequences: list[Sequence]


def scenario(workload: Workload, seed: int, index: int) -> tracker.ScenarioSpec:
    """The acceptance-battery scenario with `workload.targets` targets."""
    return tracker.ScenarioSpec(
        num_frames=NUM_FRAMES, num_targets=workload.targets, frame_rate=5.0,
        camera_pan=(0.0, 0.8), noise_std=0.1, seed=seed * 1000 + index,
        drift_events=[tracker.DriftEvent(f, 2 * k, 2 * k + 1)
                      for k, f in enumerate(DRIFT_FRAMES)])


def prepare(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Load the published parameters and write the seeded input files."""
    params, bp = crf_model.default_params()
    sequences = []
    for index in range(workload.sequences):
        spec = scenario(workload, seed, index)
        hyp, gt, ctx = tracker.generate_scenario(spec)
        seq = Sequence(f"{workload.name}-{spec.seed}", workdir / f"{index}-hyp.txt",
                       workdir / f"{index}-gt.txt", workdir / f"{index}-seqinfo.ini")
        io.write_mot(hyp, seq.hyp)
        io.write_mot(gt, seq.gt)
        io.write_seqinfo(seq.seqinfo, ctx, spec.num_frames)
        sequences.append(seq)
    return Inputs(params, bp, sequences)


def reference_kernel() -> float:
    """Fixed work in the program's mix: records, dicts and sorting as in
    parsing and metrics, and tiny numpy arrays as in belief propagation."""
    records = [(i % 977, i * 0.5, str(i)) for i in range(4000)]
    groups = {}
    for key, value, _ in records:
        groups.setdefault(key, []).append(value)
    records.sort(key=lambda r: (r[0], r[2]))
    small = np.linspace(0.0, 1.0, 8)
    total = 0.0
    for i in range(300):
        total += float(np.exp(-small * (i % 7)).sum())
    return total + len(groups)


class Reference:
    """Times the reference kernel between consecutive timed units of a run.

    The host's speed flips between a fast state and one about 1.8-2x slower,
    every few seconds and sometimes for minutes, so raw times of separate
    runs spread by tens of percent. A unit's time over the mean kernel time
    just before and just after it stays put; such times are reported in
    reference time (the ratio times REFERENCE_S), the raw ones alongside.

    A probe runs the kernel after a collection and an untimed warm-up run,
    so that it does not pay for the garbage or the cache state the unit
    before it left, and takes the median of PROBE_RUNS timed runs. `after` keeps the kernel times by the kind of unit they followed,
    which the report shows to be alike.
    """

    def __init__(self):
        self.after: dict[str, list[float]] = {}
        self.last = NAN

    def refresh(self):
        """Probe afresh, for a unit that follows untimed work."""
        self.last = self._probe()

    @staticmethod
    def _probe() -> float:
        gc.collect()
        reference_kernel()
        times = []
        gc.disable()
        try:
            for _ in range(PROBE_RUNS):
                t0 = perf_counter()
                reference_kernel()
                times.append(perf_counter() - t0)
        finally:
            gc.enable()
        return statistics.median(times)

    def around(self, kind: str) -> float:
        """Mean kernel time before and after the `kind` unit that just ended."""
        before, self.last = self.last, self._probe()
        self.after.setdefault(kind, []).append(self.last)
        return (before + self.last) / 2

    def medians_ms(self) -> dict[str, float]:
        return {kind: 1000.0 * statistics.median(times) for kind, times in self.after.items()}


class Ledger:
    """Attempted and failed operation counts.

    An operation is one tracker.step, one eval flow, one sequence's baseline
    plus dataset, or one SGD run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, count: int, where: str, exc: Exception):
        self.failed += count
        self.errors.append(f"{where}: {type(exc).__name__}: {exc}")


@dataclass
class Track:
    """One sequence tracked once; frames and out are dropped once checked."""

    frames: list | None
    out: io.TrackFile | None
    out_path: Path
    seconds: float
    latencies: list[float]
    ref: float = NAN


def track_flow(seq: Sequence, inputs: Inputs, inference: str, out_path: Path,
               ledger: Ledger, tracer: Tracer | None = None) -> Track | None:
    """The `track` command's work; None if a step failed."""
    if tracer is not None:
        tracer.where = (seq.name, inference, None)
    started = perf_counter()
    hyp = io.parse_mot(seq.hyp)
    ctx, _ = io.parse_seqinfo(seq.seqinfo)
    by_frame = hyp.by_frame()
    frames = sorted(by_frame)
    ledger.attempted += len(frames)
    state = tracker.TrackerState()
    results, kept, latencies = [], [], []
    for done, frame in enumerate(frames):
        rows = [(r.track_id, r.box(), r.score) for r in by_frame[frame]]
        if tracer is not None:
            tracer.where = (seq.name, inference, frame)
        t0 = perf_counter()
        try:
            state, result = tracker.step(state, frame, rows, inputs.params, ctx,
                                         mode="crf", inference=inference, bp=inputs.bp)
        except CrfTrackError as exc:
            ledger.fail(len(frames) - done, f"{seq.name} frame {frame} {inference}", exc)
            return None
        latencies.append(perf_counter() - t0)
        results.append(result)
        kept.extend(io.TrackRecord(frame, d.track_id, d.box.left, d.box.top, d.box.width,
                                   d.box.height, d.score)
                    for d in result.decisions if d.decision in (tracker.KEPT, tracker.BYPASS))
    kept.sort(key=lambda r: (r.frame, r.track_id))
    out = io.TrackFile(kept)
    io.write_mot(out, out_path)
    return Track(results, out, out_path, perf_counter() - started, latencies)


def eval_flow(seq: Sequence, result_path: Path):
    """The `eval` command's work."""
    gt = io.parse_mot(seq.gt)
    hyp = io.parse_mot(result_path)
    return metrics.evaluate(gt, hyp)


INFERENCES = ("loopy-bp", "exact")


@dataclass
class Round:
    """What one round measured and produced."""

    reference_s: float = 0.0                     # all timed units, in reference time
    tracks: dict = field(default_factory=dict)   # (inference, seq name) -> Track
    evals: dict = field(default_factory=dict)    # seq name -> (seconds, ref, EvalReport)
    datasets: dict = field(default_factory=dict)  # seq name -> (seconds, ref)
    samples: int = 0
    sgd_s: float | None = None
    sgd_ref: float = NAN
    train: object = None                         # TrainResult
    digests: dict = field(default_factory=dict)  # inference -> decisions_sha256
    agreement: tuple = (0, 0, 0)                 # see agreement()

    def slim(self):
        """Drop per-frame results, keeping timings and digests."""
        for track in self.tracks.values():
            track.frames = track.out = None


def run_round(workload: Workload, inputs: Inputs, workdir: Path, ledger: Ledger,
              reference: Reference, tracer: Tracer | None = None) -> Round:
    """One pass of every flow; each timed unit gets the kernel time around it.

    Every probe collects garbage, so each unit starts, as its command would,
    without the previous unit's garbage.
    """
    rnd = Round()

    def around(kind, took):
        ref = reference.around(kind)
        rnd.reference_s += took * REFERENCE_S / ref
        return ref

    reference.refresh()
    for inference in INFERENCES:
        for index, seq in enumerate(inputs.sequences):
            t0 = perf_counter()
            track = track_flow(seq, inputs, inference, workdir / f"{index}-{inference}.txt",
                               ledger, tracer)
            ref = around("track", perf_counter() - t0)
            if track is not None:
                track.ref = ref
                rnd.tracks[inference, seq.name] = track

    for seq in inputs.sequences:
        ledger.attempted += 1
        track = rnd.tracks.get(("loopy-bp", seq.name))
        if track is None:
            ledger.failed += 1
            continue
        if tracer is not None:
            tracer.where = (seq.name, "eval", None)
        t0 = perf_counter()
        try:
            report = eval_flow(seq, track.out_path)
        except CrfTrackError as exc:
            ledger.fail(1, f"{seq.name} eval", exc)
            around("eval", perf_counter() - t0)
            continue
        took = perf_counter() - t0
        rnd.evals[seq.name] = (took, around("eval", took), report)

    config = training.TrainConfig(epochs=workload.epochs)
    samples = []
    for seq in inputs.sequences[:workload.train_sequences]:
        ledger.attempted += 1
        if tracer is not None:
            tracer.where = (seq.name, "dataset", None)
        t0 = perf_counter()
        try:
            hyp = io.parse_mot(seq.hyp)
            gt = io.parse_mot(seq.gt)
            ctx, _ = io.parse_seqinfo(seq.seqinfo)
            baseline = tracker.run(hyp, inputs.params, ctx, mode="threshold-only")
            samples.extend(training.generate_dataset(baseline, gt, inputs.params, config,
                                                     ctx, sequence_id=seq.name))
        except CrfTrackError as exc:
            ledger.fail(1, f"{seq.name} dataset", exc)
        took = perf_counter() - t0
        rnd.datasets[seq.name] = (took, around("dataset", took))
    rnd.samples = len(samples)

    ledger.attempted += 1
    if tracer is not None:
        tracer.where = (workload.name, "sgd", None)
    t0 = perf_counter()
    try:
        rnd.train = training.sgd_train(samples, inputs.params, config, inputs.bp)
        rnd.sgd_s = perf_counter() - t0
    except CrfTrackError as exc:
        ledger.fail(1, f"{workload.name} sgd", exc)
    rnd.sgd_ref = around("sgd", perf_counter() - t0)
    rnd.digests = {inf: digest(decision_lines(rnd, inf)) for inf in INFERENCES}
    rnd.agreement = agreement(rnd)
    return rnd


def decision_lines(rnd: Round, inference: str) -> list[str]:
    """Frame-by-frame decisions, one `sequence,frame,id,decision` line each."""
    lines = []
    for (inf, name), track in sorted(rnd.tracks.items()):
        if inf == inference:
            lines.extend(f"{name},{fr.frame},{d.track_id},{d.decision}"
                         for fr in track.frames for d in fr.decisions)
    return lines


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def run_rounds(workload: Workload, inputs: Inputs, workdir: Path, seconds: float,
               ledger: Ledger, reference: Reference,
               tracer: Tracer | None = None) -> tuple[list, list, dict]:
    """Rounds while another one fits into `seconds` (at least one).

    With a tracer, untraced and traced rounds alternate; the tracer is
    installed only around its own rounds. The output checks run on the first
    round, after which every round keeps only its timings and digests.
    Returns (untraced rounds, traced rounds, checks).
    """
    plain, traced = [], []
    started = perf_counter()
    while True:
        plain.append(run_round(workload, inputs, workdir, ledger, reference))
        if len(plain) == 1:
            t0 = perf_counter()
            checks = check_outputs(workload, inputs, plain[0])
            started += perf_counter() - t0  # checking is not measuring
        plain[-1].slim()
        if tracer is not None:
            gc.collect()
            tracer.install()
            try:
                traced.append(run_round(workload, inputs, workdir, ledger, reference, tracer))
            finally:
                tracer.remove()
            traced[-1].slim()
        elapsed = perf_counter() - started
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, traced, checks


def check_outputs(workload: Workload, inputs: Inputs, first: Round) -> dict:
    """Output checks on the first round; each value is (passed, detail).

    Every check covers every sequence: one whose track or eval failed fails
    the checks that need it.
    """
    checks = {}
    n = len(inputs.sequences)

    same = 0
    for seq in inputs.sequences:
        track = first.tracks.get(("loopy-bp", seq.name))
        if track is None:
            continue
        ctx, _ = io.parse_seqinfo(seq.seqinfo)
        ref = tracker.run(io.parse_mot(seq.hyp), inputs.params, ctx, mode="crf",
                          inference="loopy-bp", bp=inputs.bp)
        same += int(ref.records == track.out.records)
    checks["track_flow_matches_run"] = (same == n, f"{same}/{n} sequences")

    agree, frames, pairs = first.agreement
    checks["loopy_exact_agree"] = (pairs == n and agree == frames,
                                   f"{agree}/{frames} frames of {pairs}/{n} sequences")

    crf_ids = base_ids = 0
    for seq in inputs.sequences:
        if seq.name not in first.evals:
            continue
        crf_ids += first.evals[seq.name][2].ids
        ctx, _ = io.parse_seqinfo(seq.seqinfo)
        base = tracker.run(io.parse_mot(seq.hyp), inputs.params, ctx, mode="threshold-only")
        base_ids += metrics.evaluate(io.parse_mot(seq.gt), base).ids
    evaluated = len(first.evals)
    checks["crf_ids_below_threshold"] = (
        evaluated == n and crf_ids < base_ids,
        f"CRF {crf_ids} vs threshold {base_ids} over {evaluated}/{n} sequences")

    if workload.loglik_must_rise:
        if first.train is None:
            checks["train_loglik_rises"] = (False, "SGD did not finish")
        else:
            trace = first.train.epoch_loglik
            checks["train_loglik_rises"] = (trace[-1] > trace[0],
                                            f"{trace[0]:.3f} -> {trace[-1]:.3f}")
    return checks


def agreement(rnd: Round) -> tuple[int, int, int]:
    """Frames whose loopy-bp and exact decisions are identical, frames compared,
    and sequences tracked both ways."""
    agree = frames = pairs = 0
    for (inference, name), track in rnd.tracks.items():
        other = rnd.tracks.get(("exact", name))
        if inference != "loopy-bp" or other is None:
            continue
        pairs += 1
        frames += len(track.frames)
        agree += sum(a == b for a, b in zip(track.frames, other.frames))
    return agree, frames, pairs


def end_to_end_metrics(workload: Workload, inputs: Inputs, rounds: list,
                       setup: list, scale: bool) -> dict[str, float]:
    """The end-to-end metrics; each timed unit's median over rounds.

    setup holds the seconds of each set-up, imports included; it stays in
    seconds. With scale, every other timed unit is first turned into
    reference time (seconds * REFERENCE_S / its kernel seconds).
    """
    def t(seconds, ref):
        return seconds * REFERENCE_S / ref if scale else seconds

    def runs(inference, seq):
        return [r.tracks[inference, seq.name] for r in rounds
                if (inference, seq.name) in r.tracks]

    def fps(inference):
        frames = seconds = 0.0
        for seq in inputs.sequences:
            tracks = runs(inference, seq)
            if tracks:
                frames += len(tracks[0].latencies)
                seconds += statistics.median(t(k.seconds, k.ref) for k in tracks)
        return frames / seconds if seconds else NAN

    # Each frame's latency is its median over rounds, which keeps a frame
    # that was slow in one round only out of the tail.
    per_frame = [np.median([[t(x, k.ref) for x in k.latencies] for k in tracks], axis=0)
                 for tracks in (runs("loopy-bp", seq) for seq in inputs.sequences) if tracks]
    per_frame_ms = np.concatenate(per_frame) * 1000.0 if per_frame else np.array([])
    evals = [t(took, ref) for r in rounds for took, ref, _ in r.evals.values()]
    sgd = [t(r.sgd_s, r.sgd_ref) for r in rounds if r.sgd_s is not None]
    first = rounds[0]
    final = first.train.epoch_loglik[-1] if first.train is not None else NAN
    return {
        "setup_s": statistics.median(setup),
        "track_fps": fps("loopy-bp"),
        "track_fps_exact": fps("exact"),
        "frame_p50_ms": float(np.percentile(per_frame_ms, 50)) if per_frame_ms.size else NAN,
        "frame_p99_ms": float(np.percentile(per_frame_ms, 99)) if per_frame_ms.size else NAN,
        "eval_ms": statistics.median(evals) * 1000.0 if evals else NAN,
        "dataset_s": sum(statistics.median(t(*r.datasets[name]) for r in rounds)
                         for name in first.datasets),
        "train_samples_per_s": workload.epochs * first.samples / statistics.median(sgd)
        if sgd else NAN,
        "idf1": float(np.mean([rep.idf1 for _, _, rep in first.evals.values()]))
        if first.evals else NAN,
        "train_nll_per_sample": -final / first.samples if first.samples else NAN,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer: Tracer, plain: list, traced: list) -> dict[str, float]:
    """Layer numbers from the traced rounds; counts are per round."""
    table = tracer.summary()
    n = len(traced)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def ms_per_call(name, key="total_s"):
        row = table.get(name)
        return 1000.0 * row[key] / row["calls"] if row else 0.0

    iterations = tracer.bp_iterations
    counts = tracer.counts
    agree, frames, _ = plain[0].agreement
    lookups = calls("training.sample_tables")
    computed = tracer.children_of("training.sample_tables", "features.tables")
    fg_errors = sum(row["errors"] for name, row in table.items()
                    if name.startswith("factor_graph."))
    return {
        "io.parse_mot_ms": ms_per_call("io.parse_mot"),
        "io.write_mot_ms": ms_per_call("io.write_mot"),
        "features.tables_ms": ms_per_call("features.tables"),
        "features.pairs_per_frame": counts["pairs"] / max(calls("features.tables"), 1),
        "crf_model.assemble_ms": ms_per_call("crf_model.assemble"),
        "crf_model.graph_ms": ms_per_call("crf_model.graph"),
        "crf_model.real_nodes_mean": counts["real_nodes"] / max(calls("crf_model.assemble"), 1),
        "crf_model.bypass_ratio": counts["bypassed"] / max(counts["windows"], 1),
        "factor_graph.max_product_ms": ms_per_call("factor_graph.max_product"),
        "factor_graph.max_product_calls": calls("factor_graph.max_product") / n,
        "factor_graph.bp_iterations_p50": float(np.percentile(iterations, 50))
        if iterations else 0.0,
        "factor_graph.bp_iterations_max": float(max(iterations, default=0)),
        "factor_graph.bp_converged_ratio": counts["bp_converged"] / max(len(iterations), 1),
        "factor_graph.exact_ms": ms_per_call("factor_graph.exact"),
        "factor_graph.exact_calls": calls("factor_graph.exact") / n,
        "factor_graph.labelings": counts["labelings"] / n,
        "factor_graph.labelings_useful_ratio":
            counts["labelings_useful"] / max(counts["labelings"], 1),
        "factor_graph.errors": fg_errors / n,
        "tracker.step_ms": ms_per_call("tracker.step"),
        "tracker.step_self_ms": ms_per_call("tracker.step", "self_s"),
        "tracker.windows_per_frame": counts["windows"] / max(calls("crf_model.assemble"), 1),
        "tracker.decision_agreement": agree / frames if frames else 0.0,
        "training.generate_dataset_ms": ms_per_call("training.generate_dataset"),
        "training.samples": counts["samples"] / n,
        "training.negatives": counts["negatives"] / n,
        "training.gradient_ms": ms_per_call("training.gradient"),
        "training.gradient_calls": calls("training.gradient") / n,
        "training.log_likelihood_ms": ms_per_call("training.log_likelihood"),
        "training.table_cache_hit_ratio": 1.0 - computed / lookups if lookups else 0.0,
        "metrics.clear_mot_ms": ms_per_call("metrics.clear_mot"),
        "metrics.idf1_ms": ms_per_call("metrics.idf1"),
        "trace_overhead_ratio": statistics.median(r.reference_s for r in traced)
        / statistics.median(r.reference_s for r in plain),
    }


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, import_s: float, spans_path: Path | None = None) -> dict:
    """Set up, measure and check one workload; returns the full report.

    import_s is what the process paid for its imports; it runs one workload,
    so every set-up is charged with it.
    """
    units = benchmark_units()
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        inputs = prepare(workload, seed, workdir)
        setup.append(import_s + perf_counter() - t0)

    reference = Reference()
    ledger = Ledger()
    tracer = Tracer() if trace else None
    plain, traced, checks = run_rounds(workload, inputs, workdir, seconds, ledger, reference,
                                       tracer)
    first = plain[0]
    repeats = sum(r.digests == first.digests for r in plain)
    checks["rounds_repeat_decisions"] = (repeats == len(plain),
                                         f"{repeats}/{len(plain)} rounds")
    report = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "rounds": len(plain), "traced_rounds": len(traced),
        "frame_samples": sum(len(t.latencies) for (inf, _), t in first.tracks.items()
                             if inf == "loopy-bp"),
        "attempted": ledger.attempted, "failed": ledger.failed,
        "errors": ledger.errors[:10], "environment": environment(),
        "decisions_sha256": first.digests["loopy-bp"],
    }
    reported = {
        "ids": sum(rep.ids for _, _, rep in first.evals.values()),
        "train_loglik": first.train.epoch_loglik[-1] if first.train else NAN,
        "train_loglik_initial": first.train.epoch_loglik[0] if first.train else NAN,
        "error_rate": ledger.failed / max(ledger.attempted, 1),
    }
    report["reported"] = {k: {"value": v, "unit": REPORTED_UNITS[k]}
                          for k, v in reported.items()}
    if trace:
        same = sum(r.digests == first.digests for r in traced)
        checks["trace_keeps_decisions"] = (same == len(traced),
                                           f"{same}/{len(traced)} traced rounds")
        left = leftover_wrappers()
        checks["no_wrapper_left"] = (not left, ", ".join(left) or "none")
        report["metrics"] = per_layer_metrics(tracer, plain, traced)
        report["moves"] = MOVES
        report["span_count"] = len(tracer.spans)
        if spans_path is not None:
            tracer.write_spans(spans_path)
    else:
        raw = end_to_end_metrics(workload, inputs, plain, setup, False)
        report["raw_metrics"] = {k: {"value": v, "unit": units[k].replace("ref-", "")}
                                 for k, v in raw.items()}
        report["reference_ms_after"] = reference.medians_ms()
        report["metrics"] = end_to_end_metrics(workload, inputs, plain, setup, True)
    report["units"] = {k: units[k] for k in report["metrics"]}
    report["checks"] = {k: {"passed": bool(ok), "detail": d} for k, (ok, d) in checks.items()}
    report["correct"] = all(ok for ok, _ in checks.values()) and all(
        np.isfinite(v) for v in report["metrics"].values())
    return report
