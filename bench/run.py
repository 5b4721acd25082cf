"""Run one benchmark workload and print its result as the last stdout line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports snaketrack from its
`src/`. One process, one thread: BLAS and OpenMP pools are pinned to one
thread before numpy loads.

The loop repeats whole rounds of the workload's sequences until --seconds
have passed. With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced sequences, prints the per-layer
metrics from the traced ones and the traced-vs-untraced overhead, and
writes the spans to .bench_out/. Inputs are written under .bench_out/ and
removed at exit. See bench/README.md for the metrics.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def _import_program():
    """Import snaketrack from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import snaketrack
    except ImportError as exc:
        sys.exit(f"run.py: cannot import snaketrack from {SRC}: {exc}")
    if Path(snaketrack.__file__).resolve().parent.parent != SRC:
        sys.exit(f"run.py: snaketrack was imported from {snaketrack.__file__}, not {SRC}")


def _median(values):
    return statistics.median(values) if values else 0.0


def _measure(run_sequence, round_, seconds, tracer):
    """Whole rounds until `seconds` pass.

    In trace mode every other sequence is traced, and each sequence flips
    between traced and untraced from one round to the next, so both sides of
    the overhead comparison see the same inputs at interleaved times.
    """
    sequences, failed = [], 0
    deadline = time.perf_counter() + seconds
    rounds, min_rounds = 0, (1 if tracer is None else 2)
    while rounds < min_rounds or time.perf_counter() < deadline:
        for index, seq in enumerate(round_):
            traced = tracer is not None and (rounds + index) % 2 == 1
            if traced:
                tracer.install()
            done = []
            try:
                for frame in run_sequence(seq):
                    frame.traced = traced
                    done.append(frame)
            except Exception:  # the program raised: count the frame, go on
                traceback.print_exc(file=sys.stderr)
                failed += 1
            finally:
                if traced:
                    tracer.uninstall()
            sequences.append(done)
        rounds += 1
    return sequences, failed, rounds


def _end_to_end(frames, sequences, setup_s):
    scores = [f.quality for f in frames if f.ok and f.quality is not None]
    rates = [len(s) / sum(f.seconds for f in s) for s in sequences if s]
    return {
        "setup_s": (setup_s, "s"),
        "frame_ms": (1e3 * _median([f.seconds for f in frames if not f.first]), "ms"),
        "frames_per_s": (_median(rates), "frames/s"),
        "init_ms": (1e3 * _median([f.seconds for f in frames if f.first]), "ms"),
        "accuracy": (statistics.fmean(scores) if scores else 0.0, "ratio"),
    }


def _per_layer(tracer, frames):
    spans = tracer.spans
    own = tracer.self_times()

    def pick(name):
        return [(s, o) for s, o in zip(spans, own) if s["name"] == name]

    def ms(name, self_time=False):
        return 1e3 * _median([o if self_time else s["end"] - s["start"] for s, o in pick(name)])

    def count(name, key):
        return _median([s[key] for s, _ in pick(name)])

    reads = pick("netpbm.read")
    read_s = sum(s["end"] - s["start"] for s, _ in reads)
    describes = pick("surf.describe_keypoints")
    described = sum(s["keypoints"] for s, _ in describes)
    describe_s = sum(s["end"] - s["start"] for s, _ in describes)
    snakes = pick("snake.run_segmentation") + pick("snake.resume_segmentation")
    agent_sweeps = sum(s["agents"] * s["sweeps"] for s, _ in snakes)
    traced = [f.seconds for f in frames if f.traced and not f.first]
    plain = [f.seconds for f in frames if not f.traced and not f.first]
    return {
        "netpbm.read_ms": (ms("netpbm.read"), "ms"),
        "netpbm.mb_per_s": (sum(s["bytes"] for s, _ in reads) / read_s / 1e6 if read_s else 0.0,
                            "MB/s"),
        "image.integral_image_ms": (ms("image.integral_image"), "ms"),
        "image.external_energy_map_ms": (ms("image.external_energy_map"), "ms"),
        "surf.detect_keypoints_ms": (ms("surf.detect_keypoints"), "ms"),
        "surf.describe_keypoints_ms": (ms("surf.describe_keypoints"), "ms"),
        "surf.describe_us_per_keypoint": (1e6 * describe_s / described if described else 0.0,
                                          "us"),
        "surf.keypoints": (count("surf.detect_keypoints", "keypoints"), "count"),
        "surf.match_descriptors_ms": (ms("surf.match_descriptors"), "ms"),
        "surf.correct_matches": (_median([f.correct_matches for f in frames
                                          if f.traced and f.correct_matches is not None]),
                                 "count"),
        "surf.select_extremity_points_ms": (ms("surf.select_extremity_points"), "ms"),
        "tracking.propagate_points_self_ms": (ms("tracking.propagate_points", True), "ms"),
        "tracking.matched_points": (count("tracking.propagate_points", "matched"), "count"),
        "snake.run_segmentation_self_ms": (ms("snake.run_segmentation", True), "ms"),
        "snake.resume_segmentation_self_ms": (ms("snake.resume_segmentation", True), "ms"),
        "snake.sweeps": (_median([s["sweeps"] for s, _ in snakes]), "count"),
        "snake.agents": (_median([s["agents"] for s, _ in snakes]), "count"),
        "snake.us_per_agent_sweep": (1e6 * sum(o for _, o in snakes) / agent_sweeps
                                     if agent_sweeps else 0.0, "us"),
        "snake.discards": (statistics.fmean(s["discards"] for s, _ in snakes) if snakes else 0.0,
                           "count"),
        "trace.overhead_pct": (100.0 * (_median(traced) / _median(plain) - 1.0)
                               if traced and plain else 0.0, "%"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import numpy as np

    import checks
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    make_round, run_sequence = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        round_ = make_round(np.random.default_rng(args.seed), work)
        setup_s = time.perf_counter() - START
        tracer = spans.Tracer() if args.trace else None
        sequences, raised, rounds = _measure(run_sequence, round_, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    frames = [f for s in sequences for f in s]
    problems = checks.self_test()
    for p in problems:
        print(f"run.py: check self-test failed: {p}", file=sys.stderr)
    failed = raised + sum(1 for f in frames if not f.ok)
    metrics = (_per_layer(tracer, frames) if tracer
               else _end_to_end(frames, sequences, setup_s))
    result = {
        "correct": not problems and any(f.ok for f in frames),
        "attempted": len(frames) + raised,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {**result, "rounds": rounds, "frames": [asdict(f) for f in frames]}
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        tracer.write_jsonl(OUT / f"trace-{tag}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
