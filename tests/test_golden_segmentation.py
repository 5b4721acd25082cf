"""Segmentation and tracking output pinned to a checked-in golden file.

`golden_segmentation.json` holds, per scene, the final contours (ids, agent
ids and pixels), the event log and the energy history of every run, and for
the tracking sequence each frame's global offset and tracked points. JSON
numbers round-trip Python floats exactly, so everything is compared exactly.
The scenes are:

- `criterion7`: the acceptance suite's collision scene (criterion 7);
- `wells<seed>` and `wells<seed>_stiff`: 8 agents at random pixels of a
  24x24 random energy field with three deep wells, at the default and at a
  four times stiffer alpha; together they split, drop arcs, merge adjacent
  agents and drop contours that a merge left undersized;
- `resume_clamped`: resume_segmentation on a disk with carried points
  outside the frame, whose clamping makes adjacent and non-adjacent
  coincidences, plus a contour carried below min_contour_size;
- `track_square96`: the acceptance tracking sequence (criterion 6);
- `disk128_sigma1`: the acceptance disk segmentation (criterion 4) at the
  default SnakeParams, so smoothing at sigma = 1;
- `rings_sigma4`: resume_segmentation of a ring of agents 1.5 px apart and
  8 px outside a 128x128 disk at sigma = 4, the segment workload in small;
- `crossing_rings`: resume_segmentation of two rings of agents 1 px apart
  inside a 48x48 disk whose centres are 8 px apart, so the rings cross:
  agents of the two contours share pixels and move onto each other's
  pixels, which is no collision, while one contour merges two agents;
- `resample_rejects`: 8 agents at random pixels of a zero 40x40 field with
  alpha=0, beta=0.05, where resampling rejects insertions that would raise
  the energy (seeds 0 and 44, each followed by accepted insertions, so the
  later agent ids show whether a rejection used up an id) and skips
  midpoints the contour already holds (seed 1307).

Running the file records the scenes it lacks and leaves recorded entries as
they are; re-record an entry (delete it first) only for a stated change of
segmentation or tracking behaviour:

    PYTHONPATH=src python tests/test_golden_segmentation.py

With --energy it rewrites only the energy fields of the recorded scenes, for
a change that moves energies by summation order alone. It writes nothing and
exits 1 if any other field of a scene differs from its golden or any energy
moves by more than ENERGY_TOLERANCE:

    PYTHONPATH=src python tests/test_golden_segmentation.py --energy
"""

import json
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from snaketrack import snake, synth
from snaketrack.image import EXTERNAL_ENERGY, Image, ScalarField, integral_image
from snaketrack.snake import (DISCARD, SPLIT, ContourResult, SnakeParams,
                              init_agents, resume_segmentation, run_segmentation,
                              step, total_energy)
from snaketrack.surf import (DetectorParams, KeyPoint, describe_keypoints,
                             detect_keypoints, select_extremity_points)
from snaketrack.tracking import init_tracking, track_frame

GOLDEN = Path(__file__).with_name("golden_segmentation.json")

WELL_SEEDS = (2, 14, 33)
STIFF_WELL_SEEDS = (1, 9, 25)
RESAMPLE_SEEDS = (0, 44, 1307)
# the largest energy move a change of summation order may make
ENERGY_TOLERANCE = 1e-9


def _seed(x, y):
    return KeyPoint(x=float(x), y=float(y), scale=2.0, response=1.0,
                    laplacian_sign=1)


def _events(events):
    return [[e.iteration, e.kind, list(e.contour_ids), list(e.agent_ids)]
            for e in events]


def _state_record(state):
    contours = [[cid, list(c.agent_ids), [list(state.agents[a].pos) for a in c.agent_ids]]
                for cid, c in sorted(state.contours.items())]
    return {"contours": contours, "events": _events(state.events),
            "energy": list(state.energy_history), "iterations": state.iteration,
            "converged": state.converged}


def _result_record(result):
    contours = [[c.id, list(c.agent_ids), [list(p) for p in c.points]]
                for c in result.contours]
    return {"contours": contours, "events": _events(result.events),
            "energy": list(result.energy_history), "iterations": result.iterations,
            "converged": result.converged, "low_confidence": result.low_confidence}


def _evolve(seeds, field, params):
    height, width = field.values.shape
    state = init_agents(seeds, params.min_contour_size, width, height)
    state.current_energy = total_energy(state, state.positions(), field, params)
    state.energy_history.append(state.current_energy)
    while not state.converged:
        step(state, field, params)
    return _state_record(state)


def _criterion7():
    vals = np.zeros((32, 32))
    vals[16, 16] = -1.0
    seeds = [_seed(x, y) for x, y in ((16, 15), (18, 14), (18, 16), (18, 18),
                                      (16, 17), (14, 18), (14, 16), (14, 14))]
    return _evolve(seeds, ScalarField(vals, EXTERNAL_ENERGY),
                   SnakeParams(alpha=0.0, beta=0.0, max_spacing=0.0))


def _wells(seed, params):
    rng = np.random.default_rng(seed)
    vals = -0.05 * rng.random((24, 24))
    for _ in range(3):
        x, y = rng.integers(0, 24, 2)
        vals[y, x] = -rng.uniform(0.5, 1.0)
    seeds = [_seed(x, y) for x, y in rng.integers(0, 24, (8, 2))]
    return _evolve(seeds, ScalarField(vals, EXTERNAL_ENERGY), params)


def _resample_rejects():
    field = ScalarField(np.zeros((40, 40)), EXTERNAL_ENERGY)
    runs = []
    for seed in RESAMPLE_SEEDS:
        rng = np.random.default_rng(seed)
        seeds = [_seed(x, y) for x, y in rng.integers(0, 40, (8, 2))]
        runs.append(_evolve(seeds, field, SnakeParams(alpha=0.0, beta=0.05)))
    return runs


def _resume_clamped():
    img = Image(pixels=synth.disk_image(48, 48))
    carried = [
        # (-3, 10) and (-1, 10) clamp onto one pixel next to each other in
        # the cycle; (-2, 30) and (-6, 30) onto one pixel two places apart
        ContourResult(0, (0, 1, 2, 3, 4, 5, 6, 7),
                      ((-3, 10), (-1, 10), (20, 2), (40, 10), (44, 30),
                       (-2, 30), (20, 46), (-6, 30))),
        # a merge leaves three agents, below min_contour_size
        ContourResult(1, (8, 9, 10, 11), ((30, 50), (30, 52), (40, 40), (30, 40))),
        # carried undersized
        ContourResult(2, (12, 13, 14), ((5, 5), (9, 5), (7, 9))),
    ]
    return _result_record(resume_segmentation(img, carried, SnakeParams(sigma=2.0)))


def _disk128_sigma1():
    img = Image(pixels=synth.disk_image(128, 128))
    ii = integral_image(img)
    kps = detect_keypoints(ii, DetectorParams())
    describe_keypoints(ii, kps)
    seeds = select_extremity_points(kps, 128, 128).points
    return _result_record(run_segmentation(img, seeds, SnakeParams()))


def _ring(cid, first_id, cx, cy, r, spacing):
    """A carried contour of agents `spacing` px apart on a circle, floored to pixels."""
    n = round(2.0 * math.pi * r / spacing)
    pts = []
    for k in range(n):
        a = 2.0 * math.pi * k / n
        p = (math.floor(cx + r * math.cos(a)), math.floor(cy + r * math.sin(a)))
        if p not in pts[-1:]:
            pts.append(p)
    if pts[0] == pts[-1]:
        pts.pop()
    return ContourResult(cid, tuple(range(first_id, first_id + len(pts))), tuple(pts))


def _rings_sigma4():
    size = 128
    img = Image(pixels=synth.disk_image(size, size))
    c = size / 2.0
    ring = _ring(0, 0, c, c, synth.DISK_RADIUS_FRACTION * size + 8.0, 1.5)
    return _result_record(resume_segmentation(img, [ring], SnakeParams(sigma=4.0)))


def _crossing_rings_carried():
    left = _ring(0, 0, 20.0, 24.0, 10.0, 1.0)
    right = _ring(1, len(left.agent_ids), 28.0, 24.0, 10.0, 1.0)
    return [left, right]


def _crossing_rings():
    img = Image(pixels=synth.disk_image(48, 48))
    return _result_record(resume_segmentation(img, _crossing_rings_carried(),
                                              SnakeParams(sigma=2.0)))


def _track_square96():
    detector = DetectorParams(octaves=4)
    snake = SnakeParams(sigma=2.0)
    frames = []
    state = None
    for arr in synth.sequence("translate_square", 96, 96, 10, speed=2.0):
        img = Image(pixels=arr)
        if state is None:
            state, result = init_tracking(img, detector, snake)
        else:
            state, result = track_frame(state, img, detector, snake)
        frames.append({**_result_record(result),
                       "offset": list(state.global_offset),
                       "points": [[kp.x, kp.y] for kp in state.tracked_points]})
    return frames


SCENES = {"criterion7": _criterion7, "resume_clamped": _resume_clamped,
          "resample_rejects": _resample_rejects, "track_square96": _track_square96,
          "disk128_sigma1": _disk128_sigma1, "rings_sigma4": _rings_sigma4,
          "crossing_rings": _crossing_rings}
SCENES.update({f"wells{s}": (lambda s=s: _wells(s, SnakeParams())) for s in WELL_SEEDS})
SCENES.update({f"wells{s}_stiff": (lambda s=s: _wells(s, SnakeParams(alpha=0.2)))
               for s in STIFF_WELL_SEEDS})


def settlement_outcomes(events):
    """Name the collision-settlement outcomes an event log records.

    "split": a split that kept an arc; "dropped arc": an arc a split
    discarded; "merge": the one agent an adjacent collision discarded;
    "merge drop": the rest of a contour a merge left undersized; "carried
    drop": a contour discarded whole without a collision, which only
    resume_segmentation's check of carried contours does.
    """
    found = set()
    split_cid = merge_cid = None
    for k, (_, kind, cids, aids) in enumerate(events):
        cid = cids[0] if cids else None
        if kind == SPLIT:
            split_cid, merge_cid = cid, None
            if len(cids) > 1:
                found.add("split")
            continue
        if kind == DISCARD and cid == split_cid:
            found.add("dropped arc")
            continue
        split_cid = None
        if kind != DISCARD:
            merge_cid = None
            continue
        later = events[k + 1:]
        dead = all(cid not in e[2] for e in later)
        if cid == merge_cid and dead:
            found.add("merge drop")
            merge_cid = None
        elif len(aids) == 1 and (not dead or later[0][1:3] == [DISCARD, [cid]]):
            found.add("merge")
            merge_cid = cid
        else:
            found.add("carried drop")
            merge_cid = None
    return found


def _runs(record):
    return record if isinstance(record, list) else [record]


def rerecord_energies(golden, scenes):
    """golden with each scene's energy fields taken from a new run of it.

    Returns it with the largest energy move per scene. Raises ValueError,
    listing every scene at fault, if a field other than energy differs or an
    energy moves by more than ENERGY_TOLERANCE.
    """
    out, moves, faults = {}, {}, []
    for name, old in golden.items():
        new = scenes[name]()
        old_runs, new_runs = _runs(old), _runs(new)
        if ([{**r, "energy": len(r["energy"])} for r in old_runs]
                != [{**r, "energy": len(r["energy"])} for r in new_runs]):
            faults.append(f"{name}: a field other than energy differs")
            continue
        moves[name] = max(abs(a - b) for o, n in zip(old_runs, new_runs)
                          for a, b in zip(o["energy"], n["energy"]))
        if moves[name] > ENERGY_TOLERANCE:
            faults.append(f"{name}: an energy moved by {moves[name]!r}")
        out[name] = new
    if faults:
        raise ValueError("; ".join(faults))
    return out, moves


def test_rerecord_energies_rewrites_only_small_energy_moves():
    run = {"contours": [[0, [1, 2, 3], [[0, 0], [1, 0], [1, 1]]]], "events": [],
           "energy": [1.0, 0.5], "iterations": 1, "converged": True}
    golden = {"one": run, "many": [run, run]}

    def moved(by, **fields):
        return lambda: {**run, "energy": [1.0, 0.5 + by], **fields}

    out, moves = rerecord_energies(golden, {"one": moved(1e-12),
                                            "many": lambda: [run, moved(2e-10)()]})
    assert out["one"]["energy"] == [1.0, 0.5 + 1e-12]
    assert out["many"][1]["energy"] == [1.0, 0.5 + 2e-10]
    assert moves == pytest.approx({"one": 1e-12, "many": 2e-10})
    with pytest.raises(ValueError, match="^one: an energy moved by"):
        rerecord_energies(golden, {"one": moved(1e-6), "many": lambda: [run, run]})
    with pytest.raises(ValueError, match="^one: a field other than energy differs$"):
        rerecord_energies(golden, {"one": moved(0.0, iterations=2),
                                   "many": lambda: [run, run]})
    with pytest.raises(ValueError, match="other than energy"):
        rerecord_energies({"one": run}, {"one": lambda: {**run, "energy": [1.0]}})


@pytest.mark.parametrize("name", sorted(SCENES))
def test_segmentation_equals_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    assert SCENES[name]() == golden


def test_golden_scenes_cover_every_settlement_outcome():
    golden = json.loads(GOLDEN.read_text())
    found = {name: set().union(*(settlement_outcomes(run["events"]) for run in _runs(rec)))
             for name, rec in golden.items()}
    assert set().union(*found.values()) == {
        "split", "dropped arc", "merge", "merge drop", "carried drop"}
    # the resume scene settles clamp-induced coincidences of every kind
    assert found["resume_clamped"] == {
        "split", "dropped arc", "merge", "merge drop", "carried drop"}


def test_crossing_rings_share_pixels_across_contours():
    golden = json.loads(GOLDEN.read_text())["crossing_rings"]
    (_, _, left), (_, _, right) = golden["contours"]
    assert {tuple(p) for p in left} & {tuple(p) for p in right}
    onto = []

    def checked_step(state, field, params):
        held = {}
        for a in state.agents.values():
            held.setdefault(a.pos, set()).add(a.contour_id)
        before = state.positions()
        events = step(state, field, params)
        onto.extend(aid for aid, a in state.agents.items()
                    if a.pos != before[aid] and held.get(a.pos, set()) - {a.contour_id})
        return events

    img = Image(pixels=synth.disk_image(48, 48))
    with mock.patch.object(snake, "step", checked_step):
        result = resume_segmentation(img, _crossing_rings_carried(), SnakeParams(sigma=2.0))
    # agents moved onto pixels the other contour held, and none of it was
    # settled as a collision: both contours survive
    assert onto
    assert [c.id for c in result.contours] == [0, 1]
    assert _result_record(result) == golden


def test_settlement_outcomes_names_each_pattern():
    events = [[3, "discard", [0], [4]],               # merge ...
              [3, "split", [0, 1], [5, 1]],           # split keeping an arc
              [3, "discard", [0], [5, 2]],            # ... and dropping one
              [4, "discard", [1], [7]],               # merge ...
              [4, "discard", [1], [0, 6, 3]],         # ... leaving it too small
              [0, "discard", [2], [8, 9, 10]],        # dropped without collision
              [5, "converged", [], []]]
    assert settlement_outcomes(events) == {
        "split", "dropped arc", "merge", "merge drop", "carried drop"}
    # a second merge on a live contour is not a drop
    assert settlement_outcomes([[1, "discard", [0], [4]], [2, "discard", [0], [5]],
                                [3, "converged", [0], []]]) == {"merge"}


if __name__ == "__main__":
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if sys.argv[1:] == ["--energy"]:
        try:
            golden, moves = rerecord_energies(golden, SCENES)
        except ValueError as err:
            sys.exit(f"nothing written: {err}")
        for name, move in moves.items():
            if move:
                print(f"{name}: energies moved by at most {move!r}")
    else:
        # records only the scenes the file lacks, so recorded entries stay as they are
        for name in SCENES:
            if name not in golden:
                golden[name] = SCENES[name]()
    GOLDEN.write_text(json.dumps({name: golden[name] for name in sorted(golden)},
                                 indent=1) + "\n")
