import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snaketrack.errors import InitializationError
from snaketrack.image import EXTERNAL_ENERGY, GRADIENT_MAGNITUDE, Image, ScalarField
from snaketrack.snake import (
    CONVERGED,
    DISCARD,
    RESAMPLE,
    SPLIT,
    Contour,
    ContourResult,
    SnakeParams,
    external_energy,
    init_agents,
    internal_energy,
    propose_move,
    resample_contour,
    resume_segmentation,
    run_segmentation,
    split_contour,
    step,
    total_energy,
)
from snaketrack.surf import KeyPoint
from snaketrack import snake, synth


def seed(x, y):
    return KeyPoint(x=float(x), y=float(y), scale=2.0, response=1.0,
                    laplacian_sign=1)


def zero_field(w=40, h=40):
    return ScalarField(values=np.zeros((h, w)), kind=EXTERNAL_ENERGY)


def ring_state(w=40, h=40):
    ring = [(20, 16), (23, 17), (24, 20), (23, 23),
            (20, 24), (17, 23), (16, 20), (17, 17)]
    return init_agents([seed(x, y) for x, y in ring], 4, w, h), ring


FREE = SnakeParams(alpha=0.0, beta=0.0, max_spacing=0.0)


def test_params_validation():
    for bad in (dict(alpha=-0.1), dict(beta=-1.0), dict(lam=0.0),
                dict(sigma=-0.5), dict(max_iters=0), dict(stall_window=0),
                dict(max_spacing=-1.0), dict(min_contour_size=2)):
        with pytest.raises(ValueError):
            SnakeParams(**bad)
    assert SnakeParams(max_spacing=0.0).max_spacing == 0.0  # 0 disables


def test_init_orders_agents_by_angle():
    pts = []
    for k in [3, 6, 1, 0, 7, 2, 5, 4]:
        th = 2.0 * math.pi * k / 8.0
        pts.append(seed(20 + 8 * math.cos(th), 20 + 8 * math.sin(th)))
    state = init_agents(pts, 4, 40, 40)
    c = state.contours[0]
    # cycle starts at the smallest id and walks by increasing angle
    assert c.agent_ids == [0, 7, 6, 1, 4, 3, 2, 5]
    assert [state.agents[a].pos for a in c.agent_ids] == [
        (14, 26), (12, 20), (14, 14), (20, 12),
        (26, 14), (28, 20), (26, 26), (20, 28)]


def test_init_nudges_duplicate_pixels():
    pts = [seed(20, 20), seed(20, 20), seed(25, 20), seed(25, 25),
           seed(20, 25), seed(15, 25), seed(15, 20), seed(15, 15)]
    state = init_agents(pts, 4, 40, 40)
    positions = sorted(state.agents[a].pos for a in state.contours[0].agent_ids)
    assert len(set(positions)) == 8
    assert (21, 20) in positions  # second copy stepped +1 in x


def test_init_requires_eight_seeds():
    with pytest.raises(ValueError):
        init_agents([seed(1, 1)] * 7, 4, 40, 40)


def test_init_fails_when_pixels_run_out():
    # 2x3 grid has only 6 distinct pixels
    with pytest.raises(InitializationError):
        init_agents([seed(0, 0)] * 8, 7, 2, 3)


def test_internal_energy_square():
    c = Contour(id=0, agent_ids=[0, 1, 2, 3])
    pos = {0: (10, 10), 1: (14, 10), 2: (14, 14), 3: (10, 14)}
    # four edges of length L plus four corner curvature terms of 2 L^2
    L = 4.0
    assert internal_energy(c, pos, 0.05, 0.0) == pytest.approx(
        2 * 0.05 * L * L, rel=1e-12)
    assert internal_energy(c, pos, 0.05, 0.01) == pytest.approx(
        2 * 0.05 * L * L + 4 * 0.01 * L * L, rel=1e-12)


def test_internal_energy_scales_quadratically():
    c = Contour(id=0, agent_ids=[0, 1, 2, 3, 4])
    pos = {0: (3, 1), 1: (6, 2), 2: (5, 6), 3: (2, 7), 4: (1, 4)}
    scaled = {k: (3 * x, 3 * y) for k, (x, y) in pos.items()}
    e1 = internal_energy(c, pos, 0.07, 0.02)
    e9 = internal_energy(c, scaled, 0.07, 0.02)
    assert e9 == pytest.approx(9.0 * e1, rel=1e-12)


def test_external_energy_sums_agent_pixels():
    vals = np.zeros((10, 10))
    vals[2, 3] = -0.5
    vals[7, 4] = -0.25
    field = ScalarField(values=vals, kind=EXTERNAL_ENERGY)
    c = Contour(id=0, agent_ids=[0, 1, 2])
    pos = {0: (3, 2), 1: (4, 7), 2: (9, 9)}
    assert external_energy(c, pos, field) == pytest.approx(-0.75)


def test_external_energy_rejects_wrong_field_kind():
    field = ScalarField(values=np.zeros((5, 5)), kind=GRADIENT_MAGNITUDE)
    c = Contour(id=0, agent_ids=[0])
    with pytest.raises(ValueError):
        external_energy(c, {0: (1, 1)}, field)


def test_total_energy_sums_contours():
    state, _ = ring_state()
    params = SnakeParams(alpha=0.1, beta=0.02)
    pos = state.positions()
    expect = internal_energy(state.contours[0], pos, 0.1, 0.02)
    assert total_energy(state, pos, zero_field(), params) == pytest.approx(expect)


def test_propose_moves_to_unique_minimum():
    state, ring = ring_state()
    vals = np.zeros((40, 40))
    agent = state.agents[0]
    vals[agent.y + 1, agent.x + 1] = -1.0  # SE neighbor
    field = ScalarField(values=vals, kind=EXTERNAL_ENERGY)
    assert propose_move(agent, state, field, FREE) == (agent.x + 1, agent.y + 1)


def test_propose_stays_on_ties():
    state, ring = ring_state()
    agent = state.agents[0]
    assert propose_move(agent, state, zero_field(), FREE) == agent.pos


def test_propose_prefers_earlier_scan_candidate():
    state, _ = ring_state()
    agent = state.agents[0]
    vals = np.zeros((40, 40))
    vals[agent.y - 1, agent.x] = -1.0  # N
    vals[agent.y, agent.x + 1] = -1.0  # E, same value but later in the scan
    field = ScalarField(values=vals, kind=EXTERNAL_ENERGY)
    assert propose_move(agent, state, field, FREE) == (agent.x, agent.y - 1)


def test_propose_skips_out_of_bounds():
    pts = [seed(0, 0), seed(2, 0), seed(3, 2), seed(2, 4),
           seed(0, 4), seed(4, 0), seed(4, 4), seed(0, 2)]
    state = init_agents(pts, 4, 5, 5)
    corner = next(a for a in state.agents.values() if a.pos == (0, 0))
    move = propose_move(corner, state, zero_field(5, 5), FREE)
    assert 0 <= move[0] < 5 and 0 <= move[1] < 5


def test_split_non_adjacent_creates_two_contours():
    state, _ = ring_state()
    events = split_contour(state, state.contours[0], 0, 4, FREE)
    assert sorted(state.contours) == [1, 2]
    assert state.contours[1].agent_ids == [0, 1, 2, 3]
    assert state.contours[2].agent_ids == [4, 5, 6, 7]
    for cid, c in state.contours.items():
        for aid in c.agent_ids:
            assert state.agents[aid].contour_id == cid
    assert [e.kind for e in events] == [SPLIT]
    assert events[0].contour_ids == (0, 1, 2)
    assert events[0].agent_ids == (0, 4)
    assert state.events == events


def test_split_discards_small_arc():
    state, _ = ring_state()
    events = split_contour(state, state.contours[0], 0, 2, FREE)
    assert [e.kind for e in events] == [SPLIT, DISCARD]
    assert sorted(state.contours) == [1]
    assert state.contours[1].agent_ids == [2, 3, 4, 5, 6, 7]
    assert events[1].agent_ids == (0, 1)
    assert 0 not in state.agents and 1 not in state.agents


def test_split_adjacent_discards_later_agent():
    state, _ = ring_state()
    events = split_contour(state, state.contours[0], 2, 3, FREE)
    assert [e.kind for e in events] == [DISCARD]
    assert events[0].agent_ids == (3,)
    assert state.contours[0].agent_ids == [0, 1, 2, 4, 5, 6, 7]
    assert 3 not in state.agents


def test_split_validates_positions():
    state, _ = ring_state()
    with pytest.raises(ValueError):
        split_contour(state, state.contours[0], 3, 3, FREE)
    with pytest.raises(ValueError):
        split_contour(state, state.contours[0], 0, 99, FREE)


def test_resample_inserts_midpoints():
    pts = [seed(10, 20), seed(30, 20), seed(30, 22), seed(10, 22),
           seed(11, 20), seed(29, 20), seed(29, 22), seed(11, 22)]
    state = init_agents(pts, 4, 40, 40)
    # shrink to the 4 outer corners so two edges are 20 px long
    c = state.contours[0]
    for aid in list(c.agent_ids):
        if state.agents[aid].pos in ((11, 20), (29, 20), (29, 22), (11, 22)):
            c.agent_ids.remove(aid)
            del state.agents[aid]
    c.canonicalize()
    params = SnakeParams(alpha=0.0, beta=0.0, max_spacing=12.0)
    events = resample_contour(state, c, zero_field(), params)
    assert len(events) == 1
    assert events[0].kind == RESAMPLE
    inserted = events[0].agent_ids
    assert len(inserted) == 2
    mids = sorted(state.agents[a].pos for a in inserted)
    assert mids == [(20, 20), (20, 22)]
    # order keeps the cycle: corner, midpoint, corner, ...
    spacing = []
    ids = c.agent_ids
    for k, aid in enumerate(ids):
        a = state.agents[aid]
        b = state.agents[ids[(k + 1) % len(ids)]]
        spacing.append(math.hypot(b.x - a.x, b.y - a.y))
    assert max(spacing) <= 12.0


def test_resample_disabled_when_spacing_zero():
    state, _ = ring_state()
    before = state.positions()
    events = resample_contour(state, state.contours[0], zero_field(), FREE)
    assert events == []
    assert state.positions() == before


def test_resample_respects_agent_cap():
    pts = [seed(5, 5), seed(35, 5), seed(35, 35), seed(5, 35),
           seed(6, 5), seed(34, 5), seed(34, 35), seed(6, 35)]
    state = init_agents(pts, 4, 40, 40)
    c = state.contours[0]
    for aid in list(c.agent_ids):
        if state.agents[aid].pos in ((6, 5), (34, 5), (34, 35), (6, 35)):
            c.agent_ids.remove(aid)
            del state.agents[aid]
    c.canonicalize()
    state.initial_agent_count = 1  # cap = 4, already at 4 agents
    params = SnakeParams(alpha=0.0, beta=0.0, max_spacing=12.0)
    assert resample_contour(state, c, zero_field(), params) == []
    assert len(state.agents) == 4


def test_step_stalls_when_no_move_improves():
    state, ring = ring_state()
    state.current_energy = total_energy(state, state.positions(), zero_field(), FREE)
    state.energy_history.append(state.current_energy)
    events = step(state, zero_field(), FREE)
    assert events == []
    assert state.stall == 1
    assert state.iteration == 1
    assert sorted(a.pos for a in state.agents.values()) == sorted(ring)


def test_run_converges_and_logs_event():
    img = Image(pixels=synth.disk_image(64, 64))
    pts = [seed(32, 8), seed(50, 14), seed(56, 32), seed(50, 50),
           seed(32, 56), seed(14, 50), seed(8, 32), seed(14, 14)]
    result = run_segmentation(img, pts, SnakeParams())
    assert result.converged
    assert result.iterations <= 500
    assert result.contours
    hist = result.energy_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    assert [e.kind for e in result.events if e.kind == CONVERGED] == [CONVERGED]


def test_run_stopped_at_max_iters_is_not_converged():
    img = Image(pixels=synth.disk_image(64, 64))
    pts = [seed(32, 8), seed(50, 14), seed(56, 32), seed(50, 50),
           seed(32, 56), seed(14, 50), seed(8, 32), seed(14, 14)]
    result = run_segmentation(img, pts, SnakeParams(max_iters=2))
    assert result.iterations == 2
    assert not result.converged
    # the energy was still falling when the cap stopped the run
    assert result.energy_history[2] < result.energy_history[1] < result.energy_history[0]
    # the log still closes the run with its stop event
    assert result.events[-1].kind == CONVERGED


def test_run_is_deterministic():
    img = Image(pixels=synth.disk_image(64, 64))
    pts = [seed(32, 8), seed(50, 14), seed(56, 32), seed(50, 50),
           seed(32, 56), seed(14, 50), seed(8, 32), seed(14, 14)]
    assert run_segmentation(img, pts, SnakeParams()) == \
        run_segmentation(img, pts, SnakeParams())


def test_run_flat_image_flags_low_confidence():
    img = Image(pixels=np.full((48, 48), 0.5))
    pts = [seed(24, 8), seed(36, 12), seed(40, 24), seed(36, 36),
           seed(24, 40), seed(12, 36), seed(8, 24), seed(12, 12)]
    result = run_segmentation(img, pts, SnakeParams())
    assert result.converged
    assert result.low_confidence


def test_resume_preserves_ids_and_clamps():
    img = Image(pixels=synth.disk_image(64, 64))
    carried = [ContourResult(id=5, agent_ids=(9, 11, 13, 15),
                             points=((32, 8), (56, 32), (32, 70), (-4, 32)))]
    result = resume_segmentation(img, carried, SnakeParams())
    assert [c.id for c in result.contours] == [5]
    ids = set(result.contours[0].agent_ids)
    assert {9, 11, 13, 15} <= ids  # carried agents keep their ids
    assert all(a >= 16 for a in ids - {9, 11, 13, 15})  # inserts get fresh ids
    for x, y in result.contours[0].points:
        assert 0 <= x < 64 and 0 <= y < 64
    hist = result.energy_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))


def test_resume_discards_undersized_carried_contour():
    img = Image(pixels=synth.disk_image(32, 32))
    carried = [ContourResult(id=0, agent_ids=(0, 1, 2),
                             points=((10, 10), (20, 10), (15, 20)))]
    result = resume_segmentation(img, carried, SnakeParams())
    assert result.contours == ()
    assert any(e.kind == DISCARD for e in result.events)
    # a run with no agent left has nothing more to do
    assert result.converged


# ---------------------------------------------------------------------------
# supervisor invariants over whole runs

PARAMS = st.builds(SnakeParams, alpha=st.sampled_from((0.0, 0.05, 0.2)),
                   beta=st.sampled_from((0.0, 0.01, 0.05)),
                   max_spacing=st.sampled_from((0.0, 4.0, 12.0)))


def wells_field(rng, size):
    vals = -0.05 * rng.random((size, size))
    for _ in range(3):
        vals[rng.integers(0, size), rng.integers(0, size)] = -rng.uniform(0.5, 1.0)
    return ScalarField(values=vals, kind=EXTERNAL_ENERGY)


def assert_supervisor_invariants(state, field, params, start):
    for c in state.contours.values():
        pts = [state.agents[a].pos for a in c.agent_ids]
        assert len(set(pts)) == len(pts), "contour-mates share a pixel"
    assert sum(len(c.agent_ids) for c in state.contours.values()) == len(state.agents)
    added = sum(len(e.agent_ids) for e in state.events if e.kind == RESAMPLE)
    removed = sum(len(e.agent_ids) for e in state.events if e.kind == DISCARD)
    assert len(state.agents) == start + added - removed
    recomputed = total_energy(state, state.positions(), field, params)
    assert abs(state.current_energy - recomputed) <= 1e-9
    hist = state.energy_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))


@settings(max_examples=40)
@given(size=st.integers(12, 32), field_seed=st.integers(0, 2**32 - 1),
       pts=st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)),
                    min_size=8, max_size=8),
       params=PARAMS)
def test_sweeps_keep_supervisor_invariants(size, field_seed, pts, params):
    field = wells_field(np.random.default_rng(field_seed), size)
    seeds = [seed(min(x, size - 1), min(y, size - 1)) for x, y in pts]
    state = init_agents(seeds, params.min_contour_size, size, size)
    start = len(state.agents)
    state.current_energy = total_energy(state, state.positions(), field, params)
    state.energy_history.append(state.current_energy)
    while not state.converged:
        step(state, field, params)
        assert_supervisor_invariants(state, field, params, start)


@settings(max_examples=40)
@given(size=st.integers(16, 32), image_seed=st.integers(0, 2**32 - 1),
       contours=st.lists(st.lists(st.tuples(st.integers(-6, 37), st.integers(-6, 37)),
                                  min_size=3, max_size=12),
                         min_size=1, max_size=3),
       params=PARAMS)
def test_resume_keeps_supervisor_invariants(size, image_seed, contours, params):
    # points outside the frame clamp onto shared border pixels
    img = Image(pixels=np.random.default_rng(image_seed).random((size, size)))
    carried, next_id = [], 0
    for cid, pts in enumerate(contours):
        ids = tuple(range(next_id, next_id + len(pts)))
        next_id += len(pts)
        carried.append(ContourResult(id=cid, agent_ids=ids, points=tuple(pts)))
    steps = []

    def checked_step(state, field, params):
        events = step(state, field, params)
        assert_supervisor_invariants(state, field, params, next_id)
        steps.append(state.iteration)
        return events

    with mock.patch.object(snake, "step", checked_step):
        result = resume_segmentation(img, carried, params)
    assert steps and steps[-1] == result.iterations
