import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snaketrack.errors import InitializationError
from snaketrack.image import (EXTERNAL_ENERGY, GRADIENT_MAGNITUDE, Image, ScalarField,
                              external_energy_map, gaussian_smooth, gradient_magnitude,
                              integral_image)
from snaketrack.snake import (
    CONVERGED,
    DISCARD,
    RESAMPLE,
    SPLIT,
    Contour,
    ContourResult,
    ExplorerAgent,
    SnakeParams,
    SupervisorState,
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
from snaketrack.surf import (DetectorParams, KeyPoint, describe_keypoints,
                             detect_keypoints, select_extremity_points)
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
SCALE = 2 ** 32


def on_grid(v):
    """v rounded half to even onto the 2^-32 energy grid, as an integer."""
    return round(Fraction(v) * SCALE)


def test_params_validation():
    for bad in (dict(alpha=-0.1), dict(beta=-1.0),
                dict(sigma=-0.5), dict(max_iters=0),
                dict(max_spacing=-1.0), dict(min_contour_size=2)):
        with pytest.raises(ValueError):
            SnakeParams(**bad)
    assert SnakeParams(max_spacing=0.0).max_spacing == 0.0  # 0 disables
    for name in ("alpha", "beta", "sigma", "max_spacing"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                SnakeParams(**{name: value})
    # a half-weight of 2^31 * 2^31 = 2^62 grid steps is the largest the scans accept
    for name in ("alpha", "beta"):
        assert getattr(SnakeParams(**{name: 2.0 ** 31}), name) == 2.0 ** 31
        for value in (math.nextafter(2.0 ** 31, math.inf), 1e300):
            with pytest.raises(ValueError, match=f"^{name} must be <= 2\\*\\*31"):
                SnakeParams(**{name: value})


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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_init_rejects_non_finite_seed(bad):
    pts = [seed(20, 5), seed(35, 20), seed(20, 35), seed(5, 20),
           seed(30, 10), seed(30, 30), seed(10, 30), seed(10, 10)]
    pts[5] = seed(30, bad)
    with pytest.raises(ValueError) as err:
        init_agents(pts, 4, 40, 40)
    assert str(err.value) == f"seed 5 at (30.0, {bad}) is not finite"


def test_init_fails_when_pixels_run_out():
    # 2x3 grid has only 6 distinct pixels
    with pytest.raises(InitializationError):
        init_agents([seed(0, 0)] * 8, 7, 2, 3)


def test_internal_energy_square():
    c = Contour(id=0, agent_ids=[0, 1, 2, 3])
    pos = {0: (10, 10), 1: (14, 10), 2: (14, 14), 3: (10, 14)}
    # four edges of length L plus four corner curvature terms of 2 L^2, with
    # alpha/2 and beta/2 on the grid
    L = 4
    a, b = on_grid(Fraction(0.05) / 2), on_grid(Fraction(0.01) / 2)
    assert internal_energy(c, pos, 0.05, 0.0) == a * 4 * L * L / SCALE
    assert internal_energy(c, pos, 0.05, 0.01) == (a * 4 * L * L + b * 8 * L * L) / SCALE


def test_internal_energy_scales_quadratically():
    c = Contour(id=0, agent_ids=[0, 1, 2, 3, 4])
    pos = {0: (3, 1), 1: (6, 2), 2: (5, 6), 3: (2, 7), 4: (1, 4)}
    scaled = {k: (3 * x, 3 * y) for k, (x, y) in pos.items()}
    e1 = internal_energy(c, pos, 0.07, 0.02)
    e9 = internal_energy(c, scaled, 0.07, 0.02)
    # both are exact multiples of 2^-32 well below 2^53 steps
    assert e9 == 9.0 * e1


def test_external_energy_sums_agent_pixels():
    vals = np.zeros((10, 10))
    vals[2, 3] = -0.5
    vals[7, 4] = -0.25
    vals[9, 9] = -1e-10  # under half a grid step, so it counts as 0
    field = ScalarField(values=vals, kind=EXTERNAL_ENERGY)
    c = Contour(id=0, agent_ids=[0, 1, 2])
    pos = {0: (3, 2), 1: (4, 7), 2: (9, 9)}
    assert external_energy(c, pos, field) == -0.75


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
    assert total_energy(state, pos, zero_field(), params) == expect


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


def reference_local_energy(x, y, xm2, ym2, xm1, ym1, xp1, yp1, xp2, yp2, ext, alpha, beta):
    # every energy term that contains the agent's position, written out one
    # by one on the grid: _best_move's energies must equal it exactly
    e1x, e1y = x - xm1, y - ym1
    e2x, e2y = xp1 - x, yp1 - y
    e = on_grid(Fraction(alpha) / 2) * (e1x * e1x + e1y * e1y + e2x * e2x + e2y * e2y)
    c1x, c1y = x - 2 * xm1 + xm2, y - 2 * ym1 + ym2
    c2x, c2y = xp1 - 2 * x + xm1, yp1 - 2 * y + ym1
    c3x, c3y = xp2 - 2 * xp1 + x, yp2 - 2 * yp1 + y
    e += on_grid(Fraction(beta) / 2) * (c1x * c1x + c1y * c1y + c2x * c2x + c2y * c2y
                                        + c3x * c3x + c3y * c3y)
    return e + on_grid(ext)


@settings(max_examples=300)
@given(key=st.lists(st.integers(0, 11), min_size=10, max_size=10),
       field_seed=st.integers(0, 2**32 - 1),
       alpha=st.floats(0.0, 1.0), beta=st.floats(0.0, 1.0))
def test_best_move_equals_termwise_scan_bitwise(key, field_seed, alpha, beta):
    vals = -np.random.default_rng(field_seed).random((12, 12))
    x, y, *nbrs = key
    best = (x, y)
    stay = best_e = reference_local_energy(x, y, *nbrs, vals[y, x], alpha, beta)
    for dx, dy in snake.NEIGHBOR_SCAN[1:]:
        cx, cy = x + dx, y + dy
        if 0 <= cx < 12 and 0 <= cy < 12:
            e = reference_local_energy(cx, cy, *nbrs, vals[cy, cx], alpha, beta)
            if e < best_e:
                best, best_e = (cx, cy), e
    values = snake._quantize(ScalarField(vals, EXTERNAL_ENERGY))
    target, delta = snake._best_move(tuple(key), values, 12, 12,
                                     *snake._weights(alpha, beta))
    assert target == best
    assert delta == best_e - stay
    # the agent and its four neighbours close a cycle whose every other term
    # omits the agent, so the delta is that cycle's whole energy difference
    m2, m1, p1, p2 = zip(nbrs[::2], nbrs[1::2])
    assert delta == (exact_cycle_energy([m2, m1, target, p1, p2], vals, alpha, beta)
                     - exact_cycle_energy([m2, m1, (x, y), p1, p2], vals, alpha, beta))


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


# ---------------------------------------------------------------------------
# settlement and insertion deltas: exact whole-contour differences on the grid

GRID = 8
RING8 = ((1, 1), (2, 1), (3, 1), (3, 2), (3, 3), (2, 3), (1, 3), (1, 2))


def exact_cycle_energy(pts, vals, alpha, beta):
    """E of the closed cycle through pts in 2^-32 grid steps, as an exact integer."""
    n = len(pts)
    elastic = bending = 0
    for k, (x, y) in enumerate(pts):
        (xp, yp), (xn, yn) = pts[k - 1], pts[(k + 1) % n]
        elastic += (xn - x) ** 2 + (yn - y) ** 2
        bending += (xp - 2 * x + xn) ** 2 + (yp - 2 * y + yn) ** 2
    return (on_grid(Fraction(alpha) / 2) * elastic + on_grid(Fraction(beta) / 2) * bending
            + sum(on_grid(vals[y, x]) for x, y in pts))


def reference_settlement(ids, i, j, min_size):
    """Kept arcs of the settlement at positions i < j, and the outcome's name."""
    n = len(ids)
    if j - i == 1 or (i, j) == (0, n - 1):
        later = max(ids[i], ids[j])
        arc = [aid for aid in ids if aid != later]
        return ([arc], "merge") if len(arc) >= min_size else ([], "merge drop")
    kept = [arc for arc in (ids[i:j], ids[j:] + ids[:i]) if len(arc) >= min_size]
    return kept, ("split", "split drop one", "split drop both")[2 - len(kept)]


def energy_field(seed):
    # values of several binades, none of them on the grid
    rng = np.random.default_rng(seed)
    return -rng.random((GRID, GRID)) * 10.0 ** rng.integers(-3, 1, (GRID, GRID))


def cycle_state(pixels, ids):
    contour = Contour(id=0, agent_ids=list(ids))
    contour.canonicalize()
    agents = {aid: ExplorerAgent(id=aid, x=x, y=y, contour_id=0)
              for aid, (x, y) in zip(ids, pixels)}
    return SupervisorState(width=GRID, height=GRID, contours={0: contour}, agents=agents,
                           initial_agent_count=len(ids))


@st.composite
def cycles(draw, min_size=3):
    n = draw(st.integers(min_size, 16))
    pixels = draw(st.lists(st.tuples(st.integers(0, GRID - 1), st.integers(0, GRID - 1)),
                           min_size=n, max_size=n, unique=True))
    return pixels, draw(st.permutations(range(n)))


ENERGY_WEIGHTS = dict(alpha=st.sampled_from((0.0, 0.05, 0.2)),
                      beta=st.sampled_from((0.0, 0.01, 0.05)))


@st.composite
def collisions(draw):
    pixels, ids = draw(cycles(min_size=3))
    i, j = sorted(draw(st.lists(st.integers(0, len(ids) - 1), min_size=2, max_size=2,
                                unique=True)))
    return pixels, ids, i, j, draw(st.booleans())


def test_settlement_delta_is_the_exact_whole_contour_difference():
    outcomes = set()

    @settings(max_examples=200)
    @given(case=collisions(), field_seed=st.integers(0, 2**32 - 1),
           min_size=st.integers(3, 5), **ENERGY_WEIGHTS)
    # one example of each outcome
    @example(case=(RING8[:6], range(6), 1, 2, True), field_seed=0, min_size=3,
             alpha=0.05, beta=0.01)
    @example(case=(RING8[:4], range(4), 0, 3, False), field_seed=1, min_size=4,
             alpha=0.2, beta=0.05)
    @example(case=(RING8, range(8), 0, 4, True), field_seed=2, min_size=3,
             alpha=0.05, beta=0.01)
    @example(case=(RING8, range(8), 0, 2, False), field_seed=3, min_size=3,
             alpha=0.05, beta=0.0)
    @example(case=(RING8[:5], range(5), 0, 2, True), field_seed=4, min_size=4,
             alpha=0.0, beta=0.05)
    def check(case, field_seed, min_size, alpha, beta):
        pixels, ids, i, j, move_first = case
        state = cycle_state(pixels, ids)
        contour = state.contours[0]
        # the mover lands on its contour-mate's pixel, as in a sweep
        cyc = contour.agent_ids
        mover, mate = (cyc[i], cyc[j]) if move_first else (cyc[j], cyc[i])
        state.agents[mover].x, state.agents[mover].y = state.agents[mate].pos
        vals = energy_field(field_seed)
        params = SnakeParams(alpha=alpha, beta=beta, min_contour_size=min_size)
        pos = state.positions()

        def exact(arc):
            return exact_cycle_energy([pos[a] for a in arc], vals, alpha, beta)

        kept, outcome = reference_settlement(cyc, i, j, min_size)
        outcomes.add(outcome)
        expect = sum(exact(arc) for arc in kept) - exact(cyc)
        grid = snake._grid(state, ScalarField(vals, EXTERNAL_ENERGY), params)
        assert snake._settlement_delta(state, contour, i, j, grid, params) == expect
        # and the settlement itself keeps exactly those arcs
        split_contour(state, contour, i, j, params)
        canonical = [Contour(-1, list(arc)) for arc in kept]
        for c in canonical:
            c.canonicalize()
        assert sorted(c.agent_ids for c in state.contours.values()) == sorted(
            c.agent_ids for c in canonical)

    check()
    assert outcomes == {"merge", "merge drop", "split", "split drop one", "split drop both"}


@settings(max_examples=200)
@given(case=cycles(min_size=3), field_seed=st.integers(0, 2**32 - 1),
       max_spacing=st.sampled_from((1.0, 2.0, 3.0)), **ENERGY_WEIGHTS)
def test_resample_insertions_are_exact_whole_contour_differences(
        case, field_seed, max_spacing, alpha, beta):
    pixels, ids = case
    state = cycle_state(pixels, ids)
    contour = state.contours[0]
    vals = energy_field(field_seed)
    field = ScalarField(vals, EXTERNAL_ENERGY)
    params = SnakeParams(alpha=alpha, beta=beta, max_spacing=max_spacing)
    events = resample_contour(state, contour, field, params)
    inserted = events[0].agent_ids if events else ()
    pos = state.positions()

    def exact(cycle):
        return exact_cycle_energy([pos[a] for a in cycle], vals, alpha, beta)

    # replay the insertions in order: none raises the energy, and the state's
    # energy is the new contour's
    for k, aid in enumerate(inserted):
        after = [a for a in contour.agent_ids if a not in inserted[k + 1:]]
        assert exact(after) <= exact([a for a in after if a != aid])
    assert state.exact_energy == exact(contour.agent_ids)
    if len(state.agents) < snake.RESAMPLE_CAP_FACTOR * state.initial_agent_count:
        # every long edge left would raise the energy or has a held midpoint
        cyc = contour.agent_ids
        for k, aid in enumerate(cyc):
            (ax, ay), (bx, by) = pos[aid], pos[cyc[(k + 1) % len(cyc)]]
            if math.hypot(bx - ax, by - ay) <= max_spacing:
                continue
            mid = (snake._iround((ax + bx) / 2.0), snake._iround((ay + by) / 2.0))
            if mid in pos.values():
                continue
            pts = [pos[a] for a in cyc]
            assert (exact_cycle_energy(pts[:k + 1] + [mid] + pts[k + 1:], vals, alpha, beta)
                    > exact_cycle_energy(pts, vals, alpha, beta))


def test_hand_built_state_never_reissues_ids():
    # the next ids are left at their defaults; resampling must not reuse the
    # ids of the agents the state was built with
    corners = [(10, 10), (30, 10), (30, 30), (10, 30)]
    state = SupervisorState(
        width=40, height=40, contours={0: Contour(id=0, agent_ids=[0, 1, 2, 3])},
        agents={aid: ExplorerAgent(id=aid, x=x, y=y, contour_id=0)
                for aid, (x, y) in enumerate(corners)},
        initial_agent_count=4)
    assert (state.next_agent_id, state.next_contour_id) == (4, 1)
    step(state, zero_field(), SnakeParams(alpha=0.0, beta=0.0, max_spacing=4.0))
    ids = state.contours[0].agent_ids
    assert [state.agents[aid].pos for aid in range(4)] == corners
    assert sorted(ids) == sorted(state.agents) == list(range(len(ids)))
    assert len(ids) > 4


def test_step_stalls_when_no_move_improves():
    state, ring = ring_state()
    state.current_energy = total_energy(state, state.positions(), zero_field(), FREE)
    state.energy_history.append(state.current_energy)
    events = step(state, zero_field(), FREE)
    assert [(e.iteration, e.kind) for e in events] == [(1, CONVERGED)]
    assert state.converged
    assert state.iteration == 1
    assert sorted(a.pos for a in state.agents.values()) == sorted(ring)


def test_sweep_that_only_inserts_agents_does_not_end_the_run():
    # nothing can move in the first sweep, which only inserts midpoints; the
    # second moves the inserted agents onto the wells east of the midpoints
    ring = [(20, 10), (27, 13), (30, 20), (27, 27),
            (20, 30), (13, 27), (10, 20), (13, 13)]
    vals = np.zeros((40, 40))
    for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1]):
        vals[ay, ax] = -1.0
        vals[snake._iround((ay + by) / 2.0), snake._iround((ax + bx) / 2.0) + 1] = -0.5
    field = ScalarField(values=vals, kind=EXTERNAL_ENERGY)
    params = SnakeParams(alpha=0.0, beta=0.0, max_spacing=4.0)
    state = init_agents([seed(x, y) for x, y in ring], 4, 40, 40)
    sweeps = []

    def recording_step(state, field, params):
        before = state.positions()
        events = step(state, field, params)
        moved = sum(state.agents[aid].pos != pos for aid, pos in before.items())
        sweeps.append((moved, len(state.agents) - len(before)))
        return events

    with mock.patch.object(snake, "step", recording_step):
        result = snake._run(state, field, params)
    # moves, then agents added, per sweep: the third changes nothing
    assert sweeps == [(0, 16), (8, 2), (0, 0)]
    assert result.iterations == 3 and result.converged
    assert result.contours == (ContourResult(
        id=0, agent_ids=(0, 9, 8, 1, 11, 10, 2, 13, 12, 24, 3, 14, 15, 4, 16, 17,
                         5, 18, 19, 6, 25, 20, 21, 7, 23, 22),
        points=((20, 10), (22, 11), (25, 12), (27, 13), (28, 15), (30, 17), (30, 20),
                (30, 22), (30, 24), (29, 26), (27, 27), (25, 29), (22, 30), (20, 30),
                (18, 29), (15, 28), (13, 27), (13, 24), (11, 22), (10, 20), (12, 19),
                (13, 17), (13, 15), (13, 13), (15, 13), (18, 12))),)


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
    # the log says CONVERGED only for a run that converged
    assert CONVERGED not in [e.kind for e in result.events]


def test_fixed_point_on_the_last_allowed_sweep_converges():
    img = Image(pixels=synth.disk_image(64, 64))
    pts = [seed(32, 8), seed(50, 14), seed(56, 32), seed(50, 50),
           seed(32, 56), seed(14, 50), seed(8, 32), seed(14, 14)]
    free = run_segmentation(img, pts, SnakeParams())
    capped = run_segmentation(img, pts, SnakeParams(max_iters=free.iterations))
    assert capped == free
    assert capped.converged and capped.events[-1].kind == CONVERGED


@pytest.mark.parametrize("max_spacing", [0.0, 12.0])
def test_step_rejects_a_field_of_the_wrong_kind(max_spacing):
    # at max_spacing 0 no insertion trial reads the field's kind either
    img = Image(pixels=synth.disk_image(64, 64))
    pts = [seed(32, 8), seed(50, 14), seed(56, 32), seed(50, 50),
           seed(32, 56), seed(14, 50), seed(8, 32), seed(14, 14)]
    state = init_agents(pts, 4, 64, 64)
    before = state.positions()
    field = gradient_magnitude(gaussian_smooth(img, 1.0))
    with pytest.raises(ValueError, match="^expected an external-energy field, "
                                         "got 'gradient_magnitude'$"):
        step(state, field, SnakeParams(max_spacing=max_spacing))
    assert state.iteration == 0 and state.positions() == before


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


@pytest.mark.parametrize("carried, named", [
    # five agent ids but four points
    ([ContourResult(id=0, agent_ids=(0, 1, 2, 3, 4),
                    points=((10, 10), (20, 10), (20, 20), (10, 20)))],
     "carried record 0 (contour 0) has 5 agent ids but 4 points"),
    # agent 3 on two contours
    ([ContourResult(id=0, agent_ids=(0, 1, 2, 3),
                    points=((4, 4), (10, 4), (10, 10), (4, 10))),
      ContourResult(id=1, agent_ids=(3, 4, 5, 6),
                    points=((16, 16), (24, 16), (24, 24), (16, 24)))],
     "carried record 1 (contour 1): agent id 3 appears twice"),
    # contour 0 twice
    ([ContourResult(id=0, agent_ids=(0, 1, 2, 3),
                    points=((4, 4), (10, 4), (10, 10), (4, 10))),
      ContourResult(id=0, agent_ids=(4, 5, 6, 7),
                    points=((16, 16), (24, 16), (24, 24), (16, 24)))],
     "carried record 1 (contour 0): contour id 0 appears twice"),
    # points that are not finite
    ([ContourResult(id=2, agent_ids=(0, 1, 2, 3),
                    points=((4, 4), (math.inf, 3), (10, 10), (4, 10)))],
     "carried record 0 (contour 2): point 1 (inf, 3) is not finite"),
    ([ContourResult(id=0, agent_ids=(0, 1, 2, 3),
                    points=((4, 4), (10, 4), (10, 10), (4, 10))),
      ContourResult(id=1, agent_ids=(4, 5, 6, 7),
                    points=((16, 16), (24, 16), (24, 24), (math.nan, 3)))],
     "carried record 1 (contour 1): point 3 (nan, 3) is not finite"),
])
def test_resume_rejects_inconsistent_records(carried, named):
    img = Image(pixels=synth.disk_image(32, 32))
    with pytest.raises(ValueError) as err:
        resume_segmentation(img, carried, SnakeParams())
    assert str(err.value) == named


def test_settled_step_scans_no_agent():
    # criterion 4's disk: once the run has converged, every agent's
    # neighbourhood is one whose scan already chose to stay
    img = Image(pixels=synth.disk_image(128, 128))
    ii = integral_image(img)
    kps = detect_keypoints(ii, DetectorParams())
    describe_keypoints(ii, kps)
    params = SnakeParams()
    field = external_energy_map(img, params.sigma)
    state = init_agents(select_extremity_points(kps, 128, 128).points,
                        params.min_contour_size, 128, 128)
    snake._run(state, field, params)
    assert state.agents
    positions = state.positions()
    state.converged = False
    scans = []
    best_move = snake._best_move

    def counting(*args):
        scans.append(args)
        return best_move(*args)

    with mock.patch.object(snake, "_best_move", counting):
        step(state, field, params)
    assert scans == []
    assert state.positions() == positions


def test_stalled_state_moves_on_a_new_field():
    state, ring = ring_state()
    assert [e.kind for e in step(state, zero_field(), FREE)] == [CONVERGED]
    assert len(state.stay_memo) == 8
    state.converged = False
    agent = state.agents[0]
    vals = np.zeros((40, 40))
    vals[agent.y, agent.x + 1] = -1.0  # a deeper well east of agent 0
    assert step(state, ScalarField(values=vals, kind=EXTERNAL_ENERGY), FREE) == []
    assert 0 not in state.stay_memo
    assert agent.pos == (ring[0][0] + 1, ring[0][1])


def test_resume_discards_undersized_carried_contour():
    img = Image(pixels=synth.disk_image(32, 32))
    carried = [ContourResult(id=0, agent_ids=(0, 1, 2),
                             points=((10, 10), (20, 10), (15, 20)))]
    result = resume_segmentation(img, carried, SnakeParams())
    assert result.contours == ()
    assert any(e.kind == DISCARD for e in result.events)
    # a run with no agent left has nothing more to do
    assert result.converged


def test_resumed_converged_ring_scans_no_agent():
    # the golden rings_sigma4 scene: a ring of 194 agents converged at
    # sigma 4 and resumed on its own frame; the array scan refills the stay
    # memo, so the one sweep visits every agent without a _best_move call
    size = 128
    img = Image(pixels=synth.disk_image(size, size))
    r = synth.DISK_RADIUS_FRACTION * size + 8.0
    n = round(2.0 * math.pi * r / 1.5)
    ring = []
    for k in range(n):
        p = (math.floor(size / 2 + r * math.cos(2.0 * math.pi * k / n)),
             math.floor(size / 2 + r * math.sin(2.0 * math.pi * k / n)))
        if p not in ring[-1:]:
            ring.append(p)
    params = SnakeParams(sigma=4.0)
    settled = resume_segmentation(
        img, [ContourResult(0, tuple(range(len(ring))), tuple(ring))], params)
    assert [len(c.points) for c in settled.contours] == [194]
    assert 194 >= snake.ARRAY_SCAN_MIN_AGENTS
    scans = []
    best_move = snake._best_move

    def counting(*args):
        scans.append(args)
        return best_move(*args)

    with mock.patch.object(snake, "_best_move", counting):
        result = resume_segmentation(img, settled.contours, params)
    assert scans == []
    assert result.contours == settled.contours
    assert [e.kind for e in result.events] == [CONVERGED]


def frame_coordinate(size):
    """A coordinate in [0, size), drawn on either edge one time in three each."""
    return st.one_of(st.just(0), st.just(size - 1), st.integers(0, size - 1))


@st.composite
def scan_states(draw):
    """A state of 1-4 contours of 3-8 agents on a 3-12 px frame, and a grid."""
    w, h = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    contours, agents = {}, {}
    for cid in range(draw(st.integers(1, 4))):
        n = draw(st.sampled_from((3, 4, 5, 8)))
        ids = list(range(len(agents), len(agents) + n))
        for aid in ids:
            agents[aid] = ExplorerAgent(id=aid, x=draw(frame_coordinate(w)),
                                        y=draw(frame_coordinate(h)), contour_id=cid)
        contours[cid] = Contour(id=cid, agent_ids=ids)
    vals = draw(st.lists(st.one_of(st.just(0.0), st.just(-1.0), st.floats(-1.0, 0.0)),
                         min_size=w * h, max_size=w * h))
    # every binade up to the bound, where the overflow guard trips at all scales
    weight = st.one_of(st.sampled_from((0.0, 2.0 ** -33, 0.01, 0.05, 1.0, 2.0 ** 31)),
                       st.builds(lambda e, m: min(m * 2.0 ** e, 2.0 ** 31),
                                 st.integers(-34, 30), st.floats(1.0, 2.0)))
    state = SupervisorState(width=w, height=h, contours=contours, agents=agents)
    field = ScalarField(np.array(vals).reshape(h, w), EXTERNAL_ENERGY)
    return state, (snake._quantize(field), *snake._weights(draw(weight), draw(weight)))


def zero_scan_state(pixels, alpha):
    """One contour through pixels of a zero 3 x 3 field, with beta 0."""
    agents = {aid: ExplorerAgent(id=aid, x=x, y=y, contour_id=0)
              for aid, (x, y) in enumerate(pixels)}
    state = SupervisorState(width=3, height=3, agents=agents,
                            contours={0: Contour(0, list(agents))})
    return state, (np.zeros((3, 3), dtype=np.int64), *snake._weights(alpha, 0.0))


@settings(max_examples=300)
@given(case=scan_states())
# three agents on one pixel have g = h = 0: a = 2^60 - 2^30 puts the bound
# exactly at 2^62, where the guard trips, and one step of alpha below it
# every agent stays
@example(case=zero_scan_state([(1, 1)] * 3, 2.0 ** 29 - 0.5))
@example(case=zero_scan_state([(1, 1)] * 3, 2.0 ** 29 - 1.0))
# the middle agent of a line stays, and the ends' |g| = 6 trips the guard at
# a = 2^58, where a (|gx| + |gy| + 4) would still fit
@example(case=zero_scan_state([(0, 1), (1, 1), (2, 1)], 2.0 ** 27))
def test_array_scan_stays_where_the_scalar_scan_stays(case):
    state, grid = case
    values, a, b = grid
    stays, bound_g, bound_h = {}, 0, 0
    for contour in state.contours.values():
        for k, aid in enumerate(contour.agent_ids):
            key = snake._visit_key(state, state.agents[aid], k)
            target, _ = snake._best_move(key, values, state.width, state.height, a, b)
            if target == key[:2]:
                stays[aid] = key
            for v, m2, m1, p1, p2 in (key[0::2], key[1::2]):
                bound_g = max(bound_g, abs(2 * (2 * v - m1 - p1)))
                bound_h = max(bound_h, abs(2 * (m2 - 4 * m1 + 6 * v - 4 * p1 + p2)))
    # the bound on every energy change past which int64 could overflow
    guard = a * (2 * bound_g + 4) + b * (2 * bound_h + 12) + SCALE >= 2 ** 62
    assert snake._stay_keys(state, grid) == ({} if guard else stays)


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
    assert state.current_energy == recomputed
    hist = state.energy_history
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    # an agent the stay memo would skip is one its scan keeps in place
    cycle_pos = {aid: k for c in state.contours.values()
                 for k, aid in enumerate(c.agent_ids)}
    for aid, agent in state.agents.items():
        key = snake._visit_key(state, agent, cycle_pos[aid])
        if state.stay_memo.get(aid) == key:
            values, a, b = state.grid
            target, _ = snake._best_move(key, values, state.width, state.height, a, b)
            assert target == agent.pos


def converged(state):
    return bool(state.events) and state.events[-1].kind == CONVERGED


def assert_fixed_point(state, field, params):
    """A converged state is a fixed point of step."""
    def snapshot():
        contours = {cid: list(c.agent_ids) for cid, c in state.contours.items()}
        return (state.positions(), contours, state.next_agent_id,
                state.next_contour_id, state.current_energy)

    before = snapshot()
    state.converged = False
    events = step(state, field, params)
    assert [e.kind for e in events] == [CONVERGED]
    assert snapshot() == before


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
    assert converged(state) or state.iteration == params.max_iters
    if converged(state):
        assert_fixed_point(state, field, params)


@settings(max_examples=40)
@given(size=st.integers(16, 32), image_seed=st.integers(0, 2**32 - 1),
       contours=st.lists(st.lists(st.tuples(st.integers(-6, 37), st.integers(-6, 37)),
                                  min_size=3, max_size=12),
                         min_size=1, max_size=3),
       params=PARAMS)
# a split whose second arc moves again in the same sweep
@example(size=16, image_seed=0, contours=[[(0, 0), (0, 1), (1, 0), (0, 6)]],
         params=SnakeParams(alpha=0.0, beta=0.0, max_spacing=4.0))
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
        steps.append((state, field))
        return events

    with mock.patch.object(snake, "step", checked_step):
        result = resume_segmentation(img, carried, params)
    state, field = steps[-1]
    assert len(steps) == state.iteration == result.iterations
    assert result.converged == converged(state)
    assert converged(state) or state.iteration == params.max_iters
    if converged(state):
        assert_fixed_point(state, field, params)
