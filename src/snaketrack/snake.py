"""Multi-agent discrete active contour with supervisor bookkeeping.

A contour is a closed cycle of explorer agents on integer pixels. Each sweep
visits agents in ascending id order (Gauss-Seidel): the agent evaluates its
local energy at its pixel and the 8 neighbors and proposes the first
minimizer in a fixed scan order. A proposal is applied only if it does not
increase the total snake energy

    E = sum_i alpha/2 |v_{i+1} - v_i|^2 + beta/2 |v_{i+1} - 2 v_i + v_{i-1}|^2
        + sum_i e(v_i)

where e is the external energy field and indices are cyclic.

The supervisor owns collision handling: when two agents of one contour land
on the same pixel, adjacent agents merge (the later id is discarded) and
non-adjacent agents split the cycle into two arcs. Settlement happens as
part of accepting the move that created the coincidence, and the combined
move-plus-settlement energy change is what the acceptance rule gates. That
keeps the recorded energy history non-increasing by construction; the
history is accumulated incrementally from the accepted deltas, so the
monotonicity is exact in floating point as well.

Between moves no two agents of one contour share a pixel: init_agents places
distinct pixels, a move onto a contour-mate is settled with it, a merge or
split leaves distinct pixels, and resampling skips midpoints the contour
already holds. The one exception is resume_segmentation, whose clamping of
carried points into the frame can make contour-mates coincide; it settles
those before the first sweep.

Optional resampling inserts a midpoint agent into any cyclic edge longer
than max_spacing, gated by the same non-increase rule and capped at 4x the
starting agent count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Mapping

import numpy as np

from .errors import InitializationError
from .image import EXTERNAL_ENERGY, Image, ScalarField, external_energy_map

# candidate scan order: stay first, then compass neighbors clockwise from
# north; y grows downward so north is (0, -1)
NEIGHBOR_SCAN = ((0, 0), (0, -1), (1, -1), (1, 0), (1, 1),
                 (0, 1), (-1, 1), (-1, 0), (-1, -1))

SPLIT = "split"
DISCARD = "discard"
RESAMPLE = "resample"
CONVERGED = "converged"

LOW_CONFIDENCE_FACTOR = 0.1
RESAMPLE_CAP_FACTOR = 4


def _iround(v: float) -> int:
    return int(math.floor(v + 0.5))


@dataclass
class SnakeParams:
    """Energy weights and run limits for the contour evolution."""

    alpha: float = 0.05
    beta: float = 0.01
    lam: float = 1.0
    sigma: float = 1.0
    max_iters: int = 500
    stall_window: int = 5
    max_spacing: float = 12.0
    min_contour_size: int = 4

    def __post_init__(self):
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError("alpha and beta must be >= 0")
        if self.lam <= 0.0:
            raise ValueError("lam must be > 0")
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.stall_window < 1:
            raise ValueError("stall_window must be >= 1")
        if self.max_spacing < 0.0:
            raise ValueError("max_spacing must be >= 0 (0 disables resampling)")
        if self.min_contour_size < 3:
            raise ValueError("min_contour_size must be >= 3")


@dataclass
class ExplorerAgent:
    id: int
    x: int
    y: int
    contour_id: int

    @property
    def pos(self) -> tuple[int, int]:
        return (self.x, self.y)


@dataclass
class Contour:
    """Closed cycle of agent ids, canonicalized to start at the smallest id."""

    id: int
    agent_ids: list[int]

    def canonicalize(self) -> None:
        if self.agent_ids:
            k = self.agent_ids.index(min(self.agent_ids))
            self.agent_ids = self.agent_ids[k:] + self.agent_ids[:k]


@dataclass(frozen=True)
class Event:
    iteration: int
    kind: str
    contour_ids: tuple[int, ...] = ()
    agent_ids: tuple[int, ...] = ()


@dataclass
class SupervisorState:
    """All mutable run state; exactly one per segmentation run."""

    width: int
    height: int
    contours: dict[int, Contour] = dc_field(default_factory=dict)
    agents: dict[int, ExplorerAgent] = dc_field(default_factory=dict)
    iteration: int = 0
    events: list[Event] = dc_field(default_factory=list)
    energy_history: list[float] = dc_field(default_factory=list)
    converged: bool = False
    stall: int = 0
    current_energy: float = 0.0
    next_agent_id: int = 0
    next_contour_id: int = 0
    initial_agent_count: int = 0

    def new_agent_id(self) -> int:
        aid = self.next_agent_id
        self.next_agent_id += 1
        return aid

    def new_contour_id(self) -> int:
        cid = self.next_contour_id
        self.next_contour_id += 1
        return cid

    def positions(self) -> dict[int, tuple[int, int]]:
        return {aid: (a.x, a.y) for aid, a in self.agents.items()}


@dataclass(frozen=True)
class ContourResult:
    id: int
    agent_ids: tuple[int, ...]
    points: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SegmentationResult:
    """Contours, event log and energy history of one run.

    converged is True when the run ended because no agent moved for
    stall_window sweeps or no agent was left, and False when it stopped at
    max_iters.
    """

    contours: tuple[ContourResult, ...]
    events: tuple[Event, ...]
    energy_history: tuple[float, ...]
    iterations: int
    converged: bool
    low_confidence: bool


# ---------------------------------------------------------------------------
# energies


def internal_energy(contour: Contour, positions: Mapping[int, tuple[int, int]],
                    alpha: float, beta: float) -> float:
    """Elastic plus bending energy of one closed contour."""
    pts = np.array([positions[a] for a in contour.agent_ids], dtype=np.float64)
    ahead = np.roll(pts, -1, axis=0)
    behind = np.roll(pts, 1, axis=0)
    d1 = ahead - pts
    d2 = ahead - 2.0 * pts + behind
    return float(0.5 * alpha * (d1 * d1).sum() + 0.5 * beta * (d2 * d2).sum())


def external_energy(contour: Contour, positions: Mapping[int, tuple[int, int]],
                    field: ScalarField) -> float:
    """Sum of the energy field over the contour's agent pixels."""
    if field.kind != EXTERNAL_ENERGY:
        raise ValueError(f"expected an external-energy field, got {field.kind!r}")
    vals = field.values
    return float(sum(vals[positions[a][1], positions[a][0]]
                     for a in contour.agent_ids))


def total_energy(state: SupervisorState, positions: Mapping[int, tuple[int, int]],
                 field: ScalarField, params: SnakeParams) -> float:
    """Snake energy summed over every contour."""
    total = 0.0
    for cid in sorted(state.contours):
        c = state.contours[cid]
        total += internal_energy(c, positions, params.alpha, params.beta)
        total += external_energy(c, positions, field)
    return total


def _local_energy(x, y, xm2, ym2, xm1, ym1, xp1, yp1, xp2, yp2, ext, alpha, beta):
    """Every energy term that contains the agent's own position.

    Two elastic edge terms plus the three bending terms centered at the
    agent and its cyclic neighbors, plus the field value at the pixel.
    """
    e1x = x - xm1
    e1y = y - ym1
    e2x = xp1 - x
    e2y = yp1 - y
    e = 0.5 * alpha * (e1x * e1x + e1y * e1y + e2x * e2x + e2y * e2y)
    c1x = x - 2.0 * xm1 + xm2
    c1y = y - 2.0 * ym1 + ym2
    c2x = xp1 - 2.0 * x + xm1
    c2y = yp1 - 2.0 * y + ym1
    c3x = xp2 - 2.0 * xp1 + x
    c3y = yp2 - 2.0 * yp1 + y
    e += 0.5 * beta * (c1x * c1x + c1y * c1y + c2x * c2x + c2y * c2y
                       + c3x * c3x + c3y * c3y)
    return e + ext


def _neighbor_positions(state: SupervisorState, agent: ExplorerAgent):
    ids = state.contours[agent.contour_id].agent_ids
    n = len(ids)
    k = ids.index(agent.id)
    am2 = state.agents[ids[(k - 2) % n]]
    am1 = state.agents[ids[(k - 1) % n]]
    ap1 = state.agents[ids[(k + 1) % n]]
    ap2 = state.agents[ids[(k + 2) % n]]
    return am2.x, am2.y, am1.x, am1.y, ap1.x, ap1.y, ap2.x, ap2.y


def _best_move(agent: ExplorerAgent, state: SupervisorState, field: ScalarField,
               params: SnakeParams) -> tuple[tuple[int, int], float]:
    """The greedy scan: its chosen pixel and the local energy change to it.

    Staying put is the first candidate and always in bounds, so its energy
    is the baseline of the change.
    """
    xm2, ym2, xm1, ym1, xp1, yp1, xp2, yp2 = _neighbor_positions(state, agent)
    vals = field.values
    w, h = state.width, state.height
    alpha, beta = params.alpha, params.beta
    best = (agent.x, agent.y)
    stay_e = best_e = _local_energy(agent.x, agent.y, xm2, ym2, xm1, ym1, xp1, yp1,
                                    xp2, yp2, vals[agent.y, agent.x], alpha, beta)
    for dx, dy in NEIGHBOR_SCAN[1:]:
        x = agent.x + dx
        y = agent.y + dy
        if not (0 <= x < w and 0 <= y < h):
            continue
        e = _local_energy(x, y, xm2, ym2, xm1, ym1, xp1, yp1, xp2, yp2,
                          vals[y, x], alpha, beta)
        if e < best_e:
            best_e = e
            best = (x, y)
    return best, float(best_e - stay_e)


def propose_move(agent: ExplorerAgent, state: SupervisorState,
                 field: ScalarField, params: SnakeParams) -> tuple[int, int]:
    """Greedy local move: first strict minimizer over the 9-candidate scan.

    Candidates outside the image are skipped; ties resolve to the earliest
    candidate in the scan order, so staying put wins any tie.
    """
    return _best_move(agent, state, field, params)[0]


# ---------------------------------------------------------------------------
# initialization


def _distinct_positions(raw: list[tuple[int, int]], width: int, height: int,
                        min_size: int) -> list[tuple[int, int]]:
    """Nudge duplicate pixels apart: +1 in x, then +1 in y, alternating."""
    occupied: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    for x, y in raw:
        x = min(max(x, 0), width - 1)
        y = min(max(y, 0), height - 1)
        axis = 0
        attempts = 0
        limit = 4 * (width + height)
        while (x, y) in occupied and attempts < limit:
            if axis == 0:
                x = x + 1 if x + 1 < width else x - 1
            else:
                y = y + 1 if y + 1 < height else y - 1
            axis ^= 1
            attempts += 1
        if (x, y) in occupied:
            # staircase boxed in: first free pixel in raster order
            fallback = next(((fx, fy) for fy in range(height)
                             for fx in range(width) if (fx, fy) not in occupied), None)
            if fallback is None:
                break
            x, y = fallback
        occupied.add((x, y))
        out.append((x, y))
    if len(out) < min_size:
        raise InitializationError(
            f"only {len(out)} distinct agent pixels available, need {min_size}")
    return out


def init_agents(points, min_size: int, width: int, height: int) -> SupervisorState:
    """Place 8 agents on distinct pixels and close them into one contour.

    Keypoint positions are rounded to pixels; coincident pixels are nudged
    apart. The cycle is ordered by angle about the centroid of the final
    positions (ties by radius, then id) and canonicalized.
    """
    if len(points) != 8:
        raise ValueError(f"expected 8 seed points, got {len(points)}")
    raw = [(_iround(p.x), _iround(p.y)) for p in points]
    placed = _distinct_positions(raw, width, height, min_size)
    cx = sum(p[0] for p in placed) / len(placed)
    cy = sum(p[1] for p in placed) / len(placed)

    def angle_key(item):
        aid, (x, y) = item
        ang = math.atan2(y - cy, x - cx) % (2.0 * math.pi)
        return (ang, (x - cx) ** 2 + (y - cy) ** 2, aid)

    ordered = sorted(enumerate(placed), key=angle_key)
    state = SupervisorState(width=width, height=height)
    cid = state.new_contour_id()
    for aid, (x, y) in enumerate(placed):
        state.agents[aid] = ExplorerAgent(id=aid, x=x, y=y, contour_id=cid)
    state.next_agent_id = len(placed)
    contour = Contour(id=cid, agent_ids=[aid for aid, _ in ordered])
    contour.canonicalize()
    state.contours[cid] = contour
    state.initial_agent_count = len(placed)
    return state


# ---------------------------------------------------------------------------
# topology changes


def _cycle_energy(pts: list[tuple[int, int]], field: ScalarField,
                  params: SnakeParams) -> float:
    """Snake energy of one closed cycle through the pixels pts, in order."""
    positions = dict(enumerate(pts))
    c = Contour(id=-1, agent_ids=list(positions))
    return (internal_energy(c, positions, params.alpha, params.beta)
            + external_energy(c, positions, field))


def _settlement(contour: Contour, i: int, j: int, min_size: int):
    """The collision-settlement rule for agents at cyclic positions i < j.

    Adjacent agents merge: the later id leaves and the rest of the cycle is
    the one arc. Otherwise the cycle is cut into ids[i:j] and
    ids[j:] + ids[:i], so the first colliding agent goes to the first arc.
    Returns (merged id or None, kept arcs, dropped arcs); arcs below
    min_size are dropped.
    """
    ids = contour.agent_ids
    if j - i == 1 or (i == 0 and j == len(ids) - 1):
        merged = max(ids[i], ids[j])
        arcs = [[aid for aid in ids if aid != merged]]
    else:
        merged = None
        arcs = [ids[i:j], ids[j:] + ids[:i]]
    kept, dropped = [], []
    for arc in arcs:
        (kept if len(arc) >= min_size else dropped).append(arc)
    return merged, kept, dropped


def split_contour(state: SupervisorState, contour: Contour, i: int, j: int,
                  params: SnakeParams) -> list[Event]:
    """Resolve a same-pixel collision between cyclic positions i and j.

    Applies `_settlement`: an adjacent collision deletes the later-id agent,
    a non-adjacent one closes each kept arc into a fresh contour, and a
    dropped arc or contour is discarded with its agents. Returns the events
    logged.
    """
    n = len(contour.agent_ids)
    if not (0 <= i < j < n):
        raise ValueError(f"positions {i}, {j} invalid for a contour of {n} agents")
    merged, kept, dropped = _settlement(contour, i, j, params.min_contour_size)
    if merged is not None:
        events = [Event(state.iteration, DISCARD, contour_ids=(contour.id,),
                        agent_ids=(merged,))]
        contour.agent_ids.remove(merged)
        del state.agents[merged]
        contour.canonicalize()
        if dropped:
            events.append(_drop_contour(state, contour))
    else:
        del state.contours[contour.id]
        new_ids = []
        for arc in kept:
            cid = state.new_contour_id()
            sub = Contour(id=cid, agent_ids=list(arc))
            sub.canonicalize()
            state.contours[cid] = sub
            for aid in arc:
                state.agents[aid].contour_id = cid
            new_ids.append(cid)
        events = [Event(state.iteration, SPLIT, contour_ids=(contour.id, *new_ids),
                        agent_ids=(contour.agent_ids[i], contour.agent_ids[j]))]
        for arc in dropped:
            for aid in arc:
                del state.agents[aid]
            events.append(Event(state.iteration, DISCARD,
                                contour_ids=(contour.id,), agent_ids=tuple(arc)))
    state.events.extend(events)
    return events


def _drop_contour(state: SupervisorState, contour: Contour) -> Event:
    """Delete a contour with its agents; returns the DISCARD event naming them."""
    remaining = tuple(contour.agent_ids)
    for aid in remaining:
        del state.agents[aid]
    del state.contours[contour.id]
    return Event(state.iteration, DISCARD, contour_ids=(contour.id,),
                 agent_ids=remaining)


def _same_contour_occupant(state: SupervisorState, agent: ExplorerAgent,
                           pos: tuple[int, int]) -> ExplorerAgent | None:
    for aid in state.contours[agent.contour_id].agent_ids:
        if aid == agent.id:
            continue
        other = state.agents[aid]
        if (other.x, other.y) == pos:
            return other
    return None


def _settlement_delta(state: SupervisorState, contour: Contour, i: int, j: int,
                      field: ScalarField, params: SnakeParams) -> float:
    """Energy change the collision settlement at (i, j) would cause."""
    def energy(ids):
        return _cycle_energy([state.agents[aid].pos for aid in ids], field, params)

    _, kept, _ = _settlement(contour, i, j, params.min_contour_size)
    return sum(energy(arc) for arc in kept) - energy(contour.agent_ids)


# ---------------------------------------------------------------------------
# the sweep


def step(state: SupervisorState, field: ScalarField, params: SnakeParams) -> list[Event]:
    """One supervisor iteration: sweep, collision settlement, resampling.

    Returns the events logged during this call. Sets the converged flag once
    no agent has moved for stall_window consecutive sweeps or the iteration
    cap is reached.
    """
    if state.converged:
        return []
    first_event = len(state.events)
    moved = 0
    for aid in sorted(state.agents):
        agent = state.agents.get(aid)
        if agent is None:
            continue  # discarded earlier in this sweep
        target, delta = _best_move(agent, state, field, params)
        if target == (agent.x, agent.y):
            continue
        occupant = _same_contour_occupant(state, agent, target)
        if occupant is None:
            agent.x, agent.y = target
            state.current_energy += delta
            moved += 1
            continue
        # the move lands on a contour-mate: accept only if the move plus its
        # collision settlement does not raise the total energy
        contour = state.contours[agent.contour_id]
        old_pos = (agent.x, agent.y)
        agent.x, agent.y = target
        ids = contour.agent_ids
        i, j = sorted((ids.index(agent.id), ids.index(occupant.id)))
        settle = _settlement_delta(state, contour, i, j, field, params)
        if delta + settle <= 0.0:
            split_contour(state, contour, i, j, params)
            state.current_energy += delta + settle
            moved += 1
        else:
            agent.x, agent.y = old_pos
    for cid in sorted(state.contours):
        resample_contour(state, state.contours[cid], field, params)
    state.iteration += 1
    state.stall = state.stall + 1 if moved == 0 else 0
    state.energy_history.append(state.current_energy)
    if (state.stall >= params.stall_window or state.iteration >= params.max_iters
            or not state.agents):
        state.converged = True
        state.events.append(Event(state.iteration, CONVERGED,
                                  contour_ids=tuple(sorted(state.contours))))
    return state.events[first_event:]


def _find_coincidence(state: SupervisorState, contour: Contour):
    seen: dict[tuple[int, int], int] = {}
    for k, aid in enumerate(contour.agent_ids):
        agent = state.agents[aid]
        pos = (agent.x, agent.y)
        if pos in seen:
            return seen[pos], k
        seen[pos] = k
    return None


def _settle_clamped_coincidences(state: SupervisorState, params: SnakeParams) -> None:
    """Settle every same-contour coincidence that clamping at resume made."""
    progress = True
    while progress:
        progress = False
        for cid in sorted(state.contours):
            contour = state.contours.get(cid)
            if contour is None:
                continue
            hit = _find_coincidence(state, contour)
            if hit is None:
                continue
            split_contour(state, contour, *hit, params)
            progress = True


def resample_contour(state: SupervisorState, contour: Contour,
                     field: ScalarField, params: SnakeParams) -> list[Event]:
    """Insert midpoint agents into cyclic edges longer than max_spacing.

    Insertions are skipped when the midpoint pixel is already held by the
    contour or when adding the agent would raise the total energy, and stop
    once the agent count reaches RESAMPLE_CAP_FACTOR times the starting
    count. Returns the events logged (at most one, naming the new agents).
    """
    if params.max_spacing <= 0.0:
        return []
    cap = RESAMPLE_CAP_FACTOR * state.initial_agent_count
    inserted: list[int] = []
    while len(state.agents) < cap:
        ids = contour.agent_ids
        pts = [state.agents[aid].pos for aid in ids]
        taken = set(pts)
        before = None  # the pass's energy, computed at its first trial
        for k, ((ax, ay), (bx, by)) in enumerate(zip(pts, pts[1:] + pts[:1])):
            if math.hypot(bx - ax, by - ay) <= params.max_spacing:
                continue
            mid = (_iround((ax + bx) / 2.0), _iround((ay + by) / 2.0))
            if mid in taken:
                continue
            if before is None:
                before = _cycle_energy(pts, field, params)
            delta = _cycle_energy(pts[:k + 1] + [mid] + pts[k + 1:], field, params) - before
            if delta <= 0.0:
                # the new id is the largest, so the cycle stays canonical
                aid = state.new_agent_id()
                state.agents[aid] = ExplorerAgent(id=aid, x=mid[0], y=mid[1],
                                                  contour_id=contour.id)
                ids.insert(k + 1, aid)
                state.current_energy += delta
                inserted.append(aid)
                break
        else:
            break
    if inserted:
        event = Event(state.iteration, RESAMPLE, contour_ids=(contour.id,),
                      agent_ids=tuple(inserted))
        state.events.append(event)
        return [event]
    return []


# ---------------------------------------------------------------------------
# full runs


def _build_result(state: SupervisorState, field: ScalarField,
                  params: SnakeParams) -> SegmentationResult:
    contours = []
    for cid in sorted(state.contours):
        c = state.contours[cid]
        pts = tuple((state.agents[a].x, state.agents[a].y) for a in c.agent_ids)
        contours.append(ContourResult(id=cid, agent_ids=tuple(c.agent_ids),
                                      points=pts))
    vals = field.values
    final_external = sum(float(vals[y, x]) for c in contours for x, y in c.points)
    n = sum(len(c.points) for c in contours)
    low = n == 0 or final_external > -LOW_CONFIDENCE_FACTOR * params.lam * n
    return SegmentationResult(
        contours=tuple(contours),
        events=tuple(state.events),
        energy_history=tuple(state.energy_history),
        iterations=state.iteration,
        converged=state.stall >= params.stall_window or not state.agents,
        low_confidence=low,
    )


def _run(state: SupervisorState, field: ScalarField,
         params: SnakeParams) -> SegmentationResult:
    state.current_energy = total_energy(state, state.positions(), field, params)
    state.energy_history.append(state.current_energy)
    while not state.converged:
        step(state, field, params)
    return _build_result(state, field, params)


def run_segmentation(img: Image, seeds, params: SnakeParams) -> SegmentationResult:
    """Segment one frame from 8 seed keypoints.

    Builds the external energy field, places the agents, and sweeps until
    the moves stall or the iteration cap is reached.
    """
    field = external_energy_map(img, params.sigma, params.lam)
    state = init_agents(seeds, params.min_contour_size, img.width, img.height)
    return _run(state, field, params)


def resume_segmentation(img: Image, carried, params: SnakeParams) -> SegmentationResult:
    """Re-converge carried-over contours on a new frame.

    `carried` is a sequence of (contour id, agent ids, points) records, for
    example ContourResults whose points were shifted by a tracking offset and
    clamped into bounds. Contour and agent ids are preserved. Coincidences
    introduced by clamping are settled before the energy history starts;
    contours that fall below min_contour_size are discarded. The result may
    contain no contours, which callers should treat as tracking lost.
    """
    field = external_energy_map(img, params.sigma, params.lam)
    state = SupervisorState(width=img.width, height=img.height)
    for rec in carried:
        contour = Contour(id=rec.id, agent_ids=list(rec.agent_ids))
        contour.canonicalize()
        state.contours[rec.id] = contour
        for aid, (x, y) in zip(rec.agent_ids, rec.points):
            x = min(max(int(x), 0), img.width - 1)
            y = min(max(int(y), 0), img.height - 1)
            state.agents[aid] = ExplorerAgent(id=aid, x=x, y=y, contour_id=rec.id)
    state.next_agent_id = max(state.agents, default=-1) + 1
    state.next_contour_id = max(state.contours, default=-1) + 1
    state.initial_agent_count = max(len(state.agents), 1)
    # settle clamp-induced coincidences and undersized contours up front so
    # the recorded energy history starts from a clean state
    _settle_clamped_coincidences(state, params)
    for cid in sorted(state.contours):
        contour = state.contours[cid]
        if len(contour.agent_ids) < params.min_contour_size:
            state.events.append(_drop_contour(state, contour))
    return _run(state, field, params)
