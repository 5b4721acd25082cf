"""Multi-agent discrete active contour with supervisor bookkeeping.

A contour is a closed cycle of explorer agents on integer pixels. Each sweep
visits agents in ascending id order (Gauss-Seidel): the agent evaluates its
local energy at its pixel and the 8 neighbors and proposes the first
minimizer in a fixed scan order. A proposal is applied only if it does not
increase the total snake energy

    E = sum_i alpha/2 |v_{i+1} - v_i|^2 + beta/2 |v_{i+1} - 2 v_i + v_{i-1}|^2
        + sum_i e(v_i)

where e is the external energy field and indices are cyclic. Energies are
exact: alpha/2, beta/2 and the field are rounded half to even onto a grid of
step 2^-32 (so a half-weight of at most 2^-33 acts as 0), every energy is an
integer number of steps, and the floats reported (current_energy, the history
and the public energy functions) are those integers divided once.

The supervisor owns collision handling: when two agents of one contour land
on the same pixel, adjacent agents merge (the later id is discarded) and
non-adjacent agents split the cycle into two arcs. Settlement happens as
part of accepting the move that created the coincidence, and the combined
move-plus-settlement energy change is what the acceptance rule gates. That
keeps the recorded energy history non-increasing by construction.

Between moves no two agents of one contour share a pixel: init_agents places
distinct pixels, a move onto a contour-mate is settled with it, a merge or
split leaves distinct pixels, and resampling skips midpoints the contour
already holds. The one exception is resume_segmentation, whose clamping of
carried points into the frame can make contour-mates coincide; it settles
those before the first sweep.

Optional resampling inserts a midpoint agent into any cyclic edge longer
than max_spacing, gated by the same non-increase rule and capped at 4x the
starting agent count.

Each visit of the sweep costs O(1). Two maps of one step call stand in for
scans of the contour: cycle_pos maps an agent id to its position in its
cycle, and occupant maps (contour id, x, y) to the agent there, since agents
of different contours may share a pixel. step builds both from the contours
and agents when it starts, re-keys an agent that moves, and re-enters the
merged contour or the new arcs after a settlement. Entries under a split or
dropped contour are never read again, because ids are never reissued.

The greedy scan is a pure function of ten integers (the agent's pixel and
the pixels of its cyclic neighbours at -2, -1, +1 and +2), the field, the
frame size, alpha and beta. When an agent's scan chooses to stay, the stay
memo keeps those ten integers for the agent, and a later visit of the agent
with the same ten integers stays without scanning. A move rejected as a
collision is not remembered: its settlement energy depends on the other
colliding agent's neighbourhood and on any arc the settlement drops, and the
ten integers hold neither. The memo is dropped with a new basis (another
field, alpha, beta or frame size). When the state then holds at least
ARRAY_SCAN_MIN_AGENTS agents, the memo is refilled at once from one int64
array scan of every agent (_stay_keys): it enters each agent none of whose
in-bounds neighbours is strictly lower, with its ten integers, which is
exactly where _best_move stays. Below that count the scan's fixed cost
exceeds the scans it spares. The scan is skipped when a bound on its energy
changes reaches 2^62, where int64 could overflow; an empty memo only costs
scans. The sweep's walk is unchanged: an agent whose ten integers changed
earlier in the sweep misses the memo and is scanned as before.

A settlement or an insertion changes only the terms of E at its seams and
the terms of the agents it adds or removes, so its energy change is computed
from those alone, in O(1) of the contour's length.

A run converges at the first sweep that changes nothing: no move or
settlement is accepted and resampling inserts no agent. That is exact, not
a heuristic. Such a sweep leaves the agents, contours, next ids and current
energy as they were when it started (a move rejected as a collision is
reverted), so the next sweep would see the same state, field and
parameters, make the same choices, re-run the same rejected insertion
trials and change nothing either: the state is a fixed point of step. A
run also converges when no agent is left; step logs CONVERGED in both
cases. A run that reaches max_iters first ends without that event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import compress
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
ENERGY_SCALE = 1 << 32  # energies are integers in steps of 1 / ENERGY_SCALE
# fewest agents for which a new basis refills the stay memo from one array
# scan (_stay_keys). Measured crossover (2-core Xeon, numpy 2.4): the scan
# costs about 0.11 ms plus 0.55 us per agent and spares a 5.5 us _best_move
# call per agent that stays, so it pays from about 22 agents when all stay
# and about 50 when half do, as in a resumed 32-agent track-square96 frame
# (17 of 32 on average)
ARRAY_SCAN_MIN_AGENTS = 64


def _iround(v: float) -> int:
    return int(math.floor(v + 0.5))


@dataclass
class SnakeParams:
    """Energy weights and run limits for the contour evolution."""

    alpha: float = 0.05
    beta: float = 0.01
    sigma: float = 1.0
    max_iters: int = 500
    max_spacing: float = 12.0
    min_contour_size: int = 4

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError("alpha and beta must be >= 0")
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            # so that a half-weight stays within 2^62 steps of the energy grid
            if value > 2.0 ** 31:
                raise ValueError(f"{name} must be <= 2**31, got {value!r}")
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
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
    """All mutable run state, one per run; agent and contour ids are never reissued."""

    width: int
    height: int
    contours: dict[int, Contour] = dc_field(default_factory=dict)
    agents: dict[int, ExplorerAgent] = dc_field(default_factory=dict)
    iteration: int = 0
    events: list[Event] = dc_field(default_factory=list)
    energy_history: list[float] = dc_field(default_factory=list)
    # the run has ended: it converged or reached max_iters
    converged: bool = False
    current_energy: float = 0.0
    next_agent_id: int = 0
    next_contour_id: int = 0
    initial_agent_count: int = 0
    # what a basis (field, alpha, beta, frame size) fixes outlives one step
    basis: tuple = dc_field(default=(), init=False, repr=False, compare=False)
    stay_memo: dict[int, tuple[int, ...]] = dc_field(
        default_factory=dict, init=False, repr=False, compare=False)
    grid: tuple = dc_field(default=(), init=False, repr=False, compare=False)
    exact_energy: int = dc_field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.next_agent_id = max(self.next_agent_id, max(self.agents, default=-1) + 1)
        self.next_contour_id = max(self.next_contour_id,
                                   max(self.contours, default=-1) + 1)

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

    iterations counts the sweeps up to and including the first one that
    changed nothing. converged is True when the last event is CONVERGED
    (that fixed point was reached or no agent was left) and False when the
    run stopped at max_iters first.
    """

    contours: tuple[ContourResult, ...]
    events: tuple[Event, ...]
    energy_history: tuple[float, ...]
    iterations: int
    converged: bool
    low_confidence: bool


# ---------------------------------------------------------------------------
# energies


def _quantize(field: ScalarField) -> np.ndarray:
    """The field on the energy grid as int64; ScalarField keeps it in [-1, 0]."""
    if field.kind != EXTERNAL_ENERGY:
        raise ValueError(f"expected an external-energy field, got {field.kind!r}")
    return np.rint(field.values * ENERGY_SCALE).astype(np.int64)


def _weights(alpha: float, beta: float) -> tuple[int, int]:
    """alpha/2 and beta/2 on the energy grid."""
    return round(alpha * ENERGY_SCALE / 2), round(beta * ENERGY_SCALE / 2)


def _energy(chains: list, pixels: list, grid: tuple) -> int:
    """The terms filed under the chains' inner points plus the field at pixels.

    An inner point files the edge to its successor and the second difference at it.
    """
    values, a, b = grid
    elastic = bending = 0
    for chain in chains:
        for (xp, yp), (x, y), (xn, yn) in zip(chain, chain[1:], chain[2:]):
            elastic += (xn - x) ** 2 + (yn - y) ** 2
            bending += (xp - 2 * x + xn) ** 2 + (yp - 2 * y + yn) ** 2
    return a * elastic + b * bending + sum(values.item(y, x) for x, y in pixels)


def _cycles(contours, positions: Mapping[int, tuple[int, int]]):
    """The contours' cycles c as closed chains c[-1:] + c + c[:1], and their pixels."""
    cycles = [[positions[aid] for aid in contour.agent_ids] for contour in contours]
    return [c[-1:] + c + c[:1] for c in cycles], [xy for c in cycles for xy in c]


def internal_energy(contour: Contour, positions: Mapping[int, tuple[int, int]],
                    alpha: float, beta: float) -> float:
    """Elastic plus bending energy of one closed contour."""
    chains, _ = _cycles([contour], positions)
    return _energy(chains, [], (None, *_weights(alpha, beta))) / ENERGY_SCALE


def external_energy(contour: Contour, positions: Mapping[int, tuple[int, int]],
                    field: ScalarField) -> float:
    """Sum of the energy field over the contour's agent pixels."""
    _, pixels = _cycles([contour], positions)
    return _energy([], pixels, (_quantize(field), 0, 0)) / ENERGY_SCALE


def total_energy(state: SupervisorState, positions: Mapping[int, tuple[int, int]],
                 field: ScalarField, params: SnakeParams) -> float:
    """Snake energy summed over every contour."""
    grid = (_quantize(field), *_weights(params.alpha, params.beta))
    return _energy(*_cycles(state.contours.values(), positions), grid) / ENERGY_SCALE


def _grid(state: SupervisorState, field: ScalarField, params: SnakeParams) -> tuple:
    """The state's grid, with the exact energy on it, made once per basis.

    A new basis also refills the stay memo, from one array scan of every
    agent once there are ARRAY_SCAN_MIN_AGENTS of them.
    """
    basis = (field, params.alpha, params.beta, state.width, state.height)
    if basis != state.basis:
        state.basis = basis
        state.grid = (_quantize(field), *_weights(params.alpha, params.beta))
        cycles = _cycles(state.contours.values(), state.positions())
        state.exact_energy = _energy(*cycles, state.grid)
        state.stay_memo = ({} if len(state.agents) < ARRAY_SCAN_MIN_AGENTS
                           else _stay_keys(state, state.grid))
    return state.grid


def _visit_key(state: SupervisorState, agent: ExplorerAgent, k: int):
    """The ten integers the greedy scan depends on besides the field and params.

    They are the agent's pixel and the pixels of its cyclic neighbours at -2,
    -1, +1 and +2, for an agent at position k of its contour's cycle.
    """
    ids = state.contours[agent.contour_id].agent_ids
    n = len(ids)
    agents = state.agents
    am2 = agents[ids[(k - 2) % n]]
    am1 = agents[ids[(k - 1) % n]]
    ap1 = agents[ids[(k + 1) % n]]
    ap2 = agents[ids[(k + 2) % n]]
    return (agent.x, agent.y, am2.x, am2.y, am1.x, am1.y, ap1.x, ap1.y, ap2.x, ap2.y)


def _axis_sums(v: int, m2: int, m1: int, p1: int, p2: int):
    """One axis's elastic and bending sums for the agent at v - 1, v and v + 1.

    The elastic sum holds the squared edge lengths to both cyclic
    neighbours, the bending sum the squared second differences centred at
    the agent and at its two neighbours. Moving the agent by t changes them
    by 2t(d - f) + 2t^2 and 2t(b1 - 2 b2 + b3) + 6t^2.
    """
    d = v - m1
    f = p1 - v
    b1 = v - 2 * m1 + m2
    b2 = p1 - 2 * v + m1
    b3 = p2 - 2 * p1 + v
    e0 = d * d + f * f
    g = 2 * (d - f)
    c0 = b1 * b1 + b2 * b2 + b3 * b3
    h = 2 * (b1 - 2 * b2 + b3)
    return (e0 - g + 2, e0, e0 + g + 2), (c0 - h + 6, c0, c0 + h + 6)


def _best_move(key: tuple[int, ...], values: np.ndarray, width: int, height: int,
               a: int, b: int) -> tuple[tuple[int, int], int]:
    """The greedy scan: its chosen pixel and the exact local energy change to it.

    key is _visit_key's ten integers; values, a and b are the quantized field
    and weights. A candidate's local energy holds every term of E that
    contains the agent's position:

        a * elastic + b * bending + values[y, x]

    Staying put is the first candidate and always in bounds, so its energy
    is the baseline of the change.
    """
    x, y, xm2, ym2, xm1, ym1, xp1, yp1, xp2, yp2 = key
    ex, bx = _axis_sums(x, xm2, xm1, xp1, xp2)
    ey, by = _axis_sums(y, ym2, ym1, yp1, yp2)
    at = values.item
    best = (x, y)
    stay_e = best_e = a * (ex[1] + ey[1]) + b * (bx[1] + by[1]) + at(y, x)
    for dx, dy in NEIGHBOR_SCAN[1:]:
        cx = x + dx
        cy = y + dy
        if not (0 <= cx < width and 0 <= cy < height):
            continue
        e = (a * (ex[dx + 1] + ey[dy + 1]) + b * (bx[dx + 1] + by[dy + 1])
             + at(cy, cx))
        if e < best_e:
            best_e = e
            best = (cx, cy)
    return best, best_e - stay_e


def _stay_keys(state: SupervisorState, grid: tuple) -> dict[int, tuple[int, ...]]:
    """The stay memo of every agent whose greedy scan stays, from one array scan.

    It evaluates for all agents at once, in int64, what _best_move evaluates
    for one: each in-bounds neighbour's exact energy change against staying,

        a * dE + b * dB + values[cy, cx] - values[y, x],

    where a move by t along an axis changes that axis's elastic and bending
    sums by t g + 2 t^2 and t h + 6 t^2 (_axis_sums, with g = 2 (2 v - m1 - p1)
    and h = 2 (m2 - 4 m1 + 6 v - 4 p1 + p2)). An agent whose every change is
    >= 0 stays under _best_move's strict-first-minimum rule and is entered
    with its _visit_key. When a (2 max|g| + 4) + b (2 max|h| + 12) + ENERGY_SCALE,
    a bound on every change, reaches 2^62 the memo is left empty: int64 could
    overflow, and an empty memo only costs scans.
    """
    values, a, b = grid
    order = [aid for c in state.contours.values() for aid in c.agent_ids]
    placed = [state.agents[aid] for aid in order]
    v = np.array([[p.x for p in placed], [p.y for p in placed]], dtype=np.int64)
    # each agent's cyclic predecessor and successor in the concatenated cycles
    lengths = np.array([len(c.agent_ids) for c in state.contours.values() if c.agent_ids])
    ends = np.cumsum(lengths)
    starts = ends - lengths
    before = np.arange(-1, len(order) - 1)
    before[starts] = ends - 1
    after = np.arange(1, len(order) + 1)
    after[ends - 1] = starts
    m2, m1, p1, p2 = (v[:, i] for i in (before[before], before, after, after[after]))
    g = 2 * (2 * v - m1 - p1)
    h = 2 * (m2 - 4 * m1 + 6 * v - 4 * p1 + p2)
    if (a * (2 * int(abs(g).max()) + 4) + b * (2 * int(abs(h).max()) + 12)
            + ENERGY_SCALE >= 1 << 62):
        return {}
    dx, dy = (np.array(t, dtype=np.int64)[:, None] for t in zip(*NEIGHBOR_SCAN[1:]))
    x, y = v
    cx, cy = x + dx, y + dy
    inside = (cx >= 0) & (cx < state.width) & (cy >= 0) & (cy < state.height)
    square = dx * dx + dy * dy
    change = (a * (dx * g[0] + dy * g[1] + 2 * square)
              + b * (dx * h[0] + dy * h[1] + 6 * square)
              + values[np.clip(cy, 0, state.height - 1), np.clip(cx, 0, state.width - 1)]
              - values[y, x])
    stays = ~((change < 0) & inside).any(axis=0)
    keys = np.vstack([v, m2, m1, p1, p2])[:, stays].tolist()
    return dict(zip(compress(order, stays.tolist()), zip(*keys)))


def propose_move(agent: ExplorerAgent, state: SupervisorState,
                 field: ScalarField, params: SnakeParams) -> tuple[int, int]:
    """Greedy local move: first strict minimizer over the 9-candidate scan.

    Candidates outside the image are skipped; ties resolve to the earliest
    candidate in the scan order, so staying put wins any tie.
    """
    k = state.contours[agent.contour_id].agent_ids.index(agent.id)
    return _best_move(_visit_key(state, agent, k), _quantize(field), state.width,
                      state.height, *_weights(params.alpha, params.beta))[0]


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
    positions (ties by radius, then id) and canonicalized. A seed that is
    not finite is a ValueError that names its index.
    """
    if len(points) != 8:
        raise ValueError(f"expected 8 seed points, got {len(points)}")
    for k, p in enumerate(points):
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise ValueError(f"seed {k} at ({p.x}, {p.y}) is not finite")
    raw = [(_iround(p.x), _iround(p.y)) for p in points]
    placed = _distinct_positions(raw, width, height, min_size)
    cx = sum(p[0] for p in placed) / len(placed)
    cy = sum(p[1] for p in placed) / len(placed)

    def angle_key(item):
        aid, (x, y) = item
        ang = math.atan2(y - cy, x - cx) % (2.0 * math.pi)
        return (ang, (x - cx) ** 2 + (y - cy) ** 2, aid)

    ordered = sorted(enumerate(placed), key=angle_key)
    contour = Contour(id=0, agent_ids=[aid for aid, _ in ordered])
    contour.canonicalize()
    agents = {aid: ExplorerAgent(id=aid, x=x, y=y, contour_id=0)
              for aid, (x, y) in enumerate(placed)}
    return SupervisorState(width=width, height=height, contours={0: contour},
                           agents=agents, initial_agent_count=len(placed))


# ---------------------------------------------------------------------------
# topology changes


def _settlement(contour: Contour, i: int, j: int, min_size: int):
    """The collision-settlement rule for agents at cyclic positions i < j.

    Adjacent agents merge: the later id leaves and the rest of the cycle is
    the one arc. Otherwise the cycle is cut into ids[i:j] and
    ids[j:] + ids[:i], so the first colliding agent goes to the first arc.
    Returns (merged position or None, kept arcs, dropped arcs), each arc the
    (start, length) of a run of cyclic positions; arcs below min_size are
    dropped.
    """
    ids = contour.agent_ids
    n = len(ids)
    if j - i == 1 or (i == 0 and j == n - 1):
        merged = i if ids[i] > ids[j] else j
        arcs = [((merged + 1) % n, n - 1)]
    else:
        merged = None
        arcs = [(i, j - i), (j, n - j + i)]
    kept, dropped = [], []
    for arc in arcs:
        (kept if arc[1] >= min_size else dropped).append(arc)
    return merged, kept, dropped


def split_contour(state: SupervisorState, contour: Contour, i: int, j: int,
                  params: SnakeParams) -> list[Event]:
    """Resolve a same-pixel collision between cyclic positions i and j.

    Applies `_settlement`: an adjacent collision deletes the later-id agent,
    a non-adjacent one closes each kept arc into a fresh contour, and a
    dropped arc or contour is discarded with its agents. Returns the events
    logged.
    """
    ids = contour.agent_ids
    n = len(ids)
    if not (0 <= i < j < n):
        raise ValueError(f"positions {i}, {j} invalid for a contour of {n} agents")
    merged, kept, dropped = _settlement(contour, i, j, params.min_contour_size)
    kept, dropped = ([(ids[start:] + ids[:start])[:length] for start, length in arcs]
                     for arcs in (kept, dropped))
    if merged is not None:
        merged = ids.pop(merged)
        events = [Event(state.iteration, DISCARD, contour_ids=(contour.id,),
                        agent_ids=(merged,))]
        del state.agents[merged]
        contour.canonicalize()
        if dropped:
            events.append(_drop_contour(state, contour))
    else:
        del state.contours[contour.id]
        new_ids = []
        for arc in kept:
            cid = state.new_contour_id()
            sub = Contour(id=cid, agent_ids=arc)
            sub.canonicalize()
            state.contours[cid] = sub
            for aid in arc:
                state.agents[aid].contour_id = cid
            new_ids.append(cid)
        events = [Event(state.iteration, SPLIT, contour_ids=(contour.id, *new_ids),
                        agent_ids=(ids[i], ids[j]))]
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


def _index_contour(contour: Contour, agents: Mapping[int, ExplorerAgent],
                   cycle_pos: dict[int, int], occupant: dict) -> None:
    """Enter every agent of the contour into the cycle-position and pixel maps."""
    cid = contour.id
    for k, aid in enumerate(contour.agent_ids):
        agent = agents[aid]
        cycle_pos[aid] = k
        occupant[(cid, agent.x, agent.y)] = aid


def _settlement_delta(state: SupervisorState, contour: Contour, i: int, j: int,
                      grid: tuple, params: SnakeParams) -> int:
    """Exact energy change the collision settlement at (i, j) would cause.

    Local: a kept arc's cycle differs from the contour only at its seam, the
    edge from its last agent back to its first, so only those two agents'
    terms change; the merged agent and every agent of a dropped arc or
    contour lose their terms and field values. That is O(1) in the contour's
    length, or under 2 * min_contour_size agents when arcs drop.
    """
    ids = contour.agent_ids
    n = len(ids)
    agents = state.agents

    def around(k):
        """Pixels of the agents at cyclic positions k - 1, k and k + 1."""
        return [(a.x, a.y) for a in (agents[ids[(k + d) % n]] for d in (-1, 0, 1))]

    merged, kept, dropped = _settlement(contour, i, j, params.min_contour_size)
    removed = [] if merged is None else [merged]
    for start, length in dropped:
        removed.extend(range(start, start + length))
    new, old = [], [around(k) for k in removed]
    lost = [mid for _, mid, _ in old]
    for start, length in kept:
        last, first = around(start + length - 1), around(start)
        new.append(last[:2] + first[1:])
        old += [last, first]
    return _energy(new, [], grid) - _energy(old, lost, grid)


# ---------------------------------------------------------------------------
# the sweep


def step(state: SupervisorState, field: ScalarField, params: SnakeParams) -> list[Event]:
    """One supervisor iteration: sweep, collision settlement, resampling.

    Returns the events logged during this call. Logs CONVERGED once a sweep
    changes nothing (no move or settlement accepted, no agent inserted) or
    no agent is left. The converged flag, which ends the run, is set then
    and at max_iters. Raises ValueError unless field is external energy.
    """
    grid = _grid(state, field, params)
    if state.converged:
        return []
    first_event = len(state.events)
    agents, contours, stay_memo = state.agents, state.contours, state.stay_memo
    cycle_pos: dict[int, int] = {}
    occupant: dict[tuple[int, int, int], int] = {}
    for contour in contours.values():
        _index_contour(contour, agents, cycle_pos, occupant)
    values, a, b = grid
    width, height = state.width, state.height
    changed = False
    for aid in sorted(agents):
        agent = agents.get(aid)
        if agent is None:
            continue  # discarded earlier in this sweep
        key = _visit_key(state, agent, cycle_pos[aid])
        if stay_memo.get(aid) == key:
            continue
        target, delta = _best_move(key, values, width, height, a, b)
        old = (agent.x, agent.y)
        if target == old:
            stay_memo[aid] = key
            continue
        cid = agent.contour_id
        other = occupant.get((cid, *target))
        if other is None:
            del occupant[(cid, *old)]
            occupant[(cid, *target)] = aid
            agent.x, agent.y = target
            state.exact_energy += delta
            changed = True
            continue
        # the move lands on a contour-mate: accept only if the move plus its
        # collision settlement does not raise the total energy
        contour = contours[cid]
        agent.x, agent.y = target
        i, j = sorted((cycle_pos[aid], cycle_pos[other]))
        settle = _settlement_delta(state, contour, i, j, grid, params)
        if delta + settle <= 0:
            del occupant[(cid, *old)]
            # re-enter what the settlement left: the merged contour or new arcs
            for kept in split_contour(state, contour, i, j, params)[0].contour_ids:
                if kept in contours:
                    _index_contour(contours[kept], agents, cycle_pos, occupant)
            state.exact_energy += delta + settle
            changed = True
        else:
            agent.x, agent.y = old
    for cid in sorted(contours):
        if resample_contour(state, contours[cid], field, params):
            changed = True
    state.iteration += 1
    state.current_energy = state.exact_energy / ENERGY_SCALE
    state.energy_history.append(state.current_energy)
    done = not changed or not state.agents
    if done:
        state.events.append(Event(state.iteration, CONVERGED,
                                  contour_ids=tuple(sorted(state.contours))))
    state.converged = done or state.iteration >= params.max_iters
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
    grid = _grid(state, field, params)
    cap = RESAMPLE_CAP_FACTOR * state.initial_agent_count
    inserted: list[int] = []
    while len(state.agents) < cap:
        ids = contour.agent_ids
        pts = [state.agents[aid].pos for aid in ids]
        taken = set(pts)
        n = len(pts)
        for k, ((ax, ay), (bx, by)) in enumerate(zip(pts, pts[1:] + pts[:1])):
            if math.hypot(bx - ax, by - ay) <= params.max_spacing:
                continue
            mid = (_iround((ax + bx) / 2.0), _iround((ay + by) / 2.0))
            if mid in taken:
                continue
            # only the terms of the edge's ends and of mid change
            chain = [pts[k - 1], pts[k], pts[(k + 1) % n], pts[(k + 2) % n]]
            longer = chain[:2] + [mid] + chain[2:]
            delta = _energy([longer], [mid], grid) - _energy([chain], [], grid)
            if delta <= 0:
                # the new id is the largest, so the cycle stays canonical
                aid = state.new_agent_id()
                state.agents[aid] = ExplorerAgent(id=aid, x=mid[0], y=mid[1],
                                                  contour_id=contour.id)
                ids.insert(k + 1, aid)
                state.exact_energy += delta
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


def _build_result(state: SupervisorState) -> SegmentationResult:
    contours = []
    for cid in sorted(state.contours):
        c = state.contours[cid]
        pts = tuple((state.agents[a].x, state.agents[a].y) for a in c.agent_ids)
        contours.append(ContourResult(id=cid, agent_ids=tuple(c.agent_ids),
                                      points=pts))
    final_external = _energy([], [p for c in contours for p in c.points], state.grid)
    n = sum(len(c.points) for c in contours)
    low = n == 0 or final_external / ENERGY_SCALE > -LOW_CONFIDENCE_FACTOR * n
    return SegmentationResult(
        contours=tuple(contours),
        events=tuple(state.events),
        energy_history=tuple(state.energy_history),
        iterations=state.iteration,
        converged=bool(state.events) and state.events[-1].kind == CONVERGED,
        low_confidence=low,
    )


def _run(state: SupervisorState, field: ScalarField,
         params: SnakeParams) -> SegmentationResult:
    _grid(state, field, params)
    state.current_energy = state.exact_energy / ENERGY_SCALE
    state.energy_history.append(state.current_energy)
    while not state.converged:
        step(state, field, params)
    return _build_result(state)


def run_segmentation(img: Image, seeds, params: SnakeParams) -> SegmentationResult:
    """Segment one frame from 8 seed keypoints.

    Builds the external energy field, places the agents, and sweeps until a
    sweep changes nothing, no agent is left or the iteration cap is reached.
    """
    field = external_energy_map(img, params.sigma)
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

    Raises ValueError, naming the record, when a record's agent ids and
    points differ in number, when an agent id or contour id appears twice or
    when a point is not finite.
    """
    field = external_energy_map(img, params.sigma)
    contours: dict[int, Contour] = {}
    agents: dict[int, ExplorerAgent] = {}
    for k, rec in enumerate(carried):
        where = f"carried record {k} (contour {rec.id})"
        if len(rec.agent_ids) != len(rec.points):
            raise ValueError(f"{where} has {len(rec.agent_ids)} agent ids "
                             f"but {len(rec.points)} points")
        if rec.id in contours:
            raise ValueError(f"{where}: contour id {rec.id} appears twice")
        contour = Contour(id=rec.id, agent_ids=list(rec.agent_ids))
        contour.canonicalize()
        contours[rec.id] = contour
        for i, (aid, (x, y)) in enumerate(zip(rec.agent_ids, rec.points)):
            if aid in agents:
                raise ValueError(f"{where}: agent id {aid} appears twice")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{where}: point {i} ({x}, {y}) is not finite")
            x = min(max(int(x), 0), img.width - 1)
            y = min(max(int(y), 0), img.height - 1)
            agents[aid] = ExplorerAgent(id=aid, x=x, y=y, contour_id=rec.id)
    state = SupervisorState(width=img.width, height=img.height, contours=contours,
                            agents=agents, initial_agent_count=max(len(agents), 1))
    # settle clamp-induced coincidences and undersized contours up front so
    # the recorded energy history starts from a clean state
    _settle_clamped_coincidences(state, params)
    for cid in sorted(state.contours):
        contour = state.contours[cid]
        if len(contour.agent_ids) < params.min_contour_size:
            state.events.append(_drop_contour(state, contour))
    return _run(state, field, params)
