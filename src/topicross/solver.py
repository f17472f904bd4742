"""Word-by-word grid filling under a topic quota.

Depth-first backtracking over slots: most-constrained slot first, topic
candidates before filler, seeded tie shuffling per restart episode. Each
episode is one loop over an explicit trail of decisions, so only memory, not
the recursion limit, bounds its depth. A fill succeeds only when every slot is
assigned and at least ``target_rate`` percent of the placed answers are topic
words. Episodes restart on a fixed cadence
(wall-clock interval, or a node budget in deterministic mode) with fresh
random states. An episode that exhausts its space ends the solve: a new
random state only reorders the same search.

Maximizing the topic share is branch and bound (Land & Doig 1960) in the same
search: each complete fill becomes the incumbent, the quota rises to one topic
answer more than it holds, and a node that can no longer reach the quota is
cut. The raised quota carries over restarts, and an episode that exhausts its
space after an incumbent exists proves the incumbent optimal.

The search state keeps each slot's domain, the mask of the answers that fit
the letters already in its cells, by forward checking (Haralick & Elliott
1980): following the grid's crossing links, a placement narrows the domain
of every unassigned slot it crosses, and undo restores the saved masks.
The quota bound is cardinality reasoning on an ``among`` constraint
(Beldiceanu & Contejean 1994). An open slot is *topic-capable* when an unused
topic answer fits its domain; no fill below a node holds more topic answers
than it has placed plus its capable slots, so a node where that sum falls
short of the quota is cut. The bound is sound because a domain only shrinks
along a branch. At zero slack, where the sum equals the quota, a filler in a
capable slot would leave the quota unreachable: such a slot searches only its
topic candidates. A node is one placed answer; the node budget and
``nodes_expanded`` count placements only.

A root with fewer capable slots than the quota is cut at its first node, so
the first episode ends ``EXHAUSTED`` with no node placed. A root at zero
slack is tested before any episode: every capable slot must take a topic
answer, so each one's domain becomes its topic answers, and arc consistency
(AC-3, Mackworth 1977) runs among them along the crossings; a domain that
empties refutes the root, and no episode runs. Either way the solve ends with
no node or restart in 0 ms (a cut first node takes microseconds of wall time).
AC-3 runs only at the root: propagating inside the search costs more than the
nodes it saves under a node budget.

``brute_force_solve`` is an independent exhaustive oracle for small instances;
it shares no search code with the main engine.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from random import Random

from .grid import SlotSet
from .lexicon import WordIndex
from .util import derive_seed


class Status(Enum):
    SUCCESS = "success"
    TIMEOUT = "timeout"
    EXHAUSTED = "exhausted"


class InstanceTooLargeError(RuntimeError):
    """Exhaustive enumeration exceeded its attempt cap."""


@dataclass(frozen=True)
class SolverConfig:
    """Search hyperparameters.

    ``target_rate`` is the required minimum percentage of topic answers among
    the placed words. Every episode shuffles candidates within the topic and
    filler groups with its own seeded random state. An exhausted search space
    is final (``EXHAUSTED``).

    When ``node_budget`` is set the solver runs in deterministic mode:
    episodes end after that many nodes (placed answers) instead of after
    ``restart_interval`` seconds, the episode count is capped at
    ``time_limit // restart_interval`` for parity with wall-clock runs, and
    reported elapsed time is a virtual clock (one full episode == one restart
    interval), so identical configs reproduce byte-identical results. The
    time limit must then be finite in milliseconds, and in either mode
    ``time_limit / restart_interval`` must be a finite episode count.
    """

    target_rate: int = 50
    time_limit: float = 300.0
    restart_interval: float = 10.0
    node_budget: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.target_rate <= 100:
            raise ValueError(f"target_rate must be in [0, 100], got {self.target_rate}")
        # written as "not > 0" so that NaN fails too
        if not (self.time_limit > 0 and self.restart_interval > 0):
            raise ValueError("time_limit and restart_interval must be positive")
        if self.restart_interval > self.time_limit:
            raise ValueError("restart_interval must not exceed time_limit")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node_budget must be >= 1 when set")
        if math.isfinite(self.time_limit) and math.isinf(self.time_limit / self.restart_interval):
            raise ValueError("time_limit / restart_interval is too many episodes to count")
        # The virtual clock sums float milliseconds up to the time limit;
        # without one it would grow with every episode, past any float.
        if self.node_budget is not None and math.isinf(self.time_limit * 1000):
            raise ValueError(
                f"the virtual clock cannot count {self.time_limit} seconds in milliseconds"
            )

    @property
    def max_episodes(self) -> int | None:
        if math.isinf(self.time_limit):
            return None
        return max(1, int(self.time_limit // self.restart_interval))


@dataclass
class FillState:
    """Mutable search state for one episode.

    The placed letters live in the domains: an unassigned slot's domain holds
    only the answers that agree with every assigned slot crossing it. At every
    node the search expands, ``topic_count`` plus the open slots that can still
    take an unused topic answer is at least ``need``. ``need`` and ``best``
    carry over from episode to episode.
    """

    need: int = 0  # topic answers a complete fill must hold
    best: dict[int, str] | None = None  # last complete fill; need - 1 topic answers
    assignment: dict[int, str] = field(default_factory=dict)  # slot_id -> answer
    topic_count: int = 0
    used: dict[int, int] = field(default_factory=dict)  # length -> mask of placed ranks
    # slot_id -> mask of the answers matching the letters in the slot's cells
    domain: list[int] = field(default_factory=list)
    nodes_expanded: int = 0


@dataclass(frozen=True)
class FillResult:
    status: Status
    assignment: dict[int, str]
    achieved_topic_ratio: float
    elapsed_ms: int
    restarts: int
    nodes_expanded: int
    config: SolverConfig

    @property
    def success(self) -> bool:
        return self.status is Status.SUCCESS


def quota_needed(total_slots: int, target_rate: int) -> int:
    """Minimum topic answers: 'at least T%' rounds up on fractional slots."""
    return -(-total_slots * target_rate // 100)


def choose_next_slot(
    state: FillState, slotset: SlotSet, index: WordIndex
) -> tuple[int, int] | None:
    """Most-constrained unassigned slot and the mask of its candidates to
    search, or ``None`` when the quota is out of reach.

    An open slot is *capable* when an unused topic answer fits its domain.
    When ``topic_count + capable < need`` no fill below this node meets the
    quota: ``None``. At zero slack (equality) a filler in a capable slot would
    leave the quota unreachable, so such a slot searches only its unused topic
    answers; its fillers are never placed and cost no node. Every other slot
    searches all the unused answers in its domain.
    The fewest candidates win; ties go to the slot crossing more unassigned
    slots, then to the lowest slot_id.
    """
    assigned = state.assignment
    used = state.used
    domain = state.domain
    topic_ends = index.topic_count
    capable = 0
    rows = []  # (slot_id, mask of unused answers, mask of unused topic answers)
    for slot in slotset.slots:
        sid = slot.slot_id
        if sid in assigned:
            continue
        free = domain[sid] & ~used.get(slot.length, 0)
        topic = free & ((1 << topic_ends.get(slot.length, 0)) - 1)
        if topic:
            capable += 1
        rows.append((sid, free, topic))
    if not rows:
        raise ValueError("no unassigned slots")
    slack = state.topic_count + capable - state.need
    if slack < 0:
        return None
    picks = []  # (candidate count, slot_id, mask to search)
    for sid, free, topic in rows:
        search = topic if topic and not slack else free
        picks.append((index.count_matches(search), sid, search))

    def degree(sid: int) -> int:
        # Each across/down pair shares at most one cell, so counting links
        # counts the unassigned slots this one crosses.
        return sum(link is not None and link[0] not in assigned for link in slotset.crossings[sid])

    best_count = min(pick[0] for pick in picks)
    _, sid, search = min(
        (pick for pick in picks if pick[0] == best_count),
        key=lambda pick: (-degree(pick[1]), pick[1]),
    )
    return sid, search


def _root_refuted(slotset: SlotSet, index: WordIndex, need: int) -> bool:
    """Whether AC-3 at zero slack proves that no fill holds ``need`` topic answers.

    At the root a slot is capable exactly when its length has topic answers.
    Only a root with exactly ``need`` capable slots is tested; with fewer, the
    capable bound cuts the first node. Every capable slot must then take a
    topic answer (Ginsberg et al. 1990): each one's domain shrinks to its
    topic answers, and arc consistency (AC-3, Mackworth 1977) runs among them
    along their crossings. A domain that empties refutes the root. Otherwise
    nothing is proven, and the search starts from the untouched root.
    """
    topic_count = index.topic_count
    slots = slotset.slots
    if sum(topic_count.get(slot.length, 0) > 0 for slot in slots) != need:
        return False
    domain = {
        slot.slot_id: (1 << topic_count[slot.length]) - 1
        for slot in slots
        if topic_count.get(slot.length, 0)
    }
    pending = set(domain)  # slots whose crossing slots may lose answers
    while pending:
        sid = pending.pop()
        pool = index.by_length[slots[sid].length]
        words = [pool[rank] for rank in index.candidates(domain[sid])]
        for j, link in enumerate(slotset.crossings[sid]):
            if link is None or link[0] not in domain:
                continue
            other, i = link
            length = slots[other].length
            supported = 0  # answers of the other slot with a letter ``words`` allow
            for letter in {word[j] for word in words}:
                supported |= index.masks.get((length, i, letter), 0)
            narrowed = domain[other] & supported
            if narrowed != domain[other]:
                if not narrowed:
                    return True
                domain[other] = narrowed
                pending.add(other)
    return False


def _run_episode(
    slotset: SlotSet,
    index: WordIndex,
    config: SolverConfig,
    state: FillState,
    rng: Random,
    deadline: float | None,
    maximize: bool,
) -> Status:
    """One search from an empty fill for ``state.need`` topic answers.

    A complete fill is stored in ``state.best`` and raises ``state.need`` past
    its topic count. Without ``maximize`` that ends the episode (``SUCCESS``);
    with it the search goes on, so ``EXHAUSTED`` means no fill beats
    ``state.best``. ``TIMEOUT`` means the budget or deadline cut it.
    """
    total = len(slotset.slots)
    budget = config.node_budget
    slots = slotset.slots
    crossings = slotset.crossings
    masks = index.masks
    state.domain = domain = [index.domain(slot.length) for slot in slots]
    # One frame per assigned slot, root first: [slot_id, length, topic end,
    # ranks left to try, rank placed, (slot_id, old domain) pairs it narrowed]
    trail: list[list] = []

    # The capable bound: choose_next_slot refutes a node where topic_count
    # plus the capable open slots falls short of need. Domains only shrink
    # along a branch, so no fill below a refuted node meets need; a complete
    # fill in maximize mode raises need, and the same test cuts against it.
    while True:
        if len(state.assignment) == total:
            if state.topic_count >= state.need:
                state.best = dict(state.assignment)
                state.need = state.topic_count + 1
                if not maximize:
                    return Status.SUCCESS
        elif (picked := choose_next_slot(state, slotset, index)) is not None:
            # Each group is reshuffled: topic-first ordering stays intact,
            # only the canonical order within a group is randomized.
            sid, search = picked
            length = slots[sid].length
            topic_end = index.topic_count.get(length, 0)
            ranks = index.candidates(search)
            split = bisect_left(ranks, topic_end)
            topic, filler = ranks[:split], ranks[split:]
            rng.shuffle(topic)
            rng.shuffle(filler)
            trail.append([sid, length, topic_end, iter(topic + filler), None, ()])

        # Backtrack to the deepest frame with a rank left, undoing each
        # placement on the way, and place that rank.
        while trail:
            sid, length, topic_end, ranks, rank, saved = frame = trail[-1]
            if rank is not None:
                for other, old in reversed(saved):
                    domain[other] = old
                state.used[length] ^= 1 << rank
                if rank < topic_end:
                    state.topic_count -= 1
                del state.assignment[sid]
            rank = next(ranks, None)
            if rank is None:
                trail.pop()
                continue
            if budget is not None and state.nodes_expanded >= budget:
                return Status.TIMEOUT
            if deadline is not None and time.monotonic() > deadline:
                return Status.TIMEOUT
            state.nodes_expanded += 1

            state.assignment[sid] = answer = index.by_length[length][rank]
            if rank < topic_end:
                state.topic_count += 1
            state.used[length] = state.used.get(length, 0) | 1 << rank
            saved = []  # (slot id, its domain before this placement)
            for letter, link in zip(answer, crossings[sid]):
                if link is not None and link[0] not in state.assignment:
                    other, pos = link
                    saved.append((other, domain[other]))
                    domain[other] &= masks.get((slots[other].length, pos, letter), 0)
            frame[4:] = rank, saved
            break
        else:
            return Status.EXHAUSTED


def solve(
    slotset: SlotSet, index: WordIndex, config: SolverConfig, maximize: bool = False
) -> FillResult:
    """Fill every slot subject to the topic quota; with ``maximize``, with as
    many topic answers as possible.

    Runs restart episodes until success, exhaustion, or the global limit; a
    root that zero-slack AC-3 refutes runs none and ends in ``EXHAUSTED``.
    Episode i shuffles candidates within the topic and filler groups with its
    own random state derived from (seed, i). An episode that exhausts its
    search space ends the solve with ``EXHAUSTED``: shuffling only reorders
    the same sound search, so no episode can find a fill there. Episodes cut
    by the node budget or the restart interval go on until the global limit,
    which ends the solve in ``TIMEOUT``.

    With ``maximize``, each episode searches for more topic answers than the
    best fill so far holds. An exhausted episode proves that fill optimal and
    ends the solve; otherwise it ends at the global limit. Either way the best
    fill found is returned as ``SUCCESS``.
    """
    total = len(slotset.slots)
    deterministic = config.node_budget is not None
    need = quota_needed(total, config.target_rate)
    best = None
    outcome = Status.EXHAUSTED
    episodes = nodes_total = 0
    virtual_ms = 0.0  # the virtual clock under a node budget, else the wall clock
    started = time.monotonic()
    # A refuted root runs no episode: EXHAUSTED, with no node or restart.
    searching = not _root_refuted(slotset, index, need)
    while searching:
        rng = Random(derive_seed(config.seed, "episode", episodes))
        state = FillState(need=need, best=best)
        deadline = None
        if not deterministic:
            deadline = min(started + config.time_limit, time.monotonic() + config.restart_interval)
        outcome = _run_episode(slotset, index, config, state, rng, deadline, maximize)
        need, best = state.need, state.best
        episodes += 1
        nodes_total += state.nodes_expanded
        if deterministic:
            virtual_ms += (
                config.restart_interval * 1000.0 * state.nodes_expanded / config.node_budget
            )
        else:
            virtual_ms = (time.monotonic() - started) * 1000
        # An exhausted episode searched the whole space; another episode
        # only reorders the same search, so no fill meets need (above an
        # incumbent, the incumbent is optimal).
        searching = outcome is Status.TIMEOUT and episodes != config.max_episodes
        if not deterministic and time.monotonic() - started >= config.time_limit:
            searching = False

    elapsed_ms = int(round(virtual_ms))
    if best is not None:
        outcome = Status.SUCCESS
        ratio = (need - 1) / total if total else 1.0
    else:
        best = {}
        ratio = 0.0
    return FillResult(
        status=outcome,
        assignment=best,
        achieved_topic_ratio=ratio,
        elapsed_ms=elapsed_ms,
        restarts=max(episodes - 1, 0),
        nodes_expanded=nodes_total,
        config=config,
    )


@dataclass(frozen=True)
class BruteForceResult:
    satisfiable: bool
    assignment: dict[int, str] | None = None


def brute_force_solve(
    slotset: SlotSet,
    index: WordIndex,
    target_rate: int,
    attempt_cap: int = 10_000_000,
) -> BruteForceResult:
    """Exhaustive oracle: enumerate per-slot answers in canonical order.

    No heuristics and no quota pruning; only letter consistency and the
    duplicate rule cut branches, and the quota is checked on complete
    assignments (rank r of length L is topic iff r < ``topic_count[L]``).
    Intended for small instances; raises
    :class:`InstanceTooLargeError` past ``attempt_cap`` attempted placements.
    """
    slots = slotset.slots
    total = len(slots)
    need = quota_needed(total, target_rate)
    if total == 0:
        return BruteForceResult(satisfiable=True, assignment={})
    pools = [index.by_length.get(slot.length, ()) for slot in slots]
    if any(not pool for pool in pools):
        return BruteForceResult(satisfiable=False)

    letters: dict[tuple[int, int], str] = {}
    used: set[str] = set()
    chosen: list[str] = []
    attempts = 0

    def enumerate_from(depth: int, topics: int) -> bool:
        nonlocal attempts
        if depth == total:
            return topics >= need
        slot = slots[depth]
        for rank, answer in enumerate(pools[depth]):
            attempts += 1
            if attempts > attempt_cap:
                raise InstanceTooLargeError(f"exceeded {attempt_cap} placement attempts")
            if answer in used:
                continue
            new_cells = []
            ok = True
            for i, cell in enumerate(slot.cells):
                have = letters.get(cell)
                if have is None:
                    letters[cell] = answer[i]
                    new_cells.append(cell)
                elif have != answer[i]:
                    ok = False
                    break
            if ok:
                chosen.append(answer)
                used.add(answer)
                if enumerate_from(depth + 1, topics + (rank < index.topic_count[slot.length])):
                    return True
                used.discard(answer)
                chosen.pop()
            for cell in new_cells:
                del letters[cell]
        return False

    if enumerate_from(0, 0):
        return BruteForceResult(
            satisfiable=True,
            assignment={slot.slot_id: answer for slot, answer in zip(slots, chosen)},
        )
    return BruteForceResult(satisfiable=False)
