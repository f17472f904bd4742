"""Backtracking fill: quota math, heuristics, restarts, and oracle agreement."""

import gc
import hashlib
import math
import random
import sys
from dataclasses import replace

import pytest

from conftest import UNLIMITED, make_lexicon, random_small_instance
from topicross import solver as solver_module
from topicross.grid import extract_slots, generate_random_patterns, parse_pattern
from topicross.lexicon import Source, build_index, ingest_records
from topicross.puzzle import assemble, verify_puzzle
from topicross.solver import (
    BruteForceResult,
    FillState,
    InstanceTooLargeError,
    SolverConfig,
    Status,
    brute_force_solve,
    choose_next_slot,
    quota_needed,
    solve,
)


def lex_index(words):
    records = [(w, src, tuple(clues)) for w, src, clues in words]
    lexicon = ingest_records(records)
    return lexicon, build_index(lexicon)


def slot_domain(index, slot, letters):
    """Domain of ``slot`` from scratch: the answers fitting the letters in its cells."""
    fixed = [(i, letters[cell]) for i, cell in enumerate(slot.cells) if cell in letters]
    return index.domain(slot.length, fixed)


def placed_letters(slotset, assignment):
    """Cell -> letter of every assigned answer, rebuilt from the slots' cells."""
    return {
        cell: letter
        for sid, answer in assignment.items()
        for cell, letter in zip(slotset.slots[sid].cells, answer)
    }


def state_with(slotset, index, assignment=None, letters=None, topic_count=0):
    """A search state whose domains are seeded from ``letters``, as an
    episode seeds them from its (empty) letters at the root."""
    letters = letters or {}
    return FillState(
        assignment=assignment or {},
        topic_count=topic_count,
        domain=[slot_domain(index, slot, letters) for slot in slotset.slots],
    )


def doomed_filler_instance():
    """The 2x2 grid over the topic words AB, BD and CD and the fillers BB and
    BC. No fill holds three topic answers, and the root has slack: all four
    slots can take a topic word."""
    _, index = lex_index(
        [(w, Source.TOPIC, ()) for w in ["AB", "BD", "CD"]]
        + [(w, Source.FILLER, ()) for w in ["BB", "BC"]]
    )
    return extract_slots(parse_pattern("..\n..")), index


class TestQuota:
    def test_needed_rounds_up(self):
        assert quota_needed(10, 50) == 5
        assert quota_needed(11, 50) == 6
        assert quota_needed(10, 0) == 0
        assert quota_needed(3, 100) == 3


class TestChooseNextSlot:
    def test_fewest_candidates_wins(self):
        # two independent across slots; pin slot 0's first letter to Z so it
        # has one candidate while slot 1 keeps seven
        _, index = lex_index(
            [
                (w, Source.FILLER, ())
                for w in ["AB", "AC", "AD", "BC", "BD", "CD", "ZA"]
            ]
        )
        slotset = extract_slots(parse_pattern("..#.."))
        state = state_with(slotset, index, letters={(0, 0): "Z"})
        assert index.count_matches(index.domain(2, [(0, "Z")])) == 1
        sid, *_ = choose_next_slot(state, slotset, index)
        assert sid == 0
        # and with the letter on the other slot instead, the pick follows
        state = state_with(slotset, index, letters={(0, 3): "Z"})
        sid, *_ = choose_next_slot(state, slotset, index)
        assert sid == 1
        # with AB..CD (ranks 0-5) placed elsewhere both slots keep only ZA,
        # and the tie goes to the lowest id
        state.used[2] = 0b111111
        assert index.count_matches(index.domain(2) & ~state.used[2]) == 1
        sid, *_ = choose_next_slot(state, slotset, index)
        assert sid == 0

    def test_uniform_tie_breaks_to_lowest_id(self):
        _, index = lex_index(
            [(w, Source.FILLER, ()) for w in ["AB", "BA", "AA", "BB"]]
        )
        slotset = extract_slots(parse_pattern("..\n.."))
        sid, *_ = choose_next_slot(state_with(slotset, index), slotset, index)
        assert sid == 0

    def test_dead_slot_forces_backtrack(self):
        _, index = lex_index([(w, Source.FILLER, ()) for w in ["AB", "BA"]])
        slotset = extract_slots(parse_pattern("..\n.."))
        state = state_with(slotset, index, letters={(0, 0): "Z"})  # no word starts with Z
        chosen, *_ = choose_next_slot(state, slotset, index)
        slot = slotset.slots[chosen]
        assert (0, 0) in slot.cells
        fixed = [(i, "Z") for i, cell in enumerate(slot.cells) if cell == (0, 0)]
        assert index.count_matches(index.domain(slot.length, fixed)) == 0

    def test_degree_tiebreak(self):
        # 3x3 with a black corner: across 0-2 are rows, down 3-5 are columns.
        # Two words per length tie every slot on candidate count.
        _, index = lex_index(
            [(w, Source.FILLER, ()) for w in ["AAA", "AAB", "AA", "AB"]]
        )
        slotset = extract_slots(parse_pattern("...\n...\n..#"))
        assert [s.length for s in slotset.slots] == [3, 3, 2, 3, 3, 2]
        # slots 0, 1, 3 and 4 each cross three others; the lowest id wins
        sid, *_ = choose_next_slot(state_with(slotset, index), slotset, index)
        assert sid == 0
        # with slot 5 assigned (no letters placed) rows 0 and 1 cross two
        # unassigned slots and columns 3 and 4 still cross three
        state = state_with(slotset, index, assignment={5: None})
        sid, *_ = choose_next_slot(state, slotset, index)
        assert sid == 3

    def test_too_few_capable_slots_refute_the_node(self):
        # Both slots are open, enough for a quota of two, but slot 1 starts
        # with Z and the only Z answer is a filler: one slot is capable.
        _, index = lex_index(
            [("AB", Source.TOPIC, ()), ("CD", Source.TOPIC, ()), ("ZA", Source.FILLER, ())]
        )
        slotset = extract_slots(parse_pattern("..#.."))
        state = state_with(slotset, index, letters={(0, 3): "Z"})
        state.need = 2
        assert choose_next_slot(state, slotset, index) is None
        # with a quota of one the capable slot 0 gives slack, so slot 1
        # searches its one unused answer ZA
        state.need = 1
        assert choose_next_slot(state, slotset, index) == (1, state.domain[1])
        # with AB and CD placed elsewhere (ranks 0 and 1 used) no slot is
        # capable, so even a quota of one is out of reach
        state.used[2] = 0b11
        assert choose_next_slot(state, slotset, index) is None

    def test_zero_slack_counts_topic_candidates_and_dooms_fillers(self):
        # slot 0 (Q.) holds only the fillers QA and QB, so it is not capable;
        # slot 1 (A.) holds the topics AB and AC; slot 2 (Z.) holds the topic
        # ZA and the fillers ZB, ZC and ZD.
        _, index = lex_index(
            [(w, Source.TOPIC, ()) for w in ("AB", "AC", "ZA")]
            + [(w, Source.FILLER, ()) for w in ("QA", "QB", "ZB", "ZC", "ZD")]
        )
        slotset = extract_slots(parse_pattern("..#..#.."))
        letters = {(0, 0): "Q", (0, 3): "A", (0, 6): "Z"}
        state = state_with(slotset, index, letters=letters)
        assert [index.count_matches(d) for d in state.domain] == [2, 2, 4]
        bit = {answer: 1 << rank for rank, answer in enumerate(index.by_length[2])}
        # with slack every slot counts all its candidates: Q. and A. tie
        state.need = 1
        assert choose_next_slot(state, slotset, index) == (0, bit["QA"] | bit["QB"])
        # at zero slack the capable slots count only their topics (2 and 1):
        # Z. wins and searches ZA alone, without its three fillers
        state.need = 2
        assert choose_next_slot(state, slotset, index) == (2, bit["ZA"])
        # with QB used Q. ties Z. at one candidate and wins on its id; it is
        # not capable, so it searches its filler QA
        state.used[2] = bit["QB"]
        assert choose_next_slot(state, slotset, index) == (0, bit["QA"])

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_slack_search_holds_only_topic_ranks(self, seed):
        # One open 3-letter slot at a quota of one: it is the only capable
        # slot, so the node is at zero slack and the slot searches only its
        # unused topic answers, in canonical order, leaving its fillers out.
        words = sorted({f"{a}{b}{c}" for a in "ABCD" for b in "ABCD" for c in "ABC"})
        _, index = lex_index(
            [(w, Source.TOPIC if i % 3 == 0 else Source.FILLER, ()) for i, w in enumerate(words)]
        )
        n_topic = index.topic_count[3]
        assert 0 < n_topic < len(index.by_length[3])
        slotset = extract_slots(parse_pattern("..."))
        pick = random.Random(seed)
        state = state_with(slotset, index, letters={(0, 1): pick.choice("ABCD")})
        state.need = 1
        state.used[3] = used = sum(1 << r for r in pick.sample(range(len(words)), 5))
        free = index.candidates(state.domain[0] & ~used)
        sid, search = choose_next_slot(state, slotset, index)
        ranks = index.candidates(search)
        assert sid == 0 and ranks
        assert ranks == [r for r in free if r < n_topic]
        assert sum(r >= n_topic for r in free) > 1


class TestForwardChecking:
    def test_domains_match_the_placed_letters_at_every_node(self, monkeypatch):
        # Wrap MRV, which runs once per real node, and recompute every open
        # slot's domain from the letters the assigned answers put in its cells.
        real_choose = solver_module.choose_next_slot
        checked = []
        narrowed = []

        def checking_choose(state, slotset, index):
            letters = placed_letters(slotset, state.assignment)
            for slot in slotset.slots:
                if slot.slot_id not in state.assignment:
                    expected = slot_domain(index, slot, letters)
                    assert state.domain[slot.slot_id] == expected
                    narrowed.append(expected != index.domain(slot.length))
            checked.append(len(state.assignment))
            return real_choose(state, slotset, index)

        monkeypatch.setattr(solver_module, "choose_next_slot", checking_choose)
        rng = random.Random(31)
        for _ in range(50):
            _, slotset, _, index = random_small_instance(rng)
            for rate in (0, 50, 100):
                config = SolverConfig(
                    target_rate=rate, node_budget=200, time_limit=20, restart_interval=10,
                    seed=rng.randrange(1000),
                )
                solve(slotset, index, config)
        # the sample reaches deep nodes, where crossings have narrowed domains
        assert len(checked) > 400 and max(checked) >= 4 and sum(narrowed) > 400


class TestNodeUnit:
    @pytest.mark.parametrize(
        "clock",
        [
            {"node_budget": 25, "time_limit": 30, "restart_interval": 10},
            {"node_budget": None, "time_limit": 0.2, "restart_interval": 0.05},
        ],
        ids=["budget", "wall-clock"],
    )
    def test_nodes_expanded_counts_placements(self, monkeypatch, clock):
        # A node is one placed answer. Every placement leads either to a
        # choose_next_slot call below the root or to a complete fill, which
        # ends the solve outside maximize mode; counting those apart from the
        # solver must give its nodes_expanded, cut episodes included. The
        # sample must reach zero-slack picks that leave fillers unplaced.
        real_choose = solver_module.choose_next_slot
        below_root = 0
        left_out = 0

        def counting_choose(state, slotset, index):
            nonlocal below_root, left_out
            below_root += bool(state.assignment)
            picked = real_choose(state, slotset, index)
            if picked is not None:
                sid, search = picked
                free = state.domain[sid] & ~state.used.get(slotset.slots[sid].length, 0)
                left_out += bool(free & ~search)
            return picked

        monkeypatch.setattr(solver_module, "choose_next_slot", counting_choose)
        rng = random.Random(41)
        outcomes = set()
        for _ in range(40):
            _, slotset, _, index = random_small_instance(rng)
            for rate in (25, 50, 75, 100):
                below_root = 0
                config = SolverConfig(target_rate=rate, seed=rng.randrange(1000), **clock)
                result = solve(slotset, index, config)
                assert result.nodes_expanded == below_root + result.success
                outcomes.add(result.status)
        assert left_out > 50
        if clock["node_budget"] is not None:
            assert outcomes == set(Status)


class TestRootRefutation:
    def test_zero_slack_root_refutation_is_sound(self):
        # Every root the check refutes must have no fill meeting the quota,
        # and the sample must reach zero-slack roots it refutes.
        rng = random.Random(0)
        refuted = 0
        for _ in range(400):
            _, slotset, _, index = random_small_instance(rng)
            capable = sum(index.topic_count.get(s.length, 0) > 0 for s in slotset.slots)
            for rate in (0, 25, 50, 75, 100):
                need = quota_needed(len(slotset.slots), rate)
                if capable == need and solver_module._root_refuted(slotset, index, need):
                    refuted += 1
                    assert not brute_force_solve(slotset, index, rate).satisfiable, (
                        f"refuted a satisfiable root at T={rate} on {slotset.slots}"
                    )
        assert refuted >= 100

    def test_refuted_root_costs_nothing(self):
        # All four slots must take a topic answer and only AB is one: AB in
        # row 0 puts B where column 1 needs A, so AC-3 empties a domain and
        # the solve ends before its first episode, on either clock.
        _, index = lex_index(
            [("AB", Source.TOPIC, ())] + [(w, Source.FILLER, ()) for w in ["CD", "AC", "BD"]]
        )
        slotset = extract_slots(parse_pattern("..\n.."))
        wall_clock = SolverConfig(target_rate=100, time_limit=30, restart_interval=10)
        for config in (wall_clock, replace(wall_clock, node_budget=2)):
            result = solve(slotset, index, config)
            assert (
                result.status, result.assignment, result.nodes_expanded, result.restarts,
                result.elapsed_ms,
            ) == (Status.EXHAUSTED, {}, 0, 0, 0)


    def test_seeded_outcomes_are_pinned(self):
        # Deterministic solves over seeded random instances, at every quota
        # from 0% to 100%, with and without maximize, under a node budget
        # that cuts some episodes. The sample reaches every status and every
        # root case: too few capable slots, refuted by zero-slack AC-3, and
        # zero slack but not refuted.
        rng = random.Random(2024)
        outcomes = []
        statuses = set()
        roots = set()
        for _ in range(60):
            _, slotset, _, index = random_small_instance(rng)
            capable = sum(index.topic_count.get(s.length, 0) > 0 for s in slotset.slots)
            seed = rng.randrange(1000)
            for rate in (0, 25, 50, 75, 100):
                need = quota_needed(len(slotset.slots), rate)
                if capable < need:
                    roots.add("short")
                elif capable == need:
                    refuted = solver_module._root_refuted(slotset, index, need)
                    roots.add("refuted" if refuted else "zero slack")
                config = SolverConfig(
                    target_rate=rate, node_budget=5, time_limit=30, restart_interval=10,
                    seed=seed,
                )
                for maximize in (False, True):
                    r = solve(slotset, index, config, maximize=maximize)
                    statuses.add(r.status)
                    outcomes.append((
                        r.status.value, sorted(r.assignment.items()), r.achieved_topic_ratio,
                        r.elapsed_ms, r.restarts, r.nodes_expanded,
                    ))
        assert statuses == set(Status)
        assert roots == {"short", "refuted", "zero slack"}
        assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == (
            "ce9ef944687de2c46d15dc99e12013191df372809382d090c4fc7e50906263d5"
        )


class TestSolveSmall:
    def test_single_slot_topic(self):
        _, index = lex_index([("AB", Source.TOPIC, ())])
        slotset = extract_slots(parse_pattern(".."))
        result = solve(slotset, index, replace(UNLIMITED, target_rate=100))
        assert result.status is Status.SUCCESS
        assert result.assignment == {0: "AB"}
        assert result.achieved_topic_ratio == 1.0

    def test_filler_only_full_quota_is_refuted_at_the_root(self):
        # no slot can take a topic answer, so the root is cut before any node
        _, index = lex_index([(w, Source.FILLER, ()) for w in ["AB", "CD", "AC", "BD"]])
        slotset = extract_slots(parse_pattern("..\n.."))
        result = solve(slotset, index, replace(UNLIMITED, target_rate=100))
        assert (result.status, result.nodes_expanded, result.restarts) == (
            Status.EXHAUSTED, 0, 0
        )

    @pytest.mark.parametrize("maximize", [False, True])
    @pytest.mark.parametrize("node_budget", [None, 2], ids=["wall-clock", "budget"])
    def test_filler_only_full_quota_costs_nothing(self, node_budget, maximize):
        # No slot can take a topic answer, so the first node is cut: on
        # either clock, with or without maximize, the solve ends exhausted
        # with no fill, node, restart or elapsed time.
        _, index = lex_index([(w, Source.FILLER, ()) for w in ["AB", "CD", "AC", "BD"]])
        slotset = extract_slots(parse_pattern("..\n.."))
        config = SolverConfig(
            target_rate=100, time_limit=30, restart_interval=10, node_budget=node_budget
        )
        result = solve(slotset, index, config, maximize=maximize)
        assert (
            result.status, result.assignment, result.achieved_topic_ratio, result.elapsed_ms,
            result.restarts, result.nodes_expanded,
        ) == (Status.EXHAUSTED, {}, 0.0, 0, 0, 0)

    def test_filler_only_never_meets_full_quota(self):
        _, index = lex_index([(w, Source.FILLER, ()) for w in ["AB", "CD", "AC", "BD"]])
        slotset = extract_slots(parse_pattern("..\n.."))
        result = solve(slotset, index, replace(UNLIMITED, target_rate=100))
        assert result.status is Status.EXHAUSTED
        randomized = SolverConfig(
            target_rate=100, node_budget=500, time_limit=30, restart_interval=10
        )
        result = solve(slotset, index, randomized)
        assert (result.status, result.restarts) == (Status.EXHAUSTED, 0)

    def test_2x2_unique_fill(self, tiny_lexicon):
        _, index = tiny_lexicon
        slotset = extract_slots(parse_pattern("..\n.."))
        result = solve(slotset, index, UNLIMITED)
        assert result.status is Status.SUCCESS
        # the across and down words may swap: the two fills are transposes
        assert result.assignment in (
            {0: "AB", 1: "CD", 2: "AC", 3: "BD"},
            {0: "AC", 1: "BD", 2: "AB", 3: "CD"},
        )

    def test_empty_grid(self):
        _, index = lex_index([("AB", Source.FILLER, ())])
        slotset = extract_slots(parse_pattern("##\n##"))
        wall_clock = SolverConfig(target_rate=100, time_limit=30, restart_interval=10)
        for config in (wall_clock, replace(wall_clock, node_budget=10)):
            result = solve(slotset, index, config)
            assert result.status is Status.SUCCESS
            assert result.assignment == {}
            assert result.achieved_topic_ratio == 1.0
            assert result.nodes_expanded == 0
            assert result.restarts == 0

    def test_empty_index(self):
        _, index = lex_index([])
        slotset = extract_slots(parse_pattern(".."))
        assert solve(slotset, index, UNLIMITED).status is Status.EXHAUSTED

    def test_topic_word_preferred(self):
        _, index = lex_index([("AB", Source.TOPIC, ()), ("AC", Source.FILLER, ())])
        slotset = extract_slots(parse_pattern(".."))
        result = solve(slotset, index, UNLIMITED)
        assert result.assignment == {0: "AB"}

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SolverConfig(target_rate=101)
        with pytest.raises(ValueError):
            SolverConfig(target_rate=-1)
        with pytest.raises(ValueError):
            SolverConfig(restart_interval=20, time_limit=10)
        with pytest.raises(ValueError):
            SolverConfig(node_budget=0)
        for nan in ({"time_limit": math.nan}, {"restart_interval": math.nan}):
            with pytest.raises(ValueError, match="must be positive"):
                SolverConfig(**nan)

    def test_clock_overflow_configs(self):
        # The episode cap and the virtual clock turn floats into ints, so
        # neither may be infinite.
        for mode in ({}, {"node_budget": 10}):
            with pytest.raises(ValueError, match="too many episodes to count"):
                SolverConfig(time_limit=1e308, restart_interval=1e-308, **mode)
        for clock in (
            {"time_limit": math.inf, "restart_interval": math.inf},
            {"time_limit": math.inf, "restart_interval": 1e305},
            {"time_limit": math.inf},
            {"time_limit": 1e308, "restart_interval": 1e308},
            {"time_limit": 1e306, "restart_interval": 10},
        ):
            with pytest.raises(ValueError, match="virtual clock cannot count"):
                SolverConfig(node_budget=10, **clock)
        # The wall clock takes limits the virtual clock cannot count, and no
        # time limit at all.
        assert SolverConfig(time_limit=math.inf, restart_interval=math.inf).max_episodes is None
        assert SolverConfig(time_limit=1e308, restart_interval=1e308).max_episodes == 1
        assert SolverConfig(time_limit=1e305, restart_interval=1e-3, node_budget=10).max_episodes

    def test_no_search_state_outlives_solve(self):
        # With the cyclic collector off, an episode's FillState is freed only
        # if no reference cycle holds it. Each outcome is covered: a fill, an
        # exhausted search, and episodes cut by the node budget.
        slotset, index = doomed_filler_instance()
        configs = [
            replace(UNLIMITED, target_rate=0),
            replace(UNLIMITED, target_rate=75),
            SolverConfig(target_rate=75, node_budget=2, time_limit=30, restart_interval=10),
        ]
        gc.collect()
        gc.disable()
        try:
            outcomes = [solve(slotset, index, config).status for config in configs]
            alive = [obj for obj in gc.get_objects() if isinstance(obj, FillState)]
        finally:
            gc.enable()
        assert outcomes == [Status.SUCCESS, Status.EXHAUSTED, Status.TIMEOUT]
        assert alive == []


class TestDeepSearch:
    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        # 36 blocks of 3x3 white cells: 216 slots, each one level deeper
        side = 23
        rows = ["#" * side if r % 4 == 3 else ("...#" * 6)[:side] for r in range(side)]
        slotset = extract_slots(parse_pattern("\n".join(rows)))
        _, index = make_lexicon(100, 1400, seed=5, alphabet="ABCDEFGHIJKLMNOP", lengths=(3,))
        config = SolverConfig(target_rate=20, node_budget=5000, time_limit=10, restart_interval=10)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        headroom = 100
        assert len(slotset.slots) > headroom
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + headroom)
        try:
            result = solve(slotset, index, config)
        finally:
            sys.setrecursionlimit(limit)
        # one episode, 21 placements undone on the way to the fill
        assert (result.status, result.nodes_expanded) == (Status.SUCCESS, 237)
        assert len(result.assignment) == 216


class TestRestarts:
    def test_success_in_first_episode(self):
        _, index = lex_index([("AB", Source.TOPIC, ())])
        slotset = extract_slots(parse_pattern(".."))
        result = solve(slotset, index, SolverConfig(target_rate=0, seed=5))
        assert result.success and result.restarts == 0

    def test_deterministic_episode_cap(self):
        # Exhausting this space takes seven nodes (see the test below), so a
        # budget of two cuts every episode and the solve runs to the cap.
        slotset, index = doomed_filler_instance()
        config = SolverConfig(
            target_rate=75, node_budget=2, time_limit=30, restart_interval=10
        )
        result = solve(slotset, index, config)
        assert result.status is Status.TIMEOUT
        assert result.restarts + 1 == config.max_episodes == 3

    @pytest.mark.parametrize(
        "node_budget, nodes, elapsed_ms",
        [(5, 15, 30_000), (7, 7, 10_000), (12, 7, 5_833)],
    )
    def test_budget_cut_among_quota_doomed_fillers(self, node_budget, nodes, elapsed_ms):
        # At 75% three of the four slots must take one of the topic words AB,
        # BD and CD. Each topic word in slot 0 is a dead end one node deep, so
        # an episode spends three nodes on them. A filler BB or BC there (one
        # node each) leaves zero slack: slot 2 (B.) searches BD alone (one
        # node, refuted) and never places its other filler, so 3 + 2 * 2 = 7
        # placements exhaust the space. A budget of 5 cuts each of the three
        # episodes at 5 nodes, 15 in all, each charged a full 10 s interval.
        # A budget of 7 or more lets the first episode exhaust the space,
        # which ends the solve: 7 nodes charged 10 s * 7 / budget (5,833 ms
        # at 12, rounded).
        slotset, index = doomed_filler_instance()
        config = SolverConfig(
            target_rate=75, node_budget=node_budget, time_limit=30, restart_interval=10
        )
        result = solve(slotset, index, config)
        status, restarts = (Status.TIMEOUT, 2) if node_budget < 7 else (Status.EXHAUSTED, 0)
        assert (result.status, result.nodes_expanded, result.elapsed_ms, result.restarts) == (
            status, nodes, elapsed_ms, restarts
        )

    def test_wall_clock_unsat_times_out_quickly(self):
        # an exhausted space ends a wall-clock solve at once, without restarts
        _, index = lex_index([(w, Source.FILLER, ()) for w in ["AB", "CD", "AC", "BD"]])
        slotset = extract_slots(parse_pattern("..\n.."))
        config = SolverConfig(target_rate=100, time_limit=30, restart_interval=10)
        result = solve(slotset, index, config)
        assert (result.status, result.restarts) == (Status.EXHAUSTED, 0)

    def test_deterministic_mode_reproducible(self):
        rng = random.Random(77)
        _, slotset, _, index = random_small_instance(rng)
        config = SolverConfig(
            target_rate=50, node_budget=300, time_limit=60, restart_interval=10, seed=123
        )
        a = solve(slotset, index, config)
        b = solve(slotset, index, config)
        assert a == b

    def test_unlimited_budget_with_randomization_terminates(self):
        # exhausting the space under an unlimited budget must not re-run forever
        _, index = lex_index([(w, Source.FILLER, ()) for w in ["AB", "CD", "AC", "BD"]])
        slotset = extract_slots(parse_pattern("..\n.."))
        config = SolverConfig(
            target_rate=100,
            time_limit=math.inf,
            restart_interval=math.inf,
        )
        result = solve(slotset, index, config)
        assert result.status is Status.EXHAUSTED

    def test_virtual_clock_bounds(self):
        # Every episode of a cut solve is charged at most one restart
        # interval, so the virtual clock never passes the time limit.
        slotset, index = doomed_filler_instance()
        for node_budget in range(1, 12):
            config = SolverConfig(
                target_rate=75, node_budget=node_budget, time_limit=30, restart_interval=10
            )
            result = solve(slotset, index, config)
            assert result.nodes_expanded <= node_budget * config.max_episodes
            assert result.elapsed_ms <= 30_000


class TestAgainstOracle:
    def test_brute_force_examples(self, tiny_lexicon):
        _, index = tiny_lexicon
        slotset = extract_slots(parse_pattern("..\n.."))
        result = brute_force_solve(slotset, index, 0)
        assert result == BruteForceResult(
            satisfiable=True, assignment={0: "AB", 1: "CD", 2: "AC", 3: "BD"}
        )
        assert brute_force_solve(slotset, index, 50).satisfiable is False
        _, empty = lex_index([])
        assert brute_force_solve(slotset, empty, 0).satisfiable is False

    def test_instance_too_large(self):
        _, index = lex_index([(w, Source.FILLER, ()) for w in ["AB", "CD", "AC", "BD"]])
        slotset = extract_slots(parse_pattern("..\n.."))
        with pytest.raises(InstanceTooLargeError):
            brute_force_solve(slotset, index, 0, attempt_cap=2)

    def test_completeness_on_random_instances(self):
        rng = random.Random(2024)
        for _ in range(40):
            _, slotset, lexicon, index = random_small_instance(rng)
            for rate in (0, 50, 100):
                oracle = brute_force_solve(slotset, index, rate)
                result = solve(slotset, index, replace(UNLIMITED, target_rate=rate))
                assert result.success == oracle.satisfiable, (
                    f"disagreement at T={rate} on {slotset.slots}"
                )

    def test_monotonic_in_target_rate(self):
        rng = random.Random(55)
        checked = 0
        for _ in range(25):
            _, slotset, _, index = random_small_instance(rng)
            result = solve(slotset, index, replace(UNLIMITED, target_rate=100))
            if not result.success:
                continue
            checked += 1
            for rate in (80, 50, 20, 0):
                assert solve(
                    slotset, index, replace(UNLIMITED, target_rate=rate)
                ).success
        # the sample must actually exercise the implication
        assert checked >= 1

    def test_success_passes_independent_verifier(self):
        rng = random.Random(8)
        verified = 0
        for _ in range(25):
            pattern, slotset, lexicon, index = random_small_instance(rng)
            config = replace(UNLIMITED, target_rate=50)
            result = solve(slotset, index, config)
            if not result.success:
                continue
            puzzle = assemble(pattern, slotset, result, lexicon)
            report = verify_puzzle(puzzle, lexicon, 50)
            assert report.ok, report.violations
            verified += 1
        assert verified >= 5

    def test_no_duplicate_answers_by_default(self):
        rng = random.Random(14)
        for _ in range(20):
            _, slotset, _, index = random_small_instance(rng)
            result = solve(slotset, index, UNLIMITED)
            if result.success:
                answers = list(result.assignment.values())
                assert len(answers) == len(set(answers))

    def test_duplicates_allowed_when_flagged(self):
        # there is no flag any more: "AA" fits all four slots of a 2x2 grid,
        # but may be used only once, so neither solver fills it
        _, index = lex_index([("AA", Source.FILLER, ())])
        slotset = extract_slots(parse_pattern("..\n.."))
        assert solve(slotset, index, UNLIMITED).status is Status.EXHAUSTED
        assert brute_force_solve(slotset, index, 0).satisfiable is False


class TestMaximizeTopicRate:
    def test_all_topic_lexicon(self, tiny_lexicon):
        lexicon, _ = tiny_lexicon
        records = [(answer, Source.TOPIC, ()) for answer in sorted(lexicon)]
        index = build_index(ingest_records(records))
        slotset = extract_slots(parse_pattern("..\n.."))
        result = solve(slotset, index, UNLIMITED, maximize=True)
        assert result.success and result.achieved_topic_ratio == 1.0

    def test_filler_only_returns_zero_ratio(self, tiny_lexicon):
        _, index = tiny_lexicon
        slotset = extract_slots(parse_pattern("..\n.."))
        result = solve(slotset, index, UNLIMITED, maximize=True)
        assert result.success and result.achieved_topic_ratio == 0.0

    def test_proven_optimum_ends_the_solve(self):
        # either 2x2 fill holds three of the topic words AB, CD, AC and the
        # filler BD, so the first episode finds 3 of 4 and exhausts above it
        _, index = lex_index(
            [(w, Source.TOPIC, ()) for w in ("AB", "CD", "AC")] + [("BD", Source.FILLER, ())]
        )
        slotset = extract_slots(parse_pattern("..\n.."))
        config = SolverConfig(target_rate=0, time_limit=30, restart_interval=10, node_budget=100)
        result = solve(slotset, index, config, maximize=True)
        assert (result.status, result.achieved_topic_ratio) == (Status.SUCCESS, 0.75)
        assert result.restarts == 0

    def test_matches_exhaustive_maximum(self):
        rng = random.Random(63)
        compared = 0
        for _ in range(12):
            _, slotset, _, index = random_small_instance(rng)
            if len(slotset.slots) > 6:
                continue
            best = _exhaustive_best_ratio(slotset, index)
            if best is None:
                continue
            result = solve(slotset, index, UNLIMITED, maximize=True)
            assert result.success
            assert result.achieved_topic_ratio == pytest.approx(best)
            compared += 1
        assert compared >= 3

    def test_exhaustive_maximum_on_eleven_slots(self):
        # 3 of 11 topic answers is 27%; a target raised 10 points to 37%
        # needs 5 of 11, which skips the maximum of 4
        topic = "BEEC BBBB DAAB AA CDEE CCBDC ACEC BC CA BEEAB ADCEB CB"
        filler = (
            "ADB AADDD DB DADAD CBCB AAB EBBC EABE EBABC AEDCB BCAAB BBCA AE DDEE BA "
            "EAA BEE AB BAB DAAC"
        )
        _, index = lex_index(
            [(w, Source.TOPIC, ()) for w in topic.split()]
            + [(w, Source.FILLER, ()) for w in filler.split()]
        )
        slotset = extract_slots(parse_pattern(".....\n..#..\n.#.#.\n.#...\n#...#"))
        assert len(slotset.slots) == 11
        assert quota_needed(11, 36) == 4 and quota_needed(11, 37) == 5
        assert brute_force_solve(slotset, index, 36).satisfiable
        assert not brute_force_solve(slotset, index, 37).satisfiable
        result = solve(slotset, index, UNLIMITED, maximize=True)
        assert result.status is Status.SUCCESS
        assert result.achieved_topic_ratio == 4 / 11

    def test_cut_episodes_return_the_incumbent(self):
        lexicon, index = make_lexicon(300, 3000, seed=5)
        pattern = generate_random_patterns(5, 5, 4, count=1, seed=1)[0]
        slotset = extract_slots(pattern)
        config = SolverConfig(
            target_rate=20, time_limit=30, restart_interval=10, node_budget=200, seed=1
        )
        plain = solve(slotset, index, config)
        result = solve(slotset, index, config, maximize=True)
        # all three episodes end at their node budget, none exhausted
        assert (result.restarts, result.nodes_expanded) == (2, 3 * 200)
        assert result.status is Status.SUCCESS
        assert result.achieved_topic_ratio * 100 >= config.target_rate
        # maximizing repeats the plain search up to its fill, then improves on it
        assert plain.success and result.achieved_topic_ratio > plain.achieved_topic_ratio
        puzzle = assemble(pattern, slotset, result, lexicon, clue_seed=1)
        assert verify_puzzle(puzzle, lexicon, config.target_rate).ok


def _exhaustive_best_ratio(slotset, index):
    """Test-local enumeration of every complete fill; returns the max topic share."""
    slots = slotset.slots
    best = None

    def rec(depth, letters, used, topic):
        nonlocal best
        if depth == len(slots):
            share = topic / len(slots)
            best = share if best is None else max(best, share)
            return
        slot = slots[depth]
        topic_ranks = index.topic_count.get(slot.length, 0)
        for rank, answer in enumerate(index.by_length.get(slot.length, ())):
            if answer in used:
                continue
            placed = []
            ok = True
            for i, cell in enumerate(slot.cells):
                have = letters.get(cell)
                if have is None:
                    letters[cell] = answer[i]
                    placed.append(cell)
                elif have != answer[i]:
                    ok = False
                    break
            if ok:
                used.add(answer)
                rec(depth + 1, letters, used, topic + (rank < topic_ranks))
                used.discard(answer)
            for cell in placed:
                del letters[cell]

    rec(0, {}, set(), 0)
    return best
