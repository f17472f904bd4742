"""Grid pattern parsing, slot extraction, validation, and generation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from topicross.grid import (
    BLACK,
    WHITE,
    EmptyPatternError,
    ExhaustedAttemptsError,
    GridPattern,
    IllegalCharacterError,
    Orientation,
    RaggedRowsError,
    extract_slots,
    generate_random_patterns,
    parse_pattern,
    parse_pattern_file,
    render_pattern,
    render_pattern_file,
    validate_pattern,
)


def naive_runs(pattern, min_length=2):
    """Independent run scanner used as the extraction oracle."""
    runs = []
    for r in range(pattern.height):
        run = []
        for c in range(pattern.width + 1):
            if c < pattern.width and pattern.cells[r][c] == WHITE:
                run.append((r, c))
            else:
                if len(run) >= min_length:
                    runs.append(("across", tuple(run)))
                run = []
    for c in range(pattern.width):
        run = []
        for r in range(pattern.height + 1):
            if r < pattern.height and pattern.cells[r][c] == WHITE:
                run.append((r, c))
            else:
                if len(run) >= min_length:
                    runs.append(("down", tuple(run)))
                run = []
    return runs


def random_pattern(rng, max_size=8):
    height = rng.randint(1, max_size)
    width = rng.randint(1, max_size)
    cells = tuple(
        "".join(BLACK if rng.random() < 0.25 else WHITE for _ in range(width))
        for _ in range(height)
    )
    return GridPattern(height=height, width=width, cells=cells)


class TestParse:
    def test_all_white_2x2(self):
        p = parse_pattern("..\n..")
        assert (p.height, p.width) == (2, 2)
        assert p.n_black == 0

    def test_black_placement(self):
        p = parse_pattern("#.\n.#")
        assert p.is_black(0, 0) and p.is_black(1, 1)
        assert not p.is_black(0, 1) and not p.is_black(1, 0)

    def test_seven_by_seven_with_eleven_blacks(self):
        rng = random.Random(0)
        blacks = set(rng.sample(range(49), 11))
        text = "\n".join(
            "".join(BLACK if r * 7 + c in blacks else WHITE for c in range(7))
            for r in range(7)
        )
        p = parse_pattern(text)
        assert (p.height, p.width) == (7, 7)
        assert p.n_black == 11

    def test_trailing_newline_ok(self):
        assert parse_pattern("..\n..\n") == parse_pattern("..\n..")

    def test_id_line(self):
        p = parse_pattern("id: alpha\n#.\n..")
        assert p.pattern_id == "alpha"
        assert p.cells == ("#.", "..")

    def test_ragged_rows(self):
        with pytest.raises(RaggedRowsError):
            parse_pattern("..\n...")

    def test_empty(self):
        with pytest.raises(EmptyPatternError):
            parse_pattern("")

    def test_illegal_character(self):
        with pytest.raises(IllegalCharacterError):
            parse_pattern(".x\n..")


class TestRender:
    def test_render_all_white(self):
        assert render_pattern(parse_pattern("..\n..")) == "..\n.."

    def test_render_1x2_with_black(self):
        assert render_pattern(GridPattern(1, 2, ("#.",))) == "#."

    def test_round_trip_generated(self):
        for p in generate_random_patterns(7, 7, 10, 5, seed=3):
            assert parse_pattern(render_pattern(p)) == p

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, seed):
        p = random_pattern(random.Random(seed))
        assert parse_pattern(render_pattern(p)) == p

    def test_pattern_file_round_trip(self):
        patterns = generate_random_patterns(5, 5, 4, 3, seed=9)
        text = render_pattern_file(patterns)
        assert parse_pattern_file(text) == patterns
        # any run of empty or whitespace-only lines separates two patterns
        for separator in ("\n\n\n", "\n  \n", "\n\t\n \n"):
            text = separator.join(render_pattern(p) for p in patterns) + "\n"
            assert parse_pattern_file(text) == patterns


class TestExtractSlots:
    def test_single_row(self):
        ss = extract_slots(parse_pattern("....."))
        assert len(ss.slots) == 1
        slot = ss.slots[0]
        assert slot.orientation is Orientation.ACROSS
        assert slot.length == 5
        assert slot.cells == tuple((0, c) for c in range(5))
        assert ss.crossings == ((None,) * 5,)

    def test_all_black(self):
        p = GridPattern(7, 7, tuple("#" * 7 for _ in range(7)))
        ss = extract_slots(p)
        assert not ss.slots and not ss.crossings

    def test_2x2_all_white(self):
        ss = extract_slots(parse_pattern("..\n.."))
        across = [s for s in ss.slots if s.orientation is Orientation.ACROSS]
        down = [s for s in ss.slots if s.orientation is Orientation.DOWN]
        assert len(across) == 2 and len(down) == 2
        assert all(s.length == 2 for s in ss.slots)
        # every cell is a crossing
        assert len({cell for s in ss.slots for cell in s.cells}) == 4
        assert all(link is not None for links in ss.crossings for link in links)

    def test_canonical_order(self):
        ss = extract_slots(parse_pattern("...\n#..\n..."))
        assert [s.slot_id for s in ss.slots] == list(range(len(ss.slots)))
        orientations = [s.orientation for s in ss.slots]
        first_down = orientations.index(Orientation.DOWN)
        assert all(o is Orientation.ACROSS for o in orientations[:first_down])
        assert all(o is Orientation.DOWN for o in orientations[first_down:])
        for group in (ss.slots[:first_down], ss.slots[first_down:]):
            assert [s.start for s in group] == sorted(s.start for s in group)

    def test_matches_naive_scanner_on_random_patterns(self):
        rng = random.Random(42)
        for _ in range(1000):
            p = random_pattern(rng)
            got = {(s.orientation.value, s.cells) for s in extract_slots(p).slots}
            assert got == set(naive_runs(p))

    def test_membership_and_crossing_structure(self):
        rng = random.Random(7)
        for _ in range(200):
            p = random_pattern(rng)
            ss = extract_slots(p)
            in_run = {"across": set(), "down": set()}
            for kind, cells in naive_runs(p):
                in_run[kind].update(cells)
            slotted = {cell for s in ss.slots for cell in s.cells}
            assert slotted == in_run["across"] | in_run["down"]
            assert [len(links) for links in ss.crossings] == [s.length for s in ss.slots]
            crossed = in_run["across"] & in_run["down"]
            pair_counts = {}
            for slot, links in zip(ss.slots, ss.crossings):
                for i, (cell, link) in enumerate(zip(slot.cells, links)):
                    # a link exactly where an across and a down run cross
                    assert (link is not None) == (cell in crossed)
                    if link is None:
                        continue
                    other, j = link
                    # the link points to the same cell of a slot of the other
                    # orientation, and that slot links back
                    assert ss.slots[other].cells[j] == cell
                    assert ss.slots[other].orientation is not slot.orientation
                    assert ss.crossings[other][j] == (slot.slot_id, i)
                    pair = (slot.slot_id, other)
                    pair_counts[pair] = pair_counts.get(pair, 0) + 1
            # no slot pair shares more than one cell
            assert all(v == 1 for v in pair_counts.values())

    def test_across_lengths_cover_horizontal_run_cells(self):
        rng = random.Random(13)
        for _ in range(200):
            p = random_pattern(rng)
            ss = extract_slots(p)
            across_total = sum(
                s.length for s in ss.slots if s.orientation is Orientation.ACROSS
            )
            run_cells = sum(
                len(cells) for kind, cells in naive_runs(p) if kind == "across"
            )
            assert across_total == run_cells


class TestValidate:
    def test_2x2_all_white_valid(self):
        assert validate_pattern(parse_pattern("..\n..")).ok

    def test_isolated_center_cell(self):
        report = validate_pattern(parse_pattern(".#.\n#.#\n.#."))
        assert not report.ok
        isolated = [v.message for v in report.violations if v.kind == "isolated-white"]
        assert "white cell (1, 1) belongs to no slot of length >= 2" in isolated

    def test_1x2_valid(self):
        assert validate_pattern(parse_pattern("..")).ok

    def test_all_black_invalid(self):
        p = GridPattern(2, 2, ("##", "##"))
        report = validate_pattern(p)
        assert [v.kind for v in report.violations] == ["no-white-cells"]

    def test_connectivity_flag(self):
        # connectivity is not a rule: two white islands, every white cell
        # in a slot, is a valid pattern
        p = parse_pattern("..#\n###\n#..")
        report = validate_pattern(p)
        assert report.ok
        assert not any(v.kind == "disconnected" for v in report.violations)


class TestGenerate:
    def test_counts_and_validity(self):
        patterns = generate_random_patterns(7, 7, 9, 10, seed=42)
        assert len(patterns) == 10
        assert len({p.cells for p in patterns}) == 10
        for p in patterns:
            assert p.n_black == 9
            assert validate_pattern(p).ok

    def test_deterministic(self):
        a = generate_random_patterns(7, 7, 12, 10, seed=42)
        b = generate_random_patterns(7, 7, 12, 10, seed=42)
        assert a == b
        c = generate_random_patterns(7, 7, 12, 10, seed=43)
        assert a != c

    def test_zero_blacks(self):
        (p,) = generate_random_patterns(2, 2, 0, 1, seed=0)
        assert p.cells == ("..", "..")

    def test_exhausted_attempts(self):
        # 1x2 with one black always leaves an isolated white cell
        with pytest.raises(ExhaustedAttemptsError):
            generate_random_patterns(1, 2, 1, 1, seed=0, max_attempts=50)

    @pytest.mark.parametrize("height, width, n_black, count", [(3, 3, 0, 2), (1, 2, 1, 1)])
    def test_layouts_run_out(self, height, width, n_black, count):
        # A 3x3 grid has one layout with no black cell, so a second pattern
        # cannot exist; both layouts of 1x2 with one black leave a white cell
        # alone. The draws stop once every layout has been seen.
        with pytest.raises(ExhaustedAttemptsError, match="layouts ran out"):
            generate_random_patterns(height, width, n_black, count, seed=0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_random_patterns(2, 2, 4, 1, seed=0)
        with pytest.raises(ValueError):
            generate_random_patterns(2, 2, 0, 0, seed=0)
