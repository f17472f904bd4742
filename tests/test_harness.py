"""Sweep execution, record bookkeeping, summaries, and CSV round-trips."""

import pytest

from conftest import make_lexicon
from topicross.grid import generate_random_patterns
from topicross.harness import (
    CSV_HEADER,
    EmptyInputError,
    ExperimentRecord,
    SchemaMismatchError,
    SweepConfig,
    five_number,
    read_records_csv,
    records_to_csv,
    run_sweep,
    summarize,
    summary_svg,
    write_records_csv,
)
from topicross.solver import SolverConfig
from topicross.util import DataError


def small_config(**overrides):
    defaults = dict(
        height=4,
        width=4,
        t_values=(10, 50, 90),
        black_counts=(2, 3),
        patterns_per_count=2,
        trials_per_cell=1,
        seed=7,
        solver=SolverConfig(node_budget=1500, time_limit=60, restart_interval=10),
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


@pytest.fixture(scope="module")
def small_index():
    _, index = make_lexicon(30, 300, seed=3, alphabet="ABCDEFGH", lengths=(2, 3, 4))
    return index


def fake_record(pattern_id="p0", t=50, trial=0, success=True, time_ms=1000, n_black=9):
    return ExperimentRecord(
        pattern_id=pattern_id,
        n_black=n_black,
        t=t,
        seed=1,
        trial=trial,
        status="success" if success else "timeout",
        success=success,
        time_ms=time_ms,
        restarts=0,
        nodes_expanded=10,
        achieved_topic_ratio=0.5 if success else 0.0,
    )


class TestRunSweep:
    def test_record_grid_shape(self, small_index):
        config = small_config(early_stop=False)
        records = run_sweep(config, small_index)
        assert len(records) == 4 * 3  # patterns x t-values
        keys = [(r.pattern_id, r.t, r.trial) for r in records]
        assert keys == sorted(keys)

    def test_early_stop_prunes_higher_rates(self, small_index):
        full = run_sweep(small_config(early_stop=False), small_index)
        stopped = run_sweep(small_config(early_stop=True), small_index)
        assert len(stopped) <= len(full)
        # per pattern, records must cover a prefix of the rate ladder
        for pid in {r.pattern_id for r in stopped}:
            rates = [r.t for r in stopped if r.pattern_id == pid]
            assert rates == [10, 50, 90][: len(rates)]

    def test_deterministic(self, small_index):
        config = small_config()
        assert run_sweep(config, small_index) == run_sweep(config, small_index)

    def test_explicit_patterns(self, small_index):
        config = small_config()
        patterns = generate_random_patterns(4, 4, 3, 2, seed=11)
        records = run_sweep(config, small_index, patterns=patterns)
        assert {r.pattern_id for r in records} == {p.pattern_id for p in patterns}
        assert all(r.n_black == 3 for r in records)

    def test_parallel_matches_sequential(self, small_index):
        config = small_config()
        sequential = run_sweep(config, small_index, jobs=1)
        parallel = run_sweep(config, small_index, jobs=2)
        assert parallel == sequential

    @pytest.mark.parametrize("jobs, n_patterns, pool_size", [(4, 2, 2), (2, 3, 2), (4, 1, None)])
    def test_pool_holds_at_most_one_worker_per_pattern(
        self, small_index, monkeypatch, jobs, n_patterns, pool_size
    ):
        import concurrent.futures

        from topicross import harness

        sizes = []

        class InProcessExecutor:
            """Records ``max_workers`` and runs the tasks here, starting no process."""

            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessExecutor)
        monkeypatch.setattr(harness, "_POOL_INDEX", None)
        monkeypatch.setattr(harness, "_POOL_CONFIG", None)
        config = small_config()
        patterns = generate_random_patterns(4, 4, 3, n_patterns, seed=11)
        records = run_sweep(config, small_index, patterns=patterns, jobs=jobs)
        assert sizes == ([] if pool_size is None else [pool_size])
        assert records == run_sweep(config, small_index, patterns=patterns, jobs=1)

    def test_trials_per_cell(self, small_index):
        config = small_config(trials_per_cell=3, early_stop=False, t_values=(10,))
        records = run_sweep(config, small_index)
        assert len(records) == 4 * 3
        seeds = {r.seed for r in records}
        assert len(seeds) == len(records)  # every trial gets its own seed


class TestSummarize:
    def test_probability_counting(self):
        records = [
            fake_record(pattern_id=f"p{i}", success=(i != 3)) for i in range(10)
        ]
        summary = summarize(records)
        assert summary["by_target_rate"]["50"]["probability"] == pytest.approx(0.9)

    def test_median(self):
        records = [
            fake_record(pattern_id=f"p{i}", time_ms=ms)
            for i, ms in enumerate([1000, 2000, 3000, 4000, 5000])
        ]
        summary = summarize(records)
        assert summary["by_target_rate"]["50"]["time_ms"]["median"] == pytest.approx(3000)
        assert summary["by_target_rate"]["50"]["time_ms"]["min"] == 1000
        assert summary["by_target_rate"]["50"]["time_ms"]["max"] == 5000

    def test_early_stopped_cells_count_as_failures(self):
        # p0 present at both rates, p1 stopped after failing at rate 10
        records = [
            fake_record(pattern_id="p0", t=10),
            fake_record(pattern_id="p0", t=50),
            fake_record(pattern_id="p1", t=10, success=False),
        ]
        summary = summarize(records)
        assert summary["by_target_rate"]["10"]["probability"] == pytest.approx(0.5)
        assert summary["by_target_rate"]["50"]["probability"] == pytest.approx(0.5)

    def test_early_stopped_cells_fail_in_the_black_count_summary(self):
        # p1 was stopped after failing at rate 10, so its rate-50 cell failed too
        records = [
            fake_record(pattern_id="p0", t=10),
            fake_record(pattern_id="p0", t=50),
            fake_record(pattern_id="p1", t=10, success=False),
        ]
        group = summarize(records)["by_black_count"]["9"]
        assert (group["n_cells"], group["successes"]) == (4, 2)
        assert group["probability"] == pytest.approx(0.5)

    def test_by_black_count(self):
        records = [
            fake_record(pattern_id="a", n_black=9, time_ms=4000),
            fake_record(pattern_id="b", n_black=12, time_ms=1000),
        ]
        summary = summarize(records)
        assert summary["by_black_count"]["9"]["time_ms"]["median"] == 4000
        assert summary["by_black_count"]["12"]["time_ms"]["median"] == 1000

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            summarize([])

    def test_no_success_group(self):
        summary = summarize([fake_record(success=False)])
        assert summary["by_target_rate"]["50"]["time_ms"] is None

    def test_five_number_single_value(self):
        assert five_number([7.0]) == {
            "min": 7.0, "q1": 7.0, "median": 7.0, "q3": 7.0, "max": 7.0,
        }

    def test_pure_function_of_records(self, tmp_path, small_index):
        records = run_sweep(small_config(), small_index)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        again = read_records_csv(path)
        assert summarize(again) == summarize(records)


class TestArguments:
    @pytest.mark.parametrize("t_values", [(10, 150), (-1,), (101, 50)])
    def test_rates_outside_0_100_rejected(self, t_values):
        with pytest.raises(ValueError, match=r"t_values must be in \[0, 100\]"):
            small_config(t_values=t_values)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, small_index, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_sweep(small_config(), small_index, jobs=jobs)


class TestCsv:
    def test_round_trip_many(self, tmp_path):
        records = [
            fake_record(pattern_id=f"p{i:03d}", t=t, trial=tr, success=i % 3 != 0,
                        time_ms=i * 17, n_black=9 + i % 4)
            for i in range(40)
            for t in (10, 50)
            for tr in (0, 1)
        ]
        assert len(records) == 160
        path = tmp_path / "r.csv"
        write_records_csv(records, path)
        assert read_records_csv(path) == records

    def test_header(self):
        text = records_to_csv([])
        assert text == ",".join(CSV_HEADER) + "\n"

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pattern,black\np,9\n", encoding="utf-8")
        with pytest.raises(SchemaMismatchError):
            read_records_csv(path)

    @pytest.mark.parametrize("column, cell", [("T", "x"), ("nodes_expanded", "1.5")])
    def test_non_integer_cell_rejected(self, tmp_path, column, cell):
        path = tmp_path / "bad.csv"
        write_records_csv([fake_record(), fake_record(trial=1)], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        row = lines[2].split(",")
        row[CSV_HEADER.index(column)] = cell
        lines[2] = ",".join(row)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SchemaMismatchError, match=f"bad.csv: row 2, column {column}: "):
            read_records_csv(path)

    def test_non_float_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_records_csv([fake_record()], path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(",0.5\n", ",half\n"), encoding="utf-8")
        with pytest.raises(
            SchemaMismatchError, match="row 1, column achieved_topic_ratio: unreadable value 'half'"
        ):
            read_records_csv(path)

    @pytest.mark.parametrize("cell", ["yes", "True", "1", ""])
    def test_success_cell_must_be_true_or_false(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        write_records_csv([fake_record()], path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(",success,true,", f",success,{cell},"), encoding="utf-8")
        with pytest.raises(SchemaMismatchError, match="row 1, column success: "):
            read_records_csv(path)

    def test_byte_order_mark_and_non_utf8(self, tmp_path):
        path = tmp_path / "r.csv"
        records = [fake_record(), fake_record(trial=1)]
        text = records_to_csv(records)
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert read_records_csv(path) == records
        path.write_bytes(text.replace("\n", "\r\n").encode("utf-8") + b"p\xff")
        with pytest.raises(DataError, match="not UTF-8") as err:
            read_records_csv(path)
        assert str(err.value).startswith(f"{path}: ")
        assert str(err.value).count(str(path)) == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SchemaMismatchError):
            read_records_csv(path)

    def test_header_only_round_trip(self, tmp_path):
        path = tmp_path / "none.csv"
        write_records_csv([], path)
        assert read_records_csv(path) == []

    def test_ratio_precision_survives(self, tmp_path):
        record = fake_record()
        record = ExperimentRecord(**{**record.__dict__, "achieved_topic_ratio": 1 / 3})
        path = tmp_path / "r.csv"
        write_records_csv([record], path)
        assert read_records_csv(path)[0].achieved_topic_ratio == 1 / 3


class TestSvg:
    def test_chart_renders(self):
        records = [
            fake_record(pattern_id=f"p{i}", t=t, success=i % 2 == 0, time_ms=t * 20)
            for i in range(6)
            for t in (10, 50, 90)
        ]
        svg = summary_svg(summarize(records))
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert svg == summary_svg(summarize(records))
