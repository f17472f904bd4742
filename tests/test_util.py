"""Shared helpers: atomic writes and block reads of input files."""

import os
import tracemalloc

import pytest

from topicross.util import atomic_write_text, text_blocks


class TestTextBlocks:
    def test_blocks_of_a_large_file_hold_a_block_of_it_at_a_time(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("".join(f"word{i:07d}\n" for i in range(600_000)), encoding="utf-8")
        size = path.stat().st_size
        assert size > 7_000_000
        lines = 0
        tracemalloc.start()
        try:
            for block in text_blocks(path):
                lines += len(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size / 4, (peak, size)
        assert lines == 600_000


class TestAtomicWrite:
    def test_missing_directory_is_reported_under_the_destination(self, tmp_path):
        path = tmp_path / "missing" / "out.txt"
        with pytest.raises(FileNotFoundError) as err:
            atomic_write_text(path, "text")
        # not the name of the temp file it could not create
        assert err.value.filename == str(path)
        assert str(err.value).endswith(f": {str(path)!r}")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_mode_follows_the_umask(self, tmp_path, umask, mode):
        path = tmp_path / "out.txt"
        previous = os.umask(umask)
        try:
            atomic_write_text(path, "text")
        finally:
            os.umask(previous)
        assert path.stat().st_mode & 0o777 == mode

    def test_existing_destination_is_replaced(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old text that is longer than the new\n", encoding="utf-8")
        atomic_write_text(path, "new\n")
        assert path.read_bytes() == b"new\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "a lone surrogate \ud800 cannot be encoded")
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        # a non-empty directory cannot be replaced by a file
        path = tmp_path / "out"
        (path / "inner").mkdir(parents=True)
        with pytest.raises(OSError) as err:
            atomic_write_text(path, "text")
        assert err.value.filename == str(path)
        assert os.listdir(tmp_path) == ["out"]
