"""Shared helpers: atomic writes."""

import pytest

from topicross.util import atomic_write_text


class TestAtomicWrite:
    def test_missing_directory_is_reported_under_the_destination(self, tmp_path):
        path = tmp_path / "missing" / "out.txt"
        with pytest.raises(FileNotFoundError) as err:
            atomic_write_text(path, "text")
        # not the name of the temp file it could not create
        assert err.value.filename == str(path)
        assert str(err.value).endswith(f": {str(path)!r}")
        assert not (tmp_path / "missing").exists()
