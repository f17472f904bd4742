"""Shared helpers: the data-error base class, JSON decoding and field checks,
input-file reading, the longest-match pattern, stable seed derivation, a pause
of the cyclic garbage collector and atomic file writes."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import re
from contextlib import contextmanager
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator


class DataError(ValueError):
    """Malformed content in an input file: a field of the wrong type or value.

    The CLI maps every subclass to its data-error exit code.
    """


_REQUIRED = object()


def json_field(
    doc: object, key: str, kind: type | tuple[type, ...], where: str, default: object = _REQUIRED
):
    """``doc[key]``, checked to be an instance of ``kind``.

    An absent key gives ``default`` when one is passed. Raises
    :class:`DataError`, prefixed with ``where``, when ``doc`` is not a JSON
    object, a required key is absent, or the value has the wrong type. A JSON
    ``true``/``false`` is of type ``bool`` only, never ``int``, although
    ``bool`` subclasses ``int`` in Python; a NaN or infinite float is rejected.
    """
    if not isinstance(doc, dict):
        raise DataError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        if default is _REQUIRED:
            raise DataError(f"{where}: missing {key!r}")
        return default
    value = doc[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        expected = " or ".join(k.__name__ for k in kinds)
        raise DataError(f"{where}: {key!r} must be {expected}, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise DataError(f"{where}: {key!r} must be finite, got {value}")
    return value


def enum_field(cls: type[Enum], doc: object, key: str, where: str, default: object = _REQUIRED):
    """The member of ``cls`` whose value is the string ``doc[key]`` (or ``default``).

    Raises :class:`DataError`, prefixed with ``where``, as :func:`json_field`
    does, and for a value that names no member.
    """
    value = json_field(doc, key, str, where, default)
    try:
        return cls(value)
    except ValueError:
        raise DataError(f"{where}: unknown {key} {value!r}") from None


def _not_utf8(path: str | Path, exc: UnicodeDecodeError) -> DataError:
    # exc.start counts from the decoder's chunk, not from the file's start
    byte = exc.object[exc.start]
    return DataError(f"{path}: not UTF-8 text: byte 0x{byte:02x}, {exc.reason}")


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 input file: a leading byte-order mark is dropped and
    line ends become ``\\n``. A file that is not UTF-8 raises
    :class:`DataError` naming it.
    """
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


# Characters of decoded text that one block of lines spans, up to the end of
# the line it stops in: a reader holds one block's lines at a time, never a
# list of every line of its file, nor the file's whole text.
_BLOCK = 1 << 16


def text_blocks(path: str | Path) -> Iterator[list[str]]:
    """The lines of :func:`read_text`, in blocks of about ``_BLOCK`` characters,
    read from the file one block at a time.

    A line ends only at ``\\n``, ``\\r\\n`` or ``\\r``. ``str.splitlines`` also
    breaks at U+0085, U+2028 and the other Unicode separators, which
    ``json.dumps(..., ensure_ascii=False)`` writes unescaped inside strings.
    Each block ends where a line does, so the blocks' lines, in order, are
    ``read_text(path).split("\\n")`` less the empty string after a final line
    end. A byte that is not UTF-8 raises :class:`DataError` once the lines
    before its block have been yielded.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            while block := fh.read(_BLOCK) + fh.readline():
                yield block.removesuffix("\n").split("\n")
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None


_raw_decode = json.JSONDecoder().raw_decode


def _decode(text: str, where: str) -> object:
    """The JSON document in ``text``, surrounding whitespace aside; bad syntax,
    nesting past the recursion limit or an integer past the digit limit is a
    :class:`DataError` prefixed with ``where``."""
    try:
        # json.loads without its per-call wrappers, positions counted in text
        doc, end = _raw_decode(text, len(text) - len(text.lstrip()))
        if text[end:].strip():
            raise json.JSONDecodeError("Extra data", text, end)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{where}: bad JSON: {exc}") from None
    return doc


def read_json(path: str | Path) -> object:
    """The JSON document of an input file; a DataError names ``path``."""
    return _decode(read_text(path), str(path))


def json_lines(path: str | Path) -> Iterator[tuple[str, object]]:
    """``(where, document)`` for each non-blank line of a JSON Lines file.

    ``where`` is ``path:line`` (1-based), the prefix of every error about that
    line; a line that is not JSON raises :class:`DataError` with it.
    """
    for lineno, line in enumerate(chain.from_iterable(text_blocks(path)), 1):
        if stripped := line.strip():
            where = f"{path}:{lineno}"
            yield where, _decode(stripped, where)


def longest_first_pattern(keys: Iterable[str]) -> re.Pattern[str]:
    """One alternation of the non-empty keys that matches the longest key.

    The keys are grouped by first character, one branch per group
    (``A(?:nother|n|)``), and each group's tails are tried longest first. A
    position can only match in the group of its own character, and there the
    first tail that matches gives the longest matching key. The groups are
    the first level of an Aho-Corasick trie: the engine tries one branch per
    position, not every key. With no keys the pattern never matches; an
    empty alternation would match ``""`` everywhere.
    """
    groups: dict[str, list[str]] = {}
    for key in {key for key in keys if key}:
        groups.setdefault(key[0], []).append(key[1:])
    branches = []
    for first in sorted(groups):
        tails = sorted(groups[first], key=len, reverse=True)
        alternation = "|".join(map(re.escape, tails))
        if len(tails) > 1:
            alternation = f"(?:{alternation})"
        branches.append(re.escape(first) + alternation)
    return re.compile("|".join(branches) or "(?!)")


def derive_seed(*parts: object) -> int:
    """Return a stable 63-bit seed mixed from the given parts.

    Unlike ``hash()``, the result does not depend on interpreter
    randomization, so derived seeds are reproducible across runs and
    machines.
    """
    blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@contextmanager
def gc_paused() -> Iterator[None]:
    """Run the body with the cyclic garbage collector disabled.

    The collector's prior state, enabled or not, is restored on exit, also
    when the body raises. For a body that allocates many container objects
    but makes no reference cycles, whose collections would free nothing.
    The pause should end after the body's large structures are freed: every
    container still alive at its end is young, and the first collection after
    it walks them all.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to ``path`` via a temp file + rename.

    The temp file ``.{name}.{random hex}`` is created beside ``path`` with
    mode 0666 less the umask, the mode a plain ``open`` gives a new file.
    The target never holds partial output: on error the temp file is
    removed and the destination is untouched. An ``OSError`` names ``path``,
    not the temp file, which the caller never sees.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise
