"""Shared helpers: the data-error base class, JSON field checks, input-file
reading, the longest-match pattern, stable seed derivation, a pause of the
cyclic garbage collector and atomic file writes."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import re
import tempfile
from contextlib import contextmanager
from enum import Enum
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


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 input file, the one place an input file is decoded:
    a leading byte-order mark is dropped and line ends become ``\\n``. A file
    that is not UTF-8 raises :class:`DataError` naming it.
    """
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoder's chunk, not from the file's start
        byte = exc.object[exc.start]
        raise DataError(f"{path}: not UTF-8 text: byte 0x{byte:02x}, {exc.reason}") from None


def text_lines(path: str | Path) -> list[str]:
    """The lines of :func:`read_text`.

    A line ends only at ``\\n``, ``\\r\\n`` or ``\\r``. ``str.splitlines`` also
    breaks at U+0085, U+2028 and the other Unicode separators, which
    ``json.dumps(..., ensure_ascii=False)`` writes unescaped inside strings.
    """
    return read_text(path).split("\n")


def json_lines(path: str | Path) -> Iterator[tuple[str, object]]:
    """``(where, document)`` for each non-blank line of a JSON Lines file.

    ``where`` is ``path:line`` (1-based), the prefix of every error about that
    line; a line that is not JSON raises :class:`DataError` with it.
    """
    for lineno, line in enumerate(text_lines(path), 1):
        if stripped := line.strip():
            where = f"{path}:{lineno}"
            try:
                doc = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where}: bad JSON: {exc}") from None
            yield where, doc


def longest_first_pattern(keys: Iterable[str]) -> re.Pattern[str]:
    """One alternation of the non-empty keys, longest first.

    At each position the first branch that matches wins, which is the longest
    matching key. With no keys the pattern never matches; an empty
    alternation would match ``""`` everywhere.
    """
    terms = sorted({key for key in keys if key}, key=len, reverse=True)
    return re.compile("|".join(map(re.escape, terms)) or "(?!)")


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

    The target never holds partial output: on error the temp file is
    removed and the destination is untouched. An ``OSError`` names ``path``,
    not the temp file, which the caller never sees.
    """
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=f".{path.name}.")
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
