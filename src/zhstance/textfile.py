"""Reading the package's input files and stdin, and the checks all formats
share (blank and # lines, objects, integers, numbers), so that malformed
input always ends in its reader's own error. Each check takes that error
class and a `where` prefix naming the file, the line or the key path."""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext

# The longest lexicon word or conversion-table key. The route dictionary
# holds every proper prefix of every word, about L**2 / 2 characters for a
# word of L, and the phrase pattern spells out every key's rest, so one
# overlong line could exhaust memory or take seconds to compile.
MAX_WORD_LENGTH = 100


def read_lines(path, error: type[ValueError], stream=None):
    """(line number, line) for each line of a UTF-8 text file, its line
    end removed. Lines end at \\n, \\r\\n or \\r, as in text mode. Each line
    is decoded on its own, so bytes that are not UTF-8 raise `error` with
    the path and the line number. Given an open binary stream, such as
    stdin's, the lines are read from it, and path only names it."""
    lineno = 0
    with open(path, "rb") if stream is None else nullcontext(stream) as f:
        for chunk in f:  # a chunk ends at \n; splitlines also ends lines at \r
            for raw in chunk.splitlines():
                lineno += 1
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise error(f"{path}: line {lineno}: not UTF-8 ({exc.reason})") from None
                yield lineno, line


def read_data_lines(path, error: type[ValueError]):
    """read_lines without the blank lines and the # comments: lines whose
    first character that is not whitespace is #."""
    for lineno, line in read_lines(path, error):
        if line.lstrip()[:1] not in ("", "#"):
            yield lineno, line


def read_words(path, error: type[ValueError], what: str):
    """(line number, word) for each data line of a one-word-per-line file.
    A line holding whitespace inside it raises `error` with the path and
    the line number, naming the word as `what`."""
    for lineno, line in read_data_lines(path, error):
        word = line.strip()
        if len(word.split()) > 1:
            raise error(f"{path}: line {lineno}: {what} {word!r} contains whitespace")
        yield lineno, word


def check_keys(value, error: type[ValueError], where: str, allowed=None, required=()) -> dict:
    """value, required to be a JSON object whose keys include every key in
    required and, unless allowed is None, are all in allowed."""
    if not isinstance(value, dict):
        raise error(f"{where} must be an object")
    unknown = () if allowed is None else value.keys() - allowed
    if unknown:
        raise error(f"{where} has unknown key(s) {sorted(unknown)}")
    missing = [key for key in required if key not in value]
    if missing:
        raise error(f"{where} is missing key(s) {missing}")
    return value


def check_int(value, error: type[ValueError], where: str, minimum: int | None = None) -> int:
    """value, required to be an int, not a bool, and at least minimum."""
    if type(value) is not int or minimum is not None and value < minimum:  # bool is not int
        at_least = "" if minimum is None else f" >= {minimum}"
        raise error(f"{where} must be an integer{at_least}, got {value!r}")
    return value


_FINITE = (-sys.float_info.max, sys.float_info.max)


def check_number(value, error: type[ValueError], where: str, bounds=_FINITE):
    """value, required to be an int or float, not a bool, within the closed,
    finite bounds: so NaN, the infinities and ints too large for a float
    all fail, without a conversion that could overflow."""
    low, high = bounds
    if type(value) not in (int, float) or not low <= value <= high:  # a bool is neither
        within = "" if bounds == _FINITE else f" in [{low}, {high}]"
        raise error(f"{where} must be a finite number{within}, got {value!r}")
    return value


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


# Built once: json.loads(..., object_pairs_hook=...) builds a decoder per call,
# which costs more than decoding a short corpus line.
JSON_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def read_json(path, error: type[ValueError], parse=lambda doc: doc):
    """parse(the JSON document in a UTF-8 file). Malformed or too deeply
    nested JSON, an object with a duplicate key, bytes that are not UTF-8,
    and any `error` that parse raises, are raised as `error` naming the
    file."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        doc = JSON_DECODER.decode(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError, a repeated key
        raise error(f"{path}: {exc}") from None
    try:
        return parse(doc)
    except error as exc:
        raise error(f"{path}: {exc}") from None
