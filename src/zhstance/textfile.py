"""Reading the package's input files and stdin, so that a malformed input
always ends in its reader's own error, naming the file."""

from __future__ import annotations

import json
from contextlib import nullcontext


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


def read_words(path, error: type[ValueError], what: str):
    """(line number, word) for each line of a one-word-per-line file; blank
    lines and # comments are skipped. A line holding whitespace inside it
    raises `error` with the path and the line number, naming the word as
    `what`."""
    for lineno, line in read_lines(path, error):
        word = line.strip()
        if not word or word.startswith("#"):
            continue
        if len(word.split()) > 1:
            raise error(f"{path}: line {lineno}: {what} {word!r} contains whitespace")
        yield lineno, word


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


def read_json(path, error: type[ValueError]):
    """The JSON document in a UTF-8 file; malformed or too deeply nested
    JSON, an object with a duplicate key, or bytes that are not UTF-8 raise
    `error` naming the file."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return JSON_DECODER.decode(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError, a repeated key
        raise error(f"{path}: {exc}") from None
