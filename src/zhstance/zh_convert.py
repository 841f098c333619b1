"""Traditional-to-simplified Chinese conversion via greedy longest match.

The table is a plain dictionary file, one ``traditional<TAB>simplified``
pair per line; blank lines and ``#`` comment lines are skipped. A key
may list several space-separated candidates on the right (as OpenCC
dictionaries do); only the first is used, so ambiguity resolution belongs
to the table author, not this engine.

Conversion runs at C speed: one compiled pattern of the phrase keys, the
keys longer than one character, grouped by first character, splits the
text into phrases and the stretches between them; ``str.translate`` maps
the stretches through the one-character keys, the mapping maps the
phrases, and one join builds the result. Pattern and translation are
built once per table, on its first conversion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .textfile import MAX_WORD_LENGTH, read_data_lines


class ConversionTableError(ValueError):
    """Raised for malformed conversion table files."""


@dataclass(frozen=True)
class ConversionTable:
    """The table's pairs as the file has them. Keys are non-empty and at
    most MAX_WORD_LENGTH characters, and no key or value holds whitespace:
    tweets, and lexicon words, are converted joined with newlines, and the
    converted text is segmented, which cuts it at whitespace."""

    mapping: dict[str, str]

    def __post_init__(self):
        for key, value in self.mapping.items():
            if not key:
                raise ConversionTableError("empty key")
            if len(key) > MAX_WORD_LENGTH:  # the phrase pattern spells out every key
                raise ConversionTableError(f"key {key[:10]!r}... is longer than {MAX_WORD_LENGTH} characters")
            if (key + value).split() != [key + value]:
                raise ConversionTableError(f"pair {key!r}: {value!r} holds a newline or other whitespace")

    @cached_property
    def _translation(self) -> dict[int, str]:
        return {ord(key): value for key, value in self.mapping.items() if len(key) == 1}

    @cached_property
    def _phrase_pattern(self) -> re.Pattern:
        """The phrase keys as one capturing alternation with one branch per
        first character: that character, then the rests of its keys,
        longest first. ``re`` takes the first alternative that matches at
        the leftmost position, and only one branch can match there, so a
        match is the longest key there; ``re`` tries branches, not keys.
        Without phrase keys the group is "(?!)", which never matches: an
        empty alternation would match the empty string everywhere."""
        rests: dict[str, list[str]] = {}
        for key in sorted((key for key in self.mapping if len(key) > 1), key=len, reverse=True):
            rests.setdefault(key[0], []).append(re.escape(key[1:]))
        return re.compile("(" + ("|".join(re.escape(first) + "(?:" + "|".join(group) + ")"
                                          for first, group in rests.items()) or "(?!)") + ")")


def load_conversion_table(path) -> ConversionTable:
    """Load a tab-separated conversion table. A key may appear on one line
    only, may be at most MAX_WORD_LENGTH characters long, and may hold no
    whitespace, nor may its value."""
    pairs: dict[str, str] = {}
    for lineno, line in read_data_lines(path, ConversionTableError):
        if "\t" not in line:
            raise ConversionTableError(f"{path}: line {lineno}: missing tab separator")
        key, _, value = line.partition("\t")
        value = value.split(" ")[0].strip()
        if not key or not value:
            raise ConversionTableError(f"{path}: line {lineno}: empty mapping side")
        if len(key) > MAX_WORD_LENGTH:
            raise ConversionTableError(
                f"{path}: line {lineno}: key is longer than {MAX_WORD_LENGTH} characters")
        if (key + value).split() != [key + value]:
            side, text = ("key", key) if key.split() != [key] else ("value", value)
            raise ConversionTableError(f"{path}: line {lineno}: {side} {text!r} holds whitespace")
        if key in pairs:
            raise ConversionTableError(f"{path}: line {lineno}: key {key!r} repeats an earlier line")
        pairs[key] = value
    return ConversionTable(pairs)


def to_simplified(text: str, table: ConversionTable) -> str:
    """Convert text with greedy longest match, left to right.

    At each position the longest phrase key wins; without one, the
    one-character key applies, and a character that is no key passes
    through unchanged. A phrase's output is never converted again.
    """
    translation = table._translation
    # the pattern captures, so the split alternates stretch, phrase, stretch
    parts = table._phrase_pattern.split(text)
    parts[::2] = [stretch.translate(translation) for stretch in parts[::2]]
    parts[1::2] = map(table.mapping.__getitem__, parts[1::2])
    return "".join(parts)
