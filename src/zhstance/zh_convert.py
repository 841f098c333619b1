"""Traditional-to-simplified Chinese conversion via greedy longest match.

The mapping is a plain dictionary file, one ``traditional<TAB>simplified``
pair per line; blank lines and ``#`` comment lines are skipped. A key
may list several space-separated candidates on the right (as OpenCC
dictionaries do); only the first is used, so ambiguity resolution belongs
to the table author, not this engine.

Conversion runs at C speed: one compiled pattern of the phrase keys,
grouped by first character, splits the text into phrases and the
stretches between them; ``str.translate`` maps the stretches character
by character and the phrase map the phrases, and one join builds the
result. Pattern and translation are built once per table, on its first
conversion.
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
    """Keys are non-empty, at most MAX_WORD_LENGTH characters, one character
    in char_map and longer in phrase_map. No key or value holds a newline:
    tweets, and lexicon words, are converted joined with newlines."""

    phrase_map: dict[str, str]
    char_map: dict[str, str]

    def __post_init__(self):
        for is_char, mapping in ((False, self.phrase_map), (True, self.char_map)):
            for key, value in mapping.items():
                if not key:
                    raise ConversionTableError("empty key")
                if len(key) > MAX_WORD_LENGTH:  # the phrase pattern spells out every key
                    raise ConversionTableError(f"key {key[:10]!r}... is longer than {MAX_WORD_LENGTH} characters")
                if "\n" in key + value:
                    raise ConversionTableError(f"pair {key!r}: {value!r} holds a newline")
                if (len(key) == 1) != is_char:
                    raise ConversionTableError(f"key {key!r} belongs in {'phrase' if is_char else 'char'}_map")

    @staticmethod
    def from_pairs(pairs) -> "ConversionTable":
        """One-character keys go to char_map, longer ones to phrase_map."""
        phrase_map: dict[str, str] = {}
        char_map: dict[str, str] = {}
        for key, value in pairs:
            (char_map if len(key) == 1 else phrase_map)[key] = value
        return ConversionTable(phrase_map, char_map)

    @cached_property
    def _translation(self) -> dict[int, str]:
        return {ord(key): value for key, value in self.char_map.items()}

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
        for key in sorted(self.phrase_map, key=len, reverse=True):
            rests.setdefault(key[0], []).append(re.escape(key[1:]))
        return re.compile("(" + ("|".join(re.escape(first) + "(?:" + "|".join(group) + ")"
                                          for first, group in rests.items()) or "(?!)") + ")")


def load_conversion_table(path) -> ConversionTable:
    """Load a tab-separated conversion table; single-character keys go to
    char_map, longer keys to phrase_map. A key may appear on one line only,
    and may be at most MAX_WORD_LENGTH characters long."""
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
        if len(value.split()) > 1:
            raise ConversionTableError(f"{path}: line {lineno}: value {value!r} holds whitespace")
        if key in pairs:
            raise ConversionTableError(f"{path}: line {lineno}: key {key!r} repeats an earlier line")
        pairs[key] = value
    return ConversionTable.from_pairs(pairs.items())


def to_simplified(text: str, table: ConversionTable) -> str:
    """Convert text with greedy longest match, left to right.

    At each position the longest phrase key wins; without one, the
    single-character map applies, and unmapped characters pass through
    unchanged. A phrase's output is never converted again.
    """
    translation = table._translation
    # the pattern captures, so the split alternates stretch, phrase, stretch
    parts = table._phrase_pattern.split(text)
    parts[::2] = [stretch.translate(translation) for stretch in parts[::2]]
    parts[1::2] = map(table.phrase_map.__getitem__, parts[1::2])
    return "".join(parts)
