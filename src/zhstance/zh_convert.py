"""Traditional-to-simplified Chinese conversion via greedy longest match.

The mapping is a plain dictionary file, one ``traditional<TAB>simplified``
pair per line. Lines starting with ``#`` are comments. A key may list
several space-separated candidates on the right (as OpenCC dictionaries
do); only the first is used, so ambiguity resolution belongs to the table
author, not this engine. Phrase keys are found by ``word_ends``, the
prefix-dictionary scan the segmenter also builds its DAG with.
"""

from __future__ import annotations

from dataclasses import dataclass


class ConversionTableError(ValueError):
    """Raised for malformed conversion table files."""


def prefix_closure(words) -> frozenset[str]:
    """Every non-empty prefix of every word, the words included."""
    return frozenset(w[:i] for w in words for i in range(1, len(w) + 1))


def word_ends(text: str, words, prefixes) -> list[list[int]]:
    """For each start i, i itself (the single-character fallback) followed
    by the ascending inclusive ends j > i where text[i:j+1] is in words.

    prefixes must hold every prefix of every word (see prefix_closure);
    the scan from i stops at the first fragment that is not in it.
    """
    n = len(text)
    spans = []
    for i in range(n):
        ends = [i]
        for j in range(i + 2, n + 1):
            frag = text[i:j]
            if frag not in prefixes:
                break
            if frag in words:
                ends.append(j - 1)
        spans.append(ends)
    return spans


@dataclass(frozen=True)
class ConversionTable:
    phrase_map: dict[str, str]
    char_map: dict[str, str]
    phrase_prefixes: frozenset[str]

    @staticmethod
    def from_pairs(pairs) -> "ConversionTable":
        phrase_map: dict[str, str] = {}
        char_map: dict[str, str] = {}
        for key, value in pairs:
            if len(key) == 1:
                char_map[key] = value
            else:
                phrase_map[key] = value
        return ConversionTable(phrase_map, char_map, prefix_closure(phrase_map))


def load_conversion_table(path) -> ConversionTable:
    """Load a tab-separated conversion table; single-character keys go to
    char_map, longer keys to phrase_map."""
    pairs = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            if "\t" not in line:
                raise ConversionTableError(f"{path}: line {lineno}: missing tab separator")
            key, _, value = line.partition("\t")
            value = value.split(" ")[0].strip()
            if not key or not value:
                raise ConversionTableError(f"{path}: line {lineno}: empty mapping side")
            pairs.append((key, value))
    return ConversionTable.from_pairs(pairs)


def to_simplified(text: str, table: ConversionTable) -> str:
    """Convert text with greedy longest match, left to right.

    At each position the longest phrase key wins; without one, the
    single-character map applies, and unmapped characters pass through
    unchanged.
    """
    spans = word_ends(text, table.phrase_map, table.phrase_prefixes)
    out = []
    i = 0
    while i < len(text):
        j = spans[i][-1]
        if j > i:
            out.append(table.phrase_map[text[i:j + 1]])
        else:
            out.append(table.char_map.get(text[i], text[i]))
        i = j + 1
    return "".join(out)
