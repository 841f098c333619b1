"""Bundled data files and resource loading.

The package ships a conversion table, a segmentation lexicon, and HMM
parameters under ``zhstance/data`` so the pipeline runs out of the box;
every path can be overridden to swap in full-size models.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import resources as importlib_resources
from pathlib import Path

from .segmenter import HmmModel, Lexicon, LexiconError, load_hmm, load_lexicon
from .textfile import MAX_WORD_LENGTH, read_words
from .zh_convert import ConversionTable, load_conversion_table, to_simplified

BUNDLED_TABLE = "t2s.tsv"
BUNDLED_LEXICON = "lexicon.txt"
BUNDLED_HMM = "hmm.json"


def bundled_path(name: str) -> Path:
    return Path(str(importlib_resources.files("zhstance").joinpath("data", name)))


class StopwordError(ValueError):
    """Raised for a malformed stopword file."""


def load_stopwords(path) -> frozenset[str]:
    """One stopword per line; blank lines and # comments are ignored. A
    line holding whitespace inside it is rejected: segmentation never
    emits a token with whitespace, so such an entry could never match."""
    return frozenset(word for _, word in read_words(path, StopwordError, "stopword"))


@dataclass(frozen=True)
class Resources:
    table: ConversionTable
    lexicon: Lexicon  # as written in the file
    hmm: HmmModel | None
    stopwords: frozenset[str]  # as written in the file

    @cached_property
    def token_stopwords(self) -> frozenset[str]:
        """The stopwords as tokens are: each converted with the table, so
        that 國家 removes the token 国家. Derived on first use, so that
        loading does not compile the table's phrase pattern."""
        return frozenset(to_simplified(word, self.table) for word in self.stopwords)

    @cached_property
    def token_lexicon(self) -> Lexicon:
        """The lexicon as the converted text is: each word converted with
        the table, so that 國家 matches 国家, and words that convert to the
        same word add their frequencies. Derived on first use, like
        token_stopwords. When conversion changes no entry, this is the
        loaded lexicon itself, not a second copy of it. A word that conversion
        empties or lengthens past MAX_WORD_LENGTH is an error naming it as written."""
        entries: dict[str, int] = {}
        # One conversion over all the words: they hold no whitespace, and no
        # table key or value holds a newline, so the lines stay the words.
        converted = to_simplified("\n".join(self.lexicon.entries), self.table).split("\n")
        for (written, freq), word in zip(self.lexicon.entries.items(), converted):
            if not word:
                raise LexiconError(f"word {written!r} is empty after conversion, which deletes it")
            if len(word) > MAX_WORD_LENGTH:
                raise LexiconError(f"word {written!r} is longer than {MAX_WORD_LENGTH} characters"
                                   f" after conversion, which lengthens it to {len(word)}")
            entries[word] = entries.get(word, 0) + freq
        if entries == self.lexicon.entries:
            return self.lexicon
        return Lexicon(entries)


def load_resources(
    dictionary: str | None = None,
    hmm: str | None = None,
    table: str | None = None,
    stopwords: str | None = None,
) -> Resources:
    """Load the pipeline's models. A path of None selects the bundled data
    file, or no stopwords; any other path, the empty one too, is opened."""
    return Resources(
        table=load_conversion_table(bundled_path(BUNDLED_TABLE) if table is None else table),
        lexicon=load_lexicon(bundled_path(BUNDLED_LEXICON) if dictionary is None else dictionary),
        hmm=load_hmm(bundled_path(BUNDLED_HMM) if hmm is None else hmm),
        stopwords=frozenset() if stopwords is None else load_stopwords(stopwords),
    )
