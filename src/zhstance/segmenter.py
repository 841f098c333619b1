"""Chinese word segmentation: prefix-dictionary DAG routing with an HMM fallback.

A sentence (a run of Chinese characters) is segmented by picking the
max-log-probability path through the DAG of its dictionary words. Stretches
of leftover single characters that are not dictionary words themselves can
be re-segmented by a four-state (B/M/E/S) character-tagging HMM decoded
with Viterbi, which recovers out-of-vocabulary words.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

from .textfile import MAX_WORD_LENGTH, check_int, check_keys, check_number, read_data_lines, read_json

NEG_INF = float("-inf")

STATES = ("B", "M", "E", "S")
# Word-position structure: B begins a multi-char word, M continues it,
# E ends it, S is a single-char word.
ALLOWED_TRANS = {
    "B": ("M", "E"),
    "M": ("M", "E"),
    "E": ("B", "S"),
    "S": ("B", "S"),
}
FINAL_STATES = ("E", "S")
_TRANS_ORDER = tuple((src, dst) for src in STATES for dst in ALLOWED_TRANS[src])
_STATE_INDEX = {s: i for i, s in enumerate(STATES)}

DEFAULT_FLOOR_LOGP = math.log(1e-12)

# Han ideographs: CJK Unified Ideographs and Extension A, the compatibility
# ideographs, and Extensions B-H with their supplement (planes 2 and 3).
_HAN = "\u3400-\u4dbf\u4e00-\u9fff\uf900-\ufaff\U00020000-\U000323af"
# a Han run (group 1), or a run of other characters that are not whitespace
_PIECE = re.compile(f"([{_HAN}]+)|[^\\s{_HAN}]+")
# a URL or @-mention chunk: whitespace or the text's start comes before it
_CLUTTER = re.compile(r"(?<!\S)(?:https?://|@)\S*")

TokenStream = list[str]


class LexiconError(ValueError):
    """Raised for malformed lexicon files or entries."""


class HmmModelError(ValueError):
    """Raised for malformed HMM parameter files."""


@dataclass(frozen=True)
class Lexicon:
    """Word frequencies and their total. A word is non-empty, at most
    MAX_WORD_LENGTH characters, and holds no whitespace (segmentation cuts
    text there, so it could never match); a frequency is an integer >= 1.
    The total and the private fields are derived once, when the lexicon is
    built, so routes do not follow later changes to entries. The route
    dictionary is laid out like jieba's."""

    entries: dict[str, int]
    total: int = field(init=False)  # the frequencies' sum
    # (route dictionary, ln(1/total) for characters outside entries): the
    # dictionary maps each word to ln(freq / total) and each proper prefix
    # that is not a word, of two or more characters, to -inf
    _routes: tuple[dict[str, float], float] = field(init=False, repr=False, compare=False)
    # first characters of the multi-character words
    _word_starts: frozenset[str] = field(init=False, repr=False, compare=False)
    # the one-character words, each re.escape'd, for _single_words
    _singles: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for word, freq in self.entries.items():
            if word.split() != [word]:
                raise LexiconError(f"word {word!r} is empty or holds whitespace")
            if len(word) > MAX_WORD_LENGTH:
                raise LexiconError(f"word {word[:10]!r}... is longer than {MAX_WORD_LENGTH} characters")
            check_int(freq, LexiconError, f"word {word!r}: frequency", 1)
        object.__setattr__(self, "total", sum(self.entries.values()))
        log_total = math.log(self.total) if self.total > 0 else 0.0
        routes = {word[:i]: NEG_INF for word in self.entries for i in range(2, len(word))}
        routes.update((word, math.log(freq) - log_total) for word, freq in self.entries.items())
        object.__setattr__(self, "_routes", (routes, -log_total))
        object.__setattr__(self, "_word_starts",
                           frozenset(word[0] for word in self.entries if len(word) > 1))
        object.__setattr__(self, "_singles",
                           "".join(re.escape(word) for word in self.entries if len(word) == 1))

    @cached_property
    def _single_words(self) -> re.Pattern:
        """The one-character words as one capturing class, compiled on first use."""
        return re.compile(f"([{self._singles}])" if self._singles else "(?!)")  # "(?!)" never matches


@dataclass(frozen=True)
class HmmModel:
    """B/M/E/S tagging model in log-probabilities.

    The decoder reads the start and emission tables of the four states and
    only the 8 allowed transitions (ALLOWED_TRANS); any other trans_logp key
    is ignored. Starts, transitions and copies of the per-state emission
    rows are taken once, when the model is built, so changing them
    afterwards has no effect.
    """

    start_logp: dict[str, float]
    trans_logp: dict[tuple[str, str], float]
    emit_logp: dict[str, dict[str, float]]
    floor_logp: float = DEFAULT_FLOOR_LOGP
    # (starts in B M E S order, allowed transitions in _TRANS_ORDER,
    # emission dicts in B M E S order); an absent start or transition is -inf
    _tables: tuple = field(init=False, repr=False, compare=False)
    # the characters of the four emission rows
    _emit_chars: frozenset[str] = field(init=False, repr=False, compare=False)
    # stretch length -> (start, end) of each word of an all-unseen stretch
    _unseen_cuts: dict[int, tuple[tuple[int, int], ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(dict(self.emit_logp.get(s, {})) for s in STATES)
        object.__setattr__(self, "_tables", (
            tuple(self.start_logp.get(s, NEG_INF) for s in STATES),
            tuple(self.trans_logp.get(t, NEG_INF) for t in _TRANS_ORDER),
            rows))
        object.__setattr__(self, "_emit_chars", frozenset().union(*rows))
        object.__setattr__(self, "_unseen_cuts", {})


def load_lexicon(path) -> Lexicon:
    """Load a ``word freq [tag]`` lexicon file, one line per word; the tag is ignored."""
    entries: dict[str, int] = {}
    for lineno, line in read_data_lines(path, LexiconError):
        parts = line.split()
        if not 2 <= len(parts) <= 3:
            raise LexiconError(f"{path}: line {lineno}: expected 'word freq [tag]'")
        word, digits = parts[0], parts[1]
        if len(word) > MAX_WORD_LENGTH:
            raise LexiconError(f"{path}: line {lineno}: word is longer than {MAX_WORD_LENGTH} characters")
        if word in entries:
            raise LexiconError(f"{path}: line {lineno}: word {word!r} repeats an earlier line")
        try:
            freq = int(digits) if digits.isascii() and digits.isdigit() else 0
        except ValueError:  # more digits than int() converts
            freq = 0
        if freq <= 0:
            raise LexiconError(f"{path}: line {lineno}: frequency {digits!r} is not a positive integer")
        entries[word] = freq
    return Lexicon(entries)


def build_dag(sentence: str, lex: Lexicon) -> dict[int, list[int]]:
    """Map each start index i to the sorted end indices j of dictionary words
    sentence[i..j], always including j = i as the single-character fallback.

    Scanning from i stops at the first fragment that is absent from the
    route dictionary. The route scans the same dictionary and builds no DAG.
    """
    dag = {}
    for i in range(len(sentence)):
        dag[i] = ends = [i]
        for j in range(i + 2, len(sentence) + 1):
            logp = lex._routes[0].get(sentence[i:j])
            if logp is None:
                break
            if logp != NEG_INF:
                ends.append(j - 1)
    return dag


def _word_spans(sentence: str, lex: Lexicon) -> list[tuple[int, int]]:
    """The best route's multi-character words, as (start, end) slices in order.

    score[i] is the log-probability of the best route through sentence[i:]:
    the max over words sentence[i..j] of logp(word) + score[j+1]; score ties
    go to the longer word. Every character is a word on its own (scored
    ln(1/total) outside the lexicon); only a first character of a
    multi-character word starts a scan for longer ones, so a sentence
    without one has no multi-character word. A prefix that is not a word
    scores -inf, which never reaches the finite best.
    """
    (routes, oov_logp), starts = lex._routes, lex._word_starts
    if starts.isdisjoint(sentence):
        return []
    n = len(sentence)
    score = [0.0] * (n + 1)
    ends = {}  # i -> end of the best route's first word from i, where that is longer than one
    for i in range(n - 1, -1, -1):
        ch = sentence[i]
        best = routes.get(ch, oov_logp) + score[i + 1]
        if ch in starts:
            for j in range(i + 2, n + 1):
                logp = routes.get(sentence[i:j])
                if logp is None:
                    break
                s = logp + score[j]
                if s >= best:  # ends ascend, so a tie goes to the longer word
                    best = s
                    ends[i] = j
        score[i] = best
    # left to right, the route takes each word starting at or after the last one's end
    spans = []
    pos = 0
    for i, j in reversed(ends.items()):
        if i >= pos:
            spans.append((i, j))
            pos = j
    return spans


def load_hmm(path) -> HmmModel:
    """Load HMM parameters from a JSON object with start/trans/emit
    log-probability tables and an optional floor_logp for unseen emissions.
    Unknown keys, emission keys that are not one character, non-numeric and
    non-finite values, and start probabilities on M or E are rejected;
    absent transitions are structural zeros."""
    return read_json(path, HmmModelError, _parse_hmm)


def _parse_hmm(raw) -> HmmModel:  # read_json adds the file to its errors
    def table(value, where: str, allowed=STATES) -> dict:
        return check_keys(value, HmmModelError, where, allowed)

    def logp(value, where: str) -> float:
        return float(check_number(value, HmmModelError, where))

    check_keys(raw, HmmModelError, "the HMM file", {"start", "trans", "emit", "floor_logp"},
               ("start", "trans", "emit"))
    start = {}
    for state, value in table(raw["start"], "start").items():
        if state in ("M", "E"):
            raise HmmModelError(f"forbidden start state {state} (a path cannot begin mid-word)")
        start[state] = logp(value, f"start.{state}")
    trans = {}
    for src, row in table(raw["trans"], "trans").items():
        for dst, value in table(row, f"trans.{src}").items():
            if dst not in ALLOWED_TRANS[src]:
                raise HmmModelError(f"forbidden transition {src}->{dst}")
            trans[(src, dst)] = logp(value, f"trans.{src}.{dst}")
    emit = {s: {} for s in STATES}
    for state, row in table(raw["emit"], "emit").items():
        for ch, value in table(row, f"emit.{state}", None).items():
            if len(ch) != 1:
                raise HmmModelError(f"emit.{state}: key {ch!r} is not one character")
            emit[state][ch] = logp(value, f"emit.{state}.{ch}")
    floor = logp(raw.get("floor_logp", DEFAULT_FLOOR_LOGP), "floor_logp")
    return HmmModel(start, trans, emit, floor)


def viterbi(observations: str, hmm: HmmModel) -> list[str]:
    """Most probable B/M/E/S state sequence for a character sequence.

    Unseen emissions score floor_logp, absent transitions -inf, and the
    final state must be E or S. Each state compares only its two allowed
    predecessors. Ties prefer the earlier state in B<M<E<S order, both at
    backpointers and at the final state; a state no finite path reaches
    points back to B.
    """
    if not observations:
        raise ValueError("empty observation sequence")
    (sB, sM, sE, sS), (tBM, tBE, tMM, tME, tEB, tES, tSB, tSS), (eB, eM, eE, eS) = hmm._tables
    floor = hmm.floor_logp

    ch = observations[0]
    dB = sB + eB.get(ch, floor)
    dM = sM + eM.get(ch, floor)
    dE = sE + eE.get(ch, floor)
    dS = sS + eS.get(ch, floor)
    back: list[tuple[str, str, str, str]] = []
    for ch in observations[1:]:
        # B and S follow E or S; M and E follow B or M. B is both the
        # fallback and the first predecessor of M and E, so their best
        # starts at B's score.
        pB, nB = "B", NEG_INF
        x = dE + tEB
        if x > nB:
            pB, nB = "E", x
        x = dS + tSB
        if x > nB:
            pB, nB = "S", x
        pM, nM = "B", dB + tBM
        x = dM + tMM
        if x > nM:
            pM, nM = "M", x
        pE, nE = "B", dB + tBE
        x = dM + tME
        if x > nE:
            pE, nE = "M", x
        pS, nS = "B", NEG_INF
        x = dE + tES
        if x > nS:
            pS, nS = "E", x
        x = dS + tSS
        if x > nS:
            pS, nS = "S", x
        dB = nB + eB.get(ch, floor)
        dM = nM + eM.get(ch, floor)
        dE = nE + eE.get(ch, floor)
        dS = nS + eS.get(ch, floor)
        back.append((pB, pM, pE, pS))

    state = "E" if dE >= dS else "S"
    path = [state]
    for pointers in reversed(back):
        state = pointers[_STATE_INDEX[state]]
        path.append(state)
    path.reverse()
    return path


def hmm_segment(span: str, hmm: HmmModel) -> TokenStream:
    """Segment a span by its Viterbi states: words end at E and S, and the
    decoder always ends on one of them.

    The decoder reads a character only through the emission rows, so a
    character in none of them scores floor_logp in every state, and the
    path of a span made only of such characters depends on the model and
    the span's length alone. The first such span of each length is
    decoded and its cuts kept on the model; later ones of that length are
    sliced at the kept cuts. The memo holds one entry per distinct length,
    so it is bounded by the longest Han run segmented.
    """
    unseen = hmm._emit_chars.isdisjoint(span)
    if unseen:
        cuts = hmm._unseen_cuts.get(len(span))
        if cuts is not None:
            return [span[i:j] for i, j in cuts]
    tokens = []
    start = 0
    for i, state in enumerate(viterbi(span, hmm)):
        if state in ("E", "S"):
            tokens.append(span[start:i + 1])
            start = i + 1
    if unseen:
        ends = list(accumulate(map(len, tokens), initial=0))
        hmm._unseen_cuts[len(span)] = tuple(zip(ends, ends[1:]))
    return tokens


def _cut_gap(gap: str, lex: Lexicon, hmm: HmmModel | None, out: TokenStream) -> None:
    """Append the words of a gap between the route's words. Without an
    HMM each character is a word; with one, each one-character word
    stays, and the HMM cuts each stretch of others."""
    if hmm is None or len(gap) < 2:
        out.extend(gap)  # one character, if any, is a word of its own
        return
    # the split alternates other characters (possibly none) and one-character words
    for piece in lex._single_words.split(gap):
        if len(piece) > 1:
            out.extend(hmm_segment(piece, hmm))
        elif piece:
            out.append(piece)


def max_prob_route(sentence: str, lex: Lexicon, hmm: HmmModel | None = None) -> TokenStream:
    """Best segmentation: the words of _word_spans, and the gaps between
    them cut by _cut_gap."""
    tokens: TokenStream = []
    pos = 0
    for i, j in _word_spans(sentence, lex):
        _cut_gap(sentence[pos:i], lex, hmm, tokens)
        tokens.append(sentence[i:j])
        pos = j
    _cut_gap(sentence[pos:], lex, hmm, tokens)
    return tokens


def segment(text: str, lex: Lexicon, hmm: HmmModel | None = None, clean: bool = True) -> TokenStream:
    """Tokenize mixed text in one pass.

    Each Han run goes through the router (plus the HMM fallback when a
    model is given); each run of other non-whitespace characters is one
    literal token. With clean on (the default), whitespace-delimited chunks
    that start with a URL scheme or ``@`` are dropped, then every ``#`` is
    removed (so ``#http://x`` is kept as ``http://x``); these are platform
    artifacts, not lexical evidence. ``re``'s ``\\s`` matches exactly the
    characters that ``str.split()`` splits on.
    """
    if clean:
        text = _CLUTTER.sub("", text).replace("#", "")
    tokens: TokenStream = []
    for m in _PIECE.finditer(text):
        run = m.group(1)
        if run is None:
            tokens.append(m.group())
        else:
            tokens.extend(max_prob_route(run, lex, hmm))
    return tokens
