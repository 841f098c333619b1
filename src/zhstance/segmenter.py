"""Chinese word segmentation: prefix-dictionary DAG routing with an HMM fallback.

A sentence (a run of Chinese characters) is segmented by building the DAG
of all dictionary-consistent words and picking the max-log-probability
path. Runs of leftover single characters that are not dictionary words
themselves can be re-segmented by a four-state (B/M/E/S) character-tagging
HMM decoded with Viterbi, which recovers out-of-vocabulary words.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from .zh_convert import prefix_closure, word_ends

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

DEFAULT_FLOOR_LOGP = math.log(1e-12)

# Han ideographs: CJK Unified Ideographs and Extension A, the compatibility
# ideographs, and Extensions B-H with their supplement (planes 2 and 3).
_HAN_RUN = re.compile("[\u3400-\u4dbf\u4e00-\u9fff\uf900-\ufaff\U00020000-\U000323af]+")

TokenStream = list[str]


class LexiconError(ValueError):
    """Raised for malformed lexicon files or entries."""


class HmmModelError(ValueError):
    """Raised for malformed HMM parameter files."""


@dataclass(frozen=True)
class Lexicon:
    entries: dict[str, int]
    total: int
    prefix_set: frozenset[str]


@dataclass(frozen=True)
class HmmModel:
    start_logp: dict[str, float]
    trans_logp: dict[tuple[str, str], float]
    emit_logp: dict[str, dict[str, float]]
    floor_logp: float = DEFAULT_FLOOR_LOGP


def build_lexicon(entries: dict[str, int]) -> Lexicon:
    for word, freq in entries.items():
        if not word:
            raise LexiconError("empty word")
        if not isinstance(freq, int) or isinstance(freq, bool) or freq <= 0:
            raise LexiconError(f"word {word!r}: frequency must be a positive integer, got {freq!r}")
    return Lexicon(dict(entries), sum(entries.values()), prefix_closure(entries))


def load_lexicon(path) -> Lexicon:
    """Load a ``word freq [tag]`` lexicon file; the tag column is ignored."""
    entries: dict[str, int] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise LexiconError(f"{path}: line {lineno}: expected 'word freq [tag]'")
            word = parts[0]
            try:
                freq = int(parts[1])
            except ValueError:
                raise LexiconError(f"{path}: line {lineno}: non-numeric frequency {parts[1]!r}") from None
            if freq <= 0:
                raise LexiconError(f"{path}: line {lineno}: non-positive frequency for {word!r}")
            entries[word] = freq
    return build_lexicon(entries)


def add_word(lex: Lexicon, word: str, freq: int) -> Lexicon:
    """Return a new lexicon with the word inserted or its frequency replaced."""
    if not word:
        raise LexiconError("empty word")
    if freq <= 0:
        raise LexiconError(f"word {word!r}: frequency must be positive")
    entries = dict(lex.entries)
    entries[word] = freq
    return build_lexicon(entries)


def build_dag(sentence: str, lex: Lexicon) -> dict[int, list[int]]:
    """Map each start index i to the sorted end indices j of dictionary words
    sentence[i..j], always including j = i as the single-character fallback.

    Scanning from i stops as soon as the fragment leaves the prefix set.
    """
    return dict(enumerate(word_ends(sentence, lex.entries, lex.prefix_set)))


def _word_logp(word: str, lex: Lexicon, log_total: float) -> float:
    freq = lex.entries.get(word)
    if freq is None:
        return -log_total  # ln(1/total) floor for single-character fallbacks
    return math.log(freq) - log_total


def _best_routes(sentence: str, dag: dict[int, list[int]], lex: Lexicon) -> list[tuple[float, int]]:
    """Right-to-left dynamic programming over the DAG.

    best[i] = (score, j): the best route through sentence[i:] has log-probability
    score and starts with the word i..j; score = max over DAG edges (i, j) of
    logp(word i..j) + best[j+1].score. Score ties go to the longer word.
    """
    n = len(sentence)
    log_total = math.log(lex.total) if lex.total > 0 else 0.0
    best = [(0.0, n)] * (n + 1)
    for i in range(n - 1, -1, -1):
        choice = None
        for j in dag[i]:
            score = _word_logp(sentence[i:j + 1], lex, log_total) + best[j + 1][0]
            if choice is None or score > choice[0] or (score == choice[0] and j > choice[1]):
                choice = (score, j)
        best[i] = choice
    return best


def max_prob_route(sentence: str, dag: dict[int, list[int]], lex: Lexicon) -> TokenStream:
    """Best segmentation: the words along the DP's backpointers."""
    best = _best_routes(sentence, dag, lex)
    tokens = []
    i = 0
    while i < len(sentence):
        j = best[i][1]
        tokens.append(sentence[i:j + 1])
        i = j + 1
    return tokens


def route_score(sentence: str, dag: dict[int, list[int]], lex: Lexicon) -> float:
    """Log-probability of the best route (the DP's optimum value)."""
    return _best_routes(sentence, dag, lex)[0][0]


def load_hmm(path) -> HmmModel:
    """Load HMM parameters from a JSON object with start/trans/emit
    log-probability tables and an optional floor_logp for unseen emissions
    ("floor" is accepted as its older name). Unknown keys, non-numeric and
    non-finite values are rejected; absent transitions are structural zeros."""
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)

    def fail(msg: str):
        raise HmmModelError(f"{path}: {msg}")

    def table(value, where: str) -> dict:
        if not isinstance(value, dict):
            fail(f"{where} must be an object")
        return value

    def logp(value, where: str) -> float:
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            fail(f"{where} must be a finite number, got {value!r}")
        return float(value)

    table(raw, "the HMM file")
    unknown = sorted(set(raw) - {"start", "trans", "emit", "floor_logp", "floor"})
    if unknown:
        fail(f"unknown key(s) {unknown}")
    for key in ("start", "trans", "emit"):
        if key not in raw:
            fail(f"missing {key!r} table")
    if "floor" in raw and "floor_logp" in raw:
        fail("both 'floor_logp' and its older name 'floor' given")
    start = {}
    for state, value in table(raw["start"], "start").items():
        if state not in STATES:
            fail(f"unknown start state {state!r}")
        start[state] = logp(value, f"start.{state}")
    trans = {}
    for src, row in table(raw["trans"], "trans").items():
        if src not in STATES:
            fail(f"unknown transition source {src!r}")
        for dst, value in table(row, f"trans.{src}").items():
            if dst not in ALLOWED_TRANS[src]:
                fail(f"forbidden transition {src}->{dst}")
            trans[(src, dst)] = logp(value, f"trans.{src}.{dst}")
    emit = {s: {} for s in STATES}
    for state, row in table(raw["emit"], "emit").items():
        if state not in STATES:
            fail(f"unknown emission state {state!r}")
        emit[state] = {ch: logp(value, f"emit.{state}.{ch}")
                       for ch, value in table(row, f"emit.{state}").items()}
    floor = logp(raw.get("floor_logp", raw.get("floor", DEFAULT_FLOOR_LOGP)), "floor_logp")
    return HmmModel(start, trans, emit, floor)


def viterbi(observations: str, hmm: HmmModel) -> list[str]:
    """Most probable B/M/E/S state sequence for a character sequence.

    Unseen emissions score floor_logp, absent transitions -inf, and the
    final state must be E or S. Ties prefer the earlier state in B<M<E<S
    order, both at backpointers and at the final state.
    """
    if not observations:
        raise ValueError("empty observation sequence")

    def emit(state: str, ch: str) -> float:
        return hmm.emit_logp.get(state, {}).get(ch, hmm.floor_logp)

    first = observations[0]
    delta = {s: hmm.start_logp.get(s, NEG_INF) + emit(s, first) for s in STATES}
    back: list[dict[str, str]] = []
    for ch in observations[1:]:
        new_delta = {}
        pointers = {}
        for state in STATES:
            best_score = NEG_INF
            best_prev = STATES[0]
            for prev in STATES:
                t = hmm.trans_logp.get((prev, state), NEG_INF)
                score = delta[prev] + t
                if score > best_score:
                    best_score = score
                    best_prev = prev
            new_delta[state] = best_score + emit(state, ch)
            pointers[state] = best_prev
        delta = new_delta
        back.append(pointers)

    last = max(FINAL_STATES, key=lambda s: (delta[s], -STATES.index(s)))
    path = [last]
    for pointers in reversed(back):
        path.append(pointers[path[-1]])
    path.reverse()
    return path


def hmm_segment(span: str, hmm: HmmModel) -> TokenStream:
    """Segment a span by Viterbi states: words end at E and S."""
    tokens = []
    start = 0
    for i, state in enumerate(viterbi(span, hmm)):
        if state in ("E", "S"):
            tokens.append(span[start:i + 1])
            start = i + 1
    if start < len(span):
        tokens.append(span[start:])  # decoder ended mid-word; keep the tail
    return tokens


def _cut_han(run: str, lex: Lexicon, hmm: HmmModel | None) -> TokenStream:
    tokens = max_prob_route(run, build_dag(run, lex), lex)
    if hmm is None:
        return tokens
    out: TokenStream = []
    buf: list[str] = []

    def flush():
        if len(buf) == 1:
            out.append(buf[0])
        elif len(buf) > 1:
            out.extend(hmm_segment("".join(buf), hmm))
        buf.clear()

    for tok in tokens:
        if len(tok) == 1 and tok not in lex.entries:
            buf.append(tok)
        else:
            flush()
            out.append(tok)
    flush()
    return out


def _cut_chunk(chunk: str, lex: Lexicon, hmm: HmmModel | None) -> TokenStream:
    tokens: TokenStream = []
    pos = 0
    for m in _HAN_RUN.finditer(chunk):
        if m.start() > pos:
            tokens.append(chunk[pos:m.start()])
        tokens.extend(_cut_han(m.group(), lex, hmm))
        pos = m.end()
    if pos < len(chunk):
        tokens.append(chunk[pos:])
    return tokens


def segment(text: str, lex: Lexicon, hmm: HmmModel | None = None, clean: bool = True) -> TokenStream:
    """Tokenize mixed text.

    Chinese runs go through the DAG router (plus the HMM fallback when a
    model is given); other runs are split on whitespace and kept as
    literal tokens. With clean on (the default), URL and @-mention chunks
    are dropped and ``#`` is stripped from hashtags before segmentation,
    since those are platform artifacts rather than lexical evidence.
    """
    tokens: TokenStream = []
    for chunk in text.split():
        if clean:
            if chunk.startswith(("http://", "https://")) or chunk.startswith("@"):
                continue
            if "#" in chunk:
                chunk = chunk.replace("#", "")
                if not chunk:
                    continue
        tokens.extend(_cut_chunk(chunk, lex, hmm))
    return tokens
