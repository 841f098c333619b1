"""Property-based tests for conversion, segmentation, both neighbour
searches, fold document frequencies and fold statistics (Hypothesis)."""

import math
import random
import re
import statistics
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from zhstance.classify import _LANE_BYTES, KnnIndex, Neighbor, TermSetIndex, _vote, baseline1_predict  # noqa: E402
from zhstance.corpus import AccountRecord  # noqa: E402
from zhstance.evaluate import mean_std  # noqa: E402
from zhstance.pipeline import Pipeline, PipelineConfig  # noqa: E402
from zhstance.resources import Resources, load_resources  # noqa: E402
from zhstance.segmenter import (  # noqa: E402
    ALLOWED_TRANS,
    FINAL_STATES,
    NEG_INF,
    STATES,
    HmmModel,
    Lexicon,
    build_dag,
    hmm_segment,
    max_prob_route,
    segment,
    viterbi,
)
from zhstance.textfile import MAX_WORD_LENGTH  # noqa: E402
from zhstance.vectorize import TF_MODES, SparseVector, cosine_similarity, fit_vectorizer  # noqa: E402
from zhstance.zh_convert import ConversionTable, to_simplified  # noqa: E402

_LANES = _LANE_BYTES // 4  # k-NN queries per pass, in 4-byte lanes

RESOURCES = load_resources()
TABLE = RESOURCES.table
LEX = RESOURCES.lexicon

# Derandomized so that the suite gives the same verdict on every run.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def width_loop_to_simplified(text, table):
    """The earlier converter: at each position try every phrase width from
    the longest key's down to 2, then the character keys."""
    phrases = {k: v for k, v in table.mapping.items() if len(k) > 1}
    chars = {k: v for k, v in table.mapping.items() if len(k) == 1}
    max_len = max(map(len, phrases), default=0)
    out = []
    i = 0
    while i < len(text):
        for width in range(min(max_len, len(text) - i), 1, -1):
            mapped = phrases.get(text[i:i + width])
            if mapped is not None:
                out.append(mapped)
                i += width
                break
        else:
            out.append(chars.get(text[i], text[i]))
            i += 1
    return "".join(out)


# Phrase keys, their characters and their prefixes, so that partial
# matches and overlapping phrases come up often; plus arbitrary noise.
_KEYS = sorted(k for k in TABLE.mapping if len(k) > 1)
_KEY_CHARS = sorted({c for k in TABLE.mapping for c in k})
table_text = st.lists(st.one_of(
    st.sampled_from(_KEYS),
    st.sampled_from(_KEYS).map(lambda k: k[:-1]),
    st.sampled_from(_KEY_CHARS),
    st.characters(),
), max_size=30).map("".join)

# Lexicon words, Han characters from every block the segmenter knows and
# just outside them, punctuation, whitespace and platform clutter.
_PIECES = ["\u3400", "\u3454", "\u4dbf", "\u4e00", "\u9fff", "\uf900", "\ufa0e",
           "\U00020000", "\U0002b696", "\U0002c621", "\U000323af",
           "\u33ff", "\u4dc0", "\ua000", "\U000323b0", "\u3007", "\u3105",
           "！", "，", " ", "\u3000", "\n", "#", "@x", "http://t.co/a", "A1", "é"]
mixed_text = st.lists(st.one_of(
    st.sampled_from(sorted(LEX.entries)),
    st.sampled_from(_PIECES),
    st.characters(),
), max_size=30).map("".join)


# Tiny tables over two letters and regular-expression metacharacters.
# Keys are often prefixes or extensions of earlier keys, so keys nest and
# overlap far more often than in the bundled table. Outputs may hold key
# characters, so converting a phrase's output again would change it.
_KEY_ALPHABET = "AB.*|([\\"
_key_text = st.text(_KEY_ALPHABET, min_size=1, max_size=4)
_output_text = st.text("xy" + _KEY_ALPHABET, min_size=1, max_size=3)


@st.composite
def small_table(draw):
    keys = []
    for _ in range(draw(st.integers(0, 12))):
        if keys and draw(st.booleans()):
            base = draw(st.sampled_from(keys))
            keys.append(base[:draw(st.integers(1, len(base)))]
                        + draw(st.text(_KEY_ALPHABET, max_size=2)))
        else:
            keys.append(draw(_key_text))
    return ConversionTable({key: draw(_output_text) for key in keys})


# Tables without phrase keys: character keys only, or no entries at all.
char_only_table = st.dictionaries(st.sampled_from(_KEY_ALPHABET), _output_text,
                                  max_size=6).map(ConversionTable)
small_text = st.text(_KEY_ALPHABET + "E", max_size=20)


@PROPERTY
@given(table_text)
def test_to_simplified_matches_width_loop(text):
    assert to_simplified(text, TABLE) == width_loop_to_simplified(text, TABLE)


@PROPERTY
@given(small_table(), small_text)
def test_to_simplified_matches_width_loop_on_small_tables(table, text):
    assert to_simplified(text, table) == width_loop_to_simplified(text, table)


@PROPERTY
@given(char_only_table, small_text)
def test_to_simplified_matches_width_loop_without_phrase_keys(table, text):
    assert to_simplified(text, table) == width_loop_to_simplified(text, table)


def seeded_text(rng, keys, alphabet, pieces):
    """Keys, keys missing their last character, and single characters."""
    out = []
    for _ in range(pieces):
        key = rng.choice(keys)
        out.append(rng.choice([key, key[:-1], rng.choice(alphabet)]))
    return "".join(out)


def test_to_simplified_matches_width_loop_on_a_large_table():
    # 20,000 keys over five first characters, so that thousands share one;
    # half the drawn keys bring all their prefixes, so keys nest deeply
    rng = random.Random(19)
    alphabet = "甲乙丙丁戊己庚辛壬癸"
    keys = set()
    while len(keys) < 20_000:
        key = rng.choice(alphabet[:5]) + "".join(rng.choices(alphabet, k=rng.randint(1, 7)))
        keys.update([key] if rng.random() < 0.5 else (key[:i] for i in range(2, len(key) + 1)))
    keys = sorted(keys)[:20_000]
    pairs = [(key, "".join(rng.choices("xy" + alphabet, k=rng.randint(1, 3)))) for key in keys]
    table = ConversionTable({**dict(pairs), "甲": "J", "己": "j"})
    text = seeded_text(rng, keys, alphabet + "z", 3000)
    assert to_simplified(text, table) == width_loop_to_simplified(text, table)


def test_to_simplified_matches_width_loop_on_a_longest_allowed_key():
    rng = random.Random(19)
    alphabet = "甲乙丙丁"
    n = MAX_WORD_LENGTH
    long_key = "".join(rng.choices(alphabet, k=n))
    table = ConversionTable({long_key[:i]: str(i) for i in range(1, n + 1)})
    text = long_key + "z" + long_key[:n - 1] + long_key[:2] + "z" + long_key[1:n // 10]
    assert to_simplified(text, table) == width_loop_to_simplified(text, table)


# Every whitespace character and the pieces that cleaning acts on, so that
# "#" lands before URLs and mentions and "@" inside chunks.
_WHITESPACE = [ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace()]
_CLUTTER = ["#", "@", "@x", "http://", "https://t.co/甲", "http:/", "https", "a@b", "中国#"]
clutter_text = st.lists(st.one_of(
    mixed_text,
    st.sampled_from(_WHITESPACE),
    st.sampled_from(_CLUTTER),
), max_size=12).map("".join)


@PROPERTY
@given(mixed_text, st.booleans())
def test_segment_tokens_partition_the_chunks(text, with_hmm):
    tokens = segment(text, LEX, RESOURCES.hmm if with_hmm else None, clean=False)
    assert "".join(tokens) == "".join(text.split())
    assert all(tokens)


HAN_BLOCKS = ((0x3400, 0x4DBF), (0x4E00, 0x9FFF), (0xF900, 0xFAFF), (0x20000, 0x323AF))


def is_han(ch):
    return any(lo <= ord(ch) <= hi for lo, hi in HAN_BLOCKS)


@PROPERTY
@given(mixed_text)
def test_no_token_mixes_han_and_other_characters(text):
    for token in segment(text, LEX, RESOURCES.hmm, clean=False):
        assert len({is_han(ch) for ch in token}) == 1, token


@PROPERTY
@given(st.one_of(mixed_text, st.text()))
def test_segment_never_raises(text):
    segment(text, LEX, RESOURCES.hmm)


def sixteen_transition_viterbi(observations, hmm):
    """The earlier decoder: every state tries all four predecessors, reading
    the model's dicts at each step; ties keep the earlier state."""

    def emit(state, ch):
        return hmm.emit_logp.get(state, {}).get(ch, hmm.floor_logp)

    delta = {s: hmm.start_logp.get(s, NEG_INF) + emit(s, observations[0]) for s in STATES}
    back = []
    for ch in observations[1:]:
        new_delta = {}
        pointers = {}
        for state in STATES:
            best_score = NEG_INF
            best_prev = STATES[0]
            for prev in STATES:
                score = delta[prev] + hmm.trans_logp.get((prev, state), NEG_INF)
                if score > best_score:
                    best_score = score
                    best_prev = prev
            new_delta[state] = best_score + emit(state, ch)
            pointers[state] = best_prev
        delta = new_delta
        back.append(pointers)
    path = [max(FINAL_STATES, key=lambda s: (delta[s], -STATES.index(s)))]
    for pointers in reversed(back):
        path.append(pointers[path[-1]])
    path.reverse()
    return path


# Log-probabilities from a small pool, so that different paths often tie
# exactly. Any start, transition, emission row or emission may be missing,
# which also yields models where no path has a finite score.
_POOL = st.sampled_from([-1.0, -2.0, math.log(0.3)])
_ALLOWED = [(src, dst) for src in STATES for dst in ALLOWED_TRANS[src]]
hmm_models = st.builds(
    HmmModel,
    st.dictionaries(st.sampled_from(STATES), _POOL),
    st.dictionaries(st.sampled_from(_ALLOWED), _POOL),
    st.dictionaries(st.sampled_from(STATES), st.dictionaries(st.sampled_from("xyz"), _POOL)),
    _POOL,
)


# More examples than PROPERTY: an exact tie between M's two predecessors
# on the decoded path is rare, and 300 examples miss it.
@settings(PROPERTY, max_examples=600)
@given(hmm_models, st.text("xyzw", min_size=1, max_size=8))
def test_viterbi_matches_sixteen_transition_loop(hmm, observations):
    assert viterbi(observations, hmm) == sixteen_transition_viterbi(observations, hmm)


def cut_at_final_states(span, hmm):
    """A span cut by its Viterbi states: a word ends at every E and S."""
    tokens = []
    start = 0
    for i, state in enumerate(viterbi(span, hmm)):
        if state in FINAL_STATES:
            tokens.append(span[start:i + 1])
            start = i + 1
    return tokens


# x, y and z may have emission rows; a, b and c never do, so spans made of
# them alone take hmm_segment's per-length memo.
hmm_spans = st.text("xyzabc", min_size=1, max_size=8)
_MEMO_TRANS = {("B", "E"): -0.5, ("E", "B"): -0.7, ("E", "S"): -0.7,
               ("S", "B"): -0.7, ("S", "S"): -0.7, ("B", "M"): -1.2, ("M", "E"): -0.4}
# Built once, so that their memos stay warm from one example to the next.
MEMO_MODELS = [
    HmmModel({"B": -0.7, "S": -0.7}, _MEMO_TRANS, {}),
    HmmModel({"B": -0.7, "S": -0.7}, _MEMO_TRANS, {s: {} for s in STATES}, floor_logp=-2.0),
    HmmModel({"B": -0.7, "S": -0.7}, _MEMO_TRANS, {"S": {"x": 0.0}, "B": {"y": -0.1}}, -5.0),
    HmmModel({"B": -1.0, "S": -2.0}, {("S", "S"): -1.0, ("B", "E"): -1.0}, {"E": {"z": -1.0}}),
]


@PROPERTY
@given(st.sampled_from(MEMO_MODELS), hmm_spans)
def test_hmm_segment_is_the_viterbi_cut_on_warm_models(hmm, span):
    assert hmm_segment(span, hmm) == cut_at_final_states(span, hmm)


@PROPERTY
@given(hmm_models, st.lists(hmm_spans, min_size=1, max_size=8))
def test_hmm_segment_is_the_viterbi_cut_on_generated_models(hmm, spans):
    # the spans share one model, so the later ones meet the earlier ones' memo
    for span in spans:
        assert hmm_segment(span, hmm) == cut_at_final_states(span, hmm)


@PROPERTY
@given(st.dictionaries(st.sampled_from(STATES), _POOL),
       st.dictionaries(st.sampled_from(_ALLOWED), _POOL),
       st.dictionaries(st.sampled_from(_ALLOWED), _POOL),
       st.dictionaries(st.sampled_from(STATES), st.dictionaries(st.sampled_from("xyz"), _POOL)),
       st.lists(st.text("abc", min_size=1, max_size=8), min_size=1, max_size=6))
def test_models_differing_in_transitions_keep_their_own_cuts(start, trans1, trans2, emit, spans):
    first, second = HmmModel(start, trans1, emit), HmmModel(start, trans2, emit)
    for span in spans:
        assert hmm_segment(span, first) == cut_at_final_states(span, first)
        assert hmm_segment(span, second) == cut_at_final_states(span, second)


def test_models_differing_in_transitions_cut_one_unseen_span_apart():
    pairs = HmmModel({"B": 0.0}, {("B", "E"): 0.0, ("E", "B"): 0.0}, {})
    singles = HmmModel({"B": 0.0}, {("B", "E"): 0.0, ("E", "S"): 0.0, ("S", "S"): 0.0}, {})
    for _ in range(2):
        assert hmm_segment("abcd", pairs) == ["ab", "cd"]
        assert hmm_segment("abcd", singles) == ["ab", "c", "d"]


@PROPERTY
@given(st.one_of(st.sampled_from(MEMO_MODELS), hmm_models), st.sampled_from("xyzabc"))
def test_one_character_span_is_one_word(hmm, ch):
    assert hmm_segment(ch, hmm) == [ch]
    assert hmm_segment(ch, hmm) == [ch]


def test_memo_hit_is_a_fresh_list_of_the_viterbi_cut():
    # one model cuts every unseen span into one word (B M ... E), one into several
    inside_words = [("B", "M"), ("B", "E"), ("M", "M"), ("M", "E")]
    one_word = HmmModel({"B": 0.0}, dict.fromkeys(inside_words, 0.0), {})
    several = HmmModel({"B": -0.7, "S": -0.7}, _MEMO_TRANS, {})
    for hmm in (one_word, several):
        for n in range(1, 13):
            first, span = "abcdefghijkl"[:n], "lkjihgfedcba"[:n]
            hmm_segment(first, hmm)  # decoded, and its cut kept
            assert n in hmm._unseen_cuts
            got = hmm_segment(span, hmm)
            assert type(got) is list and got == cut_at_final_states(span, hmm)
            if hmm is one_word:
                assert got == [span]
            got.append("x")
            again = hmm_segment(span, hmm)
            assert again is not got and again == cut_at_final_states(span, hmm)


def brute_force_dag(sentence, entries):
    """Each start i mapped to i and every j with sentence[i..j] in the
    entries, trying every span."""
    n = len(sentence)
    return {i: [i] + [j for j in range(i + 1, n) if sentence[i:j + 1] in entries]
            for i in range(n)}


def per_edge_log_routes(sentence, dag, lex):
    """The earlier route DP over a whole DAG, taking math.log of the
    frequency on every edge."""
    n = len(sentence)
    log_total = math.log(lex.total) if lex.total > 0 else 0.0
    best = [(0.0, n)] * (n + 1)
    for i in range(n - 1, -1, -1):
        choice = None
        for j in dag[i]:
            freq = lex.entries.get(sentence[i:j + 1])
            logp = -log_total if freq is None else math.log(freq) - log_total
            score = logp + best[j + 1][0]
            if choice is None or score > choice[0] or (score == choice[0] and j > choice[1]):
                choice = (score, j)
        best[i] = choice
    tokens = []
    i = 0
    while i < n:
        tokens.append(sentence[i:best[i][1] + 1])
        i = best[i][1] + 1
    return tokens


# Few words over three letters with frequencies 1-3: single-character
# fallbacks then score like frequency-1 words, and equal-frequency words
# give routes that tie exactly.
small_lexicon = st.dictionaries(st.text("abc", min_size=1, max_size=3),
                                st.integers(1, 3), min_size=1, max_size=8).map(Lexicon)


@PROPERTY
@given(small_lexicon, st.text("abcd", max_size=10))
def test_dag_matches_brute_force(lex, sentence):
    assert build_dag(sentence, lex) == brute_force_dag(sentence, lex.entries)


@PROPERTY
@given(small_lexicon, st.text("abcd", min_size=1, max_size=10))
def test_route_matches_per_edge_log_dp(lex, sentence):
    want = per_edge_log_routes(sentence, brute_force_dag(sentence, lex.entries), lex)
    assert max_prob_route(sentence, lex) == want


def dag_everywhere_cut_han(run, lex, hmm):
    """The earlier Han-run cut: the DAG and the route on every run, then
    leftover single characters outside the lexicon to the HMM."""
    tokens = per_edge_log_routes(run, brute_force_dag(run, lex.entries), lex)
    if hmm is None:
        return tokens
    out = []
    buf = []

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


# Small lexicons over five Han characters, single- and multi-character
# words that overlap, and text over those characters, two Han characters
# in no word and spaces, so that many runs hold no word start.
han_words = st.dictionaries(st.text("甲乙丙丁戊", min_size=1, max_size=3),
                            st.integers(1, 3), min_size=1, max_size=8)
han_lexicon = han_words.map(Lexicon)


@PROPERTY
@given(han_lexicon, st.text("甲乙丙丁戊己庚 ", max_size=16), st.booleans())
def test_segment_matches_dag_on_every_run(lex, text, with_hmm):
    hmm = RESOURCES.hmm if with_hmm else None
    # every whitespace chunk of this text is one Han run
    want = [t for run in text.split() for t in dag_everywhere_cut_han(run, lex, hmm)]
    assert segment(text, lex, hmm) == want


@PROPERTY
@given(han_words, st.permutations("^]-\\"), st.text("甲乙丙丁戊己庚 ", max_size=16), st.booleans())
def test_segment_matches_dag_with_class_metacharacter_words(words, metas, text, with_hmm):
    # gaps are cut at the one-character words through one character class,
    # which these words would break unless escaped
    lex = Lexicon({**dict.fromkeys(metas, 1), **words})
    hmm = RESOURCES.hmm if with_hmm else None
    want = [t for run in text.split() for t in dag_everywhere_cut_han(run, lex, hmm)]
    assert segment(text, lex, hmm) == want


_HAN_RUN = re.compile("[\u3400-\u4dbf\u4e00-\u9fff\uf900-\ufaff\U00020000-\U000323af]+")


def per_chunk_segment(text, lex, hmm, clean):
    """The earlier segment: split on whitespace; with clean, drop URL and
    @-mention chunks and strip "#" from the rest; then cut each Han run of
    a chunk and keep the stretches between runs as tokens."""
    tokens = []
    for chunk in text.split():
        if clean:
            if chunk.startswith(("http://", "https://", "@")):
                continue
            chunk = chunk.replace("#", "")
        pos = 0
        for m in _HAN_RUN.finditer(chunk):
            if m.start() > pos:
                tokens.append(chunk[pos:m.start()])
            tokens.extend(dag_everywhere_cut_han(m.group(), lex, hmm))
            pos = m.end()
        if pos < len(chunk):
            tokens.append(chunk[pos:])
    return tokens


@PROPERTY
@given(clutter_text, st.booleans(), st.booleans())
def test_segment_matches_per_chunk_loop(text, clean, with_hmm):
    hmm = RESOURCES.hmm if with_hmm else None
    assert segment(text, LEX, hmm, clean) == per_chunk_segment(text, LEX, hmm, clean)


def per_tweet_tokens(texts, resources, clean):
    """The earlier account_tokens: each tweet converted and segmented on
    its own."""
    tokens = []
    for text in texts:
        tokens.extend(segment(to_simplified(text, resources.table), resources.token_lexicon,
                              resources.hmm, clean))
    return tokens


# Platform clutter and separators, inside and around Han runs.
_TWEET_PIECES = ["#", "甲#乙", "#丙丁", "@甲乙", "http://t.co/甲", "https://丙", " ", "\t",
                 "\u3000", "，", "a"]


@st.composite
def han_account(draw):
    """A small table over Han characters, a lexicon over them, and tweets
    that open with a phrase key's tail and close with a key's head, so that
    keys straddle the seams of the joined text; some tweets are empty or
    whitespace only."""
    pairs = draw(st.lists(st.tuples(st.text("甲乙丙丁", min_size=1, max_size=3),
                                    st.text("甲乙丙丁戊", min_size=1, max_size=2)), max_size=6))
    keys = [key for key, _ in pairs if len(key) > 1] or [""]
    piece = st.one_of(st.text("甲乙丙丁戊己", min_size=1, max_size=4), st.sampled_from(_TWEET_PIECES))
    texts = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 4)) == 0:
            texts.append(draw(st.sampled_from(["", " ", "\t\u3000"])))
            continue
        head = draw(st.sampled_from(keys))
        tail = draw(st.sampled_from(keys))
        texts.append(head[draw(st.integers(0, len(head))):]
                     + "".join(draw(st.lists(piece, max_size=4)))
                     + tail[:draw(st.integers(0, len(tail)))])
    return ConversionTable(dict(pairs)), draw(han_lexicon), texts


@PROPERTY
@given(han_account(), st.booleans(), st.booleans())
def test_account_tokens_match_per_tweet_loop(case, clean, with_hmm):
    table, lex, texts = case
    res = Resources(table, lex, RESOURCES.hmm if with_hmm else None, frozenset())
    account = AccountRecord("a", 0, None, tuple(texts))
    got = Pipeline(res, PipelineConfig(clean=clean)).account_tokens(account)
    assert got == per_tweet_tokens(texts, res, clean)


def exhaustive_baseline1(query_terms, train, k):
    """The earlier baseline1: a new set per training account, a full sort on
    (distance, account_id) and a Neighbor for every account."""
    query_set = frozenset(query_terms)
    scored = sorted(
        ((len(query_set ^ frozenset(terms)), account_id, label)
         for account_id, label, terms in train),
        key=lambda t: (t[0], t[1]),
    )
    neighbors = [
        Neighbor(account_id, label, 1.0 / (1.0 + distance))
        for distance, account_id, label in scored[:k]
    ]
    return _vote(neighbors, "uniform")


# Term lists over four letters, with repeats and empty lists; a few shared
# lists make duplicate training sets common, so distance ties are too.
term_lists = st.lists(st.sampled_from("abcd"), max_size=5).map(tuple)


@st.composite
def set_training(draw):
    n = draw(st.integers(1, 8))
    ids = draw(st.permutations([f"u{i}" for i in range(n)]))
    shared = draw(st.lists(term_lists, min_size=1, max_size=3))
    return [(account_id, draw(st.sampled_from("ABC")),
             draw(st.one_of(st.sampled_from(shared), term_lists)))
            for account_id in ids]


# Query terms may repeat and may lie outside every training set (x, y).
query_terms = st.lists(st.sampled_from("abcdxy"), max_size=8)


@PROPERTY
@given(set_training(), query_terms, st.lists(query_terms, max_size=6))
def test_baseline1_index_matches_exhaustive_sort(train, query, batch):
    index = TermSetIndex(train)
    for k in range(1, len(train) + 1):
        want = exhaustive_baseline1(query, train, k)
        # Prediction equality compares label, votes and the neighbours
        # with their similarities, in order
        assert baseline1_predict([tuple(query)], index, k) == [want]
        assert baseline1_predict([tuple(query)], TermSetIndex(train[::-1]), k) == [want]
        # A longer batch is scored together
        assert baseline1_predict(batch, index, k) == [exhaustive_baseline1(q, train, k) for q in batch]


def exhaustive_knn(query, train, vectorizer, k):
    """Every training account's vector transformed from its counts, every
    similarity computed, then a full sort on (-similarity, account_id)."""
    ranked = sorted(((cosine_similarity(query, vectorizer.transform(counts)), account_id, label)
                     for account_id, label, counts in train), key=lambda t: (-t[0], t[1]))
    return [Neighbor(account_id, label, sim) for sim, account_id, label in ranked[:k]]


# Term counts over a-e; x and y never occur in training, so they are
# outside every fitted vocabulary.
term_counts = st.dictionaries(st.sampled_from("abcde"), st.integers(1, 9), max_size=5)


@st.composite
def count_training(draw):
    """1-8 accounts plus "z". Every account holds "u" somewhere in its
    counts, so u's IDF is 0, and "z" holds only "u", so its norm is 0."""
    n = draw(st.integers(1, 8))
    train = []
    for account_id in draw(st.permutations([f"v{i}" for i in range(n)] + ["z"])):
        items = [] if account_id == "z" else list(draw(term_counts).items())
        items.insert(draw(st.integers(0, len(items))), ("u", draw(st.integers(1, 3))))
        train.append((account_id, draw(st.sampled_from("ABC")), dict(items)))
    return train


@settings(PROPERTY, max_examples=100)
@given(count_training(), st.sampled_from(TF_MODES),
       st.lists(st.dictionaries(st.sampled_from("abcdeuxy"), st.integers(1, 9), max_size=6),
                min_size=1, max_size=4),
       st.data())
def test_knn_index_over_counts_matches_exhaustive_sort(train, tf_mode, query_counts, data):
    vectorizer = fit_vectorizer([counts for _, _, counts in train], tf_mode)
    # Each query's TF-IDF vector, and the same counts written as weights,
    # which keeps u (IDF 0 in training) and x, y (outside the vocabulary);
    # {"x": 1.0} shares no term with any training account.
    queries = [vectorizer.transform(c) for c in query_counts]
    queries += [SparseVector({t: float(n) for t, n in c.items()}) for c in query_counts]
    queries.append(SparseVector({"x": 1.0}))
    index = KnnIndex(train, vectorizer)
    k = data.draw(st.integers(1, len(train)))
    wants = [exhaustive_knn(q, train, vectorizer, k) for q in queries]
    # Two passes of 57 and 56 queries, then three of 75; every query's
    # similarities must equal the oracle's (Neighbor compares with ==).
    for size in (_LANES + 1, 2 * _LANES + 1):
        assert index.nearest([queries[j % len(queries)] for j in range(size)], k) == [
            wants[j % len(queries)] for j in range(size)]


@st.composite
def folded_counts(draw):
    """Term counts of 2-12 documents, each dealt to one of up to 5 folds,
    so that fold sizes differ. A document may also hold its fold's own
    term, v0-v4, which occurs only in that fold's validation documents."""
    n = draw(st.integers(2, 12))
    folds = draw(st.permutations([0, 1] + [draw(st.integers(0, 4)) for _ in range(n - 2)]))
    docs = []
    for fold in folds:
        items = list(draw(term_counts).items())
        if draw(st.booleans()):
            items.insert(draw(st.integers(0, len(items))), (f"v{fold}", draw(st.integers(1, 9))))
        docs.append(dict(items))
    return docs, folds


@PROPERTY
@given(folded_counts(), st.sampled_from(TF_MODES), st.sampled_from([None, 2.0, 10.0]))
def test_fold_vectorizer_by_subtraction_is_the_training_fit(case, tf_mode, log_base):
    docs, folds = case
    whole = fit_vectorizer(docs, tf_mode, log_base)
    for fold in set(folds):
        validation = [doc for doc, f in zip(docs, folds) if f == fold]
        train = [doc for doc, f in zip(docs, folds) if f != fold]
        got, want = whole.without(validation), fit_vectorizer(train, tf_mode, log_base)
        assert got.document_frequency == want.document_frequency
        assert got.corpus_size == want.corpus_size == len(train)
        assert got.idf == want.idf  # dict equality: every value ==
        assert got == want


# Metric-like values in [0, 1], and values far apart in magnitude.
_metric_values = st.lists(st.one_of(st.floats(0, 1), st.floats(-1e150, 1e150)), min_size=2, max_size=10)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="statistics.stdev is correctly rounded from 3.11")
@PROPERTY
@given(_metric_values)
def test_mean_std_matches_statistics(values):
    assert mean_std(values) == (statistics.fmean(values), statistics.stdev(values))
