"""Tests for dictionary-DAG segmentation and the BMES Viterbi fallback.

The dynamic programs are checked against brute-force oracles: every
segmentation of a sentence enumerated by binary cut masks, and every
structurally valid BMES state path enumerated by product. The oracles
recompute scores in the same right-to-left order as the DP so optima
compare exactly, not just within tolerance.
"""

import itertools
import math
import random
import re
import sys

import pytest

from zhstance import segmenter
from zhstance.resources import bundled_path
from zhstance.segmenter import (
    ALLOWED_TRANS,
    DEFAULT_FLOOR_LOGP,
    FINAL_STATES,
    NEG_INF,
    STATES,
    HmmModel,
    HmmModelError,
    Lexicon,
    LexiconError,
    build_dag,
    hmm_segment,
    load_hmm,
    load_lexicon,
    max_prob_route,
    segment,
    viterbi,
)


# Every character that str.isspace accepts: str.split() splits on these.
EVERY_CHARACTER = "".join(map(chr, range(sys.maxunicode + 1)))
WHITESPACE = [ch for ch in EVERY_CHARACTER if ch.isspace()]


def test_re_whitespace_is_str_whitespace():
    # segment finds its pieces with re's \s, where the earlier code split
    # on str.split(); they must agree on every code point. A Unicode
    # database difference between interpreters would show here.
    assert re.findall(r"\s", EVERY_CHARACTER) == WHITESPACE
    assert len(WHITESPACE) > 20
    for ch in WHITESPACE:
        assert f"a{ch}b".split() == ["a", "b"], hex(ord(ch))


# ----------------------------------------------------------------------
# brute-force oracles
# ----------------------------------------------------------------------

def enumerate_cuts(sentence):
    """Yield all 2^(n-1) segmentations of the sentence."""
    n = len(sentence)
    if n == 0:
        yield []
        return
    for mask in range(1 << (n - 1)):
        tokens, start = [], 0
        for i in range(n - 1):
            if (mask >> i) & 1:
                tokens.append(sentence[start:i + 1])
                start = i + 1
        tokens.append(sentence[start:])
        yield tokens


def oracle_best_cut_score(sentence, lex):
    """Best route score by exhaustive search.

    Multi-character tokens outside the dictionary are not DAG edges, so
    segmentations containing one are not candidates. The score is summed
    right to left to match the DP's accumulation order exactly.
    """
    log_total = math.log(lex.total)
    best = None
    for tokens in enumerate_cuts(sentence):
        if any(len(t) > 1 and t not in lex.entries for t in tokens):
            continue
        score = 0.0
        for tok in reversed(tokens):
            freq = lex.entries.get(tok)
            logp = (math.log(freq) if freq is not None else 0.0) - log_total
            score = logp + score
        if best is None or score > best:
            best = score
    return best


def route_score(sentence, lex):
    """The chosen route's score: its words' log-probabilities added right
    to left, in the DP's order, so it compares exactly with the oracle."""
    log_total = math.log(lex.total)
    score = 0.0
    for tok in reversed(max_prob_route(sentence, lex)):
        freq = lex.entries.get(tok)
        score = ((math.log(freq) if freq is not None else 0.0) - log_total) + score
    return score


def oracle_viterbi_score(observations, hmm):
    """Max log-score over all structurally valid BMES paths."""

    def emit(state, ch):
        return hmm.emit_logp.get(state, {}).get(ch, hmm.floor_logp)

    best = NEG_INF
    for path in itertools.product(STATES, repeat=len(observations)):
        if path[-1] not in FINAL_STATES:
            continue
        if any(b not in ALLOWED_TRANS[a] for a, b in zip(path, path[1:])):
            continue
        score = hmm.start_logp.get(path[0], NEG_INF)
        for prev, state in zip(path, path[1:]):
            score += hmm.trans_logp.get((prev, state), NEG_INF)
        for state, ch in zip(path, observations):
            score += emit(state, ch)
        best = max(best, score)
    return best


def path_score(path, observations, hmm):
    def emit(state, ch):
        return hmm.emit_logp.get(state, {}).get(ch, hmm.floor_logp)

    score = hmm.start_logp.get(path[0], NEG_INF)
    for prev, state in zip(path, path[1:]):
        score += hmm.trans_logp.get((prev, state), NEG_INF)
    for state, ch in zip(path, observations):
        score += emit(state, ch)
    return score


def random_lexicon_and_sentence(rng):
    alphabet = "甲乙丙丁"
    length = rng.randrange(1, 9)
    sentence = "".join(rng.choice(alphabet) for _ in range(length))
    entries = {}
    for _ in range(rng.randrange(2, 9)):
        wlen = rng.randrange(1, 4)
        start = rng.randrange(0, len(sentence)) if rng.random() < 0.7 else 0
        word = sentence[start:start + wlen] or rng.choice(alphabet)
        entries[word] = rng.randrange(1, 100)
    entries[rng.choice(alphabet)] = rng.randrange(1, 100)
    return Lexicon(entries), sentence


def random_hmm(rng, full_coverage=False):
    """Random toy model. With full_coverage the start table includes B and
    S and every allowed transition is present, so a finite-score path
    always exists; without it, models may admit no valid path at all."""
    alphabet = "xyz"
    if full_coverage:
        starters = {"B", "S"}
    else:
        starters = set(rng.sample(STATES, rng.randrange(1, 5)))
    start = {s: math.log(rng.uniform(0.05, 1.0)) for s in starters}
    trans = {}
    for src in STATES:
        for dst in ALLOWED_TRANS[src]:
            if full_coverage or rng.random() < 0.8:
                trans[(src, dst)] = math.log(rng.uniform(0.05, 1.0))
    emit = {}
    for s in STATES:
        emit[s] = {ch: math.log(rng.uniform(0.05, 1.0))
                   for ch in alphabet if rng.random() < 0.6}
    return HmmModel(start, trans, emit, floor_logp=math.log(1e-6)), alphabet


# ----------------------------------------------------------------------
# lexicon
# ----------------------------------------------------------------------

class TestLexicon:
    def test_build(self):
        lex = Lexicon({"中国": 5, "中": 2, "国": 3})
        assert lex.total == 10
        assert build_dag("中国国", lex) == {0: [0, 1], 1: [1], 2: [2]}

    def test_total_is_the_entries_sum(self):
        # a hand-built lexicon cannot be given a total its entries do not have
        lex = Lexicon({"中国": 3, "中": 1})
        assert lex.total == 4
        assert lex == Lexicon({"中": 1, "中国": 3})
        with pytest.raises(TypeError):
            Lexicon({"中": 1}, 5)

    @pytest.mark.parametrize("entries", [
        {"": 1},
        {"中": 0},
        {"中": -2},
        {"中": True},
        {"中": 1.5},
        # segmentation splits on whitespace first, so such a word never matches
        {"中 国": 1},
        {"中\n": 1},
        {"\u3000": 1},
    ])
    def test_invalid_entries_rejected(self, entries):
        with pytest.raises(LexiconError):
            Lexicon(entries)

    def test_word_length_bound(self):
        word = "中" * segmenter.MAX_WORD_LENGTH
        assert Lexicon({word: 1}).entries == {word: 1}
        with pytest.raises(LexiconError, match=f"is longer than {segmenter.MAX_WORD_LENGTH} characters"):
            Lexicon({word + "国": 1})

    def test_load_word_length_bound(self, tmp_path):
        path = tmp_path / "lex.txt"
        word = "中" * segmenter.MAX_WORD_LENGTH
        path.write_text(f"{word} 5\n", encoding="utf-8")
        assert load_lexicon(path).entries == {word: 5}
        path.write_text(f"中国 5\n{word}国 5\n", encoding="utf-8")
        with pytest.raises(LexiconError) as info:
            load_lexicon(path)
        assert str(info.value) == f"{path}: line 2: word is longer than {segmenter.MAX_WORD_LENGTH} characters"

    def test_later_changes_to_entries_have_no_effect(self, bundled_hmm):
        lex = Lexicon({"中国": 5})
        lex.entries["呣"] = 1  # before the lexicon is first used
        # "呣嘸" stays one gap that the HMM joins, as for the lexicon as built
        assert segment("中国呣嘸", lex, hmm=bundled_hmm) == ["中国", "呣嘸"]

    def test_load(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("# comment\n中国 5 n\n人民 3\n\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.entries == {"中国": 5, "人民": 3}
        assert lex.total == 8

    # the error names the last line given, the first one at fault
    @pytest.mark.parametrize("line", ["中国", "中国 x", "中国 0", "中国 -3",
                                      "中国 1_000", "中国 ١٠", "中国 +5",
                                      "中国 5 n extra", "中国 5\n中国 7", "中国 5 n\n人民 3\n中国 5 n"])
    def test_load_rejects_bad_lines(self, tmp_path, line):
        path = tmp_path / "lex.txt"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(LexiconError, match=f"line {line.count(chr(10)) + 1}: "):
            load_lexicon(path)

    def test_load_error_names_the_file(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("中国 5\n人民 x\n", encoding="utf-8")
        with pytest.raises(LexiconError) as info:
            load_lexicon(path)
        assert str(info.value).startswith(f"{path}: line 2: ")


# ----------------------------------------------------------------------
# DAG construction
# ----------------------------------------------------------------------

class TestBuildDag:
    def test_edges_are_dictionary_words_plus_fallback(self):
        lex = Lexicon({"AB": 1, "ABC": 1, "C": 1})
        dag = build_dag("ABC", lex)
        assert dag == {0: [0, 1, 2], 1: [1], 2: [2]}

    def test_fallback_present_even_for_oov(self):
        lex = Lexicon({"Z": 1})
        assert build_dag("AB", lex) == {0: [0], 1: [1]}

    def test_prefix_pruning_stops_scan(self):
        # 'AC' is not a prefix of any word, so no edge 0->1 exists even
        # though 'A' is a word
        lex = Lexicon({"A": 1, "AB": 1})
        assert build_dag("ACB", lex) == {0: [0], 1: [1], 2: [2]}

    def test_empty_sentence(self):
        assert build_dag("", Lexicon({"A": 1})) == {}


# ----------------------------------------------------------------------
# max-probability route
# ----------------------------------------------------------------------

class TestMaxProbRoute:
    @staticmethod
    def route(sentence, entries):
        lex = Lexicon(entries)
        return max_prob_route(sentence, lex)

    def test_prefers_frequent_word(self):
        assert self.route("ABC", {"AB": 10, "A": 1, "B": 1, "BC": 1, "C": 1}) == ["AB", "C"]
        assert self.route("ABC", {"AB": 1, "A": 1, "B": 1, "BC": 10, "C": 1}) == ["A", "BC"]

    def test_exact_tie_goes_to_longer_word(self):
        # logp(A) + logp(B) = 2(ln 4 - ln 16) = -ln 16 = logp(AB), and
        # 2*math.log(4) == math.log(16) holds exactly in binary floats,
        # so this is a true tie, resolved toward the longer word
        assert self.route("AB", {"A": 4, "B": 4, "AB": 1, "P": 7}) == ["AB"]

    def test_oov_chars_stay_single(self):
        assert self.route("AXB", {"AB": 5, "A": 1, "B": 1}) == ["A", "X", "B"]

    def test_concatenation_reproduces_sentence(self):
        rng = random.Random(100)
        for _ in range(50):
            lex, sentence = random_lexicon_and_sentence(rng)
            tokens = max_prob_route(sentence, lex)
            assert "".join(tokens) == sentence

    def test_score_matches_exhaustive_search(self):
        rng = random.Random(200)
        for _ in range(60):
            lex, sentence = random_lexicon_and_sentence(rng)
            assert route_score(sentence, lex) == oracle_best_cut_score(sentence, lex)

    def test_route_score_matches_chosen_route(self):
        lex = Lexicon({"AB": 3, "A": 2, "B": 1, "C": 5})
        assert max_prob_route("ABC", lex) == ["AB", "C"]
        log_total = math.log(lex.total)
        assert route_score("ABC", lex) == (math.log(3) - log_total) + ((math.log(5) - log_total) + 0.0)
        assert route_score("ABC", lex) == oracle_best_cut_score("ABC", lex)

    def test_empty_sentence(self):
        lex = Lexicon({"A": 1})
        assert max_prob_route("", lex) == []


# ----------------------------------------------------------------------
# HMM model loading
# ----------------------------------------------------------------------

class TestLoadHmm:
    @staticmethod
    def write(tmp_path, body):
        path = tmp_path / "hmm.json"
        path.write_text(body, encoding="utf-8")
        return path

    def test_load(self, tmp_path):
        path = self.write(tmp_path, """
        {"start": {"B": -0.3, "S": -1.2},
         "trans": {"B": {"E": -0.1}, "E": {"S": -0.5}},
         "emit": {"B": {"x": -1.0}},
         "floor_logp": -20.0}
        """)
        hmm = load_hmm(path)
        assert hmm.start_logp == {"B": -0.3, "S": -1.2}
        assert hmm.trans_logp == {("B", "E"): -0.1, ("E", "S"): -0.5}
        assert hmm.emit_logp["B"] == {"x": -1.0}
        assert hmm.floor_logp == -20.0

    def test_floor_defaults(self, tmp_path):
        path = self.write(tmp_path, '{"start": {}, "trans": {}, "emit": {}}')
        assert load_hmm(path).floor_logp == DEFAULT_FLOOR_LOGP

    @pytest.mark.parametrize("body,msg", [
        ('{"trans": {}, "emit": {}}', "start"),
        ('{"start": {"Q": -1}, "trans": {}, "emit": {}}', r"hmm.json: start has unknown key\(s\) \['Q'\]"),
        ('{"start": {}, "trans": {"B": {"S": -1}}, "emit": {}}', "forbidden"),
        ('{"start": {}, "trans": {"Q": {"B": -1}}, "emit": {}}', r"hmm.json: trans has unknown key\(s\) \['Q'\]"),
        ('{"start": {}, "trans": {}, "emit": {"Q": {}}}', r"hmm.json: emit has unknown key\(s\) \['Q'\]"),
        ('{"start": {}, "trans": {}, "emit": {}, "floor": -20.0}', "hmm.json: the HMM file has unknown key.*'floor'"),
    ])
    def test_invalid_models_rejected(self, tmp_path, body, msg):
        with pytest.raises(HmmModelError, match=msg):
            load_hmm(self.write(tmp_path, body))

    # written the way the README's HMM paragraph describes the format:
    # start, trans and emit log-probability tables plus floor_logp
    README_MODEL = """
    {"start": {"B": -0.7, "S": -0.7},
     "trans": {"B": {"E": 0.0}, "E": {"B": -0.7, "S": -0.7},
               "S": {"B": -0.7, "S": -0.7}},
     "emit": {"S": {"x": -6.0}},
     "floor_logp": %s}
    """

    def test_readme_floor_logp_is_used(self, tmp_path):
        hmm = load_hmm(self.write(tmp_path, self.README_MODEL % "-5.0"))
        assert hmm.floor_logp == -5.0
        # B and E never saw "x", so B E scores -0.7 + 2 * floor: -10.7
        # beats S S (-13.4) under this floor and loses under the default
        assert viterbi("xx", hmm) == ["B", "E"]
        default = HmmModel(hmm.start_logp, hmm.trans_logp, hmm.emit_logp)
        assert viterbi("xx", default) == ["S", "S"]

    @pytest.mark.parametrize("body,msg", [
        ('[]', "must be an object"),
        ('{"start": {}, "trans": {}, "emit": {}, "flor_logp": -5}', "unknown key"),
        ('{"start": {}, "trans": {}, "emit": {}, "floor": -5, "floor_logp": -5}', "unknown key.*'floor'"),
        ('{"start": [], "trans": {}, "emit": {}}', "start must be an object"),
        ('{"start": {}, "trans": {"B": 1}, "emit": {}}', "trans.B must be an object"),
        ('{"start": {"B": "-1"}, "trans": {}, "emit": {}}', "finite number"),
        ('{"start": {"B": true}, "trans": {}, "emit": {}}', "finite number"),
        ('{"start": {"B": NaN}, "trans": {}, "emit": {}}', "finite number"),
        ('{"start": {}, "trans": {"B": {"E": -Infinity}}, "emit": {}}', "finite number"),
        ('{"start": {}, "trans": {}, "emit": {"S": {"x": Infinity}}}', "finite number"),
        ('{"start": {}, "trans": {}, "emit": {"B": {"中国": -1.0}}}', "hmm.json: emit.B: key '中国'"),
        ('{"start": {}, "trans": {}, "emit": {"S": {"x": -1.0, "": -2.0}}}', "hmm.json: emit.S: key ''"),
        ('{"start": {}, "trans": {}, "emit": {}, "floor_logp": NaN}', "finite number"),
        # too large for a float: an error, not an OverflowError
        ('{"start": {"B": -1%s}, "trans": {}, "emit": {}}' % ("0" * 400), "start.B must be a finite number"),
        ('{"start": {"B": -0.7, "M": -0.7}, "trans": {}, "emit": {}}', "forbidden start state M"),
        ('{"start": {"E": -0.7, "S": -0.7}, "trans": {}, "emit": {}}', "forbidden start state E"),
    ])
    def test_strict_schema(self, tmp_path, body, msg):
        with pytest.raises(HmmModelError, match=msg):
            load_hmm(self.write(tmp_path, body))


# ----------------------------------------------------------------------
# Viterbi decoding
# ----------------------------------------------------------------------

class TestViterbi:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            viterbi("", HmmModel({}, {}, {}))

    def test_structural_validity(self):
        # with a valid path guaranteed to exist, the decoded path must
        # respect the structural zeros
        rng = random.Random(300)
        for _ in range(50):
            hmm, alphabet = random_hmm(rng, full_coverage=True)
            obs = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 7)))
            path = viterbi(obs, hmm)
            assert len(path) == len(obs)
            assert path[-1] in FINAL_STATES
            for a, b in zip(path, path[1:]):
                assert b in ALLOWED_TRANS[a]

    def test_score_matches_exhaustive_search(self):
        rng = random.Random(400)
        for _ in range(40):
            hmm, alphabet = random_hmm(rng)
            obs = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 7)))
            path = viterbi(obs, hmm)
            got = path_score(path, obs, hmm)
            want = oracle_viterbi_score(obs, hmm)
            if want == NEG_INF:
                assert got == NEG_INF
            else:
                assert got == pytest.approx(want, abs=1e-9)

    def test_final_tie_prefers_e_over_s(self):
        hmm = HmmModel({"E": -1.0, "S": -1.0}, {}, {})
        assert viterbi("x", hmm) == ["E"]

    def test_backpointer_tie_prefers_earlier_state(self):
        # B and M reach E with identical scores; the decoder keeps B
        hmm = HmmModel(
            {"B": -1.0, "M": -1.0},
            {("B", "E"): -0.5, ("M", "E"): -0.5},
            {},
        )
        assert viterbi("xy", hmm) == ["B", "E"]

    def test_forbidden_transitions_are_ignored(self):
        # S->M is outside the BMES structure; a model that supplies it
        # still decodes to a structurally valid path
        hmm = HmmModel({"S": 0.0}, {("S", "M"): 0.0, ("M", "E"): 0.0, ("S", "S"): -10.0}, {})
        assert viterbi("xyz", hmm) == ["S", "S", "S"]

    def test_unseen_emissions_use_floor(self):
        hmm = HmmModel(
            {"B": math.log(0.6), "S": math.log(0.4)},
            {("B", "E"): 0.0},
            {"B": {}, "E": {}, "S": {}},
            floor_logp=math.log(0.5),
        )
        assert viterbi("xy", hmm) == ["B", "E"]
        score = path_score(["B", "E"], "xy", hmm)
        assert score == pytest.approx(math.log(0.6) + 2 * math.log(0.5), abs=1e-12)


class TestHmmSegment:
    # start mass heavily on B so word shapes are decided by the
    # transitions, not float rounding; all emissions floor out equally
    HMM = HmmModel(
        {"B": math.log(0.9), "S": math.log(0.1)},
        {("B", "E"): 0.0, ("E", "B"): math.log(0.6), ("E", "S"): math.log(0.4),
         ("S", "B"): math.log(0.6), ("S", "S"): math.log(0.4)},
        {},
    )

    def test_words_end_at_e_and_s(self):
        # best paths: B E B E -> ab|cd, and B E S -> ab|c
        assert hmm_segment("abcd", self.HMM) == ["ab", "cd"]
        assert hmm_segment("abc", self.HMM) == ["ab", "c"]

    def test_single_char(self):
        assert hmm_segment("a", self.HMM) == ["a"]


# ----------------------------------------------------------------------
# end-to-end segmentation
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def bundled_lexicon():
    return load_lexicon(bundled_path("lexicon.txt"))


@pytest.fixture(scope="module")
def bundled_hmm():
    return load_hmm(bundled_path("hmm.json"))


class TestSegment:
    def test_dictionary_words(self, bundled_lexicon):
        assert segment("中国人民", bundled_lexicon) == ["中国", "人民"]
        assert segment("支持民主自由", bundled_lexicon) == ["支持", "民主", "自由"]

    def test_longest_dictionary_match(self, bundled_lexicon):
        assert segment("中华人民共和国", bundled_lexicon) == ["中华人民共和国"]

    def test_mixed_scripts(self, bundled_lexicon):
        assert segment("RT 民主2021 ok", bundled_lexicon) == ["RT", "民主", "2021", "ok"]

    def test_cleanup_drops_urls_and_mentions(self, bundled_lexicon):
        text = "支持 https://t.co/abc @friend 民主"
        assert segment(text, bundled_lexicon) == ["支持", "民主"]
        assert segment("http://x.y 民主", bundled_lexicon) == ["民主"]

    def test_cleanup_strips_hashtag_marks(self, bundled_lexicon):
        assert segment("#民主 #", bundled_lexicon) == ["民主"]

    def test_cleanup_tests_chunk_starts_before_stripping_hashtag_marks(self, bundled_lexicon):
        # a chunk is a URL or a mention only by its own first characters:
        # "#http://x" and "a@b" are kept, with the "#" stripped
        text = "#http://x #@a a@b 民主#自由\thttp://y\n@z"
        assert segment(text, bundled_lexicon) == ["http://x", "@a", "a@b", "民主", "自由"]

    def test_every_whitespace_character_ends_a_piece(self, bundled_lexicon):
        for ch in WHITESPACE:
            text = f"a{ch}@b{ch}民主{ch}http://c{ch}中国"
            assert segment(text, bundled_lexicon) == ["a", "民主", "中国"], hex(ord(ch))
            assert segment(text, bundled_lexicon, clean=False) == [
                "a", "@b", "民主", "http://c", "中国"], hex(ord(ch))

    def test_clean_off_keeps_everything(self, bundled_lexicon):
        text = "@friend #民主 https://t.co/abc"
        tokens = segment(text, bundled_lexicon, clean=False)
        assert tokens == ["@friend", "#", "民主", "https://t.co/abc"]

    def test_whitespace_only(self, bundled_lexicon):
        assert segment("   \n\t ", bundled_lexicon) == []

    def test_oov_chars_stay_single_without_hmm(self, bundled_lexicon):
        assert segment("呣嘸", bundled_lexicon) == ["呣", "嘸"]

    def test_hmm_joins_oov_runs(self, bundled_lexicon, bundled_hmm):
        assert segment("呣嘸", bundled_lexicon, hmm=bundled_hmm) == ["呣嘸"]

    def test_hmm_leaves_single_oov_alone(self, bundled_lexicon, bundled_hmm):
        # a single leftover char is not a run; no repair happens
        assert segment("民主呣", bundled_lexicon, hmm=bundled_hmm) == ["民主", "呣"]

    def test_hmm_does_not_touch_dictionary_words(self, bundled_lexicon, bundled_hmm):
        assert segment("中国人民", bundled_lexicon, hmm=bundled_hmm) == ["中国", "人民"]

    def test_extension_and_astral_han_are_han(self, bundled_lexicon, bundled_hmm):
        # 㑔 is in Extension A; 𬘡 and 𫚖 are astral (Extensions C and E)
        text = "是\U0002c621缦\U0002b696！\u3454好"
        assert segment(text, bundled_lexicon, hmm=bundled_hmm) == [
            "是", "\U0002c621缦", "\U0002b696", "！", "\u3454好"]

    @pytest.mark.parametrize("han", ["\u3400", "\u4dbf", "\u4e00", "\u9fff", "\uf900",
                                     "\ufaff", "\U00020000", "\U0002f800", "\U000323af"])
    def test_han_block_bounds_split_from_punctuation(self, bundled_lexicon, han):
        assert segment(f"a{han}！", bundled_lexicon) == ["a", han, "！"]

    @pytest.mark.parametrize("other", ["\u33ff", "\u4dc0", "\ua000", "\ufb00",
                                       "\U0001ffff", "\U000323b0", "\u3007"])
    def test_neighbours_of_han_blocks_are_not_han(self, bundled_lexicon, other):
        assert segment(f"民主{other}", bundled_lexicon) == ["民主", other]

    @pytest.mark.parametrize("with_hmm", [True, False])
    def test_each_han_run_takes_the_route_once(self, bundled_lexicon, bundled_hmm, monkeypatch,
                                               with_hmm):
        # perfbench/spans.py times the route by replacing this module
        # attribute, so segment must reach it there, with an HMM as well
        hmm = bundled_hmm if with_hmm else None
        route, runs = segmenter.max_prob_route, []

        def counted(run, lex, hmm=None):
            runs.append(run)
            return route(run, lex, hmm)

        text = "支持民主 RT呣嘸2021 中国人民！民主呣"
        want = segment(text, bundled_lexicon, hmm)
        monkeypatch.setattr(segmenter, "max_prob_route", counted)
        assert segment(text, bundled_lexicon, hmm) == want
        assert runs == ["支持民主", "呣嘸", "中国人民", "民主呣"]

    def test_concatenation_preserved_modulo_cleanup(self, bundled_lexicon, bundled_hmm):
        text = "今天中国的经济问题都是社会新闻"
        tokens = segment(text, bundled_lexicon, hmm=bundled_hmm)
        assert "".join(tokens) == text
