"""Tests for bundled data files and resource loading."""

import re

import pytest

from zhstance.cli import main
from zhstance.resources import (
    BUNDLED_HMM,
    BUNDLED_LEXICON,
    BUNDLED_TABLE,
    StopwordError,
    bundled_path,
    load_resources,
    load_stopwords,
)
from zhstance.segmenter import MAX_WORD_LENGTH, LexiconError
from zhstance.zh_convert import to_simplified


def test_bundled_files_exist():
    for name in (BUNDLED_TABLE, BUNDLED_LEXICON, BUNDLED_HMM):
        assert bundled_path(name).is_file()


def test_load_resources_defaults():
    res = load_resources()
    assert res.table.mapping["發"] == "发"
    assert "民主" in res.lexicon.entries
    assert res.hmm is not None
    assert res.hmm.start_logp.keys() <= {"B", "M", "E", "S"}
    assert res.stopwords == frozenset()


def test_load_resources_overrides(tmp_path):
    lex = tmp_path / "lex.txt"
    lex.write_text("猫 3\n", encoding="utf-8")
    res = load_resources(dictionary=lex)
    assert res.lexicon.entries == {"猫": 3}
    # other resources still fall back to the bundled files
    assert res.table.mapping["發"] == "发"


@pytest.mark.parametrize("name", ["dictionary", "hmm", "table", "stopwords"])
def test_empty_path_is_opened_not_the_bundled_file(name):
    # only None selects the bundled file (or, for stopwords, none)
    with pytest.raises(FileNotFoundError):
        load_resources(**{name: ""})


def test_load_stopwords(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# comment\n的\n了\n\n的\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"的", "了"})


def test_stopword_with_inner_whitespace_rejected(tmp_path):
    # segment never emits whitespace, so such an entry could never match
    path = tmp_path / "stop.txt"
    path.write_text("# comment\n的\n的 了\n", encoding="utf-8")
    with pytest.raises(StopwordError, match=f"^{re.escape(str(path))}: line 3: "):
        load_stopwords(path)


def test_stopwords_path_wired_through(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("的\n", encoding="utf-8")
    assert load_resources(stopwords=path).stopwords == frozenset({"的"})


def test_stopwords_take_token_form(tmp_path):
    # tokens are converted before stopword removal, so the stopwords are too
    path = tmp_path / "stop.txt"
    path.write_text("國家\n的\n", encoding="utf-8")
    res = load_resources(stopwords=path)
    assert res.stopwords == frozenset({"國家", "的"})
    assert res.token_stopwords == frozenset({"国家", "的"})


def test_lexicon_takes_token_form(tmp_path):
    # text is converted before segmentation, so the lexicon's words are too;
    # 國家 and 国家 become one word with the summed frequency
    path = tmp_path / "lexicon.txt"
    path.write_text("國家 100\n国家 5\n發 3\n", encoding="utf-8")
    res = load_resources(dictionary=path)
    assert res.lexicon.entries == {"國家": 100, "国家": 5, "發": 3}
    assert res.token_lexicon.entries == {"国家": 105, "发": 3}
    assert res.token_lexicon.total == 108


def test_token_lexicon_keeps_the_word_bound(tmp_path):
    # a conversion can lengthen a word past the bound that loading checked
    lexicon, table = tmp_path / "lexicon.txt", tmp_path / "t2s.tsv"
    lexicon.write_text("髮" * 51 + " 1\n", encoding="utf-8")
    table.write_text("髮\t发发\n", encoding="utf-8")
    res = load_resources(dictionary=lexicon, table=table)
    with pytest.raises(LexiconError, match=f"is longer than {MAX_WORD_LENGTH} characters"):
        res.token_lexicon


def test_lengthened_word_error_names_the_word_as_written(tmp_path, synthetic_corpus_path, capsys):
    lexicon, table = tmp_path / "lexicon.txt", tmp_path / "t2s.tsv"
    lexicon.write_text("髮" * 51 + " 1\n", encoding="utf-8")
    table.write_text("髮\t发发\n", encoding="utf-8")
    message = (f"word {'髮' * 51!r} is longer than {MAX_WORD_LENGTH} characters"
               " after conversion, which lengthens it to 102")
    with pytest.raises(LexiconError) as info:
        load_resources(dictionary=lexicon, table=table).token_lexicon
    assert str(info.value) == message
    argv = ["crossval", "--corpus", str(synthetic_corpus_path), "--dict", str(lexicon),
            "--convert-table", str(table)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_lexicon_converts_as_word_by_word(tmp_path):
    # one conversion over the joined words gives each word's own conversion
    table = load_resources().table
    phrases = [key for key in table.mapping if len(key) > 1]
    chars = [key for key in table.mapping if len(key) == 1][:500]
    words = sorted({*phrases, *chars, "頭髮頭", "國", "民主"})
    path = tmp_path / "lexicon.txt"
    path.write_text("".join(f"{w} {i + 1}\n" for i, w in enumerate(words)), encoding="utf-8")
    res = load_resources(dictionary=path)
    expected: dict[str, int] = {}
    for word, freq in res.lexicon.entries.items():
        word = to_simplified(word, table)
        expected[word] = expected.get(word, 0) + freq
    assert res.token_lexicon.entries == expected
    assert len(expected) < len(words)  # some words merged


def test_bundled_lexicon_words_are_simplified():
    # no word changes, so no second lexicon is built
    res = load_resources()
    assert res.token_lexicon is res.lexicon
