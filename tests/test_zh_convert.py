"""Tests for traditional-to-simplified conversion."""

import pytest

from zhstance.cli import main
from zhstance.resources import bundled_path
from zhstance.textfile import MAX_WORD_LENGTH
from zhstance.zh_convert import (
    ConversionTable,
    ConversionTableError,
    load_conversion_table,
    to_simplified,
)


def table_from(*pairs):
    return ConversionTable(dict(pairs))


class TestFromPairs:
    """Tables built from (key, value) pairs."""

    def test_empty_table(self):
        t = table_from()
        assert t.mapping == {}
        assert to_simplified("abc", t) == "abc"

    def test_empty_key_rejected(self):
        # an empty alternative would match the empty string everywhere
        with pytest.raises(ConversionTableError, match="empty key"):
            table_from(("", "x"), ("頭髮", "头发"))

    @pytest.mark.parametrize("key", ["\n", "頭\n髮", "頭髮\n"])
    def test_newline_key_rejected(self, key):
        # an account's tweets are converted as one text joined with "\n",
        # so a key holding one could map a separator or match across tweets
        with pytest.raises(ConversionTableError, match="newline"):
            table_from((key, "x"))

    def test_newline_value_rejected(self):
        # lexicon words are converted as one text joined with "\n"
        with pytest.raises(ConversionTableError, match="newline"):
            table_from(("頭", "头\n"))

    @pytest.mark.parametrize("key, value", [(" 發", "发"), ("發 ", "发"), ("國 家", "国家"),
                                            ("發", "发 x"), ("發", "\u3000"), ("\t", "x")])
    def test_whitespace_rejected(self, key, value):
        # the converted text is segmented, which cuts it at whitespace: a
        # key " 發" would delete the space before 發
        with pytest.raises(ConversionTableError, match="whitespace"):
            table_from((key, value))

    def test_empty_value_allowed(self):
        # a file's value is never empty, but a table may delete a character
        assert to_simplified("a發b", table_from(("發", ""))) == "ab"

    def test_key_past_the_word_bound_rejected(self):
        # the file loader's bound: the phrase pattern spells out every key,
        # and an overlong one makes it slow to compile
        key = "髮" * (MAX_WORD_LENGTH + 1)
        with pytest.raises(ConversionTableError) as info:
            table_from(("發", "发"), (key, "发"))
        assert str(info.value) == f"key {key[:10]!r}... is longer than {MAX_WORD_LENGTH} characters"
        assert table_from((key[1:], "发")).mapping == {key[1:]: "发"}


class TestConstructor:
    """The constructor checks every table. Each case gives the phrase keys
    and the character keys apart; the table takes them as one mapping."""

    def test_valid_table(self):
        t = ConversionTable({"頭髮": "头发", "發": "发"})
        assert to_simplified("頭髮發", t) == "头发发"

    @pytest.mark.parametrize("phrase_map, char_map, message", [
        ({"": "x"}, {}, "empty key"),
        ({}, {"": "x"}, "empty key"),
        ({"髮" * (MAX_WORD_LENGTH + 1): "x"}, {}, f"is longer than {MAX_WORD_LENGTH} characters"),
        ({"a\nb": "X"}, {}, "newline"),  # would convert across the tweet-joining newline
        ({}, {"\n": "x"}, "newline"),
        ({"頭髮": "头\n发"}, {}, "newline"),
        ({}, {"發": "\n"}, "newline"),
    ])
    def test_rejected(self, phrase_map, char_map, message):
        with pytest.raises(ConversionTableError, match=message):
            ConversionTable({**phrase_map, **char_map})


class TestLoadConversionTable:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# comment\n發\t发\n  # an indented comment\n頭髮\t头发\n\n", encoding="utf-8")
        t = load_conversion_table(path)
        assert t.mapping == {"發": "发", "頭髮": "头发"}

    def test_first_candidate_of_multi_value(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("乾\t干 乾\n", encoding="utf-8")
        assert load_conversion_table(path).mapping == {"乾": "干"}

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("發 发\n", encoding="utf-8")
        with pytest.raises(ConversionTableError, match="line 1"):
            load_conversion_table(path)

    def test_value_with_inner_whitespace_rejected(self, tmp_path):
        # the text is segmented after conversion, so such a value would cut
        # a converted lexicon word in two
        path = tmp_path / "t.tsv"
        path.write_text("發\t发\t發\n", encoding="utf-8")
        with pytest.raises(ConversionTableError, match="line 1: value .* holds whitespace"):
            load_conversion_table(path)

    @pytest.mark.parametrize("line", [" 發\t发", "發 \t发", "國 家\t国家", "\u3000發\t发"])
    def test_key_with_whitespace_rejected(self, tmp_path, line):
        # " 發" would load as a phrase key and "發 " as a two-character one
        path = tmp_path / "t.tsv"
        path.write_text(f"國\t国\n{line}\n", encoding="utf-8")
        with pytest.raises(ConversionTableError) as info:
            load_conversion_table(path)
        assert str(info.value) == f"{path}: line 2: key {line.split(chr(9))[0]!r} holds whitespace"

    def test_empty_side_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("發\t\n", encoding="utf-8")
        with pytest.raises(ConversionTableError, match="line 1"):
            load_conversion_table(path)

    @pytest.mark.parametrize("text", ["國\t国\n國\t国\n", "國\t国\n發\t发\n國\t囯\n", "頭髮\t头发\n頭髮\t头发\n"])
    def test_repeated_key_rejected(self, tmp_path, text):
        path = tmp_path / "t.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConversionTableError, match=f"line {text.count(chr(10))}: key .* repeats"):
            load_conversion_table(path)

    def test_error_names_the_file(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("發\t发\n國 国\n", encoding="utf-8")
        with pytest.raises(ConversionTableError) as info:
            load_conversion_table(path)
        assert str(info.value).startswith(f"{path}: line 2: ")

    def test_key_at_the_word_bound_loads(self, tmp_path):
        path = tmp_path / "t.tsv"
        key = "髮" * MAX_WORD_LENGTH
        path.write_text(f"發\t发\n{key}\t发\n", encoding="utf-8")
        assert load_conversion_table(path).mapping == {"發": "发", key: "发"}

    def test_key_past_the_word_bound_rejected(self, tmp_path, capsys):
        # the lexicon's bound: a key's prefixes cost memory and compile time
        path = tmp_path / "t.tsv"
        path.write_text(f"發\t发\n{'髮' * (MAX_WORD_LENGTH + 1)}\t发\n", encoding="utf-8")
        message = f"{path}: line 2: key is longer than {MAX_WORD_LENGTH} characters"
        with pytest.raises(ConversionTableError) as info:
            load_conversion_table(path)
        assert str(info.value) == message
        assert main(["convert", "--convert-table", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestToSimplified:
    def test_char_conversion(self):
        t = table_from(("發", "发"), ("國", "国"))
        assert to_simplified("發國", t) == "发国"

    def test_passthrough_unmapped(self):
        t = table_from(("發", "发"))
        assert to_simplified("abc 發 xyz", t) == "abc 发 xyz"

    def test_phrase_beats_chars(self):
        # char-by-char would give 头发 from the wrong reading of 髮
        t = table_from(("頭髮", "头发"), ("頭", "头"), ("髮", "发不对"))
        assert to_simplified("頭髮", t) == "头发"

    def test_longest_phrase_wins(self):
        t = table_from(("AB", "x"), ("ABC", "y"), ("A", "a"))
        assert to_simplified("ABC", t) == "y"
        assert to_simplified("ABD", t) == "xD"

    def test_identity_phrase_shields_span(self):
        # an identity phrase pins its span even when a character inside
        # it would otherwise convert
        t = table_from(("乾隆", "乾隆"), ("乾", "干"))
        assert to_simplified("乾隆乾", t) == "乾隆干"

    def test_greedy_is_left_to_right(self):
        t = table_from(("AB", "1"), ("BC", "2"))
        assert to_simplified("ABC", t) == "1C"

    def test_empty_text(self):
        t = table_from(("發", "发"))
        assert to_simplified("", t) == ""


@pytest.fixture(scope="module")
def table():
    return load_conversion_table(bundled_path("t2s.tsv"))


class TestBundledTable:
    @pytest.mark.parametrize("trad,simp", [
        ("發", "发"),
        ("體", "体"),
        ("國家", "国家"),
        ("臺灣", "台湾"),
        ("香港人爭取民主", "香港人争取民主"),
        ("這裡的經濟問題", "这里的经济问题"),
    ])
    def test_known_conversions(self, table, trad, simp):
        assert to_simplified(trad, table) == simp

    def test_simplified_text_unchanged(self, table):
        text = "香港人争取民主的时间"
        assert to_simplified(text, table) == text

    def test_conversion_is_idempotent(self, table):
        # converting twice equals converting once, for every mapped value
        for value in table.mapping.values():
            assert to_simplified(value, table) == value
