import io
import re
import tempfile
import unicodedata
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from corpusforge.lexicon import (
    Lexicon,
    LexiconError,
    OovWordError,
    biphones,
    load_lexicon,
    parse_lexicon,
    phonemize,
    serialize_lexicon,
)
from corpusforge.textnorm import normalize_word

from oracles import lexicon_oracle


def parse(text: str):
    return parse_lexicon(io.StringIO(text))


class TestParseLexicon:
    def test_single_entry(self):
        lex = parse("hund\th ʊ n t\n")
        assert lex.entries == {"hund": ("h", "ʊ", "n", "t")}

    def test_duplicate_after_normalization_names_both_lines(self):
        with pytest.raises(LexiconError, match=r"lines 1 and 2"):
            parse("a\tə\nA\tə\n")

    def test_comments_and_blank_lines_skipped(self):
        lex = parse("# comment\n\nja\tj aː\n")
        assert len(lex) == 1
        assert lex.entries["ja"] == ("j", "aː")

    def test_missing_tab_is_error(self):
        with pytest.raises(LexiconError, match="line 1"):
            parse("hund h ʊ n t\n")

    def test_empty_pronunciation_is_error(self):
        with pytest.raises(LexiconError, match="empty pronunciation"):
            parse("hund\t   \n")

    def test_empty_word_is_error(self):
        with pytest.raises(LexiconError):
            parse("\th ʊ\n")

    def test_keys_are_nfc_lower_trimmed(self):
        # NFD "ä" (a + combining diaeresis) must meet its NFC twin.
        lex = parse(" Bär \tb ɛː ɐ\n")
        assert "bär" in lex
        assert "bär" in lex

    def test_round_trip_identity(self):
        text = "der\td eː ɐ\nhund\th ʊ n t\n"
        lex = parse(text)
        assert parse(serialize_lexicon(lex)).entries == lex.entries


class TestPhonemize:
    def test_lookup(self, toy_lexicon):
        assert phonemize("Hund", toy_lexicon) == ("h", "ʊ", "n", "t")

    def test_case_insensitive(self, toy_lexicon):
        assert phonemize("HUND", toy_lexicon) == phonemize("hund", toy_lexicon)

    def test_oov_carries_normalized_form(self, toy_lexicon):
        with pytest.raises(OovWordError) as exc_info:
            phonemize(" XyZzy ", toy_lexicon)
        assert exc_info.value.word == "xyzzy"


class TestBiphones:
    def test_consecutive_pairs(self):
        assert biphones(("a", "b", "a")) == {("a", "b"), ("b", "a")}

    def test_single_phoneme_has_none(self):
        assert biphones(("ə",)) == frozenset()

    def test_repeated_pairs_collapse(self):
        assert biphones(("a", "a", "a")) == {("a", "a")}

    def test_order_sensitive(self):
        assert biphones(("a", "b")) != biphones(("b", "a"))


@given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=12))
def test_biphone_count_bound(symbols):
    seq = tuple(symbols)
    assert len(biphones(seq)) <= max(0, len(seq) - 1)


@given(
    st.dictionaries(
        st.text(alphabet="abcdefghij", min_size=1, max_size=8),
        st.lists(st.sampled_from(["a", "b", "ʊ", "aː"]), min_size=1, max_size=6),
        min_size=0,
        max_size=10,
    )
)
def test_serialize_parse_round_trip(entries):
    lex = parse(
        "".join(f"{w}\t{' '.join(seq)}\n" for w, seq in entries.items())
    )
    assert parse(serialize_lexicon(lex)).entries == lex.entries


# Words mix NFC and NFD spellings ("ü" and "u" + U+0308), case, padding,
# inner spaces, "#" and a line separator that only str.splitlines breaks on.
# Phonemes are kept verbatim, so an NFD one stays NFD.
WORD_CHARS = ["a", "b", "Ä", "\u00fc", "u\u0308", "\u00df", "\u0259", " ", "#", "\u2028"]
PHONEMES = ["a", "\u028a", "a\u02d0", "\u0259", "p#", "u\u0308"]


@st.composite
def lexicon_lines(draw):
    """(raw TSV lines, the entries a loader must give), no two words alike."""
    entries, lines = {}, []
    for _ in range(draw(st.integers(0, 8))):
        raw = "".join(draw(st.lists(st.sampled_from(WORD_CHARS), max_size=6)))
        word = normalize_word(raw)
        if not word or word.startswith("#") or word in entries:
            continue
        pron = draw(st.lists(st.sampled_from(PHONEMES), min_size=1, max_size=5))
        entries[word] = tuple(pron)
        sep = draw(st.sampled_from([" ", "  ", "\t"]))
        lines.append(f"{raw}\t{sep.join(pron)}")
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "# comment", "   "])))
    return lines, entries


@settings(max_examples=150, deadline=None)
@given(lexicon_lines(), st.sampled_from(["\n", "\r\n"]))
def test_lexicon_file_round_trip(generated, newline):
    lines, entries = generated
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lexicon.tsv"
        path.write_bytes("".join(line + newline for line in lines).encode())
        lexicon = load_lexicon(path)
        assert lexicon.entries == entries
        assert all(unicodedata.is_normalized("NFC", w) for w in lexicon.entries)
        text = serialize_lexicon(lexicon)
        path.write_bytes(text.replace("\n", newline).encode())
        assert load_lexicon(path).entries == entries
    assert parse(text).entries == entries
    assert serialize_lexicon(parse(text)) == text


# Words and phonemes a Lexicon built in code may hold but a TSV line cannot
# carry: tab, CR, LF, a leading "#", case, padding, NFD, empty, inner space.
RAW_WORD_CHARS = WORD_CHARS + ["\t", "\r", "\n", "A"]
RAW_PHONEMES = PHONEMES + ["", "a b", " a", "a\t", "a\n"]


def reads_back(word: str, phonemes: tuple) -> bool:
    """Whether the naive TSV line of one entry parses back to that entry,
    from a string and from a file (where a CR ends a line too)."""
    line = f"{word}\t{' '.join(phonemes)}\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lexicon.tsv"
        path.write_bytes(line.encode())
        try:
            return parse(line).entries == load_lexicon(path).entries == {
                word: phonemes
            }
        except LexiconError:
            return False


@settings(max_examples=300, deadline=None)
@example({"a\rb": ("a",), "#a": ("a",), "a\tb": ("a",), "A": ("a",)})
@example({" a": ("a",), "u\u0308": ("a",), "b": ("",), "a": ("a b",)})
@example({"": ("a",), "a#": ("p#", "\u028a"), "b": ()})
@given(
    st.dictionaries(
        st.lists(st.sampled_from(RAW_WORD_CHARS), max_size=4).map("".join),
        st.lists(st.sampled_from(RAW_PHONEMES), max_size=3).map(tuple),
        max_size=4,
    )
)
def test_serialize_refuses_entries_that_read_back_differently(entries):
    for word, phonemes in entries.items():
        single = Lexicon({word: phonemes})
        if reads_back(word, phonemes):
            assert parse(serialize_lexicon(single)).entries == single.entries
        else:
            with pytest.raises(LexiconError, match=re.escape(repr(word))):
                serialize_lexicon(single)
    lexicon = Lexicon(entries)
    try:
        text = serialize_lexicon(lexicon)
    except LexiconError:
        assert not all(reads_back(w, p) for w, p in entries.items())
        return
    assert parse(text).entries == entries
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lexicon.tsv"
        path.write_bytes(text.encode())
        assert load_lexicon(path).entries == entries


# -- parse_lexicon against the build-every-tuple oracle ----------------------

# Words start with a letter or digit (the common case) or not (padding, an
# apostrophe, "#"), mix NFC and NFD, case and inner spaces; few characters,
# so that words often repeat after normalization.
WORD_CORE_CHARS = ["a", "B", "7", "\u00e4", "a\u0308", "\u00c4", "'", "-", "#", "a b"]
WORD_PADDING = ["", "", "", " ", "\u00a0", "\u3000"]
ORACLE_PHONEMES = ["a", "\u028a", "a\u02d0", "p#", "u\u0308"]
# Separators inside a pronunciation, and pronunciations with no phoneme.
PRON_SEPARATORS = [" ", "  ", "\t", "\x0b", "\u00a0", " \t "]
EMPTY_PRONUNCIATIONS = ["", " ", "\t", "\u3000", "\x85", "\x1c", " \r"]
SKIPPED_LINES = ["", " ", "\t", "  \t ", "\u2028", "#", "# comment", "  # indented",
                 "\t# tab-indented", "#\tword\ta"]
BAD_LINES = ["hund h a", "x", "\ta", " \ta", "\u00a0\ta", "\r\ta"]
ENDINGS = ["\n", "\n", "\r\n", "\r", "\n\n", ""]


@st.composite
def lexicon_text_lines(draw):
    """Lines of a lexicon file, valid or not, each ending in one of ENDINGS."""
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 39))
        if kind == 39:
            line = draw(st.sampled_from(BAD_LINES))
        elif kind > 30:
            line = draw(st.sampled_from(SKIPPED_LINES))
        else:
            core = draw(st.lists(st.sampled_from(WORD_CORE_CHARS), min_size=1,
                                 max_size=3))
            padding = st.sampled_from(WORD_PADDING)
            word = draw(padding) + "".join(core) + draw(padding)
            if kind > 28:
                pron = draw(st.sampled_from(EMPTY_PRONUNCIATIONS))
            else:
                phonemes = draw(st.lists(st.sampled_from(ORACLE_PHONEMES),
                                         min_size=1, max_size=4))
                pron = draw(st.sampled_from(PRON_SEPARATORS)).join(phonemes)
                pron = draw(st.sampled_from(["", " ", "\t"])) + pron
            line = f"{word}\t{pron}"
        lines.append(line + draw(st.sampled_from(ENDINGS)))
    return lines


def lexicon_outcome(parse_lines, source):
    try:
        lexicon = parse_lines(source)
    except LexiconError as exc:
        return "error", str(exc)
    return "ok", dict(lexicon.entries.items()), list(lexicon.entries), len(lexicon)


@settings(max_examples=300, deadline=None)
@given(lexicon_text_lines())
def test_parse_lexicon_matches_oracle(lines):
    expected = lexicon_outcome(lexicon_oracle, lines)
    assert lexicon_outcome(parse_lexicon, lines) == expected
    text = "".join(lines)
    assert lexicon_outcome(parse, text) == lexicon_outcome(
        lexicon_oracle, io.StringIO(text)
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lexicon.tsv"
        path.write_bytes(text.encode())
        with open(path, encoding="utf-8") as f:
            from_file = lexicon_outcome(lexicon_oracle, f)
        assert lexicon_outcome(load_lexicon, path) == from_file
    if expected[0] == "ok":
        lexicon = parse_lexicon(lines)
        assert all(word in lexicon.entries for word in expected[1])
        assert "\t" not in lexicon.entries and 0 not in lexicon.entries
        assert lexicon.entries.get("\t") is None
    # What the examples exercised (pytest --hypothesis-show-statistics).
    event("loaded" if expected[0] == "ok" else expected[1].split(": ")[-1][:25])


@given(st.text())
@example("\u00c4 ")
@example("A\u0308\u00a0")
def test_normalize_word_is_nfc_strip_lower(word):
    assert normalize_word(word) == unicodedata.normalize("NFC", word).strip().lower()
