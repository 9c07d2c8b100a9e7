"""Analyzer pipeline: tokenization, stopwords, Porter stemming."""

import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twqp.analysis import (
    DEFAULT_STOPWORDS,
    AnalyzerConfig,
    analyze,
    analyze_token,
    porter_stem,
    split_table,
    tokenizer,
)

from conftest import ANALYZER_CONFIGS, TEXTS
from oracle import reference_analyze


class TestTokenize:
    def test_lowercase_and_split(self):
        config = AnalyzerConfig(stopwords=frozenset(), stemmer="none")
        assert analyze("Apple BANANA cherry", config) == ["apple", "banana", "cherry"]

    def test_punctuation_splits_tokens(self):
        config = AnalyzerConfig(stopwords=frozenset(), stemmer="none")
        assert analyze("state-of-the-art, really?", config) == [
            "state", "of", "the", "art", "really",
        ]

    def test_underscore_excluded_digits_kept(self):
        config = AnalyzerConfig(stopwords=frozenset(), stemmer="none")
        assert analyze("foo_bar x86 2nd", config) == ["foo", "bar", "x86", "2nd"]

    def test_empty_input(self):
        assert analyze("") == []
        assert analyze("   \t\n  ") == []

    def test_lowercase_off(self):
        config = AnalyzerConfig(lowercase=False, stopwords=frozenset(), stemmer="none")
        assert analyze("Apple apple", config) == ["Apple", "apple"]


# Texts over ASCII letters, digits, punctuation and every ASCII whitespace
# character (str.split cuts at each, \x1c-\x1f included); half of them may
# also hold non-ASCII letters, digits and separators.
ASCII_CHARS = string.ascii_letters + string.digits + "_" + string.punctuation + (
    " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
)
TOKENIZER_TEXTS = st.one_of(
    st.text(alphabet=ASCII_CHARS, max_size=40),
    st.text(alphabet=ASCII_CHARS + "éß٣\u00a0\u2028", max_size=40),
)
# Each pattern, and whether ASCII text under it is split by str.translate
# + str.split (True) or always by re.findall (False).
ROUTES = {
    r"[^\W_]+": True,
    r"\w+": True,
    r"\d+": True,
    r"\S+": True,
    r"[a-z]+": True,
    r"[\]a]+": True,  # an escaped "]" inside the set
    r"[]a]+": False,  # "]" first in the set is a member, not its end
    r"[^,]+": False,  # the class holds whitespace
    r"\s+": False,
    r"(?i)[a-z]+": False,  # not only the class
    r"[a-z]+(?:'[a-z]+)?": False,
}


class TestTokenizer:
    @pytest.mark.parametrize("pattern, split", ROUTES.items(), ids=ROUTES.keys())
    def test_route(self, pattern, split):
        assert (split_table(pattern) is not None) is split
        assert (tokenizer(pattern) == re.compile(pattern).findall) is not split

    @pytest.mark.parametrize("pattern", ROUTES, ids=ROUTES.keys())
    @given(text=TOKENIZER_TEXTS)
    @settings(max_examples=150, deadline=None)
    def test_same_tokens_as_findall(self, pattern, text):
        assert tokenizer(pattern)(text) == re.findall(pattern, text)

    def test_split_route_cuts_at_every_ascii_separator(self):
        text = "a\x1cb\x1fc\x0bd\x0ce-f_g"
        assert tokenizer(r"[^\W_]+")(text) == list("abcdefg")
        assert tokenizer(r"[^\W_]+")(text + " é") == [*"abcdefg", "é"]

    def test_built_once_per_pattern(self):
        assert tokenizer(r"[a-z]+") is tokenizer(r"[a-z]+")

    def test_empty_matches_dropped(self):
        config = AnalyzerConfig(token_pattern=r"\w*")
        assert analyze("apple pie", config) == ["appl", "pie"]
        assert analyze_token("", config) is None

    @pytest.mark.parametrize("pattern", ["(a)(b)", "(a)", "(?P<w>[a-z]+)"])
    def test_capturing_groups_rejected(self, pattern):
        with pytest.raises(ValueError, match=re.escape("group with (?:...) instead")):
            AnalyzerConfig(token_pattern=pattern)
        assert analyze("ab ab", AnalyzerConfig(token_pattern="(?:a)(?:b)")) == ["ab", "ab"]

    def test_pattern_that_does_not_compile_rejected(self):
        with pytest.raises(re.error):
            AnalyzerConfig(token_pattern="(")


class TestStopwords:
    def test_default_list_is_the_classic_33(self):
        expected = set(
            "a an and are as at be but by for if in into is it no not of on or "
            "such that the their then there these they this to was will with".split()
        )
        assert DEFAULT_STOPWORDS == frozenset(expected)
        assert len(DEFAULT_STOPWORDS) == 33

    def test_removal_happens_after_lowercasing(self):
        config = AnalyzerConfig(stemmer="none")
        assert analyze("The apple AND the orange", config) == ["apple", "orange"]

    def test_all_stopword_input_yields_empty(self):
        config = AnalyzerConfig(stemmer="none")
        assert analyze("the and of to", config) == []

    def test_custom_stopwords(self):
        config = AnalyzerConfig(stopwords=frozenset({"apple"}), stemmer="none")
        assert analyze("apple banana the", config) == ["banana", "the"]

    @pytest.mark.parametrize("words", ["the", ""])
    def test_bare_string_rejected(self, words):
        # frozenset("the") would be {"t", "h", "e"}, a list of letters.
        with pytest.raises(TypeError, match="collection of words"):
            AnalyzerConfig(stopwords=words, stemmer="none")


class TestPorterStemmer:
    # Classic vocabulary pairs for the original algorithm; expected values
    # are full-pipeline outputs, not single-step rewrites.
    TABLE = {
        # plurals and -ed/-ing
        "caresses": "caress", "ponies": "poni", "ties": "ti", "caress": "caress",
        "cats": "cat", "feed": "feed", "agreed": "agre", "plastered": "plaster",
        "bled": "bled", "motoring": "motor", "sing": "sing", "conflated": "conflat",
        "troubled": "troubl", "sized": "size", "hopping": "hop", "tanned": "tan",
        "falling": "fall", "hissing": "hiss", "fizzed": "fizz", "failing": "fail",
        "filing": "file", "happy": "happi", "sky": "sky",
        # double suffixes
        "relational": "relat", "conditional": "condit", "rational": "ration",
        "valenci": "valenc", "hesitanci": "hesit", "digitizer": "digit",
        "conformabli": "conform", "radicalli": "radic", "differentli": "differ",
        "vileli": "vile", "analogousli": "analog", "vietnamization": "vietnam",
        "predication": "predic", "operator": "oper", "feudalism": "feudal",
        "decisiveness": "decis", "hopefulness": "hope", "callousness": "callous",
        "formaliti": "formal", "sensitiviti": "sensit", "sensibiliti": "sensibl",
        # -ic-, -full, -ness
        "triplicate": "triplic", "formative": "form", "formalize": "formal",
        "electriciti": "electr", "electrical": "electr", "hopeful": "hope",
        "goodness": "good",
        # residual suffixes
        "revival": "reviv", "allowance": "allow", "inference": "infer",
        "airliner": "airlin", "gyroscopic": "gyroscop", "adjustable": "adjust",
        "defensible": "defens", "irritant": "irrit", "replacement": "replac",
        "adjustment": "adjust", "dependent": "depend", "adoption": "adopt",
        "homologou": "homolog", "communism": "commun", "activate": "activ",
        "angulariti": "angular", "effective": "effect", "bowdlerize": "bowdler",
        # terminal e and -ll
        "probate": "probat", "rate": "rate", "cease": "ceas",
        "controll": "control", "roll": "roll",
    }

    def test_vocabulary_table(self):
        for word, expected in self.TABLE.items():
            assert porter_stem(word) == expected, word

    def test_revised_variant_rules_not_applied(self):
        # logi -> log belongs to the later revision, not the original rules
        assert porter_stem("homologi") == "homologi"

    def test_short_words_unchanged(self):
        for word in ("a", "is", "ox", "be"):
            assert porter_stem(word) == word

    def test_non_alphabetic_unchanged(self):
        for word in ("x86", "2nd", "r2d2", "foo9ies"):
            assert porter_stem(word) == word

    def test_ss_kept_s_dropped(self):
        assert porter_stem("caress") == "caress"
        assert porter_stem("cats") == "cat"

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        letters = "abcdefghijklmnopqrstuvwxyz"
        for _ in range(200):
            n = int(rng.integers(3, 12))
            word = "".join(letters[int(i)] for i in rng.integers(0, 26, size=n))
            assert porter_stem(word) == porter_stem(word)


class TestAnalyzePipeline:
    def test_stages_compose(self):
        config = AnalyzerConfig()
        text = "The Motoring ponies are HAPPY"
        manual = [porter_stem(t) for t in ["motoring", "ponies", "happy"]]
        assert analyze(text, config) == manual

    def test_stemmer_none(self):
        config = AnalyzerConfig(stemmer="none")
        assert analyze("motoring ponies", config) == ["motoring", "ponies"]

    def test_unknown_stemmer_rejected(self):
        with pytest.raises(ValueError, match="unknown stemmer"):
            AnalyzerConfig(stemmer="snowball")

    def test_default_config_used_when_omitted(self):
        assert analyze("The Motoring") == analyze("The Motoring", AnalyzerConfig())

    def test_custom_token_pattern(self):
        config = AnalyzerConfig(
            stopwords=frozenset(), stemmer="none", token_pattern=r"[a-z]+"
        )
        assert analyze("ab12cd ef", config) == ["ab", "cd", "ef"]

    @pytest.mark.parametrize("config", ANALYZER_CONFIGS.values(), ids=ANALYZER_CONFIGS.keys())
    @given(text=TEXTS)
    @settings(max_examples=150, deadline=None)
    def test_same_tokens_as_four_list_passes(self, config, text):
        assert analyze(text, config) == reference_analyze(text, config)

    def test_token_step(self):
        config = AnalyzerConfig()
        assert analyze_token("Ponies", config) == "poni"
        assert analyze_token("THE", config) is None
        assert analyze_token("THE", AnalyzerConfig(lowercase=False)) == "THE"
        assert analyze_token("Ponies", AnalyzerConfig(stemmer="none")) == "ponies"
