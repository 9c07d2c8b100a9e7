"""Text analysis: tokenization, stopword removal, Porter stemming.

Documents and queries must pass through the same pipeline so that index
statistics and query terms live in the same term space.  The pipeline is a
pure function of (text, config):

    tokenize -> lowercase -> drop stopwords -> stem

Tokenizing is ``tokenizer(config.token_pattern)``, one function per pattern
that ``analyze`` and ``build_index`` both call.  Its tokens are always those
of ``re.findall``; when the pattern is one character class repeated with
``+`` (``[^\\W_]+``, ``\\w+``, ``[a-z]+``) whose class holds no ASCII
whitespace, an ASCII text is tokenized by ``str.translate`` + ``str.split``
instead of the regex engine (see ``tokenizer`` for why both give the same
tokens).  A token pattern may not have capturing groups, since ``findall``
would then return the groups; empty matches are dropped.

The default stopword list is the classic 33-word English set:

    a an and are as at be but by for if in into is it no not of on or
    such that the their then there these they this to was will with
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable

DEFAULT_STOPWORDS: frozenset[str] = frozenset(
    """
    a an and are as at be but by for if in into is it no not of on or
    such that the their then there these they this to was will with
    """.split()
)

# Maximal runs of letters/digits (unicode-aware; underscore excluded).
DEFAULT_TOKEN_PATTERN = r"[^\W_]+"

_STEMMERS = ("none", "porter")


@dataclass(frozen=True)
class AnalyzerConfig:
    """Configuration of the analysis pipeline.

    ``stemmer`` is one of ``"none"`` or ``"porter"``.  ``token_pattern`` is a
    regex whose matches are the raw tokens; it must compile (``re.error``
    otherwise) and have no capturing groups.
    """

    lowercase: bool = True
    stopwords: frozenset[str] = DEFAULT_STOPWORDS
    stemmer: str = "porter"
    token_pattern: str = DEFAULT_TOKEN_PATTERN

    def __post_init__(self) -> None:
        if self.stemmer not in _STEMMERS:
            raise ValueError(f"unknown stemmer {self.stemmer!r}; expected one of {_STEMMERS}")
        if re.compile(self.token_pattern).groups:
            raise ValueError(
                f"token_pattern {self.token_pattern!r} has capturing groups; "
                "group with (?:...) instead"
            )
        if isinstance(self.stopwords, str):
            raise TypeError(
                f"stopwords must be a collection of words, not the string {self.stopwords!r}"
            )
        object.__setattr__(self, "stopwords", frozenset(self.stopwords))


def analyze_token(token: str, config: AnalyzerConfig) -> str | None:
    """The term one raw token becomes, or None when it is a stopword.

    The one per-token step of the pipeline: ``analyze`` maps it over a
    text's tokens, and ``build_index`` calls it once per distinct token.
    An empty token (a pattern such as ``\\w*`` matches the empty string)
    is dropped like a stopword.
    """
    if not token:
        return None
    if config.lowercase:
        token = token.lower()
    if token in config.stopwords:
        return None
    return porter_stem(token) if config.stemmer == "porter" else token


def analyze(text: str, config: AnalyzerConfig | None = None) -> list[str]:
    """Turn raw text into the token sequence used for indexing and querying.

    Total function: empty input (or all-stopword input) yields ``[]``.
    """
    if config is None:
        config = AnalyzerConfig()
    terms = (analyze_token(t, config) for t in tokenizer(config.token_pattern)(text))
    return [t for t in terms if t is not None]


# One character class, repeated with "+", and nothing else: a bracket set
# with no unescaped "]" inside, or a class escape.
_ONE_CLASS_RUN = re.compile(r"(?:\[(?:[^\\\]]|\\.)+\]|\\[dDsSwW])\+", re.DOTALL)


def split_table(pattern: str) -> str | None:
    """The str.translate table that lets str.split tokenize ASCII text as
    re.findall(pattern) does, or None when there is none.

    There is one when ``pattern`` is a single character class C followed by
    ``+`` and C holds no ASCII whitespace.  Entry c of the table is chr(c)
    when chr(c) is in C and a space when not; membership is decided by the
    compiled pattern itself (``fullmatch(chr(c))``), so it is ``re``'s own.
    On an ASCII text, findall returns the maximal runs of C characters, left
    to right.  The translated text holds the same characters at the same
    places with every non-C character turned into a space, and no C
    character is whitespace, so its whitespace-separated words are exactly
    those runs too.
    """
    if not _ONE_CLASS_RUN.fullmatch(pattern):
        return None
    match = re.compile(pattern).fullmatch
    table = "".join(chr(c) if match(chr(c)) else " " for c in range(128))
    if any(table[c] != " " for c in range(128) if chr(c).isspace()):
        return None  # str.split would cut tokens at those characters
    return table


@functools.lru_cache(maxsize=None)
def tokenizer(pattern: str) -> Callable[[str], list[str]]:
    """text -> the raw tokens of text, equal to re.findall(pattern, text).

    With a ``split_table`` for the pattern, an ASCII text (``str.isascii``
    is O(1)) is tokenized by one ``str.translate`` and one ``str.split``;
    any other text, and every text under any other pattern, goes to the
    compiled pattern's findall, which is also the faster of the two on
    non-ASCII text.  Built once per pattern.
    """
    findall = re.compile(pattern).findall
    table = split_table(pattern)
    if table is None:
        return findall

    def tokenize(text: str) -> list[str]:
        return text.translate(table).split() if text.isascii() else findall(text)

    return tokenize


# ---------------------------------------------------------------------------
# Porter stemmer (the original 1980 algorithm).
#
# Letters are classified as consonants/vowels with 'y' acting as a vowel when
# preceded by a consonant.  m() counts VC sequences in the [C](VC)^m[V]
# decomposition of a stem; each step applies the longest matching suffix rule
# whose stem condition holds.
# ---------------------------------------------------------------------------

_VOWELS = "aeiou"


def _is_cons(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return True if i == 0 else not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_cons(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _is_cons(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    n = len(word)
    if not (_is_cons(word, n - 3) and not _is_cons(word, n - 2) and _is_cons(word, n - 1)):
        return False
    return word[-1] not in "wxy"


# (suffix, replacement) rule tables; within a step only the longest matching
# suffix is attempted, so each table is ordered by suffix length descending.
_STEP2 = sorted(
    [
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
        ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
        ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
        ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
        ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    ],
    key=lambda r: -len(r[0]),
)

_STEP3 = sorted(
    [
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    ],
    key=lambda r: -len(r[0]),
)

_STEP4 = sorted(
    [
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    ],
    key=len,
    reverse=True,
)


def porter_stem(word: str) -> str:
    """Stem a single lowercase token.

    Tokens shorter than three letters or containing non-alphabetic characters
    are returned unchanged (the measure-based rules are defined on letters
    only).
    """
    if len(word) < 3 or not word.isalpha():
        return word

    # Step 1a: plurals.
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]

    # Step 1b: -eed / -ed / -ing.
    cleanup = False
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    elif word.endswith("ed"):
        if _has_vowel(word[:-2]):
            word = word[:-2]
            cleanup = True
    elif word.endswith("ing"):
        if _has_vowel(word[:-3]):
            word = word[:-3]
            cleanup = True
    if cleanup:
        if word.endswith(("at", "bl", "iz")):
            word += "e"
        elif _ends_double_cons(word) and word[-1] not in "lsz":
            word = word[:-1]
        elif _measure(word) == 1 and _ends_cvc(word):
            word += "e"

    # Step 1c: terminal y.
    if word.endswith("y") and _has_vowel(word[:-1]):
        word = word[:-1] + "i"

    # Step 2: double suffixes, m(stem) > 0.
    for suffix, repl in _STEP2:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > 0:
                word = stem + repl
            break

    # Step 3: -ic-, -full, -ness etc., m(stem) > 0.
    for suffix, repl in _STEP3:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > 0:
                word = stem + repl
            break

    # Step 4: strip residual suffixes, m(stem) > 1.
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > 1:
                if suffix == "ion" and stem[-1:] not in ("s", "t"):
                    break
                word = stem
            break

    # Step 5a: terminal e.
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            word = stem

    # Step 5b: -ll reduction.
    if _measure(word) > 1 and _ends_double_cons(word) and word.endswith("l"):
        word = word[:-1]

    return word
