"""Surface counts of texts: the integer kernel behind the semantic statistics.

:func:`text_counts` gives six integers per text, after stripping its
surrounding whitespace, in the order of ``COUNT_NAMES``: characters, words
(maximal runs of alphanumeric characters), the characters of those words,
sentences ('.!?'-delimited segments holding at least one word), capital
letters and punctuation signs.  An empty text counts all zeros.

The loader counts every post and comment text of a block as it parses it, so
no text outlives its block, and the fake-news stage forms its statistics
from these counts alone.  Every count is an integer per text, so a sum of
counts over texts does not depend on their order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

COUNT_NAMES = ("characters", "words", "word_characters", "sentences", "capital_letters", "punctuation_signs")

_PUNCTUATION = frozenset(".,;:!?'\"()-")
_TERMINATORS = frozenset(".!?")

# Character classes, as bit flags.  A word character is one the pattern
# [^\W_] matches, which for one character is str.isalnum().
_WORD_CHAR, _UPPER, _PUNCT, _TERM = 1, 2, 4, 8
# Characters per kernel call, each text counting one more: bounds the
# per-character arrays (about 40 bytes per character), so peak memory does
# not grow with the number of texts.  A longer text is a batch of its own.
_TEXT_CHARS = 2**16


def _char_class(code: int) -> int:
    ch = chr(code)
    return (
        _WORD_CHAR * ch.isalnum()
        | _UPPER * ch.isupper()
        | _PUNCT * (ch in _PUNCTUATION)
        | _TERM * (ch in _TERMINATORS)
    )


# The class of each ASCII code point.
_ASCII_CLASS = np.array([_char_class(c) for c in range(128)], np.uint8)


def _count_batch(texts: list[str]) -> np.ndarray:
    """The counts of already stripped texts, one row per text.

    The texts are joined and read as code points.  ASCII is classified from
    a fixed table and every other code point once per batch, so the tables
    grow with the distinct code points, not with the largest; every count
    is a per-text bincount.  A word starts at a word character that follows
    a non-word character or opens its text.  A sentence starts at a word
    character whose previous word or terminator character in the text is a
    terminator, or that has none.
    """
    n = len(texts)
    lengths = np.fromiter(map(len, texts), np.int64, n)
    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), np.uint32)
    cls = _ASCII_CLASS.take(codes, mode="clip")
    wide = np.flatnonzero(codes >= len(_ASCII_CLASS))
    if len(wide):
        present, inverse = np.unique(codes[wide], return_inverse=True)
        cls[wide] = np.array([_char_class(int(c)) for c in present], np.uint8)[inverse]
    text = np.repeat(np.arange(n), lengths)

    word = (cls & _WORD_CHAR) > 0
    after_word = np.zeros(len(cls), bool)
    after_word[1:] = word[:-1]
    after_word[(np.cumsum(lengths) - lengths)[lengths > 0]] = False
    marks = np.flatnonzero(cls & (_WORD_CHAR | _TERM))
    mark_word, mark_text = word[marks], text[marks]
    opens = np.ones(len(marks), bool)
    opens[1:] = ~mark_word[:-1] | (mark_text[1:] != mark_text[:-1])

    def per_text(at: np.ndarray) -> np.ndarray:
        return np.bincount(at, minlength=n)

    return np.column_stack([
        lengths,
        per_text(text[word & ~after_word]),
        per_text(text[word]),
        per_text(mark_text[mark_word & opens]),
        per_text(text[(cls & _UPPER) > 0]),
        per_text(text[(cls & _PUNCT) > 0]),
    ])


def text_counts(texts: Sequence[str]) -> np.ndarray:
    """The ``COUNT_NAMES`` counts of each text, stripped: an int64 array of one row per text.

    The texts are read in batches of at most _TEXT_CHARS characters, each
    text counting its stripped length plus one, so a batch of empty texts is
    bounded too; a text longer than that is a batch of its own.  Every count
    is per text, so the batching does not change any of them.
    """
    out = np.zeros((len(texts), len(COUNT_NAMES)), np.int64)
    batch, chars, start = [], 0, 0
    for text in texts:
        text = text.strip()
        if batch and chars + len(text) + 1 > _TEXT_CHARS:
            out[start:start + len(batch)] = _count_batch(batch)
            start += len(batch)
            batch, chars = [], 0
        batch.append(text)
        chars += len(text) + 1
    if batch:
        out[start:start + len(batch)] = _count_batch(batch)
    return out
