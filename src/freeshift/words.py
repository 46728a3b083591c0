"""Reduced words over the alphabet of a rank-d free group.

The alphabet has 2d letters: letter 2k stands for the (k+1)-th generator,
letter 2k+1 for its inverse, so the involution is ``letter ^ 1``. A word is
admissible (freely reduced) when no two adjacent letters are inverse to each
other. Admissible words of length n are exactly the length-n cylinders of
the subshift; there are 2d(2d-1)^(n-1) of them.

Words travel through the library as plain tuples of ints; Alphabet checks
letters and names them (``g1``, ``g1^-1``, ...) for output.
"""

from .errors import ValidationError


def is_reduced(letters):
    """True when no adjacent pair multiplies to the identity."""
    return all(letters[i + 1] != (letters[i] ^ 1)
               for i in range(len(letters) - 1))


def concat_reduce(v, w):
    """Concatenate two reduced words, cancelling at the junction only.

    Both inputs must already be reduced; the result is then reduced as
    well (cancellation cannot propagate past the first surviving pair).
    """
    i, j = len(v), 0
    while i > 0 and j < len(w) and w[j] == (v[i - 1] ^ 1):
        i -= 1
        j += 1
    return tuple(v[:i]) + tuple(w[j:])


def inverse_word(w):
    """Group inverse: reverse the word and invert every letter."""
    return tuple(l ^ 1 for l in reversed(w))


def enumerate_words(d, n):
    """All admissible length-n words as tuples, in lexicographic order, as
    a list; n=0 gives the empty word once."""
    if d < 2:
        raise ValidationError(f"free rank must be >= 2, got {d}")
    if n < 0:
        raise ValidationError(f"word length must be >= 0, got {n}")
    words = [()]
    for _ in range(n):
        words = [w + (a,) for w in words for a in range(2 * d)
                 if not w or a != w[-1] ^ 1]
    return words


class Alphabet:
    """The 2d-letter alphabet of the rank-d free group."""

    def __init__(self, d):
        if d < 2:
            raise ValidationError(f"free rank must be >= 2, got {d}")
        self.d = d

    @property
    def size(self):
        return 2 * self.d

    def check(self, letter):
        if not 0 <= letter < 2 * self.d:
            raise ValidationError(
                f"letter {letter} out of range for 2d={2 * self.d}")

    def letter_name(self, letter):
        self.check(letter)
        gen = letter // 2 + 1
        return f"g{gen}" if letter % 2 == 0 else f"g{gen}^-1"

    def word_name(self, letters):
        return " ".join(self.letter_name(l) for l in letters)
