"""Locally constant potentials and their Birkhoff sup-sums.

A depth-k potential assigns a value to every admissible k-window; its value
on an infinite sequence is the value on the first k letters. The Birkhoff
sum over a finite word w takes the supremum over all infinite admissible
completions, so the last k-1 positions contribute the best value their
partially-visible windows can attain. Depth 1 has no boundary effect and
the sup-sum is a plain sum over letters.

Geometric potentials are strictly negative everywhere (log contraction
ratios bounded away from 0); they are the denominators of the free-energy
root problem and the spectrum's slope variable.
"""

import csv
import numbers
import random

import numpy as np

from .errors import ValidationError
from .words import enumerate_words, inverse_word

_window_cache = {}


def window_states(d, m):
    """All admissible m-windows in lexicographic order plus an index map."""
    key = (d, m)
    if key not in _window_cache:
        windows = enumerate_words(d, m)
        _window_cache[key] = (windows, {w: i for i, w in enumerate(windows)})
    return _window_cache[key]


def _window_inverse(d, m):
    """The index of the inverse of each m-window, in window_states order."""
    key = (d, m, "inverse")
    if key not in _window_cache:
        index = window_states(d, m)[1]      # dicts keep the window order
        _window_cache[key] = np.array([index[inverse_word(w)] for w in index])
    return _window_cache[key]


class Potential:
    """Depth-k potential as a dense value table over admissible k-windows.

    ``values`` is aligned with the lexicographic window order of
    ``window_states(d, depth)``; ``_index`` maps each window to its entry.
    """

    def __init__(self, d, depth, values):
        if d < 2:
            raise ValidationError(f"free rank must be >= 2, got {d}")
        if depth < 1:
            raise ValidationError(f"depth must be >= 1, got {depth}")
        windows, index = window_states(d, depth)
        vals = np.asarray(values, dtype=float)
        if vals.shape != (len(windows),):
            raise ValidationError(
                f"value table has {vals.shape} entries, expected "
                f"{len(windows)} windows")
        if not np.isfinite(vals).all():
            raise ValidationError("potential values must be finite")
        self.d = d
        self.depth = depth
        self.values = vals
        self._index = index

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, d, c, depth=1):
        windows, _ = window_states(d, depth)
        return cls(d, depth, np.full(len(windows), float(c)))

    @classmethod
    def from_letter_values(cls, d, values):
        values = list(values)
        if len(values) != 2 * d:
            raise ValidationError(
                f"need {2 * d} per-letter values, got {len(values)}")
        return cls(d, 1, np.asarray(values, dtype=float))

    @classmethod
    def from_table(cls, d, depth, mapping):
        windows, index = window_states(d, depth)
        vals = np.empty(len(windows))
        seen = set()
        for w, v in mapping.items():
            w = tuple(w)
            if w not in index:
                raise ValidationError(f"{w} is not an admissible "
                                      f"{depth}-window for d={d}")
            vals[index[w]] = float(v)
            seen.add(w)
        if len(seen) != len(windows):
            missing = next(w for w in windows if w not in seen)
            raise ValidationError(
                f"table incomplete: {len(seen)} of {len(windows)} windows, "
                f"e.g. missing {missing}")
        return cls(d, depth, vals)

    # -- access -------------------------------------------------------------

    def value(self, window):
        window = tuple(window)
        if window not in self._index:
            raise ValidationError(f"{window} is not an admissible "
                                  f"{self.depth}-window for d={self.d}")
        return float(self.values[self._index[window]])

    @property
    def max(self):
        return float(self.values.max())

    def as_depth(self, depth):
        """Lift to a (not smaller) depth; the lifted table reads the first
        ``self.depth`` letters of each window. Sup-sums are unchanged."""
        if depth < self.depth:
            raise ValidationError(
                f"cannot lower depth {self.depth} to {depth}")
        if depth == self.depth:
            return self
        windows, _ = window_states(self.d, depth)
        vals = np.array([self.values[self._index[w[:self.depth]]]
                         for w in windows])
        return Potential(self.d, depth, vals)

    def is_inverse_symmetric(self):
        """True when the table is invariant under word inversion of the
        windows (letter involution composed with reversal). This is the
        checkable sufficient condition used as a precondition by the
        symmetry-dependent inequalities."""
        inverse = _window_inverse(self.d, self.depth)
        return bool((self.values == self.values[inverse]).all())

    def __mul__(self, c):
        return Potential(self.d, self.depth, self.values * float(c))

    __rmul__ = __mul__


class GeometricPotential(Potential):
    """Potential of log contraction ratios: values <= log s < 0."""

    def __init__(self, d, depth, values):
        super().__init__(d, depth, values)
        if self.values.max() >= 0:
            raise ValidationError(
                "geometric potential must be strictly negative "
                f"(max value {self.values.max():g})")

    @classmethod
    def from_ratios(cls, d, ratios):
        ratios = list(ratios)
        if len(ratios) != 2 * d:
            raise ValidationError(
                f"need {2 * d} contraction ratios, got {len(ratios)}")
        for r in ratios:
            if not 0 < r < 1:
                raise ValidationError(
                    f"contraction ratios must lie in (0, 1), got {r}")
        return cls(d, 1, np.log(np.asarray(ratios, dtype=float)))


def combine(*terms):
    """Linear combination sum(coef * pot) materialized at the largest depth.

    ``terms`` are (coef, potential) pairs over one alphabet. Returns a plain
    Potential; sup-sums of the combination agree with the combination of
    interior sums plus its own boundary completion.
    """
    terms = [(float(c), p) for c, p in terms]
    if not terms:
        raise ValidationError("combine needs at least one term")
    d = terms[0][1].d
    if any(p.d != d for _, p in terms):
        raise ValidationError("potentials live over different alphabets")
    depth = max(p.depth for _, p in terms)
    total = np.zeros(len(window_states(d, depth)[0]))
    for c, p in terms:
        total += c * p.as_depth(depth).values
    return Potential(d, depth, total)


def boundary_completion(pot, suffix):
    """Best total of the trailing partial windows of a word ending with
    ``suffix`` (its last k-1 letters, or the whole word when shorter): the
    maximum, over the admissible (k-1)-letter continuations c, of the
    windows of suffix + c that start in the suffix. Fiber recursions add
    this to interior sums to read off exact sup-sums."""
    k = pot.depth
    s = tuple(suffix)[1 - k:]
    if k == 1 or not s:
        return 0.0
    words = (s + c for c in window_states(pot.d, k - 1)[0]
             if c[0] != s[-1] ^ 1)
    return float(max(sum(pot.values[pot._index[u[i:i + k]]]
                         for i in range(len(s))) for u in words))


def random_inverse_symmetric(d, seed):
    """Seeded depth-1 potential with f(l) = f(l^{-1}) (inverse-symmetric):
    one value per generator, uniform on [-1, 1], drawn by the standard
    library's Mersenne Twister (numpy.random costs megabytes to load for d
    numbers). ``seed`` is a non-negative integer."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(
            f"seed must be a non-negative integer, got {seed!r}")
    rng = random.Random(int(seed))
    per_gen = [rng.uniform(-1.0, 1.0) for _ in range(d)]
    return Potential(d, 1, np.repeat(per_gen, 2))


# ---------------------------------------------------------------------------
# CSV table format: header w1,...,wk,value; one row per admissible window

def load_potential_csv(d, path, geometric=False):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rd = csv.reader(fh)
        try:
            header = next(rd)
        except StopIteration:
            raise ValidationError(f"{path}: empty potential file") from None
        depth = len(header) - 1
        if depth < 1 or header[-1].strip().lower() != "value":
            raise ValidationError(
                f"{path}: header must be w1,...,wk,value")
        mapping = {}
        for lineno, row in enumerate(rd, start=2):
            if not row:
                continue
            if len(row) != depth + 1:
                raise ValidationError(
                    f"{path}:{lineno}: expected {depth + 1} columns")
            try:
                w = tuple(int(x) for x in row[:-1])
                v = float(row[-1])
            except ValueError as exc:
                raise ValidationError(
                    f"{path}:{lineno}: {exc}") from None
            if w in mapping:
                raise ValidationError(
                    f"{path}:{lineno}: duplicate window {w}")
            mapping[w] = v
    pot = Potential.from_table(d, depth, mapping)
    if geometric:
        return GeometricPotential(d, depth, pot.values)
    return pot
