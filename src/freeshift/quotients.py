"""Group quotients of the free group and word-level membership tools.

A quotient is specified by the images of the d generators in a target group
G; N is the kernel of the induced homomorphism F_d -> G. Downstream code only
needs a handful of primitives: evaluating words (a word is in N when it
evaluates to the identity), the period (gcd of lengths of cyclically
admissible N-words), balls and word lengths in the image group, and
first-return words (nonempty N-words with no proper nonempty prefix in N).

Three target models are supported:

* finite groups given by a full multiplication table,
* free abelian groups Z^k given by integer image vectors,
* free quotients obtained by killing a subset of the generators; the image
  is the free group on the surviving generators and images of words are
  freely reduced there.

Elements are plain hashable values (int index, tuple of ints, reduced letter
tuple respectively).

Each model computes its period exactly, with no search bound, and
the period is cached on the instance. So is the ball table of each radius
(the ball, its index and its letter-shift table): every fiber DP on one
ball of one quotient shares a single build.
"""

import math
from abc import ABC, abstractmethod

import numpy as np

from .errors import ResourceError, ValidationError
from .words import Alphabet, concat_reduce, inverse_word

MAX_FINITE_ORDER = 10_000
# search-tree nodes a first-return enumeration may visit
FIRST_RETURN_MAX_NODES = 5_000_000


class Quotient(ABC):
    """Shared word-level machinery over an abstract image group."""

    def __init__(self, d):
        self.alphabet = Alphabet(d)
        self._period_cache = None
        self._ball_tables = {}

    @property
    def d(self):
        return self.alphabet.d

    # --- image group interface -------------------------------------------

    @property
    @abstractmethod
    def identity(self):
        ...

    @abstractmethod
    def multiply(self, a, b):
        ...

    @abstractmethod
    def invert(self, a):
        ...

    @abstractmethod
    def letter_image(self, letter):
        ...

    @abstractmethod
    def sort_key(self, elem):
        """Total order on elements, for deterministic listings."""

    @abstractmethod
    def describe(self):
        ...

    # --- word-level derived operations -----------------------------------

    def eval_word(self, letters):
        g = self.identity
        for letter in letters:
            g = self.multiply(g, self.letter_image(letter))
        return g

    def period(self):
        """The exact period of N, the gcd of the lengths of cyclically
        admissible N-words, computed once. Every quotient type computes it
        exactly: finite by BFS levels of the (letter, element) graph, free
        abelian by integer elimination, free-kill as 1."""
        if self._period_cache is None:
            self._period_cache = self._period_search()
        return self._period_cache

    @abstractmethod
    def _period_search(self):
        """The exact period, as an int."""

    def ball_table(self, radius, max_elements=5_000_000):
        """``(elements, eindex, shifts)`` for the radius ball, built once per
        (radius, max_elements) and kept on the instance: ``elements`` is
        ``ball(radius)`` as a tuple, ``eindex`` maps each element to its
        index, and ``shifts`` is the read-only ``letter_shifts`` table."""
        key = (radius, max_elements)
        if key not in self._ball_tables:
            elements = tuple(self.ball(radius, max_elements))
            shifts = self._letter_shifts(elements, radius)
            shifts.flags.writeable = False
            self._ball_tables[key] = (
                elements, {e: i for i, e in enumerate(elements)}, shifts)
        return self._ball_tables[key]

    def _letter_shifts(self, elements, radius):
        """letter_shifts(self, elements) for elements = ball(radius)."""
        return letter_shifts(self, elements)

    def ball(self, radius, max_elements=5_000_000):
        """All elements reachable from the identity by at most ``radius``
        letter images, sorted by sort_key."""
        if radius < 0:
            raise ValidationError(f"radius must be >= 0, got {radius}")
        return self._ball(radius, max_elements)

    def _ball(self, radius, max_elements):
        """ball() by breadth-first search over element objects."""
        return sorted((g for level in self._levels(radius, max_elements)
                       for g in level), key=self.sort_key)

    def _levels(self, radius, max_elements):
        """Breadth-first level sets over element objects: level L lists
        the elements of word length L, for L = 0..radius."""
        images = [self.letter_image(l) for l in range(self.alphabet.size)]
        seen = {self.identity}
        frontier = [self.identity]
        yield frontier
        for _ in range(radius):
            nxt = []
            for g in frontier:
                for img in images:
                    h = self.multiply(g, img)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            if len(seen) > max_elements:
                raise ResourceError(
                    "ball exceeded element budget",
                    required=len(seen), budget=max_elements)
            frontier = nxt
            yield frontier

    def word_length(self, elements, limit, max_elements=5_000_000):
        """The largest word length among ``elements`` (fewest letter images
        whose product is the element), read from the breadth-first levels;
        ValidationError when one is not within ``limit`` letters of the
        identity."""
        todo = set(elements)
        for length, level in enumerate(self._levels(limit, max_elements)):
            todo.difference_update(level)
            if not todo:
                return length
        raise ValidationError(f"element {min(todo, key=repr)!r} is not "
                              f"within {limit} letters of the identity")

    def first_return_words(self, max_length):
        """Nonempty N-words of length <= max_length with no proper nonempty
        prefix in N, ordered by (length, letters).

        These are the edge words of the induced system on the identity
        fiber: every N-word factors uniquely into first returns (splitting
        at each prefix that lands on the identity).
        """
        ident = self.identity
        size = self.alphabet.size
        images = [self.letter_image(l) for l in range(size)]
        results = []
        visited = 0
        word = []
        prods = [ident]

        def descend():
            nonlocal visited
            forbidden = (word[-1] ^ 1) if word else -1
            for l in range(size):
                if l == forbidden:
                    continue
                visited += 1
                if visited > FIRST_RETURN_MAX_NODES:
                    raise ResourceError(
                        "first-return enumeration exceeded node budget",
                        required=visited, budget=FIRST_RETURN_MAX_NODES)
                g = self.multiply(prods[-1], images[l])
                word.append(l)
                prods.append(g)
                if g == ident:
                    # descendants all have this proper prefix in N:terminal
                    results.append(tuple(word))
                elif len(word) < max_length:
                    descend()
                word.pop()
                prods.pop()

        descend()
        return sorted(results, key=lambda w: (len(w), w))


class FiniteQuotient(Quotient):
    """Quotient onto a finite group given by its multiplication table.

    ``table[i, j]`` is the index of the product of elements i and j;
    ``generator_images`` gives the image index of each of the d generators
    (inverse letters map to the table inverses). Validation proves the table
    is a group (Latin square + two-sided identity + inverses + Light's
    associativity test over the generating set) and that the images generate.
    """

    def __init__(self, d, table, identity_index, generator_images):
        super().__init__(d)
        self.table = np.asarray(table, dtype=np.int64)
        self.identity_index = int(identity_index)
        self.generator_images = tuple(int(i) for i in generator_images)
        self._validate()

    # -- group axioms -------------------------------------------------------

    def _validate(self):
        t = self.table
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValidationError(f"multiplication table must be square, "
                                  f"got shape {t.shape}")
        order = t.shape[0]
        if order == 0:
            raise ValidationError("empty multiplication table")
        if order > MAX_FINITE_ORDER:
            raise ValidationError(
                f"finite quotient of order {order} exceeds supported cap "
                f"{MAX_FINITE_ORDER}")
        if t.min() < 0 or t.max() >= order:
            raise ValidationError("table entries out of range")
        e = self.identity_index
        if not 0 <= e < order:
            raise ValidationError(f"identity index {e} out of range")
        idx = np.arange(order)
        if not (np.array_equal(t[e], idx) and np.array_equal(t[:, e], idx)):
            raise ValidationError(
                f"element {e} is not a two-sided identity")
        # Latin square: every row and column is a permutation
        srt = np.sort(t, axis=1)
        if not np.array_equal(srt, np.tile(idx, (order, 1))):
            raise ValidationError("some row is not a permutation")
        srt = np.sort(t, axis=0)
        if not np.array_equal(srt, np.tile(idx[:, None], (1, order))):
            raise ValidationError("some column is not a permutation")
        if len(self.generator_images) != self.d:
            raise ValidationError(
                f"need {self.d} generator images, got "
                f"{len(self.generator_images)}")
        for g in self.generator_images:
            if not 0 <= g < order:
                raise ValidationError(f"generator image {g} out of range")
        # every row is a permutation, so it holds e once: nonzero lists the
        # right inverses in row order
        inv = self._inv = np.nonzero(t == e)[1]
        if not np.array_equal(t[inv, idx], np.full(order, e)):
            raise ValidationError("some right inverse is not a left inverse")
        self._letter_images = [int(x) for g in self.generator_images
                               for x in (g, inv[g])]
        # generation (surjectivity of the induced homomorphism)
        reached = sum(len(level) for level in self._levels(order, order))
        if reached != order:
            raise ValidationError(
                f"generator images generate only {reached} of "
                f"{order} elements")
        # Light's associativity test: with a Latin square and generation it
        # suffices to check (x s) y == x (s y) for s in the generating set
        for s in sorted(set(self._letter_images)):
            left = t[t[:, s], :]
            right = t[:, t[s, :]]
            if not np.array_equal(left, right):
                raise ValidationError(
                    f"multiplication table is not associative "
                    f"(fails at generator image {s})")

    @classmethod
    def from_file(cls, d, path, generator_images):
        """Load from a plain-text table file.

        First line: ``order identity_index``; then ``order`` lines of
        ``order`` whitespace-separated indices, line i holding the products
        of element i with every element. Blank lines and ``#`` comments are
        ignored.
        """
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    rows.append(line.split())
        if not rows:
            raise ValidationError(f"{path}: empty table file")
        try:
            header = [int(x) for x in rows[0]]
        except ValueError as exc:
            raise ValidationError(f"{path}: bad header: {exc}") from None
        if len(header) != 2:
            raise ValidationError(
                f"{path}: header must be 'order identity_index'")
        order, identity_index = header
        body = rows[1:]
        if len(body) != order:
            raise ValidationError(
                f"{path}: expected {order} table rows, got {len(body)}")
        try:
            table = [[int(x) for x in row] for row in body]
        except ValueError as exc:
            raise ValidationError(f"{path}: bad table entry: {exc}") from None
        for i, row in enumerate(table):
            if len(row) != order:
                raise ValidationError(
                    f"{path}: row {i} has {len(row)} entries, expected "
                    f"{order}")
        return cls(d, table, identity_index, generator_images)

    # -- group interface ----------------------------------------------------

    @property
    def identity(self):
        return self.identity_index

    def multiply(self, a, b):
        return int(self.table[a, b])

    def invert(self, a):
        return int(self._inv[a])

    def letter_image(self, letter):
        self.alphabet.check(letter)
        return self._letter_images[letter]

    def sort_key(self, elem):
        return elem

    def describe(self):
        return (f"finite group of order {self.table.shape[0]}, generator "
                f"images {list(self.generator_images)}")

    # -- exact period via the identity-fiber cycle structure ----------------

    def _period_search(self):
        """Cycle lengths through the identity fiber of the letter-by-letter
        graph on (letter, element) are exactly the lengths of cyclically
        admissible N-words, so the gcd is the period of that graph.

        With d >= 2 the graph is strongly connected. At a letter a, the
        closed paths a, (b, a) and (b^-1, a), for each letter b outside
        {a, a^-1}, carry the images img(a), img(b) img(a) and
        img(b)^-1 img(a). In a finite group the loop images generate a
        subgroup; it holds every letter image, so it is G (construction
        checks that the images generate G). The letter graph is strongly
        connected, so every (letter, g) reaches every other, and the BFS
        levels from one node give the period exactly, with no search
        bound: it is the gcd of level(u) + 1 - level(v) over all edges."""
        order = self.table.shape[0]
        shifts = letter_shifts(self, range(order))
        seed = self.identity_index          # node (letter 0, identity)
        level = {seed: 0}
        frontier = [seed]
        g = 0
        while frontier:
            nxt = []
            for u in frontier:
                letter, elem = divmod(u, order)
                for l2 in range(self.alphabet.size):
                    if l2 == (letter ^ 1):
                        continue
                    v = l2 * order + int(shifts[l2, elem])
                    if v not in level:
                        level[v] = level[u] + 1
                        nxt.append(v)
                    g = math.gcd(g, level[u] + 1 - level[v])
            frontier = nxt
        return g


def letter_shifts(quotient, elements):
    """Right multiplication by each letter image, on an element list:
    ``shifts[l, i]`` is the index in ``elements`` of elements[i] * img(l),
    or -1 when the product lies outside the list."""
    eindex = {e: i for i, e in enumerate(elements)}
    shifts = np.full((quotient.alphabet.size, len(elements)), -1,
                     dtype=np.int64)
    for l in range(quotient.alphabet.size):
        img = quotient.letter_image(l)
        for i, e in enumerate(elements):
            shifts[l, i] = eindex.get(quotient.multiply(e, img), -1)
    return shifts


def _sorted_index(table, values):
    """Index of each of ``values`` in the sorted array ``table``, -1 where
    it is absent."""
    if not len(table):
        return np.full(np.shape(values), -1)
    pos = np.minimum(np.searchsorted(table, values), len(table) - 1)
    return np.where(table[pos] == values, pos, -1)


class FreeAbelianQuotient(Quotient):
    """Quotient onto (a subgroup of) Z^rank via integer image vectors.

    ``generator_vectors`` has one length-``rank`` integer vector per
    generator; inverse letters map to the negated vectors. N is the kernel,
    i.e. words whose image vectors sum to zero.
    """

    def __init__(self, d, rank, generator_vectors):
        super().__init__(d)
        if rank < 1:
            raise ValidationError(f"rank must be >= 1, got {rank}")
        self.rank = int(rank)
        vecs = [tuple(int(x) for x in v) for v in generator_vectors]
        if len(vecs) != self.d:
            raise ValidationError(
                f"need {self.d} generator vectors, got {len(vecs)}")
        for v in vecs:
            if len(v) != self.rank:
                raise ValidationError(
                    f"vector {v} has length {len(v)}, expected rank "
                    f"{self.rank}")
        self.generator_vectors = tuple(vecs)
        self._letter_images = []
        for v in vecs:
            self._letter_images.append(v)
            self._letter_images.append(tuple(-x for x in v))

    @property
    def identity(self):
        return (0,) * self.rank

    def multiply(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def invert(self, a):
        return tuple(-x for x in a)

    def letter_image(self, letter):
        self.alphabet.check(letter)
        return self._letter_images[letter]

    def sort_key(self, elem):
        return elem

    # -- vectorised ball table: lattice points as int64 codes ---------------

    def _codec(self, radius):
        """(offset, base) of int64 codes for the lattice points within
        radius + 1 letters of the identity: code = sum_i (x_i + offset)
        base^(rank-1-i) with offset = (radius + 1) max|v|, so no digit
        carries and codes order like the tuples (sort_key). None when
        base^rank would overflow int64."""
        offset = (radius + 1) * max(abs(x) for v in self.generator_vectors
                                    for x in v)
        base = 2 * offset + 1
        if base ** self.rank > np.iinfo(np.int64).max:
            return None
        return offset, base

    def _encode(self, points, offset, base):
        weights = base ** np.arange(self.rank - 1, -1, -1, dtype=np.int64)
        return (np.asarray(points, dtype=np.int64) + offset) @ weights

    def _ball(self, radius, max_elements):
        """BFS by level sets of codes. The letter images are symmetric, so
        the neighbours of level L lie in levels L-1..L+1, and a candidate of
        level L+1 is new unless it is in level L-1 or L."""
        codec = self._codec(radius)
        if codec is None:
            return super()._ball(radius, max_elements)
        offset, base = codec
        steps = self._encode(self._letter_images, 0, base)
        prev = np.empty(0, dtype=np.int64)
        cur = self._encode([self.identity], offset, base)
        levels, total = [cur], 1
        for _ in range(radius):
            cand = np.sort((cur[:, None] + steps).ravel())
            cand = cand[np.r_[True, cand[1:] != cand[:-1]]]
            new = cand[(_sorted_index(cur, cand) < 0)
                       & (_sorted_index(prev, cand) < 0)]
            prev, cur = cur, new
            levels.append(new)
            total += len(new)
            if total > max_elements:
                raise ResourceError("ball exceeded element budget",
                                    required=total, budget=max_elements)
        digits = np.unravel_index(np.sort(np.concatenate(levels)),
                                  (base,) * self.rank)
        return list(zip(*((x - offset).tolist() for x in digits)))

    def _letter_shifts(self, elements, radius):
        """letter_shifts of ball(radius) by binary search of the shifted
        codes; a neighbour outside the ball still has a code of its own,
        so a miss is -1."""
        codec = self._codec(radius)
        if codec is None:
            return super()._letter_shifts(elements, radius)
        # ball() lists the elements in code order
        codes = self._encode(elements, *codec)
        return _sorted_index(codes, codes + self._encode(
            self._letter_images, 0, codec[1])[:, None])

    def _period_search(self):
        """Exact period by integer elimination. With d >= 2 the N-words
        [a, b] and [a^2, b] have lengths 4 and 6, so the period divides 2.
        A word's length has the parity of its exponent sum c_1 + ... + c_d,
        and every integer relation sum c_i v_i = 0 with an odd sum is the
        exponent vector of a cyclically reduced N-word of odd length
        (g_1^c_1 ... g_d^c_d, or the single letter g_i when only c_i is
        nonzero, since then v_i = 0). The sums of the relations form mZ:
        the last coordinates of the lattice spanned by the rows (v_i, 1)
        whose first ``rank`` coordinates vanish. Clearing those columns by
        Euclid leaves m as the gcd of the remaining last coordinates; the
        period is 1 when m is odd, 2 otherwise."""
        rows = [list(v) + [1] for v in self.generator_vectors]
        for col in range(self.rank):
            live = [r for r in rows if r[col]]
            while len(live) > 1:
                pivot = min(live, key=lambda r: abs(r[col]))
                for r in live:
                    if r is not pivot:
                        q = r[col] // pivot[col]
                        for j in range(col, self.rank + 1):
                            r[j] -= q * pivot[j]
                live = [r for r in live if r[col]]
            rows = [r for r in rows if not r[col]]
        m = 0
        for r in rows:
            m = math.gcd(m, r[-1])
        return 1 if m % 2 else 2

    def describe(self):
        return (f"free abelian rank {self.rank}, generator vectors "
                f"{[list(v) for v in self.generator_vectors]}")


class FreeKillQuotient(Quotient):
    """Quotient that kills a subset of the generators.

    The image group is the free group on the surviving generators; a word's
    image is itself with killed letters deleted, freely reduced. Elements
    are reduced letter tuples over the surviving letters.
    """

    def __init__(self, d, killed):
        super().__init__(d)
        killed = frozenset(int(k) for k in killed)
        if not killed:
            raise ValidationError(
                "free-kill quotient needs at least one killed generator "
                "(otherwise N is trivial)")
        if not killed <= set(range(self.d)):
            raise ValidationError(
                f"killed generators {sorted(killed)} out of range for "
                f"d={self.d}")
        self.killed = killed
        self.survivor_letters = tuple(
            l for l in range(self.alphabet.size) if l // 2 not in killed)
        self.killed_letters = tuple(
            l for l in range(self.alphabet.size) if l // 2 in killed)

    @property
    def identity(self):
        return ()

    def multiply(self, a, b):
        return concat_reduce(a, b)

    def invert(self, a):
        return inverse_word(a)

    def letter_image(self, letter):
        self.alphabet.check(letter)
        if letter // 2 in self.killed:
            return ()
        return (letter,)

    def sort_key(self, elem):
        return (len(elem), elem)

    def _period_search(self):
        """A killed letter is a cyclically admissible N-word of length 1,
        and construction requires one, so the period is 1."""
        return 1

    def describe(self):
        names = [f"g{k + 1}" for k in sorted(self.killed)]
        return f"free quotient killing {{{', '.join(names)}}}"
