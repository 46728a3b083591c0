"""Brute-force reference implementations used to pin expected values.

Everything here is deliberately slow and simple: plain tuples, full
enumeration, no recurrences shared with the library. The one large matrix
is the dense lift of lifted_delta, solved by numpy's eigvals. Tests compare
library output against these oracles on small instances, so the oracles
must stay independent of the code under test (they import nothing from
freeshift). reduced_word_counts counts words by an exact integer
recurrence instead of enumerating them; tests check it against brute_words.
freekill_pressure reads free-kill pressures of depth-1 potentials off the
weighted cogrowth formula (2d x 2d systems), a route the library does not
share. exact_least_squares solves small least-squares problems in
rational arithmetic. The helpers that take a library Potential
(birkhoff_sup_sum, distortion_constant, partition_sum_matrix,
save_potential_csv) read it only through its d, depth, value(), max and
min.

Conventions (shared with the library by construction, asserted in tests):
letters are ints 0..2d-1, letter 2k is the (k+1)-th generator, 2k+1 its
inverse, so the involution is xor with 1. A word is a tuple of letters with
no adjacent inverse pairs.
"""

import csv
import functools
import math
from fractions import Fraction

import numpy as np


def inv(letter):
    return letter ^ 1


def is_reduced(word):
    return all(word[i + 1] != inv(word[i]) for i in range(len(word) - 1))


def brute_words(d, n):
    """All reduced words of length n over 2d letters, lexicographic."""
    if n == 0:
        yield ()
        return
    stack = [(l,) for l in range(2 * d - 1, -1, -1)]
    while stack:
        w = stack.pop()
        if len(w) == n:
            yield w
            continue
        for l in range(2 * d - 1, -1, -1):
            if l != inv(w[-1]):
                stack.append(w + (l,))


def brute_count(d, n):
    if n == 0:
        return 1
    return 2 * d * (2 * d - 1) ** (n - 1)


def brute_concat(v, w):
    i, j = len(v), 0
    while i > 0 and j < len(w) and w[j] == inv(v[i - 1]):
        i -= 1
        j += 1
    return v[:i] + w[j:]


def brute_inverse(w):
    return tuple(inv(l) for l in reversed(w))


# ---------------------------------------------------------------------------
# tiny standalone group models (independent of the library's quotient classes)

def perm_mul(p, q):
    """Compose permutations given as tuples: apply p first, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def perm_group_table(gens):
    """Closure of a set of permutations; returns (elements, table, identity
    index, index map). Elements sorted for determinism."""
    n = len(gens[0])
    ident = tuple(range(n))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = perm_mul(e, g)
                if h not in elems:
                    elems.add(h)
                    nxt.append(h)
        frontier = nxt
    elems = sorted(elems)
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[perm_mul(a, b)] for b in elems] for a in elems]
    return elems, table, index[ident], index


def abelian_ops(rank, letter_vectors):
    """Group callables for Z^rank with per-letter image vectors."""
    identity = (0,) * rank

    def img(letter):
        return tuple(letter_vectors[letter])

    def mul(a, b):
        return tuple(x + y for x, y in zip(a, b))

    return identity, img, mul


def freekill_ops(killed_generators):
    """Group callables for killing a set of generators: image of a word is
    the word with killed letters deleted, freely reduced over the rest."""

    def img(letter):
        if letter // 2 in killed_generators:
            return ()
        return (letter,)

    return (), img, brute_concat


def eval_word(word, identity, img, mul):
    g = identity
    for letter in word:
        g = mul(g, img(letter))
    return g


# ---------------------------------------------------------------------------
# brute-force quantities

def _prefix_walk(d, L, identity, img, mul):
    """Depth-first walk over the reduced words of length 1..L in
    lexicographic preorder, carrying prefix products so that each word
    costs one mul. Yields (word, image, first): ``first`` says that no
    proper nonempty prefix of the word has image id."""
    stack = [((l,), mul(identity, img(l)), True)
             for l in range(2 * d - 1, -1, -1)]
    while stack:
        w, g, first = stack.pop()
        yield w, g, first
        if len(w) < L:
            deeper = first and g != identity
            for l in range(2 * d - 1, -1, -1):
                if l != inv(w[-1]):
                    stack.append((w + (l,), mul(g, img(l)), deeper))


@functools.cache
def _walk_summary(d, L, identity, img, mul):
    """One walk feeds both oracles below: the first-return words in walk
    order, and per length n = 1..L a dict image -> number of words."""
    first_returns = []
    counts = [{} for _ in range(L)]
    for w, g, first in _prefix_walk(d, L, identity, img, mul):
        per_n = counts[len(w) - 1]
        per_n[g] = per_n.get(g, 0) + 1
        if first and g == identity:
            first_returns.append(w)
    return tuple(first_returns), counts


def brute_fiber_sums(d, n_max, identity, img, mul, target=None,
                     sup_sum=None):
    """a_n = sum over reduced words of length n with image == target of
    exp(S_w f), n = 1..n_max. sup_sum(word) defaults to 0 (counting)."""
    if target is None:
        target = identity
    if sup_sum is None:
        counts = _walk_summary(d, n_max, identity, img, mul)[1]
        return [float(per_n.get(target, 0)) for per_n in counts]
    out = [0.0] * n_max
    for w, g, _ in _prefix_walk(d, n_max, identity, img, mul):
        if g == target:
            out[len(w) - 1] += math.exp(sup_sum(w))
    return out


def brute_first_returns(d, L, identity, img, mul):
    """Words of length <= L with image id and no proper nonempty prefix of
    image id, in lexicographic order (by length, then letters)."""
    found = _walk_summary(d, L, identity, img, mul)[0]
    return sorted(found, key=lambda w: (len(w), w))


def brute_period(d, n_search, identity, img, mul):
    """gcd of lengths n <= n_search admitting a cyclically admissible length-n
    word with image id. Returns (gcd or None, sorted lengths found)."""
    lengths = []
    for n in range(1, n_search + 1):
        for w in brute_words(d, n):
            if w[0] == inv(w[-1]):
                continue
            if eval_word(w, identity, img, mul) == identity:
                lengths.append(n)
                break
    g = 0
    for n in lengths:
        g = math.gcd(g, n)
    return (g if lengths else None), lengths


def brute_ball(R, identity, img, mul, letters):
    """All group elements reachable from id by products of <= R letter
    images (BFS)."""
    seen = {identity}
    frontier = [identity]
    for _ in range(R):
        nxt = []
        for e in frontier:
            for letter in letters:
                h = mul(e, img(letter))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def brute_sup_sum(d, depth, table, word):
    """S_w f for a depth-k table {window tuple: value} by enumerating all
    admissible completions of length depth-1 and taking the max total."""
    n = len(word)
    if n == 0:
        return 0.0
    if depth <= 1:
        return sum(table[(l,)] for l in word)
    best = -math.inf
    # completions of length depth-1 (admissible after word's last letter)
    def rec(tail, j):
        nonlocal best
        if j == depth - 1:
            full = word + tail
            total = sum(table[full[i:i + depth]] for i in range(n))
            best = max(best, total)
            return
        last = (word + tail)[-1]
        for l in range(2 * d):
            if l != inv(last):
                rec(tail + (l,), j + 1)
    rec((), 0)
    return best


def birkhoff_sup_sum(pot, word):
    """S_w f of a library Potential by brute_sup_sum on its window table.
    Empty word gives 0."""
    table = {w: pot.value(w) for w in brute_words(pot.d, pot.depth)}
    return brute_sup_sum(pot.d, pot.depth, table, tuple(word))


def distortion_constant(pot):
    """(k-1) (max f - min f): bounds the gap between the sup-sum and any
    single completion's sum, uniformly over words."""
    return (pot.depth - 1) * (pot.max - float(pot.values.min()))


def partition_sum_matrix(pot, n):
    """Z_n = sum over reduced words of length n of exp(S_w f), by powers of
    a dense transfer matrix over the depth-k windows built here from
    brute_words: the matrix accumulates the interior windows, and each last
    window's trailing completion (its brute_sup_sum less the window's own
    value) is added at readout."""
    d, k = pot.d, pot.depth
    if n < k:
        raise ValueError(f"need n >= window size {k}, got {n}")
    windows = list(brute_words(d, k))
    index = {w: i for i, w in enumerate(windows)}
    table = {w: pot.value(w) for w in windows}
    M = np.zeros((len(windows), len(windows)))
    for u in brute_words(d, k + 1):
        M[index[u[:-1]], index[u[1:]]] = math.exp(table[u[1:]])
    vec = np.exp([table[w] for w in windows])
    for _ in range(n - k):
        vec = M.T @ vec
    ends = np.exp([brute_sup_sum(d, k, table, w) - table[w]
                   for w in windows])
    return float(vec @ ends)


def save_potential_csv(pot, path):
    """Write a library Potential in the potential CSV format: header
    w1,...,wk,value, one row per admissible window, each value as its
    repr, so it reads back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow([f"w{i + 1}" for i in range(pot.depth)] + ["value"])
        for w in brute_words(pot.d, pot.depth):
            wr.writerow(list(w) + [repr(pot.value(w))])


@functools.cache
def reduced_word_counts(d, n_max):
    """Per length n = 1..n_max, a dict (last letter, letter-count vector)
    -> number of reduced words of length n that end in that letter and use
    letter l exactly vector[l] times. Exact integers, built by appending
    one letter at a time; tests check it against brute_words."""
    layer = {}
    for l in range(2 * d):
        vec = [0] * (2 * d)
        vec[l] = 1
        layer[(l, tuple(vec))] = 1
    out = [layer]
    for _ in range(n_max - 1):
        nxt = {}
        for (last, vec), c in layer.items():
            for l in range(2 * d):
                if l != inv(last):
                    key = (l, vec[:l] + (vec[l] + 1,) + vec[l + 1:])
                    nxt[key] = nxt.get(key, 0) + c
        layer = nxt
        out.append(layer)
    return out


@functools.cache
def _sum_histograms(d, n_max, psi_letter, zeta_letter):
    """Per length n = 1..n_max, the sorted (S psi, S zeta) pairs of all
    reduced words with their counts. For depth-1 potentials a word's sums
    depend only on its letter counts, so they are folded from
    reduced_word_counts instead of walking every word. Independent of
    beta, so one table serves every beta asked of the same potentials."""
    per_n = []
    for layer in reduced_word_counts(d, n_max):
        acc = {}
        for (_, vec), c in layer.items():
            sp = sum(k * v for k, v in zip(vec, psi_letter))
            sz = sum(k * v for k, v in zip(vec, zeta_letter))
            key = (round(sp, 12), round(sz, 12))
            acc[key] = acc.get(key, 0) + c
        per_n.append(sorted(acc.items()))
    return per_n


def full_series_exponent(d, n_max, psi_letter, zeta_letter, beta,
                         u_lo=-8.0, u_hi=8.0, tol=1e-6):
    """Critical exponent oracle for the full shift with depth-1 psi/zeta:
    the u where the tail growth rate of Z_n(u) = sum_w exp(beta S psi + u
    S zeta) crosses zero. Uses exact per-word sums (depth 1: no boundary
    terms), slope over the last half of 1..n_max.

    psi_letter/zeta_letter: sequences of per-letter values, length 2d.
    """
    per_n = _sum_histograms(d, n_max, tuple(psi_letter), tuple(zeta_letter))

    def tail_slope(u):
        logs = []
        for n, acc in enumerate(per_n, start=1):
            m = max(beta * sp + u * sz for (sp, sz), _ in acc)
            s = sum(c * math.exp(beta * sp + u * sz - m) for (sp, sz), c in acc)
            logs.append(m + math.log(s))
        k0 = len(logs) // 2
        xs = list(range(k0 + 1, len(logs) + 1))
        ys = logs[k0:]
        xm = sum(xs) / len(xs)
        ym = sum(ys) / len(ys)
        num = sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
        den = sum((x - xm) ** 2 for x in xs)
        return num / den

    lo, hi = u_lo, u_hi
    slo, shi = tail_slope(lo), tail_slope(hi)
    if not (slo > 0 > shi):
        raise ValueError("oracle bracket failure: slopes %g %g" % (slo, shi))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if tail_slope(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_root(pressure, lo, hi, u_tol=1e-13):
    """Root of a decreasing function u -> pressure(u) on [lo, hi] by plain
    bisection to width u_tol: the slow reference for the library's root
    finder. pressure(lo) must be positive and pressure(hi) negative."""
    if not pressure(lo) > 0 > pressure(hi):
        raise ValueError("oracle bracket failure on [%g, %g]" % (lo, hi))
    while hi - lo > u_tol:
        mid = 0.5 * (lo + hi)
        if pressure(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exact_least_squares(columns, ys):
    """Least squares of ys on the given columns in exact rational
    arithmetic: the floats are read as the rationals they are, the normal
    equations G c = X^T y are solved by Gauss-Jordan elimination on [G | X^T
    y | I], and the result is (coefficients, diagonal of G^-1), as
    Fractions. The reference for the library's tail fit and its sigmas."""
    X = [[Fraction(float(x)) for x in col] for col in columns]
    y = [Fraction(float(v)) for v in ys]
    k = len(X)
    rows = [[sum(a * b for a, b in zip(X[i], X[j])) for j in range(k)]
            + [sum(a * b for a, b in zip(X[i], y))]
            + [Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for c in range(k):
        pivot = next(r for r in range(c, k) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(k):
            if r != c and rows[r][c] != 0:
                rows[r] = [a - rows[r][c] * b
                           for a, b in zip(rows[r], rows[c])]
    return ([row[k] for row in rows],
            [rows[i][k + 1 + i] for i in range(k)])


def lifted_delta(d, identity, img, mul, zeta_letter):
    """Critical exponent of a finite quotient for a depth-1 zeta (per-letter
    values, all negative): the root u of log rho(M_u) = 0, where M_u is the
    group extension of the letter graph, dense over (last letter, image)
    pairs, with weight exp(u zeta(b)) on every step (a, g) -> (b, g img(b)),
    b != a^-1. Elements are found by closing {identity} under the letter
    images; rho comes from numpy's eigvals, the root from bisect_root."""
    elements, index = [identity], {identity: 0}
    for g in elements:                  # grows while it is walked
        for l in range(2 * d):
            h = mul(g, img(l))
            if h not in index:
                index[h] = len(elements)
                elements.append(h)
    order = len(elements)
    M = np.zeros((2 * d * order, 2 * d * order))
    for a in range(2 * d):
        for g in elements:
            for b in range(2 * d):
                if b != inv(a):
                    M[a * order + index[g],
                      b * order + index[mul(g, img(b))]] = 1.0
    weights = np.repeat(np.asarray(zeta_letter, dtype=float), order)

    def pressure(u):
        return math.log(max(abs(np.linalg.eigvals(M * np.exp(u * weights)))))
    return bisect_root(pressure, 0.0, 16.0)


def _free_group_radius(c, k):
    """min over t >= 0 of sum_i sqrt(t^2 + c_i) - (k - 1) t: the spectral
    radius of the nearest-neighbour walk on the free group F_k whose i-th
    generator steps carry weights q, q' with c_i = 4 q q' (Akemann-Ostrand
    1976; Woess 2000). The minimand is convex; its derivative is bisected."""
    if k <= 1:
        return sum(math.sqrt(ci) for ci in c)
    lo, hi = 0.0, k * math.sqrt(max(c))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sum(mid / math.sqrt(mid * mid + ci) for ci in c) > k - 1:
            hi = mid
        else:
            lo = mid
    t = 0.5 * (lo + hi)
    return sum(math.sqrt(t * t + ci) for ci in c) - (k - 1) * t


def freekill_pressure(letter_values, killed):
    """lambda_N(f) on the quotient of F_d that kills the 0-based generators
    ``killed``, for a depth-1 f (one value per letter), by the weighted
    cogrowth formula (Grigorchuk 1980; Cohen 1982, with letter weights).

    With x_a = e^f(a), lambda_N = -log s*, s* the radius of convergence of
    sum over reduced g in N of s^|g| prod x. A walk on the tree F_d with
    step weights q has first-passage weights F_a = q_a + F_a sum_{b != a}
    q_b F_{b^-1}, and its Green function summed over N is that of its image
    walk on Q = F_d / N, which converges while the image's spectral radius
    is below 1. Asking for F = s x makes the tree equations linear in q,
    q + s^2 A q = s x; on Q, the free group on the survivors, killed steps
    are a lazy weight. So s* is where rho_Q(q(s)) reaches 1, found by
    bisection in s. A point counts as below s* only when q(s) > 0, F = s x
    is the least tree solution (the tree system's Jacobian has spectral
    radius below 1) and rho_Q < 1; without these tests the bisection can
    stop at a spurious root. ValueError when min q / max q at the root is
    below 1e-8: there the two sides of the formula nearly cancel, and two
    variants of the route disagreed by 8e-10."""
    f = np.asarray(letter_values, dtype=float)
    top = f.max()
    x = np.exp(f - top)                 # lambda_N(f + c) = lambda_N(f) + c
    n = len(x)
    d = n // 2
    flip = np.arange(n) ^ 1
    A = x[:, None] * x[flip][None, :] * (1 - np.eye(n))
    not_back = np.arange(n)[None, :] != flip[:, None]
    killed = set(killed)
    survivors = [k for k in range(d) if k not in killed]

    def below(s):
        q = np.linalg.solve(np.eye(n) + s * s * A, s * x)
        if not (q > 0).all():
            return False, q
        F = s * x
        J = F[:, None] * q[flip][None, :] * not_back
        J[np.arange(n), np.arange(n)] += q @ F[flip] - q * F[flip]
        if max(abs(np.linalg.eigvals(J))) >= 1:
            return False, q
        L = sum(q[a] for a in range(n) if a // 2 in killed)
        rho = L + _free_group_radius(
            [4 * q[2 * k] * q[2 * k + 1] for k in survivors], len(survivors))
        return rho < 1, q

    lo = 0.5 / (2 * d - 1)              # lambda_N <= P(f) <= log(2d - 1)
    if not below(lo)[0]:
        raise ValueError("oracle: no start below the root")
    hi = 2 * lo
    while below(hi)[0]:
        hi *= 2
        if hi > 1e300:
            raise ValueError("oracle: no point above the root")
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:                # down to adjacent floats
        if below(mid)[0]:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    q = below(lo)[1]
    if q.min() < 1e-8 * q.max():
        raise ValueError(f"oracle: ill-conditioned, min q / max q = "
                         f"{q.min() / q.max():.3g}")
    return top - math.log(mid)


def exact_rational_count_check(d, n):
    """|Sigma^n| as an exact integer via Fraction arithmetic (overkill on
    purpose: independent of brute_count's formula)."""
    if n == 0:
        return 1
    total = Fraction(0)
    counts = {l: Fraction(1) for l in range(2 * d)}
    for _ in range(n - 1):
        nxt = {}
        for l in range(2 * d):
            nxt[l] = sum(counts[m] for m in range(2 * d) if l != inv(m))
        counts = nxt
    total = sum(counts.values())
    assert total.denominator == 1
    return int(total)
