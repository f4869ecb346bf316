"""Free Lie algebra over the rationals in the Lyndon basis.

Words over the alphabet 1..n are tuples of ints, ordered by 1 < 2 < ... < n
and compared lexicographically.  A Lyndon word is strictly smaller than all
of its proper rotations; the standard bracketings of Lyndon words of length
m form a basis of the degree-m component.  Tensors of homogeneous degree m
are plain dicts mapping length-m words to exact coefficients of any one
numeric type (the package passes ints), which keeps this module free of
dependencies; the structured TensorVector wrapper lives in the linear
algebra layer.

A Lie element is held in Lyndon coordinates, a plain dict mapping Lyndon
words to their coefficients; these are the labels MkSpace vectors carry,
so there is no separate bracket type.  Brackets are taken on tensors
(tensor_bracket) and converted once, by lie_from_tensor_coords.  The
tensor of a standard bracketing brackets the cached tensors of its standard
factors; tensor_concat is the one sparse product, truncated by degree for
magnus.TruncatedSeries.

Conversion from a Lie tensor back to Lyndon coordinates eliminates leading
terms in lexicographic order: the expansion of the standard bracketing of a
Lyndon word w is w plus lexicographically larger rearrangements, so the
elimination is an exact triangular solve, and it is also the Lie test: the
least word of a nonzero Lie element is Lyndon.
"""

from __future__ import annotations

import functools


def is_lyndon(w):
    if not w:
        return False
    return all(w < w[r:] + w[:r] for r in range(1, len(w)))


def lyndon_words(n, m):
    """All Lyndon words of length exactly m over 1..n, by Duval's algorithm;
    none for n = 0, since there are no words over an empty alphabet."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    out = []
    w = [1] if n else []
    while w:
        if len(w) == m:
            out.append(tuple(w))
        # extend periodically to length m, then increment the tail
        w = [w[i % len(w)] for i in range(m)]
        while w and w[-1] == n:
            w.pop()
        if w:
            w[-1] += 1
    return out


def standard_factorization(w):
    """Split a Lyndon word as uv with v its longest proper Lyndon suffix."""
    if len(w) < 2:
        raise ValueError("cannot factor a single letter")
    for start in range(1, len(w)):
        if is_lyndon(w[start:]):
            return w[:start], w[start:]
    raise AssertionError("unreachable for Lyndon input")


# -- tensor-level helpers (dicts word -> coefficient) -----------------------

def tensor_add_into(out, b, c):
    """out += c*b in place, dropping the terms that cancel; returns out."""
    for k, v in b.items():
        s = out.get(k, 0) + c * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def tensor_add(a, b):
    return tensor_add_into(dict(a), b, 1)


def tensor_scale(a, c):
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


def tensor_concat(a, b, max_degree=None):
    """The product of a and b, words concatenated; given max_degree, the
    words longer than it are left out (the product truncated above it)."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if max_degree is not None and len(ka) + len(kb) > max_degree:
                continue
            k = ka + kb
            s = out.get(k, 0) + va * vb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def tensor_bracket(a, b):
    return tensor_add_into(tensor_concat(a, b), tensor_concat(b, a), -1)


@functools.cache
def lyndon_word_tensor(w):
    """Tensor expansion of the standard bracketing P_w of the Lyndon word w:
    w itself for a letter, else [P_u, P_v] for the standard factorization
    w = uv.  The result is cached and shared, so callers must not mutate it."""
    if len(w) == 1:
        return {w: 1}
    u, v = standard_factorization(w)
    return tensor_bracket(lyndon_word_tensor(u), lyndon_word_tensor(v))


def dynkin_map(t):
    """Left-bracketing map: w1..wm maps to [[[w1,w2],...],wm] as a tensor."""
    out = {}
    for mono, c in t.items():
        acc = {(mono[0],): 1}
        for letter in mono[1:]:
            acc = tensor_bracket(acc, {(letter,): 1})
        tensor_add_into(out, acc, c)
    return out


def tensor_degree(t):
    degrees = {len(k) for k in t}
    if len(degrees) > 1:
        raise ValueError("tensor is not homogeneous")
    return degrees.pop() if degrees else None


def dynkin_defect(t):
    """dynkin(t) - m*t; zero exactly on Lie elements (Dynkin criterion)."""
    m = tensor_degree(t)
    if m is None:
        return {}
    return tensor_add_into(dynkin_map(t), t, -m)


class NotLieTensorError(ValueError):
    def __init__(self, defect):
        self.defect = defect
        super().__init__("tensor is not a Lie element (Dynkin defect attached)")


def lie_from_tensor_coords(t):
    """Lyndon coordinates of a homogeneous Lie tensor dict; the zero tensor
    gives {} and zero entries are ignored.

    Each step subtracts c P_w for the least word w of the rest, P_w the
    standard bracketing of w: P_w is w plus larger words, so the least
    word rises at every step and the loop ends.  A Lie element is a sum
    of such P_w, so its least word is Lyndon; the loop raises
    NotLieTensorError, with the Dynkin defect attached, exactly when t is
    not a Lie element.
    """
    rest = {w: c for w, c in t.items() if c}
    coords = {}
    while rest:
        w = min(rest)
        if not is_lyndon(w):
            raise NotLieTensorError(dynkin_defect(t))
        c = rest[w]
        coords[w] = c
        tensor_add_into(rest, lyndon_word_tensor(w), -c)
    return coords


def left_normed_of_generators(indices):
    """Lyndon coordinates of [e_i1, e_i2, ..., e_im] = [[[e_i1, e_i2], ...], e_im],
    the Dynkin map's image of the monomial i1..im."""
    indices = tuple(indices)
    if not indices:
        raise ValueError("need at least one index")
    return lie_from_tensor_coords(dynkin_map({indices: 1}))
