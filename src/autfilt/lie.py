"""Free Lie algebra over the rationals in the Lyndon basis.

Words over the alphabet 1..n are tuples of ints, ordered by 1 < 2 < ... < n
and compared lexicographically.  A Lyndon word is strictly smaller than all
of its proper rotations; the standard bracketings of Lyndon words of length
m form a basis of the degree-m component.  Tensors of homogeneous degree m
are plain dicts mapping length-m words to exact coefficients (ints for
integral input, Fractions only when a caller supplies them), which keeps
this module free of dependencies; the structured TensorVector wrapper lives
in the linear algebra layer.

Conversion from a Lie tensor back to Lyndon coordinates eliminates leading
terms in lexicographic order: the expansion of the standard bracketing of a
Lyndon word w is w plus lexicographically larger rearrangements, so the
elimination is an exact triangular solve.
"""

from __future__ import annotations


def _mobius(d):
    if d == 1:
        return 1
    m, k, p = d, 0, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            k += 1
        else:
            p += 1
    if m > 1:
        k += 1
    return -1 if k % 2 else 1


def witt_dimension(n, m):
    """Dimension of the degree-m component: (1/m) sum_{d|m} mu(d) n^{m/d}."""
    total = sum(_mobius(d) * n ** (m // d) for d in range(1, m + 1) if m % d == 0)
    assert total % m == 0
    return total // m


def is_lyndon(w):
    if not w:
        return False
    return all(w < w[r:] + w[:r] for r in range(1, len(w)))


def lyndon_words(n, m):
    """All Lyndon words of length exactly m over 1..n, by Duval's algorithm."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    out = []
    w = [1]
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


def lyndon_bracketing(w):
    """Nested-pair bracketing of a Lyndon word; leaves are letters."""
    if len(w) == 1:
        return w[0]
    u, v = standard_factorization(w)
    return (lyndon_bracketing(u), lyndon_bracketing(v))


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


def tensor_concat(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            s = out.get(k, 0) + va * vb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def tensor_bracket(a, b):
    return tensor_add_into(tensor_concat(a, b), tensor_concat(b, a), -1)


_EXPANSION_CACHE = {}


def bracketing_tensor(b):
    """Expand a nested bracketing into a tensor dict."""
    if isinstance(b, int):
        return {(b,): 1}
    left = bracketing_tensor(b[0])
    right = bracketing_tensor(b[1])
    return tensor_bracket(left, right)


def lyndon_word_tensor(w):
    if w not in _EXPANSION_CACHE:
        _EXPANSION_CACHE[w] = bracketing_tensor(lyndon_bracketing(w))
    return _EXPANSION_CACHE[w]


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


def is_lie_tensor(t):
    return not dynkin_defect(t)


class NotLieElementError(ValueError):
    def __init__(self, defect):
        self.defect = defect
        super().__init__("tensor fails the Dynkin criterion (defect attached)")


def _coords_from_lie_tensor(t):
    """Triangular elimination of Lyndon leading terms; assumes t is Lie."""
    rest = dict(t)
    coords = {}
    while rest:
        w = min(rest)
        if not is_lyndon(w):
            raise NotLieElementError(dynkin_defect(t))
        c = rest[w]
        coords[w] = c
        tensor_add_into(rest, lyndon_word_tensor(w), -c)
    return coords


class LieElement:
    """Element of the degree-m component, stored in Lyndon coordinates."""

    __slots__ = ("rank", "degree", "coords")

    def __init__(self, rank, degree, coords=()):
        coords = dict(coords)
        for w, c in list(coords.items()):
            if len(w) != degree or not is_lyndon(w):
                raise ValueError(f"{w} is not a Lyndon word of length {degree}")
            if any(not 1 <= a <= rank for a in w):
                raise ValueError("letter out of range")
            if not c:
                del coords[w]
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("LieElement is immutable")

    @classmethod
    def generator(cls, rank, i):
        return cls(rank, 1, {(i,): 1})

    @classmethod
    def zero(cls, rank, degree):
        return cls(rank, degree)

    def __bool__(self):
        return bool(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, LieElement)
            and (self.rank, self.degree) == (other.rank, other.degree)
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.rank, self.degree, frozenset(self.coords.items())))

    def __add__(self, other):
        if (self.rank, self.degree) != (other.rank, other.degree):
            raise ValueError("rank or degree mismatch")
        return LieElement(self.rank, self.degree, tensor_add(self.coords, other.coords))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return LieElement(self.rank, self.degree, tensor_scale(self.coords, c))

    def tensor_coords(self):
        out = {}
        for w, c in self.coords.items():
            tensor_add_into(out, lyndon_word_tensor(w), c)
        return out

    def bracket(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        t = tensor_bracket(self.tensor_coords(), other.tensor_coords())
        return LieElement(
            self.rank, self.degree + other.degree, _coords_from_lie_tensor(t)
        )

    def to_tensor(self):
        from . import exactlin

        return exactlin.TensorVector(
            exactlin.TensorSpace(self.rank, self.degree), self.tensor_coords()
        )

    def __repr__(self):
        terms = ", ".join(
            f"{word_to_string(w)}: {c}" for w, c in sorted(self.coords.items())
        )
        return f"LieElement(n={self.rank}, m={self.degree}, {{{terms}}})"


def bracket(u, v):
    return u.bracket(v)


def left_normed(elements):
    """[v1, v2, ..., vk] = [[[v1,v2],...],vk]; a single element is itself."""
    elements = list(elements)
    if not elements:
        raise ValueError("need at least one element")
    acc = elements[0]
    for v in elements[1:]:
        acc = acc.bracket(v)
    return acc


def left_normed_of_generators(rank, indices):
    return left_normed([LieElement.generator(rank, i) for i in indices])


def lie_from_tensor_coords(t, rank, degree=None):
    """Lyndon coordinates of a Lie tensor dict; Dynkin-checked."""
    if degree is None:
        degree = tensor_degree(t)
        if degree is None:
            raise ValueError("cannot infer the degree of the zero tensor")
    defect = dynkin_defect(t) if t else {}
    if defect:
        raise NotLieElementError(defect)
    return LieElement(rank, degree, _coords_from_lie_tensor(t))


def is_lie_element(t):
    """Dynkin test; accepts a TensorVector or a raw homogeneous tensor dict."""
    coords = t.coords if hasattr(t, "coords") else t
    return is_lie_tensor(dict(coords))


def word_to_string(w):
    return ".".join(str(a) for a in w)
