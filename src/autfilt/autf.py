"""Words and automorphisms of the free group F_n.

Letters are pairs (i, s) with i in 1..n and s = +1 or -1.  Words are
stored freely reduced at all times; equality of words is free equality.
Automorphisms carry an explicit inverse witness, so composition,
inversion and conjugation are cheap and never require a search.

Conventions used throughout the package:

* composition acts on the left: (phi * psi)(w) = phi(psi(w)),
* conjugation is phi ** g = g^-1 * phi * g,
* the group commutator is [g, h] = g^-1 * h^-1 * g * h.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction


class _LetterInverses(dict):
    """Letter -> inverse letter, each entry made on first use: at most two
    per index of the largest rank seen, and the inverse letters of every
    word share these tuples."""

    def __missing__(self, letter):
        i, s = letter
        inverse = self[letter] = (i, -s)
        return inverse


_INVERSE_LETTER = _LetterInverses()


def _inverse_letters(letters):
    return tuple(map(_INVERSE_LETTER.__getitem__, reversed(letters)))


class Record:
    """Base of the package's plain records.

    A subclass names its fields in __slots__ and the defaults of its
    trailing fields in _defaults, each one immutable value shared by every
    record that omits the field.  A record is built by position or by
    keyword, equals a record of its own class with equal fields, and is
    unhashable, since its fields may be reassigned; FrozenRecord makes it
    immutable and hashable.
    """

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields or field in values:
                raise TypeError(f"{name} got an unknown or repeated field {field!r}")
            values[field] = value
        for field in fields:
            if field not in values:
                if field not in self._defaults:
                    raise TypeError(f"{name} is missing the field {field!r}")
                values[field] = self._defaults[field]
            object.__setattr__(self, field, values[field])

    def _values(self):
        return tuple(getattr(self, f) for f in self.__slots__)

    def as_dict(self):
        """Field name -> value in field order, as a new dict."""
        return dict(zip(self.__slots__, self._values()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({shown})"


class FrozenRecord(Record):
    """A Record whose fields are set once, by its constructor; its hash is
    the hash of the tuple of its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return hash(self._values())


class FreeWord:
    """A freely reduced word in F_n, immutable after construction.

    The constructor is the checking one, for outside input: each letter
    must be a pair of an int index in 1..rank and an int sign +1 or -1
    (bool is not accepted as int), or it raises ValueError; the checked
    letters, one piece each, are then reduced by `_reduced`, the one free
    reduction.  Words built from words that are already valid (products,
    inverses, substitution of images, single moves) call `_reduced`
    directly, which only reduces.
    """

    __slots__ = ("rank", "letters")

    def __init__(self, rank, letters=()):
        checked = []
        for letter in letters:
            try:
                i, s = letter
            except (TypeError, ValueError):
                raise ValueError(
                    f"letter must be a pair (index, sign), got {letter!r}"
                ) from None
            if not (is_json_int(i) and 1 <= i <= rank):
                raise ValueError(f"letter index {i!r} is not an int in 1..{rank}")
            if not (is_json_int(s) and s in (1, -1)):
                raise ValueError(f"letter sign must be the int +1 or -1, got {s!r}")
            checked.append(((i, s),))
        FreeWord.rank.__set__(self, rank)
        FreeWord.letters.__set__(self, FreeWord._reduced(rank, checked).letters)

    @classmethod
    def _reduced(cls, rank, pieces):
        """Trusted constructor: the product of the reduced letter tuples
        `pieces`, taken from valid words of this rank, reduced only where
        consecutive pieces meet."""
        out = []
        inverse = _INVERSE_LETTER
        for piece in pieces:
            if out and piece and out[-1] == inverse[piece[0]]:
                k, top = 1, min(len(out), len(piece))
                while k < top and out[-1 - k] == inverse[piece[k]]:
                    k += 1
                del out[-k:]
                piece = piece[k:]
            out.extend(piece)
        w = object.__new__(cls)
        FreeWord.rank.__set__(w, rank)
        FreeWord.letters.__set__(w, tuple(out))
        return w

    def __setattr__(self, name, value):
        raise AttributeError("FreeWord is immutable")

    @classmethod
    def generator(cls, rank, i, sign=1):
        return cls(rank, ((i, sign),))

    @classmethod
    def identity(cls, rank):
        return cls(rank)

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return FreeWord._reduced(self.rank, (self.letters, other.letters))

    def inverse(self):
        return FreeWord._reduced(self.rank, (_inverse_letters(self.letters),))

    def __eq__(self, other):
        return (
            isinstance(other, FreeWord)
            and self.rank == other.rank
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.rank, self.letters))

    def __repr__(self):
        return f"FreeWord({self.rank}, {self.tokens()!r})"

    def tokens(self):
        return " ".join(f"x{i}" if s == 1 else f"x{i}^-1" for i, s in self.letters)


def _apply_images(images, w, inverted=None):
    """Substitute images[i-1] for x_i in the word w.

    inverted maps an index i to the inverse letters of images[i-1]; each
    is built on the first x_i^-1 that needs it, and a caller substituting
    into several words shares one dict so an image is inverted once."""
    letters = w.letters
    if len(letters) == 1 and letters[0][1] == 1:
        return images[letters[0][0] - 1]  # words are immutable: share the image
    if inverted is None:
        inverted = {}
    pieces = []
    for i, s in letters:
        if s == 1:
            pieces.append(images[i - 1].letters)
        else:
            piece = inverted.get(i)
            if piece is None:
                piece = inverted[i] = _inverse_letters(images[i - 1].letters)
            pieces.append(piece)
    rank = images[0].rank if images else w.rank
    return FreeWord._reduced(rank, pieces)


class FreeAutomorphism:
    """An automorphism of F_n with a mandatory inverse witness.

    The constructor verifies that the witness really inverts the map on
    every basis element, so values of this type are automorphisms by
    construction, not merely endomorphisms.  The witness is fixed when a
    value is made, but a composite computes it only when it is first
    read: until then it keeps its two factors' witnesses, and the first
    read of inverse_images substitutes the inner one into the outer one.
    """

    __slots__ = ("rank", "images", "_inverse_images", "_inverse_factors")

    def __init__(self, rank, images, inverse_images, check=True):
        images = tuple(images)
        inverse_images = tuple(inverse_images)
        if len(images) != rank or len(inverse_images) != rank:
            raise ValueError("need exactly one image per basis element")
        for w in images + inverse_images:
            if w.rank != rank:
                raise ValueError("rank mismatch among images")
        if check:
            for i in range(1, rank + 1):
                xi = FreeWord.generator(rank, i)
                if _apply_images(images, inverse_images[i - 1]) != xi:
                    raise ValueError("inverse witness fails on x%d (forward)" % i)
                if _apply_images(inverse_images, images[i - 1]) != xi:
                    raise ValueError("inverse witness fails on x%d (backward)" % i)
        self._fill(rank, images, inverse_images, None)

    def _fill(self, rank, images, inverse_images, inverse_factors):
        cls = FreeAutomorphism
        cls.rank.__set__(self, rank)
        cls.images.__set__(self, images)
        cls._inverse_images.__set__(self, inverse_images)
        cls._inverse_factors.__set__(self, inverse_factors)

    def __setattr__(self, name, value):
        raise AttributeError("FreeAutomorphism is immutable")

    @property
    def inverse_images(self):
        """The inverse witness: images of the basis under the inverse."""
        factors = self._inverse_factors
        if factors is not None:
            outer, inner = factors
            inverted = {}
            FreeAutomorphism._inverse_images.__set__(
                self, tuple(_apply_images(inner, w, inverted) for w in outer)
            )
            FreeAutomorphism._inverse_factors.__set__(self, None)
        return self._inverse_images

    def apply(self, w):
        if w.rank != self.rank:
            raise ValueError("rank mismatch")
        return _apply_images(self.images, w)

    __call__ = apply

    def compose(self, other):
        """self after other: (self.compose(other))(w) = self(other(w))."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        inverted = {}
        images = tuple(_apply_images(self.images, w, inverted) for w in other.images)
        # (self other)^-1 = other^-1 self^-1; reading both witnesses now
        # keeps a later first read one substitution deep
        factors = (self.inverse_images, other.inverse_images)
        composite = object.__new__(FreeAutomorphism)
        composite._fill(self.rank, images, None, factors)
        return composite

    __mul__ = compose

    def inverse(self):
        return FreeAutomorphism(self.rank, self.inverse_images, self.images, check=False)

    def conjugate(self, g):
        """self ** g = g^-1 * self * g (apply g first)."""
        return g.inverse().compose(self).compose(g)

    __pow__ = None  # use .conjugate to avoid sign confusion with integer powers

    def __eq__(self, other):
        return (
            isinstance(other, FreeAutomorphism)
            and self.rank == other.rank
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.rank, self.images))

    def __repr__(self):
        return f"FreeAutomorphism({format_automorphism(self)!r})"


@functools.cache
def identity_automorphism(n):
    """The identity of F_n; one shared value per rank (it is immutable)."""
    gens = tuple(FreeWord._reduced(n, (((i, 1),),)) for i in range(1, n + 1))
    return FreeAutomorphism(n, gens, gens, check=False)


def group_commutator(g, h):
    """[g, h] = g^-1 h^-1 g h, for two words or two automorphisms."""
    return g.inverse() * h.inverse() * g * h


def left_normed_group_commutator(elements):
    """[g1, g2, ..., gk] = [[[g1, g2], g3], ..., gk], for words or automorphisms."""
    elements = list(elements)
    if not elements:
        raise ValueError("need at least one element")
    acc = elements[0]
    for g in elements[1:]:
        acc = group_commutator(acc, g)
    return acc


# ---------------------------------------------------------------------------
# named generator families
# ---------------------------------------------------------------------------

def _check_indices(n, *indices):
    for i in indices:
        if not (is_json_int(i) and 1 <= i <= n):
            raise ValueError(f"index {i!r} is not an int in 1..{n}")


def _single_move(n, i, u, v, check=False):
    """x_i -> u x_i v with inverse x_i -> u^-1 x_i v^-1, every other
    generator fixed; i is a valid index and u, v are the reduced letter
    tuples of valid words free of x_i, so nothing cancels."""
    images = list(identity_automorphism(n).images)
    inv_images = list(images)
    xi = ((i, 1),)
    images[i - 1] = FreeWord._reduced(n, (u + xi + v,))
    inv_images[i - 1] = FreeWord._reduced(
        n, (_inverse_letters(u) + xi + _inverse_letters(v),)
    )
    return FreeAutomorphism(n, images, inv_images, check=check)


def nielsen_letter(letter, n):
    """The one check on a Nielsen letter of rank n: a tuple (side, i, j, exp)
    of side "L" or "R", int indices i != j in 1..n and the int exp +1 or -1
    (bool is not int), or else a ValueError naming the letter."""
    try:
        side, i, j, exp = letter
    except (TypeError, ValueError):
        raise ValueError(f"bad Nielsen letter {letter!r}: not four fields") from None
    if not (
        side in ("L", "R")
        and all(is_json_int(a) and 1 <= a <= n for a in (i, j))
        and i != j
        and is_json_int(exp)
        and exp in (1, -1)
    ):
        raise ValueError(f"bad Nielsen letter {letter!r} in rank {n}")
    return side, i, j, exp


def make_nielsen(side, i, j, exponent, n):
    """L_ij sends x_i to x_j x_i, R_ij sends x_i to x_i x_j.

    exponent -1 returns the inverse transformation.
    """
    side, i, j, exponent = nielsen_letter((side, i, j, exponent), n)
    xj = ((j, exponent),)
    return _single_move(n, i, xj, ()) if side == "L" else _single_move(n, i, (), xj)


def make_magnus_C(i, j, n):
    """C_ij sends x_i to x_j^-1 x_i x_j and fixes the other basis elements."""
    if len({i, j}) != 2:
        raise ValueError("C_ij needs distinct indices")
    _check_indices(n, i, j)
    return _single_move(n, i, ((j, -1),), ((j, 1),))


def make_magnus_M(i, j, k, n):
    """M_ijk sends x_i to x_i [x_j, x_k] and fixes the other basis elements."""
    if len({i, j, k}) != 3:
        raise ValueError("M_ijk needs distinct indices")
    _check_indices(n, i, j, k)
    return _single_move(n, i, (), ((j, -1), (k, -1), (j, 1), (k, 1)))


def make_T(i, omega, n):
    """x_i maps to x_i times the left-normed commutator of the x_w, w in omega."""
    omega = tuple(omega)
    if i in omega:
        raise ValueError("the moved index may not occur in the commutator tail")
    if len(omega) < 2:
        raise ValueError("need a tail of length at least 2")
    _check_indices(n, i, *omega)
    return _single_move(n, i, (), _tail_commutator(n, omega))


@functools.cache
def _tail_commutator(n, omega):
    """Letters of the left-normed commutator of the x_w, w in omega; the
    indices are checked by the caller, so the generators need no check."""
    gens = [FreeWord._reduced(n, (((w, 1),),)) for w in omega]
    return left_normed_group_commutator(gens).letters


def make_S(mu, i, j, n):
    """Left-normed commutator [M_ij(mu1), C_i(mu2), .., C_i(mu_{k-1}), M_ji(mu_k)].

    mu is a sequence of length k >= 2 avoiding both i and j; for k = 2 the
    middle conjugation factors are absent and the result is
    [M_ij(mu1), M_ji(mu2)].  The indices i and j are explicit parameters;
    callers that report results should record them.
    """
    mu = tuple(mu)
    k = len(mu)
    if k < 2:
        raise ValueError("mu must have length at least 2")
    if k > n - 2:
        raise ValueError("mu too long: need len(mu) <= n - 2")
    if i == j:
        raise ValueError("i and j must be distinct")
    if i in mu or j in mu:
        raise ValueError("i and j may not occur in mu")
    factors = [make_magnus_M(i, j, mu[0], n)]
    for t in range(1, k - 1):
        factors.append(make_magnus_C(i, mu[t], n))
    factors.append(make_magnus_M(j, i, mu[k - 1], n))
    return left_normed_group_commutator(factors)


# ---------------------------------------------------------------------------
# abelianization, support, complexity
# ---------------------------------------------------------------------------

def abelianized_matrix(phi):
    """Integer matrix of the induced map on Z^n; column b is the image of x_b."""
    n = phi.rank
    mat = [[0] * n for _ in range(n)]
    for b in range(1, n + 1):
        for i, s in phi.images[b - 1].letters:
            mat[i - 1][b - 1] += s
    return tuple(tuple(row) for row in mat)


def is_IA(phi):
    n = phi.rank
    return abelianized_matrix(phi) == tuple(
        tuple(1 if a == b else 0 for b in range(n)) for a in range(n)
    )


def minimal_support(phi):
    """Smallest I such that phi moves only generators in I into F_I.

    Equal to (moved indices) together with every index occurring in the
    image of a moved generator; this set is minimal and unique.
    """
    moved = {
        i
        for i in range(1, phi.rank + 1)
        if phi.images[i - 1].letters != ((i, 1),)
    }
    support = set(moved)
    for i in moved:
        support.update(a for a, _ in phi.images[i - 1].letters)
    return frozenset(support)


def complexity(phi):
    return len(minimal_support(phi))


# ---------------------------------------------------------------------------
# Nielsen letter words (used by the subgroup-graph and certificate layers)
# ---------------------------------------------------------------------------

def compose_all(n, autos):
    """The composite a_1 a_2 ... of the automorphisms of F_n in autos, taken
    left to right, so the last acts first; the identity when there are none."""
    autos = iter(autos)
    acc = next(autos, None) or identity_automorphism(n)
    for a in autos:
        acc = acc.compose(a)
    return acc


def eval_nielsen_word(letters, n):
    """Compose a Nielsen word left to right; the last letter acts first."""
    return compose_all(n, (make_nielsen(*nielsen_letter(l, n), n) for l in letters))


def c_nielsen_word(i, j):
    """C_ij written in Nielsen letters: C_ij = R_ij L_ij^-1."""
    return (("R", i, j, 1), ("L", i, j, -1))


def m_nielsen_word(i, j, k):
    """M_ijk written in Nielsen letters: M_ijk = [R_ij, R_ik]."""
    return (("R", i, j, -1), ("R", i, k, -1), ("R", i, j, 1), ("R", i, k, 1))


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

# ASCII digits only: \d and int() would also read other scripts' digits and "1_0"
_TOKEN = re.compile(r"^x([0-9]+)(\^-1)?$")
_RANK = re.compile(r"^rank=([0-9]+)$")

# The largest rank the readers of outside input accept (the text format,
# its inverse lines, certificate elements and assembly specs), checked
# before anything is allocated by it.  The suites use n <= 5 and the
# kernel claim has been run at n = 7.
MAX_RANK = 1000

# The most letters one automorphism text may hold, all images together,
# counted before any token is read.  Parsing took 0.34 s at the bound and
# 6.1 s at 10^6 letters (2-vCPU host, Python 3.11).
MAX_LETTERS = 100_000

# The most letters the inverse-witness check of an automorphism read with
# an inverse text may build: for each letter of an inverse image, the
# length of the image it names, and the same the other way round, counted
# before the check.  The check ran at about 16 million letters a second:
# 0.81 s at 13.5 million and 6.7 s at 113 million; the largest certificate
# element `cert assemble` writes at its letter bound needs 10.0 million
# (2-vCPU host, Python 3.11).
MAX_CHECK_LETTERS = 20_000_000


def format_word(w):
    return w.tokens() if w.letters else "1"


def format_automorphism(phi):
    parts = [f"rank={phi.rank}"]
    for i in range(1, phi.rank + 1):
        parts.append(f"x{i} -> {format_word(phi.images[i - 1])}")
    return "; ".join(parts)


def parse_word(text, rank):
    text = text.strip()
    if text in ("", "1"):
        return FreeWord.identity(rank)
    letters = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad word token {tok!r}")
        letters.append((int(m.group(1)), -1 if m.group(2) else 1))
    return FreeWord(rank, letters)


def _parse_images(text):
    pieces = [p.strip() for p in text.strip().split(";")]
    letters = sum(len(p.partition("->")[2].split()) for p in pieces[1:])
    if letters > MAX_LETTERS:
        raise ValueError(
            f"automorphism text has {letters} letters, over the bound "
            f"MAX_LETTERS = {MAX_LETTERS}"
        )
    m = _RANK.match(pieces[0])
    if not m:
        raise ValueError("automorphism text must start with rank=n")
    rank = int(m.group(1))
    if rank < 1:
        raise ValueError(f"rank must be at least 1, got {pieces[0]!r}")
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} is over the bound MAX_RANK = {MAX_RANK}")
    images = [None] * rank
    for piece in pieces[1:]:
        if not piece:
            raise ValueError(
                "empty piece in automorphism text: a doubled or trailing ';'"
            )
        lhs, arrow, rhs = piece.partition("->")
        if not (arrow and rhs.strip()):
            raise ValueError(f"piece {piece!r} is not of the form xi -> word")
        m = _TOKEN.match(lhs.strip())
        if not m or m.group(2):
            raise ValueError(f"bad left-hand side {lhs!r}")
        i = int(m.group(1))
        if not 1 <= i <= rank:
            raise ValueError(f"left-hand side x{i} out of range 1..{rank}")
        if images[i - 1] is not None:
            raise ValueError(f"x{i} is given more than one image")
        images[i - 1] = parse_word(rhs, rank)
    for i, img in enumerate(images):
        if img is None:
            images[i] = FreeWord.generator(rank, i + 1)
    return rank, tuple(images)


def _check_letters(images, inverse_images):
    """Letters the inverse-witness check substitutes, before any reduction:
    each image into the inverse images and each inverse image into the
    images."""
    return sum(
        len(outer[i - 1].letters)
        for outer, inner in ((images, inverse_images), (inverse_images, images))
        for w in inner
        for i, _ in w.letters
    )


def parse_automorphism(text, inverse_text=None):
    """Parse the `rank=n; x1 -> ...` format, reducing unreduced input.

    Without an inverse the images must move at most one generator, as
    x_i -> u x_i v with u and v free of x_i; the inverse is then
    x_i -> u^-1 x_i v^-1 (this covers the Nielsen, conjugation and
    commutator-multiplier generators and every T).  Anything else needs an
    explicit inverse.  Either way the constructor verifies the inverse.
    """
    rank, images = _parse_images(text)
    if inverse_text is not None:
        inv_rank, inv_images = _parse_images(inverse_text)
        if inv_rank != rank:
            raise ValueError("inverse text has a different rank")
        built = _check_letters(images, inv_images)
        if built > MAX_CHECK_LETTERS:
            raise ValueError(
                f"the inverse-witness check would build {built} letters, over "
                f"the bound MAX_CHECK_LETTERS = {MAX_CHECK_LETTERS}"
            )
        return FreeAutomorphism(rank, images, inv_images)
    moved = [i for i, w in enumerate(images, 1) if w.letters != ((i, 1),)]
    if not moved:
        return FreeAutomorphism(rank, images, images)
    i = moved[0]
    letters = images[i - 1].letters
    at = [p for p, (a, _) in enumerate(letters) if a == i]
    if len(moved) > 1 or len(at) != 1 or letters[at[0]][1] != 1:
        raise ValueError(
            "images are not a single move x_i -> u x_i v with u, v free of "
            "x_i; supply an inverse witness"
        )
    return _single_move(rank, i, letters[: at[0]], letters[at[0] + 1 :], check=True)


# checks shared by the readers of certificate and assembly JSON


def read_json(text, what):
    """The JSON value in text; a ValueError naming what rejects text that
    is not JSON, a key repeated in one object, which json.loads would read
    as its last value, and NaN or Infinity, which are not JSON either."""

    def unique_keys(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"{what} repeats the key {key!r} in one object")
            seen.add(key)
        return dict(pairs)

    def no_constant(name):
        raise ValueError(f"{what} holds {name}, which is not JSON")

    try:
        return json.loads(
            text, object_pairs_hook=unique_keys, parse_constant=no_constant
        )
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not JSON: {exc}") from None


def json_fields(obj, keys, what, optional=()):
    """Values of keys in the JSON object obj; a ValueError names what lacks
    one of them or holds a key that is neither in keys nor in optional."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")
    unknown = [k for k in obj if k not in keys and k not in optional]
    if unknown:
        raise ValueError(f"{what} holds the unknown key {', '.join(map(repr, unknown))}")
    return [obj[k] for k in keys]


def is_json_int(value):
    """True for a JSON integer: bool is an int subclass, but true is not 1."""
    return isinstance(value, int) and not isinstance(value, bool)


# ASCII only: Fraction() would also read "1_0", " 1/2 ", "0.5", "1e3", "+3"
# and other scripts' digits
_FRACTION = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")


def json_fraction(value, what):
    """A JSON integer or a string -?[0-9]+(/[0-9]+)? with a nonzero
    denominator, as a Fraction; a float would be read inexactly."""
    if is_json_int(value) or (isinstance(value, str) and _FRACTION.fullmatch(value)):
        return Fraction(value)
    raise ValueError(f"{what} must be an integer or a fraction string, got {value!r}")
