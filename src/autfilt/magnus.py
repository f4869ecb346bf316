"""Truncated Magnus expansion and filtration invariants of automorphisms.

A word w maps to a noncommutative power series by x_i -> 1 + X_i and
x_i^-1 -> 1 - X_i + X_i^2 - ..., truncated above an explicit degree
cutoff.  The expansion of x_i^-1 phi(x_i) detects how deep phi sits in
the filtration by kernels of the actions on the nilpotent quotients:
its terms vanish in degrees 1..k exactly when phi acts trivially on
F_n modulo the (k+1)-st lower central term.  Coefficients stay integral
on group elements; everything is exact.

The degree-k Johnson image takes values in Hom(H, L_{k+1}) = H^* (x)
L_{k+1}, which is exactlin.MkSpace(n, k); johnson_image returns a
TensorVector of that space, the one representation the linear algebra,
the suites and the reports use.

The expansion multiplies letter by letter on packed blocks: one exact int
per degree d holding the a^d coefficients of the monomials in the word's
own a letters (not rank^d) as fixed-width signed fields, so a letter is
one shift-add per degree below the cutoff; the top degree is summed per
last letter and shifted into place once per word.  The letter loop is
generated and compiled once per cutoff, with its degrees unrolled into
locals, so every cutoff runs the same straight-line updates and no loop
over the degrees.  The field width comes
from a proven bound on the coefficients of a word of that length.  A
degree vanishes exactly when its block is 0, so johnson_depth decodes
nothing and johnson_image decodes only degree k+1; magnus_expand decodes
every degree.
TruncatedSeries multiplication is the sparse truncated product
lie.tensor_concat.
"""

from __future__ import annotations

import functools
import itertools
import struct
from math import comb

from . import lie
from .autf import FreeWord, FrozenRecord
from .exactlin import MkSpace, TensorVector

__all__ = [
    "TruncatedSeries",
    "magnus_expand",
    "DepthError",
    "johnson_depth",
    "johnson_image",
    "deviation_word",
]


class TruncatedSeries(FrozenRecord):
    """Element of the free associative algebra on X_1..X_n modulo degree > K:
    coeffs maps monomials (index tuples of length at most cutoff) to their
    nonzero coefficients."""

    __slots__ = ("rank", "cutoff", "coeffs")

    def __repr__(self):
        return f"TruncatedSeries(rank={self.rank!r}, cutoff={self.cutoff!r})"

    def __mul__(self, other):
        if (self.rank, self.cutoff) != (other.rank, other.cutoff):
            raise ValueError("rank or cutoff mismatch")
        coeffs = lie.tensor_concat(self.coeffs, other.coeffs, self.cutoff)
        return TruncatedSeries(self.rank, self.cutoff, coeffs)


@functools.cache
def _monomials(alphabet, d):
    """The degree-d monomials in alphabet in field order: field j is the
    base-a reading of the monomial with its first letter least significant.
    Alphabets are subsets of a rank, so the cache stays small."""
    return tuple(m[::-1] for m in itertools.product(alphabet, repeat=d))


@functools.cache
def _kernel(cutoff):
    """The letter loop of _packed for K = cutoff, compiled once per cutoff;
    its source depends on the cutoff alone.

    The blocks 1..K-1 are the locals b1..b{K-1}, so a letter costs one
    dict lookup, one tuple unpack, K - 1 shift-adds and one add into acc,
    with no loop over the degrees.  The table maps a letter (i, s) to
    (p, s == 1, 1 << s0, s1, .., s{K-2}), s_d being the shift of degree d
    at position p and 1 << s0 the degree-0 block 1 shifted.  A +1 letter
    updates the top degree first, since c (1 + X_p) takes every new
    coefficient c'(m X_p) = c(m X_p) + c(m) from old values; a -1 letter
    the lowest first, since c' (1 + X_p) = c gives c'(m X_p) = c(m X_p) -
    c'(m).  The loop returns the blocks 1..K-1 and leaves degree K in acc.
    """
    lower = [f"b{d}" for d in range(1, cutoff)]
    top = lower[-1] if lower else "1"
    moves = list(zip(lower, ["unit"] + [f"b{d} << s{d}" for d in range(1, cutoff)]))
    fields = ["p", "plus", "unit"] + [f"s{d}" for d in range(1, cutoff - 1)]
    lines = ["def letter_loop(letters, table, acc):"]
    lines += [f"    {' = '.join(lower)} = 0"] if lower else []
    lines += [
        "    for letter in letters:",
        f"        {', '.join(fields)} = table[letter]",
        "        if plus:",
        f"            acc[p] += {top}",
        *(f"            {b} += {step}" for b, step in reversed(moves)),
        "        else:",
        *(f"            {b} -= {step}" for b, step in moves),
        f"            acc[p] -= {top}",
        f"    return [{', '.join(lower)}]",
    ]
    code = compile("\n".join(lines), f"<magnus letter loop, cutoff {cutoff}>", "exec")
    namespace = {}
    exec(code, namespace)
    return namespace["letter_loop"]


def _packed(w, cutoff):
    """The expansion of the word w as (alphabet, nbytes, blocks).

    blocks[d] is one int holding the a^d coefficients of the degree-d
    monomials in the a letters of w (the alphabet, positions p = 0..a-1 in
    sorted order) as signed fields of B = 8 nbytes bits, field j being the
    base-a reading of the monomial with its first letter least
    significant.  The monomials m X_p of degree d+1 are then the fields
    [p a^d, (p+1) a^d), aligned with the whole degree-d block, so each
    letter costs one shift-add per degree below K = cutoff.  The packed
    ints are exact.  Each letter's series has at most one monomial, of
    coefficient +-1, per degree, so a degree-d coefficient of an L-letter
    word is a sum over the weak compositions of d into L parts: |c| <=
    C(L+d-1, d) <= C(L+K-1, K), attained by x_i^-L.  B is that bound's
    bit length plus a sign bit and a spare bit, rounded up to whole bytes.

    Degree K is never read while the word is multiplied out, so it is
    kept as one accumulator of a^(K-1) fields per position p, acc[p]
    holding the coefficients of the monomials m X_p: a letter x_p adds
    the old degree K-1 block into acc[p], and x_p^-1 subtracts the new
    one, after the lower degrees are updated.  After the last letter
    blocks[K] is the sum of acc[p] shifted to field p a^(K-1), one shift
    per position, the same int the per-letter shift-add gives: field j
    of acc[p] is always field p a^(K-1) + j of that top block after the
    same prefix of letters, so every partial sum is a coefficient of a
    prefix word, of at most as many letters, and fits its field by the
    bound above.

    The letters run through _kernel(cutoff), the loop generated for this
    cutoff with its degrees unrolled; the same updates written as a loop
    over the degrees, the top degree included, are packed_by_shift_add in
    tests/helpers.py, the oracle the kernel is tested against.

    A block is 0 exactly when every field of its degree is 0: a block is
    sum_j c_j 2^(Bj) with |c_j| < 2^(B-2), and if some c_j is nonzero,
    the least such j gives block = c_j 2^(Bj) modulo 2^(B(j+1)), which is
    not 0.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    alphabet = tuple(sorted({i for i, _ in w.letters}))
    a = len(alphabet)
    bound = comb(len(w.letters) + cutoff - 1, cutoff)
    nbytes = (bound.bit_length() + 2 + 7) // 8
    width = 8 * nbytes
    table = {}
    for p, i in enumerate(alphabet):
        shifts = tuple(width * p * a**d for d in range(1, cutoff - 1))
        table[i, 1] = (p, True, 1 << width * p, *shifts)
        table[i, -1] = (p, False, 1 << width * p, *shifts)
    acc = [0] * a
    lower = _kernel(cutoff)(w.letters, table, acc)
    span = width * a ** (cutoff - 1)
    top = sum(part << span * p for p, part in enumerate(acc))
    return alphabet, nbytes, [1, *lower, top]


def _decode(alphabet, nbytes, block, d):
    """The nonzero coefficients {monomial: c} of the packed degree-d block.

    Biased by 2^(B-1), every field is a nonnegative B-bit number, which
    is where the width matters; the fields are spread into slots of whole
    64-bit limbs, and struct reads them in one call.
    """
    count = len(alphabet) ** d
    half = 1 << (8 * nbytes - 1)
    bias = int.from_bytes(half.to_bytes(nbytes, "little") * count, "little")
    raw = (block + bias).to_bytes(nbytes * count, "little")
    limbs = (nbytes + 7) // 8
    slots = bytearray(8 * limbs * count)
    for i in range(nbytes):
        slots[i::8 * limbs] = raw[i::nbytes]
    limb_values = struct.unpack(f"<{limbs * count}Q", slots)
    values = limb_values[::limbs]
    for t in range(1, limbs):
        values = [v | u << 64 * t for v, u in zip(values, limb_values[t::limbs])]
    return {
        m: v - half for m, v in zip(_monomials(alphabet, d), values) if v != half
    }


def magnus_expand(w, cutoff):
    """Image of the word w under the truncated Magnus embedding: the packed
    expansion, every degree decoded."""
    alphabet, nbytes, blocks = _packed(w, cutoff)
    coeffs = {}
    for d, block in enumerate(blocks):
        coeffs.update(_decode(alphabet, nbytes, block, d))
    return TruncatedSeries(w.rank, cutoff, coeffs)


class DepthError(ValueError):
    """A required vanishing degree fails; carries the offending data."""

    def __init__(self, index, degree):
        self.index = index
        self.degree = degree
        super().__init__(
            f"expansion of x{index}^-1 phi(x{index}) has a nonzero term "
            f"in degree {degree}"
        )


def deviation_word(phi, i):
    """The reduced word x_i^-1 phi(x_i), empty exactly when phi fixes x_i."""
    return FreeWord._reduced(phi.rank, (((i, -1),), phi.images[i - 1].letters))


def _deviation_series(phi, i, cutoff):
    """Packed expansion (alphabet, nbytes, blocks) of x_i^-1 phi(x_i), or
    None if x_i is fixed."""
    if phi.images[i - 1].letters == ((i, 1),):
        return None
    return _packed(deviation_word(phi, i), cutoff)


def johnson_depth(phi, cutoff):
    """Largest k < cutoff with all deviation terms vanishing in degrees 1..k.

    Returns None when every tested degree vanishes, which is reported as
    ">=cutoff".  Depth 0 means phi moves the
    abelianization, i.e. phi is not IA.  A degree vanishes exactly when
    its packed block is 0 (see _packed), so nothing is decoded.  Whether
    a degree's block is 0 does not depend on the cutoff, so each later
    deviation is expanded only below the lowest nonzero degree found so
    far, and none once degree 1 is nonzero.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    lowest = cutoff + 1
    for i in range(1, phi.rank + 1):
        if lowest == 1:
            break
        packed = _deviation_series(phi, i, lowest - 1)
        if packed is not None:
            blocks = packed[2]
            lowest = next((d for d in range(1, lowest) if blocks[d]), lowest)
    return lowest - 1 if lowest <= cutoff else None


def johnson_image(phi, k):
    """Degree-k image of phi as a vector of MkSpace(rank, k).

    The image is sum_i e_i^* (x) L_i, where L_i is the degree-(k+1) part
    of the expansion of x_i^-1 phi(x_i), read in Lyndon coordinates by
    lie.lie_from_tensor_coords; label (i, w) carries the coefficient of
    the Lyndon word w in L_i.  The map is additive on products of
    depth >= k automorphisms.

    Requires every deviation series to vanish in degrees 1..k, that is
    every packed block below k+1 to be 0 (see _packed); violations raise
    DepthError with the offending index and degree.  Only block k+1 is
    decoded.  The conversion of each L_i is itself the Lie test
    (lie.NotLieTensorError otherwise), which the theory guarantees to pass
    for genuine depth >= k automorphisms.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    cutoff = k + 1
    coords = {}
    for i in range(1, phi.rank + 1):
        packed = _deviation_series(phi, i, cutoff)
        if packed is None:
            continue
        alphabet, nbytes, blocks = packed
        low = next((d for d in range(1, cutoff) if blocks[d]), None)
        if low is not None:
            raise DepthError(i, low)
        part = _decode(alphabet, nbytes, blocks[cutoff], cutoff)
        if part:
            value = lie.lie_from_tensor_coords(part)
            coords.update(((i, w), c) for w, c in value.items())
    return TensorVector(MkSpace(phi.rank, k), coords)
