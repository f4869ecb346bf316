"""Commuting graph of conjugated standard parabolic subgroups.

A vertex is a handle: an index set I of fixed size m together with a
conjugator word in Nielsen letters.  Two handles are adjacent when the
subgroups commute elementwise, which for parabolics reduces to a finite
check on Nielsen generators, checked in the first handle's frame on
generator images: conjugating both subgroups back by the first handle's
conjugator leaves a standard parabolic and a conjugate by the short
relative conjugator word.  The verdict in that frame depends only on
(rank, I, J, relative conjugator), so it is decided once per such key
and cached for the life of the process.  The path builder realises the
constructive connectivity argument in one back-to-front pass over the
word: a letter with support disjoint from I fixes the vertex and only
relabels it, and otherwise a spare index block K gives a length-2 detour
through a disjoint parabolic.
"""

from __future__ import annotations

import functools

from . import autf


class SubgroupHandle(autf.FrozenRecord):
    """Conjugate of a standard parabolic: (rank, index set, Nielsen word)."""

    __slots__ = ("rank", "indices", "conjugator")

    def __init__(self, rank, indices, conjugator=()):
        autf._check_indices(rank, *indices)
        # letters given as lists become tuples: conjugators are compared,
        # cancelled letter by letter and used as cache keys
        conjugator = tuple(autf.nielsen_letter(l, rank) for l in conjugator)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "conjugator", conjugator)

    @classmethod
    def _trusted(cls, rank, indices, conjugator):
        """Trusted constructor: indices a frozenset of ints in 1..rank and
        conjugator a tuple of letters already checked by autf.nielsen_letter;
        neither is checked again."""
        h = object.__new__(cls)
        object.__setattr__(h, "rank", rank)
        object.__setattr__(h, "indices", indices)
        object.__setattr__(h, "conjugator", conjugator)
        return h

    def conjugator_automorphism(self):
        return autf.eval_nielsen_word(self.conjugator, self.rank)

    def to_json_obj(self):
        return {
            "I": sorted(self.indices),
            "conjugator": [list(l) for l in self.conjugator],
        }


def handle(rank, indices, conjugator=()):
    return SubgroupHandle(rank, frozenset(indices), tuple(conjugator))


@functools.cache
def _standard_generators(rank, indices):
    """Nielsen generators {L_ab, R_ab : a != b in I} of the standard P_I."""
    if len(indices) < 2:
        raise ValueError(
            "parabolics on fewer than two indices have no Nielsen generators; "
            "handles with |I| <= 1 are rejected"
        )
    return tuple(
        autf.make_nielsen(side, a, b, 1, rank)
        for a in sorted(indices)
        for b in sorted(indices)
        if a != b
        for side in ("L", "R")
    )


def _relative_conjugator(h1, h2):
    """Nielsen word of d = g2 g1^-1, for g1, g2 the handles' conjugators.

    It is the word c2 . c1^-1 with each letter of c1^-1 cancelled against
    the end of c2 where they are inverse, so a shared suffix drops out:
    on a path edge the word is usually one or two letters long.
    """
    out = list(h2.conjugator)
    for side, i, j, exp in reversed(h1.conjugator):
        if out and out[-1] == (side, i, j, exp):
            out.pop()
        else:
            out.append((side, i, j, -exp))
    return tuple(out)


def commutes(h1, h2):
    """Elementwise commutation of the two parabolic subgroups.

    Generating sets commute pairwise if and only if the generated
    subgroups commute elementwise, so the check is finite and exact.  It
    runs in the first handle's frame: conjugation by g1^-1 is an
    automorphism of Aut(F_n), so g1^-1 P_I g1 and g2^-1 P_J g2 commute
    elementwise if and only if P_I and d^-1 P_J d do, d = g2 g1^-1
    (`_relative_conjugator`).

    The verdict is therefore a function of (rank, I, J, d) alone and is
    cached under that key by `_commutes_in_frame`.  The key is exact: the
    index sets and the letters of d are ints (handles reject bool and
    float indices and exponents, so 1 and True never share an entry), the
    sides are "L" or "R", and equal keys name the same pair of subgroups
    in the first handle's frame, whatever the absolute conjugators.
    """
    if h1.rank != h2.rank:
        raise ValueError("rank mismatch")
    return _commutes_in_frame(
        h1.rank, h1.indices, h2.indices, _relative_conjugator(h1, h2)
    )


@functools.cache
def _commutes_in_frame(rank, I, J, d):
    """Whether P_I and d^-1 P_J d commute elementwise, d a Nielsen word.

    Each pair of generators is compared on the images of the basis only,
    stopping at the first difference.
    """
    g = autf.eval_nielsen_word(d, rank)
    gens2 = [b.conjugate(g) for b in _standard_generators(rank, J)]
    # a b == b a if and only if a(b(x_i)) == b(a(x_i)) for every i
    return all(
        a(bi) == b(ai)
        for a in _standard_generators(rank, I)
        for b in gens2
        for ai, bi in zip(a.images, b.images)
    )


def _check_bound(n, m):
    if 2 * m + 1 > n:
        raise ValueError(f"need 2m+1 <= n, got m={m}, n={n}")


def conjugate_path(n, I, word):
    """Path from the parabolic on I to its conjugate by a Nielsen word,
    as the tuple of its handles.

    The word [t1, ..., tL] denotes the composition t1 . t2 ... tL (the
    last letter acts first).  The path is built back to front, and before
    letter t_pos is read its last handle is the parabolic on I conjugated
    by the tail t_(pos+1) ... tL.  A letter whose support misses I fixes
    that subgroup, so the last handle is only relabelled by the longer
    tail.  Otherwise K is the lowest block of m indices outside I and the
    letter's support (2m+1 <= n leaves at least m of them), and the path
    steps to the parabolic on K, which t_pos fixes, and then to the one on
    I conjugated by t_pos ... tL.  So it has at most 2L edges.
    """
    I = frozenset(I)
    m = len(I)
    _check_bound(n, m)
    handles = [handle(n, I)]
    # each letter is checked once here, so the handles are built trusted:
    # rechecking every tail would make the path quadratic in the word
    word = tuple(autf.nielsen_letter(letter, n) for letter in word)
    trusted = SubgroupHandle._trusted
    for pos in range(len(word) - 1, -1, -1):
        _, i, j, _ = word[pos]
        if i in I or j in I:
            K = [a for a in range(1, n + 1) if a not in I and a not in (i, j)][:m]
            handles.append(trusted(n, frozenset(K), word[pos + 1:]))
            handles.append(trusted(n, I, word[pos:]))
        else:
            handles[-1] = trusted(n, I, word[pos:])
    return tuple(handles)


def verify_path(path):
    """Every consecutive pair of a tuple of handles commutes elementwise."""
    return all(commutes(h1, h2) for h1, h2 in zip(path, path[1:]))
