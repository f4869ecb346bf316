import random
from fractions import Fraction
from math import comb

import pytest

from autfilt import autf, cli, exactlin, lie, magnus

from helpers import (
    check_blocks_match_expansion,
    dual_components,
    has_depth_at_least,
    image_or_depth_error,
    johnson_depth_by_expansion,
    left_normed_derivation,
    lyndon_tensor,
    make_signed_permutation,
    magnus_expand_by_letters,
    magnus_expand_dense,
    packed_by_shift_add,
    random_deep_automorphism,
    random_word,
    word,
)


def test_expand_generator():
    s = magnus.magnus_expand(word(2, 1), 3)
    assert s.coeffs == {(): 1, (1,): 1}


def test_expand_cancelling_word_is_one():
    s = magnus.magnus_expand(word(2, 1, -1), 4)
    assert s.coeffs == {(): 1}


def test_expand_inverse_generator_geometric_series():
    s = magnus.magnus_expand(word(2, -1), 3)
    assert s.coeffs == {(): 1, (1,): -1, (1, 1): 1, (1, 1, 1): -1}


def test_expand_commutator_lowest_degree():
    c = autf.group_commutator(word(2, 1), word(2, 2))
    s = magnus.magnus_expand(c, 3)
    low = {m: c for m, c in s.coeffs.items() if len(m) <= 2}
    assert low == {(): 1, (1, 2): 1, (2, 1): -1}


def test_packed_expansion_matches_letter_oracle():
    # the packed kernel against the sparse letter-by-letter route,
    # including the empty word and alphabets that skip letters of the rank
    rng = random.Random(29)
    for rank in range(1, 6):
        for cutoff in range(1, 6):
            words = [autf.FreeWord(rank, ())]
            words += [random_word(rng, rank, rng.randrange(1, 61)) for _ in range(6)]
            if rank == 5:
                for alphabet in ((2, 5), (3,), (1, 4, 5)):
                    letters = [
                        (rng.choice(alphabet), rng.choice((1, -1))) for _ in range(40)
                    ]
                    words.append(autf.FreeWord(rank, letters))
            for w in words:
                assert magnus.magnus_expand(w, cutoff) == magnus_expand_by_letters(
                    w, cutoff
                ), (rank, cutoff, w.letters)


def test_packed_blocks_match_shift_add_oracle():
    # the generated kernel, one per cutoff, against one shift-add per
    # degree per letter, compared as whole (alphabet, nbytes, blocks)
    # triples: ranks 1-5 and every cutoff 1..MAX_CUTOFF (at cutoff 1 the
    # sums are the exponent sums and no lower block moves), the empty word,
    # one-letter alphabets, all-inverse words and alphabets that skip
    # letters of the rank; above cutoff 6 the words are short and use at
    # most three letters, since a block holds a^d fields.  Then x_i^-m at
    # the lengths where the field width changes (see
    # test_generator_powers_closed_form)
    rng = random.Random(53)
    for rank in range(1, 6):
        for cutoff in range(1, cli.MAX_CUTOFF + 1):
            small = cutoff > 6
            most = 13 if small else 61
            pool = range(1, rank + 1)
            if small:
                pool = sorted(rng.sample(pool, min(rank, 3)))
            words = [autf.FreeWord(rank, ())]
            words += [
                autf.FreeWord(
                    rank,
                    [(rng.choice(pool), rng.choice((1, -1)))
                     for _ in range(rng.randrange(1, most))],
                )
                for _ in range(6)
            ]
            words += [
                autf.FreeWord(rank, [(rng.choice(pool), -1) for _ in range(most // 2)]),
                autf.FreeWord(rank, [(rank, 1)] * 9),
                autf.FreeWord(rank, [(1, -1)] * 9),
            ]
            if rank == 5:
                for sub in ((2, 5), (3,), (1, 4, 5)):
                    letters = [
                        (rng.choice(sub), rng.choice((1, -1))) for _ in range(most - 21)
                    ]
                    words.append(autf.FreeWord(rank, letters))
            for w in words:
                assert magnus._packed(w, cutoff) == packed_by_shift_add(w, cutoff), (
                    rank, cutoff, w.letters
                )
    for cutoff in range(1, cli.MAX_CUTOFF + 1):
        for m in sorted(_width_boundary_lengths(cutoff)):
            w = autf.FreeWord(5, [(3, -1)] * m)
            assert magnus._packed(w, cutoff) == packed_by_shift_add(w, cutoff), (
                cutoff, m
            )


def _tau_product(rng, n, k):
    """Two or three T/S factors with the tau-identities suite's odds, kept
    only with at most one S factor (two give words of millions of letters)."""
    while True:
        count = rng.choice((2, 2, 3))
        kinds = ["S" if rng.random() < 0.3 else "T" for _ in range(count)]
        if kinds.count("S") <= 1:
            break
    product = autf.identity_automorphism(n)
    for kind in kinds:
        if kind == "S":
            mu = tuple(rng.choice((1, 2, 3)) for _ in range(k))
            product = product.compose(autf.make_S(mu, 4, 5, n))
        else:
            i = rng.randrange(1, n + 1)
            rest = [a for a in range(1, n + 1) if a != i]
            omega = (*rng.sample(rest, 2), *(rng.choice(rest) for _ in range(k - 1)))
            product = product.compose(autf.make_T(i, omega, n))
    return product


def test_packed_expansion_matches_dense_oracle_on_long_words():
    # deviation words x_i^-1 phi(x_i) of composed T/S products at n = 5,
    # cutoff 4 as in johnson_image(phi, 3), and their product, of over
    # 20,000 letters; the fields get 6 to 8 bytes wide, which the
    # short-word oracle tests never reach.  Then alphabets that skip letters
    # of the rank: the first word relabelled into rank 7, and a random word on
    # two letters at cutoff 5 whose fields are wider than one 64-bit limb
    rng = random.Random(41)
    n = 5
    cases = []
    while sum(len(w.letters) for w, _ in cases) < 24_000:
        phi = _tau_product(rng, n, 3)
        for i in range(1, n + 1):
            w = autf.FreeWord.generator(n, i).inverse() * phi.images[i - 1]
            if 3_000 <= len(w.letters) <= 20_000:
                cases.append((w, 4))
    longest = cases[0][0]
    for w, _ in cases[1:]:
        longest = longest * w
    assert len(longest.letters) >= 20_000
    cases.append((longest, 4))
    relabel = {1: 2, 2: 3, 3: 5, 4: 6, 5: 7}
    first = cases[0][0]
    cases.append((autf.FreeWord(7, [(relabel[i], e) for i, e in first.letters]), 4))
    two_letters = autf.FreeWord(
        n, [(rng.choice((2, 5)), rng.choice((1, -1))) for _ in range(36_000)]
    )
    assert comb(len(two_letters.letters) + 4, 5).bit_length() + 2 > 64
    cases.append((two_letters, 5))
    for w, cutoff in cases:
        assert magnus.magnus_expand(w, cutoff) == magnus_expand_dense(w, cutoff), (
            len(w.letters), cutoff
        )


def _least_length(cutoff, smallest_bound):
    """Least m at which C(m+K-1, K), the coefficient bound of an m-letter
    word at cutoff K, reaches smallest_bound."""
    lo, hi = 0, 1
    while comb(hi + cutoff - 1, cutoff) < smallest_bound:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if comb(mid + cutoff - 1, cutoff) < smallest_bound:
            lo = mid
        else:
            hi = mid
    return hi


def _width_boundary_lengths(cutoff):
    """The lengths m - 1 and m, up to 40,000 letters, around each least m
    at which the coefficient bound at this cutoff reaches 2^6, 2^14 or
    2^62 (the field width grows a byte) or 2^7, 2^15 or 2^63 (a width
    without the sign bit would overflow)."""
    ms = [_least_length(cutoff, 1 << bits) for bits in (6, 7, 14, 15, 62, 63)]
    return {m - d for m in ms if m <= 40_000 for d in (0, 1)}


def test_generator_powers_closed_form():
    # x_i^m has X_i^t coefficient C(m, t) and x_i^-m has (-1)^t C(m+t-1, t);
    # an inverse-letter update in the wrong degree order breaks the second.
    # The X_i^K coefficient of x_i^-m is the bound the field width is taken
    # from, so at rank 5 each cutoff also takes the lengths around each
    # width boundary (2^62 is past one 64-bit limb)
    boundary = {cutoff: _width_boundary_lengths(cutoff) for cutoff in range(1, 6)}
    for rank in (1, 2, 5):
        for i in sorted({1, rank}):
            for cutoff in range(1, 6):
                lengths = {1, 7, 30} | (boundary[cutoff] if rank == 5 else set())
                for m in sorted(lengths):
                    up = magnus.magnus_expand(autf.FreeWord(rank, [(i, 1)] * m), cutoff)
                    down = magnus.magnus_expand(
                        autf.FreeWord(rank, [(i, -1)] * m), cutoff
                    )
                    assert up.coeffs == {
                        (i,) * t: comb(m, t) for t in range(min(m, cutoff) + 1)
                    }, (cutoff, m)
                    assert down.coeffs == {
                        (i,) * t: (-1) ** t * comb(m + t - 1, t)
                        for t in range(cutoff + 1)
                    }, (cutoff, m)


def test_homomorphism_property_random():
    rng = random.Random(11)
    for _ in range(40):
        u = random_word(rng, 3, rng.randrange(0, 8))
        v = random_word(rng, 3, rng.randrange(0, 8))
        K = 4
        assert magnus.magnus_expand(u * v, K) == magnus.magnus_expand(
            u, K
        ) * magnus.magnus_expand(v, K)


def test_deviation_word():
    n = 4
    phi = autf.make_magnus_C(1, 2, n).compose(autf.make_T(3, (1, 2), n))
    for i in range(1, n + 1):
        expected = autf.FreeWord.generator(n, i, -1) * phi.images[i - 1]
        assert magnus.deviation_word(phi, i) == expected
    assert magnus.deviation_word(phi, 2).letters == ()  # phi fixes x2


def test_depth_identity():
    assert magnus.johnson_depth(autf.identity_automorphism(3), 6) is None


def test_depth_conjugation_generator():
    assert magnus.johnson_depth(autf.make_magnus_C(1, 2, 3), 4) == 1


def test_depth_t_family():
    assert magnus.johnson_depth(autf.make_T(1, (2, 3, 4), 5), 5) == 2


def test_depth_s_family_cutoff4():
    assert magnus.johnson_depth(autf.make_S((1, 2), 3, 4, 5), 4) == 2


def test_depth_zero_for_non_ia():
    assert magnus.johnson_depth(autf.make_nielsen("L", 1, 2, 1, 3), 4) == 0


def test_depth_and_image_from_blocks_match_full_expansion():
    # moves whose deviation words are commutators, [x_a^L, x_b^L] and
    # conjugated commutators cancel in low degrees; the sample must reach
    # every depth the cutoffs can tell apart, and both image outcomes
    rng = random.Random(47)
    depths, errors = set(), 0
    for _ in range(60):
        phi = random_deep_automorphism(rng, rng.choice((3, 4)))
        check_blocks_match_expansion(phi)
        depths.add(magnus.johnson_depth(phi, 5))
        errors += isinstance(image_or_depth_error(magnus.johnson_image, phi, 2), tuple)
    assert {0, 1, 2, 3} <= depths
    assert 0 < errors < 60


def test_depth_matches_full_cutoff_expansion_per_index():
    # johnson_depth expands later deviations only below the lowest nonzero
    # degree found so far; the oracle expands every index to the full
    # cutoff (random deep automorphisms are compared in
    # test_depth_and_image_from_blocks_match_full_expansion).  T, S,
    # Nielsen products (mostly depth 0, so later indices are skipped) and
    # products of T and S factors moving several indices
    rng = random.Random(73)
    n = 5
    autos = [
        autf.make_T(1, (2, 3, 4), n),
        autf.make_T(2, (1, 3, 5, 4), n),
        autf.make_S((1, 2), 3, 4, n),
        autf.make_S((1, 2, 1), 4, 5, n),
        autf.make_T(1, (2, 3), n).compose(autf.make_S((2, 3), 4, 5, n)),
        autf.make_T(1, (2, 3, 4), n).compose(autf.make_T(5, (2, 3), n)),
    ]
    for _ in range(12):
        autos.append(autf.eval_nielsen_word(
            [(rng.choice("LR"), *rng.sample(range(1, n + 1), 2), rng.choice((1, -1)))
             for _ in range(rng.randint(1, 6))],
            n,
        ))
    depths = set()
    for phi in autos:
        for cutoff in range(2, 7):
            got = magnus.johnson_depth(phi, cutoff)
            assert got == johnson_depth_by_expansion(phi, cutoff), (phi, cutoff)
        depths.add(got)
    assert {0, 1, 2, 3} <= depths


def test_depth_expands_later_indices_only_below_the_lowest_degree(monkeypatch):
    cutoffs = []
    packed = magnus._packed
    monkeypatch.setattr(
        magnus, "_packed", lambda w, cutoff: cutoffs.append(cutoff) or packed(w, cutoff)
    )
    # x1's deviation starts in degree 3, so x5's is expanded to degree 2
    phi = autf.make_T(1, (2, 3, 4), 5).compose(autf.make_T(5, (2, 3), 5))
    assert magnus.johnson_depth(phi, 6) == 1
    assert cutoffs == [6, 2]
    cutoffs.clear()
    # x1's deviation is nonzero in degree 1: x2's is not expanded
    phi = autf.make_nielsen("L", 1, 2, 1, 3).compose(autf.make_magnus_C(2, 3, 3))
    assert magnus.johnson_depth(phi, 4) == 0
    assert cutoffs == [4]


def test_depth_and_image_decode_only_the_image_degree(monkeypatch):
    # depth decodes nothing; the image decodes degree k+1 once per moved
    # generator
    decoded = []
    decode = magnus._decode
    monkeypatch.setattr(
        magnus, "_decode", lambda *args: decoded.append(args[3]) or decode(*args)
    )
    phi = autf.make_T(1, (2, 3, 4), 5).compose(autf.make_T(2, (1, 3, 5), 5))
    moved = sum(w != autf.FreeWord.generator(5, i) for i, w in enumerate(phi.images, 1))
    assert moved == 2
    assert magnus.johnson_depth(phi, 5) == 2
    assert decoded == []
    assert magnus.johnson_image(phi, 2)
    assert decoded == [3] * moved
    decoded.clear()
    with pytest.raises(magnus.DepthError):
        magnus.johnson_image(phi, 3)
    assert decoded == []


def test_image_conjugation_generator():
    ji = magnus.johnson_image(autf.make_magnus_C(1, 2, 3), 1)
    assert ji.space == exactlin.MkSpace(3, 1)
    assert dual_components(ji) == {1: {(1, 2): 1}}


def test_image_commutator_multiplier():
    ji = magnus.johnson_image(autf.make_magnus_M(1, 2, 3, 3), 1)
    assert dual_components(ji) == {1: {(2, 3): 1}}


def test_image_t_family_is_left_normed_bracket():
    n, k = 5, 2
    for i, omega in ((1, (2, 3, 4)), (2, (3, 1, 3)), (5, (4, 3, 2))):
        ji = magnus.johnson_image(autf.make_T(i, omega, n), k)
        expected = lie.left_normed_of_generators(omega)
        assert dual_components(ji) == {i: expected}


def test_image_additive_on_products():
    n, k = 4, 1
    rng = random.Random(3)
    for _ in range(20):
        i, j = rng.sample(range(1, n + 1), 2)
        a = autf.make_magnus_C(i, j, n)
        l = rng.choice([x for x in range(1, n + 1) if x not in (i, j)])
        b = autf.make_magnus_M(j, i, l, n)
        assert magnus.johnson_image(a.compose(b), k) == magnus.johnson_image(
            a, k
        ) + magnus.johnson_image(b, k)


def test_image_depth_error_reports_offending_degree():
    with pytest.raises(magnus.DepthError) as exc:
        magnus.johnson_image(autf.make_magnus_C(1, 2, 3), 2)
    assert exc.value.degree == 2
    assert exc.value.index == 1


def test_image_components_pass_dynkin():
    ji = magnus.johnson_image(autf.make_S((1, 2), 3, 4, 5), 2)
    for v in dual_components(ji).values():
        assert not lie.dynkin_defect(lyndon_tensor(v))


def test_commutator_depth_adds_up():
    # depth of a group commutator is at least the sum of the depths
    rng = random.Random(13)
    n = 4
    gens = [autf.make_magnus_C(1, 2, n), autf.make_magnus_M(2, 3, 4, n)]
    for _ in range(10):
        a, b = rng.choice(gens), rng.choice(gens)
        c = autf.group_commutator(a, b)
        assert has_depth_at_least(c, 2, 4)


def test_lower_central_containment():
    # k-fold left-normed commutators of degree-1 generators have depth >= k
    rng = random.Random(17)
    n = 5
    for k in (2, 3):
        for _ in range(10):
            factors = []
            for _ in range(k):
                i, j = rng.sample(range(1, n + 1), 2)
                if rng.random() < 0.5:
                    factors.append(autf.make_magnus_C(i, j, n))
                else:
                    l = rng.choice([x for x in range(1, n + 1) if x not in (i, j)])
                    factors.append(autf.make_magnus_M(i, j, l, n))
            c = autf.left_normed_group_commutator(factors)
            assert has_depth_at_least(c, k, k + 2)


def test_commutator_image_matches_derivation_oracle():
    # dual-route check: nested commutator images agree with nested
    # derivation brackets computed without any Magnus expansion
    n = 5
    cases = [
        [autf.make_magnus_M(1, 2, 3, n), autf.make_magnus_M(2, 1, 3, n)],
        [autf.make_magnus_M(3, 4, 1, n), autf.make_magnus_M(4, 3, 2, n)],
        [
            autf.make_magnus_M(4, 5, 1, n),
            autf.make_magnus_C(4, 2, n),
            autf.make_magnus_M(5, 4, 3, n),
        ],
    ]
    for factors in cases:
        k = len(factors)
        got = magnus.johnson_image(autf.left_normed_group_commutator(factors), k)
        expected = left_normed_derivation(factors, n)
        assert {
            i: lyndon_tensor(v) for i, v in dual_components(got).items()
        } == expected


def test_equivariance_under_transvection_lift():
    # conjugating by g transforms the image by the induced action of the
    # inverse of the abelianization of g
    n, k = 4, 1
    # x2 -> x1 x2 abelianizes to e2 -> e2 + e1, the transvection E(1,2)
    g = autf.make_nielsen("L", 2, 1, 1, n)
    phi = autf.make_magnus_M(1, 2, 3, n)
    lifted = exactlin.induced_on(
        exactlin.elementary_sl(1, 2, n), exactlin.MkSpace(n, k)
    )
    lhs = magnus.johnson_image(phi.conjugate(g), k)
    rhs = lifted.inverse.apply(magnus.johnson_image(phi, k))
    assert lhs == rhs


def test_equivariance_under_signed_permutation():
    n, k = 4, 2
    perm = {1: 2, 2: 3, 3: 4, 4: 1}
    g = make_signed_permutation(n, perm, {3: -1})

    def columns(mat):
        return {b + 1: {a + 1: mat[a][b] for a in range(n) if mat[a][b]} for b in range(n)}

    base = exactlin._moving_pair(
        exactlin.VSpace(n),
        columns(autf.abelianized_matrix(g)),
        columns(autf.abelianized_matrix(g.inverse())),
        "perm",
    )
    lifted = exactlin.induced_on(base, exactlin.MkSpace(n, k))
    phi = autf.make_T(1, (2, 3, 4), n)
    lhs = magnus.johnson_image(phi.conjugate(g), k)
    rhs = lifted.inverse.apply(magnus.johnson_image(phi, k))
    assert lhs == rhs


def test_hom_wedge2_vector():
    # degree-1 images live in Mk(n, 1) = Hom(V, wedge^2 V): the length-2
    # Lyndon word (1, 2) is the wedge pair e1 ^ e2
    n = 3
    vec = magnus.johnson_image(autf.make_magnus_C(1, 2, n), 1)
    assert vec.space == exactlin.MkSpace(n, 1)
    assert vec.coords == {(1, (1, 2)): Fraction(1)}
