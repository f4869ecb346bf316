import random
from fractions import Fraction

import pytest

from autfilt import exactlin, lie

from helpers import brute_lyndon_count, jacobi_sum, lyndon_tensor, witt_dimension


def test_lyndon_words_n2_m3():
    assert lie.lyndon_words(2, 3) == [(1, 1, 2), (1, 2, 2)]


def test_lyndon_basis_pairs_words_with_bracketings():
    words = lie.lyndon_words(2, 3)
    assert words == [(1, 1, 2), (1, 2, 2)]
    # the standard bracketings are [e1, [e1, e2]] and [[e1, e2], e2]; the
    # other orders of the outer bracket would flip the sign
    e1, e2 = _generator(1), _generator(2)
    e12 = lie.tensor_bracket(e1, e2)
    assert lie.lyndon_word_tensor((1, 1, 2)) == lie.tensor_bracket(e1, e12)
    assert lie.lyndon_word_tensor((1, 2, 2)) == lie.tensor_bracket(e12, e2)


def test_lyndon_words_n3_m1():
    assert lie.lyndon_words(3, 1) == [(1,), (2,), (3,)]


def test_lyndon_words_over_no_letters_are_none():
    assert all(lie.lyndon_words(0, m) == [] for m in range(1, 5))
    for n, m in ((0, 0), (3, 0), (-1, 2)):
        with pytest.raises(ValueError, match="need n >= 0 and m >= 1"):
            lie.lyndon_words(n, m)


def test_lyndon_count_n3_m3():
    # Witt oracle: (27 - 3) / 3 = 8
    assert len(lie.lyndon_words(3, 3)) == 8


def test_witt_dimension_against_brute_count():
    for n in range(1, 5):
        for m in range(1, 6):
            assert witt_dimension(n, m) == brute_lyndon_count(n, m)


def test_lyndon_generation_matches_witt_up_to_n6_m5():
    for n in range(1, 7):
        for m in range(1, 6):
            words = lie.lyndon_words(n, m)
            assert len(words) == witt_dimension(n, m)
            assert all(lie.is_lyndon(w) for w in words)
            assert words == sorted(words)


def test_leading_term_property():
    # the expansion of the bracketing of w has coefficient 1 on w itself
    # and all other monomials are lexicographically larger
    for n, m in ((2, 4), (3, 3), (4, 2)):
        for w in lie.lyndon_words(n, m):
            t = lie.lyndon_word_tensor(w)
            assert t[w] == 1
            assert all(mono >= w for mono in t)


def _generator(i):
    return {(i,): 1}


def test_bracket_antisymmetry_on_generators():
    e1 = _generator(1)
    assert not lie.tensor_bracket(e1, e1)


def test_left_normed_single_element():
    assert lie.left_normed_of_generators((2,)) == {(2,): 1}
    with pytest.raises(ValueError):
        lie.left_normed_of_generators(())


def test_bracket_tensor_expansion_degree2():
    t = lie.tensor_bracket(_generator(1), _generator(2))
    assert t == {(1, 2): 1, (2, 1): -1}
    assert lie.lie_from_tensor_coords(t) == {(1, 2): 1}


def test_left_normed_tensor_expansion_degree3():
    b = lie.left_normed_of_generators((1, 2, 3))
    assert lyndon_tensor(b) == {
        (1, 2, 3): 1,
        (2, 1, 3): -1,
        (3, 1, 2): -1,
        (3, 2, 1): 1,
    }


def test_jacobi_identity_random():
    rng = random.Random(5)
    n = 3
    for _ in range(40):
        u, v, w = (
            {(i,): Fraction(rng.randrange(-3, 4)) for i in range(1, n + 1)}
            for _ in range(3)
        )
        assert not jacobi_sum(u, v, w)


def test_bracket_bilinear_antisymmetric_random():
    rng = random.Random(6)
    n = 3
    words2 = lie.lyndon_words(n, 2)
    for _ in range(40):
        u = lyndon_tensor({w: Fraction(rng.randrange(-2, 3)) for w in words2})
        v = {(i,): Fraction(rng.randrange(-2, 3)) for i in (1, 2, 3)}
        assert not lie.tensor_add(lie.tensor_bracket(u, v), lie.tensor_bracket(v, u))
        assert not lie.dynkin_defect(lie.tensor_bracket(u, v))


def test_dynkin_detects_lie_tensors():
    assert not lie.dynkin_defect({(1, 2): 1, (2, 1): -1})
    assert lie.dynkin_defect({(1, 2): 1})


def test_from_tensor_round_trip_random():
    rng = random.Random(7)
    n, m = 3, 4
    words = lie.lyndon_words(n, m)
    for _ in range(25):
        coords = {w: Fraction(rng.randrange(-3, 4)) for w in rng.sample(words, 5)}
        coords = {w: c for w, c in coords.items() if c}
        assert lie.lie_from_tensor_coords(lyndon_tensor(coords)) == coords
    assert lie.lie_from_tensor_coords({}) == {}
    # an explicit zero entry is not a non-Lyndon leading term
    assert lie.lie_from_tensor_coords({(1, 2): 1, (2, 1): -1, (2, 2): 0}) == {(1, 2): 1}


def test_lyndon_coordinates_round_trip_seeded():
    # random integer Lyndon coordinates survive expansion and conversion,
    # and the left-normed bracket of generators agrees with converting the
    # left-normed tensor bracket of unit tensors
    rng = random.Random(11)
    for n, m in ((2, 5), (3, 3), (4, 2), (4, 3)):
        words = lie.lyndon_words(n, m)
        for _ in range(30):
            support = rng.sample(words, rng.randint(1, min(6, len(words))))
            coords = {w: rng.choice((-3, -2, -1, 1, 2, 3)) for w in support}
            assert lie.lie_from_tensor_coords(lyndon_tensor(coords)) == coords
            omega = tuple(rng.randrange(1, n + 1) for _ in range(m))
            acc = _generator(omega[0])
            for i in omega[1:]:
                acc = lie.tensor_bracket(acc, _generator(i))
            assert lie.left_normed_of_generators(omega) == lie.lie_from_tensor_coords(acc)


def test_from_tensor_rejects_non_lie_with_defect():
    with pytest.raises(lie.NotLieTensorError) as exc:
        lie.lie_from_tensor_coords({(1, 2): Fraction(1)})
    assert exc.value.defect  # the Dynkin defect is attached


def test_to_tensor_vector_and_back():
    v = lie.left_normed_of_generators((1, 2, 3))
    t = exactlin.TensorVector(exactlin.TensorSpace(3, 3), lyndon_tensor(v))
    assert lie.lie_from_tensor_coords(dict(t.coords)) == v


def test_tensor_add_into_matches_add_of_scaled():
    rng = random.Random(5)
    words = [(a, b) for a in (1, 2, 3) for b in (1, 2)]
    for _ in range(300):
        out = {w: rng.choice((-2, -1, 1, 2)) for w in rng.sample(words, rng.randint(0, 4))}
        c = rng.randint(-2, 2)
        # zero entries in b, and with c = +-1 keys whose sum cancels to zero
        b = {w: rng.randint(-2, 2) for w in rng.sample(words, rng.randint(0, 4))}
        if c in (1, -1):
            b.update({w: -c * v for w, v in out.items() if rng.random() < 0.5})
        expected = lie.tensor_add(dict(out), lie.tensor_scale(b, c))
        oracle = {w: s for w in words if (s := out.get(w, 0) + c * b.get(w, 0))}
        result = lie.tensor_add_into(out, b, c)
        assert result is out
        assert result == expected == oracle
