import random

import pytest
from hypothesis import given, settings, strategies as st

from autfilt import autf, commgraph, suites

from helpers import (
    commutes_by_conjugating_both,
    conjugate_path_by_segments,
    parabolic_generators,
    random_handle_pair,
    random_nielsen_word,
)

PATHS_PARAMS = {"n": 5, "m": 2, "trials": 100, "seed": 7, "max_len": 8}


@pytest.fixture
def cold_frame_cache():
    """An empty frame cache, so commutes computes its verdicts instead of
    only reading ones cached by earlier tests."""
    commgraph._commutes_in_frame.cache_clear()


def test_parabolic_generator_enumeration():
    gens = commgraph._standard_generators(3, frozenset({1, 2}))
    assert len(gens) == 4  # 2 * |I| * (|I| - 1)
    expected = {
        autf.make_nielsen(side, a, b, 1, 3)
        for side in ("L", "R")
        for a, b in ((1, 2), (2, 1))
    }
    assert set(gens) == expected


def test_parabolic_generator_count():
    assert len(commgraph._standard_generators(5, frozenset({1, 2, 3}))) == 2 * 3 * 2


def test_conjugated_generators():
    g = autf.make_nielsen("L", 1, 3, 1, 3)
    h = commgraph.handle(3, {1, 2}, (("L", 1, 3, 1),))
    gens = parabolic_generators(h)
    base = commgraph._standard_generators(3, frozenset({1, 2}))
    assert set(gens) == {b.conjugate(g) for b in base}


def test_singleton_handles_rejected(cold_frame_cache):
    for I, J in (({1}, {2, 3}), ({2, 3}, {1})):
        with pytest.raises(ValueError):
            commgraph.commutes(commgraph.handle(3, I), commgraph.handle(3, J))


@pytest.mark.parametrize(
    "indices, letter",
    [
        ({1, 2}, ("L", 1, 9, 1)),  # j out of range
        ({1, 2}, ("R", 0, 2, 1)),  # i out of range
        ({1, 2}, ("L", 1, 2, 1.0)),  # float exponent
        ({1, 2}, ("L", 1, 2, True)),  # bool exponent
        ({1, 2}, ("L", True, 2, 1)),  # bool index
        ({1, 2}, ("L", 1, 2.0, 1)),  # float index
        ({1, 2}, ("X", 1, 2, 1)),  # unknown side
        ({1, 2}, ("L", 1, 2)),  # not four fields
        ({True, 2}, ("L", 1, 2, 1)),  # bool in the index set
        ({1.0, 2}, ("L", 1, 2, 1)),  # float in the index set
    ],
)
def test_malformed_handles_rejected(indices, letter):
    # commutes never evaluates a conjugator suffix that two handles share,
    # so a bad letter must be refused when the handle is built
    with pytest.raises(ValueError):
        commgraph.handle(5, indices, [letter])


def test_commutes_disjoint_supports():
    assert commgraph.commutes(
        commgraph.handle(5, {1, 2}), commgraph.handle(5, {3, 4})
    )


def test_commutes_overlapping_supports():
    assert not commgraph.commutes(
        commgraph.handle(5, {1, 2}), commgraph.handle(5, {2, 3})
    )


def test_self_commutation_fails_for_nonabelian_parabolic():
    h = commgraph.handle(5, {1, 2})
    assert not commgraph.commutes(h, h)


@pytest.mark.parametrize("seed", range(4))
def test_commutes_matches_group_commutator_oracle(seed, cold_frame_cache):
    # images-only check against [g1, g2] = 1, on commuting pairs (disjoint
    # index sets, both handles conjugated alike) and on non-commuting pairs
    # (overlapping index sets)
    rng = random.Random(seed)
    conj = random_nielsen_word(rng, 5, seed)
    i1, i2, i3 = {1, 2}, {3, 4}, {2, 3, 5}
    pairs = ((i1, i2, True), (i2, i1, True), (i1, i3, False), (i3, i2, False))
    for a, b, expected in pairs:
        h1, h2 = commgraph.handle(5, a, conj), commgraph.handle(5, b, conj)
        assert commgraph.commutes(h1, h2) is expected
        assert commutes_by_conjugating_both(h1, h2) is expected


def _check_against_full_conjugation(rng, n, pairs=40):
    """commutes against its full-conjugation oracle on random handle pairs,
    on pairs with one index set, and on consecutive path handles; returns
    the commutation verdicts seen on the random pairs."""
    verdicts = set()
    for _ in range(pairs):
        h1, h2 = random_handle_pair(rng, n)
        got = commgraph.commutes(h1, h2)
        assert got is commutes_by_conjugating_both(h1, h2)
        verdicts.add(got)
        # same index set, with independent conjugators and with conjugators
        # that differ by a prefix letter
        for other in (
            commgraph.handle(n, h1.indices, h2.conjugator),
            commgraph.handle(n, h1.indices, h2.conjugator[:1] + h1.conjugator),
        ):
            assert commgraph.commutes(h1, other) is (
                commutes_by_conjugating_both(h1, other)
            )
    word = random_nielsen_word(rng, n, rng.randint(1, 6))
    hs = commgraph.conjugate_path(n, (1, 2), word)
    for h1, h2 in zip(hs, hs[1:]):
        assert commgraph.commutes(h1, h2) and commutes_by_conjugating_both(h1, h2)
    return verdicts


@pytest.mark.parametrize("n", (5, 6))
def test_commutes_with_different_conjugators_matches_full_conjugation(
    n, cold_frame_cache
):
    rng = random.Random(n)
    verdicts = set()
    for _ in range(3):
        verdicts |= _check_against_full_conjugation(rng, n)
    assert verdicts == {True, False}


@given(st.integers(0, 10_000), st.sampled_from((5, 6)))
@settings(max_examples=40, deadline=None)
def test_commutes_with_different_conjugators_matches_full_conjugation_fuzz(seed, n):
    # a function-scoped fixture would run once for all examples
    commgraph._commutes_in_frame.cache_clear()
    _check_against_full_conjugation(random.Random(seed), n, pairs=4)


def test_shared_suffix_gives_short_relative_conjugator():
    rng = random.Random(40)
    suffix = random_nielsen_word(rng, 5, 40)
    a, b = ("L", 2, 3, 1), ("R", 4, 1, -1)
    I, K = {1, 2}, {4, 5}
    pairs = [
        (commgraph.handle(5, I, suffix), commgraph.handle(5, K, (a,) + suffix)),
        (commgraph.handle(5, I, (a,) + suffix), commgraph.handle(5, K, (b,) + suffix)),
        (commgraph.handle(5, I, (a, b) + suffix), commgraph.handle(5, K, suffix)),
    ]
    for h1, h2 in pairs:
        rel = commgraph._relative_conjugator(h1, h2)
        assert len(rel) <= 2
        assert autf.eval_nielsen_word(rel, 5) == h2.conjugator_automorphism().compose(
            h1.conjugator_automorphism().inverse()
        )


def test_commutes_is_symmetric():
    rng = random.Random(2)
    for _ in range(10):
        i1 = frozenset(rng.sample(range(1, 6), 2))
        i2 = frozenset(rng.sample(range(1, 6), 2))
        h1, h2 = commgraph.handle(5, i1), commgraph.handle(5, i2)
        assert commgraph.commutes(h1, h2) == commgraph.commutes(h2, h1)


def test_good_element_gives_length_zero_path():
    letter = ("L", 4, 5, 1)
    p = commgraph.conjugate_path(5, {1, 2}, (letter,))
    assert p == (commgraph.handle(5, {1, 2}, (letter,)),)


def test_overlapping_element_gives_length_two_path():
    p = commgraph.conjugate_path(5, {1, 2}, (("L", 2, 3, 1),))
    assert [sorted(h.indices) for h in p] == [[1, 2], [4, 5], [1, 2]]
    assert [h.conjugator for h in p] == [(), (), (("L", 2, 3, 1),)]


def test_inside_element_uses_lowest_free_block():
    p = commgraph.conjugate_path(5, {1, 2}, (("L", 1, 2, 1),))
    assert sorted(p[1].indices) == [3, 4]


def test_bound_violation_rejected():
    with pytest.raises(ValueError):
        commgraph.conjugate_path(4, {1, 2}, (("L", 1, 2, 1),))


def test_conjugate_path_empty_word():
    p = commgraph.conjugate_path(5, {1, 2}, ())
    assert len(p) == 1 and p[0].conjugator == ()


def test_conjugate_path_single_generator_matches_edge_path():
    for letter in (("L", 2, 3, 1), ("R", 3, 1, -1), ("L", 4, 5, 1)):
        p = commgraph.conjugate_path(5, {1, 2}, (letter,))
        assert p == conjugate_path_by_segments(5, {1, 2}, (letter,))


def _random_path_case(rng):
    n = rng.randint(5, 7)
    m = rng.randint(2, (n - 1) // 2)
    I = rng.sample(range(1, n + 1), m)
    return n, I, random_nielsen_word(rng, n, rng.randint(0, 9))


def test_conjugate_path_matches_segment_oracle():
    # the oracle labels each detour handle on K by the tail after its
    # letter, and checks every junction by exact equality
    rng = random.Random(24)
    detours = 0
    for _ in range(300):
        n, I, word = _random_path_case(rng)
        hs = commgraph.conjugate_path(n, I, word)
        assert hs == conjugate_path_by_segments(n, I, word)
        detours += (len(hs) - 1) // 2
    assert detours > 300


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_conjugate_path_matches_segment_oracle_fuzz(seed):
    n, I, word = _random_path_case(random.Random(seed))
    hs = commgraph.conjugate_path(n, I, word)
    assert hs == conjugate_path_by_segments(n, I, word)


@pytest.mark.parametrize("length", [0, 1, 40, 200])
def test_conjugate_path_checks_each_letter_once(length, monkeypatch):
    # each handle rechecked its whole tail, so a path cost O(L^2) checks
    calls = []
    check = autf.nielsen_letter
    monkeypatch.setattr(
        autf, "nielsen_letter", lambda letter, n: calls.append(letter) or check(letter, n)
    )
    word = random_nielsen_word(random.Random(length), 7, length)
    hs = commgraph.conjugate_path(7, {1, 2, 3}, [list(l) for l in word])
    assert len(calls) == length
    assert hs == conjugate_path_by_segments(7, {1, 2, 3}, word)
    assert all(type(l) is tuple for h in hs for l in h.conjugator)


def test_conjugate_path_rejects_a_malformed_letter():
    word = [("L", 2, 3, 1), ("L", 3, 3, 1)]
    with pytest.raises(ValueError, match="bad Nielsen letter"):
        commgraph.conjugate_path(5, {1, 2}, word)


def test_conjugate_path_two_letters_verified():
    word = (("L", 2, 3, 1), ("L", 4, 5, 1))
    p = commgraph.conjugate_path(5, {1, 2}, word)
    assert commgraph.verify_path(p)
    assert len(p) - 1 <= 2 * len(word)
    assert p[-1].conjugator == word


def test_verify_rejects_noncommuting_pair():
    bad = (commgraph.handle(5, {1, 2}), commgraph.handle(5, {2, 3}))
    assert not commgraph.verify_path(bad)


def test_verify_accepts_length_zero():
    assert commgraph.verify_path((commgraph.handle(5, {1, 2}),))


def test_verify_rejects_a_step_between_labels_of_one_subgroup():
    # conjugate_path never steps between two labels of one subgroup, so
    # verify_path treats such a step like any other: P_I on two or more
    # indices is not abelian, so it fails the edge test
    h1 = commgraph.handle(5, {1, 2})
    h2 = commgraph.handle(5, {1, 2}, (("L", 3, 4, 1),))  # disjoint conjugator
    h3 = commgraph.handle(5, {1, 2}, (("L", 1, 2, 1),))  # conjugator inside I
    assert parabolic_generators(h1) == parabolic_generators(h2)
    for a, b in ((h1, h2), (h1, h3), (h2, h3)):
        assert not commgraph.verify_path((a, b))
        assert not commutes_by_conjugating_both(a, b)


def test_good_conjugator_fixes_generators_elementwise():
    h1 = commgraph.handle(5, {1, 2})
    h2 = commgraph.handle(5, {1, 2}, (("R", 4, 3, -1),))
    assert parabolic_generators(h1) == parabolic_generators(h2)


def test_random_conjugators_give_verified_paths():
    rng = random.Random(7)
    n, m = 5, 2
    for _ in range(200):
        length = rng.randrange(1, 9)
        word = random_nielsen_word(rng, n, length)
        p = commgraph.conjugate_path(n, range(1, m + 1), word)
        assert len(p) - 1 <= 2 * length
        assert commgraph.verify_path(p)


def test_path_json_shape():
    # the handles' JSON objects, as the assembly report's vertex_order has them
    p = commgraph.conjugate_path(5, {1, 2}, (("L", 2, 3, 1),))
    data = [h.to_json_obj() for h in p]
    assert data[0] == {"I": [1, 2], "conjugator": []}
    assert data[-1]["conjugator"] == [["L", 2, 3, 1]]


@pytest.mark.parametrize(
    "letter",
    [
        ("X", 4, 5, 7),  # unknown side and exponent
        ("L", 4, 5, 1.5),  # float exponent
        ("L", 4, 5, True),  # bool exponent
        ("L", 4, 9, 1),  # j out of range
        ("R", 4, 4, 1),  # i == j
    ],
)
def test_edge_path_rejects_malformed_letter_off_the_index_set(letter):
    # the support {4, 5} or {4, 9} misses I, which must not make a bad
    # letter pass as a length-0 path
    with pytest.raises(ValueError):
        commgraph.conjugate_path(5, {1, 2}, (letter,))


def test_list_letters_give_the_same_handles_and_verdicts():
    word = [["L", 2, 3, 1], ["R", 1, 4, -1]]
    as_tuples = tuple(map(tuple, word))
    h = commgraph.handle(5, {1, 2}, word)
    assert h == commgraph.handle(5, {1, 2}, as_tuples)
    assert commgraph.conjugate_path(5, {1, 2}, word) == (
        commgraph.conjugate_path(5, {1, 2}, as_tuples)
    )
    other = commgraph.handle(5, {4, 5}, [["L", 4, 3, 1]])
    assert commgraph.commutes(h, other) is commutes_by_conjugating_both(h, other)


def _frame_key(h1, h2):
    return h1.rank, h1.indices, h2.indices, commgraph._relative_conjugator(h1, h2)


def _run_recording_commutes(monkeypatch, suite, params):
    """Run a suite on an empty frame cache; returns the number of commutes
    calls and, per frame key, the first handle pair and its verdict."""
    commgraph._commutes_in_frame.cache_clear()
    original = commgraph.commutes
    calls, first = [0], {}

    def recording(h1, h2):
        calls[0] += 1
        verdict = original(h1, h2)
        first.setdefault(_frame_key(h1, h2), (h1, h2, verdict))
        return verdict

    monkeypatch.setattr(commgraph, "commutes", recording)
    suites.run(suite, params)
    monkeypatch.setattr(commgraph, "commutes", original)
    return calls[0], first


@pytest.mark.parametrize(
    "suite, params, calls, distinct",
    [
        ("paths", PATHS_PARAMS, 636, 132),
        ("certificates", {"n": 5, "m": 2}, 64, 43),
    ],
)
def test_suite_decides_each_frame_once(monkeypatch, suite, params, calls, distinct):
    # acceptance parameters: every commutes call goes through the frame
    # cache, and only the first call per frame key computes
    got_calls, first = _run_recording_commutes(monkeypatch, suite, params)
    info = commgraph._commutes_in_frame.cache_info()
    assert got_calls == info.hits + info.misses == calls
    assert info.misses == info.currsize == len(first) == distinct


def test_equal_frames_share_one_cache_entry(cold_frame_cache):
    a, b = ("L", 2, 3, 1), ("R", 4, 1, -1)
    rng = random.Random(12)
    pairs = []
    for _ in range(2):
        suffix = random_nielsen_word(rng, 5, 5)
        pairs.append(
            (
                commgraph.handle(5, {1, 2}, (a,) + suffix),
                commgraph.handle(5, {4, 5}, (b,) + suffix),
            )
        )
    (p1, p2), (q1, q2) = pairs
    assert p1.conjugator != q1.conjugator and p2.conjugator != q2.conjugator
    assert _frame_key(p1, p2) == _frame_key(q1, q2)
    first = commgraph.commutes(p1, p2)
    assert commgraph._commutes_in_frame.cache_info()[:2] == (0, 1)
    assert commgraph.commutes(q1, q2) is first
    assert commgraph._commutes_in_frame.cache_info()[:2] == (1, 1)
    assert first is commutes_by_conjugating_both(p1, p2)
    assert first is commutes_by_conjugating_both(q1, q2)


def test_cached_verdicts_match_oracle_cold_and_warm(monkeypatch):
    firsts = {}
    for suite, params in (("paths", PATHS_PARAMS), ("certificates", {"n": 5, "m": 2})):
        _, first = _run_recording_commutes(monkeypatch, suite, params)
        # verdicts computed on a cold cache, one per frame key
        for h1, h2, verdict in first.values():
            assert verdict is commutes_by_conjugating_both(h1, h2)
        firsts.update(first)
    # the same pairs again, now read from the warmed cache
    for suite, params in (("paths", PATHS_PARAMS), ("certificates", {"n": 5, "m": 2})):
        suites.run(suite, params)
    misses = commgraph._commutes_in_frame.cache_info().misses
    verdicts = set()
    for h1, h2, verdict in firsts.values():
        assert commgraph.commutes(h1, h2) is verdict
        verdicts.add(verdict)
    assert commgraph._commutes_in_frame.cache_info().misses == misses
    assert verdicts == {True, False}
