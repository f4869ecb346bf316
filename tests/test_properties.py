"""Hypothesis property tests for the algebraic invariants."""

import copy
import json
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from autfilt import autf, bnscert, cli, exactlin, lie, magnus, suites
from autfilt.autf import FreeWord

from helpers import (
    REDUCED_BASIS_SPACES,
    ScanningBasis,
    assert_index_matches_rows,
    breadth_first_by_adjacency,
    check_against_min_pivot_oracle,
    check_blocks_match_expansion,
    compose_per_occurrence,
    cyclic_invariant_basis,
    cyclic_shift,
    dual_components,
    has_depth_at_least,
    holders_from_rows,
    is_identity,
    jacobi_sum,
    labeled_rows,
    lyndon_tensor,
    magnus_expand_by_letters,
    packed_by_shift_add,
    random_automorphism,
    random_deep_automorphism,
    random_generator,
    random_vertex_list,
    substitute_per_occurrence,
)

N = 4

letters = st.lists(
    st.tuples(st.integers(1, N), st.sampled_from((1, -1))), max_size=12
)


def _assert_same_reduced(got, checked):
    """got (built by the trusted constructor) equals the word rebuilt through
    the checking constructor and has no adjacent cancelling pair."""
    assert got == checked
    assert all(a != (b[0], -b[1]) for a, b in zip(got.letters, got.letters[1:]))


def _random_single_move_product(rng):
    """A C, M or T factor (single moves), or an S factor (their commutator)."""
    i, j, a, b = rng.sample(range(1, N + 1), 4)
    kind = rng.choice("CMTS")
    if kind == "C":
        return autf.make_magnus_C(i, j, N)
    if kind == "M":
        return autf.make_magnus_M(i, j, a, N)
    if kind == "T":
        tail = [rng.choice((j, a, b)) for _ in range(rng.randint(2, 4))]
        return autf.make_T(i, tail, N)
    return autf.make_S([rng.choice((a, b)) for _ in "mu"], i, j, N)


@given(letters, letters)
@settings(max_examples=150, deadline=None)
def test_free_reduction_confluent(u, v):
    uw, vw = FreeWord(N, u), FreeWord(N, v)
    _assert_same_reduced(uw * vw, FreeWord(N, tuple(u) + tuple(v)))


@given(letters, st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_trusted_words_match_checking_constructor(u, seed):
    uw = FreeWord(N, u)
    _assert_same_reduced(
        uw.inverse(), FreeWord(N, [(i, -s) for i, s in reversed(uw.letters)])
    )
    rng = random.Random(seed)
    phi, psi, g = (random_automorphism(rng, N, rng.randint(0, 5)) for _ in "abc")
    _assert_same_reduced(phi(uw), substitute_per_occurrence(phi.images, uw))
    move = _random_single_move_product(rng)
    for w in move.images + move.inverse_images:
        _assert_same_reduced(w, FreeWord(N, w.letters))
    autf.FreeAutomorphism(N, move.images, move.inverse_images, check=True)
    for got, checked in (
        (phi.compose(psi), compose_per_occurrence(phi, psi)),
        (
            phi.conjugate(g),
            compose_per_occurrence(compose_per_occurrence(g.inverse(), phi), g),
        ),
        (phi.compose(move), compose_per_occurrence(phi, move)),
    ):
        words = zip(
            got.images + got.inverse_images, checked.images + checked.inverse_images
        )
        for a, b in words:
            _assert_same_reduced(a, b)


@given(letters, letters)
@settings(max_examples=100, deadline=None)
def test_magnus_homomorphism(u, v):
    uw, vw = FreeWord(N, u), FreeWord(N, v)
    K = 3
    assert magnus.magnus_expand(uw * vw, K) == magnus.magnus_expand(
        uw, K
    ) * magnus.magnus_expand(vw, K)


@given(st.data(), st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_packed_expansion_matches_letter_oracle(data, rank, cutoff):
    word_letters = data.draw(
        st.lists(
            st.tuples(st.integers(1, rank), st.sampled_from((1, -1))), max_size=40
        )
    )
    w = FreeWord(rank, word_letters)
    assert magnus.magnus_expand(w, cutoff) == magnus_expand_by_letters(w, cutoff)


@given(st.data(), st.integers(1, 5), st.integers(1, cli.MAX_CUTOFF))
@settings(max_examples=150, deadline=None)
def test_packed_blocks_match_shift_add_oracle(data, rank, cutoff):
    # whole (alphabet, nbytes, blocks) triples at every cutoff the CLI
    # takes; the letters are drawn from a random subset of the rank, so
    # alphabets skip letters, shrink to one letter or to none, and
    # all-inverse words come up.  Above cutoff 6 words are short and use
    # at most three letters, since a block holds a^d fields
    small = cutoff > 6
    alphabet = data.draw(
        st.sets(st.integers(1, rank), min_size=1, max_size=3 if small else None)
    )
    signs = data.draw(st.sampled_from(((1, -1), (-1,), (1,))))
    word_letters = data.draw(
        st.lists(
            st.tuples(st.sampled_from(sorted(alphabet)), st.sampled_from(signs)),
            max_size=12 if small else 40,
        )
    )
    w = FreeWord(rank, word_letters)
    assert magnus._packed(w, cutoff) == packed_by_shift_add(w, cutoff)


coeffs = st.integers(-3, 3)


def _degree1(values):
    """The degree-1 Lie element sum_i values[i-1] e_i as a tensor dict."""
    return {(i,): Fraction(c) for i, c in enumerate(values, 1) if c}


@given(st.integers(0, 10_000), st.sampled_from((3, 4)))
@settings(max_examples=60, deadline=None)
def test_depth_and_image_from_blocks_match_full_expansion(seed, n):
    # the random moves include commutators, [x_a^L, x_b^L] and conjugated
    # commutators, whose low degrees cancel
    check_blocks_match_expansion(random_deep_automorphism(random.Random(seed), n))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_breadth_first_matches_adjacency_oracle(seed):
    hs = random_vertex_list(random.Random(seed))
    assert bnscert._breadth_first(hs) == breadth_first_by_adjacency(hs)


@given(st.lists(coeffs, min_size=3, max_size=3), st.lists(coeffs, min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_bracket_antisymmetry(a, b):
    u, v = _degree1(a), _degree1(b)
    assert not lie.tensor_add(lie.tensor_bracket(u, v), lie.tensor_bracket(v, u))


@given(
    st.lists(coeffs, min_size=3, max_size=3),
    st.lists(coeffs, min_size=3, max_size=3),
    st.lists(coeffs, min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_jacobi(a, b, c):
    assert not jacobi_sum(_degree1(a), _degree1(b), _degree1(c))


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_support_subadditive_on_commutators(seed):
    rng = random.Random(seed)
    g = random_generator(rng, 6)
    h = random_generator(rng, 6)
    comm = autf.group_commutator(g, h)
    assert autf.minimal_support(comm) <= (
        autf.minimal_support(g) | autf.minimal_support(h)
    )


def test_disjoint_supports_commute_seeded():
    rng = random.Random(23)
    n = 6
    for _ in range(100):
        I = rng.sample(range(1, n + 1), 2)
        rest = [a for a in range(1, n + 1) if a not in I]
        J = rng.sample(rest, 2)
        g = autf.make_nielsen("L", I[0], I[1], rng.choice((1, -1)), n)
        h = autf.make_magnus_C(J[0], J[1], n)
        assert is_identity(autf.group_commutator(g, h))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_phi_equivariance(seed):
    rng = random.Random(seed)
    n, k = 4, 2
    space = exactlin.MkSpace(n, k)
    a, b = rng.sample(range(1, n + 1), 2)
    E = exactlin.elementary_sl(a, b, n)
    Em = exactlin.induced_on(E, space)
    Et = exactlin.induced_on(E, exactlin.TensorSpace(n, k))
    phi_op = exactlin.phi_operator(n, k)
    v = exactlin.TensorVector.unit(space, rng.choice(space.labels()))
    assert phi_op.apply(Em.apply(v)) == Et.apply(phi_op.apply(v))


@given(st.integers(2, 4), st.integers(2, 4))
@settings(max_examples=20, deadline=None)
def test_invariant_vectors_are_fixed(n, k):
    for v in cyclic_invariant_basis(n, k):
        assert cyclic_shift(v) == v


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_depth_filtration_on_commutators(seed):
    rng = random.Random(seed)
    n = 4
    a = random_generator(rng, n)
    b = random_generator(rng, n)
    da = magnus.johnson_depth(a, 3)
    db = magnus.johnson_depth(b, 3)
    if da and db and da >= 1 and db >= 1:
        c = autf.group_commutator(a, b)
        assert has_depth_at_least(c, da + db, da + db + 1)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_johnson_images_are_lie(seed):
    rng = random.Random(seed)
    n, k = 4, 1
    g = random_generator(rng, n)
    while not autf.is_IA(g):
        g = random_generator(rng, n)
    for v in dual_components(magnus.johnson_image(g, k)).values():
        assert not lie.dynkin_defect(lyndon_tensor(v))


@st.composite
def homogeneous_tensors(draw):
    """A homogeneous int tensor: a Lie element from Lyndon coordinates
    plus up to three random words, which may or may not leave it Lie."""
    n, m = draw(st.integers(2, 3)), draw(st.integers(1, 4))
    words = lie.lyndon_words(n, m)
    t = lyndon_tensor({w: draw(coeffs) for w in draw(st.lists(st.sampled_from(words)))})
    monomials = st.tuples(*[st.integers(1, n)] * m)
    for mono in draw(st.lists(monomials, max_size=3)):
        lie.tensor_add_into(t, {mono: draw(st.integers(-2, 2))}, 1)
    return t


@given(homogeneous_tensors())
@settings(max_examples=200, deadline=None)
def test_lie_conversion_raises_exactly_off_the_dynkin_kernel(t):
    defect = lie.dynkin_defect(t)
    try:
        coords = lie.lie_from_tensor_coords(t)
    except lie.NotLieTensorError as exc:
        assert defect and exc.defect == defect
    else:
        assert not defect and lyndon_tensor(coords) == t


@given(st.sampled_from(REDUCED_BASIS_SPACES), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_reduced_basis_matches_min_pivot_oracle(space, seed):
    check_against_min_pivot_oracle(space, random.Random(seed))


@st.composite
def insert_sequences(draw):
    """A space and coordinate dicts over it, some combinations of earlier ones."""
    space = draw(st.sampled_from(REDUCED_BASIS_SPACES))
    labels = space.labels()
    vectors = []
    for _ in range(draw(st.integers(1, 20))):
        if len(vectors) >= 2 and draw(st.booleans()):
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            vectors.append(lie.tensor_add(lie.tensor_scale(a, draw(coeffs)), b))
        else:
            support = draw(
                st.lists(st.sampled_from(labels), min_size=1, max_size=5, unique=True)
            )
            vectors.append({label: draw(coeffs) for label in support})
    return space, vectors


@given(insert_sequences())
@settings(max_examples=40, deadline=None)
def test_label_index_follows_every_insert(case):
    space, vectors = case
    basis, oracle = exactlin.SubspaceBasis(space), ScanningBasis(space)
    index = space.index
    for coords in vectors:
        vec = exactlin.TensorVector(space, coords)
        assert basis.insert(vec) == oracle.insert(vec)
        assert labeled_rows(basis) == oracle.rows
        assert_index_matches_rows(basis)
        # the position index is the one the labeled oracle's rows give
        oracle_rows = {
            index[p]: {index[l]: c for l, c in row.items()} for p, row in oracle.rows.items()
        }
        kept = {f: pivots for f, pivots in basis._holders.items() if pivots}
        assert kept == holders_from_rows(oracle_rows)


# -- input boundaries: mutated JSON and automorphism text --------------------

REPLACEMENTS = ["x", 1.5, [], {}, None, -1, [1], True]
# a key that no object of the certificate or assembly format holds
UNKNOWN_KEY = "unknown"


def _paths(obj, path=()):
    """The key path of every position in a JSON value."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _paths(value, path + (key,))


def _has_unknown_key(obj):
    return any(path and path[-1] == UNKNOWN_KEY for path in _paths(obj))


@st.composite
def json_mutants(draw, obj):
    """obj with one key deleted, one value replaced, one list truncated or
    UNKNOWN_KEY inserted into one object."""
    obj = copy.deepcopy(obj)
    path = draw(st.sampled_from(list(_paths(obj))))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else obj
    kinds = ["replace"]
    if path and isinstance(parent, dict):
        kinds.append("delete")
    if isinstance(node, list) and node:
        kinds.append("truncate")
    if isinstance(node, dict):
        kinds.append("insert")
    kind = draw(st.sampled_from(kinds))
    if kind == "insert":
        node[UNKNOWN_KEY] = draw(st.sampled_from(REPLACEMENTS))
        return obj
    if kind == "delete":
        del parent[path[-1]]
        return obj
    if kind == "truncate":
        new = node[: draw(st.integers(0, len(node) - 1))]
    else:
        new = draw(st.sampled_from(REPLACEMENTS))
    if not path:
        return new
    parent[path[-1]] = new
    return obj


C12 = autf.c_nielsen_word(1, 2)
CERTIFICATE = json.loads(
    bnscert.assemble_certificate(5, 2, [("C12", C12)])[0].to_json()
)
ASSEMBLY_SPEC = {
    "n": 5,
    "m": 2,
    "targets": [
        {"kind": "C", "args": [1, 2]},
        {"kind": "M", "args": [1, 2, 3], "label": "M123"},
        {"kind": "word", "letters": [list(letter) for letter in C12], "label": "w"},
    ],
    "chi_seed": {autf.format_automorphism(autf.eval_nielsen_word(C12, 5)): "1/2"},
    "chooser_value": 3,
}


@given(json_mutants(CERTIFICATE))
@settings(max_examples=60, deadline=None)
def test_mutated_certificate_gives_verdict_or_value_error(data):
    try:
        cert = bnscert.BnsCertificate.from_json(json.dumps(data))
    except ValueError:
        return
    assert not _has_unknown_key(data)
    assert isinstance(bnscert.check_certificate(cert), bnscert.Verdict)


@given(json_mutants(ASSEMBLY_SPEC))
@settings(max_examples=40, deadline=None)
def test_mutated_assembly_spec_gives_certificate_or_value_error(spec):
    try:
        cert, _ = cli._assemble(spec)
    except ValueError:
        return
    assert not _has_unknown_key(spec)
    assert isinstance(cert, bnscert.BnsCertificate)


_L12, _R23 = autf.make_nielsen("L", 1, 2, 1, 3), autf.make_nielsen("R", 2, 3, -1, 3)
AUTOMORPHISM_TEXTS = [
    tuple(map(autf.format_automorphism, (_L12 * _R23, (_L12 * _R23).inverse()))),
    (autf.format_automorphism(autf.make_T(1, (2, 3), 4)), None),
]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_mutated_automorphism_text_gives_automorphism_or_value_error(data):
    texts = list(data.draw(st.sampled_from(AUTOMORPHISM_TEXTS)))
    which = data.draw(st.sampled_from([p for p, t in enumerate(texts) if t]))
    tokens = texts[which].split()
    at = data.draw(st.integers(0, len(tokens) - 1))
    copies = data.draw(st.sampled_from((0, 2)))  # drop or duplicate the token
    texts[which] = " ".join(tokens[:at] + [tokens[at]] * copies + tokens[at + 1 :])
    try:
        phi = autf.parse_automorphism(*texts)
    except ValueError:
        return
    assert isinstance(phi, autf.FreeAutomorphism)


# -- suite parameters: one value replaced --------------------------------------

SUITE_SMOKE = {
    "iaab": {"n_values": (3,)},
    "tau-identities": {
        "n": 5, "k_values": (2,), "trials": 2, "seed": 7, "subalphabet": (1, 2, 3)
    },
    "kernel-claim": {"n": 4, "k": 2},
    "sp-orbit": {"g_values": (3,), "extended_sp_generators": False},
    "sl-reduction": {"n": 5, "k_values": (2,), "trials": 3, "seed": 7},
    "paths": {"n": 5, "m": 2, "trials": 5, "seed": 7, "max_len": 4},
    "certificates": {"n": 5, "m": 2},
    "depth-table": {"n": 4, "k_values": (2,), "subalphabet": (1, 2)},
}
SUITE_REPLACEMENTS = [0, -1, 1, True, 1.5, "x", ()]
# the values by which a record counts what it sampled or checked
SAMPLE_COUNTS = ("samples", "trials", "checked", "mu_count")


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_mutated_suite_parameters_give_value_error_or_evidence(data):
    suite = data.draw(st.sampled_from(sorted(SUITE_SMOKE)))
    params = dict(SUITE_SMOKE[suite])
    name = data.draw(st.sampled_from(sorted(params)))
    new = data.draw(st.sampled_from(SUITE_REPLACEMENTS))
    if isinstance(params[name], tuple) and data.draw(st.booleans()):
        new = (new,) + params[name][1:]  # replace the first entry only
    params[name] = new
    try:
        report = suites.run(suite, params)
    except ValueError:
        return
    assert report.status == "PASS"
    for record in report.records:
        counts = [record.values[key] for key in SAMPLE_COUNTS if key in record.values]
        assert all(count >= 1 for count in counts), (record.claim, record.values)
