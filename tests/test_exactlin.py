import functools
import itertools
import random
import re
from fractions import Fraction

import pytest

from autfilt import autf, exactlin, lie, magnus
from autfilt.exactlin import (
    MkSpace,
    TensorSpace,
    TensorVector,
    VSpace,
    WedgeSpace,
)

from helpers import (
    REDUCED_BASIS_SPACES,
    assert_index_matches_rows,
    assert_reduced,
    brute_necklace_count,
    check_against_min_pivot_oracle,
    cyclic_invariant_basis,
    cyclic_shift,
    dual_images,
    labeled_rows,
    matrix_of,
    minor,
    operator_on_labels,
    scanning_kernel_rows,
    scanning_orbit_rows,
    subspace_equal,
)


def unit(space, label):
    return TensorVector.unit(space, label)


# -- spaces ------------------------------------------------------------------

SPACES = [
    # (constructor call, descriptor, dimension, first label, last label)
    (lambda: VSpace(3), "V(n=3)", 3, 1, 3),
    (lambda: TensorSpace(3, 2), "T(n=3,m=2)", 9, (1, 1), (3, 3)),
    (lambda: MkSpace(4, 2), "Mk(n=4,k=2)", 80, (1, (1, 1, 2)), (4, (3, 4, 4))),
    (lambda: MkSpace(3, 1), "Mk(n=3,k=1)", 9, (1, (1, 2)), (3, (2, 3))),
    (lambda: WedgeSpace(6, 3), "w3V(n=6)", 20, (1, 2, 3), (4, 5, 6)),
    (lambda: WedgeSpace(4, 2), "w2V(n=4)", 6, (1, 2), (3, 4)),
    (lambda: WedgeSpace(3, 3), "w3V(n=3)", 1, (1, 2, 3), (1, 2, 3)),
]
SPACE_IDS = [row[1] for row in SPACES]


@pytest.mark.parametrize("make, descriptor, dim, first, last", SPACES, ids=SPACE_IDS)
def test_space_family_is_pinned(make, descriptor, dim, first, last):
    space = make()
    labels = space.labels()
    assert space.descriptor == descriptor
    assert space.dimension == len(labels) == dim
    assert (labels[0], labels[-1]) == (first, last)
    assert list(labels) == sorted(labels)
    assert len(set(labels)) == dim
    # one tuple and one position index per space, built once
    assert make().labels() is labels
    assert make().index is space.index
    assert len(space.index) == dim
    assert all(space.index[labels[i]] == i for i in range(dim))


@pytest.mark.parametrize("make", [row[0] for row in SPACES], ids=SPACE_IDS)
def test_space_equality_and_hash_use_family_and_parameters(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_spaces_of_different_families_differ():
    assert VSpace(3) != WedgeSpace(3, 1)
    assert VSpace(3) != TensorSpace(3, 1)
    assert WedgeSpace(6, 2) != WedgeSpace(6, 3)
    with pytest.raises(ValueError):
        unit(VSpace(3), 1) + unit(WedgeSpace(3, 1), (1,))


# -- spans and kernels -------------------------------------------------------


def test_span_dimension():
    v = VSpace(3)
    basis = exactlin.span_basis([unit(v, 1), unit(v, 1) + unit(v, 2)])
    assert basis.dim == 2


def test_zero_entries_are_ignored():
    v = VSpace(3)
    basis = exactlin.SubspaceBasis(v)
    basis.insert(TensorVector(v, {1: 1}))
    assert basis.contains(TensorVector(v, {2: 0}))
    assert basis.insert(TensorVector(v, {2: 0, 3: 1})) == {3: 1}
    assert set(labeled_rows(basis)) == {1, 3}


def test_kernel_of_zero_operator_is_whole_space():
    v = VSpace(3)
    zero = operator_on_labels(v, v, lambda lab: TensorVector(v))
    assert exactlin.kernel_basis(zero).dim == 3


def _random_operator(rng, rank):
    """An integer operator V(4) -> T(3,2) of the given rank (or less): each
    label's image is a random integer combination of rank random images."""
    v, t = VSpace(4), TensorSpace(3, 2)
    labels = t.labels()
    spanning = [
        {lab: rng.randint(-3, 3) for lab in rng.sample(labels, 3)} for _ in range(rank)
    ]
    images = {}
    for lab in v.labels():
        coords = {}
        for row in spanning:
            lie.tensor_add_into(coords, row, rng.randint(-2, 2))
        images[lab] = coords
    return operator_on_labels(v, t, images.__getitem__, name=f"rank<={rank}")


def _kernel_by_rank_nullity(op):
    kernel = exactlin.kernel_basis(op)
    assert_reduced(kernel)
    for row in labeled_rows(kernel).values():
        assert not op.apply(TensorVector(op.space_in, row))
    images = [op.image_of(lab) for lab in op.space_in.labels()]
    rank = exactlin.span_basis(images).dim
    assert kernel.dim == op.space_in.dimension - rank
    return kernel


@pytest.mark.parametrize("rank", [0, 1, 2, 3, 4])
def test_kernel_of_random_integer_operators_by_rank_nullity(rank):
    rng = random.Random(rank)
    for _ in range(20):
        _kernel_by_rank_nullity(_random_operator(rng, rank))
    # the images of labels 1 and 2 repeat as 3 and 4: rank at most 2
    base = _random_operator(rng, 4)
    deficient = operator_on_labels(
        base.space_in, base.space_out, lambda lab: base.image_of((lab - 1) % 2 + 1)
    )
    assert _kernel_by_rank_nullity(deficient).dim >= 2


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (5, 3)])
def test_contraction_kernel_by_rank_nullity_equals_the_orbit(n, k):
    kernel = _kernel_by_rank_nullity(exactlin.phi_operator(n, k))
    _, seeds = _kernel_claim_setup(n, k)
    orbit = exactlin.orbit_saturate(_two_generators_on(MkSpace(n, k)), seeds)
    # a span has one reduced basis, so the kernel claim is row equality
    assert labeled_rows(kernel) == labeled_rows(orbit.basis)


def test_subspace_basis_rejects_a_vector_of_another_space():
    basis = exactlin.w_basis(3, 2)
    stranger = TensorVector(TensorSpace(3, 3), {(1, 2, 3): 1, (2, 3, 1): -1})
    for method in (basis.insert, basis.contains):
        with pytest.raises(ValueError, match=r"T\(n=3,m=2\).*T\(n=3,m=3\)"):
            method(stranger)
        # a coordinate dict went unchecked: {(9, 9): 1} entered the basis
        for coords in ({(9, 9): 1}, {(1, 2): 1}):
            with pytest.raises(ValueError, match=r"T\(n=3,m=2\), vector of .*dict"):
                method(coords)
    assert labeled_rows(basis) == labeled_rows(exactlin.w_basis(3, 2))
    with pytest.raises(ValueError, match="space mismatch"):
        exactlin.span_basis([unit(VSpace(3), 1), unit(VSpace(4), 1)])


def test_subspace_equal_by_mutual_containment():
    v = VSpace(3)
    a = exactlin.span_basis([unit(v, 1) + unit(v, 2), unit(v, 2)])
    b = exactlin.span_basis([unit(v, 1), unit(v, 1) - unit(v, 2)])
    assert subspace_equal(a, b)
    c = exactlin.span_basis([unit(v, 1)])
    assert not subspace_equal(a, c)


def test_space_mismatch_raises():
    with pytest.raises(ValueError):
        unit(VSpace(3), 1) + unit(VSpace(4), 1)


@pytest.mark.parametrize("space", REDUCED_BASIS_SPACES, ids=lambda s: s.descriptor)
def test_reduced_basis_matches_min_pivot_oracle(space):
    rng = random.Random(space.descriptor)
    for _ in range(5):
        check_against_min_pivot_oracle(space, rng)


def test_orbit_and_shift_difference_bases_are_reduced():
    gens, seeds = _kernel_claim_setup(4, 2)
    assert_reduced(exactlin.orbit_saturate(gens, seeds).basis)
    assert_reduced(exactlin.w_basis(3, 3))


@pytest.mark.parametrize("n, k, terms, applications", [(4, 2, 114, 768), (5, 2, 288, 3500)])
def test_orbit_basis_work_is_pinned(n, k, terms, applications):
    # stored terms count the fill-in that reduce and insert pay for
    gens, seeds = _kernel_claim_setup(n, k)
    res = exactlin.orbit_saturate(gens, seeds)
    assert sum(len(row) for row in res.basis.rows.values()) == terms
    assert (res.rounds, res.applications) == (3, applications)


def test_orbit_saturate_rank2():
    v = VSpace(2)
    gens = [exactlin.elementary_sl(1, 2, 2), exactlin.elementary_sl(2, 1, 2)]
    res = exactlin.orbit_saturate(gens, [unit(v, 1)])
    assert res.basis.dim == 2 and res.closed


def _sigma_tau(g):
    """sigma_i and tau_ij (i < j) on VSpace(2g)."""
    ops = []
    for i in range(1, g + 1):
        ops.append(exactlin.sp_generator("sigma", i, g=g))
        ops.extend(exactlin.sp_generator("tau", i, j, g=g) for j in range(i + 1, g + 1))
    return ops


def _sp_wedge3_generators(g):
    return [exactlin.induced_on(op, WedgeSpace(2 * g, 3)) for op in _sigma_tau(g)]


def test_orbit_saturate_matches_saturation_with_inverses():
    # applying the inverses as extra generators spans the same subspace
    mk_gens, mk_seeds = _kernel_claim_setup(4, 2)
    w3_seeds = [unit(WedgeSpace(6, 3), (1, 3, 4))]  # a_1 ^ a_2 ^ b_2
    for gens, seeds in ((mk_gens, mk_seeds), (_sp_wedge3_generators(3), w3_seeds)):
        plain = exactlin.orbit_saturate(gens, seeds)
        both = exactlin.orbit_saturate(gens + [g.inverse for g in gens], seeds)
        assert plain.closed and both.closed
        assert subspace_equal(plain.basis, both.basis)


def _kernel_claim_setup(n, k):
    space = MkSpace(n, k)
    gens = [
        exactlin.induced_on(exactlin.elementary_sl(a, b, n), space)
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        if a != b
    ]
    return gens, [unit(space, (d, w)) for d, w in space.labels() if d not in w]


def _two_generators_on(space):
    n = space.params[0]
    return [exactlin.induced_on(g, space) for g in exactlin.sl_generators(n)]


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (5, 3)])
def test_two_generators_match_all_transvections_on_kernel_claim(n, k):
    # all n(n-1) transvections stay the oracle; a span has one reduced basis
    gens, seeds = _kernel_claim_setup(n, k)
    two = exactlin.orbit_saturate(_two_generators_on(MkSpace(n, k)), seeds)
    assert two.closed
    assert labeled_rows(two.basis) == labeled_rows(exactlin.orbit_saturate(gens, seeds).basis)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_two_generators_match_all_transvections_on_iaab_seed(n):
    space = MkSpace(n, 1)
    gens = [
        exactlin.induced_on(exactlin.elementary_sl(a, b, n), space)
        for a, b in itertools.permutations(range(1, n + 1), 2)
    ]
    seed = magnus.johnson_image(autf.make_magnus_C(1, 2, n), 1)
    two = exactlin.orbit_saturate(_two_generators_on(space), [seed])
    assert two.closed and two.basis.dim == n * n * (n - 1) // 2
    assert labeled_rows(two.basis) == labeled_rows(exactlin.orbit_saturate(gens, [seed]).basis)


@pytest.mark.parametrize(
    "n, k, terms, rounds, applications",
    [(4, 2, 114, 6, 128), (5, 2, 288, 7, 350), (5, 3, 1400, 10, 1250)],
)
def test_two_generator_orbit_work_is_pinned(n, k, terms, rounds, applications):
    _, seeds = _kernel_claim_setup(n, k)
    res = exactlin.orbit_saturate(_two_generators_on(MkSpace(n, k)), seeds)
    assert sum(len(row) for row in res.basis.rows.values()) == terms
    assert (res.rounds, res.applications) == (rounds, applications)


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (5, 3), (6, 3)])
def test_indexed_insert_matches_scanning_oracle_on_kernel_claim(n, k):
    # a span has one reduced basis, so the rows must be identical
    space = MkSpace(n, k)
    _, seeds = _kernel_claim_setup(n, k)
    gens = _two_generators_on(space)
    phi = exactlin.phi_operator(n, k)
    orbit = exactlin.orbit_saturate(gens, seeds).basis
    kernel = exactlin.kernel_basis(phi)
    assert labeled_rows(orbit) == scanning_orbit_rows(gens, seeds)
    assert labeled_rows(kernel) == scanning_kernel_rows(phi)
    assert_index_matches_rows(orbit)
    assert_index_matches_rows(kernel)
    assert subspace_equal(orbit, kernel)


def _induced_test_operators(family):
    if family == "W":
        gens = _sp_wedge3_generators(3) + _two_generators_on(WedgeSpace(4, 2))
    else:
        space = TensorSpace(3, 3) if family == "T" else MkSpace(3, 2)
        gens = _two_generators_on(space)
    return gens + [g.inverse for g in gens]


@pytest.mark.parametrize("family", ["T", "Mk", "W"])
def test_apply_output_agrees_with_checking_constructor(family):
    # apply builds its output with the trusted constructor
    rng = random.Random(family)
    for op in _induced_test_operators(family):
        labels = op.space_in.labels()
        for _ in range(10):
            support = rng.sample(labels, rng.randint(1, 4))
            v = TensorVector(op.space_in, {l: rng.randint(-4, 4) for l in support})
            out = op.apply(v)
            assert out == TensorVector(op.space_out, out.coords)
            assert all(c and type(c) is int for c in out.coords.values())


@pytest.mark.parametrize("family", ["V", "T", "W", "Mk"])
def test_vector_holds_its_row_and_reads_back_its_coords(family):
    # the checking constructor converts labels to positions once; coords
    # is the label view of the row, and apply is linear on it
    rng = random.Random(f"row-{family}")
    if family == "V":
        ops = exactlin.sl_generators(4) + _sigma_tau(2)
        ops += [op.inverse for op in ops]
    else:
        ops = _induced_test_operators(family)
    for op in ops:
        space = op.space_in
        labels = space.labels()
        for _ in range(10):
            support = rng.sample(labels, rng.randint(1, min(4, len(labels))))
            coords = {l: rng.randint(-3, 3) for l in support}
            nonzero = {l: c for l, c in coords.items() if c}
            vec = TensorVector(space, coords)
            assert vec.coords == nonzero
            assert vec.row == {space.index[l]: c for l, c in nonzero.items()}
            trusted = TensorVector._trusted(space, vec.row)
            assert trusted == vec and hash(trusted) == hash(vec)
            expected = TensorVector(op.space_out)
            for label, c in vec.coords.items():
                expected = expected + op.image_of(label).scale(c)
            assert op.apply(vec) == expected


def test_integral_inputs_stay_int():
    op = exactlin.induced_on(exactlin.elementary_sl(1, 2, 4), MkSpace(4, 2))
    vectors = [op.image_of(label) for label in MkSpace(4, 2).labels()]
    phi = autf.make_T(1, (2, 3, 4, 5), 5)
    vectors.append(magnus.johnson_image(phi, 3))
    kernel = exactlin.kernel_basis(exactlin.phi_operator(4, 2))
    coords = [c for v in vectors for c in v.coords.values()]
    coords += [c for row in kernel.rows.values() for c in row.values()]
    assert coords and all(type(c) is int for c in coords)


@pytest.mark.parametrize(
    "value", [Fraction(1, 2), Fraction(2), 0.5, 2.0, True, "1"], ids=repr
)
def test_vectors_hold_ints_only(value):
    # an integral Fraction or float is rejected too, and True is not 1
    message = re.escape(f"coefficient of 1 is not an int: {value!r}")
    with pytest.raises(ValueError, match=message):
        TensorVector(VSpace(1), {1: value})
    for vec in (unit(VSpace(2), 1), TensorVector(VSpace(2))):
        with pytest.raises(ValueError, match="scalar is not an int"):
            vec.scale(value)


@pytest.mark.parametrize("value", [3.0, True, -1, "3", None], ids=repr)
def test_space_sizes_are_nonnegative_ints(value):
    # 3.0 hashes like 3, so it would share the label caches of V(n=3);
    # True is not 1, and no size is negative
    cases = [
        ("n", lambda: VSpace(value)),
        ("n", lambda: TensorSpace(value, 2)),
        ("m", lambda: TensorSpace(3, value)),
        ("n", lambda: MkSpace(value, 2)),
        ("k", lambda: MkSpace(5, value)),
        ("n", lambda: WedgeSpace(value, 2)),
        ("m", lambda: WedgeSpace(4, value)),
        ("n", lambda: exactlin.elementary_sl(1, 2, value)),
        ("n", lambda: exactlin.sl_generators(value)),
        ("g", lambda: exactlin.sp_generator("sigma", 1, g=value)),
        ("g", lambda: exactlin.sp_generator("tau", 1, 2, g=value)),
        ("g", lambda: exactlin.sp_transvection({1: 1}, value)),
        ("g", lambda: exactlin.extended_sp_generators(value)),
    ]
    for name, build in cases:
        message = re.escape(f"{name} must be a nonnegative int, got {value!r}")
        with pytest.raises(ValueError, match=message):
            build()
    assert VSpace(0).labels() == () and exactlin.extended_sp_generators(0) == []


@pytest.mark.parametrize(
    "make, descriptor, dimension",
    [
        (lambda: VSpace(500_001), "V(n=500001)", 500_001),
        (lambda: TensorSpace(10, 6), "T(n=10,m=6)", 10**6),
        (lambda: WedgeSpace(40, 5), "w5V(n=40)", 658_008),
        # MkSpace(5, 8) took 2 s and 333 MB to enumerate; MkSpace(5, 9),
        # which `verify sl-reduction --k 9` built, never finished
        (lambda: MkSpace(5, 8), "Mk(n=5,k=8)", 1_085_000),
        (lambda: MkSpace(5, 9), "Mk(n=5,k=9)", 4_881_240),
    ],
    ids=["V", "T", "W", "Mk(5,8)", "Mk(5,9)"],
)
def test_spaces_over_the_dimension_bound_are_rejected_before_any_label(
    make, descriptor, dimension
):
    before = exactlin._labels.cache_info().misses
    message = (
        f"{descriptor} has dimension {dimension}, over the bound "
        f"exactlin.MAX_DIMENSION = {exactlin.MAX_DIMENSION}"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
    assert exactlin._labels.cache_info().misses == before


@pytest.mark.parametrize(
    "make, dimension",
    [
        (lambda: VSpace(exactlin.MAX_DIMENSION), exactlin.MAX_DIMENSION),
        (lambda: TensorSpace(79, 3), 493_039),
        (lambda: WedgeSpace(40, 4), 91_390),
        (lambda: MkSpace(5, 7), 243_750),
        (lambda: MkSpace(7, 5), 136_808),
    ],
    ids=["V", "T", "W", "Mk(5,7)", "Mk(7,5)"],
)
def test_spaces_up_to_the_dimension_bound_are_admitted(make, dimension):
    # the dimension is the closed form; no label is enumerated to give it
    assert make().dimension == dimension


def test_closed_form_dimension_counts_the_labels():
    for n, m in itertools.product(range(5), range(5)):
        for space in (TensorSpace(n, m), WedgeSpace(n, m), MkSpace(n, m)):
            assert space.dimension == len(space.labels()), space.descriptor


def test_induced_images_match_unmemoised_product():
    space = MkSpace(4, 2)
    base = exactlin.elementary_sl(1, 2, 4)
    op = exactlin.induced_on(base, space)
    dual = dual_images(base)
    image = exactlin._image_function(base)
    for d, w in space.labels():
        lie_coords = exactlin._act_on_lyndon_word(image, w)
        expected = {
            (c, ww): dc * cw for c, dc in dual[d].items() for ww, cw in lie_coords.items()
        }
        assert op.image_of((d, w)) == TensorVector(space, expected)


def test_orbit_saturate_requires_inverse():
    v = VSpace(2)
    bad = operator_on_labels(v, v, lambda lab: unit(v, lab))
    with pytest.raises(ValueError):
        exactlin.orbit_saturate([bad], [unit(v, 1)])


def _assert_trusted_rows(op):
    """Every image row of op, as image_row gives it before any cache or sum,
    holds nonzero ints at positions of its space_out; for an endomorphism,
    its inverse witness undoes it on every position."""
    for p in range(op.space_in.dimension):
        row = op.image_row(p)
        assert all(type(c) is int and c for c in row.values()), (op, p, row)
        assert row.keys() <= set(range(op.space_out.dimension)), (op, p, row)
        if op.space_in == op.space_out:
            assert op.inverse._apply_row(row) == {p: 1}, (op, p)


def test_every_operator_builder_gives_trusted_rows_and_inverse_witness():
    # the symplectic generators at g = 2 share VSpace(4) with SL_4
    g = 2
    n = 2 * g
    v_ops = (
        [exactlin.elementary_sl(i, j, n) for i, j in itertools.permutations(range(1, n + 1), 2)]
        + exactlin.sl_generators(n)
        + _sigma_tau(g)
        + exactlin.extended_sp_generators(g)
    )
    spaces = [TensorSpace(n, 2), WedgeSpace(n, 2), WedgeSpace(n, 3), MkSpace(n, 2)]
    ops = v_ops + [exactlin.induced_on(op, space) for op in v_ops for space in spaces]
    for op in ops:
        _assert_trusted_rows(op)
        _assert_trusted_rows(op.inverse)
        assert op.inverse.inverse is op
    _assert_trusted_rows(exactlin.phi_operator(4, 2))


def test_orbit_output_is_generator_stable():
    n = 3
    space = MkSpace(n, 1)
    gens = [
        exactlin.induced_on(exactlin.elementary_sl(a, b, n), space)
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        if a != b
    ]
    seed = magnus.johnson_image(autf.make_magnus_C(1, 2, n), 1)
    basis = exactlin.orbit_saturate(gens, [seed]).basis
    for op in gens:
        for row in labeled_rows(basis).values():
            assert basis.contains(op.apply(TensorVector(space, row)))


# -- the contraction ---------------------------------------------------------


def test_phi_on_bracket():
    # contraction of e1* with [e1, e2] leaves e2
    m1 = exactlin.e_delta(3, 1, 1, (1, 2))
    assert exactlin.tau_map(m1) == TensorVector(TensorSpace(3, 1), {(2,): 1})


@pytest.mark.parametrize(
    "dual_index, tail",
    [(9, (1, 2)), (0, (1, 2)), (True, (1, 2)), (1, (1, 4)), (1, (0, 2)), (1, (1, 2.0))],
)
def test_e_delta_rejects_out_of_range_indices(dual_index, tail):
    with pytest.raises(ValueError, match="not an int in 1..3"):
        exactlin.e_delta(3, 1, dual_index, tail)


@pytest.mark.parametrize(
    "space, label",
    [
        (MkSpace(3, 1), (9, (1, 2))),
        (MkSpace(3, 1), (1, (2, 1))),
        (VSpace(3), 0),
        (TensorSpace(3, 2), (1, 2, 3)),
        (WedgeSpace(4, 2), (2, 1)),
        (WedgeSpace(4, 2), (1, 1)),
    ],
)
def test_tensor_vector_rejects_labels_outside_its_space(space, label):
    with pytest.raises(ValueError, match="labels not in"):
        TensorVector(space, {label: 1, space.labels()[0]: 1})
    assert TensorVector(space, {label: 0}) == TensorVector(space)


@pytest.mark.parametrize(
    "vec",
    [
        TensorVector(TensorSpace(3, 2), {(1, 2): 1}),
        TensorVector(VSpace(3), {1: 1}),
        TensorVector(TensorSpace(3, 1)),
    ],
)
def test_tau_map_rejects_non_mk_vectors(vec):
    with pytest.raises(ValueError, match="tau_map does not apply"):
        exactlin.tau_map(vec)


def test_phi_kills_rows_avoiding_dual_index():
    n, k = 4, 2
    for d in range(1, n + 1):
        for w in lie.lyndon_words(n, k + 1):
            if d in w:
                continue
            assert not exactlin.tau_map(unit(MkSpace(n, k), (d, w)))


def test_phi_of_leading_row_is_plain_tensor():
    # e_i* against the left-normed bracket (e_i, e_eps) contracts to e_eps
    n, k = 5, 3
    for i, eps in ((1, (2, 3, 4)), (2, (3, 3, 5)), (4, (1, 5, 2))):
        vec = exactlin.e_delta(n, k, i, (i,) + eps)
        assert exactlin.tau_map(vec) == TensorVector(TensorSpace(n, k), {eps: 1})


def test_phi_equivariance_sampled():
    rng = random.Random(3)
    n, k = 4, 2
    space = MkSpace(n, k)
    phi_op = exactlin.phi_operator(n, k)
    labels = space.labels()
    for _ in range(40):
        a, b = rng.sample(range(1, n + 1), 2)
        E = exactlin.elementary_sl(a, b, n)
        Em = exactlin.induced_on(E, space)
        Et = exactlin.induced_on(E, TensorSpace(n, k))
        v = unit(space, rng.choice(labels))
        assert phi_op.apply(Em.apply(v)) == Et.apply(phi_op.apply(v))


def test_tau_of_t_and_s_families():
    n = 5
    assert not exactlin.tau_map(
        magnus.johnson_image(autf.make_T(1, (2, 3, 4), n), 2)
    )
    got = exactlin.tau_map(magnus.johnson_image(autf.make_S((1, 2), 3, 4, n), 2))
    assert got == TensorVector(TensorSpace(n, 2), {(1, 2): 1, (2, 1): -1})


# -- cyclic shift and the two shift-related subspaces ------------------------


def test_cyclic_shift_basis_action():
    t = TensorSpace(3, 2)
    assert cyclic_shift(unit(t, (1, 2))) == unit(t, (2, 1))


def test_invariant_basis_dimension_and_fixedness():
    # the pointwise shift-invariant subspace has necklace-count dimension
    for n, k in ((3, 2), (3, 3), (4, 2)):
        basis = cyclic_invariant_basis(n, k)
        assert len(basis) == brute_necklace_count(n, k)
        for v in basis:
            assert cyclic_shift(v) == v
    assert len(cyclic_invariant_basis(3, 2)) == 6


def test_w_basis_dimension_and_stability():
    # the shift-difference span is a complement of the invariants and is
    # stable under the shift as a subspace
    for n, k in ((3, 2), (3, 3), (5, 2)):
        w = exactlin.w_basis(n, k)
        assert w.dim == n ** k - brute_necklace_count(n, k)
        for row in labeled_rows(w).values():
            assert w.contains(cyclic_shift(TensorVector(TensorSpace(n, k), row)))


def test_shift_differences_span_w():
    # differences of a monomial and its shift generate the whole space W,
    # including the backward differences realized by the s-family values
    n, k = 3, 3
    w = exactlin.w_basis(n, k)
    t = TensorSpace(n, k)
    for mono in t.labels():
        back = mono[-1:] + mono[:-1]
        assert w.contains(unit(t, mono) - unit(t, back))


# -- elementary transvections and their lifts --------------------------------


def test_elementary_action_on_v():
    E = exactlin.elementary_sl(1, 2, 3)
    v = VSpace(3)
    assert E.apply(unit(v, 1)) == unit(v, 1)
    assert E.apply(unit(v, 2)) == unit(v, 2) + unit(v, 1)
    assert E.inverse.apply(E.apply(unit(v, 2))) == unit(v, 2)


def test_elementary_action_on_dual():
    # the inverse transpose: e_1^* -> e_1^* - e_2^*, e_2^* fixed
    dual = dual_images(exactlin.elementary_sl(1, 2, 3))
    assert dual[1] == {1: 1, 2: -1}
    assert dual[2] == {2: 1}


def test_elementary_rejects_equal_indices():
    with pytest.raises(ValueError):
        exactlin.elementary_sl(1, 1, 3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: exactlin.elementary_sl(True, 2, 3),
        lambda: exactlin.elementary_sl(1, 2.0, 3),
        lambda: exactlin.elementary_sl(1, 4, 3),
        lambda: exactlin.sp_generator("sigma", 1.0, g=2),
        lambda: exactlin.sp_generator("sigma", True, g=2),
        lambda: exactlin.sp_generator("tau", 1, 2.0, g=2),
        lambda: exactlin.sp_generator("tau", 2, True, g=2),
    ],
    ids=["sl-bool", "sl-float", "sl-range", "sigma-float", "sigma-bool", "tau-float",
         "tau-bool"],
)
def test_generator_indices_are_ints_in_range(make):
    # elementary_sl(True, 2, 3) mapped e_2 to {2: 1, True: 1}, and
    # sp_generator("sigma", 1.0, g=2) moved a_1 to the label 2.0
    with pytest.raises(ValueError, match="is not an int in"):
        make()


@pytest.mark.parametrize(
    "base, space",
    [
        # E(4,5) on V(5) lifted to Mk(n=3) gave an operator fixing every label
        (exactlin.elementary_sl(4, 5, 5), MkSpace(3, 1)),
        (exactlin.elementary_sl(1, 2, 3), VSpace(2)),
        (exactlin.elementary_sl(1, 2, 3), TensorSpace(4, 2)),
        (exactlin.sp_generator("sigma", 1, g=2), WedgeSpace(6, 3)),
        (exactlin.phi_operator(3, 1), MkSpace(3, 1)),
    ],
    ids=["E45-on-Mk3", "E12-on-V2", "E12-on-T4", "sigma-g2-on-w3V6", "Phi-on-Mk3"],
)
def test_induced_on_rejects_a_base_of_another_v(base, space):
    with pytest.raises(ValueError, match="is not an endomorphism of V"):
        exactlin.induced_on(base, space)


def _product_images(*ops):
    """Images of the basis of V under ops[0] o ops[1] o ... o ops[-1]."""
    space = ops[0].space_in
    out = {}
    for label in space.labels():
        vec = unit(space, label)
        for op in reversed(ops):
            vec = op.apply(vec)
        out[label] = vec
    return out


@pytest.mark.parametrize("n", range(2, 7))
def test_sl_generators_generate(n):
    # the steps of the generation argument in the sl_generators docstring
    E = functools.partial(exactlin.elementary_sl, n=n)
    e12, p = exactlin.sl_generators(n)
    space = VSpace(n)
    identity = {label: unit(space, label) for label in space.labels()}
    assert _product_images(e12) == _product_images(E(1, 2))
    assert _product_images(p, p.inverse) == identity
    sign = (-1) ** (n - 1)
    assert _product_images(*[p] * n) == {l: v.scale(sign) for l, v in identity.items()}
    for i, j in itertools.permutations(range(1, n), 2):
        assert _product_images(p, E(i, j), p.inverse) == _product_images(E(i + 1, j + 1))
    for i, j, l in itertools.permutations(range(1, n + 1), 3):
        a, b = E(i, j), E(j, l)
        assert _product_images(a, b, a.inverse, b.inverse) == _product_images(E(i, l))


def test_c_count():
    assert exactlin.c_count((1, (2, 3, 4))) == 0
    assert exactlin.c_count((1, (1, 2, 1))) == 2
    assert exactlin.c_count((2, (2, 2, 2))) == 3


def test_z_reduction_sampled_deltas():
    cases = [
        (5, 2, (1, (1, 2, 1)), 3),
        (5, 2, (2, (2, 2, 2)), 4),
        (5, 3, (1, (1, 3, 1, 4)), 2),
        (5, 3, (4, (4, 4, 1, 4)), 2),
    ]
    for n, k, delta, fresh in cases:
        r = exactlin.z_reduction_check(n, k, delta, fresh)
        assert r.ok
        assert r.leading_coefficient == 2 ** r.c_value - 2


def test_closing_identity_and_negative_control():
    assert exactlin.closing_identity_check(4, 2, 1, 2, (3, 4))
    assert exactlin.closing_identity_check(5, 3, 1, 2, (3, 4, 5))
    assert not exactlin.closing_identity_check(4, 2, 1, 2, (3, 4), mutate_sign=True)


def test_kernel_claim_small():
    rep = exactlin.kernel_claim_check(4, 2)
    assert rep.equal and rep.seeds_in_kernel and rep.saturation_closed
    assert rep.ambient_dimension == 80
    assert rep.kernel_dimension == 64


@pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (5, 3), (6, 3)])
def test_kernel_claim_dimension_is_the_kernel_basis_dimension(n, k):
    # the claim counts the kernel by rank-nullity; kernel_basis builds one
    rep = exactlin.kernel_claim_check(n, k)
    assert rep.kernel_dimension == exactlin.kernel_basis(exactlin.phi_operator(n, k)).dim


def test_kernel_claim_reaches_n6_k3():
    rep = exactlin.kernel_claim_check(6, 3)
    assert (rep.ambient_dimension, rep.seed_count) == (1890, 900)
    assert rep.orbit_dimension == rep.kernel_dimension == 1674
    assert rep.equal and rep.seeds_in_kernel and rep.saturation_closed


def test_kernel_claim_has_no_early_stop_mode():
    with pytest.raises(ValueError, match="early-stop saturation mode is gone"):
        exactlin.kernel_claim_check(4, 2, full_closure=False)


# -- symplectic layer --------------------------------------------------------


def test_sigma_has_order_four():
    g = 2
    sig = exactlin.sp_generator("sigma", 1, g=g)
    space = VSpace(2 * g)
    for lab in space.labels():
        v = unit(space, lab)
        w = v
        for _ in range(4):
            w = sig.apply(w)
        assert w == v


def test_sp_generators_preserve_form():
    g = 3
    assert exactlin.preserves_symplectic_form(exactlin.sp_generator("sigma", 2, g=g))
    assert exactlin.preserves_symplectic_form(exactlin.sp_generator("tau", 1, 3, g=g))
    for t in exactlin.extended_sp_generators(2):
        assert exactlin.preserves_symplectic_form(t)


def test_symplectic_pairing_on_the_int_basis():
    # a_i = 2i - 1 and b_i = 2i: <a_i, b_i> = 1 = -<b_i, a_i>, all else 0
    space = VSpace(6)
    pairs = {(1, 2): 1, (2, 1): -1, (3, 4): 1, (4, 3): -1, (5, 6): 1, (6, 5): -1}
    for x, y in itertools.product(space.labels(), repeat=2):
        form = exactlin.symplectic_pairing(unit(space, x).row, unit(space, y).row)
        assert form == pairs.get((x, y), 0)


def test_tau_lift_identity_with_spectator():
    g = 3
    w3 = WedgeSpace(2 * g, 3)
    tau12 = exactlin.induced_on(exactlin.sp_generator("tau", 1, 2, g=g), w3)
    # a_1 ^ b_1 ^ b_3 -> a_1 ^ b_1 ^ b_3 + a_1 ^ a_2 ^ b_3 (b_3 = 6 is fixed)
    lhs = tau12.apply(unit(w3, (1, 2, 6)))
    assert lhs == unit(w3, (1, 2, 6)) + unit(w3, (1, 3, 6))


def test_sigma_lift_identity():
    g = 3
    w3 = WedgeSpace(2 * g, 3)
    sig1 = exactlin.induced_on(exactlin.sp_generator("sigma", 1, g=g), w3)
    # a_1 ^ a_2 ^ b_3 -> b_1 ^ a_2 ^ b_3
    assert sig1.apply(unit(w3, (1, 3, 6))) == unit(w3, (2, 3, 6))


def test_wedge_induced_action_is_multiplicative_sampled():
    g = 2
    rng = random.Random(9)
    ops = [
        exactlin.sp_generator("sigma", 1, g=g),
        exactlin.sp_generator("sigma", 2, g=g),
        exactlin.sp_generator("tau", 1, 2, g=g),
    ]
    w2 = WedgeSpace(2 * g, 2)
    for _ in range(20):
        a, b = rng.choice(ops), rng.choice(ops)
        la, lb = exactlin.induced_on(a, w2), exactlin.induced_on(b, w2)
        lifted_product = exactlin.induced_on(_compose_base(a, b, g), w2)
        for lab in w2.labels():
            v = unit(w2, lab)
            # lift of the composite equals the composite of the lifts
            assert la.apply(lb.apply(v)) == lifted_product.apply(v)


def _compose_base(a, b, g):
    space = VSpace(2 * g)

    def fn(label):
        return a.apply(b.image_of(label))

    def fn_inv(label):
        return b.inverse.apply(a.inverse.image_of(label))

    op = operator_on_labels(space, space, fn, "comp")
    op.inverse = operator_on_labels(space, space, fn_inv, "comp^-1")
    op.inverse.inverse = op
    return op


def _assert_wedge_action_is_minors(base, m):
    """Cauchy-Binet: the coefficient of e_J in g e_I on wedge^m is det g[J, I]."""
    space = WedgeSpace(base.space_in.dimension, m)
    lifted = exactlin.induced_on(base, space)
    matrix = matrix_of(base)
    for I in space.labels():
        minors = {J: minor(matrix, J, I) for J in space.labels()}
        assert lifted.image_of(I).coords == {J: d for J, d in minors.items() if d}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("g", [2, 3])
def test_wedge_action_of_sp_generators_is_minors(g, m):
    ops = _sigma_tau(g) + exactlin.extended_sp_generators(g)
    for op in ops + [op.inverse for op in ops]:
        _assert_wedge_action_is_minors(op, m)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_wedge_action_of_sl_generators_is_minors(n, m):
    for op in exactlin.sl_generators(n):
        _assert_wedge_action_is_minors(op, m)
        _assert_wedge_action_is_minors(op.inverse, m)


def test_wedge3_orbit_dimensions():
    for g, expected in ((3, 20), (4, 56)):
        space = WedgeSpace(2 * g, 3)
        assert space.dimension == expected
        seed = unit(space, (1, 3, 4))
        res = exactlin.orbit_saturate(_sp_wedge3_generators(g), [seed])
        assert res.basis.dim == expected and res.closed
