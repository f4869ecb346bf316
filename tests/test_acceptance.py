"""Acceptance criteria, one test per criterion with its wall-time budget.

Every check is exact (integer or rational equality); the budgets are the
stated limits, not tuned to this machine.  Each test prints one summary
line (visible with pytest -s or in failure output).
"""

import random
import time
from fractions import Fraction

from autfilt import autf, exactlin, lie, magnus, suites
from autfilt.autf import FreeWord

from helpers import (
    brute_lyndon_count,
    cyclic_invariant_basis,
    cyclic_shift,
    is_identity,
    jacobi_sum,
    labeled_rows,
    random_generator,
    random_word,
    witt_dimension,
)
from test_reports import assert_matches_committed


def _announce(number, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(
        f"ACCEPTANCE {number} ({name}): {status} in {elapsed:.1f}s "
        f"(budget {budget}s) {detail}"
    )
    assert ok, f"criterion {number} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def test_c1_degree1_image_spans():
    t0 = time.perf_counter()
    expected = {3: (9, 6), 4: (24, 12), 5: (50, 20)}
    ok = True
    details = []
    for n, (full_dim, conj_dim) in expected.items():
        vecs_c = [
            magnus.johnson_image(autf.make_magnus_C(i, j, n), 1)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j
        ]
        vecs_m = [
            magnus.johnson_image(autf.make_magnus_M(i, j, k, n), 1)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            for k in range(1, n + 1)
            if len({i, j, k}) == 3
        ]
        full = exactlin.span_basis(vecs_c + vecs_m).dim
        conj = exactlin.span_basis(vecs_c).dim
        ok = ok and full == full_dim and conj == conj_dim and conj < full
        details.append(f"n={n}: full={full}/{full_dim} conj={conj}/{conj_dim}")
    _announce(1, "degree1-image-spans", ok, time.perf_counter() - t0, 10, "; ".join(details))


def test_c2_single_conjugation_orbit_spans():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (3, 4, 5):
        space = exactlin.MkSpace(n, 1)
        gens = [
            exactlin.induced_on(exactlin.elementary_sl(a, b, n), space)
            for a in range(1, n + 1)
            for b in range(1, n + 1)
            if a != b
        ]
        seed = magnus.johnson_image(autf.make_magnus_C(1, 2, n), 1)
        res = exactlin.orbit_saturate(gens, [seed])
        expected = n * n * (n - 1) // 2
        ok = ok and res.basis.dim == expected and res.closed
        details.append(f"n={n}: {res.basis.dim}/{expected}")
    _announce(2, "single-conjugation-orbit", ok, time.perf_counter() - t0, 30, "; ".join(details))


def test_c3_tau_identities():
    t0 = time.perf_counter()
    report = suites.run(
        "tau-identities",
        {"n": 5, "k_values": (2, 3), "trials": 50, "seed": 7, "subalphabet": (1, 2, 3)},
    )
    ok = all(r.status == "PASS" for r in report.records)
    detail = "; ".join(f"{r.claim}={r.status}" for r in report.records)
    _announce(3, "tau-identities", ok, time.perf_counter() - t0, 180, detail)
    assert_matches_committed("01-tau-identities-n5.json", report.to_json() + "\n")


def test_c4_kernel_claim():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n, k in ((4, 2), (5, 2), (5, 3)):
        rep = exactlin.kernel_claim_check(n, k, full_closure=True)
        ok = ok and rep.equal and rep.seeds_in_kernel and rep.saturation_closed
        details.append(
            f"(n={n},k={k}): orbit={rep.orbit_dimension} kernel={rep.kernel_dimension} "
            f"ambient={rep.ambient_dimension}"
        )
    _announce(4, "kernel-claim", ok, time.perf_counter() - t0, 300, "; ".join(details))


def test_c5_sl_reduction_steps():
    t0 = time.perf_counter()
    report = suites.run(
        "sl-reduction", {"n": 5, "k_values": (2, 3), "trials": 20, "seed": 7}
    )
    ok = all(r.status == "PASS" for r in report.records)
    detail = "; ".join(f"{r.claim}={r.status}" for r in report.records)
    _announce(5, "sl-reduction", ok, time.perf_counter() - t0, 60, detail)


def test_c6_symplectic_suite():
    t0 = time.perf_counter()
    report = suites.run("sp-orbit", {"g_values": (3, 4)})
    # a stalled saturation would be INCONCLUSIVE, not FAIL; the acceptance
    # claim is that the span is actually reached, so require PASS outright
    ok = all(r.status == "PASS" for r in report.records)
    detail = "; ".join(f"{r.claim}={r.status}" for r in report.records)
    _announce(6, "symplectic-suite", ok, time.perf_counter() - t0, 120, detail)


def test_c7_depth_table():
    t0 = time.perf_counter()
    report = suites.run("depth-table", {"n": 5, "k_values": (2, 3)})
    ok = all(r.status == "PASS" for r in report.records)
    detail = "; ".join(f"{r.claim}={r.status}" for r in report.records)
    _announce(7, "depth-table", ok, time.perf_counter() - t0, 120, detail)
    assert_matches_committed("09-depth-table-n5.json", report.to_json() + "\n")


def test_c8_path_suite():
    t0 = time.perf_counter()
    report = suites.run(
        "paths", {"n": 5, "m": 2, "trials": 100, "seed": 7, "max_len": 8}
    )
    ok = all(r.status == "PASS" for r in report.records)
    detail = "; ".join(f"{r.claim}={r.status}" for r in report.records)
    _announce(8, "path-suite", ok, time.perf_counter() - t0, 60, detail)
    assert_matches_committed("07-paths-n5.json", report.to_json() + "\n")


def test_c9_certificate_suite():
    t0 = time.perf_counter()
    report = suites.run("certificates", {"n": 5, "m": 2})
    ok = all(r.status == "PASS" for r in report.records)
    detail = "; ".join(f"{r.claim}={r.status}" for r in report.records)
    _announce(9, "certificate-suite", ok, time.perf_counter() - t0, 30, detail)
    assert_matches_committed("08-certificates-n5.json", report.to_json() + "\n")


def test_c10_property_suites():
    t0 = time.perf_counter()
    cases = 200
    failures = []

    # free-reduction confluence
    rng = random.Random(101)
    n = 4
    for _ in range(cases):
        u = [(rng.randrange(1, n + 1), rng.choice((1, -1))) for _ in range(rng.randrange(0, 12))]
        v = [(rng.randrange(1, n + 1), rng.choice((1, -1))) for _ in range(rng.randrange(0, 12))]
        if FreeWord(n, u) * FreeWord(n, v) != FreeWord(n, tuple(u) + tuple(v)):
            failures.append("free-reduction-confluence")
            break

    # Magnus homomorphism property
    rng = random.Random(102)
    for _ in range(cases):
        u = random_word(rng, 3, rng.randrange(0, 8))
        v = random_word(rng, 3, rng.randrange(0, 8))
        if magnus.magnus_expand(u * v, 4) != magnus.magnus_expand(u, 4) * magnus.magnus_expand(v, 4):
            failures.append("magnus-homomorphism")
            break

    # Jacobi and antisymmetry on tensor dicts
    rng = random.Random(103)
    br = lie.tensor_bracket
    for _ in range(cases):
        u, v, w = (
            {(i,): Fraction(rng.randrange(-3, 4)) for i in (1, 2, 3)}
            for _ in range(3)
        )
        uv, vw, wu = br(u, v), br(v, w), br(w, u)
        # every bracket is a Lie tensor (the conversion is the Lie test)
        for t in (uv, vw, wu, br(u, vw), br(v, wu), br(w, uv)):
            lie.lie_from_tensor_coords(t)
        if lie.tensor_add(uv, br(v, u)):
            failures.append("antisymmetry")
            break
        if jacobi_sum(u, v, w):
            failures.append("jacobi")
            break

    # Witt dimensions for n <= 6, m <= 5 (full deterministic grid, counted
    # against the brute rotation-minimality oracle)
    for n_ in range(1, 7):
        for m_ in range(1, 6):
            if len(lie.lyndon_words(n_, m_)) != witt_dimension(n_, m_):
                failures.append(f"witt({n_},{m_})")
            if witt_dimension(n_, m_) != brute_lyndon_count(n_, m_):
                failures.append(f"witt-brute({n_},{m_})")

    # support subadditivity on commutators
    rng = random.Random(104)
    for _ in range(cases):
        g, h = random_generator(rng, 6), random_generator(rng, 6)
        comm = autf.group_commutator(g, h)
        if not autf.minimal_support(comm) <= (
            autf.minimal_support(g) | autf.minimal_support(h)
        ):
            failures.append("support-subadditivity")
            break

    # disjoint supports commute
    rng = random.Random(105)
    for _ in range(cases):
        I = rng.sample(range(1, 7), 2)
        rest = [a for a in range(1, 7) if a not in I]
        J = rng.sample(rest, rng.choice((2, 3)))
        g = autf.make_nielsen("L", I[0], I[1], rng.choice((1, -1)), 6)
        if len(J) == 2:
            h = autf.make_magnus_C(J[0], J[1], 6)
        else:
            h = autf.make_magnus_M(J[0], J[1], J[2], 6)
        if not is_identity(autf.group_commutator(g, h)):
            failures.append("disjoint-support-commutation")
            break

    # contraction equivariance under transvection lifts
    rng = random.Random(106)
    n_, k_ = 4, 2
    space = exactlin.MkSpace(n_, k_)
    phi_op = exactlin.phi_operator(n_, k_)
    mk_labels = space.labels()
    for _ in range(cases):
        a, b = rng.sample(range(1, n_ + 1), 2)
        E = exactlin.elementary_sl(a, b, n_)
        Em = exactlin.induced_on(E, space)
        Et = exactlin.induced_on(E, exactlin.TensorSpace(n_, k_))
        v = exactlin.TensorVector.unit(space, rng.choice(mk_labels))
        if phi_op.apply(Em.apply(v)) != Et.apply(phi_op.apply(v)):
            failures.append("phi-equivariance")
            break

    # shift fixed points: random combinations of the invariant basis are
    # pointwise fixed, and the difference span is setwise shift-stable
    rng = random.Random(107)
    inv = cyclic_invariant_basis(3, 3)
    w = exactlin.w_basis(3, 3)
    w_rows = list(labeled_rows(w).values())
    tspace = exactlin.TensorSpace(3, 3)
    for _ in range(cases):
        vec = exactlin.TensorVector(tspace)
        for bvec in rng.sample(inv, 4):
            vec = vec + bvec.scale(rng.randrange(-3, 4))
        if cyclic_shift(vec) != vec:
            failures.append("shift-fixed-point")
            break
        row = exactlin.TensorVector(tspace, rng.choice(w_rows))
        if not w.contains(cyclic_shift(row)):
            failures.append("shift-difference-stability")
            break

    ok = not failures
    _announce(
        10,
        "property-suites",
        ok,
        time.perf_counter() - t0,
        180,
        f"cases={cases} per random invariant; failures={failures or 'none'}",
    )
