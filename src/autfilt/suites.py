"""Named verification suites with machine-readable JSON reports.

Each suite binds a family of exact computational claims to an executable
check and reports PASS, FAIL or INCONCLUSIVE per record.  Identical
parameters and seed give byte-identical reports apart from the timing
fields.  A suite's overall status is FAIL exactly when some record fails;
INCONCLUSIVE records (used only where a weaker generating set might stall
a saturation) do not fail the suite but are never silently upgraded.
A suite runs only on parameters that parameters() accepts: keys its
function takes, of its defaults' types, at least their least values
(_LEAST), so no record passes on zero samples or fails a claim not made.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

from . import autf, bnscert, commgraph, exactlin, magnus

SCHEMA_VERSION = "1"

class SuiteRecord(autf.Record):
    __slots__ = (
        "claim",
        "status",  # PASS | FAIL | INCONCLUSIVE
        "values",
        "wall_time_s",
    )

    def to_json_obj(self):
        return {
            "claim": self.claim,
            "status": self.status,
            "values": self.values,
            "wall_time_s": round(self.wall_time_s, 4),
        }


class SuiteReport(autf.Record):
    __slots__ = ("suite", "params", "records")

    @property
    def status(self):
        return "FAIL" if any(r.status == "FAIL" for r in self.records) else "PASS"

    def to_json(self):
        return json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "suite": self.suite,
                "params": self.params,
                "status": self.status,
                "records": [r.to_json_obj() for r in self.records],
            },
            sort_keys=True,
            indent=2,
        )


class _Recorder:
    def __init__(self):
        self.records = []

    def timed(self, claim, fn, inconclusive_on_false=False):
        t0 = time.perf_counter()
        ok, values = fn()
        rec = SuiteRecord(
            claim,
            "PASS" if ok else ("INCONCLUSIVE" if inconclusive_on_false else "FAIL"),
            values,
            time.perf_counter() - t0,
        )
        self.records.append(rec)
        return ok


# ---------------------------------------------------------------------------
# generator sampling helpers
# ---------------------------------------------------------------------------


def _all_conjugation_generators(n):
    return [
        autf.make_magnus_C(i, j, n)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]


def _all_commutator_multipliers(n):
    return [
        autf.make_magnus_M(i, j, k, n)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for k in range(1, n + 1)
        if len({i, j, k}) == 3
    ]


def _random_t(rng, n, k):
    """Random T with a nondegenerate tail (first two letters distinct)."""
    i = rng.randrange(1, n + 1)
    rest = [a for a in range(1, n + 1) if a != i]
    while True:
        omega = tuple(rng.choice(rest) for _ in range(k + 1))
        if omega[0] != omega[1]:
            return autf.make_T(i, omega, n), ("T", i, omega)


def _free_pair(suite, n, k_values, subalphabet):
    """The two least indices of 1..n outside subalphabet: the i and j of
    the S family, whose mu of each length k in k_values is drawn from
    subalphabet.  A ValueError naming the suite and the parameter rejects
    a subalphabet entry outside 1..n, fewer than two indices left for i
    and j, and a k over n - 2 (the bound of make_S), before any record runs."""
    if not all(1 <= a <= n for a in subalphabet):
        raise ValueError(
            f"suite {suite}: subalphabet entries must be in 1..{n}, got {subalphabet!r}"
        )
    free = [a for a in range(1, n + 1) if a not in subalphabet]
    if len(free) < 2:
        raise ValueError(
            f"suite {suite}: n={n} leaves fewer than two indices outside the "
            f"subalphabet {tuple(subalphabet)}; the S family needs two"
        )
    if max(k_values) > n - 2:
        raise ValueError(
            f"suite {suite}: k_values entries must be at most n - 2 = {n - 2}, "
            f"got {k_values!r}"
        )
    return free[0], free[1]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_iaab(rec, n_values=(3, 4, 5)):
    """Degree-1 span dimensions and the single-conjugation orbit span."""
    for n in n_values:
        space = exactlin.MkSpace(n, 1)
        expected_full = n * n * (n - 1) // 2
        expected_conj = n * (n - 1)

        def check_full():
            vecs_c = [magnus.johnson_image(g, 1) for g in _all_conjugation_generators(n)]
            vecs_m = [magnus.johnson_image(g, 1) for g in _all_commutator_multipliers(n)]
            full = exactlin.span_basis(vecs_c + vecs_m).dim
            conj_only = exactlin.span_basis(vecs_c).dim
            ok = (
                full == expected_full
                and conj_only == expected_conj
                and conj_only < full
            )
            return ok, {
                "n": n,
                "full_span": full,
                "expected_full": expected_full,
                "conjugation_only_span": conj_only,
                "expected_conjugation_only": expected_conj,
            }

        rec.timed(f"degree1-image-spans(n={n})", check_full)

        def check_orbit():
            seed = magnus.johnson_image(autf.make_magnus_C(1, 2, n), 1)
            sat = exactlin.orbit_saturate(
                [exactlin.induced_on(g, space) for g in exactlin.sl_generators(n)],
                [seed],
            )
            ok = sat.basis.dim == expected_full and sat.closed
            return ok, {
                "n": n,
                "orbit_span": sat.basis.dim,
                "expected": expected_full,
                "closed": sat.closed,
            }

        rec.timed(f"single-conjugation-orbit-spans(n={n})", check_orbit)


def suite_tau_identities(
    rec, n=5, k_values=(2, 3), trials=50, seed=7, subalphabet=(1, 2, 3)
):
    """Contraction identities for the two depth-k generator families.

    (a) tau kills every T value; (b) tau of an S value equals the
    difference of the index monomial and its backward cyclic shift (the
    two shift directions agree for k = 2, and only the backward one is
    realized for k >= 3 under the composition conventions used here; both
    families span the same difference space); (c) tau of random products
    of T and S elements lies in that space.
    """
    i_free, j_free = _free_pair("tau-identities", n, k_values, subalphabet)
    for k in k_values:
        rng = random.Random(seed)

        def check_t():
            bad = []
            for _ in range(trials):
                t, tag = _random_t(rng, n, k)
                tau = exactlin.tau_map(magnus.johnson_image(t, k))
                if tau:
                    bad.append(tag)
            return not bad, {"k": k, "samples": trials, "nonzero": bad}

        rec.timed(f"tau-kills-t-family(k={k})", check_t)

        def check_s():
            space = exactlin.TensorSpace(n, k)
            bad = []
            for mu in itertools.product(subalphabet, repeat=k):
                s = autf.make_S(mu, i_free, j_free, n)
                tau = exactlin.tau_map(magnus.johnson_image(s, k))
                back = (mu[-1],) + mu[:-1]
                expect = exactlin.TensorVector(space, {mu: 1}) - exactlin.TensorVector(
                    space, {back: 1}
                )
                if tau != expect:
                    bad.append(list(mu))
            return not bad, {
                "k": k,
                "mu_count": len(subalphabet) ** k,
                "i": i_free,
                "j": j_free,
                "mismatches": bad,
            }

        rec.timed(f"tau-of-s-family-cyclic-difference(k={k})", check_s)

        def check_w():
            w = exactlin.w_basis(n, k)
            bad = 0
            for _ in range(trials):
                factors = []
                for _ in range(rng.choice((2, 2, 3))):
                    if rng.random() < 0.3:
                        mu = tuple(rng.choice(subalphabet) for _ in range(k))
                        factors.append(autf.make_S(mu, i_free, j_free, n))
                    else:
                        factors.append(_random_t(rng, n, k)[0])
                prod = autf.compose_all(n, factors)
                tau = exactlin.tau_map(magnus.johnson_image(prod, k))
                if not w.contains(tau):
                    bad += 1
            return bad == 0, {
                "k": k,
                "samples": trials,
                "outside": bad,
                "w_dimension": w.dim,
            }

        rec.timed(f"tau-image-in-shift-difference-space(k={k})", check_w)


def suite_kernel_claim(rec, n=4, k=2):
    """SL_n(Z)-orbit (two generators) span of the single-row family equals
    ker of the contraction inside the dual-Lie space."""

    def check():
        report = exactlin.kernel_claim_check(n, k)
        return report.equal and report.seeds_in_kernel, report.to_json_obj()

    rec.timed(f"orbit-span-equals-contraction-kernel(n={n},k={k})", check)


def suite_sp_orbit(rec, g_values=(3, 4), extended_sp_generators=False):
    """Rotation/transvection identities and the wedge-cubed orbit span."""
    def check_identities():
        g = min(g_values)
        w2 = exactlin.WedgeSpace(2 * g, 2)

        def wedge(x, y):
            sign, label = exactlin.wedge_label((x, y))
            return exactlin.TensorVector(w2, {label: sign})

        results = {}
        ok = True
        for t, u in itertools.permutations(range(1, g + 1), 2):
            sig_t, sig_u, tau_tu = (
                exactlin.induced_on(exactlin.sp_generator(*args, g=g), w2)
                for args in (("sigma", t), ("sigma", u), ("tau", t, u))
            )
            at, bt, au, bu = 2 * t - 1, 2 * t, 2 * u - 1, 2 * u
            checks = [
                tau_tu.apply(wedge(at, bt)) == wedge(at, bt) + wedge(at, au),
                sig_t.apply(wedge(at, au)) == wedge(bt, au),
                sig_u.apply(wedge(at, au)) == wedge(at, bu),
                sig_t.apply(wedge(at, bu)) == wedge(bt, bu),
            ]
            ok = ok and all(checks)
            results[f"(t={t},u={u})"] = all(checks)
        return ok, {"g": g, "identity_pairs": results}

    rec.timed("transvection-rotation-identities", check_identities)

    def check_form():
        g = min(g_values)
        gens = (("sigma", 1), ("tau", 1, 2))
        ops = [exactlin.sp_generator(*args, g=g) for args in gens]
        ok = all(exactlin.preserves_symplectic_form(op) for op in ops)
        return ok, {"g": g, "generators_checked": len(ops)}

    rec.timed("generators-preserve-symplectic-form", check_form)

    for g in g_values:

        def check_orbit():
            space = exactlin.WedgeSpace(2 * g, 3)
            base = []
            for i in range(1, g + 1):
                base.append(exactlin.sp_generator("sigma", i, g=g))
                base.extend(
                    exactlin.sp_generator("tau", i, j, g=g) for j in range(i + 1, g + 1)
                )
            if extended_sp_generators:
                base.extend(exactlin.extended_sp_generators(g))
            gens = [exactlin.induced_on(op, space) for op in base]
            # a_1 ^ a_2 ^ b_2
            seed = exactlin.TensorVector.unit(space, (1, 3, 4))
            sat = exactlin.orbit_saturate(gens, [seed])
            full = sat.basis.dim == space.dimension
            return full, {
                "g": g,
                "orbit_span": sat.basis.dim,
                "full_dimension": space.dimension,
                "closed": sat.closed,
                "generator_set": "sigma/tau+extended"
                if extended_sp_generators
                else "sigma/tau",
            }

        # a stalled saturation under this particular generating set would be
        # inconclusive about the full symplectic orbit, not a refutation
        rec.timed(f"wedge3-orbit-spans(g={g})", check_orbit, inconclusive_on_false=True)


def suite_sl_reduction(rec, n=5, k_values=(2, 3), trials=20, seed=7):
    """Double-transvection reduction of single-row symbols and the closing
    identity, with a sign-flip negative control."""
    # a space over exactlin.MAX_DIMENSION is rejected here, before any record
    for k in k_values:
        exactlin.MkSpace(n, k)
    rng = random.Random(seed)

    def sample_delta(k, c):
        # dual index i, tail of length k+1 containing i exactly c times
        while True:
            i = rng.randrange(1, n + 1)
            others = [a for a in range(1, n + 1) if a != i]
            tail = [i] * c + [rng.choice(others) for _ in range(k + 1 - c)]
            rng.shuffle(tail)
            delta = (i, tuple(tail))
            fresh = [a for a in range(1, n + 1) if a != i and a not in tail]
            if fresh:
                return delta, fresh[0]

    def check_z():
        bad = []
        for t in range(trials):
            k = rng.choice(k_values)
            c = rng.choice((2, 3))
            if c > k + 1:
                c = 2
            delta, fresh = sample_delta(k, c)
            r = exactlin.z_reduction_check(n, k, delta, fresh)
            if not r.ok:
                bad.append({"delta": [delta[0], list(delta[1])], "k": k})
        return not bad, {"samples": trials, "failures": bad}

    rec.timed("double-transvection-reduction", check_z)

    def check_closing():
        bad = []
        for t in range(trials):
            k = rng.choice(k_values)
            i, j = rng.sample(range(1, n + 1), 2)
            others = [a for a in range(1, n + 1) if a not in (i, j)]
            eps = tuple(rng.choice(others) for _ in range(k))
            if not exactlin.closing_identity_check(n, k, i, j, eps):
                bad.append({"i": i, "j": j, "eps": list(eps), "k": k})
        return not bad, {"samples": trials, "failures": bad}

    rec.timed("closing-identity", check_closing)

    def check_negative():
        ok = not exactlin.closing_identity_check(n, 2, 1, 2, (3, 4), mutate_sign=True)
        return ok, {"mutated_identity_detected": ok}

    rec.timed("closing-identity-negative-control", check_negative)


def suite_paths(rec, n=5, m=2, trials=100, seed=7, max_len=8):
    """Constructive connectivity: random conjugators give verified paths."""
    rng = random.Random(seed)

    def check():
        failures = []
        lengths = []
        for t in range(trials):
            length = rng.randrange(1, max_len + 1)
            word = []
            for _ in range(length):
                i = rng.randrange(1, n + 1)
                j = rng.choice([a for a in range(1, n + 1) if a != i])
                word.append((rng.choice(("L", "R")), i, j, rng.choice((1, -1))))
            path = commgraph.conjugate_path(n, range(1, m + 1), word)
            ok = commgraph.verify_path(path) and len(path) - 1 <= 2 * length
            lengths.append(len(path) - 1)
            if not ok:
                failures.append(t)
        return not failures, {
            "trials": trials,
            "max_word_length": max_len,
            "max_edges_seen": max(lengths),
            "failures": failures,
        }

    rec.timed(f"conjugate-paths-verified(n={n},m={m})", check)


def suite_certificates(rec, n=5, m=2):
    """Assemble-and-check round trips plus three corruption controls."""
    targets_one = [("C12", autf.c_nielsen_word(1, 2))]
    targets_two = targets_one + [("M123", autf.m_nielsen_word(1, 2, 3))]

    def check_assembly(targets, label):
        cert = None

        def run():
            nonlocal cert
            cert, report = bnscert.assemble_certificate(n, m, targets)
            verdict = bnscert.check_certificate(cert)
            round_trip = bnscert.BnsCertificate.from_json(cert.to_json())
            rt_verdict = bnscert.check_certificate(round_trip)
            return verdict.valid and rt_verdict.valid, {
                "targets": [t[0] for t in targets],
                "elements": len(cert.elements),
                "forced_positions": report.forced_positions,
                "valid": verdict.valid,
                "round_trip_valid": rt_verdict.valid,
            }

        rec.timed(f"assembled-certificate-valid({label})", run)
        return cert

    cert = check_assembly(targets_one, "one-target")
    check_assembly(targets_two, "two-targets")

    def check_corruption(name, mutate, expect_condition):
        def run():
            bad = mutate(cert)
            verdict = bnscert.check_certificate(bad)
            ok = (not verdict.valid) and verdict.failed_condition == expect_condition
            return ok, {
                "expected_condition": expect_condition,
                "reported_condition": verdict.failed_condition,
                "reported_index": verdict.failed_index,
            }

        rec.timed(f"corrupted-certificate-rejected({name})", run)

    check_corruption(
        "zeroed-first-character",
        lambda c: bnscert.BnsCertificate(c.elements, (Fraction(0),) + c.chi[1:], c.witnesses),
        "nonzero-at-first",
    )

    def wrong_word(c):
        ws = list(c.witnesses)
        ws[0] = bnscert.Witness(ws[0].index, ws[0].earlier, (1,))
        return bnscert.BnsCertificate(c.elements, c.chi, tuple(ws))

    check_corruption("wrong-witness-word", wrong_word, "commutator-word")

    def dangling(c):
        ws = list(c.witnesses)
        ws[0] = bnscert.Witness(ws[0].index, ws[0].index, ws[0].word)
        return bnscert.BnsCertificate(c.elements, c.chi, tuple(ws))

    check_corruption("dangling-witness-index", dangling, "witness-indices")


def suite_depth_table(rec, n=5, k_values=(2, 3), subalphabet=(1, 2, 3)):
    """Filtration depth of every named generator family member.

    Conjugation and commutator-multiplier generators have depth 1; the
    depth-k families have depth exactly k.  Tails whose first two letters
    coincide are skipped for the T family (the commutator word is then
    trivial and the map is the identity).
    """
    i_free, j_free = _free_pair("depth-table", n, k_values, subalphabet)

    def check_cm():
        gens = _all_conjugation_generators(n) + _all_commutator_multipliers(n)
        bad = [
            autf.format_automorphism(g)
            for g in gens
            if magnus.johnson_depth(g, 3) != 1
        ]
        return not bad, {"checked": len(gens), "expected_depth": 1, "failures": bad}

    rec.timed("depth-of-degree1-generators", check_cm)
    for k in k_values:

        def check_t():
            bad, count = [], 0
            for i in range(1, n + 1):
                rest = [a for a in range(1, n + 1) if a != i]
                for omega in itertools.product(rest, repeat=k + 1):
                    if omega[0] == omega[1]:
                        continue
                    count += 1
                    if magnus.johnson_depth(autf.make_T(i, omega, n), k + 1) != k:
                        bad.append([i, list(omega)])
            return not bad, {"k": k, "checked": count, "expected_depth": k, "failures": bad}

        rec.timed(f"depth-of-t-family(k={k})", check_t)

        def check_s():
            bad, count = [], 0
            for mu in itertools.product(subalphabet, repeat=k):
                count += 1
                if magnus.johnson_depth(autf.make_S(mu, i_free, j_free, n), k + 1) != k:
                    bad.append(list(mu))
            return not bad, {
                "k": k,
                "checked": count,
                "expected_depth": k,
                "i": i_free,
                "j": j_free,
                "failures": bad,
            }

        rec.timed(f"depth-of-s-family(k={k})", check_s)


_SUITES = {
    "iaab": suite_iaab,
    "tau-identities": suite_tau_identities,
    "kernel-claim": suite_kernel_claim,
    "sp-orbit": suite_sp_orbit,
    "sl-reduction": suite_sl_reduction,
    "paths": suite_paths,
    "certificates": suite_certificates,
    "depth-table": suite_depth_table,
}


SUITE_NAMES = tuple(_SUITES)

# The least value of each int parameter, and of every entry of each tuple
# parameter, per suite: iaab's claim is not made at n = 2 (IA_2 = Inn(F_2)),
# the S family needs k >= 2 and sl-reduction's negative control reads the
# indices 3 and 4.  Bounds between parameters stay where they are used:
# _free_pair (which also checks make_S's k <= n - 2 before any record
# runs), kernel_claim_check, commgraph._check_bound and make_S.
_LEAST = {
    "iaab": {"n_values": 3},
    "tau-identities": {"k_values": 2, "trials": 1, "subalphabet": 1},
    "kernel-claim": {},
    "sp-orbit": {"g_values": 2},
    "sl-reduction": {"n": 4, "k_values": 1, "trials": 1},
    "paths": {"n": 2, "m": 2, "trials": 1, "max_len": 1},
    "certificates": {"m": 2},
    "depth-table": {"k_values": 2, "subalphabet": 1},
}


def parameters(suite, given=None):
    """The values a suite runs with: the keyword parameters of its function,
    after the recorder, with the values in given overriding the defaults.

    A ValueError naming the suite, the parameter and its bound rejects a key
    the suite does not take, and a value that is not of its default's type
    (bool, int, or a nonempty tuple of ints) or is under its least value.
    """
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    fn = _SUITES[suite]
    # every parameter after the recorder has a default
    names = fn.__code__.co_varnames[1:fn.__code__.co_argcount]
    defaults = dict(zip(names, fn.__defaults__, strict=True))
    resolved = {**defaults, **(given or {})}
    for name, value in resolved.items():
        if name not in defaults:
            takes = ", ".join(defaults)
            raise ValueError(f"suite {suite} takes no parameter {name!r}; it takes {takes}")
        least = _LEAST[suite].get(name)
        entry = lambda v: autf.is_json_int(v) and (least is None or v >= least)
        if type(defaults[name]) is bool:
            ok, kind = type(value) is bool, "a bool"
        elif type(defaults[name]) is tuple:
            ok = type(value) is tuple and value and all(map(entry, value))
            kind = "a nonempty tuple of ints"
        else:
            ok, kind = entry(value), "an int"
        if not ok:
            bound = "" if least is None else f" of at least {least}"
            raise ValueError(f"suite {suite}: {name} must be {kind}{bound}, got {value!r}")
    return resolved


def run(suite, params=None, out_path=None):
    """Execute a named suite; optionally write the JSON report.

    The suite runs with parameters(suite, params), which rejects an unknown
    key or a bad value before any record runs, and the report's params are
    those values.
    """
    resolved = parameters(suite, params)
    rec = _Recorder()
    _SUITES[suite](rec, **resolved)
    report = SuiteReport(suite, resolved, rec.records)
    if out_path is not None:
        with open(out_path, "w") as f:
            f.write(report.to_json())
            f.write("\n")
    return report
