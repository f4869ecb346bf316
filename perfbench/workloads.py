"""The benchmark's three workloads: input generation, the run, the check.

Each workload turns a seed and a pass index into inputs (``make_inputs``),
runs them through the public functions of the layers (``run``), and returns
one outcome per operation.  An outcome is ``(ok, output)``: ``ok`` says
whether the program itself reported success (PASS, membership, no
exception) and ``output`` is a JSON-ready value that ``check`` compares with
the stored expected result.

Only this module touches ``autfilt``; ``worker.py`` imports it after the
program's source directory is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from fractions import Fraction

from autfilt import autf, exactlin, magnus, suites

WORKLOADS = ("tau-products", "kernel-orbit", "desk-mix")
EXPECTED_DIR = pathlib.Path(__file__).resolve().parent / "expected"

# Parameters per scale.  "full" is what the benchmark measures; "smoke" is a
# tiny variant of each workload, for the benchmark's own test.
SCALES = {
    "full": {
        # tau-products: rank, degree, letters per pass, largest product kept
        "n": 5,
        "k": 3,
        "letter_budget": 50_000,
        "product_cap": 20_000,
        # kernel-orbit
        "kernel": (5, 3),
        # desk-mix: the small suites at their acceptance parameters
        "desk": (
            ("iaab", {"n_values": (3, 4, 5)}),
            ("sp-orbit", {"g_values": (3, 4)}),
            ("sl-reduction", {"n": 5, "k_values": (2, 3), "trials": 20}),
            ("paths", {"n": 5, "m": 2, "trials": 100, "max_len": 8}),
            ("certificates", {"n": 5, "m": 2}),
            ("depth-table", {"n": 5, "k_values": (2, 3)}),
        ),
    },
    "smoke": {
        "n": 5,
        "k": 3,
        "letter_budget": 2_000,
        "product_cap": 1_000,
        "kernel": (4, 2),
        "desk": (
            ("iaab", {"n_values": (3,)}),
            ("sp-orbit", {"g_values": (3,)}),
            ("sl-reduction", {"n": 5, "k_values": (2,), "trials": 3}),
            ("paths", {"n": 5, "m": 2, "trials": 5, "max_len": 4}),
            ("certificates", {"n": 5, "m": 2}),
            ("depth-table", {"n": 4, "k_values": (2,), "subalphabet": (1, 2)}),
        ),
    },
}

# the suites whose params take the benchmark seed
SEEDED_SUITES = ("sl-reduction", "paths")

# S factors draw their tail from this subalphabet and move the two indices
# outside it, as in the tau-identities suite
SUBALPHABET = (1, 2, 3)
# bounds the filling loop of a tau-products pass
MAX_DRAWS = 10_000


# ---------------------------------------------------------------------------
# tau-products
# ---------------------------------------------------------------------------


def _draw_t(rng, n, k):
    i = rng.randrange(1, n + 1)
    rest = [a for a in range(1, n + 1) if a != i]
    while True:
        omega = tuple(rng.choice(rest) for _ in range(k + 1))
        if omega[0] != omega[1]:
            return ("T", i, omega)


def _draw_s(rng, n, k):
    mu = tuple(rng.choice(SUBALPHABET) for _ in range(k))
    i, j = [a for a in range(1, n + 1) if a not in SUBALPHABET][:2]
    return ("S", mu, i, j)


def _draw_product(rng, n, k):
    """Two or three T/S factors, with the tau-identities suite's odds."""
    return [
        _draw_s(rng, n, k) if rng.random() < 0.3 else _draw_t(rng, n, k)
        for _ in range(rng.choice((2, 2, 3)))
    ]


def _build(tag, n, cache):
    if tag not in cache:
        if tag[0] == "T":
            cache[tag] = autf.make_T(tag[1], tag[2], n)
        else:
            cache[tag] = autf.make_S(tag[1], tag[2], tag[3], n)
    return cache[tag]


def composed_letters(factors):
    """Total letters in the images of the composite, before free reduction.

    Computed from letter counts alone, so a product is sized without
    building its (possibly enormous) words.  Free reduction removes only a
    few letters on these products.
    """
    n = factors[0].rank

    def counts(phi):
        rows = [[0] * n for _ in range(n)]
        for j, w in enumerate(phi.images):
            for i, _ in w.letters:
                rows[j][i - 1] += 1
        return rows

    # (f0 . f1 . ... . fm)(x_j) = f0(f1(...fm(x_j))): substitute outward
    acc = counts(factors[-1])
    for f in reversed(factors[:-1]):
        inner = counts(f)
        acc = [
            [sum(row[m] * inner[m][i] for m in range(n)) for i in range(n)]
            for row in acc
        ]
    return sum(map(sum, acc))


def tau_inputs(seed, index, scale):
    """Products drawn from the seed until the letter budget is filled.

    Each pass of a run draws its own products, from the seed and the pass's
    index, so that the median over passes averages over many products and
    a few long ones do not set a run's time.  Products are drawn with the
    odds of the tau-identities suite.  A product joins the pass if its
    letters fit in what is left of the budget, so every pass gets about the
    same number of letters.  A product above
    ``product_cap`` letters is counted as oversize and skipped: these are
    the products with two or three S factors, from 36,000 letters to
    millions, and one of them alone can take minutes and hundreds of MB.
    Three-factor products with one S factor stay in.
    """
    p = SCALES[scale]
    n, k, budget, cap = p["n"], p["k"], p["letter_budget"], p["product_cap"]
    rng = random.Random(f"tau-products/{seed}/{index}")
    factors_by_tag = {}
    products, oversize, left = [], 0, budget
    for _ in range(MAX_DRAWS):
        if left <= budget // 20:
            break
        tags = _draw_product(rng, n, k)
        factors = [_build(t, n, factors_by_tag) for t in tags]
        letters = composed_letters(factors)
        if letters > cap:
            oversize += 1
        elif letters <= left:
            products.append((tags, factors))
            left -= letters
    return {"key": f"{seed}/{index}", "n": n, "k": k, "products": products,
            "letters": budget - left, "oversize": oversize}


def tau_digest(vec):
    """Digest of a tensor vector's exact coordinates, independent of storage."""
    rows = sorted(
        (list(label), str(Fraction(c))) for label, c in vec.coords.items() if c
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def tau_run(inputs):
    """Compose, take the degree-k image and its contraction, test membership.

    Mirrors the tau-identities suite's check that the contraction of a
    product lies in the shift-difference space.
    """
    n, k = inputs["n"], inputs["k"]
    w = exactlin.w_basis(n, k)
    outcomes = []
    for _, factors in inputs["products"]:
        try:
            prod = factors[0]
            for f in factors[1:]:
                prod = prod.compose(f)
            tau = exactlin.tau_map(magnus.johnson_image(prod, k))
            inside = w.contains(tau)
        except Exception as exc:  # an operation that raises counts as failed
            outcomes.append((False, {"error": repr(exc)}))
            continue
        outcomes.append((inside, {"tau": tau_digest(tau), "in_w": inside}))
    return outcomes


# ---------------------------------------------------------------------------
# kernel-orbit
# ---------------------------------------------------------------------------


def kernel_inputs(seed, index, scale):
    # the kernel claim has no random part; seed and index are ignored
    n, k = SCALES[scale]["kernel"]
    return {"n": n, "k": k}


def kernel_run(inputs):
    try:
        report = exactlin.kernel_claim_check(inputs["n"], inputs["k"], full_closure=True)
    except Exception as exc:
        return [(False, {"error": repr(exc)})]
    ok = report.equal and report.seeds_in_kernel
    return [(ok, report.to_json_obj())]


# ---------------------------------------------------------------------------
# desk-mix
# ---------------------------------------------------------------------------


def desk_inputs(seed, index, scale):
    # every pass runs the same suites; the index is ignored
    runs = []
    for name, params in SCALES[scale]["desk"]:
        params = dict(params)
        if name in SEEDED_SUITES:
            params["seed"] = seed
        runs.append((name, params))
    return {"runs": runs}


def desk_run(inputs):
    outcomes = []
    for name, params in inputs["runs"]:
        try:
            report = suites.run(name, params)
        except Exception as exc:
            outcomes.append((False, {"suite": name, "error": repr(exc)}))
            continue
        # the report JSON without its wall_time_s fields, one record at a time
        report = json.loads(report.to_json())
        header = {k: v for k, v in report.items() if k != "records"}
        for rec in report["records"]:
            rec.pop("wall_time_s", None)
            outcomes.append((rec["status"] == "PASS", {"report": header, "record": rec}))
    return outcomes


# ---------------------------------------------------------------------------
# dispatch, expected results and the check
# ---------------------------------------------------------------------------

_INPUTS = {"tau-products": tau_inputs, "kernel-orbit": kernel_inputs,
           "desk-mix": desk_inputs}
_RUNS = {"tau-products": tau_run, "kernel-orbit": kernel_run, "desk-mix": desk_run}


def make_inputs(workload, seed, index, scale):
    return _INPUTS[workload](seed, index, scale)


def run(workload, inputs):
    return _RUNS[workload](inputs)


def describe(workload, inputs):
    """One line about the generated inputs, for the benchmark's log."""
    if workload == "tau-products":
        shapes = {}
        for tags, _ in inputs["products"]:
            shape = "".join(t[0] for t in tags)
            shapes[shape] = shapes.get(shape, 0) + 1
        return (f"{len(inputs['products'])} products, {inputs['letters']} letters, "
                f"{inputs['oversize']} oversize skipped, shapes {shapes}")
    if workload == "kernel-orbit":
        return f"kernel_claim_check(n={inputs['n']}, k={inputs['k']}, full_closure)"
    return ", ".join(f"{name}{params}" for name, params in inputs["runs"])


def parts(workload, inputs):
    """Split inputs into ``(key, part)`` pairs, the units stored as expected.

    Running every part and joining the outcomes in order gives the outcomes
    of the whole inputs.  Keys name what the outputs depend on, so a suite
    that takes no seed is stored once for all seeds.
    """
    if workload == "tau-products":
        return [(inputs["key"], inputs)]
    if workload == "kernel-orbit":
        return [(f"n={inputs['n']},k={inputs['k']}", inputs)]
    return [(f"{name} {json.dumps(params, sort_keys=True)}", {"runs": [(name, params)]})
            for name, params in inputs["runs"]]


def expected_path(workload, scale):
    return EXPECTED_DIR / f"{workload}.{scale}.json"


def load_expected(workload, inputs, scale):
    """Stored outputs for these inputs, or None when some part is not stored."""
    path = expected_path(workload, scale)
    store = json.loads(path.read_text()) if path.exists() else {}
    expected = []
    for key, _ in parts(workload, inputs):
        if key not in store:
            return None
        expected.extend(store[key])
    return expected


def outputs_digest(outcomes):
    blob = json.dumps([out for _, out in outcomes], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def check(outcomes, expected):
    """Count failed operations; returns ``(attempted, failed)``.

    An operation fails if the program did not report success or, when an
    expected result is stored for the seed, if its output differs.  A stored
    output with no counterpart counts as a failed operation too.
    """
    outputs = json.loads(json.dumps([out for _, out in outcomes]))
    attempted = len(outcomes) if expected is None else max(len(outcomes), len(expected))
    failed = 0
    for i in range(attempted):
        if i >= len(outcomes) or not outcomes[i][0]:
            failed += 1
        elif expected is not None and (i >= len(expected) or outputs[i] != expected[i]):
            failed += 1
    return attempted, failed
