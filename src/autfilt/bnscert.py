"""Finite-generation certificates in the commuting-generator format.

A certificate is an ordered list x_1..x_r of automorphisms, a rational
character value for each, and for each i >= 2 a witness (j, w) with
j < i, nonzero character at x_j, and [x_j, x_i] equal to the word w over
the earlier elements.  The checker verifies all of that exactly.  The
verdict is scoped to the group generated by the listed elements, for
which the generation condition holds by definition; deciding generation
of an abstractly given group is out of scope and the report says so.

The assembler builds such a certificate from a target list T of
commutator-trivial automorphisms given as Nielsen words: it connects the
base parabolic to its T-conjugates through the commuting graph, orders
the collected vertices by distance from the base vertex, picks one
element with nonzero character per vertex (the vertex at a T-conjugate
is forced to be the conjugate of the first element), and appends T
itself with commutator witnesses of the form x_1^-1 * (x_1 conjugated).
A target whose word has no letter touching the base indices fixes the
base parabolic, so its witness points at x_1 itself and adds no vertex.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import autf, commgraph

SCOPE_NOTE = (
    "verdict is scoped to the subgroup generated by the listed elements; "
    "generation of that subgroup by the list holds by definition"
)

# The most entries the witness words of a certificate read from JSON may
# hold, all words together, counted before any element is composed.  The
# check of a word grows with the square of its length: one word of 1,000
# or 2,000 entries on the assembled C12 certificate (n = 5, m = 2) took
# 0.42 or 1.3 s in `cert check` (2-vCPU host, Python 3.11).  The
# assembler writes 2 entries per target.
MAX_WITNESS_ENTRIES = 1_000


class Witness(autf.FrozenRecord):
    __slots__ = (
        "index",  # i, position of the witnessed element (1-based)
        "earlier",  # j < i with nonzero character
        "word",  # signed 1-based positions into the element list
    )


class BnsCertificate(autf.FrozenRecord):
    __slots__ = (
        "elements",  # FreeAutomorphisms
        "chi",  # Fractions, aligned with elements
        "witnesses",  # Witness entries, one per element index >= 2
    )

    def to_json(self):
        return json.dumps(
            {
                "elements": [autf.format_automorphism(x) for x in self.elements],
                "inverses": [
                    autf.format_automorphism(x.inverse()) for x in self.elements
                ],
                "chi": [str(c) for c in self.chi],
                "witnesses": [
                    {"i": w.index, "j": w.earlier, "word": list(w.word)}
                    for w in self.witnesses
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text):
        """Parse to_json output; malformed input raises a ValueError naming it."""
        data = autf.read_json(text, "certificate")
        texts, chi, rows = autf.json_fields(
            data, ("elements", "chi", "witnesses"), "certificate", ("inverses",)
        )
        for name, value in (("elements", texts), ("chi", chi), ("witnesses", rows)):
            if not isinstance(value, list):
                raise ValueError(f"certificate {name!r} must be a list")
        # an absent or null 'inverses' means "derive them"; a list holds one
        # inverse text per element, as to_json writes it
        inverses = data.get("inverses")
        if inverses is not None and (
            not isinstance(inverses, list) or len(inverses) != len(texts)
        ):
            raise ValueError(
                f"certificate 'inverses' must be a list of {len(texts)} entries, "
                f"one per element"
            )
        if not all(isinstance(t, str) for t in texts + (inverses or [])):
            raise ValueError("certificate elements and inverses must be strings")
        witnesses = []
        for row in rows:
            i, j, word = autf.json_fields(row, ("i", "j", "word"), "witness")
            if not isinstance(word, list) or not all(
                autf.is_json_int(v) for v in [i, j, *word]
            ):
                raise ValueError(f"witness {row!r} needs integer i, j and a word list")
            witnesses.append(Witness(i, j, tuple(word)))
        entries = sum(len(w.word) for w in witnesses)
        if entries > MAX_WITNESS_ENTRIES:
            raise ValueError(
                f"certificate witness words hold {entries} entries, over the "
                f"bound MAX_WITNESS_ENTRIES = {MAX_WITNESS_ENTRIES}"
            )
        elements = tuple(
            autf.parse_automorphism(t, inverse_text=inv)
            for t, inv in zip(texts, inverses or [None] * len(texts))
        )
        chi = tuple(autf.json_fraction(c, "certificate 'chi' entry") for c in chi)
        return cls(elements, chi, tuple(witnesses))


class Verdict(autf.FrozenRecord):
    __slots__ = ("valid", "failed_condition", "failed_index", "detail", "scope_note")
    _defaults = {
        "failed_condition": None,
        "failed_index": None,
        "detail": "",
        "scope_note": SCOPE_NOTE,
    }

    def to_json_obj(self):
        return self.as_dict()


def check_certificate(cert):
    """Exact verification; reports the first failing condition and index."""
    r = len(cert.elements)
    if r == 0:
        return Verdict(False, "shape", None, "certificate has no elements")
    if len(cert.chi) != r:
        return Verdict(False, "shape", None, "chi length differs from element count")
    if len({x.rank for x in cert.elements}) != 1:
        return Verdict(False, "shape", None, "elements have different ranks")
    by_index = {}
    for w in cert.witnesses:
        if not 2 <= w.index <= r or not 1 <= w.earlier < w.index:
            return Verdict(
                False,
                "witness-indices",
                w.index,
                f"witness cites j={w.earlier} for i={w.index}",
            )
        if any(abs(v) >= w.index or v == 0 for v in w.word):
            return Verdict(
                False,
                "witness-indices",
                w.index,
                "witness word uses an element at or after position i",
            )
        if w.index in by_index:
            return Verdict(
                False,
                "witness-indices",
                w.index,
                f"more than one witness for i={w.index}",
            )
        by_index[w.index] = w
    if cert.chi[0] == 0:
        return Verdict(False, "nonzero-at-first", 1, "character vanishes on x1")
    for i in range(2, r + 1):
        w = by_index.get(i)
        if w is None:
            return Verdict(False, "witness-missing", i, f"no witness for i={i}")
        if cert.chi[w.earlier - 1] == 0:
            return Verdict(
                False,
                "nonzero-at-cited",
                i,
                f"character vanishes on cited x{w.earlier}",
            )
        lhs = autf.group_commutator(cert.elements[w.earlier - 1], cert.elements[i - 1])
        # signed positions into the element list; the last entry acts first
        xs = cert.elements
        factors = (xs[v - 1] if v > 0 else xs[-v - 1].inverse() for v in w.word)
        rhs = autf.compose_all(xs[0].rank, factors)
        if lhs != rhs:
            return Verdict(
                False,
                "commutator-word",
                i,
                f"[x{w.earlier}, x{i}] differs from the witness word",
            )
        total = sum(
            (cert.chi[abs(v) - 1] if v > 0 else -cert.chi[abs(v) - 1])
            for v in w.word
        )
        if total != 0:
            return Verdict(
                False,
                "character-consistency",
                i,
                "character does not vanish on a commutator witness word",
            )
    return Verdict(True)


class AssemblyError(ValueError):
    """The targets cannot be assembled into a certificate."""


def _breadth_first(handles):
    """Breadth-first search of the commuting graph from handles[0].

    Each layer is taken in ascending vertex index, and each of its vertices
    is tested with commgraph.commutes against every vertex not yet reached;
    the first to reach u becomes u's parent, which is thus u's least-index
    neighbour one layer nearer.  Returns (order, parent): the reached
    vertices by (distance, index), and each one's parent (None for 0).
    """
    parent = {0: None}
    order = []
    layer = [0]
    while layer:
        order += layer
        found = []
        for v in layer:
            for u in range(len(handles)):
                if u not in parent and commgraph.commutes(handles[v], handles[u]):
                    parent[u] = v
                    found.append(u)
        layer = sorted(found)
    return order, parent


class AssemblyReport(autf.Record):
    __slots__ = ("vertex_order", "forced_positions")


def assemble_certificate(n, m, targets, chi_seed=None, chooser_value=1):
    """Build a certificate from commutator-trivial targets given as Nielsen words.

    targets: list of (label, nielsen word); labels only name targets in
    error messages and need not be distinct.  chi_seed maps the
    format_automorphism text of a target to its character value (0 when
    absent).  The element at a handle on I that no target forces is C_ab,
    a and b the two lowest indices of I, conjugated by the handle's
    conjugator, with character value chooser_value.  Returns (certificate,
    report).  Raises ValueError when 2m + 1 > n, and AssemblyError when a
    path cannot be built, chooser_value is 0 or a chi_seed key is no
    target's text.
    """
    commgraph._check_bound(n, m)
    if chooser_value == 0:
        raise AssemblyError("chooser_value must be a nonzero character value")
    chi_seed = chi_seed or {}
    I = frozenset(range(1, m + 1))
    root = commgraph.handle(n, I)
    target_autos = []
    for label, word in targets:
        phi = autf.eval_nielsen_word(word, n)
        if not autf.is_IA(phi):
            raise AssemblyError(f"target {label} is not commutator-trivial on Z^n")
        target_autos.append((label, word, phi))
    texts = [autf.format_automorphism(phi) for _, _, phi in target_autos]
    for key in chi_seed:
        if key not in texts:
            raise AssemblyError(f"chi_seed key {key!r} is no target's text")

    # vertex records: (handle, forced automorphism or None); intermediates
    # deduplicate by handle value, target endpoints are always kept as
    # dedicated vertices with a forced element choice
    vertices = [(root, None)]
    seen = {root}
    endpoint_vertex = []  # by target position: labels may repeat
    for label, word, phi in target_autos:
        path = commgraph.conjugate_path(n, I, word)
        if not commgraph.verify_path(path):
            raise AssemblyError(f"path for target {label} fails verification")
        if len(path) == 1:
            # no letter touches I, so phi commutes with P_I and x1^phi = x1
            endpoint_vertex.append(0)
            continue
        for h in path[:-1]:
            if h not in seen:
                seen.add(h)
                vertices.append((h, None))
        endpoint_vertex.append(len(vertices))
        vertices.append((path[-1], phi))

    order, parent = _breadth_first([h for h, _ in vertices])
    if len(order) != len(vertices):
        raise AssemblyError("collected vertices do not form a connected subgraph")

    elements = []
    chi = []
    witnesses = []
    vertex_order = []
    forced_positions = []
    position_of_vertex = {}
    for position, v in enumerate(order, 1):
        h, forced = vertices[v]
        position_of_vertex[v] = position
        if forced is not None:
            g = elements[0].conjugate(forced)
            value = chi[0]
            forced_positions.append(position)
        else:
            a, b = sorted(h.indices)[:2]
            g = autf.make_magnus_C(a, b, n).conjugate(h.conjugator_automorphism())
            value = chooser_value
        elements.append(g)
        chi.append(Fraction(value))
        vertex_order.append(h.to_json_obj())
        if position > 1:
            witnesses.append(Witness(position, position_of_vertex[parent[v]], ()))

    # append the targets with conjugation witnesses [x1, t] = x1^-1 * x1^t
    for (_, _, phi), text, endpoint in zip(target_autos, texts, endpoint_vertex):
        position = len(elements) + 1
        conj_pos = position_of_vertex[endpoint]
        elements.append(phi)
        chi.append(Fraction(chi_seed.get(text, 0)))
        witnesses.append(Witness(position, 1, (-1, conj_pos)))
    cert = BnsCertificate(tuple(elements), tuple(chi), tuple(witnesses))
    return cert, AssemblyReport(vertex_order, forced_positions)
