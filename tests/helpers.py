"""Shared test helpers and independent oracles.

The derivation oracle computes degree-k images of nested group
commutators without any Magnus expansion: generator images act as
substitution derivations on tensors and nested commutators map to
nested derivation brackets.  It shares no code path with the library's
expansion route, so agreement is a genuine dual-route check.
"""

import itertools
import random
from math import comb, gcd, lcm

from autfilt import autf, commgraph, lie, magnus
from autfilt.exactlin import (
    LinearOperator,
    MkSpace,
    SubspaceBasis,
    TensorSpace,
    TensorVector,
    VSpace,
    WedgeSpace,
)


def is_identity(x):
    """True for the empty word and for the identity automorphism."""
    if isinstance(x, autf.FreeWord):
        return not x.letters
    return x == autf.identity_automorphism(x.rank)


def word(rank, *signed_indices):
    """Build a word from signed indices, e.g. word(3, 1, -2) = x1 x2^-1."""
    for v in signed_indices:
        if not autf.is_json_int(v):
            raise ValueError(f"signed index must be an int, got {v!r}")
    return autf.FreeWord(rank, tuple((abs(v), 1 if v > 0 else -1) for v in signed_indices))


def derivation_apply(D, tensor):
    """Extend D: {i: tensor dict} to a derivation and apply to a tensor."""
    out = {}
    for mono, c in tensor.items():
        for p, letter in enumerate(mono):
            img = D.get(letter)
            if not img:
                continue
            for m2, c2 in img.items():
                key = mono[:p] + m2 + mono[p + 1:]
                s = out.get(key, 0) + c * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return out


def derivation_bracket(D1, D2, n):
    """[D1, D2] restricted to generators: i -> D1(D2 e_i) - D2(D1 e_i)."""
    out = {}
    for i in range(1, n + 1):
        t = {}
        if i in D2:
            t = derivation_apply(D1, D2[i])
        if i in D1:
            for k, v in derivation_apply(D2, D1[i]).items():
                s = t.get(k, 0) - v
                if s:
                    t[k] = s
                else:
                    t.pop(k, None)
        if t:
            out[i] = t
    return out


def generator_derivation(phi, n):
    """Derivation of a degree-1 generator: i -> tensor of its deviation."""
    out = {}
    for i in range(1, n + 1):
        img = phi.images[i - 1]
        if img.letters == ((i, 1),):
            continue
        # deviation must be a single bracket of two letters for this oracle
        from autfilt.magnus import magnus_expand
        from autfilt.autf import FreeWord

        dev = magnus_expand(FreeWord.generator(n, i).inverse() * img, 2)
        part = {m: c for m, c in dev.coeffs.items() if len(m) == 2}
        if part:
            out[i] = part
    return out


def left_normed_derivation(phis, n):
    """Derivation image of a left-normed group commutator of generators."""
    acc = generator_derivation(phis[0], n)
    for phi in phis[1:]:
        acc = derivation_bracket(acc, generator_derivation(phi, n), n)
    return acc


def _mul_letter(coeffs, i, sign, K):
    """Multiply a coefficient dict on the right by the series of one letter."""
    out = {}
    for mono, c in coeffs.items():
        room = K - len(mono)
        if sign == 1:
            # 1 + X_i
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
            if room >= 1:
                k = mono + (i,)
                s = out.get(k, 0) + c
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        else:
            # 1 - X_i + X_i^2 - ...
            sgn = 1
            for t in range(room + 1):
                k = mono + (i,) * t
                s = out.get(k, 0) + sgn * c
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
                sgn = -sgn
    return out


def magnus_expand_by_letters(w, cutoff):
    """Sparse letter-by-letter Magnus expansion: an oracle for the packed
    kernel magnus.magnus_expand, beside magnus_expand_dense.

    Rebuilds a tuple-keyed coefficient dict for every letter, so it shares
    no indexing with either kernel.  It is fast enough for words of a few
    dozen letters; magnus_expand_dense covers the long words.
    """
    coeffs = {(): 1}
    for i, sign in w.letters:
        coeffs = _mul_letter(coeffs, i, sign, cutoff)
    return magnus.TruncatedSeries(w.rank, cutoff, coeffs)


def magnus_expand_dense(w, cutoff):
    """Dense in-place Magnus expansion on one flat list of ints: the oracle
    for the packed kernel magnus.magnus_expand on long words.

    Works on a dense list c over the monomials in the a letters of w,
    numbered 1..a in sorted order: index(()) = 0, index(m X_i) =
    i + a*index(m), so degree d starts at start[d] = 1 + a + ... +
    a^(d-1) and the monomials ending in X_i are the slice c[i::a],
    aligned with their parents c[:start[K]].
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    alphabet = sorted({i for i, _ in w.letters})
    a = len(alphabet)
    position = {letter: p for p, letter in enumerate(alphabet, 1)}
    start = [0]
    for _ in range(cutoff + 1):
        start.append(1 + a * start[-1])
    c = [0] * start[cutoff + 1]
    c[0] = 1
    for letter, sign in w.letters:
        i = position[letter]
        if sign == 1:
            # c (1 + X_i): c'(m X_i) = c(m X_i) + c(m), all from old values
            c[i::a] = [u + v for u, v in zip(c[i::a], c)]
        else:
            # c' (1 + X_i) = c: c'(m X_i) = c(m X_i) - c'(m), lowest degree first
            for d in range(1, cutoff + 1):
                lo, hi = start[d - 1], start[d]
                targets = slice(i + a * lo, i + a * hi, a)
                c[targets] = [u - v for u, v in zip(c[targets], c[lo:hi])]
    coeffs = {}
    for d in range(cutoff + 1):
        monos = itertools.product(alphabet, repeat=d)
        coeffs.update((m, v) for m, v in zip(monos, c[start[d]:start[d + 1]]) if v)
    return magnus.TruncatedSeries(w.rank, cutoff, coeffs)


def packed_by_shift_add(w, cutoff):
    """magnus._packed as one shift-add per degree per letter, the top
    degree included: the block-level oracle for the kernel that sums its
    top degree per letter and shifts it once per word.  Same alphabet,
    field width and field order, so the triples compare as ints."""
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    alphabet = tuple(sorted({i for i, _ in w.letters}))
    a = len(alphabet)
    bound = comb(len(w.letters) + cutoff - 1, cutoff)
    nbytes = (bound.bit_length() + 2 + 7) // 8
    width = 8 * nbytes
    shifts = {
        letter: [width * p * a**d for d in range(cutoff)]
        for p, letter in enumerate(alphabet)
    }
    blocks = [1] + [0] * cutoff
    for letter, sign in w.letters:
        shift = shifts[letter]
        if sign == 1:
            for d in range(cutoff - 1, -1, -1):
                blocks[d + 1] += blocks[d] << shift[d]
        else:
            for d in range(cutoff):
                blocks[d + 1] -= blocks[d] << shift[d]
    return alphabet, nbytes, blocks


def _deviation_expansion(phi, i, cutoff):
    """magnus_expand of x_i^-1 phi(x_i), or None if x_i is fixed."""
    img = phi.images[i - 1]
    if img.letters == ((i, 1),):
        return None
    return magnus.magnus_expand(autf.FreeWord.generator(phi.rank, i).inverse() * img, cutoff)


def _lowest_degree(series):
    return min((len(m) for m in series.coeffs if m), default=None)


def johnson_depth_by_expansion(phi, cutoff):
    """magnus.johnson_depth with every degree decoded: the oracle for the
    route that reads the packed blocks."""
    lows = []
    for i in range(1, phi.rank + 1):
        s = _deviation_expansion(phi, i, cutoff)
        if s is not None and _lowest_degree(s) is not None:
            lows.append(_lowest_degree(s))
    return min(lows) - 1 if lows else None


def johnson_image_by_expansion(phi, k):
    """magnus.johnson_image with every degree decoded: the oracle for the
    route that reads the packed blocks."""
    coords = {}
    for i in range(1, phi.rank + 1):
        s = _deviation_expansion(phi, i, k + 1)
        if s is None:
            continue
        low = _lowest_degree(s)
        if low is not None and low <= k:
            raise magnus.DepthError(i, low)
        part = {m: c for m, c in s.coeffs.items() if len(m) == k + 1}
        if part:
            coords.update(((i, w), c) for w, c in lie.lie_from_tensor_coords(part).items())
    return TensorVector(MkSpace(phi.rank, k), coords)


def image_or_depth_error(image, phi, k):
    """image(phi, k), or ("DepthError", index, degree) if it raises one."""
    try:
        return image(phi, k)
    except magnus.DepthError as e:
        return ("DepthError", e.index, e.degree)


def check_blocks_match_expansion(phi):
    """Depth and images from the packed blocks against the routes that
    decode every degree of magnus_expand."""
    for cutoff in range(2, 6):
        assert magnus.johnson_depth(phi, cutoff) == johnson_depth_by_expansion(phi, cutoff)
    for k in range(1, 5):
        assert image_or_depth_error(magnus.johnson_image, phi, k) == image_or_depth_error(
            johnson_image_by_expansion, phi, k
        ), k


def _primitive_row(coords):
    """Positive multiple of int coords with content 1, zeros dropped."""
    row = {k: v for k, v in coords.items() if v}
    g = gcd(*row.values())
    return {k: v // g for k, v in row.items()}


def _clear_pivot(v, row, p):
    """a*v - b*row as a new dict without zeros, a:b = row[p]:v[p] in lowest
    terms, so its entry at p is 0."""
    a, b = row[p], v[p]
    g = gcd(a, b)
    return {
        k: c
        for k in v.keys() | row.keys()
        if (c := a // g * v.get(k, 0) - b // g * row.get(k, 0))
    }


def min_pivot_reduce(rows, coords):
    """Reduce coords against {pivot: row} by clearing its least label, one
    copied vector per step; returns the residue (empty iff in the span)."""
    v = _primitive_row(coords)
    while v:
        p = min(v)
        row = rows.get(p)
        if row is None:
            break
        v = _clear_pivot(v, row, p)
    return v


def echelon_span_by_min_pivot(vectors):
    """Min-pivot integer echelon rows {pivot: row} of the span of coordinate
    dicts: oracle for the reduced exactlin.SubspaceBasis.

    Rows are never back-substituted, so they may hold entries at later
    pivots; it shares no elimination order with the library's basis.
    """
    rows = {}
    for coords in vectors:
        v = min_pivot_reduce(rows, coords)
        if v:
            v = _primitive_row(v)
            p = min(v)
            rows[p] = {k: c if v[p] > 0 else -c for k, c in v.items()}
    return rows


REDUCED_BASIS_SPACES = [VSpace(4), TensorSpace(3, 2), MkSpace(4, 2), WedgeSpace(6, 3)]


def labeled_rows(basis):
    """The rows of a SubspaceBasis read back by label: {pivot label: {label:
    entry}}, the view that tests compare with labeled oracles and pins."""
    labels = basis.space.labels()
    return {
        labels[p]: {labels[q]: c for q, c in row.items()} for p, row in basis.rows.items()
    }


def assert_reduced(basis):
    """Pivot = least label, positive pivot entry, content 1, and no entry at
    another row's pivot."""
    rows = labeled_rows(basis)
    for p, row in rows.items():
        assert p == min(row) and row[p] > 0
        assert all(type(c) is int for c in row.values()) and gcd(*row.values()) == 1
        assert not any(q in row for q in rows if q != p)


def subspace_equal(a, b):
    """Equality of two bases' spans: equal dimensions and every row of a
    inside b.  The oracle for orbit == kernel, which kernel_claim_check
    decides from its own containment check and the dimensions."""
    if a.space != b.space:
        raise ValueError("space mismatch")
    return a.dim == b.dim and all(
        b.contains(TensorVector(a.space, row)) for row in labeled_rows(a).values()
    )


class ScanningBasis:
    """Reduced integer echelon basis with rows keyed by pivot label, whose
    insert searches every row for the new pivot: a standalone labeled
    oracle for SubspaceBasis, which keys its rows and its holder index by
    position.  insert returns the same residue coords as SubspaceBasis."""

    def __init__(self, space):
        self.space = space
        self.rows = {}

    def insert(self, vec):
        if vec.space != self.space:
            raise ValueError("space mismatch")
        v = dict(vec.coords)
        # clearing one pivot of a reduced basis leaves the others scaled
        for p in [p for p in v if p in self.rows]:
            v = _clear_pivot(v, self.rows[p], p)
        if not v:
            return None
        residue = _primitive_row(v)
        p = min(residue)
        if residue[p] < 0:
            residue = {k: -c for k, c in residue.items()}
        for q, row in self.rows.items():
            if p in row:
                self.rows[q] = _primitive_row(_clear_pivot(row, residue, p))
        self.rows[p] = residue
        return residue


def holders_from_rows(rows):
    """The holder index rebuilt from reduced rows: each non-pivot key (a
    position or a label, as the rows are keyed) -> the pivots whose row
    holds it."""
    holders = {}
    for p, row in rows.items():
        for f in row:
            if f != p:
                holders.setdefault(f, set()).add(p)
    return holders


def assert_index_matches_rows(basis):
    """basis._holders equals the position index rebuilt from its rows,
    empty sets left out."""
    kept = {f: pivots for f, pivots in basis._holders.items() if pivots}
    assert kept == holders_from_rows(basis.rows)


def scanning_kernel_rows(op):
    """Rows of kernel_basis(op), by ScanningBasis and the index rebuilt
    from the reduced matrix rows."""
    matrix = {}
    for lab in op.space_in.labels():
        for out_label, c in op.image_of(lab).coords.items():
            matrix.setdefault(out_label, {})[lab] = c
    row_space = ScanningBasis(op.space_in)
    for row in matrix.values():
        row_space.insert(TensorVector(op.space_in, row))
    rows = row_space.rows
    holders = holders_from_rows(rows)
    kernel = ScanningBasis(op.space_in)
    for f in op.space_in.labels():
        if f not in rows:
            pivots = holders.get(f, ())
            L = lcm(*(rows[p][p] for p in pivots))
            vec = {f: L} | {p: -(L // rows[p][p]) * rows[p][f] for p in pivots}
            kernel.insert(TensorVector(op.space_in, vec))
    return kernel.rows


def scanning_orbit_rows(generators, seeds):
    """Rows of orbit_saturate(generators, seeds).basis, by ScanningBasis,
    with every image rebuilt by the checking TensorVector constructor."""
    space = seeds[0].space
    basis = ScanningBasis(space)
    queue = [seed for seed in seeds if basis.insert(seed) is not None]
    while queue:
        images = [
            TensorVector(space, op.apply(vec).coords) for vec in queue for op in generators
        ]
        queue = [v for v in images if basis.insert(v) is not None]
    return basis.rows


def _random_coords(rng, labels):
    support = rng.sample(labels, rng.randint(1, min(4, len(labels))))
    return {l: rng.randint(-3, 3) for l in support}


def check_against_min_pivot_oracle(space, rng):
    """Insert random vectors and their combinations; compare with the oracle."""
    labels = space.labels()
    vectors = [_random_coords(rng, labels) for _ in range(len(labels) // 2)]
    for _ in range(3):
        a, b = rng.sample(vectors, 2)
        vectors.append(lie.tensor_add(lie.tensor_scale(a, rng.randint(-2, 2)), b))
    basis = SubspaceBasis(space)
    for coords in vectors:
        basis.insert(TensorVector(space, coords))
    oracle = echelon_span_by_min_pivot(vectors)
    assert basis.dim == len(oracle)
    assert_reduced(basis)
    assert_index_matches_rows(basis)
    assert all(basis.contains(TensorVector(space, row)) for row in oracle.values())
    assert not any(min_pivot_reduce(oracle, r) for r in labeled_rows(basis).values())
    probes = [_random_coords(rng, labels) for _ in range(10)]
    probes += [lie.tensor_add(a, lie.tensor_scale(b, 3)) for a, b in zip(vectors, vectors[1:])]
    for coords in probes:
        vec = TensorVector(space, coords)
        assert basis.contains(vec) == (not min_pivot_reduce(oracle, coords))
    # a span has one reduced basis, whatever the vectors and their order
    for others in (rng.sample(vectors, len(vectors)), list(oracle.values())):
        again = SubspaceBasis(space)
        for coords in others:
            again.insert(TensorVector(space, coords))
        assert labeled_rows(again) == labeled_rows(basis) and subspace_equal(basis, again)


def operator_on_labels(space_in, space_out, fn, name=""):
    """The LinearOperator sending each label of space_in to fn(label), a
    TensorVector of space_out or label-keyed coords, checked through
    TensorVector: the label route for operators written out by hand."""

    def image_row(p):
        vec = fn(space_in.labels()[p])
        if not isinstance(vec, TensorVector):
            vec = TensorVector(space_out, vec)
        elif vec.space != space_out:
            raise ValueError(f"{vec.space.descriptor} is not {space_out.descriptor}")
        return vec.row

    return LinearOperator(space_in, space_out, image_row, name)


def dual_images(base):
    """Dual action table of an operator on VSpace(n), by label, from its
    inverse: d -> the coords of e_d^* -> sum_c <e_d, g^-1 e_c> e_c^*.  The
    oracle for the position shifts of the Mk lift."""
    cols = {c: base.inverse.image_of(c).coords for c in base.space_in.labels()}
    return {d: {c: cols[c][d] for c in cols if d in cols[c]} for d in cols}


def matrix_of(op):
    """{(row, column): entry} of an operator on VSpace(n): the column of
    label c holds the coordinates of op e_c."""
    return {
        (r, c): v for c in op.space_in.labels() for r, v in op.image_of(c).coords.items()
    }


def minor(matrix, rows, cols):
    """det of matrix[rows, cols] by Laplace expansion along the first row:
    the minors oracle for the wedge lift, which sorts index tuples instead."""
    if not rows:
        return 1
    r, rest = rows[0], rows[1:]
    return sum(
        (-1) ** p * matrix.get((r, c), 0) * minor(matrix, rest, cols[:p] + cols[p + 1:])
        for p, c in enumerate(cols)
    )


def random_nielsen_word(rng, n, length):
    word = []
    for _ in range(length):
        i = rng.randrange(1, n + 1)
        j = rng.choice([a for a in range(1, n + 1) if a != i])
        word.append((rng.choice(("L", "R")), i, j, rng.choice((1, -1))))
    return tuple(word)


def random_handle_pair(rng, n, max_len=6):
    """Two handles with index sets of size 2-3 (the second one disjoint from
    the first half of the time) and independent random Nielsen conjugators
    of length at most max_len."""
    I = rng.sample(range(1, n + 1), rng.randint(2, 3))
    rest = [a for a in range(1, n + 1) if a not in I]
    if rng.random() < 0.5:
        J = rng.sample(rest, 2)
    else:
        J = rng.sample(range(1, n + 1), rng.randint(2, 3))
    c1, c2 = (random_nielsen_word(rng, n, rng.randint(0, max_len)) for _ in "12")
    return commgraph.handle(n, I, c1), commgraph.handle(n, J, c2)


def parabolic_generators(h):
    """Conjugated Nielsen generators {L_ab, R_ab : a != b in I}, each built
    with make_nielsen and conjugated by the handle's full conjugator."""
    if len(h.indices) < 2:
        raise ValueError(
            "parabolics on fewer than two indices have no Nielsen generators; "
            "handles with |I| <= 1 are rejected"
        )
    g = h.conjugator_automorphism()
    gens = []
    for a in sorted(h.indices):
        for b in sorted(h.indices):
            if a == b:
                continue
            for side in ("L", "R"):
                gens.append(autf.make_nielsen(side, a, b, 1, h.rank).conjugate(g))
    return gens


def commutes_by_conjugating_both(h1, h2):
    """Elementwise commutation with both handles' generators conjugated by
    their full conjugators and compared through [g1, g2] = 1: oracle for
    commgraph.commutes, which works in the first handle's frame and caches
    its verdicts per (rank, I, J, relative conjugator)."""
    gens2 = parabolic_generators(h2)
    return all(
        is_identity(autf.group_commutator(g1, g2))
        for g1 in parabolic_generators(h1)
        for g2 in gens2
    )


def conjugate_path_by_segments(n, I, word):
    """Handles of commgraph.conjugate_path(n, I, word), built letter by
    letter from the back: each letter's own path from the parabolic on I
    (one handle if its support misses I, else a detour through the lowest
    free block K), relabelled by the tail after the letter and joined where
    its first handle equals the path's last one."""
    I = frozenset(I)
    m = len(I)
    if 2 * m + 1 > n:
        raise ValueError(f"need 2m+1 <= n, got m={m}, n={n}")
    handles = [commgraph.handle(n, I)]
    for pos in range(len(word) - 1, -1, -1):
        end = commgraph.handle(n, I, word[pos:pos + 1])
        _, i, j, _ = end.conjugator[0]
        if not {i, j} & I:
            segment = [end]
        else:
            free = [a for a in range(1, n + 1) if a not in I | {i, j}]
            segment = [commgraph.handle(n, I), commgraph.handle(n, free[:m]), end]
        tail = tuple(word[pos + 1:])
        segment = [commgraph.handle(n, h.indices, h.conjugator + tail) for h in segment]
        if len(segment) == 1:
            handles[-1] = segment[0]
            continue
        if segment[0] != handles[-1]:
            raise AssertionError("junction mismatch in path assembly")
        handles.extend(segment[1:])
    return tuple(handles)


def random_vertex_list(rng):
    """Handles collected as bnscert.assemble_certificate collects them: the
    parabolic on a random 2-set I at n = 5-7, then the handles of the
    conjugate paths of 1-3 random Nielsen words, each handle once.  Half the
    time the vertices after the first are shuffled, and a quarter of the
    time the parabolic on all n indices, which commutes with no other
    handle, is put among them, so the list is not connected."""
    n = rng.randint(5, 7)
    I = rng.sample(range(1, n + 1), 2)
    handles = [commgraph.handle(n, I)]
    for _ in range(rng.randint(1, 3)):
        word = random_nielsen_word(rng, n, rng.randint(1, 5))
        for h in commgraph.conjugate_path(n, I, word):
            if h not in handles:
                handles.append(h)
    rest = handles[1:]
    if rng.random() < 0.5:
        rng.shuffle(rest)
    if rng.random() < 0.25:
        rest.insert(rng.randint(0, len(rest)), commgraph.handle(n, range(1, n + 1)))
    return handles[:1] + rest


def breadth_first_by_adjacency(handles):
    """(order, parent) as bnscert._breadth_first returns them, found the
    long way: commgraph.commutes on every pair of vertices, breadth-first
    distances from vertex 0, the reached vertices sorted by (distance,
    index), and as each one's parent its least (distance, index) neighbour
    one layer nearer (None for vertex 0)."""
    adjacency = {v: set() for v in range(len(handles))}
    for a in range(len(handles)):
        for b in range(a + 1, len(handles)):
            if commgraph.commutes(handles[a], handles[b]):
                adjacency[a].add(b)
                adjacency[b].add(a)
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adjacency[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    order = sorted(dist, key=lambda v: (dist[v], v))
    parent = {
        v: min(
            (u for u in adjacency[v] if dist[u] < dist[v]),
            key=lambda u: (dist[u], u),
            default=None,
        )
        for v in order
    }
    return order, parent


def has_depth_at_least(phi, k, cutoff):
    """johnson_depth(phi, cutoff) is at least k, or no degree below the
    cutoff deviates."""
    depth = magnus.johnson_depth(phi, cutoff)
    return depth is None or depth >= k


def dual_components(vec):
    """The MkSpace(n, k) vector vec as {dual index i: its Lie value in
    Lyndon coordinates}."""
    coords = {}
    for (i, w), c in vec.coords.items():
        coords.setdefault(i, {})[w] = c
    return coords


def jacobi_sum(u, v, w):
    """[u, [v, w]] + [v, [w, u]] + [w, [u, v]] on tensor dicts."""
    br = lie.tensor_bracket
    out = {}
    for a, b, c in ((u, v, w), (v, w, u), (w, u, v)):
        lie.tensor_add_into(out, br(a, br(b, c)), 1)
    return out


def lyndon_tensor(coords):
    """Tensor dict of a Lie element given in Lyndon coordinates."""
    out = {}
    for w, c in coords.items():
        lie.tensor_add_into(out, lie.lyndon_word_tensor(w), c)
    return out


def substitute_per_occurrence(images, w):
    """Substitute images[i-1] for x_i in w by raw concatenation, inverting
    the image again at every x_i^-1, reduced by the checking constructor:
    the oracle for autf substitution, which inverts each image once."""
    out = []
    for i, s in w.letters:
        img = images[i - 1].letters
        out.extend(img if s == 1 else [(j, -t) for j, t in reversed(img)])
    return autf.FreeWord(w.rank, out)


def compose_per_occurrence(phi, psi):
    """phi.compose(psi) through substitute_per_occurrence."""
    return autf.FreeAutomorphism(
        phi.rank,
        [substitute_per_occurrence(phi.images, w) for w in psi.images],
        [substitute_per_occurrence(psi.inverse_images, w) for w in phi.inverse_images],
        check=False,
    )


def random_word(rng, n, length):
    letters = [
        (rng.randrange(1, n + 1), rng.choice((1, -1))) for _ in range(length)
    ]
    return autf.FreeWord(n, letters)


def random_generator(rng, n):
    """A random member of the named degree-1 generator families."""
    kind = rng.choice(("L", "R", "C", "M"))
    i, j = rng.sample(range(1, n + 1), 2)
    if kind in ("L", "R"):
        return autf.make_nielsen(kind, i, j, rng.choice((1, -1)), n)
    if kind == "C":
        return autf.make_magnus_C(i, j, n)
    k = rng.choice([a for a in range(1, n + 1) if a not in (i, j)])
    return autf.make_magnus_M(i, j, k, n)


def random_automorphism(rng, n, length=4):
    acc = autf.identity_automorphism(n)
    for _ in range(length):
        acc = acc.compose(random_generator(rng, n))
    return acc


def random_deep_word(rng, n, avoid, nesting):
    """A random word free of x_avoid, inside the (nesting+1)-st lower
    central term, built so that its low Magnus degrees cancel.  Nesting 0
    is a short word; nesting 1 a commutator of short words, [x_a^L, x_b^L]
    or the conjugate x_a^L c x_a^-L of such a commutator c; more nesting
    brackets a word of one less with a short word."""
    letters = [a for a in range(1, n + 1) if a != avoid]

    def short():
        length = rng.randrange(1, 4)
        return autf.FreeWord(
            n, [(rng.choice(letters), rng.choice((1, -1))) for _ in range(length)]
        )

    if nesting == 0:
        return short()
    if nesting > 1:
        return autf.group_commutator(random_deep_word(rng, n, avoid, nesting - 1), short())
    kind = rng.choice(("commutator", "powers", "conjugate"))
    if kind == "commutator":
        return autf.group_commutator(short(), short())
    a, b = rng.choice(letters), rng.choice(letters)
    power = autf.FreeWord(n, [(a, 1)] * rng.randrange(1, 6))
    if kind == "powers":
        return autf.group_commutator(power, autf.FreeWord(n, [(b, 1)] * len(power)))
    return power * autf.group_commutator(short(), short()) * power.inverse()


def random_deep_automorphism(rng, n, max_letters=300):
    """A product of one to three moves x_i -> u x_i v with u and v from
    random_deep_word at one nesting of 0 to 3, sometimes with a degree-1
    generator factor; drawn again until no image has over max_letters
    letters (composed moves substitute into each other and can grow to
    10^5 letters)."""
    while True:
        nesting = rng.randrange(4)
        acc = autf.identity_automorphism(n)
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.1:
                acc = acc.compose(random_generator(rng, n))
                continue
            i = rng.randrange(1, n + 1)
            u, v = (random_deep_word(rng, n, i, nesting) for _ in range(2))
            acc = acc.compose(autf._single_move(n, i, u.letters, v.letters, check=True))
        if all(len(w) <= max_letters for w in acc.images):
            return acc


def brute_lyndon_count(n, m):
    """Count Lyndon words by direct rotation-minimality over all n^m words."""
    import itertools

    count = 0
    for w in itertools.product(range(1, n + 1), repeat=m):
        if all(w < w[r:] + w[:r] for r in range(1, m)):
            count += 1
    return count


def _mobius(d):
    if d == 1:
        return 1
    m, k, p = d, 0, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            k += 1
        else:
            p += 1
    if m > 1:
        k += 1
    return -1 if k % 2 else 1


def witt_dimension(n, m):
    """Dimension of the degree-m free Lie component on n letters:
    (1/m) sum_{d|m} mu(d) n^{m/d}, the Witt formula."""
    total = sum(_mobius(d) * n ** (m // d) for d in range(1, m + 1) if m % d == 0)
    assert total % m == 0
    return total // m


def brute_necklace_count(n, m):
    import itertools

    reps = set()
    for w in itertools.product(range(1, n + 1), repeat=m):
        reps.add(min(w[r:] + w[:r] for r in range(m)))
    return len(reps)


def cyclic_shift(t):
    """v1 (x) ... (x) vk maps to v2 (x) ... (x) vk (x) v1 on a TensorSpace vector."""
    assert t.space.family == "T"
    return TensorVector(
        t.space, {mono[1:] + mono[:1]: c for mono, c in t.coords.items()}
    )


def cyclic_invariant_basis(n, k):
    """Orbit-sum basis of the pointwise shift-invariant subspace of
    TensorSpace(n, k): one vector per necklace."""
    space = TensorSpace(n, k)
    seen = set()
    out = []
    for mono in space.labels():
        orbit = {mono[r:] + mono[:r] for r in range(k)}
        rep = min(orbit)
        if rep in seen:
            continue
        seen.add(rep)
        out.append(TensorVector(space, dict.fromkeys(orbit, 1)))
    return out


def make_signed_permutation(n, perm, signs=None):
    """Automorphism x_i -> x_{perm[i]}^{signs[i]} for a permutation of 1..n."""
    signs = dict(signs or {})
    assert sorted(perm.values()) == list(range(1, n + 1))
    images = [None] * n
    inv_images = [None] * n
    for i in range(1, n + 1):
        s = signs.get(i, 1)
        images[i - 1] = autf.FreeWord.generator(n, perm[i], s)
        inv_images[perm[i] - 1] = autf.FreeWord.generator(n, i, s)
    return autf.FreeAutomorphism(n, images, inv_images)
