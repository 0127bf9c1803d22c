import random

import pytest

from wordrep import (
    CapExceeded,
    all_modules,
    complement,
    connected_components,
    induced_subgraph,
    is_module,
    lex_product,
    make_graph,
    maximal_modular_partition,
    quotient,
    reconstruct,
    substitute,
)
from wordrep.modular import induced_block_graphs
from helpers import (
    atlas_connected,
    complete,
    cycle,
    path_graph,
    random_connected_graph,
    random_graph,
    star,
    wheel,
)
from oracles import (
    brute_lex_product,
    brute_quotient,
    brute_strong_maximal_blocks,
    brute_substitute,
)


def test_singletons_and_v_are_modules():
    for g in (cycle(5), wheel(5), complete(4)):
        for v in range(g.n):
            assert is_module(g, {v})
        assert is_module(g, range(g.n))


def test_wheel_rim_is_module():
    assert is_module(wheel(5), range(1, 6))


def test_c5_pair_is_not_a_module():
    assert not is_module(cycle(5), {0, 1})


def test_is_module_rejects_bad_input():
    with pytest.raises(ValueError):
        is_module(cycle(5), set())
    with pytest.raises(ValueError):
        is_module(cycle(5), {9})


def test_all_modules_c5_trivial_only():
    mods = set(all_modules(cycle(5)))
    assert mods == {frozenset({v}) for v in range(5)} | {frozenset(range(5))}


def test_all_modules_w6_trivial_plus_rim():
    mods = set(all_modules(wheel(6)))
    expected = {frozenset({v}) for v in range(7)}
    expected.add(frozenset(range(7)))
    expected.add(frozenset(range(1, 7)))
    assert mods == expected


def test_all_modules_complete_graph_all_subsets():
    assert len(all_modules(complete(3))) == 7


def test_all_modules_guard():
    with pytest.raises(CapExceeded):
        all_modules(make_graph(16, []))


def test_partition_w6():
    p = maximal_modular_partition(wheel(6))
    assert [sorted(b) for b in p.blocks] == [[0], [1, 2, 3, 4, 5, 6]]
    assert p.quotient == complete(2)
    assert p.block_map == (0, 1, 1, 1, 1, 1, 1)


def test_partition_c5_is_prime():
    p = maximal_modular_partition(cycle(5))
    assert all(len(b) == 1 for b in p.blocks)
    assert p.quotient == cycle(5)


def test_partition_of_substituted_wheel():
    w5, _, _ = substitute(make_graph(2, [(0, 1)]), 0, cycle(5))
    p = maximal_modular_partition(w5)
    assert [sorted(b) for b in p.blocks] == [[0], [1, 2, 3, 4, 5]]
    assert p.quotient == complete(2)


def test_partition_complete_graph_is_singletons():
    p = maximal_modular_partition(complete(4))
    assert all(len(b) == 1 for b in p.blocks)
    assert p.quotient == complete(4)


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        maximal_modular_partition(make_graph(1, []))
    with pytest.raises(ValueError):
        maximal_modular_partition(make_graph(3, [(0, 1)]))


def test_partition_matches_enumeration_oracle():
    rng = random.Random(40)
    graphs = list(atlas_connected(6)) + [
        random_connected_graph(rng, n) for n in (7, 8, 9, 10) for _ in range(12)
    ]
    # substitutions into prime quotients: graphs whose complement is
    # connected, with nontrivial blocks, within all_modules' n <= 15
    primes = [q for q in atlas_connected(5, min_n=4) if len(all_modules(q)) == q.n + 1]
    for _ in range(12):
        g = rng.choice(primes)
        # highest pivot first, so the lower pivots keep their labels
        for pivot in sorted(rng.sample(range(g.n), rng.randint(1, 3)), reverse=True):
            g, _, _ = substitute(g, pivot, random_graph(rng, rng.randint(2, 4), rng.random()))
        graphs.append(g)
    for g in graphs:
        if g.n < 2:
            continue
        p = maximal_modular_partition(g)
        assert sorted(p.blocks, key=min) == brute_strong_maximal_blocks(g)


def blow_up(q, pieces, label):
    """q with vertex i replaced by the graph pieces[i], vertices renamed by
    ``label``; returns the graph and each piece's vertex set."""
    first = [sum(p.n for p in pieces[:i]) for i in range(len(pieces))]
    members = [[label[first[i] + x] for x in range(p.n)] for i, p in enumerate(pieces)]
    edges = [(members[i][a], members[i][b]) for i, p in enumerate(pieces) for a, b in p.edges]
    for i, j in q.edges:
        edges += [(a, b) for a in members[i] for b in members[j]]
    return make_graph(len(label), edges), [frozenset(m) for m in members]


def test_partition_of_large_substitutions_into_prime_quotients():
    # past all_modules' n <= 15: the pieces of a substitution into a prime
    # quotient are exactly its maximal strong modules
    rng = random.Random(46)
    primes = [q for q in atlas_connected(7, min_n=4) if len(all_modules(q)) == q.n + 1]
    for _ in range(30):
        q = rng.choice(primes)
        pieces = [random_graph(rng, rng.randint(1, 15), rng.random()) for _ in range(q.n)]
        label = list(range(sum(p.n for p in pieces)))
        rng.shuffle(label)
        g, members = blow_up(q, pieces, label)
        p = maximal_modular_partition(g)
        order = sorted(range(q.n), key=lambda i: min(members[i]))
        assert list(p.blocks) == [members[i] for i in order]
        assert p.quotient == make_graph(
            q.n, [(order.index(i), order.index(j)) for i, j in q.edges]
        )
        assert all(p.block_map[v] == order.index(i) for i, m in enumerate(members) for v in m)


def test_partition_of_joins_is_the_co_components():
    rng = random.Random(47)
    for _ in range(30):
        parts = [random_graph(rng, rng.randint(1, 20), rng.random()) for _ in range(rng.randint(2, 5))]
        label = list(range(sum(p.n for p in parts)))
        rng.shuffle(label)
        g, _ = blow_up(complete(len(parts)), parts, label)
        blocks = maximal_modular_partition(g).blocks
        assert list(blocks) == connected_components(complement(g))
        assert len(blocks) >= len(parts)


def test_prime_families_partition_into_singletons():
    # the complement of a long cycle is the dense prime case
    families = [cycle(n) for n in range(5, 61)] + [complement(cycle(n)) for n in range(5, 61)]
    families += [path_graph(n) for n in range(4, 61)]
    for g in families:
        p = maximal_modular_partition(g)
        assert p.blocks == tuple(frozenset({v}) for v in range(g.n))
        assert p.quotient == g


def test_partition_invariant_under_relabeling():
    rng = random.Random(41)
    for _ in range(25):
        g = random_connected_graph(rng, 7)
        perm = list(range(7))
        rng.shuffle(perm)
        h = make_graph(7, [(perm[u], perm[v]) for u, v in g.edges])
        bg = {frozenset(perm[v] for v in b) for b in maximal_modular_partition(g).blocks}
        bh = set(maximal_modular_partition(h).blocks)
        assert bg == bh


def test_quotient_w6():
    q, block_map = quotient(wheel(6), [range(1, 7), {0}])
    assert q == complete(2)
    assert block_map == (1, 0, 0, 0, 0, 0, 0)


def test_quotient_of_singletons_is_identity():
    g = cycle(5)
    q, _ = quotient(g, [{v} for v in range(5)])
    assert q == g


def test_quotient_complete_pairs():
    q, _ = quotient(complete(4), [{0, 1}, {2, 3}])
    assert q == complete(2)


def test_quotient_rejects_non_module_block():
    with pytest.raises(ValueError, match=r"\[0, 1\] is not a module"):
        quotient(cycle(5), [{0, 1}, {2, 3, 4}])


def test_quotient_is_isomorphic_to_representative_subgraph():
    rng = random.Random(42)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randint(2, 8))
        p = maximal_modular_partition(g)
        reps = [min(b) for b in p.blocks]
        sub, relabel = induced_subgraph(g, reps)
        # block i's representative lands on quotient vertex i
        assert sub.n == p.quotient.n
        mapped = frozenset(
            (min(relabel[reps[i]], relabel[reps[j]]), max(relabel[reps[i]], relabel[reps[j]]))
            for i, j in p.quotient.edges
        )
        assert mapped == sub.edges


def test_substitute_k2_c5_gives_wheel():
    w5, g_map, m_map = substitute(make_graph(2, [(0, 1)]), 0, cycle(5))
    assert w5 == wheel(5)
    assert g_map == {1: 0}
    assert m_map == {i: i + 1 for i in range(5)}


def test_substitute_k2_c6_gives_w6():
    out, _, _ = substitute(make_graph(2, [(0, 1)]), 0, cycle(6))
    assert out == wheel(6)


def test_substitute_k1_is_identity_up_to_relabeling():
    g = wheel(5)
    out, g_map, m_map = substitute(g, 3, make_graph(1, []))
    # the pivot moved to the end; rebuild the edge set through the maps
    full_map = dict(g_map)
    full_map[3] = m_map[0]
    rebuilt = frozenset(
        (min(full_map[u], full_map[v]), max(full_map[u], full_map[v]))
        for u, v in g.edges
    )
    assert rebuilt == out.edges


def test_substitute_rejects_bad_pivot():
    with pytest.raises(ValueError):
        substitute(cycle(4), 9, complete(2))


def test_substituted_set_is_module():
    rng = random.Random(43)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 6))
        inner = random_connected_graph(rng, rng.randint(1, 5))
        pivot = rng.randrange(g.n)
        out, _, m_map = substitute(g, pivot, inner)
        assert is_module(out, set(m_map.values()))


def test_lex_product_complete_factors():
    k4, label = lex_product(complete(2), complete(2))
    assert k4 == complete(4)
    assert label[(1, 0)] == 2


def test_lex_product_identity():
    g = wheel(5)
    out, _ = lex_product(g, make_graph(1, []))
    assert out == g


def test_lex_product_k2_c5_is_join_of_two_c5s():
    out, label = lex_product(complete(2), cycle(5))
    assert out.n == 10 and out.m == 35  # 5 + 5 + 25
    # contains the wheel pattern: any rim vertex of one copy + the other copy
    sub, _ = induced_subgraph(out, [label[(0, i)] for i in range(5)] + [label[(1, 0)]])
    assert sub.m == wheel(5).m


def test_lex_product_is_iterated_substitution():
    rng = random.Random(44)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(1, 4))
        h = random_connected_graph(rng, rng.randint(1, 4))
        product, label = lex_product(g, h)
        # substitute h for every vertex of g in sequence, tracking labels
        current = g
        where = {v: v for v in range(g.n)}  # original g-vertex -> current label
        copies: dict[int, dict[int, int]] = {}
        for v in range(g.n):
            current, g_map, m_map = substitute(current, where[v], h)
            where = {ov: g_map[cur] for ov, cur in where.items() if ov != v}
            copies = {
                ov: {hv: g_map[cur] for hv, cur in cmap.items()}
                for ov, cmap in copies.items()
            }
            copies[v] = dict(m_map)
        bijection = {
            label[(a, b)]: copies[a][b] for a in range(g.n) for b in range(h.n)
        }
        remapped = frozenset(
            (min(bijection[u], bijection[v]), max(bijection[u], bijection[v]))
            for u, v in product.edges
        )
        assert remapped == current.edges


def test_reconstruct_round_trip_w6():
    p = maximal_modular_partition(wheel(6))
    assert reconstruct(p, induced_block_graphs(p)) == wheel(6)


def test_reconstruct_round_trip_random():
    rng = random.Random(45)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 8))
        p = maximal_modular_partition(g)
        assert reconstruct(p, induced_block_graphs(p)) == g


def test_reconstruct_rejects_size_mismatch():
    p = maximal_modular_partition(wheel(6))
    with pytest.raises(ValueError):
        reconstruct(p, [complete(2), complete(2)])


def test_star_blocks_are_hub_and_leaves():
    p = maximal_modular_partition(star(3))
    assert [sorted(b) for b in p.blocks] == [[0], [1, 2, 3]]
    leaves_graph = induced_block_graphs(p)[1]
    assert leaves_graph.n == 3 and leaves_graph.m == 0


def test_quotient_is_complete_or_prime():
    # Gallai: the one fact that lets classify decide the quotient directly
    for g in atlas_connected(7, min_n=2):
        q = maximal_modular_partition(g).quotient
        assert q.m == q.n * (q.n - 1) // 2 or all(
            len(b) == 1 for b in maximal_modular_partition(q).blocks
        )


def test_quotient_substitute_and_lex_product_match_builds_from_edge_tuples():
    rng = random.Random(47)
    primes = [q for q in atlas_connected(7, min_n=4) if len(all_modules(q)) == q.n + 1]
    for _ in range(20):
        q = rng.choice(primes)
        pieces = [random_graph(rng, rng.randint(1, 10), rng.random()) for _ in range(q.n)]
        label = list(range(sum(p.n for p in pieces)))
        rng.shuffle(label)
        g, members = blow_up(q, pieces, label)
        for blocks in (members, maximal_modular_partition(g).blocks):
            assert quotient(g, blocks)[0] == brute_quotient(g, blocks)
        inner = rng.choice(pieces)
        pivot = rng.randrange(q.n)
        assert substitute(q, pivot, inner)[0] == brute_substitute(q, pivot, inner)
        assert lex_product(q, inner)[0] == brute_lex_product(q, inner)
