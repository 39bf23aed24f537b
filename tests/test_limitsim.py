import random
import tracemalloc

import pytest

from halinkit.graphs import binary_tree, comb, make_family
import halinkit.limitsim as limitsim
from halinkit.limitsim import (ConstructionState, EpsilonWord, PairCertificate,
                               PairWitness, _tree_swap, alpha,
                               alpha_inverse_perm, alpha_perm, depth_budget,
                               fixing_oracle, run_construction,
                               verify_distinctness, verify_finitary)
from halinkit.perms import Permutation

from oracles import (pair_witnesses_by_pairs, tree_swap_by_pairs,
                     tree_swap_site_by_scan, witnessed_by_counters)


@pytest.fixture(scope="module")
def tree12_k3():
    return run_construction(binary_tree(12), 3)


class TestEpsilonWord:
    def test_validation(self):
        with pytest.raises(ValueError):
            EpsilonWord(())
        with pytest.raises(ValueError):
            EpsilonWord((0, 2))

    def test_from_int_lsb_first(self):
        assert EpsilonWord.from_int(5, 4).bits == (1, 0, 1, 0)

    @pytest.mark.parametrize("call", [
        lambda st: alpha_perm(st, (2,)),
        lambda st: alpha_perm(st, ()),
        lambda st: alpha(st, (), 0),
        lambda st: verify_finitary(st, [0], (2, 5, 7)),
    ], ids=["alpha_perm bit 2", "alpha_perm empty", "alpha empty",
            "verify_finitary bits 2, 5, 7"])
    def test_word_arguments_obey_its_rule(self, call):
        # (2,) must not read as (1,), nor () as the identity word
        with pytest.raises(ValueError, match="sign word"):
            call(run_construction(binary_tree(6), 3))


class TestFixingOracle:
    def test_root_fixed_swaps_under_left_child(self):
        fam = binary_tree(4)
        phi = fixing_oracle(fam, {0})
        assert phi is not None
        assert phi(0) == 0
        # swap happens under vertex 1: children 3 and 4 exchange
        assert phi(3) == 4 and phi(4) == 3
        assert fam.graph.is_automorphism(phi.images)

    def test_deeper_interior_set(self):
        fam = binary_tree(3)
        phi = fixing_oracle(fam, {0, 1, 2})
        assert phi is not None
        assert all(phi(v) == v for v in (0, 1, 2))
        # shallowest clean subtree is under vertex 3
        assert phi(7) == 8 and phi(8) == 7
        assert fam.graph.is_automorphism(phi.images)

    def test_exhausted_when_no_clean_subtree(self):
        # depth-1 vertices are blocked and everything below is a leaf
        fam = binary_tree(2)
        assert fixing_oracle(fam, {0, 1, 2}) is None

    def test_boundary_rejected(self):
        fam = binary_tree(2)
        with pytest.raises(ValueError, match="boundary"):
            fixing_oracle(fam, {0, 3})

    @pytest.mark.parametrize("depth", range(1, 13))
    def test_tree_swap_matches_pair_loop(self, depth):
        # _tree_swap skips the constructor's check, so its images must
        # pass it: a permutation, and an involution
        n = binary_tree(depth).n
        for u in range(2 ** depth - 1):  # every vertex with children
            swap = _tree_swap(u, n)
            assert swap == tree_swap_by_pairs(u, n)
            assert Permutation(swap.images) == swap
            assert (swap * swap).is_identity()

    @pytest.mark.parametrize("depth", range(1, 11))
    def test_tree_oracle_matches_site_scan(self, depth):
        fam = binary_tree(depth)
        n, interior = fam.graph.n, range(2 ** depth - 1)
        rng = random.Random(depth)
        for _ in range(100):
            size = rng.randint(0, min(len(interior), rng.choice(
                (2, 2 * depth, 2 ** depth))))
            fixed = set(rng.sample(interior, size))
            u = tree_swap_site_by_scan(fixed, depth)
            expected = None if u is None else _tree_swap(u, n)
            assert fixing_oracle(fam, fixed) == expected

    def test_comb_leaf_swap(self):
        fam = comb(4)
        phi = fixing_oracle(fam, {0, 1})
        assert phi is not None
        assert phi(2) == 3 and phi(3) == 2
        assert phi.num_moved() == 2
        assert fam.graph.is_automorphism(phi.images)
        assert (phi * phi).is_identity()

    def test_comb_skips_blocked_sites(self):
        fam = comb(4)
        phi = fixing_oracle(fam, {2, 5})  # first two leaf pairs blocked
        assert phi is not None
        assert phi(8) == 9
        assert (phi * phi).is_identity()


class TestRunConstruction:
    def test_invariants_hold(self, tree12_k3):
        st = tree12_k3
        assert st.rounds_completed == 3 and not st.exhausted
        for k in range(3):
            fk, phi, x = st.fsets[k], st.phis[k], st.xs[k]
            assert k in fk                      # v_k absorbed
            assert fk < st.fsets[k + 1]         # strictly nested
            assert all(phi(v) == v for v in fk)
            assert phi(x) != x
            assert st.family.graph.is_automorphism(phi.images)

    def test_closure_is_exactly_the_mandated_union(self, tree12_k3):
        # word by word, the oracle for the iterated unions
        for st in (tree12_k3, run_construction(comb(14), 6),
                   run_construction(binary_tree(8), 6)):
            assert not st.exhausted
            for k in range(st.rounds_completed):
                expected = {st.xs[k], k + 1}
                for m in range(2 ** (k + 1)):
                    bits = EpsilonWord.from_int(m, k + 1)
                    fwd = alpha_perm(st, bits)
                    bwd = alpha_inverse_perm(st, bits)
                    expected |= {fwd(v) for v in st.fsets[k]}
                    expected |= {bwd(v) for v in st.fsets[k]}
                assert st.fsets[k + 1] == frozenset(expected)

    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError):
            run_construction(binary_tree(3), 0)

    def test_exhausts_gracefully(self):
        st = run_construction(binary_tree(2), 5)
        assert st.exhausted
        assert st.rounds_completed == 1
        assert len(st.fsets) == st.rounds_completed + 1

    def test_exhausted_prefix(self, tree12_k3):
        m = tree12_k3.exhausted_prefix
        last = tree12_k3.fsets[-1]
        assert all(v in last for v in range(m))
        assert m not in last

    def test_comb_construction(self):
        st = run_construction(comb(10), 4)
        assert st.rounds_completed == 4
        for k in range(4):
            assert all(st.phis[k](v) == v for v in st.fsets[k])
            assert k in st.fsets[k]

    def test_x_k_is_the_least_moved_point(self):
        for st in (run_construction(binary_tree(10), 8),
                   run_construction(comb(18), 8)):
            assert st.xs == tuple(min(phi.support()) for phi in st.phis)

    def test_round_fixing_every_point_rejected(self, monkeypatch):
        monkeypatch.setattr(limitsim, "fixing_oracle",
                            lambda family, fixed: Permutation.identity(
                                family.graph.n))
        with pytest.raises(ValueError, match="fixes every point"):
            run_construction(binary_tree(4), 2)

    def test_inverse_consistency_checks_every_round_is_an_involution(self):
        for kind in ("binary-tree", "comb"):
            for K in range(1, 9):
                st = run_construction(
                    make_family(kind, depth=depth_budget(kind, K)), K)
                assert st.rounds_completed == K and st.inverse_consistency()
        st = _hand_built_state(5, 4)
        assert not all((phi * phi).is_identity() for phi in st.phis)
        assert not st.inverse_consistency()
        swaps = []  # each phi's first moved point exchanged with its image
        for phi in st.phis:
            v = min(phi.support())
            images = list(range(len(phi.images)))
            images[v], images[phi(v)] = phi(v), v
            swaps.append(Permutation(images))
        assert ConstructionState(st.family, st.fsets, tuple(swaps), st.xs,
                                 st.requested).inverse_consistency()


class TestDepthBudget:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_binary_tree_budget_suffices(self, k):
        st = run_construction(binary_tree(depth_budget("binary-tree", k)), k)
        assert st.rounds_completed == k
        # F_k holds the enumeration prefix 0..k, so the boundary, an index
        # suffix, ends a round before the enumeration outgrows the graph
        assert all(set(range(j + 1)) <= f for j, f in enumerate(st.fsets))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_comb_budget_suffices(self, k):
        st = run_construction(comb(depth_budget("comb", k)), k)
        assert st.rounds_completed == k
        assert all(set(range(j + 1)) <= f for j, f in enumerate(st.fsets))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            depth_budget("binary-tree", 0)
        with pytest.raises(ValueError):
            depth_budget("grid", 3)


class TestAlpha:
    def test_all_zero_word_is_identity(self, tree12_k3):
        for v in sorted(tree12_k3.fsets[-1]):
            assert alpha(tree12_k3, (0, 0, 0), v) == v

    def test_vertex_in_f0_fixed_by_every_word(self, tree12_k3):
        for m in range(8):
            assert alpha(tree12_k3, EpsilonWord.from_int(m, 3), 0) == 0

    def test_x0_moved_by_one_word(self, tree12_k3):
        x0 = tree12_k3.xs[0]
        assert alpha(tree12_k3, (1,), x0) == tree12_k3.phis[0](x0) != x0

    def test_insufficient_rounds(self, tree12_k3):
        with pytest.raises(ValueError, match="rounds"):
            alpha(tree12_k3, (1, 0, 1, 1), 0)

    def test_unstable_vertex_rejected(self, tree12_k3):
        deep = max(v for v in range(tree12_k3.family.graph.n)
                   if v not in tree12_k3.fsets[1])
        with pytest.raises(ValueError, match="stable"):
            alpha(tree12_k3, (1,), deep)

    def test_stability_across_longer_words(self, tree12_k3):
        # for v in F_k, evaluation through later rounds gives the same image
        st = tree12_k3
        for v in sorted(st.fsets[1]):
            for tail in ((0,), (1,)):
                short = (1, 0)
                long = (1, 0) + tail
                assert alpha(st, short, v) == alpha(st, long, v)


class TestDistinctness:
    def test_k1(self):
        st = run_construction(binary_tree(4), 1)
        wits = verify_distinctness(st, 1)
        assert len(wits) == 1
        w = next(iter(wits))
        assert w.image_a != w.image_b

    def test_k3_all_28_pairs(self, tree12_k3):
        wits = verify_distinctness(tree12_k3, 3)
        assert len(wits) == 28
        assert all(w.image_a != w.image_b for w in wits)
        assert all(w.vertex in tree12_k3.fsets[w.first_diff + 1] for w in wits)

    def test_k10_tables_pairwise_distinct(self):
        st = run_construction(binary_tree(depth_budget("binary-tree", 10)), 10)
        assert st.rounds_completed == 10
        domain = sorted(st.fsets[-1])
        tables = {tuple(alpha(st, EpsilonWord.from_int(m, 10), v)
                        for v in domain)
                  for m in range(2 ** 10)}
        assert len(tables) == 2 ** 10

    def test_rounds_out_of_range(self, tree12_k3):
        with pytest.raises(ValueError):
            verify_distinctness(tree12_k3, 4)

    def test_witness_is_an_immutable_hashable_tuple(self, tree12_k3):
        w = next(iter(verify_distinctness(tree12_k3, 3)))
        with pytest.raises(AttributeError):
            w.vertex = 0
        assert PairWitness._fields == ("word_a", "word_b", "first_diff",
                                       "vertex", "image_a", "image_b")
        assert w == tuple(w) and hash(w) == hash(tuple(w))
        assert len({w, PairWitness(*w)}) == 1

    def test_witnesses_match_word_by_word_oracle(self, tree12_k3):
        for st in (tree12_k3, run_construction(comb(12), 5)):
            K = st.rounds_completed
            words = [EpsilonWord.from_int(m, K).bits for m in range(2 ** K)]
            perms = {bits: alpha_perm(st, bits) for bits in words}
            wits = verify_distinctness(st)
            assert [(w.word_a, w.word_b) for w in wits] == [
                (a, b) for i, a in enumerate(words) for b in words[i + 1:]]
            for w in wits:
                k = next(i for i in range(K) if w.word_a[i] != w.word_b[i])
                assert w.first_diff == k
                assert w.vertex == min(v for v in st.fsets[k + 1]
                                       if st.phis[k](v) != v)
                assert w.image_a == perms[w.word_a](w.vertex)
                assert w.image_b == perms[w.word_b](w.vertex)


def _hand_built_state(seed, K):
    """Random phis and F_k on 7 points, which need not be automorphisms or
    nested sets, so images collide; phi_idle fixes all of F_{idle+1}."""
    rng = random.Random(seed)
    family = binary_tree(2)
    n = family.graph.n
    fsets = [frozenset(rng.sample(range(n), rng.randint(1, 4)))
             for _ in range(K + 1)]
    idle = rng.randrange(K)
    phis = []
    for k in range(K):
        movable = [v for v in range(n) if k != idle or v not in fsets[k + 1]]
        images = list(range(n))
        for v, w in zip(movable, rng.sample(movable, len(movable))):
            images[v] = w
        phis.append(Permutation(images))
    return ConstructionState(family, tuple(fsets), tuple(phis),
                             tuple(range(K)), K)


class TestPairCertificate:
    @pytest.mark.parametrize("kind", ["binary-tree", "comb"])
    @pytest.mark.parametrize("K", range(1, 9))
    def test_matches_pair_by_pair_oracle(self, kind, K):
        st = run_construction(make_family(kind, depth=depth_budget(kind, K)),
                              K)
        cert = verify_distinctness(st, K)
        expected = pair_witnesses_by_pairs(st, K)
        assert isinstance(cert, PairCertificate)
        assert list(cert) == expected
        assert len(cert) == len(expected) == 2 ** K * (2 ** K - 1) // 2
        assert cert.witnessed() == len(expected)

    @pytest.mark.parametrize("kind", ["binary-tree", "comb"])
    @pytest.mark.parametrize("K", range(1, 9))
    def test_images_match_all_rounds_table(self, kind, K):
        # each level's period is read off the rounds up to its own; the
        # full product of all K rounds must give the same image for every
        # word m, read at m mod the period's length
        st = run_construction(make_family(kind, depth=depth_budget(kind, K)),
                              K)
        cert = verify_distinctness(st, K)
        for m in range(2 ** K):
            p = alpha_perm(st, EpsilonWord.from_int(m, K))
            for v, period in zip(cert.movers, cert.periods):
                if v is not None:
                    assert period[m % len(period)] == p(v)

    def test_witnessed_counts_collisions_and_idle_levels(self):
        short, idle_levels = 0, 0
        for seed in range(40):
            K = 1 + seed % 5
            st = _hand_built_state(seed, K)
            cert = verify_distinctness(st)
            expected = pair_witnesses_by_pairs(st, K)
            assert list(cert) == expected and len(cert) == len(expected)
            witnessed = sum(w.image_a != w.image_b for w in expected)
            assert cert.witnessed() == witnessed
            short += witnessed < len(expected)
            idle_levels += len(expected) < 2 ** K * (2 ** K - 1) // 2
        assert short > 10 and idle_levels > 10  # both cases are exercised

    @pytest.mark.parametrize("kind, K", [("binary-tree", K) for K in range(1, 9)]
                             + [("comb", K) for K in range(1, 11)])
    def test_constructed_periods_match_counters(self, kind, K):
        # later rounds fix each level's mover: one block per period column
        st = run_construction(make_family(kind, depth=depth_budget(kind, K)),
                              K)
        cert = verify_distinctness(st, K)
        assert [len(p) for p in cert.periods] == [2 << k for k in range(K)]
        assert cert.witnessed() == witnessed_by_counters(st, K) == len(cert)

    def test_witnessed_matches_counters_on_long_periods(self):
        # random rounds move earlier levels' movers, so periods run past
        # 2^(k+1) and every block's low half meets every block's high half
        long_periods = 0
        for seed in range(200):
            K = 1 + seed % 8
            st = _hand_built_state(1000 + seed, K)
            cert = verify_distinctness(st)
            assert cert.witnessed() == witnessed_by_counters(st, K)
            if K <= 5:
                assert cert.witnessed() == sum(
                    w.image_a != w.image_b
                    for w in pair_witnesses_by_pairs(st, K))
            long_periods += sum(
                v is not None and len(p) > 2 << k
                for k, (v, p) in enumerate(zip(cert.movers, cert.periods)))
        assert long_periods > 100

    @pytest.mark.parametrize("K", range(1, 11))
    def test_words_are_the_epsilon_words_in_index_order(self, K):
        cert = verify_distinctness(_hand_built_state(K, K))
        words = [EpsilonWord.from_int(m, K).bits for m in range(2 ** K)]
        assert [(w.word_a, w.word_b) for w in cert] == [
            (a, b) for i, a in enumerate(words) for b in words[i + 1:]
            if cert.movers[list(map(int.__ne__, a, b)).index(True)]
            is not None]

    def test_k16_comb_certificate_holds_only_its_periods(self):
        # 2^17 - 2 period entries; a 2^16-word list alone would take ~12 MB
        st = run_construction(comb(depth_budget("comb", 16)), 16)
        tracemalloc.start()
        try:
            cert = verify_distinctness(st, 16)
            assert cert.witnessed() == len(cert) == 2 ** 16 * (2 ** 16 - 1) // 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(vars(cert)) == ["movers", "periods"]
        assert sum(map(len, cert.periods)) == 2 ** 17 - 2
        assert peak < 3_000_000

    def test_witnessed_builds_no_rotated_periods(self):
        # each rotation is compared as a view: a copy of the level-15
        # period alone would take about 1 MB
        st = run_construction(comb(depth_budget("comb", 16)), 16)
        cert = verify_distinctness(st, 16)
        tracemalloc.start()
        try:
            witnessed = cert.witnessed()
            extra = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert witnessed == len(cert)
        assert extra < 100_000

    def test_items_are_pair_witnesses(self, tree12_k3):
        cert = verify_distinctness(tree12_k3, 3)
        assert all(type(w) is PairWitness for w in cert)
        assert list(cert) == list(cert)  # iterable more than once


class TestInverseConsistency:
    def test_all_words_k3(self, tree12_k3):
        n = tree12_k3.family.graph.n
        for m in range(8):
            w = EpsilonWord.from_int(m, 3)
            fwd = alpha_perm(tree12_k3, w)
            bwd = alpha_inverse_perm(tree12_k3, w)
            assert (fwd * bwd) == Permutation.identity(n)
            assert (bwd * fwd) == Permutation.identity(n)

    def test_alpha_preserves_adjacency_on_stable_region(self, tree12_k3):
        st = tree12_k3
        g = st.family.graph
        stable = sorted(st.fsets[2])
        for m in range(8):
            w = EpsilonWord.from_int(m, 3)
            images = {v: alpha(st, w, v) for v in stable}
            assert len(set(images.values())) == len(stable)  # injective
            for a in stable:
                for b in stable:
                    if a < b:
                        assert g.has_edge(a, b) == \
                            g.has_edge(images[a], images[b])


class TestFinitary:
    def test_tuple_in_f0(self, tree12_k3):
        assert verify_finitary(tree12_k3, [0], EpsilonWord.from_int(6, 3))

    def test_empty_tuple(self, tree12_k3):
        assert verify_finitary(tree12_k3, [], EpsilonWord.from_int(3, 3))

    def test_insufficient_rounds(self, tree12_k3):
        with pytest.raises(ValueError):
            verify_finitary(tree12_k3, [0, 1, 2], EpsilonWord.from_int(3, 3))

    @pytest.mark.parametrize("vertices", [[-1], [-5, 1], [0, 511]])
    def test_vertices_out_of_range(self, vertices):
        st = run_construction(binary_tree(8), 4)
        assert st.family.graph.n == 511
        with pytest.raises(ValueError, match="out of range"):
            verify_finitary(st, vertices, (1, 1, 1, 1))

    def test_deeper_state_many_tuples(self):
        st = run_construction(binary_tree(12), 6)
        assert st.rounds_completed == 6
        for v in range(4):
            for m in (0, 21, 45, 63):
                assert verify_finitary(st, [v], EpsilonWord.from_int(m, 6))
        assert verify_finitary(st, [0, 1, 2, 3], EpsilonWord.from_int(45, 6))


class TestSerialization:
    def test_state_round_trip_fields(self, tree12_k3):
        blob = tree12_k3.to_json()
        assert blob["completed_rounds"] == 3
        assert blob["family"] == "binary-tree"
        assert len(blob["fsets"]) == 4
        assert len(blob["phis"]) == 3

    def test_exhaustion_export(self, tree12_k3):
        e = tree12_k3.exhaustion()
        assert len(e) == 4
        assert not e.covers
