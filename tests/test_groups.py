import hashlib
import itertools
import json
import math
import random

import pytest

from halinkit.autgroup import automorphism_group
from halinkit.graphs import (Graph, binary_tree, complete, complete_bipartite,
                             cycle, path, petersen)
from halinkit.invariants import determining_number, distinguishing_cost
from halinkit.perms import Permutation
from halinkit.groups import GroupTooLargeError, PermGroup, _Chain

from conftest import dihedral
from corpus import hypercube, random_regular, small_corpus
from oracles import (brute_automorphisms, brute_point_stabilizer,
                     brute_set_stabilizer, networkx_automorphisms,
                     prefixed_schreier_sims)


def symmetric(n):
    if n == 1:
        return PermGroup(1)
    gens = [Permutation([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(Permutation(list(range(1, n)) + [0]))
    return PermGroup(n, gens)


class TestOrbit:
    def test_dihedral_transitive(self, d8):
        assert d8.orbit(0) == frozenset(range(8))

    def test_trivial_group(self):
        assert PermGroup(5).orbit(3) == frozenset({3})

    def test_point_stabilizer_orbit(self, d8):
        stab = d8.point_stabilizer({0})
        assert stab.orbit(1) == frozenset({1, 7})

    def test_out_of_range(self, d8):
        with pytest.raises(ValueError):
            d8.orbit(9)

    @pytest.mark.parametrize("x", [1.5, "a", None, True])
    def test_point_must_be_an_int(self, d8, x):
        with pytest.raises(ValueError, match="out of range"):
            d8.orbit(x)


class TestBsgs:
    def test_dihedral_5(self):
        g = PermGroup(5, [Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]),
                          Permutation.from_cycles(5, [(1, 4), (2, 3)])])
        assert g.order() == 10

    def test_empty_generators(self):
        assert PermGroup(4).order() == 1

    def test_symmetric_orders(self):
        for n in range(1, 8):
            assert symmetric(n).order() == math.factorial(n)

    def test_deterministic_chain(self, d8):
        a = dihedral(8).chain()
        b = dihedral(8).chain()
        assert a.base == b.base
        assert [sorted(t) for t in a.transversals] == \
               [sorted(t) for t in b.transversals]
        assert a.strong_gens == b.strong_gens


class TestContains:
    def test_d5_reflection(self, d5):
        assert d5.contains(Permutation([0, 4, 3, 2, 1]))

    def test_d5_rejects_transposition(self, d5):
        assert not d5.contains(Permutation([1, 0, 2, 3, 4]))

    def test_identity_always(self, d8):
        assert d8.contains(Permutation.identity(8))

    def test_agrees_with_enumeration(self, d6):
        import itertools
        elems = {p.images for p in d6.elements()}
        for candidate in itertools.permutations(range(6)):
            assert d6.contains(Permutation(candidate)) == (candidate in elems)

    def test_degree_mismatch(self, d6):
        with pytest.raises(ValueError):
            d6.contains(Permutation.identity(5))


class TestPointStabilizer:
    def test_cycle8_one_point(self, d8):
        assert d8.point_stabilizer({0}).order() == 2

    def test_cycle8_two_points(self, d8):
        assert d8.point_stabilizer({0, 1}).order() == 1

    def test_empty_set_whole_group(self, d8):
        assert d8.point_stabilizer(set()).order() == 16

    def test_matches_brute_force(self, d6):
        elems = [p.images for p in d6.elements()]
        for s in [{0}, {1, 2}, {0, 3}, {0, 1, 2}]:
            got = sorted(p.images for p in d6.point_stabilizer(s).elements())
            want = sorted(brute_point_stabilizer(elems, s))
            assert got == want


class TestSetStabilizer:
    def test_cycle8_adjacent_pair(self, d8):
        assert d8.set_stabilizer({0, 1}).order() == 2

    def test_full_set_whole_group(self):
        g = dihedral(4)
        assert g.set_stabilizer(set(range(4))).order() == 8

    def test_k4_pair(self):
        s4 = symmetric(4)
        assert s4.set_stabilizer({0, 1}).order() == 4

    def test_matches_brute_force(self, d8):
        elems = [p.images for p in d8.elements()]
        for s in [{0, 1}, {0, 4}, {0, 2, 4}, {1, 3, 5, 7}, {0, 1, 2}]:
            got = sorted(p.images for p in d8.set_stabilizer(s).elements())
            want = sorted(brute_set_stabilizer(elems, s))
            assert got == want

    def test_every_member_preserves_set(self, d8):
        s = {0, 1, 3}
        stab = d8.set_stabilizer(s)
        for p in stab.elements():
            assert {p(v) for v in s} == s

    @pytest.mark.parametrize("query", ["point_stabilizer", "set_stabilizer",
                                       "set_stabilizer_is_trivial"])
    @pytest.mark.parametrize("points", [{0, 8}, {-1}])
    def test_points_out_of_range(self, d8, query, points):
        with pytest.raises(ValueError, match="out of range"):
            getattr(d8, query)(points)

    @pytest.mark.parametrize("query", ["point_stabilizer", "set_stabilizer",
                                       "set_stabilizer_is_trivial"])
    @pytest.mark.parametrize("points", [[1.5], ["a"], [None], [True],
                                        [2, 1.0], [3, "a"]])
    def test_points_must_be_ints(self, d8, query, points):
        """A float failed inside the swaps with TypeError, a string or None
        failed a comparison with TypeError, and True was read as vertex 1."""
        with pytest.raises(ValueError, match="out of range"):
            getattr(d8, query)(points)

    def test_kept_answer_does_not_admit_a_bool(self, d8):
        assert d8.set_stabilizer({1}).order() == 2
        with pytest.raises(ValueError, match="out of range"):
            d8.set_stabilizer([True])

    def test_last_answer_is_kept(self, d8, monkeypatch):
        rebases = []
        rebased = _Chain.rebased
        monkeypatch.setattr(_Chain, "rebased", lambda chain, points:
                            rebases.append(points) or rebased(chain, points))
        first = d8.set_stabilizer({0, 1})
        assert d8.set_stabilizer([1, 0]) is first
        assert d8.set_stabilizer(iter([0, 1])) is first
        assert d8.set_stabilizer({0, 2}).order() == 2
        assert d8.set_stabilizer({0, 1}) is not first
        assert d8.set_stabilizer({0, 1}).order() == first.order() == 2
        assert rebases == [[0, 1], [0, 2], [0, 1]]


class TestElements:
    def test_trivial(self):
        assert PermGroup(3).elements() == [Permutation.identity(3)]

    def test_d4_count(self):
        assert len(dihedral(4).elements()) == 8

    def test_no_duplicates(self, d8):
        elems = d8.elements()
        assert len(elems) == len(set(elems)) == 16

    def test_refusal_over_limit(self):
        s5 = symmetric(5)
        with pytest.raises(GroupTooLargeError) as exc:
            s5.elements(limit=100)
        assert exc.value.order == 120


class TestInvariants:
    def test_orbit_stabilizer(self, d8):
        for x in range(8):
            orbit = d8.orbit(x)
            stab = d8.point_stabilizer({x})
            assert d8.order() == len(orbit) * stab.order()

    def test_set_vs_point_stabilizer_index(self, d8):
        for s in [{0, 1}, {0, 2, 4}, {1, 5}, {0, 1, 2, 3}]:
            setwise = d8.set_stabilizer(s).order()
            pointwise = d8.point_stabilizer(s).order()
            assert setwise % pointwise == 0
            index = setwise // pointwise
            assert math.factorial(len(s)) % index == 0

    def test_set_stabilizer_contains_point_stabilizer(self, d6):
        for s in [{0, 1}, {0, 2, 4}]:
            setwise = d6.set_stabilizer(s)
            for p in d6.point_stabilizer(s).elements():
                assert setwise.contains(p)

    def test_graph_groups_match_brute_force(self):
        for g in [cycle(5), cycle(6), complete(4)]:
            elems = brute_automorphisms(g)
            group = PermGroup(g.n, [Permutation(p) for p in elems])
            assert group.order() == len(elems)
            for s in [{0}, {0, 1}, {0, 2}]:
                assert group.set_stabilizer(s).order() == \
                    len(brute_set_stabilizer(elems, s))


class TestRebase:
    """Stabilizer queries rebase the group's own chain."""

    @staticmethod
    def rebase_cases():
        rng = random.Random(8)
        graphs = [g for _, g in small_corpus()[::4]]
        graphs += [petersen(), hypercube(4), complete_bipartite(4, 5)]
        groups = [automorphism_group(g) for g in graphs]
        groups += [symmetric(6), dihedral(9)]
        for group in groups:
            n = group.degree
            for _ in range(3):
                yield group, sorted(rng.sample(range(n), rng.randint(1, n)))
        # points outside the base, then a trivial tail: D9's base is [0, 1],
        # and only the identity fixes two points of the 9-cycle
        assert dihedral(9).chain().base == [0, 1]
        yield dihedral(9), [4, 7]
        yield dihedral(9), [1, 4, 7]
        yield symmetric(6), list(range(6))
        # a point every automorphism fixes: the middle vertex of P3 and P5
        yield automorphism_group(path(3)), [1]
        yield automorphism_group(path(5)), [0, 2]

    def test_rebase_matches_prefixed_reference(self):
        for group, points in self.rebase_cases():
            chain = group.chain().rebased(points)
            want = prefixed_schreier_sims(group, points)
            m = len(points)
            assert chain.base[:m] == points
            assert chain.order() == want.order() == group.order()
            assert ([list(t) for t in chain.transversals[:m]]
                    == [list(t) for t in want.transversals[:m]])
            assert all(chain.sift(g)[1].is_identity() for g in group.generators)
            assert chain.verified() is chain
            # level 0's generators are strong: read as such, they give the
            # same basic orbits; the level-m ones fix the points and
            # generate G_(points)
            read = _Chain.read(group.degree, chain.base, chain.strong_gens)
            assert ([list(t) for t in read.transversals]
                    == [list(t) for t in chain.transversals])
            assert all(g(p) == p for g in chain.gens[m] for p in points)
            pointwise = math.prod(map(len, want.transversals[m:]))
            stab = group.point_stabilizer(points)
            assert stab.order() == pointwise
            assert PermGroup(group.degree, stab.generators).order() == pointwise
            target = frozenset(points)
            cosets = sum(1 for _ in want.walk(lambda j, w, a: w(a) in target,
                                              stop=m))
            assert group.set_stabilizer(points).order() == cosets * pointwise

    def test_rebase_leaves_the_group_chain_alone(self):
        group = automorphism_group(petersen())
        chain = group.chain()
        before = (list(chain.base), [list(g) for g in chain.gens],
                  [list(t.items()) for t in chain.transversals])
        chain.rebased([3, 7, 9])
        group.set_stabilizer([2, 5, 8, 9])
        assert before == (chain.base, chain.gens,
                          [list(t.items()) for t in chain.transversals])

    def test_binary_tree_point_stabilizers(self):
        group = automorphism_group(binary_tree(7).graph)
        # every automorphism fixes the root 0; fixing a child of the root
        # forbids the swap of the root's two subtrees
        assert group.point_stabilizer({0}).order() == 2 ** 127
        assert group.point_stabilizer({1}).order() == 2 ** 126

    def test_empty_queries_keep_the_chain(self, monkeypatch):
        group = automorphism_group(binary_tree(6).graph)

        def refuse(*args, **kwargs):
            raise AssertionError("Schreier-Sims ran")

        monkeypatch.setattr("halinkit.groups._schreier_sims", refuse)
        assert group.point_stabilizer(()).order() == 2 ** 63
        assert group.set_stabilizer(()).order() == 2 ** 63

    def test_no_stabilizer_query_runs_schreier_sims(self, monkeypatch):
        tree = automorphism_group(binary_tree(6).graph)
        pete = automorphism_group(petersen())
        edgeless = automorphism_group(Graph(100, []))
        for group in (tree, pete, edgeless):
            group.chain()

        def refuse(*args, **kwargs):
            raise AssertionError("Schreier-Sims ran")

        monkeypatch.setattr("halinkit.groups._schreier_sims", refuse)
        # fixing a vertex forbids the subtree swap at each of its ancestors:
        # 0 for vertex 1, 0 and 1 for 3 and 4, 0, 2, 6, 14 and 29 for 60
        assert tree.point_stabilizer({1}).order() == 2 ** 62
        assert tree.point_stabilizer({3, 4, 60}).order() == 2 ** 57
        # {3, 4} is the child set of vertex 1, so preserving it fixes 1
        assert tree.set_stabilizer({1, 2}).order() == 2 ** 63
        assert tree.set_stabilizer({3, 4}).order() == 2 ** 62
        # Aut(Petersen) = S5 (order 120) acts transitively on its 10
        # vertices, 15 edges ({0, 1}) and 30 non-edges ({0, 2})
        assert pete.point_stabilizer({0}).order() == 12
        assert pete.set_stabilizer({0, 1}).order() == 8
        assert pete.set_stabilizer({0, 2}).order() == 4
        assert not pete.set_stabilizer_is_trivial({0, 1, 2, 5})
        assert edgeless.point_stabilizer({5, 50}).order() == \
            math.factorial(98)
        assert edgeless.set_stabilizer(range(0, 100, 10)).order() == \
            math.factorial(10) * math.factorial(90)
        with pytest.raises(ValueError, match="out of range"):
            edgeless.point_stabilizer({5, 100})
        with pytest.raises(ValueError, match="out of range"):
            edgeless.set_stabilizer({-1, 5})

    def test_point_stabilizer_of_sym100_by_swaps(self, monkeypatch):
        """Two points of Sym(100), the edgeless graph's group: the swaps
        bring them to the front of a 99-level chain in about 10,600
        products; the prefixed Schreier-Sims needed 78,109 for two points
        of Sym(30) and 106 s for {5, 50} of Sym(100)."""
        group = automorphism_group(Graph(100, []))
        group.chain()
        products = 0
        multiply = Permutation.__mul__

        def counted(p, q):
            nonlocal products
            products += 1
            return multiply(p, q)

        monkeypatch.setattr(Permutation, "__mul__", counted)
        assert group.point_stabilizer({5, 90}).order() == math.factorial(98)
        assert products < 15_000


def _preserves(images, points):
    return frozenset(images[x] for x in points) == points


class TestSetStabilizerPastBruteForce:
    """Set stabilizers against networkx element lists for n = 9..16."""

    def test_matches_networkx(self):
        rng = random.Random(12)
        graphs = [petersen(), hypercube(4), cycle(12), complete_bipartite(4, 5)]
        graphs += [random_regular(n, 3, rng) for n in (10, 12, 14)]
        for g in graphs:
            group = automorphism_group(g)
            elems = networkx_automorphisms(g)
            for _ in range(6):
                points = frozenset(rng.sample(range(g.n), rng.randint(1, g.n - 1)))
                stab = group.set_stabilizer(points)
                want = sum(_preserves(p, points) for p in elems)
                assert stab.order() == want
                assert all(_preserves(h.images, points) for h in stab.generators)
                assert group.set_stabilizer_is_trivial(points) == (want == 1)

    def test_triviality_matches_networkx_and_brute_force(self):
        """``set_stabilizer_is_trivial`` against the number of elements that
        preserve the set, from networkx's element lists past n = 8 and from
        brute force on the corpus, for one set of every size."""
        rng = random.Random(13)
        graphs = [petersen(), hypercube(4), cycle(12), complete_bipartite(4, 5)]
        graphs += [random_regular(n, 3, rng) for n in (10, 12, 14)]
        cases = [(g, networkx_automorphisms(g)) for g in graphs]
        cases += [(g, brute_automorphisms(g)) for _, g in small_corpus()[::3]]
        answers = set()
        for g, elems in cases:
            group = automorphism_group(g)
            for size in range(1, g.n):
                points = frozenset(rng.sample(range(g.n), size))
                trivial = sum(_preserves(p, points) for p in elems) == 1
                assert group.set_stabilizer_is_trivial(points) == trivial
                answers.add(trivial)
        assert answers == {False, True}

    def test_triviality_builds_no_group(self, monkeypatch):
        """The test stops at its first generator, of the pointwise
        stabilizer or a leaf, and reads no chain off the generators."""
        cases = [(dihedral(8), {0, 1, 3}, True), (dihedral(8), {0, 1}, False),
                 (automorphism_group(hypercube(4)), {0, 1, 2, 5, 11}, True),
                 (automorphism_group(petersen()), {0, 1, 2, 5}, False),
                 (automorphism_group(complete_bipartite(4, 5)), {0, 1}, False)]
        for group, points, trivial in cases:
            assert PermGroup(group.degree, group.generators).set_stabilizer(
                points).is_trivial() == trivial
            group.chain()

        def refuse(*args, **kwargs):
            raise AssertionError("a group was built")

        monkeypatch.setattr(PermGroup, "from_strong_generators", refuse)
        monkeypatch.setattr(_Chain, "read", refuse)
        monkeypatch.setattr(_Chain, "verified", refuse)
        monkeypatch.setattr("halinkit.groups._schreier_sims", refuse)
        for group, points, trivial in cases:
            assert group.set_stabilizer_is_trivial(points) == trivial

    def test_first_leaf_per_subtree(self, monkeypatch):
        """A subtree off the identity path is left at its first leaf; a
        backtrack that listed every coset of S9 in S10 would make at least
        9! products."""
        assert distinguishing_cost(automorphism_group(complete(10))) is None
        assert distinguishing_cost(
            automorphism_group(complete_bipartite(5, 5))) is None
        group = automorphism_group(complete(10))
        products = 0
        multiply = Permutation.__mul__

        def counted(p, q):
            nonlocal products
            products += 1
            return multiply(p, q)

        monkeypatch.setattr(Permutation, "__mul__", counted)
        assert group.set_stabilizer(range(9)).order() == 362_880
        assert products < 10_000


class TestChainLevels:
    """Each chain level is one transversal dict, keyed in ascending point
    order: the order ``elements()`` lists the group in."""

    @staticmethod
    def groups():
        yield from (automorphism_group(g) for _, g in small_corpus())
        yield from map(dihedral, range(3, 10))
        yield symmetric(6)

    @staticmethod
    def assert_ascending(chain):
        assert all(list(t) == sorted(t) for t in chain.transversals)

    def test_transversal_keys_stay_ascending(self):
        rng = random.Random(28)
        for group in self.groups():
            n, chain = group.degree, group.chain()
            self.assert_ascending(chain)
            self.assert_ascending(_Chain.read(n, chain.base, chain.strong_gens))
            self.assert_ascending(PermGroup(n, group.generators).chain())
            off_base = [p for p in range(n) if p not in chain.base]
            for points in (off_base[:3], off_base[::-1], list(range(n))[::-1],
                           rng.sample(range(n), rng.randint(1, n))):
                self.assert_ascending(chain.rebased(points))
                self.assert_ascending(group.point_stabilizer(points).chain())
                self.assert_ascending(group.set_stabilizer(points).chain())

    def test_backtrack_builds_no_group(self, monkeypatch):
        group = automorphism_group(petersen())
        chain = group.chain().rebased([0, 1, 2, 3])
        want = list(chain.set_stabilizer_gens(4))

        def refuse(*args, **kwargs):
            raise AssertionError("a PermGroup was built")

        monkeypatch.setattr("halinkit.groups.PermGroup", refuse)
        assert list(chain.set_stabilizer_gens(4)) == want

    def test_each_query_checks_its_points_once(self, monkeypatch):
        from halinkit import groups
        group = automorphism_group(petersen())
        calls = []
        check = groups.point_set

        def counted(degree, points):
            calls.append(points)
            return check(degree, points)

        monkeypatch.setattr(groups, "point_set", counted)
        assert len(group.orbits()) == 1 and calls == []
        assert len(group.orbit(4)) == 10 and len(calls) == 1
        group.set_stabilizer([0, 1, 2, 3])
        group.set_stabilizer_is_trivial([0, 1, 2, 3])
        group.point_stabilizer([0, 1])
        assert len(calls) == 4

    def test_stabilizer_digest(self):
        """Set and point stabilizers of every subset of at most two points
        and of the least base, for each corpus group, pinned by digest:
        set-stabilizer orders and generators, triviality, and the point
        stabilizers' generators and element listings."""
        digest = hashlib.sha256()
        for _, g in small_corpus():
            group = automorphism_group(g)
            subsets = [s for k in range(3)
                       for s in itertools.combinations(range(g.n), k)]
            for s in subsets + [determining_number(group)[1]]:
                stab, point = group.set_stabilizer(s), group.point_stabilizer(s)
                digest.update(json.dumps(
                    [list(s), stab.order(),
                     [list(p.images) for p in stab.generators],
                     group.set_stabilizer_is_trivial(s),
                     [list(p.images) for p in point.generators],
                     [list(p.images) for p in point.elements()]],
                    separators=(",", ":")).encode())
        assert digest.hexdigest() == (
            "78f6532b95c874652841bf508442d75378f11351bca271737039fb8d72c8f58e")
