import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifract import symbolic
from multifract.errors import ValidationError


class TestLambdaPartition:
    def test_partitions_disjoint_and_cover(self):
        n, q = 100, 2
        chains = symbolic.lambda_partition(q, n)
        seen = sorted(i for c in chains for i in c.elements)
        assert seen == list(range(1, n + 1))

    def test_chain_structure(self):
        chains = symbolic.lambda_partition(3, 30)
        by_base = {c.base: c.elements for c in chains}
        assert by_base[2] == (2, 6, 18)
        assert by_base[1] == (1, 3, 9, 27)
        assert all(c.base % 3 != 0 for c in chains)

    @given(q=st.integers(2, 5), n=st.integers(1, 300))
    @settings(max_examples=40)
    def test_partition_property(self, q, n):
        chains = symbolic.lambda_partition(q, n)
        elements = [i for c in chains for i in c.elements]
        assert sorted(elements) == list(range(1, n + 1))
        for c in chains:
            assert c.base % q != 0
            assert all(b == a * q for a, b in zip(c.elements, c.elements[1:]))

    def test_restrict(self):
        x = [0, 1, 0, 1, 1, 0, 1, 0]
        chain = symbolic.lambda_partition(2, 8)[0]  # base 1: 1,2,4,8
        assert symbolic.restrict(x, chain) == (0, 1, 1, 0)


class TestSemigroup:
    def test_gamma_values(self):
        spec = symbolic.SemigroupSpec((2,))
        assert symbolic.gamma_of_semigroup(spec) == pytest.approx(2.0)
        spec23 = symbolic.SemigroupSpec((2, 3))
        assert symbolic.gamma_of_semigroup(spec23) == pytest.approx(3.0)

    def test_elements_merge(self):
        spec = symbolic.SemigroupSpec((2, 3))
        assert symbolic.semigroup_elements(spec, 20) == [1, 2, 3, 4, 6, 8, 9, 12, 16, 18]

    def test_rejects_non_prime(self):
        with pytest.raises(ValidationError):
            symbolic.SemigroupSpec((4,))
        with pytest.raises(ValidationError):
            symbolic.SemigroupSpec((2, 2))

    @pytest.mark.parametrize("primes", [(2,), (2, 3), (2, 3, 5), (3, 5, 7)])
    def test_elements_match_factoring_oracle(self, primes):
        # every n <= bound whose prime factors all lie in the set, by trial
        # division; bounds at an element and one either side of it
        spec = symbolic.SemigroupSpec(primes)

        def smooth(n):
            for p in primes:
                while n % p == 0:
                    n //= p
            return n == 1

        top = 20000
        want = [n for n in range(1, top + 2) if smooth(n)]
        for element in (1, 2, want[len(want) // 2], want[-2]):
            for bound in (element - 1, element, element + 1):
                if bound >= 1:
                    got = symbolic.semigroup_elements(spec, bound)
                    assert got == [n for n in want if n <= bound], (primes, bound)

    @given(bound=st.integers(1, 500))
    @settings(max_examples=30)
    def test_elements_are_products(self, bound):
        spec = symbolic.SemigroupSpec((2, 5))
        for e in symbolic.semigroup_elements(spec, bound):
            while e % 2 == 0:
                e //= 2
            while e % 5 == 0:
                e //= 5
            assert e == 1


class TestPrefixAutomaton:
    def test_fibonacci_counts(self):
        aut = symbolic.fibonacci_automaton()
        counts = [symbolic.prefix_count(aut, k) for k in range(1, 9)]
        assert counts == [2, 3, 5, 8, 13, 21, 34, 55]

    def test_full_shift_counts(self):
        aut = symbolic.full_shift(3)
        assert symbolic.prefix_count(aut, 5) == 3**5

    def test_accepts(self):
        aut = symbolic.fibonacci_automaton()
        assert aut.accepts([0, 1, 0, 1, 1]) is False
        assert aut.accepts([0, 1, 0, 1, 0, 1]) is True

    def test_json_round_trip(self):
        aut = symbolic.fibonacci_automaton()
        again = symbolic.PrefixAutomaton.from_json(aut.to_json())
        assert again.m == aut.m
        assert symbolic.prefix_counts_up_to(again, 10) == symbolic.prefix_counts_up_to(aut, 10)

    def test_rejects_malformed_json(self):
        with pytest.raises(ValidationError):
            symbolic.PrefixAutomaton.from_json("{not json")
        doc = json.loads(symbolic.fibonacci_automaton().to_json())
        doc["transitions"] = doc["transitions"][:1]
        with pytest.raises(ValidationError):
            symbolic.PrefixAutomaton.from_json(json.dumps(doc))

    def test_rejects_duplicate_transitions(self):
        # the document once loaded as its last transition, (a, 0) -> b
        doc = {"alphabet": 2, "states": ["a", "b"], "initial": "a",
               "transitions": [{"from": "a", "symbol": 0, "to": "a"}, {"from": "a", "symbol": 0, "to": "b"},
                               {"from": "b", "symbol": 1, "to": "a"}]}
        with pytest.raises(ValidationError, match="two transitions from state 'a' on symbol 0"):
            symbolic.PrefixAutomaton.from_json(json.dumps(doc))

    def test_accepts_checks_symbols(self):
        # -1 once read symbol 1 by Python's negative index, and 5 raised IndexError
        for aut, word in ((symbolic.full_shift(2), [-1]), (symbolic.fibonacci_automaton(), [0, 5])):
            with pytest.raises(ValidationError, match="outside alphabet of size 2"):
                aut.accepts(word)

    def test_table_and_root(self):
        aut = symbolic.PrefixAutomaton(m=3, states=("x", "y"), initial="y",
                                       transitions={("x", 2): "y", ("y", 0): "x", ("y", 1): "y"})
        assert aut.table.tolist() == [[-1, -1, 1], [0, 1, -1]]
        assert aut.root == 1
        with pytest.raises(ValueError):
            aut.table[0, 0] = 0
        assert aut == symbolic.PrefixAutomaton.from_json(aut.to_json())

    def test_rejects_unreachable_and_dead_states(self):
        with pytest.raises(ValidationError, match=r"unreachable states: \['c', 'd'\]"):
            symbolic.PrefixAutomaton(m=2, states=("d", "a", "c"), initial="a",
                                     transitions={("a", 0): "a", ("c", 0): "d", ("d", 1): "c"})
        with pytest.raises(ValidationError, match="dead state 'b': no outgoing transition"):
            symbolic.PrefixAutomaton(m=2, states=("a", "b"), initial="a",
                                     transitions={("a", 0): "a", ("a", 1): "b"})

    @pytest.mark.parametrize("field, value", [("alphabet", 2.5), ("symbol", 0.9), ("symbol", "0")])
    def test_rejects_non_integer_fields(self, field, value):
        # int() once read the alphabet 2.5 as 2 and the symbol 0.9 as 0
        doc = json.loads(symbolic.fibonacci_automaton().to_json())
        (doc["transitions"][0] if field == "symbol" else doc)[field] = value
        with pytest.raises(ValidationError, match=f"{field} must be an integer, got {value!r}"):
            symbolic.PrefixAutomaton.from_json(json.dumps(doc))
        doc = json.loads(symbolic.fibonacci_automaton().to_json())
        doc["alphabet"] = 2.0
        assert symbolic.PrefixAutomaton.from_json(json.dumps(doc)).m == 2

    def test_spherical_symmetry(self):
        assert symbolic.spherically_symmetric(symbolic.full_shift(2)) is True
        assert symbolic.spherically_symmetric(symbolic.single_point(2)) is True
        assert symbolic.spherically_symmetric(symbolic.two_regular_ternary()) is True
        assert symbolic.spherically_symmetric(symbolic.fibonacci_automaton()) is False
        assert symbolic.spherically_symmetric(symbolic.even_ones_shift()) is False

    def test_two_regular_ternary_counts(self):
        aut = symbolic.two_regular_ternary()
        assert [symbolic.prefix_count(aut, k) for k in (1, 2, 3)] == [2, 4, 8]

    @given(run=st.integers(2, 5), depth=st.integers(1, 12))
    @settings(max_examples=25)
    def test_forbidden_run_counts_by_dp(self, run, depth):
        # independent DP over allowed suffix run lengths
        aut = symbolic.forbid_ones_run(run)
        counts = [1] + [0] * (run - 1)  # counts by current trailing-ones run
        for _ in range(depth):
            zero = sum(counts)
            counts = [zero] + counts[:-1]
        assert symbolic.prefix_count(aut, depth) == sum(counts)
