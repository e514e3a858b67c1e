import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from randcompare import (
    AssignmentVector,
    BoundsError,
    DataValidationError,
    Hypothesis,
    ObservedBlock,
    ObservedExperiment,
    PotentialTable,
    SampleVector,
    hypothesis_implies,
    realized_effects,
    select_components,
)

H = Hypothesis


class TestHypothesisLattice:
    def test_reflexive(self):
        for h in H:
            assert hypothesis_implies(h, h)

    def test_known_implications(self):
        positives = [
            (H.UP, H.DUP), (H.UP, H.RUP), (H.UP, H.EUP), (H.UP, H.RAP),
            (H.UP, H.RUs), (H.UP, H.RAs),
            (H.DUP, H.EUP),
            (H.RUP, H.RAP), (H.RUP, H.RUs), (H.RUP, H.RAs),
            (H.RUs, H.RAs),
        ]
        for a, b in positives:
            assert hypothesis_implies(a, b), (a, b)

    def test_known_non_implications(self):
        negatives = [
            (H.EUP, H.DUP), (H.DUP, H.UP), (H.DUP, H.RUP), (H.DUP, H.RUs),
            (H.RAs, H.RAP), (H.RAP, H.RAs), (H.RAP, H.RUs), (H.RUs, H.RUP),
            (H.EUP, H.RAs), (H.RAs, H.EUP), (H.RUP, H.DUP),
        ]
        for a, b in negatives:
            assert not hypothesis_implies(a, b), (a, b)

    def test_transitive(self):
        for a, b, c in itertools.product(H, repeat=3):
            if hypothesis_implies(a, b) and hypothesis_implies(b, c):
                assert hypothesis_implies(a, c), (a, b, c)

    def test_strongest_and_weakest(self):
        # UP entails everything; nothing but itself entails UP
        assert all(hypothesis_implies(H.UP, h) for h in H)
        assert [a for a in H if hypothesis_implies(a, H.UP)] == [H.UP]

    def test_descriptions_exist(self):
        for h in H:
            assert h.description


class TestPotentialTable:
    def test_basic(self):
        t = PotentialTable([1.0, 2.0], [3.0, 4.0])
        assert t.n_units == 2

    def test_length_mismatch(self):
        with pytest.raises(DataValidationError):
            PotentialTable([1.0], [1.0, 2.0])

    def test_nonfinite(self):
        with pytest.raises(DataValidationError):
            PotentialTable([1.0, np.nan], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(DataValidationError):
            PotentialTable([], [])

    def test_arrays_frozen(self):
        t = PotentialTable([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(ValueError):
            t.y1[0] = 9.0


class TestSampleVector:
    def test_duplicates_rejected(self):
        with pytest.raises(DataValidationError):
            SampleVector([1, 2, 2])

    def test_zero_rejected(self):
        with pytest.raises(DataValidationError):
            SampleVector([0, 1])

    def test_first_n(self):
        s = SampleVector.first_n(4)
        assert list(s.indices) == [1, 2, 3, 4]
        assert s.n == 4


class TestAssignmentVector:
    def test_bad_labels(self):
        with pytest.raises(DataValidationError):
            AssignmentVector([1, 3])

    def test_two_arms(self):
        a = AssignmentVector.two_arms(2, 3)
        assert (a.n, a.n1, a.n2) == (5, 2, 3)

    def test_one_armed_allowed(self):
        a = AssignmentVector([1, 1, 1])
        assert a.n2 == 0


class TestObservedExperiment:
    def test_length_mismatch(self):
        with pytest.raises(DataValidationError):
            ObservedExperiment(
                SampleVector([1, 2]), AssignmentVector([1, 2]), np.array([1.0])
            )

    def test_arm_responses(self, six_obs):
        assert list(six_obs.arm_responses(1)) == [3.0, 1.0, 4.0]
        assert list(six_obs.arm_responses(2)) == [1.0, 5.0, 9.0]
        with pytest.raises(DataValidationError):
            six_obs.arm_responses(3)

    def test_from_arms_layout(self):
        obs = ObservedExperiment.from_arms([5.0], [6.0, 7.0])
        assert list(obs.assignment.labels) == [1, 2, 2]
        assert list(obs.sample.indices) == [1, 2, 3]
        assert list(obs.responses) == [5.0, 6.0, 7.0]


class TestObservedBlock:
    def test_rows_are_the_experiments(self, six_obs):
        other = ObservedExperiment(six_obs.sample, AssignmentVector([2, 1, 2, 1, 1, 2]),
                                   np.array([2.0, 7.0, 1.0, 8.0, 2.0, 8.0]))
        block = ObservedBlock((six_obs, other))
        assert len(block) == 2 and (block.n, block.n1, block.n2) == (6, 3, 3)
        for row, obs in enumerate((six_obs, other)):
            assert list(block.responses[row]) == list(obs.responses)
            for t, arm in zip((1, 2), block.arms):
                assert list(arm[row]) == list(obs.arm_responses(t))
        assert block.constant == [False, False]

    def test_refuses_an_empty_or_mixed_block(self, six_obs):
        with pytest.raises(DataValidationError, match="at least one"):
            ObservedBlock(())
        other_arms = ObservedExperiment.from_arms([1.0, 2.0], [3.0, 4.0, 5.0, 6.0])
        other_sample = ObservedExperiment(SampleVector([2, 3, 4, 5, 6, 7]),
                                          six_obs.assignment, six_obs.responses)
        for other in (other_arms, other_sample):
            with pytest.raises(DataValidationError, match="share one sample"):
                ObservedBlock((six_obs, other))


class TestSelectComponents:
    def test_hand_case(self):
        table = PotentialTable([10.0, 20.0, 30.0], [11.0, 21.0, 31.0])
        out = select_components(
            table, SampleVector([3, 1]), AssignmentVector([2, 1])
        )
        assert list(out) == [31.0, 10.0]

    def test_out_of_range_unit(self):
        table = PotentialTable([1.0], [2.0])
        with pytest.raises(BoundsError):
            select_components(table, SampleVector([2]), AssignmentVector([1]))

    def test_length_mismatch(self):
        table = PotentialTable([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(DataValidationError):
            select_components(table, SampleVector([1]), AssignmentVector([1, 2]))

    @given(st.data())
    def test_matches_elementwise_definition(self, data):
        n = data.draw(st.integers(1, 12))
        y1 = data.draw(
            st.lists(st.floats(-50, 50, allow_nan=False), min_size=n, max_size=n)
        )
        y2 = data.draw(
            st.lists(st.floats(-50, 50, allow_nan=False), min_size=n, max_size=n)
        )
        labels = data.draw(st.lists(st.sampled_from([1, 2]), min_size=n, max_size=n))
        perm = data.draw(st.permutations(list(range(1, n + 1))))
        table = PotentialTable(y1, y2)
        out = select_components(
            table, SampleVector(list(perm)), AssignmentVector(labels)
        )
        for j in range(n):
            expected = y1[perm[j] - 1] if labels[j] == 1 else y2[perm[j] - 1]
            assert out[j] == expected


class TestRealizedEffects:
    def test_hand_case(self):
        table = PotentialTable([10.0, 20.0, 30.0, 40.0], [9.0, 22.0, 27.0, 40.0])
        eff = realized_effects(table, SampleVector([1, 3]))
        assert list(eff.unit_effects) == [1.0, 3.0]
        assert eff.aggregate_sample == pytest.approx(2.0, abs=1e-12)
        assert eff.aggregate_population == pytest.approx(0.5, abs=1e-12)

    def test_out_of_range(self):
        table = PotentialTable([1.0], [2.0])
        with pytest.raises(BoundsError):
            realized_effects(table, SampleVector([5]))
