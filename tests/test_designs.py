import codecs
import functools
import gc
import itertools
import json
import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from _oracles import joint_inclusion_by_scan, label_draws, uniform_crd_tails_by_fractions
from randcompare import (
    AssignmentVector,
    CensusCRD,
    DataValidationError,
    DesignInvalidError,
    ENUMERATION_CAP,
    ObservedExperiment,
    EnumerationTooLargeError,
    ExactEngine,
    Explicit,
    ExplicitJoint,
    RNG_ALGORITHM,
    RngStream,
    SampleVector,
    UniformCRD,
    check_both_arm_inclusion,
    explicit_from_json,
    resolve_weights,
    sample_assignment,
    support_label_matrix,
)
from randcompare import designs as designs_module
from randcompare.designs import sample_assignment_batch, scan_tails
from randcompare.inference import permutation_plan, wilcoxon_plan
from randcompare.simulation import run_size_power


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123).generator().random(8)
        b = RngStream(123).generator().random(8)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        root = RngStream(5)
        a = root.substream(0).generator().random(8)
        b = root.substream(1).generator().random(8)
        assert not np.array_equal(a, b)

    def test_substream_accumulates_key(self):
        s = RngStream(7).substream(1, 2).substream(3)
        assert s.spawn_key == (1, 2, 3)
        assert s.seed == 7

    def test_nested_equals_flat(self):
        a = RngStream(9).substream(4).substream(2).generator().random(4)
        b = RngStream(9, (4, 2)).generator().random(4)
        assert np.array_equal(a, b)

    def test_algorithm_name(self):
        assert RngStream(0).algorithm == RNG_ALGORITHM == "philox4x64"

    def test_seed_validation(self):
        with pytest.raises(DataValidationError):
            RngStream(-1)
        with pytest.raises(DataValidationError):
            RngStream(2**64)
        RngStream(2**64 - 1)  # boundary is fine


class TestUniformCRD:
    def test_arm_bounds(self):
        with pytest.raises(DesignInvalidError):
            UniformCRD(5, 0)
        with pytest.raises(DesignInvalidError):
            UniformCRD(5, 5)

    def test_support_size(self):
        assert UniformCRD(6, 2).support_size == 15
        assert UniformCRD(20, 10).support_size == 184756

    @pytest.mark.parametrize("n", [2, 3, 10, 21, 40])
    def test_support_exceeds_agrees_with_the_size(self, n):
        for n1 in range(1, n):
            size = math.comb(n, n1)
            for limit in {0, 1, size - 1, size, size + 1, ENUMERATION_CAP}:
                assert UniformCRD(n, n1).support_exceeds(limit) == (size > limit)

    def test_support_exceeds_stops_at_the_limit(self):
        # C(400000, 200000) has about 120,000 digits
        assert UniformCRD(400_000, 200_000).support_exceeds(ENUMERATION_CAP)

    def test_inclusion(self):
        d = UniformCRD(6, 2)
        table = d.inclusion_table()
        assert np.allclose(table[0], 2 / 6)
        assert np.allclose(table[1], 4 / 6)

    def test_enumeration(self):
        d = UniformCRD(5, 2)
        labels, probs = support_label_matrix(d)
        assert len(labels) == len(probs) == 10
        seen = {tuple(row) for row in labels}
        assert len(seen) == 10
        assert all(AssignmentVector(row).n1 == 2 for row in labels)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_label_matrix_matches_enumeration(self):
        d = UniformCRD(6, 3)
        labels, probs = support_label_matrix(d)
        listed = [tuple(1 if j in ones else 2 for j in range(6))
                  for ones in itertools.combinations(range(6), 3)]
        assert [tuple(row) for row in labels] == listed
        assert np.allclose(probs, 1.0 / 20)

    def test_enumeration_cap(self):
        d = UniformCRD(30, 15)
        with pytest.raises(EnumerationTooLargeError) as exc:
            support_label_matrix(d)
        assert exc.value.size == 155117520
        assert exc.value.cap == ENUMERATION_CAP


class TestExplicit:
    def make(self):
        return Explicit(
            support=(
                AssignmentVector([1, 1, 2]),
                AssignmentVector([1, 2, 1]),
                AssignmentVector([2, 1, 1]),
            ),
            probs=np.array([0.5, 0.25, 0.25]),
        )

    def test_inclusion_from_probs(self):
        table = self.make().inclusion_table()
        assert table[0, 0] == pytest.approx(0.75)
        assert table[1, 2] == pytest.approx(0.5)
        assert np.allclose(table.sum(axis=0), 1.0)

    def test_zero_inclusion_detected(self):
        d = Explicit(support=(AssignmentVector([1, 2]),), probs=np.array([1.0]))
        # position 1 can never receive treatment 2
        assert d.inclusion_table()[1, 0] == 0.0
        with pytest.raises(DesignInvalidError):
            check_both_arm_inclusion(d)

    def test_validation(self):
        with pytest.raises(DesignInvalidError):
            Explicit(support=(), probs=np.array([]))
        with pytest.raises(DesignInvalidError):
            Explicit(
                support=(AssignmentVector([1, 2]), AssignmentVector([1, 2])),
                probs=np.array([0.5, 0.5]),
            )
        with pytest.raises(DesignInvalidError):
            Explicit(
                support=(AssignmentVector([1, 2]), AssignmentVector([2, 1])),
                probs=np.array([0.7, 0.4]),
            )

    def test_from_json_dict_string_and_file(self, tmp_path):
        doc = {"support": [[1, 1, 2], [1, 2, 1], [2, 1, 1]], "probs": [0.5, 0.25, 0.25]}
        d1 = explicit_from_json(doc)
        import json

        d2 = explicit_from_json(json.dumps(doc))
        path = tmp_path / "design.json"
        path.write_text(json.dumps(doc))
        d3 = explicit_from_json(str(path))
        d4 = explicit_from_json(path)
        for d in (d1, d2, d3, d4):
            assert d.support_size == 3
            assert d.inclusion_table()[0, 0] == pytest.approx(0.75)

    def test_from_json_bad_doc(self):
        with pytest.raises(DataValidationError):
            explicit_from_json({"support": [[1, 2]]})

    def test_from_json_file_with_byte_order_mark(self, tmp_path):
        doc = {"support": [[1, 2], [2, 1]], "probs": [0.5, 0.5]}
        path = tmp_path / "design.json"
        path.write_bytes(codecs.BOM_UTF8 + json.dumps(doc).encode())
        assert explicit_from_json(path) == explicit_from_json(doc)

    @pytest.mark.parametrize("doc", [
        '\ufeff{"support": [[1,2],[2,1]], "probs": [0.5, 0.5]}',
        b'\xef\xbb\xbf{"support": [[1,2],[2,1]], "probs": [0.5, 0.5]}',
    ], ids=["str", "bytes"])
    def test_inline_json_with_byte_order_mark(self, doc):
        # a leading U+FEFF is not white space to lstrip, so the JSON text
        # was taken for a path
        expected = explicit_from_json({"support": [[1, 2], [2, 1]], "probs": [0.5, 0.5]})
        assert explicit_from_json(doc) == expected

    def test_unreadable_file_is_a_data_error(self, tmp_path):
        missing = tmp_path / "missing.json"
        for doc in (missing, str(missing), "{not JSON, and no such file"):
            with pytest.raises(DataValidationError, match="^cannot read "):
                explicit_from_json(doc)


    def test_inline_json_syntax_error_is_reported(self):
        doc = '{"support": [[1,2],[2,1]], "probs": [0.5, 0.5],}'
        message = r"invalid JSON: .*line 1 column 48 \(char 47\)$"
        with pytest.raises(DataValidationError, match=message):
            explicit_from_json(doc)
        with pytest.raises(DataValidationError, match="invalid JSON"):
            explicit_from_json("  [1, 2")


CHUNKS = ((1, 63, 256, 680, 3000), (1, 63, 256, 680, 3000, 6000))


def assert_chunks_are_one_batch(design, chunks):
    gen = RngStream(12).generator()
    chunked = np.concatenate([design.sample_batch(size, gen) for size in chunks])
    whole = design.sample_batch(sum(chunks), RngStream(12).generator())
    assert np.array_equal(chunked, whole)


class TestSampling:
    def test_crd_draw_is_deterministic(self):
        d = UniformCRD(8, 3)
        a = sample_assignment(d, RngStream(11))
        b = sample_assignment(d, RngStream(11))
        assert np.array_equal(a.labels, b.labels)
        assert a.n1 == 3

    def test_explicit_draw_lands_in_support(self):
        d = Explicit(
            support=(AssignmentVector([1, 2]), AssignmentVector([2, 1])),
            probs=np.array([0.9, 0.1]),
        )
        seen = {
            tuple(sample_assignment(d, RngStream(3, (k,))).labels) for k in range(30)
        }
        assert seen <= {(1, 2), (2, 1)}

    def test_batch_arm_sizes(self):
        d = UniformCRD(10, 4)
        batch = sample_assignment_batch(d, 500, RngStream(2).generator())
        assert batch.shape == (500, 10)
        assert np.all((batch == 1).sum(axis=1) == 4)

    def test_batch_deterministic(self):
        d = UniformCRD(6, 3)
        a = sample_assignment_batch(d, 50, RngStream(4).generator())
        b = sample_assignment_batch(d, 50, RngStream(4).generator())
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n, chunks", [
        (100, CHUNKS[0]),
        (20, CHUNKS[1]),
    ])
    def test_batch_in_chunks_is_one_batch(self, n, chunks):
        # the prefix property a lazy Monte Carlo draw rests on: the chunks
        # drawn one after another from one generator are the rows of one
        # whole batch, in order, so the size of MonteCarloEngine's chunks
        # moves no draw
        assert_chunks_are_one_batch(UniformCRD(n, n // 2), chunks)

    def test_explicit_batch_in_chunks_is_one_batch(self):
        d = Explicit(support=([1, 1, 2, 2], [2, 1, 2, 1], [1, 2, 1, 2]), probs=[0.5, 0.3, 0.2])
        assert_chunks_are_one_batch(d, (1, 63, 256, 680, 3000, 6000))

    @pytest.mark.parametrize("chunks", CHUNKS)
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n, n1", [(64, 32), (100, 50), (20, 10), (10, 3), (10, 7)])
    def test_indicator_rows_are_the_label_draws(self, n, n1, seed, chunks):
        # the float64 rows shuffle what the int8 labels shuffled: the same
        # swaps on the same substream, chunk by chunk
        design = UniformCRD(n, n1)
        gen, before = RngStream(seed).generator(), RngStream(seed).generator()
        for size in chunks:
            batch = sample_assignment_batch(design, size, gen)
            expected = (label_draws(design, size, before) == 1).astype(np.float64)
            assert batch.dtype == np.float64
            assert batch.tobytes() == expected.tobytes()

    def test_explicit_draws_the_same_labels(self):
        d = Explicit(support=([1, 1, 2, 2], [2, 1, 2, 1], [1, 2, 1, 2]), probs=[0.5, 0.3, 0.2])
        root = RngStream(31)
        for k in range(50):
            stream = root.substream(k)
            drawn = sample_assignment(d, stream)
            assert np.array_equal(drawn.labels, label_draws(d, 1, stream.generator())[0])
        gen, before = RngStream(5).generator(), RngStream(5).generator()
        for size in CHUNKS[1]:
            expected = (label_draws(d, size, before) == 1).astype(np.float64)
            assert sample_assignment_batch(d, size, gen).tobytes() == expected.tobytes()

    def test_batch_approximately_uniform(self):
        # 20000 draws over the C(4,2)=6 equally likely label vectors
        d = UniformCRD(4, 2)
        batch = sample_assignment_batch(d, 20000, RngStream(8).generator())
        _, counts = np.unique(batch, axis=0, return_counts=True)
        assert len(counts) == 6
        expected = 20000 / 6
        sd = math.sqrt(20000 * (1 / 6) * (5 / 6))
        assert np.all(np.abs(counts - expected) < 5 * sd)


class TestSelectionDesigns:
    def test_census_basics(self):
        c = CensusCRD(10, 4)
        assert c.n2 == 6
        assert c.assignment_design() == UniformCRD(10, 4)
        assert c.unit_inclusion_table()[0, 2] == pytest.approx(0.4)
        assert c.unit_inclusion_table()[1, 9] == pytest.approx(0.6)
        with pytest.raises(DesignInvalidError):
            CensusCRD(5, 0)

    def test_explicit_joint_validation(self):
        s = SampleVector([1, 2])
        t = AssignmentVector([1, 2])
        with pytest.raises(DesignInvalidError):
            ExplicitJoint(n_population=2, support=((s, t),), probs=np.array([0.9]))
        with pytest.raises(DesignInvalidError):
            ExplicitJoint(
                n_population=1, support=((s, t),), probs=np.array([1.0])
            )

    def test_reduces_to_census_positive(self):
        # full-population sample, uniform over all C(3,1) assignments
        n = 3
        support = []
        for v in ([1, 2, 2], [2, 1, 2], [2, 2, 1]):
            support.append((SampleVector([1, 2, 3]), AssignmentVector(v)))
        d = ExplicitJoint(
            n_population=n, support=tuple(support), probs=np.full(3, 1 / 3)
        )
        assert d.census() == CensusCRD(3, 1)

    def test_reduces_to_census_permuted_sample_order(self):
        # the same census written with the sample listed in another order
        support = (
            (SampleVector([2, 1]), AssignmentVector([1, 2])),
            (SampleVector([1, 2]), AssignmentVector([1, 2])),
        )
        d = ExplicitJoint(
            n_population=2, support=support, probs=np.array([0.5, 0.5])
        )
        assert d.census() == CensusCRD(2, 1)

    def test_reduces_to_census_negative(self):
        # missing one assignment from the support: not uniform-complete
        support = (
            (SampleVector([1, 2, 3]), AssignmentVector([1, 2, 2])),
            (SampleVector([1, 2, 3]), AssignmentVector([2, 1, 2])),
        )
        d = ExplicitJoint(
            n_population=3, support=support, probs=np.array([0.5, 0.5])
        )
        assert d.census() is None

        # proper subsample: not a census
        support = (
            (SampleVector([1, 2]), AssignmentVector([1, 2])),
            (SampleVector([1, 2]), AssignmentVector([2, 1])),
        )
        d = ExplicitJoint(
            n_population=3, support=support, probs=np.array([0.5, 0.5])
        )
        assert d.census() is None

    def test_census_passthrough(self):
        c = CensusCRD(6, 3)
        assert c.census() is c


@pytest.mark.parametrize("probs, message", [
    ([1.0], "probs must align with the support"),
    ([1.5, -0.5], "probabilities must be nonnegative"),
    ([0.7, 0.4], "probabilities must sum to 1 within 1e-12"),
])
def test_explicit_designs_check_probabilities_alike(probs, message):
    vectors = (AssignmentVector([1, 2]), AssignmentVector([2, 1]))
    sample = SampleVector([1, 2])
    with pytest.raises(DesignInvalidError, match=f"^{message}$"):
        Explicit(support=vectors, probs=np.array(probs))
    with pytest.raises(DesignInvalidError, match=f"^{message}$"):
        ExplicitJoint(n_population=2, support=tuple((sample, v) for v in vectors),
                      probs=np.array(probs))


@given(st.data())
def test_explicit_inclusion_rows_sum_to_one(data):
    """Every position always receives some label, so pi(1,j) + pi(2,j) = 1."""
    n = data.draw(st.integers(2, 5))
    n_points = data.draw(st.integers(1, 6))
    vectors = data.draw(
        st.lists(
            st.lists(st.sampled_from([1, 2]), min_size=n, max_size=n).map(tuple),
            min_size=n_points,
            max_size=n_points,
            unique=True,
        )
    )
    raw = data.draw(
        st.lists(
            st.floats(0.01, 1.0, allow_nan=False),
            min_size=len(vectors),
            max_size=len(vectors),
        )
    )
    probs = np.asarray(raw) / np.sum(raw)
    d = Explicit(
        support=tuple(AssignmentVector(list(v)) for v in vectors), probs=probs
    )
    table = d.inclusion_table()
    assert np.allclose(table.sum(axis=0), 1.0, atol=1e-9)


# a non-uniform explicit design on 4 units, every unit assignable to both arms
TILTED = Explicit(
    support=(
        AssignmentVector([1, 1, 2, 2]),
        AssignmentVector([2, 1, 2, 1]),
        AssignmentVector([1, 2, 1, 2]),
        AssignmentVector([2, 2, 1, 1]),
        AssignmentVector([1, 2, 2, 2]),
    ),
    probs=np.array([0.4, 0.25, 0.15, 0.12, 0.08]),
)
CONTRACT_DESIGNS = [UniformCRD(6, 3), UniformCRD(5, 1), TILTED]


@pytest.mark.parametrize("design", CONTRACT_DESIGNS, ids=["crd6_3", "crd5_1", "explicit4"])
class TestDesignContract:
    """Every assignment design's views agree with each other."""

    def test_inclusion_is_weighted_support_mean(self, design):
        labels, probs = support_label_matrix(design)
        assert len(labels) == len(probs) == design.support_size
        expected = np.stack([probs @ (labels == 1), probs @ (labels == 2)])
        assert np.allclose(design.inclusion_table(), expected, rtol=0.0, atol=1e-12)

    def test_sampled_rows_are_contained(self, design):
        batch = sample_assignment_batch(design, 200, RngStream(6).generator())
        assert batch.shape == (200, design.n)
        # arm-1 indicator rows m are the labels 2 - m
        assert all(design.contains(2 - row) for row in batch)

    def test_indicator_rows_are_refused(self, design):
        batch = sample_assignment_batch(design, 20, RngStream(6).generator())
        for row in batch:
            with pytest.raises(DataValidationError, match="treatment labels must be 1 or 2"):
                design.contains(row)
            assert design.contains(2 - row)

    def test_contains_exactly_the_support(self, design):
        labels, _ = support_label_matrix(design)
        support = {tuple(row) for row in labels}
        for vector in itertools.product((1, 2), repeat=design.n):
            assert design.contains(np.array(vector, np.int8)) == (vector in support)
        assert not design.contains(labels[0][:-1])

    def test_single_draw_is_first_batch_row(self, design):
        root = RngStream(17)
        for k in range(50):
            stream = root.substream(k)
            single = sample_assignment(design, stream)
            batch = sample_assignment_batch(design, 1, stream.generator())
            assert np.array_equal(single.labels, 2 - batch[0])

    def test_single_draw_keeps_the_stream(self, design):
        # the draws of substreams (1, 0) and (2, r) in the size/power
        # harness: a shuffle of the sorted labels for a CRD, one categorical
        # draw of a support row otherwise
        root = RngStream(29)
        for k in range(50):
            gen = root.substream(k).generator()
            if isinstance(design, UniformCRD):
                expected = gen.permutation(np.repeat([1, 2], [design.n1, design.n2]))
            else:
                index = int(gen.choice(design.support_size, p=design.probs))
                expected = design.support[index].labels
            drawn = sample_assignment(design, root.substream(k))
            assert np.array_equal(drawn.labels, expected)


class TestExplicitEquality:
    def test_equal_content_compares_and_hashes_equal(self):
        a = explicit_from_json({"support": [[1, 2], [2, 1]], "probs": [0.3, 0.7]})
        b = explicit_from_json({"support": [[1, 2], [2, 1]], "probs": [0.3, 0.7]})
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_content_differences(self):
        a = explicit_from_json({"support": [[1, 2], [2, 1]], "probs": [0.3, 0.7]})
        assert a != explicit_from_json({"support": [[1, 2], [2, 1]], "probs": [0.7, 0.3]})
        assert a != explicit_from_json({"support": [[2, 1], [1, 2]], "probs": [0.3, 0.7]})
        assert a != explicit_from_json({"support": [[1, 2, 2], [2, 1, 2]], "probs": [0.3, 0.7]})
        assert a != UniformCRD(2, 1)

    def test_explicit_joint(self):
        def make(probs):
            support = (
                (SampleVector([1, 2]), AssignmentVector([1, 2])),
                (SampleVector([2, 3]), AssignmentVector([1, 2])),
            )
            return ExplicitJoint(n_population=3, support=support, probs=np.array(probs))

        assert make([0.5, 0.5]) == make([0.5, 0.5])
        assert hash(make([0.5, 0.5])) == hash(make([0.5, 0.5]))
        assert make([0.5, 0.5]) != make([0.6, 0.4])


def random_joint_design(gen, n_population=6, points=7):
    """An ExplicitJoint with samples of 2..4 units listed in random order."""
    support = []
    for _ in range(points):
        size = int(gen.integers(2, 5))
        units = gen.permutation(n_population)[:size] + 1
        support.append((SampleVector(units), AssignmentVector(gen.integers(1, 3, size))))
    probs = gen.random(points)
    return ExplicitJoint(n_population=n_population, support=tuple(support),
                         probs=probs / probs.sum())


class TestSelectionTables:
    @pytest.mark.parametrize("seed", range(8))
    def test_vectorized_table_equals_scan(self, seed):
        design = random_joint_design(np.random.default_rng(seed))
        everyone = SampleVector.first_n(design.n_population)
        assert np.array_equal(
            design.unit_inclusion_table(), joint_inclusion_by_scan(design, everyone)
        )
        for sample, assignment in design.support:
            weights = resolve_weights(design, sample, assignment)
            expected = design.n_population * joint_inclusion_by_scan(design, sample)
            assert np.array_equal(weights, expected)

    def test_census_weights_are_exact_arm_sizes(self):
        # 25 * (7 / 25) is not 7.0 in floating point; the census keeps n1, n2
        census = CensusCRD(25, 7)
        table = census.weight_table(SampleVector(np.arange(25, 0, -1)))
        assert table.tolist() == [[7.0] * 25, [18.0] * 25]
        with pytest.raises(DesignInvalidError):
            census.weight_table(SampleVector([1, 2, 3]))

    def test_sample_beyond_population_is_invalid(self):
        design = random_joint_design(np.random.default_rng(0), n_population=6)
        with pytest.raises(DesignInvalidError):
            resolve_weights(design, SampleVector([1, 7]), AssignmentVector([1, 2]))
        with pytest.raises(DesignInvalidError):
            design.weight_table(SampleVector([7]))


def observed_data(gen, kind, n, n1) -> ObservedExperiment:
    """A random assignment at arm sizes (n1, n - n1) with continuous or
    integer responses, or ("zero") integer responses whose arm means are
    equal, so the difference statistic is 0 in exact arithmetic."""
    labels = np.full(n, 2, np.int8)
    labels[gen.permutation(n)[:n1]] = 1
    if kind == "continuous":
        y = gen.normal(size=n)
    elif kind == "integer":
        y = gen.integers(0, 5, size=n).astype(float)
    else:
        y = np.empty(n)
        for arm, size in ((1, n1), (2, n - n1)):
            values = gen.integers(-3, 4, size=size).astype(float)
            values[-1] = 2.0 * size - values[:-1].sum()
            y[labels == arm] = values
    return ObservedExperiment(SampleVector.first_n(n), AssignmentVector(labels), y)


def kernel_columns(observed) -> list:
    """The permutation and rank-sum columns (coef, offset, compared)."""
    return [permutation_plan(observed).column, wilcoxon_plan(observed).column]


def bounded(design, columns) -> list:
    return [(coef, offset, design.tie_bounds(coef, offset, stat)) for coef, offset, stat in columns]


KINDS = ("continuous", "integer", "zero")


class TestUniformCRDExactTails:
    @pytest.mark.parametrize("n, n1", [(2, 1), (3, 1), (3, 2), (7, 3), (9, 8),
                                       (20, 10), (21, 4), (40, 37), (60, 59)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_counter_equals_the_support_scan(self, n, n1, kind):
        gen = np.random.default_rng([n, n1, KINDS.index(kind)])
        design = UniformCRD(n, n1)
        labels, _ = support_label_matrix(design)
        mask = (labels == 1).astype(np.float64)
        for _ in range(3 if n < 20 else 1):
            columns = bounded(design, kernel_columns(observed_data(gen, kind, n, n1)))
            assert design.exact_tails(columns) == scan_tails(mask, columns)

    @pytest.mark.parametrize("n, n1", [(60, 59), (60, 1), (2000, 1998), (21, 11), (20, 10)])
    def test_counter_builds_no_more_sums_than_the_support_has_points(self, n, n1, monkeypatch):
        # checked before the sums are built, so a regression fails here
        # instead of exhausting memory
        built = []

        def bounded_subset_index(h, kmax):
            count = sum(math.comb(h, a) for a in range(kmax + 1))
            assert count <= math.comb(n, n1)
            built.append(count)
            return subset_index(h, kmax)

        subset_index = designs_module._subset_index
        monkeypatch.setattr(designs_module, "_subset_index", bounded_subset_index)
        UniformCRD(n, n1).exact_tails([(np.arange(n, dtype=float), 0.0, (1.0, 1.0, 1.0))])
        assert len(built) == 2

    @pytest.mark.parametrize("n1", [2, 1998])
    @pytest.mark.parametrize("kind", KINDS)
    def test_counter_fits_the_cap_at_2000_choose_2(self, n1, kind):
        gen = np.random.default_rng([2000, n1, KINDS.index(kind)])
        design = UniformCRD(2000, n1)
        columns = bounded(design, kernel_columns(observed_data(gen, kind, 2000, n1)))
        # C(2000, 2) label rows do not fit in memory; with two ones (or two
        # twos) in the label row, the scan's statistic at the pair {i, j}
        # is (coef[i] + coef[j]) + offset (or the rest of coef.sum())
        i, j = np.triu_indices(2000, 1)
        expected = []
        for coef, offset, (thr, upper, lower) in columns:
            pairs = coef[i] + coef[j]
            stats = pairs + offset if n1 == 2 else (coef.sum() - pairs) + offset
            hits = (np.abs(stats) >= thr, stats >= upper, stats <= lower)
            expected.append([np.count_nonzero(h) for h in hits])
        assert design.exact_tails(columns) == expected

    @pytest.mark.parametrize("n, n1", [(2, 1), (3, 1), (3, 2), (7, 3), (9, 8), (10, 5)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_engine_equals_rational_enumeration(self, n, n1, kind):
        gen = np.random.default_rng([n, n1, KINDS.index(kind), 1])
        for _ in range(3):
            observed = observed_data(gen, kind, n, n1)
            tails = ExactEngine().tails(UniformCRD(n, n1), kernel_columns(observed))
            size = math.comb(n, n1)
            assert [[k / size for k in t] for t in tails] == uniform_crd_tails_by_fractions(
                observed.responses, observed.assignment.labels)

    def test_zero_difference_puts_the_whole_support_in_the_abs_tail(self):
        # arm means 13/3 and 13/3; D computes as -8.9e-16, not 0
        observed = ObservedExperiment(
            SampleVector.first_n(6), AssignmentVector([1, 1, 1, 2, 2, 2]),
            np.array([0.0, 9.0, 4.0, 4.0, 7.0, 2.0]))
        [column] = kernel_columns(observed)[:1]
        assert column[2] != 0.0
        [[abs_hits, _, _]] = ExactEngine().tails(UniformCRD(6, 3), [column])
        assert abs_hits == math.comb(6, 3)

    def test_cap_is_unchanged(self):
        columns = [(np.ones(24), 0.0, 12.0)]
        with pytest.raises(EnumerationTooLargeError,
                           match="^support size 2704156 exceeds enumeration cap 2000000$"):
            ExactEngine().tails(UniformCRD(24, 12), columns)


def sum_table_tails(design, column) -> list:
    """A lattice column's [abs, upper, lower] counts read from its
    _SumTable, whether or not exact_tails would build one: the arm-2 sets
    counted when n1 > n2, and the bounds moved to the lattice, as
    exact_tails does."""
    coef, offset, (thr, upper, lower) = column
    k = min(design.n1, design.n2)
    if k < design.n1:
        offset, coef = offset + coef.sum(), -coef
    return designs_module._SumTable.build(coef, k).tails(
        offset, np.ceil(2 * thr) / 2, np.ceil(2 * upper) / 2, np.floor(2 * lower) / 2)


@given(st.data())
def test_sum_table_equals_the_fractions(data):
    """Midranks of integer data, ties included, at any arm sizes."""
    n = data.draw(st.integers(2, 10))
    n1 = data.draw(st.integers(1, n - 1))
    y = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), float)
    labels = np.full(n, 2, np.int8)
    labels[data.draw(st.permutations(range(n)))[:n1]] = 1
    observed = ObservedExperiment(SampleVector.first_n(n), AssignmentVector(labels), y)
    coef, offset, stat = wilcoxon_plan(observed).column
    tails = sum_table_tails(UniformCRD(n, n1),
                            (coef, offset, UniformCRD(n, n1).tie_bounds(coef, offset, stat)))
    size = math.comb(n, n1)
    assert [k / size for k in tails] == uniform_crd_tails_by_fractions(y, labels)[1]


@given(st.data())
def test_sum_table_equals_the_scan(data):
    """Half-integer coefficients of either sign with an offset, at any arm
    sizes; observed at a support point, exactly 0 or at a lattice point,
    with the tie rule's bounds or bounds on the lattice points themselves.
    The engine, which reads the table only where it fits, agrees too."""
    n = data.draw(st.integers(2, 16))
    n1 = data.draw(st.integers(1, n - 1))
    coef = np.array(data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))) / 2
    offset = data.draw(st.integers(-20, 20)) / 2
    ones = data.draw(st.permutations(range(n)))[:n1]
    observed = data.draw(st.sampled_from([
        coef[ones].sum() + offset, 0.0, data.draw(st.integers(-40, 40)) / 2]))
    bounds = data.draw(st.sampled_from([UniformCRD(n, n1).tie_bounds(coef, offset, observed),
                                        (abs(observed), observed, observed)]))
    design, column = UniformCRD(n, n1), (coef, offset, bounds)
    labels, _ = support_label_matrix(design)
    expected = scan_tails((labels == 1).astype(np.float64), [column])
    assert [sum_table_tails(design, column)] == expected
    assert design.exact_tails([column]) == expected


@given(st.data())
def test_subset_sums_add_left_to_right_in_colex_order(data):
    """Each subset's sum is its values added smallest position first,
    starting from 0.0, bit for bit; -0.0 included."""
    h = data.draw(st.integers(1, 10))
    kmax = data.draw(st.integers(0, h))
    values = np.array(data.draw(st.lists(
        st.one_of(st.just(-0.0), st.floats(-1e6, 1e6)), min_size=h, max_size=h)))
    sums = designs_module._subset_sums(values, *designs_module._subset_index(h, kmax))
    # colex order: size by size, each size by largest position, then the next
    subsets = [c for a in range(kmax + 1)
               for c in sorted(itertools.combinations(range(h), a), key=lambda c: c[::-1])]
    expected = [functools.reduce(operator.add, values[list(c)].tolist(), 0.0) for c in subsets]
    assert sums.tobytes() == np.array(expected).tobytes()


def arrays_held(value) -> list:
    """Every array an object refers to, through any container."""
    if isinstance(value, np.ndarray):
        return [value]
    return [a for ref in gc.get_referents(value) if not isinstance(ref, type)
            for a in arrays_held(ref)]


class TestTailReuse:
    """An ExactEngine keeps subset layouts and prepared halves between
    calls; nothing it keeps shows in what it returns."""

    def test_designs_a_b_a_equal_fresh_engines(self):
        gen = np.random.default_rng(5)
        # the same columns under n1 = 5 and under n1 = 7, which counts the
        # arm-2 sets: a memo keyed by the column alone would mix them up
        columns = kernel_columns(observed_data(gen, "continuous", 12, 5))
        columns += kernel_columns(observed_data(gen, "integer", 12, 5))
        engine = ExactEngine()
        for design in (UniformCRD(12, 5), UniformCRD(12, 7), UniformCRD(12, 5)):
            assert engine.tails(design, columns) == ExactEngine().tails(design, columns)

    def test_memo_keeps_no_more_than_its_bound(self):
        engine, design = ExactEngine(), UniformCRD(20, 10)
        gen = np.random.default_rng(7)
        columns = [(gen.normal(size=20), 0.0, 1.0) for _ in range(100)]
        for column in columns:
            engine.tails(design, [column])
            assert 0 < engine._memo.nbytes <= designs_module._MEMO_BYTES
        assert len(engine._memo._items) < len(columns)
        assert engine.tails(design, columns[:3]) == ExactEngine().tails(design, columns[:3])

    def test_one_harness_call_builds_the_rank_sum_table_once(self, monkeypatch):
        # every replicate of t3.sc1 ranks 20 distinct values: one multiset
        built = []
        build = designs_module._SumTable.build

        def counted(coef, k):
            built.append(k)
            return build(coef, k)

        monkeypatch.setattr(designs_module._SumTable, "build", counted)
        run_size_power("t3.sc1", replicates=100, rng=RngStream(5), exact_small=True)
        assert built == [10]

    def test_one_harness_call_builds_each_subset_index_once(self, monkeypatch):
        # t3.sc1 is UniformCRD(20, 10): halves of 10 positions, subsets to size 10
        built = []
        subset_index = designs_module._subset_index

        def counted(h, kmax):
            built.append((h, kmax))
            return subset_index(h, kmax)

        monkeypatch.setattr(designs_module, "_subset_index", counted)
        run_size_power("t3.sc1", replicates=100, rng=RngStream(5), exact_small=True)
        assert built == [(10, 10), (10, 10)]

    @pytest.mark.parametrize("seed", range(5))
    def test_two_threads_build_each_item_once(self, monkeypatch, seed):
        built = []
        for owner, name in ((designs_module, "_subset_index"),
                            (designs_module._SumTable, "build")):
            monkeypatch.setattr(owner, name, functools.partial(
                lambda wrapped, name, *args: built.append(name) or wrapped(*args),
                getattr(owner, name), name))
        # switching threads often makes both replicates miss the memo at once
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_size_power("t3.sc1", replicates=100, rng=RngStream(seed),
                           exact_small=True, threads=2)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(built) == ["_subset_index", "_subset_index", "build"]

    def test_memo_counts_the_bytes_of_every_array_it_keeps(self):
        gen = np.random.default_rng(13)
        engine = ExactEngine()
        for n, n1 in ((12, 5), (12, 7), (9, 3)):
            for kind in KINDS:
                engine.tails(UniformCRD(n, n1), kernel_columns(observed_data(gen, kind, n, n1)))
        items = [value for value, _ in engine._memo._items.values()]
        # layouts, halves and sum tables
        assert {type(item) for item in items} == {tuple, designs_module._SumTable}
        assert engine._memo.nbytes == sum(a.nbytes for item in items for a in arrays_held(item))

    def test_tied_midranks_at_n1_above_n2_equal_the_fractions(self):
        gen = np.random.default_rng(11)
        engine, design = ExactEngine(), UniformCRD(9, 6)
        for _ in range(4):
            observed = observed_data(gen, "integer", 9, 6)
            # the same units in another order: a rank column with the same
            # multiset, counted from the halves the first one prepared
            order = gen.permutation(9)
            shuffled = ObservedExperiment(
                SampleVector.first_n(9), AssignmentVector(observed.assignment.labels[order]),
                observed.responses[order])
            assert len(np.unique(observed.responses)) < 9
            for data in (observed, shuffled):
                tails = engine.tails(design, kernel_columns(data))
                assert [[k / 84 for k in t] for t in tails] == uniform_crd_tails_by_fractions(
                    data.responses, data.assignment.labels)
