"""Property tests: random models, seeds and files, derandomized so that
every run draws the same examples."""

import json
import math
import os
import re
import tempfile
from collections import Counter
from itertools import chain as chained

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypercollapse import (BetaSeries, ExperimentConfig, Hypergraph, chain, chain_kernel,
                           collapse_all, edge_rate_curve, hypergraph, identifiable_set,
                           read_hypergraph, remove_vertex, run_replicas, write_hypergraph)
from helpers import canonical_instances, peeling_fixpoint, per_line_read
from test_chain import both_paths, seed_words
from test_hypergraph import assert_both_loops_collapse_alike
from test_montecarlo import reference_deviation

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

coefficient = st.one_of(st.just(0.0), st.floats(0.01, 3.0))
# models of degree <= 3 with size-1 edges, so that a sweep has something to do
models = st.builds(lambda b0, b1, rest: BetaSeries((b0, b1, *rest)),
                   coefficient, st.floats(0.01, 3.0), st.lists(coefficient, max_size=2))
seeds = st.integers(0, 2**63 - 1)
# a Poisson mean too large for numpy: the initial patches' at every
# replica, or a step's at the first replica that starts with a patch
too_large = st.sampled_from([BetaSeries((0.0, 1e300)), BetaSeries((0.5, 0.01, 1e300))])


@pytest.fixture(scope="module")
def kernel():
    loaded = chain_kernel.load()
    if loaded is None:
        pytest.skip("the compiled chain kernel is unavailable here")
    return loaded


@PROPERTY
@given(b0=coefficient, b1=st.floats(0.01, 3.0),
       rest=st.lists(coefficient, max_size=2), n=st.integers(10, 300),
       seed=st.integers(0, 2**63 - 1))
def test_deviations_match_a_path_grid_per_replica(b0, b1, rest, n, seed):
    series = BetaSeries((b0, b1, *rest))
    result = run_replicas(ExperimentConfig(series, (n,), 3, seed, delta=0.05))
    for r in result.records:
        assert r.deviation == reference_deviation(series, n, r.seed)


@PROPERTY
@given(series=models, n_values=st.lists(st.integers(10, 300), min_size=1, max_size=2,
                                        unique=True),
       replicas=st.integers(1, 9), seed=seeds, delta=st.sampled_from([None, 0.05]))
def test_worker_count_changes_nothing(series, n_values, replicas, seed, delta):
    results = [run_replicas(ExperimentConfig(series, n_values, replicas, seed,
                                             delta=delta, workers=workers))
               for workers in (1, 2, 3)]
    assert all((r.deviation is None) == (delta is None) for r in results[0].records)
    for other in results[1:]:
        assert other.records == results[0].records
        assert other.aggregates == results[0].aggregates


@settings(PROPERTY, max_examples=60)
@given(series=st.one_of(models, too_large),
       n_values=st.lists(st.integers(10, 3000), min_size=1, max_size=2, unique=True),
       replicas=st.integers(1, 9), seed=seeds, delta=st.sampled_from([None, 0.05]),
       workers=st.integers(1, 3))
def test_batch_kernel_matches_the_python_loop(series, n_values, replicas, seed, delta,
                                              workers):
    # where no kernel loads, both runs take chain._batch, the Python loop
    config = ExperimentConfig(series, n_values, replicas, seed, delta=delta,
                              workers=workers)
    outcomes = []
    for load in (chain_kernel.load, lambda: None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chain_kernel, "load", load)
            try:
                result = run_replicas(config)
                outcomes.append((result.records, result.aggregates))
            except (ValueError, OverflowError) as exc:
                outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


@PROPERTY
@given(rest=st.lists(coefficient, max_size=2), n=st.integers(1, 2000),
       mean_patches=st.floats(0.0, 5000.0), mean_debris=st.floats(0.0, 100.0), seed=seeds)
def test_kernel_matches_the_python_loop_draw_for_draw(kernel, rest, n, mean_patches,
                                                      mean_debris, seed):
    # means of thousands of patches on few vertices take numpy's BTPE binomial
    series = BetaSeries((mean_debris / n, mean_patches / n, *rest))
    (got, got_state), (want, want_state) = both_paths(
        n, series, lambda: np.random.default_rng(seed))
    assert (got.removed, got.debris) == (want.removed, want.debris)
    assert np.array_equal(got.trajectory, want.trajectory)
    assert got_state == want_state


# seeds of 1, 2, 3 and 4 32-bit words, the entropy numpy's SeedSequence takes
EXTREME_SEEDS = [0, 2**32 - 1, 2**64, 2**96 + 5, 2**128 - 1]


@PROPERTY
@given(series=models, n=st.integers(2, 1000), with_fluid=st.booleans(),
       seeds=st.lists(st.one_of(st.sampled_from(EXTREME_SEEDS), st.integers(0, 2**128 - 1)),
                      min_size=1, max_size=6))
def test_seeded_batch_matches_a_pcg64_per_seed(series, n, with_fluid, seeds):
    # where no kernel loads, both sides run chain._batch, the Python loop
    kernel = chain_kernel.load()
    batch = chain._batch if kernel is None else kernel.batch
    table = edge_rate_curve(n, 2, series)
    fluid = np.random.default_rng(n).uniform(0.0, 0.3, (n + 1, 3)) if with_fluid else None
    means = n * series.coeff(1), n * series.coeff(0)
    counts, deviations, _ = batch(n, table, None, *means, fluid, seeds=seed_words(seeds))
    assert (deviations is None) == (fluid is None)
    wants = [chain._batch(n, table, np.random.PCG64(s), *means, fluid, True) for s in seeds]
    assert np.array_equal(counts, np.concatenate([want[0] for want in wants]))
    assert fluid is None or deviations.tolist() == [want[1][0] for want in wants]
    got = batch(n, table, None, *means, fluid, True, seeds=seed_words(seeds[:1]))
    assert np.array_equal(got[0], wants[0][0])
    assert np.array_equal(got[2], wants[0][2])


def read_text(text):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "h.hgx")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return read_hypergraph(path)


# strings of digits look most like numbers; json.dumps(2.0) is "2.0", a
# whole N, so whole floats are left out of the headers
digits = st.text("0123456789.-e", max_size=3)
not_whole = st.one_of(st.none(), st.booleans(), digits,
                      st.floats().filter(lambda v: not math.isfinite(v) or v % 1),
                      st.lists(st.integers(0, 3), max_size=2))
not_int = st.one_of(st.none(), st.booleans(), digits, st.floats(),
                    st.lists(st.integers(0, 3), max_size=2),
                    st.dictionaries(digits, st.integers(), max_size=1))


@PROPERTY
@given(n=not_whole)
def test_reader_rejects_a_header_that_is_not_whole(n):
    with pytest.raises(ValueError, match="line 1: "):
        read_text(json.dumps({"N": n}) + "\n[0]\n")


@PROPERTY
@given(bad=not_int, pos=st.integers(0, 2))
def test_reader_rejects_a_vertex_that_is_not_an_integer(bad, pos):
    edge = [0, 1]
    edge.insert(pos, bad)
    with pytest.raises(ValueError, match="line 3: "):
        read_text('{"N": 4}\n[2]\n' + json.dumps(edge) + "\n")


# the largest vertex count, the int64 maximum; one more is an error
HUGE_N = 2**63 - 1
json_space = st.sampled_from(["", "", " ", "\t", " \t "])
blank_lines = st.sampled_from(["", " ", "\t", "\xa0", " \xa0\t", "\u3000", "\x0b\x0c"])
# each entry is one or more physical lines; most are bad on their own
odd_lines = st.sampled_from([
    ["[0], [1]"], ["[0] [1]"], ["[0],"],                       # two arrays on a line
    ["[0,", "1]"], ["[0], [1", "2]"], ["[", "]"],              # an array over two lines
    ["[[0]]"], ["[0, [1]]"], ["[]]"],                          # nesting
    ['["]"]'], ['[0, "[", 1]'], ['["],["]'], ['"[0]"'],        # strings with brackets
    ["[0, 0]"], ["[-1]"], ["[3]"], [f"[{2**63}]"], [f"[{2**64}]"],  # repeats, range
    ["[1.0]"], ["[1e0]"], ["[true]"], ["[null]"], ["[NaN]"], ["0"], ["{}"], ["null"],
    ["[0,]"], ["[01]"], ["]"], ["x"], ["\xa0[0]"], ["[0]\xa0"],
])


@st.composite
def edge_lines(draw, n):
    """A valid edge line: distinct ids in any order, 0 sometimes written
    -0, in JSON whitespace."""
    pool = st.integers(0, n - 1) if n < HUGE_N else st.sampled_from([0, 1, 2**62, n - 1])
    ids = draw(st.lists(pool, unique=True, max_size=min(n, 4)))
    tokens = [draw(st.sampled_from(["0", "-0"])) if v == 0 else str(v) for v in ids]
    comma = draw(json_space) + "," + draw(json_space)
    return (draw(json_space) + "[" + draw(json_space) + comma.join(tokens)
            + draw(json_space) + "]" + draw(json_space))


@st.composite
def hypergraph_texts(draw):
    n = draw(st.sampled_from([1, 3, 5, HUGE_N, HUGE_N + 1]))  # the last fails at line 1
    kinds = [edge_lines(n).map(lambda line: [line]), blank_lines.map(lambda line: [line])]
    if draw(st.booleans()):
        kinds.append(odd_lines)
    lines = [draw(st.sampled_from(['{"N": %d}', ' {"N": %d}\t'])) % n,
             *chained.from_iterable(draw(st.lists(st.one_of(kinds), max_size=8)))]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(chained.from_iterable(zip(lines, ends)))


@settings(PROPERTY, max_examples=300)
@given(text=hypergraph_texts(), batch=st.sampled_from([1, 7, 40]))
def test_reader_agrees_with_a_per_line_reader(text, batch):
    # the default batch holds every generated text; small ones split it
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "h.hgx")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            want = per_line_read(path)
        except ValueError as exc:
            want = re.match(re.escape(path) + r", line \d+: ", str(exc)).group()
        # the small batches are ordered with numpy, the default one as lists
        for chars, few in ((hypergraph._BATCH_CHARS, hypergraph._FEW_EDGES), (batch, 0)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(hypergraph, "_BATCH_CHARS", chars)
                mp.setattr(hypergraph, "_FEW_EDGES", few)
                if isinstance(want, str):
                    with pytest.raises(ValueError, match="^" + re.escape(want)):
                        read_hypergraph(path)
                else:
                    h = read_hypergraph(path)
                    assert (h.n_vertices, h.edge_counts()) == want


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(1, 8))
    edge = st.sets(st.integers(0, n - 1), max_size=min(n, 4))
    return Hypergraph(n, draw(st.lists(edge, max_size=12)))


@st.composite
def edge_lists(draw):
    """(n, edges): edges in any order, empty ones and repeats among them,
    each a list or tuple of Python or numpy integer ids in any order."""
    n = draw(st.integers(1, 8))
    ids = st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 4))
    kinds = st.sampled_from([int, np.int64, np.uint8, np.intp])
    edges = [draw(st.sampled_from([list, tuple]))(map(draw(kinds), edge))
             for edge in draw(st.lists(ids, max_size=12))]
    repeats = draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    return n, draw(st.permutations(edges + repeats))


def without(edges, gone):
    return [[v for v in edge if v not in gone] for edge in edges]


@pytest.mark.parametrize("few", [0, hypergraph._FEW_EDGES])  # numpy, then lists
@PROPERTY
@given(drawn=edge_lists(), pick=st.integers(0, 7), seed=seeds)
def test_storage_matches_the_tuple_definition(few, drawn, pick, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypergraph, "_FEW_EDGES", few)
        check_storage(drawn, pick, seed)


def check_storage(drawn, pick, seed):
    n, edges = drawn
    want = canonical_instances(n, edges)
    h = Hypergraph(n, edges)
    assert h.instances() == want
    assert list(h.edge_counts().items()) == list(Counter(want).items())
    sizes = [len(e) for e in want]
    assert h.stats() == (sizes.count(1), sizes.count(0), len(want))
    grown, times = Hypergraph(n), 1 + pick % 2
    for edge in edges:
        grown.add_edge(edge, times)
    assert grown.instances() == canonical_instances(n, edges * times)
    v = pick % n
    assert remove_vertex(h, v).instances() == canonical_instances(n, without(edges, {v}))
    for load in (chain_kernel.load, lambda: None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chain_kernel, "load", load)
            outcome = collapse_all(h, np.random.default_rng(seed))
        gone = set(outcome.identified)
        assert outcome.stable.instances() == canonical_instances(n, without(edges, gone))


@PROPERTY
@given(h=hypergraphs())
def test_reader_round_trips_the_writer(h):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "h.hgx")
        write_hypergraph(h, path)
        assert read_hypergraph(path) == h


@PROPERTY
@given(h=hypergraphs(), seeds=st.lists(seeds, min_size=2, max_size=3, unique=True))
def test_collapse_keeps_the_edges_and_finds_the_peeling_fixpoint(h, seeds):
    outcomes = [collapse_all(h, np.random.default_rng(seed)) for seed in seeds]
    peeled = peeling_fixpoint(h)
    for outcome in outcomes:
        assert outcome.stable.stats().total == h.stats().total
        assert len(set(outcome.identified)) == len(outcome.identified)
        assert set(outcome.identified) == peeled
        assert outcome.stable == outcomes[0].stable
        assert outcome.identifiable_edge_count == outcomes[0].identifiable_edge_count
    for load in (chain_kernel.load, lambda: None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chain_kernel, "load", load)
            assert identifiable_set(h) == peeled


@PROPERTY
@given(h=hypergraphs(), seed=seeds)
def test_compiled_collapse_matches_the_python_loop_draw_for_draw(kernel, h, seed):
    assert_both_loops_collapse_alike(h, lambda: np.random.default_rng(seed))


@PROPERTY
@given(h=hypergraphs())
def test_compiled_fixed_pick_removes_in_the_python_order(kernel, h):
    # every instance, so that repeated patches leave stale bag entries
    got = kernel.collapse(h.n_vertices, h.sizes, h.ids, None, True)
    want = hypergraph._collapse_steps(h.n_vertices, h.sizes, h.ids, None, True)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
