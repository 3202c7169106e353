import re

import numpy as np
import pytest

from hypercollapse import (BetaSeries, Hypergraph, chain_kernel, collapse_all, hypergraph,
                           identifiable_set, read_hypergraph, remove_vertex,
                           sample_poisson, write_hypergraph)
from helpers import (OverriddenGenerator, edges_inside, peeling_fixpoint,
                     per_edge_poisson_sample, plain, random_hypergraph)


def assert_both_loops_collapse_alike(h, make_rng):
    """`collapse_all` with the compiled loop and with the Python loop, each
    on a fresh `make_rng()`: same outcome, same bit generator state after."""
    outcomes = []
    for load in (chain_kernel.load, lambda: None):
        rng = make_rng()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chain_kernel, "load", load)
            outcome = collapse_all(h, rng, record_trajectory=True)
        outcomes.append((outcome, plain(rng.bit_generator.state)))
    (got, got_state), (want, want_state) = outcomes
    assert got.identified == want.identified
    assert got.stable == want.stable
    assert got.identifiable_edge_count == want.identifiable_edge_count
    assert np.array_equal(got.trajectory, want.trajectory)
    assert got_state == want_state
    return want


class TestHypergraph:
    def test_stats_empty(self):
        assert Hypergraph(3).stats() == (0, 0, 0)

    def test_stats_with_multiplicity(self):
        h = Hypergraph(2, [(0,), (0,), ()])
        assert h.stats() == (2, 1, 3)

    def test_rejects_duplicate_vertex_in_edge(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [(0, 0)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [(0, 3)])

    @pytest.mark.parametrize("few", [0, hypergraph._FEW_EDGES])  # numpy, then lists
    def test_errors_name_the_first_bad_edge_as_given(self, monkeypatch, few):
        monkeypatch.setattr(hypergraph, "_FEW_EDGES", few)
        with pytest.raises(ValueError, match=r"duplicate vertex in edge \[2, 1, 2\]$"):
            Hypergraph(3, [(0, 1), (2, 1, 2), (1, 1), (0, 0)])
        with pytest.raises(ValueError, match=r"out of range in edge \[3, 0\]$"):
            Hypergraph(3, [(0, 1), (3, 0), (0, 5)])

    @pytest.mark.parametrize("vertex", [0.5, 1.0, True, "1", None])
    def test_rejects_vertex_ids_that_are_not_integers(self, vertex):
        with pytest.raises(ValueError, match="a vertex id must be an integer"):
            Hypergraph(2, [[0, vertex]])

    def test_accepts_numpy_integer_vertex_ids(self):
        h = Hypergraph(2, [[np.int64(1)], [np.uint8(0), 1]])
        assert h.edge_counts() == {(1,): 1, (0, 1): 1}
        assert all(type(v) is int for edge in h.edge_counts() for v in edge)

    def test_add_edge_takes_a_whole_multiplicity(self):
        h = Hypergraph(2)
        h.add_edge([1, 0], 2.0)
        assert h.edge_counts() == {(0, 1): 2}
        assert type(h.stats().total) is int

    @pytest.mark.parametrize("multiplicity", [2.5, True, "2", None, 0])
    def test_add_edge_rejects_a_multiplicity_that_is_not_a_whole_count(self, multiplicity):
        h = Hypergraph(2)
        with pytest.raises(ValueError, match="multiplicity"):
            h.add_edge([0], multiplicity)
        assert h.edge_counts() == {}

    def test_equality_is_multiset_equality(self):
        a = Hypergraph(3, [(0, 1), (2,), (2,)])
        b = Hypergraph(3, [(2,), (0, 1), (2,)])
        assert a == b
        b.add_edge((2,))
        assert a != b

    def test_vertex_counts_stop_at_the_int64_top(self):
        with pytest.raises(ValueError, match="n_vertices must be at most 2"):
            Hypergraph(2**63)
        top = 2**63 - 1
        h = Hypergraph(top, [[top - 1], [0, top - 1], [top - 1]])
        assert h.ids.dtype == np.int64
        assert h.edge_counts() == {(top - 1,): 2, (0, top - 1): 1}
        with pytest.raises(ValueError, match=rf"out of range in edge \[{top}\]$"):
            Hypergraph(top, [[0], [top]])

    def test_instances_canonical_order(self):
        h = Hypergraph(4, [(1, 2), (), (3,), (0,), (1, 2)])
        assert h.instances() == [(), (0,), (3,), (1, 2), (1, 2)]


class TestSamplePoisson:
    def test_zero_series_gives_empty(self):
        h = sample_poisson(5, BetaSeries((0.0, 0.0, 0.0)), np.random.default_rng(0))
        assert h.stats() == (0, 0, 0)

    def test_patch_counts_match_poisson_mean(self):
        # size-1 total is Poisson(N*b1): mean of 10^4 draws within 4 sd
        rng = np.random.default_rng(7)
        series = BetaSeries((0.0, 1.0, 0.0))
        draws = 10_000
        counts = np.empty(draws)
        for i in range(draws):
            h = sample_poisson(100, series, rng)
            stats = h.stats()
            assert stats.debris == 0 and stats.total == stats.patches
            counts[i] = stats.patches
        assert abs(counts.mean() - 100.0) <= 4.0 * 10.0 / np.sqrt(draws)

    def test_debris_only_series(self):
        rng = np.random.default_rng(8)
        series = BetaSeries((0.5,))
        totals = []
        for _ in range(2000):
            stats = sample_poisson(100, series, rng).stats()
            assert stats.patches == 0 and stats.debris == stats.total
            totals.append(stats.total)
        assert abs(np.mean(totals) - 50.0) <= 4.0 * np.sqrt(50.0 / 2000)

    def test_mixed_series_stat_means(self):
        rng = np.random.default_rng(9)
        series = BetaSeries((0.2, 0.7, 0.4))
        n, draws = 50, 4000
        acc = np.zeros(3)
        for _ in range(draws):
            acc += sample_poisson(n, series, rng).stats()
        patches, debris, total = acc / draws
        assert abs(patches - n * 0.7) <= 4.0 * np.sqrt(n * 0.7 / draws)
        assert abs(debris - n * 0.2) <= 4.0 * np.sqrt(n * 0.2 / draws)
        assert abs(total - n * 1.3) <= 4.0 * np.sqrt(n * 1.3 / draws)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
    def test_draws_as_the_per_edge_loop(self, bit_generator):
        # few vertices: repeated ids are common and a subset can take all of them
        cases = [(n, seed, tuple(2.0 / (1 + j) for j in range(n + 1)))
                 for n in range(2, 9) for seed in range(6)]
        cases.append((30_000, 0, (0.05, 0.3, 0.6, 0.4)))
        for n, seed, coeffs in cases:
            got_rng, want_rng = (np.random.Generator(bit_generator(seed)) for _ in "ab")
            h = sample_poisson(n, BetaSeries(coeffs), got_rng)
            assert h.edge_counts() == per_edge_poisson_sample(n, coeffs, want_rng)
            assert plain(got_rng.bit_generator.state) == plain(want_rng.bit_generator.state)
            # the edges go in canonical order, which instances() keeps
            edges = list(h.edge_counts())
            assert edges == sorted(edges, key=lambda e: (len(e), e))

    def test_degree_must_fit(self):
        with pytest.raises(ValueError, match="series degree exceeds the vertex count"):
            sample_poisson(2, BetaSeries((0, 0, 0, 1.0)), np.random.default_rng(0))
        # zero coefficients above N draw nothing and leave the stream alone
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = sample_poisson(3, BetaSeries((0, 1.0, 0, 0, 0)), got_rng)
        assert got == sample_poisson(3, BetaSeries((0, 1.0)), want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        with pytest.raises(ValueError, match="need at least one vertex"):
            sample_poisson(0, BetaSeries((0, 0.5, 1.0)), np.random.default_rng(0))

    @pytest.mark.parametrize("make_rng", [lambda: None, lambda: np.random.RandomState(0)],
                             ids=["None", "RandomState"])
    def test_refuses_an_rng_that_is_not_a_generator(self, make_rng):
        rng = make_rng()
        with pytest.raises(TypeError, match="^rng must be a numpy.random.Generator, got "):
            sample_poisson(6, BetaSeries((0.2, 0.3, 0.4)), rng)
        # before any draw
        if rng is not None:
            assert rng.random_sample() == np.random.RandomState(0).random_sample()

    def test_a_generator_subclass_draws_as_its_base_class(self):
        # the subclass's own poisson and integers are not called
        got_rng = OverriddenGenerator(np.random.PCG64(5))
        want_rng = np.random.Generator(np.random.PCG64(5))
        got, want = (sample_poisson(60, BetaSeries((0.2, 0.3, 0.4)), rng)
                     for rng in (got_rng, want_rng))
        assert want.stats().total > 0
        assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_vertex_count_past_int64_draws_nothing(self):
        rng = np.random.default_rng(4)
        before = plain(rng.bit_generator.state)
        with pytest.raises(ValueError, match="n_vertices must be at most 2"):
            sample_poisson(2**63, BetaSeries((0, 1e-18)), rng)
        assert plain(rng.bit_generator.state) == before


class TestRemoveVertex:
    def test_cascade_of_sizes(self):
        h = Hypergraph(3, [(0,), (0, 1), (0, 1, 2)])
        out = remove_vertex(h, 0)
        assert out == Hypergraph(3, [(), (1,), (1, 2)])

    def test_two_patches_become_debris(self):
        h = Hypergraph(2, [(0,), (0,)])
        assert remove_vertex(h, 0) == Hypergraph(2, [(), ()])

    def test_untouched_edge_survives(self):
        h = Hypergraph(3, [(1, 2)])
        assert remove_vertex(h, 0) == h

    def test_conserves_edge_count(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            h = random_hypergraph(rng)
            v = int(rng.integers(h.n_vertices))
            assert remove_vertex(h, v).stats().total == h.stats().total

    @pytest.mark.parametrize("bad", [1.5, True, "1"])
    def test_rejects_ids_that_are_not_integers(self, bad):
        h = Hypergraph(3, [(0, 1), (1,)])
        with pytest.raises(ValueError, match="must be an integer"):
            remove_vertex(h, bad)

    def test_takes_a_numpy_integer(self):
        h = Hypergraph(3, [(0, 1), (1,)])
        assert remove_vertex(h, np.int64(1)) == Hypergraph(3, [(0,), ()])


class TestCollapseAll:
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
    def test_compiled_loop_matches_the_python_loop(self, bit_generator):
        if chain_kernel.load() is None:
            pytest.skip("the compiled chain kernel is unavailable here")
        for n, coeffs in ((2000, (0.1, 0.8, 0.6, 0.3)), (30_000, (0.05, 0.3, 0.6, 0.4))):
            h = sample_poisson(n, BetaSeries(coeffs), np.random.default_rng(n))
            outcome = assert_both_loops_collapse_alike(
                h, lambda: np.random.Generator(bit_generator(5)))
            assert len(outcome.identified) > n // 2

    @pytest.mark.parametrize("rng", [None, np.random.RandomState(0)])
    def test_refuses_an_rng_that_is_not_a_generator(self, rng, monkeypatch):
        # before any work: not even the edges are listed
        monkeypatch.setattr(Hypergraph, "instances", None)
        with pytest.raises(TypeError, match="must be a numpy.random.Generator"):
            collapse_all(Hypergraph(2, [(0,), (0, 1)]), rng)

    def test_a_generator_subclass_draws_as_its_base_class(self):
        # on both loops: the subclass's own integers is not called
        h = sample_poisson(300, BetaSeries((0.1, 0.8, 0.6)), np.random.default_rng(3))
        for load in (chain_kernel.load, lambda: None):
            got_rng = OverriddenGenerator(np.random.PCG64(5))
            want_rng = np.random.Generator(np.random.PCG64(5))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(chain_kernel, "load", load)
                got, want = (collapse_all(h, rng, record_trajectory=True)
                             for rng in (got_rng, want_rng))
            assert len(want.identified) > 1
            assert got.identified == want.identified
            assert np.array_equal(got.trajectory, want.trajectory)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_forced_two_step_sequence(self):
        h = Hypergraph(2, [(0,), (0, 1)])
        out = collapse_all(h, np.random.default_rng(0))
        assert out.identified == [0, 1]
        assert out.identifiable_edge_count == 2
        assert out.stable == Hypergraph(2, [(), ()])

    def test_unreachable_pair_survives(self):
        h = Hypergraph(3, [(0,), (1, 2)])
        out = collapse_all(h, np.random.default_rng(0))
        assert out.identified == [0]
        assert out.identifiable_edge_count == 1
        assert out.stable == Hypergraph(3, [(), (1, 2)])

    def test_trajectory_bookkeeping(self):
        h = Hypergraph(4, [(0,), (0, 1), (1, 2), (3,), (3,)])
        out = collapse_all(h, np.random.default_rng(3), record_trajectory=True)
        traj = out.trajectory
        assert traj[0].tolist() == [0, 3, 0]
        assert traj[-1][1] == 0
        # each removal converts at least one patch to debris
        assert np.all(np.diff(traj[:, 2]) >= 1)
        assert np.all(np.diff(traj[:, 0]) == 1)

    def test_a_short_trajectory_owns_its_rows(self):
        # two removals on 1e5 vertices: three rows, not a view of n + 1
        h = Hypergraph(100_000, [(0,), (0, 1), (2, 3)])
        for load in (chain_kernel.load, lambda: None):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(chain_kernel, "load", load)
                out = collapse_all(h, np.random.default_rng(0), record_trajectory=True)
            assert out.identified == [0, 1]
            assert out.trajectory.base is None and out.trajectory.shape == (3, 3)

    def test_order_independence_and_peeling_fixpoint(self):
        rng = np.random.default_rng(100)
        for _ in range(30):
            h = random_hypergraph(rng)
            outcomes = [collapse_all(h, np.random.default_rng(seed))
                        for seed in range(5)]
            first = outcomes[0]
            peeled = peeling_fixpoint(h)
            assert identifiable_set(h) == peeled
            assert set(first.identified) == peeled
            for other in outcomes[1:]:
                assert set(other.identified) == peeled
                assert other.stable == first.stable
                assert other.identifiable_edge_count == first.identifiable_edge_count

    def test_debris_identity(self):
        rng = np.random.default_rng(200)
        for _ in range(30):
            h = random_hypergraph(rng)
            out = collapse_all(h, np.random.default_rng(1))
            inside = edges_inside(h, set(out.identified))
            assert out.identifiable_edge_count == inside
            assert out.stable.stats().debris == h.stats().debris + inside
            assert out.stable.stats().total == h.stats().total
            assert out.stable.stats().patches == 0

    def test_representation_order_does_not_matter(self):
        edges = [(0, 1), (2,), (1, 3), (2, 3), (0,)]
        a = Hypergraph(4, edges)
        b = Hypergraph(4, list(reversed(edges)))
        out_a = collapse_all(a, np.random.default_rng(42))
        out_b = collapse_all(b, np.random.default_rng(42))
        assert out_a.identified == out_b.identified
        assert out_a.stable == out_b.stable


class TestIdentifiableSet:
    def test_hand_peeling_blocked_pair(self):
        h = Hypergraph(4, [(0,), (0, 1), (1, 2, 3)])
        assert identifiable_set(h) == peeling_fixpoint(h) == {0, 1}

    def test_no_patches_means_empty(self):
        h = Hypergraph(4, [(0, 1), (1, 2, 3)])
        assert identifiable_set(h) == peeling_fixpoint(h) == set()

    def test_hand_peeling_full_cascade(self):
        h = Hypergraph(4, [(0,), (0, 1), (0, 2), (1, 2, 3)])
        assert identifiable_set(h) == peeling_fixpoint(h) == {0, 1, 2, 3}

    def test_monotone_in_edges(self):
        rng = np.random.default_rng(300)
        for _ in range(50):
            h = random_hypergraph(rng)
            before = identifiable_set(h)
            size = int(rng.integers(0, min(3, h.n_vertices) + 1))
            extra = tuple(int(v) for v in rng.choice(h.n_vertices, size=size,
                                                     replace=False))
            bigger = Hypergraph(h.n_vertices, h.instances())
            bigger.add_edge(extra)
            assert before == peeling_fixpoint(h)
            assert before.issubset(identifiable_set(bigger))
            assert identifiable_set(bigger) == peeling_fixpoint(bigger)

    def test_moves_no_random_stream(self):
        # it takes no generator and draws from none, the global one included
        h = sample_poisson(500, BetaSeries((0.0, 0.2, 0.8, 0.6)), np.random.default_rng(4))
        rng = np.random.default_rng(5)
        state, legacy = plain(rng.bit_generator.state), plain(np.random.get_state(legacy=False))
        for load in (chain_kernel.load, lambda: None):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(chain_kernel, "load", load)
                assert identifiable_set(h) == peeling_fixpoint(h)
        assert plain(rng.bit_generator.state) == state
        assert plain(np.random.get_state(legacy=False)) == legacy


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        h = sample_poisson(30, BetaSeries((0.2, 0.5, 0.8, 0.1)), rng)
        path = tmp_path / "h.hgx"
        write_hypergraph(h, str(path))
        assert read_hypergraph(str(path)) == h

    def test_round_trip_at_the_int64_top(self, tmp_path):
        top = 2**63 - 1
        h = Hypergraph(top, [[top - 1], [0, 2**62, top - 1], []])
        path = tmp_path / "h.hgx"
        write_hypergraph(h, str(path))
        assert read_hypergraph(str(path)) == h

    def test_written_format(self, tmp_path):
        h = Hypergraph(3, [(0,), (0,), (1, 2)])
        path = tmp_path / "h.hgx"
        write_hypergraph(h, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ['{"N": 3}', "[0]", "[0]", "[1, 2]"]

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.hgx"
        path.write_text("[0]\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_hypergraph(str(path))

    def test_reads_blank_lines_any_line_end_and_any_order(self, tmp_path):
        path = tmp_path / "h.hgx"
        path.write_bytes(b'{"N": 3}\r\n \xc2\xa0\r\n[2, -0]\r\n\n\t[1] \r[]\n\n[0,2]')
        assert read_hypergraph(str(path)) == Hypergraph(3, [(0, 2), (1,), (), (0, 2)])

    def test_reads_a_header_alone(self, tmp_path):
        path = tmp_path / "h.hgx"
        path.write_bytes(b'{"N": 2}')
        assert read_hypergraph(str(path)) == Hypergraph(2)

    @pytest.mark.parametrize("lines, bad", [
        (["[0], [1", "2]"], 2),     # joined with a comma, these are two arrays
        (["[0]", "[1] [2]"], 3),
        (["[0]", '["]"]', "[1]"], 3),
        (['["],["]', "[1]"], 2),
        (["[[0]]"], 2),
        (["[0, true]"], 2),
        (["", "5"], 3),
        (["[0]", "[1, 1]", "[0,", "[5]"], 3),
        (["[0]", "[2]", "[0,", "[1, 1]"], 4),
        (["[0]", "[3]", "[0, 0]"], 3),
    ])
    def test_names_the_first_bad_line(self, tmp_path, lines, bad):
        path = tmp_path / "bad.hgx"
        path.write_text("\n".join(['{"N": 3}', *lines]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {bad}: "):
            read_hypergraph(str(path))

    def test_counts_lines_across_batches(self, tmp_path):
        path = tmp_path / "h.hgx"
        lines = ["[0, 1]", "", "[2]"] * 10_000  # 110 kB: two batches
        path.write_text("\n".join(['{"N": 3}', *lines]) + "\n", encoding="utf-8")
        assert read_hypergraph(str(path)).edge_counts() == {(0, 1): 10_000, (2,): 10_000}
        path.write_text("\n".join(['{"N": 3}', *lines, "[1, 1]"]), encoding="utf-8")
        with pytest.raises(ValueError, match=f", line {len(lines) + 2}: duplicate vertex"):
            read_hypergraph(str(path))
        # a duplicate in the first batch comes before a bad line in the second
        path.write_text("\n".join(['{"N": 3}', "[0]", "[1, 1]", *lines, "[0,"]),
                        encoding="utf-8")
        with pytest.raises(ValueError, match=", line 3: duplicate vertex"):
            read_hypergraph(str(path))

    def test_orders_the_whole_file_once(self, tmp_path, monkeypatch):
        edges = [[4, 3], [0], [2, 1, 0], [1], []] * 20
        path = tmp_path / "h.hgx"
        path.write_text("\n".join(['{"N": 5}', *map(str, edges)]), encoding="utf-8")
        calls, canonical = [], hypergraph._canonical

        def counted(sizes, ids):
            calls.append(len(sizes))
            return canonical(sizes, ids)

        monkeypatch.setattr(hypergraph, "_BATCH_CHARS", 64)  # nine batches
        monkeypatch.setattr(hypergraph, "_canonical", counted)
        h = read_hypergraph(str(path))
        assert calls == [len(edges)]
        monkeypatch.undo()
        assert h == Hypergraph(5, edges)

    def test_names_the_line_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bad.hgx"
        path.write_bytes(b'{"N": 3}\r\n[0]\r[\xff]\n')
        with pytest.raises(ValueError, match=", line 3: 'utf-8' codec can't decode"):
            read_hypergraph(str(path))
