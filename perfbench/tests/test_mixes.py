from collections import Counter
from itertools import islice

from servebench import mixes


def take(gen, n=500):
    return list(islice(gen, n))


def test_same_seed_gives_an_identical_job_sequence():
    for gen in (mixes.serve_mixed_jobs, mixes.serve_hot_jobs, mixes.fed_open_jobs):
        assert take(gen(7)) == take(gen(7))
        assert take(gen(7)) != take(gen(8))
    assert mixes.jittered_offsets(3, 3.6, 30.0) == mixes.jittered_offsets(3, 3.6, 30.0)
    assert mixes.serve_hot_shapes(5) == mixes.serve_hot_shapes(5)


def test_every_serve_mixed_prefix_asks_for_the_same_work():
    per_bench = {b: 10 for b in mixes.PAPER_BENCHMARKS}  # two timestep cycles
    cycle_steps = Counter(t for c in mixes.MIXED_TIMESTEP_CYCLES for t in c)
    for seed in (1, 2, 3):
        jobs = take(mixes.serve_mixed_jobs(seed))
        prefix = jobs[: 10 * len(mixes.PAPER_BENCHMARKS)]
        assert Counter(j["benchmark"] for j in prefix) == Counter(per_bench)
        for bench in mixes.PAPER_BENCHMARKS:
            mine = [j for j in prefix if j["benchmark"] == bench]
            assert Counter(j["timesteps"] for j in mine) == cycle_steps
        for job in jobs:
            if job["scheduler"] == "baseline":
                assert job["nodes"] == mixes.WHOLE_MACHINE_NODES
            else:
                assert 1 <= job["nodes"] <= 4
        assert len({j["tenant"] for j in jobs}) == mixes.MIXED_TENANTS
        assert {j["scheduler"] for j in jobs} == set(mixes.MIXED_SCHEDULERS)


def test_serve_mixed_leases_come_in_node_cycles():
    for seed in (1, 2):
        jobs = take(mixes.serve_mixed_jobs(seed), 12 * len(mixes.PAPER_BENCHMARKS))
        for bench in mixes.PAPER_BENCHMARKS:
            leased = [j["nodes"] for j in jobs if j["benchmark"] == bench and j["scheduler"] != "baseline"]
            # 12 jobs per benchmark: four scheduler cycles, eight leasable jobs
            assert Counter(leased) == Counter(mixes.MIXED_LEASE_NODES * 2)


def test_fed_open_rounds_hold_every_shape_once():
    cells = len(mixes.FED_BENCHMARKS) * len(mixes.FED_NODES)
    jobs = take(mixes.fed_open_jobs(3), 4 * cells)
    for r in range(4):
        shapes = {(j["benchmark"], j["nodes"]) for j in jobs[r * cells:(r + 1) * cells]}
        assert len(shapes) == cells


def test_fed_open_mix_stays_small():
    jobs = take(mixes.fed_open_jobs(2))
    assert {j["benchmark"] for j in jobs} == set(mixes.FED_BENCHMARKS)
    assert {j["timesteps"] for j in jobs} == {mixes.FED_TIMESTEPS}
    assert {j["nodes"] for j in jobs} == {2, 3, 4}
    assert len({j["tenant"] for j in jobs}) == mixes.FED_TENANTS


def test_hot_jobs_only_repeat_the_cached_shapes():
    shapes = mixes.serve_hot_shapes(4)
    assert all(s["nodes"] == mixes.HOT_NODES for s in shapes)
    assert all(j in shapes for j in take(mixes.serve_hot_jobs(4), 5000))


def test_jittered_offsets_hold_one_send_per_slot():
    offsets = mixes.jittered_offsets(9, 3.2, 34.0)
    assert len(offsets) == round(3.2 * 34.0)
    width = 34.0 / len(offsets)
    assert [int(t // width) for t in offsets] == list(range(len(offsets)))
    assert offsets != mixes.jittered_offsets(10, 3.2, 34.0)


def test_hot_leases_cover_every_grant_two_clients_can_get():
    harness = __import__("pytest").importorskip("servebench.harness")
    from repro.topology.presets import zen4_9354

    topology = zen4_9354()
    # zen4_9354 has two sockets of four nodes: half-machine leases are sockets
    assert harness.grantable_leases(topology, mixes.HOT_NODES, 2) == {(0, 1, 2, 3), (4, 5, 6, 7)}
    singles = harness.grantable_leases(topology, 1, 2)
    assert singles == {(n,) for n in range(topology.num_nodes)}
