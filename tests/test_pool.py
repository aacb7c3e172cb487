"""The fork pool behind the batched kernels, the SIS sweep and the corpus.

Every result must be the same bits at any worker count, every worker
must be joined before the pool's caller goes on, and code already
running in a worker must not fork again.  Tests set the worker count
through ``graph._cpus``, which the pool reads on every call.
"""

import multiprocessing
import multiprocessing.pool
import os

import pytest

from cgtopo import graph, report
from cgtopo.epidemic import SisParams, threshold_sweep
from cgtopo.generators import GNM, RandomGraphSpec, generate_random
from cgtopo.graph import _pmap
from cgtopo.paths import betweenness, harmonic_geodesic_mean
from cgtopo.report import METRICS, AnalysisConfig, analyze_corpus, to_json
from cgtopo.topology import clustering_profile


def _workers(monkeypatch, count):
    monkeypatch.setattr(graph, "_cpus", lambda: count)


def _pid(_, item):
    return os.getpid()


def _fail_on_three(item):
    if item == 3:
        raise ValueError("item 3")
    return item


def test_pmap_keeps_item_order_and_forks_only_when_asked(monkeypatch):
    for count in (1, 2, 3):
        _workers(monkeypatch, count)
        assert list(_pmap(lambda scale, item: scale * item, (10,), range(7))) == [
            10 * i for i in range(7)
        ]
        pids = set(_pmap(_pid, (None,), range(6)))
        assert (pids == {os.getpid()}) == (count == 1)
        assert not multiprocessing.active_children()
    _workers(monkeypatch, 3)
    # one item runs in this process, however many CPUs there are
    assert list(_pmap(_pid, (None,), [0])) == [os.getpid()]


def test_pmap_joins_every_worker_when_one_raises_or_the_reader_stops(monkeypatch):
    _workers(monkeypatch, 3)
    with pytest.raises(ValueError, match="item 3"):
        list(_pmap(_fail_on_three, (), range(8)))
    assert not multiprocessing.active_children()
    results = _pmap(_fail_on_three, (), range(8))
    assert next(results) == 0
    results.close()
    assert not multiprocessing.active_children()


def test_kernels_identical_at_any_worker_count(monkeypatch):
    # the demo gnm-2000 fixture: 29 Brandes blocks at the default batch
    g = generate_random(RandomGraphSpec(model=GNM, n=2000, m=8000, seed=8))
    sweep_graph = generate_random(RandomGraphSpec(model=GNM, n=300, m=900, seed=4))
    base = SisParams(beta=0.0, delta=0.5, initial_infected=3, max_steps=40, seed=9)
    outputs = set()
    for count in (1, 2, 3):
        _workers(monkeypatch, count)
        got = [betweenness(g).values]
        with monkeypatch.context() as mp:
            # 32 geodesic batches and 316 profile batches
            mp.setattr(graph, "_BATCH_CELLS", 1 << 13)
            got.append(harmonic_geodesic_mean(g))
            got.append(harmonic_geodesic_mean(g, directed=True))
            got.append(clustering_profile(g, 3))
        got.append(threshold_sweep(sweep_graph, (0.1, 0.4, 1.6), 6, base))
        assert not multiprocessing.active_children()
        outputs.add(repr(got))
    assert len(outputs) == 1


def test_kernels_in_corpus_workers_run_serially(mixed_corpus, monkeypatch):
    # every kernel would fork here: several CPUs, many small batches
    _workers(monkeypatch, 3)
    monkeypatch.setattr(graph, "_BATCH_CELLS", 1 << 12)
    cfg = AnalysisConfig(metrics=METRICS, seed=7)
    serial = to_json(analyze_corpus(mixed_corpus, cfg, jobs=1))
    parent = os.getpid()
    worker = report._corpus_worker

    def refuse(*args, **kwargs):
        raise AssertionError("a corpus worker started a pool")

    def probe(task):
        if os.getpid() == parent:
            return "error", "the entry ran in the parent"
        multiprocessing.pool.Pool = refuse  # in this worker only
        return worker(task)

    monkeypatch.setattr(report, "_corpus_worker", probe)
    result = analyze_corpus(mixed_corpus, cfg, jobs=2)
    assert not multiprocessing.active_children()
    assert [row["label"] for row in result["summary"] if row["error"]] == ["missing"]
    assert to_json(result) == serial
