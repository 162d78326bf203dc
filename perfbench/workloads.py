"""The three benchmark workloads and the run protocol they share.

A run of a workload, with tracing off, is one or more whole passes of
``rounds_per_pass`` slices: another pass starts only while the timed rounds
so far add up to less than ``seconds``, so every run times every op of a
pass equally often.  A slice clears the per-process caches, sets up
(dataset stand-ins, the truth PropertySets the ops read, the service where
there is one, and one cold op), then runs one timed round of warm ops.
``setup_s`` is the median set-up and ``ops_per_s`` the completed timed ops
(on the serve workload, the computations) over the summed round times.
After the last round the run reads the peak resident set, then checks
every op's output and scores the restorations of the first pass for
``l1_proposed``.

Every op's input comes from a fixed list (per workload and round), the same
in every run; the run seed orders the ops, or on the serve workload picks
which client sends which request.  So two runs do the same work and their
difference is the program and the host, and ``l1_proposed`` is exact.

With tracing on, the workload sets up once with set-up spans, then replays
its ops through :mod:`perfbench.replay` next to the untraced calls,
requires identical outputs, and reports per-layer self times and counts.
The overhead figures (tracing, sweep, service) are medians over
``PROBE_REPS`` pairs on tiny inputs, where the layer's own cost is not
drowned by the host's noise on multi-second ops.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import random
import resource
import statistics
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext

from repro import (
    EvaluationConfig,
    GraphAccess,
    compute_properties,
    l1_distances,
    load_dataset,
    restore_graph,
)
from repro.api import RunContext, SweepGrid, clear_truth_cache, run_sweep
from repro.experiments.runner import ExperimentConfig, cell_truth
from repro.graph.datasets import TABLE34_DATASETS, clear_dataset_cache
from repro.service import AsyncServiceClient, ReproService
from repro.service.handlers import evaluate_config, run_op
from repro.service.protocol import (
    aggregates_to_payload,
    canonical_json,
    normalize_request,
    request_key,
)

from perfbench import checks, replay
from perfbench.spans import ROOT, Tracer

FRACTION = 0.10
# the sampled evaluation config of the repository's pytest benches
BENCH_EVAL = EvaluationConfig(
    exact_threshold=400, path_sources=96, betweenness_pivots=48, seed=7
)
# summary fields that are measurements, not functions of the request
_TIMING_FIELDS = ("total_seconds", "rewiring_seconds", "phase_seconds")
# pairs per overhead figure of the traced run
PROBE_REPS = 5
# rc of each set-up's cold op: it makes the same calls and fills the same
# caches as a timed op, without redoing the seconds of rewiring that
# ops_per_s times (at RC=500, 6-10 s per slice the run budget cannot carry)
WARM_UP_RC = 5


def derive_seed(seed: int, *path) -> int:
    """A 31-bit seed for one op, a pure function of the run seed and path."""
    digest = hashlib.sha256(repr((seed, *path)).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def paired_walls(reps: int, *fns) -> list[list[float]]:
    """Wall times of every ``fn(k)``, for ``k < reps``; the side that runs
    first rotates, so a drift of the host cancels."""
    rows = []
    for k in range(reps):
        walls = [0.0] * len(fns)
        for j in range(len(fns)):
            side = (j + k) % len(fns)
            t0 = time.perf_counter()
            fns[side](k)
            walls[side] = time.perf_counter() - t0
        rows.append(walls)
    return rows


def tracing_overhead(replayed) -> list[float]:
    """Per pair, the wall time of ``replayed(tracer, k)`` with spans on
    minus the same call with spans off."""
    scratch = Tracer()

    def traced(k: int) -> None:
        with scratch.op(f"probe{k}"):
            replayed(scratch, k)

    rows = paired_walls(PROBE_REPS, lambda k: replayed(NullTracer(), k), traced)
    return [on - off for off, on in rows]


def clear_caches() -> None:
    """Forget the per-process dataset registry and truth memo, so the next
    set-up rebuilds them (CSR snapshots go with their weakly-held graphs)."""
    clear_dataset_cache()
    clear_truth_cache()
    gc.collect()


class NullTracer:
    """Tracing off: spans and counts cost one call each."""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, n: float = 1) -> None:
        pass


class Ledger:
    """Ops attempted and failed; an op fails on an exception or a failed
    check, and the run carries on.  Run-level checks that belong to no
    single op make the run incorrect instead."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}
        self.run_errors: list[str] = []

    @contextmanager
    def guard(self, op_id: str) -> Iterator[None]:
        """Count one op; an exception inside marks it failed and is dropped."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # an op that raises is a failed op
            self.fail(op_id, f"{type(exc).__name__}: {exc}")

    def attempt(self, op_id: str, fn, *args, **kwargs):
        result = None
        with self.guard(op_id):
            result = fn(*args, **kwargs)
        return result

    def fail(self, op_id: str, message: str) -> None:
        self.failures.setdefault(op_id, []).append(message)

    def expect(self, op_id: str, errors: list[str]) -> None:
        for message in errors:
            self.fail(op_id, message)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def report(self) -> None:
        for op_id, messages in self.failures.items():
            for message in messages:
                print(f"FAILED {op_id}: {message}", file=sys.stderr)
        for message in self.run_errors:
            print(f"RUN CHECK FAILED: {message}", file=sys.stderr)


# ----------------------------------------------------------------------
# restore-youtube-rc500
# ----------------------------------------------------------------------
class RestoreWorkload:
    """``restore_graph`` on the YouTube stand-in at the paper's RC=500.

    The rewiring backend is pinned to ``csr``: under ``auto`` a restored
    graph just under 20k edges goes to the python backend, and one such
    restoration takes 40 s instead of 6 s (README, "Findings")."""

    name = "restore-youtube-rc500"
    dataset = "youtube"

    def __init__(self, seed: int, ledger: Ledger, tiny: bool = False) -> None:
        self.seed = seed
        self.ledger = ledger
        self.scale = 0.1 if tiny else 1.0
        self.rc = 5 if tiny else 500
        self.seeds = [derive_seed(0, self.name, k) for k in range(2 if tiny else 3)]
        self.rounds_per_pass = len(self.seeds)
        self.warm_ups: list = []  # (op id, result)
        self.results: list = []  # (op id, index into seeds, result)

    def reset(self) -> None:
        clear_caches()

    def setup(self, tracer) -> None:
        # no op reads a truth here; verify() builds the one l1 scoring needs
        with tracer.span("graph.load_dataset"):
            self.graph = load_dataset(self.dataset, scale=self.scale)
        self.target = max(3, int(round(FRACTION * self.graph.num_nodes)))
        op_id = f"setup{len(self.warm_ups)}"
        warm_up = derive_seed(0, self.name, "warm-up")
        result = self.ledger.attempt(op_id, self.op, warm_up, min(self.rc, WARM_UP_RC))
        self.warm_ups.append((op_id, result))

    def op(self, op_seed: int, rc: float | None = None):
        return restore_graph(
            GraphAccess(self.graph), self.target, rc=rc or self.rc, rng=op_seed, backend="csr"
        )

    def round(self, i: int) -> int:
        """Timed round ``i``: one restoration, cycling through the seed list."""
        k = op_at(self.seed, i, len(self.seeds))
        op_id = f"op{i}.seed{k}"
        result = self.ledger.attempt(op_id, self.op, self.seeds[k])
        self.results.append((op_id, k, result))
        return int(result is not None)

    def verify(self) -> float:
        hidden = checks.degrees(self.graph)
        outputs = self.warm_ups + [(op_id, result) for op_id, _, result in self.results]
        for op_id, result in outputs:
            if result is not None:
                self.ledger.expect(op_id, checks.check_restoration(result, hidden, self.target))
        truth = compute_properties(self.graph, BENCH_EVAL)
        scores = []
        for op_id, _, result in sorted(self.results[: len(self.seeds)], key=lambda x: x[1]):
            if result is not None:
                props = compute_properties(result.graph, BENCH_EVAL)
                distances = l1_distances(truth, props)
                self.ledger.expect(op_id, _finite(distances))
                scores.append(checks.mean_l1(distances))
        return _mean(scores)

    def trace(self, seconds: float, tracer: Tracer, start: float) -> dict:
        ops = 0
        for k, op_seed in enumerate(self.seeds):
            if k and time.perf_counter() - start >= seconds:
                break
            op_id = f"op{k}"
            ops += 1
            with self.ledger.guard(op_id):
                plain = self.op(op_seed)
                plain_props = compute_properties(plain.graph, BENCH_EVAL)
                with tracer.op(op_id):
                    access = GraphAccess(self.graph)
                    traced = replay.restore(tracer, access, self.target, self.rc, op_seed, "csr")
                    traced_props = replay.properties(tracer, traced.graph, BENCH_EVAL)
                self.ledger.expect(op_id, _same_restoration(plain, traced))
                if not checks.same_properties(plain_props, traced_props):
                    self.ledger.fail(op_id, "traced PropertySet differs from the untraced one")
        return {"ops": ops, "overheads": self.probe()}

    def probe(self) -> list[float]:
        """Tracing overhead per restoration: a tiny restoration makes the
        same layer calls as a full one, so the same replay with spans on
        and off shows the spans' cost without seconds of rewiring noise."""
        tiny = RestoreWorkload(0, self.ledger, tiny=True)
        tiny.setup(NullTracer())
        seeds = [derive_seed(0, self.name, "probe", k) for k in range(PROBE_REPS)]

        def replayed(tracer, k: int) -> None:
            access = GraphAccess(tiny.graph)
            replay.restore(tracer, access, tiny.target, tiny.rc, seeds[k], "csr")

        with self.ledger.guard("probe"):
            return tracing_overhead(replayed)
        return []

    def close(self) -> None:
        pass


def op_at(seed: int, i: int, n: int) -> int:
    """Which of a workload's ``n`` fixed ops runs at position ``i``: every
    ``n`` consecutive positions run each op once, in an order shuffled by
    the run seed."""
    order = list(range(n))
    random.Random(derive_seed(seed, "order", i // n)).shuffle(order)
    return order[i % n]


def _same_restoration(plain, traced) -> list[str]:
    errors = []
    if not checks.same_graph(plain.graph, traced.graph):
        errors.append("traced restoration's edge list differs from the untraced one")
    if (
        plain.degree_targets.counts != traced.degree_targets.counts
        or plain.jdm_targets != traced.jdm_targets
        or plain.rewiring != traced.rewiring
    ):
        errors.append("traced restoration's targets or rewiring report differ")
    return errors


def _finite(distances: dict[str, float]) -> list[str]:
    return checks.check_distances({"proposed": distances})


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else float("nan")


# ----------------------------------------------------------------------
# evaluate-table3
# ----------------------------------------------------------------------
class EvaluateWorkload:
    """Table III cells through ``run_sweep`` under a serial RunContext."""

    name = "evaluate-table3"
    datasets = TABLE34_DATASETS

    def __init__(self, seed: int, ledger: Ledger, tiny: bool = False) -> None:
        self.seed = seed
        self.ledger = ledger
        self.scale = 0.1 if tiny else 0.35
        self.rc = 5 if tiny else 50
        # one fixed RunContext seed per dataset, the same in every round
        self.seeds = [derive_seed(0, self.name, k) for k in range(len(self.datasets))]
        self.rounds_per_pass = len(self.datasets) // 2
        self.cells: list = []  # (op id, aggregates, in the first pass over datasets)

    def _grid(self, dataset: str, rc: float | None = None) -> SweepGrid:
        return SweepGrid(
            datasets=(dataset,),
            fractions=(FRACTION,),
            rcs=(float(rc or self.rc),),
            runs=1,
            scale=self.scale,
            evaluation=BENCH_EVAL,
        )

    def op(self, dataset: str, cell_seed: int, rc: float | None = None):
        grid = self._grid(dataset, rc)
        results = run_sweep(grid, context=RunContext(seed=cell_seed, jobs=1))
        return results[0].aggregates

    def reset(self) -> None:
        clear_caches()

    def setup(self, tracer) -> None:
        self.graphs = {}
        for dataset in self.datasets:
            with tracer.span("graph.load_dataset"):
                graph = load_dataset(dataset, scale=self.scale)
            with tracer.span("metrics.truth"):
                cell_truth(self._truth_key(dataset), graph)
            self.graphs[dataset] = graph
        op_id = f"setup.{self.datasets[0]}"
        warm_up = derive_seed(0, self.name, "warm-up")
        aggregates = self.ledger.attempt(
            op_id, self.op, self.datasets[0], warm_up, min(self.rc, WARM_UP_RC)
        )
        self.cells.append((op_id, aggregates, False))

    def _truth_key(self, dataset: str) -> ExperimentConfig:
        return ExperimentConfig(dataset=dataset, scale=self.scale, evaluation=BENCH_EVAL)

    def round(self, i: int) -> int:
        """Timed round ``i``: two cells; three rounds cover the six datasets."""
        done = 0
        for position in (2 * i, 2 * i + 1):
            k = op_at(self.seed, position, len(self.datasets))
            op_id = f"cell{position}.{self.datasets[k]}"
            aggregates = self.ledger.attempt(op_id, self.op, self.datasets[k], self.seeds[k])
            self.cells.append((op_id, aggregates, position < len(self.datasets)))
            done += aggregates is not None
        return done

    def verify(self) -> float:
        wins = 0
        for op_id, aggregates, _ in self.cells:
            if aggregates is not None:
                per_method = {m: agg.per_property for m, agg in aggregates.items()}
                self.ledger.expect(op_id, checks.check_distances(per_method))
                wins += checks.num_nodes_wins(per_method)
        print(
            f"proposed num_nodes L1 below RW's in {wins} of {len(self.cells)} cells",
            file=sys.stderr,
        )
        for dataset, graph in self.graphs.items():
            truth = cell_truth(self._truth_key(dataset), graph)
            self.ledger.expect("setup.truth", checks.check_truth(truth, graph))
        return _mean([agg["proposed"].average_l1 for _, agg, first in self.cells if first and agg])

    def _config(self, dataset: str, cell_seed: int):
        """The configured cell ``op(dataset, cell_seed)`` runs."""
        context = RunContext(seed=cell_seed, jobs=1)
        return context.configure(next(iter(self._grid(dataset).cells(context))))

    def trace(self, seconds: float, tracer: Tracer, start: float) -> dict:
        for dataset, cell_seed in zip(self.datasets, self.seeds, strict=True):
            op_id = f"r0.{dataset}"
            with self.ledger.guard(op_id):
                plain = self.op(dataset, cell_seed)
                with tracer.op(op_id):
                    traced = replay.cell(tracer, self._config(dataset, cell_seed))
                if _deterministic(plain) != _deterministic(traced):
                    self.ledger.fail(op_id, "traced cell's aggregates differ from untraced ones")
        overheads, sweep = self.probe()
        return {
            "ops": len(self.datasets), "overheads": overheads, "api.sweep_overhead_s": sweep,
        }

    def probe(self) -> tuple[list[float], list[float]]:
        """Tracing and sweep overhead per cell, on tiny cells: a cell's
        layer calls do not depend on its size, so these pairs show the
        spans' and the sweep layer's cost without seconds of noise.  The
        sweep overhead is a cell's wall time under ``run_sweep`` minus the
        self times of its traced replay's layer spans."""
        tiny = EvaluateWorkload(0, self.ledger, tiny=True)
        tiny.setup(NullTracer())
        scratch = Tracer()
        cells = [
            (tiny.datasets[k % len(tiny.datasets)], derive_seed(0, self.name, "probe", k))
            for k in range(PROBE_REPS)
        ]

        def traced(k: int) -> None:
            with scratch.op(f"probe{k}"):
                replay.cell(scratch, tiny._config(*cells[k]))

        with self.ledger.guard("probe"):
            rows = paired_walls(
                PROBE_REPS,
                lambda k: tiny.op(*cells[k]),
                lambda k: replay.cell(NullTracer(), tiny._config(*cells[k])),
                traced,
            )
            return (
                [on - off for _, off, on in rows],
                [swept - _layer_time(scratch, f"probe{k}") for k, (swept, _, _) in enumerate(rows)],
            )
        return [], []

    def close(self) -> None:
        pass


def _deterministic(aggregates) -> str:
    return canonical_json(aggregates_to_payload(aggregates, include_timings=False))


def _layer_time(tracer: Tracer, op_id: str) -> float:
    """Self time of one op's layer spans, the root's residual excluded."""
    return sum(
        own
        for s, own in zip(tracer.spans, tracer.self_times(), strict=True)
        if s.op == op_id and s.name != ROOT
    )


# ----------------------------------------------------------------------
# serve-youtube-rc50
# ----------------------------------------------------------------------
class ServeWorkload:
    """An in-process ``ReproService(jobs=1)`` driven by two closed-loop
    asyncio clients on the service's own event loop.  Each round is four
    lockstep steps; in each step both clients send one request and wait
    for its reply."""

    name = "serve-youtube-rc50"
    dataset = "youtube"

    def __init__(self, seed: int, ledger: Ledger, tiny: bool = False) -> None:
        self.seed = seed
        self.ledger = ledger
        self.scale = 0.1 if tiny else 1.0
        self.rc = 5 if tiny else 50
        self.rounds_per_pass = 3
        self.loop = asyncio.new_event_loop()
        self.service: ReproService | None = None
        self.clients: list[AsyncServiceClient] = []
        self.latency: dict[str, list[float]] = {"miss": [], "hit": [], "coalesced": []}
        # request key -> (op, params, reply), distinct requests of the first pass
        self.first_pass: dict[str, tuple[str, dict, dict]] = {}

    def _restore(self, s: int, rc: float | None = None, scale: float | None = None):
        return "restore", {
            "dataset": self.dataset, "fraction": FRACTION, "rc": float(rc or self.rc),
            "scale": scale or self.scale, "seed": s,
        }

    def _evaluate(self, s: int) -> tuple[str, dict]:
        params = self._restore(s)[1]
        return "evaluate", dict(params, runs=1, methods=["proposed"])

    def script(self, r: int) -> list[tuple[tuple, tuple]]:
        """Round ``r``: 3 distinct computations, 1 coalesced request, 4 hits.

        Round ``r`` sends the requests of round ``r % rounds_per_pass`` in
        every run; the run seed decides which client sends which side of
        each step.  Each slice starts a fresh service, so they are new to
        it."""
        p = r % self.rounds_per_pass
        m, e, n = (derive_seed(0, self.name, p, k) for k in range(3))
        R, E = self._restore, self._evaluate
        steps = [
            (R(m), R(m)),  # an identical pair sent at once: coalesces
            (E(e), R(m)),  # evaluate miss beside a hit
            (R(n), E(e)),  # restore miss beside a hit
            (R(n), R(m)),  # hits only
        ]
        swap = random.Random(derive_seed(self.seed, "clients", r))
        return [(b, a) if swap.random() < 0.5 else (a, b) for a, b in steps]

    # -- set-up ---------------------------------------------------------
    def reset(self) -> None:
        if self.service is not None:
            self.check_service()
        self.loop.run_until_complete(self._shutdown())
        clear_caches()

    def setup(self, tracer) -> None:
        self.loop.run_until_complete(self._setup(tracer))

    async def _setup(self, tracer) -> None:
        with tracer.span("graph.load_dataset"):
            self.graph = load_dataset(self.dataset, scale=self.scale)
        op, params = self._evaluate(0)
        with tracer.span("metrics.truth"):
            cell_truth(evaluate_config(normalize_request(op, params)), self.graph)
        self.service = ReproService(jobs=1)
        await self.service.start("127.0.0.1", 0)
        self.clients = [
            await AsyncServiceClient.connect(self.service.host, self.service.port)
            for _ in range(2)
        ]
        # per service: request key -> [(op id, canonical reply)], arrival order
        self.replies: dict[str, list[tuple[str, str]]] = {}
        self.sent = {"hit": 0, "coalesced": 0}
        warm_up = self._restore(derive_seed(0, self.name, "warm-up"), rc=WARM_UP_RC)
        await self._send(0, "setup", warm_up, "setup")

    async def _shutdown(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []
        if self.service is not None:
            await self.service.drain()
            self.service = None

    async def _send(self, client: int, op_id: str, request: tuple, kind: str):
        op, params = request
        self.ledger.attempted += 1
        t0 = time.perf_counter()
        try:
            result = await self.clients[client].request(op, params)
        except Exception as exc:  # an error frame or a dropped connection
            self.ledger.fail(op_id, f"{type(exc).__name__}: {exc}")
            return None
        self.latency.setdefault(kind, []).append(time.perf_counter() - t0)
        key = _key(request)
        self.replies.setdefault(key, []).append((op_id, canonical_json(result)))
        return result

    # -- timed rounds ---------------------------------------------------
    def round(self, i: int) -> int:
        """Timed round ``i``: the script of round ``i`` on this set-up's service."""
        return self.loop.run_until_complete(self._round(i))

    async def _round(self, r: int) -> int:
        """The computations (misses) answered; hits and coalesced requests
        are sent and checked but not counted, so the script's hit share
        does not set ``ops_per_s``."""
        done = 0
        for step, (a, b) in enumerate(self.script(r)):
            ka, kb = _key(a), _key(b)
            kind_a = "hit" if ka in self.replies else "miss"
            if kb == ka:
                kind_b = "coalesced" if kind_a == "miss" else "hit"
            else:
                kind_b = "hit" if kb in self.replies else "miss"
            for kind in (kind_a, kind_b):
                if kind in self.sent:
                    self.sent[kind] += 1
            results = await asyncio.gather(
                self._send(0, f"r{r}.s{step}.a", a, kind_a),
                self._send(1, f"r{r}.s{step}.b", b, kind_b),
            )
            done += sum(
                result is not None and kind == "miss"
                for result, kind in zip(results, (kind_a, kind_b), strict=True)
            )
            if r < self.rounds_per_pass:
                for (op, params), key, result in zip((a, b), (ka, kb), results, strict=True):
                    if result is not None:
                        self.first_pass.setdefault(key, (op, params, result))
        return done

    async def _stats(self):
        self.ledger.attempted += 1
        try:
            return await self.clients[0].request("stats")
        except Exception as exc:
            self.ledger.fail("stats", f"{type(exc).__name__}: {exc}")
            return None

    # -- checks ---------------------------------------------------------
    def check_service(self) -> dict | None:
        """Checks on the running service, before it is torn down: every
        reply to one request is byte-identical, and its ``stats`` show one
        computation per distinct request, every other request of the script
        being a cache hit or coalesced onto a running computation."""
        stats = self.loop.run_until_complete(self._stats())
        for replies in self.replies.values():
            first_id, first = replies[0]
            for op_id, body in replies[1:]:
                if body != first:
                    self.ledger.fail(op_id, f"reply differs from {first_id}'s to the same request")
        if stats is not None:
            expected = {
                "computations": (stats["computations"], len(self.replies)),
                "coalesced": (stats["coalesced"], self.sent["coalesced"]),
                "cache hits": (stats["cache"]["hits"], self.sent["hit"]),
            }
            for what, (seen, sent) in expected.items():
                if seen != sent:
                    self.ledger.run_errors.append(f"stats: {seen} {what}, script implies {sent}")
        return stats

    def verify(self) -> float:
        self.check_service()
        # one restore reply against a direct library call on the same params
        request = self.script(0)[0][0]
        entry = self.first_pass.get(_key(request))
        if entry is not None:
            params = entry[1]
            target = max(3, int(round(FRACTION * self.graph.num_nodes)))
            direct = restore_graph(
                GraphAccess(self.graph), target, rc=params["rc"], rng=params["seed"]
            )
            if _summary(entry[2]["summary"]) != _summary(direct.summary()):
                self.ledger.fail("r0.s0", "restore reply differs from a direct restore_graph")
        scores = []
        for key, (op, _, reply) in self.first_pass.items():
            if op == "evaluate":
                proposed = reply["aggregates"]["proposed"]
                self.ledger.expect(key, _finite(proposed["per_property"]))
                scores.append(proposed["average_l1"])
        return _mean(scores)

    # -- traced run -----------------------------------------------------
    def trace(self, seconds: float, tracer: Tracer, start: float) -> dict:
        self.round(0)
        stats = self.check_service()
        hit_p50 = statistics.median(self.latency["hit"] or [0.0])
        miss_p50 = statistics.median(self.latency["miss"] or [0.0])
        # replay every distinct computation of the round through the library
        for key, (op, params, reply) in self.first_pass.items():
            with self.ledger.guard(key), tracer.op(key):
                if self._replay(tracer, op, normalize_request(op, params)) != _payload(op, reply):
                    self.ledger.fail(key, f"traced {op} differs from the service reply")
        overheads, service = self.probe()
        extra = {
            "ops": len(tracer.op_walls()),
            "overheads": overheads,
            "service.hit_p50_s": [hit_p50],
            "service.miss_p50_s": [miss_p50],
            "service.overhead_s": service,
        }
        if stats is not None:
            extra["service.cache_hits"] = [stats["cache"]["hits"]]
            extra["service.cache_misses"] = [stats["cache"]["misses"]]
            extra["service.coalesced"] = [stats["coalesced"]]
        return extra

    def probe(self) -> tuple[list[float], list[float]]:
        """Tracing and service overhead per request, on fresh tiny restore
        misses: a round trip minus the same request through
        ``handlers.run_op`` directly, and the replay with spans on minus
        off.  Neither cost grows with the request, so tiny requests show
        them without seconds of noise."""
        requests = [
            _normalized(self._restore(derive_seed(0, self.name, "probe", k), rc=5, scale=0.1))
            for k in range(PROBE_REPS)
        ]
        self.ledger.attempt("probe.warm-up", run_op, *requests[0])
        replies, replayed = {}, {}

        async def send(k: int) -> None:
            replies[k] = await self._send(0, f"probe{k}", requests[k], "probe")

        def direct(k: int) -> None:
            self.ledger.attempt(f"probe{k}.direct", run_op, *requests[k])

        served = paired_walls(
            PROBE_REPS, direct, lambda k: self.loop.run_until_complete(send(k))
        )

        def replay_probe(tracer, k: int) -> None:
            replayed[k, isinstance(tracer, Tracer)] = self._replay(tracer, *requests[k])

        with self.ledger.guard("probe.replay"):
            tracing = tracing_overhead(replay_probe)
        for (k, _), payload in replayed.items():
            if replies.get(k) is not None and payload != _payload("restore", replies[k]):
                self.ledger.fail(f"probe{k}", "replayed probe differs from its reply")
        return tracing, [rt - d for d, rt in served]

    def _replay(self, tracer, op: str, params: dict) -> str:
        """Replay one normalized request; its deterministic payload."""
        if op == "restore":
            graph = load_dataset(params["dataset"], scale=params["scale"])
            target = max(3, int(round(params["fraction"] * graph.num_nodes)))
            result = replay.restore(
                tracer, GraphAccess(graph), target, params["rc"], params["seed"],
                params["backend"],
            )
            return _summary(result.summary())
        aggregates = replay.cell(tracer, evaluate_config(params))
        return canonical_json(aggregates_to_payload(aggregates, include_timings=False))

    def close(self) -> None:
        self.loop.run_until_complete(self._shutdown())
        self.loop.close()


def _normalized(request: tuple[str, dict]) -> tuple[str, dict]:
    op, params = request
    return op, normalize_request(op, params)


def _key(request: tuple[str, dict]) -> str:
    return request_key(*_normalized(request))


def _payload(op: str, reply: dict) -> str:
    """A reply's deterministic payload, as :meth:`ServeWorkload._replay` gives it."""
    if op == "restore":
        return _summary(reply["summary"])
    return canonical_json(reply["aggregates"])


def _summary(summary: dict) -> str:
    return canonical_json({k: v for k, v in summary.items() if k not in _TIMING_FIELDS})


WORKLOADS = {w.name: w for w in (RestoreWorkload, EvaluateWorkload, ServeWorkload)}
