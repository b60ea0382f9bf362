"""The three benchmark workloads: data, sessions and request streams.

Every workload is a closed loop: each client thread sends its next request
only after the previous one returned.  The datasets are fixed, as in the
paper; the run seed draws everything else — the session seeds (hence every
noise draw), Greedy-H's and DAWA's interval sets, tenant popularity and the
request stream.  Every request id is pinned, so a request's answer depends
only on the seed, never on how the client threads interleave.
"""

from __future__ import annotations

import threading
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from repro.dataset import DATASETS_1D, Attribute, Relation, Schema, load_1d, synthetic_cps
from repro.workload import random_range_workload

_MATRIX_PARAM = "takes a workload matrix as a plan parameter, which a QueryRequest cannot carry"
_TWO_D = "needs a 2-D session; left out rather than dilute paper_1d"

#: Registered plans no workload covers, and why.
UNCOVERED_PLANS = {
    "MWEM": _MATRIX_PARAM,
    "MWEM variant b": _MATRIX_PARAM,
    "MWEM variant c": _MATRIX_PARAM,
    "MWEM variant d": _MATRIX_PARAM,
    "HDMM": _MATRIX_PARAM,
    "Quadtree": _TWO_D,
    "UniformGrid": _TWO_D,
    "AdaptiveGrid": _TWO_D,
}


@dataclass(frozen=True)
class PlanSpec:
    """One plan as the benchmark requests it: metric slug, registry name, params."""

    slug: str
    plan: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Req:
    """One pinned request (everything a QueryRequest needs)."""

    request_id: str
    session_id: str
    spec: PlanSpec
    epsilon: float
    workload: str
    workload_params: dict
    reuse: bool
    #: key of the fresh request whose released answer this one replays
    ref: str | None = None

    @property
    def key(self) -> str:
        return f"{self.session_id}/{self.request_id}"

    @property
    def kind(self) -> str:
        return "fresh" if self.ref is None else "replay"


@dataclass(frozen=True)
class Tenant:
    session_id: str
    tenant: str
    relation: Relation
    seed: int
    #: the true data vector, for the accuracy metric
    x: np.ndarray


@dataclass
class Traffic:
    """The requests of one run."""

    #: first request of every (plan, params) pair, paid during set-up
    warm: list
    #: returns a fresh closed-loop stream (one per measured phase)
    new_stream: object
    #: fixed round after the measured phase, for the accuracy and answer checks
    verify: list


class RoundStream:
    """Per-client streams of whole plan cycles; a client stops only between
    cycles, which keeps every run's plan mix exact, so latency percentiles
    land inside plan classes rather than on the edge between two."""

    def __init__(self, cycles: list):
        #: cycles[client] yields one list of request templates per cycle
        self._cycles = cycles
        self._pending = [[] for _ in cycles]
        self._taken = [0] * len(cycles)

    def take(self, client: int, expired: bool) -> Req | None:
        pending = self._pending[client]
        if not pending:
            if expired:
                return None
            pending.extend(next(self._cycles[client]))
        k = self._taken[client]
        self._taken[client] = k + 1
        return replace(pending.pop(0), request_id=f"c{client}-{k}")


class SharedStream:
    """One request sequence all clients take from in order, generated on
    demand so the stream costs memory only for the requests sent."""

    def __init__(self, requests):
        self._requests = requests
        self._lock = threading.Lock()

    def take(self, client: int, expired: bool) -> Req | None:
        with self._lock:
            return None if expired else next(self._requests)


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def _histogram_relation(values: np.ndarray) -> Relation:
    return Relation.from_histogram(Schema.build([Attribute("x", len(values))]), values)


def _req(request_id, session_id, spec, epsilon, workload, reuse=False):
    name, params = workload
    return Req(request_id, session_id, spec, epsilon, name, params, reuse)


class Workload:
    """Base class: the static description plus the two seeded generators."""

    name = ""
    backend = "inline"
    clients = 1
    epsilon = 0.1
    journaled = False
    #: set-ups per end-to-end run; ``setup_s`` is their median
    setups = 3
    #: loop requests after which ``peak_rss_mb`` is read (None: at the end)
    rss_after = None
    #: plans this workload runs, by metric slug
    slugs: tuple = ()
    #: one line each, recorded by ``run.py --describe``
    why = ""
    stresses = ""
    bypasses = ""

    def data(self, seed: int, tiny: bool) -> dict[str, Tenant]:
        """The sessions' private data (generated inside the timed set-up)."""
        raise NotImplementedError

    def traffic(self, seed: int, tiny: bool, tenants: dict) -> Traffic:
        """The client side: set-up round, stream and check round."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {
            "why": self.why,
            "loop": "closed",
            "clients": self.clients,
            "backend": self.backend,
            "stresses": self.stresses,
            "bypasses": self.bypasses,
            "plans": list(self.slugs),
        }


class Paper1D(Workload):
    name = "paper_1d"
    backend = "inline"
    clients = 1
    n = 2048
    slugs = ("Identity", "Uniform", "Privelet", "H2", "HB", "Greedy-H", "AHP", "DAWA")
    why = (
        "Fig. 2 1-D plans on a 2048-cell DPBench-style histogram answering prefix queries: "
        "time is strategy builds, solves and the DAWA partition"
    )
    stresses = "plans (select/partition/infer), operators (normal-equation and LSMR solves), matrix"
    bypasses = "executors (inline), durability (no journal), measurement cache (every request fresh)"

    def data(self, seed, tiny):
        n = 256 if tiny else self.n
        x = load_1d("PIECEWISE", n=n, scale=1_000_000)
        sid = "paper_1d-t0"
        return {sid: Tenant(sid, "analyst", _histogram_relation(x), _seeds(seed, 2)[0], x)}

    def traffic(self, seed, tiny, tenants):
        (sid, tenant), = tenants.items()
        n = len(tenant.x)
        interval_seed = _seeds(seed, 2)[1]
        intervals = [tuple(iv) for iv in random_range_workload(n, 100, seed=interval_seed).intervals]
        specs = {
            "Identity": PlanSpec("Identity", "Identity"),
            "Uniform": PlanSpec("Uniform", "Uniform"),
            "Privelet": PlanSpec("Privelet", "Privelet"),
            "H2": PlanSpec("H2", "Hierarchical (H2)"),
            "HB": PlanSpec("HB", "Hierarchical Opt (HB)"),
            "Greedy-H": PlanSpec("Greedy-H", "Greedy-H", {"workload_intervals": intervals}),
            "AHP": PlanSpec("AHP", "AHP"),
            "DAWA": PlanSpec("DAWA", "DAWA", {"workload_intervals": intervals}),
        }
        prefix = ("prefix", {"n": n})
        eps = self.epsilon
        # Four cheaper plans, then HB twice, then four dearer ones: the
        # median falls in the middle of the HB class.
        order = ["Identity", "Uniform", "AHP", "Privelet", "HB", "HB", "DAWA", "H2", "DAWA", "Greedy-H"]
        round_ = [_req("", sid, specs[s], eps, prefix) for s in order]
        return Traffic(
            warm=[_req(f"w-{s}", sid, specs[s], eps, prefix) for s in self.slugs],
            new_stream=lambda: RoundStream([itertools.repeat(round_)]),
            verify=[
                _req(f"v{r}-{s}", sid, specs[s], eps, prefix)
                for r in range(1 if tiny else 12)
                for s in self.slugs
            ],
        )


class CensusStriped(Workload):
    name = "census_striped"
    backend = "process"
    clients = 2
    slugs = ("Identity", "HB-Striped", "HB-Striped_kron", "DAWA-Striped", "PrivBayes", "PrivBayesLS")
    why = (
        "Table 5 striped plans on the 28,000-cell census domain, 2 tenants on 2 worker processes: "
        "the only workload that ships jobs to workers"
    )
    stresses = "executors (job shipping, worker kernel rebuild, charge and span adoption), Kronecker/striped matrices, LSMR, kernel transforms"
    bypasses = "durability (no journal), measurement cache (every request fresh)"

    def data(self, seed, tiny):
        relation = synthetic_cps(
            num_records=5_000 if tiny else 49_436, income_bins=10 if tiny else 100
        )
        x = relation.vectorize()
        seeds = _seeds(seed, self.clients)
        return {
            f"census-t{c}": Tenant(f"census-t{c}", f"bureau{c}", relation, seeds[c], x)
            for c in range(self.clients)
        }

    def traffic(self, seed, tiny, tenants):
        domain = [int(d) for d in next(iter(tenants.values())).relation.schema.domain]
        striped = {"domain": domain, "stripe_axis": 0}
        bayes = {"domain": domain, "seed": 0}
        specs = {
            "Identity": PlanSpec("Identity", "Identity"),
            "HB-Striped": PlanSpec("HB-Striped", "HB-Striped", striped),
            "HB-Striped_kron": PlanSpec("HB-Striped_kron", "HB-Striped_kron", striped),
            "DAWA-Striped": PlanSpec("DAWA-Striped", "DAWA-Striped", striped),
            "PrivBayes": PlanSpec("PrivBayes", "PrivBayes", bayes),
            "PrivBayesLS": PlanSpec("PrivBayesLS", "PrivBayesLS", bayes),
        }
        workloads = [
            ("identity", {"domain": domain}),
            ("two_way_marginals", {"domain": domain}),
            ("census_prefix_income", {"domain": domain}),
        ]
        eps = self.epsilon
        sids = list(tenants)
        # HB-Striped is four of the nine requests of a cycle, so the median
        # falls inside the PrivBayesLS/HB-Striped cluster and p95/p99 inside
        # DAWA-Striped.  Each client shuffles every cycle (seeded): with a
        # fixed order the two clients' cycles lock in phase, and which plans
        # overlap on the two workers would differ from run to run.
        order = [
            "Identity", "PrivBayes", "HB-Striped_kron", "PrivBayesLS",
            "HB-Striped", "HB-Striped", "HB-Striped", "HB-Striped", "DAWA-Striped",
        ]
        order_seed = _seeds(seed, self.clients + 1)[-1]

        def cycles(c, sid):
            rng = np.random.default_rng([order_seed, c])
            for k in itertools.count(0, len(order)):
                shuffled = rng.permutation(order)
                yield [
                    _req("", sid, specs[s], eps, workloads[(k + i) % 3])
                    for i, s in enumerate(shuffled)
                ]

        # Set-up pays each plan's first request, split over both tenants so
        # both worker processes start warm.
        warm = [
            _req(f"w-{s}", sids[k % 2], specs[s], eps, workloads[k % 3])
            for k, s in enumerate(self.slugs)
        ]
        verify = [
            _req(f"v{r}-{s}", sid, specs[s], eps, workloads[(k + c + r) % 3])
            for c, sid in enumerate(sids)
            for r in range(1 if tiny else 4)
            for k, s in enumerate(self.slugs)
        ]
        return Traffic(
            warm, lambda: RoundStream([cycles(c, sid) for c, sid in enumerate(sids)]), verify
        )


class TenantMix(Workload):
    name = "tenant_mix"
    backend = "thread"
    #: one client: with two, a request that lost the GIL to the other client
    #: waited one or more whole 5 ms switch intervals, and p95/p99 stepped
    #: between multiples of it from run to run
    clients = 1
    journaled = True
    #: set-up takes ~0.1 s here, so more repeats cost little
    setups = 9
    #: loop requests after which peak memory is read: every fresh request
    #: adds to the sessions' histories, so a read at the end of the run
    #: would follow the throughput
    rss_after = 6000
    n = 256
    zipf = 1.2
    #: above one half, so the median sits on the replay path
    replay_share = 0.6
    #: shares of the fresh requests per plan (Identity, Uniform, H2, HB).  Of
    #: all requests H2 is 4% and HB 4.8%, so p99 falls at H2's 75th
    #: percentile and p95 at HB's 79th: in the upper part of each class,
    #: which holds still, not at a class median, which jumps with the
    #: host's speed
    fresh_mix = (0.39, 0.39, 0.10, 0.12)
    #: random draws per generator refill
    block = 4096
    slugs = ("Identity", "Uniform", "H2", "HB")
    why = (
        "64 journaled tenants on 256-cell histograms, Zipf(1.2) popularity, 60% replays of "
        "released answers: time is admission, locks, cache and journal"
    )
    stresses = "service (admission, session lock, measurement-cache probe, metrics), durability (journal append and commit)"
    bypasses = "executors (plans run on the client thread), large solves and strategy builds"

    def data(self, seed, tiny):
        count = 8 if tiny else 64
        seeds = _seeds(seed, count)
        names = list(DATASETS_1D)
        tenants = {}
        for t in range(count):
            x = load_1d(names[t % len(names)], n=self.n, scale=100_000, seed=t)
            sid = f"tenant{t:02d}"
            tenants[sid] = Tenant(sid, sid, _histogram_relation(x), seeds[t], x)
        return tenants

    def traffic(self, seed, tiny, tenants):
        sids = list(tenants)
        count = len(sids)
        specs = [
            PlanSpec("Identity", "Identity"),
            PlanSpec("Uniform", "Uniform"),
            PlanSpec("H2", "Hierarchical (H2)"),
            PlanSpec("HB", "Hierarchical Opt (HB)"),
        ]
        prefix = ("prefix", {"n": self.n})
        eps = self.epsilon
        weights = 1.0 / np.arange(1, count + 1) ** self.zipf
        weights /= weights.sum()
        stream_seed = _seeds(seed, count + 1)[-1]

        def requests():
            rng = np.random.default_rng(stream_seed)
            hottest_first = rng.permutation(count)
            released: dict[str, list[Req]] = {sid: [] for sid in sids}
            i = 0
            while True:
                tenant_draw = hottest_first[rng.choice(count, size=self.block, p=weights)]
                replay_draw = rng.random(self.block)
                plan_draw = rng.choice(len(specs), size=self.block, p=self.fresh_mix)
                ref_draw = rng.random(self.block)
                for j in range(self.block):
                    sid = sids[tenant_draw[j]]
                    history = released[sid]
                    if history and replay_draw[j] < self.replay_share:
                        ref = history[int(ref_draw[j] * len(history))]
                        yield Req(f"q{i}", sid, ref.spec, ref.epsilon, *prefix, reuse=True, ref=ref.key)
                    else:
                        # A distinct epsilon per fresh request, never the
                        # set-up or check rounds' plain ``eps``, gives it a
                        # unique cache key, so a replay names one release.
                        fresh = _req(f"q{i}", sid, specs[plan_draw[j]], eps + (i + 1) * 1e-9, prefix, reuse=True)
                        history.append(fresh)
                        yield fresh
                    i += 1

        return Traffic(
            warm=[_req(f"w-{s.slug}", sids[0], s, eps, prefix) for s in specs],
            new_stream=lambda: SharedStream(requests()),
            verify=[
                _req(f"v{r}", sid, specs[(t + r) % len(specs)], eps, prefix)
                for t, sid in enumerate(sids)
                for r in range(2)
            ],
        )


WORKLOADS = {w.name: w for w in (Paper1D(), CensusStriped(), TenantMix())}
