"""Seeded inputs of every workload, generated before any timing.

Each workload's inputs are a pure function of ``(seed, run seconds)``
and the frozen settings in ``config.json``; the program under test
receives only these documents.  Every solve and request gets its own
instance: nothing is replayed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core import ProblemInstance
from repro.core.serialization import cluster_to_dict, instance_to_dict
from repro.hardware import catalog_cluster, sample_uniform_cluster
from repro.workloads import MMPPArrivals, Request, TaskGenConfig, generate_tasks


#: θ range (accuracy per TFLOP) of heterogeneous task sets; uniform sets
#: use the low end for every task, as the paper's Fig. 5 does.
THETA_HETERO = (0.1, 1.0)
THETA_UNIFORM = (0.1, 0.1)
BETAS = (0.2, 0.5, 0.8)


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """An independent stream per (seed, purpose)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *tag.encode()]))


def make_instance(n: int, m: int, beta: float, hetero: bool, rng: np.random.Generator) -> ProblemInstance:
    cluster = sample_uniform_cluster(m, rng)
    theta = THETA_HETERO if hetero else THETA_UNIFORM
    tasks = generate_tasks(TaskGenConfig(n=n, theta_range=theta, rho=0.5), cluster, rng)
    return ProblemInstance.with_beta(tasks, cluster, beta)


# -- solve-sweep -----------------------------------------------------------------


@dataclass
class SweepItem:
    size: str  #: size class, e.g. ``n400``
    instance: ProblemInstance
    doc: dict


def sweep_inputs(seed: int, classes: Sequence[dict], scale: float) -> List[SweepItem]:
    """Distinct instances per size class, cycling β × {uniform, heterogeneous θ}.

    Class ``counts`` are per 20 s of run time; ``scale`` is the run's
    seconds / 20.  The order is shuffled so that a slow spell on the box
    hits every size class alike.
    """
    rng = rng_for(seed, "solve-sweep")
    items: List[SweepItem] = []
    for cls in classes:
        count = max(6, int(round(cls["count"] * scale / 6.0)) * 6)
        for i in range(count):
            beta = BETAS[i % 3]
            hetero = (i // 3) % 2 == 1
            inst = make_instance(cls["n"], cls["m"], beta, hetero, rng)
            items.append(SweepItem(f"n{cls['n']}", inst, instance_to_dict(inst)))
    order = rng.permutation(len(items))
    return [items[i] for i in order]


# -- serve-single / serve-cluster ------------------------------------------------


@dataclass
class ServeInputs:
    docs: List[dict]
    bodies: List[bytes]
    trace_ids: List[str]
    warm: List[int]  #: indices (into docs) of the warm-up requests, per launch
    launches: int
    latency: List[int]  #: indices of the latency phase's requests, in sending order
    capacity: List[int]  #: indices of the capacity phase's requests, in sending order

    def headers(self, i: int) -> Dict[str, str]:
        return {"Content-Type": "application/json", "X-Repro-Trace-Id": self.trace_ids[i]}


def serve_inputs(
    seed: int,
    sizes: Sequence[int],
    m: int,
    launches: int,
    warm_per_launch: int,
    latency: int,
    capacity: int = 0,
) -> ServeInputs:
    """Every request its own instance: warm-up, then the latency and capacity phases.

    Warm-up documents come first (``launches × warm_per_launch``), then
    ``latency`` requests for the latency phase and ``capacity`` for the
    capacity phase.  The (task count, β) pairs cycle through
    ``sizes × BETAS`` in seeded permutations, so every run sends the same
    mix.  Trace ids are seeded, so the cluster's consistent-hash routing
    is the same on every run.
    """
    rng = rng_for(seed, "serve")
    first = launches * warm_per_launch
    total = first + latency + capacity
    mix = [(n, beta) for n in sizes for beta in BETAS]
    picks = np.concatenate([rng.permutation(len(mix)) for _ in range(total // len(mix) + 1)])[:total]
    docs, bodies, ids = [], [], []
    for pick in picks:
        n, beta = mix[int(pick)]
        doc = instance_to_dict(make_instance(int(n), m, beta, True, rng))
        docs.append(doc)
        bodies.append(json.dumps(doc).encode())
        ids.append(f"{int(rng.integers(1 << 62)):016x}")
    return ServeInputs(
        docs,
        bodies,
        ids,
        list(range(first)),
        launches,
        list(range(first, first + latency)),
        list(range(first + latency, total)),
    )


# -- online-replan ---------------------------------------------------------------


@dataclass
class OnlineInputs:
    cluster_doc: dict
    windows: List[Tuple[float, List[Request]]]


def online_inputs(seed: int, cfg: dict, n_windows: int) -> Tuple[OnlineInputs, object]:
    """A bursty MMPP stream bucketed into ``n_windows`` planning windows.

    The machines are a fixed set of catalog GPUs: the seed varies the
    traffic, not the hardware serving it.  Returns the inputs and the
    cluster object.  Empty windows are skipped, as
    ``repro.workloads.window_batches`` does.
    """
    rng = rng_for(seed, "online-replan")
    cluster = catalog_cluster(cfg["gpus"])
    width = float(cfg["window_seconds"])
    arrivals = MMPPArrivals(
        cfg["calm_rate"],
        cfg["burst_rate"],
        mean_phase_seconds=cfg["mean_phase_seconds"],
        theta_range=THETA_HETERO,
        seed=rng,
    )
    requests = arrivals.generate(width * n_windows * 1.05)
    buckets: Dict[int, List[Request]] = {}
    for r in requests:
        buckets.setdefault(int(r.arrival_time // width), []).append(r)
    windows = [(k * width, buckets[k]) for k in sorted(buckets)][:n_windows]
    return OnlineInputs(cluster_to_dict(cluster), windows), cluster


def online_digest_docs(inputs: OnlineInputs) -> List[object]:
    docs: List[object] = [inputs.cluster_doc]
    for start, batch in inputs.windows:
        docs.append([start] + [[r.arrival_time, r.slo_seconds, r.theta_per_tflop] for r in batch])
    return docs
