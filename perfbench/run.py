#!/usr/bin/env python3
"""End-to-end benchmark of the 2.5D floorplanning flow and its job service.

Run from the repository root::

    python3 perfbench/run.py --workload flow_t4s --seed 1 --seconds 15 --trace 0

Each workload is a closed loop driven from this one process: the next
request starts only after the previous result is back.  Inputs are
generated from ``--seed``; the program sees only the generated designs.
Every result is verified; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

import time

# The set-up clock starts before any program module is imported.
_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import urllib.request  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from typing import Any, Callable, Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracing import Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """One named input set and the way it is driven."""

    case: str  # suite case whose generator config every design uses
    pool: int  # distinct designs generated from the seed
    # Pool designs [0, scored) must all run in every loop; twl_geomean is
    # taken over them.  0 = the whole pool.
    scored: int = 0
    service: bool = False
    dop_window: int = 0  # >0: EFA_dop over gamma_plus ranks [0, window)
    repeats_per_fresh: int = 0  # service: resubmissions per new design


WORKLOADS: Dict[str, Workload] = {
    "flow_t4b": Workload(case="t4b", pool=8),
    "flow_t4s": Workload(case="t4s", pool=24),
    "dop_t8m": Workload(case="t8m", pool=6, dop_window=3),
    "service_t4s": Workload(case="t4s", pool=40, scored=8, service=True,
                            repeats_per_fresh=5),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "designs_per_s": "1/s",
    "design_s_p50": "s",
    "result_s_p50": "s",
    "twl_geomean": "mm",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit.  "<span>.s" is the span's self time (its
# duration minus the part covered by traced calls beneath it); the
# service.* timings are HTTP round trips and job-view intervals.
PER_LAYER_UNITS = {
    "netflow.mcmf.calls": "count",
    "netflow.mcmf.s": "s",
    "netflow.augmentations_per_s": "1/s",
    "assign.s": "s",
    "assign.arcs": "count",
    "assign.augmentations": "count",
    "assign.window_retries": "count",
    "assign.subsap_s_max": "s",
    "assign.window.s": "s",
    "mst.build_topologies.s": "s",
    "eval.total_wirelength.s": "s",
    "floorplan.s": "s",
    "floorplan.greedy_packing.s": "s",
    "floorplan.pairs_per_s": "1/s",
    "floorplan.evals_per_s": "1/s",
    "floorplan.useful_ratio": "ratio",
    "floorplan.pruned_ratio": "ratio",
    "kernel.pack_indices.calls": "count",
    "kernel.pack_indices.s": "s",
    "kernel.hpwl.calls": "count",
    "kernel.hpwl.s": "s",
    "kernel.pack_all.calls": "count",
    "kernel.pack_all.s": "s",
    "kernel.hpwl_batch.calls": "count",
    "kernel.hpwl_batch.s": "s",
    "validate.lint.s": "s",
    "validate.verify.s": "s",
    "obs.build_report.s": "s",
    "request.s": "s",
    "service.submit.s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.result_fetch.s": "s",
    "service.hit_ratio": "ratio",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}

SETUP_PROBES = 2  # extra set-ups in fresh interpreters; setup_s is the median


class Program:
    """The program's public entry points, imported from ``src/``."""

    def __init__(self) -> None:
        if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
            raise SystemExit(
                "perfbench: no program source at src/repro — run from the "
                "root of a repository checkout"
            )
        sys.path.insert(0, SRC)
        import repro.assign.mcmf_assign as mcmf_assign
        import repro.floorplan.batch as batch
        import repro.floorplan.dop as dop
        import repro.floorplan.efa as efa
        import repro.floorplan.estimator as estimator
        import repro.floorplan.greedy_packing as greedy_packing
        import repro.flow as flow
        import repro.obs as obs
        import repro.service.jobs as jobs
        import repro.validate.lint as lint
        from repro.benchgen import generate_design, suite_config, tiny_config
        from repro.eval import hpwl_estimate
        from repro.geometry import Orientation
        from repro.io import design_to_dict
        from repro.service import FloorplanService, ServiceClient
        from repro.validate import verify_flow_result, verify_result_payload

        self.mcmf_assign = mcmf_assign
        self.batch = batch
        self.dop = dop
        self.efa = efa
        self.estimator = estimator
        self.greedy_packing = greedy_packing
        self.flow = flow
        self.obs = obs
        self.jobs = jobs
        self.lint = lint
        self.generate_design = generate_design
        self.suite_config = suite_config
        self.tiny_config = tiny_config
        self.hpwl_estimate = hpwl_estimate
        self.Orientation = Orientation
        self.design_to_dict = design_to_dict
        self.FloorplanService = FloorplanService
        self.ServiceClient = ServiceClient
        self.verify_flow_result = verify_flow_result
        self.verify_result_payload = verify_result_payload

    def errors(self, diagnostics) -> List[Any]:
        return [d for d in diagnostics if d.severity == self.lint.ERROR]


# -- inputs -------------------------------------------------------------------


def design_seeds(workload: str, seed: int, count: int) -> List[int]:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def generate_pool(prog: Program, name: str, seed: int) -> List[Any]:
    wl = WORKLOADS[name]
    base = prog.suite_config(wl.case)
    return [
        prog.generate_design(replace(base, seed=s, name=f"{wl.case}-{s}"))
        for s in design_seeds(name, seed, wl.pool)
    ]


def dop_window_floorplan(prog: Program, design, window: int):
    """EFA_dop at a fixed amount of work.

    The greedy packer fixes every die's orientation, then EFA enumerates
    gamma_plus ranks ``[0, window)`` against every gamma_minus.  With no
    legal pair in the window it falls back as ``run_efa_dop`` does: to
    the greedy reference floorplan when legal, else to the same window
    with every die as designed (R0).
    """
    def enumerate_window(orientations):
        return prog.efa.EnumerativeFloorplanner(
            design,
            prog.efa.EFAConfig(
                fixed_orientations=orientations, plus_range=(0, window)
            ),
        ).run()

    packing = prog.greedy_packing.predetermine_orientations(design)
    result = enumerate_window(packing.orientations)
    if result.found:
        return result
    if packing.floorplan.is_legal():
        result.floorplan = packing.floorplan
        result.est_wl = prog.hpwl_estimate(design, packing.floorplan)
        result.algorithm = "EFA_dop(greedy-fallback)"
        return result
    return enumerate_window({d.id: prog.Orientation.R0 for d in design.dies})


# -- set-up -------------------------------------------------------------------


class Bench:
    """Everything one run sets up before its timed loop."""

    def __init__(self, name: str, seed: int, batch_eval: bool) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.prog = Program()
        self.pool = generate_pool(self.prog, name, seed)
        self.scored = self.workload.scored or len(self.pool)
        self.config = self.prog.flow.FlowConfig(
            floorplan_batch_eval=batch_eval
        )
        self.workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
        self.services: List[Any] = []
        if self.workload.service:
            self.pool_dicts = [self.prog.design_to_dict(d) for d in self.pool]
            self.config_dict = self.prog.flow.flow_config_to_dict(self.config)
        self.warm_up()

    def floorplanner(self) -> Optional[Callable]:
        window = self.workload.dop_window
        if not window:
            return None
        prog = self.prog
        module = sys.modules[__name__]
        # Looked up at call time so a traced run sees the wrapped binding.
        return lambda design: module.dop_window_floorplan(prog, design, window)

    def warm_up(self) -> None:
        """One small request through the same path, so lazy imports and
        first-call costs land in set-up instead of the first sample."""
        tiny = self.prog.generate_design(
            self.prog.tiny_config(die_count=4, signal_count=16, seed=5)
        )
        if self.workload.service:
            client = self.start_service()
            view = client.submit(
                self.prog.design_to_dict(tiny), config=self.config_dict
            )
            for _ in client.stream_events(view["id"]):
                pass
            fetch_result(client, view["id"])
            self.close_services()
        else:
            result = self.prog.flow.run_flow(
                tiny, self.config, floorplanner=self.floorplanner()
            )
            self.prog.verify_flow_result(tiny, result)

    def start_service(self):
        """A service on a fresh data dir; returns its client."""
        data_dir = tempfile.mkdtemp(prefix="svc-", dir=self.workdir)
        service = self.prog.FloorplanService(data_dir, port=0).start()
        self.services.append(service)
        client = self.prog.ServiceClient(service.url)
        client.health()
        return client

    def close_services(self) -> None:
        for service in self.services:
            service.close()
        self.services = []

    def close(self) -> None:
        self.close_services()
        shutil.rmtree(self.workdir, ignore_errors=True)


def setup_probe_seconds(name: str, seed: int, batch_eval: bool) -> float:
    """Set-up time of the same workload in a fresh interpreter."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", name, "--seed", str(seed),
        "--batch-eval", "on" if batch_eval else "off",
    ]
    out = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
        check=True,
    ).stdout
    return float(json.loads(out.strip().splitlines()[-1])["setup_s"])


# -- measurement helpers ---------------------------------------------------------


def fetch_result(client, job_id: str) -> bytes:
    """The finished job's result document, as the server sent it."""
    url = f"{client.base_url}/api/v1/jobs/{job_id}/result"
    with urllib.request.urlopen(url, timeout=client.timeout_s) as resp:
        return resp.read()


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def geomean(values: List[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint() -> Dict[str, Any]:
    import numpy

    uname = platform.uname()
    return {
        "system": uname.system,
        "release": uname.release,
        "machine": uname.machine,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def calibrate() -> Dict[str, float]:
    """A short fixed loop, recorded next to every run and never used to
    scale a metric: it lets records from other hosts be read side by side."""
    import numpy

    def py_loop() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        return time.perf_counter() - t0

    data = numpy.arange(1 << 18, dtype=numpy.float64)

    def np_loop() -> float:
        t0 = time.perf_counter()
        for _ in range(20):
            numpy.sqrt(data * data + 1.0).sum()
        return time.perf_counter() - t0

    return {
        "python_loop_s": statistics.median(py_loop() for _ in range(5)),
        "numpy_loop_s": statistics.median(np_loop() for _ in range(5)),
    }


class Outcome:
    """What one timed loop produced and what its checks found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.busy_s = 0.0
        self.verified = 0
        self.solver_s: List[float] = []  # requests that ran the solver
        self.hit_s: List[float] = []  # service cache hits
        self.twl: Dict[int, float] = {}  # pool index -> TWL
        self.sequence: List[int] = []  # pool index of each request
        self.child_peak_rss_mb = 0.0
        self.service_samples: Dict[str, List[float]] = {}

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def record_twl(self, idx: int, twl: float) -> bool:
        """Remember a design's TWL; False when a repeat disagrees."""
        known = self.twl.setdefault(idx, twl)
        if known != twl:
            self.fail(f"design {idx}: TWL {twl!r} differs from {known!r}")
            return False
        return True

    def sample(self, key: str, value: float) -> None:
        self.service_samples.setdefault(key, []).append(value)

    @property
    def designs_per_s(self) -> float:
        return self.verified / self.busy_s if self.busy_s else 0.0


# -- the closed loop ------------------------------------------------------------


def closed_loop(
    out: Outcome,
    bench: Bench,
    seconds: float,
    next_index: Callable[[int], Optional[int]],
    request: Callable[[int], Any],
    check: Callable[[int, Any, float], None],
    tracer: Optional[Tracer] = None,
    sequence: Optional[List[int]] = None,
) -> Outcome:
    """Send requests one after another, each when the previous is back.

    ``next_index(k)`` names the pool design of the k-th request (None:
    inputs exhausted).  The loop runs until ``seconds`` of request time
    have passed and every scored design ran — or, when ``sequence`` is
    given, replays exactly that list of pool indices.  Only
    ``request(idx)`` is timed; ``check(idx, value, seconds)`` runs
    between requests, off the clock, and records into ``out``.
    """
    k = 0
    while True:
        if sequence is not None:
            if k >= len(sequence):
                break
            idx = sequence[k]
        else:
            idx = next_index(k)
            if idx is None or (
                out.busy_s >= seconds
                and len(set(out.sequence)) >= bench.scored
            ):
                break
        k += 1
        out.attempted += 1
        out.sequence.append(idx)
        t0 = time.perf_counter()
        try:
            with maybe(tracer and tracer.request(idx)):
                value = request(idx)
        except Exception as exc:  # noqa: BLE001 - counted, reported, fatal
            out.busy_s += time.perf_counter() - t0
            out.fail(f"design {idx}: request raised {exc!r}")
            continue
        elapsed = time.perf_counter() - t0
        out.busy_s += elapsed
        check(idx, value, elapsed)
    return out


def maybe(context):
    """``context`` itself, or a no-op context when tracing is off."""
    return context or contextlib.nullcontext()


# -- flow workloads -----------------------------------------------------------


def flow_loop(bench: Bench, seconds: float, tracer=None, sequence=None):
    """Closed loop of ``run_flow`` calls cycling over the pool."""
    prog = bench.prog
    floorplanner = bench.floorplanner()
    out = Outcome()

    def request(idx: int):
        return prog.flow.run_flow(
            bench.pool[idx], bench.config, floorplanner=floorplanner
        )

    def check(idx: int, result, elapsed: float) -> None:
        bad = prog.errors(prog.verify_flow_result(bench.pool[idx], result))
        if bad:
            out.fail(f"design {idx}: verification failed: {bad[:3]}")
        elif out.record_twl(idx, result.twl):
            out.verified += 1
            out.solver_s.append(elapsed)

    return closed_loop(
        out, bench, seconds, lambda k: k % len(bench.pool), request, check,
        tracer, sequence,
    )


# -- service workload -----------------------------------------------------------


def service_plan(bench: Bench) -> Callable[[int], Optional[int]]:
    """Pool index of the k-th request: every (r+1)-th submission is a new
    design, the r in between repeat seeded picks of earlier ones."""
    r = bench.workload.repeats_per_fresh
    rng = random.Random(f"{bench.name}/{bench.seed}/plan")
    plan: List[int] = []

    def at(k: int) -> Optional[int]:
        while len(plan) <= k:
            n = len(plan)
            fresh = n // (r + 1)
            if n % (r + 1) == 0:
                plan.append(fresh)
            else:
                plan.append(rng.randrange(fresh + 1))
        return plan[k] if plan[k] < len(bench.pool) else None

    return at


def service_loop(bench: Bench, seconds: float, tracer=None, sequence=None):
    """Closed loop of one client against a service on a fresh data dir.

    Completion is the end of the job's NDJSON event stream, so a cache
    hit is timed to the request, not to a polling interval.
    """
    prog = bench.prog
    client = bench.start_service()
    out = Outcome()
    first_bytes: Dict[int, bytes] = {}  # pool index -> the miss's document

    def timed(name: str, fn: Callable[[], Any]) -> Any:
        t0 = time.perf_counter()
        with maybe(tracer and tracer.span(name)):
            value = fn()
        out.sample(name, time.perf_counter() - t0)
        return value

    def request(idx: int) -> Tuple[Dict[str, Any], bytes]:
        view = timed(
            "service.submit",
            lambda: client.submit(
                bench.pool_dicts[idx], config=bench.config_dict
            ),
        )
        if view["state"] not in ("DONE", "FAILED", "CANCELLED"):
            timed(
                "service.wait",
                lambda: [None for _ in client.stream_events(view["id"])],
            )
        raw = timed(
            "service.result_fetch", lambda: fetch_result(client, view["id"])
        )
        return view, raw

    def check(idx: int, value, elapsed: float) -> None:
        view, raw = value
        final = client.status(view["id"])
        if final["state"] != "DONE":
            out.fail(f"design {idx}: job {view['id']} ended {final['state']}")
            return
        payload = json.loads(raw)
        bad = prog.errors(
            prog.verify_result_payload(bench.pool[idx], payload)
        )
        if bad:
            out.fail(f"design {idx}: verification failed: {bad[:3]}")
            return
        if final["cached"]:
            if first_bytes.get(idx) != raw:
                out.fail(f"design {idx}: cache hit differs from its miss")
                return
        else:
            first_bytes.setdefault(idx, raw)
            out.sample(
                "service.queue_wait_s",
                final["started_unix_s"] - final["created_unix_s"],
            )
            out.sample(
                "service.run_s",
                final["finished_unix_s"] - final["started_unix_s"],
            )
            rss = (payload.get("report") or {}).get("resources", {}).get(
                "peak_rss_bytes", 0.0
            )
            out.child_peak_rss_mb = max(out.child_peak_rss_mb, rss / 2**20)
        out.sample("service.hit", 1.0 if final["cached"] else 0.0)
        if out.record_twl(idx, float(payload["twl"])):
            out.verified += 1
            (out.hit_s if final["cached"] else out.solver_s).append(elapsed)

    return closed_loop(
        out, bench, seconds, service_plan(bench), request, check, tracer,
        sequence,
    )


# -- tracing ------------------------------------------------------------------


class LayerCounters:
    """Counts read off the return values of traced calls."""

    def __init__(self) -> None:
        self.mcmf_augmentations = 0
        self.mcmf_s = 0.0
        self.arcs = 0
        self.augmentations = 0
        self.window_retries = 0
        self.subsap_s_max = 0.0
        self.efa_s = 0.0
        self.pairs = 0
        self.pruned = 0
        self.evaluated = 0
        self.rejected = 0

    def on_mcmf(self, result, seconds: float) -> None:
        self.mcmf_augmentations += result.augmentations
        self.mcmf_s += seconds

    def on_assign(self, result, seconds: float) -> None:
        self.arcs += result.total_edges
        self.augmentations += result.total_augmentations
        for sub in result.sub_saps:
            self.window_retries += sub.window_retries
            self.subsap_s_max = max(self.subsap_s_max, sub.runtime_s)

    def on_efa(self, result, seconds: float) -> None:
        st = result.stats
        self.efa_s += seconds
        self.pairs += st.sequence_pairs_explored
        self.pruned += st.pruned_illegal + st.pruned_inferior
        self.evaluated += st.floorplans_evaluated
        self.rejected += st.floorplans_rejected_outline


def install_tracing(prog: Program, tracer: Tracer) -> LayerCounters:
    """Wrap each layer's entry point at the binding its caller uses."""
    c = LayerCounters()
    w = tracer.wrap
    w(prog.mcmf_assign, "min_cost_max_flow", "netflow.mcmf", c.on_mcmf)
    w(prog.mcmf_assign.MCMFAssigner, "assign_with_stats", "assign",
      c.on_assign)
    w(prog.mcmf_assign, "window_candidates", "assign.window")
    w(prog.mcmf_assign, "build_topologies", "mst.build_topologies")
    w(prog.flow, "total_wirelength", "eval.total_wirelength")
    w(prog.flow, "run_efa_mix", "floorplan")
    w(sys.modules[__name__], "dop_window_floorplan", "floorplan")
    w(prog.efa.EnumerativeFloorplanner, "run", "floorplan.efa", c.on_efa)
    w(prog.greedy_packing, "predetermine_orientations",
      "floorplan.greedy_packing")
    w(prog.dop, "predetermine_orientations", "floorplan.greedy_packing")
    w(prog.efa.EnumerativeFloorplanner, "_pack", "kernel.pack_indices")
    w(prog.estimator.FastHpwlEvaluator, "hpwl", "kernel.hpwl")
    w(prog.batch.OrientationSweep, "pack_all", "kernel.pack_all")
    w(prog.estimator.FastHpwlEvaluator, "hpwl_batch", "kernel.hpwl_batch")
    w(prog.lint, "lint_design", "validate.lint")
    w(prog.jobs, "verify_result_payload", "validate.verify")
    w(prog.obs, "build_report", "obs.build_report")
    return c


def layer_metrics(
    spans: Dict[str, Dict[str, float]],
    c: LayerCounters,
    traced: Outcome,
    untraced: Outcome,
) -> Dict[str, float]:
    """Per-layer metrics from the span summary and the traced counters."""

    def self_s(*names: str) -> float:
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(name: str) -> float:
        return spans.get(name, {}).get("calls", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def sample_sum(key: str) -> float:
        return sum(traced.service_samples.get(key, []))

    hits = traced.service_samples.get("service.hit", [])
    m = {
        "netflow.mcmf.calls": calls("netflow.mcmf"),
        "netflow.mcmf.s": self_s("netflow.mcmf"),
        "netflow.augmentations_per_s": ratio(c.mcmf_augmentations, c.mcmf_s),
        "assign.s": self_s("assign"),
        "assign.arcs": c.arcs,
        "assign.augmentations": c.augmentations,
        "assign.window_retries": c.window_retries,
        "assign.subsap_s_max": c.subsap_s_max,
        "assign.window.s": self_s("assign.window"),
        "mst.build_topologies.s": self_s("mst.build_topologies"),
        "eval.total_wirelength.s": self_s("eval.total_wirelength"),
        "floorplan.s": self_s("floorplan", "floorplan.efa"),
        "floorplan.greedy_packing.s": self_s("floorplan.greedy_packing"),
        "floorplan.pairs_per_s": ratio(c.pairs + c.pruned, c.efa_s),
        "floorplan.evals_per_s": ratio(c.evaluated + c.rejected, c.efa_s),
        "floorplan.useful_ratio": ratio(c.evaluated, c.evaluated + c.rejected),
        "floorplan.pruned_ratio": ratio(c.pruned, c.pairs + c.pruned),
        "validate.lint.s": self_s("validate.lint"),
        "validate.verify.s": self_s("validate.verify"),
        "obs.build_report.s": self_s("obs.build_report"),
        "request.s": self_s("request"),
        "service.submit.s": sample_sum("service.submit"),
        "service.queue_wait_s": sample_sum("service.queue_wait_s"),
        "service.run_s": sample_sum("service.run_s"),
        "service.result_fetch.s": sample_sum("service.result_fetch"),
        "service.hit_ratio": ratio(sum(hits), len(hits)),
        "trace.overhead": ratio(untraced.designs_per_s, traced.designs_per_s),
        "trace.spans": sum(entry["calls"] for entry in spans.values()),
    }
    for kernel in ("pack_indices", "hpwl", "pack_all", "hpwl_batch"):
        m[f"kernel.{kernel}.calls"] = calls(f"kernel.{kernel}")
        m[f"kernel.{kernel}.s"] = self_s(f"kernel.{kernel}")
    return m


# -- driver -------------------------------------------------------------------


def end_to_end_metrics(
    bench: Bench, out: Outcome, setup_s: float
) -> Dict[str, float]:
    results = out.solver_s + out.hit_s
    return {
        "setup_s": setup_s,
        "designs_per_s": out.designs_per_s,
        "design_s_p50": median(out.solver_s),
        "result_s_p50": median(results),
        "twl_geomean": geomean(
            [twl for idx, twl in out.twl.items() if idx < bench.scored]
        ),
        "peak_rss_mb": peak_rss_mb() + out.child_peak_rss_mb,
    }


def describe(out: Outcome, label: str) -> None:
    """Human-readable lines (everything before the final JSON line)."""
    attempted = max(out.attempted, 1)
    print(
        f"{label}: attempted={out.attempted} verified={out.verified} "
        f"failed={len(out.failures)} "
        f"error_ratio={len(out.failures) / attempted:.4f} "
        f"busy_s={out.busy_s:.3f} solver_samples={len(out.solver_s)} "
        f"hit_samples={len(out.hit_s)} distinct_designs={len(out.twl)}"
    )
    if len(out.hit_s) >= 2:
        print(
            f"{label}: hit_s_p50={statistics.median(out.hit_s):.6f} "
            f"hit_s_p90={statistics.quantiles(out.hit_s, n=10)[-1]:.6f} "
            f"(n={len(out.hit_s)})"
        )
    for message in out.failures[:10]:
        print(f"{label}: FAILED {message}")


def emit(
    attempted: int, failed: int, metrics: Dict[str, float],
    units: Dict[str, str],
) -> None:
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--batch-eval", choices=("on", "off"), default="on",
        help="FlowConfig.floorplan_batch_eval; 'off' is the sensitivity "
        "check, never a scored run",
    )
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    batch_eval = args.batch_eval == "on"
    os.makedirs(OUT, exist_ok=True)
    bench = Bench(args.workload, args.seed, batch_eval)
    try:
        setup_main = time.perf_counter() - _T_START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        print("host:", json.dumps(host_fingerprint(), sort_keys=True))
        print("calibration:", json.dumps(calibrate(), sort_keys=True))
        loop = service_loop if bench.workload.service else flow_loop
        if not args.trace:
            setups = [setup_main] + [
                setup_probe_seconds(args.workload, args.seed, batch_eval)
                for _ in range(SETUP_PROBES)
            ]
            print(f"setup_s samples: {setups}")
            out = loop(bench, args.seconds)
            describe(out, args.workload)
            if not out.verified:
                out.fail("no verified result")
            metrics = end_to_end_metrics(bench, out, statistics.median(setups))
            emit(out.attempted, len(out.failures), metrics, END_TO_END_UNITS)
            return 1 if out.failures else 0
        # Traced run: an untraced half, then the same requests traced.
        untraced = loop(bench, args.seconds / 2)
        tracer = Tracer()
        counters = install_tracing(bench.prog, tracer)
        try:
            traced = loop(bench, 0.0, tracer=tracer, sequence=untraced.sequence)
        finally:
            tracer.restore()
        describe(untraced, f"{args.workload}/untraced")
        describe(traced, f"{args.workload}/traced")
        failed = len(untraced.failures) + len(traced.failures)
        for idx, twl in traced.twl.items():
            if untraced.twl.get(idx) != twl:
                print(f"FAILED design {idx}: traced TWL {twl!r} != untraced "
                      f"{untraced.twl.get(idx)!r}")
                failed += 1
        spans_path = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.json"
        )
        tracer.save(spans_path)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        spans = tracer.summary()
        for name, entry in sorted(spans.items()):
            print(f"span {name}: calls={entry['calls']} "
                  f"incl_s={entry['s']:.4f} self_s={entry['self_s']:.4f}")
        if not traced.verified:
            failed += 1
        metrics = layer_metrics(spans, counters, traced, untraced)
        emit(untraced.attempted + traced.attempted, failed, metrics,
             PER_LAYER_UNITS)
        return 1 if failed else 0
    finally:
        bench.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
