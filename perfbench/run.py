"""End-to-end and per-layer wall-clock benchmark of the EndBox pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload small_fw --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Each run builds a world with ``DeploymentSpec(...).build()`` and
``connect_all()`` and drives one workload of :mod:`workloads` through it
(one process, one thread).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the untraced end-to-end metrics.  Their wall times
are calibrated to the host's speed at the moment they were taken
(:mod:`calibrate`); the raw wall times are printed beside them.

* ``setup_s`` - seconds of ``build()`` + ``connect_all()`` of the first
  world in a fresh interpreter; the median of this process's cold set-up
  and those of :data:`SETUP_SAMPLES` - 1 fresh child interpreters.
* ``pkts_per_s`` - inner datagrams delivered to the receiver per second
  of the timed slices.
* ``slice_ms.p50`` / ``slice_ms.p95`` - milliseconds per modeled-time
  slice (240 slices, so 12 lie beyond p95).
* ``peak_rss_mb`` - peak resident memory of the workload process.

Failed operations divided by attempted ones (``failed_share``) is carried
by the ``failed`` and ``attempted`` fields of every result, and is a
per-layer metric of the traced run; it is not an end-to-end metric
because it is 0 on two workloads.  Operations are the offered datagrams
plus, on ``fleet_rollout``, the expected per-client config applications.

``--trace 1`` first runs the same episode untraced in a fresh child
interpreter, then runs it again with spans (:mod:`spans`) around the
calls into each layer, and reports the per-layer breakdown of the
traffic phase.  Self times of the layers plus ``other`` equal the traced
wall time and the shares sum to 1.  The traced run fails when a declared
span never fired on a workload it targets, when the shares do not add
up, when a patched method was not restored, or when its modeled-outcome
digest differs from the untraced run's (the spans must not perturb the
simulation).  Per-operation times are self times: a span's duration minus
the spans it encloses.

Metrics that name the layer layout:

* ``sim`` spans ``Simulator.run``, so its self time also holds every
  module without a span of its own (host IP stacks, the VPN daemons'
  packet loops, HTTP, the benchmark's receiver).
* ``crypto`` spans ``KeystreamCipher`` and ``RsaPublicKey.verify``; the
  data channel binds the HMAC functions by name, so HMAC time is ``vpn``
  self time.
* ``ids.build`` spans ``AhoCorasick.__init__``, ``add_pattern`` and the
  lazy ``_build`` (failure links, run on the first scan after a compile);
  ``ids.parse`` spans the Snort rule parse of a config application.
* The per-packet denominators are offered datagrams; ``vpn.*.ns_per_pkt``
  is per data-channel record (a 16 KiB datagram is several records).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import calibrate
import workloads
from spans import SpanPoint, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: cold set-ups per ``--trace 0`` run (this process plus fresh children)
SETUP_SAMPLES = 5
#: wall-clock limit of one child interpreter
CHILD_TIMEOUT_S = 150

LAYERS = ("sim", "netsim", "sgx", "click", "vpn", "crypto", "ids")

#: the span (or ecall sub-span) each workload must fire at least once
ALL = tuple(workloads.WORKLOADS)
FLEET = ("fleet_rollout",)
COVERAGE = {
    "sim.run": ALL,
    "netsim.transmit": ALL,
    "sgx.ecall.process_packet": ALL,
    "sgx.ecall.apply_config": FLEET,
    "click.dispatch": ALL,
    "click.compile": FLEET,
    "vpn.protect": ALL,
    "vpn.unprotect": ALL,
    "crypto.keystream": ALL,
    "crypto.rsa": FLEET,
    "ids.scan": FLEET,
    "ids.build": FLEET,
    "ids.parse": FLEET,
}

UNITS = {
    "setup_s": "s",
    "pkts_per_s": "1/s",
    "slice_ms.p50": "ms",
    "slice_ms.p95": "ms",
    "peak_rss_mb": "MB",
}


def _sized(index: int):
    """Work items of a call: ``len`` of its ``index``-th positional argument."""

    def count(args: tuple) -> int:
        value = args[index] if len(args) > index else None
        return len(value) if hasattr(value, "__len__") else 0

    return count


def span_points():
    """The spans around each layer's public entry points."""
    from repro.core import enclave_app
    from repro.click.hotswap import HotSwapManager
    from repro.click.router import Router
    from repro.crypto.rsa import RsaPublicKey
    from repro.crypto.stream import KeystreamCipher
    from repro.ids.aho_corasick import AhoCorasick
    from repro.netsim.link import Link
    from repro.sgx.gateway import EnclaveGateway
    from repro.sim.engine import Simulator
    from repro.vpn.channel import DataChannel

    def ecall_name(args: tuple) -> str:
        return str(args[1])

    return [
        SpanPoint("sim.run", Simulator, ("run",)),
        SpanPoint("netsim.transmit", Link, ("transmit",)),
        SpanPoint("sgx.ecall", EnclaveGateway, ("ecall",), key=ecall_name),
        SpanPoint("sgx.ecall", EnclaveGateway, ("ecall_batch",), key=ecall_name),
        SpanPoint("click.dispatch", Router, ("process",)),
        SpanPoint("click.dispatch", Router, ("process_batch",), count=_sized(1)),
        SpanPoint("click.compile", HotSwapManager, ("hotswap",)),
        SpanPoint("click.compile", Router, ("__init__",)),
        SpanPoint("vpn.protect", DataChannel, ("protect",)),
        SpanPoint("vpn.protect", DataChannel, ("protect_batch",), count=_sized(1)),
        SpanPoint("vpn.unprotect", DataChannel, ("unprotect",)),
        SpanPoint("vpn.unprotect", DataChannel, ("unprotect_batch",), count=_sized(1)),
        SpanPoint(
            "crypto.keystream", KeystreamCipher, ("process", "encrypt", "decrypt"), count=_sized(2)
        ),
        SpanPoint("crypto.rsa", RsaPublicKey, ("verify",)),
        SpanPoint("ids.scan", AhoCorasick, ("scan",), count=_sized(1)),
        SpanPoint("ids.build", AhoCorasick, ("__init__",)),
        SpanPoint("ids.build", AhoCorasick, ("add_pattern", "_build"), count=lambda args: 0),
        SpanPoint("ids.parse", enclave_app, ("parse_rules",)),
    ]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p95(values: List[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def end_to_end_metrics(episode, setup_samples: List[float], slices: List[float]) -> Dict[str, float]:
    """The metrics of one untraced run from its set-up samples and slice times."""
    return {
        "setup_s": statistics.median(setup_samples),
        "pkts_per_s": episode.timed_delivered / sum(slices),
        "slice_ms.p50": statistics.median(slices) * 1e3,
        "slice_ms.p95": _p95(slices) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(tracer, episode, untraced: dict):
    """The traced run's breakdown as ``{name: (value, unit)}``.

    ``untraced`` holds the untraced twin's traffic-phase wall time and
    its median reference-loop time; the tracing overhead compares the two
    phases calibrated to the host's speed (:mod:`calibrate`).
    """
    wall = tracer.wall_s
    pkts = episode.offered
    metrics = {}
    spent = 0.0
    for layer in LAYERS:
        spans = tracer.prefixed(layer)
        self_s = sum(stat.self_s for _, stat in spans)
        spent += self_s
        metrics[f"{layer}.calls"] = (sum(stat.calls for _, stat in spans), "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.share"] = (self_s / wall, "share")
    other_s = wall - spent

    def per_call(name: str, scale: float) -> float:
        stat = tracer.span(name)
        return _ratio(stat.self_s * scale, stat.calls)

    def per_item(name: str, scale: float) -> float:
        stat = tracer.span(name)
        return _ratio(stat.self_s * scale, stat.items)

    def hit_ratio(prefix: str) -> float:
        hits = episode.telemetry[f"{prefix}.cache_hits"]
        return _ratio(hits, hits + episode.telemetry[f"{prefix}.cache_misses"])

    transmit = tracer.span("netsim.transmit")
    ecalls = sum(stat.calls for _, stat in tracer.prefixed("sgx.ecall"))
    keystream = tracer.span("crypto.keystream")
    rsa = tracer.span("crypto.rsa")
    metrics.update(
        {
            "sim.events": (episode.events, "count"),
            "sim.events_per_pkt": (_ratio(episode.events, pkts), "count"),
            "netsim.frames_per_pkt": (_ratio(transmit.calls, pkts), "count"),
            "netsim.ns_per_frame": (per_call("netsim.transmit", 1e9), "ns"),
            "sgx.ecalls_per_pkt": (_ratio(ecalls, pkts), "count"),
            "sgx.ecall.process_packet.ns": (per_call("sgx.ecall.process_packet", 1e9), "ns"),
            "sgx.ecall.apply_config.ms": (per_call("sgx.ecall.apply_config", 1e3), "ms"),
            "click.dispatch.ns_per_pkt": (per_item("click.dispatch", 1e9), "ns"),
            "click.compile.calls": (tracer.span("click.compile").calls, "count"),
            "click.compile.ms": (per_call("click.compile", 1e3), "ms"),
            "vpn.protect.ns_per_pkt": (per_item("vpn.protect", 1e9), "ns"),
            "vpn.unprotect.ns_per_pkt": (per_item("vpn.unprotect", 1e9), "ns"),
            "vpn.rejects": (episode.telemetry["vpn.channel.packets_rejected"], "count"),
            "crypto.keystream.ns_per_kib": (per_item("crypto.keystream", 1e9 * 1024), "ns"),
            "crypto.keystream.bytes": (keystream.items, "B"),
            "crypto.keystream.cache_hit_ratio": (hit_ratio("crypto.stream"), "share"),
            "crypto.hmac.cache_hit_ratio": (hit_ratio("crypto.hmac"), "share"),
            "crypto.rsa.calls": (rsa.calls, "count"),
            "crypto.rsa.self_s": (rsa.self_s, "s"),
            "ids.scan.ns_per_kib": (per_item("ids.scan", 1e9 * 1024), "ns"),
            "ids.build.ms": (per_item("ids.build", 1e3), "ms"),
            "ids.parse.ms": (per_call("ids.parse", 1e3), "ms"),
            "setup.build_s": (episode.setup_build_s, "s"),
            "setup.connect_s": (episode.setup_connect_s, "s"),
            "other.share": (other_s / wall, "share"),
            "trace.overhead_share": (
                calibrate.calibrated(wall, episode.phase_ref_s)
                / calibrate.calibrated(untraced["phase_wall_s"], untraced["phase_ref_s"])
                - 1,
                "share",
            ),
            "failed_share": (episode.failed / episode.attempted, "share"),
        }
    )
    return metrics, other_s


def conservation_problems(tracer, metrics, other_s: float) -> List[str]:
    """Check that the breakdown accounts for the traced wall time exactly.

    The self times of all spans must add up to the time spent inside
    outermost spans (the tracer sums that independently), every span
    must belong to a layer, the untraced remainder must not be negative,
    and the shares must sum to 1.
    """
    problems = []
    wall_s = tracer.wall_s
    tolerance = 1e-9 * max(1.0, wall_s)
    all_self = sum(stat.self_s for stat in tracer.stats.values())
    layer_self = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    if abs(all_self - tracer.covered_s) > tolerance:
        problems.append(f"span self times add to {all_self}, outermost spans cover {tracer.covered_s}")
    if abs(layer_self - all_self) > tolerance:
        problems.append(f"layer self times add to {layer_self}, all spans to {all_self}")
    if other_s < -tolerance:
        problems.append(f"spans cover more than the traced wall time ({other_s} s left)")
    for layer in LAYERS:
        if metrics[f"{layer}.self_s"][0] < -tolerance:
            problems.append(f"negative self time in layer {layer}")
    share_total = sum(metrics[f"{layer}.share"][0] for layer in LAYERS) + metrics["other.share"][0]
    if abs(share_total - 1.0) > 1e-9:
        problems.append(f"shares sum to {share_total}")
    return problems


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def _child(role: str, args) -> dict:
    """Run this script in a fresh interpreter and parse its JSON line."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"{role} child exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _result(correct: bool, episode, metrics: Dict[str, tuple]) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": episode.attempted,
            "failed": episode.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def _report(episode, problems: List[str]) -> None:
    print(
        f"{episode.workload}: offered {episode.offered} datagrams, delivered {episode.delivered}, "
        f"config applications {episode.applied_updates}/{episode.expected_updates}, "
        f"failed_share {episode.failed / episode.attempted:.6g} "
        f"({episode.failed}/{episode.attempted})"
    )
    print(f"traffic phase {episode.phase_wall_s:.3f} s wall, {episode.events} events")
    print(f"modeled outcome digest {episode.digest}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")


def run_untraced(args) -> int:
    """``--trace 0``: the end-to-end metrics."""
    episode = workloads.run_episode(workloads.WORKLOADS[args.workload], args.seed, args.seconds)
    setups = [(episode.setup_s, episode.setup_ref_s)]
    for _ in range(SETUP_SAMPLES - 1):
        sample = _child("setup", args)
        setups.append((sample["setup_s"], sample["reference_s"]))
    raw = end_to_end_metrics(episode, [wall for wall, _ in setups], episode.slices_s)
    metrics = end_to_end_metrics(
        episode,
        [calibrate.calibrated(wall, ref) for wall, ref in setups],
        calibrate.calibrated_series(episode.slices_s, episode.slice_refs_s),
    )
    problems = list(episode.problems)
    _report(episode, problems)
    print(f"reference loop {statistics.median(episode.slice_refs_s) * 1e3:.4g} ms "
          f"(nominal {calibrate.REF_LOOP_S * 1e3:.4g} ms)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {UNITS[name]} (raw wall {raw[name]:.6g})")
    print(_result(not problems, episode, {name: (value, UNITS[name]) for name, value in metrics.items()}))
    return 0 if not problems else 1


def run_traced(args) -> int:
    """``--trace 1``: the per-layer breakdown, checked against an untraced twin."""
    untraced = _child("untraced", args)
    tracer = Tracer(span_points())
    tracer.install()
    try:
        episode = workloads.run_episode(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, tracer=tracer
        )
    finally:
        tracer.restore()
    metrics, other_s = per_layer_metrics(tracer, episode, untraced)
    problems = list(episode.problems) + conservation_problems(tracer, metrics, other_s)
    required = [name for name, targets in COVERAGE.items() if args.workload in targets]
    problems += [f"span {name} never fired" for name in tracer.unfired(required)]
    if untraced["digest"] != episode.digest:
        problems.append(f"traced digest {episode.digest} != untraced digest {untraced['digest']}")
    _report(episode, problems)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(_result(not problems, episode, metrics))
    return 0 if not problems else 1


class _Toy:
    """Nested calls for the self-test of the span accounting."""

    def outer(self, rounds: int) -> int:
        return sum(self.inner(rounds) for _ in range(3)) + sum(range(rounds))

    def inner(self, rounds: int) -> int:
        return sum(range(rounds))


def _self_test_accounting() -> None:
    """Self times and outermost call counts of a known nesting."""
    tracer = Tracer([SpanPoint("toy.outer", _Toy, ("outer",)), SpanPoint("toy.inner", _Toy, ("inner",))])
    tracer.install()
    try:
        toy = _Toy()
        toy.outer(1000)  # not recorded: the tracer is inactive
        tracer.start()
        for _ in range(20):
            toy.outer(20000)
        tracer.stop()
    finally:
        tracer.restore()
    outer, inner = tracer.span("toy.outer"), tracer.span("toy.inner")
    if (outer.calls, inner.calls) != (20, 60):
        raise AssertionError(f"calls {outer.calls}/{inner.calls}, expected 20/60")
    if outer.self_s <= 0 or inner.self_s <= 0:
        raise AssertionError("self times must be positive")
    if outer.self_s + inner.self_s > tracer.wall_s:
        raise AssertionError("self times exceed the traced wall time")
    if any(hasattr(vars(_Toy)[name], "__wrapped__") for name in ("outer", "inner")):
        raise AssertionError("toy methods not restored")


def self_test() -> int:
    """Check the span accounting, the span table and the install/restore cycle."""
    _self_test_accounting()

    tracer = Tracer(span_points())
    declared = {point.name for point in tracer.points}
    for name in COVERAGE:
        if not any(name == span or name.startswith(span + ".") for span in declared):
            raise AssertionError(f"coverage names undeclared span {name}")
    for span in declared:
        if not any(name == span or name.startswith(span + ".") for name in COVERAGE):
            raise AssertionError(f"span {span} has no workload that must fire it")
    originals = [
        (point.owner, method, vars(point.owner)[method])
        for point in tracer.points
        for method in point.methods
        if method in vars(point.owner)
    ]
    tracer.install()
    if not tracer.installed():
        raise AssertionError("tracer did not wrap every declared method")
    tracer.restore()
    for owner, method, original in originals:
        if vars(owner)[method] is not original:
            raise AssertionError(f"{owner.__name__}.{method} not restored")
    print(f"self-test passed: {len(originals)} methods wrapped and restored")
    return 0


def main(argv=None) -> int:
    """Parse the arguments and run one benchmark role."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=ALL)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup", "untraced"), default="main",
                        help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    workload = workloads.WORKLOADS[args.workload]
    if args.role == "setup":
        _world, build_s, connect_s, reference_s = workloads.build_world(workload, args.seed)
        print(json.dumps({"setup_s": build_s + connect_s, "reference_s": reference_s}))
        return 0
    if args.role == "untraced":
        episode = workloads.run_episode(workload, args.seed, args.seconds)
        print(json.dumps({
            "digest": episode.digest,
            "phase_wall_s": episode.phase_wall_s,
            "phase_ref_s": episode.phase_ref_s,
        }))
        return 0
    if args.trace:
        return run_traced(args)
    return run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
