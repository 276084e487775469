"""Replayable arrival-time traces for open-loop load generation.

Every benchmark before this module was *closed-loop*: the next request
fired only after the previous response returned, so server-side queueing
delay was invisible — a slow replica simply slowed the generator down.
Real edge traffic is *open-loop*: arrivals are decided by the world
(diurnal user activity, Poisson bursts), not by the server.  A
:class:`Trace` pins every request to an **arrival timestamp**; the
:class:`~repro.loadgen.harness.OpenLoopHarness` fires each request on
schedule regardless of response lag, so queueing shows up where it
belongs — in the latency tail.

Traces are **deterministic**: every generator takes an explicit ``seed``
and builds arrivals from :func:`numpy.random.default_rng` and request
bodies from the byte-identical
:func:`~repro.data.workloads.scenario_request_stream` contract.  Two
calls with the same arguments produce equal traces (compare with
:meth:`Trace.fingerprint`), and a trace saved with :meth:`Trace.save`
replays identically after :meth:`Trace.load` — which is what lets
``bench/`` pin its ``mixed_open`` workload to :func:`poisson_trace` and
re-measure one PR's number under the exact same traffic on the next.

Arrival processes:

* :func:`constant_trace` — fixed-rate arrivals (the simplest baseline);
* :func:`poisson_trace` — homogeneous Poisson arrivals at a mean rate;
* :func:`diurnal_trace` — a non-homogeneous Poisson process whose rate
  follows a day curve (trough → peak → trough over ``period_s``),
  sampled by Lewis–Shedler thinning;
* :func:`burst_trace` — a base Poisson process plus superimposed
  high-rate bursts (flash crowds).

Faults ride along in the same trace under :class:`FaultSpec` — replica
kills/restarts, emulated device slowdowns, malformed requests — pinned
to trace offsets so chaos experiments replay as deterministically as the
traffic itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.workloads import SCENARIO_ALGORITHMS, StreamRequest, scenario_request_stream
from repro.exceptions import ConfigurationError

#: Fault actions understood by :class:`~repro.loadgen.faults.FaultInjector`.
FAULT_ACTIONS = ("kill-gateway", "restart-gateway", "slowdown", "malformed-request")

#: Trace-file schema version (bumped on incompatible format changes).
TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TimedRequest:
    """One scheduled libei request: *when* it arrives and *what* it asks."""

    at_s: float                     # arrival offset from trace start, seconds
    scenario: str
    algorithm: str
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def path(self) -> str:
        """The request's libei URL path (args travel as a query string)."""
        return StreamRequest(self.scenario, self.algorithm, dict(self.args)).path

    def as_dict(self) -> Dict[str, object]:
        return {
            "at_s": self.at_s,
            "scenario": self.scenario,
            "algorithm": self.algorithm,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TimedRequest":
        return cls(
            at_s=float(data["at_s"]),
            scenario=str(data["scenario"]),
            algorithm=str(data["algorithm"]),
            args=dict(data.get("args", {})),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault, pinned to a trace offset.

    ``action`` is one of :data:`FAULT_ACTIONS`; ``target`` names what the
    fault hits (a gateway index for kill/restart, a fleet instance id or
    index for slowdown, unused for malformed requests).  ``factor`` is
    the slowdown multiplier (``1.0`` restores full speed).
    """

    at_s: float
    action: str
    target: Optional[Union[int, str]] = None
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; expected one of {FAULT_ACTIONS}"
            )
        if self.at_s < 0:
            raise ConfigurationError("fault at_s must be non-negative")
        if self.factor <= 0:
            raise ConfigurationError("slowdown factor must be positive")

    def as_dict(self) -> Dict[str, object]:
        return {
            "at_s": self.at_s,
            "action": self.action,
            "target": self.target,
            "factor": self.factor,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultSpec":
        return cls(
            at_s=float(data["at_s"]),
            action=str(data["action"]),
            target=data.get("target"),  # type: ignore[arg-type]
            factor=float(data.get("factor", 1.0)),
        )


@dataclass
class Trace:
    """An ordered, timestamped request schedule plus its fault plan.

    ``meta`` records how the trace was generated (kind, seed, rates) so a
    trace file is self-describing.
    """

    name: str
    requests: List[TimedRequest]
    faults: List[FaultSpec] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.requests = sorted(self.requests, key=lambda r: r.at_s)
        self.faults = sorted(self.faults, key=lambda f: f.at_s)

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def duration_s(self) -> float:
        """Offset of the last scheduled event (request or fault)."""
        last_request = self.requests[-1].at_s if self.requests else 0.0
        last_fault = self.faults[-1].at_s if self.faults else 0.0
        return max(last_request, last_fault)

    def scenarios(self) -> List[str]:
        """Distinct scenarios appearing in the trace, sorted."""
        return sorted({r.scenario for r in self.requests})

    def with_faults(self, faults: Sequence[FaultSpec]) -> "Trace":
        """A copy of this trace with ``faults`` added to its fault plan."""
        return Trace(
            name=self.name,
            requests=list(self.requests),
            faults=list(self.faults) + list(faults),
            meta=dict(self.meta),
        )

    # -- determinism -----------------------------------------------------------
    def fingerprint(self) -> str:
        """SHA-256 over the canonical byte encoding of the full schedule.

        Two traces replay identically exactly when their fingerprints
        match: the digest covers every request's offset, routing and args
        plus the complete fault plan (but not ``name``/``meta``, which
        are descriptive).
        """
        digest = hashlib.sha256()
        for request in self.requests:
            digest.update(_canonical_json(request.as_dict()))
            digest.update(b"\n")
        digest.update(b"--faults--\n")
        for fault in self.faults:
            digest.update(_canonical_json(fault.as_dict()))
            digest.update(b"\n")
        return digest.hexdigest()

    # -- persistence -----------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "name": self.name,
            "meta": dict(self.meta),
            "requests": [r.as_dict() for r in self.requests],
            "faults": [f.as_dict() for f in self.faults],
        }

    def save(self, path: Union[str, Path]) -> Path:
        """Write the trace as a JSON file; returns the written path."""
        path = Path(path)
        path.write_text(json.dumps(self.as_dict(), indent=2, sort_keys=True),
                        encoding="utf-8")
        return path

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Trace":
        version = int(data.get("schema_version", TRACE_SCHEMA_VERSION))
        if version > TRACE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"trace schema_version {version} is newer than supported "
                f"({TRACE_SCHEMA_VERSION}); regenerate the trace"
            )
        return cls(
            name=str(data.get("name", "trace")),
            requests=[TimedRequest.from_dict(r) for r in data.get("requests", [])],  # type: ignore[union-attr]
            faults=[FaultSpec.from_dict(f) for f in data.get("faults", [])],  # type: ignore[union-attr]
            meta=dict(data.get("meta", {})),  # type: ignore[arg-type]
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace back from :meth:`save`'s JSON format."""
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _canonical_json(data: Mapping[str, object]) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")


# -- arrival processes ------------------------------------------------------------

def _normalize_mix(scenario_mix: Optional[Mapping[str, float]]) -> Dict[str, float]:
    """Normalize a scenario→weight mapping (defaults to the four paper apps)."""
    if scenario_mix is None:
        scenario_mix = {s: 1.0 for s in SCENARIO_ALGORITHMS}
    mix = dict(scenario_mix)
    if not mix:
        raise ConfigurationError("scenario_mix must name at least one scenario")
    total = float(sum(mix.values()))
    if total <= 0 or any(w < 0 for w in mix.values()):
        raise ConfigurationError("scenario_mix weights must be non-negative with a positive sum")
    return {scenario: weight / total for scenario, weight in sorted(mix.items())}


def _assign_requests(
    arrivals: np.ndarray,
    mix: Dict[str, float],
    seed: int,
    algorithms: Optional[Mapping[str, str]],
) -> List[TimedRequest]:
    """Turn raw arrival offsets into scenario-tagged timed requests.

    Scenario assignment and per-scenario ``seq`` numbering are drawn from
    the same seeded generator that produced the arrivals' jitter, so the
    whole schedule is one deterministic function of the seed.  The args
    match :func:`~repro.data.workloads.scenario_request_stream`'s shape
    (``{"seq": i}``), so any handler that serves the stream serves a
    trace unchanged.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, len(arrivals)]))
    names = list(mix)
    weights = np.array([mix[name] for name in names])
    algorithms = dict(SCENARIO_ALGORITHMS, **dict(algorithms or {}))
    choices = rng.choice(len(names), size=len(arrivals), p=weights)
    counters = {name: 0 for name in names}
    requests = []
    for at_s, index in zip(arrivals, choices):
        scenario = names[int(index)]
        seq = counters[scenario]
        counters[scenario] = seq + 1
        requests.append(TimedRequest(
            at_s=float(at_s),
            scenario=scenario,
            algorithm=algorithms.get(scenario, scenario),
            args={"seq": seq},
        ))
    return requests


def constant_trace(
    duration_s: float,
    rps: float,
    seed: int = 0,
    scenario_mix: Optional[Mapping[str, float]] = None,
    algorithms: Optional[Mapping[str, str]] = None,
    name: str = "constant",
) -> Trace:
    """Evenly spaced arrivals at a fixed rate (deterministic spacing)."""
    _require_positive(duration_s, rps)
    count = max(1, int(round(duration_s * rps)))
    arrivals = np.arange(count, dtype=np.float64) / rps
    mix = _normalize_mix(scenario_mix)
    return Trace(
        name=name,
        requests=_assign_requests(arrivals, mix, seed, algorithms),
        meta={"kind": "constant", "seed": seed, "duration_s": duration_s,
              "rps": rps, "scenario_mix": mix},
    )


def poisson_trace(
    duration_s: float,
    mean_rps: float,
    seed: int = 0,
    scenario_mix: Optional[Mapping[str, float]] = None,
    algorithms: Optional[Mapping[str, str]] = None,
    name: str = "poisson",
) -> Trace:
    """Homogeneous Poisson arrivals at ``mean_rps`` (exponential gaps)."""
    _require_positive(duration_s, mean_rps)
    rng = np.random.default_rng(seed)
    arrivals = _poisson_arrivals(rng, duration_s, mean_rps)
    mix = _normalize_mix(scenario_mix)
    return Trace(
        name=name,
        requests=_assign_requests(arrivals, mix, seed, algorithms),
        meta={"kind": "poisson", "seed": seed, "duration_s": duration_s,
              "mean_rps": mean_rps, "scenario_mix": mix},
    )


def diurnal_trace(
    duration_s: float,
    peak_rps: float,
    trough_rps: Optional[float] = None,
    period_s: Optional[float] = None,
    seed: int = 0,
    scenario_mix: Optional[Mapping[str, float]] = None,
    algorithms: Optional[Mapping[str, str]] = None,
    name: str = "diurnal",
) -> Trace:
    """A non-homogeneous Poisson process following a day curve.

    The instantaneous rate is a raised cosine running trough → peak →
    trough across each ``period_s`` (default: one full cycle over the
    trace), sampled exactly by Lewis–Shedler thinning: candidate
    arrivals are drawn at the peak rate and accepted with probability
    ``rate(t) / peak_rps``.  ``trough_rps`` defaults to ``peak_rps / 10``
    — a 10x day/night swing, the fleet-sizing regime the adaptive
    controller is built for.
    """
    _require_positive(duration_s, peak_rps)
    trough = peak_rps / 10.0 if trough_rps is None else float(trough_rps)
    if trough < 0 or trough > peak_rps:
        raise ConfigurationError("trough_rps must lie in [0, peak_rps]")
    period = float(period_s) if period_s is not None else float(duration_s)
    if period <= 0:
        raise ConfigurationError("period_s must be positive")

    def rate(t: np.ndarray) -> np.ndarray:
        phase = (1.0 - np.cos(2.0 * np.pi * t / period)) / 2.0  # 0 at trough, 1 at peak
        return trough + (peak_rps - trough) * phase

    rng = np.random.default_rng(seed)
    candidates = _poisson_arrivals(rng, duration_s, peak_rps)
    keep = rng.random(len(candidates)) * peak_rps < rate(candidates)
    arrivals = candidates[keep]
    if len(arrivals) == 0:  # degenerate tiny traces: keep at least one request
        arrivals = np.array([duration_s / 2.0])
    mix = _normalize_mix(scenario_mix)
    return Trace(
        name=name,
        requests=_assign_requests(arrivals, mix, seed, algorithms),
        meta={"kind": "diurnal", "seed": seed, "duration_s": duration_s,
              "peak_rps": peak_rps, "trough_rps": trough, "period_s": period,
              "scenario_mix": mix},
    )


def burst_trace(
    duration_s: float,
    base_rps: float,
    burst_rps: float,
    bursts: int = 2,
    burst_duration_s: Optional[float] = None,
    seed: int = 0,
    scenario_mix: Optional[Mapping[str, float]] = None,
    algorithms: Optional[Mapping[str, str]] = None,
    name: str = "burst",
) -> Trace:
    """Base Poisson traffic with superimposed flash-crowd bursts.

    ``bursts`` windows of ``burst_duration_s`` (default: 5% of the trace
    each) are placed uniformly at random; inside each window an extra
    Poisson process at ``burst_rps`` stacks on top of the base rate.
    """
    _require_positive(duration_s, base_rps)
    if burst_rps <= 0 or bursts < 0:
        raise ConfigurationError("burst_rps must be positive and bursts non-negative")
    window = float(burst_duration_s) if burst_duration_s is not None else duration_s * 0.05
    if window <= 0 or window > duration_s:
        raise ConfigurationError("burst_duration_s must lie in (0, duration_s]")
    rng = np.random.default_rng(seed)
    pieces = [_poisson_arrivals(rng, duration_s, base_rps)]
    starts = np.sort(rng.uniform(0.0, duration_s - window, size=bursts))
    for start in starts:
        pieces.append(start + _poisson_arrivals(rng, window, burst_rps))
    arrivals = np.sort(np.concatenate(pieces))
    mix = _normalize_mix(scenario_mix)
    return Trace(
        name=name,
        requests=_assign_requests(arrivals, mix, seed, algorithms),
        meta={"kind": "burst", "seed": seed, "duration_s": duration_s,
              "base_rps": base_rps, "burst_rps": burst_rps, "bursts": bursts,
              "burst_duration_s": window,
              "burst_starts": [float(s) for s in starts],
              "scenario_mix": mix},
    )


def trace_from_stream(
    requests_per_scenario: int,
    rps: float,
    seed: int = 0,
    name: str = "stream",
    **stream_kwargs,
) -> Trace:
    """Wrap :func:`~repro.data.workloads.scenario_request_stream` in a
    fixed-rate arrival schedule.

    The round-robin scenario interleaving is preserved exactly (the
    PR-3/PR-5 control-plane tests depend on its shape); this helper just
    pins each request of the stream to an arrival timestamp so it can be
    replayed open-loop.
    """
    _require_positive(float(requests_per_scenario), rps)
    stream = list(scenario_request_stream(
        requests_per_scenario=requests_per_scenario, seed=seed, **stream_kwargs
    ))
    requests = [
        TimedRequest(at_s=i / rps, scenario=r.scenario, algorithm=r.algorithm,
                     args=dict(r.args))
        for i, r in enumerate(stream)
    ]
    return Trace(
        name=name,
        requests=requests,
        meta={"kind": "stream", "seed": seed, "rps": rps,
              "requests_per_scenario": requests_per_scenario},
    )


def _poisson_arrivals(rng: np.random.Generator, duration_s: float, rate: float) -> np.ndarray:
    """Arrival offsets of a homogeneous Poisson process on [0, duration)."""
    # draw the count, then order statistics of uniforms: one vectorized
    # pass instead of a Python loop over exponential gaps
    count = rng.poisson(duration_s * rate)
    return np.sort(rng.uniform(0.0, duration_s, size=count))


def _require_positive(duration_s: float, rate: float) -> None:
    if duration_s <= 0:
        raise ConfigurationError("duration_s must be positive")
    if rate <= 0:
        raise ConfigurationError("the arrival rate must be positive")
