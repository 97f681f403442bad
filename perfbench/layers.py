"""Per-layer probes: timed wrappers around each layer's public functions.

The benchmark never edits the program.  For a traced run it swaps a
thin wrapper in for each probed name (a module-level function or a
class method), counts calls, times the outermost call, and hands the
call's arguments and result to an optional tally hook.  ``uninstall``
puts every original object back and reports any name that is not the
original afterwards, so an untraced run that follows really is
untraced.

Busy time is credited to the outermost probed call only: a probed call
made while another probed call is running counts as a call but adds no
time.  Busy times of different probes are therefore disjoint, and the
solve's wall time minus their sum is the driver's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

import repro.core.distributed as distributed
import repro.core.sparse as sparse
import repro.privacy.mechanism as mechanism
import repro.runtime.wire as wire
from repro.obs import critical_path

TallyHook = Callable[["Probe", tuple, Any], None]


@dataclasses.dataclass
class Probe:
    """Counters of one probed name."""

    name: str
    owner: Any
    attribute: str
    timed: bool = True
    tally: Optional[TallyHook] = None
    calls: int = 0
    busy_s: float = 0.0
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)

    def add(self, key: str, amount: float) -> None:
        """Accumulate ``amount`` under ``key`` in :attr:`extra`."""
        self.extra[key] = self.extra.get(key, 0.0) + amount

    def reset(self) -> None:
        """Zero every counter."""
        self.calls, self.busy_s, self.extra = 0, 0.0, {}


def _subproblem_tally(probe: Probe, args: tuple, result: Any) -> None:
    probe.add("subgradient_iters", result.iterations)


def _perturb_tally(probe: Probe, args: tuple, result: Any) -> None:
    probe.add("noise_elems", result.size)


def _sub_instance_tally(probe: Probe, args: tuple, result: Any) -> None:
    _, index = result
    probe.add("pairs", index.pair_ids.size)
    probe.add("cells", index.groups.size * index.files.size)


def _encode_tally(probe: Probe, args: tuple, result: Any) -> None:
    probe.add("bytes", len(result))


def _bs(method: str) -> Probe:
    return Probe(f"bs.{method}", distributed.BaseStationAgent, method)


def default_probes() -> List[Probe]:
    """Every probe the benchmark installs, on all workloads.

    ``solve_subproblem`` is imported by name into both sweep drivers,
    so it is wrapped in each importing module; a call site missed here
    shows up as a mismatch against the program's own
    ``subproblem.solves`` counter.
    """
    return [
        Probe("subproblem.dense", distributed, "solve_subproblem", tally=_subproblem_tally),
        Probe("subproblem.sparse", sparse, "solve_subproblem", tally=_subproblem_tally),
        Probe(
            "privacy.perturb",
            mechanism.LaplacePrivacyMechanism,
            "perturb",
            tally=_perturb_tally,
        ),
        Probe(
            "sparse.sub_instance",
            sparse.SparseProblemInstance,
            "sub_instance",
            tally=_sub_instance_tally,
        ),
        Probe("wire.encode", wire, "encode_frame", tally=_encode_tally),
        Probe("wire.decode", wire, "decode_frame"),
        # Count only: one call per Algorithm 1 phase an SBS runs.
        Probe("distributed.begin_phase", distributed.SBSAgent, "begin_phase", timed=False),
        _bs("aggregate"),
        _bs("update_prices"),
        _bs("broadcast_aggregate"),
        _bs("collect_upload"),
        _bs("absorb_uploads"),
        _bs("has_folded"),
        _bs("system_cost"),
    ]


class ProbeSet:
    """Install, read and remove a set of :class:`Probe` wrappers."""

    def __init__(self, probes: Sequence[Probe]) -> None:
        self.probes = {probe.name: probe for probe in probes}
        self._originals: Dict[str, Any] = {}
        self._depth = 0

    def __getitem__(self, name: str) -> Probe:
        return self.probes[name]

    def _wrap(self, probe: Probe, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            probe.calls += 1
            if not probe.timed or self._depth:
                result = original(*args, **kwargs)
            else:
                self._depth = 1
                started = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    probe.busy_s += time.perf_counter() - started
                    self._depth = 0
            if probe.tally is not None:
                probe.tally(probe, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Swap every probe's wrapper in for the original name."""
        if self._originals:
            raise RuntimeError("probes are already installed")
        for probe in self.probes.values():
            original = vars(probe.owner)[probe.attribute]
            self._originals[probe.name] = original
            setattr(probe.owner, probe.attribute, self._wrap(probe, original))

    def uninstall(self) -> List[str]:
        """Restore every original; return the names that did not restore."""
        for probe in self.probes.values():
            setattr(probe.owner, probe.attribute, self._originals[probe.name])
        broken = [
            probe.name
            for probe in self.probes.values()
            if vars(probe.owner)[probe.attribute] is not self._originals[probe.name]
        ]
        self._originals = {}
        return broken

    def reset(self) -> None:
        """Zero every probe's counters."""
        for probe in self.probes.values():
            probe.reset()

    def busy_s(self, prefix: str) -> float:
        """Summed busy seconds of the probes whose name starts with ``prefix``."""
        return sum(p.busy_s for n, p in self.probes.items() if n.startswith(prefix))

    def calls(self, prefix: str) -> int:
        """Summed calls of the probes whose name starts with ``prefix``."""
        return sum(p.calls for n, p in self.probes.items() if n.startswith(prefix))

    def extra(self, prefix: str, key: str) -> float:
        """Summed tally ``key`` of the probes whose name starts with ``prefix``."""
        return sum(
            p.extra.get(key, 0.0) for n, p in self.probes.items() if n.startswith(prefix)
        )


def critical_path_buckets(events: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Critical-path seconds of one traced solve, in the benchmark's buckets.

    ``obs.critical_path`` attributes the root span's wall interval to
    the deepest covering span's category; its buckets sum to the root
    duration.  ``network`` folds in ``retry`` and ``straggler`` time,
    and ``driver`` is whatever no solve, network, aggregate or
    broadcast span covers (the run, iteration and phase spans' own
    time).
    """
    path = critical_path(events)
    by = path["by_category"]
    buckets = {
        "solve_s": by.get("solve", 0.0),
        "network_s": by.get("network", 0.0) + by.get("retry", 0.0) + by.get("straggler", 0.0),
        "aggregate_s": by.get("aggregate", 0.0),
        "broadcast_s": by.get("broadcast", 0.0),
    }
    buckets["driver_s"] = path["total"] - sum(buckets.values())
    return buckets
