"""Declarative scenario model: figures and ad-hoc sweeps as data.

A :class:`ScenarioSpec` holds one or more :class:`Sweep` blocks.  Each sweep
is a cartesian product over its axes (system sizes, arrival rates, scan
selectivities, OLTP placements, strategies or fixed degrees); expanding a
spec yields a flat tuple of :class:`PointSpec` records, each of which fully
describes one independent simulation run with primitive, picklable fields.
That makes points safe to ship to worker processes and stable to hash for
the on-disk result cache.

Seeding: every point carries an explicit seed.  By default the first
replicate of every point shares the spec's base seed (the paper fixes
``seed=42`` for every configuration, and this keeps the engine's tables
identical to the legacy serial loops).  Sweeps with ``reseed_per_point=True``
-- and every replicate beyond the first of a ``replicates > 1`` sweep --
instead derive a deterministic per-point seed from the base seed and the
point's *full* distinguishing coordinates (scenario, kind, system size,
strategy/degree, rate, selectivity, OLTP placement, arrival process, config
overrides and replicate index) via :func:`derive_seed`.  Deriving from the full coordinate
tuple rather than the (series label, x) pair matters: two points can share a
label and an x value while simulating different configurations (e.g. a rate
or placement axis that the label does not interpolate), and every replicate
must observe a different arrival stream.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.config.parameters import REPLICATION_POLICIES, NodeClass, TopologyConfig
from repro.faults.plan import (
    FailuresEntry,
    canonical_failures as _canonical_failures,
    decode_failures as _decode_failures,
    failures_label as _failures_label,
    validate_fault_targets as _validate_fault_targets,
)
from repro.workload.arrivals import ARRIVAL_KINDS

__all__ = [
    "Sweep",
    "ScenarioSpec",
    "PointSpec",
    "derive_seed",
    "expand",
    "point_from_payload",
]

#: Kinds of point execution understood by the runner.  ``timeline`` runs an
#: open (possibly non-stationary) workload for a fixed simulated duration and
#: attaches a windowed time series to the result.
POINT_KINDS = ("multi", "single", "fixed-degree", "analytic", "timeline")

#: Named configuration builders (see ``repro.runner.runner.build_config``).
SCENARIO_BUILDERS = ("homogeneous", "memory-bound", "join-complexity", "mixed")

#: Axes a sweep may use as its x values.
X_AXES = ("num_pe", "selectivity_pct", "rate", "degree")

#: Sweep axes that :attr:`Sweep.perturb` may jitter per replicate.
PERTURBABLE_AXES = ("arrival_rate", "selectivity")

#: Queries per point when a single-user/fixed-degree sweep leaves
#: ``num_queries`` unset (shared with ``runner.run_point_spec`` for
#: hand-built points).
DEFAULT_NUM_QUERIES = {"single": 5, "fixed-degree": 2}

#: Window length (simulated seconds) when a timeline sweep leaves
#: ``timeline_window`` unset.
DEFAULT_TIMELINE_WINDOW = 1.0

#: Encoded hardware axes.  A node-classes axis entry is a tuple of class
#: encodings, each a tuple of (field, value) pairs for
#: :class:`~repro.config.parameters.NodeClass`, e.g.
#: ``((("name", "fast"), ("fraction", 0.5), ("mips_factor", 2.0)),)``.
#: A topology axis entry is a tuple of (field, value) pairs for
#: :class:`~repro.config.parameters.TopologyConfig`.  Everything stays
#: primitive so points remain picklable and JSON-round-trippable.
NodeClassesEntry = Tuple[Tuple[Tuple[str, object], ...], ...]
TopologyEntry = Tuple[Tuple[str, object], ...]


def _canonical_node_classes(entry) -> Optional[NodeClassesEntry]:
    """Normalise a node-classes entry; ``None`` when hardware-equivalent to
    the uniform system (all factors 1.0), so explicitly-default heterogeneous
    axes collapse onto the historical points -- same seeds, same cache keys,
    byte-identical outputs."""
    if entry is None:
        return None
    normalized = tuple(
        tuple((str(key), value) for key, value in node_class) for node_class in entry
    )
    for node_class in normalized:
        if not NodeClass(**dict(node_class)).is_default_hardware:
            return normalized
    return None


def _canonical_topology(entry) -> Optional[TopologyEntry]:
    """Normalise a topology entry; ``None`` for a single rack.

    A racked topology with unit wire factors is flat on the wire but not
    the axis default: its racks are still fault targets
    (``crash@t:rack=r``), so it keeps its entry.
    """
    if entry is None:
        return None
    normalized = tuple((str(key), value) for key, value in entry)
    if TopologyConfig(**dict(normalized)).racks <= 1:
        return None
    return normalized


def _canonical_replication(entry) -> Optional[str]:
    """Normalise a replication axis entry; ``None`` for the single-copy
    database ("none" canonicalises to ``None``, so explicitly-unreplicated
    points share the historical points' seeds and cache keys)."""
    if entry is None:
        return None
    policy = str(entry)
    if policy == "none":
        return None
    if policy not in REPLICATION_POLICIES:
        raise ValueError(
            f"unknown replication policy {entry!r}; expected one of "
            f"{('none',) + REPLICATION_POLICIES}"
        )
    return policy


def _nodes_label(entry: Optional[NodeClassesEntry]) -> str:
    """Short series-label token for a (canonical) node-classes entry.

    Each class renders as ``name:size`` (count, or fraction as written), so
    two mixes of the same class at different sizes stay distinct series.
    """
    if not entry:
        return "uniform"
    parts = []
    for node_class in entry:
        attrs = dict(node_class)
        name = str(attrs.get("name", "?"))
        size = attrs.get("count", attrs.get("fraction"))
        parts.append(f"{name}:{size:g}" if size is not None else name)
    return "+".join(parts)


def _topology_label(entry: Optional[TopologyEntry]) -> str:
    """Short series-label token for a (canonical) topology entry."""
    if not entry:
        return "flat"
    attrs = dict(entry)
    racks = attrs.get("racks", 1)
    regions = attrs.get("regions", 1)
    if regions and int(regions) > 1:
        return f"{racks}r/{regions}g"
    return f"{racks}r"


def derive_seed(base_seed: int, *components: object) -> int:
    """Deterministic 31-bit seed derived from a base seed and coordinates.

    Stable across processes and Python versions (unlike ``hash``), so a
    point re-run anywhere reproduces the same arrival streams.
    """
    text = repr((int(base_seed),) + tuple(str(c) for c in components))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return int(digest[:8], 16) & 0x7FFFFFFF


@dataclass(frozen=True)
class Sweep:
    """One axis-product of simulation points sharing a series template.

    ``None`` entries on the rate/selectivity/placement axes mean "use the
    scenario builder's default for that parameter".
    """

    kind: str = "multi"  # one of POINT_KINDS
    scenario: str = "homogeneous"  # one of SCENARIO_BUILDERS
    strategies: Tuple[str, ...] = ()
    system_sizes: Tuple[int, ...] = ()
    rates: Tuple[Optional[float], ...] = (None,)
    selectivities: Tuple[Optional[float], ...] = (None,)
    oltp_placements: Tuple[Optional[str], ...] = (None,)
    degrees: Tuple[int, ...] = ()
    x_axis: str = "num_pe"  # one of X_AXES
    series: str = "{strategy}"
    num_queries: Optional[int] = None  # single-user / fixed-degree points
    config_overrides: Tuple[Tuple[str, object], ...] = ()
    reseed_per_point: bool = False
    #: Independent repetitions of every point; replicate 0 keeps the sweep's
    #: default seeding, replicates 1..n-1 get derived seeds.  Analytic points
    #: are deterministic and are never replicated.
    replicates: int = 1
    #: Arrival-process axis (``multi``/``timeline`` kinds): each entry is one
    #: of :data:`~repro.workload.arrivals.ARRIVAL_KINDS` or ``None`` for the
    #: scenario default (stationary Poisson).
    arrivals: Tuple[Optional[str], ...] = (None,)
    #: Shape parameters shared by every non-None arrival axis entry, e.g.
    #: ``(("surge_factor", 3.0), ("surge_start", 20.0))``.
    arrival_params: Tuple[Tuple[str, float], ...] = ()
    #: Window length (simulated seconds) for timeline points; ``None`` uses
    #: :data:`DEFAULT_TIMELINE_WINDOW`.
    timeline_window: Optional[float] = None
    #: Per-replicate workload jitter: ``(("arrival_rate", 0.1),)`` multiplies
    #: the rate axis of replicates >= 1 by a factor drawn uniformly from
    #: ``[1 - 0.1, 1 + 0.1]`` (derived-seed rng, so jitter is deterministic
    #: and collision-free).  Replicate 0 stays unperturbed, and the nominal
    #: axis value keeps labelling the (series, x) group, so confidence
    #: intervals then reflect workload noise on top of seed noise.
    perturb: Tuple[Tuple[str, float], ...] = ()
    #: Hardware axes: encoded :class:`NodeClass` mixes and
    #: :class:`TopologyConfig` tiers (see :data:`NodeClassesEntry` /
    #: :data:`TopologyEntry` above).  ``None`` entries keep the uniform
    #: hardware; entries that *encode* uniform hardware are canonicalised to
    #: ``None`` at expansion, so they share the historical points' seeds and
    #: cache keys.
    node_classes: Tuple[Optional[NodeClassesEntry], ...] = (None,)
    topologies: Tuple[Optional[TopologyEntry], ...] = (None,)
    #: Fault-plan axis: encoded :class:`~repro.faults.plan.FaultEvent`
    #: sequences (see :data:`~repro.faults.plan.FailuresEntry`).  ``None`` /
    #: empty entries mean fault-free execution and are canonicalised to
    #: ``None`` at expansion, so they produce the historical points
    #: unchanged (same seeds, same cache keys, byte-identical outputs).
    failures: Tuple[Optional[FailuresEntry], ...] = (None,)
    #: Replica-placement axis: ``None``/"none" (single copy, canonicalised to
    #: ``None`` at expansion -- same seeds, same cache keys, byte-identical
    #: outputs as the historical points), "mirror" or "chained".
    replication: Tuple[Optional[str], ...] = (None,)

    def __post_init__(self) -> None:
        if self.kind not in POINT_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if self.scenario not in SCENARIO_BUILDERS:
            raise ValueError(f"unknown scenario builder {self.scenario!r}")
        if self.x_axis not in X_AXES:
            raise ValueError(f"unknown x axis {self.x_axis!r}")
        if self.num_queries is not None and self.num_queries < 1:
            raise ValueError(f"num_queries must be >= 1, got {self.num_queries}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.kind in ("fixed-degree", "analytic"):
            if not self.degrees:
                raise ValueError(f"sweep kind {self.kind!r} requires degrees")
        elif not self.strategies:
            raise ValueError(f"sweep kind {self.kind!r} requires strategies")
        if not self.system_sizes:
            raise ValueError("a sweep needs at least one system size")
        if self.x_axis == "rate" and any(rate is None for rate in self.rates):
            raise ValueError("x_axis='rate' requires explicit rates")
        if self.x_axis == "selectivity_pct" and any(s is None for s in self.selectivities):
            raise ValueError("x_axis='selectivity_pct' requires explicit selectivities")
        if self.x_axis == "degree" and not self.degrees:
            raise ValueError("x_axis='degree' requires degrees")
        for kind in self.arrivals:
            if kind is not None and kind not in ARRIVAL_KINDS:
                raise ValueError(
                    f"unknown arrival kind {kind!r}; expected one of {ARRIVAL_KINDS}"
                )
        if any(kind is not None for kind in self.arrivals) and self.kind not in (
            "multi",
            "timeline",
        ):
            raise ValueError(
                f"arrival processes only apply to multi/timeline sweeps, not {self.kind!r}"
            )
        if "trace" in self.arrivals and self.kind != "timeline":
            # Only the timeline execution branch materialises and replays a
            # trace; accepting it elsewhere would silently run plain Poisson
            # arrivals under a "[trace]" label.
            raise ValueError("arrival kind 'trace' requires a timeline sweep")
        if self.arrival_params and all(kind is None for kind in self.arrivals):
            raise ValueError(
                "arrival_params given but no arrival process set; they would "
                "be silently dropped (add an arrivals axis entry)"
            )
        if self.timeline_window is not None:
            if self.kind != "timeline":
                raise ValueError("timeline_window only applies to timeline sweeps")
            if self.timeline_window <= 0:
                raise ValueError(
                    f"timeline_window must be positive, got {self.timeline_window}"
                )
        for entry in self.node_classes:
            # Constructing the classes validates the encoding (unknown keys,
            # bad fractions/factors) at declaration time, not in a worker.
            _canonical_node_classes(entry)
        for entry in self.topologies:
            _canonical_topology(entry)
        for entry in self.failures:
            # Decoding constructs the FaultEvents, validating kinds/values at
            # declaration time, not in a worker.
            _canonical_failures(entry)
        for entry in self.replication:
            _canonical_replication(entry)
        for axis, fraction in self.perturb:
            if axis not in PERTURBABLE_AXES:
                raise ValueError(
                    f"unknown perturb axis {axis!r}; expected one of {PERTURBABLE_AXES}"
                )
            if not 0.0 < float(fraction) < 1.0:
                raise ValueError(f"perturb fraction must be in (0, 1), got {fraction}")
            if axis == "arrival_rate" and any(rate is None for rate in self.rates):
                raise ValueError(
                    "perturb='arrival_rate' requires explicit rates "
                    "(the scenario default rate cannot be jittered)"
                )
            if axis == "selectivity" and any(s is None for s in self.selectivities):
                raise ValueError(
                    "perturb='selectivity' requires explicit selectivities"
                )


@dataclass(frozen=True)
class ScenarioSpec:
    """A named experiment declared as data: sweeps plus shared run limits.

    ``measured_joins``/``max_simulated_time`` of ``None`` defer to the
    environment-overridable defaults of :mod:`repro.experiments.base` at
    execution time.  ``extra_tables`` are post-processors rendering
    additional report tables from the finished
    :class:`~repro.experiments.base.ExperimentResult` (e.g. the Fig. 7
    degree annotations); they run in the parent process only.
    """

    name: str
    title: str
    x_label: str
    sweeps: Tuple[Sweep, ...] = ()
    measured_joins: Optional[int] = None
    warmup_joins: Optional[int] = None
    max_simulated_time: Optional[float] = None
    seed: int = 42
    extra_tables: Tuple[Callable[["object"], str], ...] = field(
        default_factory=tuple, compare=False
    )
    #: For non-simulated scenarios (the Fig. 4 parameter table): a renderer
    #: the CLI prints instead of the sweep table when the spec has no points.
    static_table: Optional[Callable[[], str]] = field(default=None, compare=False)

    def points(self) -> Tuple["PointSpec", ...]:
        return expand(self)

    def with_limits(
        self,
        measured_joins: Optional[int] = None,
        max_simulated_time: Optional[float] = None,
    ) -> "ScenarioSpec":
        """Copy with run limits replaced (``None`` keeps the current value)."""
        updates = {}
        if measured_joins is not None:
            updates["measured_joins"] = measured_joins
        if max_simulated_time is not None:
            updates["max_simulated_time"] = max_simulated_time
        return replace(self, **updates) if updates else self

    def with_replicates(self, replicates: int) -> "ScenarioSpec":
        """Copy with every sweep set to ``replicates`` repetitions per point."""
        if replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {replicates}")
        return replace(
            self,
            sweeps=tuple(replace(sweep, replicates=replicates) for sweep in self.sweeps),
        )


@dataclass(frozen=True)
class PointSpec:
    """One fully-resolved simulation point.

    Every field is a primitive (or tuple of primitives), so a point can be
    pickled to a worker process and hashed for the result cache.  The
    ``figure``/``series``/``x`` fields are presentation-only; the remaining
    fields determine the simulation outcome and form the cache key (see
    :meth:`cache_payload`).
    """

    figure: str
    series: str
    x: float
    kind: str
    scenario: str
    num_pe: int
    seed: int
    strategy: Optional[str] = None
    degree: Optional[int] = None
    rate: Optional[float] = None
    selectivity: Optional[float] = None
    oltp_placement: Optional[str] = None
    num_queries: Optional[int] = None
    measured_joins: Optional[int] = None
    warmup_joins: Optional[int] = None
    max_simulated_time: Optional[float] = None
    config_overrides: Tuple[Tuple[str, object], ...] = ()
    #: Replicate index within the sweep (0 for unreplicated points).  Part of
    #: the cache key: two replicates are distinct measurements even if a seed
    #: derivation change ever made their seeds collide.
    replicate: int = 0
    #: Arrival process of the point's workload classes (``None`` = the
    #: scenario default, stationary Poisson) plus its shape parameters.
    arrival_kind: Optional[str] = None
    arrival_params: Tuple[Tuple[str, float], ...] = ()
    #: Window length for timeline points (``None`` for other kinds).
    timeline_window: Optional[float] = None
    #: Canonical hardware axes of the point (``None`` = uniform / flat; see
    #: :data:`NodeClassesEntry` / :data:`TopologyEntry`).
    node_classes: Optional[NodeClassesEntry] = None
    topology: Optional[TopologyEntry] = None
    #: Canonical fault plan of the point (``None`` = fault-free; see
    #: :data:`~repro.faults.plan.FailuresEntry`).
    failures: Optional[FailuresEntry] = None
    #: Canonical replica-placement policy (``None`` = single copy).
    replication: Optional[str] = None

    def __post_init__(self) -> None:
        # A fault plan aimed at a PE or rack the point lacks can never run:
        # reject it here, at expansion or submission, not inside a worker.
        # Overrides that resize the system are left to the run-time check.
        if self.failures is None or any(
            str(path).split(".")[0] in ("num_pe", "topology")
            for path, _value in self.config_overrides
        ):
            return
        racks = TopologyConfig(**dict(self.topology)).racks if self.topology else 1
        _validate_fault_targets(_decode_failures(self.failures), self.num_pe, racks)

    def cache_payload(self) -> Tuple[Tuple[str, object], ...]:
        """The (key, value) pairs that determine this point's result."""
        return (
            ("kind", self.kind),
            ("scenario", self.scenario),
            ("num_pe", self.num_pe),
            ("seed", self.seed),
            ("strategy", self.strategy),
            ("degree", self.degree),
            ("rate", self.rate),
            ("selectivity", self.selectivity),
            ("oltp_placement", self.oltp_placement),
            ("num_queries", self.num_queries),
            ("measured_joins", self.measured_joins),
            ("warmup_joins", self.warmup_joins),
            ("max_simulated_time", self.max_simulated_time),
            ("config_overrides", self.config_overrides),
            ("replicate", self.replicate),
            ("arrival_kind", self.arrival_kind),
            ("arrival_params", self.arrival_params),
            ("timeline_window", self.timeline_window),
            ("node_classes", self.node_classes),
            ("topology", self.topology),
            ("failures", self.failures),
            ("replication", self.replication),
        )


def point_from_payload(payload) -> PointSpec:
    """Rebuild a :class:`PointSpec` from a JSON-decoded ``asdict`` payload.

    JSON round-trips turn the tuple-valued fields (``config_overrides``,
    ``arrival_params``, ``node_classes``, ``topology``, ``failures``) into
    (nested) lists;
    normalising them back keeps rebuilt points equal to the originals (and
    hashable by the result cache with byte-identical keys).
    """
    data = dict(payload)
    data["config_overrides"] = tuple(
        (str(path), value) for path, value in (data.get("config_overrides") or ())
    )
    data["arrival_params"] = tuple(
        (str(name), value) for name, value in (data.get("arrival_params") or ())
    )
    node_classes = data.get("node_classes")
    data["node_classes"] = (
        None
        if node_classes is None
        else tuple(
            tuple((str(key), value) for key, value in node_class)
            for node_class in node_classes
        )
    )
    topology = data.get("topology")
    data["topology"] = (
        None
        if topology is None
        else tuple((str(key), value) for key, value in topology)
    )
    failures = data.get("failures")
    data["failures"] = (
        None
        if failures is None
        else tuple(
            tuple((str(key), value) for key, value in event) for event in failures
        )
    )
    return PointSpec(**data)


def _series_label(sweep: Sweep, **context: object) -> str:
    return sweep.series.format(**context)


def _canonical_x(value: float) -> float:
    """Round an x value to 12 significant digits.

    Derived x values (e.g. ``selectivity * 100.0``) can land one ulp apart
    for coordinates that are meant to be the same table row; canonicalising
    at expansion time keeps (series, x) grouping exact.
    """
    return float(f"{float(value):.12g}")


def _x_value(sweep: Sweep, num_pe: int, selectivity, rate, degree) -> float:
    if sweep.x_axis == "num_pe":
        raw = float(num_pe)
    elif sweep.x_axis == "selectivity_pct":
        raw = float(selectivity) * 100.0
    elif sweep.x_axis == "rate":
        raw = float(rate)
    else:
        raw = float(degree)
    return _canonical_x(raw)


def _point_seed(
    spec: ScenarioSpec,
    sweep: Sweep,
    *,
    num_pe: int,
    strategy: Optional[str],
    degree: Optional[int],
    rate: Optional[float],
    selectivity: Optional[float],
    placement: Optional[str],
    arrival: Optional[str],
    replicate: int,
    node_classes: Optional[NodeClassesEntry] = None,
    topology: Optional[TopologyEntry] = None,
    failures: Optional[FailuresEntry] = None,
    replication: Optional[str] = None,
) -> int:
    """Seed for one point: base seed, or a collision-free derived seed.

    Replicate 0 of a sweep without ``reseed_per_point`` keeps the spec's base
    seed -- replicated runs therefore contain the legacy fixed-seed run as
    their first replicate (and share its cache entry).  Every other point
    derives from the full distinguishing coordinate tuple, never from the
    (series label, x) pair, which can be shared by distinct configurations.

    The hardware and fault axes join the component tuple only when
    non-default: appending them unconditionally would change every existing
    derived seed (and with it the committed golden figures).
    """
    if replicate == 0 and not sweep.reseed_per_point:
        return spec.seed
    components = [
        sweep.kind,
        sweep.scenario,
        num_pe,
        strategy,
        degree,
        rate,
        selectivity,
        placement,
        arrival,
        sweep.config_overrides,
        replicate,
    ]
    if node_classes is not None or topology is not None:
        components.extend([node_classes, topology])
    if failures is not None:
        components.append(failures)
    if replication is not None:
        components.append(replication)
    return derive_seed(spec.seed, *components)


def _perturbed_axes(
    spec: ScenarioSpec,
    sweep: Sweep,
    *,
    rate: Optional[float],
    selectivity: Optional[float],
    replicate: int,
    coordinates: Tuple[object, ...],
) -> Tuple[Optional[float], Optional[float]]:
    """Jittered (rate, selectivity) for one replicate of one point.

    Replicate 0 keeps the nominal axes (so a perturbed sweep still embeds the
    unperturbed run); replicates >= 1 multiply each perturbed axis by a
    factor drawn uniformly from ``[1 - fraction, 1 + fraction]`` using a rng
    seeded from the point's full coordinates -- deterministic across
    processes and distinct per replicate.
    """
    if replicate == 0 or not sweep.perturb:
        return rate, selectivity
    rng = random.Random(derive_seed(spec.seed, "perturb", *coordinates, replicate))
    # Fixed draw order (sorted axis names) keeps the jitter independent of
    # the declaration order of ``perturb``.
    for axis, fraction in sorted(sweep.perturb):
        factor = rng.uniform(1.0 - float(fraction), 1.0 + float(fraction))
        if axis == "arrival_rate":
            rate = float(rate) * factor  # type: ignore[arg-type]
        else:
            selectivity = float(selectivity) * factor  # type: ignore[arg-type]
    return rate, selectivity


def expand(spec: ScenarioSpec) -> Tuple[PointSpec, ...]:
    """Expand a scenario into its flat, ordered tuple of points.

    Axis nesting (outer to inner): system size, selectivity, rate, OLTP
    placement, arrival process, then strategy/degree -- matching the
    iteration order of the legacy hand-written figure loops, so series
    appear in the same order in the rendered tables.

    Run limits left as ``None`` on the spec are resolved *here* (against the
    ``REPRO_BENCH_JOINS``/``REPRO_BENCH_TIME_LIMIT`` environment defaults),
    not in the worker, so the resolved values are part of every point and of
    its cache key -- runs under different environment settings never collide
    on one cache entry.  For timeline sweeps the resolved time limit is the
    run *duration* (timeline points have no completion target).

    Per-replicate perturbation (``Sweep.perturb``) jitters the rate /
    selectivity stored on the point while the series label and x keep the
    nominal values, so all replicates of a coordinate still group into one
    table cell.
    """
    from repro.experiments.base import default_measured_joins, default_time_limit

    measured = spec.measured_joins if spec.measured_joins is not None else default_measured_joins()
    warmup = spec.warmup_joins if spec.warmup_joins is not None else max(5, measured // 5)
    limit = (
        spec.max_simulated_time if spec.max_simulated_time is not None else default_time_limit()
    )
    if limit <= 0 and any(sweep.kind == "timeline" for sweep in spec.sweeps):
        # Timeline points run for exactly ``limit`` seconds; failing here
        # beats a PointExecutionError from inside a worker process.
        raise ValueError(
            "timeline sweeps need a positive run duration, got "
            f"max_simulated_time={limit}"
        )
    points: List[PointSpec] = []
    for sweep in spec.sweeps:
        inner: Sequence[object] = (
            sweep.degrees if sweep.kind in ("fixed-degree", "analytic") else sweep.strategies
        )
        window = (
            (
                sweep.timeline_window
                if sweep.timeline_window is not None
                else DEFAULT_TIMELINE_WINDOW
            )
            if sweep.kind == "timeline"
            else None
        )
        # Canonicalise the hardware axes once per sweep: encodings of uniform
        # hardware / flat topologies collapse to None here, so they produce
        # the very same points (seeds, cache keys, bytes) as the axis default.
        # They join the arrival axis in one flat product to keep the historic
        # loop nesting (and with it the point order of existing scenarios).
        workload_axes = [
            (
                arrival,
                _canonical_node_classes(raw_classes),
                _canonical_topology(raw_topology),
                _canonical_failures(raw_failures),
                _canonical_replication(raw_replication),
            )
            for arrival in sweep.arrivals
            for raw_classes in sweep.node_classes
            for raw_topology in sweep.topologies
            for raw_failures in sweep.failures
            for raw_replication in sweep.replication
        ]
        for num_pe in sweep.system_sizes:
            for selectivity in sweep.selectivities:
                for rate in sweep.rates:
                    for placement in sweep.oltp_placements:
                        for (
                            arrival,
                            node_classes_entry,
                            topology_entry,
                            failures_entry,
                            replication_entry,
                        ) in workload_axes:
                            for member in inner:
                                strategy = None
                                degree = None
                                if sweep.kind in ("fixed-degree", "analytic"):
                                    degree = int(member)  # type: ignore[arg-type]
                                    if degree > num_pe:
                                        continue
                                else:
                                    strategy = str(member)
                                x = _x_value(sweep, num_pe, selectivity, rate, degree)
                                label = _series_label(
                                    sweep,
                                    strategy=strategy,
                                    degree=degree,
                                    num_pe=num_pe,
                                    rate=rate,
                                    selectivity=selectivity,
                                    selectivity_pct=(
                                        selectivity * 100.0
                                        if selectivity is not None
                                        else None
                                    ),
                                    placement=placement,
                                    arrival=arrival,
                                    nodes=_nodes_label(node_classes_entry),
                                    topology=_topology_label(topology_entry),
                                    failures=_failures_label(failures_entry),
                                    replication=replication_entry or "none",
                                )
                                if sweep.num_queries is not None:
                                    num_queries = sweep.num_queries
                                else:
                                    num_queries = DEFAULT_NUM_QUERIES.get(sweep.kind, 5)
                                # Analytic points are deterministic model
                                # evaluations: replicating them would just
                                # repeat the identical number.
                                replicates = (
                                    1 if sweep.kind == "analytic" else sweep.replicates
                                )
                                for replicate in range(replicates):
                                    coordinates = (
                                        sweep.kind,
                                        sweep.scenario,
                                        num_pe,
                                        strategy,
                                        degree,
                                        rate,
                                        selectivity,
                                        placement,
                                        arrival,
                                        sweep.config_overrides,
                                    )
                                    if (
                                        node_classes_entry is not None
                                        or topology_entry is not None
                                    ):
                                        coordinates += (
                                            node_classes_entry,
                                            topology_entry,
                                        )
                                    if failures_entry is not None:
                                        coordinates += (failures_entry,)
                                    if replication_entry is not None:
                                        coordinates += (replication_entry,)
                                    seed = _point_seed(
                                        spec,
                                        sweep,
                                        num_pe=num_pe,
                                        strategy=strategy,
                                        degree=degree,
                                        rate=rate,
                                        selectivity=selectivity,
                                        placement=placement,
                                        arrival=arrival,
                                        replicate=replicate,
                                        node_classes=node_classes_entry,
                                        topology=topology_entry,
                                        failures=failures_entry,
                                        replication=replication_entry,
                                    )
                                    point_rate, point_selectivity = _perturbed_axes(
                                        spec,
                                        sweep,
                                        rate=rate,
                                        selectivity=selectivity,
                                        replicate=replicate,
                                        coordinates=coordinates,
                                    )
                                    points.append(
                                        PointSpec(
                                            figure=spec.name,
                                            series=label,
                                            x=x,
                                            kind=sweep.kind,
                                            scenario=sweep.scenario,
                                            num_pe=num_pe,
                                            seed=seed,
                                            strategy=strategy,
                                            degree=degree,
                                            rate=point_rate,
                                            selectivity=point_selectivity,
                                            oltp_placement=placement,
                                            num_queries=(
                                                None
                                                if sweep.kind
                                                in ("multi", "analytic", "timeline")
                                                else num_queries
                                            ),
                                            measured_joins=(
                                                measured if sweep.kind == "multi" else None
                                            ),
                                            warmup_joins=(
                                                warmup if sweep.kind == "multi" else None
                                            ),
                                            max_simulated_time=(
                                                limit
                                                if sweep.kind in ("multi", "timeline")
                                                else None
                                            ),
                                            config_overrides=sweep.config_overrides,
                                            replicate=replicate,
                                            arrival_kind=arrival,
                                            arrival_params=(
                                                sweep.arrival_params
                                                if arrival is not None
                                                else ()
                                            ),
                                            timeline_window=window,
                                            node_classes=node_classes_entry,
                                            topology=topology_entry,
                                            failures=failures_entry,
                                            replication=replication_entry,
                                        )
                                    )
    return tuple(points)
