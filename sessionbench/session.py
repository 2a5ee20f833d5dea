"""Seeded design sessions over the paper's gate (§3-§4) and steel (§5) schemas.

A session builds a starting design, then issues commands from one seeded
stream, one at a time (a closed loop with one client).  Each command times
only its calls into the program; the benchmark's own bookkeeping and the
checks of the program's answers run outside the timed section.  The
benchmark keeps its own record of everything it wrote, and every answer is
checked against that record or against a property the method must have.

The stream is cut into rounds: a fixed, shuffled mix of command kinds
followed by one checkpoint.  A run attempts whole rounds only.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import itertools
import os
import random
import shutil
import tempfile
from collections import Counter, defaultdict, deque
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.composition import composite
from repro.consistency import AdaptationTracker
from repro.core.inheritance import iter_propagation
from repro.ddl.builder import load_schema
from repro.ddl.paper import load_gate_schema, load_steel_schema
from repro.engine import integrity, persistence
from repro.engine.database import Database
from repro.errors import ConstraintViolation
from repro.query import executor, parser
from repro.txn import AccessControlManager, LockMode, TransactionManager
from repro.versions import diff as version_diff
from repro.versions import merge as version_merge
from repro.versions.graph import VersionGraph

from layers import SpanRecorder

#: The package re-exports a function of the same name, so the module
#: is taken from the import system.
configuration = importlib.import_module("repro.composition.configuration")

#: The benchmark's own DDL type, bound through the paper's selective
#: ``SomeOf_Gate``: a use of a gate implementation that sees its Length,
#: Width, TimeBehavior and Pins but not its Function.
GATE_USE_DDL = """
obj-type GateUse =
    inheritor-in: SomeOf_Gate;
    attributes:
        UseLocation: Point;
end GateUse;
"""

#: Population sizes per workload family and scale.  ``small`` is for the
#: benchmark's own tests.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "gate": {
        "full": dict(supers=6, cells=150, impls_per_cell=2, modules=60,
                     slots_per_module=16, tops=12, modules_per_top=5,
                     placed=30, uses=600),
        "small": dict(supers=3, cells=24, impls_per_cell=2, modules=8,
                      slots_per_module=6, tops=3, modules_per_top=3,
                      placed=4, uses=40),
    },
    "steel": {
        "full": dict(girders=60, plates=60, structures=600, girders_per=3,
                     plates_per=2, screwings_per=4),
        "small": dict(girders=8, plates=8, structures=12, girders_per=3,
                      plates_per=2, screwings_per=4),
    },
}

#: Commands per round, by kind; every round ends with one checkpoint.
MIXES: Dict[str, Dict[str, Dict[str, int]]] = {
    "gate": {
        "full": dict(read=300, update=300, txn=80, query=150, structure=12,
                     create=15, version=20),
        "small": dict(read=12, update=12, txn=6, query=10, structure=2,
                      create=2, version=2),
    },
    "steel": {
        "full": dict(read=100, update=170, txn=30, query=100, structure=20,
                     create=40, version=16),
        "small": dict(read=8, update=6, txn=3, query=8, structure=2,
                      create=3, version=2),
    },
}

#: Variants of a command kind by weight.  Each round deals them as a
#: shuffled deck with exact shares, so every round has the same mix and a
#: median does not move with the share a seed happened to draw.
VARIANTS: Dict[str, Dict[str, Dict[str, int]]] = {
    "gate": {
        "update": dict(length=7, width=5, time_behavior=5, function=3),
        "txn": dict(commit=3, abort=1),
        "query": dict(impl_tb=5, impl_range=4, impl_sum=4, use_tb=4, use_diff=3),
    },
    "steel": {
        "update": dict(girder=7, description=3),
        "query": dict(bolt=2, nut=1, bolt_length=1, girder=1),
        "version": dict(girder=1, plate=1),
    },
}

#: Nominal seconds of one round's timed commands on the reference machine
#: (see README); ``--seconds`` is turned into whole rounds with it.  The
#: gate figure is ``edit_observed``'s, so that ``edit`` runs the same
#: rounds, and the same stream, at the same ``--seconds``.
ROUND_SECONDS = {"gate": 1.8, "steel": 2.0}

#: Zipf exponent of component popularity (placement quotas and the choice
#: of components to update, read and ask about).
ZIPF = 1.0
#: The flight recorder is pulled every this many commands when observed.
TICK_EVERY = 25
#: The reference loop runs every this many commands.
REF_EVERY = 50
LENGTH_RANGE = (100, 100_000)
TB_RANGE = (1, 4000)


def ref_loop() -> float:
    """A fixed pure-Python loop; its time moves with the machine only."""
    started = perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    return perf_counter() - started


def random_matrix(rng: random.Random) -> Tuple[Tuple[bool, ...], ...]:
    """A 2x2 boolean matrix, as the matrix-of domain stores it."""
    return tuple(tuple(rng.random() < 0.5 for _ in range(2)) for _ in range(2))


def other_value(rng: random.Random, low: int, high: int, current: int) -> int:
    """A value in [low, high) different from ``current``."""
    value = rng.randrange(low, high - 1)
    return value + 1 if value >= current else value


def zipf_weights(n: int) -> List[float]:
    return [1.0 / (rank + 1) ** ZIPF for rank in range(n)]


def quota_sequence(rng: random.Random, items: List[Any], total: int) -> List[Any]:
    """``total`` picks from ``items`` (ordered by popularity rank) with
    Zipf quotas fixed by rank, shuffled: every seed gets the same fan-out
    profile, only which item holds which rank differs."""
    weights = zipf_weights(len(items))
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    remainder = total - sum(counts)
    for index in range(remainder):
        counts[index % len(counts)] += 1
    picks = [item for item, count in zip(items, counts) for _ in range(count)]
    rng.shuffle(picks)
    return picks


def _perturbed(value: Any) -> Any:
    """A value unequal to ``value``, of the same shape."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "~"
    if isinstance(value, (set, frozenset)):
        return set(value) | {"<perturbed>"}
    if isinstance(value, dict):
        changed = dict(value)
        changed["<perturbed>"] = 1
        return changed
    if isinstance(value, (list, tuple)):
        return list(value) + ["<perturbed>"]
    return ("<perturbed>", value)


class Checks:
    """Families of output checks.  A family named in ``perturb`` compares
    against a deliberately wrong expectation, so tests can show that no
    family is vacuous."""

    FAMILIES = (
        "inherited_read", "query", "txn", "bom", "where_used", "expansion",
        "diff", "merge", "steel_rules", "constraints", "reload_count",
        "reload_read", "reload_sweep",
    )

    def __init__(self, perturb=()):
        self.perturb = set(perturb)
        self.counts: Counter = Counter()
        self.failures: List[str] = []
        self.failed = 0

    def expect(self, family: str, actual: Any, expected: Any, what: str = "") -> None:
        if family in self.perturb:
            expected = _perturbed(expected)
        self.counts[family] += 1
        if actual != expected:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(
                    f"{family}: {what}: expected {expected!r:.200} got {actual!r:.200}"
                )

    @property
    def ok(self) -> bool:
        return self.failed == 0


class Iface:
    """The record of one interface: what the benchmark last wrote."""

    __slots__ = ("obj", "length", "width", "pins", "impls", "owners")

    def __init__(self, obj, length, width, pins):
        self.obj = obj
        self.length = length
        self.width = width
        self.pins = pins
        self.impls: List["Impl"] = []
        #: Composite surrogate value -> number of placements of this
        #: interface in it.
        self.owners: Counter = Counter()


class Impl:
    __slots__ = ("obj", "iface", "tb")

    def __init__(self, obj, iface, tb):
        self.obj = obj
        self.iface = iface
        self.tb = tb


class Module:
    """A composite GateImplementation and the interface it realises."""

    __slots__ = ("iface", "impl", "placements")

    def __init__(self, iface, impl):
        self.iface = iface
        self.impl = impl
        #: (component subobject, placed interface record)
        self.placements: List[Tuple[Any, Any]] = []


class Session:
    """One workload's database, record, command stream and measurements."""

    family = ""

    def __init__(
        self,
        workload: str,
        seed: int,
        workdir: str,
        scale: str = "full",
        observe: bool = False,
        perturb=(),
    ):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.observe = observe
        self.sizes = SIZES[self.family][scale]
        self.mix = MIXES[self.family][scale]
        self.checks = Checks(perturb)
        self.recorder: Optional[SpanRecorder] = None
        self.digest = hashlib.sha256()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.round_times: List[float] = []
        self.ref_times: List[float] = []
        self.image_ratios: List[float] = []
        self.image_bytes: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.kinds: Counter = Counter()
        self.query_access: Counter = Counter()
        self.query_candidates = 0
        self.query_rows = 0
        self.query_texts: Counter = Counter()
        #: Traced-run counters (collected only when a recorder is set).
        self.layer: Counter = Counter()
        self.update_targets: Counter = Counter()
        self.db: Optional[Database] = None
        self._t0 = 0.0
        self._commands_done = 0
        self._image_path = os.path.join(workdir, f"{workload}-{seed}.json")

    # -- timing ------------------------------------------------------------------

    def start(self, kind: str) -> None:
        """Open the timed section of a command."""
        if self.recorder is not None:
            self.recorder.enter("cmd." + kind)
        self._t0 = perf_counter()

    def stop(self) -> float:
        """Close the timed section; returns its duration in seconds."""
        elapsed = perf_counter() - self._t0
        if self.recorder is not None:
            self.recorder.exit()
        return elapsed

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a named span when traced (a layer boundary
        the benchmark's own code marks)."""
        recorder = self.recorder
        if recorder is None:
            return fn(*args, **kwargs)
        recorder.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.exit()

    def deal(self, rng: random.Random, counts: Dict[str, int]) -> None:
        """Shuffle a fresh deck of variants for every kind that has them,
        one per command of ``counts`` (largest-remainder shares)."""
        self.decks = {}
        for kind, weights in VARIANTS[self.family].items():
            n = counts[kind]
            total = sum(weights.values())
            shares = {v: n * w // total for v, w in weights.items()}
            by_remainder = sorted(weights, key=lambda v: -(n * weights[v] % total))
            for variant in by_remainder[: n - sum(shares.values())]:
                shares[variant] += 1
            deck = [v for v, c in shares.items() for _ in range(c)]
            rng.shuffle(deck)
            self.decks[kind] = deck

    def variant(self, kind: str) -> str:
        return self.decks[kind].pop()

    def log(self, *params: Any) -> None:
        """Fold a command's parameters into the stream digest."""
        self.digest.update(repr(params).encode())

    # -- database lifecycle ------------------------------------------------------

    def new_database(self, name: str) -> Database:
        db = Database(name, observe=self.observe)
        self.span("ddl.schema", self.install_schema, db)
        return db

    def install_schema(self, db: Database) -> None:
        raise NotImplementedError

    def setup(self) -> float:
        """Fresh database, schema, population and warm-up; returns seconds."""
        started = perf_counter()
        recorder = self.recorder
        if recorder is not None:
            recorder.enter("setup")
        try:
            self.db = self.new_database(self.workload)
            self.tracker = AdaptationTracker(self.db)
            rng = random.Random(f"{self.seed}:{self.family}:population")
            self.populate(rng)
            warm = random.Random(f"{self.seed}:{self.family}:warmup")
            counts = {kind: max(1, n // 10) for kind, n in self.mix.items()}
            kinds = [kind for kind, n in counts.items() for _ in range(n)]
            warm.shuffle(kinds)
            self.deal(warm, counts)
            for kind in kinds:
                getattr(self, "cmd_" + kind)(warm)
        finally:
            if recorder is not None:
                recorder.exit()
        elapsed = perf_counter() - started
        self.check_population()
        self.reset_measurements()
        return elapsed

    def reset_measurements(self) -> None:
        """Forget what the warm-up measured; the record stays."""
        for series in (self.samples, self.layer, self.update_targets,
                       self.query_access, self.query_texts):
            series.clear()
        self.image_ratios.clear()
        self.image_bytes.clear()
        self.query_candidates = self.query_rows = 0

    def populate(self, rng: random.Random) -> None:
        raise NotImplementedError

    def check_population(self) -> None:
        """Check the design the set-up left, outside its timed section."""

    # -- the command stream ------------------------------------------------------

    def round_kinds(self, rng: random.Random) -> List[str]:
        kinds = [kind for kind, n in self.mix.items() for _ in range(n)]
        rng.shuffle(kinds)
        kinds.append("checkpoint")
        return kinds

    def run_round(self, index: int) -> float:
        """Run one round; returns its timed seconds (session time)."""
        rng = random.Random(f"{self.seed}:{self.family}:round:{index}")
        self.deal(rng, self.mix)
        total = 0.0
        obs = self.db.obs
        for kind in self.round_kinds(rng):
            self.log(kind)
            traced = self.recorder is not None
            if traced:
                before = self.engine_counts()
            try:
                elapsed = getattr(self, "cmd_" + kind)(rng)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
                elapsed = None
            if traced:
                self.count_delta("command", before)
            self.attempted += 1
            self.kinds[kind] += 1
            if elapsed is not None:
                total += elapsed
                self.samples[kind].append(elapsed)
            self._commands_done += 1
            if obs is not None and self._commands_done % TICK_EVERY == 0:
                started = perf_counter()
                obs.recorder.tick()
                elapsed = perf_counter() - started
                total += elapsed
                self.samples["tick"].append(elapsed)
            if self._commands_done % REF_EVERY == 0:
                self.ref_times.append(ref_loop())
        self.round_times.append(total)
        return total

    # -- traced-run counters -----------------------------------------------------

    def engine_counts(self) -> Dict[str, int]:
        db = self.db
        counts = {
            "index.maintenance": db.indexes.stats.get("index.maintenance", 0),
            "index.stale_repairs": db.indexes.stats.get("index.stale_repairs", 0),
            "view.refreshes": db.views.stats.get("query.view.refreshes", 0),
        }
        obs = db.obs
        if obs is not None:
            counts["audit.appended"] = obs.audit.appended if obs.audit is not None else 0
            counts["spans"] = len(obs.tracer) + obs.tracer.dropped
        return counts

    def count_delta(self, prefix: str, before: Dict[str, int]) -> None:
        after = self.engine_counts()
        for key, value in after.items():
            self.layer[f"{prefix}:{key}"] += value - before.get(key, 0)

    def traced_update(self, obj, attribute: str, value: Any) -> float:
        """The timed part of an update command, with the traced run's
        counter snapshots and propagation-cone size around it."""
        if self.recorder is None:
            self.start("update")
            obj.set_attribute(attribute, value)
            return self.stop()
        before = self.engine_counts()
        self.start("update")
        obj.set_attribute(attribute, value)
        elapsed = self.stop()
        self.count_delta("update", before)
        self.layer["update:inheritors"] += sum(1 for _ in iter_propagation(obj, attribute))
        self.layer["update:commands"] += 1
        return elapsed

    # -- shared command pieces -----------------------------------------------------

    def run_query(self, text: str) -> Any:
        """Parse and execute, as ``run_query`` does, through the module
        attributes the traced run wraps."""
        return executor.execute_query(self.db, parser.parse_query(text))

    def timed_query(self, text: str, expected: set) -> float:
        traced = self.recorder is not None
        if traced:
            before = self.engine_counts()
            cache = parser._parse_cached.cache_info()
        self.start("query")
        result = self.run_query(text)
        elapsed = self.stop()
        if traced:
            self.count_delta("query", before)
            after = parser._parse_cached.cache_info()
            self.layer["query:parse_hits"] += after.hits - cache.hits
            self.layer["query:parse_misses"] += after.misses - cache.misses
            self.layer["query:commands"] += 1
        plan = result.plan
        self.query_access[plan.access_path] += 1
        self.query_candidates += plan.candidates or 0
        self.query_rows += len(result.rows)
        self.query_texts[text] += 1
        got = {obj.surrogate.value for obj in result.objects}
        self.checks.expect("query", got, expected, text)
        return elapsed

    def timed_reads(self, pairs: List[Tuple[Any, str]]) -> List[Any]:
        """Read members in one timed batch (the read command's body)."""
        self.start("read")
        recorder = self.recorder
        if recorder is not None:
            index = recorder.enter("core.get_member")
            values = [obj.get_member(name) for obj, name in pairs]
            recorder.exit()
            recorder.count(index, len(pairs))
        else:
            values = [obj.get_member(name) for obj, name in pairs]
        self._read_elapsed = self.stop()
        return values

    def checkpoint(self, read_back: Callable[[Dict[int, Any]], None]) -> float:
        """Review the adaptation worklist, check integrity, sweep
        constraints, save, and load into a fresh database."""
        db = self.db
        tracker = self.tracker

        def consistency_pass():
            def review():
                for inheritor in tracker.inheritors_needing_adaptation():
                    tracker.acknowledge(inheritor)

            self.span("consistency.review", review)
            return integrity.check_integrity(db) + integrity.sweep_constraints(db)

        sweep_s, violations = self.checkpoint_phase(consistency_pass)
        save_s, _ = self.checkpoint_phase(persistence.save, db, self._image_path)
        # The fresh database gets its schema outside the timed section:
        # load_ms times the load into a database that has its schema.
        fresh = self.new_database(self.workload)
        load_s, _ = self.checkpoint_phase(persistence.load, self._image_path, fresh)
        self.samples["sweep"].append(sweep_s)
        self.samples["save"].append(save_s)
        self.samples["load"].append(load_s)
        elapsed = sweep_s + save_s + load_s

        checks = self.checks
        checks.expect("constraints", [str(v) for v in violations], [], "checkpoint")
        size = os.path.getsize(self._image_path)
        os.remove(self._image_path)
        count = db.count()
        self.image_bytes.append(size)
        self.image_ratios.append(size / count)
        checks.expect("reload_count", fresh.count(), count, "reloaded objects")
        by_value = {obj.surrogate.value: obj for obj in fresh.objects()}
        read_back(by_value)
        checks.expect(
            "reload_sweep", [str(v) for v in integrity.sweep_constraints(fresh)], [],
            "reloaded sweep",
        )
        del fresh, by_value
        return elapsed

    def checkpoint_phase(self, fn: Callable, *args: Any) -> Tuple[float, Any]:
        """One timed phase of a checkpoint.  Each phase starts from a
        collected heap, so where the cyclic collector runs inside it does
        not depend on what ran before."""
        gc.collect()
        self.start("checkpoint")
        result = fn(*args)
        return self.stop(), result

    def check_merge(self, left_diff, right_diff, merged, left_expected,
                    right_expected, merged_values) -> None:
        checks = self.checks
        as_tuples = lambda entries: [(e.path, e.kind, e.old, e.new) for e in entries]
        checks.expect("diff", as_tuples(left_diff), left_expected, "left diff")
        checks.expect("diff", as_tuples(right_diff), right_expected, "right diff")
        checks.expect("merge", len(merged.conflicts), 0, "merge conflicts")
        checks.expect(
            "merge", {name: merged.merged.get_member(name) for name in merged_values},
            merged_values, "merged values",
        )

    # -- summaries -----------------------------------------------------------------

    def records_kept(self) -> int:
        """Adaptation records the tracker holds (acknowledged ones too)."""
        return sum(len(records) for records in self.tracker._records.values())

    def close(self) -> None:
        """Detach observability.  The record still holds the database's
        objects: drop the session before collecting to free them."""
        if self.db is not None and self.db.obs is not None:
            self.db.disable_observability()


class GateSession(Session):
    """`edit` / `edit_observed`: gate design editing (§3-§4, §6)."""

    family = "gate"

    def install_schema(self, db: Database) -> None:
        load_gate_schema(db.catalog)
        load_schema(GATE_USE_DDL, db.catalog)

    # -- population ------------------------------------------------------------------

    def new_interface(self, rng, sup, length=None, width=None) -> Iface:
        length = length if length is not None else rng.randrange(*LENGTH_RANGE)
        width = width if width is not None else rng.randrange(*LENGTH_RANGE)
        obj = self.db.create_object(
            "GateInterface", transmitter=sup[0], Length=length, Width=width
        )
        return Iface(obj, length, width, sup[1])

    def new_impl(self, rng, iface: Iface) -> Impl:
        tb = rng.randrange(*TB_RANGE)
        obj = self.db.create_object(
            "GateImplementation", transmitter=iface.obj, TimeBehavior=tb,
            Function=random_matrix(rng),
        )
        impl = Impl(obj, iface, tb)
        iface.impls.append(impl)
        self.impls_all[obj.surrogate.value] = impl
        return impl

    def place(self, module: Module, iface: Iface, index: int) -> None:
        slot = composite.add_component(
            module.impl.obj, "SubGates", iface.obj,
            GateLocation={"X": index * 10, "Y": (index * 7) % 90},
        )
        module.placements.append((slot, iface))
        iface.owners[module.impl.obj.surrogate.value] += 1

    def new_module(self, rng, cells: List[Iface]) -> Module:
        sup = rng.choice(self.supers)
        iface = self.new_interface(rng, sup)
        impl = self.new_impl(rng, iface)
        module = Module(iface, impl)
        for index, cell in enumerate(cells):
            self.place(module, cell, index)
        return module

    def populate(self, rng: random.Random) -> None:
        db = self.db
        S = self.sizes
        self.impls_all: Dict[int, Impl] = {}
        self.supers = []
        for i in range(S["supers"]):
            sup = db.create_object("GateInterface_I")
            pins = sup.subclass("Pins")
            n_in = 1 + i % 3
            for p in range(n_in):
                pins.create(InOut="IN", PinLocation={"X": 0, "Y": p})
            pins.create(InOut="OUT", PinLocation={"X": 1, "Y": 0})
            self.supers.append((sup, n_in + 1))
        # Cells, ordered by popularity rank (the seed decides which cell
        # gets which rank through the random attributes it draws).
        self.cells = [self.new_interface(rng, rng.choice(self.supers)) for _ in range(S["cells"])]
        rng.shuffle(self.cells)
        self.cell_weights = zipf_weights(len(self.cells))
        for cell in self.cells:
            for _ in range(S["impls_per_cell"]):
                self.new_impl(rng, cell)
        self.cell_impls = [impl for cell in self.cells for impl in cell.impls]
        self.cell_impl_weights = [
            w for w, cell in zip(self.cell_weights, self.cells) for _ in cell.impls
        ]
        k = S["slots_per_module"]
        picks = quota_sequence(rng, self.cells, S["modules"] * k)
        self.modules = [
            self.new_module(rng, picks[m * k:(m + 1) * k]) for m in range(S["modules"])
        ]
        # Placed modules draw cells from a cycle of Zipf quotas whose period
        # is the placed window, so the live window always holds exactly the
        # quotas: fan-out by rank is the same at every point and every seed.
        self.cell_stream = itertools.cycle(quota_sequence(rng, self.cells, S["placed"] * k))
        self.placed = deque(
            self.new_module(rng, self.next_cells(k)) for _ in range(S["placed"])
        )
        self.tops = []
        for _ in range(S["tops"]):
            top = Module(*self._top_parts(rng))
            for index, module in enumerate(rng.sample(self.modules, S["modules_per_top"])):
                self.place(top, module.iface, index)
            self.tops.append(top)
        uses = quota_sequence(rng, self.cell_impls, S["uses"])
        self.uses = []
        self.impl_uses: Dict[int, List[Any]] = {}
        for index, impl in enumerate(uses):
            obj = db.create_object(
                "GateUse", transmitter=impl.obj, UseLocation={"X": index, "Y": 0}
            )
            self.uses.append((obj, impl))
            self.impl_uses.setdefault(impl.obj.surrogate.value, []).append(obj)
        self.tm = TransactionManager(db)

    def _top_parts(self, rng):
        iface = self.new_interface(rng, rng.choice(self.supers))
        return iface, self.new_impl(rng, iface)

    def pick_cell(self, rng) -> Iface:
        return rng.choices(self.cells, self.cell_weights)[0]

    def next_cells(self, k: int) -> List[Iface]:
        return [next(self.cell_stream) for _ in range(k)]

    def pick_impl(self, rng) -> Impl:
        return rng.choices(self.cell_impls, self.cell_impl_weights)[0]

    def all_modules(self) -> List[Module]:
        return self.modules + list(self.placed)

    # -- commands --------------------------------------------------------------------

    def cmd_read(self, rng) -> float:
        modules = self.modules
        module = modules[rng.randrange(len(modules))] if rng.random() < 0.8 else rng.choice(self.placed)
        uses = [self.uses[rng.randrange(len(self.uses))] for _ in range(4)]
        self.log(module.impl.obj.surrogate.value, [u[0].surrogate.value for u in uses])
        pairs: List[Tuple[Any, str]] = [(module.impl.obj, "Length"), (module.impl.obj, "Width")]
        expected: List[Any] = [module.iface.length, module.iface.width]
        for slot, cell in module.placements:
            pairs += [(slot, "Length"), (slot, "Width"), (slot, "Pins")]
            expected += [cell.length, cell.width, cell.pins]
        for use, impl in uses:
            pairs += [(use, "TimeBehavior"), (use, "Length")]
            expected += [impl.tb, impl.iface.length]
        values = self.timed_reads(pairs)
        values = [len(v) if isinstance(v, list) else v for v in values]
        self.checks.expect("inherited_read", values, expected, "module read")
        return self._read_elapsed

    def cmd_update(self, rng) -> float:
        variant = self.variant("update")
        if variant in ("length", "width"):
            cell = self.pick_cell(rng)
            attribute = variant.capitalize()
            value = rng.randrange(*LENGTH_RANGE)
            target = cell.obj
            self.log(target.surrogate.value, attribute, value)
            self.update_targets[self.cells.index(cell)] += 1
            elapsed = self.traced_update(target, attribute, value)
            setattr(cell, attribute.lower(), value)
            inheritor = cell.impls[0].obj
        else:
            impl = self.pick_impl(rng)
            target = impl.obj
            if variant == "time_behavior":
                attribute, value = "TimeBehavior", rng.randrange(*TB_RANGE)
            else:
                attribute = "Function"
                value = random_matrix(rng)
            self.log(target.surrogate.value, attribute, value)
            elapsed = self.traced_update(target, attribute, value)
            inheritor = target
            if attribute == "TimeBehavior":
                impl.tb = value
                users = self.impl_uses.get(impl.obj.surrogate.value)
                inheritor = users[0] if users else target
        self.checks.expect(
            "inherited_read", inheritor.get_member(attribute), value, "after update"
        )
        return elapsed

    def cmd_txn(self, rng) -> float:
        module = self.modules[rng.randrange(len(self.modules))]
        slot, _cell = module.placements[rng.randrange(len(module.placements))]
        impl = self.pick_impl(rng)
        value = rng.randrange(*TB_RANGE)
        abort = self.variant("txn") == "abort"
        self.log(slot.surrogate.value, impl.obj.surrogate.value, value, abort)
        tm = self.tm
        self.start("txn")
        txn = tm.begin(user="designer")
        txn.read(slot)
        txn.set(impl.obj, "TimeBehavior", value)
        if abort:
            txn.abort()
        else:
            txn.commit()
        elapsed = self.stop()
        if not abort:
            impl.tb = value
        self.checks.expect("txn", impl.obj.get_member("TimeBehavior"), impl.tb, "after txn")
        self.checks.expect("txn", tm.lock_table.lock_count(), 0, "locks after txn")
        return elapsed

    def implementations_where(self, test) -> set:
        """Expected rows of a ``GateImplementation`` source: the
        implementations, plus the GateUses, whose type conforms to
        GateImplementation through SomeOf_Gate."""
        found = {v for v, impl in self.impls_all.items() if test(impl)}
        found.update(use.surrogate.value for use, impl in self.uses if test(impl))
        return found

    def cmd_query(self, rng) -> float:
        variant = self.variant("query")
        if variant == "impl_tb":
            tb = rng.randrange(*TB_RANGE)
            text = f"select * from GateImplementation where TimeBehavior = {tb}"
            expected = self.implementations_where(lambda impl: impl.tb == tb)
        elif variant == "impl_range":
            low = rng.randrange(*LENGTH_RANGE)
            high = low + 800
            text = (f"select * from GateImplementation where Length >= {low} "
                    f"and Length <= {high}")
            expected = self.implementations_where(
                lambda impl: low <= impl.iface.length <= high)
        elif variant == "impl_sum":
            bound = rng.randrange(180_000, 199_000)
            text = f"select * from GateImplementation where Length + Width > {bound}"
            expected = self.implementations_where(
                lambda impl: impl.iface.length + impl.iface.width > bound)
        elif variant == "use_tb":
            tb = rng.randrange(*TB_RANGE)
            text = f"select * from GateUse where TimeBehavior = {tb}"
            expected = {use.surrogate.value for use, impl in self.uses if impl.tb == tb}
        else:
            bound = rng.randrange(80_000, 99_000)
            text = f"select * from GateUse where Width - Length > {bound}"
            expected = {use.surrogate.value for use, impl in self.uses
                        if impl.iface.width - impl.iface.length > bound}
        self.log(text)
        return self.timed_query(text, expected)

    def cmd_structure(self, rng) -> float:
        top = self.tops[rng.randrange(len(self.tops))]
        cell = self.pick_cell(rng)
        self.log(top.impl.obj.surrogate.value, cell.obj.surrogate.value)
        self.start("structure")
        expansion = composite.expand(top.impl.obj)
        bom = configuration.bill_of_materials(top.impl.obj)
        users = configuration.where_used(cell.obj)
        elapsed = self.stop()
        members = {obj.surrogate for obj in expansion.objects}
        wanted = [top.impl.obj]
        leaves = 0
        for slot, module_iface in top.placements:
            module = next(m for m in self.modules if m.iface is module_iface)
            wanted += [slot, module_iface.obj, module.impl.obj]
            for cell_slot, placed in module.placements:
                wanted += [cell_slot, placed.obj]
                leaves += 1
        missing = [obj for obj in wanted if obj.surrogate not in members]
        self.checks.expect("expansion", len(missing), 0, "placed components in expansion")
        self.checks.expect("bom", dict(bom), {"GateInterface": leaves}, "bill of materials")
        self.checks.expect(
            "where_used", {obj.surrogate.value for obj in users},
            {v for v, n in cell.owners.items() if n > 0}, "where used",
        )
        return elapsed

    def cmd_create(self, rng) -> float:
        sup = rng.choice(self.supers)
        length = rng.randrange(*LENGTH_RANGE)
        width = rng.randrange(*LENGTH_RANGE)
        cells = self.next_cells(self.sizes["slots_per_module"])
        self.log(length, width, [cell.obj.surrogate.value for cell in cells])
        self.start("create")
        iface = self.new_interface(rng, sup, length, width)
        impl = self.new_impl(rng, iface)
        module = Module(iface, impl)
        for index, cell in enumerate(cells):
            self.place(module, cell, index)
        self.span("expr.check_constraints", impl.obj.check_constraints, deep=True)
        elapsed = self.stop()
        self.placed.append(module)
        self.retire(self.placed.popleft())
        return elapsed

    def retire(self, module: Module) -> None:
        """Delete the oldest placed module so the design keeps its size
        (upkeep outside the timed section)."""
        owner = module.impl.obj.surrogate.value
        for _slot, cell in module.placements:
            cell.owners[owner] -= 1
            if cell.owners[owner] == 0:
                del cell.owners[owner]
        del self.impls_all[owner]
        module.impl.obj.delete()
        module.iface.obj.delete()

    def cmd_version(self, rng) -> float:
        cell = self.cells[rng.randrange(len(self.cells))]
        length = other_value(rng, *LENGTH_RANGE, cell.length)
        width = other_value(rng, *LENGTH_RANGE, cell.width)
        self.log(cell.obj.surrogate.value, length, width)
        base = cell.obj
        self.start("version")
        graph = VersionGraph(design_object=base)
        graph.add_version(base)
        left = version_diff.derive_version(graph, base)
        right = version_diff.derive_version(graph, base)
        left.set_attribute("Length", length)
        right.set_attribute("Width", width)
        left_diff = version_diff.diff_versions(base, left)
        right_diff = version_diff.diff_versions(base, right)
        merged = version_merge.merge_versions(graph, base, left, right)
        elapsed = self.stop()
        self.check_merge(
            left_diff, right_diff, merged,
            [("Length", "attribute", cell.length, length)],
            [("Width", "attribute", cell.width, width)],
            {"Length": length, "Width": width},
        )
        for version in (merged.merged, left, right):
            version.delete()
        return elapsed

    def cmd_checkpoint(self, rng) -> float:
        sample = [rng.choice(self.modules) for _ in range(4)]
        self.log("checkpoint", [m.impl.obj.surrogate.value for m in sample])

        def read_back(by_value):
            got, expected = [], []
            for module in sample:
                for slot, cell in module.placements:
                    loaded = by_value[slot.surrogate.value]
                    got += [loaded.get_member("Length"), loaded.get_member("Width"),
                            len(loaded.get_member("Pins"))]
                    expected += [cell.length, cell.width, cell.pins]
            self.checks.expect("reload_read", got, expected, "reloaded reads")

        return self.checkpoint(read_back)


class SteelSession(Session):
    """`assemble`: steel construction (§5) at scale."""

    family = "steel"

    def install_schema(self, db: Database) -> None:
        load_steel_schema(db.catalog)

    def new_part_interface(self, rng, kind: str) -> Dict[str, Any]:
        db = self.db
        if kind == "GirderInterface":
            height, width = rng.randrange(5, 20), rng.randrange(5, 20)
            attrs = dict(Length=rng.randrange(10, 100 * height * width),
                         Height=height, Width=width)
        else:
            attrs = dict(Thickness=rng.randrange(5, 30),
                         Area={"Length": rng.randrange(20, 200),
                               "Width": rng.randrange(20, 200)})
        class_name = "GirderLibrary" if kind == "GirderInterface" else None
        obj = db.create_object(kind, class_name=class_name, **attrs)
        bores = []
        for _ in range(3):
            diameter, length = rng.randrange(10, 16), rng.randrange(5, 15)
            bore = obj.subclass("Bores").create(
                Diameter=diameter, Length=length,
                Position={"X": rng.randrange(100), "Y": rng.randrange(100)},
            )
            bores.append((bore, diameter, length))
        record = dict(obj=obj, attrs=attrs, bores=bores, users=Counter())
        return record

    def populate(self, rng: random.Random) -> None:
        db = self.db
        S = self.sizes
        self.access = AccessControlManager()
        self.bolts: Dict[Tuple[int, int], Any] = {}
        self.nuts: Dict[Tuple[int, int], Any] = {}
        db.create_class("Bolts", "BoltType")
        db.create_class("Nuts", "NutType")
        db.create_class("GirderLibrary", "GirderInterface")
        for diameter in range(9, 15):
            for length in range(15, 40):
                bolt = db.create_object("BoltType", class_name="Bolts",
                                        Diameter=diameter, Length=length)
                self.access.protect_standard_object(bolt)
                self.bolts[(diameter, length)] = bolt
            for length in range(5, 12):
                nut = db.create_object("NutType", class_name="Nuts",
                                       Diameter=diameter, Length=length)
                self.access.protect_standard_object(nut)
                self.nuts[(diameter, length)] = nut
        self.girders = [self.new_part_interface(rng, "GirderInterface") for _ in range(S["girders"])]
        self.plates = [self.new_part_interface(rng, "PlateInterface") for _ in range(S["plates"])]
        self.weights = zipf_weights(S["girders"])
        self.structure_of: Dict[int, Dict[str, Any]] = {}
        # Cycles of Zipf quotas whose period is the structure window: the
        # live structures always hold exactly the quotas (see GateSession).
        window = S["structures"]
        self.girder_stream = itertools.cycle(
            quota_sequence(rng, self.girders, window * S["girders_per"]))
        self.plate_stream = itertools.cycle(
            quota_sequence(rng, self.plates, window * S["plates_per"]))
        self.structures = deque(self.new_structure(rng) for _ in range(S["structures"]))
        self.tm = TransactionManager(db, access=self.access)
        self.revisions = 0

    def check_population(self) -> None:
        for structure in self.structures:
            self.check_steel_rules(structure)

    def pick_girder(self, rng):
        return rng.choices(self.girders, self.weights)[0]

    def new_structure(self, rng, check: bool = False) -> Dict[str, Any]:
        """Assemble a structure that satisfies §5 by construction."""
        S = self.sizes
        girders = [next(self.girder_stream) for _ in range(S["girders_per"])]
        plates = [next(self.plate_stream) for _ in range(S["plates_per"])]
        plan = []
        for index in range(S["screwings_per"]):
            girder = girders[index % len(girders)]
            plate = plates[index % len(plates)]
            g_bore = girder["bores"][rng.randrange(3)]
            p_bore = plate["bores"][rng.randrange(3)]
            diameter = min(g_bore[1], p_bore[1]) - 1
            nut_length = rng.randrange(5, 12)
            bolt_length = nut_length + g_bore[2] + p_bore[2]
            plan.append((g_bore, p_bore, diameter, nut_length, bolt_length,
                         rng.randrange(1, 10)))
        designer = f"designer-{rng.randrange(8)}"
        description = f"structure {rng.randrange(10**6)}"
        self.log("structure", [g["obj"].surrogate.value for g in girders],
                 [p["obj"].surrogate.value for p in plates], [p[2:] for p in plan])
        db = self.db
        if check:
            self.start("create")
        obj = db.create_object(
            "WeightCarrying_Structure", Designer=designer, Description=description
        )
        girder_slots = [composite.add_component(obj, "Girders", g["obj"]) for g in girders]
        plate_slots = [composite.add_component(obj, "Plates", p["obj"]) for p in plates]
        screwings = []
        for g_bore, p_bore, diameter, nut_length, bolt_length, strength in plan:
            screwing = obj.subrel("Screwings").create(
                {"Bores": [g_bore[0], p_bore[0]]}, Strength=strength
            )
            bolt = composite.add_component(screwing, "Bolt", self.bolts[(diameter, bolt_length)])
            nut = composite.add_component(screwing, "Nut", self.nuts[(diameter, nut_length)])
            screwings.append(dict(obj=screwing, bolt=bolt, nut=nut, diameter=diameter,
                                  bolt_length=bolt_length, nut_length=nut_length,
                                  bores=(g_bore, p_bore)))
        if check:
            self.span("expr.check_constraints", obj.check_constraints, deep=True)
            self._create_elapsed = self.stop()
        structure = dict(obj=obj, description=description,
                         girders=list(zip(girder_slots, girders)),
                         plates=list(zip(plate_slots, plates)), screwings=screwings)
        for part in girders + plates:
            part["users"][obj.surrogate.value] += 1
        self.structure_of[obj.surrogate.value] = structure
        return structure

    def check_steel_rules(self, structure) -> None:
        """§5 by the benchmark's own arithmetic over values read through
        the program: the structure's girder and plate slots, and each
        screwing's bores and its ``Bolt`` and ``Nut`` subobjects.  The
        record gives only how many of each the structure must have."""
        obj = structure["obj"]
        girders = obj.subclass("Girders").members()
        plates = obj.subclass("Plates").members()
        screwings = obj.subrel("Screwings").members()
        slot_bores = {bore.surrogate for slot in girders + plates
                      for bore in slot.get_member("Bores")}
        broken = 0
        for slot in girders:
            length, height, width = (slot.get_member(n) for n in ("Length", "Height", "Width"))
            if not length < 100 * height * width:
                broken += 1
        for screwing in screwings:
            bolts = screwing.subclass("Bolt").members()
            nuts = screwing.subclass("Nut").members()
            if len(bolts) != 1 or len(nuts) != 1:
                broken += 1
                continue
            bolt, nut = bolts[0], nuts[0]
            bores = screwing.participant("Bores")
            diameter = bolt.get_member("Diameter")
            if diameter != nut.get_member("Diameter"):
                broken += 1
            if any(diameter > bore.get_member("Diameter") for bore in bores):
                broken += 1
            if bolt.get_member("Length") != nut.get_member("Length") + sum(
                    bore.get_member("Length") for bore in bores):
                broken += 1
            if any(bore.surrogate not in slot_bores for bore in bores):
                broken += 1
        shape = (len(structure["girders"]), len(structure["plates"]), len(structure["screwings"]))
        self.checks.expect("steel_rules", (broken, (len(girders), len(plates), len(screwings))),
                           (0, shape), "§5 relations")

    def expansion_size(self, structure) -> int:
        parts = {id(p): p for _s, p in structure["girders"] + structure["plates"]}
        slots = len(structure["girders"]) + len(structure["plates"])
        return 1 + slots + sum(1 + len(p["bores"]) for p in parts.values())

    # -- commands --------------------------------------------------------------------

    def cmd_read(self, rng) -> float:
        structure = self.structures[rng.randrange(len(self.structures))]
        self.log(structure["obj"].surrogate.value)
        pairs: List[Tuple[Any, str]] = []
        expected: List[Any] = []
        for slot, girder in structure["girders"]:
            for name in ("Length", "Height", "Width"):
                pairs.append((slot, name))
                expected.append(girder["attrs"][name])
        for slot, plate in structure["plates"]:
            pairs.append((slot, "Thickness"))
            expected.append(plate["attrs"]["Thickness"])
        for screwing in structure["screwings"]:
            pairs += [(screwing["bolt"], "Length"), (screwing["bolt"], "Diameter"),
                      (screwing["nut"], "Length"), (screwing["nut"], "Diameter")]
            expected += [screwing["bolt_length"], screwing["diameter"],
                         screwing["nut_length"], screwing["diameter"]]
        values = self.timed_reads(pairs)
        self.checks.expect("inherited_read", values, expected, "structure read")
        return self._read_elapsed

    def cmd_update(self, rng) -> float:
        if self.variant("update") == "girder":
            girder = self.pick_girder(rng)
            attrs = girder["attrs"]
            value = rng.randrange(10, 100 * attrs["Height"] * attrs["Width"])
            target, attribute = girder["obj"], "Length"
            self.log(target.surrogate.value, attribute, value)
            self.update_targets[self.girders.index(girder)] += 1
            elapsed = self.traced_update(target, attribute, value)
            attrs["Length"] = value
            user = next(iter(girder["users"]), None)
            inheritor = target
            if user is not None:
                inheritor = next(slot for slot, g in self.structure_of[user]["girders"]
                                 if g is girder)
        else:
            structure = self.structures[rng.randrange(len(self.structures))]
            self.revisions += 1
            value = f"revision {self.revisions} of {structure['description']}"
            target, attribute = structure["obj"], "Description"
            self.log(target.surrogate.value, attribute, value)
            elapsed = self.traced_update(target, attribute, value)
            structure["description"] = value
            inheritor = target
        self.checks.expect(
            "inherited_read", inheritor.get_member(attribute), value, "after update"
        )
        return elapsed

    def cmd_txn(self, rng) -> float:
        structure = self.structures[rng.randrange(len(self.structures))]
        screwing = structure["screwings"][rng.randrange(len(structure["screwings"]))]
        self.revisions += 1
        value = f"checked out {self.revisions}"
        self.log(structure["obj"].surrogate.value, value)
        tm = self.tm
        self.start("txn")
        txn = tm.begin(user="designer", persistent=True)
        locked = txn.lock_expansion(structure["obj"], LockMode.X)
        txn.read(screwing["bolt"])
        txn.set(structure["obj"], "Description", value)
        txn.commit()
        txn.checkin()
        elapsed = self.stop()
        structure["description"] = value
        checks = self.checks
        checks.expect("txn", structure["obj"].get_member("Description"), value, "after txn")
        checks.expect("txn", locked, self.expansion_size(structure), "expansion locks")
        checks.expect("txn", tm.lock_table.lock_count(), 0, "locks after checkin")
        return elapsed

    def cmd_query(self, rng) -> float:
        variant = self.variant("query")
        if variant == "bolt":
            diameter, length = rng.randrange(9, 15), rng.randrange(15, 40)
            text = f"select * from Bolts where Diameter = {diameter} and Length = {length}"
            expected = {self.bolts[(diameter, length)].surrogate.value}
        elif variant == "nut":
            diameter = rng.randrange(9, 15)
            text = f"select * from Nuts where Diameter = {diameter}"
            expected = {nut.surrogate.value for (d, _l), nut in self.nuts.items() if d == diameter}
        elif variant == "bolt_length":
            length = rng.randrange(15, 40)
            text = f"select * from Bolts where Length = {length}"
            expected = {bolt.surrogate.value for (_d, l), bolt in self.bolts.items() if l == length}
        else:
            height = rng.randrange(5, 20)
            text = f"select * from GirderLibrary where Height = {height}"
            expected = {g["obj"].surrogate.value for g in self.girders
                        if g["attrs"]["Height"] == height}
        self.log(text)
        return self.timed_query(text, expected)

    def cmd_structure(self, rng) -> float:
        structure = self.structures[rng.randrange(len(self.structures))]
        girder = self.pick_girder(rng)
        self.log(structure["obj"].surrogate.value, girder["obj"].surrogate.value)
        self.start("structure")
        expansion = composite.expand(structure["obj"])
        bom = configuration.bill_of_materials(structure["obj"])
        users = configuration.where_used(girder["obj"])
        elapsed = self.stop()
        members = {obj.surrogate for obj in expansion.objects}
        wanted = [slot for slot, _p in structure["girders"] + structure["plates"]]
        wanted += [p["obj"] for _s, p in structure["girders"] + structure["plates"]]
        missing = [obj for obj in wanted if obj.surrogate not in members]
        checks = self.checks
        checks.expect("expansion", len(missing), 0, "placed components in expansion")
        checks.expect("expansion", len(expansion.objects), self.expansion_size(structure),
                      "expansion size")
        checks.expect("bom", dict(bom), {"GirderInterface": len(structure["girders"]),
                                         "PlateInterface": len(structure["plates"])},
                      "bill of materials")
        checks.expect("where_used", {obj.surrogate.value for obj in users},
                      {v for v, n in girder["users"].items() if n > 0}, "where used")
        return elapsed

    def cmd_create(self, rng) -> float:
        structure = self.new_structure(rng, check=True)
        self.check_steel_rules(structure)
        self.structures.append(structure)
        self.retire(self.structures.popleft())
        return self._create_elapsed

    def retire(self, structure) -> None:
        """Delete the oldest structure so the design keeps its size
        (upkeep outside the timed section)."""
        key = structure["obj"].surrogate.value
        for _slot, part in structure["girders"] + structure["plates"]:
            part["users"][key] -= 1
            if part["users"][key] == 0:
                del part["users"][key]
        del self.structure_of[key]
        structure["obj"].delete()

    def cmd_version(self, rng) -> float:
        if self.variant("version") == "girder":
            part = self.girders[rng.randrange(len(self.girders))]
            attrs = part["attrs"]
            left_edit = ("Length", other_value(
                rng, 10, 100 * attrs["Height"] * attrs["Width"], attrs["Length"]))
            right_edit = ("Height", attrs["Height"] + 1)
        else:
            part = self.plates[rng.randrange(len(self.plates))]
            attrs = part["attrs"]
            left_edit = ("Thickness", other_value(rng, 5, 30, attrs["Thickness"]))
            right_edit = ("Area", {"Length": other_value(rng, 20, 200, attrs["Area"]["Length"]),
                                   "Width": rng.randrange(20, 200)})
        base = part["obj"]
        self.log(base.surrogate.value, left_edit, right_edit)
        self.start("version")
        graph = VersionGraph(design_object=base)
        graph.add_version(base)
        left = version_diff.derive_version(graph, base)
        right = version_diff.derive_version(graph, base)
        left.set_attribute(*left_edit)
        right.set_attribute(*right_edit)
        left_diff = version_diff.diff_versions(base, left)
        right_diff = version_diff.diff_versions(base, right)
        merged = version_merge.merge_versions(graph, base, left, right)
        elapsed = self.stop()
        self.check_merge(
            left_diff, right_diff, merged,
            [(left_edit[0], "attribute", attrs[left_edit[0]], left_edit[1])],
            [(right_edit[0], "attribute", attrs[right_edit[0]], right_edit[1])],
            dict((left_edit, right_edit)),
        )
        self.checks.expect(
            "constraints", self.constraint_errors(merged.merged), [], "merged part"
        )
        for version in (merged.merged, left, right):
            version.delete()
        return elapsed

    @staticmethod
    def constraint_errors(obj) -> List[str]:
        try:
            obj.check_constraints(deep=True)
        except ConstraintViolation as exc:
            return [str(exc)]
        return []

    def cmd_checkpoint(self, rng) -> float:
        sample = [self.structures[rng.randrange(len(self.structures))] for _ in range(4)]
        self.log("checkpoint", [s["obj"].surrogate.value for s in sample])

        def read_back(by_value):
            got, expected = [], []
            for structure in sample:
                for slot, girder in structure["girders"]:
                    got.append(by_value[slot.surrogate.value].get_member("Length"))
                    expected.append(girder["attrs"]["Length"])
                for screwing in structure["screwings"]:
                    loaded = by_value[screwing["bolt"].surrogate.value]
                    got += [loaded.get_member("Length"), loaded.get_member("Diameter")]
                    expected += [screwing["bolt_length"], screwing["diameter"]]
            self.checks.expect("reload_read", got, expected, "reloaded reads")

        return self.checkpoint(read_back)


WORKLOADS = {
    "edit": (GateSession, False),
    "edit_observed": (GateSession, True),
    "assemble": (SteelSession, False),
}


def rounds_for(workload: str, seconds: float) -> int:
    """Whole rounds that fill about ``seconds`` on the reference machine."""
    family = WORKLOADS[workload][0].family
    return max(1, round(seconds / ROUND_SECONDS[family]))


def make_session(workload: str, seed: int, workdir: str, scale: str = "full",
                 perturb=()) -> Session:
    cls, observe = WORKLOADS[workload]
    return cls(workload, seed, workdir, scale=scale, observe=observe, perturb=perturb)


def scratch_dir(root: str) -> str:
    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=root)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
