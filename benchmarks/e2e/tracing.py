"""Per-layer tracing for the end-to-end benchmark, installed from outside.

:class:`Tracer` replaces each layer-boundary function with a timing
wrapper, in the namespace of the module that calls it (for example
``repro.campaign.worker.canonical_hash``), so the program itself is
unchanged.  Forked campaign workers inherit the wrappers; the serve child
installs them through ``serve_launcher.py``.

Every boundary keeps a per-thread stack: a call's *self* time is its
duration minus the time of the boundaries nested in it, so the self times
of all layers add up to the traced work.  Request-level boundaries (a
shard, a corpus function, a mutant, a serve request) also record a span
in a private :class:`repro.diag.SpanCollector` per thread; it is never
installed as the current collector, so the program's own spans stay off.
The self times of the fine-grained boundaries nested in a span land in
that span's phase table, which is how per-input work such as
``enumerate_behaviors`` is recorded: as a count and a time, not as one
record per call.  Spans carry the corpus index or the request sequence
number as ``rid``.

:meth:`Tracer.dump` writes ``layers-*.json`` (per-layer calls, total and
self seconds) and ``spans/spans-*.jsonl`` when each shard or run ends;
``python -m repro diag top --out DIR`` renders the spans.
"""

from __future__ import annotations

import contextvars
import glob
import importlib
import json
import os
import threading
import time
from typing import Callable, Dict, List

#: request id of the work running in this context: a corpus index in
#: campaigns and lint-attack, the frame id (the request's sequence number
#: in the benchmark's plan) in the serve child.
RID: contextvars.ContextVar = contextvars.ContextVar("bench_rid",
                                                     default=None)

#: the o2 pipeline's passes, in pipeline order.
O2_PASSES = ("mem2reg", "simplifycfg", "instcombine", "inline", "sccp",
             "reassociate", "gvn", "early-cse", "licm", "loop-unswitch",
             "freeze-opts", "dce")

#: every layer the wrappers time, in report order.
LAYERS = (
    "fuzz.generate", "fuzz.seed", "ir.print", "ir.parse", "ir.verify",
    "campaign.shard", "campaign.worker", "campaign.canon",
    "campaign.checkpoint", "opt.pipeline", "opt.snapshot", "diag.timing",
    *(f"opt.pass.{name}" for name in O2_PASSES),
    "refine", "refine.vector", "semantics.interp", "perf.memo.load",
    "perf.memo", "perf.memo.refresh", "mutate", "mutate.ground_truth",
    "lint", "serve.refine", "serve.lint",
)

#: (module, attribute, layer) for plain function boundaries.
_FUNCTIONS = (
    ("repro.campaign.worker", "print_module", "ir.print"),
    ("repro.campaign.worker", "print_function", "ir.print"),
    ("repro.campaign.worker", "parse_function", "ir.parse"),
    ("repro.campaign.worker", "verify_function", "ir.verify"),
    ("repro.campaign.worker", "canonical_hash", "campaign.canon"),
    ("repro.campaign.worker", "check_refinement", "refine"),
    ("repro.campaign.canon", "parse_function", "ir.parse"),
    ("repro.campaign.canon", "parse_module", "ir.parse"),
    ("repro.campaign.canon", "print_function", "ir.print"),
    ("repro.campaign.canon", "print_module", "ir.print"),
    ("repro.opt.resilience.guard", "clone_function", "opt.snapshot"),
    ("repro.opt.resilience.guard", "discard_snapshot", "opt.snapshot"),
    ("repro.opt.resilience.guard", "restore_function", "opt.snapshot"),
    ("repro.refine.vector", "check_refinement_vector", "refine.vector"),
    ("repro.refine.exhaustive", "enumerate_behaviors", "semantics.interp"),
    ("repro.campaign.lint_attack", "mutate_function", "mutate"),
    ("repro.mutate.ground_truth", "enumerate_behaviors", "semantics.interp"),
    ("repro.mutate.ground_truth", "lint_function", "lint"),
    ("repro.mutate.ground_truth", "parse_module", "ir.parse"),
    ("repro.mutate.ground_truth", "print_function", "ir.print"),
    ("repro.mutate.mutators", "parse_module", "ir.parse"),
    ("repro.mutate.mutators", "print_function", "ir.print"),
    ("repro.mutate.mutators", "print_module", "ir.print"),
    ("repro.lint.engine", "lint_function", "lint"),
    ("repro.serve.service", "parse_module", "ir.parse"),
    # refine-pair requests import parse_function from the package at
    # call time
    ("repro.ir", "parse_function", "ir.parse"),
)

#: (module, attribute, layer) for request-level boundaries (spans).
_SPANS = (
    ("repro.campaign.worker", "check_function", "campaign.worker"),
    ("repro.campaign.lint_attack", "classify_mutation",
     "mutate.ground_truth"),
    # refine-pair requests
    ("repro.serve.service", "check_refinement", "refine"),
    ("repro.serve.service", "lint_module", "serve.lint"),
)

#: (module, class, method, layer) for method boundaries.
_METHODS = (
    ("repro.opt.resilience.guard", "GuardedPassManager", "run_on_function",
     "opt.pipeline"),
    ("repro.perf.memo", "RefinementMemo", "lookup", "perf.memo"),
    ("repro.perf.memo", "RefinementMemo", "record", "perf.memo"),
    ("repro.perf.memo", "RefinementMemo", "flush", "perf.memo"),
    ("repro.perf.memo", "RefinementMemo", "refresh", "perf.memo.refresh"),
    ("repro.campaign.checkpoint", "CheckpointStore", "append_dedup",
     "campaign.checkpoint"),
)


def _no_samples() -> Dict[str, object]:
    """Raw samples: shard id -> ``time.monotonic()`` instant for
    ``shard_return`` (worker side) and ``finalize`` (parent side); lists
    for the serve batcher."""
    return {"shard_return": {}, "finalize": {},
            "batch_wait": [], "batch_size": []}


def _add_rows(dest: Dict[str, List[float]],
              rows: Dict[str, List[float]]) -> None:
    """Sum ``layer -> [calls, total, self]`` rows into ``dest``."""
    for layer, (calls, total, own) in rows.items():
        row = dest.setdefault(layer, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += total
        row[2] += own


class _ThreadState:
    """One thread's boundary stack, layer totals and span collector."""

    def __init__(self, label: str):
        from repro.diag import SpanCollector

        #: open boundaries: [layer, start, nested seconds, span or None]
        self.stack: List[list] = []
        #: open spans, innermost last (phase attribution target)
        self.spans: List[object] = []
        #: layer -> [calls, total seconds, self seconds]
        self.layers: Dict[str, List[float]] = {}
        self.collector = SpanCollector(pid=os.getpid(), label=label,
                                       keep=True)


class Tracer:
    """Boundary wrappers plus their per-process layer accounting."""

    def __init__(self, out_dir: str,
                 clock: Callable[[], float] = time.perf_counter):
        self.out_dir = out_dir
        self.clock = clock
        self._patched: List[tuple] = []
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._threads_lock = threading.Lock()
        self.samples = _no_samples()
        #: serve: id(source text) -> (request id, submit instant)
        self._pending: Dict[int, tuple] = {}
        self._dumps = 0

    def forked(self) -> None:
        """Drop state inherited from the parent process after a fork."""
        if os.getpid() != self.pid:
            self._reset()

    # -- the boundary stack ---------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._threads_lock:
                self._threads.append(state)
        return state

    def enter(self, layer: str, span: bool = False) -> None:
        state = self._state()
        sp = None
        if span:
            sp = state.collector.span(layer, cat="bench")
            sp.__enter__()
            rid = RID.get()
            if rid is not None:
                sp.set(rid=rid)
            state.spans.append(sp)
        state.stack.append([layer, self.clock(), 0.0, sp])

    def exit(self) -> None:
        now = self.clock()
        state = self._local.state
        layer, start, nested, sp = state.stack.pop()
        duration = now - start
        own = duration - nested
        row = state.layers.get(layer)
        if row is None:
            row = state.layers[layer] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += own
        if state.stack:
            state.stack[-1][2] += duration
        if sp is not None:
            state.spans.pop()
            sp.__exit__(None, None, None)
        elif state.spans:
            holder = state.spans[-1]
            if holder.phases is None:
                holder.phases = {}
            entry = holder.phases.get(layer)
            if entry is None:
                entry = holder.phases[layer] = [0, 0.0]
            entry[0] += 1
            entry[1] += own

    def wrap(self, fn: Callable, layer: str, span: bool = False) -> Callable:
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            enter(layer, span)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    # -- installation ---------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every boundary.  All target modules are imported before
        any is patched, so no module binds a wrapper at import time."""
        modules = {name: importlib.import_module(name) for name in (
            "repro.ir", "repro.campaign.worker", "repro.campaign.canon",
            "repro.campaign.executor", "repro.campaign.checkpoint",
            "repro.campaign.lint_attack", "repro.opt.resilience.guard",
            "repro.diag.timing", "repro.refine.exhaustive",
            "repro.refine.vector", "repro.perf.memo",
            "repro.mutate.ground_truth", "repro.mutate.mutators",
            "repro.lint.engine", "repro.serve.server", "repro.serve.service",
            "repro.serve.queueing")}
        for module, attr, layer in _FUNCTIONS:
            owner = modules[module]
            self._patch(owner, attr, self.wrap(getattr(owner, attr), layer))
        for module, attr, layer in _SPANS:
            owner = modules[module]
            self._patch(owner, attr,
                        self.wrap(getattr(owner, attr), layer, span=True))
        for module, cls, method, layer in _METHODS:
            owner = getattr(modules[module], cls)
            self._patch(owner, method,
                        self.wrap(getattr(owner, method), layer))
        self._install_campaign(modules)
        self._install_serve(modules)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _install_campaign(self, modules) -> None:
        tracer = self
        worker = modules["repro.campaign.worker"]
        executor = modules["repro.campaign.executor"]
        lint_attack = modules["repro.campaign.lint_attack"]

        for owner, attr in ((executor, "run_shard"),
                            (lint_attack, "run_attack_shard")):
            self._patch(owner, attr, self._shard_wrapper(getattr(owner, attr)))

        iter_shard_functions = worker.iter_shard_functions

        def traced_functions(spec, shard):
            # one fuzz.generate call per corpus function; the index is
            # the request id of the function's spans
            functions = iter_shard_functions(spec, shard)
            index = shard.start
            while True:
                tracer.enter("fuzz.generate")
                try:
                    fn = next(functions)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                RID.set(index)
                index += 1
                yield fn

        self._patch(worker, "iter_shard_functions", traced_functions)

        attack_spec = lint_attack.AttackSpec
        seed_at = attack_spec.seed_at

        def traced_seed_at(spec, position):
            RID.set(spec.corpus_index(position))
            tracer.enter("fuzz.seed")
            try:
                return seed_at(spec, position)
            finally:
                tracer.exit()

        self._patch(attack_spec, "seed_at", traced_seed_at)

        store = modules["repro.campaign.checkpoint"].CheckpointStore
        append = store.append

        def traced_append(store_self, record):
            # the parent's finalize step for one returned shard
            tracer.samples["finalize"][record.get("shard_id")] = \
                time.monotonic()
            tracer.enter("campaign.checkpoint")
            try:
                return append(store_self, record)
            finally:
                tracer.exit()

        self._patch(store, "append", traced_append)

        for module in (worker, modules["repro.serve.service"]):
            memo_class = module.RefinementMemo
            self._patch(module, "RefinementMemo",
                        self.wrap(memo_class, "perf.memo.load"))

        timing = modules["repro.diag.timing"].PassTiming
        measure = timing.measure

        def traced_measure(timing_self, pass_name, function):
            return _TimedMeasure(tracer, measure, timing_self, pass_name,
                                 function)

        self._patch(timing, "measure", traced_measure)

    def _shard_wrapper(self, run: Callable) -> Callable:
        tracer = self

        def traced_shard(spec, shard, known_hashes=None):
            tracer.forked()
            RID.set(None)
            tracer.enter("campaign.shard", span=True)
            try:
                return run(spec, shard, known_hashes)
            finally:
                tracer.exit()
                tracer.samples["shard_return"][shard.shard_id] = \
                    time.monotonic()
                tracer.dump()

        return traced_shard

    def _install_serve(self, modules) -> None:
        tracer = self
        server = modules["repro.serve.server"]
        service = modules["repro.serve.service"]
        batcher = modules["repro.serve.queueing"].Batcher

        validate_request = server.validate_request

        def traced_validate(frame):
            request = validate_request(frame)
            RID.set(request[0])
            return request

        self._patch(server, "validate_request", traced_validate)

        submit = batcher.submit

        async def traced_submit(batcher_self, key, item):
            # refine items are (spec, source, deadline); the source
            # object identifies the item until check_source runs it
            tracer._pending[id(item[1])] = (RID.get(), time.monotonic())
            return await submit(batcher_self, key, item)

        self._patch(batcher, "submit", traced_submit)

        run_batch = service.ValidationService._run_refine_batch

        async def traced_run_batch(service_self, lane, batch):
            now = time.monotonic()
            tracer.samples["batch_size"].append(len(batch))
            for item, _future in batch:
                pending = tracer._pending.get(id(item[1]))
                if pending is not None:
                    tracer.samples["batch_wait"].append(now - pending[1])
            return await run_batch(service_self, lane, batch)

        self._patch(service.ValidationService, "_run_refine_batch",
                    traced_run_batch)

        check_source = service.check_source

        def traced_check_source(spec, src_text, *args, **kwargs):
            pending = tracer._pending.pop(id(src_text), None)
            RID.set(pending[0] if pending else None)
            tracer.enter("serve.refine", span=True)
            try:
                return check_source(spec, src_text, *args, **kwargs)
            finally:
                tracer.exit()

        self._patch(service, "check_source", traced_check_source)

    # -- output ---------------------------------------------------------------
    def dump(self) -> None:
        """Write this process's layer totals and spans, then clear them
        (open boundaries stay open)."""
        from repro.diag.spans import SPAN_SCHEMA

        tag = f"{os.getpid()}-{self._dumps}"
        self._dumps += 1
        layers: Dict[str, List[float]] = {}
        span_dir = os.path.join(self.out_dir, "spans")
        os.makedirs(span_dir, exist_ok=True)
        with self._threads_lock:
            states = list(self._threads)
        with open(os.path.join(span_dir, f"spans-{tag}.jsonl"), "w",
                  encoding="utf-8") as out:
            for state in states:
                _add_rows(layers, state.layers)
                state.layers = {}
                spans = state.collector.spans
                state.collector.spans = []
                if not spans:
                    continue
                out.write(json.dumps({
                    "kind": "meta", "schema": SPAN_SCHEMA,
                    "pid": os.getpid(), "os_pid": os.getpid(),
                    "label": f"{os.getpid()} {state.collector.label}",
                }) + "\n")
                out.write(json.dumps([s.as_dict() for s in spans]) + "\n")
        samples = self.samples
        with open(os.path.join(self.out_dir, f"layers-{tag}.json"), "w",
                  encoding="utf-8") as out:
            json.dump({"layers": layers, "samples": samples}, out)
        self.samples = _no_samples()


class _TimedMeasure:
    """``PassTiming.measure`` split in two layers: ``diag.timing`` is the
    timing machinery itself, ``opt.pass.<name>`` the pass it times."""

    __slots__ = ("tracer", "measure", "args", "inner", "layer")

    def __init__(self, tracer: Tracer, measure, timing, pass_name, function):
        self.tracer = tracer
        self.measure = measure
        self.args = (timing, pass_name, function)
        self.layer = "opt.pass." + pass_name

    def __enter__(self):
        self.tracer.enter("diag.timing")
        self.inner = self.measure(*self.args)
        handle = self.inner.__enter__()
        self.tracer.enter(self.layer)
        return handle

    def __exit__(self, *exc):
        self.tracer.exit()
        try:
            return self.inner.__exit__(*exc)
        finally:
            self.tracer.exit()


# -- reading a traced round back ---------------------------------------------
def load_round(out_dir: str) -> dict:
    """Merge every ``layers-*.json`` under ``out_dir``."""
    layers: Dict[str, List[float]] = {}
    samples = _no_samples()
    for path in sorted(glob.glob(os.path.join(out_dir, "layers-*.json"))):
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
        _add_rows(layers, data["layers"])
        for name, values in data["samples"].items():
            if isinstance(values, dict):
                samples[name].update(values)
            else:
                samples[name].extend(values)
    return {"layers": layers, "samples": samples}


def handoffs(samples: dict) -> List[float]:
    """Seconds from each shard's return in a worker to its finalize step
    in the parent (shards seen on both sides)."""
    returned, finalized = samples["shard_return"], samples["finalize"]
    return [finalized[sid] - t for sid, t in returned.items()
            if sid in finalized]


def busy_seconds(layers: Dict[str, List[float]]) -> float:
    """Summed shard time across workers."""
    return layers.get("campaign.shard", [0, 0.0, 0.0])[1]


def merge_layers(rounds: List[dict]) -> dict:
    """Pool the layer totals and samples of several traced rounds."""
    layers: Dict[str, List[float]] = {}
    samples: Dict[str, list] = {"handoff": [], "batch_wait": [],
                                "batch_size": []}
    for data in rounds:
        _add_rows(layers, data["layers"])
        samples["handoff"].extend(handoffs(data["samples"]))
        samples["batch_wait"].extend(data["samples"]["batch_wait"])
        samples["batch_size"].extend(data["samples"]["batch_size"])
    return {"layers": layers, "samples": samples}


def layer_metrics(layers: Dict[str, List[float]], items: int
                  ) -> Dict[str, float]:
    """``<layer>.calls`` (calls per item) and ``<layer>.self_us`` (self
    microseconds per item) for every layer; 0 where the workload does not
    run the layer."""
    out: Dict[str, float] = {}
    for layer in LAYERS:
        calls, _total, own = layers.get(layer, (0, 0.0, 0.0))
        if not layer.startswith("opt.pass."):
            out[f"{layer}.calls"] = calls / items
        out[f"{layer}.self_us"] = own * 1e6 / items
    return out


def top_rows(layers: Dict[str, List[float]]) -> List[tuple]:
    """``(layer, calls, total s, self s)`` rows, largest self time first."""
    rows = [(layer, int(calls), total, own)
            for layer, (calls, total, own) in layers.items()]
    return sorted(rows, key=lambda row: -row[3])
