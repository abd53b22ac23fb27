"""Outside-in span tracing for the benchmark's traced runs.

The program carries no host-time tracing of its own, so this module wraps
the public calls of each layer from the outside: every wrapper is installed
where the caller looks the name up (a module global such as
``repro.serve.jobs.assemble``, a class attribute such as
``BatchRunner.run``, or an entry of a dispatch table such as
``ALL_KERNEL_BUILDERS``), and :meth:`Tracer.uninstall` puts every original
back.  Untraced runs never import this module's wrappers.

Spans are kept in memory as ``(name, start_ns, end_ns, parent, request_id,
leaf_ns)`` tuples and written out when the run ends.  The PE-array and
reduction-tree methods are called several times per simulated instruction,
so they are *leaf* layers: each call adds to a per-layer total and to the
enclosing span's ``leaf_ns`` instead of recording a span of its own.

A layer's self time is its spans' durations minus their child spans and
leaf time.  :func:`layer_report` turns the spans into per-request means and
counts; together with the transport gaps and the ``other`` bucket the self
times sum to the measured request wall time.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter_ns


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list = []
        self.rid = -1
        self.in_leaf = False


def line_id(line: str) -> int:
    """Request id of a client line formatted as ``{"id": N, ...}``."""
    try:
        return int(line[7:line.index(",")])
    except ValueError:
        return -1


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list = []
        self.leaf: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.requests: list[tuple[int, int, int]] = []
        self._state = _ThreadState()
        self._undo: list = []

    # -- recording --------------------------------------------------------

    def set_rid(self, rid: int) -> None:
        """Tag the calling thread's next spans with request ``rid``."""
        self._state.rid = rid

    def request(self, rid: int, send_ns: int, recv_ns: int) -> None:
        """Record one request's client-side wall interval."""
        self.requests.append((rid, send_ns, recv_ns))

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _span_fn(self, fn, name, namer=None, before=None, after=None,
                 rid_of=None):
        spans = self.spans
        state = self._state

        def wrapped(*args, **kwargs):
            if rid_of is not None:
                state.rid = rid_of(args)
            token = before(args) if before is not None else None
            stack = state.stack
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0]
            stack.append(frame)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                label = (namer(args, token, result) if namer is not None
                         else name)
                spans[idx] = (label, start, end, parent, state.rid, frame[1])
            if after is not None:
                after(args, result, token)
            return result

        return wrapped

    def _leaf_fn(self, fn, name):
        agg = self.leaf.setdefault(name, [0, 0])
        state = self._state

        def wrapped(*args, **kwargs):
            if state.in_leaf:
                return fn(*args, **kwargs)
            state.in_leaf = True
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                state.in_leaf = False
                agg[0] += 1
                agg[1] += elapsed
                stack = state.stack
                if stack:
                    stack[-1][1] += elapsed

        return wrapped

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr, make) -> None:
        """Wrap ``owner.attr`` (module, class or dict entry) via ``make``."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make(original)
            self._undo.append(lambda: owner.__setitem__(attr, original))
            return
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
            self._undo.append(lambda: setattr(owner, attr, raw))
            return
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append(lambda: setattr(owner, attr, original))

    def span(self, owner, attr, name=None, **hooks) -> None:
        self._replace(owner, attr,
                      lambda fn: self._span_fn(fn, name, **hooks))

    def leaf_call(self, owner, attr, name) -> None:
        self._replace(owner, attr, lambda fn: self._leaf_fn(fn, name))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """Write spans, leaf totals, counts and request intervals as JSON."""
        names = sorted({s[0] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "span_fields": ["name", "start_ns", "end_ns", "parent",
                            "request", "leaf_ns"],
            "names": names,
            "spans": [[index[s[0]], *s[1:]] for s in self.spans
                      if s is not None],
            "leaf": self.leaf,
            "counts": self.counts,
            "requests": self.requests,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install_layers(tracer: Tracer) -> None:
    """Wrap the public calls of every measured layer (see README.md)."""
    import repro.analysis.timing as timing
    import repro.assoc.fastpath as fastpath
    import repro.core.processor as processor
    import repro.dse.runner as dse_runner
    import repro.dse.spec as dse_spec
    import repro.network.reduction as reduction
    import repro.pe.pe_array as pe_array
    import repro.programs.kernels as kernels
    import repro.serve.batch as batch
    import repro.serve.cache as cache
    import repro.serve.dispatch as dispatch
    import repro.serve.jobs as jobs
    import repro.serve.pool as pool
    import repro.serve.snapshot as snapshot

    t = tracer
    t.span(dispatch.Dispatcher, "handle_line", "dispatch",
           rid_of=lambda args: line_id(args[1]))
    t.span(dispatch, "jobs_from_json", "jobs.validate")
    t.span(jobs.Job, "prepare", "jobs.prepare")
    for kernel in list(kernels.ALL_KERNEL_BUILDERS):
        t.span(kernels.ALL_KERNEL_BUILDERS, kernel, "programs.build")
    t.span(jobs, "assemble", "asm.assemble",
           after=lambda a, prog, _: t.count("asm.instructions",
                                            len(prog.instructions)))
    t.span(jobs, "job_key", "identity.key")
    t.span(batch.BatchRunner, "run", "batch")

    def evictions(args):
        return args[0].stats.evictions

    def count_evictions(args, _result, before):
        t.count("cache.evictions", args[0].stats.evictions - before)

    tiers = {"memory": "memory_hit", "disk": "disk_hit", "miss": "miss"}

    def lookup_tier(_args, _token, result):
        return "cache." + tiers[result[1] if result else "miss"]

    def after_lookup(args, result, before):
        t.count({"memory": "cache.memory_hits", "disk": "cache.disk_hits",
                 "miss": "cache.misses"}[result[1]])
        count_evictions(args, result, before)

    t.span(cache.ResultCache, "lookup", before=evictions, namer=lookup_tier,
           after=after_lookup)
    t.span(cache.ResultCache, "put", "cache.put", before=evictions,
           after=lambda a, r, b: (t.count("cache.stores"),
                                  count_evictions(a, r, b)))
    t.span(snapshot.ResultSnapshot, "from_result", "snapshot.build")
    t.span(cache, "pack_snapshot", "snapshot.pack",
           after=lambda a, blob, _: t.count("snapshot.bytes", len(blob)))
    t.span(cache, "unpack_snapshot", "snapshot.unpack",
           after=lambda a, _r, _t: t.count("snapshot.bytes", len(a[0])))
    t.span(batch, "run_prepared", "pool.run",
           after=lambda a, _r, _t: t.count("pool.submitted", len(a[0])))
    t.span(pool, "execute_prepared", "pool.execute",
           after=lambda a, _r, _t: t.count("pool.computed"))

    def count_run(prefix):
        def after(_args, result, _token):
            t.count(f"{prefix}.cycles", result.stats.cycles)
            t.count(f"{prefix}.instructions", result.stats.instructions)
        return after

    t.span(processor.Processor, "run", "core", after=count_run("core"))
    for method in ("read_reg", "write_reg", "read_flag", "write_flag",
                   "load", "store", "set_lmem_column", "get_lmem_column",
                   "reset", "enable_parity", "parity_mismatch"):
        t.leaf_call(pe_array.PEArray, method, "pe")
    for mnemonic in list(reduction.REDUCTION_FNS):
        # Entries are (function, source regfile) pairs.
        t._replace(reduction.REDUCTION_FNS, mnemonic,
                   lambda entry: (t._leaf_fn(entry[0], "network"), entry[1]))
    for fn_name in ("count_responders", "any_responders", "resolve_first"):
        t.leaf_call(reduction, fn_name, "network")

    def spawns(args):
        prog = args[1] if len(args) > 1 and args[1] is not None \
            else args[0].program
        return any(ins.mnemonic == "tspawn" for ins in prog.instructions)

    t.span(fastpath.FastMachine, "run", before=spawns,
           namer=lambda _a, spawn, _r: "assoc.cosim" if spawn
           else "assoc.folded",
           after=count_run("assoc"))
    t.span(fastpath, "TimingAnalysis", "timing.analysis")
    t.span(timing.TimingAnalysis, "fold", "timing.fold")
    t.span(dse_spec.SweepSpec, "from_json", "dse.expand")
    t.span(dse_spec.SweepSpec, "expand", "dse.expand")

    def after_sweep(_args, report, _token):
        t.count("dse.points", len(report.outcomes))
        t.count("dse.fit_points", sum(1 for o in report.outcomes
                                      if o.status != "unfit"))
        t.count("dse.frontier_size", len(report.frontier_ids))
        t.count("dse.fallbacks", report.ops.get("backend_fallbacks", 0))

    t.span(dse_runner.DseRunner, "sweep", "dse.sweep", after=after_sweep)
    t.span(dse_runner, "pareto_frontier", "dse.pareto")
    t.span(dse_runner, "total_resources", "fpga.fit")
    t.span(dse_runner, "fits", "fpga.fit")
    t.span(dse_runner, "fmax_mhz", "fpga.fmax")
    t.span(dse_runner, "power_report", "fpga.power")


#: Layers in report order; ``other`` is the request time no span covers.
LAYERS = ("net", "dispatch", "jobs", "programs", "asm", "identity", "batch",
          "cache", "snapshot", "pool", "core", "pe", "network", "assoc",
          "timing", "dse", "fpga", "other")


def layer_report(tracer: Tracer, transport: str) -> dict:
    """Per-layer metrics of one traced phase, and a printed self-time table.

    Times are per-request means in ms (self time unless the name says
    otherwise); counts are totals over the phase.
    """
    spans = tracer.spans
    child = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    own: dict[str, int] = {}
    incl: dict[str, int] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, _parent, _rid, leaf) in enumerate(spans):
        own[name] = own.get(name, 0) + end - start - child[i] - leaf
        incl[name] = incl.get(name, 0) + end - start
        calls[name] = calls.get(name, 0) + 1
    requests = len(tracer.requests)
    wall = sum(recv - send for _rid, send, recv in tracer.requests)
    wait = reply = 0
    if transport == "tcp":
        roots = {s[4]: s for s in spans if s[0] == "dispatch" and s[3] < 0}
        for rid, send, recv in tracer.requests:
            wait += roots[rid][1] - send
            reply += recv - roots[rid][2]
    leaf = {name: tracer.leaf.get(name, [0, 0]) for name in ("pe", "network")}

    by_layer = {layer: 0 for layer in LAYERS}
    for name, ns in own.items():
        by_layer[name.split(".")[0]] += ns
    for name, (_calls, ns) in leaf.items():
        by_layer[name] += ns
    by_layer["net"] = wait + reply
    by_layer["other"] = wall - sum(by_layer.values())

    count = tracer.counts.get

    def ms(ns: int) -> float:
        return ns / requests / 1e6

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    hits = count("cache.memory_hits", 0) + count("cache.disk_hits", 0)
    lookups = hits + count("cache.misses", 0)
    assoc_ns = incl.get("assoc.cosim", 0) + incl.get("assoc.folded", 0)
    out = {
        "net.wait_ms": ms(wait),
        "net.reply_ms": ms(reply),
        "dispatch.self_ms": ms(own.get("dispatch", 0)),
        "dispatch.requests": calls.get("dispatch", 0),
        "jobs.validate_ms": ms(own.get("jobs.validate", 0)),
        "jobs.prepare_self_ms": ms(own.get("jobs.prepare", 0)),
        "programs.build_ms": ms(own.get("programs.build", 0)),
        "asm.assemble_ms": ms(own.get("asm.assemble", 0)),
        "asm.instructions": count("asm.instructions", 0),
        "identity.key_ms": ms(own.get("identity.key", 0)),
        "batch.self_ms": ms(own.get("batch", 0)),
        "cache.memory_hit_ms": ms(own.get("cache.memory_hit", 0)),
        "cache.disk_hit_ms": ms(own.get("cache.disk_hit", 0)),
        "cache.miss_ms": ms(own.get("cache.miss", 0)),
        "cache.put_ms": ms(own.get("cache.put", 0)),
        "cache.memory_hits": count("cache.memory_hits", 0),
        "cache.disk_hits": count("cache.disk_hits", 0),
        "cache.misses": count("cache.misses", 0),
        "cache.stores": count("cache.stores", 0),
        "cache.evictions": count("cache.evictions", 0),
        "cache.hit_ratio": ratio(hits, lookups),
        "snapshot.build_ms": ms(own.get("snapshot.build", 0)),
        "snapshot.pack_ms": ms(own.get("snapshot.pack", 0)),
        "snapshot.unpack_ms": ms(own.get("snapshot.unpack", 0)),
        "snapshot.bytes": count("snapshot.bytes", 0),
        "pool.execute_ms": ms(incl.get("pool.execute", 0)),
        "pool.self_ms": ms(own.get("pool.run", 0)
                           + own.get("pool.execute", 0)),
        "pool.computed": count("pool.computed", 0),
        "pool.retries": count("pool.computed", 0)
        - count("pool.submitted", 0),
        "core.run_ms": ms(own.get("core", 0)),
        "core.ns_per_cycle": ratio(incl.get("core", 0),
                                   count("core.cycles", 0)),
        "core.ns_per_instruction": ratio(incl.get("core", 0),
                                         count("core.instructions", 0)),
        "core.cycles": count("core.cycles", 0),
        "core.instructions": count("core.instructions", 0),
        "core.ipc": ratio(count("core.instructions", 0),
                          count("core.cycles", 0)),
        "pe.datapath_ms": ms(leaf["pe"][1]),
        "pe.calls": leaf["pe"][0],
        "network.reduce_ms": ms(leaf["network"][1]),
        "network.calls": leaf["network"][0],
        "assoc.cosim_ms": ms(own.get("assoc.cosim", 0)),
        "assoc.folded_ms": ms(own.get("assoc.folded", 0)),
        "assoc.ns_per_instruction": ratio(assoc_ns,
                                          count("assoc.instructions", 0)),
        "timing.analysis_ms": ms(own.get("timing.analysis", 0)),
        "timing.fold_ms": ms(own.get("timing.fold", 0)),
        "dse.expand_ms": ms(own.get("dse.expand", 0)),
        "dse.self_ms": ms(own.get("dse.sweep", 0)),
        "dse.pareto_ms": ms(own.get("dse.pareto", 0)),
        "dse.points": count("dse.points", 0),
        "dse.fit_points": count("dse.fit_points", 0),
        "dse.frontier_size": count("dse.frontier_size", 0),
        "dse.fallbacks": count("dse.fallbacks", 0),
        "fpga.fit_ms": ms(own.get("fpga.fit", 0)),
        "fpga.fmax_ms": ms(own.get("fpga.fmax", 0)),
        "fpga.power_ms": ms(own.get("fpga.power", 0)),
        "other_ms": ms(by_layer["other"]),
        "request.wall_ms": ms(wall),
        "trace.attributed": ratio(wall - by_layer["other"], wall),
        "trace.requests": requests,
    }
    print(f"layer self time over {requests} traced requests "
          f"(mean {ms(wall):.4f} ms per request):")
    print(f"  {'layer':<10} {'ms/request':>11} {'share':>7}")
    for layer in LAYERS:
        print(f"  {layer:<10} {ms(by_layer[layer]):>11.4f} "
              f"{ratio(by_layer[layer], wall):>7.1%}")
    return out
