"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``asm``      assemble a .s file to a hex word listing
``disasm``   disassemble a hex word listing
``run``      run a program on the cycle-accurate simulator
``profile``  run under the cycle profiler; text report / JSON / trace
``lint``     static hazard/dataflow analysis of a program
``verify``   translation-validate the static scheduler on a program
``faultsim`` seeded fault-injection campaign over a library kernel
``batch``    run a JSON jobs file through the cache + worker pool
``serve``    long-lived JSON-lines simulation service on stdin/stdout
``info``     machine configuration, resource usage, device fit
``isa``      print the instruction-set reference

``run --sanitize`` attaches the vector-clock race sanitizer
(:mod:`repro.core.sanitizer`) to the simulation and exits 3 when it
reports cross-thread races; ``run --profile`` attaches the cycle
profiler (:mod:`repro.obs`) and adds the attribution to the output;
``lint`` exits 1 on input or assembly errors and 2 when ``--strict``
sees error/warning findings; ``verify`` exits 4 when translation
validation *refutes* the scheduled program's equivalence to its input
(1 on input/assembly errors, 0 on a proof).  ``profile`` is the
dedicated front-end:
per-opcode/per-cause report, ``--json`` attribution dump, and
``--trace-out`` Chrome-trace export for ``chrome://tracing`` or
Perfetto.

Examples::

    python -m repro run program.s --pes 64 --threads 16 --trace
    python -m repro run program.s --json
    python -m repro run program.s --sanitize --json
    python -m repro run program.s --profile
    python -m repro profile program.s --trace-out trace.json
    python -m repro lint program.s --strict --json
    python -m repro verify program.s --json
    python -m repro verify --kernels
    python -m repro faultsim --kernel count_matches --faults 100 --jobs 4
    python -m repro batch jobs.json --jobs 4 --cache-dir /tmp/repro-cache
    python -m repro serve --jobs 4
    python -m repro info --pes 16 --width 8 --device EP2C35
    python -m repro asm kernel.s -o kernel.hex
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.asm.assembler import AsmError, assemble
from repro.asm.disassembler import disassemble
from repro.assoc.fastpath import FastMachine
from repro.core.config import (
    MTMode,
    ProcessorConfig,
    SchedulerPolicy,
)
from repro.core.processor import Processor, SimulationError
from repro.core.trace import render_trace
from repro.isa.encoding import DecodeError
from repro.isa.opcodes import OPCODES
from repro.util.tables import format_table


class _InputFileError(Exception):
    """An input file could not be read or parsed; :func:`main` exits 1."""


def _read_input(command: str, path, parse_json: bool = False):
    """The text of ``path`` (parsed as JSON with ``parse_json``).

    Failures raise :class:`_InputFileError` with a one-line diagnostic.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise _InputFileError(
            f"{command}: cannot read {path}: {reason}") from exc
    if not parse_json:
        return text
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputFileError(
            f"{command}: {path} is not valid JSON: {exc}") from exc


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pes", type=int, default=16,
                        help="number of processing elements (default 16)")
    parser.add_argument("--threads", type=int, default=16,
                        help="hardware thread contexts (default 16)")
    parser.add_argument("--width", type=int, default=8,
                        choices=(8, 16, 32), help="word width in bits")
    parser.add_argument("--arity", type=int, default=2,
                        help="broadcast tree arity (default 2)")
    parser.add_argument("--mt", default=None,
                        choices=[m.value for m in MTMode],
                        help="multithreading mode (default: fine, or "
                             "single when --threads 1)")
    parser.add_argument("--scheduler", default="rotating",
                        choices=[s.value for s in SchedulerPolicy])
    parser.add_argument("--no-pipelined-broadcast", action="store_true",
                        help="model an unpipelined broadcast network")
    parser.add_argument("--no-pipelined-reduction", action="store_true",
                        help="model the legacy blocking reduction network")
    parser.add_argument("--model-fetch", action="store_true",
                        help="model finite fetch bandwidth and buffers")


def _config_from_args(args: argparse.Namespace) -> ProcessorConfig:
    mt = args.mt
    if mt is None:
        mt = "single" if args.threads == 1 else "fine"
    return ProcessorConfig(
        num_pes=args.pes,
        num_threads=args.threads,
        word_width=args.width,
        broadcast_arity=args.arity,
        mt_mode=MTMode(mt),
        scheduler=SchedulerPolicy(args.scheduler),
        pipelined_broadcast=not args.no_pipelined_broadcast,
        pipelined_reduction=not args.no_pipelined_reduction,
        model_fetch=args.model_fetch,
    )


def cmd_asm(args: argparse.Namespace) -> int:
    source = _read_input("asm", args.file)
    try:
        program = assemble(source, word_width=args.width)
    except AsmError as exc:
        print(f"assembly error: {exc}", file=sys.stderr)
        return 1
    lines = [f"{word:08x}" for word in program.encode()]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"{len(lines)} instructions -> {args.output}")
    else:
        sys.stdout.write(text)
    if args.list:
        print(disassemble(program.encode()))
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    words = []
    text = _read_input("disasm", args.file)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#")[0].strip()
        if not line:
            continue
        try:
            words.append(int(line, 16))
        except ValueError:
            print(f"line {lineno}: not a hex word: {line!r}",
                  file=sys.stderr)
            return 1
    try:
        print(disassemble(words))
    except DecodeError as exc:
        print(f"decode error: {exc}", file=sys.stderr)
        return 1
    return 0


def _load_lmem_args(proc: Processor, args: argparse.Namespace) -> None:
    """Apply ``--lmem COL=V1,V2,...`` options to a loaded machine."""
    columns = []
    for spec in args.lmem or []:
        col_text, _, values_text = spec.partition("=")
        columns.append((int(col_text),
                        [int(v, 0) for v in values_text.split(",") if v]))
    proc.pe.load_lmem(columns)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    source = _read_input("run", args.file)
    try:
        program = assemble(source, word_width=cfg.word_width)
    except AsmError as exc:
        print(f"assembly error: {exc}", file=sys.stderr)
        return 1
    sanitizer = None
    if args.sanitize:
        from repro.core.sanitizer import RaceSanitizer

        sanitizer = RaceSanitizer()
    profiler = None
    if args.profile:
        from repro.obs import CycleProfiler

        profiler = CycleProfiler()
    machine = FastMachine if args.backend == "fast" else Processor
    proc = machine(cfg, trace=args.trace, sanitizer=sanitizer,
                   profiler=profiler)
    proc.load(program)
    _load_lmem_args(proc, args)
    try:
        result = proc.run(max_cycles=args.max_cycles)
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 1

    if args.json:
        from repro.serve.snapshot import ResultSnapshot

        snap = ResultSnapshot.from_result(
            result,
            profile=profiler.to_json() if profiler is not None else None,
            backend=args.backend)
        payload = {"machine": cfg.describe(), "file": args.file,
                   **snap.to_json()}
        if sanitizer is not None:
            payload["sanitizer"] = sanitizer.to_json()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 3 if sanitizer is not None and not sanitizer.clean else 0

    print(f"machine: {cfg.describe()}")
    print(result.stats.render())
    print()
    rows = [(f"s{i}", result.scalar(i)) for i in range(16)
            if result.scalar(i)]
    if rows:
        print(format_table(("register", "value"), rows,
                           title="non-zero scalar registers (thread 0)"))
    if args.trace:
        print()
        print(render_trace(result.trace, cfg,
                           show_thread=cfg.num_threads > 1))
    if profiler is not None:
        from repro.obs import render_report

        print()
        print(render_report(profiler))
    if sanitizer is not None:
        if sanitizer.clean:
            print("sanitizer: no races detected")
        else:
            print(f"sanitizer: {len(sanitizer.reports)} race(s) detected",
                  file=sys.stderr)
            for report in sanitizer.reports:
                print(f"  {report.format()}", file=sys.stderr)
            return 3
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import CycleProfiler, render_report, write_trace

    cfg = _config_from_args(args)
    source = _read_input("profile", args.file)
    try:
        program = assemble(source, word_width=cfg.word_width)
    except AsmError as exc:
        print(f"assembly error: {exc}", file=sys.stderr)
        return 1
    profiler = CycleProfiler()
    # The issue trace feeds the Chrome-trace pipeline-stage tracks.
    proc = Processor(cfg, trace=True, profiler=profiler)
    proc.load(program)
    _load_lmem_args(proc, args)
    try:
        result = proc.run(max_cycles=args.max_cycles)
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 1

    if args.trace_out:
        write_trace(args.trace_out, profiler, result.trace, cfg)
        print(f"profile: Chrome trace -> {args.trace_out}",
              file=sys.stderr if args.json else sys.stdout)
    if args.json:
        payload = {"machine": cfg.describe(), "file": args.file,
                   "profile": profiler.to_json()}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"machine: {cfg.describe()}")
    print(f"cycles: {result.cycles}  instructions: "
          f"{result.stats.instructions}  IPC: {result.stats.ipc:.4f}")
    print()
    print(render_report(profiler))
    return 0


def _machine_json(cfg: ProcessorConfig) -> dict:
    """The resolved machine configuration a lint report ran against, so
    archived reports are self-describing."""
    return {
        "pes": cfg.num_pes,
        "threads": cfg.num_threads,
        "width": cfg.word_width,
        "arity": cfg.broadcast_arity,
        "mt_mode": cfg.mt_mode.value,
        "scheduler": cfg.scheduler.value,
        "pipelined_broadcast": cfg.pipelined_broadcast,
        "pipelined_reduction": cfg.pipelined_reduction,
    }


def _lint_one(name: str, program, cfg: ProcessorConfig,
              args: argparse.Namespace) -> tuple[int, dict]:
    """Lint one assembled program; returns (finding count, json payload)."""
    from repro.analysis import LINT_JSON_SCHEMA, lint_program

    checks = args.checks.split(",") if args.checks else None
    try:
        report = lint_program(program, cfg, checks=checks)
    except ValueError as exc:
        raise SystemExit(f"lint: {exc}")
    est = report.estimate

    payload = {
        "schema": LINT_JSON_SCHEMA,
        "file": name,
        "machine": _machine_json(cfg),
        "diagnostics": [d.to_json() for d in report.diagnostics],
        "hazards": [
            {"producer_pc": h.producer_pc, "consumer_pc": h.consumer_pc,
             "reg": f"{h.regfile}{h.reg}", "hazard": h.hazard,
             "min_gap": h.min_gap, "stall_cycles": h.stall_cycles}
            for h in report.hazards],
        "estimate": {
            "exact": est.exact,
            "total": est.total,
            "by_cause": dict(est.by_cause),
        },
    }
    if args.json:
        return len(report.findings), payload

    for d in report.diagnostics:
        print(d.format(name))
    interesting = [h for h in report.hazards
                   if h.stall_potential > 0 or h.stall_cycles > 0]
    if interesting and not args.quiet:
        rows = []
        for h in interesting:
            rows.append((
                program.location_of(h.producer_pc),
                program.location_of(h.consumer_pc),
                f"{h.regfile}{h.reg}", h.hazard, h.min_gap,
                h.stall_cycles))
        print(format_table(
            ("producer", "consumer", "reg", "hazard class", "min gap",
             "stalls"),
            rows, title=f"{name}: dependences with stall potential"))
    if not args.quiet:
        print(f"{name}: {est.describe()}")
        n = len(report.diagnostics)
        print(f"{name}: {n} diagnostic(s)")
    return len(report.findings), payload


def _collect_targets(args: argparse.Namespace, cfg: ProcessorConfig,
                     command: str,
                     ) -> list[tuple[str, object, ProcessorConfig]] | None:
    """Assemble the (file and/or --kernels) targets for lint/verify.

    Returns None after printing a diagnostic when any input cannot be
    assembled — callers translate that into exit code 1.
    """
    targets: list[tuple[str, object, ProcessorConfig]] = []
    if args.kernels:
        import dataclasses

        from repro.programs import kernels as K

        for builder in K.ALL_KERNEL_BUILDERS.values():
            kern = builder(cfg.num_pes)
            kcfg = dataclasses.replace(cfg, word_width=kern.word_width)
            try:
                program = assemble(kern.source, word_width=kern.word_width)
            except AsmError as exc:
                print(f"assembly error in kernel {kern.name}: {exc}",
                      file=sys.stderr)
                return None
            targets.append((kern.name, program, kcfg))
    if args.files:
        for path in args.files:
            source = _read_input(command, path)
            try:
                program = assemble(source, word_width=cfg.word_width)
            except AsmError as exc:
                print(f"{path}: assembly error: {exc}", file=sys.stderr)
                return None
            targets.append((path, program, cfg))
    if not targets:
        print(f"{command}: no input (pass a .s file or --kernels)",
              file=sys.stderr)
        return None
    return targets


def cmd_lint(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    targets = _collect_targets(args, cfg, "lint")
    if targets is None:
        return 1

    findings = 0
    payloads = []
    for name, program, tcfg in targets:
        count, payload = _lint_one(name, program, tcfg, args)
        findings += count
        payloads.append(payload)
    if args.json:
        out = payloads[0] if len(payloads) == 1 else payloads
        print(json.dumps(out, indent=2))
    if args.strict and findings:
        if not args.json:
            print(f"lint: {findings} finding(s) (strict mode)",
                  file=sys.stderr)
        return 2
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Translation-validate the static scheduler over each target."""
    from repro.analysis.equiv import VERIFY_JSON_SCHEMA
    from repro.opt.scheduler import schedule_program_verified

    cfg = _config_from_args(args)
    targets = _collect_targets(args, cfg, "verify")
    if targets is None:
        return 1

    refuted = 0
    payloads = []
    for name, program, tcfg in targets:
        _, report = schedule_program_verified(program, tcfg)
        if not report.equivalent:
            refuted += 1
        if args.json:
            payloads.append({
                "schema": VERIFY_JSON_SCHEMA,
                "file": name,
                "machine": _machine_json(tcfg),
                **report.to_json(),
            })
        else:
            print(f"{name}: {report.format()}")
    if args.json:
        out = payloads[0] if len(payloads) == 1 else payloads
        print(json.dumps(out, indent=2))
    if refuted:
        if not args.json:
            print(f"verify: {refuted} program(s) REFUTED", file=sys.stderr)
        return 4
    return 0


def cmd_faultsim(args: argparse.Namespace) -> int:
    from repro.faults import CampaignError, FaultSite, run_campaign

    cfg = _config_from_args(args)
    sites = None
    if args.sites:
        try:
            sites = [FaultSite(s.strip())
                     for s in args.sites.split(",") if s.strip()]
        except ValueError:
            known = ", ".join(s.value for s in FaultSite)
            print(f"faultsim: unknown fault site in {args.sites!r} "
                  f"(known: {known})", file=sys.stderr)
            return 1
    from repro.obs import DEFAULT_REGISTRY

    try:
        report = run_campaign(
            args.kernel, cfg, faults=args.faults, seed=args.seed,
            sites=sites, parity=not args.no_parity,
            watchdog_factor=args.watchdog, jobs=args.jobs,
            registry=DEFAULT_REGISTRY)
    except (ValueError, CampaignError) as exc:
        print(f"faultsim: {exc}", file=sys.stderr)
        return 1
    text = report.to_json() if args.json else report.render()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"faultsim: report -> {args.output}")
    else:
        print(text)
    return 0


def _build_cache(args: argparse.Namespace):
    from repro.obs import DEFAULT_REGISTRY
    from repro.serve.cache import ResultCache, default_cache_dir

    if args.no_cache:
        return ResultCache.disabled()
    cache_dir = args.cache_dir or default_cache_dir()
    # CLI entry points publish into the process-wide registry so one
    # snapshot (`serve` stats reply) covers every layer.
    return ResultCache(cache_dir=cache_dir,
                       shards=getattr(args, "shards", 1),
                       registry=DEFAULT_REGISTRY)


def cmd_batch(args: argparse.Namespace) -> int:
    import pathlib

    from repro.serve.batch import BatchRunner
    from repro.serve.jobs import JobError, jobs_from_json

    path = pathlib.Path(args.jobs_file)
    payload = _read_input("batch", path, parse_json=True)
    try:
        jobs = jobs_from_json(payload, base_dir=path.parent)
    except JobError as exc:
        print(f"batch: {exc}", file=sys.stderr)
        return 1
    from repro.obs import DEFAULT_REGISTRY

    runner = BatchRunner(cache=_build_cache(args), jobs=args.jobs,
                         registry=DEFAULT_REGISTRY,
                         deadline_s=args.deadline)
    try:
        report = runner.run(jobs)
    except JobError as exc:
        print(f"batch: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report.to_json(full=args.full), indent=2,
                         sort_keys=True))
    else:
        print(report.render())
    if not report.ok:
        failed = [r.name for r in report.results if not r.ok]
        if not args.json:
            print(f"batch: {len(failed)} job(s) failed: "
                  f"{', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def cmd_dse(args: argparse.Namespace) -> int:
    from repro.dse import DseRunner, DseSpecError, SweepSpec
    from repro.obs import DEFAULT_REGISTRY
    from repro.serve.batch import BatchRunner
    from repro.serve.jobs import JobError

    payload = _read_input("dse", args.spec_file, parse_json=True)
    try:
        spec = SweepSpec.from_json(payload)
    except DseSpecError as exc:
        print(f"dse: {exc}", file=sys.stderr)
        return 1
    runner = DseRunner(
        BatchRunner(cache=_build_cache(args), jobs=args.jobs,
                    registry=DEFAULT_REGISTRY, deadline_s=args.deadline),
        registry=DEFAULT_REGISTRY)
    try:
        report = runner.sweep(spec)
    except JobError as exc:
        print(f"dse: {exc}", file=sys.stderr)
        return 1
    # The JSON payload is deterministic (byte-identical across re-runs
    # of the same spec); operational counters go to --ops-json/stderr.
    text = (json.dumps(report.to_json(), indent=2, sort_keys=True)
            if args.json else report.render())
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"dse: report -> {args.output}")
    else:
        print(text)
    if args.ops_json:
        with open(args.ops_json, "w") as fh:
            fh.write(json.dumps(report.ops, indent=2, sort_keys=True)
                     + "\n")
    if not report.ok:
        errored = [o.point_id for o in report.outcomes
                   if o.status == "error"]
        print(f"dse: {len(errored)} point(s) errored: "
              f"{', '.join(errored)}", file=sys.stderr)
        return 2
    return 0


def _build_governor(args: argparse.Namespace):
    """None unless a quota flag was given (quotas are opt-in)."""
    if not args.quota and not args.default_quota:
        return None
    from repro.serve.net.tenancy import TenantGovernor, TenantQuota

    quotas = {}
    for spec in args.quota or []:
        tenant, sep, policy = spec.partition("=")
        if not sep or not tenant:
            raise ValueError(f"bad --quota {spec!r}: "
                             f"expected TENANT=RATE[:BURST]")
        quotas[tenant] = TenantQuota.parse(policy)
    default = (TenantQuota.parse(args.default_quota)
               if args.default_quota else None)
    return TenantGovernor(quotas=quotas, default=default)


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import DEFAULT_REGISTRY
    from repro.serve.batch import BatchRunner
    from repro.serve.dispatch import Dispatcher
    from repro.serve.net.server import serve_net

    if args.shards < 1:
        print("serve: --shards must be >= 1", file=sys.stderr)
        return 1
    try:
        governor = _build_governor(args)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 1
    request_log = None
    if args.request_log:
        from repro.serve.net.reqlog import RequestLog

        try:
            request_log = RequestLog(args.request_log)
        except OSError as exc:
            print(f"serve: cannot open request log "
                  f"{args.request_log}: {exc}", file=sys.stderr)
            return 1
    runner = BatchRunner(cache=_build_cache(args), jobs=args.jobs,
                         registry=DEFAULT_REGISTRY,
                         deadline_s=args.deadline)
    session = Dispatcher(runner=runner, max_pending=args.max_pending,
                         full_results=args.full,
                         registry=DEFAULT_REGISTRY, shed=args.shed,
                         governor=governor, request_log=request_log)
    try:
        host, port, stdio = "127.0.0.1", 0, (sys.stdin, sys.stdout)
        if args.listen:
            host, _, port_s = args.listen.rpartition(":")
            host, stdio = host or "127.0.0.1", None
            try:
                port = int(port_s)
            except ValueError:
                print(f"serve: bad --listen {args.listen!r}: "
                      f"expected HOST:PORT", file=sys.stderr)
                return 1

        def _ready(bound):
            print(f"listening on {bound[0]}:{bound[1]}",
                  file=sys.stderr, flush=True)

        return asyncio.run(serve_net(
            session, host=host, port=port, drr_quantum=args.drr_quantum,
            ready=_ready, stdio=stdio))
    finally:
        if request_log is not None:
            request_log.close()


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.serve.batch import BatchRunner
    from repro.serve.cache import ResultCache
    from repro.serve.dispatch import Dispatcher
    from repro.serve.net.reqlog import replay_log

    # A fresh, memory-only cache: replay must not be contaminated by —
    # or pollute — the persistent store (origins are excluded from the
    # comparison, so cold-vs-warm is immaterial).
    cache = ResultCache(cache_dir=None, mem_entries=256)
    runner = BatchRunner(cache=cache, jobs=args.jobs,
                         deadline_s=args.deadline)
    session = Dispatcher(runner=runner, max_pending=args.max_pending,
                         full_results=args.full, shed=args.shed)
    try:
        report = replay_log(args.log_file, session)
    except OSError as exc:
        print(f"replay: cannot read {args.log_file}: {exc}",
              file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(f"replayed {report.records} record(s): "
              f"{report.compared} compared, {report.skipped} "
              f"operational, {len(report.mismatches)} mismatch(es)")
        for mm in report.mismatches[:10]:
            print(f"  seq {mm.seq} ({mm.op}):")
            print(f"    logged:   {mm.expected}")
            print(f"    replayed: {mm.got}")
    if not report.ok:
        print("replay: deterministic replies diverged from the log",
              file=sys.stderr)
        return 2
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.obs import DEFAULT_REGISTRY
    from repro.serve.chaos import run_chaos_campaign

    report = run_chaos_campaign(
        jobs_count=args.chaos_jobs, seed=args.seed, workers=args.workers,
        events=args.events, deadline_s=args.deadline,
        poison=args.poison, registry=DEFAULT_REGISTRY)
    text = (json.dumps(report.to_json(), indent=2, sort_keys=True)
            if args.json else report.render())
    if args.output:
        import pathlib

        pathlib.Path(args.output).write_text(text + "\n")
    else:
        print(text)
    if not report.ok:
        print("chaos: invariant violation", file=sys.stderr)
        return 2
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from repro.fpga.devices import device_by_name
    from repro.fpga.fitter import max_pes
    from repro.fpga.resource_model import table1
    from repro.fpga.timing_model import fmax_mhz

    cfg = _config_from_args(args)
    print(f"machine: {cfg.describe()}")
    print(f"estimated clock: {fmax_mhz(cfg):.1f} MHz")
    print()
    rows = [(r.name, r.logic_elements, r.ram_blocks) for r in table1(cfg)]
    print(format_table(("component", "LEs", "RAM blocks"), rows,
                       title="modeled resource usage"))
    if args.device:
        try:
            device = device_by_name(args.device)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return 1
        fit = max_pes(device, cfg)
        print()
        print(f"{device.name}: up to {fit.max_pes} PEs "
              f"(limited by {fit.limiting_resource}; "
              f"LE {fit.logic_utilization:.0%}, "
              f"RAM {fit.ram_utilization:.0%})")
    return 0


def cmd_isa(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(OPCODES):
        spec = OPCODES[name]
        operands = ", ".join(
            {"sreg": "sN", "preg": "pN", "freg": "fN", "imm": "imm",
             "regidx": "idx", "target": "label", "mem_s": "imm(sN)",
             "mem_p": "imm(pN)"}[kind]
            for kind, _ in spec.operands)
        mask = "[fM]" if spec.masked else ""
        rows.append((name, spec.exec_class.value, operands, mask,
                     spec.reduction_unit or ""))
    print(format_table(
        ("mnemonic", "class", "operands", "mask", "unit"), rows,
        title=f"KASC-MT instruction set ({len(rows)} instructions)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multithreaded ASC Processor simulator "
                    "(Schaffer & Walker, IPDPS 2007)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_asm = sub.add_parser("asm", help="assemble a source file")
    p_asm.add_argument("file")
    p_asm.add_argument("-o", "--output", help="hex output path")
    p_asm.add_argument("--width", type=int, default=8, choices=(8, 16, 32))
    p_asm.add_argument("--list", action="store_true",
                       help="also print a disassembly listing")
    p_asm.set_defaults(func=cmd_asm)

    p_dis = sub.add_parser("disasm", help="disassemble a hex word file")
    p_dis.add_argument("file")
    p_dis.set_defaults(func=cmd_disasm)

    p_run = sub.add_parser("run", help="run a program")
    p_run.add_argument("file")
    _add_machine_args(p_run)
    p_run.add_argument("--trace", action="store_true",
                       help="print the pipeline stage chart")
    p_run.add_argument("--max-cycles", type=int, default=None)
    p_run.add_argument("--lmem", action="append", metavar="COL=V1,V2,...",
                       help="initialize a PE local-memory column")
    p_run.add_argument("--json", action="store_true",
                       help="emit a machine-readable result (cycles, stall "
                            "breakdown, scalar/PE state) instead of tables")
    p_run.add_argument("--sanitize", action="store_true",
                       help="run under the vector-clock race sanitizer; "
                            "exit 3 if any cross-thread races are detected")
    p_run.add_argument("--profile", action="store_true",
                       help="attach the cycle profiler; adds the "
                            "attribution report (or a 'profile' JSON "
                            "section with --json)")
    p_run.add_argument("--backend", choices=("cycle", "fast"),
                       default="cycle",
                       help="execution backend: 'cycle' steps the "
                            "cycle-accurate pipeline; 'fast' gives the same "
                            "output, running the functional backend and "
                            "recovering cycle counts from compositional "
                            "static timing summaries where that is exact")
    p_run.set_defaults(func=cmd_run)

    p_prof = sub.add_parser(
        "profile", help="cycle-attribution profile of a program run")
    p_prof.add_argument("file")
    _add_machine_args(p_prof)
    p_prof.add_argument("--max-cycles", type=int, default=None)
    p_prof.add_argument("--lmem", action="append", metavar="COL=V1,V2,...",
                        help="initialize a PE local-memory column")
    p_prof.add_argument("--trace-out", default=None, metavar="trace.json",
                        help="write a Chrome-trace/Perfetto JSON file "
                             "(open in chrome://tracing)")
    p_prof.add_argument("--json", action="store_true",
                        help="emit the attribution as JSON instead of "
                             "the text report")
    p_prof.set_defaults(func=cmd_profile)

    p_lint = sub.add_parser(
        "lint", help="static hazard/dataflow analysis")
    p_lint.add_argument("files", nargs="*", metavar="file.s",
                        help="assembly source file(s) to analyze")
    _add_machine_args(p_lint)
    p_lint.add_argument("--kernels", action="store_true",
                        help="also lint every built-in benchmark kernel")
    p_lint.add_argument("--checks", default=None, metavar="a,b,...",
                        help="comma-separated subset of lint checks")
    p_lint.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    p_lint.add_argument("--strict", action="store_true",
                        help="exit nonzero when any warning/error is found")
    p_lint.add_argument("--quiet", action="store_true",
                        help="diagnostics only; no hazard/stall summary")
    p_lint.set_defaults(func=cmd_lint)

    p_verify = sub.add_parser(
        "verify",
        help="prove the static scheduler's output equivalent (exit 4 "
             "on refutation)")
    p_verify.add_argument("files", nargs="*", metavar="file.s",
                          help="assembly source file(s) to verify")
    _add_machine_args(p_verify)
    p_verify.add_argument("--kernels", action="store_true",
                          help="also verify every built-in benchmark "
                               "kernel")
    p_verify.add_argument("--json", action="store_true",
                          help="emit a machine-readable JSON report")
    p_verify.set_defaults(func=cmd_verify)

    p_fault = sub.add_parser(
        "faultsim", help="seeded fault-injection campaign over a kernel")
    p_fault.add_argument("--kernel", required=True,
                         help="library kernel name (see repro.programs)")
    _add_machine_args(p_fault)
    p_fault.add_argument("--faults", type=int, default=100,
                         help="number of faults to inject (default 100)")
    p_fault.add_argument("--seed", type=int, default=0,
                         help="campaign seed (default 0)")
    p_fault.add_argument("--sites", default=None, metavar="a,b,...",
                         help="restrict to these fault sites "
                              "(e.g. pe_reg,dead_pe)")
    p_fault.add_argument("--no-parity", action="store_true",
                         help="disable the PE register parity checker")
    p_fault.add_argument("--watchdog", type=int, default=4,
                         help="hang watchdog as a multiple of the golden "
                              "cycle count (default 4)")
    p_fault.add_argument("--json", action="store_true",
                         help="emit the machine-readable JSON report")
    p_fault.add_argument("-o", "--output", help="write the report here")
    p_fault.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the per-fault runs "
                              "(default 1 = serial; output is identical)")
    p_fault.set_defaults(func=cmd_faultsim)

    p_batch = sub.add_parser(
        "batch", help="run a JSON jobs file through the cache + pool")
    p_batch.add_argument("jobs_file", metavar="jobs.json",
                         help="list of job objects (see docs/SERVE.md)")
    p_batch.add_argument("--jobs", type=int, default=1,
                         help="worker processes (default 1 = serial)")
    p_batch.add_argument("--cache-dir", default=None,
                         help="on-disk result cache location "
                              "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    p_batch.add_argument("--no-cache", action="store_true",
                         help="skip the persistent result cache")
    p_batch.add_argument("--json", action="store_true",
                         help="emit the machine-readable batch report")
    p_batch.add_argument("--full", action="store_true",
                         help="include complete result snapshots in --json")
    p_batch.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="per-job wall-clock deadline (default: none; "
                              "the max_cycles watchdog still applies)")
    p_batch.set_defaults(func=cmd_batch)

    p_dse = sub.add_parser(
        "dse", help="design-space sweep: Pareto frontier over "
                    "cycles/fmax/LEs/RAM/power")
    p_dse.add_argument("spec_file", metavar="sweep.json",
                       help="sweep spec: axes, kernels, device "
                            "(see docs/DSE.md)")
    p_dse.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1 = serial)")
    p_dse.add_argument("--cache-dir", default=None,
                       help="on-disk result cache location "
                            "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    p_dse.add_argument("--no-cache", action="store_true",
                       help="skip the persistent result cache")
    p_dse.add_argument("--json", action="store_true",
                       help="emit the deterministic sweep report as JSON")
    p_dse.add_argument("--output", default=None, metavar="PATH",
                       help="write the report to a file instead of stdout")
    p_dse.add_argument("--ops-json", default=None, metavar="PATH",
                       help="also write operational counters (cache hits, "
                            "elapsed) to PATH; kept out of the report so "
                            "re-sweeps stay byte-identical")
    p_dse.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job wall-clock deadline (default: none)")
    p_dse.set_defaults(func=cmd_dse)

    p_serve = sub.add_parser(
        "serve", help="simulation service: JSON-lines on stdin/stdout, "
                      "or TCP + HTTP with --listen")
    p_serve.add_argument("--jobs", type=int, default=1,
                         help="worker processes (default 1)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="on-disk result cache location "
                              "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="skip the persistent result cache")
    p_serve.add_argument("--max-pending", type=int, default=256,
                         help="refuse batches larger than this (default 256)")
    p_serve.add_argument("--full", action="store_true",
                         help="include complete result snapshots in replies")
    p_serve.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="per-job wall-clock deadline (default: none)")
    p_serve.add_argument("--shed", choices=("refuse", "oldest"),
                         default="refuse",
                         help="past --max-pending: refuse the whole batch "
                              "(default) or shed the oldest jobs and run "
                              "the rest")
    p_serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                         help="serve over TCP (JSON-lines + HTTP/1.1: "
                              "POST /v1/run, POST /v1/batch, GET /metrics, "
                              "GET /healthz) instead of stdio; port 0 "
                              "picks a free port, printed to stderr")
    p_serve.add_argument("--shards", type=int, default=1,
                         help="split the disk cache into N rendezvous-"
                              "hashed directories, each with its own "
                              "circuit breaker (default 1)")
    p_serve.add_argument("--request-log", default=None, metavar="PATH",
                         help="append every request/reply to this JSONL "
                              "journal (replayable with 'repro replay')")
    p_serve.add_argument("--quota", action="append", default=None,
                         metavar="TENANT=RATE[:BURST]",
                         help="token-bucket quota for one tenant, in "
                              "jobs/second (repeatable); burst defaults "
                              "to 4x rate")
    p_serve.add_argument("--default-quota", default=None,
                         metavar="RATE[:BURST]",
                         help="quota for tenants not named by --quota "
                              "(quotas are enforced only when a quota "
                              "flag is given)")
    p_serve.add_argument("--drr-quantum", type=float, default=8.0,
                         help="deficit-round-robin quantum in jobs per "
                              "scheduling round (default 8)")
    p_serve.set_defaults(func=cmd_serve)

    p_replay = sub.add_parser(
        "replay", help="re-drive a serve request log and assert "
                       "byte-identical replies for deterministic ops")
    p_replay.add_argument("log_file",
                          help="request log written by serve --request-log")
    p_replay.add_argument("--jobs", type=int, default=1,
                          help="worker processes for the replay "
                               "(default 1)")
    p_replay.add_argument("--max-pending", type=int, default=256,
                          help="must match the original service "
                               "(default 256)")
    p_replay.add_argument("--shed", choices=("refuse", "oldest"),
                          default="refuse",
                          help="must match the original service")
    p_replay.add_argument("--full", action="store_true",
                          help="must match the original service's --full")
    p_replay.add_argument("--deadline", type=float, default=None,
                          metavar="SECONDS",
                          help="per-job wall-clock deadline for replayed "
                               "jobs")
    p_replay.add_argument("--json", action="store_true",
                          help="emit the machine-readable replay report")
    p_replay.set_defaults(func=cmd_replay)

    p_chaos = sub.add_parser(
        "chaos", help="seeded chaos campaign against the serve stack")
    p_chaos.add_argument("--jobs", dest="chaos_jobs", type=int, default=100,
                         help="synthetic batch jobs to run (default 100)")
    p_chaos.add_argument("--workers", type=int, default=4,
                         help="pool worker processes (default 4)")
    p_chaos.add_argument("--events", type=int, default=12,
                         help="chaos events to draw from the seed "
                              "(default 12)")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="campaign seed (plan + backoff jitter)")
    p_chaos.add_argument("--poison", type=int, default=0,
                         help="add this many unkillable poison jobs "
                              "(exercises quarantine)")
    p_chaos.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="per-job wall-clock deadline for the "
                              "chaotic run")
    p_chaos.add_argument("--json", action="store_true",
                         help="emit the machine-readable campaign report")
    p_chaos.add_argument("-o", "--output", default=None,
                         help="write the report here instead of stdout")
    p_chaos.set_defaults(func=cmd_chaos)

    p_info = sub.add_parser("info", help="machine/resource summary")
    _add_machine_args(p_info)
    p_info.add_argument("--device", help="fit onto this FPGA (e.g. EP2C35)")
    p_info.set_defaults(func=cmd_info)

    p_isa = sub.add_parser("isa", help="print the instruction reference")
    p_isa.set_defaults(func=cmd_isa)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputFileError as exc:
        print(exc, file=sys.stderr)
        return 1
    except BrokenPipeError:   # e.g. `repro isa | head`
        return 0


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
