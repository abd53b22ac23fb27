"""E3 — Processor generations and related work (paper Sections 3, 8).

Runs the associative max-extract kernel (and its multithreaded
reduction-storm counterpart) on every machine the paper positions itself
against, at the paper's 8-bit word width and a scaled-up 256-PE array
where the architectural differences bite:

* the non-pipelined scalable ASC Processor [6] — multi-cycle execution,
  Falkoff bit-serial max/min, broadcast settle in every instruction;
* the 2005 pipelined ASC Processor [7] — pipelined execution but
  unpipelined broadcast/reduction: the broadcast wire delay caps its
  clock, and reductions block the pipeline;
* this paper's machine single-threaded — pipelined network (fast clock)
  but the full b + r reduction-hazard stalls;
* this paper's machine with 16 threads — the stalls hidden;
* related-work machines [10]/[11] at their published clocks + modeled
  CPI, for the Section 8 context.
"""

from repro.asm import assemble
from repro.baselines import (
    HOARE_2004,
    LI_2003,
    NonPipelinedMachine,
    multithreaded_asc,
    nonpipelined_config,
    pipelined_asc_2005,
    single_threaded_pipelined_asc,
)
from repro.bench import Experiment
from repro.fpga import fmax_mhz
from repro.programs import assoc_max_extract, reduction_storm, run_kernel
from repro.programs.runner import extract_outputs

PES = 256
WIDTH = 8          # the prototype's width; clocks differentiate here
ROUNDS = 10


def make_kernel():
    return assoc_max_extract(PES, rounds=ROUNDS, width=WIDTH)


def run_nonpipelined(kernel):
    cfg = nonpipelined_config(PES, WIDTH)
    machine = NonPipelinedMachine(cfg)
    machine.load(assemble(kernel.source, WIDTH))
    machine.pe.load_lmem(kernel.lmem.items())
    result = machine.run()
    expected = {k: (int(v) if not isinstance(v, list)
                    else [int(x) for x in v])
                for k, v in kernel.expected.items()}
    assert extract_outputs(kernel, result) == expected
    return result.cycles, cfg


def test_generations_and_related_work(once):
    from repro.programs import vector_mac

    def run_all():
        kernel = make_kernel()
        mac = vector_mac(PES, iters=24, width=WIDTH)
        storm = reduction_storm(PES, total_iters=64, threads=16,
                                width=WIDTH)
        storm_1t = reduction_storm(PES, total_iters=64, threads=1,
                                   width=WIDTH)
        cfg05 = pipelined_asc_2005(PES, WIDTH)
        cfg1t = single_threaded_pipelined_asc(PES, WIDTH)
        cfgmt = multithreaded_asc(PES, 16, WIDTH)
        rows = {}
        rows["non-pipelined ASC [6]"] = run_nonpipelined(kernel)
        rows["pipelined ASC 2005 [7]"] = (
            run_kernel(kernel, cfg05).cycles, cfg05)
        rows["MT-ASC, 1 thread"] = (run_kernel(kernel, cfg1t).cycles, cfg1t)
        rows["MT-ASC, 16 threads (storm)"] = (
            run_kernel(storm, cfgmt).cycles, cfgmt)
        rows["MT-ASC, 1 thread (storm)"] = (
            run_kernel(storm_1t, cfg1t).cycles, cfg1t)
        # Data-parallel kernel: where a pipelined network wins even
        # without multithreading.
        mac_rows = {
            "pipelined ASC 2005 [7]": (run_kernel(mac, cfg05).cycles,
                                       cfg05),
            "MT-ASC, 1 thread": (run_kernel(mac, cfg1t).cycles, cfg1t),
        }
        instr = run_kernel(kernel, cfg1t).result.stats.instructions
        return rows, mac_rows, instr

    rows, mac_rows, instr_count = once(run_all)

    def to_times(table):
        return {name: cycles / fmax_mhz(cfg)
                for name, (cycles, cfg) in table.items()}

    times = to_times(rows)
    mac_times = to_times(mac_rows)

    exp = Experiment("E3", f"machine generations "
                           f"(p={PES}, W={WIDTH})")
    t = exp.new_table(("machine", "cycles", "clock MHz", "time (us)"),
                      title=f"reduction-bound: {ROUNDS}-round associative "
                            f"max-extract")
    for name, (cycles, cfg) in rows.items():
        t.add_row(name, cycles, round(fmax_mhz(cfg), 1),
                  round(times[name], 2))
    for machine in (LI_2003, HOARE_2004):
        t.add_row(f"{machine.name} {machine.citation} (modeled CPI "
                  f"{machine.cpi:g})",
                  int(instr_count * machine.cpi), machine.fmax_mhz,
                  round(machine.runtime_us(instr_count), 2))
    m = exp.new_table(("machine", "cycles", "time (us)"),
                      title="data-parallel: vector MAC (no reductions)")
    for name, (cycles, cfg) in mac_rows.items():
        m.add_row(name, cycles, round(mac_times[name], 2))

    exp.finding("on data-parallel code, pipelining the network wins even "
                "single-threaded; on reduction-bound code the pipelined "
                "network's b+r hazards make it NO faster than the 2005 "
                "machine — 'Pipelining instruction broadcast can help, "
                "but is not enough' (Abstract) — until multithreading "
                "fills the stalls")
    exp.report()

    # Each generation beats the previous on the workload it targets:
    assert times["non-pipelined ASC [6]"] > times["pipelined ASC 2005 [7]"]
    # Pipelining alone wins on data-parallel code...
    assert mac_times["MT-ASC, 1 thread"] < \
        mac_times["pipelined ASC 2005 [7]"]
    # ...but NOT on reduction-bound code (the paper's motivation)...
    assert times["MT-ASC, 1 thread"] > 0.9 * times["pipelined ASC 2005 [7]"]
    # ...where multithreading is what delivers the win.
    assert times["MT-ASC, 1 thread (storm)"] > \
        2.0 * times["MT-ASC, 16 threads (storm)"]
