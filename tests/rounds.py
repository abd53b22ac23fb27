"""Drive the cycle core one scheduling round at a time.

The scheduler tests choose which contexts are ready by caching each live
context's readiness, as the issue loop's round leaves it, then run one
round of :meth:`repro.core.processor.Processor.run` and read which
threads it issued.
"""

from repro.asm import assemble
from repro.core import Processor

#: A ready cycle no round of these tests reaches.
NEVER = 10 ** 9

#: Every context spins here: each issue is an ``addi`` or a ``j``.
SPIN = ".text\nmain:\n    addi s1, s1, 1\n    j main\n"


def spinning_core(cfg):
    """A traced core running ``SPIN`` with every context live."""
    proc = Processor(cfg, trace=True)
    proc.load(assemble(SPIN, word_width=cfg.word_width))
    while proc.threads.allocate(0, 1) is not None:
        pass
    return proc


def round_at(proc, cycle, ready):
    """Run one round of ``proc`` at ``cycle`` and return the tids it
    issued, in issue order.  ``ready`` maps a tid to the cycle its next
    instruction is ready; the other live contexts are never ready."""
    for ctx in proc.threads.live:
        at = ready.get(ctx.tid, NEVER)
        ctx.ready = (at, None, at, proc.timing_model.entry(ctx.pc), -1)
    proc._cycle = cycle
    proc.trace.clear()
    proc.run(stop_when=lambda _, now: now > cycle)
    return [rec.thread for rec in proc.trace]
