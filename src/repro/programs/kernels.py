"""Assembly kernel library: the canonical ASC workloads.

Each builder returns a :class:`Kernel`: assembly source, PE local-memory
image, the *expected* architectural outputs (computed with the same
functional reduction semantics as the hardware, so saturation/identity
corner cases match by construction), and an output map describing where
the program leaves its results.

Kernels default to 16-bit words so data (graph weights, salaries, text
positions) has headroom; the machine's prototype width of 8 bits is
exercised separately by the unit tests.

All kernels follow the associative-computing idiom the processor is
built for: parallel search → responder reduction → pick-one → masked
update (Potter et al. [4]).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.network import reduction as red
from repro.programs import workloads as wl
from repro.util.bitops import mask_for_width


@dataclass
class Kernel:
    """A runnable benchmark/test program plus its oracle."""

    name: str
    source: str
    word_width: int
    lmem: dict[int, np.ndarray] = field(default_factory=dict)
    expected: dict[str, object] = field(default_factory=dict)
    # Output map: result name -> ("scalar", reg) | ("memory", base, count)
    outputs: dict[str, tuple] = field(default_factory=dict)
    min_pes: int = 1
    min_lmem_words: int = 0
    notes: str = ""


def _pad(values: np.ndarray, num_pes: int, fill: int = 0) -> np.ndarray:
    """Pad / truncate a value vector to one entry per PE."""
    out = np.full(num_pes, fill, dtype=np.int64)
    n = min(len(values), num_pes)
    out[:n] = values[:n]
    return out


# ---------------------------------------------------------------------------
# 1. vector_mac — pure data-parallel multiply-accumulate (no reductions)
# ---------------------------------------------------------------------------

def vector_mac(num_pes: int, iters: int = 16, a: int = 3, b: int = 5,
               width: int = 16, seed: int = 1) -> Kernel:
    """``x = a*x + b`` repeated ``iters`` times; checksum by rsum.

    Exercises the parallel pipeline and the (pipelined) multiplier with
    zero reduction traffic until the final checksum.
    """
    values = wl.random_field(num_pes, width, seed=seed, high=100)
    mask = mask_for_width(width)
    x = values.copy()
    for _ in range(iters):
        x = (x * a + b) & mask
    checksum = red.reduce_sum(x, np.ones(num_pes, bool), width)
    source = f"""
.text
main:
    plw   p1, 0(p0)         # load data column
    li    s1, {iters}
    li    s2, {a}
loop:
    pmuls p1, p1, s2        # x *= a
    paddi p1, p1, {b}       # x += b
    addi  s1, s1, -1
    bne   s1, s0, loop
    rsum  s3, p1            # saturating checksum
    halt
"""
    return Kernel(
        name="vector_mac", source=source, word_width=width,
        lmem={0: values},
        expected={"checksum": checksum},
        outputs={"checksum": ("scalar", 3)},
        min_lmem_words=1,
        notes="data-parallel MAC loop; one final reduction")


# ---------------------------------------------------------------------------
# 2. assoc_max_extract — iterative maximum extraction
# ---------------------------------------------------------------------------

def assoc_max_extract(num_pes: int, rounds: int = 8, width: int = 16,
                      seed: int = 2) -> Kernel:
    """Repeatedly find the global max, accumulate it, and retire the
    first PE holding it — the classic associative max-search loop.

    Every round is rmaxu → consume → pceqs → rfirst → masked clear, so
    the kernel is reduction-hazard-bound on a single thread.
    """
    values = wl.random_field(num_pes, width, seed=seed, low=1,
                             high=min(5000, mask_for_width(width)))
    mask = mask_for_width(width)
    sim = values.copy()
    acc = 0
    for _ in range(rounds):
        mx = int(sim.max())
        acc = (acc + mx) & mask
        sim[int(np.argmax(sim))] = 0
    source = f"""
.text
main:
    plw   p1, 0(p0)
    li    s1, {rounds}
    li    s3, 0
loop:
    rmaxu s2, p1            # global maximum
    add   s3, s3, s2        # consume it (reduction hazard)
    fclr  f1
    pceqs f1, p1, s2        # responders: PEs holding the max
    rfirst f1, f1           # resolve to the first responder
    pands p1, p1, s0 [f1]   # retire it (value := 0)
    addi  s1, s1, -1
    bne   s1, s0, loop
    halt
"""
    return Kernel(
        name="assoc_max_extract", source=source, word_width=width,
        lmem={0: values},
        expected={"sum_of_maxima": acc},
        outputs={"sum_of_maxima": ("scalar", 3)},
        min_lmem_words=1,
        notes="max-search loop: rmaxu/pceqs/rfirst each round")


# ---------------------------------------------------------------------------
# 3. count_matches — associative equality search
# ---------------------------------------------------------------------------

def count_matches(num_pes: int, key: int | None = None, width: int = 16,
                  seed: int = 3) -> Kernel:
    """Exact-match search: responder count, some/none, first match index."""
    values = wl.random_field(num_pes, width, seed=seed, low=0, high=50)
    index = np.arange(num_pes, dtype=np.int64)
    if key is None:
        key = int(values[num_pes // 2])      # guarantee at least one hit
    hits = values == key
    ones = np.ones(num_pes, bool)
    first = red.resolve_first(hits, ones)
    first_idx = red.reduce_or(index, first, width)
    source = f"""
.text
main:
    plw    p1, 0(p0)        # values
    plw    p2, 1(p0)        # PE index
    pceqi  f1, p1, {key}
    rcount s1, f1           # how many matched
    rany   s2, f1           # some/none
    rfirst f2, f1
    rget   s3, p2 [f2]      # index of the first match
    halt
"""
    return Kernel(
        name="count_matches", source=source, word_width=width,
        lmem={0: values, 1: index},
        expected={
            "count": int(np.count_nonzero(hits)),
            "any": 1 if hits.any() else 0,
            "first_index": int(first_idx),
        },
        outputs={"count": ("scalar", 1), "any": ("scalar", 2),
                 "first_index": ("scalar", 3)},
        min_lmem_words=2,
        notes="equality search exercising count/any/resolver/rget")


# ---------------------------------------------------------------------------
# 4. string_match — exact substring search
# ---------------------------------------------------------------------------

def string_match(num_pes: int, pattern: list[int] | None = None,
                 width: int = 16, seed: int = 4,
                 occurrences: int = 3) -> Kernel:
    """Count occurrences of a pattern in a text of one char per PE slot.

    PE *i* holds ``text[i .. i+m-1]`` in local-memory columns 0..m-1 (the
    workload generator performs the skewed layout, standing in for the
    PE-interconnect shift earlier ASC processors used); matching is then
    an AND-tree of per-column equality searches — pure associative code.
    """
    pat = np.asarray(pattern if pattern is not None else [1, 2, 1],
                     dtype=np.int64)
    m = len(pat)
    text = wl.planted_text(num_pes, pat, occurrences=occurrences, seed=seed)
    n = len(text)
    cols = {}
    for j in range(m):
        shifted = np.zeros(num_pes, dtype=np.int64)
        avail = n - j
        shifted[:avail] = text[j:n]
        cols[j] = shifted
    valid = (np.arange(num_pes) <= n - m).astype(np.int64)
    cols[m] = valid
    cols[m + 1] = np.arange(num_pes, dtype=np.int64)

    starts = np.array([np.array_equal(text[i:i + m], pat)
                       for i in range(n - m + 1)] + [False] * (num_pes - (n - m + 1)))
    ones = np.ones(num_pes, bool)
    first = red.resolve_first(starts, ones)
    first_idx = red.reduce_or(cols[m + 1], first, width)

    compare_lines = "\n".join(
        f"""    plw   p2, {j}(p0)
    fclr  f2
    pceqi f2, p2, {int(pat[j])}
    fand  f1, f1, f2""" for j in range(m))
    source = f"""
.text
main:
    fset  f1
    plw   p2, {m}(p0)       # valid-start column
    fclr  f2
    pceqi f2, p2, 1
    fand  f1, f1, f2
{compare_lines}
    rcount s1, f1
    rfirst f2, f1
    plw    p3, {m + 1}(p0)
    rget   s2, p3 [f2]
    halt
"""
    return Kernel(
        name="string_match", source=source, word_width=width,
        lmem=cols,
        expected={"matches": int(np.count_nonzero(starts)),
                  "first_start": int(first_idx)},
        outputs={"matches": ("scalar", 1), "first_start": ("scalar", 2)},
        min_lmem_words=m + 2,
        notes=f"pattern length {m}, {occurrences} planted occurrences")


# ---------------------------------------------------------------------------
# 5. mst_prim — minimum spanning tree (the classic ASC graph algorithm)
# ---------------------------------------------------------------------------

def mst_prim(num_pes: int, n: int | None = None, width: int = 16,
             seed: int = 5) -> Kernel:
    """Prim's MST with one vertex per PE.

    Each iteration: rminu over non-tree distances → consume → pceqs +
    rfirst to pick the argmin vertex → rget its index → broadcast it →
    plw its weight column → masked distance relaxation.  The textbook
    O(n) - per - step associative formulation (Potter et al. [4]).
    """
    if n is None:
        n = min(num_pes, 16)
    if n > num_pes:
        raise ValueError(f"need at least {n} PEs for {n} vertices")
    weights = wl.random_complete_graph(n, width, seed=seed)
    total = wl.mst_weight_reference(weights)

    big = mask_for_width(width)
    cols: dict[int, np.ndarray] = {}
    for u in range(n):
        col = np.full(num_pes, big, dtype=np.int64)
        col[:n] = weights[:, u]
        cols[u] = col
    idx_col = n
    init_col = n + 1
    cols[idx_col] = np.arange(num_pes, dtype=np.int64)
    # PEs that start "in tree": the root plus every PE beyond vertex n.
    init = np.zeros(num_pes, dtype=np.int64)
    init[0] = 1
    init[n:] = 1
    cols[init_col] = init

    source = f"""
.text
main:
    plw   p3, {idx_col}(p0)     # vertex index
    plw   p4, {init_col}(p0)    # initial in-tree marker
    pceqi f1, p4, 1             # f1 = in tree
    plw   p1, 0(p0)             # dist = w[v][root]
    li    s1, {n - 1}
    li    s2, 0                 # total MST weight
loop:
    fnot  f2, f1                # candidates = not in tree
    rminu s3, p1 [f2]           # lightest crossing edge
    add   s2, s2, s3            # accumulate (reduction hazard)
    fclr  f3
    pceqs f3, p1, s3 [f2]       # responders holding the minimum
    rfirst f3, f3               # pick one vertex u
    rget  s4, p3 [f3]           # u's index
    for   f1, f1, f3            # move u into the tree
    pbcast p2, s4
    plw   p2, 0(p2)             # w[v][u]
    fnot  f2, f1
    fclr  f4
    pcltu f4, p2, p1 [f2]       # relax: w[v][u] < dist[v]?
    por   p1, p2, p0 [f4]
    addi  s1, s1, -1
    bne   s1, s0, loop
    halt
"""
    return Kernel(
        name="mst_prim", source=source, word_width=width,
        lmem=cols,
        expected={"mst_weight": total},
        outputs={"mst_weight": ("scalar", 2)},
        min_pes=n, min_lmem_words=n + 2,
        notes=f"{n}-vertex complete graph; one vertex per PE")


# ---------------------------------------------------------------------------
# 6. image_threshold — per-row masked sums (the sum unit's use case)
# ---------------------------------------------------------------------------

def image_threshold(num_pes: int, rows: int = 8, threshold: int = 100,
                    width: int = 16, seed: int = 6) -> Kernel:
    """Sum the above-threshold pixels of each image row.

    "While the ASC model does not require this [sum] function, it is used
    in a number of image and video processing algorithms." (Section 6.4.)
    """
    image = wl.random_image(num_pes, rows, width, seed=seed)
    cols = {r: image[r] for r in range(rows)}
    sums = []
    ones = np.ones(num_pes, bool)
    for r in range(rows):
        selected = image[r] >= threshold
        sums.append(red.reduce_sum(image[r], selected & ones, width))
    body = "\n".join(f"""    plw   p1, {r}(p0)
    fclr  f1
    pclti f1, p1, {threshold}
    fnot  f1, f1
    rsum  s1, p1 [f1]
    sw    s1, {r}(s0)""" for r in range(rows))
    source = f"""
.text
main:
{body}
    halt
"""
    return Kernel(
        name="image_threshold", source=source, word_width=width,
        lmem=cols,
        expected={"row_sums": sums},
        outputs={"row_sums": ("memory", 0, rows)},
        min_lmem_words=rows,
        notes=f"{rows} rows x {num_pes} pixel columns, threshold {threshold}")


# ---------------------------------------------------------------------------
# 7. database_query — associative SELECT ... WHERE ... aggregate
# ---------------------------------------------------------------------------

def database_query(num_pes: int, age_min: int = 30, dept: int = 2,
                   width: int = 16, seed: int = 7) -> Kernel:
    """Tabular search: count, min-salary, min-holder's id, total salary.

    One employee record per PE; the selection predicate is evaluated as
    flag logic, then every reduction unit aggregates over the responders.
    """
    table = wl.employee_table(num_pes, seed=seed)
    sel = (table.ages >= age_min) & (table.depts == dept)
    ones = np.ones(num_pes, bool)
    count = red.count_responders(sel, ones)
    min_salary = red.reduce_min_unsigned(table.salaries, sel, width)
    holders = sel & (table.salaries == min_salary)
    first = red.resolve_first(holders, ones)
    who = red.reduce_or(table.ids, first, width)
    total = red.reduce_sum(table.salaries, sel, width)
    source = f"""
.text
main:
    plw    p1, 1(p0)        # age
    plw    p2, 2(p0)        # dept
    plw    p3, 3(p0)        # salary
    plw    p4, 0(p0)        # id
    pclti  f1, p1, {age_min}
    fnot   f1, f1           # age >= {age_min}
    fclr   f2
    pceqi  f2, p2, {dept}
    fand   f1, f1, f2       # responders
    rcount s1, f1
    rminu  s2, p3 [f1]      # minimum salary among responders
    fclr   f3
    pceqs  f3, p3, s2 [f1]
    rfirst f3, f3
    rget   s3, p4 [f3]      # id of (first) minimum-salary responder
    rsum   s4, p3 [f1]      # total salary (saturating)
    halt
"""
    return Kernel(
        name="database_query", source=source, word_width=width,
        lmem={0: table.ids, 1: table.ages, 2: table.depts,
              3: table.salaries},
        expected={"count": count, "min_salary": min_salary,
                  "min_holder_id": who, "salary_sum": total},
        outputs={"count": ("scalar", 1), "min_salary": ("scalar", 2),
                 "min_holder_id": ("scalar", 3), "salary_sum": ("scalar", 4)},
        min_lmem_words=4,
        notes=f"SELECT WHERE age>={age_min} AND dept=={dept}")


# ---------------------------------------------------------------------------
# 8. histogram — binned responder counts
# ---------------------------------------------------------------------------

def histogram(num_pes: int, bins: int = 8, width: int = 16,
              seed: int = 8) -> Kernel:
    """Histogram of a field via repeated range searches + rcount."""
    hi = 2 ** 10
    values = wl.random_field(num_pes, width, seed=seed, low=0, high=hi)
    step = hi // bins
    counts = [int(np.count_nonzero((values >= b * step)
                                   & (values < (b + 1) * step)))
              for b in range(bins)]
    body = "\n".join(f"""    fclr  f1
    pclti f1, p1, {(b + 1) * step}
    fclr  f2
    pclti f2, p1, {b * step}
    fandn f1, f1, f2
    rcount s1, f1
    sw    s1, {b}(s0)""" for b in range(bins))
    source = f"""
.text
main:
    plw   p1, 0(p0)
{body}
    halt
"""
    return Kernel(
        name="histogram", source=source, word_width=width,
        lmem={0: values},
        expected={"counts": counts},
        outputs={"counts": ("memory", 0, bins)},
        min_lmem_words=1,
        notes=f"{bins} bins over [0, {hi})")


# ---------------------------------------------------------------------------
# 9. reduction_storm — the multithreading microbenchmark
# ---------------------------------------------------------------------------

def reduction_storm(num_pes: int, total_iters: int = 64, threads: int = 1,
                    width: int = 16, result_base: int = 64) -> Kernel:
    """``threads`` workers each run a loop whose body issues a reduction
    and immediately consumes it — the worst case for a single thread and
    the best case for fine-grain multithreading (paper Section 5).

    The main thread spawns the workers, sends each its result slot over
    the inter-thread network (tput), and works as worker 0 itself.
    Workers deposit their checksums in scalar memory.
    """
    if threads < 1:
        raise ValueError("need at least one worker")
    iters = total_iters // threads
    if iters < 1:
        raise ValueError("fewer iterations than threads")
    mask = mask_for_width(width)

    def worker_checksum() -> int:
        x = iters       # pbcast of the loop count
        acc = 0
        for _ in range(iters):
            x = (x + 3) & mask
            acc = (acc + x) & mask
        return acc

    checks = [worker_checksum()] * threads
    source = f"""
.text
main:
    li    s1, 1             # main is worker 0: slot+1 = 1
    li    s2, {threads - 1}
    li    s3, 0
spawn:
    beq   s3, s2, work
    tspawn s4, worker
    addi  s8, s3, 2         # child's slot+1 (main holds slot 0)
    tput  s4, s8, 1
    addi  s3, s3, 1
    j     spawn
worker:
wait:
    beq   s1, s0, wait      # spin until main delivers our slot
work:
    addi  s9, s1, -1        # slot number
    li    s5, {iters}
    pbcast p1, s5
    li    s7, 0
loop:
    paddi p1, p1, 3
    rmaxu s6, p1
    add   s7, s7, s6        # consume the reduction (hazard)
    addi  s5, s5, -1
    bne   s5, s0, loop
    sw    s7, {result_base}(s9)
    texit
"""
    return Kernel(
        name="reduction_storm", source=source, word_width=width,
        expected={"checksums": checks},
        outputs={"checksums": ("memory", result_base, threads)},
        notes=f"{threads} threads x {iters} reduction-consume iterations")


# ---------------------------------------------------------------------------
# 10. knn_search — k nearest neighbours by iterative min-extraction
# ---------------------------------------------------------------------------

def knn_search(num_pes: int, k: int = 4, query: int | None = None,
               width: int = 16, seed: int = 9) -> Kernel:
    """Find the ``k`` points nearest to a broadcast query value.

    Each PE holds one 1-D point; the absolute distance is computed with
    a compare + select (no abs instruction needed), then the k nearest
    are extracted by the canonical associative loop: rminu → pceqs →
    rfirst → rget → retire.  Distances land in scalar memory.
    """
    if num_pes < k:
        raise ValueError(f"need at least k={k} PEs, got {num_pes}")
    points = wl.random_field(num_pes, width, seed=seed, low=0, high=2000)
    if query is None:
        query = int(points[0]) + 3
    index = np.arange(num_pes, dtype=np.int64)
    dists = np.abs(points - query)
    order = np.argsort(dists, kind="stable")
    expected_d = [int(dists[order[i]]) for i in range(k)]
    # Tie-break: the hardware retires the first (lowest-index) PE holding
    # each minimum, so indices follow (distance, PE index) order.
    order_ties = sorted(range(num_pes), key=lambda i: (dists[i], i))
    expected_i = [int(order_ties[i]) for i in range(k)]
    big = mask_for_width(width)

    source = f"""
.text
main:
    plw   p1, 0(p0)         # points
    plw   p4, 1(p0)         # PE index
    li    s1, {query}
    pbcast p2, s1
    psubs p3, p1, s1        # v - q
    psub  p2, p2, p1        # q - v
    fclr  f1
    pclts f1, p1, s1        # v < q ?
    psel  p3, p2, p3, f1    # |v - q|
    li    s2, 0             # loop counter
    li    s3, {k}
loop:
    rminu s4, p3            # nearest remaining distance
    fclr  f2
    pceqs f2, p3, s4
    rfirst f2, f2           # the (first) PE holding it
    rget  s5, p4 [f2]       # its index
    sw    s4, 0(s2)         # distances at mem[0..k)
    sw    s5, {k}(s2)       # indices   at mem[k..2k)
    li    s6, {big}
    pbcast p5, s6
    por   p3, p5, p0 [f2]   # retire: distance := max
    addi  s2, s2, 1
    bne   s2, s3, loop
    halt
"""
    return Kernel(
        name="knn_search", source=source, word_width=width,
        lmem={0: points, 1: index},
        expected={"distances": expected_d, "indices": expected_i},
        outputs={"distances": ("memory", 0, k),
                 "indices": ("memory", k, k)},
        min_lmem_words=2,
        notes=f"k={k} nearest to query {query} (1-D points)")


# ---------------------------------------------------------------------------
# 11. skyline_2d — maximal-vector (skyline) query with a data-dependent loop
# ---------------------------------------------------------------------------

def skyline_2d(num_pes: int, width: int = 16, seed: int = 10) -> Kernel:
    """Find the 2-D skyline (points not dominated in both coordinates).

    The associative algorithm: among the still-alive points, the one with
    the maximum x is always a skyline point; adding it lets us retire
    every alive point whose y does not exceed its y (they are dominated).
    Repeat until no point is alive — a *data-dependent* loop, terminated
    by the some/none responder test (``rnone``), unlike the counted loops
    of the other kernels.

    Outputs: the skyline size and the saturating sums of the skyline's
    x and y coordinates (order-independent checksums).
    """
    g = wl.rng(seed)
    xs = g.integers(0, 1000, size=num_pes, dtype=np.int64)
    ys = g.integers(0, 1000, size=num_pes, dtype=np.int64)

    # Oracle: p is in the skyline iff no q strictly dominates it
    # (q.x >= p.x and q.y >= p.y with at least one strict), for distinct
    # maxima handling we use the sweep that matches the kernel: repeated
    # max-x extraction with y-based elimination.
    alive = np.ones(num_pes, dtype=bool)
    members = []
    while alive.any():
        candidates = np.flatnonzero(alive)
        max_x = xs[candidates].max()
        # The kernel picks the *first* alive PE holding max x.
        pick = candidates[np.flatnonzero(xs[candidates] == max_x)[0]]
        members.append(int(pick))
        alive &= ys > ys[pick]
    ones = np.ones(num_pes, bool)
    member_mask = np.zeros(num_pes, bool)
    member_mask[members] = True
    x_sum = red.reduce_sum(xs, member_mask, width)
    y_sum = red.reduce_sum(ys, member_mask, width)

    source = """
.text
main:
    plw    p1, 0(p0)        # x
    plw    p2, 1(p0)        # y
    fset   f1               # alive
    li     s1, 0            # skyline size
    li     s2, 0            # x checksum (saturating adds via rsum later)
    li     s3, 0            # y checksum
    fclr   f4               # skyline membership
loop:
    rany   s4, f1
    beq    s4, s0, done     # no alive points left
    rmaxu  s5, p1 [f1]      # max x among alive
    fclr   f2
    pceqs  f2, p1, s5 [f1]
    rfirst f2, f2           # the skyline point found this round
    for    f4, f4, f2       # record membership
    rget   s6, p2 [f2]      # its y
    addi   s1, s1, 1
    fclr   f3
    pcleus f3, p2, s6 [f1]  # alive points with y <= picked y ...
    fandn  f1, f1, f3       # ... are dominated: retire them
    j      loop
done:
    rsum   s2, p1 [f4]      # checksum of skyline x's
    rsum   s3, p2 [f4]      # checksum of skyline y's
    halt
"""
    return Kernel(
        name="skyline_2d", source=source, word_width=width,
        lmem={0: xs, 1: ys},
        expected={"size": len(members), "x_sum": x_sum, "y_sum": y_sum},
        outputs={"size": ("scalar", 1), "x_sum": ("scalar", 2),
                 "y_sum": ("scalar", 3)},
        min_lmem_words=2,
        notes="maximal-vector query; data-dependent loop via rany")


# ---------------------------------------------------------------------------
# 12. multiword_add — 16-bit arithmetic on the 8-bit prototype
# ---------------------------------------------------------------------------

def multiword_add(num_pes: int, width: int = 16, seed: int = 11) -> Kernel:
    """Per-PE double-word (2W-bit) addition via a software carry chain.

    The prototype's data path is 8 bits wide (Section 7); wider
    arithmetic is synthesized in software, STARAN-style: add the low
    words, detect the carry with an unsigned compare (wrapped sum <
    either operand), and propagate it into the high-word add under a
    mask.  Checksums: carry count, unsigned maxima of the result words,
    and OR-reduction fingerprints.  Width-parametric: at the prototype's
    W=8 this computes 16-bit sums on the 8-bit machine.
    """
    if width not in (8, 16):
        raise ValueError("multiword_add supports W=8 or W=16")
    g = wl.rng(seed)
    wmask = mask_for_width(width)
    dmask = mask_for_width(2 * width)
    a = g.integers(0, dmask + 1, size=num_pes, dtype=np.int64)
    b = g.integers(0, dmask + 1, size=num_pes, dtype=np.int64)
    total = (a + b) & dmask
    lo, hi = total & wmask, (total >> width) & wmask
    carries = ((a & wmask) + (b & wmask)) >> width

    source = """
.text
main:
    plw   p1, 0(p0)         # a_lo
    plw   p2, 1(p0)         # a_hi
    plw   p3, 2(p0)         # b_lo
    plw   p4, 3(p0)         # b_hi
    padd  p5, p1, p3        # low-word sum (wraps at W bits)
    fclr  f1
    pcltu f1, p5, p1        # carry out: wrapped sum < an addend
    padd  p6, p2, p4        # high-word sum
    paddi p6, p6, 1 [f1]    # ... plus carry
    psw   p5, 4(p0)
    psw   p6, 5(p0)
    rcount s1, f1           # how many PEs carried
    rmaxu  s2, p5
    rmaxu  s3, p6
    ror    s4, p5
    ror    s5, p6
    halt
"""
    return Kernel(
        name="multiword_add", source=source, word_width=width,
        lmem={0: a & wmask, 1: (a >> width) & wmask,
              2: b & wmask, 3: (b >> width) & wmask},
        expected={
            "carries": int(carries.sum()) & wmask,
            "max_lo": int(lo.max()),
            "max_hi": int(hi.max()),
            "or_lo": int(np.bitwise_or.reduce(lo)),
            "or_hi": int(np.bitwise_or.reduce(hi)),
        },
        outputs={"carries": ("scalar", 1), "max_lo": ("scalar", 2),
                 "max_hi": ("scalar", 3), "or_lo": ("scalar", 4),
                 "or_hi": ("scalar", 5)},
        min_lmem_words=6,
        notes="software double-word add on the W-bit data path (carry chain)")


ALL_KERNEL_BUILDERS = {
    "vector_mac": vector_mac,
    "assoc_max_extract": assoc_max_extract,
    "count_matches": count_matches,
    "string_match": string_match,
    "mst_prim": mst_prim,
    "image_threshold": image_threshold,
    "database_query": database_query,
    "histogram": histogram,
    "reduction_storm": reduction_storm,
    "knn_search": knn_search,
    "skyline_2d": skyline_2d,
    "multiword_add": multiword_add,
}
