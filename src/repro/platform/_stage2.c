/*
 * Stage 2 of the batched replay kernels (see repro/platform/batched.py).
 *
 * Stage 1 flattens every event's plan into typed columns: a per-event
 * template id into an interned template table, stream plans as CSR
 * rows of (lane slot, service time) with their latency/issue bound
 * constants, and, for Charon, a per-event CSR of bitmap-cache lines.
 * It also lays the trace out as a step table: one step per phase run
 * (its event range), then one empty step per residual-only phase, each
 * with the phase's residual host work and whether the bitmap cache is
 * flushed after it.  The two entry points below replay one whole trace
 * over those columns, step by step:
 *
 *   host_trace    cpu-ddr4 (multi-thread) and cpu-hmc
 *   charon_trace  charon (unified or distributed) and charon-cpuside
 *
 * At each step they run the phase's recurrence, charge the residual
 * share at its barrier, flush the bitmap cache if the step says so,
 * and note the step's span.  All state a trace touches -- lane
 * horizons and the counters of the resources residual and anonymous
 * streams reserve, unit busy clocks, the anonymous cube cursor,
 * bitmap-cache tags and per-primitive sums -- lives in arrays the
 * Python side loads once before the call and writes back once after
 * it, so between traces the platform objects stay authoritative.
 *
 * Results must equal the event-by-event model bit for bit where that
 * model computes them one IEEE-754 operation at a time: every
 * expression keeps the scalar code's operand order and association
 * ((now + a) + b, never now + (a + b)), comparisons keep its strict
 * '<' / '>' tie rules, float counters add in the scalar code's order
 * (a step's deferred deposits, then its residual's reservations), and
 * the library is built with -ffp-contract=off and without -ffast-math
 * so the compiler neither fuses nor reorders them.
 */

#include <stdint.h>
#include <stdlib.h>

/* ---------------------------------------------------------------- */
/* Shared pieces                                                     */
/* ---------------------------------------------------------------- */

/* Interned stream plans: stream s reserves slot[j] for svc[j] seconds,
 * j in [off[s], off[s+1]), and is bounded below by (now + a) + b
 * (latency/MLP) and, for Charon units, (now + i1) + i2 (issue rate). */
typedef struct {
    const int64_t *off;
    const int32_t *slot;
    const double *svc;
    const double *a;
    const double *b;
    const double *i1;
    const double *i2;
} Streams;

/* Lane horizons (slots 2r bulk, 2r+1 short-request, per resource r),
 * and the FluidResource counters of resources [0, accounted): the ones
 * residual and anonymous streams reserve one request at a time. */
typedef struct {
    double *H;
    int64_t accounted;
    int64_t *bytes;
    int64_t *reqs;
    double *busy;
    double *energy;
    const double *rate;
    const double *epb;
    int64_t *acc_bytes;       /* a step's anonymous event streams, */
    int64_t *acc_reqs;        /* deposited at its end */
} Lanes;

/* Anonymous streams: spread round-robin over per-cube host paths
 * [off[c], off[c+1]) of resources res[j] (cubes == 0: none). */
typedef struct {
    int64_t cubes;
    const int64_t *off;
    const int32_t *res;
    const double *lat;
    double mlp;
    int64_t *cursor;
} Anon;

/* The trace's steps: events [lo[s], hi[s]), residual res[s] (-1: none),
 * flush[s] (Charon: flush the bitmap cache after the step), and out:
 * span[2s], span[2s+1] = the step's start and duration.  A residual r
 * is one thread's share of the phase's host work: compute[r] seconds
 * and a miss stream of nbytes[r] bytes, anonymous (stream[r] < 0) or
 * interned stream stream[r] reserving nbytes[r] on each of its lanes. */
typedef struct {
    int64_t count;
    const int64_t *lo;
    const int64_t *hi;
    const int32_t *res;
    const int8_t *flush;
    int64_t threads;          /* the residual's host threads */
    const double *compute;
    const int64_t *nbytes;
    const int32_t *stream;
    double *span;
} Steps;

/* Reserve every lane of stream s from `now` and return the latest
 * reservation end, or `now` if the stream reserves nothing. */
static double reserve_lanes(const Streams *st, double *H, int64_t s,
                            double now)
{
    double f = now;
    for (int64_t j = st->off[s]; j < st->off[s + 1]; j++) {
        int32_t sl = st->slot[j];
        double t = H[sl];
        if (t < now)
            t = now;
        double e = t + st->svc[j];
        H[sl] = e;
        if (e > f)
            f = e;
    }
    return f;
}

/* FluidResource._account: one reservation of `nbytes` on resource r. */
static void account(const Lanes *ln, int32_t r, int64_t nbytes,
                    double service)
{
    ln->bytes[r] += nbytes;
    ln->busy[r] += service;
    ln->energy[r] += (double)nbytes * ln->epb[r];
    ln->reqs[r] += 1;
}

/* FluidResource.account_bulk of each resource's deferred requests. */
static void deposit(const Lanes *ln)
{
    for (int64_t r = 0; r < ln->accounted; r++) {
        int64_t nbytes = ln->acc_bytes[r];
        if (!(nbytes | ln->acc_reqs[r]))
            continue;
        ln->bytes[r] += nbytes;
        ln->busy[r] += (double)nbytes / ln->rate[r];
        ln->energy[r] += (double)nbytes * ln->epb[r];
        ln->reqs[r] += ln->acc_reqs[r];
        ln->acc_bytes[r] = 0;
        ln->acc_reqs[r] = 0;
    }
}

/* HMCHostPort.stream_anon of `remaining` bytes in pieces of `share`
 * (dependent_batches stays 1).  Each piece is accounted at once
 * (`now_accounted`), or deferred to the step's deposit. */
static double anon_stream(const Lanes *ln, const Anon *an,
                          int64_t remaining, int64_t share, int prio,
                          double now, int now_accounted)
{
    double mem = now;
    while (remaining > 0) {
        int64_t cube = *an->cursor;
        *an->cursor = (cube + 1) % an->cubes;
        int64_t piece = share < remaining ? share : remaining;
        double f = now;
        for (int64_t j = an->off[cube]; j < an->off[cube + 1]; j++) {
            int32_t ri = an->res[j];
            int32_t sl = 2 * ri + prio;
            double s = ln->H[sl];
            if (s < now)
                s = now;
            double service = (double)piece / ln->rate[ri];
            double e = s + service;
            ln->H[sl] = e;
            if (e > f)
                f = e;
            if (now_accounted) {
                account(ln, ri, piece, service);
            } else {
                ln->acc_bytes[ri] += piece;
                ln->acc_reqs[ri] += 1;
            }
        }
        double lat = an->lat[cube];
        int64_t requests = (piece + 63) / 64;
        double fl = (now + lat * 1.0)
            + (double)(requests - 1) * (lat / an->mlp);
        if (fl > f)
            f = fl;
        if (f > mem)
            mem = f;
        remaining -= piece;
    }
    return mem;
}

/* HostCostModel.residual_seconds from `now`: the share is the longer
 * of the compute time and the miss stream's completion. */
static double residual_share(const Streams *st, const Lanes *ln,
                             const Anon *an, const Steps *sp, int32_t r,
                             double now)
{
    int64_t nbytes = sp->nbytes[r];
    int32_t s = sp->stream[r];
    double mem;
    if (s < 0) {
        int64_t share = nbytes / (an->cubes ? an->cubes : 1);
        if (share < 64)
            share = 64;
        mem = anon_stream(ln, an, nbytes, share, 1, now, 1);
    } else {
        mem = reserve_lanes(st, ln->H, s, now);
        double fl = (now + st->a[s]) + st->b[s];
        if (fl > mem)
            mem = fl;
        for (int64_t j = st->off[s]; j < st->off[s + 1]; j++)
            account(ln, st->slot[j] >> 1, nbytes, st->svc[j]);
    }
    double m = mem - now;
    double c = sp->compute[r];
    return m > c ? m : c;
}

/* GC thread clocks: a binary min-heap ordered like Python tuples
 * (clock, thread), so threads are picked in heapq's order. */
typedef struct {
    double t;
    int64_t k;
} Clock;

static int earlier(Clock x, Clock y)
{
    return x.t < y.t || (x.t == y.t && x.k < y.k);
}

/* Replace the minimum with `c` and restore the heap. */
static void heap_replace_top(Clock *heap, int64_t n, Clock c)
{
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1;
        if (l >= n)
            break;
        int64_t m = l;
        if (l + 1 < n && earlier(heap[l + 1], heap[l]))
            m = l + 1;
        if (!earlier(heap[m], c))
            break;
        heap[i] = heap[m];
        i = m;
    }
    heap[i] = c;
}

static double latest(const Clock *heap, int64_t n)
{
    double barrier = heap[0].t;
    for (int64_t i = 1; i < n; i++)
        if (heap[i].t > barrier)
            barrier = heap[i].t;
    return barrier;
}

/* Per-primitive sums: first[p] is 0 until primitive p's first event,
 * then that event's step + 1 (the order its key enters the result). */
static void add_duration(double *sums, int64_t *first, int32_t p,
                         double duration, int64_t step)
{
    if (first[p]) {
        sums[p] = sums[p] + duration;
    } else {
        sums[p] = duration;
        first[p] = step + 1;
    }
}

static int64_t floor_div(int64_t a, int64_t b)
{
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        q -= 1;
    return q;
}

/* One phase run's recurrence from the heap (every thread at the step's
 * start); returns the barrier. */
typedef double (*RunFn)(const void *k, Clock *heap, int64_t lo,
                        int64_t hi, int64_t step);
/* After a step's residual: fold per-step state, flush if `flush`. */
typedef void (*EndFn)(const void *k, int flush);

typedef struct {
    int64_t threads;
    const Streams *st;
    const Lanes *ln;
    const Anon *an;
    const Steps *sp;
} Walk;

/* The replayer's phase loop: every step's run, deposits, residual
 * share (at the barrier, split over the host threads), end hook and
 * span.  out = (end time, residual seconds summed over threads). */
static int walk_steps(const Walk *w, const void *k, RunFn run, EndFn end,
                      double start, double *out)
{
    int64_t n = w->threads;
    Clock *heap = n > 0 ? malloc(sizeof(Clock) * (size_t)n) : NULL;
    if (heap == NULL)
        return -1;
    const Steps *sp = w->sp;
    double now = start;
    double residual = 0.0;
    for (int64_t s = 0; s < sp->count; s++) {
        double begin = now;
        for (int64_t i = 0; i < n; i++) {
            heap[i].t = now;
            heap[i].k = i;
        }
        now = run(k, heap, sp->lo[s], sp->hi[s], s);
        deposit(w->ln);
        double span = 0.0;
        int32_t r = sp->res[s];
        if (r >= 0) {
            double share = residual_share(w->st, w->ln, w->an, sp, r, now);
            residual += share * (double)sp->threads;
            now += share;
            span = share;  /* a residual-only step's span: its share */
        }
        if (end != NULL)
            end(k, sp->flush[s]);
        sp->span[2 * s] = begin;
        sp->span[2 * s + 1] = sp->lo[s] < sp->hi[s] ? now - begin : span;
    }
    out[0] = now;
    out[1] = residual;
    free(heap);
    return 0;
}

/* ---------------------------------------------------------------- */
/* Host-executed kernels                                             */
/* ---------------------------------------------------------------- */

typedef struct {
    int64_t threads;
    /* per event */
    const double *compute;
    const int32_t *tid;      /* -1: no memory stream */
    const int32_t *pid;
    /* templates: a list of runs, or one anonymous stream */
    const int8_t *t_anon;
    const int64_t *t_off;    /* runs [t_off[t], t_off[t+1]) of t_stream */
    const int32_t *t_stream;
    const int64_t *t_nbytes;
    const int64_t *t_share;
    const int8_t *t_prio;
    Streams st;
    Anon anon;
    Lanes lanes;
    Steps steps;
    double *sums;
    int64_t *first;
} HostKernel;

static double host_run(const void *kv, Clock *heap, int64_t lo,
                       int64_t hi, int64_t step)
{
    const HostKernel *k = kv;
    int64_t n = k->threads;
    const Streams *st = &k->st;
    double *H = k->lanes.H;
    for (int64_t i = lo; i < hi; i++) {
        double now = heap[0].t;
        double finish = now + k->compute[i];
        int32_t t = k->tid[i];
        if (t >= 0) {
            double mem;
            if (k->t_anon[t]) {
                mem = anon_stream(&k->lanes, &k->anon, k->t_nbytes[t],
                                  k->t_share[t], k->t_prio[t] ? 1 : 0,
                                  now, 0);
            } else {
                mem = now;
                for (int64_t r = k->t_off[t]; r < k->t_off[t + 1]; r++) {
                    int64_t s = k->t_stream[r];
                    double f = reserve_lanes(st, H, s, now);
                    double fl = (now + st->a[s]) + st->b[s];
                    if (fl > f)
                        f = fl;
                    if (f > mem)
                        mem = f;
                }
            }
            if (mem > finish)
                finish = mem;
        }
        add_duration(k->sums, k->first, k->pid[i], finish - now, step);
        Clock c = {finish, heap[0].k};
        heap_replace_top(heap, n, c);
    }
    return latest(heap, n);
}

int host_trace(const HostKernel *k, double start, double *out)
{
    Walk w = {k->threads, &k->st, &k->lanes, &k->anon, &k->steps};
    return walk_steps(&w, k, host_run, NULL, start, out);
}

/* ---------------------------------------------------------------- */
/* Charon offload kernel                                             */
/* ---------------------------------------------------------------- */

enum { KIND_FIXED = 0, KIND_COPY = 1, KIND_SEARCH = 2, KIND_SCAN = 3,
       KIND_BITMAP = 4 };

/* Per-slice bitmap-cache statistics deltas. */
enum { BC_HITS = 0, BC_MISSES, BC_EVICTIONS, BC_WRITEBACKS,
       BC_READ_ACCESSES, BC_READ_HITS, BC_FLUSHES, BC_STATS };

typedef struct {
    int64_t threads;
    /* per event */
    const int32_t *tid;
    const int32_t *pid;
    const int64_t *line_off;  /* bitmap lines [line_off[i], line_off[i+1]) */
    const int64_t *line_addr;
    const int32_t *line_slice;
    const double *line_pen;
    /* templates */
    const int8_t *t_kind;
    const int32_t *t_pool;
    const int64_t *t_chain;   /* 3 per template: request addends
                                 [c0, c1), response addends [c1, c2) */
    const double *chain;
    const int8_t *t_ntlb;
    const int32_t *t_tlb_slot; /* 2 per template */
    const double *t_tlb_pen;
    const int64_t *t_group;   /* 3 per template: first stream group
                                 [g0, g1), second [g1, g2) */
    const int32_t *t_stream;
    const double *t_tail;
    Streams st;
    Anon anon;
    Lanes lanes;
    Steps steps;
    /* constants */
    double dispatch;
    double tlb_svc;
    double access_lat;
    double bc_svc;
    double bc_mem;
    int64_t bc_enabled;
    const int32_t *bc_slot;   /* per slice */
    /* unit pools: units [pool_off[p], pool_off[p+1]) */
    const int64_t *pool_off;
    int64_t units;
    double *unit_busy;
    int64_t *unit_cmds;
    double *unit_time;        /* this step's busy seconds */
    double *unit_total;       /* ProcessingUnit.busy_time */
    /* bitmap cache: sets x ways per slice */
    int64_t slices;
    int64_t sets;
    int64_t ways;
    int64_t line_bytes;
    int64_t *tag;
    uint8_t *dirty;
    int64_t *stamp;           /* 0: invalid way; larger: more recent */
    int64_t *clock;           /* per slice: last stamp handed out */
    int64_t *bc_stats;        /* BC_STATS per slice */
    double *sums;
    int64_t *first;
} CharonKernel;

/* SetAssociativeCache.access: LRU, write-back, write-allocate. */
static int cache_access(const CharonKernel *k, int32_t slice,
                        int64_t addr, int is_write)
{
    int64_t line = floor_div(addr, k->line_bytes);
    int64_t set = line - floor_div(line, k->sets) * k->sets;
    int64_t tag = floor_div(line, k->sets);
    int64_t base = ((int64_t)slice * k->sets + set) * k->ways;
    int64_t *stats = k->bc_stats + (int64_t)slice * BC_STATS;
    int64_t victim = -1;
    for (int64_t w = base; w < base + k->ways; w++) {
        if (k->stamp[w] && k->tag[w] == tag) {
            stats[BC_HITS] += 1;
            if (is_write)
                k->dirty[w] = 1;
            k->stamp[w] = ++k->clock[slice];
            return 1;
        }
        if (victim < 0 || (k->stamp[victim] && k->stamp[w] < k->stamp[victim]))
            victim = w;
    }
    stats[BC_MISSES] += 1;
    if (k->stamp[victim]) {
        stats[BC_EVICTIONS] += 1;
        if (k->dirty[victim])
            stats[BC_WRITEBACKS] += 1;
    }
    k->tag[victim] = tag;
    k->dirty[victim] = is_write ? 1 : 0;
    k->stamp[victim] = ++k->clock[slice];
    return 0;
}

/* One Charon stream from `now`: lanes, then the latency and issue
 * bounds. */
static double unit_stream(const Streams *st, double *H, int64_t s,
                          double now)
{
    double f = reserve_lanes(st, H, s, now);
    double fl = (now + st->a[s]) + st->b[s];
    if (fl > f)
        f = fl;
    double fi = (now + st->i1[s]) + st->i2[s];
    if (fi > f)
        f = fi;
    return f;
}

/* A TLB lookup issued at `ready`: the port completion (before the
 * remote penalty). */
static double tlb_port(const CharonKernel *k, int32_t t, int which,
                       double ready)
{
    int32_t sl = k->t_tlb_slot[2 * t + which];
    double *H = k->lanes.H;
    double s = H[sl];
    if (s < ready)
        s = ready;
    double d = s + k->tlb_svc;
    H[sl] = d;
    return d;
}

static double charon_run(const void *kv, Clock *heap, int64_t lo,
                         int64_t hi, int64_t step)
{
    const CharonKernel *k = kv;
    int64_t n = k->threads;
    const Streams *st = &k->st;
    double *H = k->lanes.H;
    for (int64_t i = lo; i < hi; i++) {
        double now = heap[0].t;
        int32_t t = k->tid[i];
        const int64_t *chain = k->t_chain + 3 * (int64_t)t;
        double arrival = now + k->dispatch;
        for (int64_t c = chain[0]; c < chain[1]; c++)
            arrival += k->chain[c];

        int32_t pool = k->t_pool[t];
        int64_t u = k->pool_off[pool];
        double best = k->unit_busy[u];
        for (int64_t v = u + 1; v < k->pool_off[pool + 1]; v++) {
            if (k->unit_busy[v] < best) {
                best = k->unit_busy[v];
                u = v;
            }
        }
        double s0 = arrival > best ? arrival : best;

        const int64_t *group = k->t_group + 3 * (int64_t)t;
        double finish, release, f, d;
        switch (k->t_kind[t]) {
        case KIND_FIXED:
            finish = s0 + k->t_tail[t];
            release = finish;
            break;
        case KIND_COPY: {
            f = s0;
            for (int w = 0; w < k->t_ntlb[t]; w++) {
                d = tlb_port(k, t, w, s0);
                d += k->t_tlb_pen[2 * t + w];
                if (d > f)
                    f = d;
            }
            double read_f = f;
            for (int64_t g = group[0]; g < group[1]; g++) {
                double r = unit_stream(st, H, k->t_stream[g], f);
                if (r > read_f)
                    read_f = r;
            }
            double first = f + k->access_lat;
            double write_f = first;
            for (int64_t g = group[1]; g < group[2]; g++) {
                double w = unit_stream(st, H, k->t_stream[g], first);
                if (w > write_f)
                    write_f = w;
            }
            release = read_f;
            finish = read_f > write_f ? read_f : write_f;
            break;
        }
        case KIND_SEARCH:
            d = tlb_port(k, t, 0, s0);
            f = d + k->t_tlb_pen[2 * t];
            for (int64_t g = group[0]; g < group[1]; g++) {
                double r = unit_stream(st, H, k->t_stream[g], f);
                if (r > f)
                    f = r;
            }
            finish = f + k->t_tail[t];
            release = finish;
            break;
        case KIND_SCAN: {
            d = tlb_port(k, t, 0, s0);
            f = d + k->t_tlb_pen[2 * t];
            f = unit_stream(st, H, k->t_stream[group[0]], f);
            double lf = f;
            for (int64_t g = group[1]; g < group[2]; g++) {
                double r = unit_stream(st, H, k->t_stream[g], f);
                if (r > lf)
                    lf = r;
            }
            f = lf + k->t_tail[t];
            /* mark_obj read-modify-writes, one per push */
            for (int64_t j = k->line_off[i]; j < k->line_off[i + 1]; j++) {
                int32_t ci = k->line_slice[j];
                int hit = k->bc_enabled
                    ? cache_access(k, ci, k->line_addr[j], 1) : 0;
                int32_t sl = k->bc_slot[ci];
                double s = H[sl];
                if (s < f)
                    s = f;
                d = s + k->bc_svc;
                H[sl] = d;
                if (!hit) {
                    d += k->bc_mem;
                    if (!k->bc_enabled)
                        d += k->bc_mem;
                }
                d += k->line_pen[j];
                if (d > f)
                    f = d;
            }
            finish = f;
            release = finish;
            break;
        }
        default: { /* KIND_BITMAP */
            d = tlb_port(k, t, 0, s0);
            f = d + k->t_tlb_pen[2 * t];
            double last = f;
            for (int64_t j = k->line_off[i]; j < k->line_off[i + 1]; j++) {
                int32_t ci = k->line_slice[j];
                int hit = k->bc_enabled
                    ? cache_access(k, ci, k->line_addr[j], 0) : 0;
                int64_t *stats = k->bc_stats + (int64_t)ci * BC_STATS;
                stats[BC_READ_ACCESSES] += 1;
                if (hit)
                    stats[BC_READ_HITS] += 1;
                int32_t sl = k->bc_slot[ci];
                double s = H[sl];
                if (s < f)
                    s = f;
                d = s + k->bc_svc;
                H[sl] = d;
                if (!hit)
                    d += k->bc_mem;
                d += k->line_pen[j];
                if (d > last)
                    last = d;
            }
            finish = last + k->t_tail[t];
            release = finish;
            break;
        }
        }

        k->unit_busy[u] = release;
        k->unit_cmds[u] += 1;
        k->unit_time[u] += release - s0;

        double r = finish;
        for (int64_t c = chain[1]; c < chain[2]; c++)
            r += k->chain[c];
        add_duration(k->sums, k->first, k->pid[i], r - now, step);
        Clock c = {r, heap[0].k};
        heap_replace_top(heap, n, c);
    }
    return latest(heap, n);
}

/* Each unit's busy time grows by its step's seconds, one sum per step;
 * after a MajorGC phase every slice is written back and invalidated
 * (BitmapCache.flush). */
static void charon_end(const void *kv, int flush)
{
    const CharonKernel *k = kv;
    for (int64_t u = 0; u < k->units; u++) {
        k->unit_total[u] += k->unit_time[u];
        k->unit_time[u] = 0.0;
    }
    if (!flush)
        return;
    int64_t lines = k->sets * k->ways;
    for (int64_t c = 0; c < k->slices; c++) {
        int64_t *stats = k->bc_stats + c * BC_STATS;
        stats[BC_FLUSHES] += 1;
        for (int64_t w = c * lines; w < (c + 1) * lines; w++) {
            if (k->stamp[w] && k->dirty[w])
                stats[BC_WRITEBACKS] += 1;
            k->stamp[w] = 0;
            k->dirty[w] = 0;
        }
    }
}

int charon_trace(const CharonKernel *k, double start, double *out)
{
    Walk w = {k->threads, &k->st, &k->lanes, &k->anon, &k->steps};
    return walk_steps(&w, k, charon_run, charon_end, start, out);
}
