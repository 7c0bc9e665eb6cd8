/*
 * Stage 2 of the batched replay kernels (see repro/platform/batched.py).
 *
 * Stage 1 flattens every event's plan into typed columns: a per-event
 * template id into an interned template table, stream plans as CSR
 * rows of (lane slot, service time) with their latency/issue bound
 * constants, and, for Charon, a per-event CSR of bitmap-cache lines.
 * The two entry points below replay one phase run over those columns:
 *
 *   host_phase    cpu-ddr4 (multi-thread) and cpu-hmc
 *   charon_phase  charon (unified or distributed) and charon-cpuside
 *
 * All state a phase touches -- lane horizons, unit busy clocks, the
 * anonymous cube cursor, bitmap-cache tags and per-primitive sums --
 * lives in arrays the Python side loads before the call and writes
 * back after it, so between phases the platform objects stay
 * authoritative.
 *
 * Results must equal the event-by-event model bit for bit where that
 * model computes them one IEEE-754 operation at a time: every
 * expression keeps the scalar code's operand order and association
 * ((now + a) + b, never now + (a + b)), comparisons keep its strict
 * '<' / '>' tie rules, and the library is built with
 * -ffp-contract=off and without -ffast-math so the compiler neither
 * fuses nor reorders them.
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

static void add_duration(double *sums, uint8_t *present, int32_t p,
                         double duration)
{
    if (present[p]) {
        sums[p] = sums[p] + duration;
    } else {
        sums[p] = duration;
        present[p] = 1;
    }
}

static int64_t floor_div(int64_t a, int64_t b)
{
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        q -= 1;
    return q;
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
    /* anonymous streams: per-cube host paths */
    int64_t cubes;
    const int64_t *anon_off; /* [anon_off[c], anon_off[c+1]) */
    const int32_t *anon_res; /* lane resource index (slots 2r, 2r+1) */
    const double *anon_rate;
    const double *anon_lat;
    double mlp;
    /* state */
    double *H;
    int64_t *acc_bytes;
    int64_t *acc_reqs;
    int64_t *cursor;
    double *sums;
    uint8_t *present;
} HostKernel;

/* One faulting range streamed round-robin over the cubes, as
 * HMCHostPort.stream_anon does (dependent_batches stays 1). */
static double anon_stream(const HostKernel *k, int32_t t, double now)
{
    int64_t remaining = k->t_nbytes[t];
    int64_t share = k->t_share[t];
    int prio = k->t_prio[t] ? 1 : 0;
    double mem = now;
    while (remaining > 0) {
        int64_t cube = *k->cursor;
        *k->cursor = (cube + 1) % k->cubes;
        int64_t piece = share < remaining ? share : remaining;
        double f = now;
        for (int64_t j = k->anon_off[cube]; j < k->anon_off[cube + 1];
             j++) {
            int32_t ri = k->anon_res[j];
            int32_t sl = 2 * ri + prio;
            double s = k->H[sl];
            if (s < now)
                s = now;
            double e = s + (double)piece / k->anon_rate[j];
            k->H[sl] = e;
            if (e > f)
                f = e;
            k->acc_bytes[ri] += piece;
            k->acc_reqs[ri] += 1;
        }
        double lat = k->anon_lat[cube];
        int64_t requests = (piece + 63) / 64;
        double fl = (now + lat * 1.0)
            + (double)(requests - 1) * (lat / k->mlp);
        if (fl > f)
            f = fl;
        if (f > mem)
            mem = f;
        remaining -= piece;
    }
    return mem;
}

int host_phase(const HostKernel *k, int64_t lo, int64_t hi, double start,
               double *out)
{
    int64_t n = k->threads;
    Clock *heap = n > 0 ? malloc(sizeof(Clock) * (size_t)n) : NULL;
    if (heap == NULL)
        return -1;
    for (int64_t i = 0; i < n; i++) {
        heap[i].t = start;
        heap[i].k = i;
    }
    double busy = 0.0;
    const Streams *st = &k->st;
    for (int64_t i = lo; i < hi; i++) {
        double now = heap[0].t;
        double finish = now + k->compute[i];
        int32_t t = k->tid[i];
        if (t >= 0) {
            double mem;
            if (k->t_anon[t]) {
                mem = anon_stream(k, t, now);
            } else {
                mem = now;
                for (int64_t r = k->t_off[t]; r < k->t_off[t + 1]; r++) {
                    int64_t s = k->t_stream[r];
                    double f = reserve_lanes(st, k->H, s, now);
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
        double duration = finish - now;
        add_duration(k->sums, k->present, k->pid[i], duration);
        busy += duration;
        Clock c = {finish, heap[0].k};
        heap_replace_top(heap, n, c);
    }
    out[0] = latest(heap, n);
    out[1] = busy;
    free(heap);
    return 0;
}

/* ---------------------------------------------------------------- */
/* Charon offload kernel                                             */
/* ---------------------------------------------------------------- */

enum { KIND_FIXED = 0, KIND_COPY = 1, KIND_SEARCH = 2, KIND_SCAN = 3,
       KIND_BITMAP = 4 };

/* Per-slice bitmap-cache statistics deltas. */
enum { BC_HITS = 0, BC_MISSES, BC_EVICTIONS, BC_WRITEBACKS,
       BC_READ_ACCESSES, BC_READ_HITS, BC_STATS };

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
    double *unit_busy;
    int64_t *unit_cmds;
    double *unit_time;
    /* bitmap cache: sets x ways per slice */
    int64_t sets;
    int64_t ways;
    int64_t line_bytes;
    int64_t *tag;
    uint8_t *dirty;
    int64_t *stamp;           /* 0: invalid way; larger: more recent */
    int64_t *clock;           /* per slice: last stamp handed out */
    int64_t *bc_stats;        /* BC_STATS per slice */
    /* state */
    double *H;
    double *sums;
    uint8_t *present;
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
    double s = k->H[sl];
    if (s < ready)
        s = ready;
    double d = s + k->tlb_svc;
    k->H[sl] = d;
    return d;
}

int charon_phase(const CharonKernel *k, int64_t lo, int64_t hi,
                 double start, double *out)
{
    int64_t n = k->threads;
    Clock *heap = n > 0 ? malloc(sizeof(Clock) * (size_t)n) : NULL;
    if (heap == NULL)
        return -1;
    for (int64_t i = 0; i < n; i++) {
        heap[i].t = start;
        heap[i].k = i;
    }
    const Streams *st = &k->st;
    double *H = k->H;
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
        add_duration(k->sums, k->present, k->pid[i], r - now);
        Clock c = {r, heap[0].k};
        heap_replace_top(heap, n, c);
    }
    out[0] = latest(heap, n);
    free(heap);
    return 0;
}
