/*
 * The capture kernels fast mode runs in place on the heap's u64 buffer:
 * ParallelScavenge's drain loop (scavenge_drain), the header walk of a
 * parseable space (parse_space) and MajorGC's mark, adjust and compact
 * phases (major_mark, major_adjust, major_compact), each described
 * where it is defined.
 *
 * scavenge_drain (see repro/gcalgo/parallel_scavenge.py) runs step 3 of a MinorGC in place on the heap's u64
 * buffer: pop a slot; read the referee's mark word; forward, or
 * evacuate it (age or promote it, promoting early when To overflows,
 * copy it, install the forwarding word, Scan&Push the copy's slots);
 * then update the slot, dirtying its card when an Old slot now points
 * into Young.  It is MinorGC._drain / _evacuate, the scalar oracle,
 * step for step:
 *
 *  - the evacuate phase's Copy and Scan&Push rows come out as columns,
 *    object arrays scanned in ARRAY_SCAN_CHUNK-slot chunks with the
 *    pushes front-loaded greedily (trace.chunk_refs);
 *  - the drain residual is summed in the oracle's order (pop,
 *    check_mark, allocate, each push or scan_trivial, forward_update),
 *    and the library is built with -ffp-contract=off;
 *  - every word access is checked against the heap bounds and word
 *    alignment.
 *
 * A fault returns a code and the faulting address before anything of
 * the faulting step is changed; the caller raises the oracle's error
 * by repeating that step's access in Python.  Each step reads first
 * and commits only when the row and stack buffers have room for its
 * worst case; otherwise the call returns SCAVENGE_GROW_ROWS or
 * SCAVENGE_GROW_STACK with the stack intact, and the caller grows that
 * buffer and calls again.
 */

#include <stdint.h>
#include <string.h>

#define SCAVENGE_DONE 0
#define SCAVENGE_GROW_ROWS 1  /* the row columns are too short */
#define SCAVENGE_GROW_STACK 2 /* the stack is too short */
#define SCAVENGE_BAD_WORD 3   /* out-of-heap or unaligned word */
#define SCAVENGE_BAD_OBJECT 4 /* zero or unknown klass id */
#define SCAVENGE_NO_SPACE 5   /* Old cannot take the promotion */

#define WORD 8
#define ARRAY_LENGTH_OFFSET 16
#define ARRAY_ELEMENTS_OFFSET 24
#define ARRAY_SCAN_CHUNK 50

/* Klass kind codes (heap.fast_kernels.KIND_*). */
#define KIND_INSTANCE 0
#define KIND_OBJ_ARRAY 1

/* Mark word (heap.object_model). */
#define STATE_MASK 3u
#define STATE_NORMAL 1u
#define STATE_FORWARDED 3u
#define AGE_SHIFT 2
#define AGE_MASK (15u << AGE_SHIFT)
#define FORWARD_SHIFT 8
#define MAX_AGE 15

/* Primitive codes (gcalgo.trace.PRIMITIVE_TYPE_CODES). */
#define PRIM_COPY 1
#define PRIM_SCAN_PUSH 3

#define CARD_DIRTY 0

typedef struct {
    /* the heap: u64 words from address `base` */
    uint64_t *words;
    int64_t base;
    int64_t n_words;
    int64_t *roots;
    /* the stack: root i is -(i + 1), a heap slot its address */
    int64_t *stack;
    int64_t depth;
    int64_t stack_cap;
    /* spaces: [lo, hi) ranges and the bump tops the drain moves */
    int64_t eden_lo, eden_hi;
    int64_t from_lo, from_hi;
    int64_t young_lo, young_hi;
    int64_t to_top, to_end;
    int64_t old_lo, old_top, old_end;
    int64_t tenuring_threshold;
    /* klass layout tables (heap.fast_kernels.KlassLayouts) */
    int64_t n_kinds;
    const int64_t *kind;
    const int64_t *fixed_size;
    const int64_t *ref_count;
    const int64_t *off_start;
    const int64_t *flat_offsets;
    /* card table over Old */
    uint8_t *cards;
    int64_t card_start;
    int64_t card_bytes;
    /* residual costs (gcalgo.trace.RESIDUAL_COSTS) */
    double pop_cost, check_cost, forward_cost, allocate_cost, push_cost,
        trivial_cost;
    int64_t cache_line;
    /* evacuate rows, column by column */
    uint8_t *ev_prim;
    int64_t *ev_src;
    int64_t *ev_dst;
    int64_t *ev_size_bytes;
    int64_t *ev_refs;
    int64_t *ev_pushes;
    int64_t n_events;
    int64_t ev_cap;
    /* results */
    double drain;
    int64_t drain_bytes;
    int64_t copied;
    int64_t bytes_copied;
    int64_t promoted;
    int64_t fault_addr;
} Scavenge;

/* Word index of `addr` in a heap of `n_words` words from `base`, or -1
 * when it is unaligned or off the heap. */
static int64_t heap_index(int64_t base, int64_t n_words, int64_t addr)
{
    if (addr % WORD)
        return -1;
    int64_t off = addr - base;
    if (off < 0 || off / WORD >= n_words)
        return -1;
    return off / WORD;
}

static int64_t word_index(const Scavenge *s, int64_t addr)
{
    return heap_index(s->base, s->n_words, addr);
}

static int fault(Scavenge *s, int code, int64_t addr)
{
    s->fault_addr = addr;
    return code;
}

/* Rows one Scan&Push of `n` slots emits (none for a trivial scan). */
static int64_t scan_rows(int64_t n)
{
    return (n + ARRAY_SCAN_CHUNK - 1) / ARRAY_SCAN_CHUNK;
}

static void emit(Scavenge *s, uint8_t prim, int64_t src, int64_t dst,
                 int64_t size, int64_t refs, int64_t pushes)
{
    int64_t i = s->n_events++;
    s->ev_prim[i] = prim;
    s->ev_src[i] = src;
    s->ev_dst[i] = dst;
    s->ev_size_bytes[i] = size;
    s->ev_refs[i] = refs;
    s->ev_pushes[i] = pushes;
}

/* Copy the object at `addr` (word `ai`, klass `kid`, `length`,
 * `size` bytes) to `dst`, forward it, and Scan&Push the copy. */
static void evacuate(Scavenge *s, int64_t addr, int64_t ai, int64_t kid,
                     int64_t length, int64_t size, int64_t dst,
                     uint64_t new_mark)
{
    uint64_t *w = s->words;
    int64_t di = (dst - s->base) / WORD;
    s->drain = s->drain + s->allocate_cost;
    memmove(w + di, w + ai, (size_t)size);
    emit(s, PRIM_COPY, addr, dst, size, 0, 0);
    s->copied += 1;
    s->bytes_copied += size;
    w[di] = new_mark;
    w[ai] = STATE_FORWARDED | (((uint64_t)dst >> 3) << FORWARD_SHIFT);

    int64_t n;
    int array = s->kind[kid] == KIND_OBJ_ARRAY;
    if (array)
        n = length;
    else if (s->kind[kid] == KIND_INSTANCE)
        n = s->ref_count[kid];
    else
        n = 0;
    if (n == 0) {
        s->drain = s->drain + s->trivial_cost;
        return;
    }
    int64_t pushes = 0;
    for (int64_t j = 0; j < n; j++) {
        int64_t slot = dst + (array ? ARRAY_ELEMENTS_OFFSET + j * WORD
                              : s->flat_offsets[s->off_start[kid] + j]);
        int64_t target = (int64_t)w[(slot - s->base) / WORD];
        if (target != 0 && s->young_lo <= target && target < s->young_hi) {
            s->stack[s->depth++] = slot;
            pushes++;
            s->drain = s->drain + s->push_cost;
        }
    }
    /* chunk_refs: full chunks, then the tail; pushes front-loaded. */
    int64_t remaining = pushes;
    for (int64_t lo = 0; lo < n; lo += ARRAY_SCAN_CHUNK) {
        int64_t count = n - lo < ARRAY_SCAN_CHUNK ? n - lo
                                                  : ARRAY_SCAN_CHUNK;
        int64_t share = count < remaining ? count : remaining;
        emit(s, PRIM_SCAN_PUSH, dst, 0, 0, count, share);
        remaining -= share;
    }
}

int scavenge_drain(Scavenge *s)
{
    uint64_t *w = s->words;
    while (s->depth > 0) {
        int64_t slot = s->stack[s->depth - 1];
        int64_t si = -1;
        int64_t ref;
        if (slot < 0) {
            ref = s->roots[-slot - 1];
        } else {
            si = word_index(s, slot);
            if (si < 0)
                return fault(s, SCAVENGE_BAD_WORD, slot);
            ref = (int64_t)w[si];
        }
        if (ref == 0
            || !((s->eden_lo <= ref && ref < s->eden_hi)
                 || (s->from_lo <= ref && ref < s->from_hi))) {
            /* null, old, or already-evacuated To-space object */
            s->depth--;
            s->drain = s->drain + s->pop_cost;
            continue;
        }
        int64_t ai = word_index(s, ref);
        if (ai < 0)
            return fault(s, SCAVENGE_BAD_WORD, ref);
        uint64_t mark = w[ai];
        int64_t new_addr;
        if ((mark & STATE_MASK) == STATE_FORWARDED) {
            s->depth--;
            s->drain = s->drain + s->pop_cost;
            s->drain = s->drain + s->check_cost;
            s->drain_bytes += s->cache_line;
            new_addr = (int64_t)((mark >> FORWARD_SHIFT) << 3);
        } else {
            /* Decode: the header words lie inside the young spaces. */
            uint64_t kid = w[ai + 1];
            if (kid == 0 || kid >= (uint64_t)s->n_kinds
                || s->kind[kid] < 0)
                return fault(s, SCAVENGE_BAD_OBJECT, ref);
            int64_t kind = s->kind[kid];
            int64_t length = 0;
            int64_t size;
            int64_t n;
            if (kind == KIND_INSTANCE) {
                size = s->fixed_size[kid];
                n = s->ref_count[kid];
            } else {
                uint64_t raw = w[ai + ARRAY_LENGTH_OFFSET / WORD];
                /* Larger than the heap: no space can take it. */
                if (raw > (uint64_t)(s->n_words * WORD))
                    return fault(s, SCAVENGE_NO_SPACE, ref);
                length = (int64_t)raw;
                if (kind == KIND_OBJ_ARRAY) {
                    size = ARRAY_ELEMENTS_OFFSET + length * WORD;
                    n = length;
                } else {
                    size = ARRAY_ELEMENTS_OFFSET
                        + (length + WORD - 1) / WORD * WORD;
                    n = 0;
                }
            }
            int64_t age = (int64_t)((mark & AGE_MASK) >> AGE_SHIFT) + 1;
            if (age > MAX_AGE)
                age = MAX_AGE;
            int promote = age >= s->tenuring_threshold;
            if (!promote && s->to_top + size > s->to_end)
                promote = 1; /* survivor overflow promotes early */
            if (promote && s->old_top + size > s->old_end)
                return fault(s, SCAVENGE_NO_SPACE, ref);
            if (ai + size / WORD > s->n_words)
                return fault(s, SCAVENGE_BAD_WORD, ref + size - WORD);
            if (s->n_events + 1 + scan_rows(n) > s->ev_cap)
                return SCAVENGE_GROW_ROWS;
            if (s->depth - 1 + n > s->stack_cap)
                return SCAVENGE_GROW_STACK;

            s->depth--;
            s->drain = s->drain + s->pop_cost;
            s->drain = s->drain + s->check_cost;
            s->drain_bytes += s->cache_line;
            uint64_t new_mark;
            if (promote) {
                new_addr = s->old_top;
                s->old_top += size;
                new_mark = STATE_NORMAL;
                s->promoted += 1;
            } else {
                new_addr = s->to_top;
                s->to_top += size;
                new_mark = STATE_NORMAL | ((uint64_t)age << AGE_SHIFT);
            }
            evacuate(s, ref, ai, (int64_t)kid, length, size, new_addr,
                     new_mark);
        }
        if (slot < 0) {
            s->roots[-slot - 1] = new_addr;
        } else {
            w[si] = (uint64_t)new_addr;
            if (new_addr != 0 && s->old_lo <= slot && slot < s->old_end
                && s->young_lo <= new_addr && new_addr < s->young_hi)
                s->cards[(slot - s->card_start) / s->card_bytes]
                    = CARD_DIRTY;
        }
        s->drain = s->drain + s->forward_cost;
    }
    return SCAVENGE_DONE;
}

/*
 * parse_space: the header walk of a parseable range (see
 * repro/heap/fast_kernels.py), one object after the other from
 * `cursor` to `top`, into address / klass id / length / size columns.
 * It reads what JavaHeap.object_at reads, in its order (klass word,
 * then the array length), and faults where the scalar walk raises.
 * It returns SCAVENGE_GROW_ROWS with `cursor` at the first object
 * not recorded when the columns are full.
 */

#define PARSE_BAD_LENGTH 6 /* an array longer than the heap */

typedef struct {
    const uint64_t *words;
    int64_t base;
    int64_t n_words;
    int64_t cursor;
    int64_t top;
    int64_t n_kinds;
    const int64_t *kind;
    const int64_t *fixed_size;
    int64_t *addrs;
    int64_t *kids;
    int64_t *lengths;
    int64_t *sizes;
    int64_t count;
    int64_t cap;
    int64_t fault_addr;
} ParseSpace;

int parse_space(ParseSpace *p)
{
    while (p->cursor < p->top) {
        int64_t addr = p->cursor;
        if (p->count == p->cap)
            return SCAVENGE_GROW_ROWS;
        int64_t ki = heap_index(p->base, p->n_words, addr + WORD);
        if (ki < 0) {
            p->fault_addr = addr + WORD;
            return SCAVENGE_BAD_WORD;
        }
        uint64_t kid = p->words[ki];
        if (kid == 0 || kid >= (uint64_t)p->n_kinds || p->kind[kid] < 0) {
            p->fault_addr = addr;
            return SCAVENGE_BAD_OBJECT;
        }
        int64_t kind = p->kind[kid];
        int64_t length = 0;
        int64_t size;
        if (kind == KIND_INSTANCE) {
            size = p->fixed_size[kid];
        } else {
            int64_t li = heap_index(p->base, p->n_words,
                                    addr + ARRAY_LENGTH_OFFSET);
            if (li < 0) {
                p->fault_addr = addr + ARRAY_LENGTH_OFFSET;
                return SCAVENGE_BAD_WORD;
            }
            uint64_t raw = p->words[li];
            if (raw > (uint64_t)(p->n_words * WORD)) {
                p->fault_addr = addr;
                return PARSE_BAD_LENGTH;
            }
            length = (int64_t)raw;
            size = kind == KIND_OBJ_ARRAY
                ? ARRAY_ELEMENTS_OFFSET + length * WORD
                : ARRAY_ELEMENTS_OFFSET + (length + WORD - 1) / WORD * WORD;
        }
        int64_t i = p->count++;
        p->addrs[i] = addr;
        p->kids[i] = (int64_t)kid;
        p->lengths[i] = length;
        p->sizes[i] = size;
        p->cursor = addr + size;
    }
    return SCAVENGE_DONE;
}

/*
 * MajorGC's mark, adjust and compact phases (repro/gcalgo/
 * mark_compact.py), one entry point each, step for step the scalar
 * oracle's _mark, _adjust_pointers/_new_address and _compact/
 * _unmark_young; the summary between them stays in numpy.  As in
 * scavenge_drain, rows come out as columns, residuals are summed in
 * the oracle's order, and a fault returns before the faulting step
 * changes anything.
 */

#define MAJOR_BAD_SPAN 7  /* an Old object past the bitmaps' coverage */
#define MAJOR_BAD_GAP 8   /* a dead gap no filler object fits */
#define MAJOR_GROW_LIVE 9 /* a live-object column is full */

#define MARK_BIT (1u << 6)
#define REGION_BYTES (512 * WORD)
#define PRIM_BITMAP_COUNT 4
#define FILLER_HEADER_BYTES 16

typedef struct {
    uint64_t *words;
    int64_t base;
    int64_t n_words;
    const int64_t *roots;
    int64_t n_roots;
    int64_t roots_done;
    /* the mark stack, and the set of addresses ever pushed: one bit per
     * heap word (an address off the heap or unaligned is looked up in
     * the stack, where it stays until its pop faults) */
    int64_t *stack;
    int64_t depth;
    int64_t stack_cap;
    uint64_t *pushed;
    int64_t old_lo, old_hi;
    /* the begin/end mark bitmaps, one bit per heap word from `base` */
    uint64_t *beg;
    uint64_t *end;
    int64_t n_kinds;
    const int64_t *kind;
    const int64_t *fixed_size;
    const int64_t *ref_count;
    const int64_t *off_start;
    const int64_t *flat_offsets;
    double root_cost, pop_cost, check_cost, trivial_cost;
    int64_t cache_line;
    /* live objects in pop order: Old (address, size) and the rest */
    int64_t *old_addr;
    int64_t *old_size;
    int64_t n_old;
    int64_t old_cap;
    int64_t *young;
    int64_t n_young;
    int64_t young_cap;
    /* mark-phase Scan&Push rows */
    int64_t *ev_src;
    int64_t *ev_refs;
    int64_t *ev_pushes;
    int64_t n_events;
    int64_t ev_cap;
    double mark;
    int64_t mark_bytes;
    int64_t touched; /* residual contributions (0: no "mark" residual) */
    int64_t slots;   /* reference slots scanned */
    int64_t fault_addr;
} MajorMark;

/* Push `addr` unless it was pushed before; returns 1 on a push. */
static int mark_push(MajorMark *m, int64_t addr)
{
    int64_t i = heap_index(m->base, m->n_words, addr);
    if (i >= 0) {
        uint64_t bit = (uint64_t)1 << (i & 63);
        if (m->pushed[i >> 6] & bit)
            return 0;
        m->pushed[i >> 6] |= bit;
    } else {
        for (int64_t j = 0; j < m->depth; j++)
            if (m->stack[j] == addr)
                return 0;
    }
    m->stack[m->depth++] = addr;
    return 1;
}

int major_mark(MajorMark *m)
{
    uint64_t *w = m->words;
    if (!m->roots_done) {
        /* The caller sizes the stack for every root. */
        for (int64_t r = 0; r < m->n_roots; r++) {
            m->mark = m->mark + m->root_cost;
            m->mark_bytes += m->cache_line;
            m->touched++;
            if (m->roots[r] != 0)
                mark_push(m, m->roots[r]);
        }
        m->roots_done = 1;
    }
    int64_t heap_end = m->base + m->n_words * WORD;
    while (m->depth > 0) {
        int64_t addr = m->stack[m->depth - 1];
        /* JavaHeap.object_at, then the mark-word read. */
        int64_t ki = heap_index(m->base, m->n_words, addr + WORD);
        if (ki < 0) {
            m->fault_addr = addr + WORD;
            return SCAVENGE_BAD_WORD;
        }
        uint64_t kid = w[ki];
        if (kid == 0 || kid >= (uint64_t)m->n_kinds || m->kind[kid] < 0) {
            m->fault_addr = addr;
            return SCAVENGE_BAD_OBJECT;
        }
        int64_t kind = m->kind[kid];
        uint64_t length = 0;
        if (kind != KIND_INSTANCE) {
            int64_t li = heap_index(m->base, m->n_words,
                                    addr + ARRAY_LENGTH_OFFSET);
            if (li < 0) {
                m->fault_addr = addr + ARRAY_LENGTH_OFFSET;
                return SCAVENGE_BAD_WORD;
            }
            length = w[li];
        }
        int64_t ai = heap_index(m->base, m->n_words, addr);
        if (ai < 0) {
            m->fault_addr = addr;
            return SCAVENGE_BAD_WORD;
        }
        int old = m->old_lo <= addr && addr < m->old_hi;
        /* Bytes from addr to the heap end bound every in-heap size. */
        uint64_t room = (uint64_t)(heap_end - addr);
        int64_t size = 0;
        if (kind == KIND_INSTANCE)
            size = m->fixed_size[kid];
        else if (length <= room)
            size = kind == KIND_OBJ_ARRAY
                ? ARRAY_ELEMENTS_OFFSET + (int64_t)length * WORD
                : ARRAY_ELEMENTS_OFFSET
                    + ((int64_t)length + WORD - 1) / WORD * WORD;
        if (old && (size == 0 || addr + size > heap_end)) {
            m->fault_addr = addr;
            return MAJOR_BAD_SPAN;
        }
        int64_t n;
        if (kind == KIND_INSTANCE) {
            n = m->ref_count[kid];
            for (int64_t j = 0; j < n; j++) {
                int64_t slot = addr + m->flat_offsets[m->off_start[kid] + j];
                if (slot >= heap_end) {
                    m->fault_addr = slot;
                    return SCAVENGE_BAD_WORD;
                }
            }
        } else if (kind == KIND_OBJ_ARRAY) {
            /* The first element past the heap faults. */
            int64_t fit = (heap_end - addr - ARRAY_ELEMENTS_OFFSET) / WORD;
            if (fit < 0)
                fit = 0;
            if (length > (uint64_t)fit) {
                m->fault_addr = addr + ARRAY_ELEMENTS_OFFSET + fit * WORD;
                return SCAVENGE_BAD_WORD;
            }
            n = (int64_t)length;
        } else {
            n = 0;
        }
        if (m->n_events + scan_rows(n) > m->ev_cap)
            return SCAVENGE_GROW_ROWS;
        if (m->depth - 1 + n > m->stack_cap)
            return SCAVENGE_GROW_STACK;
        if (old ? m->n_old == m->old_cap : m->n_young == m->young_cap)
            return MAJOR_GROW_LIVE;

        m->depth--;
        m->mark = m->mark + m->pop_cost;
        m->touched++;
        w[ai] |= MARK_BIT;
        if (old) {
            int64_t first = (addr - m->base) / WORD;
            int64_t last = (addr + size - WORD - m->base) / WORD;
            m->beg[first >> 6] |= (uint64_t)1 << (first & 63);
            m->end[last >> 6] |= (uint64_t)1 << (last & 63);
            m->old_addr[m->n_old] = addr;
            m->old_size[m->n_old++] = size;
        } else {
            m->young[m->n_young++] = addr;
        }
        if (n == 0) {
            m->mark = m->mark + m->trivial_cost;
            continue;
        }
        int64_t pushes = 0;
        for (int64_t j = 0; j < n; j++) {
            int64_t slot = addr + (kind == KIND_OBJ_ARRAY
                                   ? ARRAY_ELEMENTS_OFFSET + j * WORD
                                   : m->flat_offsets[m->off_start[kid] + j]);
            int64_t target = (int64_t)w[(slot - m->base) / WORD];
            m->mark = m->mark + m->check_cost;
            if (target != 0)
                pushes += mark_push(m, target);
        }
        m->slots += n;
        int64_t remaining = pushes;
        for (int64_t lo = 0; lo < n; lo += ARRAY_SCAN_CHUNK) {
            int64_t count = n - lo < ARRAY_SCAN_CHUNK ? n - lo
                                                      : ARRAY_SCAN_CHUNK;
            int64_t share = count < remaining ? count : remaining;
            int64_t e = m->n_events++;
            m->ev_src[e] = addr;
            m->ev_refs[e] = count;
            m->ev_pushes[e] = share;
            remaining -= share;
        }
    }
    return SCAVENGE_DONE;
}

/* The post-compaction address query both adjust and compact make
 * (MajorGC._new_address): the coverage index (fast_kernels.
 * CoverageIndex) answers live_words_in_range, and the software query
 * cache's bits_cached chain carries over from adjust to compact. */
typedef struct {
    int64_t old_lo;
    int64_t prefix_end;
    const int64_t *region_dest;
    const uint64_t *coverage;
    const int64_t *prefix;
    int64_t covered_start;
    int64_t covered_end;
    int64_t last_region; /* -1 before the first query */
    int64_t last_addr;
} Destination;

static int64_t live_upto(const Destination *d, int64_t addr)
{
    int64_t bit = (addr - d->covered_start) / WORD;
    uint64_t mask = ((uint64_t)1 << (bit & 63)) - 1;
    return d->prefix[bit >> 6]
        + __builtin_popcountll(d->coverage[bit >> 6] & mask);
}

/* Returns the new address of Old object `addr` at or past the dense
 * prefix, appending its Bitmap Count row at `e`. */
static int64_t destination(Destination *d, int64_t addr, int64_t e,
                           int64_t *ev_src, int64_t *ev_bits,
                           int64_t *ev_bits_cached)
{
    int64_t region = (addr - d->old_lo) / REGION_BYTES;
    int64_t region_start = d->old_lo + region * REGION_BYTES;
    int64_t words = 0;
    if (addr > region_start) {
        int64_t end = addr < d->covered_end ? addr : d->covered_end;
        words = live_upto(d, end) - live_upto(d, region_start);
    }
    int64_t cached = -1;
    if (d->last_region == region_start && d->last_addr <= addr)
        cached = (addr - d->last_addr) / WORD;
    d->last_region = region_start;
    d->last_addr = addr;
    ev_src[e] = region_start;
    ev_bits[e] = (addr - region_start) / WORD;
    ev_bits_cached[e] = cached;
    return d->old_lo + (d->region_dest[region] + words) * WORD;
}

typedef struct {
    uint64_t *words;
    int64_t base;
    int64_t *roots;
    int64_t n_roots;
    /* live Old objects by address, then the others in mark order */
    const int64_t *live;
    int64_t n_live;
    int64_t n_kinds;
    const int64_t *kind;
    const int64_t *fixed_size;
    const int64_t *ref_count;
    const int64_t *off_start;
    const int64_t *flat_offsets;
    int64_t old_hi;
    Destination dest;
    double check_cost, forward_cost;
    /* Bitmap Count rows; the caller sizes them for every root and
     * every slot the mark scanned */
    int64_t *ev_src;
    int64_t *ev_bits;
    int64_t *ev_bits_cached;
    int64_t n_events;
    double adjust;
    int64_t touched;
} MajorAdjust;

/* The adjusted value of a reference to `target`. */
static int64_t adjusted(MajorAdjust *a, int64_t target)
{
    if (target == 0 || target < a->dest.old_lo || target >= a->old_hi)
        return target;
    if (target < a->dest.prefix_end) {
        a->adjust = a->adjust + a->check_cost;
        return target;
    }
    return destination(&a->dest, target, a->n_events++, a->ev_src,
                       a->ev_bits, a->ev_bits_cached);
}

int major_adjust(MajorAdjust *a)
{
    uint64_t *w = a->words;
    for (int64_t r = 0; r < a->n_roots; r++) {
        a->adjust = a->adjust + a->forward_cost;
        a->touched++;
        a->roots[r] = adjusted(a, a->roots[r]);
    }
    for (int64_t i = 0; i < a->n_live; i++) {
        int64_t addr = a->live[i];
        int64_t ai = (addr - a->base) / WORD;
        uint64_t kid = w[ai + 1];
        int64_t kind = a->kind[kid];
        int64_t n = kind == KIND_OBJ_ARRAY
            ? (int64_t)w[ai + ARRAY_LENGTH_OFFSET / WORD]
            : kind == KIND_INSTANCE ? a->ref_count[kid] : 0;
        for (int64_t j = 0; j < n; j++) {
            int64_t si = ai + (kind == KIND_OBJ_ARRAY
                               ? ARRAY_ELEMENTS_OFFSET / WORD + j
                               : a->flat_offsets[a->off_start[kid] + j]
                                   / WORD);
            int64_t target = (int64_t)w[si];
            a->adjust = a->adjust + a->check_cost;
            a->touched++;
            int64_t moved = adjusted(a, target);
            if (moved != target) {
                w[si] = (uint64_t)moved;
                a->adjust = a->adjust + a->forward_cost;
            }
        }
    }
    return SCAVENGE_DONE;
}

typedef struct {
    uint64_t *words;
    int64_t base;
    /* live Old objects by address, and the others */
    const int64_t *old_addr;
    const int64_t *old_size;
    int64_t n_old;
    const int64_t *young;
    int64_t n_young;
    Destination dest;
    int64_t filler_kid, filler_object_kid;
    double sweep_cost;
    /* Bitmap Count and Copy rows: at most two per moved object */
    uint8_t *ev_prim;
    int64_t *ev_src;
    int64_t *ev_dst;
    int64_t *ev_size_bytes;
    int64_t *ev_bits;
    int64_t *ev_bits_cached;
    int64_t n_events;
    double compact;
    int64_t touched;
    int64_t copied;
    int64_t bytes_copied;
    int64_t new_top;
    int64_t fault_addr;
    int64_t fault_end;
} MajorCompact;

int major_compact(MajorCompact *c)
{
    uint64_t *w = c->words;
    int64_t prefix_end = c->dest.prefix_end;
    int64_t cursor = c->dest.old_lo;
    int64_t i = 0;
    /* Dense prefix: dead gaps become filler objects (JavaHeap.
     * fill_dead_range), live objects are unmarked in place. */
    for (; i < c->n_old && c->old_addr[i] < prefix_end; i++) {
        int64_t addr = c->old_addr[i];
        if (addr > cursor) {
            int64_t gap = addr - cursor;
            if (gap % WORD || gap < FILLER_HEADER_BYTES) {
                c->fault_addr = cursor;
                c->fault_end = addr;
                return MAJOR_BAD_GAP;
            }
            int64_t gi = (cursor - c->base) / WORD;
            memset(w + gi, 0, (size_t)gap);
            w[gi] = STATE_NORMAL;
            if (gap == FILLER_HEADER_BYTES) {
                w[gi + 1] = (uint64_t)c->filler_object_kid;
            } else {
                w[gi + 1] = (uint64_t)c->filler_kid;
                w[gi + 2] = (uint64_t)(gap - ARRAY_ELEMENTS_OFFSET);
            }
            c->compact = c->compact + c->sweep_cost;
            c->touched++;
        }
        w[(addr - c->base) / WORD] &= ~(uint64_t)MARK_BIT;
        int64_t end = addr + c->old_size[i];
        if (end > cursor)
            cursor = end;
    }
    int64_t new_top = prefix_end;
    /* The rest slide left, each after its destination query. */
    for (; i < c->n_old; i++) {
        int64_t addr = c->old_addr[i];
        int64_t size = c->old_size[i];
        int64_t e = c->n_events++;
        c->ev_prim[e] = PRIM_BITMAP_COUNT;
        c->ev_dst[e] = 0;
        c->ev_size_bytes[e] = 0;
        int64_t dst = destination(&c->dest, addr, e, c->ev_src, c->ev_bits,
                                  c->ev_bits_cached);
        int64_t di = (dst - c->base) / WORD;
        if (dst != addr) {
            memmove(w + di, w + (addr - c->base) / WORD, (size_t)size);
            e = c->n_events++;
            c->ev_prim[e] = PRIM_COPY;
            c->ev_src[e] = addr;
            c->ev_dst[e] = dst;
            c->ev_size_bytes[e] = size;
            c->ev_bits[e] = 0;
            c->ev_bits_cached[e] = -1;
            c->copied += 1;
            c->bytes_copied += size;
        }
        w[di] &= ~(uint64_t)MARK_BIT;
        new_top = dst + size;
    }
    c->new_top = new_top;
    for (int64_t y = 0; y < c->n_young; y++)
        w[(c->young[y] - c->base) / WORD] &= ~(uint64_t)MARK_BIT;
    return SCAVENGE_DONE;
}
