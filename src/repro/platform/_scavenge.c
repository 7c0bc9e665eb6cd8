/*
 * ParallelScavenge's drain loop (see repro/gcalgo/parallel_scavenge.py).
 *
 * scavenge_drain runs step 3 of a MinorGC in place on the heap's u64
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

/* Word index of `addr`, or -1 when it is unaligned or off the heap. */
static int64_t word_index(const Scavenge *s, int64_t addr)
{
    if (addr % WORD)
        return -1;
    int64_t off = addr - s->base;
    if (off < 0 || off / WORD >= s->n_words)
        return -1;
    return off / WORD;
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
