/* satcore.c — the compiled twin of the arena CDCL core in sat.py.
 *
 * Same design as the pure-Python solver (clause arena, two-watched
 * literals with blockers, dedicated binary watch lists, VSIDS with
 * phase saving, Luby restarts, assumption solving with complete
 * failed-assumption cores, budget-capped inprocessing), implemented
 * in C99 for raw single-core speed.  Built on demand by
 * repro/smt/_native.py with the system C compiler and loaded through
 * ctypes; when no compiler is available the Python arena solver runs
 * instead, with identical semantics.
 *
 * The ABI is deliberately tiny and int-only (see the `sat_` exports
 * at the bottom): the Python wrapper keeps the DIMACS-level checks
 * and the stats dict assembly.  Every clause is permanent; callers
 * retract one by guarding it with a fresh variable they assume and
 * later retire with a unit (see sat.py).
 *
 * Clause layout in the arena: two header words then the literals.
 *   arena[cref-2]  activity (float bits; learnt clauses only use it)
 *   arena[cref-1]  size << 2 | deleted << 1 | learnt
 *   arena[cref..]  literals (var v -> 2v positive, 2v+1 negative)
 * A clause reference is the index of its first literal; reason slot 0
 * means "no reason" (index 0/1 are sentinels).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define SAT_TRUE 1
#define SAT_FALSE 0
#define SAT_UNKNOWN 2

#define HSIZE(h) ((h) >> 2)
#define HDEL(h) ((h) & 2)
#define HLEARNT(h) ((h) & 1)
#define MKHEADER(size, learnt) (((size) << 2) | (learnt))

typedef struct {
    int32_t *d;
    int32_t n, cap;
} IVec;

typedef struct {
    int32_t cref;
    int32_t aux; /* blocker (long watches) / other literal (binary) */
} Watch;

typedef struct {
    Watch *d;
    int32_t n, cap;
} WVec;

static void iv_push(IVec *v, int32_t x) {
    if (v->n == v->cap) {
        v->cap = v->cap ? v->cap * 2 : 8;
        v->d = (int32_t *)realloc(v->d, (size_t)v->cap * sizeof(int32_t));
    }
    v->d[v->n++] = x;
}

static void wv_push(WVec *v, int32_t cref, int32_t aux) {
    if (v->n == v->cap) {
        v->cap = v->cap ? v->cap * 2 : 4;
        v->d = (Watch *)realloc(v->d, (size_t)v->cap * sizeof(Watch));
    }
    v->d[v->n].cref = cref;
    v->d[v->n].aux = aux;
    v->n++;
}

typedef struct Sat {
    int32_t nvars;
    int32_t var_cap; /* allocated size of per-var arrays */

    int32_t *arena;
    int64_t arena_n, arena_cap;
    IVec clauses, learnts; /* live crefs */
    int64_t garbage;

    WVec *watches;  /* per literal: long-clause watches */
    WVec *bwatches; /* per literal: binary-clause watches */
    int8_t *vals;   /* per literal: 1 true / 0 false / -1 unassigned */
    int32_t *levels;
    int32_t *reasons;
    int8_t *phase;
    int8_t *seen;
    int8_t *model;    /* per var, snapshot of the last sat answer */

    double *activity;
    double var_inc, var_decay, cla_inc, cla_decay;
    int32_t *heap; /* indexed max-heap on activity */
    int32_t *hpos; /* var -> heap index, -1 when absent */
    int32_t heap_n;

    int32_t *trail;
    int32_t trail_n;
    int32_t *trail_lim;
    int32_t tl_n, tl_cap;
    int32_t qhead;

    int ok;

    int64_t conflicts, decisions, propagations, restarts;
    int64_t learned, subsumed, strengthened;
    int64_t simplify_at, simplify_ticks;

    IVec core; /* failed assumptions (internal literal form) */

    /* analysis scratch */
    IVec tmp_learnt, tmp_clear, tmp_stack, tmp_units;
} Sat;

/* ------------------------------------------------------------------ */
/* Heap: max-heap on var activity with position index                  */
/* ------------------------------------------------------------------ */
static void heap_up(Sat *s, int32_t i) {
    int32_t var = s->heap[i];
    double act = s->activity[var];
    while (i > 0) {
        int32_t p = (i - 1) >> 1;
        int32_t pv = s->heap[p];
        if (s->activity[pv] >= act)
            break;
        s->heap[i] = pv;
        s->hpos[pv] = i;
        i = p;
    }
    s->heap[i] = var;
    s->hpos[var] = i;
}

static void heap_down(Sat *s, int32_t i) {
    int32_t var = s->heap[i];
    double act = s->activity[var];
    int32_t n = s->heap_n;
    for (;;) {
        int32_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && s->activity[s->heap[c + 1]] > s->activity[s->heap[c]])
            c++;
        if (s->activity[s->heap[c]] <= act)
            break;
        s->heap[i] = s->heap[c];
        s->hpos[s->heap[c]] = i;
        i = c;
    }
    s->heap[i] = var;
    s->hpos[var] = i;
}

static void heap_insert(Sat *s, int32_t var) {
    if (s->hpos[var] >= 0)
        return;
    s->heap[s->heap_n] = var;
    s->hpos[var] = s->heap_n;
    s->heap_n++;
    heap_up(s, s->heap_n - 1);
}

static int32_t heap_pop(Sat *s) {
    int32_t top = s->heap[0];
    s->hpos[top] = -1;
    s->heap_n--;
    if (s->heap_n > 0) {
        s->heap[0] = s->heap[s->heap_n];
        s->hpos[s->heap[0]] = 0;
        heap_down(s, 0);
    }
    return top;
}

/* ------------------------------------------------------------------ */
/* Construction                                                        */
/* ------------------------------------------------------------------ */
Sat *sat_new(void) {
    Sat *s = (Sat *)calloc(1, sizeof(Sat));
    s->arena_cap = 1024;
    s->arena = (int32_t *)malloc((size_t)s->arena_cap * sizeof(int32_t));
    s->arena[0] = 0;
    s->arena[1] = 0;
    s->arena_n = 2; /* sentinel words so cref 0 means "no reason" */
    s->var_cap = 0;
    s->ok = 1;
    s->var_inc = 1.0;
    s->var_decay = 0.95;
    s->cla_inc = 1.0;
    s->cla_decay = 0.999;
    s->simplify_at = 2000;
    s->simplify_ticks = 400000;
    return s;
}

void sat_free(Sat *s) {
    if (!s)
        return;
    int32_t nlits = 2 * s->var_cap + 2;
    for (int32_t i = 0; i < nlits && s->watches; i++) {
        free(s->watches[i].d);
        free(s->bwatches[i].d);
    }
    free(s->watches);
    free(s->bwatches);
    free(s->arena);
    free(s->clauses.d);
    free(s->learnts.d);
    free(s->vals);
    free(s->levels);
    free(s->reasons);
    free(s->phase);
    free(s->seen);
    free(s->model);
    free(s->activity);
    free(s->heap);
    free(s->hpos);
    free(s->trail);
    free(s->trail_lim);
    free(s->core.d);
    free(s->tmp_learnt.d);
    free(s->tmp_clear.d);
    free(s->tmp_stack.d);
    free(s->tmp_units.d);
    free(s);
}

int32_t sat_new_var(Sat *s) {
    if (s->nvars + 1 > s->var_cap) {
        int32_t cap = s->var_cap ? s->var_cap * 2 : 64;
        int32_t nlits = 2 * cap + 2;
        int32_t old_nlits = s->var_cap ? 2 * s->var_cap + 2 : 0;
        s->watches = (WVec *)realloc(s->watches, (size_t)nlits * sizeof(WVec));
        s->bwatches = (WVec *)realloc(s->bwatches, (size_t)nlits * sizeof(WVec));
        memset(s->watches + old_nlits, 0, (size_t)(nlits - old_nlits) * sizeof(WVec));
        memset(s->bwatches + old_nlits, 0, (size_t)(nlits - old_nlits) * sizeof(WVec));
        s->vals = (int8_t *)realloc(s->vals, (size_t)nlits);
        s->levels = (int32_t *)realloc(s->levels, (size_t)(cap + 1) * 4);
        s->reasons = (int32_t *)realloc(s->reasons, (size_t)(cap + 1) * 4);
        s->phase = (int8_t *)realloc(s->phase, (size_t)(cap + 1));
        s->seen = (int8_t *)realloc(s->seen, (size_t)(cap + 1));
        s->model = (int8_t *)realloc(s->model, (size_t)(cap + 1));
        s->model[0] = 0;
        s->activity = (double *)realloc(s->activity, (size_t)(cap + 1) * 8);
        s->heap = (int32_t *)realloc(s->heap, (size_t)(cap + 1) * 4);
        s->hpos = (int32_t *)realloc(s->hpos, (size_t)(cap + 1) * 4);
        s->trail = (int32_t *)realloc(s->trail, (size_t)(cap + 1) * 4);
        s->var_cap = cap;
    }
    s->nvars++;
    int32_t v = s->nvars;
    s->vals[2 * v] = -1;
    s->vals[2 * v + 1] = -1;
    s->levels[v] = 0;
    s->reasons[v] = 0;
    s->phase[v] = 0;
    s->seen[v] = 0;
    s->model[v] = -1;
    s->activity[v] = 0.0;
    s->hpos[v] = -1;
    heap_insert(s, v);
    return v;
}

/* Allocate `n` consecutive variables; returns the first (n >= 1). */
int32_t sat_new_vars(Sat *s, int32_t n) {
    int32_t first = s->nvars + 1;
    while (n-- > 0)
        sat_new_var(s);
    return first;
}

/* ------------------------------------------------------------------ */
/* Clause storage                                                      */
/* ------------------------------------------------------------------ */
static int32_t new_clause(Sat *s, const int32_t *lits, int32_t n, int learnt) {
    if (s->arena_n + n + 2 > s->arena_cap) {
        while (s->arena_n + n + 2 > s->arena_cap)
            s->arena_cap *= 2;
        s->arena = (int32_t *)realloc(s->arena, (size_t)s->arena_cap * 4);
    }
    s->arena[s->arena_n++] = 0; /* activity bits */
    s->arena[s->arena_n++] = MKHEADER(n, learnt);
    int32_t cref = (int32_t)s->arena_n;
    memcpy(s->arena + s->arena_n, lits, (size_t)n * 4);
    s->arena_n += n;
    return cref;
}

static void attach(Sat *s, int32_t cref) {
    int32_t *arena = s->arena;
    int32_t size = HSIZE(arena[cref - 1]);
    int32_t l0 = arena[cref], l1 = arena[cref + 1];
    if (size == 2) {
        wv_push(&s->bwatches[l0 ^ 1], cref, l1);
        wv_push(&s->bwatches[l1 ^ 1], cref, l0);
    } else {
        wv_push(&s->watches[l0 ^ 1], cref, l1);
        wv_push(&s->watches[l1 ^ 1], cref, l0);
    }
}

static void rebuild_watches(Sat *s) {
    int32_t nlits = 2 * s->nvars + 2;
    for (int32_t i = 0; i < nlits; i++) {
        s->watches[i].n = 0;
        s->bwatches[i].n = 0;
    }
    for (int32_t k = 0; k < s->clauses.n; k++)
        if (HSIZE(s->arena[s->clauses.d[k] - 1]) >= 2)
            attach(s, s->clauses.d[k]);
    for (int32_t k = 0; k < s->learnts.n; k++)
        if (HSIZE(s->arena[s->learnts.d[k] - 1]) >= 2)
            attach(s, s->learnts.d[k]);
}

static void mark_deleted(Sat *s, int32_t cref) {
    s->arena[cref - 1] |= 2;
    s->garbage += HSIZE(s->arena[cref - 1]) + 2;
}

static void compact_arena(Sat *s) {
    /* Only sound at decision level 0: reasons are dropped wholesale. */
    int64_t need = s->arena_n - s->garbage;
    int32_t *na = (int32_t *)malloc((size_t)(need > 2 ? need : 2) * 4);
    int64_t n = 2;
    na[0] = 0;
    na[1] = 0;
    IVec *stores[2] = {&s->clauses, &s->learnts};
    for (int si = 0; si < 2; si++) {
        IVec *refs = stores[si];
        for (int32_t k = 0; k < refs->n; k++) {
            int32_t cref = refs->d[k];
            int32_t header = s->arena[cref - 1];
            int32_t size = HSIZE(header);
            na[n++] = s->arena[cref - 2];
            na[n++] = header;
            memcpy(na + n, s->arena + cref, (size_t)size * 4);
            refs->d[k] = (int32_t)n;
            n += size;
        }
    }
    free(s->arena);
    s->arena = na;
    s->arena_n = n;
    s->arena_cap = n > 2 ? n : 2;
    s->garbage = 0;
    memset(s->reasons, 0, (size_t)(s->nvars + 1) * 4);
    rebuild_watches(s);
}

/* ------------------------------------------------------------------ */
/* Assignment and propagation                                          */
/* ------------------------------------------------------------------ */
static int enqueue(Sat *s, int32_t lit, int32_t reason) {
    int8_t v = s->vals[lit];
    if (v >= 0)
        return v > 0;
    s->vals[lit] = 1;
    s->vals[lit ^ 1] = 0;
    int32_t var = lit >> 1;
    s->levels[var] = s->tl_n;
    s->reasons[var] = reason;
    s->trail[s->trail_n++] = lit;
    return 1;
}

static int32_t propagate(Sat *s) {
    WVec *watches = s->watches;
    WVec *bwatches = s->bwatches;
    int8_t *vals = s->vals;
    int32_t *arena = s->arena;
    int32_t *trail = s->trail;
    int32_t *levels = s->levels;
    int32_t *reasons = s->reasons;
    int32_t level = s->tl_n;
    int32_t qhead = s->qhead;
    int64_t nprops = 0;

    while (qhead < s->trail_n) {
        int32_t lit = trail[qhead++];
        nprops++;
        WVec *bw = &bwatches[lit];
        Watch *bd = bw->d;
        for (int32_t k = 0; k < bw->n; k++) {
            int32_t other = bd[k].aux;
            int8_t v = vals[other];
            if (v > 0)
                continue;
            if (v == 0) { /* conflict */
                s->qhead = s->trail_n;
                s->propagations += nprops;
                return bd[k].cref;
            }
            vals[other] = 1;
            vals[other ^ 1] = 0;
            int32_t bvar = other >> 1;
            levels[bvar] = level;
            reasons[bvar] = bd[k].cref;
            trail[s->trail_n++] = other;
        }
        WVec *wv = &watches[lit];
        if (!wv->n)
            continue;
        int32_t falsified = lit ^ 1;
        Watch *wd = wv->d;
        int32_t i = 0, j = 0, n = wv->n;
        while (i < n) {
            Watch w = wd[i++];
            if (vals[w.aux] > 0) { /* blocker satisfies the clause */
                wd[j++] = w;
                continue;
            }
            int32_t cref = w.cref;
            int32_t first = arena[cref];
            if (first == falsified) {
                first = arena[cref + 1];
                arena[cref] = first;
                arena[cref + 1] = falsified;
            }
            int8_t v = vals[first];
            if (v > 0) { /* the other watch is already true */
                wd[j].cref = cref;
                wd[j].aux = first;
                j++;
                continue;
            }
            int32_t end = cref + HSIZE(arena[cref - 1]);
            int32_t k = cref + 2;
            while (k < end && vals[arena[k]] == 0)
                k++;
            if (k < end) { /* found a new literal to watch */
                int32_t lk = arena[k];
                arena[cref + 1] = lk;
                arena[k] = falsified;
                wv_push(&watches[lk ^ 1], cref, first);
                wd = wv->d; /* wv_push may not touch wv, but stay safe */
                continue;
            }
            /* Clause is unit or conflicting. */
            wd[j].cref = cref;
            wd[j].aux = first;
            j++;
            if (v == 0) { /* conflict */
                while (i < n)
                    wd[j++] = wd[i++];
                wv->n = j;
                s->qhead = s->trail_n;
                s->propagations += nprops;
                return cref;
            }
            vals[first] = 1;
            vals[first ^ 1] = 0;
            int32_t fvar = first >> 1;
            levels[fvar] = level;
            reasons[fvar] = cref;
            trail[s->trail_n++] = first;
        }
        wv->n = j;
    }
    s->qhead = qhead;
    s->propagations += nprops;
    return 0;
}

static void backtrack(Sat *s, int32_t level) {
    if (s->tl_n <= level)
        return;
    int32_t bound = s->trail_lim[level];
    for (int32_t i = s->trail_n - 1; i >= bound; i--) {
        int32_t lit = s->trail[i];
        int32_t var = lit >> 1;
        s->phase[var] = (int8_t)(!(lit & 1));
        s->vals[lit] = -1;
        s->vals[lit ^ 1] = -1;
        s->reasons[var] = 0;
        heap_insert(s, var);
    }
    s->trail_n = bound;
    s->tl_n = level;
    s->qhead = bound;
}

/* ------------------------------------------------------------------ */
/* VSIDS                                                               */
/* ------------------------------------------------------------------ */
static void rescale_var_activity(Sat *s) {
    for (int32_t v = 1; v <= s->nvars; v++)
        s->activity[v] *= 1e-100;
    s->var_inc *= 1e-100;
}

static void rescale_cla_activity(Sat *s) {
    for (int32_t k = 0; k < s->learnts.n; k++) {
        int32_t cref = s->learnts.d[k];
        float a;
        memcpy(&a, &s->arena[cref - 2], 4);
        a *= 1e-20f;
        memcpy(&s->arena[cref - 2], &a, 4);
    }
    s->cla_inc *= 1e-20;
}

static void bump_var(Sat *s, int32_t var) {
    double act = s->activity[var] + s->var_inc;
    s->activity[var] = act;
    if (act > 1e100) {
        rescale_var_activity(s);
    }
    if (s->hpos[var] >= 0)
        heap_up(s, s->hpos[var]);
}

static int32_t pick_branch_var(Sat *s) {
    while (s->heap_n) {
        int32_t var = heap_pop(s);
        if (s->vals[var << 1] < 0)
            return var;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Conflict analysis (first UIP) with recursive minimisation           */
/* ------------------------------------------------------------------ */
static int lit_redundant(Sat *s, int32_t lit, uint32_t levmask) {
    int32_t *arena = s->arena;
    int32_t *levels = s->levels;
    int32_t *reasons = s->reasons;
    int8_t *seen = s->seen;
    IVec *stack = &s->tmp_stack;
    stack->n = 0;
    iv_push(stack, lit);
    int32_t marked_from = s->tmp_clear.n;
    while (stack->n) {
        int32_t p = stack->d[--stack->n];
        int32_t cref = reasons[p >> 1];
        if (!cref) {
            for (int32_t k = marked_from; k < s->tmp_clear.n; k++)
                seen[s->tmp_clear.d[k]] = 0;
            s->tmp_clear.n = marked_from;
            return 0;
        }
        int32_t pvar = p >> 1;
        int32_t size = HSIZE(arena[cref - 1]);
        for (int32_t k = cref; k < cref + size; k++) {
            int32_t q = arena[k];
            int32_t var = q >> 1;
            if (var == pvar || seen[var])
                continue;
            int32_t lv = levels[var];
            if (lv > 0) {
                if (!((1u << (lv & 31)) & levmask) || !reasons[var]) {
                    for (int32_t m = marked_from; m < s->tmp_clear.n; m++)
                        seen[s->tmp_clear.d[m]] = 0;
                    s->tmp_clear.n = marked_from;
                    return 0;
                }
                seen[var] = 1;
                iv_push(&s->tmp_clear, var);
                iv_push(stack, q);
            }
        }
    }
    return 1;
}

/* Fills s->tmp_learnt with the learnt clause; returns backtrack level. */
static int32_t analyze(Sat *s, int32_t conflict) {
    int32_t *arena = s->arena;
    int32_t *levels = s->levels;
    int32_t *reasons = s->reasons;
    int32_t *trail = s->trail;
    int8_t *seen = s->seen;
    IVec *learnt = &s->tmp_learnt;
    IVec *to_clear = &s->tmp_clear;
    learnt->n = 0;
    to_clear->n = 0;
    iv_push(learnt, 0); /* placeholder for the asserting literal */

    int32_t counter = 0;
    int32_t lit = -2; /* no skip on the conflict round */
    int32_t cref = conflict;
    int32_t index = s->trail_n;
    int32_t cur_level = s->tl_n;

    for (;;) {
        int32_t header = arena[cref - 1];
        if (HLEARNT(header)) {
            float a;
            memcpy(&a, &arena[cref - 2], 4);
            a += (float)s->cla_inc;
            memcpy(&arena[cref - 2], &a, 4);
            if (a > 1e20f)
                rescale_cla_activity(s);
        }
        int32_t size = HSIZE(header);
        int32_t skip_var = lit >> 1;
        for (int32_t k = cref; k < cref + size; k++) {
            int32_t q = arena[k];
            int32_t var = q >> 1;
            if (var == skip_var || seen[var])
                continue;
            int32_t lv = levels[var];
            if (lv > 0) {
                seen[var] = 1;
                iv_push(to_clear, var);
                bump_var(s, var);
                if (lv == cur_level)
                    counter++;
                else
                    iv_push(learnt, q);
            }
        }
        for (;;) {
            index--;
            lit = trail[index];
            if (seen[lit >> 1])
                break;
        }
        counter--;
        if (counter == 0)
            break;
        cref = reasons[lit >> 1];
        seen[lit >> 1] = 0;
    }
    learnt->d[0] = lit ^ 1;

    if (learnt->n > 1) { /* recursive minimisation */
        uint32_t levmask = 0;
        for (int32_t k = 1; k < learnt->n; k++)
            levmask |= 1u << (levels[learnt->d[k] >> 1] & 31);
        int32_t j = 1;
        for (int32_t k = 1; k < learnt->n; k++) {
            int32_t q = learnt->d[k];
            if (!reasons[q >> 1] || !lit_redundant(s, q, levmask))
                learnt->d[j++] = q;
        }
        learnt->n = j;
    }

    for (int32_t k = 0; k < to_clear->n; k++)
        seen[to_clear->d[k]] = 0;
    to_clear->n = 0;

    int32_t bt_level = 0;
    if (learnt->n > 1) {
        int32_t max_i = 1;
        for (int32_t k = 2; k < learnt->n; k++)
            if (levels[learnt->d[k] >> 1] > levels[learnt->d[max_i] >> 1])
                max_i = k;
        int32_t tmp = learnt->d[1];
        learnt->d[1] = learnt->d[max_i];
        learnt->d[max_i] = tmp;
        bt_level = levels[learnt->d[1] >> 1];
    }
    return bt_level;
}

/* The assumptions implying the (falsified) seed variables' values:
 * walk the implication graph from the seeds back to assumption
 * decisions.  Covers both final-conflict shapes.                      */
static void final_core(Sat *s, const int32_t *seed_vars, int32_t nseeds,
                       const int32_t *assume, int32_t nassume) {
    int32_t *arena = s->arena;
    int32_t *levels = s->levels;
    int8_t *seen = s->seen;
    IVec *clear = &s->tmp_clear;
    clear->n = 0;
    s->core.n = 0;
    for (int32_t k = 0; k < nseeds; k++) {
        if (!seen[seed_vars[k]]) {
            seen[seed_vars[k]] = 1;
            iv_push(clear, seed_vars[k]);
        }
    }
    for (int32_t i = s->trail_n - 1; i >= 0; i--) {
        int32_t var = s->trail[i] >> 1;
        if (!seen[var])
            continue;
        int32_t cref = s->reasons[var];
        if (cref) {
            int32_t size = HSIZE(arena[cref - 1]);
            for (int32_t k = cref; k < cref + size; k++) {
                int32_t qv = arena[k] >> 1;
                if (levels[qv] > 0 && !seen[qv]) {
                    seen[qv] = 1;
                    iv_push(clear, qv);
                }
            }
        }
    }
    /* Emit implicated assumptions in the order they were passed. */
    for (int32_t k = 0; k < nassume; k++)
        if (seen[assume[k] >> 1])
            iv_push(&s->core, assume[k]);
    for (int32_t k = 0; k < clear->n; k++)
        seen[clear->d[k]] = 0;
    clear->n = 0;
}

/* ------------------------------------------------------------------ */
/* Learned-clause database reduction                                   */
/* ------------------------------------------------------------------ */
typedef struct {
    float act;
    int32_t cref;
} ActRef;

static int actref_cmp(const void *a, const void *b) {
    float d = ((const ActRef *)a)->act - ((const ActRef *)b)->act;
    return d < 0 ? -1 : d > 0 ? 1 : 0;
}

static void reduce_db(Sat *s) {
    int32_t n = s->learnts.n;
    if (!n)
        return;
    ActRef *order = (ActRef *)malloc((size_t)n * sizeof(ActRef));
    for (int32_t k = 0; k < n; k++) {
        float a;
        memcpy(&a, &s->arena[s->learnts.d[k] - 2], 4);
        order[k].act = a;
        order[k].cref = s->learnts.d[k];
    }
    qsort(order, (size_t)n, sizeof(ActRef), actref_cmp);
    /* Reasons of trail literals are locked. */
    for (int32_t i = 0; i < s->trail_n; i++) {
        int32_t cref = s->reasons[s->trail[i] >> 1];
        if (cref && HLEARNT(s->arena[cref - 1]))
            s->arena[cref - 1] |= (int32_t)1 << 30; /* lock bit, transient */
    }
    int32_t half = n / 2;
    int32_t removed = 0;
    for (int32_t k = 0; k < half; k++) {
        int32_t cref = order[k].cref;
        int32_t header = s->arena[cref - 1];
        if ((header & ((int32_t)1 << 30)) || HSIZE(header & ~((int32_t)1 << 30)) <= 2)
            continue;
        mark_deleted(s, cref);
        removed++;
    }
    for (int32_t i = 0; i < s->trail_n; i++) {
        int32_t cref = s->reasons[s->trail[i] >> 1];
        if (cref)
            s->arena[cref - 1] &= ~((int32_t)1 << 30);
    }
    free(order);
    if (!removed)
        return;
    int32_t j = 0;
    for (int32_t k = 0; k < n; k++)
        if (!HDEL(s->arena[s->learnts.d[k] - 1]))
            s->learnts.d[j++] = s->learnts.d[k];
    s->learnts.n = j;
    /* Binaries are never reduced, so only long watches need sweeping. */
    int32_t nlits = 2 * s->nvars + 2;
    for (int32_t i = 0; i < nlits; i++) {
        WVec *w = &s->watches[i];
        int32_t jj = 0;
        for (int32_t k = 0; k < w->n; k++)
            if (!HDEL(s->arena[w->d[k].cref - 1]))
                w->d[jj++] = w->d[k];
        w->n = jj;
    }
}

/* ------------------------------------------------------------------ */
/* Inprocessing (at decision level 0, between incremental calls)       */
/* ------------------------------------------------------------------ */
typedef struct {
    int32_t size;
    int32_t cref;
} SizeRef;

static int sizeref_cmp(const void *a, const void *b) {
    return ((const SizeRef *)a)->size - ((const SizeRef *)b)->size;
}

static void simplify(Sat *s) {
    int32_t *arena = s->arena;
    int8_t *vals = s->vals;
    IVec *units = &s->tmp_units;
    units->n = 0;
    /* Level-0 facts need no justification, and watch lists are about
     * to be rebuilt wholesale. */
    memset(s->reasons, 0, (size_t)(s->nvars + 1) * 4);

    /* Phase 1: drop satisfied clauses, strip false literals. */
    IVec *stores[2] = {&s->clauses, &s->learnts};
    for (int si = 0; si < 2; si++) {
        IVec *refs = stores[si];
        int32_t j = 0;
        for (int32_t x = 0; x < refs->n; x++) {
            int32_t cref = refs->d[x];
            int32_t header = arena[cref - 1];
            int32_t size = HSIZE(header);
            int32_t end = cref + size;
            int satisfied = 0, nfalse = 0;
            for (int32_t k = cref; k < end; k++) {
                int8_t v = vals[arena[k]];
                if (v > 0) {
                    satisfied = 1;
                    break;
                }
                if (v == 0)
                    nfalse++;
            }
            if (satisfied) {
                mark_deleted(s, cref);
                continue;
            }
            if (nfalse) {
                int32_t m = 0;
                for (int32_t k = cref; k < end; k++)
                    if (vals[arena[k]] < 0)
                        arena[cref + m++] = arena[k];
                s->strengthened += nfalse;
                if (m == 0) {
                    s->ok = 0;
                    return;
                }
                if (m == 1) {
                    iv_push(units, arena[cref]);
                    mark_deleted(s, cref);
                    continue;
                }
                arena[cref - 1] = MKHEADER(m, HLEARNT(header));
                s->garbage += nfalse;
            } else if (size == 1) {
                /* An unattached unit learnt (created under pinned
                 * assumption levels): promote to a level-0 fact. */
                iv_push(units, arena[cref]);
                mark_deleted(s, cref);
                continue;
            }
            refs->d[j++] = cref;
        }
        refs->n = j;
    }

    /* Phase 2: forward subsumption + self-subsuming resolution over
     * the permanent (original) clause database.                      */
    int32_t nc = s->clauses.n;
    if (nc) {
        int32_t nlits = 2 * s->nvars + 2;
        IVec *occ = (IVec *)calloc((size_t)nlits, sizeof(IVec));
        uint64_t *sigmap = (uint64_t *)calloc((size_t)s->arena_n, sizeof(uint64_t));
        for (int32_t x = 0; x < nc; x++) {
            int32_t cref = s->clauses.d[x];
            int32_t size = HSIZE(arena[cref - 1]);
            uint64_t m = 0;
            for (int32_t k = cref; k < cref + size; k++) {
                iv_push(&occ[arena[k]], cref);
                m |= (uint64_t)1 << ((arena[k] >> 1) & 63);
            }
            sigmap[cref] = m;
        }
        SizeRef *order = (SizeRef *)malloc((size_t)nc * sizeof(SizeRef));
        for (int32_t x = 0; x < nc; x++) {
            order[x].cref = s->clauses.d[x];
            order[x].size = HSIZE(arena[order[x].cref - 1]);
        }
        qsort(order, (size_t)nc, sizeof(SizeRef), sizeref_cmp);
        int64_t ticks = s->simplify_ticks;
        for (int32_t x = 0; x < nc && ticks > 0; x++) {
            int32_t cref = order[x].cref;
            int32_t header = arena[cref - 1];
            if (HDEL(header))
                continue;
            int32_t size = HSIZE(header);
            uint64_t csig = sigmap[cref];
            int32_t best = arena[cref];
            for (int32_t k = cref + 1; k < cref + size; k++)
                if (occ[arena[k]].n < occ[best].n)
                    best = arena[k];
            for (int side = 0; side < 2 && ticks > 0; side++) {
                IVec *cand = &occ[side ? (best ^ 1) : best];
                for (int32_t ci = 0; ci < cand->n && ticks > 0; ci++) {
                    int32_t d = cand->d[ci];
                    if (d == cref)
                        continue;
                    int32_t dheader = arena[d - 1];
                    if (HDEL(dheader))
                        continue;
                    if (csig & ~sigmap[d])
                        continue;
                    int32_t dsize = HSIZE(dheader);
                    if (dsize < size)
                        continue;
                    ticks -= dsize;
                    int32_t pos = 0, nflip = 0, flipped = 0;
                    for (int32_t k = d; k < d + dsize; k++) {
                        int32_t q = arena[k];
                        int in_c = 0, in_cn = 0;
                        for (int32_t m = cref; m < cref + size; m++) {
                            if (arena[m] == q)
                                in_c = 1;
                            else if (arena[m] == (q ^ 1))
                                in_cn = 1;
                        }
                        if (in_c)
                            pos++;
                        else if (in_cn) {
                            nflip++;
                            if (nflip > 1)
                                break;
                            flipped = q;
                        }
                    }
                    if (nflip > 1)
                        continue;
                    if (pos == size) {
                        mark_deleted(s, d);
                        s->subsumed++;
                    } else if (pos == size - 1 && nflip == 1) {
                        int32_t m = 0;
                        for (int32_t k = d; k < d + dsize; k++)
                            if (arena[k] != flipped)
                                arena[d + m++] = arena[k];
                        s->strengthened++;
                        if (m == 1) {
                            iv_push(units, arena[d]);
                            mark_deleted(s, d);
                        } else {
                            arena[d - 1] = MKHEADER(m, HLEARNT(dheader));
                            s->garbage += 1;
                            /* sigmap[d] stays a superset: still sound. */
                        }
                    }
                }
            }
        }
        free(order);
        for (int32_t i = 0; i < nlits; i++)
            free(occ[i].d);
        free(occ);
        free(sigmap);
        int32_t j = 0;
        for (int32_t x = 0; x < nc; x++)
            if (!HDEL(arena[s->clauses.d[x] - 1]))
                s->clauses.d[j++] = s->clauses.d[x];
        s->clauses.n = j;
    }

    /* Rebuild watches, replay units, restore invariants. */
    rebuild_watches(s);
    for (int32_t k = 0; k < units->n; k++)
        if (!enqueue(s, units->d[k], 0)) {
            s->ok = 0;
            return;
        }
    if (propagate(s)) {
        s->ok = 0;
        return;
    }
    if (s->garbage * 2 > s->arena_n)
        compact_arena(s);
}

/* ------------------------------------------------------------------ */
/* Search                                                              */
/* ------------------------------------------------------------------ */
static int32_t luby(int32_t i) {
    for (;;) {
        int32_t k = 1;
        while (((1 << k) - 1) < i)
            k++;
        if (((1 << k) - 1) == i)
            return 1 << (k - 1);
        i = i - (1 << (k - 1)) + 1;
    }
}

static void extract_model(Sat *s) {
    for (int32_t v = 1; v <= s->nvars; v++)
        s->model[v] = s->vals[v << 1] >= 0 ? s->vals[v << 1] : s->phase[v];
}

static int search(Sat *s, const int32_t *assume, int32_t nassume,
                  int64_t max_conflicts) {
    int32_t restart_count = 0;
    int64_t conflicts_this_run = 0;
    int64_t budget = (int64_t)luby(1) * 128;
    int64_t stop_at = max_conflicts >= 0 ? s->conflicts + max_conflicts : -1;
    int64_t max_learnts = s->clauses.n / 3;
    if (max_learnts < 1000)
        max_learnts = 1000;

    for (;;) {
        int32_t conflict = propagate(s);
        if (conflict) {
            s->conflicts++;
            conflicts_this_run++;
            if (!s->tl_n) {
                s->ok = 0;
                return SAT_FALSE;
            }
            int32_t bt_level = analyze(s, conflict);
            backtrack(s, bt_level > nassume ? bt_level : nassume);
            IVec *learnt = &s->tmp_learnt;
            if (learnt->n == 1 && !s->tl_n) {
                s->learned++; /* a level-0 fact, kept forever */
                if (!enqueue(s, learnt->d[0], 0)) {
                    s->ok = 0;
                    return SAT_FALSE;
                }
            } else {
                int32_t cref = new_clause(s, learnt->d, learnt->n, 1);
                iv_push(&s->learnts, cref);
                s->learned++;
                if (learnt->n >= 2)
                    attach(s, cref);
                if (!enqueue(s, learnt->d[0], cref)) {
                    /* Falsified at the pinned assumption levels: the
                     * assumptions are inconsistent with the formula. */
                    IVec vars = {0};
                    for (int32_t k = 0; k < learnt->n; k++)
                        iv_push(&vars, learnt->d[k] >> 1);
                    final_core(s, vars.d, vars.n, assume, nassume);
                    free(vars.d);
                    return SAT_FALSE;
                }
            }
            s->var_inc /= s->var_decay;
            s->cla_inc /= s->cla_decay;
            if (stop_at >= 0 && s->conflicts >= stop_at) {
                backtrack(s, 0);
                return SAT_UNKNOWN;
            }
            if (s->learnts.n > max_learnts) {
                reduce_db(s);
                max_learnts = (int64_t)(max_learnts * 1.3);
            }
            continue;
        }

        if (conflicts_this_run >= budget) {
            restart_count++;
            s->restarts++;
            conflicts_this_run = 0;
            budget = (int64_t)luby(restart_count + 1) * 128;
            backtrack(s, nassume);
            continue;
        }

        int32_t next_lit;
        if (s->tl_n < nassume) {
            int32_t lit = assume[s->tl_n];
            int8_t v = s->vals[lit];
            if (v > 0) { /* already implied: open an empty level */
                if (s->tl_n == s->tl_cap) {
                    s->tl_cap = s->tl_cap ? s->tl_cap * 2 : 16;
                    s->trail_lim =
                        (int32_t *)realloc(s->trail_lim, (size_t)s->tl_cap * 4);
                }
                s->trail_lim[s->tl_n++] = s->trail_n;
                continue;
            }
            if (v == 0) { /* assumptions inconsistent */
                int32_t seed = lit >> 1;
                final_core(s, &seed, 1, assume, nassume);
                backtrack(s, 0);
                return SAT_FALSE;
            }
            next_lit = lit;
        } else {
            int32_t var = pick_branch_var(s);
            if (!var) {
                extract_model(s);
                backtrack(s, 0);
                return SAT_TRUE;
            }
            s->decisions++;
            next_lit = (var << 1) | (s->phase[var] ? 0 : 1);
        }
        if (s->tl_n == s->tl_cap) {
            s->tl_cap = s->tl_cap ? s->tl_cap * 2 : 16;
            s->trail_lim = (int32_t *)realloc(s->trail_lim, (size_t)s->tl_cap * 4);
        }
        s->trail_lim[s->tl_n++] = s->trail_n;
        enqueue(s, next_lit, 0);
    }
}

/* ------------------------------------------------------------------ */
/* Public API                                                          */
/* ------------------------------------------------------------------ */
int sat_add_clause(Sat *s, const int32_t *signed_lits, int32_t n) {
    if (!s->ok)
        return 0;
    IVec *lits = &s->tmp_learnt; /* scratch reuse is fine outside search */
    lits->n = 0;
    int taut = 0;
    for (int32_t k = 0; k < n && !taut; k++) {
        int32_t sv = signed_lits[k];
        int32_t v = sv < 0 ? -sv : sv;
        int32_t lit = (v << 1) | (sv < 0 ? 1 : 0);
        int dup = 0;
        for (int32_t m = 0; m < lits->n; m++) {
            if (lits->d[m] == lit)
                dup = 1;
            else if (lits->d[m] == (lit ^ 1))
                taut = 1;
        }
        if (taut || dup)
            continue;
        int8_t val = s->vals[lit]; /* trail is at level 0 here */
        if (val > 0)
            return 1; /* already satisfied at level 0 */
        if (val == 0)
            continue; /* falsified at level 0: drop the literal */
        iv_push(lits, lit);
    }
    if (taut)
        return 1;
    if (!lits->n) {
        s->ok = 0;
        return 0;
    }
    if (lits->n == 1) {
        if (!enqueue(s, lits->d[0], 0)) {
            s->ok = 0;
            return 0;
        }
        s->ok = propagate(s) == 0;
        return s->ok;
    }
    int32_t cref = new_clause(s, lits->d, lits->n, 0);
    iv_push(&s->clauses, cref);
    attach(s, cref);
    return 1;
}

/* A batch of [len, lit, ...] records, added in order through
 * sat_add_clause.  Returns s->ok, or -(offset + 1) of the first int
 * that is a malformed length or names no variable (earlier records
 * stay added, as with one call per clause). */
int32_t sat_add_clauses(Sat *s, const int32_t *buf, int32_t n) {
    int32_t i = 0;
    while (i < n && s->ok) {
        int32_t len = buf[i];
        if (len < 0 || len > n - i - 1)
            return -(i + 1);
        for (int32_t k = i + 1; k <= i + len; k++) {
            int64_t v = buf[k] < 0 ? -(int64_t)buf[k] : buf[k];
            if (v < 1 || v > s->nvars)
                return -(k + 1);
        }
        sat_add_clause(s, buf + i + 1, len);
        i += len + 1;
    }
    return s->ok;
}

/* Level-0 simplification: when the clause database has outgrown its
 * schedule (every sat_solve asks), or right away (`now`: a caller that
 * just retired many clauses with units and wants them collected). */
void sat_simplify(Sat *s, int now) {
    if (!s->ok)
        return;
    backtrack(s, 0);
    if (propagate(s)) {
        s->ok = 0;
        return;
    }
    if (now || s->clauses.n >= s->simplify_at) {
        simplify(s);
        if (!s->ok)
            return;
        int64_t next = (int64_t)s->clauses.n * 3 / 2;
        s->simplify_at = next > 2000 ? next : 2000;
    }
    if (s->garbage * 2 > s->arena_n)
        compact_arena(s);
}

/* Returns SAT_TRUE / SAT_FALSE / SAT_UNKNOWN, or -(k + 1) when
 * assumption k names no variable (nothing is touched then). */
int sat_solve(Sat *s, const int32_t *signed_assumps, int32_t n,
              int64_t max_conflicts) {
    for (int32_t k = 0; k < n; k++) {
        int64_t v = signed_assumps[k] < 0 ? -(int64_t)signed_assumps[k]
                                          : signed_assumps[k];
        if (v < 1 || v > s->nvars)
            return -(k + 1);
    }
    s->core.n = 0;
    sat_simplify(s, 0);
    if (!s->ok)
        return SAT_FALSE;

    int32_t *assume = (int32_t *)malloc((size_t)(n > 0 ? n : 1) * 4);
    for (int32_t k = 0; k < n; k++) {
        int32_t sv = signed_assumps[k];
        int32_t v = sv < 0 ? -sv : sv;
        assume[k] = (v << 1) | (sv < 0 ? 1 : 0);
    }
    if (s->tl_cap < n + 4) {
        s->tl_cap = n + 64;
        s->trail_lim = (int32_t *)realloc(s->trail_lim, (size_t)s->tl_cap * 4);
    }
    int result = search(s, assume, n, max_conflicts);
    free(assume);
    backtrack(s, 0);
    return result;
}

/* The last sat answer, for the caller to copy right after SAT_TRUE:
 * model[1..nvars] are 0/1, model[0] is 0. */
const int8_t *sat_model(Sat *s) { return s->model; }

int32_t sat_core_len(Sat *s) { return s->core.n; }

/* Signed DIMACS form of the implicated assumptions. */
void sat_core_get(Sat *s, int32_t *out) {
    for (int32_t k = 0; k < s->core.n; k++) {
        int32_t lit = s->core.d[k];
        out[k] = (lit & 1) ? -(lit >> 1) : (lit >> 1);
    }
}

int64_t sat_stat(Sat *s, int which) {
    switch (which) {
    case 0:
        return s->nvars;
    case 1:
        return s->clauses.n;
    case 2:
        return s->learnts.n;
    case 3:
        return s->conflicts;
    case 4:
        return s->decisions;
    case 5:
        return s->propagations;
    case 6:
        return s->restarts;
    case 7:
        return s->learned;
    case 8:
        return s->subsumed;
    case 9:
        return s->strengthened;
    default:
        return 0;
    }
}
