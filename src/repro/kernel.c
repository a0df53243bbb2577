/*
 * Compiled hot loops: the batched simulation engine's per-access event
 * loop (sim_run) and the MSA profilers' exact LRU stack walk (msa_walk).
 *
 * The Python side (repro/sim/batched.py) checks the cache, directory,
 * contention, regulator and core state out of the object model into the
 * flat arrays a `struct sim` points at, then calls sim_run() once per
 * barrier.  sim_run() processes L2 accesses in (arrival, core) order until
 * the next event reaches the barrier cycle, a core's loaded trace runs
 * out, or no core has work left, and returns a reason code.  Python then
 * runs the rare slow path (profiler flush, controller tick, warm-up mark)
 * and re-enters.  DESIGN.md section 15 states the bit-identity rules; in
 * short, every floating-point operation of the reference loop happens here
 * with the same operands in the same order, the file is compiled with
 * -ffp-contract=off and without fast-math, and float floor division
 * follows CPython's float_floor_div.
 *
 * Every scalar field is 8 bytes wide so the ctypes mirror needs no
 * padding rules.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

enum { SH_DNUCA, SH_HASH, SH_PAR, P_AGG, P_DNUCA };

enum {
    RC_BARRIER = 0,   /* the next event is at or past `barrier` */
    RC_EXHAUSTED = 1, /* a core consumed the last access of its trace */
    RC_IDLE = 2,      /* no core has an access left */
    RC_NO_WAYS = -1,  /* a fill found no candidate way (err_core/err_bank) */
    RC_NO_PARTITION = -2  /* partitioned mode, err_core has no partition */
};

struct sim {
    /* geometry and constant model parameters */
    int64_t ncores, nbanks, nsets, ways, set_bits, line_shift, mode;
    int64_t max_demotions, promote_on_hit, placement_hash;
    double bank_busy, mem_busy, mem_lat;

    /* cache image: slot = (bank * nsets + set) * ways + way; tag -1 = empty */
    int64_t *tags;
    uint8_t *dirty;
    int64_t *owners, *stamps;
    int64_t *seq;      /* directory insertion number of the slot's line */
    int64_t *clocks;   /* per (bank, set) LRU clock */
    int64_t seq_next;

    /* directory: open-addressed line -> slot table, key -1 = free */
    int64_t *dir_keys, *dir_vals;
    int64_t dir_bits;

    /* partition mirrors, rows of nbanks entries per core */
    uint64_t *masks;   /* [bank * ncores + core] allocatable ways */
    int64_t *order, *order_pos;          /* shared DNUCA geography */
    int64_t *chain, *chain_len, *chain_pos;  /* partitioned DNUCA */
    int64_t *l1, *l1_len, *l2bank, *rr;  /* partitioned aggregation */
    int64_t shared_rr;

    /* statistics */
    int64_t *bhits, *bmiss;  /* [bank * ncores + core] */
    int64_t *bevict, *bwb;   /* [bank] */
    int64_t migrations, writebacks;

    /* NoC and DRAM queues */
    double *lat;             /* [core * nbanks + bank] */
    double *pnext, *pdelay;  /* [bank] */
    double mnext, mdelay;

    /* per-(core, bank) bandwidth regulator, [core * nbanks + bank] */
    int64_t regulate;
    double window;
    int64_t *budgets, *used, *demand;
    double *rwin;
    int64_t throttled;
    double throttle_cycles;

    /* cores: next arrival (INFINITY = none), stall, trace cursors */
    double *arrival, *stall, *mlp;
    int64_t *pos, *end;
    uint64_t **addrs;  /* byte addresses; line = addr >> line_shift */
    uint8_t **writes;
    double **comp;

    /* barrier protocol */
    double barrier;
    int64_t cur_core;
    double cur_time;
    int64_t err_core, err_bank;
};

/* lets the loader check its ctypes mirror against this layout */
int64_t sim_state_size(void)
{
    return (int64_t)sizeof(struct sim);
}

/* -- float floor division, as CPython's float_floor_div ------------------ */

double py_floordiv(double vx, double wx)
{
    double mod = fmod(vx, wx);
    double div = (vx - mod) / wx;
    double floordiv;
    if (mod) {
        if ((wx < 0) != (mod < 0))
            div -= 1.0;
    }
    if (div) {
        floordiv = floor(div);
        if (div - floordiv > 0.5)
            floordiv += 1.0;
    } else {
        floordiv = copysign(0.0, vx / wx);
    }
    return floordiv;
}

/* -- directory ------------------------------------------------------------ */

static inline int64_t dir_home(const struct sim *s, int64_t key)
{
    return (int64_t)(((uint64_t)key * UINT64_C(0x9E3779B97F4A7C15))
                     >> (64 - s->dir_bits));
}

static inline int64_t dir_get(const struct sim *s, int64_t key)
{
    int64_t mask = ((int64_t)1 << s->dir_bits) - 1;
    for (int64_t i = dir_home(s, key);; i = (i + 1) & mask) {
        int64_t k = s->dir_keys[i];
        if (k == key)
            return s->dir_vals[i];
        if (k < 0)
            return -1;
    }
}

static inline void dir_put(struct sim *s, int64_t key, int64_t slot)
{
    int64_t mask = ((int64_t)1 << s->dir_bits) - 1;
    int64_t i = dir_home(s, key);
    while (s->dir_keys[i] >= 0 && s->dir_keys[i] != key)
        i = (i + 1) & mask;
    s->dir_keys[i] = key;
    s->dir_vals[i] = slot;
}

/* linear-probing delete with backward shift (no tombstones) */
static inline void dir_del(struct sim *s, int64_t key)
{
    int64_t mask = ((int64_t)1 << s->dir_bits) - 1;
    int64_t i = dir_home(s, key);
    while (s->dir_keys[i] != key) {
        if (s->dir_keys[i] < 0)
            return;
        i = (i + 1) & mask;
    }
    for (int64_t j = (i + 1) & mask;; j = (j + 1) & mask) {
        int64_t k = s->dir_keys[j];
        if (k < 0)
            break;
        int64_t h = dir_home(s, k);
        /* move j into the hole at i unless its home lies in (i, j] */
        int stays = (i <= j) ? (i < h && h <= j) : (i < h || h <= j);
        if (!stays) {
            s->dir_keys[i] = k;
            s->dir_vals[i] = s->dir_vals[j];
            i = j;
        }
    }
    s->dir_keys[i] = -1;
}

/* rebuild the directory from the occupied slots of the cache image */
void sim_dir_rebuild(struct sim *s)
{
    int64_t size = (int64_t)1 << s->dir_bits;
    int64_t nslots = s->nbanks * s->nsets * s->ways;
    for (int64_t i = 0; i < size; i++)
        s->dir_keys[i] = -1;
    for (int64_t slot = 0; slot < nslots; slot++)
        if (s->tags[slot] >= 0)
            dir_put(s, s->tags[slot], slot);
}

/* -- cache movement ------------------------------------------------------- */

struct victim {
    int64_t tag;  /* -1: the fill took an empty way */
    int64_t dirty, owner;
};

/* CacheBank.fill + directory update: first empty candidate way, else the
 * candidate with the lowest LRU stamp (ties to the lowest way).  Returns
 * the filled slot, or -1 when the core owns no way of the bank. */
static int64_t fill(struct sim *s, int64_t b, int64_t line, int64_t core,
                    int64_t dirty, struct victim *ev)
{
    uint64_t mask = s->masks[b * s->ncores + core];
    if (!mask) {
        s->err_core = core;
        s->err_bank = b;
        return -1;
    }
    int64_t si = line & (s->nsets - 1);
    int64_t base = (b * s->nsets + si) * s->ways;
    int64_t slot = -1, best = 0;
    for (int64_t w = 0; w < s->ways; w++) {
        if (!(mask >> w & 1))
            continue;
        int64_t sl = base + w;
        if (s->tags[sl] < 0) {
            slot = sl;
            break;
        }
        if (slot < 0 || s->stamps[sl] < best) {
            best = s->stamps[sl];
            slot = sl;
        }
    }
    ev->tag = s->tags[slot];
    if (ev->tag >= 0) {
        ev->dirty = s->dirty[slot];
        ev->owner = s->owners[slot];
        s->bevict[b]++;
        if (ev->dirty)
            s->bwb[b]++;
        dir_del(s, ev->tag);
    }
    s->tags[slot] = line;
    s->dirty[slot] = (uint8_t)dirty;
    s->owners[slot] = core;
    s->stamps[slot] = ++s->clocks[b * s->nsets + si];
    s->seq[slot] = s->seq_next++;
    dir_put(s, line, slot);
    return slot;
}

/* CacheSet.invalidate of a resident line; returns its dirty bit */
static int64_t clear(struct sim *s, int64_t slot)
{
    int64_t was = s->dirty[slot];
    dir_del(s, s->tags[slot]);
    s->tags[slot] = -1;
    s->dirty[slot] = 0;
    s->owners[slot] = -1;
    s->stamps[slot] = 0;
    return was;
}

/* CacheSet.lookup hit: LRU stamp and dirty bit of a line in bank `bank` */
static inline void touch(struct sim *s, int64_t slot, int64_t bank,
                         int64_t line, int wr)
{
    s->stamps[slot] = ++s->clocks[bank * s->nsets + (line & (s->nsets - 1))];
    if (wr)
        s->dirty[slot] = 1;
}

#define FILL(b, line, core, dirty, ev)                        \
    do {                                                      \
        if (fill(s, (b), (line), (core), (dirty), (ev)) < 0)  \
            return RC_NO_WAYS;                                \
    } while (0)

/* shared DNUCA: each victim is demoted one step outward along its own
 * owner's distance order, at most max_demotions times */
static int dnuca_fill(struct sim *s, int64_t owner, int64_t line,
                      int64_t bank, int64_t dirty)
{
    struct victim ev;
    int64_t nb = s->nbanks, current = bank;
    FILL(bank, line, owner, dirty, &ev);
    for (int64_t demotions = 0; ev.tag >= 0; demotions++) {
        int64_t v = (0 <= ev.owner && ev.owner < s->ncores) ? ev.owner : owner;
        int64_t p = s->order_pos[v * nb + current];
        if (demotions >= s->max_demotions || p + 1 >= nb) {
            if (ev.dirty)
                s->writebacks++;
            break;
        }
        int64_t target = s->order[v * nb + p + 1];
        struct victim next;
        FILL(target, ev.tag, v, ev.dirty, &next);
        s->migrations++;
        current = target;
        ev = next;
    }
    return 0;
}

/* swap a hit line one bank toward the requester (`target`), back-filling
 * the displaced line into the vacated home: for its own owner under the
 * shared DNUCA, for the requester inside a partition chain */
static int promote(struct sim *s, int64_t core, int64_t line, int64_t home,
                   int64_t slot, int64_t target, int shared)
{
    struct victim disp, back;
    int64_t rdirty = clear(s, slot);
    FILL(target, line, core, rdirty, &disp);
    s->migrations++;
    if (disp.tag >= 0) {
        int64_t back_owner = core;
        if (shared && 0 <= disp.owner && disp.owner < s->ncores)
            back_owner = disp.owner;
        FILL(home, disp.tag, back_owner, disp.dirty, &back);
        s->migrations++;
        if (back.tag >= 0 && back.dirty)
            s->writebacks++;
    }
    return 0;
}

static int64_t level1_bank(struct sim *s, int64_t core, int64_t line)
{
    const int64_t *l1 = s->l1 + core * s->nbanks;
    int64_t n1 = s->l1_len[core];
    if (n1 == 1)
        return l1[0];
    if (s->placement_hash)
        return l1[(line >> s->set_bits) % n1];
    int64_t idx = s->rr[core] % n1;
    s->rr[core] = idx + 1;
    return l1[idx];
}

/* partitioned aggregation: a level-1 victim of the core's own cascades
 * into its level-2 allocation */
static int fill_demote(struct sim *s, int64_t core, int64_t line,
                       int64_t bank, int64_t dirty)
{
    struct victim ev, ev2;
    FILL(bank, line, core, dirty, &ev);
    if (ev.tag < 0)
        return 0;
    int64_t l2b = s->l2bank[core];
    if (l2b >= 0 && bank != l2b && ev.owner == core) {
        FILL(l2b, ev.tag, core, ev.dirty, &ev2);
        s->migrations++;
        if (ev2.tag >= 0 && ev2.dirty)
            s->writebacks++;
    } else if (ev.dirty) {
        s->writebacks++;
    }
    return 0;
}

/* NucaL2.access: stores the serving bank in *bank_out, returns 1 on a
 * hit, 0 on a miss, or a negative reason code */
static int access(struct sim *s, int64_t c, int64_t line, int wr,
                  int64_t *bank_out)
{
    struct victim ev;
    int64_t nc = s->ncores, nb = s->nbanks;
    int64_t bank, slot;
    int rc;

    if (s->mode >= P_AGG && !s->chain_len[c]) {
        s->err_core = c;
        return RC_NO_PARTITION;
    }
    if (s->mode == SH_HASH) {
        bank = (line >> s->set_bits) % nb;
        *bank_out = bank;
        slot = dir_get(s, line);
        if (slot >= 0) {
            touch(s, slot, bank, line, wr);
            s->bhits[bank * nc + c]++;
            return 1;
        }
        s->bmiss[bank * nc + c]++;
        FILL(bank, line, c, wr, &ev);
        if (ev.tag >= 0 && ev.dirty)
            s->writebacks++;
        return 0;
    }

    slot = dir_get(s, line);
    if (slot >= 0) {
        int64_t home = slot / (s->nsets * s->ways);
        *bank_out = home;
        touch(s, slot, home, line, wr);
        s->bhits[home * nc + c]++;
        if (s->mode == SH_DNUCA) {
            int64_t p = s->order_pos[c * nb + home];
            if (p > 0 && (rc = promote(s, c, line, home, slot,
                                       s->order[c * nb + p - 1], 1)) < 0)
                return rc;
        } else if (s->mode == P_DNUCA) {
            int64_t p = s->chain_pos[c * nb + home];
            if (p > 0 && (rc = promote(s, c, line, home, slot,
                                       s->chain[c * nb + p - 1], 0)) < 0)
                return rc;
        } else if (s->mode == P_AGG) {
            if (s->promote_on_hit && home == s->l2bank[c] && s->l1_len[c]) {
                int64_t rdirty = clear(s, slot);
                if ((rc = fill_demote(s, c, line, level1_bank(s, c, line),
                                      rdirty)) < 0)
                    return rc;
                s->migrations++;
            }
        }
        return 1;
    }

    switch (s->mode) {
    case SH_DNUCA:
        bank = s->order[c * nb];
        rc = dnuca_fill(s, c, line, bank, wr);
        break;
    case SH_PAR:
        bank = s->shared_rr % nb;
        s->shared_rr++;
        rc = 0;
        FILL(bank, line, c, wr, &ev);
        if (ev.tag >= 0 && ev.dirty)
            s->writebacks++;
        break;
    case P_AGG:
        bank = level1_bank(s, c, line);
        rc = fill_demote(s, c, line, bank, wr);
        break;
    default: { /* P_DNUCA: fill the chain head, demote outward */
        const int64_t *chain = s->chain + c * nb;
        int64_t clen = s->chain_len[c];
        bank = chain[0];
        rc = 0;
        FILL(bank, line, c, wr, &ev);
        for (int64_t p = 0; ev.tag >= 0; p++) {
            if (p >= s->max_demotions || p + 1 >= clen) {
                if (ev.dirty)
                    s->writebacks++;
                break;
            }
            struct victim next;
            FILL(chain[p + 1], ev.tag, c, ev.dirty, &next);
            s->migrations++;
            ev = next;
        }
    }
    }
    if (rc < 0)
        return rc;
    *bank_out = bank;
    s->bmiss[bank * nc + c]++;
    return 0;
}

/* BankBudgetRegulator.charge */
static double charge(struct sim *s, int64_t core, int64_t bank, double t)
{
    int64_t k = core * s->nbanks + bank;
    s->demand[k]++;
    int64_t quota = s->budgets[k];
    if (quota == 0)
        return 0.0;
    double w = py_floordiv(t, s->window);
    if (w > s->rwin[k]) {
        s->rwin[k] = w;
        s->used[k] = 0;
    }
    if (s->used[k] < quota) {
        s->used[k]++;
        return 0.0;
    }
    double next = s->rwin[k] + 1.0;
    s->rwin[k] = next;
    s->used[k] = 1;
    double throttle = next * s->window - t;
    s->throttled++;
    s->throttle_cycles += throttle;
    return throttle;
}

/* Run accesses until a barrier, an exhausted trace or idleness.  With
 * `force` set, the first event is processed even at or past the barrier
 * (Python has just run its slow path for it). */
int sim_run(struct sim *s, int force)
{
    int64_t nc = s->ncores, nb = s->nbanks;
    for (;;) {
        int64_t c = -1;
        double t = INFINITY;
        for (int64_t i = 0; i < nc; i++)
            if (s->arrival[i] < t) {
                t = s->arrival[i];
                c = i;
            }
        if (c < 0)
            return RC_IDLE;
        s->cur_core = c;
        s->cur_time = t;
        if (!force && t >= s->barrier)
            return RC_BARRIER;
        force = 0;

        int64_t pos = s->pos[c];
        int64_t bank;
        int64_t line = (int64_t)(s->addrs[c][pos] >> s->line_shift);
        int hit = access(s, c, line, s->writes[c][pos], &bank);
        if (hit < 0)
            return hit;

        /* contention, latency and timer, in the reference's operation
         * order; the uncontended branches skip only exact no-ops (adding
         * +0.0 to a finite non-negative double) */
        double lat = s->lat[c * nb + bank], latency, ta = t, throttle = 0.0;
        if (s->regulate) {
            throttle = charge(s, c, bank, t);
            ta = t + throttle;
        }
        double nf = s->pnext[bank];
        if (nf <= ta) {
            s->pnext[bank] = ta + s->bank_busy;
            latency = s->regulate ? lat + throttle : lat;
        } else {
            double delay = nf - ta;
            s->pnext[bank] = ta + delay + s->bank_busy;
            s->pdelay[bank] += delay;
            latency = s->regulate ? lat + delay + throttle : lat + delay;
        }
        if (!hit) {
            double mem_arrival = t + latency;
            latency += s->mem_lat;
            if (s->mnext <= mem_arrival) {
                s->mnext = mem_arrival + s->mem_busy;
            } else {
                double d2 = s->mnext - mem_arrival;
                s->mnext = mem_arrival + d2 + s->mem_busy;
                s->mdelay += d2;
                latency += d2;
            }
        }
        double eff = latency / s->mlp[c];
        s->stall[c] += eff;

        s->pos[c] = ++pos;
        if (pos >= s->end[c]) {
            s->arrival[c] = t + eff;
            return RC_EXHAUSTED;
        }
        s->arrival[c] = t + eff + s->comp[c][pos];
    }
}


/*
 * Exact per-group LRU stack walk of the MSA profilers (DESIGN.md 10.1).
 * Row g of `stacks` (`positions` keys wide) holds lens[g] keys, MRU
 * first.  Each access, in order, looks its key up from the MRU end,
 * moves it to the front -- a miss pushes it in and drops the LRU key of
 * a full stack -- and counts its 0-based depth, `positions` for a miss:
 * `counters[d] += 1.0; *mass += 1.0`, the per-access reference's own
 * arithmetic, so decayed (fractional) counters round as they do there.
 */
void msa_walk(int64_t n, const int64_t *keys, const int64_t *groups,
              int64_t positions, int64_t *stacks, int64_t *lens,
              double *counters, double *mass)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t key = keys[i], g = groups[i];
        int64_t *row = stacks + g * positions;
        int64_t len = lens[g], d = 0;
        while (d < len && row[d] != key)
            d++;
        int64_t moved = d;  /* keys that step one place towards LRU */
        if (d == len) {
            if (len < positions)
                lens[g] = len + 1;
            else
                moved = len - 1;
            d = positions;
        }
        memmove(row + 1, row, (size_t)moved * sizeof *row);
        row[0] = key;
        counters[d] += 1.0;
        *mass += 1.0;
    }
}
