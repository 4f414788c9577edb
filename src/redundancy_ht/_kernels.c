/*
 * The simulator's two event loops, `_run_coc` and `_run_cos` of
 * redundancy_ht/simulator.py, in C. For the same model, segments, seed and
 * sampling period they return the same samples, batch areas and durations
 * to the bit, because they make the same floating-point operations in the
 * same order:
 *
 * - The random stream is CPython's MT19937, started from the state that
 *   `random.Random(seed)` holds after seeding (`init_by_array` over the
 *   32-bit words of abs(seed)); each uniform is `genrand_res53`, and each
 *   event passes over the two words of one discarded uniform, neither
 *   tempered nor converted, before it draws the one that picks it.
 * - The event rates of the current busy set are the left folds of
 *   `_EventTable`: the arrival boundaries (given), then lam_total and the
 *   running sums of the busy servers' speeds in server order, the last entry
 *   inf; q = lam_total + (the busy speeds folded from 0.0), and the clock
 *   advances by 1/q. They are refolded whenever the busy set changes, so no
 *   table over state masks is kept and the number of types is not capped.
 *   Under c.o.c. a server is busy while a queue it serves is nonempty: each
 *   server counts those queues, and the counts change only when a queue
 *   fills or empties.
 * - The event is `bisect_right` of u*q into those rates, as CPython runs it.
 * - FCFS picks the compatible queue whose head has the smallest job id, in
 *   the server's type order; c.o.s. scans the idle servers longest idle
 *   first and deletes the one it takes.
 * - A count's area grows by count * (now - since) when the count changes,
 *   and every count's at the end of a batch.
 *
 * Build: cc -O2 -ffp-contract=off -shared -fPIC (no fused multiply-adds,
 * which would round differently from Python). Every function returns
 * RHT_OK, RHT_NOMEM or RHT_BAD_STATE and frees all it allocated before it
 * returns: the samples go into a buffer the caller owns.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { RHT_OK = 0, RHT_NOMEM = 1, RHT_BAD_STATE = 2 };

/* ---- CPython's Mersenne Twister (Modules/_randommodule.c) ---- */

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t state[MT_N];
    int index;
} mt_t;

/* The next MT_N words, once the last ones are used. */
static void mt_twist(mt_t *g)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *mt = g->state;
    uint32_t y;
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    for (; kk < MT_N - 1; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
    mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
    g->index = 0;
}

static uint32_t genrand_uint32(mt_t *g)
{
    uint32_t y;
    if (g->index >= MT_N)
        mt_twist(g);
    y = g->state[g->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static double genrand_res53(mt_t *g)
{
    uint32_t a = genrand_uint32(g) >> 5, b = genrand_uint32(g) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Pass over the two words of a genrand_res53 whose value is not used: the
 * state moves as if they were drawn, with no tempering and no conversion. */
static void skip_res53(mt_t *g)
{
    int k;
    for (k = 0; k < 2; k++) {
        if (g->index >= MT_N)
            mt_twist(g);
        g->index++;
    }
}

/* ---- growable FCFS queues of job ids: ring buffers, capacity a power of 2 ---- */

typedef struct {
    int64_t *buf;
    int64_t head, len, cap;
} ring_t;

static int ring_push(ring_t *r, int64_t id)
{
    if (r->len == r->cap) {
        int64_t cap = r->cap ? 2 * r->cap : 16, i;
        int64_t *buf = malloc((size_t)cap * sizeof *buf);
        if (!buf)
            return RHT_NOMEM;
        for (i = 0; i < r->len; i++)
            buf[i] = r->buf[(r->head + i) & (r->cap - 1)];
        free(r->buf);
        r->buf = buf;
        r->head = 0;
        r->cap = cap;
    }
    r->buf[(r->head + r->len) & (r->cap - 1)] = id;
    r->len++;
    return RHT_OK;
}

static int64_t ring_front(const ring_t *r) { return r->buf[r->head]; }

static void ring_pop(ring_t *r)
{
    r->head = (r->head + 1) & (r->cap - 1);
    r->len--;
}

/* The queue among `types` whose head is the earliest job, or -1 if all are empty. */
static int earliest(const ring_t *queues, const int32_t *types, int32_t n_types)
{
    int best = -1, i;
    for (i = 0; i < n_types; i++) {
        const ring_t *q = &queues[types[i]];
        if (q->len && (best < 0 || ring_front(q) < ring_front(&queues[best])))
            best = types[i];
    }
    return best;
}

/* ---- the event rates of the current busy set (one `_EventTable` entry) ---- */

typedef struct {
    int s, n, len;   /* types, servers, entries of cum */
    double lam_total, q, hold;
    double *cum;     /* s - 1 arrival boundaries, then s + n more at most */
    int *busy;       /* the busy servers in server order */
    const double *mu;
} rates_t;

static int rates_init(rates_t *r, int s, int n, double lam_total, const double *arrivals,
                      const double *mu)
{
    r->s = s;
    r->n = n;
    r->lam_total = lam_total;
    r->mu = mu;
    r->cum = malloc((size_t)(s + n) * sizeof *r->cum);
    r->busy = malloc((size_t)(n ? n : 1) * sizeof *r->busy);
    if (!r->cum || !r->busy)
        return RHT_NOMEM;
    if (s > 1)
        memcpy(r->cum, arrivals, (size_t)(s - 1) * sizeof *arrivals);
    return RHT_OK;
}

static void rates_free(rates_t *r)
{
    free(r->cum);
    free(r->busy);
}

/* Refold for the servers whose entry of `is_busy` is nonzero. */
static void rates_refold(rates_t *r, const int *is_busy)
{
    double run = r->lam_total, speeds = 0.0;
    int b = 0, srv;
    for (srv = 0; srv < r->n; srv++)
        if (is_busy[srv]) {
            speeds += r->mu[srv];
            run += r->mu[srv];
            r->busy[b] = srv;
            r->cum[r->s + b] = run;
            b++;
        }
    r->cum[r->s - 1] = r->lam_total;
    r->cum[r->s - 1 + b] = INFINITY;
    r->len = r->s + b;
    r->q = r->lam_total + speeds;
    r->hold = 1.0 / r->q;
}

/* Draw the next event: the index into cum that bisect_right gives u * q, or
 * -1 past its end (which finite rates never give). */
static int next_event(const rates_t *r, mt_t *g)
{
    double u;
    int lo = 0, hi = r->len;
    skip_res53(g); /* the sampled holding time's uniform, discarded */
    u = genrand_res53(g) * r->q;
    while (lo < hi) {
        int mid = (int)(((unsigned)lo + (unsigned)hi) / 2);
        if (u < r->cum[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo < r->len ? lo : -1;
}

/* ---- counts, their areas and the samples ---- */

typedef struct {
    int channels;
    int64_t *count;
    double *area, *since, now;
    int64_t *samples, n_samples, cap_samples; /* the caller's buffer, in rows */
} counts_t;

static int counts_init(counts_t *c, int channels, int64_t *samples, int64_t cap_samples)
{
    c->channels = channels;
    c->count = calloc((size_t)channels, sizeof *c->count);
    c->area = malloc((size_t)channels * sizeof *c->area);
    c->since = malloc((size_t)channels * sizeof *c->since);
    c->samples = samples;
    c->n_samples = 0;
    c->cap_samples = cap_samples;
    return c->count && c->area && c->since ? RHT_OK : RHT_NOMEM;
}

static void counts_free(counts_t *c)
{
    free(c->count);
    free(c->area);
    free(c->since);
}

static void counts_restart(counts_t *c)
{
    int i;
    c->now = 0.0;
    for (i = 0; i < c->channels; i++)
        c->area[i] = c->since[i] = 0.0;
}

static inline void change(counts_t *c, int ch, int64_t delta)
{
    c->area[ch] += c->count[ch] * (c->now - c->since[ch]);
    c->since[ch] = c->now;
    c->count[ch] += delta;
}

/* Append the counts as a row, or RHT_BAD_STATE when the buffer has no room
 * for it. */
static int sample(counts_t *c)
{
    if (c->n_samples == c->cap_samples)
        return RHT_BAD_STATE;
    memcpy(c->samples + c->n_samples * c->channels, c->count,
           (size_t)c->channels * sizeof *c->count);
    c->n_samples++;
    return RHT_OK;
}

static void end_batch(const counts_t *c, double *area_row, double *duration)
{
    int i;
    for (i = 0; i < c->channels; i++)
        area_row[i] = c->area[i] + c->count[i] * (c->now - c->since[i]);
    *duration = c->now;
}

/* Per job type, the servers that serve it: servers[start[t] .. start[t + 1]),
 * from the types per server; start has s + 2 entries, the last unused. */
static void servers_by_type(int s, int n, const int32_t *compat_start, const int32_t *compat,
                            int32_t *start, int32_t *servers)
{
    int32_t k;
    int srv, t;
    for (k = 0; k < compat_start[n]; k++)
        start[compat[k] + 2]++;
    for (t = 2; t < s + 2; t++)
        start[t] += start[t - 1];
    for (srv = 0; srv < n; srv++)
        for (k = compat_start[srv]; k < compat_start[srv + 1]; k++)
            servers[start[compat[k] + 1]++] = srv;
}

/* Add delta, 1 or -1, to the nonempty queues of each server in `servers`;
 * returns whether one of them became busy (1) or idle (-1). */
static int occupy(int *nonempty, const int32_t *servers, int32_t n_servers, int delta)
{
    int changed = 0;
    int32_t i;
    for (i = 0; i < n_servers; i++)
        changed |= (nonempty[servers[i]] += delta) == (delta > 0);
    return changed;
}

/*
 * Common arguments of both kernels:
 *   s, n              types and servers
 *   lam_total         N * lambda; arrivals: the s - 1 arrival boundaries
 *   mu                server speeds
 *   compat_start, compat
 *                     per server, the types it serves in type order:
 *                     compat[compat_start[srv] .. compat_start[srv + 1])
 *   mt_state          `random.Random(seed).getstate()[1]`: 624 words and the index
 *   n_segments, segments
 *                     event counts of the warm-up and of each batch
 *   sample_every      departures between sampling epochs
 *   cap_samples       the rows that samples holds
 * Outputs:
 *   areas             (n_segments - 1) x s batch areas
 *   durations         n_segments - 1 batch durations
 *   samples           the sampled counts, s a row, flat; RHT_BAD_STATE
 *                     where they need more than cap_samples rows
 *   n_samples         the rows written
 */

int rht_run_coc(int s, int n, double lam_total, const double *arrivals, const double *mu,
                const int32_t *compat_start, const int32_t *compat, const uint32_t *mt_state,
                int n_segments, const int64_t *segments, int64_t sample_every,
                double *areas, double *durations, int64_t *samples, int64_t cap_samples,
                int64_t *n_samples)
{
    mt_t g;
    rates_t r = {0};
    counts_t c = {0};
    ring_t *queues = calloc((size_t)s, sizeof *queues);
    /* a server is busy when a type it serves is present: per server, the
     * nonempty queues it serves, which change when a queue fills or empties */
    int *nonempty = calloc((size_t)(n ? n : 1), sizeof *nonempty);
    int32_t *by_type_start = calloc((size_t)s + 2, sizeof *by_type_start);
    int32_t *by_type = malloc((size_t)(compat_start[n] ? compat_start[n] : 1) * sizeof *by_type);
    int64_t next_id = 0, countdown = sample_every, i;
    int status, seg, dirty = 1, t, srv;

    memcpy(g.state, mt_state, sizeof g.state);
    g.index = (int)mt_state[MT_N];
    status = rates_init(&r, s, n, lam_total, arrivals, mu);
    if (status == RHT_OK)
        status = counts_init(&c, s, samples, cap_samples);
    if (status == RHT_OK && (!queues || !nonempty || !by_type_start || !by_type))
        status = RHT_NOMEM;
    if (status == RHT_OK)
        servers_by_type(s, n, compat_start, compat, by_type_start, by_type);
    for (seg = 0; status == RHT_OK && seg < n_segments; seg++) {
        counts_restart(&c);
        for (i = 0; i < segments[seg]; i++) {
            int e;
            if (dirty) {
                rates_refold(&r, nonempty);
                dirty = 0;
            }
            c.now += r.hold;
            e = next_event(&r, &g);
            if (e < 0) {
                status = RHT_BAD_STATE;
                break;
            }
            if (e < s) {
                status = ring_push(&queues[e], next_id++);
                if (status != RHT_OK)
                    break;
                change(&c, e, 1);
                if (queues[e].len == 1)
                    dirty |= occupy(nonempty, by_type + by_type_start[e],
                                    by_type_start[e + 1] - by_type_start[e], 1);
                continue;
            }
            srv = r.busy[e - s];
            t = earliest(queues, compat + compat_start[srv], compat_start[srv + 1] - compat_start[srv]);
            if (t < 0) {
                status = RHT_BAD_STATE;
                break;
            }
            ring_pop(&queues[t]);
            change(&c, t, -1);
            if (!queues[t].len)
                dirty |= occupy(nonempty, by_type + by_type_start[t],
                                by_type_start[t + 1] - by_type_start[t], -1);
            if (!--countdown) {
                countdown = sample_every;
                if (seg && (status = sample(&c)) != RHT_OK)
                    break;
            }
        }
        if (status == RHT_OK && seg)
            end_batch(&c, areas + (int64_t)(seg - 1) * s, &durations[seg - 1]);
    }
    *n_samples = c.n_samples;
    if (queues)
        for (t = 0; t < s; t++)
            free(queues[t].buf);
    free(queues);
    free(nonempty);
    free(by_type_start);
    free(by_type);
    rates_free(&r);
    counts_free(&c);
    return status;
}

/* The counts are the waiting jobs per type; a job that starts at once is
 * never counted. */
int rht_run_cos(int s, int n, double lam_total, const double *arrivals, const double *mu,
                const int32_t *compat_start, const int32_t *compat, const uint32_t *mt_state,
                int n_segments, const int64_t *segments, int64_t sample_every,
                double *areas, double *durations, int64_t *samples, int64_t cap_samples,
                int64_t *n_samples)
{
    mt_t g;
    rates_t r = {0};
    counts_t c = {0};
    ring_t *waiting = calloc((size_t)s, sizeof *waiting);
    int *is_busy = calloc((size_t)(n ? n : 1), sizeof *is_busy);
    char *serves = calloc((size_t)n * (size_t)s + 1, 1);   /* serves[srv * s + t] */
    int *idle = malloc((size_t)(n ? n : 1) * sizeof *idle);       /* longest idle first */
    int64_t next_id = 0, countdown = sample_every, i;
    int status, seg, dirty = 1, n_idle = n, t, srv;

    memcpy(g.state, mt_state, sizeof g.state);
    g.index = (int)mt_state[MT_N];
    status = rates_init(&r, s, n, lam_total, arrivals, mu);
    if (status == RHT_OK)
        status = counts_init(&c, s, samples, cap_samples);
    if (status == RHT_OK && (!waiting || !is_busy || !serves || !idle))
        status = RHT_NOMEM;
    if (status == RHT_OK)
        for (srv = 0; srv < n; srv++) {
            int32_t k;
            for (k = compat_start[srv]; k < compat_start[srv + 1]; k++)
                serves[(size_t)srv * s + compat[k]] = 1;
            idle[srv] = srv;
        }
    for (seg = 0; status == RHT_OK && seg < n_segments; seg++) {
        counts_restart(&c);
        for (i = 0; i < segments[seg]; i++) {
            int e, pos;
            if (dirty) {
                rates_refold(&r, is_busy);
                dirty = 0;
            }
            c.now += r.hold;
            e = next_event(&r, &g);
            if (e < 0) {
                status = RHT_BAD_STATE;
                break;
            }
            if (e < s) {
                for (pos = 0; pos < n_idle && !serves[(size_t)idle[pos] * s + e]; pos++)
                    ;
                if (pos < n_idle) {
                    is_busy[idle[pos]] = 1;
                    dirty = 1;
                    memmove(idle + pos, idle + pos + 1, (size_t)(n_idle - pos - 1) * sizeof *idle);
                    n_idle--;
                } else {
                    if ((status = ring_push(&waiting[e], next_id)) != RHT_OK)
                        break;
                    change(&c, e, 1);
                }
                next_id++;
                continue;
            }
            srv = r.busy[e - s];
            t = earliest(waiting, compat + compat_start[srv], compat_start[srv + 1] - compat_start[srv]);
            if (t < 0) {
                is_busy[srv] = 0;
                dirty = 1;
                idle[n_idle++] = srv;
            } else {
                ring_pop(&waiting[t]);
                change(&c, t, -1);
            }
            if (!--countdown) {
                countdown = sample_every;
                if (seg && (status = sample(&c)) != RHT_OK)
                    break;
            }
        }
        if (status == RHT_OK && seg)
            end_batch(&c, areas + (int64_t)(seg - 1) * s, &durations[seg - 1]);
    }
    *n_samples = c.n_samples;
    if (waiting)
        for (t = 0; t < s; t++)
            free(waiting[t].buf);
    free(waiting);
    free(is_busy);
    free(serves);
    free(idle);
    rates_free(&r);
    counts_free(&c);
    return status;
}
