/* The compiled loops of structpop, built into one library by structpop._loops:
 * the event loop of ibm.simulate (ibm_run), the steps (pde_steps) and the
 * trace record (pde_record) of pde.run, and the interpolation of
 * ibm.interp_phi (phi_interp). Build with -ffp-contract=off (no fused
 * multiply-adds) and without -ffast-math.
 *
 * ibm_run is the event loop for constant, affine, sqrt_gap, gaussian_bump
 * and logistic_age rates, on CPython's MT19937 stream. It reads the stream
 * exactly as the Python loop in ibm.py does, with the same floating-point
 * operations in the same order, so both loops produce the same events bit
 * for bit. It advances the state until something needs Python and returns
 * why: a sample time is crossed, the horizon or extinction is reached, the
 * particle cap is exceeded, a rate leaves its domain, or a buffer is full.
 * Between entry and return the state is held in locals, and the stream is
 * read from a tempered copy of the MT table, made on entry and at each
 * regeneration; the raw table stays in the state, which regeneration reads.
 * The table is regenerated and tempered four words at a time, in the lanes
 * of a GCC vector, into the same words as CPython's genrand_uint32.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

enum { DONE = 0, EXTINCT = 1, SAMPLE = 2, ABORTED = 3, FULL = 4, DOMAIN = 5 };
enum { CONSTANT = 0, AFFINE = 1, SQRT_GAP = 2, GAUSSIAN_BUMP = 3, LOGISTIC_AGE = 4 };

typedef struct {
    uint32_t mt[624];
    int64_t mti;            /* next word of mt; 624 regenerates the table */
    double *xs, *bt;        /* traits and birth times of the live particles */
    int64_t n, cap;         /* live count and buffer length */
    double *ev_t;           /* event times and kinds (1 birth, 0 death), */
    uint8_t *ev_kind;       /* written only when ev_cap > 0 */
    int64_t n_ev, ev_cap;
    double t, T, s_next;
    int64_t pending;        /* waiting time drawn, its event not yet run */
    int64_t n_events, n_deaths, peak, particle_cap;
    int64_t bfam, dfam;
    double bpar[4], dpar[4];
    double bd, c, K, p, lo, dx;
    const double *cdf;      /* nx rows of nx mutant CDF entries */
    const double *nodes;
    int64_t nx;
} ibm_state;

typedef uint32_t quad __attribute__((vector_size(16)));   /* four words of the table */

static inline quad load4(const uint32_t *p)
{
    quad q;
    memcpy(&q, p, sizeof q);
    return q;
}

/* MT19937's tempering of four words */
static inline quad temper4(quad y)
{
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

/* the tempered outputs of the raw words mt, four at a time: a draw is then
 * one load of tab */
static void temper(const uint32_t *mt, uint32_t *tab)
{
    for (int k = 0; k < 624; k += 4) {
        quad y = temper4(load4(mt + k));
        memcpy(tab + k, &y, sizeof y);
    }
}

/* the twist of word k from its upper bit, the lower bits of word k + 1 and
 * the word `far`, 397 places on (mod 624); MATRIX_A is xored in where y is
 * odd, as genrand_uint32's mag01[y & 1] */
static inline uint32_t twist(uint32_t cur, uint32_t next, uint32_t far)
{
    uint32_t y = (cur & 0x80000000U) | (next & 0x7fffffffU);
    return far ^ (y >> 1) ^ (-(y & 1U) & 0x9908b0dfU);
}

/* the twist of four words */
static inline quad twist4(quad cur, quad next, quad far)
{
    quad y = (cur & 0x80000000U) | (next & 0x7fffffffU);
    return far ^ (y >> 1) ^ (-(y & 1U) & 0x9908b0dfU);
}

/* MT19937's next table in mt, in place, the same words as genrand_uint32 of
 * CPython's Modules/_randommodule.c, four words at a time; then its words
 * tempered into tab. Word k reads words k + 1 and k + 397 (mod 624), so the
 * words [0, 224) read only words not yet rewritten, and the words [227, 623)
 * read word k - 227, which this refill has already written; 224-226, whose
 * lanes would straddle the two, and 623, which reads word 0, are twisted one
 * at a time. Out of line: the event loop calls it once per 624 words. */
static __attribute__((noinline)) void refill(uint32_t *mt, uint32_t *tab)
{
    int k;
    for (k = 0; k < 224; k += 4) {
        quad w = twist4(load4(mt + k), load4(mt + k + 1), load4(mt + k + 397));
        memcpy(mt + k, &w, sizeof w);
    }
    for (; k < 227; k++)
        mt[k] = twist(mt[k], mt[k + 1], mt[k + 397]);
    for (; k < 623; k += 4) {
        quad w = twist4(load4(mt + k), load4(mt + k + 1), load4(mt + k - 227));
        memcpy(mt + k, &w, sizeof w);
    }
    mt[623] = twist(mt[623], mt[0], mt[396]);
    temper(mt, tab);
}

/* genrand_uint32: the next tempered word, the table refilled when spent */
static inline __attribute__((always_inline)) uint32_t
next_word(uint32_t *mt, uint32_t *tab, int64_t *mti)
{
    if (*mti >= 624) {
        refill(mt, tab);
        *mti = 0;
    }
    return tab[(*mti)++];
}

/* random.random(): 53 bits from two words */
static inline __attribute__((always_inline)) double
next_uniform(uint32_t *mt, uint32_t *tab, int64_t *mti)
{
    uint32_t a = next_word(mt, tab, mti) >> 5, b = next_word(mt, tab, mti) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* the families' `scalar` forms (model._make_rate); 0 where sqrt would raise
 * in Python. Where logistic_age's exp overflows, math.exp raises and the
 * scalar returns low; here exp is inf and the same expression is low.
 * Inlined, so that a constant rate costs the event loop no call. */
static inline __attribute__((always_inline)) int
rate(int64_t fam, const double *par, double lo, double x, double a, double *out)
{
    if (fam == CONSTANT) {
        *out = par[0];
    } else if (fam == AFFINE) {
        *out = par[0] + par[1] * x + par[2] * a;
    } else if (fam == SQRT_GAP) {
        double gap = x - lo;
        if (gap < 0.0)
            return 0;
        *out = par[0] - sqrt(gap);
    } else if (fam == GAUSSIAN_BUMP) {         /* base, amp, center, width */
        double z = (x - par[2]) / par[3];
        *out = par[0] + par[1] * exp(-0.5 * (z * z));
    } else {                                    /* low, high, midpoint, scale */
        double span = par[1] - par[0];
        *out = par[0] + span / (1.0 + exp(-(a - par[2]) / par[3]));
    }
    return 1;
}

/* The state is read into locals on entry and stored back at the one exit:
 * a store through xs or bt (double *) may alias any double of *s, and one
 * into mt any word of it, so fields read through s would be loaded again
 * after every such store. */
int ibm_run(ibm_state *s)
{
    uint32_t *mt = s->mt, tab[624];
    int64_t mti = s->mti, n = s->n, n_ev = s->n_ev, pending = s->pending;
    int64_t n_events = s->n_events, n_deaths = s->n_deaths, peak = s->peak;
    const int64_t cap = s->cap, ev_cap = s->ev_cap, particle_cap = s->particle_cap;
    const int64_t bfam = s->bfam, dfam = s->dfam, nx = s->nx;
    double *xs = s->xs, *bt = s->bt, *ev_t = s->ev_t;
    uint8_t *ev_kind = s->ev_kind;
    double t = s->t;
    const double T = s->T, s_next = s->s_next, bd = s->bd, c = s->c, K = s->K;
    const double p = s->p, lo = s->lo, dx = s->dx;
    const double *cdf = s->cdf, *nodes = s->nodes;
    double bpar[4], dpar[4];
    memcpy(bpar, s->bpar, sizeof bpar);
    memcpy(dpar, s->dpar, sizeof dpar);
    temper(mt, tab);
    int status;
    for (;;) {
        if (n == 0) {
            status = EXTINCT;
            break;
        }
        if (n >= cap || (ev_cap > 0 && n_ev >= ev_cap)) {
            status = FULL;
            break;
        }
        double comp = c * n / K;
        double bound = bd + comp;
        if (!pending) {
            t -= log(1.0 - next_uniform(mt, tab, &mti)) / (n * bound);
            if (t >= T) {
                t = T;
                status = DONE;
                break;
            }
            pending = 1;
        }
        if (s_next <= t + 1e-12) {
            status = SAMPLE;
            break;
        }
        pending = 0;
        n_events++;

        int k = 64 - __builtin_clzll((unsigned long long)n);   /* n.bit_length() */
        int64_t i;
        do {
            i = next_word(mt, tab, &mti) >> (32 - k);           /* getrandbits(k) */
        } while (i >= n);
        double x = xs[i];
        double a = t - bt[i];
        double u = next_uniform(mt, tab, &mti) * bound;
        double b, d;
        if (!rate(bfam, bpar, lo, x, a, &b)) {
            status = DOMAIN;
            break;
        }
        if (u < b) {
            if (next_uniform(mt, tab, &mti) < p) {
                double q = (x - lo) / dx;
                int64_t last = nx - 1;
                int64_t cell = q >= (double)last ? last : (q < 0.0 ? 0 : (int64_t)q);
                const double *row = cdf + cell * nx;
                double v = next_uniform(mt, tab, &mti);
                /* bisect_left, branch-free: the first entry >= v lies in
                 * [base, base + len], which each compare halves; one final
                 * compare picks base or the entry after it. The index is
                 * bisect_left's wherever row[m] < v holds on a prefix of the
                 * row, as on every CDF row (nondecreasing, any NaN at its end) */
                const double *base = row;
                for (int64_t len = nx; len > 1; len -= len / 2)
                    base = base[len / 2] < v ? base + len / 2 : base;
                int64_t l = (base - row) + (*base < v);
                x = nodes[l < last ? l : last];
            }
            xs[n] = x;
            bt[n] = t;
            n++;
            if (ev_cap > 0) {
                ev_t[n_ev] = t;
                ev_kind[n_ev++] = 1;
            }
            if (n > peak)
                peak = n;
            if (n > particle_cap) {
                status = ABORTED;
                break;
            }
        } else {
            if (!rate(dfam, dpar, lo, x, a, &d)) {
                status = DOMAIN;
                break;
            }
            if (u < b + d + comp) {
                xs[i] = xs[n - 1];
                bt[i] = bt[n - 1];
                n--;
                n_deaths++;
                if (ev_cap > 0) {
                    ev_t[n_ev] = t;
                    ev_kind[n_ev++] = 0;
                }
            }
        }
    }
    s->mti = mti;
    s->n = n;
    s->n_ev = n_ev;
    s->pending = pending;
    s->n_events = n_events;
    s->n_deaths = n_deaths;
    s->peak = peak;
    s->t = t;
    return status;
}

/* ---- the trace record of pde.run ----------------------------------------
 *
 * pde_record takes the five sums of one record in one pass over the cohort
 * ring: with v = s u R the density at each (x, a) node, mw the mass weights
 * and g = B - D - lambda*,
 *   sums[0] = sum v mw                       the mass
 *   sums[1] = sum v (g mw)                   D(t)'s numerator
 *   sums[2] = sum v (phi mw)                 the invariant
 *   sums[3] = sum |scale v - target| mw      tv
 *   sums[4] = sum |scale v - target| mw phi  pw
 * On the ages from `tail` on, g and phi are constant along each row: there
 * a row sums only its mass m and its tv d, and adds g m, phi m and phi d,
 * g and phi read at age `tail` (tail = L: no such ages). On the other ages
 * each term is the NumPy record's product, its factors in the same order,
 * so the records differ at roundoff. Row x of the ring holds age a_j at column
 * (head + j) mod L, so a row is two spans of ages, [0, L - head) from column
 * head and [L - head, L) from column 0, and each span splits at `tail`.
 * Each piece is summed in two lanes, the even and the odd ages from its
 * start, and the rows are added in order: the sums are the same bits on
 * every run and at any BLAS thread count.
 *
 * Every grid is read, and the record has one mode: R NULL reads u as the
 * density itself (a materialised state: head 0, s 1). Where a run has no
 * lambda*, phi or target, pde.run passes a stand-in grid of the same shape
 * and does not keep the sums that read it.
 */

typedef double pair __attribute__((vector_size(16)));   /* two ages of a row */

/* p[j] and p[j + 1], or p[j] and 0 where j is a span's odd last age */
static inline pair ages(const double *p, int64_t j, int last)
{
    pair r = {p[j], 0.0};
    if (!last)
        memcpy(&r, p + j, sizeof r);
    return r;
}

/* the record's terms at ages j and j + 1: all five in acc, or on the tail
 * only the mass and tv in acc[0] and acc[1] */
static inline __attribute__((always_inline)) void
record_ages(pair acc[5], int ring, int tail, int64_t j, int last, const double *u,
            const double *R, pair s, const double *mw, const double *growth,
            const double *phi, const double *target, pair scale)
{
    pair v = ages(u, j, last);
    if (ring)
        v = v * ages(R, j, last) * s;
    pair m = ages(mw, j, last);
    pair d = scale * v - ages(target, j, last);
    d = (pair){fabs(d[0]), fabs(d[1])} * m;
    acc[0] += v * m;
    if (tail) {
        acc[1] += d;
        return;
    }
    pair p = ages(phi, j, last);
    acc[1] += v * (ages(growth, j, last) * m);
    acc[2] += v * (p * m);
    acc[3] += d;
    acc[4] += d * p;
}

/* ages [0, n) of one piece of a span; every pointer is at its first age */
static inline __attribute__((always_inline)) void
record_span(pair acc[5], int ring, int tail, int64_t n, const double *u,
            const double *R, pair s, const double *mw, const double *growth,
            const double *phi, const double *target, pair scale)
{
    int64_t j = 0;
    for (; j + 1 < n; j += 2)
        record_ages(acc, ring, tail, j, 0, u, R, s, mw, growth, phi, target, scale);
    if (j < n)
        record_ages(acc, ring, tail, j, 1, u, R, s, mw, growth, phi, target, scale);
}

static inline __attribute__((always_inline)) void
record_rows(double sums[5], int ring, int64_t nx, int64_t L, const double *u,
            int64_t head, double s, const double *R, const double *mw,
            const double *growth, const double *phi, const double *target,
            double scale, int64_t tail)
{
    int64_t k = L - head, p1 = tail < k ? tail : k, p2 = tail > k ? tail : k;
    pair s2 = {s, s}, scale2 = {scale, scale};
    for (int q = 0; q < 5; q++)
        sums[q] = 0.0;
    for (int64_t x = 0; x < nx; x++) {
        int64_t o = x * L;
        pair acc[5] = {{0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}};
        pair flat[5] = {{0.0, 0.0}, {0.0, 0.0}};
        /* ages [0, k) from column head, then [k, L) from column 0 */
        record_span(acc, ring, 0, p1, u + o + head, R + o, s2, mw, growth + o, phi + o,
                    target + o, scale2);
        record_span(flat, ring, 1, k - p1, u + o + head + p1, R + o + p1, s2, mw + p1,
                    growth, phi, target + o + p1, scale2);
        record_span(acc, ring, 0, p2 - k, u + o, R + o + k, s2, mw + k, growth + o + k,
                    phi + o + k, target + o + k, scale2);
        record_span(flat, ring, 1, L - p2, u + o + p2 - k, R + o + p2, s2, mw + p2,
                    growth, phi, target + o + p2, scale2);
        double row[5];
        for (int q = 0; q < 5; q++)
            row[q] = acc[q][0] + acc[q][1];
        if (tail < L) {
            double g = growth[o + tail], p = phi[o + tail];
            double m = flat[0][0] + flat[0][1], d = flat[1][0] + flat[1][1];
            row[0] += m;
            row[1] += g * m;
            row[2] += p * m;
            row[3] += d;
            row[4] += p * d;
        }
        for (int q = 0; q < 5; q++)
            sums[q] += row[q];
    }
}

void pde_record(int64_t nx, int64_t L, const double *u, int64_t head, double s,
                const double *R, const double *mw, const double *growth,
                const double *phi, const double *target, double scale, int64_t tail,
                double sums[5])
{
    if (R)
        record_rows(sums, 1, nx, L, u, head, s, R, mw, growth, phi, target, scale, tail);
    else    /* u is the density; R is never read */
        record_rows(sums, 0, nx, L, u, head, s, u, mw, growth, phi, target, scale, tail);
}

/* ---- the steps of pde.run -------------------------------------------------
 *
 * pde_steps advances the cohort ring of TransportSolver.step_nonlinear by n
 * steps inside one block of history sums (m + n at most the block's length;
 * Python starts each block), forming each step as the NumPy step does:
 *   the horizon column's loss, s times sum_x loss_w u[x, head - 1];
 *   s *= exp(-c s msum dt), and the head moves back one column;
 *   per trait, the births and mass sums[x, r] = hist[x, r, m] plus
 *     sum_{j=1..m} W[x, r, j] u[x, head + j] over the block's newborns;
 *   the newborn column max(G births, 0), NaN kept, and NaN where s <= 0;
 *   msum = sum_x sums[x, 1] + mw0 sum_x u[x, head];
 *   below s = floor, s is folded into u and hist.
 * A newborn that is not finite stops the steps with NONFINITE, that step not
 * taken. Each sum is in order or in fixed lanes, so it is the same bits on
 * every run; the sums differ from NumPy's at roundoff.
 */

enum { STEPPED = 0, NONFINITE = 1 };

typedef struct {
    int64_t nx, L;          /* the ring: nx trait rows of L ages */
    double *u;              /* (nx, L), age a_j of row x at column (head + j) mod L */
    int64_t head;
    double s, msum, t;      /* competition factor, mass of u, time */
    double *hist;           /* the block's history sums, (nx, 2, stride) */
    int64_t stride, m;      /* hist's last length, and the block's next step */
    const double *W;        /* birth and mass weights per unit u, (nx, 2, width) */
    int64_t width;          /* at least the block's length */
    const double *G;        /* newborns per birth, (nx, nx) */
    const double *loss_w;   /* the horizon column's loss per unit u, (nx,) */
    double mw0, c, dt, floor;
    double loss;            /* the steps' truncation losses are added to it */
} pde_ring;

/* sum over j < n of a[j] v[j], in eight lanes */
static double dot(const double *a, const double *v, int64_t n)
{
    pair s0 = {0.0, 0.0}, s1 = s0, s2 = s0, s3 = s0;
    int64_t j = 0;
    for (; j + 7 < n; j += 8) {
        s0 += ages(a, j, 0) * ages(v, j, 0);
        s1 += ages(a, j + 2, 0) * ages(v, j + 2, 0);
        s2 += ages(a, j + 4, 0) * ages(v, j + 4, 0);
        s3 += ages(a, j + 6, 0) * ages(v, j + 6, 0);
    }
    for (; j < n; j += 2)
        s0 += ages(a, j, j + 1 == n) * ages(v, j, j + 1 == n);
    s0 = (s0 + s1) + (s2 + s3);
    return s0[0] + s0[1];
}

int pde_steps(pde_ring *r, int64_t n)
{
    int64_t nx = r->nx, L = r->L, hs = r->stride;
    double *u = r->u, *hist = r->hist;
    double births[nx];      /* the newborns' right-hand side */
    for (; n > 0; n--) {
        int64_t m = r->m, head = (r->head + L - 1) % L;
        double s = r->s, loss = 0.0, mass = 0.0, born = 0.0;
        for (int64_t x = 0; x < nx; x++)
            loss += r->loss_w[x] * u[x * L + head];
        s *= exp(-r->c * s * r->msum * r->dt);
        for (int64_t x = 0; x < nx; x++) {
            const double *w = r->W + 2 * x * r->width + 1, *young = u + x * L + head + 1;
            const double *h = hist + 2 * x * hs + m;
            births[x] = h[0] + dot(w, young, m);
            mass += h[hs] + dot(w + r->width, young, m);
        }
        for (int64_t i = 0; i < nx; i++) {
            double v = NAN;
            if (s > 0.0) {
                v = dot(r->G + i * nx, births, nx);
                if (v < 0.0)
                    v = 0.0;
            }
            if (!isfinite(v))
                return NONFINITE;
            u[i * L + head] = v;
            born += v;
        }
        r->loss += r->s * loss;
        r->msum = mass + r->mw0 * born;
        if (s < r->floor) {
            for (int64_t k = 0; k < nx * L; k++)
                u[k] *= s;
            for (int64_t k = 0; k < 2 * nx * hs; k++)
                hist[k] *= s;
            r->msum *= s;
            s = 1.0;
        }
        r->s = s;
        r->head = head;
        r->m = m + 1;
        r->t += r->dt;
    }
    return STEPPED;
}

/* ---- the interpolation of ibm.interp_phi --------------------------------
 *
 * phi_interp evaluates interp_phi's bilinear formula at n points (x, a) of
 * the (nx, ncol) grid phi, with interp_phi's NumPy operations in their order,
 * so every value has their bits: the position (x - x0) / dx and a / da;
 * np.clip's clamp, NaN kept; floor, then the upper clip at the last lower
 * corner, which takes a NaN to that corner (an integer cast of NaN is undefined);
 * the flat index formed in double; and the four corner terms (phi w) w,
 * added in order.
 */

/* np.clip(v, lo, hi): NaN compares false, so it is kept */
static inline double clamp(double v, double lo, double hi)
{
    v = v < lo ? lo : v;
    return v > hi ? hi : v;
}

/* fmin(v, hi) for an hi that is not NaN, without a libm call: a NaN v takes
 * hi, and so does a tie of zeros, as in glibc's fmin and interp_phi's NumPy path */
static inline double lower(double v, double hi)
{
    return v < hi ? v : hi;
}

void phi_interp(int64_t n, const double *x, const double *a, const double *phi,
                int64_t nx, int64_t ncol, double x0, double dx, double da, double *out)
{
    const double xmax = (double)(nx - 1), amax = (double)(ncol - 1);
    for (int64_t p = 0; p < n; p++) {
        double xi = clamp((x[p] - x0) / dx, 0.0, xmax);
        double aj = clamp(a[p] / da, 0.0, amax);
        double i0 = lower(floor(xi), xmax - 1.0), j0 = lower(floor(aj), amax - 1.0);
        double tx = xi - i0, ta = aj - j0, sx = 1.0 - tx, sa = 1.0 - ta;
        const double *c = phi + (int64_t)(i0 * (double)ncol + j0);
        double v = c[0] * sx * sa;
        v += c[ncol] * tx * sa;
        v += c[1] * sx * ta;
        v += c[ncol + 1] * tx * ta;
        out[p] = v;
    }
}
