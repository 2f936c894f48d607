/* Line-interleaved SPD tridiagonal factors and solves, the Cayley
 * recurrence of the Douglas-Rachford and Peaceman-Rachford schemes built
 * on them, and the five-point stencil of A, B and L = A + B.
 *
 * adisplit_factor forms the factor L D L^T of every line's system with the
 * arithmetic of LAPACK dpttrf and stores its multipliers e, straight into
 * the layout the sweeps read.  A factor is those multipliers and the line
 * coefficients (gamma, diag, off): dpttrf forms each pivot as
 * d[p] = (1 + gamma diag[p]) - e[p-1] (gamma off[p-1]), with no division,
 * so a sweep recomputes it from e[p-1], bit for bit, and no pivot is
 * stored.  Each solve handles every grid line of an n x n field, one
 * system per line, from that factor.  The arithmetic per line is the one
 * of LAPACK dpttrs (dptts2), with each division moved into the forward
 * pass, where x[p] is final:
 *
 *     forward   t[0] = r[0],  t[p] = r[p] - t[p-1] * e[p-1]     p = 1..n-1
 *               x[p] = t[p] / d[p]                              p = 0..n-1
 *     back      x[p] = x[p] - x[p+1] * e[p]                     p = n-2..0
 *
 * Every operation has dpttrs's operands, so, built without floating-point
 * contraction, the results equal dpttrs bit for bit.  The undivided t[p]
 * is carried to the next position in a buffer of one value per line.
 * Many lines run side by side, which removes the wait of each unknown on
 * the one before it.  `r` and `x` must not overlap.  The standalone
 * solves write R r, from which a caller forms a Cayley transform
 * 2 R r - r.  Only the Cayley loop's A sweep sets `reflect`, with which
 * the back sweep also overwrites x[p+1] with 2 x[p+1] - r[p+1] as soon
 * as x[p] no longer needs it, so the tile holds the Cayley transform.
 * Lines along the slow axis sweep in blocks of BLOCK columns, so a
 * block's rows stay in cache between the forward and the back pass, and
 * each pass prefetches the rows of its next position.
 *
 * adisplit_cayley_loop runs many time steps of the Cayley recurrence in
 * one call.  Its B sweep writes R_B u, and the A sweep's gather forms
 * C_B u = 2 R_B u - u from that and u, with the back pass's operation,
 * so the B sweep never reads u a second time.  It may split every
 * sweep's lines between the calling thread and one worker thread that
 * lives for the call; the two meet at a barrier after each sweep.  Every
 * line keeps the arithmetic of a single-threaded solve, so the split
 * does not change a bit of the result.
 *
 * Three element-wise entries at the end of the file serve Crank-Nicolson's
 * preconditioned CG: the Jacobi term of its preconditioner and the two
 * vector updates of each iteration.
 */
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdlib.h>

#define TILE 16  /* lines per tile of the contiguous sweep */
#define BLOCK 64 /* lines per block of the strided sweep */
#define CHUNK 32 /* positions per step of the tile transposes */
#define SPINS 4096 /* barrier polls before each poll also yields the CPU */

/* read by the loader, which sizes the contiguous-line factor in tiles */
const long adisplit_tile = TILE;

/* A factor comes as two arrays.  `c`, the line coefficients, holds
 * diag[0..n-1], then off[0..n-2], then gamma of every stored line: n on the
 * strided axis, padded with zeros to whole tiles on the contiguous one, so
 * that a padding line gets pivot 1.  `e` holds the multipliers in the
 * sweep layout of its axis. */
#define GAMMA(c, n) ((c) + 2 * (n) - 1)

/* Prefetch the w doubles from a, one cache line of 64 bytes at a time,
 * to be read (ahead) or written (ahead_write).  A row the sweep writes,
 * prefetched to be read, came shared and was claimed again at the
 * store: on a 2-core Xeon the two-thread loop at m = 256 took 5.4 ns per
 * unknown-step so, 3.3 with write intent. */
static void ahead(const double *a, long w)
{
    for (long l = 0; l < w; l += 8)
        __builtin_prefetch(a + l, 0);
}

static void ahead_write(double *a, long w)
{
    for (long l = 0; l < w; l += 8)
        __builtin_prefetch(a + l, 1);
}

/* w lines of length n stored position-major with stride ld: element p of
 * line l at p*ld + l, in e as in r and x.  c holds the line coefficients,
 * g the w lines' gamma and t, w doubles of scratch, the carried values
 * from position 1 on; position 0's are r's.  Copying r into t instead
 * made gcc call memcpy, a new PLT entry (see adisplit_factor).  Where the
 * rows lie apart (ld > TILE, the strided sweep; a tile is contiguous),
 * each pass prefetches the rows of its next position: one row ahead
 * measured best, two and four slower. */
static void sweep(long n, long w, long ld, const double *restrict c,
                  const double *restrict g, const double *restrict e,
                  const double *restrict r, double *restrict x,
                  double *restrict t, int reflect)
{
    const double *diag = c, *off = c + n;
    long p, l;
    const double *tq = r; /* the undivided x of position p - 1 */
    for (l = 0; l < w; l++)
        x[l] = r[l] / (1.0 + g[l] * diag[0]);
    for (p = 1; p < n; p++) {
        double *xp = x + p * ld, dg = diag[p], of = off[p - 1];
        const double *rp = r + p * ld, *ep = e + (p - 1) * ld;
        if (ld > TILE && p + 1 < n) {
            ahead(rp + ld, w);
            ahead(ep + ld, w);
            ahead_write(xp + ld, w);
        }
        for (l = 0; l < w; l++) {
            double tp = rp[l] - tq[l] * ep[l];
            xp[l] = tp / ((1.0 + g[l] * dg) - ep[l] * (g[l] * of));
            t[l] = tp;
        }
        tq = t;
    }
    for (p = n - 2; p >= 0; p--) {
        double *xp = x + p * ld, *xn = xp + ld;
        const double *ep = e + p * ld, *rn = r + (p + 1) * ld;
        if (ld > TILE && p > 0) {
            ahead_write(xp - ld, w);
            ahead(ep - ld, w);
        }
        for (l = 0; l < w; l++)
            xp[l] = xp[l] - xn[l] * ep[l];
        if (reflect)
            for (l = 0; l < w; l++)
                xn[l] = 2.0 * xn[l] - rn[l];
    }
    if (reflect)
        for (l = 0; l < w; l++)
            x[l] = 2.0 * x[l] - r[l];
}

/* Lines i0..i1-1 along the slow axis (field[p][i] is element p of line
 * i): the field is already position-major, so the lines sweep in place,
 * BLOCK side by side.  e is stored [p][i]. */
static void columns(long n, long i0, long i1, const double *restrict c,
                    const double *restrict e, const double *restrict r,
                    double *restrict x)
{
    double carry[BLOCK];
    for (long i = i0; i < i1; i += BLOCK)
        sweep(n, i1 - i < BLOCK ? i1 - i : BLOCK, n, c, GAMMA(c, n) + i,
              e + i, r + i, x + i, carry, 0);
}

/* All n lines along the slow axis.  Allocates nothing, and returns 0
 * like adisplit_solve_contiguous, so one caller serves both. */
int adisplit_solve_strided(long n, const double *c, const double *e,
                           const double *r, double *x)
{
    columns(n, 0, n, c, e, r, x);
    return 0;
}

/* Contiguous lines (field[l][p] is element p of line l), tiles b0..b1-1:
 * each block of TILE lines is gathered into a position-major tile, swept
 * and scattered back.  e is stored [block][p][l], padded to whole blocks;
 * `tile` holds 2 TILE n doubles.  With `cayley` the gather forms the
 * right-hand side 2 r - x, the back pass's reflection of r = R x.  With
 * `average` the scatter writes (t + x) * 0.5 over x, t being the tile's
 * result. */
static void tiles(long n, long b0, long b1, const double *restrict c,
                  const double *restrict e, const double *restrict r,
                  double *restrict x, int reflect, int cayley, int average,
                  double *restrict tile)
{
    double *tr = tile, *tx = tile + TILE * n, carry[TILE];
    for (long b = b0; b < b1; b++) {
        long lines = n - b * TILE < TILE ? n - b * TILE : TILE;
        const double *rb = r + b * TILE * n;
        double *xb = x + b * TILE * n;
        /* copy CHUNK positions of each line at a time, so both sides of
         * the transpose stay in cache */
        for (long q = 0; q < n; q += CHUNK) {
            long qe = q + CHUNK < n ? q + CHUNK : n;
            for (long l = 0; l < lines; l++)
                if (cayley)
                    for (long p = q; p < qe; p++)
                        tr[p * TILE + l] = 2.0 * rb[l * n + p] - xb[l * n + p];
                else
                    for (long p = q; p < qe; p++)
                        tr[p * TILE + l] = rb[l * n + p];
        }
        sweep(n, TILE, TILE, c, GAMMA(c, n) + b * TILE, e + b * TILE * n, tr,
              tx, carry, reflect);
        for (long q = 0; q < n; q += CHUNK) {
            long qe = q + CHUNK < n ? q + CHUNK : n;
            for (long l = 0; l < lines; l++) {
                double *xl = xb + l * n;
                const double *tl = tx + l;
                if (average)
                    for (long p = q; p < qe; p++)
                        xl[p] = (tl[p * TILE] + xl[p]) * 0.5;
                else
                    for (long p = q; p < qe; p++)
                        xl[p] = tl[p * TILE];
            }
        }
    }
}

/* All contiguous lines in tiles of TILE.  Returns -1 if the tile cannot
 * be allocated. */
int adisplit_solve_contiguous(long n, const double *c, const double *e,
                              const double *r, double *x)
{
    double *tile = calloc(2 * TILE * (size_t)n, sizeof(double));
    if (tile == NULL)
        return -1;
    tiles(n, 0, (n + TILE - 1) / TILE, c, e, r, x, 0, 0, 0, tile);
    free(tile);
    return 0;
}

struct loop {
    long n, steps;
    int average, parts;
    const double *ca, *ea, *cb, *eb;
    double *u, *v, *tile;
    atomic_int arrived, phase;
};

/* Wait until every part has finished the current sweep: spin on the
 * phase, then keep polling while yielding the CPU, so a thread that waits
 * for a descheduled partner does not hold a shared core. */
static void meet(struct loop *s)
{
    if (s->parts == 1)
        return;
    int phase = atomic_load_explicit(&s->phase, memory_order_relaxed);
    if (atomic_fetch_add_explicit(&s->arrived, 1, memory_order_acq_rel) + 1
        == s->parts) {
        atomic_store_explicit(&s->arrived, 0, memory_order_relaxed);
        atomic_store_explicit(&s->phase, phase + 1, memory_order_release);
        return;
    }
    for (long spin = 0;
         atomic_load_explicit(&s->phase, memory_order_acquire) == phase; spin++)
        if (spin >= SPINS)
            sched_yield();
}

/* Part `part` of `s->parts`: columns i0..i1-1 of every B sweep and tiles
 * b0..b1-1 of every A sweep, on the part's 2 TILE n doubles of `tile`.
 * The B sweep writes v = R_B u, and the A gather forms C_B u from v and
 * u.  The fields are read into locals once, and each branch passes
 * `cayley` and `average` to `tiles` as constants: with one call taking
 * `average` as a variable, gcc -O3 inlined `tiles` everywhere, and both
 * this loop at m = 16 and adisplit_solve_contiguous ran 3-9% slower. */
static void run_part(struct loop *s, int part)
{
    long n = s->n, steps = s->steps, nb = (n + TILE - 1) / TILE;
    long i0 = part * n / s->parts, i1 = (part + 1) * n / s->parts;
    long b0 = part * nb / s->parts, b1 = (part + 1) * nb / s->parts;
    int average = s->average;
    const double *ca = s->ca, *ea = s->ea, *cb = s->cb, *eb = s->eb;
    double *u = s->u, *v = s->v, *tile = s->tile + part * 2 * TILE * n;
    for (long step = 0; step < steps; step++) {
        columns(n, i0, i1, cb, eb, u, v);
        meet(s);
        if (average)
            tiles(n, b0, b1, ca, ea, v, u, 1, 1, 1, tile);
        else
            tiles(n, b0, b1, ca, ea, v, u, 1, 1, 0, tile);
        meet(s);
    }
}

static void *worker(void *arg)
{
    run_part(arg, 1);
    return NULL;
}

/* `steps` steps of u = C_A C_B u on two n x n fields, C_X = 2 R_X - I
 * with the factors of adisplit_solve_contiguous (A) and
 * adisplit_solve_strided (B), v holding R_B u between the sweeps; with
 * `average` set a step is u = (u + C_A C_B u) / 2.  The result is in u.
 * Peaceman-Rachford's t <- C_A C_B t and Douglas-Rachford's
 * t <- (t + C_A C_B t) / 2 are both this loop.  With `threads` >= 2 a
 * worker thread takes half the lines of every sweep, the same half each
 * time; it blocks all signals, so they reach the caller, and is joined
 * before the call returns.  Returns the
 * number of threads used (1 where the worker cannot be started), or -1 if
 * the tiles cannot be allocated. */
int adisplit_cayley_loop(long n, long steps, int average, int threads,
                         const double *ca, const double *ea, const double *cb,
                         const double *eb, double *u, double *v)
{
    struct loop s = {.n = n, .steps = steps, .average = average,
                     .parts = threads >= 2 ? 2 : 1,
                     .ca = ca, .ea = ea, .cb = cb, .eb = eb, .u = u, .v = v};
    atomic_init(&s.arrived, 0);
    atomic_init(&s.phase, 0);
    s.tile = calloc(s.parts * 2 * TILE * (size_t)n, sizeof(double));
    if (s.tile == NULL)
        return -1;
    pthread_t other;
    if (s.parts == 2) {
        sigset_t all, old;
        sigfillset(&all);
        pthread_sigmask(SIG_BLOCK, &all, &old);
        if (pthread_create(&other, NULL, worker, &s) != 0)
            s.parts = 1;
        pthread_sigmask(SIG_SETMASK, &old, NULL);
    }
    run_part(&s, 0);
    if (s.parts == 2)
        pthread_join(other, NULL);
    free(s.tile);
    return s.parts;
}

/* Row j of the A part: y[i] = ((d[i] x[i] + e[i-1] x[i-1]) + e[i] x[i+1]) c,
 * the operation order of TridiagonalMatrix.matvec followed by the scaling;
 * a neighbour outside the line is skipped, not added as zero. */
static void row_a(long n, const double *restrict d, const double *restrict e,
                  double c, const double *restrict x, double *restrict y)
{
    if (n == 1) {
        y[0] = d[0] * x[0] * c;
        return;
    }
    y[0] = (d[0] * x[0] + e[0] * x[1]) * c;
    for (long i = 1; i < n - 1; i++)
        y[i] = ((d[i] * x[i] + e[i - 1] * x[i - 1]) + e[i] * x[i + 1]) * c;
    y[n - 1] = (d[n - 1] * x[n - 1] + e[n - 2] * x[n - 2]) * c;
}

/* Row j of the B part, y[i] (+)= ((d x[i] + em xm[i]) + ep xp[i]) c[i] with
 * xm and xp the rows j-1 and j+1, NULL outside the field. */
static void row_b(long n, double d, double em, double ep,
                  const double *restrict xm, const double *restrict x,
                  const double *restrict xp, const double *restrict c,
                  double *restrict y, int add)
{
    for (long i = 0; i < n; i++) {
        double t = d * x[i];
        if (xm)
            t = t + em * xm[i];
        if (xp)
            t = t + ep * xp[i];
        t = t * c[i];
        y[i] = add ? y[i] + t : t;
    }
}

/* y = A x (parts 1), B x (parts 2) or A x + B x (parts 3) on the C-ordered
 * n x n field x (element i of row j at x[j*n + i]), one row at a time; with
 * parts | 4 the result p becomes x + p sigma.  The A part is ad/ae
 * (K_lambda) along i scaled by ac[j] = -mu_j / h^2, the B part bd/be (K_mu)
 * along j scaled by bc[i] = -lambda_i / h^2.  `x` and `y` must not
 * overlap. */
void adisplit_stencil(long n, int parts, double sigma, const double *ad,
                      const double *ae, const double *ac, const double *bd,
                      const double *be, const double *bc,
                      const double *restrict x, double *restrict y)
{
    for (long j = 0; j < n; j++) {
        const double *xj = x + j * n;
        double *yj = y + j * n;
        if (parts & 1)
            row_a(n, ad, ae, ac[j], xj, yj);
        if (parts & 2)
            row_b(n, bd[j], j > 0 ? be[j - 1] : 0.0, j < n - 1 ? be[j] : 0.0,
                  j > 0 ? xj - n : NULL, xj, j < n - 1 ? xj + n : NULL, bc,
                  yj, parts & 1);
        if (parts & 4)
            for (long i = 0; i < n; i++)
                yj[i] = xj[i] + yj[i] * sigma;
    }
}

/* The multipliers of the factor of I + gamma[l] K for lines l = 0..n-1,
 * K the symmetric tridiagonal matrix of order n with diagonal `diag` and
 * off-diagonal `off`, all three read from the line coefficients `c`, with
 * dpttrf's arithmetic per line:
 *
 *     d[0] = 1 + gamma diag[0]
 *     ei = gamma off[p],  e[p] = ei / d[p],
 *     d[p+1] = (1 + gamma diag[p+1]) - e[p] ei                p = 0..n-2
 *
 * Only e is stored.  The pivots of the current position live in `d`, w
 * doubles of scratch; a sweep recomputes them with the same operations.
 * The lines are stored in blocks of w, position-major: element p of line
 * l at (l / w) w n + p w + l % w, so w = n gives the [p][l] layout of
 * adisplit_solve_strided and w = TILE the [tile][p][l] one of
 * adisplit_solve_contiguous.  `e` must come zeroed: e[n-1] and the lines
 * that fill the last block stay 0, and storing no zeros keeps gcc from
 * calling memset, whose PLT entry would move every other function of the
 * library.  Returns 1 if a pivot is not positive, else 0. */
int adisplit_factor(long n, long w, const double *restrict c,
                    double *restrict d, double *restrict e)
{
    const double *diag = c, *off = c + n, *gamma = GAMMA(c, n);
    int bad = 0;
    for (long l0 = 0; l0 < n; l0 += w) {
        long live = n - l0 < w ? n - l0 : w;
        const double *g = gamma + l0;
        double *eb = e + l0 * n;
        for (long l = 0; l < live; l++)
            d[l] = 1.0 + g[l] * diag[0];
        for (long p = 0; p + 1 < n; p++) {
            double *ep = eb + p * w;
            for (long l = 0; l < live; l++) {
                double ei = g[l] * off[p];
                bad |= d[l] <= 0.0;
                ep[l] = ei / d[l];
                d[l] = (1.0 + g[l] * diag[p + 1]) - ep[l] * ei;
            }
        }
        for (long l = 0; l < live; l++)
            bad |= d[l] <= 0.0;
    }
    return bad;
}

/* Element-wise leaves of the Crank-Nicolson CG loop, over `size` doubles,
 * each with the operation order of the numpy lines it replaces.  They sit
 * at the end of the file and call no function, so every function above
 * keeps its address and its machine code. */

/* out = out + w r: the Jacobi term of the CN preconditioner. */
void adisplit_add_weighted(long size, const double *restrict w,
                           const double *restrict r, double *restrict out)
{
    for (long i = 0; i < size; i++)
        out[i] = out[i] + w[i] * r[i];
}

/* x = x + alpha p and r = r - alpha ap in one pass.  `ap` may be `p`. */
void adisplit_cg_step(long size, double alpha, const double *p,
                      const double *ap, double *restrict x, double *restrict r)
{
    for (long i = 0; i < size; i++) {
        x[i] = x[i] + alpha * p[i];
        r[i] = r[i] - alpha * ap[i];
    }
}

/* p = p beta + z: the next search direction. */
void adisplit_cg_direction(long size, double beta, const double *restrict z,
                           double *restrict p)
{
    for (long i = 0; i < size; i++)
        p[i] = p[i] * beta + z[i];
}
