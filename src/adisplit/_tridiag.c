/* Line-interleaved SPD tridiagonal solves with a LAPACK dpttrf factor, and
 * the five-point stencil of A, B and L = A + B.
 *
 * Each entry point solves every grid line of an n x n field, one system
 * per line, from the factor L D L^T of that line.  The arithmetic per line
 * is the one of LAPACK dpttrs (dptts2):
 *
 *     forward   x[p] = r[p] - x[p-1] * e[p-1]                  p = 1..n-1
 *     back      x[n-1] = x[n-1] / d[n-1]
 *               x[p] = x[p] / d[p] - x[p+1] * e[p]              p = n-2..0
 *
 * so, built without floating-point contraction, the results equal dpttrs
 * bit for bit.  Many lines run side by side, which removes the wait of
 * each unknown on the one before it.  With `reflect` set the back sweep
 * also overwrites x[p+1] with 2 x[p+1] - r[p+1] as soon as x[p] no longer
 * needs it, so the output holds the Cayley transform 2 R r - r.
 * `r` and `x` must not overlap.
 */
#include <stdlib.h>

#define TILE 16  /* lines per tile of the contiguous sweep */
#define CHUNK 32 /* positions per step of the tile transposes */

/* read by the loader, which lays out the contiguous-line factor in tiles */
const long adisplit_tile = TILE;

/* w lines of length n stored position-major: element p of line l at p*w + l. */
static void sweep(long n, long w, const double *restrict d,
                  const double *restrict e, const double *restrict r,
                  double *restrict x, int reflect)
{
    long p, l;
    for (l = 0; l < w; l++)
        x[l] = r[l];
    for (p = 1; p < n; p++) {
        double *xp = x + p * w;
        const double *xq = xp - w, *rp = r + p * w, *ep = e + (p - 1) * w;
        for (l = 0; l < w; l++)
            xp[l] = rp[l] - xq[l] * ep[l];
    }
    double *xl = x + (n - 1) * w;
    const double *dl = d + (n - 1) * w;
    for (l = 0; l < w; l++)
        xl[l] = xl[l] / dl[l];
    for (p = n - 2; p >= 0; p--) {
        double *xp = x + p * w, *xn = xp + w;
        const double *dp = d + p * w, *ep = e + p * w, *rn = r + (p + 1) * w;
        for (l = 0; l < w; l++)
            xp[l] = xp[l] / dp[l] - xn[l] * ep[l];
        if (reflect)
            for (l = 0; l < w; l++)
                xn[l] = 2.0 * xn[l] - rn[l];
    }
    if (reflect)
        for (l = 0; l < w; l++)
            x[l] = 2.0 * x[l] - r[l];
}

/* Lines along the slow axis (field[p][i] is element p of line i): the
 * field is already position-major, so all n lines sweep together.
 * d and e are stored [p][i]. */
int adisplit_solve_strided(long n, const double *d, const double *e,
                           const double *r, double *x, int reflect)
{
    sweep(n, n, d, e, r, x, reflect);
    return 0;
}

/* Contiguous lines (field[l][p] is element p of line l): blocks of TILE
 * lines are gathered into a position-major tile, swept and scattered back.
 * d and e are stored [block][p][l], padded to whole blocks.  Returns -1 if
 * the tile cannot be allocated. */
int adisplit_solve_contiguous(long n, const double *d, const double *e,
                              const double *r, double *x, int reflect)
{
    double *tr = calloc(2 * TILE * (size_t)n, sizeof(double));
    if (tr == NULL)
        return -1;
    double *tx = tr + TILE * n;
    for (long b = 0; b * TILE < n; b++) {
        long lines = n - b * TILE < TILE ? n - b * TILE : TILE;
        const double *rb = r + b * TILE * n;
        double *xb = x + b * TILE * n;
        /* copy CHUNK positions of each line at a time, so both sides of
         * the transpose stay in cache */
        for (long q = 0; q < n; q += CHUNK) {
            long qe = q + CHUNK < n ? q + CHUNK : n;
            for (long l = 0; l < lines; l++)
                for (long p = q; p < qe; p++)
                    tr[p * TILE + l] = rb[l * n + p];
        }
        sweep(n, TILE, d + b * TILE * n, e + b * TILE * n, tr, tx, reflect);
        for (long q = 0; q < n; q += CHUNK) {
            long qe = q + CHUNK < n ? q + CHUNK : n;
            for (long l = 0; l < lines; l++)
                for (long p = q; p < qe; p++)
                    xb[l * n + p] = tx[p * TILE + l];
        }
    }
    free(tr);
    return 0;
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
