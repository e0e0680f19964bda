/* The native kernel of patchcomp.operators: LAPACK's tridiagonal solves and
 * the inner loops of the solvers that run them, each in one call.
 *
 * A stack of B blocks of n rows is laid end to end: d holds the B*n main
 * diagonal entries, e the B*n off-diagonal entries, e[j] coupling rows j and
 * j+1 of a block (the last entry of each block, its corner, is zero).  The
 * functions factor and solve do LAPACK dpttrf's and dpttrs's arithmetic on
 * every element, in the same order and with the same operations, but walk
 * the rows in the outer loop and the blocks (times the right-hand sides) in
 * the inner one, so that the B independent recurrences overlap instead of
 * running as one serial chain.  A zero corner makes pttrf's step from one
 * block to the next add exactly nothing to the next block's first pivot
 * (after a finite pivot), so the factor is bit for bit pttrf's; the solve
 * skips that step and keeps each block apart, which differs from pttrs only
 * in the sign of a zero, or where a right-hand side is not finite.
 *
 * step is a whole time step of patchcomp.dynamics.Stepper on a stack of two
 * blocks, one per species: one pass over the rows forms the competition
 * right-hand side, checks it and runs solve's forward sweep, and a second
 * runs the back sweep and divides by the similarity's scale.  The operations
 * on each element are those of the numpy expressions and of solve, so the
 * results are theirs bit for bit.  The two species at row i are the two
 * lanes of one vector, so that one division instruction serves both: the
 * back sweep's two divisions per element bound its time.  Runs go two at a
 * time, their sweep carries in registers, so their number is unbounded and
 * needs no allocation.
 *
 * noda is one pass of Noda's shifted inverse iteration on a stack of
 * operators (patchcomp.operators.noda_pass): the band product, the weighted
 * Rayleigh quotient (its two sums in numpy's pairwise order), the residual
 * and the stop test, then, for the blocks still going, the Collatz-Wielandt
 * shift, factor's and solve's forward sweeps fused into one, the back sweep,
 * the positivity check and the max-normalisation.  residual is the steady
 * problem's A u + u (a - b u) and its Jacobian's diagonal, through the same
 * band product.  gttrf is reference LAPACK dgttrf and dgtts2's solve, the LU
 * with partial pivoting of Newton, on the stack laid end to end as one
 * matrix, as scipy's calls run it.
 *
 * Build: cc -O2 -fPIC -shared -ffp-contract=off -I<Python include>
 * (-ffp-contract=off keeps a*b - c from becoming a fused multiply-add), with
 * GCC or Clang: the two lanes are their vector extensions, and any other
 * compiler fails the build, so that patchcomp runs LAPACK and numpy.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

/* The two species at one row, lane 0 the first: each operation on both
 * lanes is one instruction. */
#if !defined(__GNUC__) && !defined(__clang__)
#error "the LDLT kernel needs the vector extensions of GCC or Clang"
#endif
typedef double pair __attribute__((vector_size(16)));
typedef long long lanes __attribute__((vector_size(16)));

static inline pair pair_of(double a, double b) { return (pair){a, b}; }
static inline double lane(pair x, int k) { return x[k]; }
static inline pair add(pair a, pair b) { return a + b; }
static inline pair sub(pair a, pair b) { return a - b; }
static inline pair mul(pair a, pair b) { return a * b; }
static inline pair quo(pair a, pair b) { return a / b; }
/* The check of t >= 0 and t < inf, lane by lane, as two accumulators that
 * start at zero: a NaN or an infinity makes t - t, and so nan, NaN, and a
 * negative t (but not -0, which t + 0 makes +0) sets the sign bit of neg.
 * Comparisons would be plainer, but GCC 12 turns the masks they give into
 * scalar conditional moves, which doubled the first pass on two runs. */
static inline void
check(pair t, pair *nan, lanes *neg)
{
    *nan += t - t;
    *neg |= (lanes)(t + pair_of(0.0, 0.0));
}
static inline int
passed(pair nan, lanes neg)
{
    return nan[0] == 0 && nan[1] == 0 && neg[0] >= 0 && neg[1] >= 0;
}

/* A C-contiguous buffer of obj in view, of float64 (kind 'd'), C int ('i')
 * or bool ('?'), or -1 with ValueError. */
static int
get_buffer(PyObject *obj, Py_buffer *view, int writable, const char *name, char kind)
{
    int flags = writable ? PyBUF_RECORDS : PyBUF_RECORDS_RO;
    Py_ssize_t itemsize = kind == 'd' ? sizeof(double) : kind == 'i' ? sizeof(int) : 1;
    const char format[2] = {kind, '\0'};

    if (PyObject_GetBuffer(obj, view, flags) < 0) {
        if (PyErr_ExceptionMatches(PyExc_BufferError)) {
            PyErr_Clear();
            PyErr_Format(PyExc_ValueError, "%s must be a %sbuffer", name,
                         writable ? "writable " : "");
        }
        return -1;
    }
    if (view->itemsize != itemsize || view->format == NULL
        || strcmp(view->format, format) != 0) {
        PyErr_Format(PyExc_ValueError, "%s must hold %s", name,
                     kind == 'd' ? "float64" : kind == 'i' ? "C ints" : "bools");
        PyBuffer_Release(view);
        return -1;
    }
    if (!PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_ValueError, "%s must be C-contiguous", name);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static void
release(Py_buffer *views, Py_ssize_t count)
{
    while (count > 0)
        PyBuffer_Release(&views[--count]);
}

/* The buffers of args[0], args[1], ..., one per character of kinds: 'd' for
 * float64, 'i' for C int, '?' for bool, read-only, or 'D', 'I', 'B' for the
 * same writable; names[k] names args[k] in errors.  -1 with an exception,
 * and no buffer held, otherwise. */
static int
get_buffers(PyObject *const *args, Py_buffer *views, const char *kinds,
            const char *const *names)
{
    Py_ssize_t k;

    for (k = 0; kinds[k]; k++) {
        char kind = kinds[k];
        int writable = kind == 'D' || kind == 'I' || kind == 'B';
        char base = kind == 'D' ? 'd' : kind == 'I' ? 'i' : kind == 'B' ? '?' : kind;
        if (get_buffer(args[k], &views[k], writable, names[k], base) < 0) {
            release(views, k);
            return -1;
        }
    }
    return 0;
}

/* The length of a float64 (or C int) buffer in items. */
static inline Py_ssize_t
doubles(const Py_buffer *view)
{
    return view->len / (Py_ssize_t)sizeof(double);
}

static inline Py_ssize_t
ints(const Py_buffer *view)
{
    return view->len / (Py_ssize_t)sizeof(int);
}

/* The block size n of obj, at least 1; -1 with an exception otherwise. */
static int
block_size(PyObject *obj, Py_ssize_t *n)
{
    *n = PyNumber_AsSsize_t(obj, PyExc_OverflowError);
    if (*n == -1 && PyErr_Occurred())
        return -1;
    if (*n < 1) {
        PyErr_SetString(PyExc_ValueError, "block size must be at least 1");
        return -1;
    }
    return 0;
}

/* 0 if the count float64 buffers of views have one length, a multiple of
 * the block size n; -1 with ValueError naming them as what otherwise. */
static int
same_blocks(const Py_buffer *views, Py_ssize_t count, Py_ssize_t n, const char *what)
{
    Py_ssize_t k;

    for (k = 1; k < count && views[k].len == views[0].len; k++)
        ;
    if (k == count && doubles(&views[0]) % n == 0)
        return 0;
    PyErr_Format(PyExc_ValueError, "%s must have one length, a multiple of the block size",
                 what);
    return -1;
}

/* 0 if b holds whole right-hand sides of size entries, else -1 with
 * ValueError. */
static int
whole_rows(const Py_buffer *b, Py_ssize_t size)
{
    Py_ssize_t total = doubles(b);
    if (size == 0 ? total == 0 : total % size == 0)
        return 0;
    PyErr_SetString(PyExc_ValueError, "b must hold whole right-hand sides the length of d");
    return -1;
}

static const char *const factor_names[] = {"d", "e", "", "b"};

PyDoc_STRVAR(factor_doc,
"factor(d, e, n) -> bool\n\n"
"pttrf in place on a stack of blocks of n rows; False when a pivot is not\n"
"positive (d and e are then partly factored).");

static PyObject *
factor(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer v[2];
    Py_ssize_t n, size, i, b;
    int positive = 1;

    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "factor takes d, e and n");
        return NULL;
    }
    if (block_size(args[2], &n) < 0 || get_buffers(args, v, "DD", factor_names) < 0)
        return NULL;
    if (same_blocks(v, 2, n, "d and e") < 0) {
        release(v, 2);
        return NULL;
    }
    double *d = v[0].buf, *e = v[1].buf;
    size = doubles(&v[0]);

    /* pttrf's test is d <= 0, so a NaN pivot passes, as there */
    for (i = 0; i < n - 1 && positive; i++) {
        for (b = i; b < size; b += n) {
            double di = d[b], ei = e[b];
            if (di <= 0) {
                positive = 0;
                break;
            }
            e[b] = ei / di;
            d[b + 1] = d[b + 1] - e[b] * ei;
        }
    }
    for (b = n - 1; b < size && positive; b += n) {
        if (d[b] <= 0)
            positive = 0;
        else if (b + 1 < size)  /* the corner, as pttrf leaves it */
            e[b] = e[b] / d[b];
    }
    release(v, 2);
    return PyBool_FromLong(positive);
}

PyDoc_STRVAR(solve_doc,
"solve(d, e, n, b) -> None\n\n"
"pttrs in place on every row of b (each the length of d) with the factor\n"
"of a stack of blocks of n rows.");

static PyObject *
solve(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer v[4];
    Py_ssize_t n, size, total, i, j;

    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "solve takes d, e, n and b");
        return NULL;
    }
    if (block_size(args[2], &n) < 0 || get_buffers(args, v, "dd", factor_names) < 0)
        return NULL;
    if (get_buffer(args[3], &v[3], 1, "b", 'd') < 0) {
        release(v, 2);
        return NULL;
    }
    size = doubles(&v[0]);
    total = doubles(&v[3]);
    if (same_blocks(v, 2, n, "d and e") < 0 || whole_rows(&v[3], size) < 0) {
        release(v, 2);
        PyBuffer_Release(&v[3]);
        return NULL;
    }
    const double *d = v[0].buf, *e = v[1].buf;
    double *x = v[3].buf;

    /* L y = b */
    for (i = 1; i < n; i++) {
        for (double *row = x; row < x + total; row += size) {
            for (j = i; j < size; j += n)
                row[j] = row[j] - row[j - 1] * e[j - 1];
        }
    }
    /* D Lᵀ x = y */
    for (double *row = x; row < x + total; row += size) {
        for (j = n - 1; j < size; j += n)
            row[j] = row[j] / d[j];
    }
    for (i = n - 2; i >= 0; i--) {
        for (double *row = x; row < x + total; row += size) {
            for (j = i; j < size; j += n)
                row[j] = row[j] / d[j] - row[j + 1] * e[j];
        }
    }
    release(v, 2);
    PyBuffer_Release(&v[3]);
    Py_RETURN_NONE;
}

/* step's arithmetic on RUNS (1 or 2) runs of w, each two blocks of n rows,
 * side by side.  Always inlined where RUNS is a constant, so that each run's
 * sweep carry, the row last swept, stays in a register.  0, with out partly
 * written, when an entry of the right-hand side fails the check. */
static inline __attribute__((always_inline)) int
pair_runs(const double *restrict d, const double *restrict e, Py_ssize_t n,
          const double *restrict coef, const double *restrict w, double *restrict out,
          const int RUNS)
{
    const double *sa = coef, *sb = sa + 2 * n, *sc = sb + 2 * n, *s = sc + 2 * n;
    const pair zero = pair_of(0.0, 0.0);
    pair lower = zero, nan = zero;  /* lower: e of the row above, none above row 0 */
    pair carry[2];
    lanes neg = {0};
    Py_ssize_t i;
    int r;

    /* t = (sa - (sc x + sb w)) w, as patchcomp.dynamics forms it, checked,
     * and L y = t (solve's first sweep), one row of every run at a time */
    for (r = 0; r < RUNS; r++)
        carry[r] = zero;
    for (i = 0; i < n; i++) {
        const pair a = pair_of(sa[i], sa[n + i]), b = pair_of(sb[i], sb[n + i]),
                   c = pair_of(sc[i], sc[n + i]);
        for (r = 0; r < RUNS; r++) {
            const double *wr = w + 2 * n * r;
            double *yr = out + 2 * n * r;
            pair own = pair_of(wr[i], wr[n + i]), t = mul(c, pair_of(wr[n + i], wr[i]));
            t = add(t, mul(b, own));
            t = sub(a, t);
            t = mul(t, own);
            check(t, &nan, &neg);
            t = sub(t, mul(carry[r], lower));
            carry[r] = t;
            yr[i] = lane(t, 0);
            yr[n + i] = lane(t, 1);
        }
        lower = pair_of(e[i], e[n + i]);
    }
    if (!passed(nan, neg))
        return 0;
    /* D Lᵀ x = y, then x / s */
    for (r = 0; r < RUNS; r++)
        carry[r] = zero;
    for (i = n - 1; i >= 0; i--) {
        const pair di = pair_of(d[i], d[n + i]), si = pair_of(s[i], s[n + i]),
                   upper = i == n - 1 ? zero : pair_of(e[i], e[n + i]);
        for (r = 0; r < RUNS; r++) {
            double *yr = out + 2 * n * r;
            pair x = sub(quo(pair_of(yr[i], yr[n + i]), di), mul(carry[r], upper));
            carry[r] = x;
            x = quo(x, si);
            yr[i] = lane(x, 0);
            yr[n + i] = lane(x, 1);
        }
    }
    return 1;
}

/* step's arithmetic on every run of w, two at a time. */
static int
pair_step(const double *d, const double *e, Py_ssize_t n, const double *coef,
          const double *w, double *out, Py_ssize_t runs)
{
    Py_ssize_t r, size = 2 * n;

    for (r = 0; r + 2 <= runs; r += 2) {
        if (!pair_runs(d, e, n, coef, w + size * r, out + size * r, 2))
            return 0;
    }
    return r == runs || pair_runs(d, e, n, coef, w + size * r, out + size * r, 1);
}

PyDoc_STRVAR(step_doc,
"step(d, e, n, coef, w, out) -> bool\n\n"
"One IMEX step of M runs of a two-species pair.  d and e hold the factor of\n"
"a stack of two blocks of n rows, one per species; coef holds sa, sb, sc\n"
"and s, each the length of d; w and out hold M runs the length of d.  Forms\n"
"the right-hand side t = (sa - (sc x + sb w)) w, x the other species, solves\n"
"with the factor as solve does and writes the solution over s to out; w is\n"
"only read.  False, with out partly written, when an entry of t is\n"
"negative, infinite or NaN.");

static PyObject *
step(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const names[] = {"d", "e", "", "coef", "w", "out"};
    Py_buffer v[6];
    Py_ssize_t n, size;
    const char *w_at, *out_at;
    PyObject *result = NULL;

    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError, "step takes d, e, n, coef, w and out");
        return NULL;
    }
    if (block_size(args[2], &n) < 0 || get_buffers(args, v, "dd", names) < 0)
        return NULL;
    if (get_buffers(args + 3, v + 3, "ddD", names + 3) < 0) {
        release(v, 2);
        return NULL;
    }
    size = doubles(&v[0]);
    w_at = v[4].buf;
    out_at = v[5].buf;
    if (same_blocks(v, 2, n, "d and e") < 0)
        result = NULL;  /* with its ValueError */
    else if (size != 2 * n)
        PyErr_SetString(PyExc_ValueError, "d and e must hold two blocks");
    else if (v[3].len != 4 * v[0].len)
        PyErr_SetString(PyExc_ValueError, "coef must hold four rows the length of d");
    else if (v[4].len % v[0].len != 0 || v[5].len != v[4].len)
        PyErr_SetString(PyExc_ValueError,
                        "w and out must hold the same whole runs the length of d");
    else if (v[4].len && out_at < w_at + v[4].len && w_at < out_at + v[5].len)
        PyErr_SetString(PyExc_ValueError, "out must not overlap w");
    else
        result = PyBool_FromLong(pair_step(v[0].buf, v[1].buf, n, v[3].buf, v[4].buf,
                                           v[5].buf, v[4].len / v[0].len));
    release(v, 2);
    release(v + 3, 3);
    return result;
}

/* y = A x for the stack's bands laid end to end, A's rows summed as
 * patchcomp.operators.tridiagonal_matvec sums them: (di x + up x+) + lo x-,
 * with the zero corners' products too. */
static void
band_product(const double *lo, const double *di, const double *up, const double *x,
             double *y, Py_ssize_t size)
{
    Py_ssize_t j;

    for (j = 0; j < size; j++) {
        double v = di[j] * x[j];
        if (j + 1 < size)
            v = v + up[j] * x[j + 1];
        if (j > 0)
            v = v + lo[j] * x[j - 1];
        y[j] = v;
    }
}

/* The sums of (w x) y and of (w x) x over n entries, each in numpy's
 * pairwise order of np.add.reduce along a contiguous row: runs of fewer
 * than 8 summed left to right, runs of at most 128 in eight accumulators,
 * longer ones split at n / 2 rounded down to a multiple of 8. */
static void
pairwise(const double *w, const double *x, const double *y, Py_ssize_t n,
         double *sum_y, double *sum_x)
{
    Py_ssize_t i, j;

    if (n < 8) {
        double a = 0.0, b = 0.0;
        for (i = 0; i < n; i++) {
            double wx = w[i] * x[i];
            a += wx * y[i];
            b += wx * x[i];
        }
        *sum_y = a;
        *sum_x = b;
    }
    else if (n <= 128) {
        double ra[8], rb[8], a, b;
        for (j = 0; j < 8; j++) {
            double wx = w[j] * x[j];
            ra[j] = wx * y[j];
            rb[j] = wx * x[j];
        }
        for (i = 8; i < n - n % 8; i += 8) {
            for (j = 0; j < 8; j++) {
                double wx = w[i + j] * x[i + j];
                ra[j] += wx * y[i + j];
                rb[j] += wx * x[i + j];
            }
        }
        a = ((ra[0] + ra[1]) + (ra[2] + ra[3])) + ((ra[4] + ra[5]) + (ra[6] + ra[7]));
        b = ((rb[0] + rb[1]) + (rb[2] + rb[3])) + ((rb[4] + rb[5]) + (rb[6] + rb[7]));
        for (; i < n; i++) {
            double wx = w[i] * x[i];
            a += wx * y[i];
            b += wx * x[i];
        }
        *sum_y = a;
        *sum_x = b;
    }
    else {
        Py_ssize_t half = n / 2 - (n / 2) % 8;
        double a, b;
        pairwise(w, x, y, half, &a, &b);
        pairwise(w + half, x + half, y + half, n - half, sum_y, sum_x);
        *sum_y = a + *sum_y;
        *sum_x = b + *sum_x;
    }
}

/* numpy's max: NaN once any entry is NaN. */
static inline double
max_of(double top, double v)
{
    return v > top || v != v ? v : top;
}

/* noda's outcomes besides the number of blocks that stopped. */
enum { NOT_POSITIVE_DEFINITE = -1, NOT_POSITIVE = -2, SHIFT_NOT_FINITE = -3 };

/* noda's arithmetic on a stack of blocks of n rows, size rows in all; work
 * holds 2 size + blocks doubles and start blocks offsets. */
static Py_ssize_t
noda_pass(const double *restrict lo, const double *restrict di, const double *restrict up,
          const double *restrict s, const double *restrict w, const double *restrict off,
          double *restrict x, Py_ssize_t n, Py_ssize_t size, const double *margin,
          const double *least, double tol, int solve, double *theta, double *res,
          char *done, double *restrict work, Py_ssize_t *restrict start)
{
    /* ax, then the shifted matrix's pivots; l the factor's multipliers */
    double *restrict d = work, *restrict l = work + size, *restrict sigma = work + 2 * size;
    Py_ssize_t blocks = size / n, going = 0, stopped = 0, b, i, k, j;
    int positive = 1;

    band_product(lo, di, up, x, d, size);
    for (b = 0; b < blocks; b++) {
        const double *xb = x + b * n, *ab = d + b * n;
        double sum_y, sum_x, t, r, bound;
        pairwise(w + b * n, xb, ab, n, &sum_y, &sum_x);
        t = (0.0 + sum_y) / (0.0 + sum_x);
        r = fabs(ab[0] - t * xb[0]);
        for (j = 1; j < n; j++)
            r = max_of(r, fabs(ab[j] - t * xb[j]));
        bound = tol * fabs(t);
        if (bound == bound && !(bound >= least[b]))
            bound = least[b];
        theta[b] = t;
        res[b] = r;
        done[b] = r <= bound;
        if (done[b]) {
            stopped++;
            continue;
        }
        /* the Collatz-Wielandt bound, max (A x) / x, plus the margin */
        r = ab[0] / xb[0];
        for (j = 1; j < n; j++)
            r = max_of(r, ab[j] / xb[j]);
        sigma[going] = r + margin[b];
        start[going++] = b * n;
    }
    if (!solve || !going)
        return stopped;
    for (k = 0; k < going; k++) {
        if (!isfinite(sigma[k]))
            return SHIFT_NOT_FINITE;
    }
    /* pttrf on sigma - di and -off, and pttrs's forward sweep on s x, one
     * row of every going block at a time; pttrf's test is d <= 0 */
    for (k = 0; k < going; k++) {
        j = start[k];
        d[j] = sigma[k] - di[j];
        x[j] = s[j] * x[j];
    }
    for (i = 0; i < n - 1; i++) {
        for (k = 0; k < going; k++) {
            double pivot, ej, lj;
            j = start[k] + i;
            pivot = d[j];
            if (pivot <= 0)
                return NOT_POSITIVE_DEFINITE;
            ej = -off[j];
            lj = ej / pivot;
            l[j] = lj;
            d[j + 1] = (sigma[k] - di[j + 1]) - lj * ej;
            x[j + 1] = s[j + 1] * x[j + 1] - x[j] * lj;
        }
    }
    for (k = 0; k < going; k++) {
        if (d[start[k] + n - 1] <= 0)
            return NOT_POSITIVE_DEFINITE;
    }
    /* the back sweep */
    for (k = 0; k < going; k++) {
        j = start[k] + n - 1;
        x[j] = x[j] / d[j];
    }
    for (i = n - 2; i >= 0; i--) {
        for (k = 0; k < going; k++) {
            j = start[k] + i;
            x[j] = x[j] / d[j] - x[j + 1] * l[j];
        }
    }
    /* x / s, positive in every going block, then over its max */
    for (k = 0; k < going; k++) {
        double *xb = x + start[k];
        const double *sb = s + start[k];
        double top = 0.0;
        for (j = 0; j < n; j++) {
            double v = xb[j] / sb[j];
            positive &= v > 0;
            top = v > top ? v : top;
            xb[j] = v;
        }
        sigma[k] = top;
    }
    if (!positive)
        return NOT_POSITIVE;
    for (k = 0; k < going; k++) {
        double *xb = x + start[k];
        for (j = 0; j < n; j++)
            xb[j] = xb[j] / sigma[k];
    }
    return stopped;
}

PyDoc_STRVAR(noda_doc,
"noda(lo, di, up, s, w, off, x, n, margin, least, theta, res, done, tol, solve)\n"
"-> int\n\n"
"One pass of Noda's iteration on a stack of blocks of n rows: lo, di, up, s,\n"
"w (s squared), off and x the length of d; margin, least and the outputs\n"
"theta, res and done (bools) one entry per block.  Writes each block's\n"
"Rayleigh quotient theta = sum((w x) A x) / sum((w x) x) and residual\n"
"max |A x - theta x|, and done where the residual is at most\n"
"max(tol |theta|, least).  When solve is true, each block not done has x\n"
"replaced by the max-normalised solve of (sigma - S A S^-1) y = s x over s,\n"
"sigma the largest (A x) / x plus margin.  Returns the number of blocks\n"
"done, or -3 when a shift is not finite, -1 when a shifted matrix is not\n"
"positive definite and -2 when a solve is not positive, the last two with x\n"
"partly written.");

static PyObject *
noda(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const names[] = {
        "lo", "di", "up", "s", "w", "off", "x", "n", "margin", "least", "theta", "res", "done",
    };
    Py_buffer v[13];
    Py_ssize_t n, size, blocks;
    double tol;
    int solve;
    double *work = NULL;
    Py_ssize_t *start = NULL;
    PyObject *result = NULL;

    if (nargs != 15) {
        PyErr_SetString(PyExc_TypeError,
                        "noda takes lo, di, up, s, w, off, x, n, margin, least, theta, res, "
                        "done, tol and solve");
        return NULL;
    }
    tol = PyFloat_AsDouble(args[13]);
    if (tol == -1.0 && PyErr_Occurred())
        return NULL;
    solve = PyObject_IsTrue(args[14]);
    if (solve < 0 || block_size(args[7], &n) < 0)
        return NULL;
    /* n, args[7], takes the place of a buffer: it is skipped below */
    if (get_buffers(args, v, "ddddddD", names) < 0)
        return NULL;
    if (get_buffers(args + 8, v + 8, "ddDDB", names + 8) < 0) {
        release(v, 7);
        return NULL;
    }
    size = doubles(&v[0]);
    blocks = size / n;
    if (same_blocks(v, 7, n, "lo, di, up, s, w, off and x") < 0)
        result = NULL;  /* with its ValueError */
    else if (doubles(&v[8]) != blocks || doubles(&v[9]) != blocks || doubles(&v[10]) != blocks
             || doubles(&v[11]) != blocks || v[12].len != blocks)
        PyErr_SetString(PyExc_ValueError,
                        "margin, least, theta, res and done must hold one entry per block");
    else if (!(work = PyMem_Malloc((2 * size + blocks + 1) * sizeof(double)))
             || !(start = PyMem_Malloc((blocks + 1) * sizeof(Py_ssize_t))))
        PyErr_NoMemory();
    else
        result = PyLong_FromSsize_t(noda_pass(
            v[0].buf, v[1].buf, v[2].buf, v[3].buf, v[4].buf, v[5].buf, v[6].buf, n, size,
            v[8].buf, v[9].buf, tol, solve, v[10].buf, v[11].buf, v[12].buf, work, start));
    PyMem_Free(work);
    PyMem_Free(start);
    release(v, 7);
    release(v + 8, 5);
    return result;
}

PyDoc_STRVAR(residual_doc,
"residual(lo, di, up, a, b, u, res, slope) -> None\n\n"
"The steady residual A u + u (a - b u) of a stack laid end to end into res,\n"
"and its Jacobian's diagonal di + a - 2 b u into slope; all eight the same\n"
"length.");

static PyObject *
residual(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const names[] = {"lo", "di", "up", "a", "b", "u", "res", "slope"};
    Py_buffer v[8];
    Py_ssize_t size, j, k;

    if (nargs != 8) {
        PyErr_SetString(PyExc_TypeError, "residual takes lo, di, up, a, b, u, res and slope");
        return NULL;
    }
    if (get_buffers(args, v, "ddddddDD", names) < 0)
        return NULL;
    size = doubles(&v[0]);
    for (k = 1; k < 8; k++) {
        if (doubles(&v[k]) != size) {
            PyErr_SetString(PyExc_ValueError, "every buffer must have the length of lo");
            release(v, 8);
            return NULL;
        }
    }
    const double *di = v[1].buf, *a = v[3].buf, *b = v[4].buf, *u = v[5].buf;
    double *res = v[6].buf, *slope = v[7].buf;
    band_product(v[0].buf, di, v[2].buf, u, res, size);
    for (j = 0; j < size; j++) {
        double bu = b[j] * u[j];
        res[j] = res[j] + u[j] * (a[j] - bu);
        slope[j] = (a[j] - 2.0 * bu) + di[j];
    }
    release(v, 8);
    Py_RETURN_NONE;
}

/* dgtts2's step i of L x = b on every right-hand side of x. */
static inline void
lu_forward(const double *dl, const int *ipiv, Py_ssize_t i, Py_ssize_t size, double *x,
           Py_ssize_t total)
{
    for (double *b = x; b < x + total; b += size) {
        if (ipiv[i] == i + 1)
            b[i + 1] = b[i + 1] - dl[i] * b[i];
        else {
            double temp = b[i];
            b[i] = b[i + 1];
            b[i + 1] = temp - dl[i] * b[i];
        }
    }
}

/* dgtts2's U x = b on every right-hand side of x. */
static void
lu_back(const double *d, const double *du, const double *du2, Py_ssize_t size, double *x,
        Py_ssize_t total)
{
    Py_ssize_t i;

    for (double *b = x; b < x + total; b += size) {
        b[size - 1] = b[size - 1] / d[size - 1];
        if (size > 1)
            b[size - 2] = (b[size - 2] - du[size - 2] * b[size - 1]) / d[size - 2];
        for (i = size - 3; i >= 0; i--)
            b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / d[i];
    }
}

/* Reference LAPACK dgttrf on the size rows of lo, di, up (lo[0] and
 * up[size - 1] unused) into dl, d, du, du2, each size long, and ipiv, one
 * based, with dgtts2's L x = b on the right-hand sides of x (total entries
 * in all) fused in: its step i needs only the factor's step i.  0 when U
 * has a zero on its diagonal, and x is then partly solved. */
static int
lu_factor(const double *lo, const double *di, const double *up, Py_ssize_t size,
          double *restrict dl, double *restrict d, double *restrict du, double *restrict du2,
          int *restrict ipiv, double *restrict x, Py_ssize_t total)
{
    Py_ssize_t i;

    for (i = 0; i < size; i++) {
        dl[i] = i + 1 < size ? lo[i + 1] : 0.0;
        d[i] = di[i];
        du[i] = i + 1 < size ? up[i] : 0.0;
        du2[i] = 0.0;
        ipiv[i] = (int)(i + 1);
    }
    for (i = 0; i + 1 < size; i++) {
        if (fabs(d[i]) >= fabs(dl[i])) {
            /* no row interchange */
            if (d[i] != 0.0) {
                double fact = dl[i] / d[i];
                dl[i] = fact;
                d[i + 1] = d[i + 1] - fact * du[i];
            }
        }
        else {
            /* interchange rows i and i + 1 */
            double fact = d[i] / dl[i], temp = du[i];
            d[i] = dl[i];
            dl[i] = fact;
            du[i] = d[i + 1];
            d[i + 1] = temp - fact * d[i + 1];
            if (i + 2 < size) {
                du2[i] = du[i + 1];
                du[i + 1] = -fact * du[i + 1];
            }
            ipiv[i] = (int)(i + 2);
        }
        lu_forward(dl, ipiv, i, size, x, total);
    }
    for (i = 0; i < size; i++) {
        if (d[i] == 0.0)
            return 0;
    }
    return 1;
}

PyDoc_STRVAR(gttrf_doc,
"gttrf(lo, di, up, factor, ipiv, b) -> bool\n\n"
"LAPACK dgttrf on the matrix of the bands lo, di and up laid end to end\n"
"(lo[0] and up[-1] unused), into factor, four rows dl, d, du and du2 the\n"
"length of di, and ipiv (C ints, one based), and dgttrs in place on every\n"
"right-hand side of b, each the length of di.  False, with b partly\n"
"solved, when U has a zero on its diagonal.");

static PyObject *
gttrf(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const names[] = {"lo", "di", "up", "factor", "ipiv", "b"};
    Py_buffer v[6];
    Py_ssize_t size;
    PyObject *result = NULL;

    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError, "gttrf takes lo, di, up, factor, ipiv and b");
        return NULL;
    }
    if (get_buffers(args, v, "dddDID", names) < 0)
        return NULL;
    size = doubles(&v[1]);
    if (doubles(&v[0]) != size || doubles(&v[2]) != size)
        PyErr_SetString(PyExc_ValueError, "lo, di and up must have one length");
    else if (doubles(&v[3]) != 4 * size || ints(&v[4]) != size)
        PyErr_SetString(PyExc_ValueError,
                        "factor must hold four rows and ipiv one the length of di");
    else if (whole_rows(&v[5], size) == 0) {
        double *f = v[3].buf;
        int regular = lu_factor(v[0].buf, v[1].buf, v[2].buf, size, f, f + size,
                                f + 2 * size, f + 3 * size, v[4].buf, v[5].buf,
                                doubles(&v[5]));
        if (regular)
            lu_back(f + size, f + 2 * size, f + 3 * size, size, v[5].buf, doubles(&v[5]));
        result = PyBool_FromLong(regular);
    }
    release(v, 6);
    return result;
}

static PyMethodDef methods[] = {
    {"factor", (PyCFunction)(void (*)(void))factor, METH_FASTCALL, factor_doc},
    {"solve", (PyCFunction)(void (*)(void))solve, METH_FASTCALL, solve_doc},
    {"step", (PyCFunction)(void (*)(void))step, METH_FASTCALL, step_doc},
    {"noda", (PyCFunction)(void (*)(void))noda, METH_FASTCALL, noda_doc},
    {"residual", (PyCFunction)(void (*)(void))residual, METH_FASTCALL, residual_doc},
    {"gttrf", (PyCFunction)(void (*)(void))gttrf, METH_FASTCALL, gttrf_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_ldlt",
    "LAPACK's pttrf/pttrs (blocks interleaved) and gttrf/gttrs on a stack of\n"
    "tridiagonal blocks, the IMEX step of a two-species pair, a pass of\n"
    "Noda's iteration and the steady residual.", -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__ldlt(void)
{
    return PyModule_Create(&module_def);
}
