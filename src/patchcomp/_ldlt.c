/* The native kernel of patchcomp.operators: LAPACK's symmetric tridiagonal
 * factor and solve and the inner loops of the solvers that run them, each in
 * one call.
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
 * noda and newton are whole solver loops, one call each, on a stack of
 * operators, every block with its own stop; both solve with one shifted
 * LDLT of the similarity that symmetrizes the couplings, factor's and
 * solve's forward sweeps fused into one, then the back sweep, on the blocks
 * still going (shifted_solve), and both form A x with one band product.
 * noda is Noda's shifted inverse iteration (patchcomp.eigen): each pass is
 * that of patchcomp.operators.noda_pass, the band product, the weighted
 * Rayleigh quotient (its two sums in numpy's pairwise order), the residual
 * and the stop test, then, for the blocks still going, the Collatz-Wielandt
 * shift, the shifted solve, the positivity check and the max-normalisation,
 * repeated until every block stops or the pass cap is reached; each block's
 * margin and least stop bound come from its scale, its largest band entry
 * (at least 1), as newton's noise comes from its largest row sum.  newton is
 * the monotone Newton run of patchcomp.steady.newton on the steady problem
 * A u + u (a - b u) = 0: per pass its residual and its Jacobian's diagonal,
 * each block's stop test, and for the blocks still going the full step,
 * the shifted solve at shift 0 of minus the Jacobian.
 *
 * species is the assembly of a stack of species
 * (patchcomp.operators.SpeciesLayout): one pass writes each species'
 * reduced-DOF masses and weights, its diffusion bands and the similarity
 * that makes them symmetric, s, s squared and the symmetric couplings, and
 * refuses, in this order, weights that are not finite and positive, bands
 * that are not finite, couplings that are not positive and s squared out of
 * range.  Each of its operations is one correctly rounded operation, in
 * numpy's order, so its numbers are numpy's bit for bit; only the product
 * that carries s runs one row at a time.
 *
 * Build: cc -O2 -fPIC -shared -ffp-contract=off -I<Python include>
 * (-ffp-contract=off keeps a*b - c from becoming a fused multiply-add), with
 * GCC or Clang: the two lanes are their vector extensions, and any other
 * compiler fails the build, so that patchcomp runs LAPACK and numpy.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
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

/* Whether view's items are of kind: float64 ('d'), bool ('?') or
 * Py_ssize_t ('n'), which numpy's format names by the C integer type of its
 * size ('l' or 'q'). */
static int
holds(const Py_buffer *view, char kind)
{
    const char *f = view->format;
    Py_ssize_t itemsize = kind == 'd' ? sizeof(double) : kind == 'n' ? sizeof(Py_ssize_t)
                        : 1;

    if (view->itemsize != itemsize || f == NULL || f[0] == '\0' || f[1] != '\0')
        return 0;
    return kind == 'n' ? strchr("nlq", f[0]) != NULL : f[0] == kind;
}

/* A C-contiguous buffer of obj in view, of a kind holds names, or -1 with
 * ValueError. */
static int
get_buffer(PyObject *obj, Py_buffer *view, int writable, const char *name, char kind)
{
    int flags = writable ? PyBUF_RECORDS : PyBUF_RECORDS_RO;

    if (PyObject_GetBuffer(obj, view, flags) < 0) {
        if (PyErr_ExceptionMatches(PyExc_BufferError)) {
            PyErr_Clear();
            PyErr_Format(PyExc_ValueError, "%s must be a %sbuffer", name,
                         writable ? "writable " : "");
        }
        return -1;
    }
    if (!holds(view, kind)) {
        PyErr_Format(PyExc_ValueError, "%s must hold %s", name,
                     kind == 'd' ? "float64" : kind == 'n' ? "array indices" : "bools");
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
 * float64, '?' for bool and 'n' for Py_ssize_t, read-only, or 'D', 'B', 'N'
 * for the same writable; names[k] names args[k] in errors.  -1 with an
 * exception, and no buffer held, otherwise. */
static int
get_buffers(PyObject *const *args, Py_buffer *views, const char *kinds,
            const char *const *names)
{
    Py_ssize_t k;

    for (k = 0; kinds[k]; k++) {
        char kind = kinds[k];
        int writable = kind == 'D' || kind == 'B' || kind == 'N';
        char base = kind == 'D' ? 'd' : kind == 'B' ? '?' : kind == 'N' ? 'n' : kind;
        if (get_buffer(args[k], &views[k], writable, names[k], base) < 0) {
            release(views, k);
            return -1;
        }
    }
    return 0;
}

/* The length of a float64 buffer in items. */
static inline Py_ssize_t
doubles(const Py_buffer *view)
{
    return view->len / (Py_ssize_t)sizeof(double);
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

    if (size == 1) {
        y[0] = di[0] * x[0];
        return;
    }
    y[0] = di[0] * x[0] + up[0] * x[1];
    for (j = 1; j < size - 1; j++)
        y[j] = (di[j] * x[j] + up[j] * x[j + 1]) + lo[j] * x[j - 1];
    y[j] = di[j] * x[j] + lo[j] * x[j - 1];
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

/* The largest of initial and |x[j]| for count entries, NaN once any is NaN,
 * as numpy's max: four running maxima keep the compares apart, and a NaN
 * is flagged on its own. */
static double
abs_max(const double *x, Py_ssize_t count, double initial)
{
    double top[4] = {initial, initial, initial, initial};
    int nan = initial != initial;
    Py_ssize_t j, k;

    for (j = 0; j + 4 <= count; j += 4) {
        for (k = 0; k < 4; k++) {
            double v = fabs(x[j + k]);
            nan |= v != v;
            top[k] = v > top[k] ? v : top[k];
        }
    }
    for (; j < count; j++) {
        double v = fabs(x[j]);
        nan |= v != v;
        top[0] = v > top[0] ? v : top[0];
    }
    top[0] = top[1] > top[0] ? top[1] : top[0];
    top[2] = top[3] > top[2] ? top[3] : top[2];
    return nan ? NAN : top[2] > top[0] ? top[2] : top[0];
}

/* shifted_solve's arithmetic on WIDTH (1, 2 or 4) of its blocks side by
 * side, block k starting at row start[k].  Always inlined where WIDTH is a
 * constant, so that each block's pivot and sweep carry stay in registers. */
static inline __attribute__((always_inline)) int
shifted_blocks(const double *restrict di, const double *restrict off,
               const double *restrict s, const double *restrict shift,
               const Py_ssize_t *restrict start, Py_ssize_t n, double *restrict v,
               double *restrict d, double *restrict l, const int WIDTH)
{
    double pivot[4], carry[4];
    Py_ssize_t i, j, k;

    for (k = 0; k < WIDTH; k++) {
        j = start[k];
        d[j] = pivot[k] = shift[k] - di[j];
        v[j] = carry[k] = s[j] * v[j];
    }
    for (i = 0; i < n - 1; i++) {
        for (k = 0; k < WIDTH; k++) {
            double ej, lj;
            if (pivot[k] <= 0)
                return 0;
            j = start[k] + i;
            ej = -off[j];
            lj = ej / pivot[k];
            l[j] = lj;
            d[j + 1] = pivot[k] = (shift[k] - di[j + 1]) - lj * ej;
            v[j + 1] = carry[k] = s[j + 1] * v[j + 1] - carry[k] * lj;
        }
    }
    for (k = 0; k < WIDTH; k++) {
        if (pivot[k] <= 0)
            return 0;
    }
    /* the back sweep carries the solve before its division by s */
    for (k = 0; k < WIDTH; k++) {
        j = start[k] + n - 1;
        carry[k] = v[j] / d[j];
        v[j] = carry[k] / s[j];
    }
    for (i = n - 2; i >= 0; i--) {
        for (k = 0; k < WIDTH; k++) {
            j = start[k] + i;
            carry[k] = v[j] / d[j] - carry[k] * l[j];
            v[j] = carry[k] / s[j];
        }
    }
    return 1;
}

/* The solve of (shift - S A S^-1) y = s v, over s, in the going blocks of a
 * stack of blocks of n rows, block k starting at row start[k], with its own
 * shift[k]: di is A's main diagonal, off the couplings of the symmetric
 * S A S^-1 (zero corners), S = diag(s).  pttrf on shift - di and -off, fused
 * with pttrs's forward sweep on s v, one row of four blocks at a time, then
 * the back sweep and the division by s: the operations on each element are
 * those of factor, of solve and of numpy's s * v and y / s.  The result
 * replaces v in the going blocks; d and l take the pivots and the
 * multipliers.  0, with v partly written, when a pivot is not positive
 * (pttrf's test, d <= 0, which a NaN pivot passes). */
static int
shifted_solve(const double *di, const double *off, const double *s, const double *shift,
              const Py_ssize_t *start, Py_ssize_t going, Py_ssize_t n, double *v, double *d,
              double *l)
{
    Py_ssize_t k = 0;

    for (; k + 4 <= going; k += 4) {
        if (!shifted_blocks(di, off, s, shift + k, start + k, n, v, d, l, 4))
            return 0;
    }
    for (; k + 2 <= going; k += 2) {
        if (!shifted_blocks(di, off, s, shift + k, start + k, n, v, d, l, 2))
            return 0;
    }
    return k == going || shifted_blocks(di, off, s, shift + k, start + k, n, v, d, l, 1);
}

/* The tolerance tol and the cap max_iters (at least 0) of a solver loop;
 * -1 with an exception otherwise. */
static int
loop_limits(PyObject *tol_arg, PyObject *cap_arg, double *tol, Py_ssize_t *max_iters)
{
    *tol = PyFloat_AsDouble(tol_arg);
    if (*tol == -1.0 && PyErr_Occurred())
        return -1;
    *max_iters = PyNumber_AsSsize_t(cap_arg, PyExc_OverflowError);
    if (*max_iters == -1 && PyErr_Occurred())
        return -1;
    if (*max_iters < 0) {
        PyErr_SetString(PyExc_ValueError, "max_iters must be at least 0");
        return -1;
    }
    return 0;
}

/* 0 if each of the count buffers of views holds one item per block; -1 with
 * ValueError naming them as what otherwise. */
static int
one_per_block(const Py_buffer *views, Py_ssize_t count, Py_ssize_t blocks, const char *what)
{
    Py_ssize_t k;

    for (k = 0; k < count; k++) {
        if (views[k].len != blocks * views[k].itemsize) {
            PyErr_Format(PyExc_ValueError, "%s must hold one entry per block", what);
            return -1;
        }
    }
    return 0;
}

/* noda's outcomes besides the number of blocks that stopped. */
enum { NOT_POSITIVE_DEFINITE = -1, NOT_POSITIVE = -2, SHIFT_NOT_FINITE = -3 };

/* One pass of noda on a stack of blocks of n rows, size rows in all, which
 * solves when solve is true; work holds 2 size + blocks doubles and start
 * blocks offsets.  The number of blocks that stopped, or an outcome. */
static Py_ssize_t
noda_pass(const double *restrict lo, const double *restrict di, const double *restrict up,
          const double *restrict s, const double *restrict w, const double *restrict off,
          double *restrict x, Py_ssize_t n, Py_ssize_t size, const double *margin,
          const double *least, double tol, int solve, double *theta, double *res,
          char *done, double *restrict work, Py_ssize_t *restrict start)
{
    /* ax, then the shifted matrix's pivots; l the multipliers */
    double *restrict ax = work, *restrict l = work + size, *restrict sigma = work + 2 * size;
    Py_ssize_t blocks = size / n, going = 0, stopped = 0, b, k, j;
    int positive = 1;

    band_product(lo, di, up, x, ax, size);
    for (b = 0; b < blocks; b++) {
        const double *xb = x + b * n, *ab = ax + b * n;
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
    if (!shifted_solve(di, off, s, sigma, start, going, n, x, ax, l))
        return NOT_POSITIVE_DEFINITE;
    /* positive in every going block, then over its max */
    for (k = 0; k < going; k++) {
        const double *xb = x + start[k];
        double top = 0.0;
        for (j = 0; j < n; j++) {
            positive &= xb[j] > 0;
            top = xb[j] > top ? xb[j] : top;
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

/* noda's passes until every block stops or max_iters solves, the last pass
 * only testing; counts[b] takes the pass on which block b first stopped.
 * work holds 2 size + 3 blocks doubles and start blocks offsets. */
static Py_ssize_t
noda_loop(const double *lo, const double *di, const double *up, const double *s,
          const double *w, const double *off, double *x, Py_ssize_t n, Py_ssize_t size,
          double tol, Py_ssize_t max_iters, double *theta, double *res, char *done,
          Py_ssize_t *counts, double *work, Py_ssize_t *start)
{
    Py_ssize_t blocks = size / n, iterations, stopped, b;
    /* per block the margin that keeps the rounded Collatz-Wielandt bound
     * above the top eigenvalue, 8 eps scale, and the least stop bound,
     * max(tol, 5e-15 scale), scale the largest band entry, at least 1 */
    double *margin = work + 2 * size + blocks, *least = margin + blocks;

    for (b = 0; b < blocks; b++) {
        const Py_ssize_t first = b * n;
        double scale = abs_max(lo + first, n, 1.0);
        scale = abs_max(di + first, n, scale);
        scale = abs_max(up + first, n, scale);
        margin[b] = 8.0 * DBL_EPSILON * scale;
        least[b] = max_of(tol, 5e-15 * scale);
        counts[b] = max_iters;
    }
    for (iterations = 0;; iterations++) {
        int last = iterations == max_iters;
        stopped = noda_pass(lo, di, up, s, w, off, x, n, size, margin, least, tol, !last, theta,
                            res, done, work, start);
        if (stopped < 0)
            return stopped;
        for (b = 0; b < blocks; b++) {
            if (done[b] && iterations < counts[b])
                counts[b] = iterations;
        }
        if (stopped == blocks || last)
            return stopped;
    }
}

PyDoc_STRVAR(noda_doc,
"noda(lo, di, up, s, w, off, x, n, theta, res, done, counts, tol, max_iters)\n"
"-> int\n\n"
"Noda's iteration on a stack of blocks of n rows: lo, di, up, s, w (s\n"
"squared), off and x, the start, the length of d; the outputs theta, res,\n"
"done (bools) and counts (array indices) one entry per block.  With scale\n"
"a block's largest |lo|, |di| and |up|, at least 1, each pass writes each\n"
"block's Rayleigh quotient theta = sum((w x) A x) / sum((w x) x) and\n"
"residual max |A x - theta x|, and done where the residual is at most\n"
"max(tol |theta|, tol, 5e-15 scale); then each block not done has x\n"
"replaced by the max-normalised solve of (sigma - S A S^-1) y = s x over s,\n"
"sigma the largest (A x) / x plus 8 eps scale.  The passes go on until\n"
"every block is done or max_iters have solved, and one more then only\n"
"tests.  counts holds the solves before each block was first done\n"
"(max_iters for one that was not).  Returns the number of blocks done on\n"
"the last pass, or -3 when a shift is not finite, -1 when a shifted matrix\n"
"is not positive definite and -2 when a solve is not positive, the last two\n"
"with x partly written.");

static PyObject *
noda(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const names[] = {
        "lo", "di", "up", "s", "w", "off", "x", "n", "theta", "res", "done", "counts",
    };
    Py_buffer v[12];
    Py_ssize_t n, size, blocks, max_iters;
    double tol;
    double *work = NULL;
    Py_ssize_t *start = NULL;
    PyObject *result = NULL;

    if (nargs != 14) {
        PyErr_SetString(PyExc_TypeError,
                        "noda takes lo, di, up, s, w, off, x, n, theta, res, done, counts, tol "
                        "and max_iters");
        return NULL;
    }
    if (loop_limits(args[12], args[13], &tol, &max_iters) < 0 || block_size(args[7], &n) < 0)
        return NULL;
    /* n, args[7], takes the place of a buffer: it is skipped below */
    if (get_buffers(args, v, "ddddddD", names) < 0)
        return NULL;
    if (get_buffers(args + 8, v + 8, "DDBN", names + 8) < 0) {
        release(v, 7);
        return NULL;
    }
    size = doubles(&v[0]);
    blocks = size / n;
    if (same_blocks(v, 7, n, "lo, di, up, s, w, off and x") < 0
        || one_per_block(v + 8, 4, blocks, "theta, res, done and counts") < 0)
        result = NULL;  /* with its ValueError */
    else if (!(work = PyMem_Malloc((2 * size + 3 * blocks + 1) * sizeof(double)))
             || !(start = PyMem_Malloc((blocks + 1) * sizeof(Py_ssize_t))))
        PyErr_NoMemory();
    else
        result = PyLong_FromSsize_t(noda_loop(
            v[0].buf, v[1].buf, v[2].buf, v[3].buf, v[4].buf, v[5].buf, v[6].buf, n, size, tol,
            max_iters, v[8].buf, v[9].buf, v[10].buf, v[11].buf, work, start));
    PyMem_Free(work);
    PyMem_Free(start);
    release(v, 7);
    release(v + 8, 4);
    return result;
}

/* newton's arithmetic on a stack of blocks of n rows, size rows in all;
 * work holds 4 size + 3 blocks doubles and start blocks offsets.  0, or 1 +
 * the first going block of a pass whose shifted solve failed. */
static Py_ssize_t
newton_run(const double *restrict lo, const double *restrict di, const double *restrict up,
           const double *restrict s, const double *restrict off, const double *restrict a,
           const double *restrict b, double *restrict u, Py_ssize_t n, Py_ssize_t size,
           double cap, double tol, Py_ssize_t max_iters, double *restrict norm,
           char *restrict converged, Py_ssize_t *restrict steps, double *restrict work,
           Py_ssize_t *restrict start)
{
    const Py_ssize_t blocks = size / n;
    /* F, the Jacobian's diagonal, the pivots and the multipliers; per block
     * the noise, the bound and the shift, 0 */
    double *restrict res = work, *restrict slope = work + size, *restrict d = work + 2 * size,
           *restrict l = work + 3 * size, *restrict noise = work + 4 * size,
           *restrict bound = noise + blocks, *restrict zero = bound + blocks;
    Py_ssize_t iteration, going, blk, j, k;

    /* 8 eps times the block's largest row sum (|di| + |lo|) + |up| */
    for (blk = 0; blk < blocks; blk++) {
        const Py_ssize_t first = blk * n;
        double top = (fabs(di[first]) + fabs(lo[first])) + fabs(up[first]);
        for (j = first + 1; j < first + n; j++)
            top = max_of(top, (fabs(di[j]) + fabs(lo[j])) + fabs(up[j]));
        noise[blk] = 8.0 * DBL_EPSILON * top;
        zero[blk] = 0.0;
        steps[blk] = 0;
    }
    for (iteration = 0;; iteration++) {
        /* F = A u + u (a - b u) and the Jacobian's diagonal (a - 2 b u) + di */
        band_product(lo, di, up, u, res, size);
        for (j = 0; j < size; j++) {
            double bu = b[j] * u[j];
            res[j] = res[j] + u[j] * (a[j] - bu);
            slope[j] = (a[j] - 2.0 * bu) + di[j];
        }
        /* the stop, max |F| <= tol + noise max(max |u|, cap); NaN fails both
         * tests, so a non-finite residual stops its block */
        going = 0;
        for (blk = 0; blk < blocks; blk++) {
            norm[blk] = abs_max(res + blk * n, n, 0.0);
            bound[blk] = tol + noise[blk] * abs_max(u + blk * n, n, cap);
            if (norm[blk] > bound[blk] && norm[blk] < INFINITY)
                start[going++] = blk * n;
        }
        if (!going || iteration == max_iters)
            break;
        /* the full step, the solve of -J y = F on the similarity */
        if (!shifted_solve(slope, off, s, zero, start, going, n, res, d, l))
            return 1 + start[0] / n;
        for (k = 0; k < going; k++) {
            for (j = start[k]; j < start[k] + n; j++)
                u[j] = u[j] + res[j];
            steps[start[k] / n]++;
        }
    }
    for (blk = 0; blk < blocks; blk++)
        converged[blk] = norm[blk] <= bound[blk];
    return 0;
}

PyDoc_STRVAR(newton_doc,
"newton(lo, di, up, s, off, a, b, u, n, norm, converged, steps, cap, tol,\n"
"max_iters) -> int\n\n"
"A monotone Newton run for A u + u (a - b u) = 0 on a stack of blocks of n\n"
"rows: the bands lo, di, up, the similarity s and off that symmetrizes\n"
"their couplings, a, b and u, the start, all the length of d; u is\n"
"overwritten by the iterate, and the outputs norm, converged (bools) and\n"
"steps (array indices) hold one entry per block.  Each pass forms the\n"
"residual F and the Jacobian's diagonal J = di + a - 2 b u, and stops each\n"
"block whose max |F| is at most tol + 8 eps scale max(max |u|, cap), scale\n"
"its largest row sum |lo| + |di| + |up|, or not finite; each block still\n"
"going takes the full step, the solve of (-S J S^-1) y = s F over s.  The\n"
"run ends when no block goes or after max_iters steps.  Writes each block's\n"
"last max |F| to norm, whether it met the stop to converged and its steps\n"
"to steps.  Returns 0, or 1 + b when minus the Jacobian is not positive\n"
"definite on a pass whose first going block is b (u then partly\n"
"written).");

static PyObject *
newton(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const names[] = {
        "lo", "di", "up", "s", "off", "a", "b", "u", "n", "norm", "converged", "steps",
    };
    Py_buffer v[12];
    Py_ssize_t n, size, blocks, max_iters;
    double cap, tol;
    double *work = NULL;
    Py_ssize_t *start = NULL;
    PyObject *result = NULL;

    if (nargs != 15) {
        PyErr_SetString(PyExc_TypeError,
                        "newton takes lo, di, up, s, off, a, b, u, n, norm, converged, "
                        "steps, cap, tol and max_iters");
        return NULL;
    }
    cap = PyFloat_AsDouble(args[12]);
    if ((cap == -1.0 && PyErr_Occurred()) || loop_limits(args[13], args[14], &tol, &max_iters) < 0
        || block_size(args[8], &n) < 0)
        return NULL;
    /* n, args[8], takes the place of a buffer: it is skipped below */
    if (get_buffers(args, v, "dddddddD", names) < 0)
        return NULL;
    if (get_buffers(args + 9, v + 9, "DBN", names + 9) < 0) {
        release(v, 8);
        return NULL;
    }
    size = doubles(&v[0]);
    blocks = size / n;
    if (same_blocks(v, 8, n, "lo, di, up, s, off, a, b and u") < 0
        || one_per_block(v + 9, 3, blocks, "norm, converged and steps") < 0)
        result = NULL;  /* with its ValueError */
    else if (!(work = PyMem_Malloc((4 * size + 3 * blocks + 1) * sizeof(double)))
             || !(start = PyMem_Malloc((blocks + 1) * sizeof(Py_ssize_t))))
        PyErr_NoMemory();
    else
        result = PyLong_FromSsize_t(newton_run(
            v[0].buf, v[1].buf, v[2].buf, v[3].buf, v[4].buf, v[5].buf, v[6].buf, v[7].buf, n,
            size, cap, tol, max_iters, v[9].buf, v[10].buf, v[11].buf, work, start));
    PyMem_Free(work);
    PyMem_Free(start);
    release(v, 8);
    release(v + 9, 3);
    return result;
}

/* species's outcomes: which check failed, in the order the checks come. */
enum {
    ASSEMBLED = 0, WEIGHTS_NOT_POSITIVE = 1, BANDS_NOT_FINITE = 2, COUPLING_NOT_POSITIVE = 3,
    OUT_OF_RANGE = 4,
};

/* di, up and lo of reduced DOF j from the numerators -kd, -ku and -ku of
 * the DOF before: one division each, as numpy's -k / w rounds it. */
static inline void
band_row(double *lo, double *di, double *up, const double *w, Py_ssize_t j, double kd,
         double ku, double ku_before, pair *bad)
{
    di[j] = -kd / w[j];
    up[j] = -ku / w[j];
    lo[j] = j == 0 ? 0.0 : -ku_before / w[j];
    *bad += pair_of(di[j] - di[j], (up[j] - up[j]) + (lo[j] - lo[j]));
}

/* The lane-wise square root, correctly rounded as sqrt is. */
static inline pair
root(pair x)
{
    return pair_of(sqrt(x[0]), sqrt(x[1]));
}

/* The similarity of one species' bands lo and up, n rows with zero corners:
 * s[0] = 1 and s[i+1] = s[i] sqrt(up[i] / lo[i+1]), its square s2 and the
 * symmetric couplings off[i] = sqrt(lo[i+1] up[i]) (0 in the last row).  A
 * lane of low is set once a coupling is not positive, one of out once an s2
 * is not finite and positive.  Two couplings, (up[j], lo[j+1]) and
 * (up[j+1], lo[j+2]), go at once, and only the product that carries s runs
 * one row at a time. */
static void
similarity_rows(const double *lo, const double *up, Py_ssize_t n, double *s, double *s2,
                double *off, lanes *low, lanes *out)
{
    const pair zero = pair_of(0.0, 0.0), inf = pair_of(INFINITY, INFINITY);
    lanes below = {0, 0}, outside = {0, 0};
    double carry = 1.0;
    Py_ssize_t j;

    s[0] = s2[0] = 1.0;
    for (j = 0; j + 1 < n; j += 2) {
        /* the last coupling of an odd count pairs with itself */
        const Py_ssize_t k = j + 2 < n ? j + 1 : j;
        const pair uj = pair_of(up[j], up[k]), lj = pair_of(lo[j + 1], lo[k + 1]);
        const pair r = root(quo(uj, lj)), o = root(mul(lj, uj));
        pair sj, wj;
        s[j + 1] = carry = carry * lane(r, 0);
        s[k + 1] = carry = k > j ? carry * lane(r, 1) : carry;
        sj = pair_of(s[j + 1], s[k + 1]);
        wj = mul(sj, sj);
        s2[j + 1] = lane(wj, 0);
        s2[k + 1] = lane(wj, 1);
        off[j] = lane(o, 0);
        off[k] = lane(o, 1);
        below |= (lanes)((uj <= zero) | (lj <= zero));
        outside |= ~((lanes)(wj > zero) & (lanes)(wj < inf));
    }
    off[n - 1] = 0.0;
    *low |= below;
    *out |= outside;
}

/* The layout, the diffusion bands and their similarity of rows species on
 * one grid of n patches, patch i holding the full DOFs offsets[i] to
 * offsets[i + 1] - 1.  Per row: scales and d one per patch, p and p2 one per
 * interface; mass the full DOFs long, w, lo, di, up, s, s2 and off the
 * reduced ones.  The operations are those of SpeciesLayout, _stiffness_bands
 * and symmetrizing_similarity, each correctly rounded, in their order, the
 * zeros the stiffness starts from included (0 + -0 is +0): omega = 1 /
 * scales and c = omega d / h per patch, the mass omega trap, the weights,
 * each band entry one division of its stiffness by its weight, and the
 * similarity of the finished bands.  Kept out of its wrapper, which
 * would otherwise crowd its loops' registers: inlined there, the pass ran
 * about a fifth slower. */
static __attribute__((noinline)) int
species_rows(const Py_ssize_t *offsets, Py_ssize_t n, const double *trap, const double *h,
             const double *scales, const double *d, const double *p, const double *p2,
             Py_ssize_t rows, double *mass, double *w, double *lo, double *di, double *up,
             double *s, double *s2, double *off)
{
    const Py_ssize_t full = offsets[n], size = full - (n - 1);
    pair bad = pair_of(0.0, 0.0);  /* a lane NaN once a band entry is not finite */
    double bad_weight = 0.0;       /* NaN once a weight is not finite */
    double lowest = 1.0;           /* the least weight, once below 1 */
    lanes low = {0, 0}, out = {0, 0};  /* similarity_rows's */
    Py_ssize_t b, i, f, j;

    for (b = 0; b < rows; b++) {
        /* the trapezoid mass over the product of the ratios left of the
         * patch, and each right trace's mass folded into its trace DOF times
         * p² (the reduced index of full DOF f of patch i is f - i) */
        for (i = 0; i < n; i++) {
            const double omega = 1.0 / scales[i];
            for (f = offsets[i]; f < offsets[i + 1]; f++)
                mass[f] = omega * trap[f];
            f = offsets[i];
            w[f - i] = i == 0 ? mass[f] : mass[f - 1] + p2[i - 1] * mass[f];
            for (f++; f < offsets[i + 1]; f++)
                w[f - i] = mass[f];
        }
        for (j = 0; j < size; j++) {
            lowest = w[j] < lowest ? w[j] : lowest;
            bad_weight += w[j] - w[j];
        }
        /* the stiffness kd (diagonal) and ku (coupling of j and j + 1) of
         * each reduced DOF over its weight: patch i starts at its left trace
         * DOF, whose diagonal holds the previous patch's c too; inside a
         * patch up and lo share their numerator, and two rows go at once */
        double ku_before = 0.0, c_before = 0.0;
        for (i = 0; i < n; i++) {
            const double rho = i == 0 ? 1.0 : p[i - 1], c = 1.0 / scales[i] * d[i] / h[i];
            const double inner_kd = 0.0 + 2.0 * c, inner_ku = 0.0 + -c;
            const Py_ssize_t start = offsets[i] - i, end = offsets[i + 1] - 1 - i;
            band_row(lo, di, up, w, start, (0.0 + c_before) + rho * rho * c,
                     0.0 + -rho * c, ku_before, &bad);
            ku_before = 0.0 + -rho * c;
            if (start + 1 < end) {
                band_row(lo, di, up, w, start + 1, inner_kd, inner_ku, ku_before, &bad);
                ku_before = inner_ku;
            }
            const pair num_d = pair_of(-inner_kd, -inner_kd), num_u = pair_of(-inner_ku, -inner_ku);
            for (j = start + 2; j + 1 < end; j += 2) {
                const pair wj = pair_of(w[j], w[j + 1]), dj = quo(num_d, wj), uj = quo(num_u, wj);
                di[j] = lane(dj, 0);
                di[j + 1] = lane(dj, 1);
                up[j] = lo[j] = lane(uj, 0);
                up[j + 1] = lo[j + 1] = lane(uj, 1);
                bad += sub(dj, dj) + sub(uj, uj);
            }
            if (j < end)
                band_row(lo, di, up, w, j, inner_kd, inner_ku, inner_ku, &bad);
            c_before = c;
        }
        /* the last DOF: its up is the zero corner */
        band_row(lo, di, up, w, size - 1, 0.0 + c_before, 0.0, ku_before, &bad);
        up[size - 1] = 0.0;
        similarity_rows(lo, up, size, s, s2, off, &low, &out);
        scales += n;
        d += n;
        p += n - 1;
        p2 += n - 1;
        mass += full;
        w += size;
        lo += size;
        di += size;
        up += size;
        s += size;
        s2 += size;
        off += size;
    }
    if (!(lowest > 0.0) || bad_weight != 0.0)
        return WEIGHTS_NOT_POSITIVE;
    if (lane(bad, 0) != 0.0 || lane(bad, 1) != 0.0)
        return BANDS_NOT_FINITE;
    if (low[0] || low[1])
        return COUPLING_NOT_POSITIVE;
    return out[0] || out[1] ? OUT_OF_RANGE : ASSEMBLED;
}

PyDoc_STRVAR(species_doc,
"species(offsets, trap, h, scales, d, p, p2, mass, w, lo, di, up, s, s2, off) -> int\n\n"
"The reduced-DOF layout, the diffusion bands and their symmetrizing\n"
"similarity of a stack of species on one grid: offsets (array indices) the\n"
"full index where each of the n patches starts, then the full DOF count F;\n"
"trap the F trapezoid weights and h the n patch spacings; per species its\n"
"cumulative scales and diffusion rates d, one per patch, and its jump ratios\n"
"p and their pow squares p2, one per interface.\n"
"Writes per species the F full-DOF masses to mass, the N = F - (n - 1)\n"
"reduced weights and bands lo, di, up (zero corners) to w, lo, di and up,\n"
"the similarity to s, s2 and off (s[0] = 1 and s[i+1] = s[i] sqrt(up[i] /\n"
"lo[i+1]), s2 = s * s and off[i] = sqrt(lo[i+1] up[i]), 0 in the last row),\n"
"each N long.\n"
"Returns 0, or the first failed check, with every output written: 1 a\n"
"weight is not finite and positive, 2 a band entry is not finite, 3 a\n"
"coupling is not positive, 4 an s2 is not finite and positive.");

static PyObject *
species(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const names[] = {
        "offsets", "trap", "h", "scales", "d", "p", "p2", "mass", "w", "lo", "di", "up",
        "s", "s2", "off",
    };
    Py_buffer v[15];
    Py_ssize_t n, full, size, rows, i, k;
    const Py_ssize_t *offsets;
    PyObject *result = NULL;

    if (nargs != 15) {
        PyErr_SetString(PyExc_TypeError,
                        "species takes offsets, trap, h, scales, d, p, p2, mass, w, lo, di, "
                        "up, s, s2 and off");
        return NULL;
    }
    if (get_buffers(args, v, "nddddddDDDDDDDD", names) < 0)
        return NULL;
    offsets = v[0].buf;
    n = v[0].len / (Py_ssize_t)sizeof(Py_ssize_t) - 1;
    for (i = 0; i < n && offsets[0] == 0 && offsets[i + 1] - offsets[i] >= 2; i++)
        ;
    if (n < 1 || i < n) {
        PyErr_SetString(PyExc_ValueError,
                        "offsets must start at 0 and give each patch at least two DOFs");
        release(v, 15);
        return NULL;
    }
    full = offsets[n];
    size = full - (n - 1);
    rows = doubles(&v[3]) / n;
    if (doubles(&v[1]) != full || doubles(&v[2]) != n)
        PyErr_SetString(PyExc_ValueError,
                        "trap must hold one weight per full DOF and h one spacing per patch");
    else if (doubles(&v[3]) != rows * n || doubles(&v[4]) != rows * n
             || doubles(&v[5]) != rows * (n - 1) || doubles(&v[6]) != rows * (n - 1))
        PyErr_SetString(PyExc_ValueError,
                        "scales and d must hold one entry per patch, p and p2 one per "
                        "interface, of the same species");
    else {
        for (k = 8; k < 15 && doubles(&v[k]) == rows * size; k++)
            ;
        if (doubles(&v[7]) != rows * full || k < 15)
            PyErr_SetString(PyExc_ValueError,
                            "mass must hold the full DOFs and w, lo, di, up, s, s2 and off the "
                            "reduced ones of each species");
        else
            result = PyLong_FromLong(species_rows(
                offsets, n, v[1].buf, v[2].buf, v[3].buf, v[4].buf, v[5].buf, v[6].buf, rows,
                v[7].buf, v[8].buf, v[9].buf, v[10].buf, v[11].buf, v[12].buf, v[13].buf,
                v[14].buf));
    }
    release(v, 15);
    return result;
}

static PyMethodDef methods[] = {
    {"species", (PyCFunction)(void (*)(void))species, METH_FASTCALL, species_doc},
    {"factor", (PyCFunction)(void (*)(void))factor, METH_FASTCALL, factor_doc},
    {"solve", (PyCFunction)(void (*)(void))solve, METH_FASTCALL, solve_doc},
    {"step", (PyCFunction)(void (*)(void))step, METH_FASTCALL, step_doc},
    {"noda", (PyCFunction)(void (*)(void))noda, METH_FASTCALL, noda_doc},
    {"newton", (PyCFunction)(void (*)(void))newton, METH_FASTCALL, newton_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_ldlt",
    "LAPACK's pttrf/pttrs (blocks interleaved) on a stack of tridiagonal\n"
    "blocks, the IMEX step of a two-species pair, Noda's iteration and the\n"
    "steady Newton run, each whole, and the assembly of a stack of species:\n"
    "its layout, its diffusion bands and their symmetrizing similarity.", -1, methods, NULL,
    NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__ldlt(void)
{
    return PyModule_Create(&module_def);
}
