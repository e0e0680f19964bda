/* Interleaved LDLᵀ of a stack of symmetric positive definite tridiagonal
 * blocks, in the convention of patchcomp.operators.
 *
 * A stack of B blocks of n rows is laid end to end: d holds the B*n main
 * diagonal entries, e the B*n off-diagonal entries, e[j] coupling rows j and
 * j+1 of a block (the last entry of each block, its corner, is zero).  The
 * two functions do LAPACK dpttrf's and dpttrs's arithmetic on every element,
 * in the same order and with the same operations, but walk the rows in the
 * outer loop and the blocks (times the right-hand sides) in the inner one,
 * so that the B independent recurrences overlap instead of running as one
 * serial chain.  A zero corner makes pttrf's step from one block to the next
 * add exactly nothing to the next block's first pivot (after a finite
 * pivot), so the factor is bit for bit pttrf's; the solve skips that step
 * and keeps each block apart, which differs from pttrs only in the sign of a
 * zero, or where a right-hand side is not finite.
 *
 * Build: cc -O2 -fPIC -shared -ffp-contract=off -I<Python include>
 * (-ffp-contract=off keeps a*b - c from becoming a fused multiply-add).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

/* A C-contiguous float64 buffer of obj in view, or -1 with ValueError. */
static int
get_doubles(PyObject *obj, Py_buffer *view, int writable, const char *name)
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
    if (view->itemsize != sizeof(double) || view->format == NULL
        || strcmp(view->format, "d") != 0) {
        PyErr_Format(PyExc_ValueError, "%s must hold float64", name);
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

/* The block size n (at least 1) and the d and e buffers, of one length that
 * is a multiple of n; -1 with an exception otherwise. */
static int
get_factor(PyObject *const *args, Py_ssize_t *n, Py_buffer *d, Py_buffer *e,
           int writable)
{
    *n = PyNumber_AsSsize_t(args[2], PyExc_OverflowError);
    if (*n == -1 && PyErr_Occurred())
        return -1;
    if (*n < 1) {
        PyErr_SetString(PyExc_ValueError, "block size must be at least 1");
        return -1;
    }
    if (get_doubles(args[0], d, writable, "d") < 0)
        return -1;
    if (get_doubles(args[1], e, writable, "e") < 0) {
        PyBuffer_Release(d);
        return -1;
    }
    if (e->len != d->len || (d->len / (Py_ssize_t)sizeof(double)) % *n != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "d and e must have one length, a multiple of the block size");
        PyBuffer_Release(d);
        PyBuffer_Release(e);
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(factor_doc,
"factor(d, e, n) -> bool\n\n"
"pttrf in place on a stack of blocks of n rows; False when a pivot is not\n"
"positive (d and e are then partly factored).");

static PyObject *
factor(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer dv, ev;
    Py_ssize_t n, size, i, b;
    int positive = 1;

    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "factor takes d, e and n");
        return NULL;
    }
    if (get_factor(args, &n, &dv, &ev, 1) < 0)
        return NULL;
    double *d = dv.buf, *e = ev.buf;
    size = dv.len / (Py_ssize_t)sizeof(double);

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
    PyBuffer_Release(&dv);
    PyBuffer_Release(&ev);
    return PyBool_FromLong(positive);
}

PyDoc_STRVAR(solve_doc,
"solve(d, e, n, b) -> None\n\n"
"pttrs in place on every row of b (each the length of d) with the factor\n"
"of a stack of blocks of n rows.");

static PyObject *
solve(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer dv, ev, bv;
    Py_ssize_t n, size, total, i, j;

    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "solve takes d, e, n and b");
        return NULL;
    }
    if (get_factor(args, &n, &dv, &ev, 0) < 0)
        return NULL;
    if (get_doubles(args[3], &bv, 1, "b") < 0) {
        PyBuffer_Release(&dv);
        PyBuffer_Release(&ev);
        return NULL;
    }
    size = dv.len / (Py_ssize_t)sizeof(double);
    total = bv.len / (Py_ssize_t)sizeof(double);
    if (size == 0 ? total != 0 : total % size != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "b must hold whole right-hand sides the length of d");
        PyBuffer_Release(&dv);
        PyBuffer_Release(&ev);
        PyBuffer_Release(&bv);
        return NULL;
    }
    const double *d = dv.buf, *e = ev.buf;
    double *x = bv.buf;

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
    PyBuffer_Release(&dv);
    PyBuffer_Release(&ev);
    PyBuffer_Release(&bv);
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"factor", (PyCFunction)(void (*)(void))factor, METH_FASTCALL, factor_doc},
    {"solve", (PyCFunction)(void (*)(void))solve, METH_FASTCALL, solve_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_ldlt",
    "Interleaved pttrf/pttrs on a stack of tridiagonal blocks.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__ldlt(void)
{
    return PyModule_Create(&module_def);
}
