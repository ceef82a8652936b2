"""Closed-form FLOP accounting for every detector, plus measured counters.

A flop is one real add/subtract/multiply/divide. Complex operations are
charged at their real-valued block-decomposition sizes (2 n_t x 2 n_r).
Hermitian transposes, conditionals and random number generation are free.

Primitive costs (vectors length n / q, matrices m x q, q x p, q x q):

    square root               8
    norm-2 of length n        2n - 1 + 8
    matrix-vector m x q       m (2q - 1)
    matrix-matrix (m,q)(q,p)  m p (2q - 1)
    LU inversion of q x q     (2/3) q^3 + 2 q^2

Per-subcarrier detector totals (n_dim = 2 n_t, I = iteration count):

    MF        2 n_t (4 n_r - 1)
    ZF        16/3 n_t^3 + 4 n_t^2 + 32 n_t^2 n_r + 4 n_t n_r - 2 n_t
    MMSE      16/3 n_t^3 + 8 n_t^2 + 32 n_t^2 n_r + 4 n_t n_r
    PSO       n_pop I (8 n_t n_r + 20 n_t + 4 n_r + 7)
    DE        n_pop I (16 n_t n_r + 12 n_t + 8 n_r + 14)
    PSO-MF    PSO(I_hyb) + MF        (and analogously for the other hybrids)
    ML        M^(2 n_t) (8 n_t n_r + 4 n_r + 7)

The fractional 16/3 terms are reported as reals, never rounded, so the
hybrid additivity and the MMSE - ZF = 4 n_t^2 + 2 n_t identity hold
exactly. ML is evaluated in exact integer arithmetic because the power
term overflows doubles long before the formula stops being meaningful.

Measured counts: inside ``with counting() as c:`` the detectors, the
fitness function and the heuristic updates call charge(flops,
fitness_evals) with costs from the table above, and c (a FlopCounter) sums
them; outside a block a charge adds nothing. I = 0 is a valid budget, and
a zero-budget hybrid costs exactly its seed. Measured counts also hold a
heuristic's n_pop initial evaluations, which the closed form leaves out.
ML is measured at the M^n_t candidates it scores, one fitness evaluation
each and not the arithmetic of the matrix product that scores them,
38 656 flops at 4x4 4-QAM; the closed form counts M^(2 n_t), 9 895 936.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from dataclasses import dataclass
from typing import NamedTuple


class Family(NamedTuple):
    heuristic: str | None  # "pso", "de" or None
    linear: str | None     # "mf", "zf", "mmse" or None (the seed, for a hybrid)


# The detector registry: every kind the simulator knows, lowercase, with its
# parts. A kind with both parts is a hybrid; ML has neither. Labels are
# kind.upper().
DETECTORS = {
    "mf": Family(None, "mf"),
    "zf": Family(None, "zf"),
    "mmse": Family(None, "mmse"),
    "ml": Family(None, None),
    "pso": Family("pso", None),
    "de": Family("de", None),
    "pso-mf": Family("pso", "mf"),
    "pso-mmse": Family("pso", "mmse"),
    "de-mf": Family("de", "mf"),
    "de-mmse": Family("de", "mmse"),
}


@dataclass(frozen=True)
class FlopFormulaInput:
    n_t: int
    n_r: int
    n_pop: int = 40
    iters: int = 1
    m_order: int = 4

    def __post_init__(self):
        if min(self.n_t, self.n_r, self.n_pop, self.m_order) < 1 or self.iters < 0:
            raise ValueError("formula inputs must be >= 1, iters >= 0")


def flops_primitive(op_kind: str, m: int = 0, p: int = 0, q: int = 0, n: int = 0) -> float:
    if op_kind == "sqrt":
        return 8.0
    if op_kind == "norm2":
        return 2.0 * n - 1.0 + 8.0
    if op_kind == "matvec":
        return m * (2.0 * q - 1.0)
    if op_kind == "matmat":
        return m * p * (2.0 * q - 1.0)
    if op_kind == "lu_inversion":
        return (2.0 / 3.0) * q ** 3 + 2.0 * q ** 2
    raise ValueError(f"unknown primitive {op_kind!r}")


@functools.cache  # charged on every fitness call, inside a counting() block or not
def fitness_eval_flops(n_t: int, n_r: int) -> float:
    """Real-domain residual fitness: matvec, vector subtract, norm-2."""
    return (flops_primitive("matvec", m=2 * n_r, q=2 * n_t)
            + 2 * n_r
            + flops_primitive("norm2", n=2 * n_r))


def flops_detector(kind: str, inp: FlopFormulaInput):
    """Per-subcarrier flop count for one detector. ML returns an exact int."""
    kind = kind.lower()
    if kind not in DETECTORS:
        raise ValueError(f"unknown detector kind {kind!r}")
    heuristic, linear = DETECTORS[kind]
    if heuristic and linear:
        return flops_detector(heuristic, inp) + flops_detector(linear, inp)
    n_t, n_r = inp.n_t, inp.n_r
    if kind == "mf":
        return 2.0 * n_t * (4 * n_r - 1)
    if kind == "zf":
        return (16.0 / 3.0) * n_t ** 3 + 4.0 * n_t ** 2 + 32.0 * n_t ** 2 * n_r \
            + 4.0 * n_t * n_r - 2.0 * n_t
    if kind == "mmse":
        # algebraically 16/3 n_t^3 + 8 n_t^2 + 32 n_t^2 n_r + 4 n_t n_r;
        # summed this way the MMSE - ZF = 4 n_t^2 + 2 n_t identity is exact
        # in floating point, not just up to rounding
        return flops_detector("zf", inp) + (4.0 * n_t ** 2 + 2.0 * n_t)
    if kind == "pso":
        return float(inp.n_pop * inp.iters) * (8 * n_t * n_r + 20 * n_t + 4 * n_r + 7)
    if kind == "de":
        return float(inp.n_pop * inp.iters) * (16 * n_t * n_r + 12 * n_t + 8 * n_r + 14)
    return inp.m_order ** (2 * n_t) * (8 * n_t * n_r + 4 * n_r + 7)  # ml


def complexity_sweep(nt_values, pop_factor: int = 5, iters: int = 50,
                     iters_hybrid: int = 15, m_order: int = 4,
                     detectors=tuple(k.upper() for k in DETECTORS)):
    """Rows (n_t, detector, flops) for square arrays of increasing size.

    Populations scale with the search dimensionality: n_pop =
    pop_factor * 2 * n_t. Hybrids run iters_hybrid iterations, plain
    heuristics run iters.
    """
    rows = []
    for n_t in nt_values:
        for kind in detectors:
            heuristic, linear = DETECTORS.get(kind.lower(), (None, None))
            inp = FlopFormulaInput(
                n_t=n_t, n_r=n_t,
                n_pop=pop_factor * 2 * n_t,
                iters=iters_hybrid if heuristic and linear else iters,
                m_order=m_order,
            )
            rows.append((n_t, kind, flops_detector(kind, inp)))
    return rows


@dataclass
class FlopCounter:
    """Measured operation costs of the code run inside one counting() block."""

    flops: float = 0.0
    fitness_evals: int = 0


# The counter charged by instrumented code; set only inside counting().
_active: contextvars.ContextVar[FlopCounter | None] = contextvars.ContextVar(
    "flop_counter", default=None)


@contextlib.contextmanager
def counting():
    """Measure the flops of the enclosed code: ``with counting() as c: ...``.

    Code inside a nested block charges only the innermost counter.
    """
    counter = FlopCounter()
    token = _active.set(counter)
    try:
        yield counter
    finally:
        _active.reset(token)


def charge(flops: float, fitness_evals: int = 0) -> None:
    """Add flops and fitness evaluations to the active counter; does
    nothing outside a counting() block."""
    counter = _active.get()
    if counter is not None:
        counter.flops += flops
        counter.fitness_evals += fitness_evals
