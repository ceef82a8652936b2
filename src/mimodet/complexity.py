"""Closed-form FLOP accounting for every detector, plus measured counters.

A flop is one real add/subtract/multiply/divide. Complex operations are
charged at their real-valued block-decomposition sizes (2 n_t x 2 n_r).
Hermitian transposes, conditionals and random number generation are free.

Primitive costs (vectors length n / q, matrices m x q, q x p, q x q):

    square root               8
    norm-2 of length n        2n - 1 + 8
    matrix-vector m x q       m (2q - 1)
    matrix-matrix (m,q)(q,p)  m p (2q - 1)
    multiply-add  A B + C     2 m p q
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
fitness function and the heuristic updates charge their operations to c
(a FlopCounter) at the primitive costs above; elsewhere they charge nothing.
"""

from __future__ import annotations

import contextlib
import contextvars
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
        if min(self.n_t, self.n_r, self.n_pop, self.iters, self.m_order) < 1:
            raise ValueError("all formula inputs must be >= 1")


def flops_primitive(op_kind: str, m: int = 0, p: int = 0, q: int = 0, n: int = 0) -> float:
    if op_kind == "sqrt":
        return 8.0
    if op_kind == "norm2":
        return 2.0 * n - 1.0 + 8.0
    if op_kind == "matvec":
        return m * (2.0 * q - 1.0)
    if op_kind == "matmat":
        return m * p * (2.0 * q - 1.0)
    if op_kind == "multiply_add":
        return 2.0 * m * p * q
    if op_kind == "lu_inversion":
        return (2.0 / 3.0) * q ** 3 + 2.0 * q ** 2
    raise ValueError(f"unknown primitive {op_kind!r}")


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


class FlopCounter:
    """Accumulates measured operation costs from instrumented runs.

    The detector and fitness code paths charge the counter of the enclosing
    counting() block through charge(); costs follow the primitive table
    above so measured totals are directly comparable with the closed forms.
    """

    def __init__(self):
        self.flops = 0.0
        self.fitness_evals = 0

    def add(self, flops: float) -> None:
        self.flops += flops

    def add_matvec(self, m: int, q: int) -> None:
        self.flops += flops_primitive("matvec", m=m, q=q)

    def add_matmat(self, m: int, p: int, q: int) -> None:
        self.flops += flops_primitive("matmat", m=m, p=p, q=q)

    def add_lu_inversion(self, q: int) -> None:
        self.flops += flops_primitive("lu_inversion", q=q)

    def add_norm2(self, n: int) -> None:
        self.flops += flops_primitive("norm2", n=n)

    def add_fitness_evals(self, count: int, n_t: int, n_r: int) -> None:
        self.fitness_evals += count
        self.flops += count * fitness_eval_flops(n_t, n_r)

    def merge(self, other: "FlopCounter") -> None:
        self.flops += other.flops
        self.fitness_evals += other.fitness_evals


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


def charge(add, *sizes, times: int = 1) -> None:
    """Charge ``add(counter, *sizes)`` (a FlopCounter.add* method) to the
    active counter, ``times`` times over, as for a stack of that many
    systems; does nothing outside a counting() block."""
    counter = _active.get()
    if counter is not None:
        unit = FlopCounter()
        add(unit, *sizes)
        counter.flops += times * unit.flops
        counter.fitness_evals += times * unit.fitness_evals
