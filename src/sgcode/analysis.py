"""Exact-rational communication-cost analysis: the achievable cost R, the
non-secure optimum Rn, their ratio and the order-optimality bound, and CSV
parameter sweeps."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .keyspace import comb0, piece_counts

CSV_COLUMNS = (
    "axis",
    "value",
    "R_frac",
    "R_dec",
    "Rn_frac",
    "Rn_dec",
    "ratio_frac",
    "ratio_dec",
    "regime",
)

REGIME_SECURE_FREE = "S>M"
REGIME_SECURE_PAYS = "S<=M"
REGIME_INFEASIBLE = "infeasible"

AXES = ("M", "S", "Nr", "N")


class Infeasible(ValueError):
    """The parameter tuple admits no scheme (or no finite cost)."""


def feasible_counts(N: int, Nr: int, M: int, S: int) -> Tuple[int, int, int]:
    """(r, n, alpha) of a feasible tuple from one piece_counts call; raises
    Infeasible naming the first failed condition."""
    if not (1 <= M <= N and 1 <= Nr <= N and 1 <= S <= N):
        raise Infeasible(f"parameters outside range: N={N}, Nr={Nr}, M={M}, S={S}")
    if S < N - Nr + 2:
        raise Infeasible("feasibility S >= N-Nr+2 violated")
    r, n, alpha = piece_counts(N, Nr, M, S)
    if r < 1 or n < 1:
        raise Infeasible("cost denominator r*Nr - C(N,S)*(N-M) is not positive")
    return r, n, alpha


def feasibility_violation(N: int, Nr: int, M: int, S: int) -> Optional[str]:
    """None when the tuple is feasible, else a message naming the failure."""
    try:
        feasible_counts(N, Nr, M, S)
    except Infeasible as exc:
        return str(exc)
    return None


def cost_Rn(N: int, Nr: int, M: int) -> Fraction:
    """Non-secure optimum 1 / (Nr - N + M), exact."""
    if Nr - N + M <= 0:
        raise Infeasible("non-secure cost requires Nr - N + M >= 1")
    return Fraction(1, Nr - N + M)


@dataclass(frozen=True)
class CostPoint:
    """One evaluated parameter tuple; K plays no role in the cost. reason
    names why an infeasible tuple fails and is None otherwise."""

    N: int
    Nr: int
    M: int
    S: int
    R: Optional[Fraction]
    Rn: Optional[Fraction]
    ratio: Optional[Fraction]
    beta: Optional[Fraction]
    regime: str
    reason: Optional[str] = None


def cost_point(N: int, Nr: int, M: int, S: int) -> CostPoint:
    """Evaluate one tuple, flagging infeasibility instead of raising.

    R = r / n with r = C(N,S) - C(M,S) and n = r*Nr - C(N,S)*(N-M), and
    beta = C(N,S) / r, all from one set of counts; the ratio is computed as
    (Nr - (N-M)) / (Nr - beta*(N-M)) and must agree with R / Rn."""
    rn: Optional[Fraction]
    try:
        rn = cost_Rn(N, Nr, M)
    except Infeasible:
        rn = None
    try:
        r, n, alpha = feasible_counts(N, Nr, M, S)
    except Infeasible as exc:
        return CostPoint(N, Nr, M, S, None, rn, None, None, REGIME_INFEASIBLE, str(exc))
    R = Fraction(r, n)
    beta = Fraction(comb0(N, S), r)
    ratio = Fraction(Nr - alpha) / (Nr - beta * alpha)
    assert rn is not None and ratio == R / rn
    regime = REGIME_SECURE_FREE if S > M else REGIME_SECURE_PAYS
    return CostPoint(N, Nr, M, S, R, rn, ratio, beta, regime)


def cost_R(N: int, Nr: int, M: int, S: int) -> Fraction:
    """Secure cost r / n of cost_point, exact; raises Infeasible with its reason."""
    pt = cost_point(N, Nr, M, S)
    if pt.R is None:
        raise Infeasible(pt.reason)
    return pt.R


def decimal12(value: Fraction) -> str:
    """12-significant-digit decimal rendering of an exact fraction."""
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def point_fields(pt: CostPoint) -> Dict[str, str]:
    """The text of a point as the CSV and the cost JSON write it: R, Rn and
    the ratio exact and to 12 significant digits, beta exact, and the
    regime; a missing value is the empty string."""
    fields = {}
    for name in ("R", "Rn", "ratio"):
        value = getattr(pt, name)
        fields[f"{name}_frac"] = "" if value is None else str(value)
        fields[f"{name}_dec"] = "" if value is None else decimal12(value)
    fields["beta_frac"] = "" if pt.beta is None else str(pt.beta)
    fields["regime"] = pt.regime
    return fields


def sweep(
    axis: str, values: Iterable[int], fixed: Dict[str, int]
) -> List[Tuple[int, CostPoint]]:
    """Evaluate cost points along one axis in {M, S, Nr, N}.

    fixed supplies the other three of N, Nr, M, S. Infeasible points are
    flagged in their regime, never dropped.
    """
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}")
    missing = [name for name in AXES if name != axis and name not in fixed]
    if missing:
        raise ValueError(f"fixed parameters missing: {missing}")
    out = []
    for v in values:
        point = dict(fixed)
        point[axis] = int(v)
        out.append(
            (int(v), cost_point(point["N"], point["Nr"], point["M"], point["S"]))
        )
    return out


def sweep_rows(axis: str, table: Sequence[Tuple[int, CostPoint]]) -> List[List[str]]:
    """CSV rows (without header) for a sweep table."""
    rows = []
    for value, pt in table:
        fields = point_fields(pt)
        rows.append([axis, str(value), *(fields[c] for c in CSV_COLUMNS[2:])])
    return rows


def sweep_csv(axis: str, table: Sequence[Tuple[int, CostPoint]]) -> str:
    """Render a sweep as CSV text: mandatory header, LF line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(sweep_rows(axis, table))
    return buf.getvalue()


@dataclass(frozen=True)
class OrderOptimalityReport:
    """Exhaustive ratio audit over all feasible tuples up to max_N."""

    max_N: int
    tuples_checked: int
    equality_failures: Tuple[str, ...]
    bound_failures: Tuple[str, ...]
    max_ratio: Fraction
    argmax: Tuple[Tuple[int, int, int, int], ...]

    @property
    def all_hold(self) -> bool:
        return not self.equality_failures and not self.bound_failures

    @property
    def argmax_at_S2_full_responders(self) -> bool:
        return all(S == 2 and Nr == N for (N, Nr, M, S) in self.argmax)


def _candidate_tuples(max_N: int) -> Iterable[Tuple[int, int, int, int]]:
    """Every (N, Nr, M, S) with N <= max_N and Nr, M, S in [1, N], in
    lexicographic order."""
    for N in range(1, max_N + 1):
        yield from ((N, *rest) for rest in product(range(1, N + 1), repeat=3))


def feasible_tuples(max_N: int) -> List[Tuple[int, int, int, int]]:
    """All feasible (N, Nr, M, S) with N <= max_N, in lexicographic order."""
    return [t for t in _candidate_tuples(max_N) if feasibility_violation(*t) is None]


def order_optimality_check(max_N: int) -> OrderOptimalityReport:
    """Audit: S > M gives R = Rn; S <= M gives Rn < R <= 2*Rn; report the
    empirical ratio maximizer."""
    if max_N > 20:
        raise ValueError("max_N above 20 is out of scope")
    equality_failures: List[str] = []
    bound_failures: List[str] = []
    best = Fraction(0)
    argmax: List[Tuple[int, int, int, int]] = []
    checked = 0
    for N, Nr, M, S in _candidate_tuples(max_N):
        pt = cost_point(N, Nr, M, S)
        if pt.reason is not None:
            continue
        checked += 1
        assert pt.R is not None and pt.Rn is not None and pt.ratio is not None
        if S > M:
            if pt.R != pt.Rn:
                equality_failures.append(f"(N={N},Nr={Nr},M={M},S={S}): R != Rn")
        else:
            if not pt.Rn < pt.R:
                bound_failures.append(f"(N={N},Nr={Nr},M={M},S={S}): R <= Rn")
            if not pt.R <= 2 * pt.Rn:
                bound_failures.append(f"(N={N},Nr={Nr},M={M},S={S}): R > 2*Rn")
        if pt.ratio > best:
            best = pt.ratio
            argmax = [(N, Nr, M, S)]
        elif pt.ratio == best:
            argmax.append((N, Nr, M, S))
    return OrderOptimalityReport(
        max_N=max_N,
        tuples_checked=checked,
        equality_failures=tuple(equality_failures),
        bound_failures=tuple(bound_failures),
        max_ratio=best,
        argmax=tuple(argmax),
    )
