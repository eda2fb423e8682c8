"""Matpower case parsing and the power-network data model.

Supports the Matpower case subset needed by the optimization builders:
``baseMVA``, ``bus``, ``gen``, ``branch`` and ``gencost`` tables.  All
physical quantities are converted to per-unit on the system MVA base at
parse time; angle limits are converted from degrees to radians.  Parsed
networks keep their raw table rows so that serialization round-trips
exactly, for as long as the network still holds what was parsed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .errors import (
    CaseParseError,
    CaseStructureError,
    DegenerateSegmentError,
    InvalidNetworkError,
    OpfBenchError,
    SingularBranchError,
    UnsupportedFeatureError,
)
from .pwlcost import (
    CostSpec,
    PolynomialCost,
    PwlCurve,
    derive_slopes_intercepts,
    preprocess,
)

# Angle-difference envelope applied when a branch carries no limits
# (Matpower convention angmin = angmax = 0).
DEFAULT_ANGLE_BOUND_RAD = math.radians(30.0)

# Angle limits are clamped inside +/- this bound so tan() stays finite in
# the lifted formulation.
MAX_ANGLE_BOUND_RAD = math.radians(89.0)


@dataclass(frozen=True)
class ComplexPU:
    """Complex per-unit quantity (power, voltage or admittance)."""

    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError(f"non-finite complex value ({self.re}, {self.im})")

    def __abs__(self) -> float:
        return math.hypot(self.re, self.im)


@dataclass(frozen=True)
class Bus:
    id: int
    bus_type: int
    vmin: float
    vmax: float
    demand: ComplexPU


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    series_impedance: ComplexPU
    charging: float
    tap_ratio: float  # 0 means nominal 1.0
    rate: float  # p.u. apparent power limit, 0 means unlimited
    angmin: float  # radians, <= 0 after normalization
    angmax: float  # radians, >= 0 after normalization
    angle_defaulted: bool = False

    @property
    def effective_tap(self) -> float:
        return self.tap_ratio if self.tap_ratio > 0.0 else 1.0


@dataclass(frozen=True)
class Generator:
    bus: int
    pmin: float
    pmax: float
    qmin: float
    qmax: float
    cost: CostSpec


@dataclass(frozen=True)
class Network:
    """A per-unit power network, holding only its data: ``gens_at_bus``
    and the findings of :func:`validate_network` are derived on first use
    and kept on the instance, so ``dataclasses.replace`` derives anew."""

    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    raw_tables: dict | None = field(default=None, compare=False, repr=False)

    @cached_property
    def gens_at_bus(self) -> dict[int, tuple[int, ...]]:
        """Bus id -> indices of the generators at that bus, in order."""
        idx: dict[int, list[int]] = {}
        for k, g in enumerate(self.generators):
            idx.setdefault(g.bus, []).append(k)
        return {bus: tuple(ks) for bus, ks in idx.items()}

    _findings = cached_property(lambda self: tuple(_find_problems(self)))

    @property
    def reference_bus(self) -> int:
        """Angle-slack bus: first type-3 bus, else lowest-id generator bus."""
        for b in self.buses:
            if b.bus_type == 3:
                return b.id
        if self.generators:
            return min(g.bus for g in self.generators)
        raise CaseStructureError("network has no reference bus candidate")


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" or "warning"
    code: str
    message: str


def _integer(value, what, line=None) -> int:
    """A table entry that must hold a whole number, as an int; anything
    else (a fraction, an infinity, NaN) raises CaseParseError."""
    if not float(value).is_integer():
        raise CaseParseError(f"{what} must be an integer, got {value!r}",
                             line=line)
    return int(value)


def _check_numbers(row, cols, table, line):
    """Raise CaseParseError when a column of ``row`` the parser reads as a
    number is not finite: a NaN compares false with every bound and an
    infinity passes one side of every range, so no later check would
    reject either.  ``cols`` are 0-based; a scalar is a row of one."""
    if math.isfinite(sum(row)):  # the common case: every column finite
        return
    for c in cols:
        if not math.isfinite(row[c]):
            where = f"mpc.{table}" + (f" column {c + 1}" if len(row) > 1
                                      else "")
            raise CaseParseError(f"{where} is not finite: {row[c]}",
                                 line=line)


def parse_gencost_row(values, line=None):
    """Map one gencost table row onto its raw cost description.

    Returns ("poly", (a, b, c)) for model 2 rows (coefficients given high to
    low degree) or ("pwl", [(p, c), ...]) for model 1 rows, which need two
    or more points of strictly increasing power.  No unit
    conversion happens here; power stays in MW.  ``line`` is the row's line
    number, reported in every error the row raises.
    """
    if len(values) < 4:
        raise CaseStructureError(f"gencost row too short: {values}", line)
    model = _integer(values[0], "gencost MODEL", line)
    n = _integer(values[3], "gencost NCOST", line)
    tail = values[4:]
    if model == 2:
        if n < 1 or n > 3:
            raise UnsupportedFeatureError(
                f"polynomial cost of degree {n - 1} not supported "
                f"(max quadratic)", line)
        if len(tail) < n:
            raise CaseStructureError(
                f"gencost row declares {n} coefficients but has "
                f"{len(tail)}", line)
        _check_numbers(values, range(4, 4 + n), "gencost", line)
        coeffs = [0.0] * (3 - n) + [float(v) for v in tail[:n]]
        c, b, a = coeffs
        return "poly", (a, b, c)
    if model == 1:
        if len(tail) < 2 * n:
            raise CaseStructureError(
                f"gencost row declares {n} points but has {len(tail)} "
                f"values", line)
        _check_numbers(values, range(4, 4 + 2 * n), "gencost", line)
        pts = [(float(tail[2 * i]), float(tail[2 * i + 1])) for i in range(n)]
        try:
            derive_slopes_intercepts(pts)
        except DegenerateSegmentError as exc:
            raise CaseStructureError(f"gencost {exc}", line) from None
        return "pwl", pts
    raise UnsupportedFeatureError(f"unknown gencost model code {model}",
                                  line)


def _scan_tables(text: str):
    """Extract mpc.* scalars and matrix tables with row line numbers."""
    scalars: dict[str, tuple[float, int]] = {}
    tables: dict[str, list[tuple[list[float], int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        if current is None:
            m = re.match(r"mpc\.(\w+)\s*=\s*\[(.*)$", line)
            if m:
                name, rest = m.group(1), m.group(2)
                tables[name] = []
                current, opened = name, lineno
                line = rest.strip()
                if not line:
                    continue
                # fall through to row handling below
            else:
                m = re.match(r"mpc\.(\w+)\s*=\s*([^;\[]+);?\s*$", line)
                if m:
                    name, value = m.group(1), m.group(2).strip()
                    value = value.strip("'\"")
                    try:
                        scalars[name] = (float(value), lineno)
                    except ValueError:
                        pass  # string fields like version are ignored
                continue
        # inside a table body (possibly same line as the opener)
        closing = False
        if "]" in line:
            line = line.split("]", 1)[0]
            closing = True
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            row = []
            for tok in chunk.split():
                try:
                    row.append(float(tok))
                except ValueError:
                    raise CaseParseError(
                        f"cannot parse number {tok!r} in mpc.{current}",
                        line=lineno,
                    ) from None
            tables[current].append((row, lineno))
        if closing:
            current = None
    if current is not None:
        raise CaseParseError(f"table mpc.{current} is never closed with ']'",
                             line=opened)
    return scalars, tables


def _normalize_angle_bounds(angmin_deg, angmax_deg):
    defaulted = angmin_deg == 0.0 and angmax_deg == 0.0
    if defaulted:
        return -DEFAULT_ANGLE_BOUND_RAD, DEFAULT_ANGLE_BOUND_RAD, True
    lo = math.radians(angmin_deg)
    hi = math.radians(angmax_deg)
    lo = min(max(lo, -MAX_ANGLE_BOUND_RAD), 0.0)
    hi = max(min(hi, MAX_ANGLE_BOUND_RAD), 0.0)
    return lo, hi, False


def parse_case(text: str) -> Network:
    """Parse Matpower case text into a per-unit :class:`Network`.

    Raises CaseParseError for malformed text, CaseStructureError for
    inconsistent tables and bus types other than 1-4, and
    UnsupportedFeatureError for bus shunts,
    isolated (type 4) buses, out-of-service (status 0) generators and
    branches, branch phase shifts or unknown cost models.  Each names the
    line of the offending row when there is one.
    """
    scalars, tables = _scan_tables(text)
    if "baseMVA" not in scalars:
        raise CaseParseError("case text has no mpc.baseMVA")
    for name in ("bus", "gen", "branch", "gencost"):
        if name not in tables:
            raise CaseParseError(f"case text has no mpc.{name} table")
    base, base_line = scalars["baseMVA"]
    _check_numbers([base], [0], "baseMVA", base_line)
    if base <= 0:
        raise CaseStructureError(f"baseMVA must be positive, got {base}",
                                 base_line)

    buses = []
    seen_ids = set()
    for row, lineno in tables["bus"]:
        if len(row) < 13:
            raise CaseParseError(
                f"bus row needs 13 columns, got {len(row)}", line=lineno
            )
        _check_numbers(row, (2, 3, 4, 5, 11, 12), "bus", lineno)
        bus_id = _integer(row[0], "bus id", lineno)
        if bus_id <= 0:
            raise CaseStructureError(f"bus id must be positive, got {bus_id}",
                                     lineno)
        if bus_id in seen_ids:
            raise CaseStructureError(f"duplicate bus id {bus_id}", lineno)
        seen_ids.add(bus_id)
        if row[4] != 0.0 or row[5] != 0.0:
            raise UnsupportedFeatureError(
                f"bus {bus_id} has a shunt (Gs/Bs nonzero), not supported",
                lineno)
        bus_type = _integer(row[1], "bus type", lineno)
        if bus_type == 4:
            raise UnsupportedFeatureError(
                f"bus {bus_id} is isolated (type 4), not supported", lineno)
        if bus_type not in (1, 2, 3):
            raise CaseStructureError(
                f"bus {bus_id} has unknown type {bus_type}", lineno)
        vmax, vmin = row[11], row[12]
        if not (0.0 < vmin <= vmax):
            raise CaseStructureError(
                f"bus {bus_id} voltage bounds must satisfy 0 < vmin <= vmax, "
                f"got [{vmin}, {vmax}]", lineno)
        buses.append(Bus(
            id=bus_id,
            bus_type=bus_type,
            vmin=vmin,
            vmax=vmax,
            demand=ComplexPU(row[2] / base, row[3] / base),
        ))

    branches = []
    for row, lineno in tables["branch"]:
        if len(row) < 13:
            raise CaseParseError(
                f"branch row needs 13 columns, got {len(row)}", line=lineno
            )
        _check_numbers(row, (2, 3, 4, 5, 8, 9, 10, 11, 12), "branch", lineno)
        f_bus = _integer(row[0], "branch from-bus", lineno)
        t_bus = _integer(row[1], "branch to-bus", lineno)
        if f_bus == t_bus:
            raise CaseStructureError(f"branch connects bus {f_bus} to itself",
                                     lineno)
        if row[10] <= 0.0:
            raise UnsupportedFeatureError(
                f"branch {f_bus}-{t_bus} is out of service (status "
                f"{_fmt(row[10])}), not supported", lineno)
        r, x = row[2], row[3]
        if r == 0.0 and x == 0.0:
            raise SingularBranchError(
                f"branch {f_bus}-{t_bus} has zero series impedance", lineno)
        if row[9] != 0.0:
            raise UnsupportedFeatureError(
                f"branch {f_bus}-{t_bus} has a phase-shift angle, not "
                f"supported", lineno)
        tap = row[8]
        if tap < 0.0:
            raise CaseStructureError(
                f"branch {f_bus}-{t_bus} has negative tap ratio {tap}", lineno)
        angmin, angmax, defaulted = _normalize_angle_bounds(row[11], row[12])
        branches.append(Branch(
            from_bus=f_bus,
            to_bus=t_bus,
            series_impedance=ComplexPU(r, x),
            charging=row[4],
            tap_ratio=tap,
            rate=row[5] / base,
            angmin=angmin,
            angmax=angmax,
            angle_defaulted=defaulted,
        ))

    gen_rows = tables["gen"]
    cost_rows = tables["gencost"]
    if len(gen_rows) != len(cost_rows):
        raise CaseStructureError(
            f"{len(cost_rows)} gencost rows for {len(gen_rows)} generators"
        )
    generators = []
    for (row, lineno), (crow, clineno) in zip(gen_rows, cost_rows):
        if len(row) < 10:
            raise CaseParseError(
                f"gen row needs 10 columns, got {len(row)}", line=lineno
            )
        _check_numbers(row, (3, 4, 7, 8, 9), "gen", lineno)
        gen_bus = _integer(row[0], "generator bus", lineno)
        if row[7] <= 0.0:
            raise UnsupportedFeatureError(
                f"generator at bus {gen_bus} is out of service (status "
                f"{_fmt(row[7])}), not supported", lineno)
        kind, payload = parse_gencost_row(crow, clineno)
        if kind == "poly":
            a, b, c = payload
            cost: CostSpec = PolynomialCost(a=a, b=b * base, c=c * base * base)
        else:
            cost = PwlCurve.from_points([(p / base, q) for p, q in payload])
        pmin, pmax = row[9] / base, row[8] / base
        qmin, qmax = row[4] / base, row[3] / base
        if pmin > pmax:
            raise CaseStructureError(
                f"generator at bus {gen_bus} has pmin > pmax", lineno)
        if qmin > qmax:
            raise CaseStructureError(
                f"generator at bus {gen_bus} has qmin > qmax", lineno)
        generators.append(Generator(
            bus=gen_bus,
            pmin=pmin, pmax=pmax, qmin=qmin, qmax=qmax,
            cost=cost,
        ))

    data = (base, tuple(buses), tuple(branches), tuple(generators))
    raw = {
        "data": data,
        "bus": [row for row, _ in tables["bus"]],
        "gen": [row for row, _ in gen_rows],
        "branch": [row for row, _ in tables["branch"]],
        "gencost": [row for row, _ in cost_rows],
    }
    return Network(*data, raw_tables=raw)


def read_case(path) -> Network:
    """Parse the case file at path.  A file that is not UTF-8 text raises
    CaseParseError; one that cannot be read raises OSError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CaseParseError(
            f"{path}: not UTF-8 text (byte {exc.start})"
        ) from None
    return parse_case(text)


def branch_admittance(branch: Branch) -> ComplexPU:
    """Series admittance 1 / (r + jx) of a branch."""
    r, x = branch.series_impedance.re, branch.series_impedance.im
    mag2 = r * r + x * x
    if mag2 == 0.0:
        raise SingularBranchError(
            f"branch {branch.from_bus}-{branch.to_bus} has zero impedance"
        )
    return ComplexPU(r / mag2, -x / mag2)


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def serialize_case(network: Network, name: str = "case") -> str:
    """Render a network back to Matpower case text.

    Parsed networks are rendered from their original table rows, so
    parse(serialize(parse(text))) reproduces the network exactly, while
    the network's data equals what was parsed.
    """
    raw = network.raw_tables
    if raw is None or raw["data"] != (network.base_mva, network.buses,
                                      network.branches, network.generators):
        raw = _synthesize_raw(network)
    lines = [f"function mpc = {name}", "mpc.version = '2';",
             f"mpc.baseMVA = {_fmt(network.base_mva)};", ""]
    for table in ("bus", "gen", "branch", "gencost"):
        lines.append(f"mpc.{table} = [")
        for row in raw[table]:
            lines.append("\t" + "\t".join(_fmt(v) for v in row) + ";")
        lines.append("];")
        lines.append("")
    return "\n".join(lines)


def _synthesize_raw(network: Network) -> dict:
    """Raw Matpower rows for a programmatically built network."""
    base = network.base_mva
    bus_rows = []
    for b in network.buses:
        bus_rows.append([
            float(b.id), float(b.bus_type), b.demand.re * base,
            b.demand.im * base, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0,
            b.vmax, b.vmin,
        ])
    gen_rows = []
    cost_rows = []
    for g in network.generators:
        gen_rows.append([
            float(g.bus), 0.0, 0.0, g.qmax * base, g.qmin * base, 1.0,
            base, 1.0, g.pmax * base, g.pmin * base,
        ])
        if isinstance(g.cost, PolynomialCost):
            cost_rows.append([
                2.0, 0.0, 0.0, 3.0,
                g.cost.c / (base * base), g.cost.b / base, g.cost.a,
            ])
        else:
            pts = g.cost.points
            row = [1.0, 0.0, 0.0, float(len(pts))]
            for p, c in pts:
                row.extend([p * base, c])
            cost_rows.append(row)
    branch_rows = []
    for br in network.branches:
        angmin = 0.0 if br.angle_defaulted else math.degrees(br.angmin)
        angmax = 0.0 if br.angle_defaulted else math.degrees(br.angmax)
        branch_rows.append([
            float(br.from_bus), float(br.to_bus), br.series_impedance.re,
            br.series_impedance.im, br.charging, br.rate * base, 0.0, 0.0,
            br.tap_ratio, 0.0, 1.0, angmin, angmax,
        ])
    return {"bus": bus_rows, "gen": gen_rows, "branch": branch_rows,
            "gencost": cost_rows}


def validate_network(network: Network) -> list[Finding]:
    """Semantic findings for a parsed network.

    Errors (dangling references, empty component sets, non-convex polynomial
    costs, piecewise curves that :func:`~opfbench.pwlcost.preprocess`
    rejects against their generator's bounds) make the network
    unacceptable to the formulation builders;
    warnings document conventions applied (unlimited thermal ratings,
    defaulted angle bounds, reference-bus fallback) and flag a network no
    dispatch can serve: total generator pmax below total active demand.
    That one is a warning, so the infeasible network still builds and its
    solves are labelled infeasible.  Computed once per network object;
    each call returns a new list.
    """
    return list(network._findings)


def require_valid(network: Network) -> None:
    """Raise InvalidNetworkError if the network has error findings."""
    errors = [f for f in validate_network(network) if f.severity == "error"]
    if errors:
        raise InvalidNetworkError(errors)


def _find_problems(network: Network) -> list[Finding]:
    findings = []
    bus_ids = {b.id for b in network.buses}
    if not network.buses:
        findings.append(Finding("error", "no-buses", "network has no buses"))
    if not network.generators:
        findings.append(Finding(
            "error", "no-generators", "network has no generators"
        ))
    for k, g in enumerate(network.generators):
        if g.bus not in bus_ids:
            findings.append(Finding(
                "error", "dangling-generator-bus",
                f"generator {k} references missing bus {g.bus}",
            ))
        if isinstance(g.cost, PolynomialCost) and g.cost.c < 0:
            findings.append(Finding(
                "error", "non-convex-polynomial-cost",
                f"generator {k} has negative quadratic coefficient "
                f"{g.cost.c}",
            ))
        if isinstance(g.cost, PwlCurve):
            try:
                preprocess(g.cost, g.pmin, g.pmax)
            except (OpfBenchError, ValueError) as exc:
                findings.append(Finding(
                    "error", "unusable-cost-curve",
                    f"generator {k} cost curve: {exc}",
                ))
    touched = set()
    for i, br in enumerate(network.branches):
        for end in (br.from_bus, br.to_bus):
            if end not in bus_ids:
                findings.append(Finding(
                    "error", "dangling-branch-bus",
                    f"branch {i} ({br.from_bus}-{br.to_bus}) references "
                    f"missing bus {end}",
                ))
        touched.add(br.from_bus)
        touched.add(br.to_bus)
        if br.rate == 0.0:
            findings.append(Finding(
                "warning", "unlimited-thermal-rating",
                f"branch {i} ({br.from_bus}-{br.to_bus}): thermal limit "
                f"treated as unlimited",
            ))
        if br.angle_defaulted:
            findings.append(Finding(
                "warning", "default-angle-bounds",
                f"branch {i} ({br.from_bus}-{br.to_bus}): angle bounds "
                f"defaulted to +/-30 degrees",
            ))
    if len(network.buses) > 1:
        for b in network.buses:
            if b.id not in touched:
                findings.append(Finding(
                    "warning", "isolated-bus",
                    f"bus {b.id} has no incident branch",
                ))
    capacity = sum(g.pmax for g in network.generators)
    demand = sum(b.demand.re for b in network.buses)
    if network.generators and capacity < demand:
        findings.append(Finding(
            "warning", "insufficient-capacity",
            f"total generator pmax {capacity * network.base_mva:.6g} MW is "
            f"below total active demand {demand * network.base_mva:.6g} MW",
        ))
    if network.buses and not any(b.bus_type == 3 for b in network.buses):
        if network.generators:
            findings.append(Finding(
                "warning", "reference-bus-fallback",
                f"no type-3 bus; using lowest-id generator bus "
                f"{network.reference_bus} as angle reference",
            ))
        else:
            findings.append(Finding(
                "error", "no-reference-bus",
                "no type-3 bus and no generator bus to fall back on",
            ))
    return findings
