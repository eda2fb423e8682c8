"""Seeded inputs for the three benchmark workloads.

Every workload is a list of cells.  A cell is one (case, power-flow model,
cost encoding) triple that the benchmark builds and solves.  Case inputs are
Matpower text, so the program under test receives them exactly as a user
would hand them over.  The same seed always gives byte-identical text.

* ``grid``: the bundled cases, every model and encoding (the paper's table).
  The seed only shuffles the cell order.
* ``scale``: ``case30_grid`` tiled four times into a 120-bus meshed network.
  The seed renumbers the buses and reorders every table.
* ``infeasible``: every bundled case with its demand scaled past total
  generator ``pmax``, solved with the DC model.  The seed draws how the
  demand is spread over the buses.
"""

from __future__ import annotations

import random
import re
from typing import NamedTuple

from opfbench.cases import case_names, case_text

PF_KINDS = ("ac", "soc", "dc")
ENCODINGS = ("psi", "lambda", "delta", "phi")

# Matpower column indices used below.
BUS_ID, BUS_TYPE, BUS_PD, BUS_QD = 0, 1, 2, 3
GEN_BUS, GEN_PMAX = 0, 8
BR_FROM, BR_TO, BR_TAP = 0, 1, 8

SCALE_BASE = "case30_grid"
SCALE_COPIES = 4
SCALE_TIES_PER_PAIR = 2
# The tie lines are drawn once, from this fixed seed, and the run seed only
# relabels the result.  With ties drawn per seed at 120 buses, the SOC-psi
# cell took anywhere from 64 iterations to the 500-iteration limit, which 4
# of 21 draws hit: failures, and a spread no statistic over one run steadies.
SCALE_TOPOLOGY_SEED = 1

# Total demand is scaled to each of these multiples of total generator
# pmax; the seed spreads it over the buses with factors within +/- the
# jitter.  Drawing the margin itself per seed moved the heavy psi cells by
# up to 5x in iterations, so the margins stay fixed.
INFEASIBLE_MARGINS = (1.15, 1.4)
INFEASIBLE_JITTER = 0.2


class Case(NamedTuple):
    """One generated or bundled case: a name and its Matpower text."""

    name: str
    text: str


def read_tables(text: str):
    """baseMVA and the bus/gen/branch/gencost rows of Matpower text."""
    base = float(re.search(r"mpc\.baseMVA\s*=\s*([^;\s]+)", text).group(1))
    tables = {}
    for name in ("bus", "gen", "branch", "gencost"):
        body = re.search(rf"mpc\.{name}\s*=\s*\[(.*?)\]", text, re.S).group(1)
        rows = []
        for line in body.splitlines():
            line = line.split("%", 1)[0].strip().rstrip(";").strip()
            if line:
                rows.append([float(tok) for tok in line.split()])
        tables[name] = rows
    return base, tables


def _fmt(v: float) -> str:
    return str(int(v)) if v == int(v) else repr(v)


def write_case(name: str, base: float, tables) -> str:
    lines = [f"function mpc = {name}", "mpc.version = '2';",
             f"mpc.baseMVA = {_fmt(base)};", ""]
    for table in ("bus", "gen", "branch", "gencost"):
        lines.append(f"mpc.{table} = [")
        lines.extend("\t" + "\t".join(_fmt(v) for v in row) + ";"
                     for row in tables[table])
        lines.extend(["];", ""])
    return "\n".join(lines)


def _tile(name: str, copies: int, ties_per_pair: int, rng: random.Random):
    """``copies`` copies of a case joined in a ring by random tie lines.

    Copy ``k`` adds ``k * max_id`` to every bus id; only copy 0 keeps the
    reference bus.  Each tie copies the impedance and rating of a random
    branch of the case (tap cleared) between random buses of neighbouring
    copies.
    """
    base, t = read_tables(case_text(name))
    off = int(max(row[BUS_ID] for row in t["bus"]))
    out = {"bus": [], "gen": [], "branch": [], "gencost": []}
    for k in range(copies):
        for row in t["bus"]:
            row = list(row)
            row[BUS_ID] += k * off
            if k and row[BUS_TYPE] == 3:
                row[BUS_TYPE] = 2
            out["bus"].append(row)
        for row in t["gen"]:
            row = list(row)
            row[GEN_BUS] += k * off
            out["gen"].append(row)
        for row in t["branch"]:
            row = list(row)
            row[BR_FROM] += k * off
            row[BR_TO] += k * off
            out["branch"].append(row)
        out["gencost"].extend(list(row) for row in t["gencost"])
    ids = [int(row[BUS_ID]) for row in t["bus"]]
    for k in range(copies):
        for _ in range(ties_per_pair):
            tie = list(rng.choice(t["branch"]))
            tie[BR_TAP] = 0.0
            tie[BR_FROM] = rng.choice(ids) + k * off
            tie[BR_TO] = rng.choice(ids) + (k + 1) % copies * off
            out["branch"].append(tie)
    return base, out


def _relabel(tables, rng: random.Random):
    """Random distinct bus ids and a random order for every table."""
    old = [int(row[BUS_ID]) for row in tables["bus"]]
    new = rng.sample(range(1, 4 * len(old) + 1), len(old))
    ids = dict(zip(old, new))
    bus = [[float(ids[int(r[0])])] + r[1:] for r in tables["bus"]]
    branch = [[float(ids[int(r[0])]), float(ids[int(r[1])])] + r[2:]
              for r in tables["branch"]]
    gens = [([float(ids[int(g[0])])] + g[1:], c)
            for g, c in zip(tables["gen"], tables["gencost"])]
    rng.shuffle(bus)
    rng.shuffle(branch)
    rng.shuffle(gens)
    return {"bus": bus, "branch": branch,
            "gen": [g for g, _ in gens], "gencost": [c for _, c in gens]}


def scale_case(seed: int) -> Case:
    """The 120-bus tiling of ``case30_grid``, relabelled by ``seed``."""
    base, tables = _tile(SCALE_BASE, SCALE_COPIES, SCALE_TIES_PER_PAIR,
                         random.Random(SCALE_TOPOLOGY_SEED))
    tables = _relabel(tables, random.Random(seed))
    name = f"{SCALE_BASE}_x{SCALE_COPIES}_s{seed}"
    return Case(name, write_case(name, base, tables))


def infeasible_cases(seed: int) -> list:
    """Every bundled case with demand scaled past total generator pmax.

    For each margin, every bus's demand gets its own seeded factor and the
    total is then scaled to ``margin * pmax``.  Total demand exceeds total
    ``pmax`` in every returned case, so no dispatch balances it and
    ``infeasible`` is the only right label.
    """
    rng = random.Random(seed)
    lo, hi = 1.0 - INFEASIBLE_JITTER, 1.0 + INFEASIBLE_JITTER
    cases = []
    for name in case_names():
        base, t = read_tables(case_text(name))
        pmax = sum(row[GEN_PMAX] for row in t["gen"])
        for v, margin in enumerate(INFEASIBLE_MARGINS):
            weights = [rng.uniform(lo, hi) for _ in t["bus"]]
            demand = sum(w * r[BUS_PD] for w, r in zip(weights, t["bus"]))
            factor = margin * pmax / demand
            bus = [r[:BUS_PD] + [round(r[BUS_PD] * w * factor, 6),
                                 round(r[BUS_QD] * w * factor, 6)]
                   + r[BUS_QD + 1:] for w, r in zip(weights, t["bus"])]
            total = sum(r[BUS_PD] for r in bus)
            if not total > pmax:
                raise ValueError(
                    f"{name}: scaled demand {total} does not exceed pmax {pmax}"
                )
            case_name = f"{name}_d{v}"
            cases.append(Case(case_name,
                              write_case(case_name, base, dict(t, bus=bus))))
    return cases


def workload_cells(workload: str, seed: int):
    """(cases, cells) for a workload; a cell is (case name, pf, encoding)."""
    if workload == "grid":
        cases = [Case(n, case_text(n)) for n in case_names()]
        pfs = PF_KINDS
    elif workload == "scale":
        cases = [scale_case(seed)]
        pfs = PF_KINDS
    elif workload == "infeasible":
        cases = infeasible_cases(seed)
        pfs = ("dc",)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cells = [(c.name, pf, ck) for c in cases for pf in pfs for ck in ENCODINGS]
    random.Random(seed).shuffle(cells)
    return cases, cells
