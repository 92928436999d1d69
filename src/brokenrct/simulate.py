"""Data-generating processes and the Monte Carlo study harness.

Case 1: outcome laws homogeneous across compliance strata.  Case 2:
never-takers and always-takers get their own outcome laws.  Cases 3 and 4
repeat 1 and 2 but add a cross-world dependence (the control outcome gains
the treated survival indicator, the treated outcome gains half the control
survival indicator), which breaks the ignorability the main estimator needs.
Ground truth is always evaluated empirically on the survived compliers of a
large oracle draw, so it is consistent with whatever joint law is generated.

One draw core, :func:`_potential_outcomes`, defines the DGP: its draws, their
order and its formulas.  :func:`generate` builds a dataset and its potential
table from it; a study replication reduces the same draws straight to the
dataset's cell statistics, bit for bit, without building the dataset; and
:func:`true_pace` draws only what the survived compliers read.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .comparators import METHODS, estimate
from .errors import EstimationError, Reason
from .records import CellStatistics, _is_int, _reduce_rows

CASES = (1, 2, 3, 4)


@dataclass(frozen=True)
class DgpConfig:
    """Generator settings; defaults reproduce the benchmark study design."""

    n: int = 2000
    case: int = 1
    assign_rate: float = 0.5
    p_d0: float = 0.3
    p_d1_given_not_d0: float = 0.4
    #: P(S(z)=1 | D(0), D(1)) = coef[0] + coef[1]*D(0) + coef[2]*D(1)
    surv_coef_control: tuple = (0.3, 0.2, 0.2)
    surv_coef_treated: tuple = (0.3, 0.3, 0.3)
    #: homogeneous outcome law: Y(d) | S(d)=1 ~ N(mean_base + mean_gain*d,
    #: (sd_base + sd_gain*d)^2)
    mean_base: float = 1.0
    mean_gain: float = 1.0
    sd_base: float = 0.8
    sd_gain: float = 0.2
    #: heterogeneous extras (cases 2 and 4), drawn as separate normals:
    #: never-takers subtract N(never_mean, never_sd^2) from Y(0);
    #: always-takers add N(always_mean, always_sd^2) to Y(1)
    never_mean: float = 0.5
    never_sd: float = 0.2
    always_mean: float = 0.3
    always_sd: float = 0.2
    #: cross-world additions (cases 3 and 4)
    y0_gain_from_s1: float = 1.0
    y1_gain_from_s0: float = 0.5

    @property
    def heterogeneous(self) -> bool:
        return self.case in (2, 4)

    @property
    def cross_world(self) -> bool:
        return self.case in (3, 4)

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first invalid field."""
        if not _is_int(self.case, 1) or self.case not in CASES:
            raise ValueError(f"case must be one of {CASES}, got {self.case!r}")
        if not _is_int(self.n, 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        reals = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.startswith("surv_coef_"):
                if not isinstance(value, (tuple, list)) or len(value) != 3:
                    raise ValueError(f"{f.name} must be 3 coefficients, got {value!r}")
                reals.update((f"{f.name}[{i}]", v) for i, v in enumerate(value))
            elif f.name not in ("n", "case"):
                reals[f.name] = value
        for name, value in reals.items():
            if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        for name, value in (("sd_base", self.sd_base),
                            ("sd_base + sd_gain", self.sd_base + self.sd_gain),
                            ("never_sd", self.never_sd), ("always_sd", self.always_sd)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        for name in ("assign_rate", "p_d0", "p_d1_given_not_d0"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        for name in ("surv_coef_control", "surv_coef_treated"):
            a, b, c = getattr(self, name)
            for d0, d1 in ((0, 0), (0, 1), (1, 1)):
                p = a + b * d0 + c * d1
                if not 0.0 <= p <= 1.0:
                    raise ValueError(
                        f"{name} gives survival probability {p} for "
                        f"(D(0), D(1)) = ({d0}, {d1}); must lie in [0, 1]"
                    )


@dataclass
class PotentialData:
    """Potential-outcome table kept alongside the observed data."""

    z: np.ndarray
    d1: np.ndarray
    d0: np.ndarray
    s1: np.ndarray
    s0: np.ndarray
    y1: np.ndarray   # nan where S(1) = 0 (undefined)
    y0: np.ndarray   # nan where S(0) = 0


def _potential_outcomes(config: DgpConfig, rng):
    """(d0, d1, s0, s1, y0, y1) of ``config.n`` units, the one definition of
    the DGP; the treatments and survivals are booleans, and y0 and y1 are
    drawn for every unit, survivor or not.  ``config`` must be valid.

    The draws, in stream order: the uniforms of D(0), D(1), S(0) and S(1),
    Y(0), Y(1), then (cases 2 and 4) the never-taker and always-taker
    shifts.  No complier reads those last two.
    """
    n = config.n
    # one uniform array at a time and new arrays for the strata shifts: one
    # array of all four uniforms, or shifts in place, left more of the heap
    # resident after a large draw (up to 3 MB more at n = 10^5)
    d0 = rng.random(n) < config.p_d0
    d1 = d0 | (rng.random(n) < config.p_d1_given_not_d0)
    s0, s1 = (rng.random(n) < a + b * d0 + c * d1
              for a, b, c in (config.surv_coef_control, config.surv_coef_treated))

    y0 = rng.normal(config.mean_base, config.sd_base, n)
    y1 = rng.normal(config.mean_base + config.mean_gain, config.sd_base + config.sd_gain, n)
    if config.heterogeneous:
        y0 = np.where(d1, y0, y0 - rng.normal(config.never_mean, config.never_sd, n))
        y1 = np.where(d0, y1 + rng.normal(config.always_mean, config.always_sd, n), y1)
    if config.cross_world:
        y0 += config.y0_gain_from_s1 * s1
        y1 += config.y1_gain_from_s0 * s0
    return d0, d1, s0, s1, y0, y1


def _observe(config: DgpConfig, seed):
    """The potential outcomes of one dataset, then its assignment z and what
    z reveals: the treatment d, the survival s and the outcome y of d (drawn
    for every unit, survivor or not)."""
    rng = np.random.default_rng(seed)
    potential = d0, d1, s0, s1, y0, y1 = _potential_outcomes(config, rng)
    # assignment is drawn last: the potential table for a seed does not
    # depend on the assignment mechanism
    z = rng.random(config.n) < config.assign_rate
    d = np.where(z, d1, d0)
    return potential, z, d, np.where(d, s1, s0), np.where(d, y1, y0)


def generate(config: DgpConfig, seed) -> tuple[np.ndarray, PotentialData]:
    """Draw one dataset; returns (observed (n, 6) array, potential table).

    The two potential survival indicators are drawn independently given the
    compliance type (only their marginals are specified by the design).
    Monotonicity holds by construction and the assignment never enters the
    survival or outcome draws.
    """
    config.validate()
    (d0, d1, s0, s1, y0, y1), z, d, s, y = _observe(config, seed)
    ones = np.ones(config.n)
    observed = np.column_stack([z, d, ones, s, ones, np.where(s, y, np.nan)])
    potential = PotentialData(
        *(b.astype(np.int8) for b in (z, d1, d0, s1, s0)),
        y1=np.where(s1, y1, np.nan), y0=np.where(s0, y0, np.nan))
    return observed, potential


def _replication_cells(config: DgpConfig, seed) -> CellStatistics:
    """The cell statistics of ``generate(config, seed)``'s dataset, bit for
    bit, without building it: every survival status and every survivor's
    outcome is observed, so each row is of kind 0 (a survivor) or 2 (a death)
    in the one row-to-cell reduction, :func:`~brokenrct.records._reduce_rows`."""
    _, z, d, s, y = _observe(config, seed)
    return _reduce_rows(z, d, np.int8(2) * ~s, y)[0]


def true_pace(config: DgpConfig, oracle_n: int = 1_000_000, seed=2718281828) -> float:
    """Empirical ground truth: mean Y(1) - Y(0) over survived compliers,
    drawn as :func:`generate` draws them, without the assignment.

    The never-taker and always-taker shifts are drawn last and no complier
    reads them, so the homogeneous twin of a case (2 -> 1, 4 -> 3) draws
    the same compliers without them.
    """
    config = replace(config, n=int(oracle_n))
    config.validate()
    twin = replace(config, case=config.case - config.heterogeneous)
    d0, d1, s0, s1, y0, y1 = _potential_outcomes(twin, np.random.default_rng(seed))
    keep = d1 & ~d0 & s1 & s0
    if not keep.any():
        raise EstimationError("no survived compliers in the oracle draw")
    return float((y1[keep] - y0[keep]).mean())


@dataclass
class StudyRow:
    case: int
    n: int
    estimator: str
    reps: int
    failures: int
    true_tau: float
    bias: float
    sd: float
    mean_se: float
    cp: float


@dataclass
class SimulationReport:
    """Per-(case, size, estimator) bias / SD / mean SE / coverage."""

    rows: list

    def row(self, case: int, n: int, estimator: str) -> StudyRow:
        for r in self.rows:
            if r.case == case and r.n == n and r.estimator == estimator:
                return r
        raise KeyError(f"no row for case={case}, n={n}, estimator={estimator}")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(f.name for f in fields(StudyRow))
            for r in self.rows:
                writer.writerow(repr(v) if isinstance(v, float) else v for v in astuple(r))

    def format_table(self) -> str:
        cases = sorted({r.case for r in self.rows})
        sizes = sorted({r.n for r in self.rows})
        estimators = list(dict.fromkeys(r.estimator for r in self.rows))
        # reversed: the first of two rows with one key is the one shown
        index = {(r.case, r.n, r.estimator): r for r in reversed(self.rows)}
        width = 9
        lines = []
        header1 = " " * 14 + "".join(
            f"case {c}".center(width * len(estimators)) for c in cases
        )
        header2 = f"{'n':>6} {'metric':<7}" + "".join(
            f"{e:>{width}}" for _ in cases for e in estimators
        )
        lines.append(header1)
        lines.append(header2)
        lines.append("-" * len(header2))

        def fmt(value):
            return f"{value:>{width}.3f}" if math.isfinite(value) else f"{'NA':>{width}}"

        for n in sizes:
            for metric, attribute in (("bias", "bias"), ("sd", "sd"), ("se", "mean_se"),
                                      ("cp", "cp")):
                label = f"{n:>6}" if metric == "bias" else " " * 6
                cells = [fmt(getattr(index[c, n, e], attribute)) if (c, n, e) in index
                         else f"{'--':>{width}}" for c in cases for e in estimators]
                lines.append(f"{label} {metric:<7}" + "".join(cells))
        return "\n".join(lines) + "\n"


def _replication_seed(seed: int, case: int, size_index: int, rep: int):
    return np.random.SeedSequence(entropy=seed, spawn_key=(case, size_index, rep))


def _run_chunk(task):
    """(tau, se, ci_lower, ci_upper, failed) arrays of each estimator, in one call
    on the chunk's stacked cells.  Any reason fails a replication, a pace
    denominator in the warning band too: its estimate would poison the moments."""
    config, case, size_index, rep_range, seed, estimator_names = task
    cells = CellStatistics.stack([
        _replication_cells(config, _replication_seed(seed, case, size_index, rep))
        for rep in rep_range])
    out = {}
    for name in estimator_names:
        est = estimate(cells, name)
        out[name] = (est.tau, est.se, est.ci_lower, est.ci_upper, est.reason != Reason.OK)
    return out


def _checked_list(name: str, values, valid, rule: str) -> tuple:
    try:
        items = tuple(values)
    except TypeError:
        items = ()
    if not items or not all(map(valid, items)):
        raise ValueError(f"{name} must be a non-empty list of {rule}, got {values!r}")
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ValueError(f"{name} must be distinct, got {item!r} more than once")
    return items


def run_study(
    cases=(1, 2, 3, 4),
    sizes=(500, 2000, 8000),
    reps: int = 2000,
    estimators=("pace", "tsls"),
    seed: int = 20240501,
    config: DgpConfig | None = None,
    oracle_n: int = 1_000_000,
    n_jobs: int = 1,
) -> SimulationReport:
    """Monte Carlo study over cases and sample sizes.

    ``estimators`` are names from :data:`~brokenrct.comparators.METHODS`.
    Every replication owns a counter-keyed generator stream, so results are
    reproducible for any ``n_jobs`` and replications can run in parallel.

    The study is one flat list of (case, size, replication chunk) tasks,
    chunked by ``n_jobs``, run by one map.  A single process pool of
    ``min(n_jobs, usable CPUs, tasks)`` workers runs every task while this
    process draws the per-case truths; when that is 1 no pool is started.
    Each replication draws what :func:`generate` draws and reduces it
    straight to that dataset's cell statistics, bit for bit, without
    building the dataset.  A task stacks its replications' cell statistics
    and runs each estimator once on the stack by
    :func:`~brokenrct.comparators.estimate`, which gives every row the
    estimate one dataset would give, bit for bit, or a
    :class:`~brokenrct.errors.Reason`.  A replication with any reason
    (degenerate denominators at small n, a pace denominator in the warning
    band) is counted as failed in its study row, not raised.  The rows are
    assembled in task order, so they do not depend on ``n_jobs``.

    These defaults are the study-config defaults of ``brokenrct simulate``.
    ``reps``, ``oracle_n`` or ``n_jobs`` below 1, a negative ``seed``, a
    boolean in place of an integer, an empty list, a size below 1, a case
    outside :data:`CASES`, an unknown estimator, an entry repeated in
    ``cases``, ``sizes`` or ``estimators``, or a ``config`` that
    :meth:`DgpConfig.validate` rejects raises ``ValueError`` naming the
    field, before any replication runs.

    A replication's stream is keyed by (case, position of n in ``sizes``,
    rep), not by n itself, so the rows of one (case, n) cell depend on
    which other sizes are listed before it: a study cannot be split or
    extended by size and reproduce its rows.  Keying by n would change every
    study's streams, including those that the benchmark's frozen reference
    and the n=500 acceptance check recompute, so it waits for a change to
    the benchmark.
    """
    for name, value, low in (("seed", seed, 0), ("reps", reps, 1),
                             ("oracle_n", oracle_n, 1), ("n_jobs", n_jobs, 1)):
        if not _is_int(value, low):
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    cases = _checked_list("cases", cases, lambda c: _is_int(c, 1) and c in CASES,
                          f"cases from {list(CASES)}")
    sizes = _checked_list("sizes", sizes, lambda n: _is_int(n, 1), "integers >= 1")
    estimators = _checked_list("estimators", estimators,
                               lambda e: isinstance(e, str) and e in METHODS,
                               f"estimators from {sorted(METHODS)}")
    base = config or DgpConfig()
    # cases and sizes are checked above; this checks the rest of the DGP
    replace(base, case=cases[0], n=sizes[0]).validate()
    grid = [(case, size_index, n) for case in cases for size_index, n in enumerate(sizes)]
    chunks = _chunk_ranges(reps, n_jobs)
    tasks = [(replace(base, case=case, n=n), case, size_index, chunk, seed, estimators)
             for case, size_index, n in grid for chunk in chunks]
    workers = min(n_jobs, _usable_cpus(), len(tasks))
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        # Executor.map submits every task at once, so the workers run them
        # while this process draws the truths
        results = (pool.map if pool else map)(_run_chunk, tasks)
        truths = {case: true_pace(replace(base, case=case, n=1), oracle_n=oracle_n,
                                  seed=np.random.SeedSequence(entropy=seed,
                                                              spawn_key=(case, 999999)))
                  for case in cases}
        results = list(results)

    rows = []
    for i, (case, _, n) in enumerate(grid):
        cell_results = results[i * len(chunks):(i + 1) * len(chunks)]
        truth = truths[case]
        for name in estimators:
            tau, se, lower, upper, failed = map(
                np.concatenate, zip(*(chunk[name] for chunk in cell_results)))
            fit = ~failed
            taus = tau[fit]
            rows.append(StudyRow(
                case=case, n=n, estimator=name,
                reps=reps, failures=int(failed.sum()), true_tau=truth,
                bias=float(taus.mean() - truth) if taus.size else float("nan"),
                sd=float(taus.std(ddof=1)) if taus.size > 1 else float("nan"),
                mean_se=float(se[fit].mean()) if taus.size else float("nan"),
                cp=(float(((lower[fit] <= truth) & (truth <= upper[fit])).mean())
                    if taus.size else float("nan")),
            ))
    return SimulationReport(rows=rows)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_ranges(reps: int, n_jobs: int):
    if n_jobs <= 1:
        return [range(reps)]
    size = max(1, math.ceil(reps / (n_jobs * 4)))
    return [range(start, min(start + size, reps)) for start in range(0, reps, size)]
