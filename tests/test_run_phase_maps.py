"""``scripts/run_phase_maps.py`` run in-process: every map and the summary."""

import importlib.util
import io
import json
import math
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dqdcycle import cli, verify
from dqdcycle.qdot import DotParams, hamiltonian, internal_energy, thermal_factors
from dqdcycle.regimes import BRANCHES, MODES, Branch, Mode, branch_points, classify_grid
from dqdcycle.regimes import mode_codes
from dqdcycle.sweep import SCHEMA, AxisSpec, GridSpec, SweepCells, mode_area_fractions, run_sweep
from dqdcycle.sweep import to_json_document, write_csv
from dqdcycle.thermo import LEDGER_FIELDS, run_cycle_closed_form_batch, run_cycle_matrix_batch
from dqdcycle.verify import THRESHOLD_MARGIN
from reference import branch_thresholds, classify, expected_mode, same

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_phase_maps.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_phase_maps", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def csv_bytes(result):
    buf = io.StringIO()
    write_csv(result, buf)
    return buf.getvalue().encode()


def test_maps_and_summary_equal_the_oracle(tmp_path, oracle_sweep, capsys):
    script = load_script()
    assert script.main(["--steps", "7", "--outdir", str(tmp_path)]) == 0
    assert "14 maps" in capsys.readouterr().out

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["schema"] == SCHEMA == 1  # the sweep JSON's version too
    maps = summary["maps"]
    expected = [(branch, tau, t) for branch, tau, temps in script.FAMILIES for t in temps]
    assert len(expected) == 14
    assert [(m["branch"], m["tau"], m["temperature"]) for m in maps] == [
        (branch.value, tau, t) for branch, tau, t in expected]
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(m["file"] for m in maps)
    for entry, (branch, tau, temperature) in zip(maps, expected):
        oracle = oracle_sweep(GridSpec(branch, AxisSpec(0.0, 1.0, 7), AxisSpec(0.1, 3.0, 7),
                                       tau, temperature))
        assert (tmp_path / entry["file"]).read_bytes() == csv_bytes(oracle)
        assert entry["area_fractions"] == {
            m.value: f for m, f in mode_area_fractions(oracle).items()}


def test_no_program_path_builds_a_cell(tmp_path, monkeypatch, capsys):
    """The sweep command in both formats, this script and ``to_json_document`` read a
    sweep's arrays alone: with the per-cell view of ``SweepCells`` raising, each gives the
    exit codes, text and files that it gives with the view in place."""
    script = load_script()
    sweep = ["sweep", "--branch", "refrigerator-plus", "--grid-strength", "0:1:7",
             "--grid-epsilon", "0.5:2:5", "--tau", "0.2", "--temperature", "2"]
    result = run_sweep(GridSpec(Branch.ENGINE, AxisSpec(0.0, 1.0, 7), AxisSpec(0.5, 2.0, 5),
                                0.2, 1.0))

    def run(outdir):
        outdir.mkdir()
        codes = [cli.main([*sweep, "--format", fmt, "--output", str(outdir / f"map.{fmt}")])
                 for fmt in ("csv", "json")]
        codes.append(script.main(["--steps", "7", "--outdir", str(outdir / "maps")]))
        out, err = capsys.readouterr()
        files = {str(p.relative_to(outdir)): p.read_bytes() for p in outdir.rglob("*")
                 if p.is_file()}
        return codes, out.replace(str(outdir), "OUT"), err, files, to_json_document(result)

    expected = run(tmp_path / "view")

    def no_cell(*args):
        raise AssertionError("a program path built a cell")

    monkeypatch.setattr(SweepCells, "__iter__", no_cell)
    monkeypatch.setattr(SweepCells, "__getitem__", no_cell)
    got = run(tmp_path / "none")
    assert got[0] == [0, 0, 0] and len(got[3]) == 17  # two maps, 14 CSVs and summary.json
    assert same(got, expected)


@pytest.mark.parametrize("target", ["engine_tau0_T1.csv", "summary.json"])
def test_failed_write_keeps_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch, capsys,
                                                             target):
    """The first map and the summary are each written whole or not at all, and the
    failed write exits 3 with the error on stderr."""
    old = tmp_path / target
    old.write_text("old contents\n")

    class FullDisk:
        """Takes the first half of the target's text, then runs out of space."""

        def __init__(self, path, *args, **kwargs):
            self.fh = open(path, *args, **kwargs)
            self.full = Path(path).name.startswith(target + ".")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            if not self.full:
                return self.fh.write(text)
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "open", FullDisk, raising=False)
    assert load_script().main(["--steps", "3", "--outdir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "I/O error: [Errno 28] No space left on device\n"
    assert old.read_text() == "old contents\n"
    assert not list(tmp_path.glob("*.tmp"))


TOO_LARGE = "epsilon and tau too large: the cycle ledgers need hypot(epsilon, tau) <= 4.49423e+307"


@pytest.mark.parametrize("flags, message", [
    (["--steps", "1"], "strength axis needs at least 2 steps"),
    (["--steps", "0"], "strength axis needs at least 2 steps"),
    (["--epsilon-max", "0.1"], "epsilon axis must have start < stop"),
    (["--epsilon-max", "0.05"], "epsilon axis must have start < stop"),
    (["--epsilon-max", "nan"], "epsilon axis bounds must be finite"),
    (["--epsilon-max", "1.7e308"], TOO_LARGE),
    (["--epsilon-max", "4.5e307"], TOO_LARGE),
])
def test_bad_grid_flags_exit_2_before_making_anything(tmp_path, capsys, flags, message):
    outdir = tmp_path / "maps"
    assert load_script().main([*flags, "--outdir", str(outdir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message} (") and err.count("\n") == 1
    assert not outdir.exists()


@pytest.mark.parametrize("existing", [False, True], ids=["new-outdir", "existing-outdir"])
def test_grid_too_large_for_memory_exits_2_before_making_anything(tmp_path, monkeypatch,
                                                                   capsys, existing):
    """A --steps whose grid cannot be held exits 2 with numpy's message: no --outdir is made
    and no map is replaced. run_sweep raises as numpy would; nothing is allocated for real."""
    script = load_script()
    message = "Unable to allocate 745. GiB for an array with shape (100000000000,)"

    def run_sweep(spec):
        raise MemoryError(message)

    monkeypatch.setattr(script, "run_sweep", run_sweep)
    outdir = tmp_path / "maps"
    old = outdir / "engine_tau0_T1.csv"
    if existing:
        outdir.mkdir()
        old.write_text("old contents\n")
    assert script.main(["--steps", "3", "--outdir", str(outdir)]) == 2
    assert capsys.readouterr() == ("", f"error: {message} (--steps 3)\n")
    if existing:
        assert list(outdir.iterdir()) == [old] and old.read_text() == "old contents\n"
    else:
        assert not outdir.exists()


def test_epsilon_max_is_bounded_by_the_ledger_scale(tmp_path, capsys):
    """Past the ledger bound the script exits 2 and leaves an existing --outdir empty; at
    the bound itself it writes every map with no warning."""
    outdir = tmp_path / "maps"
    outdir.mkdir()
    limit = sys.float_info.max / 4.0
    assert load_script().main(["--steps", "3", "--outdir", str(outdir),
                               "--epsilon-max", repr(math.nextafter(limit, math.inf))]) == 2
    assert capsys.readouterr().err.startswith(f"error: {TOO_LARGE} (")
    assert list(outdir.iterdir()) == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_script().main(["--steps", "3", "--outdir", str(outdir),
                                   "--epsilon-max", repr(limit)]) == 0
    assert len(list(outdir.glob("*.csv"))) == 14


def test_bad_steps_exit_2_as_a_process(tmp_path):
    outdir = tmp_path / "maps"
    run = subprocess.run([sys.executable, str(SCRIPT), "--steps", "1", "--outdir", str(outdir)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("error: strength axis needs at least 2 steps")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr
    assert not outdir.exists()


@pytest.mark.parametrize("outdir", ["file", "file/sub"])
def test_unwritable_outdir_exits_3_as_a_process(tmp_path, outdir):
    """An --outdir that is a file, or lies under one, is an I/O error, not a traceback."""
    (tmp_path / "file").write_text("not a directory\n")
    target = tmp_path / outdir
    run = subprocess.run([sys.executable, str(SCRIPT), "--steps", "3", "--outdir", str(target)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 3
    assert run.stdout == ""
    error = "[Errno 17] File exists" if outdir == "file" else "[Errno 20] Not a directory"
    assert run.stderr == f"I/O error: {error}: '{target}'\n"
    assert (tmp_path / "file").read_text() == "not a directory\n"


STANDARD_MAPS = [(branch, tau, temperature)
                 for branch, tau, temperatures in load_script().FAMILIES
                 for temperature in temperatures]


@pytest.mark.parametrize("branch, tau, temperature", STANDARD_MAPS)
def test_mode_codes_index_the_scalar_modes(branch, tau, temperature, oracle_sweep):
    """``MODES[code]`` is ``reference.classify``'s mode, also for currents exactly at
    +-zero_tol."""
    epsilons, strengths = np.linspace(0.1, 3.0, 9), np.linspace(0.0, 1.0, 11)
    _, grid = branch_points(branch, epsilons[:, None], tau, temperature, strengths)
    qh, qc, w = (np.broadcast_to(x, (9, 11)) for x in grid)
    zero_tol = abs(float(qc[4, 5]))  # that cell's Qc sits exactly on the tolerance
    above = np.nextafter(zero_tol, np.inf)
    cases = [(qh, qc, w)]
    for k in range(3):
        for value in (zero_tol, -zero_tol, above, -above):
            currents = [qh, qc, w]
            currents[k] = np.full(qh.shape, value)
            cases.append(tuple(currents))
    for case in cases:
        codes = classify_grid(*case, zero_tol)[0]
        assert codes.shape == qh.shape
        assert [MODES[code] for code in codes.ravel().tolist()] == [
            classify(h, c, x, zero_tol).mode
            for h, c, x in zip(*(a.ravel().tolist() for a in case))]

    spec = GridSpec(branch, AxisSpec(0.0, 1.0, 11), AxisSpec(0.1, 3.0, 9), tau, temperature,
                    zero_tol)
    result, oracle = run_sweep(spec), oracle_sweep(spec)
    assert list(result.counts) == list(Mode)
    oracle_counts = Counter(c.result.mode for c in oracle.cells)
    assert result.counts == {m: oracle_counts[m] for m in Mode} == oracle.counts
    assert same(result.cells, oracle.cells)


def map_spec(branch, tau, temperature, steps) -> GridSpec:
    """A standard map's grid at ``steps`` points per axis, as the script sweeps it."""
    return GridSpec(branch, AxisSpec(0.0, 1.0, steps), AxisSpec(0.1, 3.0, steps), tau,
                    temperature)


def threshold_widths(branch, epsilon, tau, temperature) -> Counter:
    """Each mode's width on the strength axis [0, 1] from the branch's closed-form
    thresholds: the pieces between them, each with the mode of its midpoint."""
    th = branch_thresholds(branch, DotParams(epsilon, tau), temperature)
    edges, widths = sorted({0.0, 1.0, *th}), Counter()
    for lo, hi in zip(edges, edges[1:]):
        widths[expected_mode(branch, 0.5 * (lo + hi), th)] += hi - lo
    return widths


@pytest.mark.parametrize("steps", [51, 201])
@pytest.mark.parametrize("branch, tau, temperature", STANDARD_MAPS)
def test_mode_shares_are_the_threshold_widths(branch, tau, temperature, steps):
    """Each mode's share of a standard map is the width of the strength axis that the
    branch table gives it (``threshold_widths``) averaged over the grid's epsilon rows,
    within 3/(steps - 1): tunneling and temperature shape the maps as the closed-form
    phase diagram says.

    An interval of width w holds w (steps - 1) +- 1 of a row's grid points, so a row's
    share is within 2/steps of w; on the engine branch the a = 1/2 column adds 1/steps,
    since W = 0 makes every cell there undefined."""
    spec = map_spec(branch, tau, temperature, steps)
    epsilons = spec.epsilon_axis.points().tolist()
    widths = Counter()
    for epsilon in epsilons:
        widths.update(threshold_widths(branch, epsilon, tau, temperature))
    shares = mode_area_fractions(run_sweep(spec))
    for mode in Mode:
        assert abs(shares[mode] - widths[mode] / len(epsilons)) <= 3 / (steps - 1), mode


@pytest.mark.parametrize("steps", [51, 201])
@pytest.mark.parametrize("branch, tau, temperature", STANDARD_MAPS)
def test_every_cell_has_the_mode_its_thresholds_give(branch, tau, temperature, steps):
    """Every cell of a standard map has the mode that its row's closed-form thresholds
    give at its strength. A cell within ``verify.THRESHOLD_MARGIN`` of a threshold is
    skipped, and a row skips at most one: on the engine branch, the a = 1/2 column."""
    spec = map_spec(branch, tau, temperature, steps)
    cells = run_sweep(spec).cells
    strengths = cells.strengths.tolist()
    mismatches = []
    for epsilon, codes in zip(cells.epsilons.tolist(), cells.mode.tolist()):
        th = branch_thresholds(branch, DotParams(epsilon, tau), temperature)
        skipped = 0
        for strength, code in zip(strengths, codes):
            if min(abs(strength - x) for x in th) < THRESHOLD_MARGIN:
                skipped += 1
                continue
            predicted = expected_mode(branch, strength, th)
            if MODES[code] is not predicted:
                mismatches.append((epsilon, strength, MODES[code], predicted))
        assert skipped <= 1, epsilon
    assert not mismatches, (len(mismatches), mismatches[:3])


def cell_rows(spec: GridSpec) -> np.ndarray:
    """The (epsilon, tau, T, a, b) row of each cell of ``spec``'s grid, row-major, with the
    strength as b and a pinned or a = b as ``BRANCHES`` gives."""
    epsilon, strength = np.meshgrid(spec.epsilon_axis.points(), spec.strength_axis.points(),
                                    indexing="ij")
    rows = np.column_stack([epsilon.ravel(), np.full(epsilon.size, spec.tau),
                            np.full(epsilon.size, spec.temperature), strength.ravel(),
                            strength.ravel()])
    pinned_a = BRANCHES[spec.branch].pinned_a
    if pinned_a is not None:
        rows[:, 3] = pinned_a(thermal_factors(*rows[:, :3].T)[1])
    return rows


@pytest.mark.parametrize("steps", [51, 201])
@pytest.mark.parametrize("branch, tau, temperature", STANDARD_MAPS)
def test_both_routes_classify_every_cell_alike(branch, tau, temperature, steps):
    """The density-matrix ledger of each cell of a standard map, its currents taken by the
    branch's stroke roles, gives at the map's ``zero_tol`` the mode of the closed-form
    grid, with no cell skipped. The closed-form ledger of the same rows gives the grid's
    currents bit for bit, so the rows are the grid's points."""
    spec = map_spec(branch, tau, temperature, steps)
    cells = run_sweep(spec).cells
    rows, strokes = cell_rows(spec), BRANCHES[branch].strokes
    closed, matrix = run_cycle_closed_form_batch(rows), run_cycle_matrix_batch(rows)
    closed_du = (closed.dU1, closed.dU2, closed.dU3)
    for i, current in zip(strokes, (cells.Qh, cells.Qc, cells.W)):
        assert same(closed_du[i], current.ravel())
    matrix_du = (matrix.dU1, matrix.dU2, matrix.dU3)
    codes = mode_codes(*(matrix_du[i] for i in strokes), spec.zero_tol)
    assert np.array_equal(codes.reshape(cells.mode.shape), cells.mode)


# The largest admitted gap between the two ledgers, in units of u E for each dU and of u
# for each dS (u = 2^-53): over five times the worst gap seen, and the relative bound that
# a zero tolerance scaled with E (ROADMAP item 3) is to be sized from.
ROUTE_GAP_BOUND = 64


def route_gaps(rows: np.ndarray, matrix) -> np.ndarray:
    """The largest |matrix - closed form| over the rows, in units of u E for the dU fields
    and of u for the dS fields; ``matrix`` is the rows' matrix ledger."""
    closed = run_cycle_closed_form_batch(rows)
    gap = np.hypot(rows[:, 0], rows[:, 1])
    return np.array([np.max(np.abs(getattr(matrix, f) - getattr(closed, f))
                            / (gap if f.startswith("dU") else 1.0))
                     for f in LEDGER_FIELDS]) / 2.0**-53


# The largest admitted difference between the spectra of the work stroke's two states, in
# units of u: over six times the worst seen (2.5 u).
WORK_SPECTRUM_BOUND = 16


def work_stroke_gaps(rows: np.ndarray, matrix, work: int) -> tuple[float, float]:
    """On the matrix route, the work stroke ``work`` (an index into dU1..dU3) maps a state
    to one with its spectrum. So the passive energies -E (lam_+ - lam_-) of the two states
    agree, and W is the change in ergotropy U + E (lam_+ - lam_-). Gives the largest
    spectrum difference over the rows, in u, and the largest |W - change in ergotropy|,
    in u E."""
    h = hamiltonian(DotParams(rows[:, 0], rows[:, 1]))
    gap = np.hypot(rows[:, 0], rows[:, 1])
    states = (matrix.rho1, matrix.rho2, matrix.rho3)
    before, after = states[work - 1], states[work]  # stroke 1 runs rho3 -> rho1
    lam_before, lam_after = np.linalg.eigvalsh(before), np.linalg.eigvalsh(after)
    ergotropy = [internal_energy(h, rho) + gap * (lam[:, 1] - lam[:, 0])
                 for rho, lam in ((before, lam_before), (after, lam_after))]
    w = (matrix.dU1, matrix.dU2, matrix.dU3)[work]
    return (np.max(np.abs(lam_after - lam_before)) / 2.0**-53,
            np.max(np.abs(w - (ergotropy[1] - ergotropy[0])) / gap) / 2.0**-53)


def test_route_gap_census():
    """Over 200,000 rows of ``verify``'s cycle distribution (seed 7) and every cell of the
    14 standard maps at 201^2, the two ledgers differ by at most ``ROUTE_GAP_BOUND``. The
    worst seen is 9.27 u E in dU and 6.13 u in dS on the rows, and 11.68 u E and 6 u on
    the maps. On the maps, the work stroke's two states also have spectra within
    ``WORK_SPECTRUM_BOUND``, and W is the change in ergotropy within ``ROUTE_GAP_BOUND``
    u E; the worst seen is 2.5 u in the spectra and 7.85 u E in W."""
    rng = np.random.default_rng(7)
    worst = np.zeros(len(LEDGER_FIELDS))
    for _ in range(4):  # 50,000 rows at a time, to keep the stacks small
        rows = rng.uniform(verify._CYCLE_LOW, verify._CYCLE_HIGH, (50_000, 5))
        worst = np.maximum(worst, route_gaps(rows, run_cycle_matrix_batch(rows)))
    worst_work = np.zeros(2)
    for branch, tau, temperature in STANDARD_MAPS:
        rows = cell_rows(map_spec(branch, tau, temperature, 201))
        matrix = run_cycle_matrix_batch(rows)
        worst = np.maximum(worst, route_gaps(rows, matrix))
        work = BRANCHES[branch].strokes[2]
        worst_work = np.maximum(worst_work, work_stroke_gaps(rows, matrix, work))
    assert np.all(worst <= ROUTE_GAP_BOUND), dict(zip(LEDGER_FIELDS, worst))
    assert worst_work[0] <= WORK_SPECTRUM_BOUND, worst_work
    assert worst_work[1] <= ROUTE_GAP_BOUND, worst_work
