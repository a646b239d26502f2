import contextlib
import csv
import io
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import susyqw
from susyqw import bloch, cli, midgap
from susyqw import (BoundaryReachedError, Frame, band_condition_value, band_structure,
                    find_midgap, long_time_extrapolation, make_coin_profile, midgap_spectrum,
                    prepare_input, qwp_scan, ring_with_interfaces, segment_for, site_polarization,
                    to_frame)
from susyqw.cli import _summary, _table, main

from helpers import record_calls, trajectory


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_dict(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, _, val = line[2:].partition(" = ")
            out[key] = val
    return out


def read_rows(text):
    data = "\n".join(l for l in text.splitlines() if l and not l.startswith("#"))
    return list(csv.DictReader(io.StringIO(data)))


def test_evolve_table_shape_and_sums(capsys):
    code, out, err = run_cli(["evolve", "--steps", "13", "--kind", "interface"], capsys)
    assert code == 0 and err == ""
    rows = read_rows(out)
    n_sites = 2 * 13 + 5
    assert len(rows) == 14 * n_sites
    for t in range(14):
        for frame in ("lab", "primed"):
            total = sum(float(r[f"p_{frame}_h"]) + float(r[f"p_{frame}_v"])
                        for r in rows if int(r["step"]) == t)
            assert total == pytest.approx(1.0, abs=1e-9)
    summary = summary_dict(out)
    assert summary["heaviest_site"] == "0"  # trapped column at the interface
    assert float(summary["heaviest_probability"]) > 0.5


def test_evolve_frame_selection(capsys):
    code, out, _ = run_cli(["evolve", "--steps", "3", "--frame", "primed"], capsys)
    assert code == 0
    rows = read_rows(out)
    assert set(rows[0]) == {"step", "x", "p_primed_h", "p_primed_v"}
    code, _, err = run_cli(["tomo", "--steps", "5", "--frame", "lab"], capsys)
    assert code == 0


def test_evolve_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"steps": 3, "phi_one": 1.0}))
    code, _, err = run_cli(["evolve", "--config", str(cfg)], capsys)
    assert code == 2
    assert "phi_one" in err


def test_evolve_angle_suffix_parsing(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"steps": 2, "phi1": "1.29rad", "phi2": "0.17",
                               "plates": ["qwp:137deg"]}))
    code, out, _ = run_cli(["evolve", "--config", str(cfg)], capsys)
    assert code == 0
    assert float(summary_dict(out)["final_norm"]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_suffixed_angle_is_summarized_as_a_plain_float(source, tmp_path, capsys):
    argv = ["bands", "--resolution", "8"]
    if source == "flag":
        argv += ["--phi1", "57deg"]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"phi1": "57deg"}))
        argv += ["--config", str(cfg)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert float(summary_dict(out)["phi1"]) == float(np.deg2rad(57))


# +-0.0, nan, +-inf, subnormals and values near 1e-300 next to ordinary floats
SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                                  5e-324, -5e-324, 2.2250738585072009e-308, 1e-300,
                                  -1.0000000000000001e-300])
CELL_VALUES = {
    "int": (np.int64, st.integers(min_value=-2**63, max_value=2**63 - 1)),
    "float": (np.float64, st.one_of(SPECIAL_FLOATS, st.floats(),
                                    st.floats(min_value=1e-310, max_value=1e-290))),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       kinds=st.lists(st.sampled_from(sorted(CELL_VALUES)), min_size=1, max_size=5))
def test_table_writes_the_naive_repr_join(data, kinds):
    """Every row is ",".join(map(repr, row)), whatever the zeros, signs and specials."""
    blocks = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        rows = data.draw(st.integers(min_value=0, max_value=12))
        blocks.append([np.array(data.draw(st.lists(CELL_VALUES[k][1], min_size=rows,
                                                   max_size=rows)), dtype=CELL_VALUES[k][0])
                       for k in kinds])
    header = [f"c{j}" for j in range(len(kinds))]
    expected = ",".join(header) + "\n" + "".join(
        ",".join(map(repr, row)) + "\n"
        for block in blocks for row in zip(*(col.tolist() for col in block)))
    assert "".join(_table(header, blocks)) == expected


@pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.float32(0.1), np.float64(-0.0),
                                   np.float32(np.inf), np.float64(1 / 3)])
def test_note_writes_every_float_as_the_python_repr(value):
    """A NumPy float reads like the Python float of the same value, not as np.float64(...)."""
    assert _summary([("x", value)]) == f"# x = {float(value)!r}\n"


@pytest.mark.parametrize("kind", ["interface", "bulk", "uniform"])
def test_evolve_cells_outside_the_light_cone_are_exact_zeros(kind, capsys):
    """After t steps from x0 only |x - x0| <= t with x - x0 + t even can be occupied."""
    steps, x0 = 40, 1
    code, out, _ = run_cli(["evolve", "--steps", str(steps), "--plate", "qwp:30",
                            "--frame", "both", "--kind", kind], capsys)
    assert code == 0
    columns = ["p_lab_h", "p_lab_v", "p_primed_h", "p_primed_v"]
    edges = 0
    for row in read_rows(out):
        t, d = int(row["step"]), int(row["x"]) - x0
        cells = [row[c] for c in columns]
        if abs(d) > t or (d + t) % 2:
            assert cells == ["0.0"] * 4, (t, d)
        elif abs(d) == t and t >= 1:
            assert any(float(c) > 0 for c in cells), (t, d)
            edges += 1
    assert edges == 2 * steps


def _evolve_table(steps):
    lattice = segment_for(1, steps)
    profile = make_coin_profile("interface", lattice, phi1=1.29, phi2=0.17)
    walk = trajectory(prepare_input(1, [("qwp", 30.0)], lattice), profile, steps)
    return {f"p_{frame.value}_{c}": np.concatenate(
                [to_frame(st, profile, frame).probabilities()[:, i] for st in walk])
            for frame in (Frame.LAB, Frame.PRIMED) for i, c in enumerate("hv")}


def _bands_table():
    eps = band_structure(1.0, 0.2, resolution=64).quasienergies
    return {f"eps{b + 1}": eps[:, b] for b in range(4)}


def _scan_table(cell):
    scan = long_time_extrapolation if cell else qwp_scan
    lattice = segment_for(1, 13)
    return {kind: scan(make_coin_profile(kind, lattice, phi1=1.29, phi2=0.17), 13, 0,
                       np.arange(0.0, 180.0, 5.0)).intensities
            for kind in ("interface", "bulk")}


def _midgap_table(cols):
    profile = ring_with_interfaces(40, 1.29, 0.17)
    states = find_midgap(midgap_spectrum(profile))
    stokes = np.array([site_polarization(states[int(j)], profile, int(x))
                       for j, x in zip(cols["state"], cols["x"])])
    return {"s1": stokes[:, 0], "s2": stokes[:, 1], "s3": stokes[:, 2]}


# (flags, library columns by name: from nothing, or from the table's own columns)
EXACT_TABLES = [
    pytest.param(["evolve", "--steps", "9", "--frame", "both", "--plate", "qwp:30"],
                 lambda cols: _evolve_table(9), id="evolve"),
    # 85 sites, 41 steps: table blocks of 12, 12, 12 and 5 steps
    pytest.param(["evolve", "--steps", "40", "--frame", "both", "--plate", "qwp:30"],
                 lambda cols: _evolve_table(40), id="evolve-blocks"),
    # 91 sites, 44 steps: exactly 4 table blocks of 11 steps, no partial block
    pytest.param(["evolve", "--steps", "43", "--frame", "both", "--plate", "qwp:30"],
                 lambda cols: _evolve_table(43), id="evolve-full-blocks"),
    pytest.param(["bands", "--phi1", "1", "--phi2", "0.2", "--resolution", "64"],
                 lambda cols: _bands_table(), id="bands"),
    pytest.param(["scan", "--steps", "13", "--angles", "0:180:5"],
                 lambda cols: _scan_table(False), id="scan"),
    pytest.param(["scan", "--steps", "13", "--angles", "0:180:5", "--cell"],
                 lambda cols: _scan_table(True), id="scan-cell"),
    pytest.param(["midgap", "--n", "40"], _midgap_table, id="midgap"),
]


@pytest.mark.parametrize("argv, library", EXACT_TABLES)
def test_csv_cells_read_back_the_library_values(argv, library, capsys):
    """float(cell) is bit for bit the float64 the library returns."""
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    rows = read_rows(out)
    cols = {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}
    expected = library(cols)
    assert expected and all(v.size == len(rows) for v in expected.values())
    for key, values in expected.items():
        np.testing.assert_array_equal(cols[key], values, err_msg=key, strict=True)


# (command, config or None, flags, text stderr must hold).  A bad setting is
# named as "key:"; a ring, segment or site the library rejects is named by
# the library's own message.
MISREAD_INPUTS = [
    pytest.param("evolve", {"steps": "many"}, [], "steps: must be an integer",
                 id="evolve-steps-many"),
    pytest.param("scan", {"cell": "false"}, [], "cell:", id="scan-cell-string"),
    pytest.param("evolve", {"steps": 2.7}, [], "steps:", id="evolve-steps-float"),
    pytest.param("evolve", {"steps": True}, [], "steps:", id="evolve-steps-bool"),
    pytest.param("evolve", {"steps": -1}, [], "steps:", id="evolve-steps-negative"),
    pytest.param("midgap", {"n": 40.9}, [], "n:", id="midgap-n-float"),
    pytest.param("midgap", {"tol": float("nan")}, [], "tol:", id="midgap-tol-nan"),
    pytest.param("midgap", None, ["--tol", "nan"], "tol:", id="midgap-tol-nan-flag"),
    pytest.param("midgap", None, ["--tol", "inf"], "tol:", id="midgap-tol-inf-flag"),
    pytest.param("tomo", {"noise": float("nan")}, [], "noise:", id="tomo-noise-nan"),
    pytest.param("tomo", {"noise": -0.5}, [], "noise:", id="tomo-noise-negative"),
    pytest.param("tomo", {"noise": "abc"}, [], "noise:", id="tomo-noise-string"),
    pytest.param("midgap", {"tol": "x"}, [], "tol:", id="midgap-tol-string"),
    pytest.param("tomo", {"seed": "s"}, [], "seed:", id="tomo-seed-string"),
    pytest.param("midgap", None, ["--n", "13"], "even N", id="midgap-odd-ring"),
    pytest.param("tomo", None, ["--steps", "3", "--site", "1000"], "site 1000",
                 id="tomo-site-outside"),
    pytest.param("evolve", {"size": 5}, [], "unknown config keys for evolve: ['size']",
                 id="evolve-size-unknown"),
    pytest.param("bands", {"out": 5}, [], "out: must be a string, got 5", id="bands-out-int"),
    pytest.param("bands", {"out": ["x"]}, [], "out: must be a string, got ['x']",
                 id="bands-out-list"),
    pytest.param("evolve", {"out": True}, [], "out: must be a string, got True",
                 id="evolve-out-bool"),
    pytest.param("tomo", None, ["--steps", "1", "--site", "1"], "site: the walk from site 1 "
                 "never occupies site 1 after 1 steps", id="tomo-site-wrong-parity"),
    pytest.param("tomo", None, ["--steps", "0"], "never occupies site 0 after 0 steps",
                 id="tomo-site-zero-steps"),
    pytest.param("tomo", None, ["--steps", "4", "--site", "7"],
                 "never occupies site 7 after 4 steps; it reaches x only where "
                 "|x - 1| <= steps and x - 1 + steps is even", id="tomo-site-past-the-cone"),
    pytest.param("scan", None, ["--angles", "nan:180:1"], "angles:", id="scan-grid-nan"),
    pytest.param("scan", None, ["--steps", "13", "--probe-site", "1"],
                 "probe_site: the walk from site 1 never occupies site 1 after 13 steps; it "
                 "reaches x only where |x - 1| <= steps and x - 1 + steps is even",
                 id="scan-probe-wrong-parity"),
    pytest.param("scan", None, ["--steps", "0"], "probe_site: the walk from site 1 never "
                 "occupies site 0 after 0 steps", id="scan-probe-zero-steps"),
    pytest.param("scan", None, ["--steps", "13", "--probe-site", "15", "--cell"],
                 "probe_site: the walk from site 1 never occupies site 15 or 16 after 13 steps",
                 id="scan-cell-past-the-cone"),
    pytest.param("scan", None, ["--steps", "13", "--probe-site", "-14", "--cell"],
                 "probe_site: the walk from site 1 never occupies site -14 or -13 after 13 steps",
                 id="scan-cell-below-the-cone"),
    pytest.param("evolve", {"plates": [["qwp", 10, 3]]}, [], "plates:",
                 id="evolve-plate-triple"),
    pytest.param("evolve", {"kind": "ring"}, [], "kind:", id="evolve-kind-unknown"),
    pytest.param("bands", None, ["--resolution", "0"], "resolution:", id="bands-resolution-zero"),
    pytest.param("bands", None, ["--resolution", "-3"], "resolution:",
                 id="bands-resolution-negative"),
    pytest.param("winding", None, ["--resolution", "10"], "resolution:",
                 id="winding-resolution-low"),
    pytest.param("bands", None, ["--phi1", "abc"], "phi1: must be a finite number",
                 id="bands-phi1-string"),
    pytest.param("bands", None, ["--phi1", "inf"], "phi1: must be a finite number",
                 id="bands-phi1-inf"),
    pytest.param("evolve", {"plates": "qwp:10"}, [], "plates: must be a list",
                 id="evolve-plates-string"),
    pytest.param("evolve", None, ["--plate", "xwp:10"], "plates: must be one of qwp, hwp",
                 id="evolve-plate-kind-unknown"),
    pytest.param("scan", None, ["--angles", "0:180"], "angles:", id="scan-grid-two-fields"),
    # os.devnull is a file, so nothing can lie below it
    pytest.param("bands", None, ["--config", os.path.join(os.devnull, "run.json")],
                 "cannot read config", id="bands-config-missing"),
    pytest.param("bands", [1, 2], [], "config must be a JSON object", id="bands-config-list"),
]


@pytest.mark.parametrize("command, config, flags, expected", MISREAD_INPUTS)
def test_config_type_errors_exit_two(command, config, flags, expected, tmp_path, capsys,
                                     monkeypatch):
    """Exit 2 with the setting named, and no file written (a relative --out included)."""
    argv = [command, *flags]
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    workdir = tmp_path / "work"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    code, out, err = run_cli(argv, capsys)
    assert code == 2, out
    assert err.startswith("susyqw: configuration error: ") and expected in err
    assert list(workdir.iterdir()) == []


# values a setting may be given: non-finite and overflowing numbers, int64
# edges, booleans, null, bad strings and lists, next to a few valid ones.  A
# step count, ring size or resolution drawn from it is small or cannot be
# allocated, so every run is quick.
CONTRACT_VALUES = [math.nan, math.inf, 1e300, 10**400, 2**63, 2**63 - 2, -1, 0, 3, 12,
                   True, False, None, "", "abc", "1e308rad", "10deg", "bulk", "primed",
                   "0:180:7.5", "0:1e17:1", [], ["hwp:1e308rad", "QWP:30"], [["qwp", 5]],
                   [1, 2]]


# a device that refuses every write with ENOSPC
DEV_FULL = "/dev/full"
needs_dev_full = pytest.mark.skipif(not os.path.exists(DEV_FULL), reason="no /dev/full")


@st.composite
def contract_draws(draw):
    """A command, values for up to three of its settings and, at times, ``--out`` /dev/full."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    keys = sorted(set(cli._COMMANDS[command][2]) - {"out"})
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=3))
    values = {key: draw(st.sampled_from(CONTRACT_VALUES)) for key in chosen}
    if os.path.exists(DEV_FULL) and draw(st.booleans()):
        values["out"] = DEV_FULL
    return command, values


def flag_form(command, values):
    """The argv and the config left over when each value that has a flag goes as one."""
    table = cli._COMMANDS[command][2]
    argv, config = [command], {}
    for key, value in values.items():
        flag = table[key][0]
        if key == "cell" and isinstance(value, bool):
            argv += [flag] * value
        elif key == "plates" and isinstance(value, list) and all(isinstance(v, str) for v in value):
            argv += [f"{flag}={v}" for v in value]
        elif key not in ("cell", "plates") and isinstance(value, (int, float, str)):
            argv.append(f"{flag}={value}")
        else:
            config[key] = value
    return argv, config


def contract_run(argv, config):
    """(exit code, stdout, stderr) of one in-process run; a warning is a stderr line too."""
    with tempfile.TemporaryDirectory() as tmp:
        if config:
            path = os.path.join(tmp, "run.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            argv = [*argv, "--config", path]
        with (contextlib.redirect_stdout(io.StringIO()) as out,
              contextlib.redirect_stderr(io.StringIO()) as err,
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = main(argv)
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                    for w in caught)
    return code, out.getvalue(), err.getvalue() + shown


@settings(max_examples=40, deadline=None)
@given(draw=contract_draws())
@example(("bands", {"phi1": 10**400}))
@example(("evolve", {"plates": ["hwp:1e308rad"]}))
@example(("evolve", {"kind": "bulk", "input_site": 10**20}))
@example(("winding", {"resolution": 2**63 - 2}))
@example(("tomo", {"noise": 1e308, "seed": 3}))
def test_cli_contract(draw):
    """Whatever the settings: exit 0, 2 or 3, one "susyqw: " line on failure and
    no nan on success; a rerun gives the same bytes, and the flag form the
    same exit code and stdout (its stderr quotes the value as typed)."""
    command, values = draw
    config = contract_run([command], values)
    flags = contract_run(*flag_form(command, values))
    for code, out, err in (config, flags):
        assert code in (0, 2, 3)
        if code:
            assert err.startswith("susyqw: ") and err.count("\n") == 1 and err.endswith("\n")
        else:
            assert err == "" and "nan" not in out
    assert contract_run([command], values) == config
    assert flags[:2] == config[:2]


def test_evolve_far_input_site_names_the_interface(capsys):
    code, out, err = run_cli(["evolve", "--steps", "2", "--input-site", "1000000"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("susyqw: configuration error: input_site:")
    assert "1000000" in err and "interface bond (0, 1)" in err


def test_cached_parser_survives_early_exits(capsys):
    argv = ["tomo", "--steps", "5", "--plate", "qwp:30"]
    first = run_cli(argv, capsys)
    with pytest.raises(SystemExit) as version:
        main(["--version"])
    assert version.value.code == 0
    with pytest.raises(SystemExit) as usage:
        main(["tomo", "--no-such-flag"])
    assert usage.value.code == 2
    capsys.readouterr()
    assert run_cli(argv, capsys) == first


def fail_walk_after(monkeypatch, steps):
    """Make the walk of ``cli.cmd_evolve`` raise after ``steps`` steps, as one that met an edge."""
    made = cli.advance

    def advance(*args):
        yield from itertools.islice(made(*args), steps)
        raise BoundaryReachedError("walk reached boundary")

    monkeypatch.setattr(cli, "advance", advance)


def test_evolve_failure_mid_walk_keeps_the_rows_written_before_it(monkeypatch, capsys):
    """85 sites hold 12 steps per table block; a walk that fails at step 31 wrote two blocks."""
    fail_walk_after(monkeypatch, 30)
    code, out, err = run_cli(["evolve", "--steps", "40"], capsys)
    assert code == 3
    assert err == "susyqw: walk reached boundary\n"
    lines = out.splitlines()
    assert lines[0] == "step,x,p_lab_h,p_lab_v,p_primed_h,p_primed_v"
    rows = read_rows(out)
    assert [int(row["step"]) for row in rows] == [t for t in range(24) for _ in range(85)]
    assert [int(row["x"]) for row in rows] == list(range(-41, 44)) * 24
    assert not any(line.startswith("# ") for line in lines)


def test_evolve_formats_each_column_once_per_block(monkeypatch, capsys):
    """14 steps of 31 sites fit one table block: one ``_cells`` call per column."""
    calls = record_calls(monkeypatch, cli, "_cells")
    code, out, _ = run_cli(["evolve", "--steps", "13", "--frame", "both"], capsys)
    assert code == 0
    assert len(read_rows(out)) == 14 * 31
    assert [col.size for col, _ in calls] == [14 * 31] * 6


@pytest.mark.parametrize("argv, out_name", [
    (["bands", "--resolution", "8"], "missing/bands.csv"),
    (["evolve", "--steps", "3"], "."),
], ids=["bands-missing-directory", "evolve-directory"])
def test_unwritable_out_exits_two(argv, out_name, tmp_path, capsys):
    code, out, err = run_cli([*argv, "--out", str(tmp_path / out_name)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("susyqw: configuration error: out: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, failing_walk, expected_code", [
    (["evolve", "--steps", "10"], True, 3),
    (["tomo", "--steps", "3", "--site", "1000"], False, 2),
], ids=["evolve-boundary", "tomo-site-outside"])
def test_failed_run_leaves_no_partial_out(argv, failing_walk, expected_code, tmp_path, capsys,
                                          monkeypatch):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    if failing_walk:
        fail_walk_after(monkeypatch, 2)
    code, _, _ = run_cli([*argv, "--out", str(out_dir / "result.csv")], capsys)
    assert code == expected_code
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("argv, expected_code", [
    (["midgap", "--n", "12", "--tol", "2.5"], 3),
    (["winding", "--phi1", "0.7", "--phi2", "0.7"], 3),
    (["tomo", "--steps", "3", "--site", "1000"], 2),
    (["scan", "--steps", "3", "--probe-site", "1000"], 2),
], ids=["midgap-tolerance", "winding-gap-closed", "tomo-site-outside", "scan-probe-outside"])
def test_failed_computation_keeps_an_existing_out(argv, expected_code, tmp_path, capsys):
    """Commands other than evolve open --out only once their results are computed."""
    out_file = tmp_path / "result.csv"
    out_file.write_text("earlier results\n")
    code, _, _ = run_cli([*argv, "--out", str(out_file)], capsys)
    assert code == expected_code
    assert out_file.read_text() == "earlier results\n"


# each size asks for >= 1e17 array elements, an allocation no host can make,
# so it fails at once without committing memory; near 2**63 points np.linspace
# returns an empty grid instead of failing, and the k grid reports it the same way
@pytest.mark.parametrize("argv", [
    ["scan", "--angles", "0:1e17:1"],
    ["bands", "--resolution", "100000000000000000"],
    ["winding", "--resolution", "100000000000000000"],
    ["evolve", "--steps", "100000000000000000"],
    ["tomo", "--steps", "100000000000000000"],
    ["midgap", "--n", "100000000000000000"],
    ["bands", "--resolution", "9223372036854775806"],
    ["winding", "--resolution", "9223372036854775806"],
], ids=["scan", "bands", "winding", "evolve", "tomo", "midgap", "bands-2**63-2",
        "winding-2**63-2"])
def test_unallocatable_size_exits_three(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("susyqw: ") and err.count("\n") == 1
    assert "allocate" in err and "Traceback" not in err


def test_failed_run_keeps_a_symlink_out(tmp_path, capsys, monkeypatch):
    """A partial --out is removed only where the path itself is a regular file."""
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("")
    link.symlink_to(target)
    fail_walk_after(monkeypatch, 2)
    code, _, _ = run_cli(["evolve", "--steps", "10", "--out", str(link)], capsys)
    assert code == 3
    assert link.is_symlink() and target.is_file()


# one small run of each command: evolve's body is lazy, the others' made
SMALL_RUNS = {"bands": ["bands", "--resolution", "8"],
              "winding": ["winding", "--resolution", "256"],
              "midgap": ["midgap", "--n", "12"],
              "scan": ["scan", "--steps", "3"],
              "tomo": ["tomo"],
              "evolve": ["evolve", "--steps", "3"]}


@pytest.mark.parametrize("earlier", [b"#" * 65536, b"x", b"", b"xy"],
                         ids=["longer", "shorter", "empty", "two-bytes"])
@pytest.mark.parametrize("argv", SMALL_RUNS.values(), ids=SMALL_RUNS)
def test_existing_out_ends_holding_exactly_the_new_text(argv, earlier, tmp_path, capsys):
    """An earlier --out file is rewritten to the bytes a stdout run prints, then cut there."""
    code, text, _ = run_cli(argv, capsys)
    assert code == 0
    out_file = tmp_path / "result.csv"
    out_file.write_bytes(earlier)
    code, _, _ = run_cli([*argv, "--out", str(out_file)], capsys)
    assert code == 0
    assert out_file.read_bytes() == text.encode()


def test_symlink_out_rewrites_and_cuts_its_target(tmp_path, capsys):
    """A made body (tomo) and a lazy one (evolve) each write through the link."""
    for argv in (SMALL_RUNS["tomo"], SMALL_RUNS["evolve"]):
        code, text, _ = run_cli(argv, capsys)
        assert code == 0
        target, link = tmp_path / f"{argv[0]}.csv", tmp_path / f"{argv[0]}-link.csv"
        target.write_bytes(b"#" * 65536)
        link.symlink_to(target)
        code, _, _ = run_cli([*argv, "--out", str(link)], capsys)
        assert code == 0
        assert link.is_symlink() and target.read_bytes() == text.encode()


@pytest.mark.parametrize("argv", SMALL_RUNS.values(), ids=SMALL_RUNS)
def test_device_out_is_written_through_and_never_cut(argv, capsys):
    """Only a regular file is truncated after the write: ftruncate fails on a device."""
    code, out, err = run_cli([*argv, "--out", os.devnull], capsys)
    assert code == 0 and err == ""
    assert out and all(line.startswith("# ") for line in out.splitlines())


def child_env():
    """The environment of a child Python process that imports this checkout's package."""
    src = str(Path(susyqw.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def cli_process(argv, **kwargs):
    """``python -m susyqw.cli argv`` as a child process, with this checkout's package."""
    return subprocess.Popen([sys.executable, "-m", "susyqw.cli", *argv],
                            env=child_env(), text=True, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("name", ["tomo", "evolve"])
def test_pipe_out_is_written_through(name, capsys):
    """``--out /dev/stdout`` on a pipe: a stream that cannot seek, so it is never told or cut."""
    code, text, _ = run_cli(SMALL_RUNS[name], capsys)
    assert code == 0
    with cli_process([*SMALL_RUNS[name], "--out", "/dev/stdout"],
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, "")
    summary = text[text.index("\n# ") + 1:]  # from the first "# " line on
    assert out == text + summary


def assert_one_write_error(code, err):
    assert code == 3
    assert err.startswith("susyqw: cannot write output: ") and err.count("\n") == 1
    assert "Traceback" not in err


@needs_dev_full
def test_evolve_out_on_a_full_device_exits_three():
    with cli_process(["evolve", "--steps", "3", "--out", DEV_FULL],
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        out, err = proc.communicate(timeout=120)
    assert_one_write_error(proc.returncode, err)
    assert "No space left" in err and out == ""


def test_stdout_closed_by_its_reader_exits_three():
    """``bands --resolution 20000 | head -1``: EPIPE in the body, then no second
    error at the interpreter's last flush of stdout."""
    with cli_process(["bands", "--resolution", "20000"],
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=120)
    assert first.startswith("k,eps1,")
    assert_one_write_error(proc.returncode, err)
    assert "Broken pipe" in err


class LoggedFile:
    """An open file that logs each write and each cut, with the length a cut leaves."""

    def __init__(self, fh, log):
        self.fh, self.log = fh, log

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def write(self, text):
        self.log.append("write")
        return self.fh.write(text)

    def writelines(self, parts):
        self.log.append("write")
        return self.fh.writelines(parts)

    def truncate(self):
        self.log.append(("cut", self.fh.tell()))
        return self.fh.truncate()


@pytest.mark.parametrize("argv", SMALL_RUNS.values(), ids=SMALL_RUNS)
def test_no_out_is_opened_truncating_or_cut_to_zero(argv, monkeypatch, tmp_path, capsys):
    """Over a 64 KB earlier --out: evolve's lazy body cuts it to one byte before it
    writes; a made body cuts it where the new text ends, after its summary."""
    code, text, _ = run_cli(argv, capsys)
    assert code == 0
    out_file = tmp_path / "result.csv"
    out_file.write_bytes(b"#" * 65536)
    log, ftruncate = [], os.ftruncate

    def logged_ftruncate(fd, length):
        log.append(("cut", length))
        return ftruncate(fd, length)

    opens = record_calls(monkeypatch, os, "open")
    monkeypatch.setattr(os, "ftruncate", logged_ftruncate)
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: LoggedFile(open(*args, **kwargs), log),
                        raising=False)
    code, _, _ = run_cli([*argv, "--out", str(out_file)], capsys)
    assert code == 0 and out_file.read_bytes() == text.encode()
    [flags] = [flags for path, flags, *_ in opens if path == str(out_file)]
    assert not flags & os.O_TRUNC
    if argv[0] == "evolve":
        assert log == [("cut", 1), "write", "write"]
    else:  # the body, the summary, then the cut
        assert log == ["write", "write", ("cut", len(text.encode()))]


# bodies of 34 KB and 16 KB over a 64 KB earlier file
@pytest.mark.parametrize("argv", [["bands", "--resolution", "256"], ["evolve", "--steps", "13"]],
                         ids=["made", "lazy"])
def test_killed_write_over_an_existing_out(argv, tmp_path, capsys):
    """SIGKILL after the body, before the summary: what the in-place write risks.

    A made body leaves the earlier file's tail and summary after whatever of
    the new text reached the file; evolve's one-byte cut before its body
    leaves a prefix of its own text only.
    """
    code, text, _ = run_cli(argv, capsys)
    assert code == 0
    new = text.encode()
    out_file = tmp_path / "result.csv"
    earlier = b"#" * 65536 + b"\n# earlier = summary\n"
    out_file.write_bytes(earlier)
    script = ("import os, signal\nfrom susyqw import cli\n"
              "cli._summary = lambda notes: os.kill(os.getpid(), signal.SIGKILL)\n"
              f"cli.main({[*argv, '--out', str(out_file)]!r})\n")
    result = subprocess.run([sys.executable, "-c", script], env=child_env(), timeout=120)
    assert result.returncode == -signal.SIGKILL
    data = out_file.read_bytes()
    if argv[0] == "evolve":
        assert new.startswith(data)
    else:
        written = len(os.path.commonprefix([data, new]))
        assert data == new[:written] + earlier[written:]
        assert data.endswith(b"\n# earlier = summary\n")


# 85 sites hold 12 steps per table block: the 40-step walk writes its header, then
# 4 blocks of 23-49 KB, so 0 and 1 blocks stop short of the 64 KB earlier file's end
@pytest.mark.parametrize("blocks", [0, 1, 3])
def test_evolve_killed_mid_walk_leaves_no_earlier_summary(blocks, tmp_path, capsys):
    """SIGKILL after the header and ``blocks`` table blocks of evolve over an earlier file.

    What is left is the earlier file's first byte, kept by the one-byte cut
    until the first buffer reaches the file, or a prefix of the new text.
    """
    argv = ["evolve", "--steps", "40", "--frame", "both"]
    code, text, _ = run_cli(argv, capsys)
    assert code == 0
    new = text.encode()
    out_file = tmp_path / "result.csv"
    earlier = b"#" * 65536 + b"\n# earlier = summary\n"
    out_file.write_bytes(earlier)
    script = ("import os, signal\nfrom susyqw import cli\ntable = cli._table\n"
              "def killing(header, blocks):\n"
              "    for i, part in enumerate(table(header, blocks)):\n"
              f"        if i > {blocks}:\n"
              "            os.kill(os.getpid(), signal.SIGKILL)\n"
              "        yield part\n"
              "cli._table = killing\n"
              f"cli.main({[*argv, '--out', str(out_file)]!r})\n")
    result = subprocess.run([sys.executable, "-c", script], env=child_env(), timeout=120)
    assert result.returncode == -signal.SIGKILL
    data = out_file.read_bytes()
    assert data == earlier[:1] or new.startswith(data)
    assert b"earlier = summary" not in data


@pytest.mark.parametrize("size", [2**63 - 2, 2**63])
def test_evolve_lattice_too_large_to_lay_out_exits_three(size, monkeypatch, capsys):
    """np.arange of about 2**63 is empty, so such a lattice once met a ZeroDivisionError.

    ``--steps`` lays out only odd site counts, so these even counts are laid out
    by patching the CLI's ``segment_for``, centred on the input site."""
    monkeypatch.setattr(cli, "segment_for", lambda x0, steps: susyqw.Lattice(
        size, susyqw.Topology.SEGMENT, origin=x0 - size // 2))
    code, out, err = run_cli(["evolve"], capsys)
    assert (code, out) == (3, "")
    assert err == f"susyqw: lattice of {size} sites is too large to lay out\n"


def test_evolve_steps_too_many_to_lay_out_exits_three(capsys):
    """2 * steps + 5 = 2**63 - 1 sites: the same exit and message through ``--steps``."""
    code, out, err = run_cli(["evolve", "--steps", "4611686018427387901"], capsys)
    assert (code, out) == (3, "")
    assert err == f"susyqw: lattice of {2**63 - 1} sites is too large to lay out\n"


@pytest.mark.parametrize("input_site", ["9223372036854775808", "9223372036854775806",
                                        "-9223372036854775807"])
def test_evolve_segment_past_int64_exits_three(input_site, capsys):
    """A segment coordinate past the int64 range once wrapped to the other sign, with exit 0."""
    argv = ["evolve", "--kind", "bulk", "--steps", "2", "--input-site", input_site]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("susyqw: sites [") and err.endswith("leave the int64 range\n")
    assert err.count("\n") == 1


def test_tomo_at_an_empty_site_inside_the_light_cone_exits_three(capsys):
    """With the identity coin the walk from site 1 moves H up: site 0 lies in the light
    cone but is not occupied."""
    code, out, err = run_cli(["tomo", "--steps", "1", "--site", "0", "--phi1", "0",
                              "--phi2", "0"], capsys)
    assert (code, out) == (3, "")
    assert err == "susyqw: zero total intensity\n"


def test_evolve_memory_is_flat_in_the_step_count(tmp_path):
    """Each step is written before the next is made: no trajectory is held."""
    stdout = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(["evolve", "--steps", "400", "--frame", "both",
                         "--out", str(tmp_path / "walk.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 4e6, f"peak {peak / 1e6:.2f} MB"


def test_bands_residual_column_and_gap_footer(tmp_path, capsys):
    out_file = tmp_path / "bands.csv"
    code, _, _ = run_cli(["bands", "--phi1", "1", "--phi2", "0.2",
                          "--resolution", "128", "--out", str(out_file)], capsys)
    assert code == 0
    text = out_file.read_text()
    rows = read_rows(text)
    assert len(rows) == 128
    assert max(float(r["residual"]) for r in rows) < 1e-10

    code, out, _ = run_cli(["bands", "--phi1", "0.7", "--phi2", "0.7",
                            "--resolution", "128"], capsys)
    assert code == 0
    assert float(summary_dict(out)["gap_at_imag"]) <= 1e-6


def test_bands_deterministic_at_shared_momenta(capsys):
    _, lo, _ = run_cli(["bands", "--phi1", "1", "--phi2", "0.2", "--resolution", "64"], capsys)
    _, hi, _ = run_cli(["bands", "--phi1", "1", "--phi2", "0.2", "--resolution", "128"], capsys)
    rows_lo = {r["k"]: r for r in read_rows(lo)}
    rows_hi = {r["k"]: r for r in read_rows(hi)}
    shared = set(rows_lo) & set(rows_hi)
    assert len(shared) == 64
    for k in shared:
        for col in ("eps1", "eps2", "eps3", "eps4"):
            assert abs(float(rows_lo[k][col]) - float(rows_hi[k][col])) < 1e-12


def test_winding_reports_difference(capsys):
    code, out, _ = run_cli(["winding", "--phi1", "1.29", "--phi2", "0.17",
                            "--resolution", "512"], capsys)
    assert code == 0
    assert summary_dict(out)["any_band_differs"] == "True"
    diffs = [l for l in out.splitlines() if l.startswith("[difference]")]
    assert len(diffs) == 4
    assert any(("dw_alpha=0" not in l) or ("dw_beta=0" not in l) or
               ("dw_gamma=0" not in l) for l in diffs)
    # integers are printed as integers
    assert "w_alpha=1" in out and "w_alpha=0" in out


def test_winding_near_transition_fails_cleanly(capsys):
    for angles in (("0.7", str(0.7 - 1e-8)), (str(0.7 - 1e-8), "0.7")):
        code, _, err = run_cli(["winding", "--phi1", angles[0], "--phi2", angles[1]], capsys)
        assert code == 3
        assert "phase transition" in err


def test_winding_solves_the_bands_once(monkeypatch, capsys):
    """The swapped report is derived from the forward solve, not solved again.

    The partner walks are solved in closed form: no LAPACK eigensolve runs.
    """
    calls = record_calls(monkeypatch, bloch, "band_structure")
    eig = record_calls(monkeypatch, np.linalg, "eig")
    eigvals = record_calls(monkeypatch, np.linalg, "eigvals")
    code, out, _ = run_cli(["winding", "--resolution", "256"], capsys)
    assert code == 0 and "[swapped] band3" in out
    assert (len(calls), len(eig), len(eigvals)) == (1, 0, 0)


def test_bands_solves_eigenvalues_only(monkeypatch, capsys):
    """``bands`` prints no eigenvector: no ``band_structure``, and no LAPACK eigensolve."""
    eig = record_calls(monkeypatch, np.linalg, "eig")
    eigvals = record_calls(monkeypatch, np.linalg, "eigvals")
    full = record_calls(monkeypatch, bloch, "band_structure")
    code, out, _ = run_cli(["bands", "--resolution", "2048"], capsys)
    assert code == 0 and "gap_at_imag" in summary_dict(out)
    assert (len(eig), len(full), len(eigvals)) == (0, 0, 0)


def test_winding_reads_the_torus_angles_of_two_bands(monkeypatch, capsys):
    """Bands 2 and 3 are the -lambda partners of bands 0 and 1, whose angles suffice."""
    calls = record_calls(monkeypatch, bloch, "torus_angles")
    code, out, _ = run_cli(["winding", "--resolution", "512"], capsys)
    assert code == 0 and "[forward] band3" in out
    assert [np.shape(args[0]) for args in calls] == [(513, 2, 4)]


def test_bands_measures_each_gap_once(monkeypatch, capsys):
    """Two targets per gap, one pass over the grid each: four in all."""
    calls = record_calls(monkeypatch, bloch, "_circle_distance")
    code, out, _ = run_cli(["bands", "--resolution", "2048"], capsys)
    assert code == 0 and "gap_at_imag" in summary_dict(out)
    assert len(calls) == 4


@pytest.mark.parametrize("phi1, phi2", [(0.7, 0.7), (0.7, 0.7015), (np.pi / 2, 0.3), (0.0, 0.0)],
                         ids=["closed-at-i", "near-closing", "coin-pi-half", "closed-at-1"])
@pytest.mark.parametrize("resolution", [1, 3, 64])
def test_bands_cells_are_the_band_structure(phi1, phi2, resolution, capsys):
    """Every cell and gap note is the ``repr`` of the value ``band_structure`` gives.

    ``bands`` solves eigenvalues only; the full eigensolve stays its oracle,
    at gap closings too.
    """
    code, out, _ = run_cli(["bands", "--phi1", repr(phi1), "--phi2", repr(phi2),
                            "--resolution", str(resolution)], capsys)
    assert code == 0
    ref = band_structure(phi1, phi2, resolution=resolution)
    re_lam2 = (ref.eigenvalues ** 2).real
    residual = np.abs(re_lam2 - band_condition_value(ref.k_grid, phi1, phi2)[:, None]).max(axis=1)
    columns = [ref.k_grid, *ref.quasienergies.T, re_lam2.mean(axis=1), residual]
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "k,eps1,eps2,eps3,eps4,re_lambda_sq,residual"
    assert lines[1:] == [",".join(repr(float(c[i])) for c in columns) for i in range(resolution)]
    summary = summary_dict(out)
    assert summary["gap_at_real"] == repr(ref.gap_at_real())
    assert summary["gap_at_imag"] == repr(ref.gap_at_imag())


def test_midgap_report_and_table(tmp_path, capsys):
    out_file = tmp_path / "midgap.csv"
    code, out, _ = run_cli(["midgap", "--n", "40", "--phi1", "1.29",
                            "--phi2", "0.17", "--out", str(out_file)], capsys)
    assert code == 0
    summary = summary_dict(out)
    assert summary["midgap_count"] == "4"
    for j in range(4):
        assert "anomaly=-1.0" in summary[f"state{j}"] or \
            "anomaly=-0.99" in summary[f"state{j}"]
    rows = read_rows(out_file.read_text())
    assert rows, "state table is empty"
    by_state = {}
    for r in rows:
        by_state.setdefault(r["state"], []).append((int(r["x"]), float(r["s3"])))
    for entries in by_state.values():
        entries.sort()
        assert all(abs(abs(s3) - 1) < 1e-3 for _, s3 in entries)
        xs = {x: np.sign(s3) for x, s3 in entries}
        ref_x = min(xs)
        for x, sgn in xs.items():
            assert sgn == (xs[ref_x] if (x - ref_x) % 2 == 0 else -xs[ref_x])


def test_midgap_compact_states_have_zero_decay_length(capsys):
    # at phi1 = pi/2 each state lives on at most four sites: nothing to fit
    code, out, _ = run_cli(["midgap", "--n", "40", "--phi1", "90deg", "--phi2", "0.5"], capsys)
    assert code == 0
    summary = summary_dict(out)
    assert summary["midgap_count"] == "4"
    for j in range(4):
        assert "decay_length=0.0 fit_r2=1.0" in summary[f"state{j}"]


def test_midgap_large_tolerance_fails_cleanly(capsys):
    code, _, err = run_cli(["midgap", "--n", "12", "--tol", "2.5"], capsys)
    assert code == 3
    assert err.count("\n") == 1 and "tolerance" in err and "Traceback" not in err


# the bulk bands at (1.29, 0.17) come within 2 sin(gap / 2) = 0.55271 of +-i
@pytest.mark.parametrize("argv", [["--tol", "1.0"], ["--tol", "0.5528"],
                                  ["--phi1", "0.7", "--phi2", "0.7", "--tol", "0.001"]],
                         ids=["beyond-band-bound", "at-band-bound", "closed-gap"])
def test_midgap_tolerance_reaching_the_bands_exits_three(argv, capsys):
    code, out, err = run_cli(["midgap", "--n", "40", *argv], capsys)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "tolerance" in err and "Traceback" not in err


def test_midgap_tolerance_inside_the_band_bound_finds_the_states(capsys):
    code, out, _ = run_cli(["midgap", "--n", "40", "--tol", "0.5527"], capsys)
    assert code == 0
    assert summary_dict(out)["midgap_count"] == "4"


def test_midgap_trivial_angles_report_zero(capsys):
    code, out, _ = run_cli(["midgap", "--n", "40", "--phi1", "0.7", "--phi2", "0.7"], capsys)
    assert code == 0
    assert summary_dict(out)["midgap_count"] == "0"


@pytest.mark.parametrize("angles", [[], ["--phi1", "0.7", "--phi2", "0.7"]],
                         ids=["gapped", "closed-gap"])
def test_midgap_ring_size_cap_exits_two(angles, capsys):
    code, out, err = run_cli(["midgap", "--n", "2050", *angles], capsys)
    assert code == 2 and out == ""
    assert "2N <= 4096" in err


@pytest.mark.parametrize("module, name, value, message", [
    (midgap, "_PROJECTION_TOL", 0.0, "not invariant"),
    (bloch, "_UNIT_CIRCLE_TOL", -1.0, "off the unit circle"),
], ids=["non-invariant-group", "off-unit-circle"])
def test_midgap_numerical_failures_exit_three(module, name, value, message, monkeypatch,
                                              capsys):
    """The window that midgap solves keeps the checks of the full solve."""
    monkeypatch.setattr(module, name, value)
    code, out, err = run_cli(["midgap", "--n", "40"], capsys)
    assert code == 3 and out == ""
    assert message in err and "Traceback" not in err


def test_midgap_loads_no_scipy():
    """The runtime of every command is NumPy only, as pyproject.toml declares.

    scipy is a test extra; one process runs a small case of each command.
    """
    commands = [["evolve", "--steps", "3"], ["bands", "--resolution", "8"],
                ["winding", "--resolution", "256"], ["midgap", "--n", "12"],
                ["scan", "--steps", "3"], ["tomo", "--steps", "3"]]
    assert sorted(c[0] for c in commands) == sorted(cli._COMMANDS)
    script = ("import contextlib, io, sys\n"
              "from susyqw import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    for argv in {commands!r}:\n"
              "        assert cli.main(argv) == 0, argv\n"
              "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    src = str(Path(susyqw.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True, timeout=120)
    assert result.stdout.strip() == "[]"


def test_scan_summary_extremes(capsys):
    code, out, _ = run_cli(["scan", "--steps", "13", "--angles", "0:180:1"], capsys)
    assert code == 0
    summary = summary_dict(out)
    assert float(summary["interface_min"]) <= 0.30
    assert float(summary["bulk_range"]) < float(summary["interface_range"])


def test_scan_rejects_empty_grid(capsys):
    code, _, err = run_cli(["scan", "--angles", "90:90:1"], capsys)
    assert code == 2
    assert "grid" in err


def test_scan_cell_probe_needs_one_reachable_site_of_the_bond(capsys):
    """At 0 steps the walker is on site 1, so the bond (0, 1) holds all of it
    (``scan --steps 0`` without ``--cell`` probes the empty site 0 and exits 2)."""
    code, out, err = run_cli(["scan", "--steps", "0", "--cell"], capsys)
    assert code == 0 and err == ""
    for key, value in summary_dict(out).items():
        if key.endswith(("_max", "_min")):
            assert float(value) == pytest.approx(1.0, abs=1e-12), key


def test_tomo_matches_trapped_state(capsys):
    code, out, _ = run_cli(["tomo", "--steps", "17", "--site", "0"], capsys)
    assert code == 0
    summary = summary_dict(out)
    assert float(summary["primed_amp_h"]) == pytest.approx(0.72, abs=0.05)
    assert float(summary["primed_amp_v"]) == pytest.approx(0.69, abs=0.05)
    assert float(summary["primed_phase_over_pi"]) == pytest.approx(0.50, abs=0.05)
    assert float(summary["primed_fidelity"]) > 1 - 1e-10
    assert float(summary["lab_fidelity"]) > 1 - 1e-10


def test_tomo_noise_is_seeded(capsys):
    args = ["tomo", "--steps", "9", "--noise", "0.01", "--seed", "7"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second
    _, other, _ = run_cli(["tomo", "--steps", "9", "--noise", "0.01", "--seed", "8"], capsys)
    assert other != first


def test_tomo_blames_a_nan_reading_not_the_occupation(capsys):
    """Noise that overflows a reading to NaN is a numerical failure of an occupied site
    (seed 0 of the same command reports site_probability = 0.0768 there)."""
    code, out, err = run_cli(["tomo", "--steps", "1", "--site", "2", "--noise", "1e308",
                              "--seed", "3"], capsys)
    assert (code, out, err) == (3, "", "susyqw: basis intensities must be finite\n")


def test_cli_outputs_are_byte_identical(tmp_path, capsys):
    pairs = []
    for name in ("a", "b"):
        out_file = tmp_path / f"scan_{name}.csv"
        code, _, _ = run_cli(["scan", "--steps", "9", "--angles", "0:180:10",
                              "--out", str(out_file)], capsys)
        assert code == 0
        pairs.append(out_file.read_bytes())
    assert pairs[0] == pairs[1]


def _run_to_file(argv, out_file):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*argv, "--out", str(out_file)])
    assert code == 0
    return stdout.getvalue(), out_file.read_bytes()


@settings(max_examples=12, deadline=None)
@given(command=st.sampled_from(["scan", "tomo"]),
       steps=st.integers(min_value=0, max_value=4).map(lambda k: 2 * k + 1),
       phi1=st.floats(min_value=1.1, max_value=1.4),
       phi2=st.floats(min_value=0.1, max_value=0.3),
       plate=st.floats(min_value=0.0, max_value=180.0),
       cell=st.booleans())
def test_flags_and_config_give_identical_output(command, steps, phi1, phi2, plate, cell):
    """One setting reaches the same parser whether it comes as a flag or a config key.

    Step counts are odd: the walker starts on site 1 and site 0, where tomo
    measures, is empty after an even number of steps.
    """
    flags = [command, "--steps", str(steps), "--phi1", repr(phi1), "--phi2", repr(phi2)]
    config = {"steps": steps, "phi1": phi1, "phi2": phi2}
    if command == "scan":
        flags += ["--angles", "0:180:30"] + (["--cell"] if cell else [])
        config.update(angles="0:180:30", cell=cell)
    else:
        flags += ["--plate", f"qwp:{plate!r}"]
        config.update(plates=[["qwp", plate]])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "run.json").write_text(json.dumps(config))
        from_flags = _run_to_file(flags, tmp / "flags.out")
        from_config = _run_to_file([command, "--config", str(tmp / "run.json")],
                                   tmp / "config.out")
    assert from_flags == from_config
