import contextlib
import csv
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from susyqw import (Frame, band_structure, evolve, find_midgap, full_spectrum,
                    long_time_extrapolation, make_coin_profile, prepare_input, qwp_scan,
                    ring_with_interfaces, segment_for, site_polarization, to_frame)
from susyqw.cli import _Output, main


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
    written = io.StringIO()
    with contextlib.redirect_stdout(written), _Output(None) as out:
        out.table(header, blocks)
    expected = ",".join(header) + "\n" + "".join(
        ",".join(map(repr, row)) + "\n"
        for block in blocks for row in zip(*(col.tolist() for col in block)))
    assert written.getvalue() == expected


@pytest.mark.parametrize("kind", ["interface", "uniform"])
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


def _evolve_table():
    lattice = segment_for(1, 9)
    profile = make_coin_profile("interface", lattice, phi1=1.29, phi2=0.17)
    trajectory = evolve(prepare_input(1, [("qwp", 30.0)], lattice), profile, 9, record=True)
    return {f"p_{frame.value}_{c}": np.concatenate(
                [to_frame(st, profile, frame).probabilities()[:, i] for st in trajectory])
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
    states = find_midgap(full_spectrum(profile))
    stokes = np.array([site_polarization(states[int(j)], profile, int(x))
                       for j, x in zip(cols["state"], cols["x"])])
    return {"s1": stokes[:, 0], "s2": stokes[:, 1], "s3": stokes[:, 2]}


# (flags, library columns by name: from nothing, or from the table's own columns)
EXACT_TABLES = [
    pytest.param(["evolve", "--steps", "9", "--frame", "both", "--plate", "qwp:30"],
                 lambda cols: _evolve_table(), id="evolve"),
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
    pytest.param("evolve", {"size": 1}, [], "at least 2 sites", id="evolve-size-one"),
    pytest.param("scan", None, ["--angles", "nan:180:1"], "angles:", id="scan-grid-nan"),
    pytest.param("evolve", {"plates": [["qwp", 10, 3]]}, [], "plates:",
                 id="evolve-plate-triple"),
    pytest.param("evolve", {"kind": "ring"}, [], "kind:", id="evolve-kind-unknown"),
    pytest.param("bands", None, ["--resolution", "0"], "resolution:", id="bands-resolution-zero"),
    pytest.param("bands", None, ["--resolution", "-3"], "resolution:",
                 id="bands-resolution-negative"),
    pytest.param("winding", None, ["--resolution", "10"], "resolution:",
                 id="winding-resolution-low"),
]


@pytest.mark.parametrize("command, config, flags, expected", MISREAD_INPUTS)
def test_config_type_errors_exit_two(command, config, flags, expected, tmp_path, capsys):
    argv = [command, *flags]
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2, out
    assert err.startswith("susyqw: configuration error: ") and expected in err


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


def test_evolve_small_lattice_hits_boundary(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"steps": 10, "size": 5}))
    code, _, err = run_cli(["evolve", "--config", str(cfg)], capsys)
    assert code == 3
    assert "boundary" in err


@pytest.mark.parametrize("argv, out_name", [
    (["bands", "--resolution", "8"], "missing/bands.csv"),
    (["evolve", "--steps", "3"], "."),
], ids=["bands-missing-directory", "evolve-directory"])
def test_unwritable_out_exits_two(argv, out_name, tmp_path, capsys):
    code, out, err = run_cli([*argv, "--out", str(tmp_path / out_name)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("susyqw: configuration error: out: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, config, expected_code", [
    (["evolve"], {"steps": 10, "size": 5}, 3),
    (["tomo", "--steps", "3", "--site", "1000"], None, 2),
], ids=["evolve-boundary", "tomo-site-outside"])
def test_failed_run_leaves_no_partial_out(argv, config, expected_code, tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    code, _, _ = run_cli([*argv, "--out", str(out_dir / "result.csv")], capsys)
    assert code == expected_code
    assert list(out_dir.iterdir()) == []


def test_failed_computation_keeps_an_existing_out(tmp_path, capsys):
    """Commands other than evolve open --out only once their results are computed."""
    out_file = tmp_path / "states.csv"
    out_file.write_text("earlier results\n")
    code, _, _ = run_cli(["midgap", "--n", "12", "--tol", "2.5", "--out", str(out_file)], capsys)
    assert code == 3
    assert out_file.read_text() == "earlier results\n"


def test_failed_run_keeps_a_symlink_out(tmp_path, capsys):
    """A partial --out is removed only where the path itself is a regular file."""
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("")
    link.symlink_to(target)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"steps": 10, "size": 5}))
    code, _, _ = run_cli(["evolve", "--config", str(cfg), "--out", str(link)], capsys)
    assert code == 3
    assert link.is_symlink() and target.is_file()


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
    code, _, err = run_cli(["winding", "--phi1", "0.7", "--phi2", str(0.7 - 1e-8)], capsys)
    assert code == 3
    assert "phase transition" in err


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


def test_midgap_trivial_angles_report_zero(capsys):
    code, out, _ = run_cli(["midgap", "--n", "40", "--phi1", "0.7", "--phi2", "0.7"], capsys)
    assert code == 0
    assert summary_dict(out)["midgap_count"] == "0"


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
