import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from susyqw.cli import main


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
