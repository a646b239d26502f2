"""Committed expected outputs of the commands, checked to a cross-host bound.

``tests/data`` holds the stdout of ``bands --resolution 64``, ``winding
--resolution 256``, ``evolve --steps 13``, ``scan --steps 13``, ``scan
--steps 100 --cell``, ``midgap --n 40``, ``tomo``, ``tomo --steps 17 --plate
qwp:33.3`` and ``tomo --noise 0.01 --seed 7`` at the default angles, and of
``winding --phi1 1.0231724466312961 --phi2 -2.1184237704218063 --resolution
257``, an odd grid next to a gap closing.  Each run is compared line by
line: the line count, the text and the integers exactly, and every float
within FLOAT_TOL absolute.

FLOAT_TOL = 6.1e-15 is the largest spread measured between runs of the same
invocations under different NumPy SIMD targets (native, X86_V3, X86_V2) and
OpenBLAS kernel sets (native, Haswell) on one host (ROADMAP.md, item 8): the
text, integers and line count never moved, and no float moved further than
that.  A change that moves a float by more than the spread is a change of
the numbers, not of the host, and regenerates these files in the same commit.
"""

import re
from pathlib import Path

import pytest

from susyqw.cli import main

DATA = Path(__file__).resolve().parent / "data"
FLOAT_TOL = 6.1e-15
# a float as repr prints it, not part of a word ("eps1", "band0") or of a longer number
FLOAT = re.compile(r"(?<![\w.])-?(?:\d+\.\d+(?:e[-+]\d+)?|\d+e[-+]\d+|inf|nan)(?![\w.])")


def split_floats(line):
    """The line with each float replaced by a marker, and the floats."""
    return FLOAT.sub("<float>", line), [float(x) for x in FLOAT.findall(line)]


def test_float_pattern_leaves_text_and_integers():
    assert split_floats("[forward] band0 w_alpha=-1 residual=4.4e-16 phi1=1.29 x=1e-05\n") == (
        "[forward] band0 w_alpha=-1 residual=<float> phi1=<float> x=<float>\n",
        [4.4e-16, 1.29, 1e-05])
    assert split_floats("k,eps1,eps2\n") == ("k,eps1,eps2\n", [])


@pytest.mark.parametrize("argv, name", [
    (["bands", "--resolution", "64"], "bands_resolution_64.txt"),
    (["winding", "--resolution", "256"], "winding_resolution_256.txt"),
    (["winding", "--phi1", "1.0231724466312961", "--phi2", "-2.1184237704218063",
      "--resolution", "257"], "winding_odd_grid_257.txt"),
    (["evolve", "--steps", "13"], "evolve_steps_13.txt"),
    (["scan", "--steps", "13"], "scan_steps_13.txt"),
    (["scan", "--steps", "100", "--cell"], "scan_steps_100_cell.txt"),
    (["midgap", "--n", "40"], "midgap_n_40.txt"),
    (["tomo"], "tomo.txt"),
    (["tomo", "--steps", "17", "--plate", "qwp:33.3"], "tomo_steps_17_plate_qwp.txt"),
    (["tomo", "--noise", "0.01", "--seed", "7"], "tomo_noise_seed_7.txt"),
], ids=["bands", "winding", "winding_odd_grid", "evolve", "scan", "scan_cell", "midgap", "tomo",
        "tomo_plate", "tomo_noise"])
def test_output_matches_the_committed_expectation(argv, name, capsys):
    assert main(argv) == 0
    got = capsys.readouterr().out.splitlines(keepends=True)
    expected = (DATA / name).read_text().splitlines(keepends=True)
    assert len(got) == len(expected)
    for number, (line, ref) in enumerate(zip(got, expected), start=1):
        text, values = split_floats(line)
        ref_text, ref_values = split_floats(ref)
        assert (number, text) == (number, ref_text)
        assert len(values) == len(ref_values)
        worst = max((abs(a - b) for a, b in zip(values, ref_values)), default=0.0)
        assert worst <= FLOAT_TOL, f"line {number}: a float moved by {worst:.3g}"
