"""A seeded fuzz of the CLI's inputs, run in process through ``rfe.cli.main``.

A fixed-seed grammar of edge values (zeros of both signs, the smallest
subnormal, huge and non-finite floats, integers just past the grid cap and
past int64, custom Ban tables of the wrong length, misspelled noise keys)
builds argv for ``run``, ``spectrum``, ``bounds`` and ``sweep``.  Every case
must exit 0 or 2, print no traceback or warning, write output that parses as
strict JSON or as CSV, and print only plans with M <= 2**62 and K <= 2**22.
Grids stay at or below 2**16 so the whole fuzz runs in about a second.
"""

import csv
import io
import json
import math
import random
import warnings

from rfe.cli import main
from rfe.noise import AdversaryStrategy

SEED = 20260
CASES = 240
# each flag takes an edge value with this probability, else an ordinary one,
# so that most cases get past the parser into planning, running and output
EDGE_RATE = 0.15

# numbers as a user would type them; 2**22 + 1 is one past the grid cap
EDGE = ["0", "-0", "5e-324", "1e308", "inf", "-inf", "nan",
        str(2 ** 22 - 1), str(2 ** 22 + 1), str(2 ** 63)]
EPSILONS = ["0.1", "0.3", "1.5", "3"]
DELTAS = ["0.1", "0.5", "0.99"]
THETAS = ["0.7", "3.0", "random"]
SEEDS = ["0", "7", str(2 ** 64 - 1)]
BAD_SEEDS = ["-1", str(2 ** 64), "1e3"]
SAMPLES = ["1", "40", "5000", str(2 ** 22 - 1), str(2 ** 22 + 1), str(2 ** 62)]
BAD_SAMPLES = ["0", "-0", str(2 ** 63), "1e308", "nan"]
# valid grids stay <= 2**16 in process: 2**22 - 1 is too large to run here;
# 8192 = 64 x 128 takes the two-pass transform
GRIDS = ["1", "2", "63", "4096", "8192"]
BAD_GRIDS = ["0", "-0", str(2 ** 22 + 1), str(2 ** 63), "5e-324", "nan"]
# JSON numbers; json.dumps writes the non-finite ones as NaN and Infinity
EDGE_NUMBERS = [0.0, -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, 2 ** 22 - 1,
                2 ** 22 + 1, 2 ** 63]
MISSPELT = [{"kind": "gaussian", "sigam": 0.1}, {"kind": "ban", "etabar": 0.05},
            {"kind": "ban", "eta_bar": 0.05, "stratgy": "sign_flip"},
            {"kind": "dephasing", "T2": 100.0}, {"kind": "high-coherence", "t2": 100.0},
            {"kinds": "ideal"}, {"kind": "Ideal"}]


def pick(rnd: random.Random, ordinary, edge=EDGE):
    """An edge value with probability EDGE_RATE, else an ordinary one."""
    return rnd.choice(edge if rnd.random() < EDGE_RATE else ordinary)


def draw_noise(rnd: random.Random) -> str:
    """One --noise argument: a model with a drawn parameter, a custom Ban
    table of a drawn (often wrong) length, or a misspelled key."""
    shape = rnd.choice(["ideal", "ban", "custom", "gaussian", "gaussian_linear", "dephasing",
                        "high_coherence", "misspelt"])
    if shape == "ideal":
        data = {"kind": "ideal"}
    elif shape == "ban":
        data = {"kind": "ban", "eta_bar": pick(rnd, [0.01, 0.05, 0.09], EDGE_NUMBERS),
                "strategy": pick(rnd, [s.value for s in AdversaryStrategy], ["flip", ""])}
    elif shape == "custom":
        length = rnd.choice([0, 1, 62, 63, 64, 4096])
        data = {"kind": "ban", "eta_bar": pick(rnd, [0.05], [0.0, math.nan, math.inf]),
                "strategy": {"name": "custom", "eta1": [0.01] * length,
                             "eta2": [-0.01] * pick(rnd, [length], [length + 1])}}
    elif shape in ("gaussian", "gaussian_linear"):
        data = {"kind": shape, "sigma": pick(rnd, [0.001, 0.01, 0.1], EDGE_NUMBERS)}
    elif shape in ("dephasing", "high_coherence"):
        data = {"kind": shape, "t2": pick(rnd, [100.0, 1000.0, 10000.0], EDGE_NUMBERS)}
    else:
        data = rnd.choice(MISSPELT)
    return json.dumps(data)


def draw_argv(rnd: random.Random) -> list:
    """One fuzz case: a subcommand and a drawn set of its flags."""
    command = rnd.choice(["run", "spectrum", "bounds", "sweep"])
    argv = [command, "--format", rnd.choice(["json", "csv"])]
    if command == "bounds":
        argv += ["--epsilon", pick(rnd, EPSILONS), "--delta", pick(rnd, DELTAS),
                 "--noise", draw_noise(rnd)]
    elif command == "sweep":
        family = rnd.choice(["ideal", "ban", "gaussian", "dephasing", "high_coherence"])
        values = [pick(rnd, EPSILONS) if family == "ideal" else
                  repr(pick(rnd, [0.01, 0.05, 0.2, 1.0], EDGE_NUMBERS))
                  for _ in range(rnd.randint(1, 3))]
        argv += ["--family", family, "--grid", ",".join(values),
                 "--trials", pick(rnd, ["1", "3", "20"], ["0", "-1"]),
                 "--workers", pick(rnd, ["1", "2"], ["0", "-1"]),
                 "--theta", pick(rnd, THETAS), "--seed", pick(rnd, SEEDS, BAD_SEEDS),
                 "--delta", pick(rnd, DELTAS)]
        if family != "ideal" or rnd.random() < EDGE_RATE:
            argv += ["--epsilon", pick(rnd, EPSILONS)]
        if family == "ban":
            argv += ["--strategy", rnd.choice([s.value for s in AdversaryStrategy])]
    else:
        argv += ["--theta", pick(rnd, THETAS), "--seed", pick(rnd, SEEDS, BAD_SEEDS),
                 "--noise", draw_noise(rnd)]
        if rnd.random() < 0.7:
            argv += ["--samples", pick(rnd, SAMPLES, BAD_SAMPLES)]
        if command == "spectrum" or "--samples" in argv:
            argv += ["--grid", pick(rnd, GRIDS, BAD_GRIDS)]
        if command == "run" or rnd.random() < EDGE_RATE:
            argv += ["--epsilon", pick(rnd, EPSILONS)]
        if command == "run":
            argv += ["--delta", pick(rnd, DELTAS)]
    return argv


def fuzz_cases():
    rnd = random.Random(SEED)
    return [draw_argv(rnd) for _ in range(CASES)]


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which JSON does not have."""
    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


PLAN_SAMPLE_KEYS = {"M", "samples_used", "predicted_samples", "samples"}
PLAN_GRID_KEYS = {"K", "grid_size", "grid"}


def check_json_plans(node):
    """Every sample count and grid size anywhere in a JSON payload lies in
    range, and no coefficient list is longer than the grid cap."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in PLAN_SAMPLE_KEYS and value is not None:
                assert 0 <= value <= 2 ** 62, (key, value)
            elif key in PLAN_GRID_KEYS and value is not None:
                assert 1 <= value <= 2 ** 22, (key, value)
            elif key == "coefficients":
                assert len(value) <= 2 ** 22
            check_json_plans(value)
    elif isinstance(node, list):
        for item in node:
            check_json_plans(item)


def check_csv_plans(text: str):
    """A header and rows of its width, with numeric cells, and plans in range."""
    header, *rows = csv.reader(io.StringIO(text))
    assert rows
    for row in rows:
        assert len(row) == len(header)
        cells = dict(zip(header, row))
        for name, cell in cells.items():
            if name != "kind" and cell != "":
                assert math.isfinite(float(cell)), cells
        if cells.get("M") or cells.get("M_predicted"):
            assert 0 <= int(cells.get("M") or cells["M_predicted"]) <= 2 ** 62
        if "K" in cells:
            assert 1 <= int(cells["K"]) <= 2 ** 22
        if "j" in cells:
            assert 0 <= int(cells["j"]) < 2 ** 22


def check_case(argv, capsys) -> int:
    """Run one case in process and check its contract; returns its exit code."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a flag
            code = exc.code
    captured = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in captured.err and "Warning" not in captured.err, captured.err
    assert not caught, [str(w.message) for w in caught]
    if code == 2:
        assert captured.out == ""
    elif argv[argv.index("--format") + 1] == "json":
        check_json_plans(strict_json(captured.out))
    else:
        check_csv_plans(captured.out)
    return code


def test_seeded_cli_fuzz(capsys):
    failures, passed = [], set()
    for argv in fuzz_cases():
        try:
            if check_case(argv, capsys) == 0:
                passed.add(argv[0])
        except Exception as exc:  # collect every broken case, not only the first
            failures.append((argv, repr(exc)))
    assert failures == []
    # the grammar reaches every subcommand's output, not only its refusals
    assert passed == {"run", "spectrum", "bounds", "sweep"}
