"""Config ingestion, experiment drivers, emitted files, exit codes."""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ritzmem import basis
from ritzmem.basis import BasisSpec, SolutionState, eval_shape
from ritzmem.cli import (
    MAX_M,
    ConfigError,
    RunConfig,
    _fmt,
    build_config,
    load_config,
    main,
    profile_rows,
    scale_inputs,
    write_profile,
)
from ritzmem.kinematics import LoadParams
from ritzmem.material import MaterialParams
from ritzmem.solver import delta_diagnostic, solve_membrane

from reference import strong_form

GAS_KV = """\
# circular membrane under gas pressure
gamma1 = 0.02
gamma2 = -0.015
gamma3 = 0.00025
c = 1.7
family = polynomial
m = 6
"""

GAS_JSON = {"gamma1": 0.02, "gamma2": -0.015, "gamma3": 0.00025, "c": 1.7,
            "family": "polynomial", "m": 6}

SWEEP_KV = "gamma1 = 0.02\ngamma2 = -0.015\ngamma3 = 0.00025\n"

LIQ_JSON = {
    "gamma1": 0.1,
    "c": 0.5,
    "d": 10.0,
    "family": "adaptive",
    "m": 6,
    "n": 1,
}


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    for row in data:
        assert len(row) == len(header)
    return header, np.array([[float(v) for v in row] for row in data])


def test_config_key_value_format(tmp_path):
    cfg = build_config(load_config(write_cfg(tmp_path, GAS_KV)))
    assert cfg.mat.gamma1 == 0.02
    assert cfg.mat.gamma2 == -0.015
    assert cfg.c == 1.7
    assert cfg.d == 0.0
    assert cfg.family == "polynomial"
    assert cfg.m == 6


def test_config_json_format(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(LIQ_JSON))
    cfg = build_config(load_config(path))
    assert cfg.mat.gamma1 == 0.1
    assert cfg.c == 0.5 and cfg.d == 10.0
    assert cfg.family == "adaptive"
    assert cfg.m == 6 and cfg.p is None


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown"):
        build_config({"gamma1": 0.1, "cc": 2.0})


def test_config_rejects_bad_probe():
    with pytest.raises(ConfigError, match="probe"):
        build_config({"c": 1.0, "probes": "0.2 1.5"})


def test_config_rejects_negative_d():
    with pytest.raises(ConfigError, match="d must"):
        build_config({"c": 1.0, "d": -1.0})


def test_config_searches_one_parameter_only():
    # n = 1 is what the search tunes; fixed p may still carry several values
    assert build_config({"n": 1}).p is None
    for n in (0, 2, 3):
        with pytest.raises(ConfigError, match="n must be 1"):
            build_config({"n": n})
    assert build_config({"p": "17.1, 0.5"}).p == (17.1, 0.5)


@pytest.mark.parametrize("key, value", [
    ("p", "abc"), ("probes", "0.2 x"), ("p", [17.1, None]), ("probes", [[0.2]]),
])
def test_config_rejects_non_numeric_lists(key, value):
    with pytest.raises(ConfigError, match=key):
        build_config({"c": 1.0, key: value})


CONFIG_KEYS = (
    "gamma1", "gamma2", "gamma3", "c", "d", "c_start", "c_end", "c_step",
    "r0", "h0", "c1", "rho_g", "p_star", "p_ref", "m", "m_min", "m_max", "n",
    "family", "p", "probes", "out", "quad",
)
SCALARS = st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=12))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(CONFIG_KEYS),
                       st.one_of(SCALARS, st.lists(SCALARS, max_size=3)),
                       max_size=6))
@example({"m": 6.7})
@example({"quad": 64.5, "m_max": True})
def test_build_config_returns_config_or_config_error(raw):
    try:
        cfg = build_config(raw)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    numbers = [cfg.mat.gamma1, cfg.mat.gamma2, cfg.mat.gamma3, cfg.d,
               *(v for v in (cfg.c, cfg.c_start, cfg.c_end, cfg.c_step)
                 if v is not None),
               *cfg.scale.values(), *(cfg.p or ()), *cfg.probes]
    assert all(math.isfinite(v) for v in numbers)
    for m in (cfg.m, cfg.m_min, cfg.m_max):
        assert m is None or 1 <= m <= MAX_M
    # an integer key holds the value given, as an int: never a truncated
    # float or a bool read as 0 or 1
    for key in ("m", "m_min", "m_max", "quad"):
        if key in raw and str(raw[key]).lower() != "auto":
            assert not isinstance(raw[key], bool)
            assert type(getattr(cfg, key)) is int
            assert getattr(cfg, key) == float(raw[key])


@pytest.mark.parametrize("raw", [
    # both sweeps never ended when the infinite step reached the driver
    {"c_start": 0.1, "c_end": math.inf},
    {"c_start": 0.1, "c_end": 3.0, "c_step": "inf"},
    {"c": 1.0, "p": "17.1 nan"},
    {"r0": "inf"},
])
def test_config_rejects_non_finite_numbers(raw):
    with pytest.raises(ConfigError, match="must be finite"):
        build_config(raw)


@pytest.mark.parametrize("value", [6, 6.0, "6", "6.0"],
                         ids=["int", "float", "int-text", "float-text"])
def test_integer_keys_read_an_integral_value_alike(tmp_path, value):
    # key = value text and JSON agree: 6.0 is the integer 6 in both
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"m": value}))
    for cfg in (build_config(load_config(write_cfg(tmp_path, f"m = {value}\n"))),
                build_config(load_config(path))):
        assert cfg.m == 6 and type(cfg.m) is int


def test_config_caps_basis_size():
    assert build_config({"m": MAX_M, "m_min": 1, "m_max": MAX_M}).m == MAX_M
    for key in ("m", "m_min", "m_max"):
        with pytest.raises(ConfigError, match=f"{key} must be in"):
            build_config({key: MAX_M + 1})


def test_solve_gas_profile(tmp_path):
    cfg = write_cfg(tmp_path, GAS_KV)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--probe", "0.2"]) == 0
    for name in ("solution.json", "profile.csv", "report.json"):
        assert (out / name).exists()

    header, rows = read_csv(out / "profile.csv")
    assert header == ["s", "z", "r", "dz", "dr",
                      "lambda1", "lambda2", "T1", "T2", "delta"]
    assert rows.shape[0] == 201
    assert np.all(np.diff(rows[:, 0]) > 0.0)
    # clamped edge
    assert abs(rows[-1, 1]) <= 1e-10
    assert abs(rows[-1, 2] - 1.0) <= 1e-10
    # tabulated interior point lands on the grid
    row = rows[40]
    assert row[0] == pytest.approx(0.2, abs=1e-15)
    assert row[1] == pytest.approx(0.7926, abs=5e-4)
    assert row[2] == pytest.approx(0.3069, abs=5e-4)
    assert -row[3] == pytest.approx(0.4362, abs=5e-4)
    assert row[4] == pytest.approx(1.4757, abs=5e-4)

    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["delta_probes"][0]["s"] == 0.2
    assert 2e-6 < report["delta_probes"][0]["delta"] < 2e-4


def test_solve_zero_load(tmp_path):
    cfg = write_cfg(tmp_path, "c = 0\nm = 4\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--probe", "0.5"]) == 0
    _, rows = read_csv(out / "profile.csv")
    assert np.max(np.abs(rows[:, 1])) == 0.0
    assert np.max(np.abs(rows[:, 2] - rows[:, 0])) == 0.0
    assert np.max(np.abs(rows[:, 7])) == 0.0
    assert np.max(np.abs(rows[:, 8])) == 0.0
    # the raw defect, as in profile.csv: the flat disk has none
    report = json.loads((out / "report.json").read_text())
    assert report["delta_max"] == 0.0
    assert report["delta_probes"] == [{"s": 0.5, "delta": 0.0}]


def test_solve_reports_the_defect_of_the_written_state(tmp_path):
    # the probes ride the solve's one defect pass, bit for bit
    out, probes = tmp_path / "out", [0.0, 0.2, 1.0]
    assert main(["solve", "--config", write_cfg(tmp_path, GAS_KV), "--out", str(out)]
                + [arg for s in probes for arg in ("--probe", str(s))]) == 0
    sol = json.loads((out / "solution.json").read_text())
    state = SolutionState(np.array(sol["x"]), BasisSpec("polynomial", 6),
                          LoadParams(sol["load"]["c"]))
    at, dmax = delta_diagnostic(state, MaterialParams(0.02, -0.015, 0.00025), probes)
    report = json.loads((out / "report.json").read_text())
    assert report["delta_probes"] == [{"s": s, "delta": dv}
                                      for s, dv in zip(probes, at.tolist())]
    assert report["delta_max"] == dmax


def test_solve_liquid_reports_single_steepness(tmp_path):
    path = tmp_path / "liq.json"
    path.write_text(json.dumps(LIQ_JSON))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert isinstance(report["final_p"], list)
    assert len(report["final_p"]) == 1
    assert report["final_p"][0] > 0.0


def test_exit_code_2_on_config_errors(tmp_path):
    bad_key = write_cfg(tmp_path, "c = 1.0\nwobble = 3\n", "bad.cfg")
    assert main(["solve", "--config", bad_key, "--out", str(tmp_path / "a")]) == 2
    no_c = write_cfg(tmp_path, "m = 4\n", "noc.cfg")
    assert main(["solve", "--config", no_c, "--out", str(tmp_path / "b")]) == 2
    assert main(["solve", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "c")]) == 2
    steep_d0 = write_cfg(tmp_path, "c = 1.0\nfamily = adaptive\n", "sd0.cfg")
    assert main(["solve", "--config", steep_d0, "--out", str(tmp_path / "d")]) == 2


@pytest.mark.parametrize("verb, extra, flags", [
    ("solve", "", ["--quad", "0"]),
    ("solve", "quad = 0", []),
    ("solve", "n = 2", []),
    ("solve", "p = abc", []),
    ("solve", "probes = 0.2 x", []),
    ("converge", "m_min = -1", []),
    ("converge", "m_min = 0", []),
    ("converge", "m_max = 0", []),
    ("solve", "c = nan", []),
    ("solve", "c = inf", []),
    ("solve", "d = inf", []),
    ("solve", "gamma1 = nan", []),
    ("solve", "p = inf", []),
    ("solve", "m = 100000000", []),
    ("converge", "m_max = 100000000", []),
    ("sweep", "c_start = 0.1\nc_end = 1.0\nc_step = 0", []),
    ("sweep", "c_start = 0.1\nc_end = 1.0\nc_step = -0.1", []),
    # the steep family at d = 0 without p, which solve already rejected
    ("converge", "family = adaptive", []),
    # the table has one probe column, so a second probe is an error, not dropped
    ("converge", "probes = 0.2 0.9", []),
    # a steep sweep without p is rejected before the output directory is
    # made, and before an empty load range writes a header-only curve
    ("sweep", "family = adaptive\nd = 10\nc_start = 0.1\nc_end = 1.0", []),
    ("sweep", "family = adaptive\nd = 10\nc_start = 0.5\nc_end = 0.5", []),
    # a JSON config takes an integer key as key = value text does: a value
    # that is not integral is an error, not truncated, and a bool is no number
    ("solve", {"m": 6.7}, []),
    ("converge", {"m_max": 7.9}, []),
    ("solve", {"quad": 64.5}, []),
    ("solve", {"n": 1.9}, []),
    ("solve", {"m": True}, []),
    ("converge", {"m_min": True}, []),
    ("solve", {"c": True}, []),
    ("solve", {"p": [True]}, []),
    ("solve", {"probes": [True]}, []),
])
def test_exit_code_2_on_invalid_values(tmp_path, verb, extra, flags):
    if isinstance(extra, dict):  # the same case as a JSON config
        cfg = write_cfg(tmp_path, json.dumps({**GAS_JSON, **extra}), "case.json")
    else:
        cfg = write_cfg(tmp_path, GAS_KV + extra + "\n")
    out = tmp_path / "out"
    assert main([verb, "--config", cfg, "--out", str(out)] + flags) == 2
    assert not out.exists()


@pytest.mark.parametrize("config, flags", [
    ({**GAS_JSON, "out": None}, []),
    ({**GAS_JSON, "out": ""}, []),
    ({**GAS_JSON, "out": 5}, []),
    (GAS_KV + "out =\n", []),
    (GAS_KV, ["--out", ""]),
], ids=["json-null", "json-empty", "json-number", "kv-empty", "flag-empty"])
def test_out_must_be_a_non_empty_path(tmp_path, monkeypatch, config, flags):
    # a null out once wrote into a directory named None, and an empty one
    # into the working directory; both are config errors that write nothing
    monkeypatch.chdir(tmp_path)
    if isinstance(config, dict):
        cfg = write_cfg(tmp_path, json.dumps(config), "case.json")
    else:
        cfg = write_cfg(tmp_path, config)
    before = sorted(tmp_path.iterdir())
    assert main(["solve", "--config", cfg] + flags) == 2
    assert sorted(tmp_path.iterdir()) == before


def test_sweep_rejects_a_load_range_that_overflows(tmp_path):
    # the default first step |c_end - c_start| / 20 is infinite here, which
    # StepPolicy rejects; the range is a config error
    cfg = write_cfg(tmp_path, GAS_KV + "c_start = -1e308\nc_end = 1e308\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_steep_solve_beyond_double_precision_exits_3(tmp_path):
    # the steepness start at d = 1e30 is p1 ~ 1e15, too steep for the
    # quadrature; this used to end in a traceback
    cfg = write_cfg(tmp_path, "gamma1 = 0.1\nc = 0.5\nd = 1e30\nfamily = adaptive\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    assert "p1 = " in json.loads((out / "report.json").read_text())["message"]


def test_steep_search_at_tiny_d_exits_3(tmp_path):
    # the steepness start sqrt(d) = 1e-6 is below P_MIN; this used to end
    # in a traceback with exit code 1 and no report
    cfg = write_cfg(tmp_path, "gamma1 = 0.1\nc = 0.5\nd = 1e-12\nfamily = adaptive\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["message"] == ("inner solve failed at the starting parameters "
                                 "(p1 = 0.001: residual diverging, "
                                 "last residual 2.98e-05)")


def test_exit_code_3_still_writes_report(tmp_path):
    cfg = write_cfg(tmp_path, "c = 60\nm = 3\ngamma1 = 0.02\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert report["message"]
    assert not (out / "profile.csv").exists()


def test_failed_solve_leaves_only_its_report(tmp_path):
    # a solve that fails removes the solution and profile of an earlier run
    # into the same directory, so nothing there describes another state
    out = tmp_path / "out"
    assert main(["solve", "--config", write_cfg(tmp_path, GAS_KV),
                 "--out", str(out)]) == 0
    cfg = write_cfg(tmp_path, "c = 60\nm = 3\ngamma1 = 0.02\n", "fail.cfg")
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]
    assert json.loads((out / "report.json").read_text())["converged"] is False


def test_failed_sweep_removes_an_earlier_curve(tmp_path):
    out = tmp_path / "out"
    good = write_cfg(tmp_path, SWEEP_KV + "c_start = 0.2\nc_end = 0.5\n"
                     "c_step = 0.05\nm = 6\n")
    assert main(["sweep", "--config", good, "--out", str(out)]) == 0
    bad = write_cfg(tmp_path, SWEEP_KV + "c_start = 60\nc_end = 61\nm = 3\n",
                    "fail.cfg")
    assert main(["sweep", "--config", bad, "--out", str(out)]) == 3
    assert list(out.iterdir()) == []


def test_sweep_from_a_negative_radius_start_exits_3(tmp_path, capsys):
    # the m = 1 Newton solve at c = 60 meets the tolerance at a state with
    # lambda2 = r/s down to -0.49; this sweep once exited 0 with that curve
    cfg = write_cfg(tmp_path, SWEEP_KV + "c_start = 60\nc_end = 59\nm = 1\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert "lambda2 = r/s down to" in capsys.readouterr().err
    assert not (out / "loadsag.csv").exists()


@pytest.mark.parametrize("verb, first, second, names", [
    ("solve", json.dumps({**LIQ_JSON, "probes": [0.2, 0.5, 0.9]}),
     GAS_KV + "probes = 0.2\n", ("solution.json", "profile.csv", "report.json")),
    ("converge", GAS_KV + "m_min = 1\nm_max = 8\n",
     GAS_KV + "m_min = 1\nm_max = 3\n", ("table.csv",)),
    ("sweep", SWEEP_KV + "c_start = 0.1\nc_end = 1.9\nm = 6\n",
     SWEEP_KV + "c_start = 0.2\nc_end = 0.5\nc_step = 0.05\nm = 6\n",
     ("loadsag.csv",)),
], ids=["solve", "converge", "sweep"])
def test_rerun_over_longer_files_writes_what_a_fresh_run_writes(
        tmp_path, verb, first, second, names):
    # outputs are rewritten in place, then cut to their new length
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    first = write_cfg(tmp_path, first, "first.cfg")
    second = write_cfg(tmp_path, second, "second.cfg")
    assert main([verb, "--config", first, "--out", str(reused)]) == 0
    before = {name: (reused / name).stat().st_size for name in names}
    assert main([verb, "--config", second, "--out", str(fresh)]) == 0
    assert main([verb, "--config", second, "--out", str(reused)]) == 0
    for name in names:
        assert before[name] > (fresh / name).stat().st_size
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()


def test_converge_gas_ladder(tmp_path):
    cfg = write_cfg(tmp_path, GAS_KV + "m_min = 1\nm_max = 6\n")
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out),
                 "--probe", "0.2"]) == 0
    header, rows = read_csv(out / "table.csv")
    assert header == ["m", "z", "r", "dz", "dr", "d2z", "d2r", "delta"]
    assert rows.shape == (6, 8)
    assert list(rows[:, 0]) == [1, 2, 3, 4, 5, 6]
    fixtures = {
        4: (0.7926, 0.3068, -0.4350, 1.4759, -2.0421, -0.8560),
        5: (0.7926, 0.3069, -0.4362, 1.4758, -2.0415, -0.8591),
        6: (0.7926, 0.3069, -0.4362, 1.4757, -2.0406, -0.8596),
    }
    for m, expect in fixtures.items():
        row = rows[m - 1]
        for got, want in zip(row[1:5], expect[:4]):
            assert got == pytest.approx(want, abs=5e-4)
        for got, want in zip(row[5:7], expect[4:]):
            assert got == pytest.approx(want, abs=5e-3)
    delta = rows[:, 7]
    assert 2e-1 / 3 <= delta[0] <= 2e-1 * 3
    assert 2e-5 / 10 <= delta[-1] <= 2e-5 * 10
    # near-monotone decay at the probe point; the defect of one iterate can
    # cross zero close to the probe, so allow half an order of slack
    for a, b in zip(delta, delta[1:]):
        assert b <= a * math.sqrt(10.0)


def test_exit_code_2_names_the_probe_count(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GAS_KV + "m_min = 1\nm_max = 2\n")
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--probe", "0.2", "--probe", "0.5", "--probe", "0.9"]) == 2
    assert "got 3" in capsys.readouterr().err


@pytest.mark.parametrize("probe", [0.0, 0.2, 1.0], ids=["pole", "inside", "edge"])
@pytest.mark.parametrize("text, mat, load, family, p", [
    (GAS_KV, MaterialParams(gamma1=0.02, gamma2=-0.015, gamma3=0.00025),
     LoadParams(1.7), "polynomial", None),
    ("gamma1 = 0.1\nc = 0.5\nd = 10\nfamily = adaptive\np = 17.1\n",
     MaterialParams(gamma1=0.1), LoadParams(0.5, 10.0), "adaptive", (17.1,)),
    ("gamma1 = 0.1\nc = 0.5\nd = 10\nfamily = adaptive\n",
     MaterialParams(gamma1=0.1), LoadParams(0.5, 10.0), "adaptive", None),
], ids=["gas", "liquid-fixed-p", "liquid-searched-p"])
def test_converge_table_equals_the_per_size_solves(tmp_path, probe, text, mat,
                                                   load, family, p):
    # the ladder shares its m = 1 start and reads its probe cells from the
    # defect pass; each row is still the bytes that solve_membrane and
    # eval_shape at that m format to
    cfg = write_cfg(tmp_path, text + "m_min = 1\nm_max = 6\n")
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out),
                 "--probe", str(probe)]) == 0
    lines = ["m,z,r,dz,dr,d2z,d2r,delta\n"]
    for m in range(1, 7):
        state, report = solve_membrane(mat, load, family, m, p=p, probe=probe)
        sh = eval_shape(state, np.array(probe), second=True)
        cells = [_fmt(float(v)) for v in (sh.z, sh.r, sh.dz, sh.dr, sh.d2z, sh.d2r)]
        lines.append(f"{m}," + ",".join(cells) + f",{report.delta_at:.17e}\n")
    assert (out / "table.csv").read_bytes() == "".join(lines).encode()


def test_converge_rejects_a_negative_radius(tmp_path):
    # at c = 60 the m = 1 Newton solve converges to a state with r < 0 near
    # the pole, no membrane state, and m = 2 does not converge
    cfg = write_cfg(tmp_path, "gamma1 = 0.02\ngamma2 = -0.015\ngamma3 = 0.00025\n"
                    "c = 60\nm_min = 1\nm_max = 2\n")
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out),
                 "--probe", "0.2"]) == 3
    assert (out / "table.csv").read_text() == (
        "m,z,r,dz,dr,d2z,d2r,delta\n"
        "1,nan,nan,nan,nan,nan,nan,nan\n"
        "2,nan,nan,nan,nan,nan,nan,nan\n")


def test_converge_zero_load(tmp_path):
    # no load, no defect to scale: the delta column is the raw defect at the
    # probe, as in profile.csv, and the flat membrane has none
    cfg = write_cfg(tmp_path, "gamma1 = 0.02\nc = 0\nm_min = 1\nm_max = 3\n")
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out),
                 "--probe", "0.3"]) == 0
    _, rows = read_csv(out / "table.csv")
    assert list(rows[:, 0]) == [1, 2, 3]
    assert np.all(rows[:, 1] == 0.0)
    assert np.all(rows[:, 7] == 0.0)


def test_converge_polynomial_stall_under_weight(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "gamma1 = 0.1\nc = 0.5\nd = 10\nfamily = polynomial\n"
        "m_min = 8\nm_max = 8\n")
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out),
                 "--probe", "0.9"]) == 0
    _, rows = read_csv(out / "table.csv")
    assert rows.shape[0] == 1
    assert 1e-3 <= rows[0, 7] <= 1e-1


def test_sweep_fold_hints(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "gamma1 = 0.02\ngamma2 = -0.015\ngamma3 = 0.00025\n"
        "c_start = 0.1\nc_end = 1.9\nm = 6\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "loadsag.csv")
    assert header == ["c", "f", "stability_hint"]
    assert np.all(np.diff(rows[:, 1]) > 0.0)
    hints = rows[:, 2][rows[:, 2] != 0]
    assert int(np.count_nonzero(np.diff(hints))) == 2


def test_sweep_short_monotone_leg(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "gamma1 = 0.02\ngamma2 = -0.015\ngamma3 = 0.00025\n"
        "c_start = 0.2\nc_end = 0.5\nc_step = 0.05\nm = 6\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "loadsag.csv")
    assert np.all(np.diff(rows[:, 0]) > 0.0)
    assert np.all(np.diff(rows[:, 1]) > 0.0)
    assert np.all(rows[:, 2] >= 0.0)


def test_sweep_with_a_step_below_the_resolution_of_c(tmp_path):
    # 0.1 + 1e-300 == 0.1: the secant predictor raised ZeroDivisionError,
    # a traceback with exit code 1
    cfg = write_cfg(
        tmp_path,
        "gamma1 = 0.02\ngamma2 = -0.015\ngamma3 = 0.00025\n"
        "c_start = 0.1\nc_end = 1.0\nc_step = 1e-300\nm = 6\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) in (0, 3)


def test_sweep_from_zero_load(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP_KV + "c_start = 0\nc_end = 0.5\nm = 6\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "loadsag.csv")
    assert rows[0, :2].tolist() == [0.0, 0.0] and rows[-1, 0] == 0.5
    assert rows[-1, 1] == pytest.approx(0.3709397478679, abs=1e-12)
    assert np.all(np.diff(rows[:, 1]) > 0.0)


def test_sweep_empty_range(tmp_path):
    cfg = write_cfg(tmp_path, "c_start = 0.7\nc_end = 0.7\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "loadsag.csv").read_text()
    assert text == "c,f,stability_hint\n"


def test_scale_trivial_cases(capsys, tmp_path):
    args = ["scale", "--r0", "0.1", "--h0", "0.001", "--c1", "2e5",
            "--out", str(tmp_path / "s")]
    assert main(args + ["--rho-g", "9810", "--p-star", "1000",
                        "--p-ref", "1000"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["c"] == 0.0
    assert result["d"] == pytest.approx(0.24525, rel=1e-12)
    assert main(args + ["--rho-g", "0", "--p-star", "5000",
                        "--p-ref", "1000"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["d"] == 0.0
    assert result["c"] == pytest.approx(1.0, rel=1e-12)


def test_python_m_runs_the_readme_scale_example(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "ritzmem", "scale", "--r0", "0.1", "--h0",
         "0.001", "--c1", "2e5", "--rho-g", "9810", "--p-star", "5000",
         "--p-ref", "1000"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True)
    assert json.loads(done.stdout)["c"] == 1.0


def test_default_runs_need_numpy_alone(tmp_path):
    # with every scipy import made to fail: the package, a default gas
    # solve, a liquid d = 10 solve with its p search, and the README solve
    # (gas and liquid), converge and sweep
    gas = write_cfg(tmp_path, GAS_KV, "gas.cfg")
    liquid = write_cfg(tmp_path, json.dumps(LIQ_JSON), "liquid.json")
    ladder = write_cfg(tmp_path, GAS_KV + "m_min = 1\nm_max = 6\n", "ladder.cfg")
    sweep = write_cfg(tmp_path, SWEEP_KV + "c_start = 0.1\nc_end = 1.9\nm = 6\n",
                      "sweep.cfg")
    script = f"""
import sys
sys.modules["scipy"] = None
from ritzmem import LoadParams, MaterialParams, solve_membrane
from ritzmem.cli import main
for mat, load, family in ((MaterialParams(0.02, -0.015, 0.00025), LoadParams(1.7), "polynomial"),
                          (MaterialParams(0.1), LoadParams(0.5, 10.0), "adaptive")):
    assert solve_membrane(mat, load, family, 6)[1].converged
for args in (["solve", "--config", {gas!r}, "--out", "gas", "--probe", "0.2"],
             ["solve", "--config", {liquid!r}, "--out", "liquid", "--probe", "0.9"],
             ["converge", "--config", {ladder!r}, "--out", "ladder", "--probe", "0.2"],
             ["sweep", "--config", {sweep!r}, "--out", "sweep"]):
    assert main(args) == 0, args
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                   env={**os.environ, "PYTHONPATH": path}, check=True)
    assert (tmp_path / "sweep" / "loadsag.csv").is_file()


def test_scale_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        r0, h0, c1 = rng.uniform(0.01, 2.0, size=3)
        c = rng.uniform(-5.0, 5.0)
        d = rng.uniform(0.0, 20.0)
        denom = 2.0 * c1 * h0
        # keep the reference pressure at the scale of the difference, or the
        # subtraction sheds the digits the identity is asserted on
        p_ref = rng.uniform(-3.0, 3.0) * denom / r0
        p_star = c * denom / r0 + p_ref
        rho_g = d * denom / r0**2
        back = scale_inputs(r0=r0, h0=h0, c1=c1, rho_g=rho_g,
                            p_star=p_star, p_ref=p_ref)
        assert back["c"] == pytest.approx(c, rel=1e-12, abs=1e-15)
        assert back["d"] == pytest.approx(d, rel=1e-12, abs=1e-15)


def test_scale_rejects_nonpositive_geometry():
    with pytest.raises(ConfigError):
        scale_inputs(r0=0.0, h0=0.001, c1=2e5, rho_g=0.0,
                     p_star=1.0, p_ref=0.0)


@pytest.mark.parametrize("flags", [
    # 2 c1 h0 underflows to zero, which divided by zero
    ["--r0", "1e200", "--h0", "1e-200", "--c1", "1e-200", "--rho-g", "1",
     "--p-star", "1", "--p-ref", "0"],
    # c and d overflow, which printed "c": Infinity with exit code 0
    ["--r0", "1e308", "--h0", "1", "--c1", "1", "--rho-g", "1",
     "--p-star", "1e308", "--p-ref", "0"],
])
def test_scale_rejects_a_zero_denominator_or_a_non_finite_result(capsys, flags):
    assert main(["scale"] + flags) == 2
    assert capsys.readouterr().out == ""


def test_outputs_byte_reproducible(tmp_path):
    cfg = write_cfg(tmp_path, GAS_KV)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--probe", "0.2"]) == 0
    for name in ("solution.json", "profile.csv", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_calls_in_one_process_write_what_fresh_processes_write(monkeypatch, tmp_path):
    # the parser is built once per process; a --probe of one call must not
    # reach the next.  The third call repeats the first, finds the rule and
    # the basis, defect and profile tables it kept, and evaluates no
    # generator
    cfg = write_cfg(tmp_path, GAS_KV)
    runs = [["--probe", "0.2"], [], ["--probe", "0.2"]]
    passes = []
    inner = basis._generators

    def counted(*args, **kwargs):
        passes.append(args)
        return inner(*args, **kwargs)

    for i, flags in enumerate(runs):
        if i == 2:
            monkeypatch.setattr(basis, "_generators", counted)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / f"in{i}")]
                    + flags) == 0
    assert passes == []
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for i, flags in enumerate(runs[:2]):
        subprocess.run([sys.executable, "-m", "ritzmem", "solve", "--config", cfg,
                        "--out", str(tmp_path / f"fresh{i}")] + flags,
                       env={**os.environ, "PYTHONPATH": path}, check=True)
    assert json.loads((tmp_path / "in1" / "report.json").read_text())[
        "delta_probes"] == []
    for i, fresh in enumerate([0, 1, 0]):
        for name in ("solution.json", "profile.csv", "report.json"):
            assert ((tmp_path / f"in{i}" / name).read_bytes()
                    == (tmp_path / f"fresh{fresh}" / name).read_bytes())


@pytest.fixture(scope="module")
def solved_states():
    gas_mat, liq_mat = MaterialParams(0.02, -0.015, 0.00025), MaterialParams(0.1)
    gas, _ = solve_membrane(gas_mat, LoadParams(1.7), "polynomial", 6)
    steep, _ = solve_membrane(liq_mat, LoadParams(0.5, 10.0), "adaptive", 6, p=(17.1,))
    return {"gas-1.7": (gas, gas_mat),
            "zero-load": (SolutionState(gas.x, gas.spec, LoadParams(0.0)), gas_mat),
            "steep-17.1": (steep, liq_mat)}


@pytest.mark.parametrize("case", ["gas-1.7", "zero-load", "steep-17.1"])
def test_profile_rows_are_the_reference_strong_form(solved_states, case):
    # the profile's one strong-form pass has the bits of the independent
    # route: eval_shape at the grid, then the kinematics and material
    # functions; at zero load the defect is raw
    state, mat = solved_states[case]
    rows = profile_rows(state, mat)
    s = np.linspace(0.0, 1.0, rows.shape[0])
    shape, l1, l2, t1, t2, delta = strong_form(state, mat, s)
    want = [s, shape.z, shape.r, shape.dz, shape.dr, l1, l2, t1, t2, delta]
    assert [col.tobytes() for col in rows.T] == [w.tobytes() for w in want]
    assert np.max(delta) > 0.0


@pytest.mark.parametrize("spec, c", [
    pytest.param(BasisSpec("polynomial", 3), 1.7, id="1.7"),
    pytest.param(BasisSpec("polynomial", 3), 0.0, id="0.0"),
    pytest.param(BasisSpec("adaptive", 3, (17.1,)), 0.5, id="adaptive-17.1"),
])
def test_profile_cells_are_written_as_formatted_one_by_one(tmp_path, spec, c):
    x = np.array([0.8, -0.05, 0.01, 0.3, -0.02, 0.004])
    state = SolutionState(x, spec, LoadParams(c))
    mat = MaterialParams(0.02, -0.015, 0.00025)
    write_profile(tmp_path / "profile.csv", state, mat)
    lines = ["s,z,r,dz,dr,lambda1,lambda2,T1,T2,delta\n"]
    for row in profile_rows(state, mat):
        lines.append(",".join([_fmt(v) for v in row[:-1]] + [f"{row[-1]:.17e}"]) + "\n")
    assert (tmp_path / "profile.csv").read_text() == "".join(lines)
