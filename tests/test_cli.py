import inspect
import json
import multiprocessing
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dipolerings import cli, output, spectrum
from dipolerings.cli import (ConfigError, RunConfig, config_items, main, parse_config,
                             resolve_config)
from dipolerings.emfield import SingularityError
from dipolerings.fieldmap import GridSpec
from dipolerings.geometry import build_ring
from dipolerings.output import write_csv
from dipolerings.spectrum import assemble_heff, eigenmodes
from oracles import classify_modes, reference_cell


def run_cli(args):
    return main(args)


def test_parse_minimal_config_fills_defaults():
    values = parse_config("command = spectrum\n[geometry]\nn = 8\nd = 0.1\n"
                          "polarization = transverse\n")
    cfg = resolve_config(values, {})
    assert cfg.command == "spectrum"
    assert cfg.n == 8 and cfg.d == 0.1
    assert cfg.format == "csv" and cfg.t_steps == 2000


def test_negative_d_names_key():
    values = parse_config("[geometry]\nd = -0.5\n")
    with pytest.raises(ConfigError, match="d"):
        resolve_config(values, {"command": "spectrum"})


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("[geometry]\nn = 8\nwibble = 3\n")
    assert err.value.line == 3


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        parse_config("[lasers]\npower = 9\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[geometry]\nnonsense\n")
    assert err.value.line == 2


def test_fig5_style_scan_config():
    text = """
command = fidelity-scan
[geometry]
n = 20
d = 0.1
polarization = tangential
[physics]
m = 5
x_min = 0.05
x_max = 0.5
x_points = 4
"""
    cfg = resolve_config(parse_config(text), {})
    assert cfg.command == "fidelity-scan"
    assert cfg.n == 20 and cfg.m == 5 and cfg.x_points == 4


def test_config_echo_round_trip():
    cfg = resolve_config(parse_config("[geometry]\nn = 12\nd = 0.2\n"),
                         {"command": "spectrum", "polarization": "tangential"})
    echoed = "\n".join(f"{k} = {v}" for k, v in config_items(cfg))
    cfg2 = resolve_config(parse_config(echoed), {})
    assert cfg2 == cfg


def test_cli_override_beats_file(tmp_path):
    cfgfile = tmp_path / "c.txt"
    cfgfile.write_text("command = spectrum\n[geometry]\nn = 8\nd = 0.1\n")
    out = tmp_path / "o.csv"
    rc = run_cli(["spectrum", "--config", str(cfgfile), "--out", str(out),
                  "--set", "geometry.n=6"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert "# config: geometry.n = 6" in lines
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "index,m_label,J_over_Gamma0,Gamma_over_Gamma0"
    assert len(data) == 7  # header + 6 modes


def test_spectrum_has_one_row_per_mode(tmp_path):
    out = tmp_path / "spec.csv"
    rc = run_cli(["spectrum", "--out", str(out), "--set", "geometry.n=8",
                  "--set", "geometry.d=0.1"])
    assert rc == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 8
    labels = sorted(int(r.split(",")[1]) for r in rows)
    assert labels == [-3, -2, -1, 0, 1, 2, 3, 4]


def test_decay_scan_emits_two_series(tmp_path):
    out = tmp_path / "scan.csv"
    rc = run_cli(["decay-scan", "--out", str(out), "--set", "physics.n_min=4",
                  "--set", "physics.n_max=8", "--set", "physics.n_step=2"])
    assert rc == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    kinds = {r.split(",")[0] for r in rows}
    assert kinds == {"ring", "chain"}
    assert len(rows) == 6


def test_eta_includes_light_line_column(tmp_path):
    out = tmp_path / "eta.csv"
    rc = run_cli(["eta", "--out", str(out), "--set", "geometry.arrangement=site-site",
                  "--set", "geometry.n=10", "--set", "geometry.d=0.1",
                  "--set", "geometry.polarization=tangential"])
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "m1,m2,J,Gamma,eta,m_star"
    assert len(lines) == 101
    assert all(l.split(",")[5] == "1" for l in lines[1:])


def test_json_format(tmp_path):
    out = tmp_path / "spec.json"
    rc = run_cli(["spectrum", "--out", str(out), "--format", "json",
                  "--set", "geometry.n=4", "--set", "geometry.d=0.2"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["version"]
    assert len(doc["modes"]) == 4
    # interleaved re/im eigenvector arrays
    assert len(doc["modes"][0]["eigenvector"]) == 8


def test_exit_codes(tmp_path, capsys):
    rc = run_cli(["spectrum", "--out", str(tmp_path / "x.csv"), "--set", "geometry.d=-1"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == 2
    rc = run_cli(["fieldmap", "--out", str(tmp_path / "y.csv"),
                  "--set", "geometry.arrangement=chain"])
    assert rc == 2  # fieldmap needs a ring geometry


def test_fidelity_trace_command(tmp_path):
    out = tmp_path / "fid.csv"
    rc = run_cli(["fidelity", "--out", str(out),
                  "--set", "geometry.arrangement=site-site",
                  "--set", "geometry.n=8", "--set", "geometry.d=0.1",
                  "--set", "geometry.polarization=tangential",
                  "--set", "geometry.x=0.15", "--set", "physics.m=2",
                  "--set", "physics.delta_theta=1.0",
                  "--set", "physics.t_max=20", "--set", "physics.t_steps=50"])
    assert rc == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "t,fidelity,argmax_site"
    assert len(rows) == 51
    first = rows[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) < 1e-10


@pytest.mark.parametrize("args", [
    ["spectrum", "--set", "geometry.n=6", "--set", "geometry.d=0.15"],
    ["decay-scan", "--set", "physics.n_min=4", "--set", "physics.n_max=6"],
    ["fieldmap", "--set", "geometry.n=6", "--set", "geometry.d=0.3",
     "--set", "physics.m=3", "--set", "physics.resolution=11"],
    ["coupling", "--set", "geometry.arrangement=site-site", "--set", "geometry.n=6",
     "--set", "geometry.d=0.1", "--set", "geometry.polarization=tangential"],
    ["eta", "--set", "geometry.arrangement=site-edge", "--set", "geometry.n=6",
     "--set", "geometry.d=0.1", "--set", "geometry.polarization=tangential"],
    ["fidelity", "--set", "geometry.arrangement=site-site", "--set", "geometry.n=6",
     "--set", "geometry.d=0.1", "--set", "geometry.polarization=tangential",
     "--set", "physics.m=2", "--set", "physics.t_max=10", "--set", "physics.t_steps=40"],
    ["fidelity-scan", "--set", "geometry.n=6", "--set", "geometry.d=0.1",
     "--set", "geometry.polarization=tangential", "--set", "physics.m=2",
     "--set", "physics.x_points=2", "--set", "physics.dtheta_points=2",
     "--set", "physics.t_max=10", "--set", "physics.t_steps=40",
     "--set", "geometry.arrangement=site-site"],
])
def test_byte_identical_reruns(tmp_path, args):
    out = tmp_path / "artifact.csv"
    assert run_cli(args + ["--out", str(out)]) == 0
    first = out.read_bytes()
    assert run_cli(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_one_parser_takes_options_around_the_command(tmp_path, capsys):
    """No command or an unknown one is argparse's usage error (exit 2); the options
    may stand before or after the command and write the same artifact."""
    for args in ([], ["bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    out = tmp_path / "spectrum.csv"
    assert run_cli(["spectrum", "--set", "geometry.n=5", "--out", str(out)]) == 0
    after = out.read_bytes()
    out.unlink()
    assert run_cli(["--set", "geometry.n=5", "spectrum", "--out", str(out)]) == 0
    assert out.read_bytes() == after


@pytest.mark.parametrize("n", [8, 11])
def test_single_ring_spectrum_matches_labelled_eig(tmp_path, n):
    out = tmp_path / "spec.json"
    assert run_cli(["spectrum", "--out", str(out), "--format", "json",
                    "--set", f"geometry.n={n}", "--set", "geometry.d=0.1",
                    "--set", "geometry.polarization=tangential"]) == 0
    modes = json.loads(out.read_text())["modes"]
    ring = build_ring(n, 0.1, "tangential")
    h = assemble_heff(ring)
    spec = classify_modes(eigenmodes(h), ring)
    expected = {int(m): (j, g) for m, j, g in zip(spec.labels, spec.shifts, spec.rates)}
    got = {int(mode["m_label"]): (mode["J_over_Gamma0"], mode["Gamma_over_Gamma0"])
           for mode in modes}
    assert len(modes) == n and set(got) == set(expected)
    for m, (j, g) in got.items():
        assert abs(j - expected[m][0]) < 1e-10 and abs(g - expected[m][1]) < 1e-10
    shifts, rates = np.array(list(got.values())).T
    assert abs(np.sum(rates) - n) < 1e-10 and abs(np.sum(shifts)) < 1e-10
    # the written eigenvectors are exact, unit-norm, with site 0 real positive
    for mode in modes:
        lam = complex(*mode["eigenvalue"])
        v = np.array(mode["eigenvector"][0::2]) + 1j * np.array(mode["eigenvector"][1::2])
        assert np.linalg.norm(h @ v - lam * v) < 1e-10
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12 and v[0].real > 0 and v[0].imag == 0


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 80 GiB"), MemoryError()])
def test_memory_error_is_a_numeric_error(tmp_path, capsys, monkeypatch, exc):
    def out_of_memory(cfg):
        raise exc

    monkeypatch.setitem(cli._DISPATCH, "spectrum", out_of_memory)
    out = tmp_path / "x.csv"
    assert run_cli(["spectrum", "--out", str(out)]) == cli.EXIT_NUMERIC_ERROR == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    info = json.loads(err)["error"]
    assert info["code"] == 3 and info["message"] == (str(exc) or "MemoryError")
    assert not out.exists()


_MIN_RATE = spectrum._min_rate


class _FailsInWorkers:
    """Stands in for spectrum._min_rate (it pickles, unlike a closure): the test process
    computes, a forked worker raises `error`, or, with None, ends as if the OS killed it."""

    def __init__(self, error):
        self.error, self.parent = error, os.getpid()

    def __call__(self, *args):
        if os.getpid() == self.parent:
            return _MIN_RATE(*args)
        if self.error is None:
            os._exit(1)
        raise self.error


@pytest.mark.skipif(spectrum._blas_threads() is None
                    or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
                    or "fork" not in multiprocessing.get_all_start_methods(),
                    reason="decay-scan runs in-process here")
@pytest.mark.parametrize("error", [SingularityError("emitters 0 and 1 are coincident"),
                                   ArithmeticError("h has non-finite couplings"),
                                   ValueError("bad size"), None])
def test_worker_failures_are_numeric_errors(tmp_path, capsys, monkeypatch, error):
    monkeypatch.setattr(spectrum, "_min_rate", _FailsInWorkers(error))
    monkeypatch.setattr(spectrum, "_FORK_WORK", 0)   # fork this small chain scan too
    out = tmp_path / "scan.csv"
    assert run_cli(["decay-scan", "--set", "physics.n_min=10", "--set", "physics.n_max=20",
                    "--set", "physics.n_step=5", "--threads", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    info = json.loads(err)["error"]
    assert info["code"] == 3
    if error is None:
        assert info["message"].startswith("a worker process ended without a result")
    else:
        assert info["message"] == str(error)
    assert not out.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_decay_scan_non_finite_rate_is_a_numeric_error(tmp_path, capsys, monkeypatch, fmt):
    scan = cli.min_decay_scan

    def nan_chain_rate(kind, *args, **kwargs):
        table = scan(kind, *args, **kwargs)
        if kind == "chain":
            table[-1, 1] = np.nan
        return table

    monkeypatch.setattr(cli, "min_decay_scan", nan_chain_rate)
    out = tmp_path / f"scan.{fmt}"
    assert run_cli(["decay-scan", "--out", str(out), "--format", fmt,
                    "--set", "physics.n_min=4", "--set", "physics.n_max=8"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err) == {"error": {
        "code": 3, "message": "the result has non-finite values; an input is out of range"}}
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fieldmap_point_on_emitter_is_a_numeric_error(tmp_path, capsys, fmt):
    # the n = 2 ring has a site at (0.5, 0, 0), a point of the default xy grid
    out = tmp_path / f"map.{fmt}"
    assert run_cli(["fieldmap", "--out", str(out), "--format", fmt,
                    "--set", "geometry.n=2", "--set", "geometry.d=1.0"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and json.loads(err)["error"]["code"] == 3
    assert not out.exists()


def test_fieldmap_builds_its_grid_once(tmp_path, monkeypatch):
    built = []
    points = GridSpec.points

    def counted(grid):
        built.append(grid)
        return points(grid)

    monkeypatch.setattr(GridSpec, "points", counted)
    out = tmp_path / "map.csv"
    assert run_cli(["fieldmap", "--out", str(out), "--set", "geometry.n=6",
                    "--set", "geometry.d=0.3", "--set", "physics.resolution=7"]) == 0
    assert len(built) == 1
    assert [r[:3] for r in _data_lines(out)] == [[reference_cell(float(v), 12) for v in p]
                                                  for p in points(built[0])]


def test_write_csv_binds_as_the_benchmark_tracer_reads_it(tmp_path, monkeypatch):
    """The benchmark tracer binds write_csv's arguments to its signature and counts
    output.rows as len(rows) and output.bytes as the size of the file at `path`."""
    signature, bound = inspect.signature(output.write_csv), []

    def probed(*args, **kwargs):
        result = write_csv(*args, **kwargs)
        bound.append(signature.bind(*args, **kwargs).arguments)
        return result

    monkeypatch.setattr(cli, "write_csv", probed)
    out = tmp_path / "map.csv"
    assert run_cli(["fieldmap", "--out", str(out), "--set", "geometry.n=6",
                    "--set", "geometry.d=0.3", "--set", "physics.resolution=7"]) == 0
    (arguments,) = bound
    assert os.path.samefile(arguments["path"], out)
    assert len(arguments["rows"]) == len(_data_lines(out)) == 7 * 7


@pytest.mark.parametrize("site", [50, -7, 10, -2])
def test_center_site_outside_ring_is_a_config_error(tmp_path, capsys, site):
    out = tmp_path / "fid.csv"
    assert run_cli(["fidelity", "--out", str(out),
                    "--set", "geometry.arrangement=site-site", "--set", "geometry.n=10",
                    "--set", "geometry.polarization=tangential",
                    "--set", f"physics.center_site={site}", "--set", "physics.t_steps=20"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == 2
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["spectrum", "--set", "geometry.n=7", "--set", "geometry.polarization=tangential"],
    ["spectrum", "--set", "geometry.arrangement=site-edge", "--set", "geometry.n=5"],
    ["decay-scan", "--set", "physics.n_min=4", "--set", "physics.n_max=7"],
    ["fieldmap", "--set", "geometry.n=6", "--set", "geometry.d=0.3",
     "--set", "physics.m=2", "--set", "physics.resolution=11", "--set", "physics.extent=0.3"],
    ["coupling", "--set", "geometry.arrangement=site-site", "--set", "geometry.n=6"],
    ["eta", "--set", "geometry.arrangement=site-edge", "--set", "geometry.n=6"],
    ["fidelity", "--set", "geometry.arrangement=site-site", "--set", "geometry.n=6",
     "--set", "physics.m=2", "--set", "physics.t_max=10", "--set", "physics.t_steps=30"],
    ["fidelity-scan", "--set", "geometry.n=6", "--set", "physics.m=2",
     "--set", "physics.x_points=2", "--set", "physics.dtheta_points=3",
     "--set", "physics.t_max=10", "--set", "physics.t_steps=30"],
])
def test_json_records_match_csv_table(tmp_path, args):
    """Both formats come from one table: one JSON record per CSV row, in row order,
    keyed by the CSV columns (the file sorts each record's keys), with values that
    print as the CSV cells at its precision."""
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    assert run_cli(args + ["--out", str(csv_out), "--set", "output.precision=9"]) == 0
    assert run_cli(args + ["--out", str(json_out), "--format", "json",
                           "--set", "output.precision=9"]) == 0
    header, *rows = [line.split(",") for line in csv_out.read_text().splitlines()
                     if not line.startswith("#")]
    doc = json.loads(json_out.read_text())
    (key,) = set(doc) - {"tool", "version", "units", "config", "metadata"}
    records = doc[key]
    assert len(records) == len(rows) > 0
    extra = {"eigenvalue", "eigenvector"} if args[0] == "spectrum" else set()
    for record, row in zip(records, rows):
        assert set(record) == set(header) | extra
        assert [reference_cell(record[c], 9) for c in header] == row


def test_unwritable_output_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "x.csv"
    assert run_cli(["spectrum", "--out", str(out), "--set", "geometry.n=4"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and json.loads(err)["error"]["code"] == 2


@pytest.mark.parametrize("args", [
    ["spectrum", "--set", "geometry.d=nan"],
    ["fieldmap", "--set", "physics.extent=inf"],
    ["fidelity", "--set", "geometry.arrangement=site-site", "--set", "physics.t_max=inf"],
    ["fidelity", "--set", "geometry.arrangement=site-site", "--set", "physics.delta_theta=nan"],
    ["decay-scan", "--set", "physics.wavelength_over_d=inf"],
    ["spectrum", "--set", "geometry.x=-inf"],
])
def test_non_finite_float_is_a_config_error(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    assert run_cli(args + ["--out", str(out)]) == 2
    info = json.loads(capsys.readouterr().err)["error"]
    assert info["code"] == 2 and info["message"].startswith("invalid value")
    assert not out.exists()


def test_non_finite_float_in_file_reports_line_number():
    with pytest.raises(ConfigError, match="invalid value 'inf' for key 'd'") as err:
        parse_config("[geometry]\nn = 8\nd = inf\n")
    assert err.value.line == 3


def test_fidelity_scan_chain_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert run_cli(["fidelity-scan", "--out", str(out),
                    "--set", "geometry.arrangement=chain"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == 2
    assert not out.exists()


@pytest.mark.parametrize("command, column", [("fidelity", 1), ("fidelity-scan", 3)])
def test_one_site_rings_give_finite_fidelities(tmp_path, command, column):
    out = tmp_path / "f.csv"
    assert run_cli([command, "--out", str(out), "--set", "geometry.arrangement=site-site",
                    "--set", "geometry.n=1", "--set", "physics.t_steps=50",
                    "--set", "physics.x_points=2", "--set", "physics.dtheta_points=2"]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    fidelities = np.array([float(r[column]) for r in rows])
    assert len(rows) > 0 and np.all(np.isfinite(fidelities))
    assert np.all((fidelities >= 0.0) & (fidelities <= 1.0)) and fidelities.max() > 0.0


def test_subcommand_beats_command_key(tmp_path):
    cfgfile = tmp_path / "c.txt"
    cfgfile.write_text("command = fidelity\n")
    for extra in (["--config", str(cfgfile)], ["--set", "command=fidelity"]):
        out = tmp_path / "s.csv"
        assert run_cli(["spectrum", "--out", str(out), "--set", "geometry.n=4"] + extra) == 0
        lines = out.read_text().splitlines()
        assert "# config: command = spectrum" in lines
        assert "index,m_label,J_over_Gamma0,Gamma_over_Gamma0" in lines


def test_every_echoed_key_is_a_set_override(tmp_path):
    """The header lists each RunConfig field once as section.name, and --set
    accepts every one of those lines back with the same result."""
    cfg = resolve_config(parse_config("[geometry]\nn = 5\nd = 0.2\n"), {"command": "spectrum"})
    items = config_items(cfg)
    assert [k.rpartition(".")[2] for k, _ in items] == [f.name for f in fields(RunConfig)]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["spectrum", "--out", str(first), "--set", "geometry.n=5",
                    "--set", "geometry.d=0.2"]) == 0
    overrides = [arg for k, v in items if k not in ("command", "output.out")
                 for arg in ("--set", f"{k}={v}")]
    assert run_cli(["spectrum", "--out", str(second)] + overrides) == 0
    assert first.read_text().replace(str(first), "") == second.read_text().replace(str(second), "")


def test_unknown_set_key_is_a_config_error(tmp_path, capsys):
    assert run_cli(["spectrum", "--out", str(tmp_path / "x.csv"), "--set", "geometry.wibble=3"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["message"] == "unknown key 'geometry.wibble'"


@pytest.mark.parametrize("flag, value, message", [
    ("--threads", "abc", "invalid value 'abc' for key 'threads'"),
    ("--format", "xml", "unknown format 'xml'"),
])
def test_bad_output_flag_is_the_config_error_of_its_key(tmp_path, capsys, flag, value, message):
    out = tmp_path / "x.csv"
    for args in ([flag, value], ["--set", f"output.{flag[2:]}={value}"]):
        assert run_cli(["spectrum", "--out", str(out), *args]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": {"code": 2, "message": message}}
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["spectrum", "--set", "geometry.d=1e308"],
    ["fidelity", "--set", "geometry.arrangement=site-site", "--set", "physics.delta_theta=1e-300"],
    ["coupling", "--set", "geometry.arrangement=site-site", "--set", "geometry.x=1e308"],
    ["fieldmap", "--set", "physics.extent=1e308", "--set", "physics.resolution=5"],
])
def test_overflow_to_non_finite_is_a_numeric_error(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    assert run_cli(args + ["--out", str(out)]) == 3
    info = json.loads(capsys.readouterr().err)["error"]
    assert info["code"] == 3 and "non-finite" in info["message"]
    assert not out.exists()


@pytest.mark.parametrize("command, key", [("fidelity", "physics.delta_theta"),
                                          ("fidelity-scan", "physics.dtheta_max")])
def test_a_width_whose_square_overflows_runs_as_the_spin_wave_limit(tmp_path, command, key):
    tables = []
    for width in ("1e150", "1e200"):
        out = tmp_path / f"{width}.csv"
        assert run_cli([command, "--out", str(out), *SMALL, "--set", f"{key}={width}"]) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()
                         if not line.startswith("#")]
        kept = [k for k, column in enumerate(header) if column not in ("width", "delta_theta")]
        tables.append([[row[k] for k in kept] for row in rows])
    assert tables[0] == tables[1]


@pytest.mark.parametrize("command, column", [("fidelity", 1), ("fidelity-scan", 3)])
def test_a_horizon_at_the_float_limit_writes_zero_fidelities_and_no_warning(tmp_path, command,
                                                                            column):
    # t lambda overflows on the phase table's exp anchors, where pyproject turns a warning into
    # an error
    out = tmp_path / "x.csv"
    assert run_cli([command, "--out", str(out), "--set", "physics.t_max=1e308",
                    "--set", "physics.t_steps=200", "--set", "physics.x_points=2",
                    "--set", "physics.dtheta_points=2"]) == 0
    _, *rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("#")]
    if command == "fidelity":
        assert [row[column] for row in rows[1:]] == ["0"] * (len(rows) - 1)
    else:       # the largest fidelity is the round-off at t = 0
        assert all(float(row[column]) < 1e-12 and row[column + 1] == "0" for row in rows)


@pytest.mark.parametrize("command", ["fidelity", "fidelity-scan"])
def test_a_default_horizon_that_symmetry_cancels_is_a_numeric_error(tmp_path, capsys, command):
    # site-edge n = 6 at m = 3: lambda_{3,-3} is round-off, once a horizon of 1e17 with F = 0
    out = tmp_path / "x.csv"
    assert run_cli([command, "--out", str(out), "--set", "geometry.arrangement=site-edge",
                    "--set", "geometry.n=6", "--set", "physics.m=3",
                    "--set", "physics.t_steps=5"]) == 3
    assert json.loads(capsys.readouterr().err) == {"error": {
        "code": 3, "message": "zero inter-ring coupling; specify the horizon explicitly"}}
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["spectrum", "--set", "geometry.arrangement=site-site", "--set", "geometry.x=1e-320"],
    ["fidelity", "--set", "geometry.n=3", "--set", "geometry.x=1e-300"],
    ["spectrum", "--set", "geometry.arrangement=site-site", "--set", "geometry.d=1e200"],
])
def test_site_site_gap_at_the_positions_round_off_is_a_numeric_error(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    assert run_cli(args + ["--out", str(out)]) == 3
    info = json.loads(capsys.readouterr().err)["error"]
    assert info["code"] == 3 and "site-site gap" in info["message"]
    assert not out.exists()


def test_underflowing_spacing_is_a_numeric_error_naming_the_couplings(tmp_path, capsys):
    # lambda/d = 1e200: the 1e-200 separations underflow in the norm, so row 0 of h is NaN
    out = tmp_path / "x.csv"
    assert run_cli(["decay-scan", "--out", str(out),
                    "--set", "physics.wavelength_over_d=1e200"]) == 3
    info = json.loads(capsys.readouterr().err)["error"]
    assert info["code"] == 3
    assert "non-finite couplings" in info["message"] and "out of range" in info["message"]
    assert "1e-200" in info["message"]
    assert not out.exists()


@pytest.mark.parametrize("arrangement", ["chain", "site-site"])
@pytest.mark.parametrize("d, shown", [("1e-200", "1e-200"), ("1e200", "1e+200")])
def test_out_of_range_spacing_names_the_couplings(tmp_path, capsys, arrangement, d, shown):
    # at d = 1e200 a gap of one spacing: the default 0.15 is below a 1e200 ring's position
    # round-off, a site-site gap that build_two_rings rejects before any coupling
    gap = ["--set", "geometry.x=1e200"] if d == "1e200" else []
    out = tmp_path / "x.csv"
    assert run_cli(["spectrum", "--out", str(out), "--set", f"geometry.arrangement={arrangement}",
                    "--set", f"geometry.d={d}", *gap]) == 3
    info = json.loads(capsys.readouterr().err)["error"]
    assert info["code"] == 3
    assert "non-finite couplings" in info["message"] and "out of range" in info["message"]
    assert f"separation of {shown} wavelengths" in info["message"]
    assert not out.exists()


def test_coupling_needs_only_the_inter_ring_couplings_in_range(tmp_path):
    # the 1e-200 spacing underflows within each ring, not between the rings 0.15 apart
    out = tmp_path / "c.csv"
    assert run_cli(["coupling", "--out", str(out), "--set", "geometry.arrangement=site-site",
                    "--set", "geometry.d=1e-200"]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 100 and all(np.isfinite(float(v)) for r in rows for v in r[2:])


def test_eta_with_a_rate_at_the_float64_floor_is_a_numeric_error(tmp_path, capsys):
    # one isolated-ring rate of the n = 64 tangential ring comes out exactly 0.0, so eta at
    # (m, m) would be J^2 / 0; the error names the pair instead of a divide-by-zero warning
    out = tmp_path / "eta.csv"
    assert run_cli(["eta", "--out", str(out), "--set", "geometry.arrangement=site-edge",
                    "--set", "geometry.n=64", "--set", "geometry.polarization=tangential"]) == 3
    info = json.loads(capsys.readouterr().err)["error"]
    assert info["code"] == 3
    assert "(m1, m2) = (32, 32)" in info["message"] and "below the float64 floor" in info["message"]
    assert not out.exists()


# Small inputs every command accepts; each command reads only its own keys.
SMALL = ["--set", "geometry.n=6", "--set", "geometry.d=0.3", "--set", "physics.m=2",
         "--set", "physics.t_max=10", "--set", "physics.t_steps=40",
         "--set", "physics.x_points=2", "--set", "physics.dtheta_points=2",
         "--set", "physics.n_min=4", "--set", "physics.n_max=6", "--set", "physics.resolution=9"]


def _refuse_to_build(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a rejected run built a geometry")
    for builder in ("build_ring", "build_chain", "build_two_rings"):
        monkeypatch.setattr(cli, builder, refuse)


@pytest.mark.parametrize("arrangement", ["single", "chain", "site-site", "site-edge", None])
@pytest.mark.parametrize("command", list(cli._DISPATCH))
def test_each_command_runs_the_arrangements_of_its_table(tmp_path, capsys, monkeypatch,
                                                         command, arrangement):
    out = tmp_path / "a.csv"
    allowed = cli._ARRANGEMENTS[command]
    chosen = [] if arrangement is None else ["--set", f"geometry.arrangement={arrangement}"]
    if arrangement is not None and arrangement not in allowed:
        _refuse_to_build(monkeypatch)
        assert run_cli([command, "--out", str(out), *SMALL, *chosen]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == 2
        assert not out.exists()
        return
    assert run_cli([command, "--out", str(out), *SMALL, *chosen]) == 0
    echoed = f"# config: geometry.arrangement = {arrangement or allowed[0]}"
    assert echoed in out.read_text().splitlines()


@pytest.mark.parametrize("command", ["spectrum", "decay-scan"])
@pytest.mark.parametrize("polarization", ["tangential", "radial"])
def test_chain_with_ring_polarization_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                        command, polarization):
    out = tmp_path / "chain.csv"
    _refuse_to_build(monkeypatch)
    assert run_cli([command, "--out", str(out), "--set", "geometry.arrangement=chain",
                    "--set", f"geometry.polarization={polarization}",
                    "--set", "geometry.n=5"]) == 2
    assert polarization in json.loads(capsys.readouterr().err)["error"]["message"]
    assert not out.exists()


def test_dispatch_and_arrangement_tables_agree():
    assert list(cli._DISPATCH) == list(cli._ARRANGEMENTS)
    every, pairs = ("single", "chain", "site-site", "site-edge"), ("site-site", "site-edge")
    assert cli._ARRANGEMENTS == {"spectrum": every, "decay-scan": every, "fieldmap": ("single",),
                                 "coupling": pairs, "eta": pairs, "fidelity": pairs,
                                 "fidelity-scan": pairs}
    # the benchmark tracer wraps the CLI's cmd_* functions where the table holds them
    for fn in cli._DISPATCH.values():
        assert fn.__name__.startswith("cmd_") and getattr(cli, fn.__name__) is fn


def _typed_table(columns: dict) -> np.ndarray:
    """A structured array of the columns, each typed by numpy as a command's would be;
    unlike a command's table it may hold NaN and infinities."""
    arrays = {name: np.asarray(values) for name, values in columns.items()}
    table = np.empty(len(next(iter(arrays.values()))),
                     [(name, a.dtype) for name, a in arrays.items()])
    for name, a in arrays.items():
        table[name] = a
    return table


def _data_lines(path):
    return [line.split(",") for line in path.read_text().splitlines()
            if not line.startswith("#")][1:]


_EDGE = [np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0)]
_FLOATS = [0.0, -0.0, *_EDGE, *(-v for v in _EDGE), 1e-300, 1e300, np.nan, np.inf, -np.inf]
CELLS = [*map(float, _FLOATS), *map(np.float64, _FLOATS), True, False, np.True_, np.False_,
         0, 7, -3, "ring"]


@pytest.mark.parametrize("digits", [1, 12, 17])
def test_cells_keep_their_text(tmp_path, digits):
    """A one-row table, one column per cell: each prints as the oracle prints the Python
    value its row holds."""
    table = _typed_table({f"c{i}": [v] for i, v in enumerate(CELLS)})
    assert [table[c].dtype.kind for c in table.dtype.names] == (
        ["f"] * 2 * len(_FLOATS) + ["b"] * 4 + ["i"] * 3 + ["U"])
    out = tmp_path / "cells.csv"
    write_csv(out, "0", [], table.dtype.names, table, digits)
    (row,) = table.tolist()
    assert _data_lines(out) == [[reference_cell(v, digits) for v in row]]
    # the rules at their edges, spelled out
    edges = _typed_table({"a": [-0.0], "b": [1e-4], "c": [np.nextafter(1e-4, 0.0)],
                          "d": [np.True_], "e": [np.int64(-3)]})
    write_csv(out, "0", [], edges.dtype.names, edges, 12)
    assert _data_lines(out) == [["0", "0.0001", "1.00000000000e-04", "1", "-3"]]


def _table_columns(rows: int):
    """Typed columns of `rows` rows: a repeated grid coordinate, repeated +-0, the 1e-4
    edges and the extremes, int, bool and str columns, and a distinct float column that
    also holds every edge value."""
    edge = [float(v) for v in _EDGE]
    extremes = [0.0, -0.0, *edge, *(-v for v in edge), 1e300, -1e300, 1e-300, -1e-300,
                np.nan, np.inf, -np.inf]
    repeated = {
        "grid": [2.5, 3.75, 2.5, 3.75, 2.5, 3.75, -6.125, 2.5, 3.75, -6.125, 2.5, 3.75],
        "zeros": [-0.0, 0.0, 0.0, -0.0, 1.5, 1.5, 0.0, -0.0, -0.0, 0.0, 1.5, -0.0],
        "edge": edge + [-v for v in edge] + edge + [-v for v in edge],
        "ints": [1, 0, -7, 12, 1, 0, 3, 1, 0, 2**40, -1, 1],
        "bools": [True, np.True_, False, np.False_, True, True, False, True, False, False,
                  np.True_, True],
        "label": ["ring", "chain", "ring", "", "ring", "chain", "a b", "ring", "", "x", "y", "z"],
    }
    columns = {name: np.resize(np.asarray(values), rows) for name, values in repeated.items()}
    columns["extremes"] = np.resize(np.asarray(extremes), rows)
    columns["distinct"] = np.array(extremes + [1.0 / k for k in range(1, rows - len(extremes) + 1)])
    return columns


@pytest.mark.parametrize("digits", [1, 12, 17])
def test_multi_row_table_cells_keep_their_text(tmp_path, monkeypatch, digits):
    """A table past 4096 rows, every column type a command writes: each cell prints as the
    oracle prints its value, a grid column formats each distinct value once, and a
    row prints the same in any table."""
    table = _typed_table(_table_columns(4101))
    assert [table[c].dtype.kind for c in table.dtype.names] == list("fffibUff")
    formatted = []

    def counting_format(v, spec):
        formatted.append(v)
        return format(v, spec)

    monkeypatch.setattr(output, "format", counting_format, raising=False)
    out = tmp_path / "table.csv"
    write_csv(out, "0", [], table.dtype.names, table, digits)
    monkeypatch.undo()
    lines = out.read_text().splitlines()
    assert lines[-4102] == ",".join(table.dtype.names)
    assert [line.split(",") for line in lines[-4101:]] == [
        [reference_cell(v, digits) for v in row] for row in table.tolist()]
    # the repeated float columns take one format per distinct value, "distinct" one per cell
    assert [formatted.count(v) for v in (2.5, 3.75, -6.125, 1.5, 1e300)] == [1, 1, 1, 1, 1 + 1]
    # "zeros" and "extremes" format 0 once for +0 and -0 alike; "distinct" once per cell
    assert formatted.count(0.0) == 1 + 1 + 2
    # the first 12 rows on their own print as they do in the long table
    write_csv(tmp_path / "head.csv", "0", [], table.dtype.names, table[:12], digits)
    assert (tmp_path / "head.csv").read_text().splitlines()[-12:] == lines[-4101:-4089]


def test_row_blocks_print_the_text_of_one_block(tmp_path, monkeypatch):
    """A table of two row blocks plus one row, every column type a command writes, prints
    byte for byte as it does when written in one piece; the grid column is a grid in the
    whole table but not in its one-row last block."""
    rows = 2 * output._WRITE_ROWS + 1
    table = _typed_table(_table_columns(rows))
    assert [table[c].dtype.kind for c in table.dtype.names] == list("fffibUff")
    columns, format_column = [], output._format_column
    monkeypatch.setattr(output, "_format_column",
                        lambda column, digits: columns.append(len(column))
                        or format_column(column, digits))
    items = [("geometry.n", "7")]
    write_csv(tmp_path / "blocks.csv", "0", items, table.dtype.names, table, 12)
    assert columns == [output._WRITE_ROWS] * 16 + [1] * 8
    monkeypatch.setattr(output, "_WRITE_ROWS", rows)
    write_csv(tmp_path / "whole.csv", "0", items, table.dtype.names, table, 12)
    assert columns[24:] == [rows] * 8
    text = (tmp_path / "blocks.csv").read_bytes()
    assert text == (tmp_path / "whole.csv").read_bytes()
    assert text.count(b"\n") == 3 + 1 + rows and text.endswith(b"\n")


@pytest.mark.skipif(spectrum._blas_threads() is None
                    or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs the OpenBLAS thread setter and two CPUs")
def test_artifact_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the CI long-horizon fidelity run, whose digits moved with the BLAS thread count
    out = tmp_path / "fidelity-long.csv"
    args = ["fidelity", "--set", "geometry.arrangement=site-edge", "--set", "geometry.n=100",
            "--set", "geometry.polarization=transverse", "--set", "geometry.x=0.3",
            "--set", "physics.m=22", "--out", str(out)]
    get_threads, set_threads = spectrum._blas_threads()
    previous = get_threads()
    artifacts = []
    try:
        for threads in (1, 2):
            set_threads(threads)
            assert run_cli(args) == 0
            assert get_threads() == threads
            artifacts.append(out.read_bytes())
    finally:
        set_threads(previous)
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("args", [
    ["spectrum", "--set", "geometry.d=1e300"],
    ["fidelity", "--set", "geometry.x=1e300"],
    ["decay-scan", "--set", "physics.wavelength_over_d=1e-300"],
    ["fieldmap", "--set", "physics.extent=1e300"],
])
def test_out_of_range_geometry_prints_one_json_line_and_no_warning(tmp_path, capsys, args):
    # a numpy RuntimeWarning would print above the JSON error on the command line's stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(args + ["--out", str(tmp_path / "x.csv")]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert json.loads(err)["error"]["code"] == 3


def test_ab_time_runs_the_checkout_against_itself():
    tests = Path(__file__).resolve().parent
    proc = subprocess.run([sys.executable, str(tests / "ab_time.py"), str(tests.parent),
                           str(tests.parent), "--rounds", "2", "--", "spectrum", "--set",
                           "geometry.n=8"], capture_output=True, text=True, timeout=120,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    assert "data lines identical" in proc.stdout
