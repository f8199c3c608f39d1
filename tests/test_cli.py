import json
import multiprocessing
import os
from dataclasses import fields

import numpy as np
import pytest

from dipolerings import cli, output, spectrum
from dipolerings.cli import (ConfigError, RunConfig, config_items, main, parse_config,
                             resolve_config)
from dipolerings.emfield import SingularityError
from dipolerings.fieldmap import GridSpec
from dipolerings.geometry import build_ring
from dipolerings.output import _cell_format, write_csv
from dipolerings.spectrum import assemble_heff, eigenmodes
from oracles import classify_modes


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
    rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")]
    assert [r[:3] for r in rows[1:]] == [[_cell_format(12)(float(v)) for v in p]
                                          for p in points(built[0])]


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
        assert [_cell_format(9)(record[c]) for c in header] == row


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy warns of the overflow first
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy warns of the overflow first
@pytest.mark.parametrize("arrangement", ["chain", "site-site"])
@pytest.mark.parametrize("d, shown", [("1e-200", "1e-200"), ("1e200", "1e+200")])
def test_out_of_range_spacing_names_the_couplings(tmp_path, capsys, arrangement, d, shown):
    out = tmp_path / "x.csv"
    assert run_cli(["spectrum", "--out", str(out), "--set", f"geometry.arrangement={arrangement}",
                    "--set", f"geometry.d={d}"]) == 3
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


def _reference_cell(v, digits):
    """Cell text by the rules the artifacts have always had (see output._cell_format)."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if not isinstance(v, float):
        return str(v)
    v = float(v)
    if v == 0.0:
        return "0"
    if abs(v) < 1e-4:
        return f"{v:.{digits - 1}e}"
    return f"{v:.{digits}g}"


_EDGE = [np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0)]
_FLOATS = [0.0, -0.0, *_EDGE, *(-v for v in _EDGE), 1e-300, 1e300, np.nan, np.inf, -np.inf]
CELLS = [*map(float, _FLOATS), *map(np.float64, _FLOATS), True, False, np.True_, np.False_,
         0, 7, -3, "ring"]


@pytest.mark.parametrize("digits", [1, 12, 17])
def test_cells_keep_their_text(tmp_path, digits):
    expected = [_reference_cell(v, digits) for v in CELLS]
    cell = _cell_format(digits)
    assert [cell(v) for v in CELLS] == expected
    numbers = [v for v in CELLS if not isinstance(v, str)]
    assert ([cell(float(v)) for v in numbers]
            == [_reference_cell(float(v), digits) for v in numbers])
    out = tmp_path / "cells.csv"
    write_csv(out, "0", [], [f"c{i}" for i in range(len(CELLS))], [tuple(CELLS)], digits)
    assert out.read_text().splitlines()[-1].split(",") == expected
    # the rules at their edges, spelled out
    assert [_cell_format(12)(v) for v in (-0.0, 1e-4, np.nextafter(1e-4, 0.0), np.True_)] == [
        "0", "0.0001", "1.00000000000e-04", "True"]


def _table_columns():
    """Columns of a 12-row table: repeated floats, +-0, the 1e-4 edges, a mixed column,
    strings, and distinct floats."""
    edge = [float(v) for v in _EDGE]
    return {
        "grid": [2.5, 3.75, 2.5, 3.75, 2.5, 3.75, -6.125, 2.5, 3.75, -6.125, 2.5, 3.75],
        "zeros": [-0.0, 0.0, 0.0, -0.0, 1.5, 1.5, 0.0, -0.0, -0.0, 0.0, 1.5, -0.0],
        "edge": edge + [-v for v in edge] + edge + [-v for v in edge],
        "mixed": [1, 1.0, True, np.True_, 1.0, 1, np.True_, True, 0, 0.0, False, np.False_],
        "label": ["ring", "chain", "ring", "", "ring", "chain", "a b", "ring", "", "x", "y", "z"],
        "distinct": [1.0 / k for k in range(1, 13)],
    }


@pytest.mark.parametrize("digits", [1, 12, 17])
def test_multi_row_table_cells_keep_their_text(tmp_path, monkeypatch, digits):
    columns = _table_columns()
    rows = list(zip(*columns.values()))
    formatted = []
    cell_format = output._cell_format

    def counting_format(d):
        cell = cell_format(d)

        def counted(v):
            formatted.append(v)
            return cell(v)
        return counted

    monkeypatch.setattr(output, "_cell_format", counting_format)
    out = tmp_path / "table.csv"
    write_csv(out, "0", [], list(columns), rows, digits)
    lines = out.read_text().splitlines()
    assert lines[-13] == ",".join(columns)
    assert [line.split(",") for line in lines[-12:]] == [
        [_reference_cell(v, digits) for v in row] for row in rows]
    # the float columns that repeat take one format per distinct value
    assert [formatted.count(v) for v in (2.5, 3.75, -6.125, 1.5)] == [1, 1, 1, 1]
    # "zeros" once for its +-0; "mixed" cell by cell for its 0, 0.0, False and np.False_
    assert formatted.count(0.0) == 1 + 4
    # blocks of 5 rows: the 12 rows in three blocks, some columns memoized in one block only
    monkeypatch.setattr(output, "CSV_BLOCK_ROWS", 5)
    write_csv(tmp_path / "blocks.csv", "0", [], list(columns), rows, digits)
    assert (tmp_path / "blocks.csv").read_text() == out.read_text()
