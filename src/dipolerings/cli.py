"""Command-line front end producing deterministic CSV/JSON artifacts."""

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .fieldmap import GridSpec, intensity_map
from .geometry import SYMMETRIC_SCHEMES, build_chain, build_ring, build_two_rings
from .output import interleave_complex, write_csv, write_json
from .spectrum import (WorkerError, assemble_heff, eigenmodes, light_line_threshold,
                       min_decay_scan, ring_spectrum, spin_wave_state)
from .transfer import (default_horizon, eta_map, farthest_site, fidelity_scan,
                       fidelity_trace, gaussian_packet, ring_ring_coupling)

EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3


class ConfigError(ValueError):
    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


def _section(name):
    """Field declarer of one config section: `n: int = _geometry(10)` is key geometry.n."""
    return lambda default: field(default=default, metadata={"section": name})


_geometry, _physics, _output = map(_section, ("geometry", "physics", "output"))


@dataclass
class RunConfig:
    """Fully resolved run configuration (defaults applied, units fixed).

    Each field is the config key `section.name` (bare `command`) of the field's
    type; the artifact header echoes them in declaration order."""

    command: str = "spectrum"
    n: int = _geometry(10)
    d: float = _geometry(0.1)
    polarization: str = _geometry("transverse")
    arrangement: str = _geometry("")            # "": the command's default (_ARRANGEMENTS)
    x: float = _geometry(0.15)
    angular_offset: float = _geometry(0.0)
    m: int = _physics(0)
    center_site: int = _physics(-1)             # -1: site farthest from the second ring
    delta_theta: float = _physics(1.0)
    t_max: float = _physics(0.0)                # 0: auto horizon from |J_{m,-m}|
    t_steps: int = _physics(2000)
    n_min: int = _physics(10)
    n_max: int = _physics(30)
    n_step: int = _physics(1)
    wavelength_over_d: float = _physics(3.0)
    plane: str = _physics("xy")
    plane_offset: float = _physics(0.0)
    extent: float = _physics(1.0)               # half-width of the square map, wavelengths
    resolution: int = _physics(101)
    x_min: float = _physics(0.05)
    x_max: float = _physics(1.0)
    x_points: int = _physics(10)
    dtheta_min: float = _physics(0.01)
    dtheta_max: float = _physics(3.0)
    dtheta_points: int = _physics(8)
    out: str = _output("out.csv")
    format: str = _output("csv")
    precision: int = _output(12)
    threads: int = _output(1)


_KEYS = {f"{f.metadata['section']}.{f.name}" if f.metadata else f.name: f
         for f in fields(RunConfig)}


def _store(values: dict, key: str, raw: str, section: str = "", line=None) -> None:
    """Store values[field] = the raw text of config key `key` (read under [section])
    converted with its RunConfig field's type; nan and inf are invalid floats."""
    f = _KEYS.get(key if "." in key or not section else f"{section}.{key}")
    if f is None:
        raise ConfigError(f"unknown key {key!r}", line=line)
    try:
        value = f.type(raw)
        if f.type is float and not math.isfinite(value):
            raise ValueError(raw)
    except ValueError:
        raise ConfigError(f"invalid value {raw!r} for key {f.name!r}", line=line) from None
    values[f.name] = value


def parse_config(text: str) -> dict:
    """Parse a line-oriented key = value document with [section] headers.

    Dotted keys (section.key = value) are accepted anywhere.  Unknown sections
    or keys raise ConfigError with the offending line number.
    """
    values = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("geometry", "physics", "output", "run"):
                raise ConfigError(f"unknown section [{section}]", line=lineno)
            if section == "run":
                section = ""
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, raw_val = line.partition("=")
        _store(values, key.strip(), raw_val.strip(), section, line=lineno)
    return values


def validate(cfg: RunConfig) -> RunConfig:
    def bad(msg):
        raise ConfigError(msg)

    if cfg.command not in _DISPATCH:
        bad(f"unknown command {cfg.command!r}")
    if cfg.n < 1:
        bad("n must be at least 1")
    if cfg.d <= 0:
        bad("d must be positive")
    if cfg.polarization not in SYMMETRIC_SCHEMES:
        bad(f"unknown polarization {cfg.polarization!r}")
    arrangements = _ARRANGEMENTS[cfg.command]
    cfg.arrangement = cfg.arrangement or arrangements[0]
    if cfg.arrangement not in arrangements:
        bad(f"{cfg.command} runs the arrangements {', '.join(arrangements)}, "
            f"not {cfg.arrangement!r}")
    if cfg.arrangement == "chain" and cfg.polarization != "transverse":
        bad(f"a chain carries transverse dipoles only, not {cfg.polarization!r}")
    if cfg.x <= 0:
        bad("x must be positive")
    if not -1 <= cfg.center_site < cfg.n:
        bad("center_site must be -1 (the farthest site) or a site index below n")
    if cfg.delta_theta <= 0:
        bad("delta_theta must be positive")
    if cfg.t_steps < 2:
        bad("t_steps must be at least 2")
    if cfg.t_max < 0:
        bad("t_max must be non-negative")
    if not (1 <= cfg.n_min <= cfg.n_max):
        bad("need 1 <= n_min <= n_max")
    if cfg.n_step < 1:
        bad("n_step must be positive")
    if cfg.wavelength_over_d <= 0:
        bad("wavelength_over_d must be positive")
    if cfg.plane not in ("xy", "xz", "yz"):
        bad(f"unknown plane {cfg.plane!r}")
    if cfg.extent <= 0:
        bad("extent must be positive")
    if cfg.resolution < 2:
        bad("resolution must be at least 2")
    if not (0 < cfg.x_min <= cfg.x_max) or cfg.x_points < 1:
        bad("need 0 < x_min <= x_max and x_points >= 1")
    if not (0 < cfg.dtheta_min <= cfg.dtheta_max) or cfg.dtheta_points < 1:
        bad("need 0 < dtheta_min <= dtheta_max and dtheta_points >= 1")
    if cfg.format not in ("csv", "json"):
        bad(f"unknown format {cfg.format!r}")
    if not (1 <= cfg.precision <= 17):
        bad("precision must be between 1 and 17")
    if cfg.threads < 1:
        bad("threads must be positive")
    return cfg


def resolve_config(file_values: dict, cli_values: dict) -> RunConfig:
    merged = {}
    merged.update(file_values)
    merged.update(cli_values)
    return validate(RunConfig(**merged))


def config_items(cfg: RunConfig) -> list[tuple[str, str]]:
    """The resolved configuration as ('section.key', 'value') pairs, in field order."""
    return [(key, str(getattr(cfg, f.name))) for key, f in _KEYS.items()]


def _build_system(cfg: RunConfig):
    if cfg.arrangement in _PAIRS:
        return build_two_rings(cfg.arrangement, cfg.n, cfg.d, cfg.x, cfg.polarization)
    if cfg.arrangement == "chain":
        return build_chain(cfg.n, cfg.d)
    return build_ring(cfg.n, cfg.d, cfg.polarization, angular_offset=cfg.angular_offset)


def _array_hash(array) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(array.positions).tobytes())
    digest.update(np.ascontiguousarray(array.dipoles).tobytes())
    return digest.hexdigest()


def _rows(*columns) -> list[tuple]:
    """Table rows of Python scalars from equal-size arrays, each flattened row-major.

    A NaN or infinite number (an overflow upstream) raises ArithmeticError."""
    arrays = [np.ravel(c) for c in columns]
    if any(a.dtype.kind in "fc" and not np.isfinite(a).all() for a in arrays):
        raise ArithmeticError("the result has non-finite values; an input is out of range")
    return list(zip(*(a.tolist() for a in arrays)))


def cmd_spectrum(cfg: RunConfig):
    system = _build_system(cfg)
    if cfg.arrangement == "single":
        # circulant ring: FFT eigenvalues, labelled by construction
        ms, vals = ring_spectrum(system)
        order = np.lexsort((np.imag(vals), np.real(vals)))
        ms, vals = ms[order], vals[order]
        labels = [str(int(m)) for m in ms]
    else:
        spec = eigenmodes(assemble_heff(system))
        vals, labels = spec.eigenvalues, [""] * spec.n
    columns = ("index", "m_label", "J_over_Gamma0", "Gamma_over_Gamma0")
    rows = _rows(np.arange(len(vals)), labels, np.real(vals), -2.0 * np.imag(vals))
    if cfg.format == "json":
        if cfg.arrangement == "single":
            # exact spin waves, site 0 the real positive lead component
            angles = system.ring_meta[0].angles
            vecs = np.exp(1j * np.outer(angles - angles[0], ms)) / np.sqrt(len(ms))
        else:
            vecs = spec.eigenvectors
        columns += ("eigenvalue", "eigenvector")
        rows = [row + (interleave_complex([val]), interleave_complex(vec))
                for row, val, vec in zip(rows, vals, vecs.T)]
    return "modes", columns, rows


def cmd_decay_scan(cfg: RunConfig):
    n_list = list(range(cfg.n_min, cfg.n_max + 1, cfg.n_step))
    rows = []
    for kind in ("ring", "chain"):
        table = min_decay_scan(kind, n_list, cfg.wavelength_over_d,
                               polarization=cfg.polarization if kind == "ring" else "transverse",
                               threads=cfg.threads)
        rows += [(kind, int(n), float(g)) for n, g in table]
    return "series", ("geometry", "N", "min_gamma"), rows


def cmd_fieldmap(cfg: RunConfig):
    ring = _build_system(cfg)
    extent = (-cfg.extent, cfg.extent)
    grid = getattr(GridSpec, cfg.plane)(cfg.plane_offset, (extent, extent), cfg.resolution)
    fmap = intensity_map(ring, spin_wave_state(ring, cfg.m), grid)
    pts = fmap.points
    meta = {
        "grid": {"plane": cfg.plane, "offset": cfg.plane_offset,
                 "extent": cfg.extent, "resolution": cfg.resolution},
        "state": f"spin wave m = {cfg.m} on ring of {cfg.n} sites",
        "array_sha256": _array_hash(ring),
    }
    return ("points", ("x", "y", "z", "intensity", "masked"),
            _rows(pts[:, 0], pts[:, 1], pts[:, 2], fmap.values, fmap.mask), {"metadata": meta})


def cmd_coupling(cfg: RunConfig):
    """Ring-to-ring couplings over (m1, m2); `eta` adds the figure of merit and m*."""
    system = _build_system(cfg)
    cpl = ring_ring_coupling(system)
    m1, m2 = np.meshgrid(cpl.m_values, cpl.m_values, indexing="ij")
    key, columns, arrays = "couplings", ("m1", "m2", "J", "Gamma"), [m1, m2, cpl.shifts, cpl.rates]
    if cfg.command == "eta":
        key, columns = "eta", columns + ("eta", "m_star")
        arrays += [eta_map(cpl, ring_spectrum(system)[1]),
                   np.full(m1.shape, light_line_threshold(cfg.n, cfg.d))]
    return key, columns, _rows(*arrays)


def cmd_fidelity(cfg: RunConfig):
    system = _build_system(cfg)
    h = assemble_heff(system)
    site = cfg.center_site if cfg.center_site >= 0 else farthest_site(system, 0)
    psi0 = gaussian_packet(system, 0, site, cfg.m, cfg.delta_theta)
    horizon = cfg.t_max or default_horizon(ring_ring_coupling(system, h), cfg.m)
    times = np.linspace(0.0, horizon, cfg.t_steps)
    trace = fidelity_trace(system, psi0, cfg.m, cfg.delta_theta, times, h=h)
    return ("trace", ("t", "fidelity", "argmax_site"),
            _rows(trace.times, trace.fidelity, trace.argmax_site))


def cmd_fidelity_scan(cfg: RunConfig):
    xs = np.linspace(cfg.x_min, cfg.x_max, cfg.x_points)
    dts = np.linspace(cfg.dtheta_min, cfg.dtheta_max, cfg.dtheta_points)
    scan = fidelity_scan(cfg.n, cfg.d, cfg.polarization, cfg.m, xs, dts,
                         t_max=cfg.t_max or None, t_steps=cfg.t_steps,
                         arrangement=cfg.arrangement, threads=cfg.threads)
    x, dt = np.meshgrid(scan.x_values, scan.delta_theta_values, indexing="ij")
    return ("scan", ("x", "width", "delta_theta", "max_fidelity", "t_at_max"),
            _rows(x, scan.widths, dt, scan.max_fidelity, scan.t_at_max))


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "decay-scan": cmd_decay_scan,
    "fieldmap": cmd_fieldmap,
    "coupling": cmd_coupling,
    "eta": cmd_coupling,
    "fidelity": cmd_fidelity,
    "fidelity-scan": cmd_fidelity_scan,
}

# The arrangements each command runs, its default first; validate rejects the others.
_PAIRS = ("site-site", "site-edge")
_ARRANGEMENTS = {
    "spectrum": ("single", "chain", *_PAIRS),
    "decay-scan": ("single", "chain", *_PAIRS),      # scans rings and chains whatever is set
    "fieldmap": ("single",),
    "coupling": _PAIRS,
    "eta": _PAIRS,
    "fidelity": _PAIRS,
    "fidelity-scan": _PAIRS,
}


def run(cfg: RunConfig) -> None:
    """Execute one command and write its table: CSV rows, or JSON records plus extras."""
    key, columns, rows, *extras = _DISPATCH[cfg.command](cfg)
    items = config_items(cfg)
    if cfg.format == "json":
        payload = {key: [dict(zip(columns, row)) for row in rows]}
        for extra in extras:
            payload.update(extra)
        write_json(cfg.out, __version__, items, payload)
    else:
        write_csv(cfg.out, __version__, items, columns, rows, digits=cfg.precision)


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="dipolerings",
                                     description="Collective emitter-ring simulations")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=_DISPATCH)
    parser.add_argument("--config", default=None, help="config file (key = value)")
    parser.add_argument("--out", default=None, help="output artifact path (output.out)")
    parser.add_argument("--format", default=None, help="csv or json (output.format)")
    parser.add_argument("--threads", default=None, help="worker processes (output.threads)")
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override any config key (repeatable)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        file_values = {}
        if args.config:
            with open(args.config, encoding="utf-8") as f:
                file_values = parse_config(f.read())
        cli_values = {}
        for override in args.set:
            if "=" not in override:
                raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {override!r}")
            key, _, raw = override.partition("=")
            _store(cli_values, key.strip(), raw.strip())
        for name in ("out", "format", "threads"):   # the flags and the command beat --set
            if getattr(args, name) is not None:
                _store(cli_values, f"output.{name}", getattr(args, name))
        cli_values["command"] = args.command
        run(resolve_config(file_values, cli_values))
    except (ConfigError, OSError) as exc:
        return _emit_error(EXIT_CONFIG_ERROR, exc)
    except (ArithmeticError, MemoryError, ValueError, np.linalg.LinAlgError, WorkerError) as exc:
        # SingularityError, a field point on an emitter, is a ValueError; a worker process
        # killed by the OS (out of memory, say) is a WorkerError
        return _emit_error(EXIT_NUMERIC_ERROR, exc)
    return 0


def _emit_error(code: int, exc: Exception) -> int:
    info = {"error": {"code": code, "message": str(exc) or type(exc).__name__}}
    line = getattr(exc, "line", None)
    if line is not None:
        info["error"]["line"] = line
    print(json.dumps(info, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
