"""Command-line front end producing deterministic CSV/JSON artifacts."""

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .fieldmap import GridSpec, intensity_map
from .geometry import TwoRingConfig, build_chain, build_ring, build_two_rings
from .output import interleave_complex, write_csv, write_json
from .spectrum import (assemble_heff, eigenmodes, light_line_threshold, min_decay_scan,
                       ring_spectrum, spin_wave_state)
from .transfer import (default_horizon, eta_map, farthest_site, fidelity_scan,
                       fidelity_trace, gaussian_packet, ring_ring_coupling,
                       single_ring_eigenvalues)

COMMANDS = ("spectrum", "decay-scan", "fieldmap", "coupling", "eta",
            "fidelity", "fidelity-scan")

EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3


class ConfigError(ValueError):
    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


@dataclass
class RunConfig:
    """Fully resolved run configuration (defaults applied, units fixed)."""

    command: str = "spectrum"
    # geometry
    n: int = 10
    d: float = 0.1
    polarization: str = "transverse"
    arrangement: str = "single"        # single | chain | site-site | site-edge
    x: float = 0.15
    angular_offset: float = 0.0
    # physics
    m: int = 0
    center_site: int = -1              # -1: site farthest from the second ring
    delta_theta: float = 1.0
    t_max: float = 0.0                 # 0: auto horizon from |J_{m,-m}|
    t_steps: int = 2000
    n_min: int = 10
    n_max: int = 30
    n_step: int = 1
    wavelength_over_d: float = 3.0
    plane: str = "xy"
    plane_offset: float = 0.0
    extent: float = 1.0                # half-width of the square map, wavelengths
    resolution: int = 101
    x_min: float = 0.05
    x_max: float = 1.0
    x_points: int = 10
    dtheta_min: float = 0.01
    dtheta_max: float = 3.0
    dtheta_points: int = 8
    # output
    out: str = "out.csv"
    format: str = "csv"
    precision: int = 12
    threads: int = 1


_SECTION_OF = {"command": ""}
for _f in fields(RunConfig):
    if _f.name == "command":
        continue
    if _f.name in ("n", "d", "polarization", "arrangement", "x", "angular_offset"):
        _SECTION_OF[_f.name] = "geometry"
    elif _f.name in ("out", "format", "precision", "threads"):
        _SECTION_OF[_f.name] = "output"
    else:
        _SECTION_OF[_f.name] = "physics"

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_KEY_OF = {}   # 'section.key' and bare key lookup
for name, sec in _SECTION_OF.items():
    _KEY_OF[f"{sec}.{name}" if sec else name] = name


def _convert(name, raw, line=None):
    kind = _FIELD_TYPES[name]
    try:
        if kind in (int, "int"):
            return int(raw)
        if kind in (float, "float"):
            return float(raw)
        return str(raw)
    except ValueError:
        raise ConfigError(f"invalid value {raw!r} for key {name!r}", line=line) from None


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
        key = key.strip()
        raw_val = raw_val.strip()
        if "." in key:
            lookup = key
        elif section:
            lookup = f"{section}.{key}"
        else:
            lookup = key
        if lookup not in _KEY_OF:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        name = _KEY_OF[lookup]
        values[name] = _convert(name, raw_val, line=lineno)
    return values


def validate(cfg: RunConfig) -> RunConfig:
    def bad(msg):
        raise ConfigError(msg)

    if cfg.command not in COMMANDS:
        bad(f"unknown command {cfg.command!r}")
    if cfg.n < 1:
        bad("n must be at least 1")
    if cfg.d <= 0:
        bad("d must be positive")
    if cfg.polarization not in ("transverse", "tangential", "radial"):
        bad(f"unknown polarization {cfg.polarization!r}")
    if cfg.arrangement not in ("single", "chain", "site-site", "site-edge"):
        bad(f"unknown arrangement {cfg.arrangement!r}")
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
    """The resolved configuration as ('section.key', 'value') pairs."""
    items = [("command", cfg.command)]
    for sec in ("geometry", "physics", "output"):
        for f in fields(RunConfig):
            if _SECTION_OF[f.name] == sec:
                v = getattr(cfg, f.name)
                items.append((f"{sec}.{f.name}", repr(v) if isinstance(v, float) else str(v)))
    return items


def _build_system(cfg: RunConfig):
    if cfg.arrangement in ("site-site", "site-edge"):
        return build_two_rings(TwoRingConfig(arrangement=cfg.arrangement, n=cfg.n,
                                             d=cfg.d, gap=cfg.x,
                                             polarization=cfg.polarization))
    if cfg.arrangement == "chain":
        return build_chain(cfg.n, cfg.d)
    return build_ring(cfg.n, cfg.d, cfg.polarization, angular_offset=cfg.angular_offset)


def _array_hash(array) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(array.positions).tobytes())
    digest.update(np.ascontiguousarray(array.dipoles).tobytes())
    return digest.hexdigest()


def _rows(*columns) -> list[tuple]:
    """Table rows of Python scalars from equal-size arrays, each flattened row-major."""
    return list(zip(*(np.ravel(c).tolist() for c in columns)))


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
    if len(ring.groups) != 1 or ring.ring_meta[0] is None:
        raise ConfigError("fieldmap expects a single-ring geometry")
    extent = (-cfg.extent, cfg.extent)
    grid = getattr(GridSpec, cfg.plane)(cfg.plane_offset, (extent, extent), cfg.resolution)
    fmap = intensity_map(ring, spin_wave_state(ring, cfg.m), grid)
    pts = grid.points()
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
    if cfg.arrangement not in ("site-site", "site-edge"):
        raise ConfigError("coupling commands need a two-ring arrangement")
    cpl = ring_ring_coupling(_build_system(cfg))
    m1, m2 = np.meshgrid(cpl.m1_values, cpl.m2_values, indexing="ij")
    key, columns, arrays = "couplings", ("m1", "m2", "J", "Gamma"), [m1, m2, cpl.shifts, cpl.rates]
    if cfg.command == "eta":
        key, columns = "eta", columns + ("eta", "m_star")
        arrays += [eta_map(cpl, single_ring_eigenvalues(cfg.n, cfg.d, cfg.polarization)),
                   np.full(m1.shape, light_line_threshold(cfg.n, cfg.d))]
    return key, columns, _rows(*arrays)


def cmd_fidelity(cfg: RunConfig):
    if cfg.arrangement not in ("site-site", "site-edge"):
        raise ConfigError("fidelity needs a two-ring arrangement")
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
                         arrangement="site-site" if cfg.arrangement == "single" else cfg.arrangement,
                         threads=cfg.threads)
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
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="config file (key = value)")
        p.add_argument("--out", default=None, help="output artifact path")
        p.add_argument("--format", default=None, choices=("csv", "json"))
        p.add_argument("--threads", default=None, type=int)
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override any config key (repeatable)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        file_values = {}
        if args.config:
            with open(args.config, encoding="utf-8") as f:
                file_values = parse_config(f.read())
        cli_values = {"command": args.command}
        for override in args.set:
            if "=" not in override:
                raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {override!r}")
            key, _, raw = override.partition("=")
            key = key.strip()
            if key not in _KEY_OF:
                raise ConfigError(f"unknown key {key!r}")
            name = _KEY_OF[key]
            cli_values[name] = _convert(name, raw.strip())
        for name in ("out", "format", "threads"):
            if getattr(args, name) is not None:
                cli_values[name] = getattr(args, name)
        run(resolve_config(file_values, cli_values))
    except (ConfigError, OSError) as exc:
        return _emit_error(EXIT_CONFIG_ERROR, exc)
    except (ArithmeticError, MemoryError, ValueError, np.linalg.LinAlgError) as exc:
        # SingularityError, a field point on an emitter, is a ValueError
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
