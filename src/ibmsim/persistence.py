"""File formats and reproducibility metadata: configuration and trajectory
text formats with lossless round-trips, plain-text run configs, and
append-only run manifests."""

from __future__ import annotations

import configparser
import hashlib
import io
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .configuration import BALL, TORUS, Configuration, Domain
from .dynamics import SimParams, Trajectory
from .errors import ConfigError, DomainError, FormatError, VersionMismatch
from .potentials import PotentialSpec

TRAJECTORY_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# float codecs: 17 significant digits or raw IEEE-754 hex, both lossless;
# each is (encode, decode) on Python floats
# ---------------------------------------------------------------------------

_FLOAT_CODECS = {"decimal": ("%.17g".__mod__, float), "hex": (float.hex, float.fromhex)}


def _decoded(decode, text: str, line: int) -> float:
    try:
        return decode(text)
    except ValueError:
        raise FormatError(f"bad coordinate {text!r}", line=line) from None


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------

def write_configuration(config: Configuration, path) -> None:
    """One point per line; header `# d=<d> geometry=<torus|ball> size=<size>`."""
    dom = config.domain
    if dom.geometry not in (TORUS, BALL):
        raise FormatError("only torus and ball domains are serialized")
    enc = _FLOAT_CODECS["decimal"][0]
    with open(path, "w") as fh:
        fh.write(f"# d={dom.dimension} geometry={dom.geometry} size={enc(dom.size)}\n")
        for row in config.points.tolist():
            fh.write(" ".join(map(enc, row)) + "\n")


def read_configuration(path) -> Configuration:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# "):
        raise FormatError("missing configuration header", line=1)
    try:
        fields = dict(item.split("=", 1) for item in lines[0][2:].split())
        dom = Domain(int(fields["d"]), fields["geometry"], float(fields["size"]))
    except (KeyError, ValueError, DomainError) as exc:
        raise FormatError(f"bad header: {exc}", line=1) from None
    pts = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        vals = [_decoded(float, v, i) for v in line.split()]
        if len(vals) != dom.dimension:
            raise FormatError(f"expected {dom.dimension} coordinates", line=i)
        pts.append(vals)
    return Configuration(np.asarray(pts).reshape(len(pts), dom.dimension), dom)


# ---------------------------------------------------------------------------
# trajectory files
# ---------------------------------------------------------------------------

def write_trajectory(traj: Trajectory, path, coord_format: str = "decimal") -> None:
    """Header of key=value lines, then one block per snapshot: a time line,
    N coordinate lines and a running-max line."""
    if coord_format not in _FLOAT_CODECS:
        raise ConfigError("coord_format must be 'decimal' or 'hex'")
    enc = _FLOAT_CODECS[coord_format][0]
    dom = traj.domain
    buf = io.StringIO()
    buf.write("# ibm-sim trajectory\n")
    buf.write(f"format_version={TRAJECTORY_FORMAT_VERSION}\n")
    buf.write(f"coord_format={coord_format}\n")
    buf.write("frame=lab\n")
    buf.write(f"d={dom.dimension}\ngeometry={dom.geometry}\n")
    buf.write(f"size={enc(dom.size)}\n")
    buf.write(f"n_particles={traj.n_particles}\nn_tagged={traj.n_tagged}\n")
    for f in fields(SimParams):
        value = getattr(traj.params, f.name)
        if f.type == "float":
            value = enc(float(value))
        buf.write(f"{f.name}={value}\n")
    for key, value in sorted(traj.provenance.items()):
        buf.write(f"prov.{key}={value}\n")
    buf.write("\n")
    runmax = None if traj.running_max is None else traj.running_max.tolist()
    for i, (t, snap) in enumerate(zip(traj.times.tolist(), traj.positions.tolist())):
        buf.write(f"time={enc(t)}\n")
        buf.write("".join(" ".join(map(enc, row)) + "\n" for row in snap))
        if runmax is not None:
            buf.write("runmax " + " ".join(map(enc, runmax[i])) + "\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def read_trajectory(path) -> Trajectory:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "# ibm-sim trajectory":
        raise FormatError("not a trajectory file", line=1)
    header: dict[str, str] = {}
    provenance: dict[str, str] = {}
    body_start = None
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            body_start = i + 1
            break
        if "=" not in line:
            raise FormatError("header line without '='", line=i)
        key, value = line.split("=", 1)
        if key.startswith("prov."):
            provenance[key[5:]] = value
        else:
            header[key] = value
    if body_start is None:
        raise FormatError("missing blank line after the header", line=len(lines))

    try:
        version = int(header["format_version"])
    except (KeyError, ValueError):
        raise FormatError("missing format_version", line=2) from None
    if version != TRAJECTORY_FORMAT_VERSION:
        raise VersionMismatch(f"unknown trajectory format version {version}")
    mode = header.get("coord_format", "decimal")
    if mode not in _FLOAT_CODECS:
        raise FormatError(f"unknown coord_format {mode!r}", line=2)
    number = _FLOAT_CODECS[mode][1]

    def need(key, parse=str, default=None):
        text = header.get(key, default)
        if text is None:
            raise FormatError(f"missing header key {key}", line=2)
        try:
            return parse(text)
        except ValueError:
            raise FormatError(f"bad header value {key}={text!r}", line=2) from None

    dom = Domain(need("d", int), need("geometry"), need("size", number))
    n = need("n_particles", int)
    try:
        params = build_spec(SimParams, {f.name: need(f.name) for f in fields(SimParams)},
                            "trajectory header", decode=number)
    except ConfigError as exc:
        raise FormatError(str(exc), line=2) from None

    times, snaps, runmax = [], [], []
    i = body_start - 1
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        if not line.startswith("time="):
            raise FormatError("expected a time= line", line=i + 1)
        times.append(_decoded(number, line[5:], i + 1))
        block = []
        for j in range(n):
            if i + 1 + j >= len(lines):
                raise FormatError("truncated snapshot block", line=len(lines))
            row = lines[i + 1 + j].split()
            if len(row) != dom.dimension or row[0] == "runmax":
                raise FormatError(
                    f"expected {dom.dimension} coordinates for particle {j}",
                    line=i + 2 + j,
                )
            block.append([_decoded(number, v, i + 2 + j) for v in row])
        snaps.append(block)
        i += 1 + n
        if i < len(lines) and lines[i].startswith("runmax "):
            vals = lines[i].split()[1:]
            if len(vals) != n:
                raise FormatError("runmax length mismatch", line=i + 1)
            runmax.append([_decoded(number, v, i + 1) for v in vals])
            i += 1

    if runmax and len(runmax) != len(times):
        raise FormatError("runmax blocks do not match snapshots", line=len(lines))
    return Trajectory(
        times=np.asarray(times),
        positions=np.asarray(snaps).reshape(len(times), n, dom.dimension),
        domain=dom,
        params=params,
        n_tagged=need("n_tagged", int, default="0"),
        running_max=np.asarray(runmax) if runmax else None,
        provenance=provenance,
    )


def trajectory_equal(a: Trajectory, b: Trajectory) -> bool:
    """Bit-exact equality of the persisted content."""
    return (
        np.array_equal(a.times, b.times)
        and np.array_equal(a.positions, b.positions)
        and a.domain == b.domain
        and a.params == b.params
        and a.n_tagged == b.n_tagged
        and (
            (a.running_max is None and b.running_max is None)
            or (
                a.running_max is not None
                and b.running_max is not None
                and np.array_equal(a.running_max, b.running_max)
            )
        )
        and {str(k): str(v) for k, v in a.provenance.items()}
        == {str(k): str(v) for k, v in b.provenance.items()}
    )


# ---------------------------------------------------------------------------
# run configs
# ---------------------------------------------------------------------------

def _convert(conv, text: str, where: str, key: str):
    """conv(text), with a ValueError turned into a ConfigError naming the key."""
    try:
        return conv(text)
    except ValueError:
        raise ConfigError(f"bad value for {where} {key}: {text!r}") from None


class _ConfigParser(configparser.ConfigParser):
    """getint/getfloat/getboolean raise a ConfigError naming section, key and value."""

    def _get_conv(self, section, option, conv, **kwargs):
        return super()._get_conv(
            section, option, lambda text: _convert(conv, text, f"[{section}]", option),
            **kwargs)


def parse_config(text: str) -> configparser.ConfigParser:
    """Keys keep their case; `;` after whitespace starts an inline comment."""
    parser = _ConfigParser(inline_comment_prefixes=(";",))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config: {exc}") from None
    return parser


def load_config(path) -> configparser.ConfigParser:
    with open(path) as fh:
        return parse_config(fh.read())


def config_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def build_spec(cls, values, where: str, decode=float, **given):
    """The spec dataclass `cls` from the keys of `values` that name its fields
    annotated (as text) `str`, `int` or `float`, each parsed by that type
    (floats by `decode`); absent fields keep the dataclass default and `given`
    fields are passed as they are. A value that does not parse, or that the
    spec rejects, is a ConfigError naming `where`."""
    parse = {"str": str, "int": int, "float": decode}
    kwargs = {f.name: _convert(parse[f.type], values[f.name], where, f.name)
              for f in fields(cls)
              if f.type in parse and f.name in values and f.name not in given}
    try:
        return cls(**kwargs, **given)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from None


def build_domain(cfg) -> Domain:
    if "domain" not in cfg:
        raise ConfigError("config needs a [domain] section")
    sec = cfg["domain"]
    try:
        return Domain(sec.getint("dimension"), sec.get("geometry", "torus"),
                      sec.getfloat("size"))
    except TypeError as exc:
        raise ConfigError(f"bad [domain]: {exc}") from None


def build_potentials(cfg) -> PotentialSpec:
    sec = cfg["potentials"] if "potentials" in cfg else {}
    return build_spec(PotentialSpec, sec, "[potentials]")


def build_sim_params(cfg, seed: int | None = None) -> SimParams:
    sec = cfg["sim"] if "sim" in cfg else {}
    return build_spec(SimParams, sec, "[sim]", **({} if seed is None else {"seed": seed}))


def build_sampler(cfg, domain: Domain, seed: int):
    """Sampler callable (draw index -> Configuration) from the [sampler] section."""
    from . import pointprocess as pp

    if "sampler" not in cfg:
        raise ConfigError("config needs a [sampler] section")
    sec = cfg["sampler"]
    kind = sec.get("kind", "poisson")
    if kind == "poisson":
        return pp.make_poisson_sampler(domain, sec.getfloat("intensity", 1.0), seed)
    if kind == "gibbs":
        spec = build_spec(pp.GibbsSpec, sec, "[sampler]", potentials=build_potentials(cfg))
        return pp.make_gibbs_sampler(spec, domain, seed)
    if kind in ("dyson_sine", "ginibre"):
        spec = build_spec(pp.DPPSpec, sec, "[sampler]",
                          kernel="sine" if kind == "dyson_sine" else "ginibre")
        dim = 1 if kind == "dyson_sine" else 2
        if domain != Domain(dim, BALL, spec.window_radius):
            raise ConfigError(
                f"sampler kind {kind} draws points in its window, so [domain] must be "
                f"dimension = {dim}, geometry = ball, size = {spec.window_radius} "
                f"(the window_radius)")
        draw = pp.sample_dyson_sine if kind == "dyson_sine" else pp.sample_ginibre

        def sampler(i: int) -> Configuration:
            return draw(spec, seed * 2_654_435_761 % (2**31) + i)

        return sampler
    raise ConfigError(f"unknown sampler kind {kind!r}")


# ---------------------------------------------------------------------------
# manifests and reports
# ---------------------------------------------------------------------------

@dataclass
class ManifestRecord:
    config_sha256: str
    seed: int
    toolkit_version: str
    wall_time_s: float
    outputs: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def manifest(run: dict) -> ManifestRecord:
    """Reproducibility record for one run; `run` carries config_text, seed,
    started (epoch seconds) and the emitted output paths."""
    started = run.get("started", time.time())
    return ManifestRecord(
        config_sha256=config_sha256(run.get("config_text", "")),
        seed=int(run.get("seed", 0)),
        toolkit_version=__version__,
        wall_time_s=float(run.get("finished", time.time())) - float(started),
        outputs=list(run.get("outputs", [])),
        extra=dict(run.get("extra", {})),
    )


def write_manifest(record: ManifestRecord, path) -> None:
    """Manifests are append-only: writing over an existing run is refused."""
    if os.path.exists(path):
        raise FileExistsError(f"manifest {path} already exists; runs never overwrite")
    import json

    with open(path, "w") as fh:
        json.dump(asdict(record), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_tsv(path, comments: list[str], columns: list[str], rows) -> None:
    """TSV with comment headers; deterministic content (no timestamps)."""
    with open(path, "w") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join(str(v) for v in row) + "\n")
