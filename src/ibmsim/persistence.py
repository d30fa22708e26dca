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
from itertools import repeat

import numpy as np

from . import __version__
from .configuration import BALL, TORUS, Configuration, Domain
from .dynamics import SimParams, Trajectory
from .errors import ConfigError, DomainError, FormatError, VersionMismatch
from .potentials import PotentialSpec

TRAJECTORY_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# float codecs: 17 significant digits or raw IEEE-754 hex, both lossless; each
# is (%-field, the map from a float to what the field formats, None when that
# is the float itself, decode of one text)
# ---------------------------------------------------------------------------

_FLOAT_CODECS = {"decimal": ("%.17g", None, float), "hex": ("%s", float.hex, float.fromhex)}


def _float_text(codec: str, value: float) -> str:
    field, as_text, _ = _FLOAT_CODECS[codec]
    return field % (value if as_text is None else as_text(value))


def _encoded(codec: str, layout, rows, tail=None) -> str:
    """Text of the float rows, each row one group of lines: a line per
    (prefix, count) item of layout, holding the row's next count values. With
    tail = (prefix, texts), each group ends with a line of prefix and the
    row's ready texts, texts holding one row per row. One %-template is built
    for a row and formatted over all rows at once."""
    field, as_text, _ = _FLOAT_CODECS[codec]
    template = "".join(prefix + " ".join([field] * count) + "\n" for prefix, count in layout)
    values = np.asarray(rows, dtype=np.float64)
    if as_text is not None:
        values = np.frompyfunc(as_text, 1, 1)(values)
    if tail is not None:
        prefix, texts = tail
        template += prefix + " ".join(["%s"] * texts.shape[1]) + "\n"
        values = np.concatenate([values.astype(object), texts], axis=1)
    return template * len(rows) % tuple(values.ravel().tolist())


def _distinct_texts(codec: str, values: np.ndarray) -> np.ndarray:
    """Object array of the texts of the float64 values, in their shape, each
    distinct bit pattern formatted once: -0.0 and NaN payloads keep their
    own texts."""
    bits, inverse = np.unique(np.ascontiguousarray(values, dtype=np.float64).view(np.uint64),
                              return_inverse=True)
    texts = np.array([_float_text(codec, v) for v in bits.view(np.float64).tolist()],
                     dtype=object)
    return texts[inverse].reshape(values.shape)


def _decoded(decode, texts: list[str], distinct: bool = False) -> np.ndarray | None:
    """The texts decoded into one float64 array, or None when one does not
    decode; with distinct, each distinct text is decoded once."""
    try:
        if distinct:
            table = {text: decode(text) for text in dict.fromkeys(texts)}
            return np.fromiter(map(table.__getitem__, texts), np.float64, len(texts))
        return np.fromiter(map(decode, texts), np.float64, len(texts))
    except ValueError:
        return None


def _decoded_rows(decode, lines: list[str], width: int,
                  distinct: bool = False) -> np.ndarray | None:
    """(len(lines), width) float64 array of lines of `width` whitespace-split
    texts each, or None when a line holds another count or a text does not
    decode (distinct as for _decoded). The lines are split as one text with a
    ';' line between each two: as ';' never decodes, the ';'s falling every
    width + 1 texts means that each line held width texts."""
    if not lines:
        return np.empty((0, width))
    texts = "\n;\n".join(lines).split()
    marks = texts[width :: width + 1]
    if len(texts) != len(lines) * (width + 1) - 1 or marks.count(";") != len(marks):
        return None
    del texts[width :: width + 1]
    values = _decoded(decode, texts, distinct)
    return None if values is None else values.reshape(len(lines), width)


def _bad_coordinate(decode, rows, lines, rank: int = 0):
    """The fault (line, rank, message) of the first text of rows that does
    not decode, rows[k] lying on line lines[k]; None when all decode."""
    for row, line in zip(rows, lines):
        for text in row:
            try:
                decode(text)
            except ValueError:
                return int(line), rank, f"bad coordinate {text!r}"
    return None


def _first_fault(*faults) -> FormatError:
    """The FormatError of the first (line, rank, message) fault in file order;
    rank orders the faults found on one line, and false entries are no fault."""
    line, _, message = min(fault for fault in faults if fault)
    return FormatError(message, line=line)


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------

def write_configuration(config: Configuration, path) -> None:
    """One point per line; header `# d=<d> geometry=<torus|ball> size=<size>`."""
    dom = config.domain
    if dom.geometry not in (TORUS, BALL):
        raise FormatError("only torus and ball domains are serialized")
    with open(path, "w") as fh:
        fh.write(f"# d={dom.dimension} geometry={dom.geometry} "
                 f"size={_float_text('decimal', dom.size)}\n")
        fh.write(_encoded("decimal", [("", dom.dimension)], config.points))


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
    d = dom.dimension
    points = _decoded_rows(float, list(filter(str.strip, lines[1:])), d)  # blank lines skipped
    if points is None:
        kept = [i for i, line in enumerate(lines[1:], start=2) if line.strip()]
        rows = [lines[i - 1].split() for i in kept]
        wrong = [i for i, row in zip(kept, rows) if len(row) != d]
        # a line's values are decoded before its count is checked
        raise _first_fault(_bad_coordinate(float, rows, kept),
                           wrong and (wrong[0], 1, f"expected {d} coordinates"))
    return Configuration(points, dom)


# ---------------------------------------------------------------------------
# trajectory files
# ---------------------------------------------------------------------------

def write_trajectory(traj: Trajectory, path, coord_format: str = "decimal") -> None:
    """Header of key=value lines, then one block per snapshot: a time line,
    N coordinate lines and a running-max line."""
    if coord_format not in _FLOAT_CODECS:
        raise ConfigError("coord_format must be 'decimal' or 'hex'")
    dom = traj.domain
    buf = io.StringIO()
    buf.write("# ibm-sim trajectory\n")
    buf.write(f"format_version={TRAJECTORY_FORMAT_VERSION}\n")
    buf.write(f"coord_format={coord_format}\n")
    buf.write("frame=lab\n")
    buf.write(f"d={dom.dimension}\ngeometry={dom.geometry}\n")
    buf.write(f"size={_float_text(coord_format, dom.size)}\n")
    buf.write(f"n_particles={traj.n_particles}\nn_tagged={traj.n_tagged}\n")
    for f in fields(SimParams):
        value = getattr(traj.params, f.name)
        if f.type == "float":
            value = _float_text(coord_format, float(value))
        buf.write(f"{f.name}={value}\n")
    for key, value in sorted(traj.provenance.items()):
        buf.write(f"prov.{key}={value}\n")
    buf.write("\n")
    frames, n, d = traj.positions.shape
    layout = [("time=", 1)] + [("", d)] * n
    rows = np.concatenate([traj.times.reshape(frames, 1), traj.positions.reshape(frames, n * d)],
                          axis=1)
    # a running max is a step function of time: few distinct values
    tail = (None if traj.running_max is None
            else ("runmax ", _distinct_texts(coord_format, traj.running_max)))
    buf.write(_encoded(coord_format, layout, rows, tail))
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def _read_blocks(body: list[str], first: int, last: int, n: int, d: int, decode):
    """Times, positions and running max (None without runmax lines) of the
    snapshot blocks in body: the lines from line `first` on of a file of
    `last` lines.

    A block is a time= line, n coordinate lines and an optional runmax line,
    and blank lines may lie between blocks. The layout is checked over the
    whole body, then the times, coordinates and runmax values are decoded in
    one pass each. A faulty body raises the FormatError of its first fault in
    file order, found only once a check has failed.
    """
    size = len(body)
    timed = np.flatnonzero(np.fromiter(map(str.startswith, body, repeat("time=")), bool, size))
    # body indices of the time lines that start blocks, of the coordinate
    # lines, of the runmax lines that end blocks and of the lines between
    # blocks; a time= line among the n lines after the previous one is a
    # coordinate line
    starts = timed[np.diff(timed, prepend=-n - 1) > n]
    slots = (starts[:, None] + np.arange(1, n + 1)).ravel()
    truncated = slots.size > 0 and slots[-1] >= size
    slots = slots[slots < size]
    tails = starts + n + 1
    tails = tails[tails < size]
    tails = tails[np.fromiter(map(str.startswith, map(body.__getitem__, tails.tolist()),
                                  repeat("runmax ")), bool, tails.size)]
    gaps = np.ones(size, dtype=bool)
    gaps[starts] = gaps[slots] = gaps[tails] = False
    gaps = np.flatnonzero(gaps)

    def lines_at(index):
        return list(map(body.__getitem__, index.tolist()))

    times = [line[5:] for line in lines_at(starts)]
    coords = lines_at(slots)
    runmax = [line[7:] for line in lines_at(tails)]
    if (not truncated and tails.size in (0, starts.size)
            and not any(map(str.strip, lines_at(gaps)))):
        values = (_decoded(decode, times), _decoded_rows(decode, coords, d),
                  _decoded_rows(decode, runmax, n, distinct=True))
        if all(v is not None for v in values):
            return (values[0], values[1].reshape(starts.size, n, d),
                    values[2] if tails.size else None)

    times = [[text] for text in times]
    coords = list(map(str.split, coords))
    runmax = list(map(str.split, runmax))

    def first_at(index, bad, message):
        hit = np.flatnonzero(bad)
        return hit.size > 0 and (first + int(index[hit[0]]), 0, message(hit[0]))

    raise _first_fault(
        first_at(gaps, [bool(line.strip()) for line in lines_at(gaps)],
                 lambda k: "expected a time= line"),
        first_at(slots, [len(row) != d or row[0] == "runmax" for row in coords],
                 lambda k: f"expected {d} coordinates for particle {k % n}"),
        first_at(tails, [len(row) != n for row in runmax], lambda k: "runmax length mismatch"),
        _bad_coordinate(decode, times, starts + first, rank=1),
        _bad_coordinate(decode, coords, slots + first, rank=1),
        _bad_coordinate(decode, runmax, tails + first, rank=1),
        truncated and (last, 2, "truncated snapshot block"),
        tails.size not in (0, starts.size) and (last, 3, "runmax blocks do not match snapshots"),
    )


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
    number = _FLOAT_CODECS[mode][2]

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

    times, positions, running_max = _read_blocks(lines[body_start - 1:], body_start, len(lines),
                                                 n, dom.dimension, number)
    return Trajectory(
        times=times,
        positions=positions,
        domain=dom,
        params=params,
        n_tagged=need("n_tagged", int, default="0"),
        running_max=running_max,
        provenance=provenance,
    )


def _same_bits(a, b) -> bool:
    """Equal shapes and float64 bit patterns, any NaN equal to any NaN (so
    0.0 and -0.0 differ, as their written texts do)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(
        (a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))))


def trajectory_equal(a: Trajectory, b: Trajectory) -> bool:
    """Bit-exact equality of the persisted content; NaN equals NaN."""
    return (
        _same_bits(a.times, b.times)
        and _same_bits(a.positions, b.positions)
        and a.domain == b.domain
        and a.params == b.params
        and a.n_tagged == b.n_tagged
        and (
            (a.running_max is None and b.running_max is None)
            or (
                a.running_max is not None
                and b.running_max is not None
                and _same_bits(a.running_max, b.running_max)
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
