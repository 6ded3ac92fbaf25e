"""Config and model file formats.

Configs are strict JSON: unknown keys are rejected with a key-path
diagnostic, matrices are nested row-major lists or one of the compact
forms {"eye": n}, {"eye": n, "scale": s}, {"diag": [...]}. Model files
round-trip losslessly (floats serialize through repr, which is exact for
binary64) and embed a config echo so downstream commands can run without
re-supplying weights.
"""

import functools
import json
import math
import operator
import os
import sys

import numpy as np

from . import linalg
from .chance import BoxConstraint
from .exceptions import SchemaError
from .plant import (
    CwParams,
    GainSet,
    SystemModel,
    TargetSpec,
    build_cw_continuous,
    discretize_zoh,
    synthesize_gains,
)
from .search import CostWeights
from .sim import SimConfig

__all__ = [
    "load_config",
    "build_from_config",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
    "cost_weights_from_config",
    "chance_from_config",
    "sim_config_from_config",
    "dump_json",
]


class _Unsupported(Exception):
    """A document part the writer leaves to the stdlib encoder."""


_encode_str = json.encoder.encode_basestring_ascii
# stands in for an array in _dump's text; never in the text otherwise,
# since the encoder escapes every control character in str
_ARRAY = "\x00"


def _dump(obj, newline: str, arrays: list) -> str:
    # scalars in the order json's encoder tests them
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        if "n" in text:  # nan or inf
            raise _Unsupported
        return text
    inner = newline + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # exact type: ints and bools must not print as floats, and numpy
        # scalars would repr as np.float64(...)
        if set(map(type, obj)) == {float}:
            body = sep.join(map(float.__repr__, obj))
            if "n" in body:
                raise _Unsupported
        else:
            body = sep.join([_dump(v, inner, arrays) for v in obj])
        return "[" + inner + body + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if set(map(type, obj)) != {str}:
            raise _Unsupported
        body = sep.join([_encode_str(key) + ": " + _dump(obj[key], inner, arrays)
                         for key in sorted(obj)])
        return "{" + inner + body + newline + "}"
    if isinstance(obj, np.ndarray):
        if (type(obj) is np.ndarray and obj.dtype == np.float64
                and obj.ndim in (1, 2) and obj.size):
            arrays.append((obj, newline))
            return _ARRAY
        return _dump(obj.tolist(), newline, arrays)  # 0-d, empty, 3-D or not float64
    raise _Unsupported


@functools.lru_cache(maxsize=64)
def _layout(shape: tuple, newline: str) -> tuple:
    """(before, closing) for a 1-D or 2-D float array of this shape that
    _dump met at this indent: the text before each of its floats, in
    order, and the text after the last one. The same indentation as
    _dump's for an all-float list, or a list of them. Bounded, since a
    document's arrays come in few shapes and indents."""
    inner = newline + "  "
    if len(shape) == 1:
        return ("[" + inner,) + ("," + inner,) * (shape[0] - 1), newline + "]"
    rows, cols = shape
    row_inner = inner + "  "
    within = ("," + row_inner,) * (cols - 1)
    row = (inner + "]," + inner + "[" + row_inner,) + within
    before = ("[" + inner + "[" + row_inner,) + within + row * (rows - 1)
    return before, inner + "]" + newline + "]"


def _fill_arrays(text: str, arrays: list) -> str:
    """Write the arrays _dump stood in for, formatting each distinct
    float64 bit pattern among them once. The document is one "".join of
    its text around the arrays, interleaved with each array's float reprs
    and the separators _layout caches per (shape, indent); no row is
    joined on its own."""
    values = np.concatenate([a.ravel() for a, _ in arrays])
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    distinct = bits.view(np.float64)
    if not np.isfinite(distinct).all():
        raise _Unsupported
    reprs = list(map(float.__repr__, distinct.tolist()))
    # itemgetter of one index returns that item, not a 1-tuple
    texts = operator.itemgetter(*inverse.tolist())(reprs) if len(values) > 1 else reprs
    parts = text.split(_ARRAY)
    # per array: a separator and a repr per float, its closing, the text after it
    out = [parts[0]] * (1 + 2 * (len(values) + len(arrays)))
    at = start = 0
    for (a, newline), tail in zip(arrays, parts[1:]):
        before, closing = _layout(a.shape, newline)
        end = at + 2 * a.size
        out[at + 1:end:2] = before
        out[at + 2:end + 1:2] = texts[start:start + a.size]
        out[end + 1] = closing
        out[end + 2] = tail
        at, start = end + 2, start + a.size
    return "".join(out)


_stdlib_default = json.JSONEncoder().default


def _tolist(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return _stdlib_default(obj)  # raises the stdlib's TypeError


def dump_json(obj) -> str:
    """Canonical JSON: sorted keys, 2-space indent, shortest-repr floats.

    obj may hold numpy arrays wherever it may hold a list; each is written
    as its .tolist(). The text is byte for byte
    json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\\n" of
    that converted document. CPython's json runs its C encoder only when
    indent is None; with an indent it formats every element in Python
    generators, which made JSON output the largest cost of certifying a
    schedule (seq check, cov steady, chance verify).
    This writer joins whole rows of floats instead. Lists of floats take
    one float.__repr__ map; the 1-D and 2-D float64 arrays of a document
    share one: each distinct bit pattern among them is formatted once
    (steady covariance phases are symmetric and repeat each other's
    blocks). Documents it does not cover (non-str keys, non-finite floats,
    unknown types, cycles) go to json.dumps itself, so their output and
    their errors are the stdlib's.
    """
    try:
        arrays = []
        text = _dump(obj, "\n", arrays) + "\n"
        return _fill_arrays(text, arrays) if arrays else text
    except (_Unsupported, RecursionError):
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
                          default=_tolist) + "\n"


def _fail(path, msg):
    raise SchemaError(f"{path}: {msg}")


def _expect_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        _fail(path, f"unknown key(s) {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        _fail(path, f"missing required key(s) {sorted(missing)}")


def _is_eye(spec) -> bool:
    return isinstance(spec, dict) and "eye" in spec


def _eye_size(spec, path) -> int:
    """The n of a valid {"eye": n[, "scale": s]}, read without building it."""
    _expect_keys(spec, path, ["eye"], ["scale"])
    eye = spec["eye"]
    if not isinstance(eye, int) or isinstance(eye, bool) or eye < 1:
        _fail(f"{path}.eye", "expected a positive integer")
    _number(spec.get("scale", 1.0), f"{path}.scale")
    return eye


def parse_matrix(spec, path, size=None) -> np.ndarray:
    """Nested lists, {"eye": n[, "scale": s]}, or {"diag": [...]}, with n a
    positive integer and s and the diagonal entries finite numbers. With
    size given, a shorthand must be size x size, which is checked before
    it is built; a nested list is bounded by its own text."""
    if isinstance(spec, dict):
        if "eye" in spec:
            eye = _eye_size(spec, path)
            if size is not None and eye != size:
                _fail(f"{path}.eye", f"size {eye}, expected {size}")
            return float(spec.get("scale", 1.0)) * np.eye(eye)
        if "diag" in spec:
            _expect_keys(spec, path, ["diag"])
            entries = spec["diag"]
            if not isinstance(entries, list) or not entries:
                _fail(f"{path}.diag", "expected a non-empty list of numbers")
            values = [_number(v, f"{path}.diag[{i}]") for i, v in enumerate(entries)]
            if size is not None and len(values) != size:
                _fail(f"{path}.diag", f"size {len(values)}, expected {size}")
            return np.diag(values)
        _fail(path, "matrix object must use 'eye' or 'diag'")
    try:
        m = np.array(spec, dtype=float)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float range
        _fail(path, "not a numeric matrix")
    if m.ndim == 1 and m.size:
        m = m.reshape(1, -1)
    if m.ndim != 2 or not m.size:
        _fail(path, "expected a non-empty 2-D matrix")
    return m


def _matrix_shape(spec, path) -> tuple:
    """The shape of a valid matrix spec; an eye shorthand's is read from
    its size, without building it."""
    if _is_eye(spec):
        return (_eye_size(spec, path),) * 2
    return parse_matrix(spec, path).shape


def _number(obj, path, positive=False):
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        _fail(path, "expected a number")
    if positive and obj <= 0:
        _fail(path, "must be positive")
    if not abs(obj) <= sys.float_info.max:  # inf, NaN or an int past float range
        _fail(path, "expected a finite number")
    return float(obj)


def _vector(obj, path, size) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != size:
        _fail(path, f"expected a list of {size} numbers")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(obj)])


def load_config(path) -> dict:
    """Read and validate a config file; returns the parsed dict. The
    non-standard constants NaN and Infinity are refused."""
    def refuse(name):
        raise SchemaError(f"{path}: {name} is not a finite number")

    try:
        raw = _read_json(path, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    validate_config(raw)
    return raw


def validate_config(cfg: dict):
    """Check a parsed config. The plant's sizes n, m and p come first, so
    that every matrix shorthand of a known size is checked before it is
    built; the cost, chance and sim sections are checked by the functions
    that read them from a model file's config echo."""
    _expect_keys(cfg, "$", ["plant", "noise", "gains"], ["cost", "chance", "sim"])

    plant = cfg["plant"]
    _expect_keys(plant, "$.plant", ["ts"], ["cw", "continuous", "c"])
    _number(plant["ts"], "$.plant.ts", positive=True)
    if ("cw" in plant) == ("continuous" in plant):
        _fail("$.plant", "exactly one of 'cw' or 'continuous' is required")
    n, m, p = _plant_sizes(plant)

    _expect_keys(cfg["noise"], "$.noise", ["sigma_w", "sigma_v"])
    parse_matrix(cfg["noise"]["sigma_w"], "$.noise.sigma_w", n)
    parse_matrix(cfg["noise"]["sigma_v"], "$.noise.sigma_v", p)

    _expect_keys(cfg["gains"], "$.gains", ["q", "r"], ["q_obs", "r_obs"])
    for key, size in (("q", n), ("r", m), ("q_obs", n), ("r_obs", p)):
        if key in cfg["gains"]:
            parse_matrix(cfg["gains"][key], f"$.gains.{key}", size)

    if "cost" in cfg:
        _cost_section(cfg["cost"], "$.cost", n)
    if "chance" in cfg:
        _chance_section(cfg["chance"], "$.chance")
    if "sim" in cfg:
        _sim_section(cfg["sim"], "$.sim", n, m)


#: past this mean motion 3 mean_motion^2, an entry of the CW dynamics, overflows
_MAX_MEAN_MOTION = math.sqrt(sys.float_info.max / 3.0)

#: the largest state dimension n of a config. The steady joint covariance
#: is one dense solve of the Lyapunov operator of the 2n-state joint
#: system, folded onto its m = 2n(2n+1)/2 upper-triangle unknowns: m^2
#: floats plus four m^2 index arrays (linalg._folded_layout), 40 m^2 bytes,
#: which grows as n^4. At n = 32, m = 2080 and that is about 0.2 GB.
_MAX_STATE_DIM = 32


def _plant_sizes(plant) -> tuple:
    """(n, m, p) of a plant section, its matrices checked against each
    other before any is built. A nested list or a diag is bounded by its
    own text, an eye only by its number, so the state dimension n comes
    from the first of A (rows), B (rows) and C (columns) that is not an
    eye, is at most _MAX_STATE_DIM, and every matrix must agree with it."""
    if "cw" in plant:
        _expect_keys(plant["cw"], "$.plant.cw", ["mass", "mean_motion"])
        _number(plant["cw"]["mass"], "$.plant.cw.mass", positive=True)
        mean_motion = _number(plant["cw"]["mean_motion"], "$.plant.cw.mean_motion",
                              positive=True)
        if mean_motion > _MAX_MEAN_MOTION:
            _fail("$.plant.cw.mean_motion", "too large: 3 mean_motion^2 is past float range")
        specs, n, m, p = {}, 6, 3, 3
    else:
        _expect_keys(plant["continuous"], "$.plant.continuous", ["a", "b"])
        if "c" not in plant:
            _fail("$.plant", "'c' is required for a 'continuous' plant")
        specs = {f"$.plant.continuous.{key}": (plant["continuous"][key], axes)
                 for key, axes in (("a", (0, 1)), ("b", (0,)))}
    if "c" in plant:
        specs["$.plant.c"] = (plant["c"], (1,))
    shapes = {path: _matrix_shape(spec, path) for path, (spec, _) in specs.items()}
    if "continuous" in plant:
        source = next((path for path, (spec, _) in specs.items() if not _is_eye(spec)),
                      "$.plant.continuous.a")
        n = shapes[source][specs[source][1][0]]
        m = shapes["$.plant.continuous.b"][1]
        if n > _MAX_STATE_DIM:
            where = f"{source}.eye" if _is_eye(specs[source][0]) else source
            _fail(where, f"state dimension {n} is above the cap of {_MAX_STATE_DIM}")
    for path, (spec, axes) in specs.items():
        if any(shapes[path][axis] != n for axis in axes):
            where = f"{path}.eye" if _is_eye(spec) else path
            _fail(where, f"shape {shapes[path]} disagrees with the state dimension {n}")
    if "c" in plant:
        p = shapes["$.plant.c"][0]
    return n, m, p


def _cost_section(cost, path, n) -> tuple:
    """(r_err, r_state, r_eta) of a cost section, None for an absent or
    null weight matrix."""
    _expect_keys(cost, path, [], ["r_err", "r_state", "r_eta"])
    r_err, r_state = (None if cost.get(key) is None
                      else parse_matrix(cost[key], f"{path}.{key}", n)
                      for key in ("r_err", "r_state"))
    return r_err, r_state, _number(cost.get("r_eta", 0.0), f"{path}.r_eta")


def _chance_section(chance, path) -> tuple:
    """(delta, bound, components) of a chance section, None for an absent
    bound or component list."""
    _expect_keys(chance, path, ["delta"], ["bound", "components"])
    delta = _number(chance["delta"], f"{path}.delta", positive=True)
    bound = (_number(chance["bound"], f"{path}.bound", positive=True)
             if "bound" in chance else None)
    comps = chance.get("components")
    if "components" in chance:
        if not isinstance(comps, list) or not all(
                isinstance(i, int) and not isinstance(i, bool) for i in comps):
            _fail(f"{path}.components", "expected a list of state indices")
        if len(set(comps)) != len(comps):
            _fail(f"{path}.components", "repeats a state index")
    return delta, bound, None if comps is None else tuple(comps)


def _sim_section(sim, path, n, m) -> dict:
    """The values of a sim section: steps, runs and seed, and those of
    x0_mean, xhat0, x0_cov and target that it has, as arrays and a
    TargetSpec."""
    _expect_keys(sim, path, ["steps", "runs", "seed"], ["x0_mean", "x0_cov", "xhat0", "target"])
    for key in ("steps", "runs", "seed"):
        if not isinstance(sim[key], int) or isinstance(sim[key], bool):
            _fail(f"{path}.{key}", "expected an integer")
    if sim["seed"] < 0:
        _fail(f"{path}.seed", "expected a non-negative integer")
    out = {key: sim[key] for key in ("steps", "runs", "seed")}
    for key in ("x0_mean", "xhat0"):
        if key in sim:
            out[key] = _vector(sim[key], f"{path}.{key}", n)
    if "x0_cov" in sim:
        out["x0_cov"] = parse_matrix(sim["x0_cov"], f"{path}.x0_cov", n)
    if "target" in sim:
        target = sim["target"]
        _expect_keys(target, f"{path}.target", ["x", "u"])
        out["target"] = TargetSpec(_vector(target["x"], f"{path}.target.x", n),
                                   _vector(target["u"], f"{path}.target.u", m))
    return out


def build_from_config(cfg: dict):
    """Construct (SystemModel, GainSet) from a validated config."""
    plant = cfg["plant"]
    ts = float(plant["ts"])
    if "cw" in plant:
        params = CwParams(mass=float(plant["cw"]["mass"]),
                          mean_motion=float(plant["cw"]["mean_motion"]), ts=ts)
        a_c, b_c = build_cw_continuous(params)
        default_c = np.hstack([np.eye(3), np.zeros((3, 3))])
    else:
        a_c = parse_matrix(plant["continuous"]["a"], "$.plant.continuous.a")
        b_c = parse_matrix(plant["continuous"]["b"], "$.plant.continuous.b")
        default_c = None
    a, b = discretize_zoh(a_c, b_c, ts)
    c = parse_matrix(plant["c"], "$.plant.c") if "c" in plant else default_c
    model = SystemModel(
        a=a, b=b, c=c,
        sigma_w=parse_matrix(cfg["noise"]["sigma_w"], "$.noise.sigma_w"),
        sigma_v=parse_matrix(cfg["noise"]["sigma_v"], "$.noise.sigma_v"),
        ts=ts,
    )
    gains_cfg = cfg["gains"]
    q = parse_matrix(gains_cfg["q"], "$.gains.q")
    r = parse_matrix(gains_cfg["r"], "$.gains.r")
    q_obs = parse_matrix(gains_cfg["q_obs"], "$.gains.q_obs") if "q_obs" in gains_cfg else None
    r_obs = parse_matrix(gains_cfg["r_obs"], "$.gains.r_obs") if "r_obs" in gains_cfg else None
    gains = synthesize_gains(model, q, r, q_obs, r_obs)
    return model, gains


def cost_weights_from_config(cfg: dict, n: int) -> CostWeights:
    """The cost weights of a model file's config echo, its cost section
    checked as config load checks it; the estimation cost without one."""
    if "cost" not in cfg:
        return CostWeights.estimation(n)
    r_err, r_state, r_eta = _cost_section(cfg["cost"], "config.cost", n)
    return CostWeights(r_err=r_err, r_state=r_state, r_eta=r_eta)


def chance_from_config(cfg: dict, bound=None, delta=None) -> tuple:
    """(box, delta) of a model file's config echo, its chance section
    checked as config load checks it. The box has half-width bound, else
    the section's, on the section's components, and is None when neither
    gives a width; delta is the given one, else the section's, or None."""
    if "chance" in cfg:
        own_delta, own_bound, comps = _chance_section(cfg["chance"], "config.chance")
    else:
        own_delta = own_bound = comps = None
    width = bound if bound is not None else own_bound
    box = None if width is None else BoxConstraint(half_width=float(width), components=comps)
    return box, delta if delta is not None else own_delta


def sim_config_from_config(cfg: dict, n: int, m: int, overrides=None) -> SimConfig:
    """The SimConfig of a model file's config echo with the given
    overrides, its sim section checked as config load checks it."""
    sim = dict(cfg.get("sim") or {})
    sim.update({k: v for k, v in (overrides or {}).items() if v is not None})
    if not {"steps", "runs", "seed"} <= set(sim):
        raise SchemaError("sim section incomplete: steps, runs and seed are required "
                          "(in the config file or via flags)")
    sim = _sim_section(sim, "config.sim", n, m)
    return SimConfig(
        steps=sim["steps"],
        runs=sim["runs"],
        seed=sim["seed"],
        x0_mean=sim.get("x0_mean", np.zeros(n)),
        x0_cov=sim.get("x0_cov", np.zeros((n, n))),
        xhat0=sim.get("xhat0"),
        target=sim.get("target"),
    )


MODEL_KIND = "sensact-model"
MODEL_VERSION = 1


def model_to_dict(model: SystemModel, gains: GainSet, summary=None, config_echo=None) -> dict:
    doc = {
        "kind": MODEL_KIND,
        "version": MODEL_VERSION,
        "ts": model.ts,
        "a": model.a.tolist(),
        "b": model.b.tolist(),
        "c": model.c.tolist(),
        "sigma_w": model.sigma_w.tolist(),
        "sigma_v": model.sigma_v.tolist(),
        "k": gains.k.tolist(),
        "l": gains.l.tolist(),
    }
    if summary is not None:
        doc["summary"] = summary
    if config_echo is not None:
        doc["config"] = config_echo
    return doc


def _model_array(doc: dict, key: str) -> np.ndarray:
    """doc[key] as a float array; SchemaError naming the key when it is
    not numeric or is ragged."""
    try:
        return np.array(doc[key], dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(f"model file key {key!r}: not a numeric matrix") from None


def model_from_dict(doc: dict):
    """(SystemModel, GainSet, config echo or None) of a model file's
    document. A key that is missing or not numeric raises SchemaError
    naming it, as do gains K (key "k") and L (key "l") whose shapes are not
    (m, n) and (n, p); the model's own checks cover the plant matrices.
    The config echo must be absent, null or an object, and its chance,
    sim and cost sections objects where present; their contents are
    checked by the readers above, as the commands read them."""
    if not isinstance(doc, dict) or doc.get("kind") != MODEL_KIND:
        raise SchemaError("not a sensact model file")
    if doc.get("version") != MODEL_VERSION:
        raise SchemaError(f"unsupported model file version {doc.get('version')!r}")
    for key in ("a", "b", "c", "sigma_w", "sigma_v", "k", "l", "ts"):
        if key not in doc:
            raise SchemaError(f"model file missing key {key!r}")
    try:
        ts = float(doc["ts"])
    except (TypeError, ValueError):
        raise SchemaError("model file key 'ts': not a number") from None
    model = SystemModel(
        a=_model_array(doc, "a"),
        b=_model_array(doc, "b"),
        c=_model_array(doc, "c"),
        sigma_w=_model_array(doc, "sigma_w"),
        sigma_v=_model_array(doc, "sigma_v"),
        ts=ts,
    )
    k = linalg.as_matrix(_model_array(doc, "k"), "K")
    l = linalg.as_matrix(_model_array(doc, "l"), "L")
    for key, m, shape in (("k", k, (model.m, model.n)), ("l", l, (model.n, model.p))):
        if m.shape != shape:
            raise SchemaError(f"model file key {key!r}: shape {m.shape}, expected {shape}")
    config = doc.get("config")
    if config is not None and not isinstance(config, dict):
        raise SchemaError(f"model file key 'config': expected an object, "
                          f"got {type(config).__name__}")
    for section in ("chance", "sim", "cost"):
        if section in (config or {}) and not isinstance(config[section], dict):
            raise SchemaError(f"model file key 'config.{section}': expected an object, "
                              f"got {type(config[section]).__name__}")
    return model, GainSet(k=k, l=l), config


def save_model(path, model, gains, summary=None, config_echo=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(model_to_dict(model, gains, summary, config_echo)))


def load_model(path):
    try:
        doc = _read_json(path)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return model_from_dict(doc)


def _read_json(path, **kwargs):
    """json.load of the file at path. Bytes that are not UTF-8, and JSON
    nested past the parser's recursion limit, are SchemaErrors naming the
    file; JSONDecodeError is left to the caller, which words its message."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, **kwargs)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text: {exc.reason} "
                              f"at byte {exc.start}") from exc
        except RecursionError as exc:
            raise SchemaError(f"{path}: JSON nested too deeply to read") from exc


def resolve_config_path(path: str) -> str:
    """Fall back to $SENSACT_CONFIG_DIR for bare file names."""
    if os.path.exists(path):
        return path
    base = os.environ.get("SENSACT_CONFIG_DIR")
    if base and not os.path.isabs(path):
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    return path
