"""The three benchmark workloads: the CLI commands of one pass and the
checks on their outputs.

Every workload is a closed loop with one caller: the next command starts
when the previous one returns. ``commands`` builds one pass from the
workload's random stream; ``check`` runs after the pass, outside the timed
region, and returns the number of commands whose exit code or output is
wrong. The checks use only the outputs and the model file, never the
program's own functions.
"""

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

#: costs are compared to this relative tolerance
COST_RTOL = 1e-9
#: relative tolerance of the steady-phase closure residual
CLOSURE_RTOL = 1e-8
#: ensemble means may drift this much (absolute) from the reference loop,
#: loose enough for a batched simulation that sums in another order
MEAN_ATOL = 1e-9
#: admissibility needs both monodromy spectral radii below 1 - this margin
CONTRACTION_MARGIN = 1e-9
#: box half-width and violation budget of the verify workload's chance checks
VERIFY_BOUND = 22.0
VERIFY_DELTA = 0.05


@dataclass
class Command:
    argv: list
    rc: int = None
    files: list = field(default_factory=list)   # outputs the command writes
    extra: dict = field(default_factory=dict)   # what the check needs to know


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _matrix(spec, n):
    """A config matrix ({"eye": n, "scale": s} or nested lists)."""
    if isinstance(spec, dict):
        return np.eye(spec["eye"]) * spec.get("scale", 1.0)
    return np.asarray(spec, dtype=float).reshape(n, n)


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


class ModelFile:
    """Matrices read straight from a model file, for the output checks."""

    def __init__(self, path):
        doc = _json(path)
        self.a, self.b, self.c, self.k, self.l = (
            np.asarray(doc[key], dtype=float) for key in ("a", "b", "c", "k", "l"))
        self.sigma_w = np.asarray(doc["sigma_w"], dtype=float)
        self.sigma_v = np.asarray(doc["sigma_v"], dtype=float)
        self.n, self.p = self.c.shape[1], self.c.shape[0]
        self.config = doc.get("config") or {}
        self._control = (self.a, self.a + self.b @ self.k)
        self._observer = (self.a + self.l @ self.c, self.a)

    def admissible(self, bits):
        """Both one-period products contract: spectral radius below
        1 - CONTRACTION_MARGIN, the margin the program documents."""
        ctrl = obs = np.eye(self.n)
        for eta in bits:
            ctrl = self._control[eta] @ ctrl
            obs = self._observer[eta] @ obs
        rho = max(np.max(np.abs(np.linalg.eigvals(m))) for m in (ctrl, obs))
        return bool(rho < 1.0 - CONTRACTION_MARGIN)

    def error_step(self, eta):
        """(Atil, R) of the error-covariance recursion for one mode."""
        if eta:
            return self.a, self.sigma_w
        return self.a + self.l @ self.c, self.l @ self.sigma_v @ self.l.T + self.sigma_w

    def joint_step(self, eta):
        """(Abreve, Gbreve N Gbreve') of the joint (state, error) recursion."""
        n, p = self.n, self.p
        bk = self.b @ self.k
        a = np.zeros((2 * n, 2 * n))
        a[:n, :n] = self.a + eta * bk
        a[:n, n:] = -eta * bk
        a[n:, n:] = self.a + (1 - eta) * self.l @ self.c
        g = np.zeros((2 * n, p + n))
        g[:n, p:] = np.eye(n)
        g[n:, :p] = (1 - eta) * self.l
        g[n:, p:] = np.eye(n)
        noise = np.zeros((p + n, p + n))
        noise[:p, :p] = self.sigma_v
        noise[p:, p:] = self.sigma_w
        return a, g @ noise @ g.T


def _closes(phases, bits, step):
    """True when every steady phase, propagated one step, gives the next."""
    period = len(bits)
    for k, eta in enumerate(bits):
        a, w = step(eta)
        nxt = phases[(k + 1) % period]
        resid = np.linalg.norm(a @ phases[k] @ a.T + w - nxt)
        if not resid <= CLOSURE_RTOL * max(np.linalg.norm(nxt), 1e-300):
            return False
    return True


class Workload:
    name = ""

    def __init__(self, seed, tiny, workdir, model_path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tiny = tiny
        self.workdir = workdir
        self.model_path = model_path
        self.counters = {}

    def setup(self, cli_main):
        """Untimed preparation (derived models, references)."""

    def commands(self, pass_dir):
        raise NotImplementedError

    def check(self, cmds):
        raise NotImplementedError

    def work(self, cmds):
        """Units of work in one pass, for work_per_s."""
        raise NotImplementedError


class Search(Workload):
    """seq search at fixed lengths, across lengths and on a blended cost."""

    name = "search"
    # (model, flags, words enumerated, optimum, cost, tie-class size, length);
    # references are the optima of the original exhaustive search
    FULL = (
        ("base", ("--n", "8"), 2**8, "00110011", 2.196450304165026, 4, 8),
        ("base", ("--n", "10"), 2**10, "0001100011", 1.8409003995784516, 5, 10),
        ("base", ("--n-max", "8", "--all-lengths"), 2**9 - 2, "00011", 1.8409003995784516, 5, 5),
        ("blended", ("--n", "8"), 2**8, "00110011", 13.136529456846151, 4, 8),
    )
    TINY = (
        ("base", ("--n", "6"), 2**6, "001011", 2.967601480571844, 6, 6),
        ("base", ("--n-max", "4", "--all-lengths"), 2**5 - 2, "0011", 2.196450304165026, 4, 4),
        ("blended", ("--n", "4"), 2**4, "0011", 13.136529456846151, 4, 4),
    )

    def setup(self, cli_main):
        with open(os.path.join("configs", "cw.json"), encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg["cost"]["r_state"] = {"eye": 6}
        cfg["cost"]["r_eta"] = 0.1
        derived = os.path.join(self.workdir, "blended_config.json")
        with open(derived, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        self.models = {"base": self.model_path,
                       "blended": os.path.join(self.workdir, "model_blended.json")}
        if cli_main(["model", "build", derived, "-o", self.models["blended"]]) != 0:
            raise RuntimeError("building the blended-cost model failed")

    def commands(self, pass_dir):
        cases = list(self.TINY if self.tiny else self.FULL)
        self.rng.shuffle(cases)
        cmds = []
        for i, (model, flags, words, seq, cost, ties, length) in enumerate(cases):
            out = os.path.join(pass_dir, f"search{i}.json")
            cmds.append(Command(["seq", "search", self.models[model], *flags, "--json", out],
                                files=[out],
                                extra={"words": words, "sequence": seq, "cost": cost,
                                       "ties": ties, "length": length}))
        return cmds

    def check(self, cmds):
        failed = 0
        self.counters = {"enumerated": 0, "cores_evaluated": 0, "memo_hits": 0}
        for cmd in cmds:
            want = cmd.extra
            try:
                out = _json(cmd.files[0])
                ok = (cmd.rc == 0 and out["feasible"] is True
                      and out["sequence"] == want["sequence"]
                      and out["length"] == want["length"]
                      and len(out["tied"]) == want["ties"]
                      and _close(out["cost"], want["cost"], COST_RTOL))
                for key in self.counters:
                    self.counters[key] += out["counts"][key]
            except (OSError, ValueError, KeyError, TypeError):
                ok = False
            failed += not ok
        return failed

    def work(self, cmds):
        return sum(cmd.extra["words"] for cmd in cmds)


def reference_ensemble(model, bits, runs, steps, seed, x0_mean, x0_cov, bound, comps):
    """Per-step ensemble mean and box-violation fraction from a batched
    loop that reproduces the documented draw order of each run's stream
    default_rng((seed, run)): x0, then every w, then every v."""
    n, p = model.n, model.p

    def sqrt_psd(m):
        w, v = np.linalg.eigh(0.5 * (m + m.T))
        return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T

    sx0, sw, sv = sqrt_psd(x0_cov), sqrt_psd(model.sigma_w), sqrt_psd(model.sigma_v)
    x = np.empty((runs, n))
    w = np.empty((runs, steps, n))
    v = np.empty((runs, steps, p))
    for r in range(runs):
        rng = np.random.default_rng((int(seed), r))
        x[r] = x0_mean + sx0 @ rng.standard_normal(n)
        w[r] = rng.standard_normal((steps, n)) @ sw.T
        v[r] = rng.standard_normal((steps, p)) @ sv.T
    xhat = np.tile(x0_mean, (runs, 1))
    xs = np.empty((steps + 1, runs, n))
    xs[0] = x
    a, b, c, k, l = model.a, model.b, model.c, model.k, model.l
    for step in range(steps):
        if bits[step % len(bits)]:
            u = xhat @ k.T
            x, xhat = x @ a.T + u @ b.T + w[:, step], xhat @ a.T + u @ b.T
        else:
            y = x @ c.T + v[:, step]
            x, xhat = x @ a.T + w[:, step], xhat @ a.T - (y - xhat @ c.T) @ l.T
        xs[step + 1] = x
    violation = (np.abs(xs[:, :, list(comps)]) > bound).any(axis=2).mean(axis=1)
    return xs.mean(axis=1), violation


class Ensemble(Workload):
    """sim run on a short and a long schedule, writing CSV."""

    name = "ensemble"
    WORDS = ("0011", "0001100011")

    def setup(self, cli_main):
        self.runs, self.steps = (5, 20) if self.tiny else (200, 240)
        self.sim_seed = self.rng.randrange(2**31)
        model = ModelFile(self.model_path)
        cfg = model.config
        sim, chance = cfg["sim"], cfg["chance"]
        self.reference = {
            word: reference_ensemble(
                model, [int(ch) for ch in word], self.runs, self.steps, self.sim_seed,
                np.asarray(sim["x0_mean"], dtype=float), _matrix(sim["x0_cov"], model.n),
                chance["bound"], chance["components"])
            for word in self.WORDS
        }

    def commands(self, pass_dir):
        words = list(self.WORDS)
        self.rng.shuffle(words)
        cmds = []
        for word in words:
            out = os.path.join(pass_dir, f"sim_{word}")
            cmds.append(Command(["sim", "run", self.model_path, word,
                                 "--runs", str(self.runs), "--steps", str(self.steps),
                                 "--seed", str(self.sim_seed), "--out", out],
                                files=[os.path.join(out, name) for name in
                                       ("trajectories.csv", "ensemble.csv", "meta.json")],
                                extra={"word": word}))
        return cmds

    def check(self, cmds):
        failed = 0
        for cmd in cmds:
            try:
                failed += not (cmd.rc == 0 and self._check_outputs(cmd))
            except (OSError, ValueError, KeyError, IndexError):
                failed += 1
        return failed

    def _check_outputs(self, cmd):
        traj_path, ens_path, _ = cmd.files
        with open(traj_path, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != self.runs * (self.steps + 1):
            return False
        with open(ens_path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))[1:]
        mean, violation = self.reference[cmd.extra["word"]]
        if len(table) != self.steps + 1:
            return False
        got_mean = np.array([[float(v) for v in row[1:-1]] for row in table])
        got_viol = np.array([float(row[-1]) for row in table])
        # a drift of 1e-14 may move one run across the box edge
        return (got_mean.shape == mean.shape
                and np.max(np.abs(got_mean - mean)) <= MEAN_ATOL
                and np.max(np.abs(got_viol - violation)) <= 1.0 / self.runs + 1e-12)

    def work(self, cmds):
        return len(cmds) * self.runs * self.steps


class Verify(Workload):
    """Certify a seeded batch of random words: admissibility with the
    dwell screen, steady covariances, and Chebyshev chance checks."""

    name = "verify"

    def setup(self, cli_main):
        self.model = ModelFile(self.model_path)
        lo, hi, count = (4, 12, 4) if self.tiny else (4, 64, 40)
        # Stratified periods, and every fourth word (spread evenly over the
        # periods) drawn inadmissible, keep the work per pass the same from
        # seed to seed. With free draws the count of inadmissible words,
        # which exit early, moved op_p50_ms by about 20% between seeds.
        periods = [lo + (hi - lo) * i // (count - 1) for i in range(count)]
        self.slots = [(period, i % 4 != 0) for i, period in enumerate(periods)]
        self.words = []

    def _draw(self, period, admissible):
        while True:
            bits = [self.rng.randint(0, 1) for _ in range(period)]
            if self.model.admissible(bits) == admissible:
                return "".join(map(str, bits))

    def commands(self, pass_dir):
        slots = list(self.slots)
        self.rng.shuffle(slots)
        cmds = []
        for i, (period, admissible) in enumerate(slots):
            word = self._draw(period, admissible)
            self.words.append(word)
            out = [os.path.join(pass_dir, f"w{i}_{kind}.json") for kind in ("seq", "cov", "chance")]
            extra = {"word": word, "admissible": admissible}
            cmds.append(Command(["seq", "check", self.model_path, word, "--dwell",
                                 "--json", out[0]], files=[out[0]], extra=extra))
            cmds.append(Command(["cov", "steady", self.model_path, word, "--augmented",
                                 "--json", out[1]], files=[out[1]], extra=extra))
            cmds.append(Command(["chance", "verify", self.model_path, word,
                                 "--bound", repr(VERIFY_BOUND), "--delta", repr(VERIFY_DELTA),
                                 "--json", out[2]], files=[out[2]], extra=extra))
        return cmds

    def check(self, cmds):
        failed = 0
        for i in range(0, len(cmds), 3):
            seq_cmd, cov_cmd, chance_cmd = cmds[i:i + 3]
            word = seq_cmd.extra["word"]
            bits = [int(ch) for ch in word]
            admissible = None
            try:
                seq = _json(seq_cmd.files[0])
                ok = (seq_cmd.rc == 0 and self._check_seq(seq, word, bits)
                      and seq["admissible"] == seq_cmd.extra["admissible"])
                admissible = seq["admissible"] if ok else None
            except (OSError, ValueError, KeyError, TypeError):
                ok = False
            failed += not ok
            if admissible is None:  # no verdict to hold the other two to
                failed += 2
                continue
            cov = None
            if not admissible:
                failed += (cov_cmd.rc != 3) + (chance_cmd.rc != 3)
                continue
            try:
                cov = _json(cov_cmd.files[0])
                failed += not (cov_cmd.rc == 0 and self._check_cov(cov, bits))
            except (OSError, ValueError, KeyError, TypeError):
                failed += 1
            try:
                chance = _json(chance_cmd.files[0])
                failed += not (chance_cmd.rc == 0 and cov is not None
                               and self._check_chance(chance, cov, len(bits)))
            except (OSError, ValueError, KeyError, TypeError):
                failed += 1
        return failed

    @staticmethod
    def _check_seq(seq, word, bits):
        core = seq["core"]
        n1 = sum(bits)
        return (seq["sequence"] == word
                and isinstance(seq["admissible"], bool)
                and len(word) % len(core) == 0 and core * (len(word) // len(core)) == word
                and seq["dwell"]["n1"] == n1 and seq["dwell"]["n0"] == len(bits) - n1
                and "dwell_screen" in seq)

    def _check_cov(self, cov, bits):
        n, period = self.model.n, len(bits)
        if cov["period"] != period:
            return False
        err = [np.asarray(cov["error_phases"][str(k)]) for k in range(period)]
        joint = [np.asarray(cov["joint_phases"][str(k)]) for k in range(period)]
        state = [np.asarray(cov["state_phases"][str(k)]) for k in range(period)]
        return (all(np.array_equal(s, j[:n, :n]) for s, j in zip(state, joint))
                and _closes(err, bits, self.model.error_step)
                and _closes(joint, bits, self.model.joint_step))

    def _check_chance(self, chance, cov, period):
        """Radii and face margins follow from the state phases of cov steady
        (the steady mean is zero for the origin target)."""
        comps = list(self.model.config["chance"]["components"])
        alpha = math.sqrt(len(comps) / VERIFY_DELTA)
        phases = chance["phases"]
        if len(phases) != period or not _close(chance["alpha"], alpha, 1e-12):
            return False
        for k, ph in enumerate(phases):
            p = np.asarray(cov["state_phases"][str(k)])[np.ix_(comps, comps)]
            radius = alpha * math.sqrt(max(np.linalg.eigvalsh(p)[-1], 0.0))
            margins = VERIFY_BOUND - alpha * np.sqrt(np.clip(np.diag(p), 0.0, None))
            if not (_close(ph["radius"], radius, CLOSURE_RTOL)
                    and all(_close(g, m, CLOSURE_RTOL) for g, m in zip(ph["margins"], margins))
                    and ph["face_pass"] == bool(min(ph["margins"]) >= 0.0)):
                return False
        return chance["passes"] == all(ph["face_pass"] for ph in phases)

    def work(self, cmds):
        return len(cmds) // 3


WORKLOADS = {cls.name: cls for cls in (Search, Ensemble, Verify)}
