"""sensact benchmark: drives the shipped CLI in-process on configs/cw.json.

Run from the repository root:

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

The program is imported from ./src of the current directory; the run fails
(exit 2, no result) when it is missing. After a set-up phase and one
untimed warm-up pass, passes of the workload run back to back until their
measured time reaches --seconds. The last line of standard output is the
result object; the line before it holds the run's provenance.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports per-layer metrics.

Times are reported at a fixed reference speed of the machine: each command
is scaled by REFERENCE_PROBE_S over the time of a fixed calibration probe
(see SpeedProbe) measured around and, in untraced passes, during it. The
raw figures are in the provenance line.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

# one process, no worker threads: pin BLAS pools before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CONFIG = os.path.join("configs", "cw.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 3
#: the probe's time at the reference speed; reported times are scaled to it
REFERENCE_PROBE_S = 0.003
#: how often a pass probes the machine speed, between and during commands
PROBE_EVERY_S = 0.1

# import sensact.cli and build the model, in a fresh interpreter; prints seconds
SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from sensact import cli
rc = cli.main(["model", "build", sys.argv[2], "-o", sys.argv[3]])
print(repr(time.perf_counter() - t0) if rc == 0 else "failed")
"""


class SpeedProbe:
    """Fixed calibration work in the program's own mix: small dense matrix
    products, eigenvalues, a discrete Lyapunov solve and float formatting.

    The host this benchmark was tuned on drifts in speed by up to 1.8x
    within a minute, both cores together. The probe never calls sensact,
    so a change to the program leaves it untouched. ``take`` measures it
    between commands; inside ``sampling`` a timer signal also runs it every
    PROBE_EVERY_S during a command, and the time so spent is kept in
    ``stolen`` so that the caller can take it out of the command's time.
    """

    def __init__(self):
        import numpy as np
        import scipy.linalg as sla

        self._np, self._sla = np, sla
        rng = np.random.default_rng(0)
        self._mats = [rng.standard_normal((6, 6)) * 0.3 for _ in range(8)]
        self._q = np.eye(6)
        self._busy = False
        self.samples = []
        self.stolen = 0.0

    def once(self):
        np, sla = self._np, self._sla
        t = time.perf_counter()
        for _ in range(10):
            p = np.eye(6)
            for m in self._mats:
                p = m @ p
            np.max(np.abs(np.linalg.eigvals(p)))
            sla.solve_discrete_lyapunov(p / (1.0 + np.abs(p).sum()), self._q)
            ",".join(repr(float(v)) for v in p.ravel())
        return time.perf_counter() - t

    def take(self):
        """Median of three probe times, in seconds."""
        self._busy = True
        try:
            return statistics.median(self.once() for _ in range(3))
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append(self.once())
        finally:
            self.stolen += time.perf_counter() - start
            self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="toy sizes, for the harness self-check only")
    return parser.parse_args(argv)


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_sample(workdir, i, probe):
    """(raw seconds, scale) of one import plus model build in a fresh
    interpreter, the scale from probes taken just before and after it."""
    out = os.path.join(workdir, f"setup_model_{i}.json")
    before = probe.take()
    proc = subprocess.run([sys.executable, "-c", SETUP_SCRIPT, SRC, CONFIG, out],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    after = probe.take()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or lines[-1] == "failed":
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
    return float(lines[-1]), 2.0 * REFERENCE_PROBE_S / (before + after)


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def run_pass(cli_main, workload, probe, sample_inside):
    """One pass: the timed commands, with speed probes between them (and,
    with sample_inside, during them), then the untimed checks. Each
    command's time is scaled by the median of the probe points just before
    and just after it and of the samples taken while it ran."""
    pass_dir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        cmds = workload.commands(pass_dir)
        times, streams, windows = [], [], []
        clock = time.perf_counter
        speeds = [probe.take()]
        last_probe = clock()
        with probe.sampling() if sample_inside else contextlib.nullcontext():
            for i, cmd in enumerate(cmds):
                out, err = io.StringIO(), io.StringIO()
                first, stolen = len(probe.samples), probe.stolen
                t = clock()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    cmd.rc = cli_main(cmd.argv)
                times.append(clock() - t - (probe.stolen - stolen))
                streams.append((out, err))
                windows.append((len(speeds) - 1, probe.samples[first:]))
                if clock() - last_probe >= PROBE_EVERY_S or i == len(cmds) - 1:
                    speeds.append(probe.take())
                    last_probe = clock()
        del probe.samples[:]
        scales = [REFERENCE_PROBE_S / statistics.median([speeds[b], speeds[b + 1], *inside])
                  for b, inside in windows]
        failed = workload.check(cmds)
        written = sum(len(s.getvalue().encode()) for pair in streams for s in pair)
        written += sum(os.path.getsize(f) for cmd in cmds for f in cmd.files
                       if os.path.exists(f))
        ops = [t * k for t, k in zip(times, scales)]
        return {"ops": ops, "raw_ops": times, "raw_wall": sum(times), "wall": sum(ops),
                "scale": sum(ops) / sum(times),
                "cmds": cmds, "failed": failed, "written": written}
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def end_to_end(setup, passes):
    walls = [p["wall"] for p in passes]
    ops = [t * 1e3 for p in passes for t in p["ops"]]
    rates = [p["work"] / p["wall"] for p in passes]
    return {
        "setup_s": (statistics.median(raw * scale for raw, scale in setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(ops), "ms"),
        "op_p90_ms": (quantile(ops, 90), "ms"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(traced, untraced):
    from spans import LAYER_NAMES

    count = len(traced)
    metrics = {}
    for name in LAYER_NAMES:
        for key, unit in (("calls", "count"), ("s", "s"), ("self_s", "s")):
            total = sum(p["layers"][name][key] * (1.0 if key == "calls" else p["scale"])
                        for p in traced)
            metrics[f"{name}.{key}"] = (total / count, unit)
    counters = [p["counters"] for p in traced]
    words = sum(c.get("enumerated", 0) for c in counters)
    cores = sum(c.get("cores_evaluated", 0) for c in counters)
    seen = sum(p["verdicts"][0] for p in traced)
    admissible = sum(p["verdicts"][1] for p in traced)
    metrics.update({
        "search.cores_per_word": (cores / words if words else 0.0, "ratio"),
        "search.admissible_ratio": (admissible / seen if seen else 0.0, "ratio"),
        "search.memo_hits": (sum(c.get("memo_hits", 0) for c in counters) / count, "count"),
        "cli.output_bytes": (sum(p["written"] for p in traced) / count, "bytes"),
        "trace.wall_s": (sum(p["wall"] for p in traced) / count, "s"),
        # raw times: traced passes are probed only between commands
        "trace.overhead_frac": (statistics.median(p["raw_wall"] for p in traced)
                                / statistics.median(p["raw_wall"] for p in untraced) - 1.0,
                                "ratio"),
    })
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sensact", "cli.py")):
        print(f"error: no sensact sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        return measure(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)


def measure(args, workload_cls, workdir):
    import numpy
    import scipy
    from sensact import cli

    probe = SpeedProbe()
    model_path = os.path.join(workdir, "model.json")
    workload = workload_cls(args.seed, args.tiny, workdir, model_path)
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["model", "build", CONFIG, "-o", model_path]) != 0:
            raise RuntimeError("model build failed")
        workload.setup(cli.main)
    setup = [setup_sample(workdir, i, probe) for i in range(SETUP_SAMPLES)]

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    attempted = failed = 0
    untraced, traced = [], []
    measured = 0.0
    warmup = True
    while warmup or measured < args.seconds or (tracer and not (traced and untraced)):
        tracing = tracer is not None and not warmup and len(untraced) > len(traced)
        if tracing:
            tracer.install()
        try:
            record = run_pass(cli.main, workload, probe, sample_inside=not tracing)
        finally:
            if tracing:
                tracer.uninstall()
        cmds = record.pop("cmds")
        attempted += len(cmds)
        failed += record["failed"]
        record.update(work=workload.work(cmds), counters=dict(workload.counters))
        if tracing:
            record["layers"], record["spans"], record["verdicts"] = tracer.drain()
            traced.append(record)
        elif not warmup:
            untraced.append(record)
        if not warmup:
            measured += record["raw_wall"]
        warmup = False

    metrics = per_layer(traced, untraced) if tracer else end_to_end(setup, untraced)
    raw_ops = [t * 1e3 for p in untraced for t in p["raw_ops"]]
    words = getattr(workload, "words", None)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "passes": {"untraced": len(untraced), "traced": len(traced), "warmup": 1},
        "op_samples": len(raw_ops),
        "raw": {
            "setup_s": [raw for raw, _ in setup],
            "wall_s": statistics.median(p["raw_wall"] for p in untraced),
            "op_p50_ms": statistics.median(raw_ops),
            "op_p90_ms": quantile(raw_ops, 90),
        },
        "speed_scale": [p["scale"] for p in untraced + traced],
        "spans_per_traced_pass": [p["spans"] for p in traced],
        "reference_probe_s": REFERENCE_PROBE_S,
        "words_sha256": (hashlib.sha256("\n".join(words).encode()).hexdigest()
                         if words else None),
        "words": len(words) if words else None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
