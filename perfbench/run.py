"""scrollflex benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The engine is used only from outside: as
the ``scrollflex`` CLI in fresh processes (``python3 -m scrollflex.cli``,
one child at a time) and through its public functions in-process.  Load
is a single closed-loop client: each request is sent when the previous
one has finished.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
one traced pass, taken from span wrappers that ``spans.py`` installs.
Reported times are scaled to a reference host speed (``calibrate.py``).
Outputs are checked outside the timed region; the exit status is nonzero
when an output is wrong or a request failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import check
import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
REQUEST_TIMEOUT_S = 120
SETUP_SAMPLES_PER_GAP = 8
WARM_SESSIONS = 3


@dataclass
class Outcome:
    code: int
    wall: float
    scaled: float  # wall at the reference host speed (calibrate.py)
    stdout: bytes
    stderr: bytes
    timed_out: bool

    @property
    def failed(self) -> bool:
        return self.timed_out or self.code != 0 or b"Traceback" in self.stderr


class Children:
    """Runs one child process at a time and records its wall time, raw and
    scaled by calibration samples taken right before and after it."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.clock = calibrate.Clock()

    def run(self, argv: list[str], timeout: float = REQUEST_TIMEOUT_S) -> Outcome:
        """Run ``argv`` to its end, or kill it after ``timeout`` seconds.

        The exit is awaited on a pidfd, which wakes at once; ``Popen.wait``
        with a timeout polls every 50 ms and would add up to that much to
        each measured wall.
        """
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], timeout)[0]
                if timed_out:
                    proc.kill()
                code = proc.wait()
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start
        scaled = wall * self.clock.factor(wall)
        return Outcome(code, wall, scaled, out_path.read_bytes(),
                       err_path.read_bytes(), timed_out)


def peak_child_rss_kb() -> int:
    """Largest RSS of any child process this run has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "scrollflex.cli", *argv]


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Run:
    """State of one benchmark run: counts, failures and wrong outputs."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload, self.seed, self.seconds, self.work = workload, seed, seconds, work
        self.children = Children(work)
        self.reference = json.loads((HERE / "reference.json").read_text("utf-8"))
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.notes: list[str] = []

    # -- cold workloads ---------------------------------------------------

    def pool(self) -> list[dict]:
        if self.workload == "class-cold":
            return wl.cold_pool(self.seed, self.reference, self.work)
        if self.workload == "jet-minors":
            return wl.jet_pool(self.seed, self.work)
        return wl.verify_pool()

    def cold_setup(self) -> list[float]:
        """Interpreter start plus ``import scrollflex``, in fresh processes."""
        argv = [sys.executable, "-c", "import scrollflex.cli"]
        return [self._expect_ok("setup", self.children.run(argv)).scaled
                for _ in range(SETUP_SAMPLES_PER_GAP)]

    def _expect_ok(self, label: str, outcome: Outcome) -> Outcome:
        if outcome.failed:
            raise SystemExit(f"{label} failed: {outcome.stderr.decode(errors='replace')}")
        return outcome

    def measure_cold(self, pool: list[dict], setup: list[float] | None = None) -> dict:
        """Whole passes over the pool until ``seconds`` have elapsed.

        When ``setup`` is given, set-up samples are added to it before,
        between and after the passes, so that they span the whole run.
        """
        outputs: dict[str, list[bytes]] = {}
        latencies, passes = [], []
        start = time.perf_counter()
        while True:
            if setup is not None:
                setup += self.cold_setup()
            latencies.append([])
            for item in pool:
                outcome = self.children.run(cli(item["argv"]))
                latencies[-1].append(outcome.scaled)
                self.attempted += 1
                if outcome.failed:
                    self.failed += 1
                    self.notes.append(f"{item['id']} failed: exit {outcome.code}")
                else:
                    outputs.setdefault(item["id"], []).append(outcome.stdout)
            passes.append(sum(latencies[-1]))
            if time.perf_counter() - start >= self.seconds:
                break
        if setup is not None:
            setup += self.cold_setup()
        rss_kb = peak_child_rss_kb()
        return {"latencies": latencies, "passes": passes, "rss_kb": rss_kb,
                "digests": self.check_cold(pool, outputs)}

    def check_cold(self, pool: list[dict], outputs: dict[str, list[bytes]]) -> dict:
        """Check each request's first output against the references, and
        every later one against the first by its math content only.

        Returns the content digest of each request's first output.
        """
        digests = {}
        for item in pool:
            first, *later = outputs.get(item["id"], [None])
            if first is None:
                continue
            problem = check.check_cold(item, first, self.reference)
            if problem:
                self.wrong.append(f"{item['id']}: {problem}")
            digests[item["id"]] = check.output_digest(item, first)
            if any(check.output_digest(item, out) != digests[item["id"]]
                   for out in later):
                self.wrong.append(f"{item['id']}: output changed between passes")
        return digests

    def frontier(self) -> int:
        """Rungs of the class ladder that finish, in order, within budget."""
        rungs = 0
        for item in wl.ladder_requests():
            outcome = self.children.run(cli(item["argv"]), timeout=wl.RUNG_BUDGET_S)
            self.attempted += 1
            if outcome.timed_out or b"exceeds the limit" in outcome.stderr:
                self.notes.append(f"ladder stops at {item['id']}")
                break
            if outcome.failed:
                self.failed += 1
                self.notes.append(f"ladder {item['id']} failed: exit {outcome.code}")
                break
            if check.has_class_reference(item, self.reference):
                problem = check.check_cold(item, outcome.stdout, self.reference)
                if problem:
                    self.wrong.append(f"{item['id']}: {problem}")
            else:
                self.notes.append(f"{item['id']} has no reference; output unchecked")
            rungs += 1
        return rungs

    def traced_cold(self, pool: list[dict], digests: dict[str, str]) -> tuple:
        """One traced pass, each request through the traced child entry point."""
        docs, outputs, walls, table_wall, wall = [], [], 0.0, 0.0, 0.0
        for i, item in enumerate(pool):
            out = self.work / f"spans-{i}.json"
            outcome = self.children.run([sys.executable, str(HERE / "child.py"),
                                         str(out), item["id"], *item["argv"]])
            self.attempted += 1
            if outcome.failed:
                self.failed += 1
                self.notes.append(f"traced {item['id']} failed: exit {outcome.code}")
                continue
            outputs.append((item, outcome.stdout))
            walls += outcome.wall
            wall += outcome.scaled
            if item["kind"] == "verify":
                table_wall += outcome.wall
            docs.append(json.loads(out.read_text("utf-8")))
        for item, stdout in outputs:
            if (item["id"] in digests
                    and check.output_digest(item, stdout) != digests[item["id"]]):
                self.wrong.append(f"{item['id']}: traced output differs")
        self.write_spans(docs)
        return spans.per_layer(spans.merge(docs), walls, table_wall), wall

    # -- the warm library session -------------------------------------------

    def warm_sessions(self) -> tuple[dict, list[float]]:
        """Fresh library sessions, one after another, sharing ``seconds``.

        Each session pays its own import and warm-up, which is one set-up
        sample; spreading the passes over several processes also averages
        over where each process happens to be scheduled.
        """
        sample = {"latencies": [], "passes": []}
        setup = []
        for _ in range(WARM_SESSIONS):
            result = self.warm_session(self.seconds / WARM_SESSIONS)
            setup.append(result["setup_s"])
            sample["latencies"] += result["latencies"]
            sample["passes"] += result["passes"]
        sample["rss_kb"] = peak_child_rss_kb()
        return sample, setup

    def warm_session(self, seconds: float, *extra: str) -> dict:
        argv = [sys.executable, str(HERE / "warm.py"), str(self.seed), str(seconds),
                *extra]
        result = json.loads(self._expect_ok("warm session",
                                            self.children.run(argv)).stdout)
        self.attempted += sum(map(len, result["latencies"]))
        self.wrong += result["problems"]
        return result

    def traced_warm(self) -> tuple:
        """A fresh session with the wrappers installed: warm-up and one pass."""
        out = self.work / "spans-warm.json"
        result = self.warm_session(0, str(out))
        docs = [json.loads(out.read_text("utf-8"))]
        self.write_spans(docs)
        return spans.per_layer(spans.merge(docs), 0.0, 0.0), result["passes"][0]

    def write_spans(self, docs: list[dict]) -> None:
        """Keep the traced pass's spans, one document per process."""
        path = WORK / f"spans-{self.workload}-{self.seed}.json"
        path.write_text(json.dumps({"workload": self.workload, "seed": self.seed,
                                    "processes": docs}), "utf-8")
        self.notes.append(f"spans written to {path.relative_to(ROOT)}")


def _pass_percentile(latencies: list[list[float]], p: float) -> float:
    """Median over passes of each pass's latency percentile, in ms.

    Every pass sends the same requests, so taking the percentile pass by
    pass keeps its sample the same whether a run fits two passes or three.
    """
    return statistics.median(percentile(row, p) for row in latencies) * 1000


def summarize(sample: dict, setup: list[float], rungs: int) -> dict:
    return {
        "setup_s": ("s", statistics.median(setup)),
        "wall_s": ("s", statistics.median(sample["passes"])),
        "queries_per_s": ("1/s", sum(map(len, sample["latencies"]))
                          / sum(sample["passes"])),
        "query_p50_ms": ("ms", _pass_percentile(sample["latencies"], 50)),
        "query_p95_ms": ("ms", _pass_percentile(sample["latencies"], 95)),
        "frontier_rungs": ("count", rungs),
        "peak_rss_mb": ("MB", sample["rss_kb"] / 1024),
    }


def execute(args, work: Path) -> tuple[Run, dict]:
    run = Run(args.workload, args.seed, args.seconds, work)
    sys.path.insert(0, str(SRC))
    warm_workload = args.workload == "degree-warm"
    if warm_workload:
        sample, setup = run.warm_sessions()
    else:
        pool = run.pool()
        setup = None if args.trace else []
        sample = run.measure_cold(pool, setup)
    if args.trace:
        layer, traced_wall = (run.traced_warm() if warm_workload
                              else run.traced_cold(pool, sample["digests"]))
        return run, _traced(layer, traced_wall, sample)
    rungs = run.frontier()
    factors = run.children.clock.factors
    run.notes.append(f"{len(sample['latencies'][0])} requests a pass; pass walls "
                     f"{_rounded(sample['passes'])}; set-up {_rounded(setup)}; "
                     f"speed factors {min(factors):.3f} to {max(factors):.3f}, "
                     f"median {statistics.median(factors):.3f}")
    return run, summarize(sample, setup, rungs)


def _rounded(values: list[float]) -> list[float]:
    return [round(v, 3) for v in values]


def _traced(layer: dict, traced_wall: float, sample: dict) -> dict:
    untraced = statistics.median(sample["passes"])
    layer["trace.wall_s"] = traced_wall
    layer["trace.overhead_s"] = traced_wall - untraced
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    return {name: (units[name], value) for name, value in layer.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # A fixed hash seed makes set and dict orders, and so every traced
        # count, repeat exactly between runs with the same seed.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    # One CPU for the benchmark and every child it starts, so that the
    # calibration samples measure the CPU the work runs on; the two CPUs
    # of a shared host can differ in speed by a third.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "scrollflex" / "__init__.py").is_file():
        print(f"error: no scrollflex sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    # Precompile so that no timed start-up pays for writing .pyc files.
    if not all(compileall.compile_dir(d, quiet=1) for d in (SRC, HERE)):
        print("error: the sources do not compile", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run, metrics = execute(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in run.notes:
        print(note)
    for problem in run.wrong:
        print(f"WRONG {problem}")
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (unit, value) in metrics.items()},
    }))
    return 0 if not run.wrong and not run.failed else 1


if __name__ == "__main__":
    sys.exit(main())
