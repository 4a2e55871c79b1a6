"""Per-layer timings that no workload operation isolates, for the traced run.

Each is the median of a few repeats of a public call, recorded as spans:
the lockstep RNG step, CLI start-up, import and in-process ``main``, and the
calibrate, worlds and dists helpers that only the CLI reaches.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time

REPEATS = 5

# One in-process argv per subcommand; fixtures only, so no file is read.
MAIN_ARGV = {
    "shuffle-test": ["shuffle-test", "--fixture", "veg6", "--n", "100000", "--seed", "1"],
    "bootstrap": ["bootstrap", "--fixture", "veg9", "--threshold", "50", "--bounds", "0,100"],
    "clip": ["clip", "--ci", "49,72", "--query", "gt 50"],
    "bayes": ["bayes", "--hypothesis", "guessing:3/4:1/50", "--hypothesis", "telepathy:1/4:1", "--worlds"],
    "montecarlo": ["montecarlo", "--trials", "8", "--count", "4", "--runs", "1000"],
    "poll": ["poll", "--fixture", "poll500", "--sample-size", "20", "--polls", "1000"],
    "fixtures": ["fixtures"],
}


def _timed(tracer, name, op, fn, repeats=REPEATS, **counts) -> float:
    """Median seconds of ``fn()`` over ``repeats`` spans."""
    samples = []
    for i in range(repeats):
        with tracer.span(name, op=f"{op}#{i}", **counts):
            t = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t)
    return statistics.median(samples)


def rng(rk, tracer, seed: int) -> dict:
    out = {}
    for label, lanes, steps in (("1e3", 10**3, 2000), ("1e5", 10**5, 40), ("1e6", 10**6, 4)):
        blk = rk.SubstreamBlock(seed, lanes)

        def step(blk=blk, steps=steps):
            for _ in range(steps):
                blk.next_uint64()

        sec = _timed(tracer, "rng.next_uint64", f"rng.{label}", step, lanes=lanes, steps=steps)
        out[f"rng.step_ns_per_lane.{label}"] = sec / (steps * lanes) * 1e9
    blk = rk.SubstreamBlock(seed, 10**5)

    def below():
        for _ in range(40):
            blk.below(2000)

    out["rng.below_ns_per_lane.1e5"] = _timed(tracer, "rng.below", "rng.below.1e5", below) / (40 * 10**5) * 1e9
    out["rng.block_init_ms.1e6"] = 1e3 * _timed(
        tracer, "rng.SubstreamBlock", "rng.init.1e6", lambda: rk.SubstreamBlock(seed, 10**6), repeats=3
    )
    return out


def cli(tracer, env) -> dict:
    def spawn(code):
        return lambda: subprocess.run([sys.executable, "-c", code], env=env, check=True)

    startup = _timed(tracer, "cli.python_startup", "cli.startup", spawn("pass"))
    fresh = _timed(tracer, "cli.import", "cli.import", spawn("import resamplekit.cli"))
    out = {"cli.python_startup_ms": 1e3 * startup, "cli.import_ms": 1e3 * (fresh - startup)}

    from resamplekit import cli as program

    stdout_bytes = 0
    for sub, argv in MAIN_ARGV.items():
        buf = io.StringIO()

        def main(argv=argv, buf=buf):
            buf.seek(0)
            buf.truncate()
            with contextlib.redirect_stdout(buf):
                if program.main(argv) != 0:
                    raise RuntimeError(f"cli.main({argv}) failed")

        out[f"cli.main_ms.{sub}"] = 1e3 * _timed(tracer, "cli.main", f"cli.main.{sub}", main, repeats=3)
        stdout_bytes += len(buf.getvalue().encode("utf-8"))
    out["cli.stdout_bytes"] = stdout_bytes
    return out


def helpers(rk, tracer) -> dict:
    hset = rk.HypothesisSet.from_triples([("guessing", "3/4", "1/50"), ("telepathy", "1/4", "1")])

    def per_call(name, fn, calls):
        def batch():
            for i in range(calls):
                fn(i)

        return 1e6 * _timed(tracer, name, name, batch, calls=calls) / calls

    return {
        "calibrate.calibrate_from_interval_us": per_call(
            "calibrate.calibrate_from_interval", lambda i: rk.calibrate_from_interval(49 - i % 7, 72), 2000
        ),
        "worlds.render_worlds_us": per_call("worlds.render_worlds", lambda i: rk.render_worlds(hset).render(), 500),
        "dists.t_quantile_us": per_call("dists.t_quantile", lambda i: rk.t_quantile(0.975, 1 + i % 10), 10),
    }
