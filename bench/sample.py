"""One benchmark sample: a single workload pass in a fresh interpreter.

Usage (normally started by run.py):
    python3 bench/sample.py '{"src": "...", "commands": [[...], ...], "seed": 7, "trace": false}'

The pass calls ``blockcensus.cli.main`` once per command with stdout
captured in memory, and prints one JSON object: the monotonic time of the
first call (the parent subtracts its own spawn time to get the set-up time),
the pass's wall and CPU time, peak RSS, exit codes, captured outputs, the
number of tracer wrappers present, and the per-layer metrics when traced.
"""

import io
import json
import resource
import sys
import time


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_kb() -> int:
    # VmHWM is the peak of this process's own address space. ru_maxrss is
    # not: exec carries over the high-water mark of the parent's memory that
    # the child was forked (or vforked) from.
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _seed_oracle(oracle, seed: int) -> None:
    # The CLI has no seed flag, so the workload seed reaches the Sylow
    # search through the default of gl_ell_class_census's rng_seed. This
    # changes a default value in place and installs no wrapper.
    fn = oracle.gl_ell_class_census
    code = fn.__code__
    positional = code.co_varnames[: code.co_argcount]
    defaults = list(fn.__defaults__ or ())
    index = positional.index("rng_seed") - (len(positional) - len(defaults))
    if index < 0:
        raise SystemExit("sample: gl_ell_class_census has no rng_seed default")
    defaults[index] = seed
    fn.__defaults__ = tuple(defaults)


def main() -> int:
    spec = json.loads(sys.argv[1])
    from blockcensus import cli, counting, oracle

    if not cli.__file__.startswith(spec["src"]):
        print(f"sample: blockcensus imported from {cli.__file__}, not {spec['src']}", file=sys.stderr)
        return 3
    _seed_oracle(oracle, spec["seed"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    real_stdout = sys.stdout
    outputs, codes = [], []
    cpu0 = _cpu_seconds()
    t_call = time.monotonic()
    start = time.perf_counter()
    for argv in spec["commands"]:
        sys.stdout = buf = io.StringIO()
        try:
            codes.append(cli.main(argv))
        finally:
            sys.stdout = real_stdout
        outputs.append(buf.getvalue())
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    peak_rss_kb = _peak_rss_kb()

    import tracer as tracer_module

    wrapped = tracer_module.installed_wrappers()
    layer_metrics = None
    if tracer is not None:
        tracer.restore()
        layer_metrics = tracer.metrics(counting.shared_cache)
    json.dump(
        {
            "t_call": t_call,
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_kb": peak_rss_kb,
            "codes": codes,
            "outputs": outputs,
            "wrapped": wrapped,
            "layers": layer_metrics,
        },
        real_stdout,
    )
    real_stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
