"""Fresh-interpreter entry point used by the benchmark.

    python3 perfbench/child.py [--spans FILE --op N] -- <hklat arguments>
        Run one hklat command exactly as the ``hklat`` console script does,
        optionally with the span recorder installed; spans go to FILE.  The
        host's speed is measured before and after the command.  The last
        lines of stderr report the seconds spent measuring it and the speed,
        then the process's peak resident memory.
    python3 perfbench/child.py --setup WORKLOAD
        Import hklat, build the parser and, for warm sessions, run the fixed
        warm-up queries; then print "ready", measure the host's speed and
        print it.  The parent times the way to "ready".
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(1, str(BENCH))
import calibrate  # noqa: E402

PEAK_RSS_TAG = "perfbench peak_rss_mb: "
CALIBRATION_TAG = "perfbench calibration: "


def peak_rss_mb() -> float:
    """Peak resident memory of this process since its exec.

    VmHWM, not getrusage: the kernel folds the memory of the process that
    spawned this one (before exec) into ru_maxrss.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--setup"]:
        from hklat import cli

        cli.build_parser()
        if argv[1] != "paper":
            import workloads

            workloads.warm_up(argv[1])
        print("ready", flush=True)
        calibrate.calibration()  # the first run in a fresh interpreter is slower
        print(calibrate.speed())
        return 0

    sep = argv.index("--")
    opts, args = argv[:sep], argv[sep + 1:]
    from hklat import cli

    t0 = time.perf_counter()
    calibrate.calibration()  # the first run in a fresh interpreter is slower
    before = calibrate.calibration()
    spent = time.perf_counter() - t0
    try:
        if not opts:
            return cli.main(args)
        from spans import Recorder

        rec = Recorder()
        rec.op = int(opts[opts.index("--op") + 1])
        rec.install()
        try:
            return cli.main(args)
        finally:
            sys.stdout.flush()
            rec.dump(opts[opts.index("--spans") + 1])
    finally:
        sys.stdout.flush()
        t0 = time.perf_counter()
        after = calibrate.calibration()
        spent += time.perf_counter() - t0
        print(f"{CALIBRATION_TAG}{spent} {2 * calibrate.REF_S / (before + after)}", file=sys.stderr)
        print(f"{PEAK_RSS_TAG}{peak_rss_mb()}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
