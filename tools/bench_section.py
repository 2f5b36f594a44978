#!/usr/bin/env python3
"""Write one bench's --json document into a section of BENCH_qsim.json.

    tools/bench_section.py SECTION BENCH_JSON [--command CMD] [--note TEXT]

Run from the repository root after running the bench, for example

    build/bench_event_engine --json /tmp/e.json
    tools/bench_section.py event_engine /tmp/e.json \\
        --command "bench_event_engine --json /tmp/e.json"

The section's "metrics" become the bench's metrics, "host" is read from
this machine (CPU model, CPU count, kernel) and "config.bench" records
the command. Keys of the section this script does not write (retained
history such as before/after comparisons) are kept as they are; "note"
is replaced only when --note is given. The file is rewritten with the
same indentation, other sections untouched.
"""

import argparse
import json
import os
import platform
import sys

ARTIFACT = "BENCH_qsim.json"


def cpu_model():
    """The CPU model name from /proc/cpuinfo, or the platform's guess."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown CPU"


def host_fingerprint():
    return "%s, %d CPUs, %s %s" % (cpu_model(), os.cpu_count() or 1,
                                   platform.system(), platform.release())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("section")
    parser.add_argument("bench_json")
    parser.add_argument("--command", help="how the bench was run")
    parser.add_argument("--note", help="replace the section's note")
    args = parser.parse_args()

    with open(args.bench_json) as f:
        bench = json.load(f)
    if not isinstance(bench.get("metrics"), dict) or not bench["metrics"]:
        print("%s: no metrics in the bench document" % args.bench_json,
              file=sys.stderr)
        return 1
    with open(ARTIFACT) as f:
        artifact = json.load(f)

    section = artifact.get(args.section, {})
    config = section.get("config", {})
    if args.command:
        config["bench"] = args.command
    section["config"] = config
    section["host"] = host_fingerprint()
    section["metrics"] = bench["metrics"]
    if args.note:
        section["note"] = args.note
    artifact[args.section] = section

    with open(ARTIFACT, "w") as f:
        json.dump(artifact, f, indent=1, ensure_ascii=False)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
