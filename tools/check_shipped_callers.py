#!/usr/bin/env python3
"""Fail when a src/ function has no shipped caller.

Usage:
  cmake --preset deadcode && cmake --build --preset deadcode
  cmake -S e2e_bench -B build-deadcode/e2e_bench -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" \\
      -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
  cmake --build build-deadcode/e2e_bench --target mntp_e2e
  tools/check_shipped_callers.py build-deadcode build-deadcode/e2e_bench

"Shipped" means every binary in <build>/bench, <build>/tools and
<build>/examples, plus <e2e-build>/mntp_e2e. The build must be the
`deadcode` preset: -O0 -ffunction-sections, linked with --gc-sections.
Each function then sits in its own section, the linker drops every
section no shipped entry point reaches, and `nm` on a binary lists
exactly the functions it keeps. At -O2 inlining would make live
functions look dead (their bodies are folded into callers).

The universe is every out-of-line function in namespace mntp defined in
a src/ archive (nm types T and t), by demangled name, so constructor
and destructor variants count as one. Lambda bodies are skipped: a dead
lambda's enclosing function is reported instead. Header-inline functions
and templates are emitted only where something instantiates them (weak
symbols), so this check cannot see an inline function that nothing
calls.

Exit 1 when a function survives in no shipped binary and is not on
ALLOWLIST, when a src/ library is not built by the shipped targets, or
when an ALLOWLIST entry names a function that is shipped
or gone (a stale entry). Exit 2 on a usage error.
"""

import pathlib
import subprocess
import sys

# Functions that only tests call, each with the reason it stays. Most
# are reads that let a test observe live state directly.
ALLOWLIST = {
    "mntp::core::Cdf::quantile(double) const":
        "inverse of Cdf::at; Cdf.QuantileInverse checks the two agree",
    "mntp::core::NtpShort::to_duration() const":
        "decodes root delay/dispersion; wire-format tests round-trip it",
    "mntp::core::NtpTimestamp::to_time_point() const":
        "decodes a wire timestamp; wire-format tests round-trip it",
    "mntp::core::RunningStats::merge(mntp::core::RunningStats const&)":
        "RunningStats.MergeEqualsBulk checks the combine against one pass",
    "mntp::net::CellularNetwork::congested(mntp::core::TimePoint)":
        "cellular tests read the congestion state the delays follow",
    "mntp::ntp::ClockFilter::reset()":
        "RFC 5905 filter clear; ClockFilter.ResetClearsEverything pins it",
    "mntp::obs::QueryTracer::snapshot() const":
        "tracer tests read the kept traces without an export round trip",
    "mntp::protocol::DriftFilter::predict_s(mntp::core::TimePoint) const":
        "filter tests read the trend-line prediction the gate judges by",
    "mntp::protocol::MntpEngine::predict_offset_s(mntp::core::TimePoint) const":
        "engine tests read the prediction net of frequency compensation",
}


def defined_functions(path):
    """Demangled names of the mntp:: text symbols defined in `path`."""
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)],
                         capture_output=True, text=True, check=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in ("T", "t"):
            name = parts[2]
            if name.startswith("mntp::") and "{lambda" not in name:
                names.add(name)
    return names


def is_elf_executable(path):
    if not path.is_file() or not path.stat().st_mode & 0o111:
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def main(argv):
    if len(argv) != 3:
        print("usage: check_shipped_callers.py <build> <e2e-build>",
              file=sys.stderr)
        return 2
    build, e2e = pathlib.Path(argv[1]), pathlib.Path(argv[2])
    archives = sorted((build / "src").rglob("*.a"))
    # A src/ library that no shipped target links is never built.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    unbuilt = sorted(d.name for d in src.iterdir()
                     if (d / "CMakeLists.txt").is_file()
                     and not any((build / "src" / d.name).glob("*.a")))
    binaries = [p for d in ("bench", "tools", "examples")
                for p in sorted((build / d).glob("*")) if is_elf_executable(p)]
    e2e_binary = e2e / "mntp_e2e"
    if not archives or not binaries or not e2e_binary.is_file():
        print(f"no src/ archives, shipped binaries or {e2e_binary} to "
              f"check: build both trees first", file=sys.stderr)
        return 2
    binaries.append(e2e_binary)

    library = set().union(*map(defined_functions, archives))
    shipped = set().union(*map(defined_functions, binaries))
    unshipped = library - shipped
    dead = sorted(unshipped - ALLOWLIST.keys()) + [
        f"src/{name}/ (no shipped target links it)" for name in unbuilt]
    stale = sorted(ALLOWLIST.keys() - unshipped)

    print(f"{len(library)} src/ functions, {len(archives)} archives, "
          f"{len(binaries)} shipped binaries; {len(unshipped)} without a "
          f"shipped caller, {len(ALLOWLIST)} allowlisted")
    for name in dead:
        print(f"no shipped caller: {name}")
    for name in stale:
        state = "shipped" if name in shipped else "not in src/"
        print(f"stale allowlist entry ({state}): {name}")
    return 1 if dead or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
