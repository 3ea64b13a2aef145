// Host speed reference for the benchmark's time metrics.
//
// On a shared host the CPU's speed drifts by tens of percent over minutes
// (frequency, and other tenants on the same cores and caches), and CPU
// seconds drift with it. The reference is a fixed amount of work that owes
// nothing to the library (dependent loads over a 16 MiB table, integer
// hashing and floating-point math), timed on as many threads as the
// workload uses, between the workload's batches. A workload's CPU seconds
// divided by the reference's are its cost in host-independent units;
// main.cc scales them to seconds of a nominal host.
#pragma once

#include <cstddef>

namespace mntp::e2e {

/// CPU seconds per thread the reference took on the nominal host: the
/// 4-vCPU Xeon VM the benchmark was calibrated on, when it was quiet.
inline constexpr double kReferenceNominalCpuS = 0.065;

/// Runs the reference once on each of `threads` threads at the same time;
/// returns the CPU seconds it took per thread (the threads' sum divided
/// by their number).
double reference_cpu_s(std::size_t threads);

}  // namespace mntp::e2e
