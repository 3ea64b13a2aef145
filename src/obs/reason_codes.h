// Typed reason codes for per-query causal tracing.
//
// Every accept/defer/reject decision along a sync exchange or an MNTP
// round is recorded as a query-trace stage carrying one of these codes
// (see obs/query_trace.h). The taxonomy mirrors the decision points in
// the paper's Algorithm 1 and the NTP reference pipeline:
//
//   channel_defer       MNTP channel gate deferred the round (rssi/snr)
//   forced_emission     max-deferral cap overrode the channel gate
//   loss                datagram dropped at a link hop (non-terminal;
//                       the client still observes only the timeout)
//   timeout             exchange gave up waiting for the reply
//   server_error        server replied kiss-of-death / unsynchronized
//   validation_error    reply failed RFC 4330 sanity checks
//   popcorn_suppressed  clock_filter popcorn gate swallowed the sample
//   false_ticker        mean±1sd vote rejected the source this round
//   trend_outlier       drift trend filter residual exceeded its gate
//   accepted_warmup     round accepted during the warm-up phase
//   accepted_regular    round accepted during the regular phase
//   no_samples          round ended with zero usable samples
//   no_survivors        selection left no truechimers/survivors
//
// `kOk` marks successful non-terminal stages (request sent, reply
// parsed, ...); `kNone` marks purely informational stages (hop records,
// airtime detail). String forms are the wire format in the JSONL
// export — `mntp-inspect validate` checks against kAllReasons, so an
// addition must update kAllReasons.
#pragma once

#include <cstdint>
#include <string_view>

namespace mntp::obs {

enum class Reason : std::uint8_t {
  kNone = 0,
  kOk,
  kChannelDefer,
  kForcedEmission,
  kLoss,
  kTimeout,
  kServerError,
  kValidationError,
  kPopcornSuppressed,
  kFalseTicker,
  kTrendOutlier,
  kAcceptedWarmup,
  kAcceptedRegular,
  kNoSamples,
  kNoSurvivors,
};

[[nodiscard]] constexpr std::string_view to_string(Reason r) {
  switch (r) {
    case Reason::kNone:
      return "none";
    case Reason::kOk:
      return "ok";
    case Reason::kChannelDefer:
      return "channel_defer";
    case Reason::kForcedEmission:
      return "forced_emission";
    case Reason::kLoss:
      return "loss";
    case Reason::kTimeout:
      return "timeout";
    case Reason::kServerError:
      return "server_error";
    case Reason::kValidationError:
      return "validation_error";
    case Reason::kPopcornSuppressed:
      return "popcorn_suppressed";
    case Reason::kFalseTicker:
      return "false_ticker";
    case Reason::kTrendOutlier:
      return "trend_outlier";
    case Reason::kAcceptedWarmup:
      return "accepted_warmup";
    case Reason::kAcceptedRegular:
      return "accepted_regular";
    case Reason::kNoSamples:
      return "no_samples";
    case Reason::kNoSurvivors:
      return "no_survivors";
  }
  return "none";
}

inline constexpr Reason kAllReasons[] = {
    Reason::kNone,           Reason::kOk,
    Reason::kChannelDefer,   Reason::kForcedEmission,
    Reason::kLoss,           Reason::kTimeout,
    Reason::kServerError,    Reason::kValidationError,
    Reason::kPopcornSuppressed, Reason::kFalseTicker,
    Reason::kTrendOutlier,   Reason::kAcceptedWarmup,
    Reason::kAcceptedRegular, Reason::kNoSamples,
    Reason::kNoSurvivors,
};

}  // namespace mntp::obs
