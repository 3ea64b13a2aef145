// NTP packet wire format (RFC 5905 §7.3, shared by SNTP per RFC 4330).
//
// The 48-byte header is serialized/parsed explicitly (big-endian byte
// shifts, no host-order assumptions) so the simulation moves real wire
// bytes between client and server — the same code would drive a UDP
// socket unchanged.
//
//  0                   1                   2                   3
//  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
// +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
// |LI | VN  |Mode |    Stratum    |     Poll      |   Precision   |
// +---------------------------------------------------------------+
// |                          Root Delay                           |
// |                       Root Dispersion                         |
// |                        Reference ID                           |
// |                     Reference Timestamp (64)                  |
// |                      Origin Timestamp (64)                    |
// |                      Receive Timestamp (64)                   |
// |                      Transmit Timestamp (64)                  |
// +---------------------------------------------------------------+
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "core/ntp_timestamp.h"
#include "core/result.h"

namespace mntp::ntp {

enum class LeapIndicator : std::uint8_t {
  kNoWarning = 0,
  kLastMinute61 = 1,
  kLastMinute59 = 2,
  kUnsynchronized = 3,  // "alarm condition" — clock not set
};

enum class Mode : std::uint8_t {
  kReserved = 0,
  kSymmetricActive = 1,
  kSymmetricPassive = 2,
  kClient = 3,
  kServer = 4,
  kBroadcast = 5,
  kControl = 6,
  kPrivate = 7,
};

/// One NTP/SNTP message. Plain value type mirroring the wire header.
struct NtpPacket {
  static constexpr std::size_t kWireSize = 48;
  static constexpr std::uint8_t kVersion = 4;

  LeapIndicator leap = LeapIndicator::kNoWarning;
  std::uint8_t version = kVersion;
  Mode mode = Mode::kClient;
  std::uint8_t stratum = 0;
  std::int8_t poll = 0;
  std::int8_t precision = -20;  // ~1 us
  core::NtpShort root_delay;
  core::NtpShort root_dispersion;
  std::uint32_t reference_id = 0;
  core::NtpTimestamp reference_ts;
  core::NtpTimestamp origin_ts;
  core::NtpTimestamp receive_ts;
  core::NtpTimestamp transmit_ts;

  /// Serialize into exactly 48 bytes, network byte order.
  void serialize(std::span<std::uint8_t, kWireSize> out) const;
  [[nodiscard]] std::array<std::uint8_t, kWireSize> to_bytes() const;

  /// Parse from wire bytes. Fails on short input, reserved mode, or a
  /// version outside [1, 4].
  static core::Result<NtpPacket> parse(std::span<const std::uint8_t> in);

  /// Build the minimal client request SNTP sends: everything zero except
  /// the first octet (LI=0, VN, Mode=client) and the transmit timestamp
  /// (RFC 4330 §5).
  static NtpPacket make_sntp_request(core::NtpTimestamp transmit_time);

  /// Build a full-NTP client request (poll/precision populated and the
  /// previous transmit echoed in origin — what ntpd emits).
  static NtpPacket make_ntp_request(core::NtpTimestamp transmit_time,
                                    std::int8_t poll_exponent,
                                    core::NtpTimestamp previous_origin);

  /// Heuristic the log study (§3.1) uses to classify a captured *client*
  /// request as SNTP: all header fields other than the first octet and
  /// transmit timestamp are zero.
  [[nodiscard]] bool looks_like_sntp_request() const;

  /// Kiss-of-death check: stratum 0 replies carry an ASCII code in
  /// reference_id (RFC 5905 §7.4).
  [[nodiscard]] bool is_kiss_of_death() const {
    return mode == Mode::kServer && stratum == 0;
  }
};

/// Well-known kiss-of-death reference IDs.
std::uint32_t kiss_code(const char (&ascii)[5]);

}  // namespace mntp::ntp
