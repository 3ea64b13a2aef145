#include "ntp/packet.h"

namespace mntp::ntp {

namespace {

void put_u32(std::span<std::uint8_t> out, std::size_t at, std::uint32_t v) {
  out[at] = static_cast<std::uint8_t>(v >> 24);
  out[at + 1] = static_cast<std::uint8_t>(v >> 16);
  out[at + 2] = static_cast<std::uint8_t>(v >> 8);
  out[at + 3] = static_cast<std::uint8_t>(v);
}

void put_u64(std::span<std::uint8_t> out, std::size_t at, std::uint64_t v) {
  put_u32(out, at, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, at + 4, static_cast<std::uint32_t>(v));
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at) {
  return (static_cast<std::uint32_t>(in[at]) << 24) |
         (static_cast<std::uint32_t>(in[at + 1]) << 16) |
         (static_cast<std::uint32_t>(in[at + 2]) << 8) |
         static_cast<std::uint32_t>(in[at + 3]);
}

std::uint64_t get_u64(std::span<const std::uint8_t> in, std::size_t at) {
  return (static_cast<std::uint64_t>(get_u32(in, at)) << 32) | get_u32(in, at + 4);
}

}  // namespace

void NtpPacket::serialize(std::span<std::uint8_t, kWireSize> out) const {
  out[0] = static_cast<std::uint8_t>((static_cast<unsigned>(leap) << 6) |
                                     ((version & 0x7U) << 3) |
                                     (static_cast<unsigned>(mode) & 0x7U));
  out[1] = stratum;
  out[2] = static_cast<std::uint8_t>(poll);
  out[3] = static_cast<std::uint8_t>(precision);
  put_u32(out, 4, root_delay.raw());
  put_u32(out, 8, root_dispersion.raw());
  put_u32(out, 12, reference_id);
  put_u64(out, 16, reference_ts.raw());
  put_u64(out, 24, origin_ts.raw());
  put_u64(out, 32, receive_ts.raw());
  put_u64(out, 40, transmit_ts.raw());
}

std::array<std::uint8_t, NtpPacket::kWireSize> NtpPacket::to_bytes() const {
  std::array<std::uint8_t, kWireSize> buf{};
  serialize(buf);
  return buf;
}

core::Result<NtpPacket> NtpPacket::parse(std::span<const std::uint8_t> in) {
  if (in.size() < kWireSize) {
    return core::Error::malformed("NTP packet shorter than 48 bytes");
  }
  NtpPacket p;
  const std::uint8_t b0 = in[0];
  p.leap = static_cast<LeapIndicator>((b0 >> 6) & 0x3U);
  p.version = static_cast<std::uint8_t>((b0 >> 3) & 0x7U);
  p.mode = static_cast<Mode>(b0 & 0x7U);
  if (p.version < 1 || p.version > 4) {
    return core::Error::malformed("unsupported NTP version");
  }
  if (p.mode == Mode::kReserved) {
    return core::Error::malformed("reserved NTP mode");
  }
  p.stratum = in[1];
  p.poll = static_cast<std::int8_t>(in[2]);
  p.precision = static_cast<std::int8_t>(in[3]);
  p.root_delay = core::NtpShort::from_raw(get_u32(in, 4));
  p.root_dispersion = core::NtpShort::from_raw(get_u32(in, 8));
  p.reference_id = get_u32(in, 12);
  p.reference_ts = core::NtpTimestamp::from_raw(get_u64(in, 16));
  p.origin_ts = core::NtpTimestamp::from_raw(get_u64(in, 24));
  p.receive_ts = core::NtpTimestamp::from_raw(get_u64(in, 32));
  p.transmit_ts = core::NtpTimestamp::from_raw(get_u64(in, 40));
  return p;
}

NtpPacket NtpPacket::make_sntp_request(core::NtpTimestamp transmit_time) {
  NtpPacket p;  // all fields zero/default except below
  p.leap = LeapIndicator::kNoWarning;
  p.version = kVersion;
  p.mode = Mode::kClient;
  p.stratum = 0;
  p.poll = 0;
  p.precision = 0;
  p.transmit_ts = transmit_time;
  return p;
}

NtpPacket NtpPacket::make_ntp_request(core::NtpTimestamp transmit_time,
                                      std::int8_t poll_exponent,
                                      core::NtpTimestamp previous_origin) {
  NtpPacket p;
  p.leap = LeapIndicator::kNoWarning;
  p.version = kVersion;
  p.mode = Mode::kClient;
  p.poll = poll_exponent;
  p.precision = -20;
  p.origin_ts = previous_origin;
  p.transmit_ts = transmit_time;
  return p;
}

bool NtpPacket::looks_like_sntp_request() const {
  if (mode != Mode::kClient) return false;
  return stratum == 0 && poll == 0 && precision == 0 &&
         root_delay.raw() == 0 && root_dispersion.raw() == 0 &&
         reference_id == 0 && reference_ts.is_unset() && origin_ts.is_unset() &&
         receive_ts.is_unset();
}

std::uint32_t kiss_code(const char (&ascii)[5]) {
  return (static_cast<std::uint32_t>(static_cast<unsigned char>(ascii[0])) << 24) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(ascii[1])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(ascii[2])) << 8) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(ascii[3]));
}

}  // namespace mntp::ntp
