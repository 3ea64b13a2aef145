#include "ntp/packet.h"

#include <gtest/gtest.h>

#include "core/rng.h"

namespace mntp::ntp {
namespace {

using core::NtpShort;
using core::NtpTimestamp;

NtpPacket sample_packet() {
  NtpPacket p;
  p.leap = LeapIndicator::kLastMinute61;
  p.version = 4;
  p.mode = Mode::kServer;
  p.stratum = 2;
  p.poll = 6;
  p.precision = -23;
  p.root_delay = NtpShort::from_raw(0x00012345);
  p.root_dispersion = NtpShort::from_raw(0x00006789);
  p.reference_id = 0x47505300;
  p.reference_ts = NtpTimestamp::from_parts(100, 200);
  p.origin_ts = NtpTimestamp::from_parts(300, 400);
  p.receive_ts = NtpTimestamp::from_parts(500, 600);
  p.transmit_ts = NtpTimestamp::from_parts(700, 800);
  return p;
}

TEST(NtpPacket, SerializeParseRoundTrip) {
  const NtpPacket p = sample_packet();
  const auto wire = p.to_bytes();
  const auto parsed = NtpPacket::parse(wire);
  ASSERT_TRUE(parsed.ok());
  const NtpPacket& q = parsed.value();
  EXPECT_EQ(q.leap, p.leap);
  EXPECT_EQ(q.version, p.version);
  EXPECT_EQ(q.mode, p.mode);
  EXPECT_EQ(q.stratum, p.stratum);
  EXPECT_EQ(q.poll, p.poll);
  EXPECT_EQ(q.precision, p.precision);
  EXPECT_EQ(q.root_delay, p.root_delay);
  EXPECT_EQ(q.root_dispersion, p.root_dispersion);
  EXPECT_EQ(q.reference_id, p.reference_id);
  EXPECT_EQ(q.reference_ts, p.reference_ts);
  EXPECT_EQ(q.origin_ts, p.origin_ts);
  EXPECT_EQ(q.receive_ts, p.receive_ts);
  EXPECT_EQ(q.transmit_ts, p.transmit_ts);
}

TEST(NtpPacket, FirstOctetPacking) {
  NtpPacket p;
  p.leap = LeapIndicator::kUnsynchronized;  // 3
  p.version = 4;
  p.mode = Mode::kClient;  // 3
  const auto wire = p.to_bytes();
  // LI=11 VN=100 Mode=011 -> 1110 0011.
  EXPECT_EQ(wire[0], 0xE3);
}

TEST(NtpPacket, BigEndianFieldLayout) {
  const NtpPacket p = sample_packet();
  const auto wire = p.to_bytes();
  // root_delay 0x00012345 at offset 4.
  EXPECT_EQ(wire[4], 0x00);
  EXPECT_EQ(wire[5], 0x01);
  EXPECT_EQ(wire[6], 0x23);
  EXPECT_EQ(wire[7], 0x45);
  // reference_id "GPS\0" at offset 12.
  EXPECT_EQ(wire[12], 'G');
  EXPECT_EQ(wire[13], 'P');
  EXPECT_EQ(wire[14], 'S');
  // transmit_ts seconds=700 at offset 40.
  EXPECT_EQ(wire[40], 0x00);
  EXPECT_EQ(wire[43], 700 & 0xFF);
}

TEST(NtpPacket, ParseRejectsShortInput) {
  const std::vector<std::uint8_t> short_wire(47, 0);
  const auto r = NtpPacket::parse(short_wire);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, core::Error::Code::kMalformedPacket);
}

TEST(NtpPacket, ParseRejectsReservedMode) {
  auto wire = sample_packet().to_bytes();
  wire[0] = static_cast<std::uint8_t>((wire[0] & ~0x07) | 0x00);  // mode 0
  EXPECT_FALSE(NtpPacket::parse(wire).ok());
}

TEST(NtpPacket, ParseRejectsBadVersion) {
  auto wire = sample_packet().to_bytes();
  wire[0] = static_cast<std::uint8_t>((wire[0] & ~0x38) | (7 << 3));  // v7
  EXPECT_FALSE(NtpPacket::parse(wire).ok());
  wire[0] = static_cast<std::uint8_t>(wire[0] & ~0x38);  // v0
  EXPECT_FALSE(NtpPacket::parse(wire).ok());
}

TEST(NtpPacket, ParseAcceptsVersions1Through4) {
  for (std::uint8_t v = 1; v <= 4; ++v) {
    NtpPacket p = sample_packet();
    p.version = v;
    const auto parsed = NtpPacket::parse(p.to_bytes());
    ASSERT_TRUE(parsed.ok()) << "version " << int(v);
    EXPECT_EQ(parsed.value().version, v);
  }
}

TEST(NtpPacket, SntpRequestZeroesEverythingButFirstOctetAndTransmit) {
  const auto xmt = NtpTimestamp::from_parts(999, 123);
  const NtpPacket p = NtpPacket::make_sntp_request(xmt);
  const auto wire = p.to_bytes();
  // Bytes 1..39 all zero.
  for (std::size_t i = 1; i < 40; ++i) {
    ASSERT_EQ(wire[i], 0) << "byte " << i;
  }
  EXPECT_EQ(p.transmit_ts, xmt);
  EXPECT_TRUE(p.looks_like_sntp_request());
}

TEST(NtpPacket, NtpRequestDoesNotLookLikeSntp) {
  const NtpPacket p = NtpPacket::make_ntp_request(
      NtpTimestamp::from_parts(1, 2), 6, NtpTimestamp::from_parts(3, 4));
  EXPECT_FALSE(p.looks_like_sntp_request());
}

TEST(NtpPacket, ServerReplyNotClassifiedAsSntpRequest) {
  NtpPacket p = sample_packet();  // mode server
  EXPECT_FALSE(p.looks_like_sntp_request());
}

TEST(NtpPacket, KissOfDeathDetection) {
  NtpPacket p;
  p.mode = Mode::kServer;
  p.stratum = 0;
  EXPECT_TRUE(p.is_kiss_of_death());
  p.stratum = 2;
  EXPECT_FALSE(p.is_kiss_of_death());
  p.stratum = 0;
  p.mode = Mode::kClient;
  EXPECT_FALSE(p.is_kiss_of_death());
}

TEST(NtpPacket, KissCodeAscii) {
  EXPECT_EQ(kiss_code("RATE"), 0x52415445u);
  EXPECT_EQ(kiss_code("DENY"), 0x44454E59u);
}

TEST(NtpPacketProperty, RandomRoundTrips) {
  core::Rng rng(31);
  for (int i = 0; i < 500; ++i) {
    NtpPacket p;
    p.leap = static_cast<LeapIndicator>(rng.uniform_int(0, 3));
    p.version = static_cast<std::uint8_t>(rng.uniform_int(1, 4));
    p.mode = static_cast<Mode>(rng.uniform_int(1, 7));
    p.stratum = static_cast<std::uint8_t>(rng.uniform_int(0, 16));
    p.poll = static_cast<std::int8_t>(rng.uniform_int(-6, 17));
    p.precision = static_cast<std::int8_t>(rng.uniform_int(-30, 0));
    p.root_delay = NtpShort::from_raw(static_cast<std::uint32_t>(rng.next_u64()));
    p.root_dispersion =
        NtpShort::from_raw(static_cast<std::uint32_t>(rng.next_u64()));
    p.reference_id = static_cast<std::uint32_t>(rng.next_u64());
    p.reference_ts = NtpTimestamp::from_raw(rng.next_u64());
    p.origin_ts = NtpTimestamp::from_raw(rng.next_u64());
    p.receive_ts = NtpTimestamp::from_raw(rng.next_u64());
    p.transmit_ts = NtpTimestamp::from_raw(rng.next_u64());
    const auto parsed = NtpPacket::parse(p.to_bytes());
    ASSERT_TRUE(parsed.ok());
    ASSERT_EQ(parsed.value().to_bytes(), p.to_bytes());
  }
}

}  // namespace
}  // namespace mntp::ntp
