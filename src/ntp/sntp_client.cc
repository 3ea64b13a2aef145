#include "ntp/sntp_client.h"

#include <algorithm>

namespace mntp::ntp {

namespace {

// RFC 4330 §10: a kiss-of-death demands rate reduction, not a retry.
constexpr double kKodBackoffFactor = 2.0;
constexpr core::Duration kMaxPollInterval = core::Duration::hours(36);

}  // namespace

SntpClient::SntpClient(sim::Simulation& sim, sim::DisciplinedClock& clock,
                       ServerPool& pool, net::Link* last_hop_up,
                       net::Link* last_hop_down, SntpClientPolicy policy,
                       QueryOptions query_options)
    : clock_(clock),
      pool_(pool),
      last_hop_up_(last_hop_up),
      last_hop_down_(last_hop_down),
      policy_(policy),
      query_options_(query_options),
      engine_(sim, clock),
      process_(sim, policy.poll_interval, [this] { poll_once(); }),
      current_poll_(policy.poll_interval) {}

void SntpClient::start() { process_.start(); }
void SntpClient::poll_once() {
  ++polls_;
  const std::size_t idx = pool_.pick_index();
  const ServerEndpoint ep = pool_.endpoint(idx, last_hop_up_, last_hop_down_);
  engine_.query(ep, query_options_, [this](core::Result<SntpSample> result) {
    handle(std::move(result));
  });
}

void SntpClient::handle(core::Result<SntpSample> result) {
  if (!result.ok()) {
    ++failures_;
    if (result.error().code == core::Error::Code::kKissOfDeath) {
      ++kod_backoffs_;
      current_poll_ = std::min(kMaxPollInterval,
                               current_poll_.scaled(kKodBackoffFactor));
      process_.set_interval(current_poll_);
    }
    return;
  }
  SntpSample sample = std::move(result).take();
  samples_.push_back(sample);
  if (on_sample_) on_sample_(sample);

  if (policy_.update_clock) {
    // SNTP semantics: trust the single sample, step the clock by it.
    clock_.step(sample.offset);
    ++clock_updates_;
  }
}

std::vector<double> SntpClient::offsets_ms() const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const SntpSample& s : samples_) out.push_back(s.offset.to_millis());
  return out;
}

}  // namespace mntp::ntp
