#include "ntp/transport.h"

#include <array>
#include <cstdint>
#include <utility>

#include "obs/metric_names.h"

namespace mntp::ntp {

namespace {

/// Per-exchange state kept alive by shared_ptr across the event chain.
/// Every lambda of the chain captures only `[this, ex]`, so each capture
/// fits its FixedFunction's inline buffer. `engine_alive` is the
/// engine's liveness flag: every event of the chain checks it before
/// touching the engine.
struct Exchange {
  QueryEngine::Callback callback;
  std::shared_ptr<const bool> engine_alive;
  sim::EventHandle timeout_event;
  bool settled = false;

  NtpServer* server = nullptr;
  net::LinkPath down;
  std::size_t wire_bytes = 0;
  obs::QueryId qid = 0;
  core::NtpTimestamp t1;
  /// True send time of the request and departure time of the reply.
  core::TimePoint send_true;
  core::TimePoint departs;
  std::array<std::uint8_t, NtpPacket::kWireSize> request_bytes{};
  std::array<std::uint8_t, NtpPacket::kWireSize> reply_bytes{};

  void settle(core::Result<SntpSample> result) {
    if (settled) return;
    settled = true;
    timeout_event.cancel();
    callback(std::move(result));
  }
};

}  // namespace

QueryEngine::QueryEngine(sim::Simulation& sim, sim::DisciplinedClock& clock)
    : sim_(sim), clock_(clock) {
  obs::MetricsRegistry& m = sim_.telemetry().metrics();
  sent_counter_ = m.counter(obs::metric_names::kNtpQuerySent);
  ok_counter_ = m.counter(obs::metric_names::kNtpQueryOk);
  timeout_counter_ = m.counter(obs::metric_names::kNtpQueryTimeout);
  error_counter_ = m.counter(obs::metric_names::kNtpQueryError);
  rtt_ms_ = m.histogram(obs::metric_names::kNtpQueryRttMs);
  owd_up_ms_ = m.histogram(obs::metric_names::kNtpQueryOwdMs, {},
                           obs::Labels{{"dir", "up"}});
  owd_down_ms_ = m.histogram(obs::metric_names::kNtpQueryOwdMs, {},
                             obs::Labels{{"dir", "down"}});
  obs::TimeSeriesRecorder& ts = sim_.telemetry().timeseries();
  owd_up_probe_ =
      ts.probe(obs::metric_names::kTsNtpOwdMs, obs::Labels{{"dir", "up"}},
               [this](core::TimePoint) -> std::optional<double> {
                 if (!has_owd_up_) return std::nullopt;
                 return last_owd_up_ms_;
               });
  owd_down_probe_ =
      ts.probe(obs::metric_names::kTsNtpOwdMs, obs::Labels{{"dir", "down"}},
               [this](core::TimePoint) -> std::optional<double> {
                 if (!has_owd_down_) return std::nullopt;
                 return last_owd_down_ms_;
               });
}

QueryEngine::~QueryEngine() { *alive_ = false; }

void QueryEngine::query(const ServerEndpoint& endpoint,
                        const QueryOptions& options, Callback callback) {
  ++sent_;
  auto ex = std::make_shared<Exchange>();
  ex->callback = std::move(callback);
  ex->engine_alive = alive_;
  ex->server = endpoint.server;
  ex->down = endpoint.down;
  ex->wire_bytes = options.wire_bytes;

  ex->send_true = sim_.now();
  ex->t1 =
      core::NtpTimestamp::from_time_point(clock_.local_time(ex->send_true));
  const NtpPacket request =
      options.sntp_style
          ? NtpPacket::make_sntp_request(ex->t1)
          : NtpPacket::make_ntp_request(ex->t1, /*poll_exponent=*/4,
                                        core::NtpTimestamp::unset());
  ex->request_bytes = request.to_bytes();

  // Mint a per-exchange query trace, parented to the round that issued
  // it (the client installs its round as ambient around this call).
  obs::QueryTracer& qt = sim_.telemetry().query_tracer();
  if (qt.enabled()) {
    ex->qid = qt.begin(ex->send_true, "exchange", obs::ambient_query().id);
  }
  if (obs::recorded(ex->qid)) {
    qt.stage(ex->qid, ex->send_true, "request", obs::Reason::kOk,
             {{"wire_bytes", static_cast<std::int64_t>(options.wire_bytes)},
              {"mode", options.sntp_style ? "sntp" : "ntp"},
              {"timeout_ms", options.timeout.to_millis()}});
  }

  sent_counter_->inc();
  ex->timeout_event = sim_.after(options.timeout, [this, ex] {
    if (!*ex->engine_alive) return;
    ++timeouts_;
    timeout_counter_->inc();
    if (obs::recorded(ex->qid)) {
      sim_.telemetry().query_tracer().finish(ex->qid, sim_.now(),
                                             obs::Reason::kTimeout);
    }
    ex->settle(core::Error::timeout("no NTP reply within timeout"));
  });

  // Packet loss in either direction is not observable by a real client;
  // the timeout event fires in that case (no on_drop handler needed —
  // the traced loss stage is recorded by the link walker itself).
  net::send_datagram(
      sim_, endpoint.up, ex->wire_bytes,
      [this, ex](core::TimePoint arrival) {
        if (!*ex->engine_alive) return;
        // Uplink one-way delay on the true timeline (simulator's-eye
        // view; a real client cannot separate the directions).
        last_owd_up_ms_ = (arrival - ex->send_true).to_millis();
        has_owd_up_ = true;
        owd_up_ms_->record(last_owd_up_ms_);
        auto reply = ex->server->handle(ex->request_bytes, arrival);
        if (!reply.ok()) {
          error_counter_->inc();
          if (obs::recorded(ex->qid)) {
            sim_.telemetry().query_tracer().finish(
                ex->qid, arrival, obs::Reason::kServerError);
          }
          ex->settle(reply.error());
          return;
        }
        const NtpPacket& reply_packet = reply.value().packet;
        ex->reply_bytes = reply_packet.to_bytes();
        if (obs::recorded(ex->qid)) {
          sim_.telemetry().query_tracer().stage(
              ex->qid, arrival, "server", obs::Reason::kOk,
              {{"stratum", static_cast<std::int64_t>(reply_packet.stratum)},
               {"processing_ms",
                (reply.value().departs - arrival).to_millis()}});
        }
        // The reply leaves after the server's processing delay.
        sim_.at(reply.value().departs, [this, ex] {
          if (!*ex->engine_alive) return;
          ex->departs = sim_.now();
          net::send_datagram(
              sim_, ex->down, ex->wire_bytes,
              [this, ex](core::TimePoint t4_true) {
                if (!*ex->engine_alive) return;
                last_owd_down_ms_ = (t4_true - ex->departs).to_millis();
                has_owd_down_ = true;
                owd_down_ms_->record(last_owd_down_ms_);
                auto parsed = NtpPacket::parse(ex->reply_bytes);
                if (!parsed.ok()) {
                  error_counter_->inc();
                  if (obs::recorded(ex->qid)) {
                    sim_.telemetry().query_tracer().finish(
                        ex->qid, t4_true, obs::Reason::kValidationError);
                  }
                  ex->settle(parsed.error());
                  return;
                }
                const NtpPacket& p = parsed.value();
                if (const core::Status s = validate_sntp_response(p, ex->t1);
                    !s.ok()) {
                  error_counter_->inc();
                  if (obs::recorded(ex->qid)) {
                    sim_.telemetry().query_tracer().finish(
                        ex->qid, t4_true, obs::Reason::kValidationError);
                  }
                  ex->settle(s.error());
                  return;
                }
                ++received_;
                ok_counter_->inc();
                const core::NtpTimestamp t4 = core::NtpTimestamp::from_time_point(
                    clock_.local_time(t4_true));
                const SntpExchange xchg{.t1 = ex->t1,
                                        .t2 = p.receive_ts,
                                        .t3 = p.transmit_ts,
                                        .t4 = t4};
                rtt_ms_->record(xchg.delay().to_millis());
                if (obs::recorded(ex->qid)) {
                  sim_.telemetry().query_tracer().finish(
                      ex->qid, t4_true, obs::Reason::kOk,
                      {{"offset_ms", xchg.offset().to_millis()},
                       {"rtt_ms", xchg.delay().to_millis()},
                       {"stratum", static_cast<std::int64_t>(p.stratum)}});
                }
                ex->settle(SntpSample{
                    .offset = xchg.offset(),
                    .delay = xchg.delay(),
                    .server_stratum = p.stratum,
                    .server_id = p.reference_id,
                    .completed_at = t4_true,
                });
              },
              /*on_drop=*/{}, ex->qid);
        });
      },
      /*on_drop=*/{}, ex->qid);
}

}  // namespace mntp::ntp
