#include "mntp/drift_filter.h"

#include <algorithm>
#include <cmath>

#include "obs/query_trace.h"

namespace mntp::protocol {

namespace {

/// Trace this offer's verdict against the ambient query, if any. The
/// threshold is reported in the offset domain (sqrt of the squared-
/// residual gate) so it reads in the same unit as the residual.
void trace_decision(core::TimePoint t, bool accepted, bool bootstrap,
                    double residual_s, double gate_sq) {
  auto q = mntp::obs::ambient_query();
  if (!q.tracer) return;
  q.tracer->stage(
      q.id, t, "drift_filter",
      accepted ? mntp::obs::Reason::kOk : mntp::obs::Reason::kTrendOutlier,
      {{"residual_ms", residual_s * 1e3},
       {"threshold_ms", gate_sq > 0.0 ? std::sqrt(gate_sq) * 1e3 : 0.0},
       {"bootstrap", bootstrap}});
}

}  // namespace

DriftFilter::DriftFilter(DriftFilterConfig config) : config_(config) {
  if (config_.bootstrap_samples < 2) config_.bootstrap_samples = 2;
}

void DriftFilter::reset() {
  // Drop the buffer too: the next cycle grows its own.
  samples_ = {};
  acc_.reset();
  fit_.reset();
  pruned_t_s_.clear();
  rejected_ = 0;
  consecutive_rejections_ = 0;
  bootstrap_done_ = false;
}

void DriftFilter::rebuild_fit() {
  acc_.reset();
  for (const Sample& s : samples_) acc_.add(s.t_s, s.offset_s);
  fit_ = acc_.fit();
}

double DriftFilter::window_gate_sq() const {
  // The variance pass recomputes each residual rather than caching it,
  // so the offer path needs no scratch buffer and never allocates.
  const std::size_t begin =
      config_.stats_window > 0 && samples_.size() > config_.stats_window
          ? samples_.size() - config_.stats_window
          : 0;
  const auto window_n = static_cast<double>(samples_.size() - begin);
  const auto sq_residual = [this](const Sample& s) {
    const double r = s.offset_s - fit_->predict(s.t_s);
    return r * r;
  };
  double mean_sq = 0.0;
  for (std::size_t i = begin; i < samples_.size(); ++i) {
    mean_sq += sq_residual(samples_[i]);
  }
  mean_sq /= window_n;
  double var_sq = 0.0;
  for (std::size_t i = begin; i < samples_.size(); ++i) {
    const double dev = sq_residual(samples_[i]) - mean_sq;
    var_sq += dev * dev;
  }
  var_sq /= window_n;
  return mean_sq + std::sqrt(var_sq);
}

FilterDecision DriftFilter::offer(core::TimePoint t, double offset_s) {
  FilterDecision d;
  const double ts = time_axis(t);

  if (bootstrapping()) {
    d.accepted = true;
    d.bootstrap = true;
    if (fit_) {
      d.has_prediction = true;
      d.predicted_s = fit_->predict(ts);
      d.residual_s = offset_s - d.predicted_s;
    }
    samples_.push_back({ts, offset_s});
    acc_.add(ts, offset_s);
    fit_ = acc_.fit();
    if (samples_.size() >= config_.bootstrap_samples) {
      bootstrap_done_ = true;
      // Bootstrap complete: drop the outliers that slipped in unguarded
      // before they poison the trend the regular gate judges against.
      prune_and_refit();
    }
    trace_decision(t, /*accepted=*/true, /*bootstrap=*/true, d.residual_s,
                   0.0);
    return d;
  }

  // Squared error of the new sample against the extrapolated trend,
  // judged against the distribution of the accepted samples' squared
  // residuals (mean + 1 sd gate, per the paper).
  if (!fit_) rebuild_fit();
  if (fit_) {
    d.has_prediction = true;
    d.predicted_s = fit_->predict(ts);
    d.residual_s = offset_s - d.predicted_s;
    const double err_sq = d.residual_s * d.residual_s;
    // The gate is max(window stats, band²) >= band², so a sample inside
    // the band is accepted whatever the window holds: the window pass
    // runs only when it can change the verdict, or when a traced query
    // wants the threshold it was judged against (a sampled-out round
    // installs no ambient tracer, so it skips the pass like an untraced
    // run).
    const double band_sq =
        config_.min_accept_band_s * config_.min_accept_band_s;
    const bool traced = mntp::obs::ambient_query().tracer != nullptr;
    const double gate = err_sq <= band_sq && !traced
                            ? band_sq
                            : std::max(window_gate_sq(), band_sq);
    if (err_sq > gate) {
      const bool escape =
          config_.max_consecutive_rejections > 0 &&
          consecutive_rejections_ >= config_.max_consecutive_rejections;
      if (!escape) {
        ++rejected_;
        ++consecutive_rejections_;
        d.accepted = false;
        trace_decision(t, /*accepted=*/false, /*bootstrap=*/false,
                       d.residual_s, gate);
        return d;
      }
      // Rejection-starvation escape: the gate has rejected every sample
      // for a while, which means the trend itself is the likelier
      // culprit. Admit this one so the fit and the gate statistics can
      // re-converge on reality.
      d.forced = true;
    }
    consecutive_rejections_ = 0;
    trace_decision(t, /*accepted=*/true, /*bootstrap=*/false, d.residual_s,
                   gate);
  }

  d.accepted = true;
  samples_.push_back({ts, offset_s});
  if (config_.max_samples > 0 && samples_.size() > config_.max_samples) {
    // Window eviction changes the first sample: rebuild so the
    // accumulator re-centers, exactly as a from-scratch refit would.
    samples_.erase(samples_.begin());
    if (config_.reestimate_each_sample) rebuild_fit();
  } else if (config_.reestimate_each_sample) {
    // Append-only: extend the running sums in O(1). Identical to the
    // old refit-over-everything because the add sequence (and thus
    // every intermediate rounding) is the same.
    acc_.add(ts, offset_s);
    fit_ = acc_.fit();
  }
  return d;
}

void DriftFilter::prune_and_refit() {
  if (samples_.size() < 3) return;
  if (!fit_) rebuild_fit();
  if (!fit_) return;
  double mean_sq = 0.0;
  scratch_sq_.clear();
  for (const Sample& s : samples_) {
    const double r = s.offset_s - fit_->predict(s.t_s);
    scratch_sq_.push_back(r * r);
    mean_sq += r * r;
  }
  mean_sq /= static_cast<double>(samples_.size());
  double var = 0.0;
  for (double s : scratch_sq_) var += (s - mean_sq) * (s - mean_sq);
  var /= static_cast<double>(samples_.size());
  const double gate = mean_sq + std::sqrt(var);

  std::size_t keep_n = 0;
  for (const double sq : scratch_sq_) {
    if (sq <= gate) ++keep_n;
  }
  if (keep_n < 2) {
    scratch_sq_.clear();
    return;
  }
  // Compact the survivors in place (order preserved), then rebuild the
  // re-centered fit over them.
  std::size_t out = 0;
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    if (scratch_sq_[i] <= gate) {
      samples_[out++] = samples_[i];
    } else {
      pruned_t_s_.push_back(samples_[i].t_s);
    }
  }
  samples_.resize(keep_n);
  scratch_sq_.clear();
  rebuild_fit();
}

std::optional<double> DriftFilter::drift_s_per_s() const {
  if (!fit_) return std::nullopt;
  return fit_->slope;
}

std::optional<double> DriftFilter::predict_s(core::TimePoint t) const {
  if (!fit_) return std::nullopt;
  return fit_->predict(time_axis(t));
}

}  // namespace mntp::protocol
