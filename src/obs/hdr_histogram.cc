#include "obs/hdr_histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mntp::obs {

namespace {

std::size_t octave_count(const HdrHistogramOptions& o) {
  // Enough octaves that max_magnitude falls inside (or just past) the
  // top one: ceil(log2(max / min)).
  const double ratio = o.max_magnitude / o.min_magnitude;
  const auto octaves = static_cast<std::size_t>(std::ceil(std::log2(ratio)));
  return std::max<std::size_t>(octaves, 1);
}

}  // namespace

HdrHistogram::HdrHistogram(HdrHistogramOptions options) : options_(options) {
  if (!(options_.min_magnitude > 0.0) ||
      !(options_.max_magnitude > options_.min_magnitude)) {
    throw std::invalid_argument(
        "HdrHistogram: need 0 < min_magnitude < max_magnitude");
  }
  if (options_.sub_bucket_bits < 1 || options_.sub_bucket_bits > 12) {
    throw std::invalid_argument("HdrHistogram: sub_bucket_bits out of [1,12]");
  }
  sub_buckets_ = std::size_t{1} << options_.sub_bucket_bits;
  octaves_ = octave_count(options_);
  positive_.assign(octaves_ * sub_buckets_, 0);
  negative_.assign(octaves_ * sub_buckets_, 0);
}

std::size_t HdrHistogram::bucket_index(double magnitude) const {
  // magnitude is in [min_magnitude, inf); clamp to the top bucket.
  const double x = magnitude / options_.min_magnitude;  // >= 1
  int exp = 0;
  const double mantissa = std::frexp(x, &exp);  // x = mantissa * 2^exp
  // x >= 1 so exp >= 1 and mantissa in [0.5, 1).
  const auto octave = static_cast<std::size_t>(exp - 1);
  if (octave >= octaves_) return octaves_ * sub_buckets_ - 1;
  const auto sub = std::min(
      static_cast<std::size_t>((mantissa * 2.0 - 1.0) *
                               static_cast<double>(sub_buckets_)),
      sub_buckets_ - 1);
  return octave * sub_buckets_ + sub;
}

double HdrHistogram::bucket_upper(std::size_t i) const {
  const std::size_t octave = i / sub_buckets_;
  const std::size_t sub = i % sub_buckets_;
  return options_.min_magnitude * std::ldexp(1.0, static_cast<int>(octave)) *
         (1.0 + static_cast<double>(sub + 1) / static_cast<double>(sub_buckets_));
}

double HdrHistogram::bucket_mid(std::size_t i) const {
  const std::size_t octave = i / sub_buckets_;
  const std::size_t sub = i % sub_buckets_;
  return options_.min_magnitude * std::ldexp(1.0, static_cast<int>(octave)) *
         (1.0 +
          (static_cast<double>(sub) + 0.5) / static_cast<double>(sub_buckets_));
}

void HdrHistogram::record(double v, std::uint64_t n) {
  if (n == 0) return;
  if (std::isnan(v)) {
    nan_count_ += n;
    return;
  }
  // +-inf clamps into the outermost bucket via the magnitude clamp below,
  // keeping the count exact; extrema track the (infinite) value itself.
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  count_ += n;
  const double magnitude = std::abs(v);
  if (magnitude < options_.min_magnitude) {
    zero_ += n;
  } else if (v > 0.0) {
    positive_[bucket_index(magnitude)] += n;
  } else {
    negative_[bucket_index(magnitude)] += n;
  }
}

void HdrHistogram::merge(const HdrHistogram& other) {
  if (!same_layout(other)) {
    throw std::invalid_argument(
        "HdrHistogram::merge: incompatible layouts (min/max magnitude or "
        "sub_bucket_bits differ)");
  }
  for (std::size_t i = 0; i < positive_.size(); ++i) {
    positive_[i] += other.positive_[i];
    negative_[i] += other.negative_[i];
  }
  zero_ += other.zero_;
  nan_count_ += other.nan_count_;
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  count_ += other.count_;
}

double HdrHistogram::min() const { return count_ > 0 ? min_ : 0.0; }
double HdrHistogram::max() const { return count_ > 0 ? max_ : 0.0; }

double HdrHistogram::sum() const {
  // Deterministic reconstruction: iterate buckets in one fixed order and
  // accumulate count * midpoint. Identical for any merge history because
  // the bucket counts themselves are.
  double total = 0.0;
  for (std::size_t i = 0; i < negative_.size(); ++i) {
    if (negative_[i] != 0) {
      total -= static_cast<double>(negative_[i]) * bucket_mid(i);
    }
  }
  for (std::size_t i = 0; i < positive_.size(); ++i) {
    if (positive_[i] != 0) {
      total += static_cast<double>(positive_[i]) * bucket_mid(i);
    }
  }
  return total;  // zero bucket contributes 0 by definition
}

double HdrHistogram::mean() const {
  return count_ > 0 ? sum() / static_cast<double>(count_) : 0.0;
}

double HdrHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank on the bucketed CDF: the target sample is the ceil(q*n)-th
  // smallest (1-based), walked from the most-negative bucket upward.
  const auto target = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  double result = 0.0;
  bool found = false;
  for (std::size_t i = negative_.size(); i-- > 0 && !found;) {
    if (negative_[i] == 0) continue;
    seen += negative_[i];
    if (seen >= target) {
      result = -bucket_mid(i);
      found = true;
    }
  }
  if (!found && zero_ > 0) {
    seen += zero_;
    if (seen >= target) {
      result = 0.0;
      found = true;
    }
  }
  if (!found) {
    for (std::size_t i = 0; i < positive_.size(); ++i) {
      if (positive_[i] == 0) continue;
      seen += positive_[i];
      if (seen >= target) {
        result = bucket_mid(i);
        break;
      }
    }
  }
  // Bucket midpoints can poke past the true extrema; clamp to the exact
  // recorded range so quantile(0)/quantile(1) are honest.
  return std::clamp(result, min_, max_);
}

std::vector<std::pair<double, std::uint64_t>> HdrHistogram::buckets() const {
  std::vector<std::pair<double, std::uint64_t>> out;
  for (std::size_t i = negative_.size(); i-- > 0;) {
    if (negative_[i] != 0) {
      // Upper (least-negative) bound of a mirrored bucket is the negated
      // LOWER magnitude bound, i.e. the previous bucket's upper bound (or
      // -min_magnitude for the innermost one).
      const double upper =
          i == 0 ? -options_.min_magnitude : -bucket_upper(i - 1);
      out.emplace_back(upper, negative_[i]);
    }
  }
  if (zero_ != 0) out.emplace_back(options_.min_magnitude, zero_);
  for (std::size_t i = 0; i < positive_.size(); ++i) {
    if (positive_[i] != 0) out.emplace_back(bucket_upper(i), positive_[i]);
  }
  return out;
}

bool HdrHistogram::operator==(const HdrHistogram& other) const {
  if (!same_layout(other)) return false;
  if (count_ != other.count_ || zero_ != other.zero_ ||
      nan_count_ != other.nan_count_) {
    return false;
  }
  if (count_ > 0 && (min_ != other.min_ || max_ != other.max_)) return false;
  return positive_ == other.positive_ && negative_ == other.negative_;
}

ShardedHdrHistogram::ShardedHdrHistogram(HdrHistogramOptions options,
                                         const std::atomic<bool>* enabled)
    : options_(options), enabled_(enabled) {
  // Validate eagerly so a bad layout fails at registration, not first use.
  (void)HdrHistogram(options_);
}

HdrHistogram* ShardedHdrHistogram::shard_for_this_thread() {
  return &shards_.local([this] { return HdrHistogram(options_); });
}

void ShardedHdrHistogram::record(double v) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  shard_for_this_thread()->record(v);
}

void ShardedHdrHistogram::merge(const HdrHistogram& h) {
  if (!enabled_->load(std::memory_order_relaxed)) return;
  shard_for_this_thread()->merge(h);
}

HdrHistogram ShardedHdrHistogram::merged() const {
  HdrHistogram out(options_);
  shards_.for_each([&out](const HdrHistogram& shard) { out.merge(shard); });
  return out;
}

}  // namespace mntp::obs
