#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/json_writer.h"
#include "util/status.h"

namespace ems {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  EMS_DCHECK(!bounds_.empty());
  EMS_DCHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  counts_raw_ =
      std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  counts_ = counts_raw_.get();
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double v) {
  size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double HistogramQuantile(const Histogram& hist, double q) {
  std::vector<uint64_t> counts(hist.bounds().size() + 1);
  for (size_t i = 0; i <= hist.bounds().size(); ++i) {
    counts[i] = hist.bucket_count(i);
  }
  return QuantileFromBucketCounts(hist.bounds(), counts, q);
}

bool GaugeValueIsIntegral(double v) {
  // 2^53 bounds exact double integers; beyond it "integral" is a lie.
  return std::isfinite(v) && std::nearbyint(v) == v &&
         std::abs(v) <= 9007199254740992.0;
}

std::string ShardMetricName(std::string_view prefix, int shard,
                            std::string_view name) {
  std::string out(prefix);
  out += '.';
  out += std::to_string(shard);
  out += '.';
  out += name;
  return out;
}

const std::vector<double>& DefaultHistogramBounds() {
  static const std::vector<double> kBounds = {1,   2,   5,    10,   20,  50,
                                              100, 200, 500,  1000, 2000,
                                              5000};
  return kBounds;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(bounds))
             .first;
  }
  return it->second.get();
}

QuantileHistogram* MetricsRegistry::GetQuantileHistogram(
    std::string_view name, const QuantileHistogramOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = quantile_histograms_.find(name);
  if (it == quantile_histograms_.end()) {
    it = quantile_histograms_
             .emplace(std::string(name),
                      std::make_unique<QuantileHistogram>(options))
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::ForEachCounter(
    const std::function<void(const std::string&, const Counter&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) fn(name, *counter);
}

void MetricsRegistry::ForEachGauge(
    const std::function<void(const std::string&, const Gauge&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, gauge] : gauges_) fn(name, *gauge);
}

void MetricsRegistry::ForEachHistogram(
    const std::function<void(const std::string&, const Histogram&)>& fn)
    const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, hist] : histograms_) fn(name, *hist);
}

void MetricsRegistry::ForEachQuantileHistogram(
    const std::function<void(const std::string&, const QuantileHistogram&)>&
        fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, hist] : quantile_histograms_) fn(name, *hist);
}

uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

void MetricsRegistry::WriteJson(JsonWriter* w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w->BeginObject();
  w->Key("counters");
  w->BeginObject();
  for (const auto& [name, counter] : counters_) {
    w->Key(name);
    w->Int(static_cast<long long>(counter->value()));
  }
  w->EndObject();
  w->Key("gauges");
  w->BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    w->Key(name);
    const double v = gauge->value();
    // Integer-valued gauges (queue depth, cache bytes) must read back as
    // integers, never as scientific-notation doubles.
    if (GaugeValueIsIntegral(v)) {
      w->Int(static_cast<long long>(v));
    } else {
      w->Number(v);
    }
  }
  w->EndObject();
  w->Key("histograms");
  w->BeginObject();
  for (const auto& [name, hist] : histograms_) {
    w->Key(name);
    w->BeginObject();
    w->Key("count");
    w->Int(static_cast<long long>(hist->count()));
    w->Key("sum");
    w->Number(hist->sum());
    w->Key("bounds");
    w->BeginArray();
    for (double b : hist->bounds()) w->Number(b);
    w->EndArray();
    w->Key("buckets");
    w->BeginArray();
    for (size_t i = 0; i <= hist->bounds().size(); ++i) {
      w->Int(static_cast<long long>(hist->bucket_count(i)));
    }
    w->EndArray();
    w->EndObject();
  }
  w->EndObject();
  w->Key("quantile_histograms");
  w->BeginObject();
  for (const auto& [name, hist] : quantile_histograms_) {
    w->Key(name);
    w->BeginObject();
    w->Key("count");
    w->Int(static_cast<long long>(hist->count()));
    w->Key("sum");
    w->Number(hist->sum());
    w->Key("min");
    w->Number(hist->min_value());
    w->Key("max");
    w->Number(hist->max_value());
    w->Key("p50");
    w->Number(hist->Quantile(0.50));
    w->Key("p90");
    w->Number(hist->Quantile(0.90));
    w->Key("p99");
    w->Number(hist->Quantile(0.99));
    w->EndObject();
  }
  w->EndObject();
  w->EndObject();
}

std::string MetricsRegistry::ToJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.str();
}

}  // namespace ems
