#include "ledger.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

#include "store/hashing.h"
#include "util/json_parser.h"
#include "util/json_writer.h"

namespace perfbench {

using ems::Result;
using ems::Status;

// ---------------------------------------------------------------------------
// Order statistics

namespace {

size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double MedianBeyond(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t first = std::min(NearestRank(samples.size(), p),
                                samples.size() - 1);
  return Median(std::vector<double>(samples.begin() + first, samples.end()));
}

double MeanOfMedians(const std::vector<std::vector<double>>& groups) {
  double sum = 0.0;
  size_t n = 0;
  for (const std::vector<double>& group : groups) {
    if (group.empty()) continue;
    sum += Median(group);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

double TailPercentileFor(size_t n, size_t min_beyond) {
  double best = 50.0;
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (SamplesBeyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

// ---------------------------------------------------------------------------
// CPU time

double CpuTimer::NowMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// ---------------------------------------------------------------------------
// Spans

double SelfTimeMs(const std::vector<Span>& spans, size_t index) {
  const Span& parent = spans[index];
  std::vector<std::pair<double, double>> covered;
  for (const Span& s : spans) {
    if (s.parent != static_cast<int>(index)) continue;
    const double lo = std::max(s.start_ms, parent.start_ms);
    const double hi = std::min(s.end_ms, parent.end_ms);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double union_ms = 0.0;
  double cursor = parent.start_ms;
  for (const auto& [lo, hi] : covered) {
    const double from = std::max(lo, cursor);
    if (hi > from) {
      union_ms += hi - from;
      cursor = hi;
    }
  }
  return (parent.end_ms - parent.start_ms) - union_ms;
}

namespace {

double SteadyNowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Innermost open Scope of this thread (one ledger per process in
// practice; the owner check keeps two ledgers from nesting into each
// other).
thread_local const SpanLedger* tl_open_ledger = nullptr;
thread_local int tl_open_index = -1;

}  // namespace

SpanLedger::SpanLedger() : epoch_ms_(SteadyNowMs()) {}

double SpanLedger::NowMs() const { return SteadyNowMs() - epoch_ms_; }

int SpanLedger::Add(std::string name, double start_ms, double end_ms,
                    int parent, uint64_t op) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), start_ms, end_ms, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

int SpanLedger::Open(std::string name, int parent, uint64_t op) {
  const double now = NowMs();
  return Add(std::move(name), now, now, parent, op);
}

void SpanLedger::Close(int index) {
  const double now = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ms = now;
}

SpanLedger::Scope::Scope(SpanLedger* ledger, std::string name, uint64_t op)
    : ledger_(ledger) {
  saved_open_ = tl_open_ledger == ledger ? tl_open_index : -1;
  index_ = ledger_->Open(std::move(name), saved_open_, op);
  tl_open_ledger = ledger;
  tl_open_index = index_;
}

void SpanLedger::Scope::End() {
  if (!open_) return;
  open_ = false;
  ledger_->Close(index_);
  tl_open_index = saved_open_;
}

void SpanLedger::Discard(uint64_t op) {
  std::lock_guard<std::mutex> lock(mu_);
  discarded_ops_.push_back(op);
}

std::map<uint64_t, double> SpanLedger::SelfTimeByOp(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    if (std::find(discarded_ops_.begin(), discarded_ops_.end(), s.op) !=
        discarded_ops_.end()) {
      continue;
    }
    out[s.op] += SelfTimeMs(spans_, i);
  }
  return out;
}

std::map<uint64_t, double> SpanLedger::DurationByOp(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, double> out;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    if (std::find(discarded_ops_.begin(), discarded_ops_.end(), s.op) !=
        discarded_ops_.end()) {
      continue;
    }
    out[s.op] += s.end_ms - s.start_ms;
  }
  return out;
}

std::vector<Span> SpanLedger::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Status SpanLedger::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  ems::JsonWriter w;
  w.BeginObject();
  w.Key("spans");
  w.BeginArray();
  for (const Span& s : spans_) {
    w.BeginObject();
    w.Key("name");
    w.String(s.name);
    w.Key("start_ms");
    w.Number(s.start_ms);
    w.Key("end_ms");
    w.Number(s.end_ms);
    w.Key("parent");
    w.Int(s.parent);
    w.Key("op");
    w.Int(static_cast<long long>(s.op));
    w.Key("counted");
    w.Bool(std::find(discarded_ops_.begin(), discarded_ops_.end(), s.op) ==
           discarded_ops_.end());
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::ofstream out(path);
  out << w.str() << '\n';
  return out ? Status::OK() : Status::IOError("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Normalization

namespace {

// End (exclusive) of the JSON string starting at `pos` (a '"').
size_t SkipString(std::string_view s, size_t pos) {
  for (size_t i = pos + 1; i < s.size(); ++i) {
    if (s[i] == '\\') {
      ++i;
    } else if (s[i] == '"') {
      return i + 1;
    }
  }
  return std::string_view::npos;
}

// End (exclusive) of the JSON value starting at `pos`.
size_t SkipValue(std::string_view s, size_t pos) {
  if (pos >= s.size()) return std::string_view::npos;
  if (s[pos] == '"') return SkipString(s, pos);
  if (s[pos] == '{' || s[pos] == '[') {
    int depth = 0;
    for (size_t i = pos; i < s.size(); ++i) {
      const char c = s[i];
      if (c == '"') {
        i = SkipString(s, i);
        if (i == std::string_view::npos) return i;
        --i;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (--depth == 0) return i + 1;
      }
    }
    return std::string_view::npos;
  }
  size_t i = pos;
  while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']' &&
         s[i] != ' ' && s[i] != '\n') {
    ++i;
  }
  return i == pos ? std::string_view::npos : i;
}

size_t SkipSpace(std::string_view s, size_t pos) {
  while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\n' ||
                            s[pos] == '\t' || s[pos] == '\r')) {
    ++pos;
  }
  return pos;
}

}  // namespace

Result<std::string> DropTopLevelKeys(std::string_view json,
                                     const std::vector<std::string>& drop) {
  const Status malformed =
      Status::InvalidArgument("not a JSON object: " +
                              std::string(json.substr(0, 80)));
  size_t pos = SkipSpace(json, 0);
  if (pos >= json.size() || json[pos] != '{') return malformed;
  std::string out = "{";
  bool first = true;
  pos = SkipSpace(json, pos + 1);
  if (pos < json.size() && json[pos] == '}') return std::string("{}");
  while (true) {
    if (pos >= json.size() || json[pos] != '"') return malformed;
    const size_t key_end = SkipString(json, pos);
    if (key_end == std::string_view::npos) return malformed;
    const std::string_view key = json.substr(pos + 1, key_end - pos - 2);
    size_t colon = SkipSpace(json, key_end);
    if (colon >= json.size() || json[colon] != ':') return malformed;
    const size_t value_pos = SkipSpace(json, colon + 1);
    const size_t value_end = SkipValue(json, value_pos);
    if (value_end == std::string_view::npos) return malformed;
    if (std::find(drop.begin(), drop.end(), key) == drop.end()) {
      if (!first) out += ',';
      first = false;
      out.append(json.substr(pos, value_end - pos));
    }
    pos = SkipSpace(json, value_end);
    if (pos >= json.size()) return malformed;
    if (json[pos] == '}') break;
    if (json[pos] != ',') return malformed;
    pos = SkipSpace(json, pos + 1);
  }
  out += '}';
  return out;
}

Result<uint64_t> NormalizedDigest(std::string_view json) {
  EMS_ASSIGN_OR_RETURN(std::string normalized,
                       DropTopLevelKeys(json, {"id", "millis"}));
  return ems::store::Hash64(normalized);
}

// ---------------------------------------------------------------------------
// Sampling

double SeededRng::Uniform() {
  return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

double SeededRng::Exponential(double rate) {
  return -std::log1p(-Uniform()) / rate;
}

size_t SeededRng::Index(size_t n) {
  return std::min(n - 1,
                  static_cast<size_t>(Uniform() * static_cast<double>(n)));
}

JobSampler::JobSampler(uint64_t seed, int num_pairs, double zipf_s,
                       double prob_share, double append_share)
    : rng_(seed), prob_share_(prob_share), append_share_(append_share) {
  double total = 0.0;
  for (int r = 0; r < num_pairs; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
    cumulative_.push_back(total);
  }
  for (double& c : cumulative_) c /= total;
}

JobDraw JobSampler::Next() {
  JobDraw draw;
  const double kind = rng_.Uniform();
  if (kind < append_share_) {
    draw.kind = JobDraw::Kind::kAppend;
    return draw;
  }
  draw.kind = kind < append_share_ + prob_share_ ? JobDraw::Kind::kProb
                                                 : JobDraw::Kind::kPlain;
  const double u = rng_.Uniform();
  draw.pair = static_cast<int>(
      std::upper_bound(cumulative_.begin(), cumulative_.end(), u) -
      cumulative_.begin());
  draw.pair = std::min(draw.pair, static_cast<int>(cumulative_.size()) - 1);
  return draw;
}

// ---------------------------------------------------------------------------
// Coverage

Result<std::vector<std::pair<std::string, std::string>>> ListedMetrics(
    const std::string& benchmark_json, const std::string& section) {
  EMS_ASSIGN_OR_RETURN(ems::JsonValue doc, ems::ParseJson(benchmark_json));
  const ems::JsonValue* list = doc.Find(section);
  if (list == nullptr || !list->is_array()) {
    return Status::InvalidArgument("BENCHMARK.json has no '" + section +
                                   "' list");
  }
  std::vector<std::pair<std::string, std::string>> out;
  for (const ems::JsonValue& m : list->array_items()) {
    out.emplace_back(m.GetString("name", ""), m.GetString("unit", ""));
  }
  return out;
}

Status CheckCoverage(
    const std::vector<std::pair<std::string, std::string>>& listed,
    const MetricMap& emitted) {
  for (const auto& [name, unit] : listed) {
    auto it = emitted.find(name);
    if (it == emitted.end()) {
      return Status::NotFound("metric '" + name + "' not emitted");
    }
    if (it->second.unit != unit) {
      return Status::InvalidArgument("metric '" + name + "' has unit '" +
                                     it->second.unit + "', listed '" + unit +
                                     "'");
    }
    if (!std::isfinite(it->second.value)) {
      return Status::InvalidArgument("metric '" + name + "' is not finite");
    }
  }
  for (const auto& [name, metric] : emitted) {
    const bool is_listed =
        std::any_of(listed.begin(), listed.end(),
                    [&](const auto& m) { return m.first == name; });
    if (!is_listed) {
      return Status::InvalidArgument("metric '" + name +
                                     "' is not listed in BENCHMARK.json");
    }
  }
  return Status::OK();
}

}  // namespace perfbench
