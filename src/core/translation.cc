#include "core/translation.h"

#include <algorithm>
#include <set>

#include "log/log_filter.h"
#include "log/log_stats.h"
#include "util/string_util.h"

namespace ems {

std::map<std::string, std::string> TranslationTable(
    const std::vector<Correspondence>& correspondences) {
  std::map<std::string, std::string> table;
  for (const Correspondence& c : correspondences) {
    std::vector<std::string> sorted_right = c.events2;
    std::sort(sorted_right.begin(), sorted_right.end());
    std::string target = Join(sorted_right, "+");
    for (const std::string& left : c.events1) {
      table[left] = target;
    }
  }
  return table;
}

EventLog TranslateLog(const EventLog& log,
                      const std::map<std::string, std::string>& table) {
  // Precompute per-event: the mapped name and whether it came from a
  // many-to-one mapping (those collapse when consecutive).
  std::map<std::string, size_t> fanin;  // target -> #sources
  for (const auto& [src, dst] : table) {
    (void)src;
    ++fanin[dst];
  }
  EventLog out;
  for (const Trace& t : log.traces()) {
    std::vector<std::string> names;
    names.reserve(t.size());
    std::string last_collapsed;
    for (EventId e : t) {
      const std::string& original = log.EventName(e);
      auto it = table.find(original);
      std::string mapped = it == table.end() ? original : it->second;
      bool collapsible = it != table.end() && fanin[mapped] > 1;
      if (collapsible && mapped == last_collapsed) continue;
      names.push_back(mapped);
      last_collapsed = collapsible ? mapped : std::string();
    }
    out.AddTrace(names);
  }
  return out;
}

namespace {

double Jaccard(const std::set<std::string>& a, const std::set<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t inter = 0;
  for (const auto& x : a) inter += b.count(x);
  size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

// Normalized edit similarity between two activity sequences.
double SequenceSimilarity(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  const size_t la = a.size();
  const size_t lb = b.size();
  if (la == 0 && lb == 0) return 1.0;
  std::vector<size_t> row(lb + 1);
  for (size_t j = 0; j <= lb; ++j) row[j] = j;
  for (size_t i = 1; i <= la; ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= lb; ++j) {
      size_t up = row[j];
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, diag + cost});
      diag = up;
    }
  }
  return 1.0 - static_cast<double>(row[lb]) /
                   static_cast<double>(std::max(la, lb));
}

// Frequency-weighted mean of each of `from`'s variants' best similarity
// against `to`'s variants.
double Coverage(const std::vector<TraceVariant>& from,
                const std::vector<TraceVariant>& to) {
  if (from.empty()) return 1.0;
  double total_weight = 0.0;
  double total = 0.0;
  for (const TraceVariant& v : from) {
    double best = 0.0;
    for (const TraceVariant& w : to) {
      best = std::max(best, SequenceSimilarity(v.activities, w.activities));
      if (best >= 1.0) break;
    }
    total += best * static_cast<double>(v.count);
    total_weight += static_cast<double>(v.count);
  }
  return total_weight == 0.0 ? 1.0 : total / total_weight;
}

std::set<std::string> DirectFollows(const EventLog& log) {
  LogStats stats(log);
  std::set<std::string> out;
  for (const auto& [pair, count] : stats.follows_trace_counts()) {
    (void)count;
    out.insert(log.EventName(pair.first) + "\x01" +
               log.EventName(pair.second));
  }
  return out;
}

}  // namespace

ConformanceReport CrossLogConformance(const EventLog& log1,
                                      const EventLog& log2) {
  ConformanceReport report;
  std::set<std::string> vocab1(log1.event_names().begin(),
                               log1.event_names().end());
  std::set<std::string> vocab2(log2.event_names().begin(),
                               log2.event_names().end());
  report.vocabulary_overlap = Jaccard(vocab1, vocab2);
  report.relation_overlap = Jaccard(DirectFollows(log1), DirectFollows(log2));

  std::vector<TraceVariant> variants1 = TraceVariants(log1);
  std::vector<TraceVariant> variants2 = TraceVariants(log2);
  report.trace_coverage_1in2 = Coverage(variants1, variants2);
  report.trace_coverage_2in1 = Coverage(variants2, variants1);
  double sum = report.trace_coverage_1in2 + report.trace_coverage_2in1;
  report.f_conformance =
      sum <= 0.0 ? 0.0
                 : 2.0 * report.trace_coverage_1in2 *
                       report.trace_coverage_2in1 / sum;
  return report;
}

}  // namespace ems
