// Memoizing decorator over any LabelSimilarity. The composite search
// evaluates S^L for the same label pairs at every greedy step (only the
// merged node's label is new); this cache interns per-label q-gram
// profiles and memoizes pairwise scores so repeated pairs cost one hash
// lookup. Scores are bit-identical to the wrapped measure: for
// QGramCosineSimilarity the cached profile is built by the exact same
// construction (ToLower + QGramProfile) and combined by the same
// Cosine call; every other measure is simply invoked once per distinct
// ordered pair and the result replayed.
#pragma once

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "text/label_similarity.h"
#include "text/qgram.h"

namespace ems {

/// \brief Thread-safe memoizing wrapper around a label similarity.
///
/// The wrapped measure is borrowed and must outlive the cache. Safe for
/// concurrent Similarity calls (shared_mutex around the memo tables);
/// concurrent first computations of the same pair may both count as
/// misses, but always store the same value.
class CachedLabelSimilarity final : public LabelSimilarity {
 public:
  explicit CachedLabelSimilarity(const LabelSimilarity& base);

  double Similarity(std::string_view a, std::string_view b) const override;
  std::string Name() const override { return "cached(" + base_.Name() + ")"; }

  /// Lookups answered from the score memo.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// Lookups that computed a fresh score.
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  // Profiles are immutable after construction and unordered_map never
  // invalidates element addresses on insert, so pointers handed out under
  // the lock stay valid for the cosine computed after releasing it.
  const QGramProfile& ProfileLocked(std::string_view label) const;

  const LabelSimilarity& base_;
  int qgram_q_ = -1;  // >= 1 when base is a QGramCosineSimilarity

  mutable std::shared_mutex mu_;
  mutable std::unordered_map<std::string, double> scores_;
  mutable std::unordered_map<std::string, QGramProfile> profiles_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
};

}  // namespace ems
