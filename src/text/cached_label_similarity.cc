#include "text/cached_label_similarity.h"

#include <mutex>
#include <utility>

#include "util/string_util.h"

namespace ems {

namespace {

// Length-prefixed ordered pair key: unambiguous for any label contents.
std::string PairKey(std::string_view a, std::string_view b) {
  std::string key = std::to_string(a.size());
  key.push_back(':');
  key.append(a);
  key.append(b);
  return key;
}

}  // namespace

CachedLabelSimilarity::CachedLabelSimilarity(const LabelSimilarity& base)
    : base_(base) {
  if (const auto* qgram = dynamic_cast<const QGramCosineSimilarity*>(&base)) {
    qgram_q_ = qgram->q();
  }
}

const QGramProfile& CachedLabelSimilarity::ProfileLocked(
    std::string_view label) const {
  auto it = profiles_.find(std::string(label));
  if (it != profiles_.end()) return it->second;
  return profiles_
      .emplace(std::string(label), QGramProfile(ToLower(label), qgram_q_))
      .first->second;
}

double CachedLabelSimilarity::Similarity(std::string_view a,
                                         std::string_view b) const {
  std::string key = PairKey(a, b);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = scores_.find(key);
    if (it != scores_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);

  double score;
  if (qgram_q_ >= 1) {
    // Same construction and call orientation as
    // QGramCosineSimilarity::Similarity, so the result is bit-identical.
    const QGramProfile* pa;
    const QGramProfile* pb;
    {
      std::unique_lock<std::shared_mutex> lock(mu_);
      pa = &ProfileLocked(a);
      pb = &ProfileLocked(b);
    }
    score = pa->Cosine(*pb);
  } else {
    score = base_.Similarity(a, b);
  }

  std::unique_lock<std::shared_mutex> lock(mu_);
  scores_.emplace(std::move(key), score);
  return score;
}

}  // namespace ems
