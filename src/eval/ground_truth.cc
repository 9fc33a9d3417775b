#include "eval/ground_truth.h"

#include <algorithm>
#include <map>

namespace ems {

void GroundTruth::Add(const std::string& left, const std::string& right) {
  entries_.push_back(TruthEntry{{left}, {right}});
}

void GroundTruth::AddComplex(std::vector<std::string> left,
                             std::vector<std::string> right) {
  entries_.push_back(TruthEntry{std::move(left), std::move(right)});
}

void GroundTruth::RenameRight(
    const std::map<std::string, std::string>& renames) {
  for (TruthEntry& e : entries_) {
    for (std::string& name : e.right) {
      auto it = renames.find(name);
      if (it != renames.end()) name = it->second;
    }
  }
}

void GroundTruth::RestrictToVocabularies(
    const std::set<std::string>& left_vocab,
    const std::set<std::string>& right_vocab) {
  std::vector<TruthEntry> kept;
  for (TruthEntry& e : entries_) {
    std::vector<std::string> left, right;
    for (const std::string& n : e.left) {
      if (left_vocab.count(n)) left.push_back(n);
    }
    for (const std::string& n : e.right) {
      if (right_vocab.count(n)) right.push_back(n);
    }
    if (!left.empty() && !right.empty()) {
      kept.push_back(TruthEntry{std::move(left), std::move(right)});
    }
  }
  entries_ = std::move(kept);
}

std::set<std::pair<std::string, std::string>> GroundTruth::Links() const {
  std::set<std::pair<std::string, std::string>> links;
  for (const TruthEntry& e : entries_) {
    for (const std::string& l : e.left) {
      for (const std::string& r : e.right) links.emplace(l, r);
    }
  }
  return links;
}

std::set<std::pair<std::string, std::string>> CorrespondenceLinks(
    const std::vector<Correspondence>& found) {
  std::set<std::pair<std::string, std::string>> links;
  for (const Correspondence& c : found) {
    for (const std::string& l : c.events1) {
      for (const std::string& r : c.events2) links.emplace(l, r);
    }
  }
  return links;
}

}  // namespace ems
