#include "calibrate.h"

#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

namespace {

uint64_t Next(uint64_t* state) {
  // xorshift64*: fixed, so the kernel's input never changes.
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return x * 0x2545F4914F6CDD1DULL;
}

// Text of `bytes` bytes: words of 3-8 letters from a 600-word
// vocabulary between XML-ish delimiters.
std::string MakeText(size_t bytes) {
  uint64_t state = 0x9E3779B97F4A7C15ULL;
  std::vector<std::string> vocabulary;
  for (int w = 0; w < 600; ++w) {
    std::string word;
    const size_t len = 3 + Next(&state) % 6;
    for (size_t i = 0; i < len; ++i) {
      word.push_back(static_cast<char>('a' + Next(&state) % 26));
    }
    vocabulary.push_back(std::move(word));
  }
  static const char kDelimiters[] = " ;<>\"=/\n";
  std::string text;
  text.reserve(bytes + 16);
  while (text.size() < bytes) {
    text += vocabulary[Next(&state) % vocabulary.size()];
    text.push_back(kDelimiters[Next(&state) % (sizeof(kDelimiters) - 1)]);
  }
  return text;
}

// Buffers the kernel reuses, allocated once: the timed work allocates
// nothing, so a change to the program's allocator leaves it alone.
struct Buffers {
  std::string text = MakeText(1 << 20);
  std::vector<std::string_view> slots =
      std::vector<std::string_view>(4096);  // open addressing, 600 keys
  std::vector<uint32_t> counts = std::vector<uint32_t>(4096);
  std::vector<double> w, s, next;
  std::vector<uint32_t> cycle;
};

// Tokenises the text and counts each distinct token in a hash table.
uint64_t Tokenise(Buffers* b) {
  std::fill(b->slots.begin(), b->slots.end(), std::string_view());
  std::fill(b->counts.begin(), b->counts.end(), 0);
  const std::string_view text = b->text;
  const size_t mask = b->slots.size() - 1;
  uint64_t distinct = 0;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    const char c = i < text.size() ? text[i] : ' ';
    if (c >= 'a' && c <= 'z') continue;
    if (i > start) {
      const std::string_view token = text.substr(start, i - start);
      uint64_t h = 1469598103934665603ULL;  // FNV-1a
      for (char t : token) h = (h ^ static_cast<uint8_t>(t)) * 1099511628211ULL;
      size_t slot = h & mask;
      while (!b->slots[slot].empty() && b->slots[slot] != token) {
        slot = (slot + 1) & mask;
      }
      if (b->slots[slot].empty()) {
        b->slots[slot] = token;
        ++distinct;
      }
      ++b->counts[slot];
    }
    start = i + 1;
  }
  uint64_t sum = distinct * 1000003ULL;
  for (size_t slot = 0; slot <= mask; ++slot) {
    sum += b->slots[slot].size() * b->counts[slot];
  }
  return sum;
}

// A max-product fixpoint over an n x n matrix: each sweep sets every
// cell to the mean of its value and its best weighted neighbour. The
// column walk over `s` makes large n sensitive to cache and memory
// bandwidth, as the EMS matrices of the wide workloads are.
uint64_t Fixpoint(Buffers* b, size_t n, int sweeps) {
  uint64_t state = 0xD1B54A32D192ED03ULL;
  b->w.resize(n * n);
  b->s.resize(n * n);
  b->next.resize(n * n);
  for (double& x : b->w) x = static_cast<double>(Next(&state) % 1000) / 1000.0;
  for (double& x : b->s) x = static_cast<double>(Next(&state) % 1000) / 1000.0;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        double best = 0.0;
        for (size_t k = 0; k < n; ++k) {
          best = std::max(best, b->w[i * n + k] * b->s[k * n + j]);
        }
        b->next[i * n + j] = 0.5 * b->s[i * n + j] + 0.5 * best;
      }
    }
    b->s.swap(b->next);
  }
  double sum = 0.0;
  for (double x : b->s) sum += x;
  uint64_t bits = 0;
  std::memcpy(&bits, &sum, sizeof(bits));
  return bits;
}

// Walks a random cycle through `slots` indices `steps` times: one
// dependent load after another, as graph and hash-map code does.
uint64_t Chase(Buffers* b, size_t slots, size_t steps) {
  if (b->cycle.size() != slots) {
    uint64_t state = 0xBF58476D1CE4E5B9ULL;
    std::vector<uint32_t> order(slots);
    for (size_t i = 0; i < slots; ++i) order[i] = static_cast<uint32_t>(i);
    for (size_t i = slots - 1; i > 0; --i) {
      std::swap(order[i], order[Next(&state) % (i + 1)]);
    }
    b->cycle.assign(slots, 0);
    for (size_t i = 0; i < slots; ++i) {
      b->cycle[order[i]] = order[(i + 1) % slots];
    }
  }
  uint32_t at = 0;
  uint64_t sum = 0;
  for (size_t i = 0; i < steps; ++i) {
    at = b->cycle[at];
    sum += at;
  }
  return sum;
}

}  // namespace

uint64_t ReferenceKernel() {
  static Buffers* const buffers = [] {
    auto* b = new Buffers;
    b->w.reserve(280 * 280);
    b->s.reserve(280 * 280);
    b->next.reserve(280 * 280);
    return b;
  }();
  // Text, small dense, large dense and pointer-chasing work, each in a
  // share of the run that tracked the workloads' ops best on a shared
  // 4-vCPU host.
  return Tokenise(buffers) ^ Tokenise(buffers) ^ Fixpoint(buffers, 120, 5) ^
         Fixpoint(buffers, 280, 1) ^ Chase(buffers, 1 << 18, 1 << 20);
}

ReferenceClock::ReferenceClock(double share)
    : share_(share), checksum_(ReferenceKernel()) {
  since_.Reset();
}

void ReferenceClock::Tick() {
  if (!runs_.empty() && kernel_wall_ms_ >= share_ * NowMs()) return;
  const double start_ms = NowMs();
  CpuTimer cpu;
  const uint64_t checksum = ReferenceKernel();
  const double cpu_ms = cpu.ElapsedMillis();
  const double end_ms = NowMs();
  runs_.push_back({0.5 * (start_ms + end_ms), cpu_ms});
  kernel_wall_ms_ += end_ms - start_ms;
  if (checksum != checksum_) consistent_ = false;
}

double ReferenceClock::KernelMs() const {
  std::vector<double> cpu_ms;
  for (const Run& r : runs_) cpu_ms.push_back(r.cpu_ms);
  return Median(cpu_ms);
}

double ReferenceClock::KernelMsAt(double at_ms) const {
  std::vector<std::pair<double, double>> by_distance;  // (distance, cpu ms)
  for (const Run& r : runs_) {
    by_distance.emplace_back(std::abs(r.at_ms - at_ms), r.cpu_ms);
  }
  const size_t k = std::min(kNearest, by_distance.size());
  std::partial_sort(by_distance.begin(), by_distance.begin() + k,
                    by_distance.end());
  std::vector<double> nearest;
  for (size_t i = 0; i < k; ++i) nearest.push_back(by_distance[i].second);
  return Median(nearest);
}

double ReferenceClock::CostAt(double cpu_ms, double at_ms) const {
  const double kernel_ms = KernelMsAt(at_ms);
  return kernel_ms > 0.0 ? cpu_ms / kernel_ms : 0.0;
}

}  // namespace perfbench
