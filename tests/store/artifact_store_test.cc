// ArtifactStore: content-addressed hit/miss behavior, atomic writes,
// graceful fallback on corruption and version skew (a bad cache file
// must never surface as an error — only as a re-derive), byte-budget
// LRU eviction, store.* metrics, and thread safety of concurrent
// loads/stores. Also covers LoadEventLogThroughStore, the load-through
// path the serve layer and CLI tools use.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "log/event_log.h"
#include "obs/context.h"
#include "serve/log_cache.h"
#include "store/artifact_store.h"
#include "store/hashing.h"
#include "store/snapshot.h"

namespace ems {
namespace store {
namespace {

namespace fs = std::filesystem;

std::string TempDir() {
  const char* env = std::getenv("TMPDIR");
  return env != nullptr ? env : "/tmp";
}

// A unique, empty store directory per test.
class ArtifactStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempDir() + "/artifact_store_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  ArtifactStore OpenStore(uint64_t max_bytes = 0) {
    ArtifactStoreOptions options;
    options.dir = dir_;
    options.max_bytes = max_bytes;
    options.obs = &obs_;
    Result<ArtifactStore> opened = ArtifactStore::Open(std::move(options));
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return std::move(opened).value();
  }

  uint64_t Count(const std::string& name) const {
    return obs_.metrics.CounterValue(name);
  }

  std::string dir_;
  ObsContext obs_;
};

std::string SampleSnapshot(const std::string& body) {
  SnapshotWriter w;
  w.Str(body);
  return w.Finish(ArtifactKind::kEventLog);
}

TEST_F(ArtifactStoreTest, OpenCreatesDirectory) {
  EXPECT_FALSE(fs::exists(dir_));
  ArtifactStore store = OpenStore();
  EXPECT_TRUE(fs::is_directory(dir_));
  EXPECT_EQ(store.TotalBytes(), 0u);
}

TEST_F(ArtifactStoreTest, OpenRejectsUnusablePath) {
  ArtifactStoreOptions options;
  options.dir = "/dev/null/not-a-directory";
  EXPECT_FALSE(ArtifactStore::Open(std::move(options)).ok());
  ArtifactStoreOptions empty;
  EXPECT_FALSE(ArtifactStore::Open(std::move(empty)).ok());
}

TEST_F(ArtifactStoreTest, MissThenStoreThenHit) {
  ArtifactStore store = OpenStore();
  const ArtifactKey key{ArtifactKind::kEventLog, 0x1234, 0x5678};
  EXPECT_EQ(store.Load(key), std::nullopt);
  EXPECT_EQ(Count("store.misses"), 1u);

  const std::string snapshot = SampleSnapshot("hello");
  store.Store(key, snapshot);
  EXPECT_EQ(Count("store.writes"), 1u);
  EXPECT_EQ(Count("store.bytes_written"), snapshot.size());

  std::optional<std::string> loaded = store.Load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, snapshot);
  EXPECT_EQ(Count("store.hits"), 1u);
  EXPECT_EQ(Count("store.bytes_read"), snapshot.size());
  EXPECT_EQ(store.TotalBytes(), snapshot.size());
}

TEST_F(ArtifactStoreTest, KeysAreContentAddressed) {
  ArtifactStore store = OpenStore();
  const ArtifactKey key{ArtifactKind::kEventLog, 1, 2};
  store.Store(key, SampleSnapshot("original"));
  // Different content hash, fingerprint, or kind: all distinct entries.
  EXPECT_EQ(store.Load({ArtifactKind::kEventLog, 9, 2}), std::nullopt);
  EXPECT_EQ(store.Load({ArtifactKind::kEventLog, 1, 9}), std::nullopt);
  EXPECT_EQ(store.Load({ArtifactKind::kDependencyGraph, 1, 2}), std::nullopt);
  EXPECT_TRUE(store.Load(key).has_value());
}

TEST_F(ArtifactStoreTest, CorruptFileFallsBackAndIsEvicted) {
  ArtifactStore store = OpenStore();
  const ArtifactKey key{ArtifactKind::kEventLog, 3, 4};
  const std::string snapshot = SampleSnapshot("precious");
  store.Store(key, snapshot);

  // Flip one payload byte on disk.
  const fs::path path = fs::path(dir_) / key.FileName();
  std::string bytes = snapshot;
  bytes[kSnapshotHeaderBytes] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  EXPECT_EQ(store.Load(key), std::nullopt);
  EXPECT_EQ(Count("store.fallback_rederives"), 1u);
  EXPECT_EQ(Count("store.hits"), 0u);
  EXPECT_FALSE(fs::exists(path));  // bad file dropped, Store can replace

  store.Store(key, snapshot);
  EXPECT_TRUE(store.Load(key).has_value());
}

TEST_F(ArtifactStoreTest, TruncatedAndVersionSkewedFilesFallBack) {
  ArtifactStore store = OpenStore();
  const std::string snapshot = SampleSnapshot("body");

  const ArtifactKey truncated_key{ArtifactKind::kEventLog, 5, 6};
  store.Store(truncated_key, snapshot);
  fs::resize_file(fs::path(dir_) / truncated_key.FileName(),
                  kSnapshotHeaderBytes + 2);
  EXPECT_EQ(store.Load(truncated_key), std::nullopt);

  const ArtifactKey skewed_key{ArtifactKind::kEventLog, 7, 8};
  std::string skewed = snapshot;
  const uint32_t future = kSnapshotVersion + 1;
  std::memcpy(&skewed[4], &future, sizeof(future));
  const uint64_t reseal =
      Hash64(skewed.data(), skewed.size() - kSnapshotTrailerBytes);
  std::memcpy(&skewed[skewed.size() - kSnapshotTrailerBytes], &reseal,
              sizeof(reseal));
  store.Store(skewed_key, skewed);
  EXPECT_EQ(store.Load(skewed_key), std::nullopt);

  EXPECT_EQ(Count("store.fallback_rederives"), 2u);
}

TEST_F(ArtifactStoreTest, ByteBudgetEvictsLeastRecentlyUsed) {
  const std::string snapshot = SampleSnapshot(std::string(100, 'x'));
  ArtifactStore store = OpenStore(/*max_bytes=*/2 * snapshot.size() + 10);

  const ArtifactKey a{ArtifactKind::kEventLog, 1, 0};
  const ArtifactKey b{ArtifactKind::kEventLog, 2, 0};
  const ArtifactKey c{ArtifactKind::kEventLog, 3, 0};
  store.Store(a, snapshot);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  store.Store(b, snapshot);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Touch a: b becomes the coldest entry.
  EXPECT_TRUE(store.Load(a).has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  store.Store(c, snapshot);  // over budget: evicts b

  EXPECT_EQ(Count("store.evictions"), 1u);
  EXPECT_LE(store.TotalBytes(), store.max_bytes());
  EXPECT_TRUE(store.Load(a).has_value());
  EXPECT_EQ(store.Load(b), std::nullopt);
  EXPECT_TRUE(store.Load(c).has_value());
}

// Kinds 3, 4 and 7 (graph summary, label cache, soft match) are retired.
// A directory written by an older build may still hold their files: they
// are never addressed again, count toward the byte budget, and are the
// first to go once it is exceeded (they are never touched by a hit).
TEST_F(ArtifactStoreTest, RetiredKindFilesAreEvictedUnderBudget) {
  for (uint32_t retired : {3u, 4u, 7u}) {
    EXPECT_STREQ(ArtifactKindName(static_cast<ArtifactKind>(retired)),
                 "unknown");
  }
  const std::string snapshot = SampleSnapshot(std::string(100, 'x'));
  fs::create_directories(dir_);
  for (const char* name :
       {"summary-0000000000000001-0000000000000000.emsnap",
        "labels-0000000000000001-0000000000000000.emsnap",
        "soft-0000000000000001-0000000000000000.emsnap"}) {
    std::ofstream(fs::path(dir_) / name, std::ios::binary) << snapshot;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ArtifactStore store = OpenStore(/*max_bytes=*/snapshot.size() + 10);
  EXPECT_EQ(store.TotalBytes(), 3 * snapshot.size());

  const ArtifactKey key{ArtifactKind::kEventLog, 1, 0};
  store.Store(key, snapshot);
  EXPECT_EQ(Count("store.evictions"), 3u);
  EXPECT_TRUE(store.Load(key).has_value());
  EXPECT_EQ(store.TotalBytes(), snapshot.size());
}

TEST_F(ArtifactStoreTest, ConcurrentLoadsAndStoresAreSafe) {
  ArtifactStore store = OpenStore();
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Half the keys are shared across threads, half are private.
        const uint64_t hash = (i % 2 == 0) ? i : t * 1000 + i;
        const ArtifactKey key{ArtifactKind::kEventLog, hash, 0};
        const std::string snapshot =
            SampleSnapshot("payload-" + std::to_string(hash));
        store.Store(key, snapshot);
        std::optional<std::string> loaded = store.Load(key);
        // A concurrent writer may have replaced the file, but whatever
        // loads must verify and carry the right content for the key.
        if (loaded.has_value()) {
          EXPECT_EQ(*loaded, snapshot);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(Count("store.fallback_rederives"), 0u);
  EXPECT_GT(Count("store.hits"), 0u);
}

TEST_F(ArtifactStoreTest, LoadThroughParsesOnceThenServesSnapshots) {
  ArtifactStore store = OpenStore();
  const std::string log_path = dir_ + "/source_log.txt";
  {
    std::ofstream out(log_path);
    out << "a;b;c\na;c;b\nb;c\n";
  }

  uint64_t hash_cold = 0;
  Result<EventLog> cold =
      serve::LoadEventLogThroughStore(&store, log_path, "auto", &hash_cold);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(Count("store.misses"), 1u);
  EXPECT_EQ(Count("store.writes"), 1u);

  uint64_t hash_warm = 0;
  Result<EventLog> warm =
      serve::LoadEventLogThroughStore(&store, log_path, "auto", &hash_warm);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(Count("store.hits"), 1u);
  EXPECT_EQ(hash_warm, hash_cold);
  // The warm log is bit-identical to the parsed one.
  EXPECT_EQ(EncodeEventLog(*warm), EncodeEventLog(*cold));

  // Rewriting the source changes the content hash: the old snapshot is
  // never addressed again and the new content is parsed and stored.
  {
    std::ofstream out(log_path, std::ios::trunc);
    out << "x;y\nz\n";
  }
  Result<EventLog> rewritten =
      serve::LoadEventLogThroughStore(&store, log_path, "auto");
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten->NumTraces(), 2u);
  EXPECT_NE(rewritten->FindEvent("x"), kInvalidEvent);
  EXPECT_EQ(Count("store.misses"), 2u);
  EXPECT_EQ(Count("store.writes"), 2u);
}

TEST_F(ArtifactStoreTest, LoadThroughToleratesCorruptSnapshot) {
  ArtifactStore store = OpenStore();
  const std::string log_path = dir_ + "/source_corrupt.txt";
  {
    std::ofstream out(log_path);
    out << "a;b\nb;a\n";
  }
  Result<EventLog> cold =
      serve::LoadEventLogThroughStore(&store, log_path, "auto");
  ASSERT_TRUE(cold.ok());

  // Corrupt the written snapshot in place.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() != ".emsnap") continue;
    std::fstream file(entry.path(),
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(kSnapshotHeaderBytes));
    file.put('\xFF');
  }

  // The request still succeeds — re-derived from source, not errored.
  Result<EventLog> recovered =
      serve::LoadEventLogThroughStore(&store, log_path, "auto");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(EncodeEventLog(*recovered), EncodeEventLog(*cold));
  EXPECT_EQ(Count("store.fallback_rederives"), 1u);
}

TEST_F(ArtifactStoreTest, FileNameEncodesKindHashAndFingerprint) {
  const ArtifactKey key{ArtifactKind::kDependencyGraph, 0xABCD, 0x12};
  EXPECT_EQ(key.FileName(),
            "graph-000000000000abcd-0000000000000012.emsnap");
}

}  // namespace
}  // namespace store
}  // namespace ems
