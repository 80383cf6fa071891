// Coverage for the hot-path raw-speed pass: batched extent prefetch through
// the disk store's singleflight table, the paired (skeleton, partial) lookup,
// per-kind spill segments with their manifest, and bit-identity of the full
// query surface across prefetch on/off, storage backends, and transports.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "dppr/core/hgpa.h"
#include "dppr/net/transport.h"
#include "dppr/serve/query_server.h"
#include "dppr/store/disk_storage.h"
#include "dppr/store/ppv_store.h"
#include "test_util.h"

namespace dppr {
namespace {

using ::dppr::testing::RandomDigraph;
using ::dppr::testing::RandomSparseVector;

StorageOptions Disk(size_t cache_bytes = 64 << 20) {
  StorageOptions options;
  options.backend = StorageBackend::kDisk;
  options.cache_bytes = cache_bytes;
  return options;
}

std::string TempPath(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  return dir + "/dppr_prefetch_test_" + name + ".spill";
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

void RemoveSpill(const std::string& path) {
  std::remove(path.c_str());
  for (const char* suffix : {"hub_partial", "skeleton_column", "own_vector"}) {
    std::remove((path + "." + suffix).c_str());
  }
}

/// Env override restored on scope exit (engines read DPPR_PREFETCH at
/// construction, so tests pin it only around the constructor).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string old_;
  bool had_old_ = false;
};

// ---------------------------------------------------------------------------
// Prefetch unit behavior on a raw disk store
// ---------------------------------------------------------------------------

TEST(Prefetch, AdjacentExtentsCoalesceIntoOneRead) {
  PpvStore store(Disk());
  std::vector<SparseVector> expected;
  std::vector<uint64_t> keys;
  for (NodeId node = 0; node < 8; ++node) {
    expected.push_back(RandomSparseVector(200 + node, 40));
    store.PutOwned(VectorKind::kOwnVector, 1, node, expected.back(),
                   expected.back().SerializedBytes());
    keys.push_back(MakeVectorKey(VectorKind::kOwnVector, 1, node));
  }

  store.Prefetch(keys);
  StorageStats cold = store.storage_stats();
  EXPECT_EQ(cold.prefetch_issued, 8u);
  EXPECT_EQ(cold.prefetch_hits, 0u);
  // Eight consecutive appends of one kind are byte-adjacent in the segment:
  // one coalesced pread covers them all.
  EXPECT_EQ(cold.prefetch_coalesced_reads, 1u);
  EXPECT_GT(cold.prefetch_bytes, 0u);
  EXPECT_EQ(cold.disk_bytes_read, cold.prefetch_bytes);
  EXPECT_EQ(cold.cache_misses, 8u);  // prefetch loads are disk reads
  EXPECT_EQ(cold.cache_hits, 0u);

  // Every Find is now a RAM hit, no further disk bytes.
  for (NodeId node = 0; node < 8; ++node) {
    PpvRef found = store.Find(VectorKind::kOwnVector, 1, node);
    ASSERT_TRUE(found);
    EXPECT_EQ(*found, expected[node]);
  }
  StorageStats warm = store.storage_stats();
  EXPECT_EQ(warm.cache_hits, 8u);
  EXPECT_EQ(warm.disk_bytes_read, cold.disk_bytes_read);

  // Prefetching resident keys is pure bookkeeping: no loads, no reads.
  store.Prefetch(keys);
  StorageStats again = store.storage_stats();
  EXPECT_EQ(again.prefetch_hits, 8u);
  EXPECT_EQ(again.prefetch_issued, 8u);
  EXPECT_EQ(again.prefetch_coalesced_reads, 1u);
  EXPECT_EQ(again.disk_bytes_read, cold.disk_bytes_read);
}

TEST(Prefetch, PerKindSegmentsKeepEachKindAdjacent) {
  // Kinds interleaved at ingest land in three separate segments, so a batch
  // spanning all kinds still coalesces into one read per segment — the
  // clustering the per-kind split exists to provide.
  PpvStore store(Disk());
  std::vector<uint64_t> keys;
  for (NodeId i = 0; i < 6; ++i) {
    for (VectorKind kind : {VectorKind::kHubPartial, VectorKind::kSkeletonColumn,
                            VectorKind::kOwnVector}) {
      SparseVector vec = RandomSparseVector(300 + 10 * i + static_cast<int>(kind),
                                            25);
      store.PutOwned(kind, 0, i, vec, vec.SerializedBytes());
      keys.push_back(MakeVectorKey(kind, 0, i));
    }
  }
  store.Prefetch(keys);
  StorageStats stats = store.storage_stats();
  EXPECT_EQ(stats.prefetch_issued, 18u);
  EXPECT_EQ(stats.prefetch_coalesced_reads, 3u);
}

TEST(Prefetch, SkipsAbsentKeysAndOversizedExtents) {
  // Budget 1: every record is bigger than the whole cache, so prefetch must
  // refuse to read anything (the load could never stay cached — it would
  // only double the I/O) and the budget-1 invariant "no hit ever" holds.
  PpvStore store(Disk(/*cache_bytes=*/1));
  SparseVector vec = RandomSparseVector(77, 30);
  store.PutOwned(VectorKind::kOwnVector, 0, 0, vec, vec.SerializedBytes());
  std::vector<uint64_t> keys = {
      MakeVectorKey(VectorKind::kOwnVector, 0, 0),
      MakeVectorKey(VectorKind::kOwnVector, 0, 999),     // never stored
      MakeVectorKey(VectorKind::kSkeletonColumn, 5, 5),  // never stored
  };
  store.Prefetch(keys);
  StorageStats stats = store.storage_stats();
  EXPECT_EQ(stats.prefetch_issued, 0u);
  EXPECT_EQ(stats.prefetch_hits, 0u);
  EXPECT_EQ(stats.prefetch_coalesced_reads, 0u);
  EXPECT_EQ(stats.disk_bytes_read, 0u);

  // The vector is still served correctly, as a plain miss.
  PpvRef found = store.Find(VectorKind::kOwnVector, 0, 0);
  ASSERT_TRUE(found);
  EXPECT_EQ(*found, vec);
  EXPECT_EQ(store.storage_stats().cache_hits, 0u);
}

TEST(Prefetch, InMemoryBackendsIgnoreIt) {
  for (StorageBackend backend :
       {StorageBackend::kMemoryRef, StorageBackend::kMemoryOwned}) {
    StorageOptions options;
    options.backend = backend;
    PpvStore store(options);
    SparseVector vec = RandomSparseVector(5, 10);
    store.PutOwned(VectorKind::kOwnVector, 0, 1, vec, vec.SerializedBytes());
    std::vector<uint64_t> keys = {MakeVectorKey(VectorKind::kOwnVector, 0, 1)};
    store.Prefetch(keys);  // no-op, must not crash or count anything
    EXPECT_EQ(store.storage_stats().prefetch_issued, 0u);
    EXPECT_EQ(*store.Find(VectorKind::kOwnVector, 0, 1), vec);
  }
}

// ---------------------------------------------------------------------------
// FindPair
// ---------------------------------------------------------------------------

TEST(FindPair, MatchesTwoFindsAcrossBackends) {
  for (StorageBackend backend :
       {StorageBackend::kMemoryRef, StorageBackend::kMemoryOwned,
        StorageBackend::kDisk}) {
    StorageOptions options;
    options.backend = backend;
    PpvStore store(options);
    for (NodeId hub = 0; hub < 5; ++hub) {
      SparseVector skel = RandomSparseVector(400 + hub, 12);
      SparseVector part = RandomSparseVector(500 + hub, 30);
      store.PutOwned(VectorKind::kSkeletonColumn, 2, hub, skel,
                     skel.SerializedBytes());
      store.PutOwned(VectorKind::kHubPartial, 2, hub, part,
                     part.SerializedBytes());
    }
    // A lone skeleton (no partial) and a fully absent hub exercise the
    // partial-pair edges.
    SparseVector lonely = RandomSparseVector(600, 8);
    store.PutOwned(VectorKind::kSkeletonColumn, 2, 5, lonely,
                   lonely.SerializedBytes());

    for (NodeId hub = 0; hub < 5; ++hub) {
      PpvPair pair = store.FindPair(2, hub);
      ASSERT_TRUE(pair.skeleton) << "backend " << static_cast<int>(backend);
      ASSERT_TRUE(pair.partial);
      EXPECT_EQ(*pair.skeleton, *store.Find(VectorKind::kSkeletonColumn, 2, hub));
      EXPECT_EQ(*pair.partial, *store.Find(VectorKind::kHubPartial, 2, hub));
    }
    PpvPair partial_pair = store.FindPair(2, 5);
    ASSERT_TRUE(partial_pair.skeleton);
    EXPECT_EQ(*partial_pair.skeleton, lonely);
    EXPECT_FALSE(partial_pair.partial);
    PpvPair absent = store.FindPair(2, 99);
    EXPECT_FALSE(absent.skeleton);
    EXPECT_FALSE(absent.partial);
  }
}

TEST(FindPair, WarmPairCountsTwoHitsLikeTwoFinds) {
  PpvStore store(Disk());
  SparseVector skel = RandomSparseVector(1, 10);
  SparseVector part = RandomSparseVector(2, 20);
  store.PutOwned(VectorKind::kSkeletonColumn, 0, 0, skel, skel.SerializedBytes());
  store.PutOwned(VectorKind::kHubPartial, 0, 0, part, part.SerializedBytes());

  (void)store.FindPair(0, 0);  // cold: two loads
  StorageStats cold = store.storage_stats();
  EXPECT_EQ(cold.cache_misses, 2u);
  (void)store.FindPair(0, 0);  // warm: both from the single-lock fast path
  StorageStats warm = store.storage_stats();
  EXPECT_EQ(warm.cache_hits, cold.cache_hits + 2);
  EXPECT_EQ(warm.cache_misses, cold.cache_misses);
  EXPECT_EQ(warm.disk_bytes_read, cold.disk_bytes_read);
}

TEST(FindPair, CopiedStoreDoesNotAliasSourcePairIndex) {
  // Clone re-points the paired index at the copied owned vectors; the copy
  // must stay valid after the source dies.
  StorageOptions options;
  options.backend = StorageBackend::kMemoryOwned;
  auto store = std::make_optional<PpvStore>(options);
  SparseVector skel = RandomSparseVector(8, 10);
  SparseVector part = RandomSparseVector(9, 10);
  store->PutOwned(VectorKind::kSkeletonColumn, 1, 2, skel, skel.SerializedBytes());
  store->PutOwned(VectorKind::kHubPartial, 1, 2, part, part.SerializedBytes());

  PpvStore copy = *store;
  PpvPair pair = copy.FindPair(1, 2);
  EXPECT_NE(&*pair.skeleton, &*store->FindPair(1, 2).skeleton);
  store.reset();
  EXPECT_EQ(*pair.skeleton, skel);
  EXPECT_EQ(*copy.FindPair(1, 2).partial, part);
}

// ---------------------------------------------------------------------------
// Per-kind segments: manifest round trip, hostile input
// ---------------------------------------------------------------------------

TEST(SpillSegments, NamedSpillWritesManifestAndSegments) {
  std::string path = TempPath("manifest");
  StorageOptions options = Disk();
  options.spill_path = path;
  std::vector<SparseVector> expected;
  {
    PpvStore store(options);
    for (uint8_t k = 0; k < kNumVectorKinds; ++k) {
      expected.push_back(RandomSparseVector(700 + k, 20));
      store.PutOwned(static_cast<VectorKind>(k), 3, k, expected.back(),
                     expected.back().SerializedBytes());
    }
  }
  EXPECT_EQ(ReadText(path).rfind("DPPR-SPILL-MANIFEST v1", 0), 0u);
  for (const char* suffix : {"hub_partial", "skeleton_column", "own_vector"}) {
    EXPECT_TRUE(std::ifstream(path + "." + suffix).good()) << suffix;
  }

  PpvStore reopened = PpvStore::OpenSpill(path);
  EXPECT_EQ(reopened.num_vectors(), size_t{kNumVectorKinds});
  for (uint8_t k = 0; k < kNumVectorKinds; ++k) {
    PpvRef found = reopened.Find(static_cast<VectorKind>(k), 3, k);
    ASSERT_TRUE(found);
    EXPECT_EQ(*found, expected[k]);
  }
  RemoveSpill(path);
}

std::string WriteValidSegmentSpill(const std::string& path) {
  StorageOptions options = Disk();
  options.spill_path = path;
  PpvStore store(options);
  for (uint8_t k = 0; k < kNumVectorKinds; ++k) {
    SparseVector vec = RandomSparseVector(900 + k, 20);
    store.PutOwned(static_cast<VectorKind>(k), 0, k, vec, vec.SerializedBytes());
  }
  return ReadText(path);
}

TEST(SpillManifestHostile, LegacySingleFileSpillDies) {
  // A pre-segment spill is one concatenated record stream with no manifest
  // magic; it is refused at open instead of being read as a manifest.
  std::string path = TempPath("legacy");
  ByteWriter writer;
  for (uint8_t k = 0; k < kNumVectorKinds; ++k) {
    VectorRecord::Serialize(writer, static_cast<VectorKind>(k), 1, k,
                            /*seconds=*/0.0, RandomSparseVector(800 + k, 15));
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(writer.bytes().data()),
              static_cast<std::streamsize>(writer.bytes().size()));
  }
  EXPECT_DEATH(PpvStore::OpenSpill(path, Disk()), "kManifestMagic");
  std::remove(path.c_str());
}

TEST(SpillManifestHostile, MissingEndTrailerDies) {
  std::string path = TempPath("noend");
  std::string manifest = WriteValidSegmentSpill(path);
  size_t end = manifest.rfind("end\n");
  ASSERT_NE(end, std::string::npos);
  WriteText(path, manifest.substr(0, end));
  EXPECT_DEATH(PpvStore::OpenSpill(path), "DPPR_CHECK failed");
  RemoveSpill(path);
}

TEST(SpillManifestHostile, WrongKindLineDies) {
  std::string path = TempPath("wrongkind");
  std::string manifest = WriteValidSegmentSpill(path);
  size_t pos = manifest.find("skeleton_column ");
  ASSERT_NE(pos, std::string::npos);
  manifest.replace(pos, 16, "skeleton_kolumn ");
  WriteText(path, manifest);
  EXPECT_DEATH(PpvStore::OpenSpill(path), "DPPR_CHECK failed");
  RemoveSpill(path);
}

TEST(SpillManifestHostile, PathTraversalBasenameDies) {
  // A hostile manifest must not be able to point a segment outside the
  // manifest's own directory.
  std::string path = TempPath("traversal");
  std::string manifest = WriteValidSegmentSpill(path);
  size_t line = manifest.find("own_vector ");
  ASSERT_NE(line, std::string::npos);
  size_t eol = manifest.find('\n', line);
  manifest.replace(line, eol - line, "own_vector ../../etc/passwd");
  WriteText(path, manifest);
  EXPECT_DEATH(PpvStore::OpenSpill(path), "DPPR_CHECK failed");
  RemoveSpill(path);
}

TEST(SpillManifestHostile, MissingSegmentFileDies) {
  std::string path = TempPath("missingseg");
  WriteValidSegmentSpill(path);
  std::remove((path + ".hub_partial").c_str());
  EXPECT_DEATH(PpvStore::OpenSpill(path), "DPPR_CHECK failed");
  RemoveSpill(path);
}

TEST(SpillManifestHostile, RecordInWrongSegmentDies) {
  // A record whose kind contradicts its segment would be read back from the
  // wrong file; the open-time scan must refuse it.
  std::string path = TempPath("wrongseg");
  WriteValidSegmentSpill(path);
  ByteWriter writer;
  VectorRecord::Serialize(writer, VectorKind::kOwnVector, 0, 42, 0.0,
                          RandomSparseVector(42, 5));
  std::string skeleton_segment = path + ".skeleton_column";
  std::ofstream out(skeleton_segment,
                    std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(writer.bytes().data()),
            static_cast<std::streamsize>(writer.bytes().size()));
  out.close();
  EXPECT_DEATH(PpvStore::OpenSpill(path), "DPPR_CHECK failed");
  RemoveSpill(path);
}

// ---------------------------------------------------------------------------
// Engine-level equivalence: prefetch on/off x transport x backend
// ---------------------------------------------------------------------------

HgpaOptions SmallOptions() {
  HgpaOptions options;
  options.ppr.tolerance = 1e-8;
  options.hierarchy.max_levels = 3;
  options.hierarchy.min_subgraph_size = 4;
  return options;
}

void ExpectEnginesAgree(const Graph& g, HgpaQueryEngine& a, HgpaQueryEngine& b) {
  for (NodeId q = 0; q < g.num_nodes(); q += 4) {
    EXPECT_EQ(a.Query(q), b.Query(q)) << "query " << q;
  }
  std::vector<HgpaQueryEngine::Preference> prefs{
      {1, 0.6}, {static_cast<NodeId>(g.num_nodes() / 2), 0.4}};
  EXPECT_EQ(a.QueryPreferenceSet(prefs), b.QueryPreferenceSet(prefs));
}

TEST(PrefetchEquivalence, OnOffAndMemoryBitIdenticalOnBothTransports) {
  Graph g = RandomDigraph(90, 3.0, 17);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  StorageOptions memory;
  memory.backend = StorageBackend::kMemoryRef;
  // Budget comfortably above single records so the prefetcher really loads.
  StorageOptions disk = Disk(size_t{1} << 20);

  for (TransportBackend backend :
       {TransportBackend::kInProcess, TransportBackend::kTcp}) {
    TransportOptions transport;
    transport.backend = backend;
    HgpaQueryEngine reference(HgpaIndex::Distribute(pre, 3, memory),
                              NetworkModel{}, transport);
    std::optional<HgpaQueryEngine> disk_on;
    {
      ScopedEnv env("DPPR_PREFETCH", "on");
      disk_on.emplace(HgpaIndex::Distribute(pre, 3, disk), NetworkModel{},
                      transport);
    }
    std::optional<HgpaQueryEngine> disk_off;
    {
      ScopedEnv env("DPPR_PREFETCH", "off");
      disk_off.emplace(HgpaIndex::Distribute(pre, 3, disk), NetworkModel{},
                       transport);
    }

    ExpectEnginesAgree(g, reference, *disk_on);
    ExpectEnginesAgree(g, reference, *disk_off);
    ExpectEnginesAgree(g, *disk_on, *disk_off);

    // The gate is observable: only the prefetching engine issues loads, and
    // the off engine reads every extent inside the fold instead.
    StorageStats on_stats = disk_on->index().StorageStatsTotal();
    StorageStats off_stats = disk_off->index().StorageStatsTotal();
    EXPECT_GT(on_stats.prefetch_issued, 0u);
    EXPECT_GT(on_stats.prefetch_bytes, 0u);
    EXPECT_GT(on_stats.prefetch_coalesced_reads, 0u);
    EXPECT_EQ(off_stats.prefetch_issued, 0u);
    EXPECT_EQ(off_stats.prefetch_bytes, 0u);
    EXPECT_EQ(reference.index().StorageStatsTotal().prefetch_issued, 0u);
  }
}

TEST(PrefetchEquivalence, ServerStatsExposeThePrefetchWindow) {
  Graph g = RandomDigraph(70, 3.0, 23);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);

  std::optional<QueryServer> server;
  {
    ScopedEnv env("DPPR_PREFETCH", "on");
    server.emplace(
        HgpaQueryEngine(HgpaIndex::Distribute(pre, 3, Disk(size_t{1} << 20))));
  }
  for (NodeId q = 0; q < g.num_nodes(); q += 6) (void)server->Query(q);
  ServerStats stats = server->Stats();
  EXPECT_GT(stats.prefetch_issued, 0u);
  EXPECT_GT(stats.prefetch_coalesced_reads, 0u);
  EXPECT_GT(stats.prefetch_bytes, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
}

TEST(PrefetchGate, TypoDies) {
  // DPPR_PREFETCH=fats must not silently serve unprefetched (or prefetched):
  // same refuse-to-guess policy as DPPR_STORE.
  Graph g = RandomDigraph(30, 2.0, 3);
  HgpaOptions options = SmallOptions();
  auto pre = HgpaPrecomputation::RunHgpa(g, options);
  ScopedEnv env("DPPR_PREFETCH", "fats");
  EXPECT_DEATH(HgpaQueryEngine(HgpaIndex::Distribute(pre, 2)),
               "DPPR_CHECK failed");
}

}  // namespace
}  // namespace dppr
