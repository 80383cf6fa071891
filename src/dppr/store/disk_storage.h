#ifndef DPPR_STORE_DISK_STORAGE_H_
#define DPPR_STORE_DISK_STORAGE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dppr/store/vector_storage.h"

namespace dppr {

/// (offset, length) of one VectorRecord inside a spill file.
struct SpillExtent {
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// Append-only record file shared by a disk store and its clones. Appends are
/// serialized under a mutex and return the written extent; reads are
/// positional (`pread`), so concurrent readers never share a file offset.
/// Extents are bounds-checked against the bytes actually written — an
/// out-of-range extent DPPR_CHECK-fails instead of reading garbage.
class SpillFile {
 public:
  /// Anonymous spill: mkstemp in `dir` (or $TMPDIR / /tmp when empty), then
  /// unlinked immediately — the file lives exactly as long as its fd.
  static std::shared_ptr<SpillFile> CreateTemp(const std::string& dir);

  /// Named spill kept on disk (reopenable via Open after the store dies).
  /// Truncates any existing file at `path`.
  static std::shared_ptr<SpillFile> CreateAt(const std::string& path);

  /// Opens an existing spill file read-only; Append on it dies.
  static std::shared_ptr<SpillFile> Open(const std::string& path);

  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Thread-safe append; returns the record's extent.
  SpillExtent Append(std::span<const uint8_t> bytes);

  /// pread of `extent` into `out` (out.size() == extent.length). DPPR_CHECKs
  /// the extent against the current file size and a short read.
  void Read(SpillExtent extent, std::span<uint8_t> out) const;

  /// Runs `scan` over a read-only mmap view of the whole file (index rebuild
  /// on open); the view is unmapped before returning.
  void Scan(const std::function<void(std::span<const uint8_t>)>& scan) const;

  uint64_t size() const { return size_.load(std::memory_order_acquire); }
  bool writable() const { return writable_; }

 private:
  SpillFile(int fd, uint64_t size, bool writable)
      : fd_(fd), writable_(writable), size_(size) {}

  int fd_;
  bool writable_;
  std::mutex append_mu_;
  std::atomic<uint64_t> size_;
};

/// Disk-backed spill storage: every put serializes its vector as a
/// VectorRecord and appends it to one of three per-kind spill segments —
/// hub partials, skeleton columns, and own vectors each get their own file,
/// so the tiny skeleton columns a query chain walks cluster into a dense,
/// prefetch-friendly segment instead of interleaving with multi-KB partials.
/// Ingest streams the raw wire bytes straight through, so the coordinator
/// never materializes a machine's index in RAM. Lookups go through a
/// byte-budgeted read-through LRU residency cache keyed on the vector key. A
/// cache miss preads the record's extent, re-validates it (header must match
/// the key — a corrupted or aliased extent dies rather than serving
/// garbage), and inserts the vector; eviction drops least-recently-used
/// entries until the budget holds — bulky kinds (partials, own vectors)
/// first, skeleton columns only when no bulky entry is left, since a
/// skeleton column is read on every chain walk but costs little to keep —
/// and outstanding PpvRef pins keep their vectors alive regardless.
///
/// A named store (options.spill_path) writes a small text manifest at the
/// path plus one `<path>.<kind>` segment per kind; PpvStore::OpenSpill reads
/// the manifest back; a path without the manifest magic dies at open.
///
/// The miss path is singleflighted: concurrent misses of the same vector
/// coalesce onto one disk read — the first thread loads, the rest wait for
/// its result instead of each pread-ing the extent (thundering herds on one
/// hot vector used to multiply the I/O). Followers still count as cache
/// misses (the lookup was not served from RAM) but charge no disk bytes;
/// only the loading thread's read is billed. Prefetch registers its loads in
/// the same table, so a concurrent Find of a key being prefetched waits for
/// that read instead of issuing its own.
///
/// Find/FindPair/Prefetch are thread-safe (cache state under a mutex, disk
/// reads outside it); writes follow the single-threaded-ingest contract.
class DiskSpillStorage final : public VectorStorage {
 public:
  /// Fresh store spilling to options.spill_path (manifest + named segments
  /// kept on disk) or anonymous temp segments in options.spill_dir.
  explicit DiskSpillStorage(const StorageOptions& options);

  /// Rebuilds a store from an existing segment-manifest spill by scanning
  /// its records. Truncated or corrupted files
  /// DPPR_CHECK-fail here, at open. The store is read-only: further puts die
  /// in SpillFile::Append.
  static std::unique_ptr<DiskSpillStorage> OpenExisting(
      const std::string& path, const StorageOptions& options);

  StorageBackend backend() const override { return StorageBackend::kDisk; }

  void Put(VectorKind kind, SubgraphId sub, NodeId node, const SparseVector* vec,
           size_t serialized_bytes) override;
  void PutOwned(VectorKind kind, SubgraphId sub, NodeId node, SparseVector vec,
                size_t serialized_bytes) override;
  double Ingest(VectorRecord record) override;
  double IngestFrom(ByteReader& reader) override;
  PpvRef Find(VectorKind kind, SubgraphId sub, NodeId node) const override;
  /// One cache-lock pass resolving both hub vectors when both are resident
  /// (the steady state behind Prefetch); anything colder falls back to the
  /// full per-key Find path. Accounting matches two Finds exactly.
  PpvPair FindPair(SubgraphId sub, NodeId hub) const override;
  /// Loads the missing extents among `keys` into the residency cache:
  /// filters out absent / already-cached / in-flight keys and extents larger
  /// than the whole budget (they could never stay cached — reading them
  /// twice would only double the I/O), plans at most half the budget of new
  /// loads per pass (more would evict prefetched records before the fold
  /// reads them; keys come in fold order, so the kept prefix is what the
  /// fold needs first), groups the rest by segment, sorts by
  /// file offset, and issues one coalesced pread per adjacent run. Each
  /// loaded extent counts as a cache miss + disk bytes (it was read from
  /// disk), so cold-window stats invariants hold whether the engine
  /// prefetches or not.
  void Prefetch(std::span<const uint64_t> keys) const override;
  /// Shares the spill segments with the clone (appends interleave safely;
  /// each store only indexes its own records) and starts a fresh cache.
  std::unique_ptr<VectorStorage> Clone() const override;
  size_t num_owned() const override { return extents_.size(); }
  size_t ResidentBytes() const override;

  size_t cache_budget_bytes() const { return cache_budget_; }
  const std::shared_ptr<SpillFile>& segment(VectorKind kind) const {
    return files_[static_cast<uint8_t>(kind)];
  }

 private:
  using SegmentArray = std::array<std::shared_ptr<SpillFile>, kNumVectorKinds>;

  DiskSpillStorage(SegmentArray files, size_t cache_budget)
      : files_(std::move(files)), cache_budget_(cache_budget) {}

  /// Serializes one record from loose parts (seconds included — a reopened
  /// store inherits the offline ledger), appends it to its kind's segment,
  /// and indexes the extent under its key. Takes the vector by reference so
  /// referenced vectors spill without an intermediate copy.
  void AppendVector(VectorKind kind, SubgraphId sub, NodeId node, double seconds,
                    const SparseVector& vec, size_t serialized_bytes);
  void IndexExtent(uint64_t key, SpillExtent extent);

  /// The segment holding `key`'s record (derived from the key's kind bits —
  /// extents never need to remember their file).
  SpillFile& SegmentFor(uint64_t key) const {
    return *files_[static_cast<uint8_t>(VectorKindOfKey(key))];
  }

  /// One in-flight load that concurrent misses of the same key rendezvous
  /// on. Lives in inflight_ while the leader reads; followers keep it alive
  /// through the shared_ptr after the leader erased the map entry. If the
  /// leader unwinds without a result (e.g. bad_alloc mid-read), it marks the
  /// load failed and wakes everyone; followers retry the lookup from scratch
  /// instead of waiting forever on a result that will never come.
  struct InFlightLoad {
    bool done = false;
    bool failed = false;
    std::shared_ptr<const SparseVector> vec;
    std::condition_variable done_cv;
  };

  /// Leader's miss path: pread + validate + insert into the cache (evicting
  /// LRU past the budget), then publish through `load` and wake followers.
  /// The just-loaded vector may itself be evicted immediately under a tiny
  /// budget; the returned pin keeps it alive either way.
  PpvRef Load(uint64_t key, VectorKind kind, SubgraphId sub, NodeId node,
              SpillExtent extent, std::shared_ptr<InFlightLoad> load) const;

  /// Cache-hit lookup under mu_; returns an empty ref on miss without
  /// touching the singleflight table. Shared by Find/FindPair fast paths.
  PpvRef CachedLocked(uint64_t key) const;

  /// The LRU list `key`'s cache entry lives on: skeleton columns get their
  /// own list so eviction can drain the bulky kinds first.
  std::list<uint64_t>& LruFor(uint64_t key) const {
    return VectorKindOfKey(key) == VectorKind::kSkeletonColumn ? skeleton_lru_
                                                               : bulky_lru_;
  }

  /// Inserts a loaded vector into the cache and evicts past-budget entries —
  /// bulky LRU first, skeleton LRU only once the bulky list is empty. Caller
  /// holds mu_.
  void InsertIntoCacheLocked(uint64_t key, std::shared_ptr<const SparseVector> vec,
                             size_t bytes) const;

  SegmentArray files_;
  size_t cache_budget_;
  /// key -> record extent (within the key's kind segment). Written during
  /// ingest, read-only while serving.
  std::unordered_map<uint64_t, SpillExtent> extents_;

  struct CacheEntry {
    std::shared_ptr<const SparseVector> vec;
    /// Charged against the budget: the record's on-disk length.
    size_t bytes = 0;
    std::list<uint64_t>::iterator lru_it;
  };
  mutable std::mutex mu_;
  mutable std::unordered_map<uint64_t, CacheEntry> cache_;
  /// Front = most recently used. Hub partials + own vectors (the eviction
  /// victims of first resort) on one list, skeleton columns on the other.
  mutable std::list<uint64_t> bulky_lru_;
  mutable std::list<uint64_t> skeleton_lru_;
  mutable size_t resident_bytes_ = 0;
  /// Singleflight table: key -> the load currently reading that extent.
  mutable std::unordered_map<uint64_t, std::shared_ptr<InFlightLoad>> inflight_;
};

}  // namespace dppr

#endif  // DPPR_STORE_DISK_STORAGE_H_
