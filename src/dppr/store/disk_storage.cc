#include "dppr/store/disk_storage.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <string_view>
#include <utility>
#include <vector>

#include "dppr/common/timer.h"
#include "dppr/obs/metrics.h"
#include "dppr/obs/trace.h"

namespace dppr {
namespace {

/// Process-wide rollup of every DiskSpillStorage's miss path. Charged at the
/// same code sites as the per-store hits_/misses_/disk_bytes_read_ atomics
/// (the per-store stats() remain the source for per-index views), so the
/// registry dump and summed StorageStats can never disagree.
struct DiskMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* bytes_read;
  obs::Histogram* miss_extent_read_us;
  obs::Histogram* singleflight_wait_us;
  obs::Counter* prefetch_issued;
  obs::Counter* prefetch_hits;
  obs::Counter* prefetch_coalesced_reads;
  obs::Counter* prefetch_bytes;

  static const DiskMetrics& Get() {
    static const DiskMetrics metrics = [] {
      auto& r = obs::MetricsRegistry::Global();
      return DiskMetrics{r.GetCounter("store.disk.hits"),
                         r.GetCounter("store.disk.misses"),
                         r.GetCounter("store.disk.bytes_read"),
                         r.GetHistogram("store.disk.miss_extent_read_us"),
                         r.GetHistogram("store.disk.singleflight_wait_us"),
                         r.GetCounter("store.prefetch.issued"),
                         r.GetCounter("store.prefetch.hits"),
                         r.GetCounter("store.prefetch.coalesced_reads"),
                         r.GetCounter("store.prefetch.bytes")};
    }();
    return metrics;
  }
};

/// First line of a segment-manifest spill. A named spill path holds this
/// small text manifest; the records live in per-kind segment files next to
/// it.
constexpr std::string_view kManifestMagic = "DPPR-SPILL-MANIFEST v1";

/// Manifest line prefixes and named-segment filename suffixes, indexed by
/// VectorKind.
constexpr const char* kSegmentName[kNumVectorKinds] = {
    "hub_partial", "skeleton_column", "own_vector"};

/// One coalesced prefetch read covers at most this many bytes, bounding the
/// transient buffer regardless of how many adjacent extents line up.
constexpr uint64_t kMaxPrefetchRunBytes = uint64_t{4} << 20;

std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

std::string BaseOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DPPR_CHECK(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  DPPR_CHECK(!in.bad());
  return text;
}

}  // namespace

// ---------------------------------------------------------------------------
// SpillFile
// ---------------------------------------------------------------------------

std::shared_ptr<SpillFile> SpillFile::CreateTemp(const std::string& dir) {
  std::string base = dir;
  if (base.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    base = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  }
  std::string templ = base + "/dppr-spill-XXXXXX";
  // mkstemp wants a mutable buffer.
  std::vector<char> path(templ.begin(), templ.end());
  path.push_back('\0');
  int fd = ::mkstemp(path.data());
  DPPR_CHECK_GE(fd, 0);
  // Unlink-after-open: the file has no name, cannot collide, and the kernel
  // reclaims it the moment the last fd closes — spill cleanup is automatic
  // even on abort.
  DPPR_CHECK_EQ(::unlink(path.data()), 0);
  return std::shared_ptr<SpillFile>(new SpillFile(fd, 0, /*writable=*/true));
}

std::shared_ptr<SpillFile> SpillFile::CreateAt(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  DPPR_CHECK_GE(fd, 0);
  return std::shared_ptr<SpillFile>(new SpillFile(fd, 0, /*writable=*/true));
}

std::shared_ptr<SpillFile> SpillFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  DPPR_CHECK_GE(fd, 0);
  struct stat st{};
  DPPR_CHECK_EQ(::fstat(fd, &st), 0);
  return std::shared_ptr<SpillFile>(
      new SpillFile(fd, static_cast<uint64_t>(st.st_size), /*writable=*/false));
}

SpillFile::~SpillFile() { ::close(fd_); }

SpillExtent SpillFile::Append(std::span<const uint8_t> bytes) {
  DPPR_CHECK(writable_);
  std::lock_guard<std::mutex> lock(append_mu_);
  uint64_t offset = size_.load(std::memory_order_relaxed);
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::pwrite(fd_, bytes.data() + written, bytes.size() - written,
                         static_cast<off_t>(offset + written));
    if (n < 0 && errno == EINTR) continue;
    DPPR_CHECK_GT(n, 0);
    written += static_cast<size_t>(n);
  }
  // Release-publish the new size so concurrent readers' bounds checks see
  // every byte the extent covers.
  size_.store(offset + bytes.size(), std::memory_order_release);
  return {offset, bytes.size()};
}

void SpillFile::Read(SpillExtent extent, std::span<uint8_t> out) const {
  DPPR_CHECK_EQ(out.size(), extent.length);
  // Wrap-safe bounds check (offset + length could overflow for hostile
  // extents): both ends must sit inside the bytes written so far.
  uint64_t file_size = size();
  DPPR_CHECK_LE(extent.offset, file_size);
  DPPR_CHECK_LE(extent.length, file_size - extent.offset);
  size_t done = 0;
  while (done < extent.length) {
    ssize_t n = ::pread(fd_, out.data() + done, extent.length - done,
                        static_cast<off_t>(extent.offset + done));
    if (n < 0 && errno == EINTR) continue;
    // A short read inside the checked range means the file shrank under us —
    // corrupt/truncated storage, refuse to serve.
    DPPR_CHECK_GT(n, 0);
    done += static_cast<size_t>(n);
  }
}

void SpillFile::Scan(
    const std::function<void(std::span<const uint8_t>)>& scan) const {
  uint64_t file_size = size();
  if (file_size == 0) {
    scan({});
    return;
  }
  void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd_, 0);
  DPPR_CHECK(map != MAP_FAILED);
  scan({static_cast<const uint8_t*>(map), static_cast<size_t>(file_size)});
  ::munmap(map, file_size);
}

// ---------------------------------------------------------------------------
// DiskSpillStorage
// ---------------------------------------------------------------------------

namespace {

/// Fresh segment set: three anonymous temp files, or — for a named spill —
/// three `<path>.<kind>` segment files plus the manifest written at `path`.
/// Segments are created eagerly (not on first append of their kind) so a
/// clone taken at any time shares every file the original will ever write.
std::array<std::shared_ptr<SpillFile>, kNumVectorKinds> CreateSegments(
    const StorageOptions& options) {
  std::array<std::shared_ptr<SpillFile>, kNumVectorKinds> files;
  if (options.spill_path.empty()) {
    for (auto& file : files) file = SpillFile::CreateTemp(options.spill_dir);
    return files;
  }
  std::string dir = DirOf(options.spill_path);
  std::string base = BaseOf(options.spill_path);
  std::string manifest(kManifestMagic);
  manifest += '\n';
  for (uint8_t k = 0; k < kNumVectorKinds; ++k) {
    std::string segment_base = base + "." + kSegmentName[k];
    files[k] = SpillFile::CreateAt(dir + "/" + segment_base);
    manifest += std::string(kSegmentName[k]) + " " + segment_base + "\n";
  }
  manifest += "end\n";
  std::ofstream out(options.spill_path,
                    std::ios::binary | std::ios::trunc);
  out << manifest;
  out.flush();
  DPPR_CHECK(out.good());
  return files;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

}  // namespace

DiskSpillStorage::DiskSpillStorage(const StorageOptions& options)
    : DiskSpillStorage(CreateSegments(options), options.cache_bytes) {}

std::unique_ptr<DiskSpillStorage> DiskSpillStorage::OpenExisting(
    const std::string& path, const StorageOptions& options) {
  // Rebuild the index by walking the segments' record streams. Every record
  // is fully re-validated (VectorRecord::Deserialize DPPR_CHECKs kinds, id
  // ranges and blob framing), so truncation or corruption dies here — at
  // open — rather than serving garbage at query time.
  auto scan_into = [](DiskSpillStorage& store, SpillFile& file,
                      uint8_t expected_kind) {
    file.Scan([&](std::span<const uint8_t> bytes) {
      ByteReader reader(bytes.data(), bytes.size());
      while (!reader.AtEnd()) {
        size_t start = reader.position();
        VectorRecord record = VectorRecord::Deserialize(reader);
        // In a per-kind segment every record must carry that segment's kind:
        // a record smuggled into the wrong file would later be read back
        // from the wrong segment.
        DPPR_CHECK(static_cast<uint8_t>(record.kind) == expected_kind);
        store.IndexExtent(MakeVectorKey(record.kind, record.sub, record.node),
                          {start, reader.position() - start});
        store.Charge(record.kind, record.vec.SerializedBytes());
      }
    });
  };

  // Segment manifest: magic line, one "<kind> <basename>" line per kind in
  // enum order, then the "end" trailer — a truncated manifest loses the
  // trailer and dies here.
  std::vector<std::string> lines = SplitLines(ReadWholeFile(path));
  DPPR_CHECK(!lines.empty() && lines[0] == kManifestMagic);
  DPPR_CHECK_GE(lines.size(), size_t{kNumVectorKinds} + 2);
  DPPR_CHECK(lines[1 + kNumVectorKinds] == "end");
  std::string dir = DirOf(path);
  SegmentArray files;
  for (uint8_t k = 0; k < kNumVectorKinds; ++k) {
    const std::string& line = lines[1 + k];
    std::string prefix = std::string(kSegmentName[k]) + " ";
    DPPR_CHECK(line.rfind(prefix, 0) == 0);
    std::string basename = line.substr(prefix.size());
    DPPR_CHECK(!basename.empty());
    // Segments live next to the manifest; a path component would let a
    // hostile manifest read arbitrary files.
    DPPR_CHECK(basename.find('/') == std::string::npos);
    files[k] = SpillFile::Open(dir + "/" + basename);
  }
  std::unique_ptr<DiskSpillStorage> store(
      new DiskSpillStorage(std::move(files), options.cache_bytes));
  for (uint8_t k = 0; k < kNumVectorKinds; ++k) {
    scan_into(*store, *store->files_[k], k);
  }
  return store;
}

void DiskSpillStorage::IndexExtent(uint64_t key, SpillExtent extent) {
  bool inserted = extents_.emplace(key, extent).second;
  DPPR_CHECK(inserted);
}

void DiskSpillStorage::AppendVector(VectorKind kind, SubgraphId sub, NodeId node,
                                    double seconds, const SparseVector& vec,
                                    size_t serialized_bytes) {
  ByteWriter writer;
  VectorRecord::Serialize(writer, kind, sub, node, seconds, vec);
  SpillExtent extent = files_[static_cast<uint8_t>(kind)]->Append(writer.bytes());
  IndexExtent(MakeVectorKey(kind, sub, node), extent);
  // The ledger charges the vector's serialized size, same as the in-memory
  // backends, so the paper's space metrics are backend-invariant; the record
  // header overhead is visible via SpillFile::size() instead.
  Charge(kind, serialized_bytes);
}

void DiskSpillStorage::Put(VectorKind kind, SubgraphId sub, NodeId node,
                           const SparseVector* vec, size_t serialized_bytes) {
  DPPR_CHECK(vec != nullptr);
  AppendVector(kind, sub, node, /*seconds=*/0.0, *vec, serialized_bytes);
}

void DiskSpillStorage::PutOwned(VectorKind kind, SubgraphId sub, NodeId node,
                                SparseVector vec, size_t serialized_bytes) {
  AppendVector(kind, sub, node, /*seconds=*/0.0, vec, serialized_bytes);
}

double DiskSpillStorage::Ingest(VectorRecord record) {
  AppendVector(record.kind, record.sub, record.node, record.seconds, record.vec,
               record.vec.SerializedBytes());
  return record.seconds;
}

double DiskSpillStorage::IngestFrom(ByteReader& reader) {
  size_t start = reader.position();
  // Validation parse: hostile wire bytes die here, and the parsed vector is
  // dropped right after — ingest streams the raw record bytes to the spill
  // file, so coordinator RAM stays bounded by one record, not the index.
  VectorRecord record = VectorRecord::Deserialize(reader);
  SpillExtent extent = files_[static_cast<uint8_t>(record.kind)]->Append(
      reader.Slice(start, reader.position()));
  IndexExtent(MakeVectorKey(record.kind, record.sub, record.node), extent);
  Charge(record.kind, record.vec.SerializedBytes());
  return record.seconds;
}

PpvRef DiskSpillStorage::CachedLocked(uint64_t key) const {
  auto cit = cache_.find(key);
  if (cit == cache_.end()) return {};
  hits_.fetch_add(1, std::memory_order_relaxed);
  DiskMetrics::Get().hits->Increment();
  std::list<uint64_t>& lru = LruFor(key);
  lru.splice(lru.begin(), lru, cit->second.lru_it);
  return PpvRef(cit->second.vec);
}

PpvRef DiskSpillStorage::Find(VectorKind kind, SubgraphId sub, NodeId node) const {
  uint64_t key = MakeVectorKey(kind, sub, node);
  auto eit = extents_.find(key);
  if (eit == extents_.end()) return {};
  for (;;) {
    std::shared_ptr<InFlightLoad> load;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (PpvRef cached = CachedLocked(key)) return cached;
      // Singleflight: if another thread is already reading this extent, wait
      // for its result instead of issuing a duplicate pread. A follower still
      // counts as a miss (the lookup was not served from RAM) but adds no
      // disk bytes — the leader's read is billed exactly once.
      auto fit = inflight_.find(key);
      if (fit != inflight_.end()) {
        std::shared_ptr<InFlightLoad> lead = fit->second;
        misses_.fetch_add(1, std::memory_order_relaxed);
        DiskMetrics::Get().misses->Increment();
        {
          obs::TraceSpan wait_span(obs::kCoordinatorLane,
                                   "store.singleflight_wait");
          WallTimer wait;
          lead->done_cv.wait(lock, [&] { return lead->done; });
          DiskMetrics::Get().singleflight_wait_us->Record(
              static_cast<uint64_t>(wait.ElapsedSeconds() * 1e6));
        }
        if (!lead->failed) return PpvRef(lead->vec);
        // The leader unwound without a result; start the lookup over (this
        // thread may become the next leader and surface the error itself).
        continue;
      }
      // Leader: the load is fully constructed before it enters the table, so
      // an allocation failure here leaves the table untouched rather than
      // holding a null entry every later lookup would wait on forever.
      load = std::make_shared<InFlightLoad>();
      inflight_.emplace(key, load);
    }
    return Load(key, kind, sub, node, eit->second, std::move(load));
  }
}

PpvPair DiskSpillStorage::FindPair(SubgraphId sub, NodeId hub) const {
  const uint64_t skel_key = MakeVectorKey(VectorKind::kSkeletonColumn, sub, hub);
  const uint64_t part_key = MakeVectorKey(VectorKind::kHubPartial, sub, hub);
  const bool has_skel = extents_.find(skel_key) != extents_.end();
  const bool has_part = extents_.find(part_key) != extents_.end();
  PpvPair pair;
  if (!has_skel && !has_part) return pair;
  {
    // Fast path: both vectors resident (the steady state once Prefetch has
    // run) resolve under a single lock acquisition.
    std::lock_guard<std::mutex> lock(mu_);
    if (has_skel) pair.skeleton = CachedLocked(skel_key);
    if (has_part) pair.partial = CachedLocked(part_key);
  }
  // Whatever the cache couldn't serve takes the full per-key Find (miss
  // accounting, singleflight, extent load) — same behavior as two Finds.
  if (has_skel && !pair.skeleton) {
    pair.skeleton = Find(VectorKind::kSkeletonColumn, sub, hub);
  }
  if (has_part && !pair.partial) {
    pair.partial = Find(VectorKind::kHubPartial, sub, hub);
  }
  return pair;
}

void DiskSpillStorage::Prefetch(std::span<const uint64_t> keys) const {
  if (keys.empty()) return;
  obs::TraceSpan span(obs::kCoordinatorLane, "store.prefetch");
  span.Arg("keys", keys.size());
  const DiskMetrics& metrics = DiskMetrics::Get();

  struct Pending {
    uint64_t key = 0;
    SpillExtent extent;
    /// Null once the load has been published (or never registered).
    std::shared_ptr<InFlightLoad> load;
  };
  // Per-kind buckets: extents sort and coalesce within their own segment.
  std::array<std::vector<Pending>, kNumVectorKinds> buckets;
  uint64_t already_resident = 0;
  {
    // A pass never plans more than half the budget of new loads: beyond
    // that the cache would evict prefetched records before the fold reads
    // them, and the batch would pay the prefetch reads AND the fold's
    // re-reads. Keys arrive in fold order, so the prefix we keep is exactly
    // what the fold needs first; the tail cold-misses as before.
    const uint64_t planned_cap = cache_budget_ / 2;
    uint64_t planned_bytes = 0;
    std::lock_guard<std::mutex> lock(mu_);
    for (uint64_t key : keys) {
      auto eit = extents_.find(key);
      if (eit == extents_.end()) continue;  // not stored on this machine
      // A record larger than the whole budget can never stay cached;
      // prefetching it would read the extent now and again at Find time,
      // doubling the I/O instead of hiding it.
      if (eit->second.length > cache_budget_) continue;
      if (cache_.find(key) != cache_.end()) {
        ++already_resident;
        continue;
      }
      // Someone (a Find leader or an earlier duplicate in `keys`) is already
      // reading this extent; they will populate the cache.
      if (inflight_.find(key) != inflight_.end()) continue;
      if (planned_bytes + eit->second.length > planned_cap) break;
      planned_bytes += eit->second.length;
      auto load = std::make_shared<InFlightLoad>();
      inflight_.emplace(key, load);
      buckets[key >> 60].push_back({key, eit->second, std::move(load)});
    }
  }
  prefetch_hits_.fetch_add(already_resident, std::memory_order_relaxed);
  metrics.prefetch_hits->Add(already_resident);
  size_t issued = 0;
  for (const auto& bucket : buckets) issued += bucket.size();
  span.Arg("loads", issued);
  if (issued == 0) return;
  prefetch_issued_.fetch_add(issued, std::memory_order_relaxed);
  metrics.prefetch_issued->Add(issued);

  // Every registered load must be resolved even if something below unwinds
  // (the reads and parses allocate): mark the unpublished remainder failed
  // and wake their followers, exactly like a failed Find leader.
  struct AbandonRest {
    const DiskSpillStorage* store;
    std::array<std::vector<Pending>, kNumVectorKinds>& buckets;
    ~AbandonRest() {
      std::lock_guard<std::mutex> lock(store->mu_);
      for (auto& bucket : buckets) {
        for (Pending& p : bucket) {
          if (p.load == nullptr) continue;
          p.load->failed = true;
          p.load->done = true;
          store->inflight_.erase(p.key);
          p.load->done_cv.notify_all();
        }
      }
    }
  } abandon{this, buckets};

  uint64_t reads = 0;
  uint64_t bytes_read = 0;
  for (auto& bucket : buckets) {
    if (bucket.empty()) continue;
    // Offset order within the segment: adjacent records — consecutive
    // appends of the same kind, the common case after per-kind segmentation
    // — coalesce into one pread.
    std::sort(bucket.begin(), bucket.end(), [](const Pending& a, const Pending& b) {
      return a.extent.offset < b.extent.offset;
    });
    SpillFile& file = SegmentFor(bucket.front().key);
    size_t i = 0;
    while (i < bucket.size()) {
      size_t j = i + 1;
      uint64_t run_end = bucket[i].extent.offset + bucket[i].extent.length;
      while (j < bucket.size() && bucket[j].extent.offset == run_end &&
             run_end - bucket[i].extent.offset + bucket[j].extent.length <=
                 kMaxPrefetchRunBytes) {
        run_end += bucket[j].extent.length;
        ++j;
      }
      const SpillExtent run{bucket[i].extent.offset,
                            run_end - bucket[i].extent.offset};
      std::vector<uint8_t> buf(run.length);
      file.Read(run, buf);
      ++reads;
      bytes_read += run.length;

      // Parse each record out of its slice of the run, then publish the
      // whole run under one lock acquisition.
      std::vector<std::pair<size_t, std::shared_ptr<const SparseVector>>> loaded;
      loaded.reserve(j - i);
      for (size_t k = i; k < j; ++k) {
        const Pending& p = bucket[k];
        ByteReader reader(buf.data() + (p.extent.offset - run.offset),
                          p.extent.length);
        VectorRecord record = VectorRecord::Deserialize(reader);
        DPPR_CHECK(reader.AtEnd());
        // The record must be the one its key promised — same aliased-extent
        // refusal as the Find miss path.
        DPPR_CHECK_EQ(MakeVectorKey(record.kind, record.sub, record.node),
                      p.key);
        loaded.emplace_back(
            k, std::make_shared<const SparseVector>(std::move(record.vec)));
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto& [k, vec] : loaded) {
          Pending& p = bucket[k];
          // A prefetched extent was read from disk, not served from RAM:
          // cache-miss semantics, billed once here (the later Find hits).
          misses_.fetch_add(1, std::memory_order_relaxed);
          metrics.misses->Increment();
          p.load->vec = vec;
          p.load->done = true;
          inflight_.erase(p.key);
          p.load->done_cv.notify_all();
          InsertIntoCacheLocked(p.key, std::move(vec),
                                static_cast<size_t>(p.extent.length));
          p.load.reset();
        }
      }
      i = j;
    }
  }
  disk_bytes_read_.fetch_add(bytes_read, std::memory_order_relaxed);
  metrics.bytes_read->Add(bytes_read);
  prefetch_coalesced_reads_.fetch_add(reads, std::memory_order_relaxed);
  metrics.prefetch_coalesced_reads->Add(reads);
  prefetch_bytes_.fetch_add(bytes_read, std::memory_order_relaxed);
  metrics.prefetch_bytes->Add(bytes_read);
  span.Arg("reads", reads);
  span.Arg("bytes", bytes_read);
}

PpvRef DiskSpillStorage::Load(uint64_t key, VectorKind kind, SubgraphId sub,
                              NodeId node, SpillExtent extent,
                              std::shared_ptr<InFlightLoad> load) const {
  // If anything below unwinds (the reads and parses allocate, so bad_alloc
  // is possible), retire the singleflight entry and wake the followers as
  // failed — otherwise they, and every future lookup of this key, would wait
  // forever on a result that can no longer arrive.
  struct AbandonOnUnwind {
    const DiskSpillStorage* store;
    uint64_t key;
    const std::shared_ptr<InFlightLoad>& load;
    bool armed = true;
    ~AbandonOnUnwind() {
      if (!armed) return;
      std::lock_guard<std::mutex> lock(store->mu_);
      load->failed = true;
      load->done = true;
      store->inflight_.erase(key);
      load->done_cv.notify_all();
    }
  } abandon{this, key, load};

  // Disk I/O and deserialization happen outside the cache lock so concurrent
  // misses on different vectors overlap their reads.
  std::vector<uint8_t> buf(extent.length);
  VectorRecord record = [&] {
    obs::TraceSpan read_span(obs::kCoordinatorLane, "store.extent_read");
    read_span.Arg("bytes", extent.length);
    WallTimer read_timer;
    SegmentFor(key).Read(extent, buf);
    ByteReader reader(buf.data(), buf.size());
    VectorRecord parsed = VectorRecord::Deserialize(reader);
    DPPR_CHECK(reader.AtEnd());
    DiskMetrics::Get().miss_extent_read_us->Record(
        static_cast<uint64_t>(read_timer.ElapsedSeconds() * 1e6));
    return parsed;
  }();
  // The record must be the one the key promised: a corrupted extent table or
  // spill file fails here instead of returning another vector's data.
  DPPR_CHECK(record.kind == kind);
  DPPR_CHECK_EQ(record.sub, sub);
  DPPR_CHECK_EQ(record.node, node);
  auto vec = std::make_shared<const SparseVector>(std::move(record.vec));

  std::lock_guard<std::mutex> lock(mu_);
  misses_.fetch_add(1, std::memory_order_relaxed);
  disk_bytes_read_.fetch_add(extent.length, std::memory_order_relaxed);
  const DiskMetrics& disk_metrics = DiskMetrics::Get();
  disk_metrics.misses->Increment();
  disk_metrics.bytes_read->Add(extent.length);
  // Publish to followers parked on this load, then retire the singleflight
  // entry — later lookups either hit the cache or start a fresh load.
  load->vec = vec;
  load->done = true;
  inflight_.erase(key);
  abandon.armed = false;
  load->done_cv.notify_all();
  InsertIntoCacheLocked(key, vec, static_cast<size_t>(extent.length));
  return PpvRef(std::move(vec));
}

void DiskSpillStorage::InsertIntoCacheLocked(
    uint64_t key, std::shared_ptr<const SparseVector> vec, size_t bytes) const {
  // The singleflight table guarantees no concurrent load of this key, so the
  // cache cannot already hold it (insertion only ever happens right here).
  DPPR_DCHECK(cache_.find(key) == cache_.end());
  std::list<uint64_t>& lru = LruFor(key);
  lru.push_front(key);
  cache_.emplace(key, CacheEntry{std::move(vec), bytes, lru.begin()});
  resident_bytes_ += bytes;
  while (resident_bytes_ > cache_budget_) {
    // Bulky kinds (hub partials, own vectors) are evicted first; the tiny
    // skeleton columns — read on every chain walk — go only once no bulky
    // entry is left to give back.
    std::list<uint64_t>& victims =
        !bulky_lru_.empty() ? bulky_lru_ : skeleton_lru_;
    if (victims.empty()) break;
    uint64_t victim = victims.back();
    victims.pop_back();
    auto vit = cache_.find(victim);
    resident_bytes_ -= vit->second.bytes;
    // Outstanding PpvRef pins (including the caller's when the budget is
    // smaller than this record) share ownership and stay valid.
    cache_.erase(vit);
  }
}

std::unique_ptr<VectorStorage> DiskSpillStorage::Clone() const {
  std::unique_ptr<DiskSpillStorage> clone(
      new DiskSpillStorage(files_, cache_budget_));
  clone->extents_ = extents_;
  clone->CopyLedgerFrom(*this);
  return clone;
}

size_t DiskSpillStorage::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

}  // namespace dppr
