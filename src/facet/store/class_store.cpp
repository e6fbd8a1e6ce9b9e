#include "facet/store/class_store.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "facet/npn/exact_canon.hpp"
#include "facet/obs/clock.hpp"
#include "facet/obs/registry.hpp"
#include "facet/util/hash.hpp"

namespace facet {

namespace {

/// Words per table of the store's width: the fixed key and representative
/// stride of its hot cache and memo. Clamped so an out-of-range width
/// reaches the constructor's own check.
[[nodiscard]] std::size_t table_words(int num_vars) noexcept
{
  return words_for_vars(std::clamp(num_vars, 0, kMaxVars));
}

}  // namespace

const char* lookup_source_name(LookupSource source) noexcept
{
  switch (source) {
    case LookupSource::kHotCache:
      return "cache";
    case LookupSource::kMemo:
      return "memo";
    case LookupSource::kTable:
      return "table";
    case LookupSource::kIndex:
      return "index";
    case LookupSource::kLive:
      return "live";
  }
  return "unknown";
}

ClassStore::ClassStore(int num_vars, ClassStoreOptions options)
    : num_vars_{num_vars},
      options_{options},
      gate_{std::make_unique<StoreGate<TierSnapshot>>(std::make_shared<TierSnapshot>(
          TierSnapshot{std::make_shared<MaterializedSegment>(num_vars, std::vector<StoreRecord>{}),
                       {}}))},
      memtable_{std::make_unique<Memtable>()},
      cache_{table_words(num_vars), table_words(num_vars), options.hot_cache_capacity,
             options.hot_cache_shards},
      memo_{table_words(num_vars), table_words(num_vars), options.semiclass_memo_capacity,
            options.hot_cache_shards}
{
  if (num_vars < 0 || num_vars > kMaxVars) {
    throw std::invalid_argument{"ClassStore: num_vars out of range"};
  }
  if (num_vars <= kNpn4MaxVars) {
    npn4_ = std::make_unique<Npn4Slots>(npn4_num_classes(num_vars));
  }
  resolve_metrics();
}

void ClassStore::resolve_metrics()
{
  static constexpr std::array<const char*, 6> kTierNames{"cache", "memo",  "table",
                                                         "index", "live", "miss"};
  auto& registry = obs::MetricRegistry::global();
  const std::string width = obs::label("width", num_vars_);
  for (std::size_t tier = 0; tier < lookup_latency_.size(); ++tier) {
    lookup_latency_[tier] = &registry.histogram(
        "facet_store_lookup_latency", obs::label("tier", kTierNames[tier]) + "," + width);
  }
}

void ClassStore::record_lookup_latency(std::size_t tier, std::uint64_t start_ticks) const noexcept
{
  lookup_latency_[tier]->record_ns(obs::ticks_to_ns(obs::now_ticks() - start_ticks));
}

ClassStore::ClassStore(int num_vars, std::vector<StoreRecord> records, std::uint64_t num_classes,
                       ClassStoreOptions options)
    : ClassStore{num_vars, options}
{
  std::sort(records.begin(), records.end(),
            [](const StoreRecord& a, const StoreRecord& b) { return a.canonical < b.canonical; });
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].canonical.num_vars() != num_vars_ ||
        records[i].representative.num_vars() != num_vars_) {
      throw std::invalid_argument{"ClassStore: record width does not match the store"};
    }
    if (i > 0 && records[i - 1].canonical == records[i].canonical) {
      throw std::invalid_argument{"ClassStore: duplicate canonical form"};
    }
    if (records[i].class_id >= num_classes) {
      throw std::invalid_argument{"ClassStore: record class id exceeds num_classes"};
    }
  }
  reset_tiers(std::make_shared<TierSnapshot>(
      TierSnapshot{std::make_shared<MaterializedSegment>(num_vars_, std::move(records)), {}}));
  next_class_id_.store(num_classes, std::memory_order_relaxed);
  npn4_prefill();
}

ClassStore::ClassStore(StoredTiers stored, bool mmap_backed, ClassStoreOptions options)
    : ClassStore{stored.tiers->base->num_vars(), options}
{
  reset_tiers(std::move(stored.tiers));
  mmap_backed_ = mmap_backed;
  next_class_id_.store(stored.num_classes, std::memory_order_relaxed);
  // Classes replayed from the delta log fill table-tier slots too.
  npn4_prefill();
}

ClassStore::ClassStore(ClassStore&& other) noexcept
    : num_vars_{other.num_vars_},
      options_{other.options_},
      gate_{std::move(other.gate_)},
      mmap_backed_{other.mmap_backed_},
      memtable_{std::move(other.memtable_)},
      canonicalizations_{other.canonicalizations_.load(std::memory_order_relaxed)},
      npn4_{std::move(other.npn4_)},
      table_hits_{other.table_hits_.load(std::memory_order_relaxed)},
      miss_records_{std::move(other.miss_records_)},
      next_class_id_{other.next_class_id_.load(std::memory_order_relaxed)},
      compactions_{other.compactions_.load(std::memory_order_relaxed)},
      cache_{std::move(other.cache_)},
      memo_{std::move(other.memo_)}
{
  lookup_latency_ = other.lookup_latency_;
}

ClassStore& ClassStore::operator=(ClassStore&& other) noexcept
{
  num_vars_ = other.num_vars_;
  options_ = other.options_;
  gate_ = std::move(other.gate_);
  mmap_backed_ = other.mmap_backed_;
  memtable_ = std::move(other.memtable_);
  canonicalizations_.store(other.canonicalizations_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  npn4_ = std::move(other.npn4_);
  table_hits_.store(other.table_hits_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  miss_records_ = std::move(other.miss_records_);
  next_class_id_.store(other.next_class_id_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  compactions_.store(other.compactions_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  cache_ = std::move(other.cache_);
  memo_ = std::move(other.memo_);
  lookup_latency_ = other.lookup_latency_;
  return *this;
}

void ClassStore::reset_tiers(std::shared_ptr<const TierSnapshot> tiers)
{
  const auto gate = gate_->acquire();
  gate_->publish(gate, std::move(tiers));
}

namespace {

/// Records held by a tier epoch's delta runs.
[[nodiscard]] std::size_t delta_records(const TierSnapshot& tiers) noexcept
{
  std::size_t total = 0;
  for (const auto& delta : tiers.deltas) {
    total += delta->size();
  }
  return total;
}

/// The one tier merge: the base, then the delta runs oldest first, then
/// `memtable`. A later occurrence of a canonical form shadows an earlier
/// one — the lookup order memtable -> deltas (newest first) -> base — and
/// the result is sorted by canonical form. Only the small tiers are sorted;
/// the base, already sorted and by far the largest, is merged in one pass,
/// so a compaction never holds a sort buffer the size of the index.
[[nodiscard]] std::vector<StoreRecord> merge_tiers(const TierSnapshot& tiers,
                                                   std::vector<StoreRecord> memtable = {})
{
  const auto by_canonical = [](const StoreRecord& a, const StoreRecord& b) {
    return a.canonical < b.canonical;
  };
  std::vector<StoreRecord> newer;
  newer.reserve(delta_records(tiers) + memtable.size());
  for (const auto& delta : tiers.deltas) {
    newer.insert(newer.end(), delta->records().begin(), delta->records().end());
  }
  std::move(memtable.begin(), memtable.end(), std::back_inserter(newer));
  // Stable: equal canonical forms keep tier order, newest last, so keeping
  // the last of each equal range keeps the newest.
  std::stable_sort(newer.begin(), newer.end(), by_canonical);
  const auto newest = std::unique(newer.rbegin(), newer.rend(),
                                  [](const StoreRecord& a, const StoreRecord& b) {
                                    return a.canonical == b.canonical;
                                  });
  newer.erase(newer.begin(), newest.base());

  std::vector<StoreRecord> merged;
  merged.reserve(tiers.base->size() + newer.size());
  auto next = newer.begin();
  for (std::size_t i = 0; i < tiers.base->size(); ++i) {
    StoreRecord record = tiers.base->record_at(i);
    for (; next != newer.end() && by_canonical(*next, record); ++next) {
      merged.push_back(std::move(*next));
    }
    if (next != newer.end() && next->canonical == record.canonical) {
      merged.push_back(std::move(*next++));  // a newer tier shadows the base
    } else {
      merged.push_back(std::move(record));
    }
  }
  std::move(next, newer.end(), std::back_inserter(merged));
  return merged;
}

/// True while `pinned` is an earlier epoch of the same store as `current`:
/// the same base, its delta runs a prefix of `current`'s (flushes only
/// append runs; only a compaction swaps the base).
[[nodiscard]] bool is_earlier_epoch(const TierSnapshot& pinned, const TierSnapshot& current)
{
  return pinned.base == current.base && pinned.deltas.size() <= current.deltas.size() &&
         std::equal(pinned.deltas.begin(), pinned.deltas.end(), current.deltas.begin());
}

// The store's file operations, one function each.

/// Removes the file at `path` if it exists.
void remove_file(const std::string& path)
{
  std::remove(path.c_str());
}

/// Size of the file at `path`; 0 when absent.
[[nodiscard]] std::uint64_t file_size_or_zero(const std::string& path) noexcept
{
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

/// Writes what `writer` emits to a fresh tmp file next to `path` and
/// returns its name; nothing is visible at `path` until rename_into_place.
/// A failed write removes the tmp file and throws StoreFormatError.
std::string write_tmp_file(const std::string& path,
                           const std::function<void(std::ostream&)>& writer)
{
  const std::string tmp = path + ".tmp";
  std::ofstream os{tmp, std::ios::binary | std::ios::trunc};
  if (!os) {
    throw StoreFormatError{"cannot open for writing: " + tmp};
  }
  try {
    writer(os);
    os.flush();
    if (!os) {
      throw StoreFormatError{"write failed: " + tmp};
    }
  } catch (...) {
    os.close();
    remove_file(tmp);
    throw;
  }
  return tmp;
}

/// Renames a finished tmp file over `path` (a crash or full disk mid-write
/// never destroys the file it replaces). On failure removes the tmp file
/// and throws StoreFormatError.
void rename_into_place(const std::string& tmp, const std::string& path)
{
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    remove_file(tmp);
    throw StoreFormatError{"cannot move finished file into place: " + path};
  }
}

/// Truncates the file at `path` to `size` bytes; throws StoreFormatError
/// on failure.
void truncate_file(const std::string& path, std::uint64_t size)
{
  std::error_code ec;
  std::filesystem::resize_file(path, size, ec);
  if (ec) {
    throw StoreFormatError{"cannot truncate " + path + " (" + ec.message() + ")"};
  }
}

/// Appends what `writer` emits to `path` (created if absent). If the
/// writer throws, the file is truncated back to its size before the append
/// — a partial frame never stays behind for a later append to bury
/// mid-log — and the exception propagates.
void append_to_file(const std::string& path, const std::function<void(std::ostream&)>& writer)
{
  const std::uint64_t size_before = file_size_or_zero(path);
  std::ofstream os{path, std::ios::binary | std::ios::app};
  if (!os) {
    throw StoreFormatError{"cannot open for appending: " + path};
  }
  try {
    writer(os);
  } catch (...) {
    // Close first: closing flushes whatever the stream still buffers, and
    // that must land before the truncate, not after it.
    os.close();
    truncate_file(path, size_before);
    throw;
  }
}

/// `facet_compaction_duration{phase=...}`: "total" spans the opening flush
/// through the adopt; the phases separate the gate-free merge and write
/// from the gated flush and swap.
obs::LatencyHistogram& compaction_histogram(const char* phase)
{
  return obs::MetricRegistry::global().histogram("facet_compaction_duration",
                                                 obs::label("phase", phase));
}

}  // namespace

std::size_t ClassStore::num_records() const
{
  const auto tiers = gate_->pin();
  return tiers->base->size() + delta_records(*tiers) + num_appended();
}

std::size_t ClassStore::num_appended() const
{
  const std::lock_guard<std::mutex> lock{memtable_->mutex};
  return memtable_->records.size();
}

std::size_t ClassStore::num_delta_segments() const
{
  return gate_->pin()->deltas.size();
}

std::size_t ClassStore::num_delta_records() const
{
  return delta_records(*gate_->pin());
}

const std::vector<StoreRecord>& ClassStore::records() const
{
  const auto tiers = gate_->pin();
  const auto* materialized = dynamic_cast<const MaterializedSegment*>(tiers->base.get());
  if (materialized == nullptr) {
    throw std::logic_error{
        "ClassStore::records: the base segment is mmap-backed; iterate via base_segment()"};
  }
  return materialized->records();
}

std::vector<StoreRecord> ClassStore::persisted_records() const
{
  // Copy the memtable BEFORE pinning the tiers: a concurrent flush publishes
  // its sealed run before clearing the memtable, so every record is visible
  // through at least one of the two (a record seen through both is
  // identical, and the memtable copy shadowing the run is a no-op).
  std::vector<StoreRecord> memtable;
  {
    const std::lock_guard<std::mutex> lock{memtable_->mutex};
    memtable = memtable_->records;
  }
  return merge_tiers(*gate_->pin(), std::move(memtable));
}

// -- persistence -------------------------------------------------------------

void ClassStore::save(const std::string& path) const
{
  const std::string tmp = write_tmp_file(path, [&](std::ostream& os) {
    const std::vector<StoreRecord> merged = persisted_records();
    // Loaded after the records are collected, so the header's class count
    // bounds every collected id even if an append lands in between.
    write_base_segment(os, num_vars_, num_classes(), merged);
  });
  rename_into_place(tmp, path);
}

ClassStore::StoredTiers ClassStore::read_tiers(const std::string& path, bool use_mmap,
                                               bool repair_torn_tail)
{
  StoredTiers stored{std::make_shared<TierSnapshot>()};
  if (use_mmap) {
    std::shared_ptr<MmapSegment> segment = MmapSegment::open(path);
    stored.num_classes = segment->num_classes();
    stored.tiers->base = std::move(segment);
  } else {
    std::ifstream is{path, std::ios::binary};
    if (!is) {
      throw StoreFormatError{"cannot open store file: " + path};
    }
    LoadedBase loaded = read_base_segment(is);
    stored.num_classes = loaded.num_classes;
    stored.tiers->base =
        std::make_shared<MaterializedSegment>(loaded.num_vars, std::move(loaded.records));
  }

  const int num_vars = stored.tiers->base->num_vars();
  const std::string dlog_path = delta_log_path(path);
  std::ifstream dlog{dlog_path, std::ios::binary};
  if (!dlog) {
    return stored;
  }
  DeltaLogReplay replay = read_delta_log(dlog, num_vars);
  dlog.close();
  for (auto& run : replay.runs) {
    stored.num_classes = std::max(stored.num_classes, run.num_classes_after);
    stored.tiers->deltas.push_back(
        std::make_shared<MaterializedSegment>(num_vars, std::move(run.records)));
  }
  if (replay.torn_tail && repair_torn_tail) {
    // Repair the crashed append: truncate back to the intact prefix so the
    // next flush does not write after garbage.
    truncate_file(dlog_path, replay.clean_bytes);
  }
  return stored;
}

ClassStore ClassStore::open(const std::string& path, const StoreOpenOptions& options)
{
  return ClassStore{read_tiers(path, options.use_mmap, /*repair_torn_tail=*/true),
                    options.use_mmap, options.store};
}

std::size_t ClassStore::reload(const std::string& path)
{
  // Build the replacement tiers fully before taking the gate — the re-open
  // and replay are the slow part, and readers keep serving the old epoch
  // until the single publish below. A torn tail is dropped from the replay
  // but deliberately NOT truncated on disk: the log belongs to the primary,
  // and a replica observing the primary mid-append must not repair (or
  // race) the primary's file.
  StoredTiers stored = read_tiers(path, mmap_backed_, /*repair_torn_tail=*/false);
  if (stored.tiers->base->num_vars() != num_vars_) {
    throw StoreFormatError{"reloaded store file has a different width: " + path};
  }
  const std::size_t served = stored.tiers->base->size() + delta_records(*stored.tiers);

  const auto gate = gate_->acquire();
  // Monotone: ids handed out by this process never regress even if the
  // on-disk state observed here is older than what we already served.
  std::uint64_t current = next_class_id_.load(std::memory_order_relaxed);
  while (current < stored.num_classes &&
         !next_class_id_.compare_exchange_weak(current, stored.num_classes,
                                               std::memory_order_relaxed)) {
  }
  gate_->publish(gate, std::move(stored.tiers));
  // Table/cache/memo tiers survive a reload by design: class ids are stable
  // across compaction, so previously published slots stay correct.
  npn4_prefill();
  return served;
}

std::size_t ClassStore::flush_delta_locked(const std::unique_lock<std::mutex>& gate,
                                           std::ostream& os)
{
  // Only gate holders mutate the memtable, so reading it here needs no
  // memtable lock; the lock below covers the clear, which readers can race.
  if (memtable_->records.empty()) {
    return 0;
  }
  std::vector<StoreRecord> run = memtable_->records;
  std::sort(run.begin(), run.end(),
            [](const StoreRecord& a, const StoreRecord& b) { return a.canonical < b.canonical; });
  write_delta_frame(os, num_vars_, num_classes(), run);
  os.flush();
  if (!os) {
    throw StoreFormatError{"delta frame write failed"};
  }

  // Commit only now that the whole frame is written: a failed write above
  // leaves the memtable and the published runs as they were. Publish the
  // sealed run BEFORE clearing the memtable: a reader always finds an
  // in-flight record through at least one of the two tiers.
  auto next = std::make_shared<TierSnapshot>(*gate_->pin());
  next->deltas.push_back(std::make_shared<MaterializedSegment>(num_vars_, std::move(run)));
  gate_->publish(gate, std::move(next));
  std::size_t flushed = 0;
  {
    const std::lock_guard<std::mutex> lock{memtable_->mutex};
    flushed = memtable_->records.size();
    memtable_->records.clear();
    memtable_->index.clear();
  }
  // Every flush lands here: the one count behind `stats all`'s `flushed=`.
  static obs::Counter& flushed_total =
      obs::MetricRegistry::global().counter("facet_store_flushed_records_total");
  flushed_total.inc(flushed);
  return flushed;
}

std::size_t ClassStore::flush_delta(std::ostream& os)
{
  const auto gate = gate_->acquire();
  return flush_delta_locked(gate, os);
}

std::size_t ClassStore::flush_delta(const std::string& dlog_path)
{
  const auto gate = gate_->acquire();
  if (memtable_->records.empty()) {
    return 0;
  }
  std::size_t flushed = 0;
  append_to_file(dlog_path, [&](std::ostream& os) { flushed = flush_delta_locked(gate, os); });
  return flushed;
}

void ClassStore::compact(const std::string& path)
{
  finish_compaction(path, begin_compaction(path));
}

CompactionSnapshot ClassStore::begin_compaction(const std::string& path)
{
  CompactionSnapshot snapshot;
  snapshot.start_ticks = obs::now_ticks();
  snapshot.flushed = flush_delta(delta_log_path(path));
  snapshot.tiers = gate_->pin();
  // Loaded after the pin: every id in the pinned tiers predates the pin, so
  // this (possibly newer) count bounds them all — a valid, if conservative,
  // header value for the compacted base.
  snapshot.num_classes = num_classes();
  snapshot.flush_ns = obs::ticks_to_ns(obs::now_ticks() - snapshot.start_ticks);
  return snapshot;
}

void ClassStore::finish_compaction(const std::string& path, CompactionSnapshot snapshot)
{
  static constexpr const char* kForeign =
      "ClassStore::finish_compaction: snapshot is not from this store state";
  // Cheap early check, so a foreign or stale snapshot writes nothing; the
  // authoritative check runs under the gate below.
  if (!is_earlier_epoch(*snapshot.tiers, *gate_->pin())) {
    throw std::logic_error{kForeign};
  }

  // Merge and write with no gate held: the pinned segments are immutable.
  const std::uint64_t t_merge = obs::now_ticks();
  std::vector<StoreRecord> merged = merge_tiers(*snapshot.tiers);
  const std::uint64_t t_write = obs::now_ticks();
  const std::string tmp = write_tmp_file(path, [&](std::ostream& os) {
    write_base_segment(os, num_vars_, snapshot.num_classes, merged);
  });
  // A materialized base builds its hash index here, before the gate and
  // inside the "write" phase: the merged records are immutable and nothing
  // else sees them yet.
  std::shared_ptr<const Segment> materialized;
  if (!mmap_backed_) {
    materialized = std::make_shared<MaterializedSegment>(num_vars_, std::move(merged));
  }
  const std::uint64_t t_adopt = obs::now_ticks();

  {
    const auto gate = gate_->acquire();
    const auto tiers = gate_->pin();
    if (!is_earlier_epoch(*snapshot.tiers, *tiers)) {
      remove_file(tmp);
      throw std::logic_error{kForeign};
    }

    // Swap order is crash-safe for concurrent open()s by other processes:
    // first the new base lands (rename), then the delta log shrinks to the
    // surviving runs. A crash in between leaves the new base plus a log
    // that still replays the merged runs — they shadow the base with
    // identical records, so the store stays consistent.
    rename_into_place(tmp, path);
    const std::string dlog = delta_log_path(path);
    const auto survivors = tiers->deltas.begin() +
                           static_cast<std::ptrdiff_t>(snapshot.tiers->deltas.size());
    if (survivors == tiers->deltas.end()) {
      remove_file(dlog);
    } else {
      // Runs flushed while the merge ran survive: rewrite the log with only
      // their frames. num_classes() bounds every surviving id, so it is a
      // valid (if conservative) num_classes_after for each frame.
      const std::string log_tmp = write_tmp_file(dlog, [&](std::ostream& os) {
        for (auto run = survivors; run != tiers->deltas.end(); ++run) {
          write_delta_frame(os, num_vars_, num_classes(), (*run)->records());
        }
      });
      rename_into_place(log_tmp, dlog);
    }

    // Construct the replacement base BEFORE publishing: if the re-open
    // throws (transient fd pressure on an mmap-backed store), the published
    // tiers keep serving old base + runs — the disk is already consistent
    // either way, and the compactor simply retries.
    auto next = std::make_shared<TierSnapshot>();
    next->base = mmap_backed_ ? MmapSegment::open(path) : std::move(materialized);
    next->deltas.assign(survivors, tiers->deltas.end());
    gate_->publish(gate, std::move(next));
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);

  const std::uint64_t t_done = obs::now_ticks();
  compaction_histogram("flush").record_ns(snapshot.flush_ns);
  compaction_histogram("merge").record_ns(obs::ticks_to_ns(t_write - t_merge));
  compaction_histogram("write").record_ns(obs::ticks_to_ns(t_adopt - t_write));
  compaction_histogram("adopt").record_ns(obs::ticks_to_ns(t_done - t_adopt));
  compaction_histogram("total").record_ns(obs::ticks_to_ns(t_done - snapshot.start_ticks));
}

std::uint64_t ClassStore::delta_log_size(const std::string& dlog_path) noexcept
{
  return file_size_or_zero(dlog_path);
}

// -- lookup tiers ------------------------------------------------------------

namespace {

/// What a probe of the index tiers reads out of a hit: the whole record
/// (find_canonical, the walk) ...
struct ReadRecord {
  using Result = std::optional<StoreRecord>;
  [[nodiscard]] Result operator()(const StoreRecord& record) const { return record; }
  [[nodiscard]] Result operator()(const Segment& segment, const TruthTable& key) const
  {
    return segment.find(key);
  }
};

/// ... or only its class id (find_class_id), which no segment materializes
/// a record for.
struct ReadClassId {
  using Result = std::optional<std::uint32_t>;
  [[nodiscard]] Result operator()(const StoreRecord& record) const { return record.class_id; }
  [[nodiscard]] Result operator()(const Segment& segment, const TruthTable& key) const
  {
    return segment.find_class_id(key);
  }
};

}  // namespace

template <typename Read>
typename Read::Result ClassStore::probe_tiers(const TruthTable& canonical, const Read& read) const
{
  // Memtable BEFORE the pin: a concurrent flush publishes its sealed run
  // before clearing the memtable, so a record mid-flush is visible through
  // at least one of the two probes.
  {
    const std::lock_guard<std::mutex> lock{memtable_->mutex};
    if (const auto it = memtable_->index.find(canonical); it != memtable_->index.end()) {
      return read(memtable_->records[it->second]);
    }
  }
  const auto tiers = gate_->pin();
  const std::uint64_t hash = canonical.hash();  // one hash for every run
  for (auto delta = tiers->deltas.rbegin(); delta != tiers->deltas.rend(); ++delta) {
    if (const StoreRecord* record = (*delta)->find_hashed(canonical, hash)) {
      return read(*record);
    }
  }
  return read(*tiers->base, canonical);
}

std::optional<StoreRecord> ClassStore::find_canonical(const TruthTable& canonical) const
{
  return probe_tiers(canonical, ReadRecord{});
}

std::optional<std::uint32_t> ClassStore::find_class_id(const TruthTable& canonical) const
{
  return probe_tiers(canonical, ReadClassId{});
}

StoreLookupResult ClassStore::make_result(const StoreRecord& record,
                                          const NpnTransform& query_to_canonical,
                                          LookupSource source) const
{
  // query --t--> canonical --inverse(rep_to_canonical)--> representative.
  StoreLookupResult result;
  result.class_id = record.class_id;
  result.representative = record.representative;
  result.to_representative = compose(inverse(record.rep_to_canonical), query_to_canonical);
  result.known = true;
  result.source = source;
  return result;
}

void ClassStore::check_width(const TruthTable& f, const char* who) const
{
  if (f.num_vars() != num_vars_) {
    std::ostringstream msg;
    msg << who << ": query has " << f.num_vars() << " variables, store holds " << num_vars_;
    throw std::invalid_argument{msg.str()};
  }
}

void ClassStore::npn4_publish(std::size_t class_index, const StoreRecord& record) const
{
  const std::lock_guard<std::mutex> lock{npn4_->mutex};
  if (npn4_->slots[class_index].load(std::memory_order_relaxed) != nullptr) {
    return;  // two racing resolvers of one class: first publish wins
  }
  auto owned = std::make_unique<const StoreRecord>(record);
  npn4_->slots[class_index].store(owned.get(), std::memory_order_release);
  npn4_->storage.push_back(std::move(owned));
}

void ClassStore::npn4_prefill()
{
  if (npn4_ == nullptr) {
    return;
  }
  for (std::size_t index = 0; index < npn4_->slots.size(); ++index) {
    if (npn4_->slots[index].load(std::memory_order_relaxed) != nullptr) {
      continue;
    }
    if (const auto record = find_canonical(npn4_class_canonical(num_vars_, index))) {
      npn4_publish(index, *record);
    }
  }
}

std::optional<StoreLookupResult> ClassStore::probe_cache(const TruthTable& f) const
{
  if (f.num_vars() != num_vars_) {
    return std::nullopt;
  }
  std::optional<Npn4Result> table;
  return probe_front(f, table);
}

std::optional<StoreLookupResult> ClassStore::probe_front(const TruthTable& f,
                                                         std::optional<Npn4Result>& table) const
{
  if (npn4_ == nullptr) {
    return cached_answer(cache_, f, LookupSource::kHotCache);
  }
  // Tier 0: one table load resolves class index + canonical + witness. No
  // cache, no memo, no canonicalization — the table IS the canonicalizer
  // here, and a filled slot never pins the gate.
  const Npn4Result& entry = table.emplace(npn4_lookup(f));
  const StoreRecord* slot = npn4_->slots[entry.class_index].load(std::memory_order_acquire);
  if (slot == nullptr) {
    return std::nullopt;
  }
  table_hits_.fetch_add(1, std::memory_order_relaxed);
  return make_result(*slot, entry.transform, LookupSource::kTable);
}

std::optional<StoreLookupResult> ClassStore::cached_answer(const AnswerCache& cache,
                                                           const TruthTable& key,
                                                           LookupSource source) const
{
  std::optional<StoreLookupResult> result{std::in_place};
  result->representative = TruthTable{num_vars_};
  CacheEntry entry;
  if (cache.get(key.words(), entry, result->representative.words())) {
    result->class_id = entry.class_id;
    result->to_representative = entry.to_representative;
    result->known = true;
    result->source = source;
  } else {
    result.reset();
  }
  return result;
}

void ClassStore::cache_put(const TruthTable& f, const StoreLookupResult& result) const
{
  cache_.put(f.words(), CacheEntry{result.class_id, result.to_representative},
             result.representative.words());
}

std::optional<StoreLookupResult> ClassStore::memo_probe(const TruthTable& f,
                                                        const SemiclassResult& sc) const
{
  std::optional<StoreLookupResult> result = cached_answer(memo_, sc.image, LookupSource::kMemo);
  if (result.has_value()) {
    // f --sc.transform--> image --entry.to_representative--> representative.
    result->to_representative = compose(result->to_representative, sc.transform);
    cache_put(f, *result);
  }
  return result;
}

void ClassStore::memo_insert(const SemiclassResult& sc, const StoreLookupResult& result) const
{
  // image --inverse(sc.transform)--> f --result.to_representative--> representative.
  memo_.put(sc.image.words(),
            CacheEntry{result.class_id, compose(result.to_representative, inverse(sc.transform))},
            result.representative.words());
}

/// What a tier walk that resolved nowhere searchless hands the index probe
/// and the miss policy: the query, its canonical form and witness (from the
/// norm table, or from the canonicalizer), and where an index hit warms —
/// the table slot of the query's class (width <= 4), or
/// the query's semiclass form (the memo key; null with the memo off).
struct ClassStore::Miss {
  const TruthTable& query;
  CanonResult canon;
  std::optional<std::size_t> npn4_class;
  const SemiclassResult* sc = nullptr;
};

template <typename OnMiss>
std::optional<StoreLookupResult> ClassStore::walk(const TruthTable& f,
                                                  OnMiss&& on_miss) const
{
  // The table/cache/memo tiers resolve in a few hundred ns — even one clock
  // read stalls them measurably, so their series sample 1 in
  // kFastTierSample events (see obs::sample_1_in). The canonicalize-and-
  // search tiers are microseconds-scale and time every event; an unsampled
  // slow lookup starts its clock after the fast probes, which under-reports
  // by the probe cost (~2% of a cold lookup) instead of taxing every warm
  // hit.
  const bool sampled = obs::sample_1_in<kFastTierSample>();
  std::uint64_t t0 = sampled ? obs::now_ticks() : 0;
  std::optional<Npn4Result> table;
  std::optional<StoreLookupResult> result = probe_front(f, table);
  std::optional<SemiclassResult> sc;
  if (!result.has_value() && !table.has_value() && options_.semiclass_memo_capacity > 0) {
    result = memo_probe(f, sc.emplace(semiclass_form(f)));
  }
  const bool searched = !result.has_value();
  if (searched) {
    if (!sampled) {
      t0 = obs::now_ticks();
    }
    CanonResult canon;
    std::optional<std::size_t> npn4_class;
    if (table.has_value()) {
      // Slot cold: the table entry is f's canonical form and witness —
      // still searchless, and an index hit fills the slot.
      canon = {TruthTable::from_word(num_vars_, table->canonical_word), table->transform};
      npn4_class = table->class_index;
    } else {
      // A memo miss hands its semiclass form to the canonicalizer as the
      // seed.
      canonicalizations_.fetch_add(1, std::memory_order_relaxed);
      canon = sc.has_value() ? exact_npn_canonical_with_transform(f, *sc)
                             : exact_npn_canonical_with_transform(f);
    }
    const Miss miss{f, std::move(canon), npn4_class, sc.has_value() ? &*sc : nullptr};
    result = probe_index(miss);
    if (!result.has_value()) {
      result = on_miss(miss);
    }
  }
  if (sampled || searched) {
    record_lookup_latency(
        result.has_value() ? static_cast<std::size_t>(result->source) : kMissTier, t0);
  }
  return result;
}

std::optional<StoreLookupResult> ClassStore::probe_index(const Miss& miss) const
{
  const std::optional<StoreRecord> record = find_canonical(miss.canon.canonical);
  if (!record.has_value()) {
    return std::nullopt;
  }
  if (miss.npn4_class.has_value()) {
    // The table did the canonicalization, so the hit reports src=table and
    // fills the class's slot: every later query is one array load. The hot
    // cache and the memo stay cold (the slot outperforms both).
    npn4_publish(*miss.npn4_class, *record);
    table_hits_.fetch_add(1, std::memory_order_relaxed);
    return make_result(*record, miss.canon.transform, LookupSource::kTable);
  }
  StoreLookupResult result = make_result(*record, miss.canon.transform, LookupSource::kIndex);
  cache_put(miss.query, result);
  if (miss.sc != nullptr) {
    memo_insert(*miss.sc, result);
  }
  return result;
}

std::optional<StoreLookupResult> ClassStore::lookup(const TruthTable& f) const
{
  check_width(f, "ClassStore::lookup");
  return walk(f, [](const Miss&) { return std::optional<StoreLookupResult>{}; });
}

StoreLookupResult ClassStore::lookup_or_classify(const TruthTable& f, bool append_on_miss)
{
  check_width(f, "ClassStore::lookup_or_classify");
  return *walk(f, [&](const Miss& miss) { return classify_miss(miss, append_on_miss); });
}

StoreLookupResult ClassStore::classify_miss(const Miss& miss, bool append_on_miss)
{
  // Serialize through the gate and re-probe — a concurrent session may have
  // appended this very class between the walk's probe and the gate.
  const auto gate = gate_->acquire();
  if (std::optional<StoreLookupResult> hit = probe_index(miss)) {
    return std::move(*hit);
  }

  // Live tier: the class is new. Reuse (or allocate) its dense id and keep
  // the first query as representative so repeated misses stay consistent.
  const auto transient = miss_records_.find(miss.canon.canonical);
  StoreRecord record;
  if (transient != miss_records_.end()) {
    record = transient->second;
  } else {
    record.canonical = miss.canon.canonical;
    record.representative = miss.query;
    record.rep_to_canonical = miss.canon.transform;
    record.class_id =
        static_cast<std::uint32_t>(next_class_id_.fetch_add(1, std::memory_order_acq_rel));
    record.class_size = 1;
  }

  StoreLookupResult result = make_result(record, miss.canon.transform, LookupSource::kLive);
  result.known = false;

  if (append_on_miss) {
    if (transient != miss_records_.end()) {
      miss_records_.erase(transient);
    }
    {
      const std::lock_guard<std::mutex> lock{memtable_->mutex};
      memtable_->index.emplace(record.canonical,
                               static_cast<std::uint32_t>(memtable_->records.size()));
      memtable_->records.push_back(record);
    }
    if (miss.npn4_class.has_value()) {
      // Persistent from here on: the slot may serve it. Transient misses
      // (the else branch) never fill a slot — they must keep reporting
      // known=false until someone appends them.
      npn4_publish(*miss.npn4_class, record);
    } else {
      // Appends warm only the hot cache: the memo learns the class from its
      // first index hit, so a novel-class stream never fills it.
      cache_put(miss.query, result);
    }
  } else if (transient == miss_records_.end()) {
    miss_records_.emplace(record.canonical, record);
  }
  return result;
}

}  // namespace facet
