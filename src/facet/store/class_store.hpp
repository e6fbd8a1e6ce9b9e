/// \file class_store.hpp
/// \brief Segmented, disk-backed NPN class store with a hot-cache front end.
///
/// A ClassStore holds the classification knowledge of one function width n:
/// one record per NPN class, keyed by the exact canonical form
/// (exact_npn_canonical), carrying the dense class id, the first dataset
/// member as representative, the class size, and the transform mapping the
/// representative onto the canonical form. Lookup of a query function f
/// resolves through one tier walk — the single description of the read
/// path; lookup() and lookup_or_classify() share tiers 0-5 and differ only
/// in what a miss does:
///
///   0. table       — every store of width <= 4, and no wider one: the
///                    baked NPN4 norm table
///                    (npn4_table.hpp) resolves class index, canonical form
///                    and witness in ONE array load, and a per-class
///                    write-once slot turns that into the full store answer
///                    — no canonicalizer, no cache, no gate, no search. A
///                    cold slot skips tiers 1-2 and probes the index with
///                    the table's canonical form; a hit fills the slot;
///   1. hot cache   — f itself was looked up recently: one probe of a
///                    sharded set-associative table keyed by f's words, no
///                    canonicalization at all (hot_cache.hpp). A miss also
///                    yields the cache's admission verdict on f: admit while
///                    the cache has room, else only when f repeats (its tag
///                    is one of the last keys declined in its set);
///   2. memo        — semiclass memo: map f to its one-pass semiclass image
///                    (semiclass_form, semiclass.hpp, word-level and
///                    allocation-free for n <= 7) and probe a second such
///                    table keyed by that exact image — no search, no exact
///                    canonicalization. A hit warms the hot cache only when
///                    tier 1 admitted f, so a stream of orbit images that
///                    never repeat costs no put and no eviction; index hits
///                    and live appends always warm it;
///   3. memtable    — canonicalize f with a witnessing transform (seeded by
///                    its semiclass form), then probe the unflushed appends
///                    (hash map);
///   4. delta runs  — flushed-but-uncompacted append runs, consulted
///                    newest-first (each a small sorted MaterializedSegment,
///                    probed through its hash index);
///   5. base        — the compacted index: materialized in RAM (open) and
///                    probed through its hash index, or searched in place
///                    over a read-only mmap of the `.fcs` file (open with
///                    use_mmap; a binary search of the in-RAM block keys,
///                    then one lazily page-validated block). An index hit
///                    warms the hot cache and the memo;
///   6. live        — lookup_or_classify() only (lookup() answers nullopt):
///                    under the store gate, re-probe tiers 3-5, then
///                    classify live, allocating the next dense class id,
///                    and optionally appending the new class to the store.
///
/// The semiclass memo exists because exact canonicalization dominates every
/// tier below it: a memo hit replaces the canonical-form search with one
/// cofactor-ordering pass plus a hash probe. The memo maps a semiclass image
/// to its class id, representative and image->representative transform, and
/// a hit composes that transform with the query's witness onto the image —
/// exact by construction, since the image is a member of the query's orbit.
/// Only index hits are memoized: appends and live misses never insert (a
/// class's first index hit through some image memoizes that image), so the
/// transient non-appending misses keep reporting known=false. Class ids are
/// bit-identical with the memo enabled, disabled, or mid-eviction.
///
/// Appends accumulate in the memtable until flush_delta() seals them into an
/// immutable delta run (and, given a path, appends one frame to the
/// `<index>.fcs.dlog` log — an O(delta) write, unlike the O(index) rewrite
/// of save()). A flush commits only once its whole frame is written: a
/// failed write leaves the memtable and the runs as they were and the log
/// at its size before the frame. compact() folds base + deltas + memtable
/// back into a single fresh base via write-then-rename and clears the log.
/// open() restores the whole hierarchy: base segment plus every logged
/// delta run.
///
/// Persistence has one path per job (class_store.cpp): one tier merge
/// (persisted_records, save and compaction), one tmp-file writer and one
/// rename (save, the compacted base, the compaction's log rewrite), one
/// frame append (flush), one truncate (a failed append, a torn log tail on
/// open) and one delta-log replay (open and reload).
///
/// Class ids are assigned by first occurrence at build time, exactly as the
/// sequential classifiers assign them, so classifying a dataset through
/// lookups is bit-identical to classify_exhaustive / classify_batch(kExhaustive)
/// output — including on a store that starts empty and learns every class
/// through the live tier.
///
/// ## Concurrency
///
/// The store synchronizes itself — callers (the serve sessions, the network
/// server, the background compactor) never wrap it in an external lock:
///
///   * The immutable tiers — base segment + delta runs — are published as
///     one swapped-wholesale TierSnapshot (gate.hpp). Readers pin the
///     current snapshot (a pointer-copy handoff, never a wait on a
///     mutator's critical section) and search it with no lock held; a
///     flush or compaction swap publishes a fresh snapshot and the retired
///     epoch is freed by the last pin that drops it.
///   * The memtable is guarded by a mutex of its own, held only for the
///     hash probe / insert — never across canonicalization, segment
///     searches or I/O.
///   * The semiclass memo is a sharded set-associative table like the hot
///     cache: each shard mutex is held for one set probe or insert, and the
///     image derivation runs outside it. Shard mutexes are leaf locks (an
///     index hit resolved under the gate inserts while holding it; nothing
///     is taken after).
///   * Mutations — lookup_or_classify's live tier, flush_delta, the
///     compaction's flush and its final swap — serialize on one small
///     per-store gate.
///     Canonicalization (the expensive step) always happens before the
///     gate is taken; lookup_or_classify re-probes the index under the
///     gate, so two sessions racing on the same novel class agree on one
///     id and one appended record. save() is a snapshot-ordered *reader*
///     (it holds no gate): concurrent appends may or may not land in the
///     written file, and only the caller's own file-level coordination
///     prevents two writers racing on one target path.
///
/// Thread-safe from any mix of threads: lookup(), find_canonical(),
/// lookup_or_classify(), persisted_records(), tier_snapshot(),
/// flush_delta(), compact() and its two halves, and the counters
/// (num_records / num_appended / num_delta_segments / num_classes / ...).
/// Readers never enter the mutation gate: the snapshot pin and the memtable
/// probe each take a dedicated mutex for a pointer copy / one hash op —
/// never across canonicalization, segment searches or I/O, so a flush
/// writing its frame or a compactor mid-merge cannot stall them.
/// Not synchronized: construction, move, two compactions of one store
/// overlapping, and save()/compact() racing other mutators of the same
/// *file*. Every accessor returns a value or a pinned epoch, never a
/// reference into tiers a compaction swap could retire.
///
/// compact() never stalls readers or appenders behind its heavy merge. It
/// runs in four phases: flush the memtable into the delta log (gated, like
/// any flush), pin the base + delta runs (no gate), merge and write the
/// fresh base to a tmp file with no gate held (the segments are immutable
/// and shared), then adopt it through the gate (cheap) — runs flushed or
/// records appended while the merge ran survive untouched. The CLI, the
/// background compactor (net/server.hpp) and the tests all run this one
/// path; begin_compaction() / finish_compaction() expose its two halves
/// for callers that act between them.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "facet/npn/exact_canon.hpp"
#include "facet/npn/npn4_table.hpp"
#include "facet/npn/semiclass.hpp"
#include "facet/npn/transform.hpp"
#include "facet/obs/histogram.hpp"
#include "facet/store/gate.hpp"
#include "facet/store/hot_cache.hpp"
#include "facet/store/segment.hpp"
#include "facet/store/store_format.hpp"
#include "facet/tt/truth_table.hpp"

namespace facet {

/// Which tier resolved a lookup.
enum class LookupSource {
  kHotCache,  ///< hot-cache hit (query's own words); no canonicalization
  kMemo,      ///< semiclass-memo hit: exact image key, no canonicalization
  kTable,     ///< NPN4 norm table (every width <= 4 store): one array load, no search
  kIndex,     ///< canonicalized, found in memtable / delta runs / base
  kLive,      ///< canonicalized, unknown: classified live (fresh class id)
};

/// Stable wire/CLI name of a lookup source: "cache", "memo", "table",
/// "index" or "live".
[[nodiscard]] const char* lookup_source_name(LookupSource source) noexcept;

struct StoreLookupResult {
  std::uint32_t class_id = 0;
  /// The class representative the query maps onto (the query itself for a
  /// class first seen through the live tier).
  TruthTable representative;
  /// apply_transform(query, to_representative) == representative.
  NpnTransform to_representative;
  /// True iff the class was already in the store (records or appended).
  bool known = false;
  LookupSource source = LookupSource::kIndex;
};

struct ClassStoreOptions {
  /// Total hot-cache entries across shards (a hard bound); 0 disables the
  /// cache.
  std::size_t hot_cache_capacity = 1u << 16;
  std::size_t hot_cache_shards = 8;
  /// Total semiclass-memo entries (one per memoized image) across
  /// `hot_cache_shards` shards; 0 disables the memo tier. Like the hot
  /// cache, the memo is a set-associative table: a put into a full set
  /// evicts that set's least recently used entry — correctness never
  /// depends on what the memo holds. Both tables allocate as they fill.
  std::size_t semiclass_memo_capacity = 1u << 16;
};

/// The immutable read tiers of one epoch: the base segment plus the delta
/// runs sealed so far, oldest first. Published atomically through the
/// store's gate; a pinned snapshot stays alive and bit-stable across any
/// number of concurrent flushes and compaction swaps.
struct TierSnapshot {
  std::shared_ptr<const Segment> base;
  std::vector<std::shared_ptr<const MaterializedSegment>> deltas;
};

/// The first half of a compaction (ClassStore::begin_compaction): the
/// tiers pinned right after the memtable was flushed into the delta log.
/// Segments are immutable and reference-counted, so the merge and write of
/// finish_compaction() work off this snapshot with no store gate held while
/// readers and appenders keep going.
struct CompactionSnapshot {
  /// The base and the delta runs the compaction folds into the new base.
  std::shared_ptr<const TierSnapshot> tiers;
  /// num_classes() right after the pin — the new base's header value.
  std::uint64_t num_classes = 0;
  /// Memtable records the opening flush sealed into the last run.
  std::size_t flushed = 0;
  /// obs::now_ticks() when the flush began, and the flush-and-pin time —
  /// the start and the `flush` phase of `facet_compaction_duration`.
  std::uint64_t start_ticks = 0;
  std::uint64_t flush_ns = 0;
};

/// How ClassStore::open materializes the base segment.
struct StoreOpenOptions {
  /// Map the `.fcs` record region read-only and search it in place instead
  /// of decoding every record into RAM.
  bool use_mmap = false;
  ClassStoreOptions store{};
};

class ClassStore {
 public:
  /// An empty store of width `num_vars` — every class arrives through the
  /// live tier of lookup_or_classify().
  explicit ClassStore(int num_vars, ClassStoreOptions options = {});

  /// A store over prebuilt records (store_builder.hpp). Records are sorted
  /// by canonical form; duplicate canonical forms throw std::invalid_argument.
  /// `num_classes` is the next fresh class id (>= every record's id + 1).
  ClassStore(int num_vars, std::vector<StoreRecord> records, std::uint64_t num_classes,
             ClassStoreOptions options = {});

  /// Movable (the factory functions return by value), but a move is NOT
  /// thread-safe: the source must be quiescent.
  ClassStore(ClassStore&& other) noexcept;
  ClassStore& operator=(ClassStore&& other) noexcept;
  ClassStore(const ClassStore&) = delete;
  ClassStore& operator=(const ClassStore&) = delete;
  ~ClassStore() = default;

  [[nodiscard]] int num_vars() const noexcept { return num_vars_; }
  /// Persisted classes: base records, flushed delta runs, and the memtable.
  /// Racing a flush, the count can transiently include the sealing run
  /// twice (the run is published before the memtable clears, so no record
  /// is ever *missing*); lookups are unaffected — the overlap shadows
  /// itself with identical records.
  [[nodiscard]] std::size_t num_records() const;
  /// Unflushed appends (live misses with append_on_miss) in the memtable.
  [[nodiscard]] std::size_t num_appended() const;
  /// Flushed-but-uncompacted delta runs.
  [[nodiscard]] std::size_t num_delta_segments() const;
  [[nodiscard]] std::size_t num_delta_records() const;
  /// Next fresh class id == total classes seen (persisted + live-transient).
  [[nodiscard]] std::uint64_t num_classes() const noexcept
  {
    return next_class_id_.load(std::memory_order_acquire);
  }

  /// Pins the current epoch of immutable tiers (base + delta runs). The
  /// returned snapshot stays alive and bit-stable for as long as the caller
  /// holds it, across any concurrent flush or compaction swap.
  [[nodiscard]] std::shared_ptr<const TierSnapshot> tier_snapshot() const
  {
    return gate_->pin();
  }

  /// True when the base serves from a read-only mmap instead of RAM.
  [[nodiscard]] bool mmap_backed() const noexcept { return mmap_backed_; }

  /// Every persisted record — base, delta runs and memtable merged by the
  /// one tier merge (newest occurrence of a canonical form wins) — sorted by
  /// canonical form.
  [[nodiscard]] std::vector<StoreRecord> persisted_records() const;

  // -- persistence ---------------------------------------------------------

  /// Writes base + deltas + memtable, re-sorted by canonical form, as one
  /// fresh base segment to a tmp file renamed over `path`. Live-transient
  /// class ids (non-appending misses) are not persisted.
  void save(const std::string& path) const;

  /// Opens `path` and replays its delta log (delta_log_path(path)) if
  /// present, restoring every flushed run as an immutable delta segment.
  /// The base is materialized and eagerly validated — header
  /// magic/version/width, table and block checksums, canonical
  /// sortedness/uniqueness, class ids below the header count, transform
  /// sanity — or, with use_mmap, mapped zero-copy and validated page by
  /// page. Throws StoreFormatError on any violation, including a file of
  /// any version but kStoreVersion. A torn trailing frame — a crash or full
  /// disk mid-flush — is dropped and the log is truncated back to its
  /// intact prefix, so a crashed append never bricks the store; corruption
  /// before the tail throws StoreFormatError.
  [[nodiscard]] static ClassStore open(const std::string& path,
                                       const StoreOpenOptions& options = {});

  /// Companion delta-log file of a base index path.
  [[nodiscard]] static std::string delta_log_path(const std::string& path)
  {
    return path + ".dlog";
  }

  /// Re-opens `path` (same flavor as open(): mmap-backed stores remap, the
  /// rest rematerialize), replays its delta log, and publishes the fresh
  /// base + runs as a new tier epoch — the readonly-replica adopt path
  /// after a primary's compaction rename. Readers pinned to the old epoch
  /// keep serving it until they drop the pin; the hot cache, memo and NPN4
  /// slots survive untouched (class ids and canonical forms are stable
  /// across compaction). Unlike open(), a torn trailing delta frame is
  /// dropped WITHOUT truncating the log — the file belongs to the primary.
  /// The memtable is untouched (a replica's is empty). Throws
  /// StoreFormatError if the file is unreadable or its width disagrees;
  /// the published tiers are unchanged on throw. Returns the number of
  /// records now served from the reloaded base + runs.
  std::size_t reload(const std::string& path);

  /// Seals the memtable into an immutable delta segment, appending it as
  /// one frame to `os`. Returns the number of records flushed (0 = no-op).
  /// Commits — publishes the run, clears the memtable — only after the
  /// whole frame was written and `os` flushed; on a failed write it throws
  /// StoreFormatError and changes nothing. Serialized through the store
  /// gate; readers keep serving throughout.
  std::size_t flush_delta(std::ostream& os);
  /// Same, appending the frame to the delta log at `dlog_path`. A failed
  /// append also truncates the log back to its size before the frame, so
  /// the next flush never writes after a partial frame.
  std::size_t flush_delta(const std::string& dlog_path);

  /// Folds the memtable and every delta run into a fresh base segment at
  /// `path` (always written, so `path` may name a new file), removes the
  /// delta log, and re-tiers this store on the compacted base (remapped
  /// when the store is mmap-backed): finish_compaction(path,
  /// begin_compaction(path)). Readers and appenders keep going while it
  /// merges and writes; appends that land meanwhile survive.
  void compact(const std::string& path);

  /// compact()'s first half (cheap): flushes the memtable into
  /// delta_log_path(path) (through the gate, like any flush), then pins the
  /// base and every sealed delta run without entering the gate.
  [[nodiscard]] CompactionSnapshot begin_compaction(const std::string& path);

  /// compact()'s second half. With no gate held, merges the snapshot's
  /// tiers (the one tier merge) and writes them as a base segment to a tmp
  /// file. Then, through the gate: renames it over `path`, rewrites the
  /// delta log to hold only the runs flushed *after* the snapshot (removing
  /// it when none survive), drops the merged runs, and re-tiers this store
  /// on the compacted base (remapped when mmap-backed). Records each phase
  /// in `facet_compaction_duration{phase=flush|merge|write|adopt|total}`.
  /// The snapshot must have been taken from this store and still prefix its
  /// delta runs — throws std::logic_error otherwise, leaving `path` and the
  /// log untouched. Appends and flushes that happened between the halves
  /// survive; readers pinned to the old epoch keep serving it until they
  /// drop the pin.
  void finish_compaction(const std::string& path, CompactionSnapshot snapshot);

  /// Compactions applied to this store object — trigger/telemetry input for
  /// the background compactor.
  [[nodiscard]] std::uint64_t num_compactions() const noexcept
  {
    return compactions_.load(std::memory_order_relaxed);
  }

  /// Bytes currently in the delta log at `dlog_path` (0 when absent) — what
  /// a compaction folds away (CompactionEvent::bytes).
  [[nodiscard]] static std::uint64_t delta_log_size(const std::string& dlog_path) noexcept;

  // -- lookup tiers --------------------------------------------------------

  /// Index probe by canonical form — the walk's index tiers: the memtable
  /// (under its mutex, before the pin), then the delta runs newest-first
  /// with one hash of the key, then the base segment. No canonicalization,
  /// no cache.
  [[nodiscard]] std::optional<StoreRecord> find_canonical(const TruthTable& canonical) const;

  /// Full read-only lookup: the tier walk (file comment) through tier 5.
  /// nullopt if the class is not in the store.
  [[nodiscard]] std::optional<StoreLookupResult> lookup(const TruthTable& f) const;

  /// The same tier walk as lookup(), with live fallback on a miss: unknown
  /// canonical forms are classified live under the next dense class id.
  /// With `append_on_miss` the new class becomes a persistent record (and
  /// is served from the index from then on); without it the id is
  /// remembered only for this store object's lifetime, keeping repeated
  /// queries consistent. Known classes resolve without touching the gate;
  /// the miss path serializes through it and re-probes, so concurrent
  /// sessions racing on one novel class agree on one id.
  [[nodiscard]] StoreLookupResult lookup_or_classify(const TruthTable& f,
                                                     bool append_on_miss = false);

  // -- hot cache -----------------------------------------------------------

  [[nodiscard]] HotCacheStats hot_cache_stats() const { return cache_.stats(); }
  void clear_hot_cache() const { cache_.clear(); }

  // -- semiclass memo --------------------------------------------------------

  /// Lookups resolved by the semiclass memo (LookupSource::kMemo).
  [[nodiscard]] std::uint64_t num_memo_hits() const { return memo_.stats().hits; }
  /// Exact canonicalizations performed inside lookup() / lookup_or_classify()
  /// — queries that missed both the hot cache and the memo. Probes through
  /// the *_canonical entry points canonicalize on the caller's side and are
  /// not counted.
  [[nodiscard]] std::uint64_t num_canonicalizations() const noexcept
  {
    return canonicalizations_.load(std::memory_order_relaxed);
  }
  /// Semiclass images currently held by the memo (several per class).
  [[nodiscard]] std::size_t memo_entries() const { return memo_.size(); }
  /// Memo probes attempted (hits + misses).
  [[nodiscard]] std::uint64_t num_memo_probes() const
  {
    const HotCacheStats stats = memo_.stats();
    return stats.hits + stats.misses;
  }
  /// Always false: the memo is never switched off at run time. Kept for
  /// callers that report it as a counter.
  [[nodiscard]] bool memo_bypassed() const noexcept { return false; }

  // -- NPN4 table tier -------------------------------------------------------

  /// Lookups resolved by the NPN4 norm-table tier (LookupSource::kTable).
  /// Always 0 on stores wider than 4 variables.
  [[nodiscard]] std::uint64_t num_table_hits() const noexcept
  {
    return table_hits_.load(std::memory_order_relaxed);
  }

 private:
  /// A resolved answer for one key table — the query itself (hot cache) or
  /// a semiclass image (memo): apply_transform(key, to_representative) ==
  /// representative. The representative's words are the entry's payload.
  struct CacheEntry {
    std::uint32_t class_id = 0;
    NpnTransform to_representative;
  };
  using AnswerCache = SetAssociativeCache<CacheEntry>;
  /// What a walk that found nothing searchless hands the index probe and
  /// the miss policy (class_store.cpp).
  struct Miss;

  /// persisted_records() before decoding: the one tier merge over the
  /// pinned tiers and the memtable, as packed records (what save writes).
  [[nodiscard]] std::vector<std::uint64_t> persisted_words() const;

  /// The memtable (tier 3): live misses with append_on_miss, hash-indexed
  /// by canonical form; sealed into a delta run by flush_delta(). Only gate
  /// holders mutate it; the mutex lets readers probe it concurrently, and
  /// is held for single map operations only — never across I/O.
  struct Memtable {
    mutable std::mutex mutex;
    std::vector<StoreRecord> records;
    std::unordered_map<TruthTable, std::uint32_t, TruthTableHash> index;
  };

  /// Tier 0 (every width <= 4 store): one write-once slot per NPN
  /// class of the store's width, indexed by the norm table's dense class
  /// index. A filled slot points at an immutable heap-owned record, so a
  /// reader resolves a query with one npn4_lookup plus one acquire load —
  /// no gate pin, no cache, no canonicalizer. Slots are published under the
  /// writer mutex (double-checked) when a class first resolves through the
  /// index or is appended; transient non-appending misses never fill a slot
  /// (they must keep reporting known=false). Class ids and canonical forms
  /// never change across flush/compaction, so a published record stays
  /// valid for the store's lifetime.
  struct Npn4Slots {
    std::mutex mutex;
    std::vector<std::unique_ptr<const StoreRecord>> storage;
    std::vector<std::atomic<const StoreRecord*>> slots;
    explicit Npn4Slots(std::size_t count) : slots(count) {}
  };

  /// The tiers stored at one index path and the next fresh class id they
  /// record (the base header's, raised by any replayed frame's).
  struct StoredTiers {
    std::shared_ptr<TierSnapshot> tiers;
    std::uint64_t num_classes = 0;
  };

  /// A store over tiers read from disk (open()).
  ClassStore(StoredTiers stored, bool mmap_backed, ClassStoreOptions options);

  [[nodiscard]] StoreLookupResult make_result(const StoreRecord& record,
                                              const NpnTransform& query_to_canonical,
                                              LookupSource source) const;
  void check_width(const TruthTable& f, const char* who) const;
  /// Replaces the published tiers (construction time; not concurrent).
  void reset_tiers(std::shared_ptr<const TierSnapshot> tiers);
  /// The one reader of an index path behind open() and reload(): its base
  /// segment in either flavor plus the one delta-log replay, one run per
  /// intact frame. A torn trailing frame is dropped; `repair_torn_tail`
  /// (open) also truncates it away on disk — reload() leaves the file,
  /// which belongs to the primary, alone.
  [[nodiscard]] static StoredTiers read_tiers(const std::string& path, bool use_mmap,
                                              bool repair_torn_tail);
  /// The walk's first two tiers: at width <= 4, the norm-table entry of f
  /// (kept in `table` for the slower tiers) and its class's slot; wider,
  /// the hot cache, whose miss sets `admit` to its verdict on a put of f.
  /// Returns by value into the walk's result, so a cache hit is never
  /// moved a second time.
  [[nodiscard]] std::optional<StoreLookupResult> probe_front(
      const TruthTable& f, std::optional<Npn4Result>& table, bool& admit) const;
  /// The answer `cache` holds under `key`, reported as `source`. On a miss
  /// a non-null `admit` receives the cache's admission verdict.
  [[nodiscard]] std::optional<StoreLookupResult> cached_answer(const AnswerCache& cache,
                                                               const TruthTable& key,
                                                               LookupSource source,
                                                               bool* admit = nullptr) const;
  /// Hot-cache put of f's resolved answer.
  void cache_put(const TruthTable& f, const StoreLookupResult& result) const;
  /// Memo probe by f's semiclass image `sc`; a hit warms the hot cache when
  /// the hot cache admitted f. nullopt when no resolved class was memoized
  /// under that image.
  [[nodiscard]] std::optional<StoreLookupResult> memo_probe(const TruthTable& f,
                                                            const SemiclassResult& sc,
                                                            bool admit) const;
  /// Memoizes an index-resolved answer for f under f's semiclass image `sc`.
  void memo_insert(const SemiclassResult& sc, const StoreLookupResult& result) const;
  /// The tier walk behind lookup() and lookup_or_classify(): tiers 0-5 of
  /// the file comment, then `on_miss(miss)` when none resolved f.
  /// Records the call's latency under its resolving tier.
  template <typename OnMiss>
  [[nodiscard]] std::optional<StoreLookupResult> walk(const TruthTable& f,
                                                      OnMiss&& on_miss) const;
  /// The index tiers (memtable, delta runs, base) by the miss's canonical
  /// form, and the one index-hit handler: a hit fills the class's table
  /// slot (width <= 4), else warms the hot cache and the memo.
  [[nodiscard]] std::optional<StoreLookupResult> probe_index(const Miss& miss) const;
  /// lookup_or_classify()'s miss policy: the gated re-probe, then the live
  /// tier (live misses, appended or not, are never memoized).
  [[nodiscard]] StoreLookupResult classify_miss(const Miss& miss, bool append_on_miss);
  /// Publishes `record` into the table-tier slot of `class_index`
  /// (double-checked under the slot writer mutex; no-op when already
  /// filled). const because slots warm from const lookups, like the cache.
  void npn4_publish(std::size_t class_index, const StoreRecord& record) const;
  /// Fills every slot whose class canonical the index already holds —
  /// construction/open time, so an exhaustively-built store answers every
  /// query from the table without ever pinning the gate.
  void npn4_prefill();
  /// Writes the memtable as one frame to `os` and flushes it; only then
  /// publishes it as a delta run and clears the memtable. Gate held.
  std::size_t flush_delta_locked(const std::unique_lock<std::mutex>& gate, std::ostream& os);

  /// Resolves the per-tier lookup-latency histograms of this store's width
  /// from the global metric registry into lookup_latency_ (construction
  /// time only; the hot path touches just the cached pointers).
  void resolve_metrics();
  /// Records one lookup's latency (ticks since `start_ticks`) under its
  /// resolving tier. `tier` indexes lookup_latency_: the LookupSource value,
  /// or kMissTier for a read-only lookup that resolved nowhere.
  void record_lookup_latency(std::size_t tier, std::uint64_t start_ticks) const noexcept;
  /// lookup_latency_ slot of a lookup() miss (nullopt: canonicalized, not
  /// in any tier) — one past the LookupSource values.
  static constexpr std::size_t kMissTier = 5;
  /// Sampling period of the cache/memo latency series: those tiers resolve
  /// in a few hundred ns, where even one clock read is a measurable stall,
  /// so only 1 in this many events is timed (obs::sample_1_in). The
  /// canonicalize-and-search tiers time every event.
  static constexpr unsigned kFastTierSample = 64;

  int num_vars_;
  ClassStoreOptions options_;
  /// Per-tier `facet_store_lookup_latency{tier=...,width=<n>}` handles,
  /// indexed by LookupSource (+ kMissTier). Pointers into the process-wide
  /// registry: stable forever, shared by stores of the same width, copied
  /// wholesale on move.
  std::array<obs::LatencyHistogram*, 6> lookup_latency_{};
  /// The store gate: publishes the TierSnapshot epochs (tiers 4 + 5) and
  /// serializes mutators. unique_ptr so the store stays movable.
  std::unique_ptr<StoreGate<TierSnapshot>> gate_;
  bool mmap_backed_ = false;
  std::unique_ptr<Memtable> memtable_;
  mutable std::atomic<std::uint64_t> canonicalizations_{0};
  /// Tier 0 slots; non-null iff num_vars_ <= 4. unique_ptr
  /// so the store stays movable (slot atomics are not).
  std::unique_ptr<Npn4Slots> npn4_;
  mutable std::atomic<std::uint64_t> table_hits_{0};
  /// Live-transient classes (non-appending misses), keyed by canonical form.
  /// Never visible to find_canonical(), the hot cache or the memo, so they
  /// keep reporting known=false. Gate holders only.
  std::unordered_map<TruthTable, StoreRecord, TruthTableHash> miss_records_;
  std::atomic<std::uint64_t> next_class_id_{0};
  std::atomic<std::uint64_t> compactions_{0};
  /// The hot cache (tier 1): query -> answer. Warmed from const lookups.
  AnswerCache cache_;
  /// The semiclass memo (tier 2): semiclass image -> answer for that image.
  /// Warmed from const lookups, like the hot cache.
  AnswerCache memo_;
};

}  // namespace facet
