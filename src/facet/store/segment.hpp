/// \file segment.hpp
/// \brief Read-only record segments backing the class store.
///
/// A Segment is an immutable sorted run of store records searchable by
/// canonical form. The store composes them into a lookup hierarchy
/// (class_store.hpp): one **base segment** — the full compacted index —
/// shadowed by zero or more small **delta segments** holding appends that
/// have not been compacted yet.
///
/// Both flavors hold their records in the one v3 record codec
/// (store_format.hpp) — one in RAM, one in a mapping — and decode a record
/// only when a probe hits it or record_at asks for it:
///
///   * MaterializedSegment — the packed record words in one flat vector,
///     store_record_words(n) words per record exactly as on disk, plus an
///     open-addressed hash index over them built once at construction. What
///     ClassStore::open without mmap produces (and every delta run); every
///     byte of the file was validated up front. A probe hashes the key once,
///     compares it with a record's canonical words in place, and usually
///     touches no record at all on a miss.
///   * MmapSegment — the record region of a `.fcs` file mapped read-only
///     and searched **in place**. Nothing is decoded at open beyond the
///     header, the tables and the footer, so opening a million-class index
///     costs microseconds instead of a full load. The block-key table is
///     lifted into RAM at open, a probe binary-searches it without touching
///     a single data page, and then scans exactly one 4 KiB block linearly
///     — O(log N_blocks) RAM compares + ~1 cold page per probe. Blocks are
///     checksum-validated lazily on first touch; a bit-flipped block raises
///     StoreFormatError at the first lookup that reads it, never silently.
///
/// Both flavors read a file through one layout parser and one block
/// validator (segment.cpp): the materialized loader over a buffered stream,
/// validating every block eagerly; the mmap flavor over its mapping,
/// validating each block lazily.
///
/// All Segment methods are const and safe to call from many threads at once
/// (lazy validation uses atomic page flags; double validation is idempotent).

#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "facet/store/store_format.hpp"
#include "facet/tt/truth_table.hpp"

namespace facet {

/// Immutable sorted run of store records, searchable by canonical form.
class Segment {
 public:
  virtual ~Segment() = default;

  [[nodiscard]] virtual int num_vars() const noexcept = 0;
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// Decodes record `i` (0 <= i < size(), ascending canonical order). The
  /// mmap flavor throws StoreFormatError if the record's page fails its
  /// lazy checksum validation.
  [[nodiscard]] virtual StoreRecord record_at(std::size_t i) const = 0;

  /// Copies record `i`'s store_record_words(n) packed words to `out` — the
  /// tier merge's read, which never decodes. The mmap flavor validates the
  /// record's page first, like record_at.
  virtual void copy_record_words(std::size_t i, std::uint64_t* out) const = 0;

  /// Record with canonical form `canonical`; nullopt when absent. The
  /// materialized flavor probes its hash index, the mmap flavor binary-
  /// searches its block keys and scans one block.
  [[nodiscard]] virtual std::optional<StoreRecord> find(const TruthTable& canonical) const = 0;
};

/// Segment over packed records held in RAM. The records must already be
/// sorted by canonical form, unique and well-formed — the store validates
/// before constructing (ClassStore's constructors, the file readers, the
/// delta flush, compaction). The records stay sorted (record_at, the tier
/// merge); lookups go through a hash index built once by the constructor.
class MaterializedSegment final : public Segment {
 public:
  /// Takes `record_words` (encode_records: store_record_words(num_vars)
  /// words per record) and builds the hash index over them: one hash per
  /// record, 16 bytes of index per record. Throws std::invalid_argument on
  /// an out-of-range width or a partial record, std::length_error past 2^30
  /// records.
  MaterializedSegment(int num_vars, std::vector<std::uint64_t> record_words);

  [[nodiscard]] int num_vars() const noexcept override { return num_vars_; }
  [[nodiscard]] std::size_t size() const noexcept override { return size_; }
  [[nodiscard]] StoreRecord record_at(std::size_t i) const override
  {
    return decode_record(num_vars_, record(i));
  }
  void copy_record_words(std::size_t i, std::uint64_t* out) const override;
  [[nodiscard]] std::optional<StoreRecord> find(const TruthTable& canonical) const override;

  /// Index of the record keyed `canonical`, or nullopt, given `hash` ==
  /// canonical.hash() — the one search behind find(), exposed so a probe
  /// of many runs hashes its key once. Linear probing from the slot the
  /// hash's low word picks; a record's canonical words are compared in
  /// place only when its slot's fingerprint matches the key's.
  [[nodiscard]] std::optional<std::size_t> find_hashed(const TruthTable& canonical,
                                                       std::uint64_t hash) const;

  /// Every record's packed words, in canonical order (what a delta-log
  /// rewrite writes back and the tier merge interleaves).
  [[nodiscard]] std::span<const std::uint64_t> record_words() const noexcept { return words_; }

 private:
  [[nodiscard]] const std::uint64_t* record(std::size_t i) const noexcept
  {
    return words_.data() + i * stride_;
  }

  int num_vars_;
  std::size_t stride_;  ///< store_record_words(num_vars_)
  std::size_t size_;
  std::vector<std::uint64_t> words_;
  /// Open-addressed index over the records: four slots per record (load
  /// 1/4, so a miss usually stops at its first, empty slot). 0 is an empty
  /// slot; a full slot packs record index + 1 into its low bits
  /// (index_mask_) and, above them, the same bits of the key hash's high
  /// word as a fingerprint.
  std::vector<std::uint32_t> slots_;
  std::uint32_t index_mask_ = 0;
};

/// Layout of one v3 base segment, parsed from its raw bytes by the one
/// layout parser both base flavors share (segment.cpp). The pointers alias
/// the parsed buffer (a mapping or a buffered stream); the block-key table
/// is copied out into RAM.
struct BaseSegmentLayout {
  int num_vars = 0;
  std::size_t num_records = 0;
  std::uint64_t num_classes = 0;  ///< next fresh class id
  std::size_t num_blocks = 0;
  std::size_t records_per_block = 0;
  std::size_t record_stride = 0;                   ///< bytes per record
  const unsigned char* blocks = nullptr;           ///< first page-aligned data block
  const unsigned char* block_checksums = nullptr;  ///< u64 per block
  /// The sparse footer index: block b's first canonical form at words
  /// [b * W, (b + 1) * W). Probing it never faults a data page.
  std::vector<std::uint64_t> block_keys;

  /// Raw bytes of record i (0 <= i < num_records); no record straddles a
  /// block.
  [[nodiscard]] const unsigned char* record(std::size_t i) const noexcept
  {
    return blocks + (i / records_per_block) * kStorePageBytes +
           (i % records_per_block) * record_stride;
  }
};

/// Segment over the record region of a `.fcs` file mapped read-only.
class MmapSegment final : public Segment {
 public:
  /// Distinct data pages examined by find/find_index calls on this mapping
  /// — deterministic page-touch accounting for the cold-probe bench and the
  /// `facet_store_probe_pages` series, independent of what the OS page
  /// cache happens to hold.
  struct ProbeStats {
    std::uint64_t probes = 0;
    std::uint64_t pages = 0;
  };

  /// Maps `path` and parses its layout; data blocks are validated lazily on
  /// first touch. Throws StoreFormatError on any structural violation.
  [[nodiscard]] static std::shared_ptr<MmapSegment> open(const std::string& path);

  ~MmapSegment() override;
  MmapSegment(const MmapSegment&) = delete;
  MmapSegment& operator=(const MmapSegment&) = delete;

  [[nodiscard]] int num_vars() const noexcept override { return layout_.num_vars; }
  [[nodiscard]] std::size_t size() const noexcept override { return layout_.num_records; }
  [[nodiscard]] StoreRecord record_at(std::size_t i) const override;
  void copy_record_words(std::size_t i, std::uint64_t* out) const override;
  [[nodiscard]] std::optional<StoreRecord> find(const TruthTable& canonical) const override;

  /// Next fresh class id recorded in the mapped header.
  [[nodiscard]] std::uint64_t num_classes() const noexcept { return layout_.num_classes; }
  /// Blocks already checksum-validated (for telemetry and tests).
  [[nodiscard]] std::size_t pages_validated() const noexcept;
  [[nodiscard]] std::size_t num_pages() const noexcept { return layout_.num_blocks; }
  /// Cumulative probe page-touch counters (see ProbeStats).
  [[nodiscard]] ProbeStats probe_stats() const noexcept;

 private:
  MmapSegment() = default;

  /// Validates block `block` (first touch only).
  void validate_page(std::size_t block) const;
  /// -1 / 0 / +1 of record i's canonical vs `key` (most-significant first).
  [[nodiscard]] int compare_canonical(std::size_t i, const TruthTable& key) const;
  /// Index of the record whose canonical equals `key`, if any.
  [[nodiscard]] std::optional<std::size_t> find_index(const TruthTable& key) const;
  /// find_index minus the accounting: binary search the in-RAM block keys,
  /// then scan one block linearly.
  [[nodiscard]] std::optional<std::size_t> find_index_blocked(const TruthTable& key,
                                                             std::uint64_t& pages_examined) const;

  const unsigned char* data_ = nullptr;  // whole mapping
  std::size_t mapped_bytes_ = 0;
  BaseSegmentLayout layout_;
  /// 0 = not yet validated, 1 = validated, one flag per block.
  mutable std::unique_ptr<std::atomic<std::uint8_t>[]> page_states_;
  mutable std::atomic<std::uint64_t> probe_count_{0};
  mutable std::atomic<std::uint64_t> probe_pages_{0};
};

/// Writes one v3 base segment — header, block-packed records, block-key
/// table, block-checksum table, footer — to `os`. `record_words` holds the
/// packed records (encode_records), sorted by canonical form. Every base
/// writer (save, compaction, fcs-merge) funnels through here. Throws
/// std::invalid_argument on a partial record.
void write_base_segment(std::ostream& os, int num_vars, std::uint64_t num_classes,
                        std::span<const std::uint64_t> record_words);

/// Materialized read of a base segment: the stream is buffered and parsed
/// by the same layout parser as MmapSegment::open, every block is checked
/// by the same block validator, and every record is loaded into packed
/// words the way decode_record reads it (excess table bits cleared, the
/// transform checked), with canonical sortedness/uniqueness and class ids
/// below the header's class count checked on top.
struct LoadedBase {
  int num_vars = 0;
  std::uint64_t num_classes = 0;
  std::vector<std::uint64_t> record_words;
};
[[nodiscard]] LoadedBase read_base_segment(std::istream& is);

/// Appends one delta frame holding the packed `record_words` (sorted by
/// canonical form) to `os`. Throws std::invalid_argument on a partial
/// record.
void write_delta_frame(std::ostream& os, int num_vars, std::uint64_t num_classes_after,
                       std::span<const std::uint64_t> record_words);

/// One loaded delta frame: its records packed like a MaterializedSegment's.
struct DeltaRun {
  std::uint64_t num_classes_after = 0;
  std::vector<std::uint64_t> record_words;
};

/// Result of replaying a delta log.
struct DeltaLogReplay {
  std::vector<DeltaRun> runs;
  /// Log prefix covered by intact frames — the truncation point that
  /// repairs a torn log.
  std::uint64_t clean_bytes = 0;
  /// True when a truncated trailing frame (a crashed append) was dropped.
  bool torn_tail = false;
};

/// Reads the frames of a delta log; validates per-frame checksums, width
/// agreement with `num_vars`, canonical sortedness within each frame, and
/// that every record's class id is below its frame's num_classes_after.
/// A truncated *trailing* frame — the signature of a crash or full disk
/// mid-append — is dropped and reported via torn_tail, never breaking the
/// intact prefix (standard write-ahead-log recovery). Corruption anywhere
/// before the tail (bad magic, checksum mismatch or an out-of-range class
/// id in a complete frame) throws StoreFormatError.
[[nodiscard]] DeltaLogReplay read_delta_log(std::istream& is, int num_vars);

}  // namespace facet
