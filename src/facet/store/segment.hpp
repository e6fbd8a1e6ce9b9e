/// \file segment.hpp
/// \brief Read-only record segments backing the class store.
///
/// A Segment is an immutable sorted run of StoreRecords searchable by
/// canonical form. The store composes them into a lookup hierarchy
/// (class_store.hpp): one **base segment** — the full compacted index —
/// shadowed by zero or more small **delta segments** holding appends that
/// have not been compacted yet.
///
/// Two base flavors exist:
///
///   * MaterializedSegment — records decoded into a std::vector, plus an
///     open-addressed hash index over them built once at construction. What
///     ClassStore::open without mmap produces (and every delta run); every
///     byte of the file was validated up front. A probe hashes the key once
///     and usually touches no record at all on a miss.
///   * MmapSegment — the record region of a `.fcs` file mapped read-only
///     and searched **in place**. Nothing is decoded at open beyond the
///     header, the tables and the footer, so opening a million-class index
///     costs microseconds instead of a full decode. The block-key table is
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

  /// Record with canonical form `canonical`; nullopt when absent. The
  /// materialized flavor probes its hash index, the mmap flavor binary-
  /// searches its block keys and scans one block.
  [[nodiscard]] virtual std::optional<StoreRecord> find(const TruthTable& canonical) const = 0;

  /// The same probe returning only the class id — the batch-engine hot
  /// path. Neither flavor materializes a record for this.
  [[nodiscard]] virtual std::optional<std::uint32_t> find_class_id(
      const TruthTable& canonical) const = 0;
};

/// Segment over records held in RAM. The records must already be sorted by
/// canonical form, unique and width-consistent — the store validates before
/// constructing (ClassStore's constructors, the delta replay, compaction).
/// The records stay sorted (record_at, the tier merge); lookups go through
/// a hash index built once by the constructor.
class MaterializedSegment final : public Segment {
 public:
  /// Takes the records and builds the hash index over them: one hash per
  /// record, 16 bytes of index per record. Throws std::length_error past
  /// 2^30 records.
  MaterializedSegment(int num_vars, std::vector<StoreRecord> records);

  [[nodiscard]] int num_vars() const noexcept override { return num_vars_; }
  [[nodiscard]] std::size_t size() const noexcept override { return records_.size(); }
  [[nodiscard]] StoreRecord record_at(std::size_t i) const override { return records_[i]; }
  [[nodiscard]] std::optional<StoreRecord> find(const TruthTable& canonical) const override;
  [[nodiscard]] std::optional<std::uint32_t> find_class_id(
      const TruthTable& canonical) const override;

  [[nodiscard]] const std::vector<StoreRecord>& records() const noexcept { return records_; }

  /// The record keyed `canonical`, or null, given `hash` ==
  /// canonical.hash() — the one search behind find() and find_class_id(),
  /// exposed so a probe of many runs hashes its key once. Linear probing
  /// from the slot the hash's low word picks; a record is compared only
  /// when its slot's fingerprint matches the key's.
  [[nodiscard]] const StoreRecord* find_hashed(const TruthTable& canonical,
                                               std::uint64_t hash) const;

 private:
  int num_vars_;
  std::vector<StoreRecord> records_;
  /// Open-addressed index over records_: four slots per record (load 1/4,
  /// so a miss usually stops at its first, empty slot). 0 is an empty
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
  /// Distinct data pages examined by find/find_class_id/find_index calls on
  /// this mapping — deterministic page-touch accounting for the cold-probe
  /// bench and the `facet_store_probe_pages` series, independent of what
  /// the OS page cache happens to hold.
  struct ProbeStats {
    std::uint64_t probes = 0;
    std::uint64_t pages = 0;
  };

  /// Maps `path` and parses its layout; data blocks are validated lazily on
  /// first touch. Throws StoreFormatError on any
  /// structural violation, and std::runtime_error when the platform has no
  /// mmap (see mmap_supported()).
  [[nodiscard]] static std::shared_ptr<MmapSegment> open(const std::string& path);

  ~MmapSegment() override;
  MmapSegment(const MmapSegment&) = delete;
  MmapSegment& operator=(const MmapSegment&) = delete;

  [[nodiscard]] int num_vars() const noexcept override { return layout_.num_vars; }
  [[nodiscard]] std::size_t size() const noexcept override { return layout_.num_records; }
  [[nodiscard]] StoreRecord record_at(std::size_t i) const override;
  [[nodiscard]] std::optional<StoreRecord> find(const TruthTable& canonical) const override;
  [[nodiscard]] std::optional<std::uint32_t> find_class_id(
      const TruthTable& canonical) const override;

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

/// True when this platform supports MmapSegment (POSIX mmap).
[[nodiscard]] bool mmap_supported() noexcept;

/// Writes one v3 base segment — header, block-packed records, block-key
/// table, block-checksum table, footer — to `os`. `records` must be sorted
/// by canonical form. Every base writer (save, compaction, fcs-merge)
/// funnels through here.
void write_base_segment(std::ostream& os, int num_vars, std::uint64_t num_classes,
                        std::span<const StoreRecord> records);

/// Materialized read of a base segment: the stream is buffered and parsed
/// by the same layout parser as MmapSegment::open, every block is checked
/// by the same block validator, and every record is decoded, with
/// canonical sortedness/uniqueness and class ids below the header's class
/// count checked on top.
struct LoadedBase {
  int num_vars = 0;
  std::uint64_t num_classes = 0;
  std::vector<StoreRecord> records;
};
[[nodiscard]] LoadedBase read_base_segment(std::istream& is);

/// Appends one delta frame holding `records` (sorted by canonical form) to
/// `os`.
void write_delta_frame(std::ostream& os, int num_vars, std::uint64_t num_classes_after,
                       std::span<const StoreRecord> records);

/// One decoded delta frame.
struct DeltaRun {
  std::uint64_t num_classes_after = 0;
  std::vector<StoreRecord> records;
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
