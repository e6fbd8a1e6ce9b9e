/// \file store_format.hpp
/// \brief On-disk format of the persistent NPN class store (`.fcs` files).
///
/// A `.fcs` file holds the classification knowledge of one function width as
/// one immutable **base segment**: a fixed-size little-endian header followed
/// by records sorted by canonical form. A reader answers "which class is
/// this canonical form?" through a hash index built over the records after
/// a materialized load, or with one binary search of the block keys plus
/// one block scan directly in the page cache through a read-only mmap
/// (segment.hpp). Layout (version 3, all integers little-endian):
///
///   header (48 bytes)
///     u64  magic         "FACETFCS"
///     u32  version       kStoreVersion (any other version is rejected)
///     u32  num_vars      function width n (0 <= n <= kMaxVars)
///     u64  num_records   record count
///     u64  num_classes   next fresh class id (== class count for built
///                        stores; appended deltas may leave gaps)
///     u64  payload_hash  hash_words over the block-key table and the
///                        block-checksum table in file order
///     u64  reserved      zero
///
///   record ((2 * W + 3) * 8 bytes each, W = words_for_vars(n))
///     u64[W]  canonical       exact NPN canonical form (unique sort key)
///     u64[W]  representative  first dataset member of the class
///     u64     (class_id << 32) | class_size
///     u64[2]  packed NPN transform with
///             apply_transform(representative, t) == canonical
///
///   header padding
///     The header page is zero-padded to kStorePageBytes so every data
///     block below starts page-aligned in the mapping — the property that
///     makes "one block" mean "one page fault".
///
///   blocks (num_blocks * kStorePageBytes bytes)
///     Records are packed into fixed-size kStorePageBytes blocks — one
///     page each, store_records_per_block(n) records per block, no record
///     straddling a block boundary. The tail of the last block is
///     zero-padded. A probe binary-searches the in-RAM block-key table
///     (below) and then touches exactly one data page, scanned linearly.
///
///   block-key table (num_blocks * W * 8 bytes)
///     u64[W] per block — the canonical form of each block's first record,
///     the sparse footer index. Readers lift this into RAM at open so the
///     block search faults zero data pages.
///
///   block-checksum table (num_blocks * 8 bytes)
///     u64[num_blocks]  checksum of each full kStorePageWords-word block
///                      (zero padding included). The mmap reader validates
///                      blocks lazily on first touch; the materialized
///                      loader validates all of them.
///
///   segment footer (40 bytes, see SegmentFooter — num_pages counts blocks)
///
/// Appends between compactions live outside the base segment in a
/// log-structured **delta log** (`<index>.dlog`): a sequence of independent
/// frames, each a small sorted run of records flushed in one append. Frame
/// layout:
///
///   frame header (40 bytes, see DeltaFrameHeader)
///     u64  magic              "FCSDELT1"
///     u64  version | num_vars << 32
///     u64  num_records        records in this run
///     u64  num_classes_after  next fresh class id after applying the run
///     u64  payload_hash       hash_words over the run's record words
///   records (same codec as the base segment, sorted by canonical form)
///
/// The checksums reject bit-rot and truncation; the version field rejects
/// files written by incompatible layouts. Everything here is pure encoding —
/// segments live in segment.hpp, the serving store in class_store.hpp.

#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "facet/npn/transform.hpp"
#include "facet/tt/truth_table.hpp"
#include "facet/util/hash.hpp"

namespace facet {

/// Raised on any malformed, corrupt, truncated or incompatible store file.
class StoreFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// "FACETFCS" read as a little-endian u64.
inline constexpr std::uint64_t kStoreMagic = 0x5343'4654'4543'4146ULL;

/// The one format version (block-packed segments with a sparse block-key
/// footer index); bumped on any layout change. Files and delta frames of
/// any other version are rejected.
inline constexpr std::uint32_t kStoreVersion = 3;

/// Serialized header size in bytes.
inline constexpr std::size_t kStoreHeaderBytes = 48;

/// Size of one record block — the granularity of lazy checksum validation
/// on the mmap read path.
inline constexpr std::size_t kStorePageBytes = 4096;
inline constexpr std::size_t kStorePageWords = kStorePageBytes / 8;

/// "FCSFOOT1" read as a little-endian u64.
inline constexpr std::uint64_t kStoreFooterMagic = 0x3154'4f4f'4653'4346ULL;

/// Serialized SegmentFooter size in bytes (magic + 3 fields + self-hash).
inline constexpr std::size_t kStoreFooterBytes = 40;

/// "FCSDELT1" read as a little-endian u64.
inline constexpr std::uint64_t kDeltaFrameMagic = 0x3154'4c45'4453'4346ULL;

/// Serialized DeltaFrameHeader size in bytes.
inline constexpr std::size_t kDeltaFrameHeaderBytes = 40;

struct StoreHeader {
  std::uint32_t version = kStoreVersion;
  std::uint32_t num_vars = 0;
  std::uint64_t num_records = 0;
  std::uint64_t num_classes = 0;
  std::uint64_t payload_hash = 0;
};

/// Trailer of a base segment, after the checksum table. Lets a reader
/// cross-check the record/block geometry implied by the header and reject
/// files whose tail was cut or overwritten. num_pages counts blocks and
/// record_words counts actual record words (zero padding excluded).
struct SegmentFooter {
  std::uint64_t page_size = kStorePageBytes;
  std::uint64_t num_pages = 0;
  std::uint64_t record_words = 0;  ///< total record-region size in u64 words
};

/// Header of one delta-log frame (the records follow immediately).
struct DeltaFrameHeader {
  std::uint32_t version = kStoreVersion;
  std::uint32_t num_vars = 0;
  std::uint64_t num_records = 0;
  std::uint64_t num_classes_after = 0;
  std::uint64_t payload_hash = 0;
};

/// One NPN class of the store — the record both segment flavors decode to.
struct StoreRecord {
  /// Exact canonical form — the unique class key and the sort order on disk.
  TruthTable canonical;
  /// First dataset member of the class (build order), the function lookups
  /// are mapped back onto.
  TruthTable representative;
  /// apply_transform(representative, rep_to_canonical) == canonical.
  NpnTransform rep_to_canonical;
  /// Dense id, assigned by first occurrence at build time.
  std::uint32_t class_id = 0;
  /// Members in the build dataset (1 for appended classes).
  std::uint32_t class_size = 0;
};

/// Number of u64 words one record occupies for an n-variable store.
[[nodiscard]] std::size_t store_record_words(int num_vars) noexcept;

/// Records packed into one block: >= 1 up to n = 13 (a 2,072-byte record),
/// 0 past it — a width no base segment can hold, which the writer and the
/// layout parser reject.
[[nodiscard]] std::size_t store_records_per_block(int num_vars) noexcept;

/// Number of blocks holding `num_records` records of an n-variable store.
[[nodiscard]] std::uint64_t store_num_blocks(std::uint64_t num_records, int num_vars) noexcept;

/// Streaming checksum over a u64 word sequence, seeded with the sequence
/// length so truncations that happen to hash-collide on a prefix are still
/// rejected. The data blocks, the header's table hash, the footer and the
/// delta frames all use this.
class PayloadHasher {
 public:
  explicit PayloadHasher(std::uint64_t num_words) noexcept
      : state_{0x8f1bbcdcbfa53e0bULL ^ (num_words * 0xff51afd7ed558ccdULL)}
  {
  }

  void mix(std::uint64_t word) noexcept { state_ = hash_combine64(state_, word); }
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_;
};

/// Decodes a little-endian u64 from raw bytes (every read path).
[[nodiscard]] std::uint64_t load_le64(const unsigned char* bytes) noexcept;

/// Checksum of `num_words` little-endian u64 words starting at `bytes`.
[[nodiscard]] std::uint64_t checksum_le_words(const unsigned char* bytes,
                                              std::size_t num_words) noexcept;

/// Writes the header (including magic) to `os`.
void write_store_header(std::ostream& os, const StoreHeader& header);

/// Writes the footer (magic, fields, self-hash) to `os`.
void write_segment_footer(std::ostream& os, const SegmentFooter& footer);

/// Parses a footer from its raw serialized bytes; throws StoreFormatError
/// on a bad magic or self-hash.
[[nodiscard]] SegmentFooter parse_segment_footer(const unsigned char* bytes);

void write_delta_frame_header(std::ostream& os, const DeltaFrameHeader& header);

/// Little-endian u64 writer, shared with the record codec in segment.cpp.
void write_u64_le(std::ostream& os, std::uint64_t value);

/// Packs an NpnTransform into two words: word 0 carries perm as 16 nibbles,
/// word 1 carries input_neg (low 32 bits) and output_neg (bit 32).
[[nodiscard]] std::array<std::uint64_t, 2> pack_transform(const NpnTransform& t) noexcept;

/// Inverse of pack_transform; validates that perm is a permutation of
/// [0, num_vars) and that the negation masks fit the width.
[[nodiscard]] NpnTransform unpack_transform(int num_vars, const std::array<std::uint64_t, 2>& words);

/// Appends `record`'s store_record_words(n) words to `out` in file order —
/// the single encoder of the record layout.
void append_record_words(std::vector<std::uint64_t>& out, const StoreRecord& record);

/// `records` packed back to back in the record codec, store_record_words(n)
/// words each: the form every segment writer and MaterializedSegment take.
[[nodiscard]] std::vector<std::uint64_t> encode_records(std::span<const StoreRecord> records);

/// Decodes the packed record at `words` (store_record_words(num_vars) of
/// them) — the single decoder, behind both segment flavors. Throws
/// StoreFormatError when the transform words are not a transform of the
/// width.
[[nodiscard]] StoreRecord decode_record(int num_vars, const std::uint64_t* words);

/// Class id of the packed record at `words`.
[[nodiscard]] inline std::uint32_t record_class_id(int num_vars,
                                                   const std::uint64_t* words) noexcept
{
  return static_cast<std::uint32_t>(words[2 * words_for_vars(num_vars)] >> 32);
}

/// -1 / 0 / +1 of canonical form `a` against `b`, both `num_words` words —
/// the order records are sorted in (most-significant word first, like
/// TruthTable's operator<=>).
[[nodiscard]] int compare_canonical_words(const std::uint64_t* a, const std::uint64_t* b,
                                          std::size_t num_words) noexcept;

/// Compact single-token rendering for the line protocol and CLI output:
/// "p2,0,1:n3:o1" = perm (2,0,1), input_neg 0b011, output negated.
[[nodiscard]] std::string transform_to_compact(const NpnTransform& t);

}  // namespace facet
