#include "facet/store/store_format.hpp"

#include <ostream>
#include <sstream>

namespace facet {

namespace {

/// Self-hash of the footer's leading words, so a torn or overwritten tail is
/// distinguishable from a valid one regardless of record-region contents.
std::uint64_t footer_hash(const SegmentFooter& footer) noexcept
{
  PayloadHasher hasher{4};
  hasher.mix(kStoreFooterMagic);
  hasher.mix(footer.page_size);
  hasher.mix(footer.num_pages);
  hasher.mix(footer.record_words);
  return hasher.value();
}

}  // namespace

std::size_t store_record_words(int num_vars) noexcept
{
  return 2 * words_for_vars(num_vars) + 3;
}

std::size_t store_records_per_block(int num_vars) noexcept
{
  return kStorePageWords / store_record_words(num_vars);
}

std::uint64_t store_num_blocks(std::uint64_t num_records, int num_vars) noexcept
{
  const std::uint64_t per_block = store_records_per_block(num_vars);
  return (num_records + per_block - 1) / per_block;
}

std::uint64_t load_le64(const unsigned char* bytes) noexcept
{
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  }
  return value;
}

std::uint64_t checksum_le_words(const unsigned char* bytes, std::size_t num_words) noexcept
{
  PayloadHasher hasher{num_words};
  for (std::size_t w = 0; w < num_words; ++w) {
    hasher.mix(load_le64(bytes + 8 * w));
  }
  return hasher.value();
}

void write_u64_le(std::ostream& os, std::uint64_t value)
{
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  os.write(bytes, 8);
}

void write_store_header(std::ostream& os, const StoreHeader& header)
{
  write_u64_le(os, kStoreMagic);
  write_u64_le(os, static_cast<std::uint64_t>(header.version) |
                       (static_cast<std::uint64_t>(header.num_vars) << 32));
  write_u64_le(os, header.num_records);
  write_u64_le(os, header.num_classes);
  write_u64_le(os, header.payload_hash);
  write_u64_le(os, 0);  // reserved
}

void write_segment_footer(std::ostream& os, const SegmentFooter& footer)
{
  write_u64_le(os, kStoreFooterMagic);
  write_u64_le(os, footer.page_size);
  write_u64_le(os, footer.num_pages);
  write_u64_le(os, footer.record_words);
  write_u64_le(os, footer_hash(footer));
}

SegmentFooter parse_segment_footer(const unsigned char* bytes)
{
  if (load_le64(bytes) != kStoreFooterMagic) {
    throw StoreFormatError{"corrupt store: segment footer magic mismatch"};
  }
  SegmentFooter footer;
  footer.page_size = load_le64(bytes + 8);
  footer.num_pages = load_le64(bytes + 16);
  footer.record_words = load_le64(bytes + 24);
  if (load_le64(bytes + 32) != footer_hash(footer)) {
    throw StoreFormatError{"corrupt store: segment footer failed its self-check"};
  }
  return footer;
}

void write_delta_frame_header(std::ostream& os, const DeltaFrameHeader& header)
{
  write_u64_le(os, kDeltaFrameMagic);
  write_u64_le(os, static_cast<std::uint64_t>(header.version) |
                       (static_cast<std::uint64_t>(header.num_vars) << 32));
  write_u64_le(os, header.num_records);
  write_u64_le(os, header.num_classes_after);
  write_u64_le(os, header.payload_hash);
}

std::array<std::uint64_t, 2> pack_transform(const NpnTransform& t) noexcept
{
  std::uint64_t perm_word = 0;
  for (int i = 0; i < t.num_vars; ++i) {
    perm_word |= static_cast<std::uint64_t>(t.perm[static_cast<std::size_t>(i)] & 0xf) << (4 * i);
  }
  const std::uint64_t neg_word =
      static_cast<std::uint64_t>(t.input_neg) | (t.output_neg ? (1ULL << 32) : 0);
  return {perm_word, neg_word};
}

NpnTransform unpack_transform(int num_vars, const std::array<std::uint64_t, 2>& words)
{
  NpnTransform t = NpnTransform::identity(num_vars);
  std::uint32_t seen = 0;
  for (int i = 0; i < num_vars; ++i) {
    const auto v = static_cast<std::uint8_t>((words[0] >> (4 * i)) & 0xf);
    if (v >= num_vars || ((seen >> v) & 1u) != 0) {
      throw StoreFormatError{"corrupt record: transform perm is not a permutation"};
    }
    seen |= 1u << v;
    t.perm[static_cast<std::size_t>(i)] = v;
  }
  const std::uint64_t input_neg = words[1] & 0xffffffffULL;
  if (num_vars < 32 && input_neg >= (1ULL << num_vars)) {
    throw StoreFormatError{"corrupt record: transform input_neg exceeds width"};
  }
  if ((words[1] >> 33) != 0) {
    throw StoreFormatError{"corrupt record: transform has nonzero reserved bits"};
  }
  t.input_neg = static_cast<std::uint32_t>(input_neg);
  t.output_neg = ((words[1] >> 32) & 1ULL) != 0;
  return t;
}

void append_record_words(std::vector<std::uint64_t>& out, const StoreRecord& record)
{
  const auto canonical = record.canonical.words();
  const auto representative = record.representative.words();
  out.insert(out.end(), canonical.begin(), canonical.end());
  out.insert(out.end(), representative.begin(), representative.end());
  out.push_back((static_cast<std::uint64_t>(record.class_id) << 32) |
                static_cast<std::uint64_t>(record.class_size));
  const auto packed = pack_transform(record.rep_to_canonical);
  out.push_back(packed[0]);
  out.push_back(packed[1]);
}

std::vector<std::uint64_t> encode_records(std::span<const StoreRecord> records)
{
  std::vector<std::uint64_t> words;
  if (!records.empty()) {
    words.reserve(records.size() * store_record_words(records.front().canonical.num_vars()));
  }
  for (const auto& record : records) {
    append_record_words(words, record);
  }
  return words;
}

StoreRecord decode_record(int num_vars, const std::uint64_t* words)
{
  const std::size_t num_words = words_for_vars(num_vars);
  const std::uint64_t* tail = words + 2 * num_words;  // id | size, then the transform
  return StoreRecord{TruthTable{num_vars, std::span<const std::uint64_t>{words, num_words}},
                     TruthTable{num_vars, std::span<const std::uint64_t>{words + num_words, num_words}},
                     unpack_transform(num_vars, {tail[1], tail[2]}),
                     static_cast<std::uint32_t>(tail[0] >> 32),
                     static_cast<std::uint32_t>(tail[0] & 0xffffffffULL)};
}

int compare_canonical_words(const std::uint64_t* a, const std::uint64_t* b,
                            std::size_t num_words) noexcept
{
  for (std::size_t w = num_words; w-- > 0;) {
    if (a[w] != b[w]) {
      return a[w] < b[w] ? -1 : 1;
    }
  }
  return 0;
}

std::string transform_to_compact(const NpnTransform& t)
{
  std::ostringstream out;
  out << 'p';
  for (int i = 0; i < t.num_vars; ++i) {
    out << (i == 0 ? "" : ",") << static_cast<int>(t.perm[static_cast<std::size_t>(i)]);
  }
  out << ":n" << t.input_neg << ":o" << (t.output_neg ? 1 : 0);
  return out.str();
}

}  // namespace facet
