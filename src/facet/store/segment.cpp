#include "facet/store/segment.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "facet/obs/clock.hpp"
#include "facet/obs/registry.hpp"

namespace facet {

namespace {

/// `facet_store_mapped_segment_bytes`: bytes currently mmapped by store
/// base segments, process-wide. Maintained by MmapSegment's open/destroy
/// pair so the gauge tracks remaps across compaction swaps.
obs::Gauge& mapped_segment_bytes_gauge()
{
  static obs::Gauge& gauge = obs::MetricRegistry::global().gauge("facet_store_mapped_segment_bytes");
  return gauge;
}

/// Mmap-probe series sample 1 in this many probes — the accounting itself
/// is atomic-cheap, but the histogram record is kept off most probes like
/// the store's fast-tier timing.
constexpr unsigned kProbeSample = 64;

/// `facet_store_probe_pages{width=}`: distinct data pages one mmap probe
/// examined — 0 when the in-RAM block keys prove the key absent, else 1.
obs::LatencyHistogram& probe_pages_histogram(int width)
{
  static const auto histograms = [] {
    std::array<obs::LatencyHistogram*, kMaxVars + 1> resolved{};
    for (int n = 0; n <= kMaxVars; ++n) {
      resolved[static_cast<std::size_t>(n)] = &obs::MetricRegistry::global().histogram(
          "facet_store_probe_pages", obs::label("width", n));
    }
    return resolved;
  }();
  return *histograms[static_cast<std::size_t>(width)];
}

/// `facet_segment_block_scan_len{width=}`: records scanned linearly inside
/// the one block a probe lands on (bounded by store_records_per_block).
obs::LatencyHistogram& block_scan_len_histogram(int width)
{
  static const auto histograms = [] {
    std::array<obs::LatencyHistogram*, kMaxVars + 1> resolved{};
    for (int n = 0; n <= kMaxVars; ++n) {
      resolved[static_cast<std::size_t>(n)] = &obs::MetricRegistry::global().histogram(
          "facet_segment_block_scan_len", obs::label("width", n));
    }
    return resolved;
  }();
  return *histograms[static_cast<std::size_t>(width)];
}

/// Appends the record at `bytes` (raw little-endian, one record stride) to
/// `out` as packed words, read the way decode_record reads it: excess
/// table bits cleared, the transform checked (StoreFormatError). Returns
/// its class id. Both file loaders go through here.
std::uint32_t load_record(const unsigned char* bytes, int num_vars, std::vector<std::uint64_t>& out)
{
  const std::size_t first = out.size();
  const std::size_t stride = store_record_words(num_vars);
  for (std::size_t w = 0; w < stride; ++w) {
    out.push_back(load_le64(bytes + 8 * w));
  }
  std::uint64_t* record = out.data() + first;
  const std::size_t num_words = words_for_vars(num_vars);
  if (num_vars < kVarsPerWord) {
    record[0] &= low_bits_mask(num_vars);
    record[num_words] &= low_bits_mask(num_vars);
  }
  (void)unpack_transform(num_vars, {record[2 * num_words + 1], record[2 * num_words + 2]});
  return record_class_id(num_vars, record);
}

/// Reads `is` to its end. Both stream loaders parse from bytes, like the
/// mmap path parses its mapping.
std::string read_to_end(std::istream& is)
{
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return std::move(buffer).str();
}

void check_sorted_by_canonical(std::span<const std::uint64_t> record_words, int num_vars,
                               const char* what)
{
  const std::size_t stride = store_record_words(num_vars);
  for (std::size_t at = stride; at < record_words.size(); at += stride) {
    if (compare_canonical_words(record_words.data() + at - stride, record_words.data() + at,
                                words_for_vars(num_vars)) >= 0) {
      throw StoreFormatError{std::string{what} + " records are not sorted by canonical form"};
    }
  }
}

/// store_record_words(num_vars); throws std::invalid_argument on a width
/// out of range.
std::size_t checked_stride(int num_vars)
{
  if (num_vars < 0 || num_vars > kMaxVars) {
    throw std::invalid_argument{"MaterializedSegment: num_vars out of range"};
  }
  return store_record_words(num_vars);
}

/// Records in `record_words`; throws std::invalid_argument on a partial
/// record.
std::size_t count_records(std::span<const std::uint64_t> record_words, int num_vars,
                          const char* who)
{
  const std::size_t stride = store_record_words(num_vars);
  if (record_words.size() % stride != 0) {
    throw std::invalid_argument{std::string{who} + ": record words are not whole records"};
  }
  return record_words.size() / stride;
}

/// Most records one MaterializedSegment indexes: four slots per record
/// keep the slot count within 2^32, which home_slot's multiply needs.
constexpr std::size_t kMaxIndexedRecords = std::size_t{1} << 30;

/// A full slot's fingerprint: the high word of the key's hash, masked to
/// the bits above the record index. The slot position comes from the low
/// word, so the two never share bits.
[[nodiscard]] std::uint32_t slot_fingerprint(std::uint64_t hash, std::uint32_t index_mask) noexcept
{
  return static_cast<std::uint32_t>(hash >> 32) & ~index_mask;
}

/// The slot a hash starts probing at: its low word scaled onto
/// [0, num_slots) by one multiply (num_slots <= 2^32).
[[nodiscard]] std::size_t home_slot(std::uint64_t hash, std::size_t num_slots) noexcept
{
  return static_cast<std::size_t>(((hash & 0xffffffffULL) * num_slots) >> 32);
}

}  // namespace

MaterializedSegment::MaterializedSegment(int num_vars, std::vector<std::uint64_t> record_words)
    : num_vars_{num_vars},
      stride_{checked_stride(num_vars)},
      size_{count_records(record_words, num_vars, "MaterializedSegment")},
      words_{std::move(record_words)}
{
  if (size_ > kMaxIndexedRecords) {
    throw std::length_error{"MaterializedSegment: more records than one segment indexes"};
  }
  const std::size_t key_words = words_for_vars(num_vars_);
  index_mask_ = static_cast<std::uint32_t>((std::uint64_t{1} << std::bit_width(size_)) - 1);
  slots_.assign(std::max<std::size_t>(4 * size_, 1), 0);
  for (std::size_t i = 0; i < size_; ++i) {
    const std::uint64_t hash = hash_table_words(num_vars_, {record(i), key_words});
    std::size_t pos = home_slot(hash, slots_.size());
    while (slots_[pos] != 0) {
      pos = pos + 1 == slots_.size() ? 0 : pos + 1;
    }
    slots_[pos] = slot_fingerprint(hash, index_mask_) | static_cast<std::uint32_t>(i + 1);
  }
}

std::optional<std::size_t> MaterializedSegment::find_hashed(const TruthTable& canonical,
                                                            std::uint64_t hash) const
{
  if (canonical.num_vars() != num_vars_) {
    return std::nullopt;
  }
  const std::uint64_t* key = canonical.words().data();
  const std::size_t key_words = canonical.num_words();
  const std::uint32_t fingerprint = slot_fingerprint(hash, index_mask_);
  for (std::size_t pos = home_slot(hash, slots_.size());;
       pos = pos + 1 == slots_.size() ? 0 : pos + 1) {
    const std::uint32_t slot = slots_[pos];
    if (slot == 0) {
      return std::nullopt;
    }
    if ((slot & ~index_mask_) == fingerprint) {
      const std::size_t i = (slot & index_mask_) - 1;
      if (std::equal(key, key + key_words, record(i))) {
        return i;
      }
    }
  }
}

void MaterializedSegment::copy_record_words(std::size_t i, std::uint64_t* out) const
{
  std::copy_n(record(i), stride_, out);
}

std::optional<StoreRecord> MaterializedSegment::find(const TruthTable& canonical) const
{
  if (const auto i = find_hashed(canonical, canonical.hash())) {
    return record_at(*i);
  }
  return std::nullopt;
}

// -- base segment writers ----------------------------------------------------

namespace {

/// Fills `block` (kStorePageWords words, zero-padded) with the packed
/// records of block `b` and returns how many records landed in it.
std::size_t pack_block(std::vector<std::uint64_t>& block,
                       std::span<const std::uint64_t> record_words, std::size_t stride,
                       std::size_t b, std::size_t per_block)
{
  const std::size_t first = b * per_block;
  const std::size_t count = std::min(per_block, record_words.size() / stride - first);
  const auto end = std::copy_n(record_words.begin() + static_cast<std::ptrdiff_t>(first * stride),
                               count * stride, block.begin());
  std::fill(end, block.end(), 0);
  return count;
}

}  // namespace

void write_base_segment(std::ostream& os, int num_vars, std::uint64_t num_classes,
                        std::span<const std::uint64_t> record_words)
{
  const std::size_t num_records = count_records(record_words, num_vars, "write_base_segment");
  const std::size_t stride = store_record_words(num_vars);
  const std::size_t per_block = store_records_per_block(num_vars);
  if (per_block == 0) {
    throw std::invalid_argument{"write_base_segment: a num_vars " + std::to_string(num_vars) +
                                " record does not fit one store block"};
  }
  const std::size_t key_words = words_for_vars(num_vars);
  const std::uint64_t num_blocks = store_num_blocks(num_records, num_vars);
  const std::uint64_t total_words = record_words.size();

  // Pass 1: per-block checksums (over the full zero-padded block, exactly
  // what the lazy reader validates) and the sparse footer index — each
  // block's first canonical form, which leads its first record.
  std::vector<std::uint64_t> block(kStorePageWords);
  std::vector<std::uint64_t> block_keys;
  std::vector<std::uint64_t> block_hashes;
  block_keys.reserve(static_cast<std::size_t>(num_blocks) * key_words);
  block_hashes.reserve(static_cast<std::size_t>(num_blocks));
  for (std::uint64_t b = 0; b < num_blocks; ++b) {
    pack_block(block, record_words, stride, static_cast<std::size_t>(b), per_block);
    for (std::size_t k = 0; k < key_words; ++k) {
      block_keys.push_back(block[k]);
    }
    PayloadHasher hasher{kStorePageWords};
    for (const auto word : block) {
      hasher.mix(word);
    }
    block_hashes.push_back(hasher.value());
  }

  // The header hash covers the block-key and block-checksum tables in file
  // order — the same word sequence checksum_le_words sees over the
  // contiguous table region.
  PayloadHasher table_hasher{block_keys.size() + block_hashes.size()};
  for (const auto w : block_keys) {
    table_hasher.mix(w);
  }
  for (const auto h : block_hashes) {
    table_hasher.mix(h);
  }

  StoreHeader header;
  header.version = kStoreVersion;
  header.num_vars = static_cast<std::uint32_t>(num_vars);
  header.num_records = num_records;
  header.num_classes = num_classes;
  header.payload_hash = table_hasher.value();
  write_store_header(os, header);
  // Zero-pad the header page so every block below is page-aligned.
  for (std::size_t w = kStoreHeaderBytes / 8; w < kStorePageWords; ++w) {
    write_u64_le(os, 0);
  }

  for (std::uint64_t b = 0; b < num_blocks; ++b) {
    pack_block(block, record_words, stride, static_cast<std::size_t>(b), per_block);
    for (const auto word : block) {
      write_u64_le(os, word);
    }
  }
  for (const auto w : block_keys) {
    write_u64_le(os, w);
  }
  for (const auto h : block_hashes) {
    write_u64_le(os, h);
  }
  SegmentFooter footer;
  footer.page_size = kStorePageBytes;
  footer.num_pages = num_blocks;
  footer.record_words = total_words;
  write_segment_footer(os, footer);
  if (!os) {
    throw StoreFormatError{"store write failed"};
  }
}

// -- base segment parser -----------------------------------------------------

namespace {

/// Parses a base segment from its `size` raw bytes and checks everything
/// but the data blocks: magic, version, width, size against the record
/// count, zero header padding, the table hash and the footer.
BaseSegmentLayout parse_base_segment(const unsigned char* bytes, std::size_t size)
{
  if (size < kStoreHeaderBytes) {
    throw StoreFormatError{"store file truncated while reading the header"};
  }
  if (load_le64(bytes) != kStoreMagic) {
    throw StoreFormatError{"not a facet class store (bad magic)"};
  }
  const std::uint64_t version_vars = load_le64(bytes + 8);
  const auto version = static_cast<std::uint32_t>(version_vars & 0xffffffffULL);
  const auto num_vars = static_cast<std::uint32_t>(version_vars >> 32);
  if (version != kStoreVersion) {
    std::ostringstream msg;
    msg << "unsupported store version " << version << " (this build reads version "
        << kStoreVersion << ")";
    throw StoreFormatError{msg.str()};
  }
  if (num_vars > static_cast<std::uint32_t>(kMaxVars)) {
    std::ostringstream msg;
    msg << "corrupt header: num_vars " << num_vars << " exceeds kMaxVars " << kMaxVars;
    throw StoreFormatError{msg.str()};
  }

  BaseSegmentLayout layout;
  layout.num_vars = static_cast<int>(num_vars);
  layout.num_classes = load_le64(bytes + 24);
  layout.record_stride = store_record_words(layout.num_vars) * 8;
  layout.records_per_block = store_records_per_block(layout.num_vars);
  if (layout.records_per_block == 0) {
    std::ostringstream msg;
    msg << "corrupt header: a num_vars " << num_vars << " record does not fit one store block";
    throw StoreFormatError{msg.str()};
  }
  const std::uint64_t num_records = load_le64(bytes + 16);
  const std::uint64_t payload_hash = load_le64(bytes + 32);
  // Bound the record count by the buffer before any size arithmetic, so a
  // crafted huge count cannot wrap the multiplications below into a
  // plausible-looking geometry.
  if (num_records > size / layout.record_stride) {
    throw StoreFormatError{"store file truncated (size disagrees with its record count)"};
  }
  const std::size_t key_words = words_for_vars(layout.num_vars);
  const std::uint64_t num_blocks = store_num_blocks(num_records, layout.num_vars);
  const std::uint64_t table_words = num_blocks * key_words + num_blocks;
  const std::uint64_t expected_bytes =
      kStorePageBytes + num_blocks * kStorePageBytes + table_words * 8 + kStoreFooterBytes;
  if (size != expected_bytes) {
    throw StoreFormatError{size < expected_bytes
                               ? "store file truncated (size disagrees with its record count)"
                               : "store file has trailing bytes after the last record"};
  }
  layout.num_records = static_cast<std::size_t>(num_records);
  layout.num_blocks = static_cast<std::size_t>(num_blocks);

  // The header page is zero-padded so every block below is page-aligned.
  for (std::size_t w = kStoreHeaderBytes / 8; w < kStorePageWords; ++w) {
    if (load_le64(bytes + 8 * w) != 0) {
      throw StoreFormatError{"corrupt store: header page padding is not zero"};
    }
  }
  layout.blocks = bytes + kStorePageBytes;
  const unsigned char* key_table = layout.blocks + num_blocks * kStorePageBytes;
  layout.block_checksums = key_table + num_blocks * key_words * 8;

  // Both tables ride the header's payload hash.
  if (checksum_le_words(key_table, static_cast<std::size_t>(table_words)) != payload_hash) {
    throw StoreFormatError{"store block-table checksum mismatch (file corrupt)"};
  }
  const SegmentFooter footer = parse_segment_footer(layout.block_checksums + num_blocks * 8);
  if (footer.page_size != kStorePageBytes || footer.num_pages != num_blocks ||
      footer.record_words != num_records * (layout.record_stride / 8)) {
    throw StoreFormatError{"corrupt store: segment footer disagrees with the header"};
  }

  layout.block_keys.resize(layout.num_blocks * key_words);
  for (std::size_t w = 0; w < layout.block_keys.size(); ++w) {
    layout.block_keys[w] = load_le64(key_table + 8 * w);
  }
  return layout;
}

/// Checks data block `b` of a parsed segment: its checksum, the block key
/// it is indexed under, and the zero padding past its last record.
void validate_base_block(const BaseSegmentLayout& layout, std::size_t b)
{
  const unsigned char* block = layout.blocks + b * kStorePageBytes;
  if (checksum_le_words(block, kStorePageWords) != load_le64(layout.block_checksums + 8 * b)) {
    std::ostringstream msg;
    msg << "store block " << b << " failed checksum validation (file corrupt)";
    throw StoreFormatError{msg.str()};
  }
  // The sparse index entry must lead the block's first record.
  const std::size_t key_words = words_for_vars(layout.num_vars);
  for (std::size_t k = 0; k < key_words; ++k) {
    if (load_le64(block + 8 * k) != layout.block_keys[b * key_words + k]) {
      throw StoreFormatError{"corrupt store: block key disagrees with its block"};
    }
  }
  // The checksum covers the padding too, but a writer bug would hide there.
  const std::size_t used =
      std::min(layout.records_per_block, layout.num_records - b * layout.records_per_block) *
      layout.record_stride;
  if (std::any_of(block + used, block + kStorePageBytes, [](unsigned char c) { return c != 0; })) {
    throw StoreFormatError{"corrupt store: block tail padding is not zero"};
  }
}

}  // namespace

LoadedBase read_base_segment(std::istream& is)
{
  const std::string bytes = read_to_end(is);
  const BaseSegmentLayout layout =
      parse_base_segment(reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size());
  LoadedBase out;
  out.num_vars = layout.num_vars;
  out.num_classes = layout.num_classes;
  for (std::size_t b = 0; b < layout.num_blocks; ++b) {
    validate_base_block(layout, b);
  }
  out.record_words.reserve(layout.num_records * (layout.record_stride / 8));
  for (std::size_t i = 0; i < layout.num_records; ++i) {
    if (load_record(layout.record(i), layout.num_vars, out.record_words) >= out.num_classes) {
      throw StoreFormatError{"corrupt store: record class id exceeds the header's class count"};
    }
  }
  check_sorted_by_canonical(out.record_words, out.num_vars, "store");
  return out;
}

// -- delta log ---------------------------------------------------------------

void write_delta_frame(std::ostream& os, int num_vars, std::uint64_t num_classes_after,
                       std::span<const std::uint64_t> record_words)
{
  const std::size_t num_records = count_records(record_words, num_vars, "write_delta_frame");
  PayloadHasher hasher{record_words.size()};
  for (const auto word : record_words) {
    hasher.mix(word);
  }

  DeltaFrameHeader header;
  header.version = kStoreVersion;
  header.num_vars = static_cast<std::uint32_t>(num_vars);
  header.num_records = num_records;
  header.num_classes_after = num_classes_after;
  header.payload_hash = hasher.value();
  write_delta_frame_header(os, header);
  for (const auto word : record_words) {
    write_u64_le(os, word);
  }
  if (!os) {
    throw StoreFormatError{"delta frame write failed"};
  }
}

DeltaLogReplay read_delta_log(std::istream& is, int num_vars)
{
  // Slurp the log: frames are small relative to the base, and buffer
  // parsing is what lets a torn trailing frame be told apart from
  // mid-log corruption.
  const std::string log = read_to_end(is);
  const auto* bytes = reinterpret_cast<const unsigned char*>(log.data());
  const std::size_t stride = store_record_words(num_vars) * 8;

  DeltaLogReplay out;
  std::size_t offset = 0;
  while (offset < log.size()) {
    if (log.size() - offset < kDeltaFrameHeaderBytes) {
      out.torn_tail = true;  // crashed append: partial frame header
      break;
    }
    if (load_le64(bytes + offset) != kDeltaFrameMagic) {
      throw StoreFormatError{"corrupt delta log: bad frame magic"};
    }
    const std::uint64_t version_vars = load_le64(bytes + offset + 8);
    const auto version = static_cast<std::uint32_t>(version_vars & 0xffffffffULL);
    const auto frame_vars = static_cast<std::uint32_t>(version_vars >> 32);
    if (version != kStoreVersion) {
      std::ostringstream msg;
      msg << "unsupported delta frame version " << version;
      throw StoreFormatError{msg.str()};
    }
    if (static_cast<int>(frame_vars) != num_vars) {
      std::ostringstream msg;
      msg << "delta frame width " << frame_vars << " does not match the base segment ("
          << num_vars << ")";
      throw StoreFormatError{msg.str()};
    }
    const std::uint64_t num_records = load_le64(bytes + offset + 16);
    const std::uint64_t num_classes_after = load_le64(bytes + offset + 24);
    const std::uint64_t payload_hash = load_le64(bytes + offset + 32);
    // The bound also forecloses any overflow in the size arithmetic below.
    if (num_records > (log.size() - offset - kDeltaFrameHeaderBytes) / stride) {
      out.torn_tail = true;  // crashed append: records cut short
      break;
    }

    const unsigned char* records_begin = bytes + offset + kDeltaFrameHeaderBytes;
    const std::uint64_t total_words = num_records * (stride / 8);
    if (checksum_le_words(records_begin, static_cast<std::size_t>(total_words)) != payload_hash) {
      throw StoreFormatError{"delta frame checksum mismatch (log corrupt)"};
    }
    DeltaRun run;
    run.num_classes_after = num_classes_after;
    run.record_words.reserve(static_cast<std::size_t>(total_words));
    for (std::uint64_t i = 0; i < num_records; ++i) {
      if (load_record(records_begin + i * stride, num_vars, run.record_words) >=
          num_classes_after) {
        throw StoreFormatError{"corrupt delta frame: record class id exceeds its class count"};
      }
    }
    check_sorted_by_canonical(run.record_words, num_vars, "delta frame");
    out.runs.push_back(std::move(run));
    offset += kDeltaFrameHeaderBytes + static_cast<std::size_t>(num_records) * stride;
    out.clean_bytes = offset;
  }
  return out;
}

// -- mmap segment ------------------------------------------------------------

std::shared_ptr<MmapSegment> MmapSegment::open(const std::string& path)
{
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw StoreFormatError{"cannot open store file: " + path};
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw StoreFormatError{"cannot stat store file: " + path};
  }
  const std::size_t mapped_bytes = static_cast<std::size_t>(st.st_size);
  if (mapped_bytes < kStoreHeaderBytes) {
    ::close(fd);
    throw StoreFormatError{"store file truncated while reading the header"};
  }
  void* map = ::mmap(nullptr, mapped_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    throw StoreFormatError{"cannot mmap store file: " + path};
  }

  std::shared_ptr<MmapSegment> segment{new MmapSegment{}};
  segment->data_ = static_cast<const unsigned char*>(map);
  segment->mapped_bytes_ = mapped_bytes;
  mapped_segment_bytes_gauge().add(static_cast<std::int64_t>(mapped_bytes));

  segment->layout_ = parse_base_segment(segment->data_, mapped_bytes);
  const std::size_t num_blocks = segment->layout_.num_blocks;
  segment->page_states_ = std::make_unique<std::atomic<std::uint8_t>[]>(num_blocks);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    segment->page_states_[b].store(0, std::memory_order_relaxed);
  }
  return segment;
}

MmapSegment::~MmapSegment()
{
  if (data_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(data_), mapped_bytes_);
    mapped_segment_bytes_gauge().sub(static_cast<std::int64_t>(mapped_bytes_));
  }
}

void MmapSegment::validate_page(std::size_t block) const
{
  std::atomic<std::uint8_t>& state = page_states_[block];
  if (state.load(std::memory_order_acquire) == 1) {
    return;
  }
  validate_base_block(layout_, block);
  // Concurrent validators may race here; both computed the same verdict, so
  // the double store is harmless.
  state.store(1, std::memory_order_release);
}

std::size_t MmapSegment::pages_validated() const noexcept
{
  std::size_t count = 0;
  for (std::size_t b = 0; b < layout_.num_blocks; ++b) {
    count += page_states_[b].load(std::memory_order_relaxed) == 1 ? 1 : 0;
  }
  return count;
}

int MmapSegment::compare_canonical(std::size_t i, const TruthTable& key) const
{
  validate_page(i / layout_.records_per_block);
  const unsigned char* rec = layout_.record(i);
  const auto words = key.words();
  for (std::size_t w = words.size(); w-- > 0;) {
    const std::uint64_t a = load_le64(rec + 8 * w);
    const std::uint64_t b = words[w];
    if (a != b) {
      return a < b ? -1 : 1;
    }
  }
  return 0;
}

void MmapSegment::copy_record_words(std::size_t i, std::uint64_t* out) const
{
  validate_page(i / layout_.records_per_block);
  const unsigned char* rec = layout_.record(i);
  for (std::size_t w = 0; w < layout_.record_stride / 8; ++w) {
    out[w] = load_le64(rec + 8 * w);
  }
}

StoreRecord MmapSegment::record_at(std::size_t i) const
{
  // No record straddles a block, so one block's words hold any record.
  std::array<std::uint64_t, kStorePageWords> words;
  copy_record_words(i, words.data());
  return decode_record(layout_.num_vars, words.data());
}

std::optional<std::size_t> MmapSegment::find_index(const TruthTable& key) const
{
  if (key.num_vars() != layout_.num_vars) {
    return std::nullopt;
  }
  std::uint64_t pages_examined = 0;
  const auto result = find_index_blocked(key, pages_examined);
  probe_count_.fetch_add(1, std::memory_order_relaxed);
  probe_pages_.fetch_add(pages_examined, std::memory_order_relaxed);
  if (obs::sample_1_in<kProbeSample>()) {
    probe_pages_histogram(layout_.num_vars).record_ns(pages_examined);
  }
  return result;
}

std::optional<std::size_t> MmapSegment::find_index_blocked(const TruthTable& key,
                                                           std::uint64_t& pages_examined) const
{
  const std::size_t key_words = words_for_vars(layout_.num_vars);
  const auto target = key.words();
  // Binary search the in-RAM sparse index for the one block that could hold
  // the key: the last block whose first key is <= the target. No data page
  // is touched yet.
  std::size_t lo = 0;
  std::size_t hi = layout_.num_blocks;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (compare_canonical_words(layout_.block_keys.data() + mid * key_words, target.data(),
                                key_words) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) {
    // The target sorts before the first record of the segment (or the
    // segment is empty): provably absent without touching a data page.
    return std::nullopt;
  }

  // Exactly one block to validate and scan linearly.
  const std::size_t block = lo - 1;
  pages_examined = 1;
  validate_page(block);
  const std::size_t first = block * layout_.records_per_block;
  const std::size_t count = std::min(layout_.records_per_block, layout_.num_records - first);
  std::size_t scanned = 0;
  std::optional<std::size_t> found;
  for (std::size_t r = 0; r < count; ++r) {
    ++scanned;
    const int cmp = compare_canonical(first + r, key);
    if (cmp == 0) {
      found = first + r;
      break;
    }
    if (cmp > 0) {
      break;  // sorted within the block: the key cannot appear further on
    }
  }
  if (obs::sample_1_in<kProbeSample>()) {
    block_scan_len_histogram(layout_.num_vars).record_ns(scanned);
  }
  return found;
}

MmapSegment::ProbeStats MmapSegment::probe_stats() const noexcept
{
  return {probe_count_.load(std::memory_order_relaxed),
          probe_pages_.load(std::memory_order_relaxed)};
}

std::optional<StoreRecord> MmapSegment::find(const TruthTable& canonical) const
{
  if (const auto i = find_index(canonical)) {
    return record_at(*i);
  }
  return std::nullopt;
}

}  // namespace facet
