#include "facet/tt/truth_table.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace facet {

namespace {

/// Validates before any storage is constructed.
[[nodiscard]] std::size_t checked_words(int num_vars)
{
  if (num_vars < 0 || num_vars > kMaxVars) {
    throw std::invalid_argument("TruthTable: num_vars out of range [0, 16]");
  }
  return words_for_vars(num_vars);
}

}  // namespace

TruthTable::TruthTable(int num_vars) : num_vars_{num_vars}, words_{checked_words(num_vars)} {}

TruthTable::TruthTable(int num_vars, std::span<const std::uint64_t> words)
    : num_vars_{num_vars}, words_{checked_words(num_vars)}
{
  if (words.size() != words_.size()) {
    throw std::invalid_argument("TruthTable: word count does not match num_vars");
  }
  std::copy(words.begin(), words.end(), words_.data());
  mask_excess();
}

TruthTable TruthTable::from_word(int num_vars, std::uint64_t bits)
{
  if (num_vars > kVarsPerWord) {
    throw std::invalid_argument("TruthTable::from_word requires num_vars <= 6");
  }
  return TruthTable{num_vars, std::span<const std::uint64_t>{&bits, 1}};
}

std::uint64_t TruthTable::count_ones() const noexcept
{
  std::uint64_t total = 0;
  for (const auto w : words()) {
    total += static_cast<std::uint64_t>(popcount64(w));
  }
  return total;
}

bool TruthTable::is_const0() const noexcept
{
  for (const auto w : words()) {
    if (w != 0) {
      return false;
    }
  }
  return true;
}

TruthTable& TruthTable::operator&=(const TruthTable& other) noexcept
{
  assert(num_vars_ == other.num_vars_);
  std::uint64_t* dst = words_.data();
  const std::uint64_t* src = other.words_.data();
  for (std::size_t i = 0; i < words_.size(); ++i) {
    dst[i] &= src[i];
  }
  return *this;
}

TruthTable& TruthTable::operator|=(const TruthTable& other) noexcept
{
  assert(num_vars_ == other.num_vars_);
  std::uint64_t* dst = words_.data();
  const std::uint64_t* src = other.words_.data();
  for (std::size_t i = 0; i < words_.size(); ++i) {
    dst[i] |= src[i];
  }
  return *this;
}

TruthTable& TruthTable::operator^=(const TruthTable& other) noexcept
{
  assert(num_vars_ == other.num_vars_);
  std::uint64_t* dst = words_.data();
  const std::uint64_t* src = other.words_.data();
  for (std::size_t i = 0; i < words_.size(); ++i) {
    dst[i] ^= src[i];
  }
  return *this;
}

TruthTable TruthTable::operator~() const
{
  TruthTable result{*this};
  result.complement_in_place();
  return result;
}

void TruthTable::complement_in_place() noexcept
{
  for (auto& w : words()) {
    w = ~w;
  }
  mask_excess();
}

std::strong_ordering TruthTable::operator<=>(const TruthTable& other) const noexcept
{
  // Compare the 2^n-bit integers: most-significant word decides first.
  const std::uint64_t* a = words_.data();
  const std::uint64_t* b = other.words_.data();
  for (std::size_t i = words_.size(); i-- > 0;) {
    if (a[i] != b[i]) {
      return a[i] < b[i] ? std::strong_ordering::less : std::strong_ordering::greater;
    }
  }
  return std::strong_ordering::equal;
}

std::uint64_t TruthTable::hash() const noexcept
{
  return hash_table_words(num_vars_, words());
}

void TruthTable::mask_excess() noexcept
{
  if (num_vars_ < kVarsPerWord) {
    words_.data()[0] &= low_bits_mask(num_vars_);
  }
}

}  // namespace facet
