/// \file truth_table.hpp
/// \brief Bit-parallel truth-table representation of Boolean functions.
///
/// An n-variable Boolean function f : {0,1}^n -> {0,1} is stored as the
/// binary string T(f) of 2^n bits, exactly as in §II-A of the paper: bit i of
/// T(f) equals f((i)_2) with (i)_2 the little-endian binary code of i, so
/// variable x1 of the paper is the least-significant index (variable 0 here).
///
/// The class owns only the storage, bit access, bitwise algebra and ordering;
/// variable transformations live in tt_transform.hpp, text I/O in tt_io.hpp
/// and generators in tt_generate.hpp.

#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <vector>

#include "facet/tt/bit_ops.hpp"
#include "facet/util/hash.hpp"

namespace facet {

/// Word storage with a small-buffer fast path: tables of up to
/// kInlineWords * 64 bits (n <= 7) live inline and never touch the heap —
/// the hot range of the paper's evaluation. Larger tables fall back to a
/// vector. Copy/move semantics are the defaulted member-wise ones, which
/// are correct for both representations.
class TtWordStorage {
 public:
  static constexpr std::size_t kInlineWords = 2;

  explicit TtWordStorage(std::size_t size) : size_{size}
  {
    if (size_ > kInlineWords) {
      heap_.assign(size_, 0);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t* data() noexcept
  {
    return size_ <= kInlineWords ? inline_.data() : heap_.data();
  }
  [[nodiscard]] const std::uint64_t* data() const noexcept
  {
    return size_ <= kInlineWords ? inline_.data() : heap_.data();
  }

  /// Unused inline words stay zero for heap-backed tables, so member-wise
  /// equality is valid for both representations.
  [[nodiscard]] friend bool operator==(const TtWordStorage&, const TtWordStorage&) = default;

 private:
  std::size_t size_;
  std::array<std::uint64_t, kInlineWords> inline_{};
  std::vector<std::uint64_t> heap_;
};

/// Truth table of an n-variable Boolean function, 0 <= n <= kMaxVars.
///
/// Invariant: for n < 6 the unused high bits of the single word are zero, so
/// word-wise equality/ordering/popcount are always valid.
class TruthTable {
 public:
  /// Constructs the constant-0 function of `num_vars` variables.
  explicit TruthTable(int num_vars = 0);

  /// Constructs from explicit words (little-endian: words[0] holds minterms
  /// 0..63). Excess high bits in the last word are cleared. Copies straight
  /// into the table's storage: no heap temporary for n <= 7.
  TruthTable(int num_vars, std::span<const std::uint64_t> words);

  /// Same, from an owned vector (e.g. a braced word list).
  TruthTable(int num_vars, const std::vector<std::uint64_t>& words)
      : TruthTable{num_vars, std::span<const std::uint64_t>{words}}
  {
  }

  /// Convenience for n <= 6: single-word construction.
  static TruthTable from_word(int num_vars, std::uint64_t bits);

  [[nodiscard]] int num_vars() const noexcept { return num_vars_; }
  [[nodiscard]] std::uint64_t num_bits() const noexcept { return 1ULL << num_vars_; }
  [[nodiscard]] std::size_t num_words() const noexcept { return words_.size(); }

  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept
  {
    return {words_.data(), words_.size()};
  }
  [[nodiscard]] std::span<std::uint64_t> words() noexcept { return {words_.data(), words_.size()}; }
  [[nodiscard]] std::uint64_t word(std::size_t i) const noexcept { return words_.data()[i]; }

  /// Value of f at minterm `index` (0 <= index < 2^n).
  [[nodiscard]] bool get_bit(std::uint64_t index) const noexcept
  {
    return (words_.data()[index >> 6] >> (index & 63)) & 1ULL;
  }

  void set_bit(std::uint64_t index) noexcept { words_.data()[index >> 6] |= 1ULL << (index & 63); }
  void clear_bit(std::uint64_t index) noexcept
  {
    words_.data()[index >> 6] &= ~(1ULL << (index & 63));
  }
  void write_bit(std::uint64_t index, bool value) noexcept
  {
    if (value) {
      set_bit(index);
    } else {
      clear_bit(index);
    }
  }

  /// Satisfy count |f| (§II-A): number of 1-minterms.
  [[nodiscard]] std::uint64_t count_ones() const noexcept;

  /// True iff |f| = 2^(n-1) (the paper's "balanced" functions, central to
  /// Theorems 3 and 4).
  [[nodiscard]] bool is_balanced() const noexcept { return count_ones() == num_bits() / 2; }

  [[nodiscard]] bool is_const0() const noexcept;
  [[nodiscard]] bool is_const1() const noexcept { return count_ones() == num_bits(); }

  /// Bitwise algebra. Operands must have the same number of variables.
  TruthTable& operator&=(const TruthTable& other) noexcept;
  TruthTable& operator|=(const TruthTable& other) noexcept;
  TruthTable& operator^=(const TruthTable& other) noexcept;

  [[nodiscard]] friend TruthTable operator&(TruthTable a, const TruthTable& b) noexcept { return a &= b; }
  [[nodiscard]] friend TruthTable operator|(TruthTable a, const TruthTable& b) noexcept { return a |= b; }
  [[nodiscard]] friend TruthTable operator^(TruthTable a, const TruthTable& b) noexcept { return a ^= b; }

  /// Output negation (the outer N of NPN).
  [[nodiscard]] TruthTable operator~() const;
  void complement_in_place() noexcept;

  /// Lexicographic order on the bit string, most-significant word first.
  /// This is the order used to pick canonical representatives.
  [[nodiscard]] std::strong_ordering operator<=>(const TruthTable& other) const noexcept;
  [[nodiscard]] bool operator==(const TruthTable& other) const noexcept = default;

  /// Stable 64-bit hash of (num_vars, bits).
  [[nodiscard]] std::uint64_t hash() const noexcept;

  /// Clears unused high bits (n < 6). Internal invariant maintenance; public
  /// so transform routines can restore the invariant after word surgery.
  void mask_excess() noexcept;

 private:
  int num_vars_;
  TtWordStorage words_;
};

/// Number of 64-bit words required for an n-variable table.
[[nodiscard]] constexpr std::size_t words_for_vars(int num_vars) noexcept
{
  return num_vars <= kVarsPerWord ? 1u : (std::size_t{1} << (num_vars - kVarsPerWord));
}

/// The hash TruthTable::hash() returns, computed from a table's width and
/// raw words, so a store indexes packed record words without building a
/// table and a probe hashes its key once for every segment.
[[nodiscard]] constexpr std::uint64_t hash_table_words(
    int num_vars, std::span<const std::uint64_t> words) noexcept
{
  return hash_words(words, 0x9d7fb5e3c1a64b21ULL ^ static_cast<std::uint64_t>(num_vars));
}

/// Functor for unordered containers keyed by TruthTable.
struct TruthTableHash {
  [[nodiscard]] std::size_t operator()(const TruthTable& tt) const noexcept
  {
    return static_cast<std::size_t>(tt.hash());
  }
};

}  // namespace facet
