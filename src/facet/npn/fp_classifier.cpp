#include "facet/npn/fp_classifier.hpp"

#include "facet/util/hash.hpp"

namespace facet {

ClassificationResult classify_fp(std::span<const TruthTable> funcs, const SignatureConfig& config,
                                 std::size_t num_threads)
{
  // Keyed on the full MSV: a hash collision therefore cannot merge classes
  // (Algorithm 1's hash is an implementation device, not the class identity).
  return classify_by_key<U32VectorHash>(
      funcs, [&config](const TruthTable& f) { return build_msv(f, config); }, num_threads);
}

namespace {

struct Hash128 {
  std::uint64_t lo;
  std::uint64_t hi;
  friend bool operator==(const Hash128&, const Hash128&) = default;
};

struct Hash128Hasher {
  [[nodiscard]] std::size_t operator()(const Hash128& h) const noexcept
  {
    return static_cast<std::size_t>(h.lo);
  }
};

}  // namespace

ClassificationResult classify_fp_hashed(std::span<const TruthTable> funcs, const SignatureConfig& config,
                                        std::size_t num_threads)
{
  const auto key_of = [&config](const TruthTable& f) {
    const auto msv = build_msv(f, config);
    return Hash128{hash_u32_span(msv, 0xa0761d6478bd642fULL), hash_u32_span(msv, 0x589965cc75374cc3ULL)};
  };
  return classify_by_key<Hash128Hasher>(funcs, key_of, num_threads);
}

}  // namespace facet
