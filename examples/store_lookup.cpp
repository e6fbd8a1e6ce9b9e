/// store_lookup: quickstart for the persistent NPN class store.
///
/// Builds a class store from a circuit-derived dataset, saves it as a
/// `.fcs` file, loads it back, and resolves queries through the three
/// lookup tiers (hot cache / index / live fallback). Run with no arguments
/// for a laptop-scale demo; --n and --funcs scale it up.

#include <cstdio>
#include <iostream>

#include "facet/facet.hpp"

int run(const facet::CliArgs& args)
{
  using namespace facet;
  const int n = static_cast<int>(args.get_int("n", 4));
  const std::size_t max_funcs = static_cast<std::size_t>(args.get_uint64("funcs", 2000));

  // 1. A workload: cut functions harvested from the synthetic circuit suite.
  CircuitDatasetOptions dataset_options;
  dataset_options.max_functions = max_funcs;
  const std::vector<TruthTable> funcs = make_circuit_dataset(n, dataset_options);
  std::cout << "dataset: " << funcs.size() << " functions of " << n << " variables\n";

  // 2. Build the store: the dataset classified as classify_batch does, one
  //    record per NPN class.
  const ClassStore built = build_class_store(funcs, {});
  std::cout << "built:   " << built.num_records() << " classes\n";

  // 3. Persist and reload — the round trip is validated by a checksum.
  const std::string path = "store_lookup_example.fcs";
  built.save(path);
  ClassStore store = ClassStore::open(path);
  std::cout << "saved:   " << path << ", reloaded " << store.num_records() << " records\n\n";

  // 4. Lookups. The first query canonicalizes and binary-searches the index;
  //    the repeat is answered by the set-associative hot cache without touching
  //    the canonicalizer.
  const TruthTable query = funcs.front();
  for (int round = 0; round < 2; ++round) {
    const auto result = store.lookup(query);
    if (result.has_value()) {
      std::cout << "lookup " << to_hex(query) << ": class " << result->class_id << " via "
                << (result->source == LookupSource::kHotCache ? "hot cache" : "index")
                << ", representative " << to_hex(result->representative) << ", transform "
                << result->to_representative.to_string() << "\n";
    }
  }

  // 5. Unknown functions fall back to live classification; with append they
  //    become part of the store (and of the next save()).
  const TruthTable novel = tt_parity(n);
  const StoreLookupResult live = store.lookup_or_classify(novel, /*append_on_miss=*/true);
  std::cout << "\nlookup " << to_hex(novel) << " (parity): "
            << (live.known ? "known" : "new class") << " id " << live.class_id << "\n";
  const auto again = store.lookup(~novel);  // NPN-equivalent: output complement
  if (again.has_value()) {
    std::cout << "lookup " << to_hex(~novel) << " (its complement): class " << again->class_id
              << " — the class now serves from the store\n";
  }

  const HotCacheStats cache = store.hot_cache_stats();
  std::cout << "\nhot cache: " << cache.hits << " hit(s), " << cache.misses << " miss(es), "
            << cache.entries << " entries\n";
  std::remove(path.c_str());
  return 0;
}

int main(int argc, char** argv) { return facet::run_main(argc, argv, run); }
