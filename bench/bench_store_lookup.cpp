/// bench_store_lookup: class-store build and lookup throughput, with
/// machine-readable JSON output for CI trend tracking.
///
/// Measures, on a circuit-derived n-variable dataset:
///   * index build time (BatchEngine classification + record assembly);
///   * cold lookup throughput — empty hot cache, every query pays one
///     canonicalization plus an index probe;
///   * warm lookup throughput — the repeat pass, answered by the
///     set-associative hot cache except where a set evicted a query (its
///     hot-cache share is reported), the steady state of a serving workload;
///   * live single-thread exact classification throughput (the baseline the
///     store replaces), measured on a sample;
/// and verifies that every store lookup reproduces the BatchEngine class id
/// mapping bit-for-bit and that every returned transform witnesses its
/// representative.
///
/// A second phase benchmarks the storage engine itself: cold open of a
/// prebuilt --mmap-n index of --mmap-records classes, materialized
/// ClassStore::open vs zero-copy ClassStore::open(use_mmap) — wall time and
/// resident-set growth — with find_canonical bit-identity checked between
/// the two. Its report lands in BENCH_store_mmap.json (--mmap-out).
///
/// A third phase benchmarks the miss path: an EMPTY store learning the
/// whole workload through lookup_or_classify(append_on_miss) — once with
/// the semiclass memo enabled, once disabled — with every id checked
/// against the BatchEngine reference, plus a branch-and-bound vs orbit-walk
/// canonicalizer micro-benchmark on the workload, fixed-work
/// canonicalizer rows on seeded random functions at n = 5, 6, 7 (us/op as
/// the min of 7 passes, each row checked against the walk), and fixed-work
/// `index_miss_probe` rows: ns per find_canonical of a key no tier holds,
/// over a materialized n = 6 base of 180k seeded records plus 0, 8 and 16
/// delta runs of 2,048 (min of 7 passes; every answer checked).
/// Report: BENCH_store_misspath.json (--misspath-out).
///
/// A fourth phase benchmarks the NPN4 norm-table tier on the exhaustive
/// 16-bit workload: an empty width-4 store learning all 65,536 tables (ids
/// must equal classify_exhaustive's, the store must never canonicalize),
/// then cold lookups (every one src=table), plus the table-dispatch
/// canonicalizer rate on a sample checked against the orbit walk.
/// Report: BENCH_npn4.json (--npn4-out).
///
/// A fifth phase benchmarks cold probes of the block-packed base-segment
/// layout: --cold-records synthetic classes (default 1M at --cold-n 7),
/// probed cold through a fresh mmap with a mix of present keys and planted
/// misses. Reports pages touched per probe (the segment's deterministic
/// accounting plus the OS minor-fault counter as a cross-check) and
/// lookups/s, asserts <= 2 pages/probe, and checks every present key
/// against the id its record was written with and every planted miss
/// misses. Fields land in BENCH_store_lookup.json.
///
/// Defaults are laptop-scale; the acceptance-scale run of the store PR is
///   bench_store_lookup --n 6 --funcs 120000
/// The JSON report lands in BENCH_store_lookup.json (override with --out).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "facet/facet.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace {

/// Minor page faults charged to this process so far (0 off-POSIX). Deltas
/// across a probe loop on a freshly-opened mapping count the data pages the
/// probes actually pulled into the page table — the OS-level cross-check of
/// MmapSegment's deterministic probe_stats accounting.
long long minor_faults()
{
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage = {};
  if (::getrusage(RUSAGE_SELF, &usage) == 0) {
    return usage.ru_minflt;
  }
#endif
  return 0;
}

/// Resident-set size in KiB (0 when the platform offers no /proc/self/statm).
long long rss_kib()
{
#if defined(__linux__)
  std::ifstream statm{"/proc/self/statm"};
  long long pages_total = 0;
  long long pages_resident = 0;
  if (statm >> pages_total >> pages_resident) {
    return pages_resident * (::sysconf(_SC_PAGESIZE) / 1024);
  }
#endif
  return 0;
}

/// A synthetic sorted index of `count` distinct canonical keys: load-path
/// benchmarking needs record volume, not classification work, so records
/// carry identity transforms and are keyed by random distinct tables.
facet::ClassStore make_synthetic_store(int n, std::size_t count, std::uint64_t seed)
{
  using namespace facet;
  std::mt19937_64 rng{seed};
  std::unordered_set<TruthTable, TruthTableHash> keys;
  keys.reserve(count);
  while (keys.size() < count) {
    keys.insert(tt_random(n, rng));
  }
  std::vector<StoreRecord> records;
  records.reserve(count);
  for (const auto& key : keys) {
    records.push_back(StoreRecord{key, key, NpnTransform::identity(n), 0, 1});
  }
  std::sort(records.begin(), records.end(),
            [](const StoreRecord& a, const StoreRecord& b) { return a.canonical < b.canonical; });
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].class_id = static_cast<std::uint32_t>(i);
  }
  return ClassStore{n, std::move(records), count};
}

/// One `index_miss_probe` row: find_canonical of keys no tier holds, over a
/// materialized base plus `runs` delta runs.
struct IndexProbeRow {
  std::size_t runs = 0;
  std::size_t probes = 0;
  double ns_per_op = 0.0;
  bool identical = true;
};

/// The fixed index-probe workload: a materialized n = 6 base of
/// kIndexProbeBase records, up to kIndexProbeMaxRuns delta runs of
/// kIndexProbeRunRecords, and keys absent from all of them — every set
/// seeded, so rows compare across commits.
constexpr int kIndexProbeN = 6;
constexpr std::size_t kIndexProbeBase = 180000;
constexpr std::size_t kIndexProbeRunRecords = 2048;
constexpr std::size_t kIndexProbeMaxRuns = 16;
constexpr std::size_t kIndexProbeMisses = 20000;
constexpr int kIndexProbePasses = 7;

/// Measures one row: writes the base and the first `runs` delta frames at
/// `path`, opens the store without mmap (base and runs materialized), and
/// times find_canonical over `misses` (min of kIndexProbePasses passes).
/// Identity: every miss answers nullopt, and every 61st present key (base
/// and runs) answers the class id it was written with.
IndexProbeRow measure_index_miss_probe(const std::string& path, std::size_t runs,
                                       const std::vector<facet::StoreRecord>& base,
                                       const std::vector<std::vector<facet::StoreRecord>>& deltas,
                                       const std::vector<facet::TruthTable>& misses)
{
  using namespace facet;
  const std::uint64_t num_classes = base.size() + kIndexProbeMaxRuns * kIndexProbeRunRecords;
  {
    std::ofstream os{path, std::ios::binary | std::ios::trunc};
    write_base_segment(os, kIndexProbeN, num_classes, base);
  }
  const std::string dlog = ClassStore::delta_log_path(path);
  std::remove(dlog.c_str());
  if (runs > 0) {
    std::ofstream os{dlog, std::ios::binary | std::ios::trunc};
    for (std::size_t r = 0; r < runs; ++r) {
      write_delta_frame(os, kIndexProbeN, num_classes, deltas[r]);
    }
  }
  const ClassStore store = ClassStore::open(path);

  IndexProbeRow row;
  row.runs = runs;
  row.probes = misses.size();
  row.identical = store.num_delta_segments() == runs;
  for (int pass = 0; pass < kIndexProbePasses; ++pass) {
    std::size_t found = 0;
    Stopwatch watch;
    for (const TruthTable& key : misses) {
      found += store.find_canonical(key).has_value() ? 1 : 0;
    }
    const double ns = watch.seconds() * 1e9 / static_cast<double>(misses.size());
    row.ns_per_op = pass == 0 ? ns : std::min(row.ns_per_op, ns);
    row.identical = row.identical && found == 0;
  }
  const auto answers = [&](const StoreRecord& record) {
    const auto hit = store.find_canonical(record.canonical);
    return hit.has_value() && hit->class_id == record.class_id;
  };
  for (std::size_t i = 0; i < base.size(); i += 61) {
    row.identical = row.identical && answers(base[i]);
  }
  for (std::size_t r = 0; r < runs; ++r) {
    for (std::size_t i = 0; i < deltas[r].size(); i += 61) {
      row.identical = row.identical && answers(deltas[r][i]);
    }
  }
  std::remove(dlog.c_str());
  std::remove(path.c_str());
  return row;
}

}  // namespace

int main(int argc, char** argv)
{
  using namespace facet;
  const CliArgs args{argc, argv};
  const int n = static_cast<int>(args.get_int("n", 6));
  const std::size_t max_funcs = static_cast<std::size_t>(args.get_int("funcs", 20000));
  const std::size_t live_sample = static_cast<std::size_t>(args.get_int("live-sample", 2000));
  const std::size_t jobs = static_cast<std::size_t>(args.get_int("jobs", 0));
  const std::string out_path = args.get_string("out", "BENCH_store_lookup.json");

  CircuitDatasetOptions dataset_options;
  dataset_options.max_functions = max_funcs;
  std::vector<TruthTable> funcs = make_circuit_dataset(n, dataset_options);
  const std::size_t circuit_funcs = funcs.size();
  if (funcs.size() < max_funcs) {
    // The circuit suite runs dry before paper-scale workloads (e.g. ~13k
    // full-support cut functions at n = 6); pad to the requested size with
    // the Fig. 5 consecutive-encoding workload so --funcs means what it
    // says.
    const auto pad = make_consecutive_dataset(n, max_funcs - funcs.size());
    funcs.insert(funcs.end(), pad.begin(), pad.end());
  }
  std::cout << "dataset: " << funcs.size() << " functions, n = " << n << " (" << circuit_funcs
            << " circuit-derived, " << (funcs.size() - circuit_funcs) << " consecutive)\n";

  // Reference classification (also the class ids the store must reproduce).
  BatchEngineOptions engine_options;
  engine_options.num_threads = jobs;
  BatchEngine engine{ClassifierKind::kExhaustive, engine_options};
  const ClassificationResult reference = engine.classify(funcs);

  // --- build ---------------------------------------------------------------
  StoreBuildOptions build_options;
  build_options.num_threads = jobs;
  // Size the cache to hold the whole workload with headroom for per-set
  // load skew, so the warm pass measures steady-state cache throughput, not
  // eviction churn.
  build_options.store.hot_cache_capacity = 2 * funcs.size() + 16;
  Stopwatch watch;
  ClassStore store = build_class_store(funcs, build_options);
  const double build_seconds = watch.seconds();
  std::cout << "build:   " << store.num_records() << " classes in " << build_seconds << " s\n";

  // --- cold lookups: no hot cache, canonicalize + index probe --------------
  store.clear_hot_cache();
  bool identical = true;
  watch.reset();
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    const auto result = store.lookup(funcs[i]);
    identical = identical && result.has_value() && result->class_id == reference.class_of[i];
  }
  const double cold_seconds = watch.seconds();

  // --- warm lookups: the second pass, answered by the hot cache ------------
  // The cache is set-associative, so residency is not guaranteed: a query
  // whose set evicted it answers from a lower tier under the same id. The
  // identity verdict covers ids and witnesses; the cache share is reported
  // on its own.
  std::size_t warm_cache_hits = 0;
  watch.reset();
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    const auto result = store.lookup(funcs[i]);
    identical = identical && result.has_value() && result->class_id == reference.class_of[i];
    warm_cache_hits += result.has_value() && result->source == LookupSource::kHotCache ? 1 : 0;
  }
  const double warm_seconds = watch.seconds();
  const double warm_cache_share =
      funcs.empty() ? 0.0 : static_cast<double>(warm_cache_hits) / static_cast<double>(funcs.size());

  // Transform soundness on a sample spread across the workload.
  const std::size_t stride = funcs.size() < 512 ? 1 : funcs.size() / 512;
  for (std::size_t i = 0; i < funcs.size(); i += stride) {
    const auto result = store.lookup(funcs[i]);
    identical = identical && result.has_value() &&
                apply_transform(funcs[i], result->to_representative) == result->representative;
  }

  // --- live single-thread exact classification baseline --------------------
  const std::size_t sample = std::min(live_sample, funcs.size());
  watch.reset();
  for (std::size_t i = 0; i < sample; ++i) {
    (void)exact_npn_canonical(funcs[i]);
  }
  const double live_seconds = watch.seconds();

  const auto per_sec = [](std::size_t count, double seconds) {
    return seconds > 0 ? static_cast<double>(count) / seconds : 0.0;
  };
  const double cold_rate = per_sec(funcs.size(), cold_seconds);
  const double warm_rate = per_sec(funcs.size(), warm_seconds);
  const double live_rate = per_sec(sample, live_seconds);
  const double speedup = live_rate > 0 ? warm_rate / live_rate : 0.0;

  std::cout << "cold:    " << cold_rate << " lookups/s\n"
            << "warm:    " << warm_rate << " lookups/s (hot-cache share " << warm_cache_share
            << ")\n"
            << "live:    " << live_rate << " canonicalizations/s (single thread, " << sample
            << " sampled)\n"
            << "warm vs live speedup: " << speedup << "x\n"
            << "bit-identical to BatchEngine: " << (identical ? "yes" : "NO") << "\n";

  // --- cold probes: page touches of the block-packed layout ---------------
  // A sorted synthetic record set probed through a fresh mmap. The headline
  // is pages touched per probe: the block-key search faults ~1 cold data
  // page (plus zero for provably-absent keys). Pages are counted two ways —
  // MmapSegment's deterministic probe accounting, and the OS's minor-fault
  // counter as a cross-check.
  const int cold_n = static_cast<int>(args.get_int("cold-n", 7));
  const std::size_t cold_count = static_cast<std::size_t>(args.get_int("cold-records", 1000000));
  const std::size_t cold_probe_count =
      static_cast<std::size_t>(args.get_int("cold-probes", 20000));
  const std::string cold_v3_path = args.get_string("cold-v3-index", "bench_cold_v3.fcs");

  std::cout << "\ncold probes: n = " << cold_n << ", " << cold_count
            << " synthetic classes, block-packed segment layout\n";

  double cold_pages_v3 = 0.0;
  double cold_faults_v3 = 0.0;
  double cold_rate_v3 = 0.0;
  bool cold_identical = true;
  bool cold_target_met = true;
  if (mmap_supported()) {
    std::vector<StoreRecord> cold_set;
    {
      std::mt19937_64 rng{0xc01dULL};
      std::unordered_set<TruthTable, TruthTableHash> keys;
      keys.reserve(cold_count);
      while (keys.size() < cold_count) {
        keys.insert(tt_random(cold_n, rng));
      }
      cold_set.reserve(cold_count);
      for (const auto& key : keys) {
        cold_set.push_back(StoreRecord{key, key, NpnTransform::identity(cold_n), 0, 1});
      }
      std::sort(cold_set.begin(), cold_set.end(), [](const StoreRecord& a, const StoreRecord& b) {
        return a.canonical < b.canonical;
      });
      for (std::size_t i = 0; i < cold_set.size(); ++i) {
        cold_set[i].class_id = static_cast<std::uint32_t>(i);
      }
    }
    {
      std::ofstream v3{cold_v3_path, std::ios::binary | std::ios::trunc};
      write_base_segment(v3, cold_n, cold_set.size(), cold_set);
    }

    // Probe keys: alternate present records (strided across the index) and
    // planted misses — random keys checked absent. Both probe shapes matter:
    // many misses resolve from the in-RAM block keys alone.
    std::vector<TruthTable> probe_keys;
    std::vector<std::optional<std::uint32_t>> expected_ids;
    probe_keys.reserve(cold_probe_count);
    expected_ids.reserve(cold_probe_count);
    {
      const auto present = [&](const TruthTable& key) {
        const auto it = std::lower_bound(
            cold_set.begin(), cold_set.end(), key,
            [](const StoreRecord& r, const TruthTable& k) { return r.canonical < k; });
        return it != cold_set.end() && it->canonical == key;
      };
      std::mt19937_64 rng{0xabc01dULL};
      const std::size_t stride = std::max<std::size_t>(1, 2 * cold_set.size() / cold_probe_count);
      std::size_t next = 0;
      for (std::size_t i = 0; i < cold_probe_count; ++i) {
        if (i % 2 == 0) {
          const StoreRecord& record = cold_set[next % cold_set.size()];
          probe_keys.push_back(record.canonical);
          expected_ids.emplace_back(record.class_id);
          next += stride;
          continue;
        }
        TruthTable miss = tt_random(cold_n, rng);
        while (present(miss)) {
          miss = tt_random(cold_n, rng);
        }
        probe_keys.push_back(std::move(miss));
        expected_ids.emplace_back(std::nullopt);
      }
    }

    std::vector<std::optional<std::uint32_t>> ids;
    ids.reserve(probe_keys.size());
    const std::shared_ptr<MmapSegment> segment = MmapSegment::open(cold_v3_path);
    const auto stats_before = segment->probe_stats();
    const long long faults_before = minor_faults();
    Stopwatch probe_watch;
    for (const auto& key : probe_keys) {
      ids.push_back(segment->find_class_id(key));
    }
    const double seconds = probe_watch.seconds();
    const long long faults_after = minor_faults();
    const auto stats_after = segment->probe_stats();
    const double probes = static_cast<double>(stats_after.probes - stats_before.probes);
    cold_pages_v3 =
        probes > 0 ? static_cast<double>(stats_after.pages - stats_before.pages) / probes : 0.0;
    cold_faults_v3 = probe_keys.empty() ? 0.0
                                        : static_cast<double>(faults_after - faults_before) /
                                              static_cast<double>(probe_keys.size());
    cold_rate_v3 = seconds > 0 ? static_cast<double>(probe_keys.size()) / seconds : 0.0;
    cold_identical = ids == expected_ids;
    // A cold probe touches at most ~1 data page (misses resolved off the
    // in-RAM block keys touch zero); 2 leaves headroom without ever
    // passing an O(log N) regression.
    cold_target_met = cold_pages_v3 <= 2.0;
    std::remove(cold_v3_path.c_str());

    std::cout << "blocked: " << cold_pages_v3 << " pages/probe (" << cold_faults_v3
              << " minor faults/probe), " << cold_rate_v3 << " lookups/s\n"
              << "page target (<= 2): " << (cold_target_met ? "met" : "MISSED") << "\n"
              << "ids match the written records, planted misses miss: "
              << (cold_identical ? "yes" : "NO") << "\n";
  } else {
    std::cout << "mmap unsupported on this platform; cold-probe phase skipped\n";
  }

  std::ofstream json{out_path, std::ios::trunc};
  json << "{\n"
       << "  \"bench\": \"store_lookup\",\n"
       << "  \"n\": " << n << ",\n"
       << "  \"functions\": " << funcs.size() << ",\n"
       << "  \"classes\": " << store.num_records() << ",\n"
       << "  \"build_seconds\": " << build_seconds << ",\n"
       << "  \"cold_lookups_per_sec\": " << cold_rate << ",\n"
       << "  \"warm_lookups_per_sec\": " << warm_rate << ",\n"
       << "  \"warm_hot_cache_share\": " << warm_cache_share << ",\n"
       << "  \"live_sample\": " << sample << ",\n"
       << "  \"live_single_thread_per_sec\": " << live_rate << ",\n"
       << "  \"warm_vs_live_speedup\": " << speedup << ",\n"
       << "  \"identical_to_engine\": " << (identical ? "true" : "false") << ",\n"
       << "  \"cold_probe_n\": " << cold_n << ",\n"
       << "  \"cold_probe_records\": " << cold_count << ",\n"
       << "  \"cold_probe_count\": " << cold_probe_count << ",\n"
       << "  \"cold_probe_pages_v3\": " << cold_pages_v3 << ",\n"
       << "  \"cold_probe_minflt_v3\": " << cold_faults_v3 << ",\n"
       << "  \"cold_probe_lookups_per_sec_v3\": " << cold_rate_v3 << ",\n"
       << "  \"cold_probe_v3_page_target_met\": " << (cold_target_met ? "true" : "false") << ",\n"
       << "  \"cold_probe_identical\": " << (cold_identical ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "wrote " << out_path << "\n";

  // --- storage engine: materialized load vs mmap cold open -----------------
  const int mmap_n = static_cast<int>(args.get_int("mmap-n", 7));
  const std::size_t mmap_records = static_cast<std::size_t>(args.get_int("mmap-records", 200000));
  const std::string mmap_out_path = args.get_string("mmap-out", "BENCH_store_mmap.json");
  const std::string index_path = args.get_string("mmap-index", "bench_store_mmap.fcs");

  std::cout << "\nstorage engine: n = " << mmap_n << ", " << mmap_records
            << " synthetic classes\n";
  make_synthetic_store(mmap_n, mmap_records, 0x5e6eULL).save(index_path);
  std::ifstream index_file{index_path, std::ios::binary | std::ios::ate};
  const long long index_bytes = index_file ? static_cast<long long>(index_file.tellg()) : -1;

  bool mmap_identical = true;
  double materialized_seconds = 0.0;
  double mmap_seconds = 0.0;
  long long materialized_rss_kib = 0;
  long long mmap_rss_kib = 0;
  long long mmap_rss_after_sample_kib = 0;
  double open_speedup = 0.0;
  std::size_t pages_validated = 0;
  std::size_t num_pages = 0;
  const std::size_t sample_every = mmap_records < 2048 ? 1 : mmap_records / 2048;

  {
    const long long rss_before = rss_kib();
    watch.reset();
    const ClassStore materialized = ClassStore::open(index_path);
    materialized_seconds = watch.seconds();
    materialized_rss_kib = rss_kib() - rss_before;

    const long long rss_mapped_before = rss_kib();
    watch.reset();
    const ClassStore mapped = ClassStore::open(index_path, StoreOpenOptions{.use_mmap = true});
    mmap_seconds = watch.seconds();
    mmap_rss_kib = rss_kib() - rss_mapped_before;
    open_speedup = mmap_seconds > 0 ? materialized_seconds / mmap_seconds : 0.0;

    // Bit-identity of the two read paths, probed by canonical key — the
    // operation the load produced the index for — plus absent keys.
    std::mt19937_64 probe_rng{0xab5e17ULL};
    for (std::size_t i = 0; i < materialized.records().size(); i += sample_every) {
      const TruthTable& key = materialized.records()[i].canonical;
      const auto a = materialized.find_canonical(key);
      const auto b = mapped.find_canonical(key);
      mmap_identical = mmap_identical && a.has_value() && b.has_value() &&
                       a->class_id == b->class_id && a->canonical == b->canonical &&
                       a->representative == b->representative &&
                       a->rep_to_canonical == b->rep_to_canonical &&
                       a->class_size == b->class_size;
    }
    for (std::size_t i = 0; i < 512; ++i) {
      const TruthTable absent = tt_random(mmap_n, probe_rng);
      const bool in_a = materialized.find_canonical(absent).has_value();
      const bool in_b = mapped.find_canonical(absent).has_value();
      mmap_identical = mmap_identical && in_a == in_b;
    }
    mmap_rss_after_sample_kib = rss_kib() - rss_mapped_before;
    const auto* segment = dynamic_cast<const MmapSegment*>(&mapped.base_segment());
    if (segment != nullptr) {
      pages_validated = segment->pages_validated();
      num_pages = segment->num_pages();
    }
  }
  std::remove(index_path.c_str());

  std::cout << "materialized load: " << materialized_seconds << " s (+" << materialized_rss_kib
            << " KiB RSS)\n"
            << "mmap cold open:    " << mmap_seconds << " s (+" << mmap_rss_kib
            << " KiB RSS; +" << mmap_rss_after_sample_kib << " KiB after " << pages_validated
            << "/" << num_pages << " pages touched)\n"
            << "open speedup:      " << open_speedup << "x\n"
            << "mmap bit-identical to materialized: " << (mmap_identical ? "yes" : "NO") << "\n";

  std::ofstream mmap_json{mmap_out_path, std::ios::trunc};
  mmap_json << "{\n"
            << "  \"bench\": \"store_mmap\",\n"
            << "  \"n\": " << mmap_n << ",\n"
            << "  \"records\": " << mmap_records << ",\n"
            << "  \"index_bytes\": " << index_bytes << ",\n"
            << "  \"materialized_load_seconds\": " << materialized_seconds << ",\n"
            << "  \"materialized_rss_kib\": " << materialized_rss_kib << ",\n"
            << "  \"mmap_open_seconds\": " << mmap_seconds << ",\n"
            << "  \"mmap_rss_kib\": " << mmap_rss_kib << ",\n"
            << "  \"mmap_rss_after_sample_kib\": " << mmap_rss_after_sample_kib << ",\n"
            << "  \"pages_validated\": " << pages_validated << ",\n"
            << "  \"num_pages\": " << num_pages << ",\n"
            << "  \"open_speedup\": " << open_speedup << ",\n"
            << "  \"identical\": " << (mmap_identical ? "true" : "false") << "\n"
            << "}\n";
  std::cout << "wrote " << mmap_out_path << "\n";

  // --- miss path: empty store learning the workload ------------------------
  const std::string misspath_out_path = args.get_string("misspath-out", "BENCH_store_misspath.json");
  std::cout << "\nmiss path: empty store, " << funcs.size() << " appends, n = " << n << "\n";

  bool misspath_identical = true;
  double memo_seconds = 0.0;
  double nomemo_seconds = 0.0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_canonicalizations = 0;
  {
    ClassStore learning{n};
    watch.reset();
    for (std::size_t i = 0; i < funcs.size(); ++i) {
      const auto result = learning.lookup_or_classify(funcs[i], /*append_on_miss=*/true);
      misspath_identical = misspath_identical && result.class_id == reference.class_of[i];
    }
    memo_seconds = watch.seconds();
    memo_hits = learning.num_memo_hits();
    memo_canonicalizations = learning.num_canonicalizations();
    misspath_identical = misspath_identical && learning.num_classes() == reference.num_classes;
  }
  {
    ClassStoreOptions no_memo;
    no_memo.semiclass_memo_capacity = 0;
    ClassStore learning{n, no_memo};
    watch.reset();
    for (std::size_t i = 0; i < funcs.size(); ++i) {
      const auto result = learning.lookup_or_classify(funcs[i], /*append_on_miss=*/true);
      misspath_identical = misspath_identical && result.class_id == reference.class_of[i];
    }
    nomemo_seconds = watch.seconds();
    misspath_identical = misspath_identical && learning.num_classes() == reference.num_classes;
  }
  const double memo_rate = per_sec(funcs.size(), memo_seconds);
  const double nomemo_rate = per_sec(funcs.size(), nomemo_seconds);
  const double memo_speedup = nomemo_rate > 0 ? memo_rate / nomemo_rate : 0.0;

  // Canonicalizer micro-benchmark: branch-and-bound vs the unpruned orbit
  // walk on the same sample. The walk is O(2^n * n!) per call, so keep the
  // sample small past n = 6.
  const std::size_t canon_sample = std::min<std::size_t>(n <= 6 ? 500 : 20, funcs.size());
  bool canon_identical = true;
  std::vector<TruthTable> bnb_results;
  bnb_results.reserve(canon_sample);
  watch.reset();
  for (std::size_t i = 0; i < canon_sample; ++i) {
    bnb_results.push_back(exact_npn_canonical(funcs[i]));
  }
  const double bnb_seconds = watch.seconds();
  watch.reset();
  for (std::size_t i = 0; i < canon_sample; ++i) {
    canon_identical = canon_identical && exact_npn_canonical_walk(funcs[i]) == bnb_results[i];
  }
  const double walk_seconds = watch.seconds();
  const double bnb_rate = per_sec(canon_sample, bnb_seconds);
  const double walk_rate = per_sec(canon_sample, walk_seconds);
  const double canon_speedup = walk_rate > 0 ? bnb_rate / walk_rate : 0.0;

  // Fixed-work canonicalizer rows: one seeded set of uniform random
  // functions per width, canonical form plus witness, us/op as the min of
  // 7 passes. The same inputs at every commit make the rows
  // comparable across changes; each is gated on bit-identity to the walk,
  // never on time.
  struct CanonRow {
    int n = 0;
    std::size_t functions = 0;
    double us_per_op = 0.0;
    bool identical_to_walk = true;
  };
  constexpr int canon_passes = 7;
  std::vector<CanonRow> canon_rows;
  for (const int row_n : {5, 6, 7}) {
    CanonRow row;
    row.n = row_n;
    const std::vector<TruthTable> row_funcs =
        tt_random_set(row_n, row_n <= 6 ? 1000 : 50, 0xCA70ULL + static_cast<std::uint64_t>(row_n));
    row.functions = row_funcs.size();
    std::vector<TruthTable> row_results(row_funcs.size());
    for (int pass = 0; pass < canon_passes; ++pass) {
      watch.reset();
      for (std::size_t i = 0; i < row_funcs.size(); ++i) {
        row_results[i] = exact_npn_canonical_with_transform(row_funcs[i]).canonical;
      }
      const double us = watch.seconds() * 1e6 / static_cast<double>(row_funcs.size());
      row.us_per_op = pass == 0 ? us : std::min(row.us_per_op, us);
    }
    for (std::size_t i = 0; i < row_funcs.size(); ++i) {
      row.identical_to_walk =
          row.identical_to_walk && exact_npn_canonical_walk(row_funcs[i]) == row_results[i];
    }
    canon_identical = canon_identical && row.identical_to_walk;
    canon_rows.push_back(row);
  }

  // Fixed-work index probe rows: ns per find_canonical of a canonical form
  // no tier holds — the probe every novel append pays after canonicalizing —
  // over a materialized base plus 0, 8 and 16 delta runs. Gated on answer
  // identity only, never on time.
  std::vector<IndexProbeRow> index_probe_rows;
  bool index_probe_identical = true;
  {
    std::mt19937_64 rng{0x1d3c5ULL};
    const std::size_t present = kIndexProbeBase + kIndexProbeMaxRuns * kIndexProbeRunRecords;
    std::unordered_set<TruthTable, TruthTableHash> keys;
    std::vector<StoreRecord> records;
    records.reserve(present);
    while (records.size() < present) {
      const TruthTable key = tt_random(kIndexProbeN, rng);
      if (keys.insert(key).second) {
        records.push_back(StoreRecord{key, key, NpnTransform::identity(kIndexProbeN),
                                      static_cast<std::uint32_t>(records.size()), 1});
      }
    }
    std::vector<TruthTable> misses;
    while (misses.size() < kIndexProbeMisses) {
      TruthTable key = tt_random(kIndexProbeN, rng);
      if (!keys.contains(key)) {
        misses.push_back(std::move(key));
      }
    }
    const auto by_canonical = [](const StoreRecord& a, const StoreRecord& b) {
      return a.canonical < b.canonical;
    };
    std::vector<StoreRecord> base{records.begin(),
                                  records.begin() + static_cast<std::ptrdiff_t>(kIndexProbeBase)};
    std::sort(base.begin(), base.end(), by_canonical);
    std::vector<std::vector<StoreRecord>> deltas(kIndexProbeMaxRuns);
    for (std::size_t r = 0; r < kIndexProbeMaxRuns; ++r) {
      const auto first = records.begin() + static_cast<std::ptrdiff_t>(
                                               kIndexProbeBase + r * kIndexProbeRunRecords);
      deltas[r].assign(first, first + static_cast<std::ptrdiff_t>(kIndexProbeRunRecords));
      std::sort(deltas[r].begin(), deltas[r].end(), by_canonical);
    }
    const std::string probe_path = "bench_index_probe.fcs";
    for (const std::size_t runs : {std::size_t{0}, std::size_t{8}, kIndexProbeMaxRuns}) {
      index_probe_rows.push_back(
          measure_index_miss_probe(probe_path, runs, base, deltas, misses));
      index_probe_identical = index_probe_identical && index_probe_rows.back().identical;
    }
  }

  // The memo must never slow the miss path: it is always on, so it has to
  // beat the no-memo baseline outright.
  const bool memo_gate_ok = memo_speedup >= 1.0;

  std::cout << "memo on:  " << memo_rate << " appends/s (" << memo_hits << " memo hits, "
            << memo_canonicalizations << " canonicalizations)\n"
            << "memo off: " << nomemo_rate << " appends/s\n"
            << "memo speedup: " << memo_speedup << "x"
            << (memo_gate_ok ? "" : " (REGRESSION: memo slower than no memo)") << "\n"
            << "canonicalizer (" << canon_sample << " sampled): B&B " << bnb_rate
            << "/s vs walk " << walk_rate << "/s = " << canon_speedup << "x\n";
  for (const CanonRow& row : canon_rows) {
    std::cout << "canonicalizer, random n=" << row.n << " (" << row.functions << " functions, min of "
              << canon_passes << " passes): " << row.us_per_op << " us/op, identical to walk: "
              << (row.identical_to_walk ? "yes" : "NO") << "\n";
  }
  for (const IndexProbeRow& row : index_probe_rows) {
    std::cout << "index miss probe, " << kIndexProbeBase << " base records + " << row.runs
              << " runs of " << kIndexProbeRunRecords << " (" << row.probes << " misses, min of "
              << kIndexProbePasses << " passes): " << row.ns_per_op
              << " ns/op, answers identical: " << (row.identical ? "yes" : "NO") << "\n";
  }
  std::cout << "miss-path ids bit-identical to BatchEngine: "
            << (misspath_identical ? "yes" : "NO") << "\n"
            << "B&B bit-identical to walk: " << (canon_identical ? "yes" : "NO") << "\n";

  std::ofstream misspath_json{misspath_out_path, std::ios::trunc};
  misspath_json << "{\n"
                << "  \"bench\": \"store_misspath\",\n"
                << "  \"n\": " << n << ",\n"
                << "  \"functions\": " << funcs.size() << ",\n"
                << "  \"classes\": " << reference.num_classes << ",\n"
                << "  \"memo_appends_per_sec\": " << memo_rate << ",\n"
                << "  \"nomemo_appends_per_sec\": " << nomemo_rate << ",\n"
                << "  \"memo_speedup\": " << memo_speedup << ",\n"
                << "  \"memo_gate_ok\": " << (memo_gate_ok ? "true" : "false") << ",\n"
                << "  \"memo_hits\": " << memo_hits << ",\n"
                << "  \"canonicalizations\": " << memo_canonicalizations << ",\n"
                << "  \"canon_sample\": " << canon_sample << ",\n"
                << "  \"bnb_per_sec\": " << bnb_rate << ",\n"
                << "  \"walk_per_sec\": " << walk_rate << ",\n"
                << "  \"bnb_vs_walk_speedup\": " << canon_speedup << ",\n"
                << "  \"canon_passes\": " << canon_passes << ",\n"
                << "  \"canon_random\": [";
  for (std::size_t i = 0; i < canon_rows.size(); ++i) {
    const CanonRow& row = canon_rows[i];
    misspath_json << (i == 0 ? "\n" : ",\n") << "    {\"n\": " << row.n
                  << ", \"functions\": " << row.functions << ", \"us_per_op\": " << row.us_per_op
                  << ", \"identical_to_walk\": " << (row.identical_to_walk ? "true" : "false") << "}";
  }
  misspath_json << "\n  ],\n"
                << "  \"index_miss_probe\": [";
  for (std::size_t i = 0; i < index_probe_rows.size(); ++i) {
    const IndexProbeRow& row = index_probe_rows[i];
    misspath_json << (i == 0 ? "\n" : ",\n") << "    {\"n\": " << kIndexProbeN
                  << ", \"base_records\": " << kIndexProbeBase << ", \"runs\": " << row.runs
                  << ", \"run_records\": " << kIndexProbeRunRecords
                  << ", \"probes\": " << row.probes << ", \"ns_per_op\": " << row.ns_per_op
                  << ", \"identical\": " << (row.identical ? "true" : "false") << "}";
  }
  misspath_json << "\n  ],\n"
                << "  \"identical_to_engine\": " << (misspath_identical ? "true" : "false") << ",\n"
                << "  \"bnb_identical_to_walk\": " << (canon_identical ? "true" : "false") << "\n"
                << "}\n";
  std::cout << "wrote " << misspath_out_path << "\n";

  // --- npn4 table tier: O(1) width <= 4 canonicalization -------------------
  const std::string npn4_out_path = args.get_string("npn4-out", "BENCH_npn4.json");
  std::cout << "\nnpn4 table tier: exhaustive 16-bit workload (65536 tables)\n";

  std::vector<TruthTable> npn4_funcs;
  npn4_funcs.reserve(1u << 16);
  for (std::uint64_t bits = 0; bits < (1u << 16); ++bits) {
    npn4_funcs.push_back(TruthTable::from_word(4, bits));
  }
  {
    std::mt19937_64 shuffle_rng{0x2fULL};
    std::shuffle(npn4_funcs.begin(), npn4_funcs.end(), shuffle_rng);
  }

  // Learning pass: the exhaustive workload appended into an empty width-4
  // store. Ids must equal the sequential classifier's (dense, by first
  // occurrence) and the store must never canonicalize.
  const ClassificationResult npn4_expected = classify_exhaustive(npn4_funcs);
  bool npn4_identical = npn4_expected.num_classes == kNpn4NumClasses;
  ClassStore npn4_store{4};
  watch.reset();
  for (std::size_t i = 0; i < npn4_funcs.size(); ++i) {
    const auto result = npn4_store.lookup_or_classify(npn4_funcs[i], /*append_on_miss=*/true);
    npn4_identical = npn4_identical && result.class_id == npn4_expected.class_of[i];
  }
  const double npn4_learn_seconds = watch.seconds();
  const std::uint64_t npn4_table_hits = npn4_store.num_table_hits();
  npn4_identical = npn4_identical && npn4_store.num_classes() == kNpn4NumClasses &&
                   npn4_store.num_canonicalizations() == 0 && npn4_table_hits > 0;

  // Cold lookups over the fully-learned class set. Cold IS the steady
  // state: every query is one table load + one slot load, the hot cache
  // never consulted.
  watch.reset();
  for (std::size_t i = 0; i < npn4_funcs.size(); ++i) {
    const auto result = npn4_store.lookup(npn4_funcs[i]);
    npn4_identical = npn4_identical && result.has_value() &&
                     result->class_id == npn4_expected.class_of[i] &&
                     result->source == LookupSource::kTable;
  }
  const double npn4_cold_seconds = watch.seconds();
  npn4_identical = npn4_identical && npn4_store.num_canonicalizations() == 0;

  // Canonicalizer throughput: the table dispatch on an n = 4 sample, then
  // the same sample checked against the exhaustive orbit walk.
  const std::size_t npn4_sample = std::min<std::size_t>(20000, npn4_funcs.size());
  std::vector<TruthTable> npn4_canon;
  npn4_canon.reserve(npn4_sample);
  watch.reset();
  for (std::size_t i = 0; i < npn4_sample; ++i) {
    npn4_canon.push_back(exact_npn_canonical(npn4_funcs[i]));
  }
  const double npn4_table_seconds = watch.seconds();
  bool npn4_canon_identical = true;
  for (std::size_t i = 0; i < npn4_sample; ++i) {
    npn4_canon_identical =
        npn4_canon_identical && exact_npn_canonical_walk(npn4_funcs[i]) == npn4_canon[i];
  }
  const double npn4_table_rate = per_sec(npn4_sample, npn4_table_seconds);
  const double npn4_learn_rate = per_sec(npn4_funcs.size(), npn4_learn_seconds);
  const double npn4_cold_rate = per_sec(npn4_funcs.size(), npn4_cold_seconds);

  std::cout << "learn: " << npn4_learn_rate << " appends/s (" << npn4_table_hits
            << " table hits, 0 canonicalizations)\n"
            << "cold:  " << npn4_cold_rate << " lookups/s\n"
            << "canonicalizer (" << npn4_sample << " sampled): table " << npn4_table_rate
            << "/s\n"
            << "table-tier ids bit-identical to the sequential classifier: "
            << (npn4_identical ? "yes" : "NO") << "\n"
            << "table canonical bit-identical to the orbit walk: "
            << (npn4_canon_identical ? "yes" : "NO") << "\n";

  std::ofstream npn4_json{npn4_out_path, std::ios::trunc};
  npn4_json << "{\n"
            << "  \"bench\": \"npn4_table\",\n"
            << "  \"n\": 4,\n"
            << "  \"functions\": " << npn4_funcs.size() << ",\n"
            << "  \"classes\": " << kNpn4NumClasses << ",\n"
            << "  \"learn_on_appends_per_sec\": " << npn4_learn_rate << ",\n"
            << "  \"cold_on_lookups_per_sec\": " << npn4_cold_rate << ",\n"
            << "  \"table_hits\": " << npn4_table_hits << ",\n"
            << "  \"canon_sample\": " << npn4_sample << ",\n"
            << "  \"table_canon_per_sec\": " << npn4_table_rate << ",\n"
            << "  \"identical_to_classifier\": " << (npn4_identical ? "true" : "false") << ",\n"
            << "  \"canon_identical_to_walk\": " << (npn4_canon_identical ? "true" : "false")
            << "\n"
            << "}\n";
  std::cout << "wrote " << npn4_out_path << "\n";

  // Non-zero exit on a correctness violation so CI fails loudly.
  return identical && mmap_identical && misspath_identical && canon_identical &&
                 index_probe_identical &&
                 npn4_identical && npn4_canon_identical && cold_identical && cold_target_met &&
                 memo_gate_ok
             ? 0
             : 1;
}
