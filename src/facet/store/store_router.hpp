/// \file store_router.hpp
/// \brief Multi-width store federation: one ClassStore per function width
///        behind one routing table.
///
/// One `.fcs` index holds one function width, but production NPN lookup —
/// mappers enumerating cuts of mixed sizes — queries many widths through a
/// single session. A StoreRouter owns one ClassStore per width n and
/// routes every query by `num_vars` (store_for), so the serve dispatcher,
/// the network server and the CLI (`facet_cli serve --route`) talk to one
/// object regardless of how many widths are indexed.
///
/// Concurrency: the routing table is immutable once serving starts —
/// attach()/open() run single-threaded at setup — and every routed store
/// synchronizes itself (class_store.hpp: snapshot-epoch reads + a per-store
/// mutation gate). Synchronization is therefore striped per width: an
/// append, flush or compaction swap on the n=6 store never blocks readers
/// *or* writers on n=7, because the only gates in the system are the
/// per-store ones. store_for() and the aggregate accessors are safe from
/// any mix of threads after setup; queries go to store_for(n)'s lookup()
/// or lookup_or_classify().

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "facet/store/class_store.hpp"

namespace facet {

class StoreRouter {
 public:
  StoreRouter() = default;

  /// Takes ownership of `store`, routing its width to it. Throws
  /// std::invalid_argument when the width is already routed. Setup-time
  /// only: must not race any other member (the routing table itself has no
  /// gate — it is immutable while serving).
  void attach(std::unique_ptr<ClassStore> store);

  /// Convenience: opens every path (ClassStore::open — base plus delta log)
  /// and attaches the stores. Widths come from the file headers; a
  /// duplicate width throws std::invalid_argument.
  [[nodiscard]] static StoreRouter open(const std::vector<std::string>& paths,
                                        const StoreOpenOptions& options = {});

  /// The store routing width `num_vars`; nullptr when unrouted.
  [[nodiscard]] ClassStore* store_for(int num_vars) noexcept;

  [[nodiscard]] std::size_t num_stores() const noexcept { return stores_.size(); }
  /// Routed widths, ascending.
  [[nodiscard]] std::vector<int> widths() const;

  /// Aggregates across all routed stores.
  [[nodiscard]] std::size_t num_records() const;
  [[nodiscard]] std::uint64_t num_classes() const noexcept;

 private:
  std::map<int, std::unique_ptr<ClassStore>> stores_;
};

}  // namespace facet
