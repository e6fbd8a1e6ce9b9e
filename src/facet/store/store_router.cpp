#include "facet/store/store_router.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

namespace facet {

void StoreRouter::attach(std::unique_ptr<ClassStore> store)
{
  if (store == nullptr) {
    throw std::invalid_argument{"StoreRouter::attach: null store"};
  }
  const int width = store->num_vars();
  if (stores_.contains(width)) {
    std::ostringstream msg;
    msg << "StoreRouter::attach: width " << width << " is already routed";
    throw std::invalid_argument{msg.str()};
  }
  stores_.emplace(width, std::move(store));
}

StoreRouter StoreRouter::open(const std::vector<std::string>& paths,
                              const StoreOpenOptions& options)
{
  StoreRouter router;
  for (const auto& path : paths) {
    router.attach(std::make_unique<ClassStore>(ClassStore::open(path, options)));
  }
  return router;
}

ClassStore* StoreRouter::store_for(int num_vars) noexcept
{
  const auto it = stores_.find(num_vars);
  return it == stores_.end() ? nullptr : it->second.get();
}

std::vector<int> StoreRouter::widths() const
{
  std::vector<int> result;
  result.reserve(stores_.size());
  for (const auto& [width, store] : stores_) {
    result.push_back(width);
  }
  return result;
}

std::size_t StoreRouter::num_records() const
{
  std::size_t total = 0;
  for (const auto& [width, store] : stores_) {
    total += store->num_records();
  }
  return total;
}

std::uint64_t StoreRouter::num_classes() const noexcept
{
  std::uint64_t total = 0;
  for (const auto& [width, store] : stores_) {
    total += store->num_classes();
  }
  return total;
}

}  // namespace facet
