#include "facet/util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

namespace facet {

std::size_t resolve_num_threads(std::size_t requested)
{
  if (requested > kMaxThreads) {
    throw std::invalid_argument{"thread count " + std::to_string(requested) +
                                " exceeds the limit of " + std::to_string(kMaxThreads)};
  }
  if (requested == 0) {
    return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kMaxThreads);
  }
  return requested;
}

void parallel_for(std::size_t count, std::size_t num_threads,
                  const std::function<void(std::size_t)>& fn)
{
  const std::size_t threads = std::min(resolve_num_threads(num_threads), count);

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock{error_mutex};
        if (!error) {
          error = std::current_exception();
        }
      }
    }
  };

  std::vector<std::thread> helpers;
  helpers.reserve(threads > 1 ? threads - 1 : 0);
  try {
    while (helpers.size() + 1 < threads) {
      helpers.emplace_back(drain);
    }
  } catch (const std::system_error&) {
    // The OS refused a thread: the helpers already running and the caller
    // still claim every index.
  }
  drain();
  for (auto& helper : helpers) {
    helper.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace facet
