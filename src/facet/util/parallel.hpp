/// \file parallel.hpp
/// \brief The one way facet runs work on threads: a bounded thread count
///        and a fork-join loop over indices.
///
/// Every thread count the library accepts — the batch engine's workers,
/// the store builder's, the reactor's event loops — goes through
/// resolve_num_threads, so a mistyped count fails before any thread starts.
/// parallel_for starts its helpers for one call and joins them before it
/// returns; no thread outlives the work it was started for.

#pragma once

#include <cstddef>
#include <functional>

namespace facet {

/// Largest thread count resolve_num_threads accepts.
inline constexpr std::size_t kMaxThreads = 1024;

/// A requested thread count made concrete: 0 selects
/// std::thread::hardware_concurrency() (at least 1, at most kMaxThreads);
/// any other value up to kMaxThreads is returned as is. Throws
/// std::invalid_argument above kMaxThreads.
[[nodiscard]] std::size_t resolve_num_threads(std::size_t requested);

/// Invokes fn(i) once for every i in [0, count) on
/// min(resolve_num_threads(num_threads), count) threads: the calling thread
/// plus helpers started for this call. Every thread claims indices from one
/// atomic counter, so skewed items balance dynamically. A thread count of 1,
/// or a count of at most 1, runs inline and starts no thread. Returns after
/// every helper has joined; if an invocation threw, the remaining indices
/// still run and the first captured exception is rethrown.
void parallel_for(std::size_t count, std::size_t num_threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace facet
