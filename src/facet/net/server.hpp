/// \file server.hpp
/// \brief Socket front end for the serve protocol: N concurrent connections
///        sharing one ClassStore / StoreRouter, plus background compaction.
///
/// `facet_cli serve --listen HOST:PORT [--unix PATH]` runs a ServeServer:
/// a TCP and/or Unix-domain listener whose accepted connections speak
/// either the v1 line protocol of store/serve.hpp or the v2 binary frame
/// protocol of net/frame.hpp (`--proto auto` sniffs the first byte: 0xFB
/// is a v2 frame, anything else a v1 line) against ONE shared store.
/// Connections are owned by an epoll Reactor (net/reactor.hpp): one event
/// loop per worker thread (`--workers`, default hardware_concurrency), each
/// owning its connections for their whole life — the thread that reads a
/// frame answers it. An idle connection costs one epoll registration
/// instead of a thread, so thousands of mostly-idle clients share a few
/// loops sized to the machine.
///
/// The server carries NO store lock of its own — synchronization lives
/// inside the store layer (class_store.hpp, store_router.hpp):
///
///   * lookups, hot-cache probes and index searches run gate-free against
///     the store's atomically-published tier snapshot — reader connections
///     never block behind a mutator;
///   * mutations — live classification, append_on_miss, session-exit delta
///     flushes, compaction swaps — serialize inside each store's own gate,
///     striped per width under a router: traffic on one width never stalls
///     another.
///
/// What remains here is connection lifecycle (accept, capacity, idle
/// timeout, drain) and one maintenance thread. On a writable server it is
/// the background compactor. A writable server owns its files and every
/// delta flush happens in a session, so the compactor sleeps until a
/// session closes (its exit flush may have sealed a run) and then checks
/// every served store: when the sealed delta-run count reaches
/// `compact_after_runs`, it folds base + runs into a fresh base segment
/// through the store's one compaction path
/// (ClassStore::compact, run in its two halves begin_compaction /
/// finish_compaction so the server can count what it folds) — the heavy
/// merge and file write run against a pinned snapshot with no gate held,
/// and only the final swap enters the store's gate, so live traffic never
/// stalls behind a compaction. On a readonly replica it is the reload poll
/// (ServeServerOptions::reload_poll) that adopts the primary's compactions.
///
/// Shutdown (request_shutdown(), wired to SIGINT/SIGTERM by the CLI) is
/// graceful: stop accepting, wake every in-flight connection (its session
/// flushes appends to the delta log on exit, exactly like `quit`), join the
/// maintenance thread, then run one final flush — a server killed mid-traffic loses
/// zero appended classes.
///
/// `--readonly` drops the mutation paths entirely: misses answer `err`
/// instead of classifying live, appends are rejected, and every connection
/// runs purely on the gate-free read path — the fleet fan-out mode where
/// many replicas serve one warm index.

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "facet/net/reactor.hpp"
#include "facet/net/socket.hpp"
#include "facet/store/class_store.hpp"
#include "facet/store/serve.hpp"
#include "facet/store/store_router.hpp"

namespace facet {

struct ServeServerOptions {
  /// TCP listen spec ("HOST:PORT", ":PORT", "PORT"); empty = no TCP
  /// listener. Port 0 binds an ephemeral port (tcp_port() reports it).
  std::string listen;
  /// Unix-domain socket path; empty = no Unix listener. At least one of
  /// listen/unix_path must be set.
  std::string unix_path;

  /// Serve reads only (see serve.hpp): misses answer err, appends rejected.
  bool readonly = false;
  /// Persist unknown classes (ignored under readonly).
  bool append_on_miss = false;

  /// Connections beyond this answer `err server at capacity` and close.
  std::size_t max_connections = 64;

  /// Disconnect a connection that sends nothing for this long (its session
  /// flushes exactly like a clean exit — the reactor's timer wheel retires
  /// it), so idle clients cannot pin connection slots forever. zero() = no
  /// timeout.
  std::chrono::milliseconds idle_timeout{0};

  /// Protocol selection: "auto" (default) sniffs the first byte per
  /// connection, "v1" / "v2" pin every connection to one protocol.
  std::string proto = "auto";

  /// Event-loop threads running protocol sessions; 0 = hardware_concurrency,
  /// above kMaxThreads start() throws std::invalid_argument.
  std::size_t workers = 0;

  /// Sessions log any request slower than this many microseconds to stderr
  /// (`--slow-us`; 0 disables — see ServeOptions::slow_request_us).
  std::uint64_t slow_request_us = 0;

  /// Readonly replicas only: re-stat every served index (base + delta log)
  /// at this interval and ClassStore::reload any store whose files changed
  /// — the other half of the compaction handshake. A compaction lands the
  /// new base by rename, so a replica sees a new inode/mtime and swaps
  /// its tiers to the fresh epoch without dropping in-flight requests.
  /// zero() (default) disables polling; ignored on writable servers, which
  /// own their files.
  std::chrono::milliseconds reload_poll{0};

  /// Compact a store once it holds >= this many sealed delta runs
  /// (0 disables background compaction).
  std::size_t compact_after_runs = 0;
};

/// One compaction the server performed (surfaced for logs and tests).
struct CompactionEvent {
  int width = 0;
  std::size_t runs = 0;          ///< delta runs folded into the new base
  std::size_t records = 0;       ///< records those runs held
  std::uint64_t bytes = 0;       ///< delta-log bytes folded away
  std::uint64_t duration_ms = 0; ///< flush-through-adopt wall time
};

class ServeServer {
 public:
  /// Serves one store: a one-width table. `index_path` locates the base
  /// segment (its delta log rides alongside).
  ServeServer(ClassStore& store, std::string index_path, ServeServerOptions options);

  /// Serves every width `router` routes. `index_paths` maps a routed width
  /// to its base-segment path; a width without one is served from memory
  /// only (no exit flush, compaction or reload).
  ServeServer(StoreRouter& router, std::map<int, std::string> index_paths,
              ServeServerOptions options);

  ~ServeServer();
  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds the listeners and launches the accept and maintenance threads.
  /// Throws NetError when no endpoint is configured or a bind fails.
  void start();

  /// Blocks until a shutdown request, then drains: stops accepting, wakes
  /// every in-flight connection, joins the loops, runs the final flush.
  void wait();

  /// start() + wait().
  void run()
  {
    start();
    wait();
  }

  /// Triggers shutdown. Async-signal-safe (atomic flag + self-pipe write),
  /// so the CLI calls this straight from its SIGINT/SIGTERM handler.
  void request_shutdown() noexcept;

  /// The TCP port actually bound (after start(); resolves ephemeral-port
  /// requests for tests and logs). 0 when no TCP listener is configured.
  [[nodiscard]] std::uint16_t tcp_port() const noexcept { return tcp_port_; }

  /// Compactions performed so far (copy; internally synchronized).
  [[nodiscard]] std::vector<CompactionEvent> compaction_log() const;

  /// Successful store reloads performed by the readonly reload poll.
  [[nodiscard]] std::uint64_t reloads() const noexcept
  {
    return reloads_.load(std::memory_order_relaxed);
  }

 private:
  friend class ServeConnection;

  void accept_loop();
  [[nodiscard]] ServeOptions session_options();
  [[nodiscard]] std::vector<ClassStore*> served_stores() const;

  /// The maintenance thread: on a writable server, one compaction sweep
  /// per batch of session closes (compaction_due_); on a readonly one, one
  /// reload sweep every reload_poll.
  void maintenance_loop();
  /// One trigger sweep over every served store; returns compactions done.
  std::size_t run_due_compactions();
  void compact_one(int width, ClassStore& store, const std::string& path);

  /// One stat sweep over every served index; reloads stores whose base or
  /// delta log changed on disk. Returns reloads performed.
  std::size_t run_due_reloads();

  void final_flush();

  /// One served store and its base-segment path (empty = memory only).
  struct ServedIndex {
    ClassStore* store = nullptr;
    std::string path;
  };
  /// width -> served store, built once by the constructor.
  std::map<int, ServedIndex> served_;
  ServeServerOptions options_;

  Socket tcp_listener_;
  Socket unix_listener_;
  std::uint16_t tcp_port_ = 0;
  int wake_pipe_[2] = {-1, -1};

  std::thread accept_thread_;
  std::thread maintenance_thread_;
  /// Owns every accepted connection; created in start() (its worker count
  /// depends on the resolved options).
  std::unique_ptr<Reactor> reactor_;

  /// Wakes the maintenance thread: shutdown, and a connection's exit flush
  /// on a writable server, which sets compaction_due_ under the mutex so a
  /// close that lands mid-sweep is never lost.
  std::mutex maintenance_mutex_;
  std::condition_variable maintenance_cv_;
  bool compaction_due_ = false;
  mutable std::mutex compaction_log_mutex_;
  std::vector<CompactionEvent> compaction_log_;

  /// width -> (inode, mtime, size) of the base file and its delta log, as
  /// last reloaded. Touched only by start() and the maintenance thread.
  std::map<int, std::array<std::uint64_t, 6>> reload_stamps_;
  std::atomic<std::uint64_t> reloads_{0};

  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool drained_ = false;
};

}  // namespace facet
