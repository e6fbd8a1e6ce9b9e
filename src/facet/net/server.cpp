#include "facet/net/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <exception>
#include <iostream>
#include <utility>

#include "facet/net/frame.hpp"
#include "facet/obs/clock.hpp"
#include "facet/obs/registry.hpp"

namespace facet {

namespace {

/// (inode, mtime, size) of one file; zeros when absent. The readonly reload
/// poll compares these to spot a compaction's base rename (new inode) or a
/// primary dlog append (new size/mtime). Whole-second mtime granularity is
/// fine: adoption always renames, and appends always grow the log.
std::array<std::uint64_t, 3> file_stamp(const std::string& path) noexcept
{
  struct ::stat st = {};
  if (::stat(path.c_str(), &st) != 0) {
    return {0, 0, 0};
  }
  return {static_cast<std::uint64_t>(st.st_ino), static_cast<std::uint64_t>(st.st_mtime),
          static_cast<std::uint64_t>(st.st_size)};
}

/// Combined stamp of a served index: base segment + its delta log.
std::array<std::uint64_t, 6> index_stamp(const std::string& index_path) noexcept
{
  const auto base = file_stamp(index_path);
  const auto dlog = file_stamp(ClassStore::delta_log_path(index_path));
  return {base[0], base[1], base[2], dlog[0], dlog[1], dlog[2]};
}

}  // namespace

ServeServer::ServeServer(ClassStore& store, std::string index_path, ServeServerOptions options)
    : options_{std::move(options)}
{
  served_.emplace(store.num_vars(), ServedIndex{&store, std::move(index_path)});
}

ServeServer::ServeServer(StoreRouter& router, std::map<int, std::string> index_paths,
                         ServeServerOptions options)
    : options_{std::move(options)}
{
  for (const int width : router.widths()) {
    served_.emplace(width, ServedIndex{router.store_for(width), std::move(index_paths[width])});
  }
}

std::vector<CompactionEvent> ServeServer::compaction_log() const
{
  const std::lock_guard<std::mutex> lock{compaction_log_mutex_};
  return compaction_log_;
}

ServeOptions ServeServer::session_options()
{
  ServeOptions session;
  session.readonly = options_.readonly;
  session.append_on_miss = options_.append_on_miss && !options_.readonly;
  session.slow_request_us = options_.slow_request_us;
  // Delta logs are wired on every writable server — not just under
  // --append — because protocol v2 makes append a per-request policy: a
  // v2 `append` frame must be durable even when the v1-facing default is
  // lookup-only. A session that appended nothing flushes nothing.
  if (!options_.readonly) {
    for (const auto& [width, index] : served_) {
      if (!index.path.empty()) {
        session.dlog_paths.emplace(width, ClassStore::delta_log_path(index.path));
      }
    }
  }
  return session;
}

std::vector<ClassStore*> ServeServer::served_stores() const
{
  std::vector<ClassStore*> stores;
  for (const auto& [width, index] : served_) {
    stores.push_back(index.store);
  }
  return stores;
}

/// One reactor-owned connection: sniffs (or is pinned to) a protocol on its
/// first bytes, then feeds them to the shared ServeDispatcher through either
/// the v2 FrameSession or the v1 line session (ServeDispatcher::consume).
/// Methods run on the owning loop's thread only (the reactor's contract), so
/// the dispatcher's plain session counters need no synchronization; the
/// process-wide ones are registry atomics. Its ServeConnectionSlot, taken in
/// the accept thread, holds one unit of the admission gauge until the
/// reactor destroys the connection.
class ServeConnection final : public ReactorConnection {
 public:
  ServeConnection(ServeServer* server, int forced_proto)
      : server_{server},
        dispatcher_{server->served_stores(), server->session_options()},
        frame_{&dispatcher_},
        proto_{forced_proto},
        accepted_ticks_{obs::now_ticks()}
  {
  }

  bool on_data(std::string& in, std::string& out) override
  {
    if (proto_ == 0) {
      if (in.empty()) {
        return true;
      }
      proto_ = static_cast<unsigned char>(in.front()) == kFrameRequestMagic ? 2 : 1;
    }
    if (proto_ == 2) {
      return frame_.consume(in, out) == FrameStep::kContinue;
    }
    const bool keep = dispatcher_.consume(in, out);
    in.clear();  // the line session keeps its own unfinished line
    return keep;
  }

  void on_eof(std::string& in, std::string& out) override
  {
    if (proto_ == 1) {
      // answers a final request that arrived without its newline
      dispatcher_.consume(in, out, /*at_eof=*/true);
    }
    // v2 (or never-spoke): an incomplete trailing frame is noise
  }

  void on_close() noexcept override
  {
    try {
      dispatcher_.flush_on_exit();
    } catch (...) {
      // flush failure must not escape the reactor's close path; the final
      // server-wide flush retries on shutdown
    }
    // `facet_serve_connection_lifetime`: accept to close.
    static obs::LatencyHistogram& lifetime =
        obs::MetricRegistry::global().histogram("facet_serve_connection_lifetime");
    lifetime.record_ns(obs::ticks_to_ns(obs::now_ticks() - accepted_ticks_));
    if (!server_->options_.readonly) {
      // the exit flush may have sealed a new run
      {
        const std::lock_guard<std::mutex> lock{server_->maintenance_mutex_};
        server_->compaction_due_ = true;
      }
      server_->maintenance_cv_.notify_one();
    }
  }

 private:
  ServeConnectionSlot slot_;
  ServeServer* server_;
  ServeDispatcher dispatcher_;
  FrameSession frame_;
  int proto_;  ///< 0 = sniff first byte, 1 = v1 lines, 2 = v2 frames
  std::uint64_t accepted_ticks_;
};

ServeServer::~ServeServer()
{
  if (started_ && !drained_) {
    request_shutdown();
    try {
      wait();
    } catch (...) {
      // destructor: nothing left to report to
    }
  }
  for (const int fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
}

void ServeServer::start()
{
  if (options_.listen.empty() && options_.unix_path.empty()) {
    throw NetError{"no endpoint configured (need --listen and/or --unix)"};
  }
  if (::pipe(wake_pipe_) != 0) {
    throw NetError{"cannot create shutdown pipe"};
  }
  // A peer that vanishes mid-response must surface as a write error, never
  // as a process-killing SIGPIPE: the server's own sends pass MSG_NOSIGNAL,
  // and this covers every other socket write in the process.
  std::signal(SIGPIPE, SIG_IGN);
  // Size the accept backlog to the connection cap: a reactor fleet connects
  // in bursts far larger than the default 64, and an overflowing accept
  // queue silently drops handshake ACKs (clients hang in retransmit).
  const int backlog = static_cast<int>(
      std::min<std::size_t>(std::max<std::size_t>(options_.max_connections, 64), 4096));
  if (!options_.listen.empty()) {
    tcp_listener_ = listen_tcp(parse_tcp_endpoint(options_.listen), backlog);
    tcp_port_ = local_tcp_port(tcp_listener_);
  }
  if (!options_.unix_path.empty()) {
    unix_listener_ = listen_unix(options_.unix_path, backlog);
  }
  ReactorOptions reactor_options;
  reactor_options.workers = options_.workers;
  reactor_options.idle_timeout = options_.idle_timeout;
  reactor_ = std::make_unique<Reactor>(reactor_options);
  reactor_->start();
  started_ = true;
  accept_thread_ = std::thread{[this] {
    try {
      accept_loop();
    } catch (const std::exception& e) {
      std::cerr << "facet-serve: accept loop failed: " << e.what() << "\n";
      stopping_.store(true);
    }
  }};
  // One maintenance thread: a writable server compacts, a readonly one
  // polls for the primary's compactions.
  const bool reloads = options_.readonly && options_.reload_poll.count() > 0;
  const bool compacts = !options_.readonly && options_.compact_after_runs != 0;
  if (reloads) {
    // Stamp before launching so startup never triggers a spurious reload —
    // the stores already serve exactly what is on disk right now.
    for (const auto& [width, index] : served_) {
      if (!index.path.empty()) {
        reload_stamps_[width] = index_stamp(index.path);
      }
    }
  }
  if (reloads || compacts) {
    maintenance_thread_ = std::thread{[this] { maintenance_loop(); }};
  }
}

void ServeServer::request_shutdown() noexcept
{
  stopping_.store(true);
  if (wake_pipe_[1] >= 0) {
    const char byte = 'q';
    [[maybe_unused]] const auto written = ::write(wake_pipe_[1], &byte, 1);
  }
}

void ServeServer::accept_loop()
{
  const int forced_proto = options_.proto == "v1" ? 1 : options_.proto == "v2" ? 2 : 0;
  std::vector<pollfd> fds;
  fds.push_back({wake_pipe_[0], POLLIN, 0});
  if (tcp_listener_.valid()) {
    fds.push_back({tcp_listener_.fd(), POLLIN, 0});
  }
  if (unix_listener_.valid()) {
    fds.push_back({unix_listener_.fd(), POLLIN, 0});
  }

  while (!stopping_.load()) {
    for (auto& fd : fds) {
      fd.revents = 0;
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      continue;  // EINTR
    }
    if ((fds[0].revents & POLLIN) != 0 || stopping_.load()) {
      break;
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if ((fds[i].revents & POLLIN) == 0) {
        continue;
      }
      const Socket& listener =
          fds[i].fd == tcp_listener_.fd() ? tcp_listener_ : unix_listener_;
      int accept_errno = 0;
      Socket connection = accept_connection(listener, accept_errno);
      if (!connection.valid()) {
        if (accept_errno == EMFILE || accept_errno == ENFILE ||
            accept_errno == ENOBUFS || accept_errno == ENOMEM) {
          // fd / buffer pressure: an instant retry cannot succeed, so back
          // off — but on the shutdown pipe, never a blind sleep, so a
          // shutdown request still wakes the loop immediately.
          pollfd wake{wake_pipe_[0], POLLIN, 0};
          ::poll(&wake, 1, 10);
        }
        // EINTR / ECONNABORTED: retry immediately
        continue;
      }
      if (ServeConnectionSlot::active() >= static_cast<std::int64_t>(options_.max_connections)) {
        // One non-blocking send: a fresh socket's buffer takes the line, and
        // a peer that is gone or not reading never stalls the accept thread.
        const std::string refusal =
            "err server at capacity (" + std::to_string(options_.max_connections) +
            " connections)\n";
        (void)::send(connection.fd(), refusal.data(), refusal.size(),
                     MSG_NOSIGNAL | MSG_DONTWAIT);
        continue;  // connection closes on scope exit
      }
      reactor_->add(std::move(connection),
                    std::make_unique<ServeConnection>(this, forced_proto));
    }
  }
  tcp_listener_.close();
  unix_listener_.close();
  if (!options_.unix_path.empty()) {
    ::unlink(options_.unix_path.c_str());
  }
}

void ServeServer::wait()
{
  if (!started_) {
    throw NetError{"ServeServer::wait called before start"};
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }

  // Drain: the reactor shuts down every connection's read side; each wakes
  // with EOF, its loop writes any in-flight response, and on_close
  // flushes appends to the delta log — stop() returns only when every
  // loop's connection table is empty.
  if (reactor_) {
    reactor_->stop();
  }

  if (maintenance_thread_.joinable()) {
    {
      // under the mutex: the thread is waiting, or has yet to read stopping_
      const std::lock_guard<std::mutex> lock{maintenance_mutex_};
      maintenance_cv_.notify_all();
    }
    maintenance_thread_.join();
  }
  final_flush();
  drained_ = true;
}

void ServeServer::final_flush()
{
  // Sessions already flush on exit; this catches a store mutated outside
  // any session (belt and braces — shutdown must lose zero appends).
  // flush_delta serializes inside each store's gate.
  for (const auto& [width, index] : served_) {
    if (index.path.empty() || index.store->num_appended() == 0) {
      continue;
    }
    try {
      index.store->flush_delta(ClassStore::delta_log_path(index.path));
    } catch (const std::exception& e) {
      std::cerr << "facet-serve: final flush of width " << width << " failed: " << e.what()
                << "\n";
    }
  }
}

void ServeServer::maintenance_loop()
{
  std::unique_lock<std::mutex> lock{maintenance_mutex_};
  while (!stopping_.load()) {
    if (options_.readonly) {
      maintenance_cv_.wait_for(lock, options_.reload_poll);
    } else {
      // A close during the previous sweep left the flag set: sweep again.
      maintenance_cv_.wait(lock, [this] { return compaction_due_ || stopping_.load(); });
      compaction_due_ = false;
    }
    if (stopping_.load()) {
      break;
    }
    lock.unlock();
    if (options_.readonly) {
      run_due_reloads();
    } else {
      run_due_compactions();
    }
    lock.lock();
  }
}

std::size_t ServeServer::run_due_reloads()
{
  std::size_t performed = 0;
  for (const auto& [width, index] : served_) {
    if (index.path.empty()) {
      continue;
    }
    const std::array<std::uint64_t, 6> stamp = index_stamp(index.path);
    auto& last = reload_stamps_[width];
    if (stamp == last) {
      continue;
    }
    try {
      index.store->reload(index.path);
      // Stamp what was observed BEFORE the reload: if the primary wrote
      // again mid-reload, the next poll sees another change and re-reloads
      // — stale is impossible, double-reload merely cheap.
      last = stamp;
      reloads_.fetch_add(1, std::memory_order_relaxed);
      ++performed;
    } catch (const std::exception& e) {
      // A rename caught halfway or a dlog mid-append can fail validation;
      // the store keeps serving its previous epoch and the next poll
      // retries against the settled files.
      std::cerr << "facet-serve: reload of width " << width << " failed: " << e.what() << "\n";
    }
  }
  return performed;
}

std::size_t ServeServer::run_due_compactions()
{
  std::size_t performed = 0;
  for (const auto& [width, index] : served_) {
    if (index.path.empty()) {
      continue;
    }
    // Trigger probes read the published tier snapshot without entering the
    // store gate.
    if (index.store->num_delta_segments() < options_.compact_after_runs) {
      continue;
    }
    try {
      compact_one(width, *index.store, index.path);
      ++performed;
    } catch (const std::exception& e) {
      // A failed compaction leaves the store serving its old tiers — log
      // and retry on the next sweep rather than dying.
      std::cerr << "facet-serve: compaction of width " << width << " failed: " << e.what()
                << "\n";
    }
  }
  return performed;
}

void ServeServer::compact_one(int width, ClassStore& store, const std::string& path)
{
  // ClassStore::compact() in its two halves, so the event below can count
  // what the compaction folds: the first flushes the memtable into the log
  // and pins the tiers; the second merges and writes with no gate held and
  // swaps the new base in through the gate (it also records the
  // facet_compaction_duration phases). Only this thread compacts a served
  // store, so the snapshot cannot go stale between the halves.
  const std::uint64_t t_start = obs::now_ticks();
  CompactionSnapshot snapshot = store.begin_compaction(path);
  const std::size_t runs = snapshot.tiers->deltas.size();
  if (runs == 0) {
    return;
  }
  const std::uint64_t dlog_bytes = ClassStore::delta_log_size(ClassStore::delta_log_path(path));
  std::size_t delta_records = 0;
  for (const auto& run : snapshot.tiers->deltas) {
    delta_records += run->size();
  }
  store.finish_compaction(path, std::move(snapshot));
  const CompactionEvent event{width, runs, delta_records, dlog_bytes,
                              obs::ticks_to_ns(obs::now_ticks() - t_start) / 1'000'000};

  // `stats all`'s compactor fields (compactions= and flushed= count in the store).
  auto& registry = obs::MetricRegistry::global();
  static obs::Counter& runs_total = registry.counter("facet_compaction_runs_total");
  static obs::Counter& records_total = registry.counter("facet_compaction_records_total");
  static obs::Counter& bytes_total = registry.counter("facet_compaction_bytes_total");
  static obs::Gauge& last_ms = registry.gauge("facet_compaction_last_ms");
  runs_total.inc(event.runs);
  records_total.inc(event.records);
  bytes_total.inc(event.bytes);
  last_ms.set(static_cast<std::int64_t>(event.duration_ms));
  const std::lock_guard<std::mutex> log_lock{compaction_log_mutex_};
  compaction_log_.push_back(event);
}

}  // namespace facet
