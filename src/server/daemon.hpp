#pragma once
// ocelotd: the multi-tenant compression daemon.
//
// Deployment shape (ROADMAP item 2): many producers push fields at a
// shared compression service sitting on the data path to the WAN. One
// warm Engine serves every connection, so backend tables, buffer
// pools, and per-worker scratch arenas amortize across requests
// instead of being rebuilt per CLI invocation.
//
// Architecture:
//
//   accept threads (one per listener: unix socket and/or TCP)
//     -> connection reader threads (frame decode, admission)
//        -> FairScheduler (per-tenant bounded queues, max-min pick)
//           -> worker pool (Engine compress/decompress, respond)
//
// Readers only do framed I/O and admission; all compression runs on
// the fixed worker pool, whose long-lived threads keep the shared
// ScratchPools and their ScratchArena leases warm — the daemon's
// connection pooling is pool reuse across requests, not
// per-connection state.
// Responses are written under a per-connection mutex, so several
// workers can finish requests from one connection without interleaving
// frames (responses may be reordered; the frame id says which request
// a response answers).
//
// Graceful drain (SIGTERM in `ocelot serve`): stop accepting, reject
// new submissions with kError "draining", finish every queued and
// in-flight request, flush the responses, then close connections.
//
// Obs: spans daemon.request/daemon.compress/daemon.decompress and
// counters/histograms along accept -> admit -> compress -> respond.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "server/protocol.hpp"
#include "server/scheduler.hpp"

namespace ocelot::server {

struct DaemonConfig {
  /// Unix-socket path to listen on; empty disables the unix listener.
  std::string unix_path;
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see tcp_port()
  /// after start), -1 disables the TCP listener.
  int tcp_port = -1;
  /// Compression worker threads; 0 = every hardware thread.
  std::size_t workers = 0;
  /// Per-frame body cap, enforced before buffering a request.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Admission bounds for tenants without an explicit quota.
  TenantQuota default_quota;
  /// Per-tenant quota overrides (tenant name -> quota).
  std::vector<std::pair<std::string, TenantQuota>> tenant_quotas;
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the configured listeners and spawns accept/worker threads.
  /// Throws Error when a listener cannot bind.
  void start();

  /// The bound TCP port (after start); -1 when TCP is disabled.
  [[nodiscard]] int tcp_port() const { return bound_tcp_port_; }

  /// Graceful drain: stop accepting, finish queued + in-flight
  /// requests, respond, close. Idempotent; safe from a signal-handling
  /// thread (not from a signal handler itself).
  void shutdown();

  struct Stats {
    std::uint64_t connections = 0;  ///< accepted over the lifetime
    std::uint64_t requests_ok = 0;
    std::uint64_t requests_rejected = 0;  ///< admission backpressure
    std::uint64_t requests_error = 0;     ///< failed while processing
    FairScheduler::Stats scheduler;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Connection;
  struct Listener {
    int fd = -1;
    std::thread thread;
  };

  void accept_loop(int listen_fd);
  void reader_loop(std::shared_ptr<Connection> conn);
  void worker_loop();
  void handle_request(const std::shared_ptr<Connection>& conn, Frame request);
  void process(const std::shared_ptr<Connection>& conn, Frame request);
  void respond(const std::shared_ptr<Connection>& conn, const Frame& frame);

  DaemonConfig config_;
  FairScheduler scheduler_;
  int bound_tcp_port_ = -1;

  std::vector<Listener> listeners_;
  std::vector<std::thread> workers_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> requests_ok_{0};
  std::atomic<std::uint64_t> requests_rejected_{0};
  std::atomic<std::uint64_t> requests_error_{0};
};

}  // namespace ocelot::server
