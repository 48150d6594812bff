#include "server/daemon.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "common/options.hpp"
#include "compressor/compressor.hpp"
#include "core/engine.hpp"
#include "io/block_container.hpp"
#include "io/dataset_file.hpp"
#include "obs/trace.hpp"

namespace ocelot::server {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

/// Elements of the field a blob declares, read from the OCZ header or
/// the OCB1 index without decoding any payload.
std::size_t declared_elements(std::span<const std::uint8_t> blob) {
  return is_block_container(blob) ? read_block_index(blob).shape.size()
                                  : inspect_blob(blob).shape.size();
}

/// The reply to a request whose response cannot fit the frame cap.
Frame frame_cap_error(std::uint64_t id, std::size_t max_frame_bytes) {
  OCELOT_COUNT("daemon.response_too_large", 1);
  return make_error(id, error_code::kInternal,
                    "response exceeds the frame-size cap of " +
                        std::to_string(max_frame_bytes) + " bytes");
}

int listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(path.size() < sizeof(addr.sun_path),
          "unix socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("cannot create unix socket");
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("cannot bind unix socket " + path);
  }
  if (::listen(fd, 128) < 0) {
    ::close(fd);
    throw_errno("cannot listen on unix socket " + path);
  }
  return fd;
}

int listen_tcp(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("cannot create tcp socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("cannot bind tcp port " + std::to_string(port));
  }
  if (::listen(fd, 128) < 0) {
    ::close(fd);
    throw_errno("cannot listen on tcp port " + std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

}  // namespace

struct Daemon::Connection {
  int fd = -1;
  std::mutex write_mu;   ///< one response frame at a time
  std::thread reader;
  std::atomic<bool> done{false};

  /// The last shared_ptr release closes the fd. Queued and in-flight
  /// scheduler jobs hold a reference, so a connection reaped after its
  /// reader exits keeps its descriptor open — and the number out of
  /// reuse by a later accept — until every pending respond() is done.
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)), scheduler_(config_.default_quota) {}

Daemon::~Daemon() { shutdown(); }

void Daemon::start() {
  require(!started_.exchange(true), "daemon already started");
  require(!config_.unix_path.empty() || config_.tcp_port >= 0,
          "daemon needs a unix socket path or a tcp port");
  require(config_.max_frame_bytes <= 0xffffffffu,
          "max_frame_bytes must fit the u32 length prefix (< 4 GiB)");

  for (const auto& [tenant, quota] : config_.tenant_quotas) {
    scheduler_.set_quota(tenant, quota);
  }

  if (!config_.unix_path.empty()) {
    listeners_.push_back({listen_unix(config_.unix_path), {}});
  }
  if (config_.tcp_port >= 0) {
    listeners_.push_back({listen_tcp(config_.tcp_port, &bound_tcp_port_), {}});
  }
  for (Listener& listener : listeners_) {
    listener.thread = std::thread(&Daemon::accept_loop, this, listener.fd);
  }

  const std::size_t n = Engine::resolve_workers(config_.workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back(&Daemon::worker_loop, this);
  }
}

void Daemon::accept_loop(int listen_fd) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);

    // Reap connections whose reader has finished (client went away):
    // joining outside the lock. The fd is NOT closed here — jobs this
    // connection still has queued hold shared_ptr references, and the
    // descriptor closes only when the last one releases (~Connection),
    // so a late respond() can never write into a recycled fd number.
    std::vector<std::shared_ptr<Connection>> dead;
    {
      const std::scoped_lock lock(conns_mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
          dead.push_back(std::move(*it));
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (const auto& conn : dead) {
      if (conn->reader.joinable()) conn->reader.join();
    }

    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    connections_.fetch_add(1, std::memory_order_relaxed);
    OCELOT_COUNT("daemon.connections", 1);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->reader = std::thread(&Daemon::reader_loop, this, conn);
    const std::scoped_lock lock(conns_mu_);
    conns_.push_back(std::move(conn));
  }
}

void Daemon::reader_loop(std::shared_ptr<Connection> conn) {
  while (true) {
    std::optional<Frame> frame;
    try {
      frame = read_frame(conn->fd, config_.max_frame_bytes);
    } catch (const CorruptStream& e) {
      // Malformed frame: the stream is desynchronized, so answer once
      // and drop the connection.
      respond(conn, make_error(0, error_code::kBadRequest, e.what()));
      break;
    } catch (const Error&) {
      break;  // socket error (connection reset, shutdown)
    }
    if (!frame.has_value()) break;  // clean EOF
    handle_request(conn, std::move(*frame));
  }
  conn->done.store(true, std::memory_order_release);
}

void Daemon::handle_request(const std::shared_ptr<Connection>& conn,
                            Frame request) {
  OCELOT_SPAN("daemon.admit");
  if (request.type == FrameType::kPing) {
    requests_ok_.fetch_add(1, std::memory_order_relaxed);
    respond(conn, make_ok(request.id, {}));
    return;
  }
  if (request.type != FrameType::kCompress &&
      request.type != FrameType::kDecompress) {
    requests_error_.fetch_add(1, std::memory_order_relaxed);
    respond(conn, make_error(request.id, error_code::kBadRequest,
                             "expected a request frame"));
    return;
  }

  const std::uint64_t id = request.id;
  const std::string tenant = request.tenant;
  const std::size_t cost = request.payload.size();
  OCELOT_HIST("daemon.request_bytes", static_cast<double>(cost));
  const Admit admit = scheduler_.submit(
      tenant, cost, [this, conn, request = std::move(request)]() mutable {
        process(conn, std::move(request));
      });
  switch (admit) {
    case Admit::kQueued:
      OCELOT_GAUGE_ADD("daemon.queue_depth", 1);
      return;
    case Admit::kQueueFull:
    case Admit::kBytesFull:
      requests_rejected_.fetch_add(1, std::memory_order_relaxed);
      OCELOT_COUNT("daemon.rejected", 1);
      respond(conn, make_error(id, error_code::kBusy,
                               "tenant '" + tenant + "' queue is full"));
      return;
    case Admit::kDraining:
      requests_rejected_.fetch_add(1, std::memory_order_relaxed);
      OCELOT_COUNT("daemon.rejected", 1);
      respond(conn, make_error(id, error_code::kDraining,
                               "daemon is draining"));
      return;
  }
}

void Daemon::worker_loop() {
  while (auto job = scheduler_.pop()) {
    OCELOT_GAUGE_ADD("daemon.queue_depth", -1);
    job->work();
  }
}

void Daemon::process(const std::shared_ptr<Connection>& conn, Frame request) {
  try {
    Frame reply;
    if (request.type == FrameType::kCompress) {
      OCELOT_SPAN("daemon.compress");
      OptionSet options = OptionSet::from_line(request.options, "request");
      CompressionOptionRules rules;
      rules.advisor_knobs_need_policy = true;  // the CLI compress contract
      const EngineRequest engine_request =
          parse_compression_options(options, rules);
      options.reject_unknown("request");
      const LoadedField field = load_field(request.payload);
      Bytes out;
      const EngineResult result =
          Engine::shared().compress(field.data, engine_request, out);
      reply = make_ok(request.id, std::move(out),
                      "raw=" + std::to_string(result.raw_bytes) +
                          " compressed=" +
                          std::to_string(result.compressed_bytes) +
                          " blocks=" + std::to_string(result.blocks));
    } else {
      OCELOT_SPAN("daemon.decompress");
      OptionSet options = OptionSet::from_line(request.options, "request");
      const std::size_t workers = options.get_count("workers", 0);
      options.reject_unknown("request");
      // The response carries the whole field, so a blob declaring more
      // floats than the cap holds is refused before any of it is
      // allocated.
      if (declared_elements(request.payload) >
          config_.max_frame_bytes / sizeof(float)) {
        requests_error_.fetch_add(1, std::memory_order_relaxed);
        respond(conn, frame_cap_error(request.id, config_.max_frame_bytes));
        return;
      }
      const FloatArray field =
          Engine::shared().decompress(request.payload, workers);
      // Same OCF1 bytes `ocelot decompress` writes for the same blob.
      reply = make_ok(request.id, save_field("decompressed", field));
    }
    requests_ok_.fetch_add(1, std::memory_order_relaxed);
    OCELOT_COUNT("daemon.requests_ok", 1);
    respond(conn, reply);
  } catch (const CorruptStream& e) {
    requests_error_.fetch_add(1, std::memory_order_relaxed);
    respond(conn, make_error(request.id, error_code::kBadRequest, e.what()));
  } catch (const InvalidArgument& e) {
    requests_error_.fetch_add(1, std::memory_order_relaxed);
    respond(conn, make_error(request.id, error_code::kBadRequest, e.what()));
  } catch (const std::exception& e) {
    requests_error_.fetch_add(1, std::memory_order_relaxed);
    respond(conn, make_error(request.id, error_code::kInternal, e.what()));
  }
}

void Daemon::respond(const std::shared_ptr<Connection>& conn,
                     const Frame& frame) {
  OCELOT_SPAN("daemon.respond");
  // A result can outgrow the frame cap (a decompress response is
  // larger than its request): answer with an error frame instead of
  // dropping the response and leaving a synchronous client waiting
  // forever for its request id.
  Bytes wire;
  bool too_large = false;
  try {
    wire = encode_frame(frame);
    too_large = wire.size() - 4 > config_.max_frame_bytes;
  } catch (const InvalidArgument&) {
    too_large = true;  // body above even the u32 wire limit
  }
  if (too_large) {
    wire = encode_frame(frame_cap_error(frame.id, config_.max_frame_bytes));
  }
  try {
    const std::scoped_lock lock(conn->write_mu);
    write_wire(conn->fd, wire);
  } catch (const Error&) {
    // Socket write failed: peer already gone; the reader will notice
    // and the connection will be reaped.
  }
}

void Daemon::shutdown() {
  if (!started_.load() || stopped_.exchange(true)) return;

  // 1. Stop accepting: wake the accept loops, join them, close
  //    listeners (and remove the unix socket path).
  stopping_.store(true, std::memory_order_relaxed);
  for (Listener& listener : listeners_) {
    if (listener.thread.joinable()) listener.thread.join();
    ::close(listener.fd);
  }
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());

  // 2. Drain: new submissions are rejected with kError "draining";
  //    readers stay alive so in-flight responses and rejections still
  //    reach their clients.
  scheduler_.drain();

  // 3. Workers finish every queued job, write the responses, and exit
  //    when the queue is empty.
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }

  // 4. Close the connections: shutdown unblocks blocked readers, then
  //    join. The fds close as the references drop below — the workers
  //    already finished, so no job still holds one.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    const std::scoped_lock lock(conns_mu_);
    conns.swap(conns_);
  }
  for (const auto& conn : conns) {
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

Daemon::Stats Daemon::stats() const {
  Stats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.requests_ok = requests_ok_.load(std::memory_order_relaxed);
  s.requests_rejected = requests_rejected_.load(std::memory_order_relaxed);
  s.requests_error = requests_error_.load(std::memory_order_relaxed);
  s.scheduler = scheduler_.stats();
  return s;
}

}  // namespace ocelot::server
