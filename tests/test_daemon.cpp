// ocelotd end-to-end and unit tests: OCR1 framing, per-tenant
// admission + max-min fair scheduling, and the daemon's full
// accept -> admit -> compress -> respond path over a unix socket.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/options.hpp"
#include "compressor/compressor.hpp"
#include "core/engine.hpp"
#include "datagen/datasets.hpp"
#include "io/block_container.hpp"
#include "io/dataset_file.hpp"
#include "server/client.hpp"
#include "server/daemon.hpp"
#include "server/protocol.hpp"
#include "server/scheduler.hpp"

namespace ocelot::server {
namespace {

std::string test_socket_path(const std::string& tag) {
  return "/tmp/ocelot_test_" + tag + "_" + std::to_string(::getpid()) +
         ".sock";
}

// ---------------------------------------------------------------- protocol

TEST(Protocol, FrameRoundTripsEveryField) {
  Frame frame;
  frame.type = FrameType::kCompress;
  frame.id = 0x1234567;
  frame.tenant = "climate-sim";
  frame.options = "eb=1e-3 backend=sz3";
  frame.payload = {0, 1, 2, 255, 128, 7};

  const Bytes wire = encode_frame(frame);
  // Body starts after the u32 length prefix.
  std::uint32_t body_len = 0;
  std::memcpy(&body_len, wire.data(), sizeof(body_len));
  ASSERT_EQ(body_len + 4, wire.size());

  const Frame back = decode_frame(
      std::span<const std::uint8_t>(wire).subspan(4));
  EXPECT_EQ(back.type, frame.type);
  EXPECT_EQ(back.id, frame.id);
  EXPECT_EQ(back.tenant, frame.tenant);
  EXPECT_EQ(back.options, frame.options);
  EXPECT_EQ(back.payload, frame.payload);
}

TEST(Protocol, EmptyFieldsRoundTrip) {
  Frame frame;
  frame.type = FrameType::kPing;
  const Bytes wire = encode_frame(frame);
  const Frame back = decode_frame(
      std::span<const std::uint8_t>(wire).subspan(4));
  EXPECT_EQ(back.type, FrameType::kPing);
  EXPECT_EQ(back.id, 0u);
  EXPECT_TRUE(back.tenant.empty());
  EXPECT_TRUE(back.payload.empty());
}

TEST(Protocol, RejectsBadMagic) {
  Frame frame;
  frame.type = FrameType::kPing;
  Bytes wire = encode_frame(frame);
  wire[4] = 'X';  // first magic byte
  EXPECT_THROW(
      (void)decode_frame(std::span<const std::uint8_t>(wire).subspan(4)),
      CorruptStream);
}

TEST(Protocol, RejectsUnknownFrameType) {
  Frame frame;
  frame.type = FrameType::kPing;
  Bytes wire = encode_frame(frame);
  wire[8] = 99;  // type byte after the 4-byte magic
  EXPECT_THROW(
      (void)decode_frame(std::span<const std::uint8_t>(wire).subspan(4)),
      CorruptStream);
}

TEST(Protocol, RejectsTruncatedAndTrailingBodies) {
  Frame frame;
  frame.type = FrameType::kOk;
  frame.payload = {1, 2, 3, 4};
  Bytes wire = encode_frame(frame);
  const auto body = std::span<const std::uint8_t>(wire).subspan(4);
  EXPECT_THROW((void)decode_frame(body.first(body.size() - 2)),
               CorruptStream);
  Bytes trailing(body.begin(), body.end());
  trailing.push_back(0);
  EXPECT_THROW((void)decode_frame(trailing), CorruptStream);
}

TEST(Protocol, ReadFrameEnforcesLengthBounds) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Oversized: length prefix far past the cap, no body needed.
  const std::uint32_t huge = 1u << 20;
  ASSERT_EQ(::write(fds[1], &huge, sizeof(huge)),
            static_cast<ssize_t>(sizeof(huge)));
  EXPECT_THROW((void)read_frame(fds[0], /*max_frame_bytes=*/1 << 16),
               CorruptStream);
  ::close(fds[0]);
  ::close(fds[1]);

  // Truncated: the header promises more body than ever arrives.
  ASSERT_EQ(::pipe(fds), 0);
  const std::uint32_t len = 20;
  ASSERT_EQ(::write(fds[1], &len, sizeof(len)),
            static_cast<ssize_t>(sizeof(len)));
  ASSERT_EQ(::write(fds[1], "OCR1\x03", 5), 5);
  ::close(fds[1]);
  EXPECT_THROW((void)read_frame(fds[0], 1 << 16), CorruptStream);
  ::close(fds[0]);

  // Clean EOF before any byte: nullopt, not an error.
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[1]);
  EXPECT_FALSE(read_frame(fds[0], 1 << 16).has_value());
  ::close(fds[0]);
}

// --------------------------------------------------------------- scheduler

TEST(FairScheduler, BoundsQueueDepthPerTenant) {
  TenantQuota quota;
  quota.max_queued = 2;
  FairScheduler scheduler(quota);
  EXPECT_EQ(scheduler.submit("t", 10, [] {}), Admit::kQueued);
  EXPECT_EQ(scheduler.submit("t", 10, [] {}), Admit::kQueued);
  EXPECT_EQ(scheduler.submit("t", 10, [] {}), Admit::kQueueFull);
  // Another tenant's queue is independent.
  EXPECT_EQ(scheduler.submit("u", 10, [] {}), Admit::kQueued);
  EXPECT_EQ(scheduler.stats().rejected, 1u);
}

TEST(FairScheduler, BoundsQueuedBytesPerTenant) {
  TenantQuota quota;
  quota.max_queued_bytes = 100;
  FairScheduler scheduler(quota);
  EXPECT_EQ(scheduler.submit("t", 60, [] {}), Admit::kQueued);
  EXPECT_EQ(scheduler.submit("t", 60, [] {}), Admit::kBytesFull);
  EXPECT_EQ(scheduler.submit("t", 40, [] {}), Admit::kQueued);
}

TEST(FairScheduler, DrainRejectsNewWorkServesQueued) {
  FairScheduler scheduler;
  EXPECT_EQ(scheduler.submit("t", 1, [] {}), Admit::kQueued);
  scheduler.drain();
  EXPECT_EQ(scheduler.submit("t", 1, [] {}), Admit::kDraining);
  EXPECT_TRUE(scheduler.pop().has_value());  // queued job still served
  EXPECT_FALSE(scheduler.pop().has_value()); // drained and empty
}

TEST(FairScheduler, WeightedMaxMinInterleavesByWeight) {
  FairScheduler scheduler;
  TenantQuota heavy;
  heavy.weight = 3.0;
  heavy.max_queued = 64;
  scheduler.set_quota("alpha", heavy);

  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(scheduler.submit("alpha", 100, [] {}), Admit::kQueued);
    ASSERT_EQ(scheduler.submit("beta", 100, [] {}), Admit::kQueued);
  }
  int alpha_in_first_half = 0;
  for (int i = 0; i < 40; ++i) {
    const auto job = scheduler.pop();
    ASSERT_TRUE(job.has_value());
    if (job->tenant == "alpha") ++alpha_in_first_half;
  }
  // weight 3 vs 1: alpha should take ~30 of the first 40 dispatches.
  EXPECT_GE(alpha_in_first_half, 27);
  EXPECT_LE(alpha_in_first_half, 33);
}

TEST(FairScheduler, ReArrivalClampDropsIdleCredit) {
  FairScheduler scheduler;
  // "busy" accrues service alone.
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(scheduler.submit("busy", 100, [] {}), Admit::kQueued);
  }
  for (int i = 0; i < 9; ++i) (void)scheduler.pop();
  // "fresh" arrives while busy is still backlogged: its counter is
  // lifted to the backlogged minimum instead of starting from zero.
  ASSERT_EQ(scheduler.submit("fresh", 100, [] {}), Admit::kQueued);
  double busy_norm = -1.0;
  double fresh_norm = -1.0;
  for (const auto& [tenant, norm] : scheduler.served()) {
    if (tenant == "busy") busy_norm = norm;
    if (tenant == "fresh") fresh_norm = norm;
  }
  EXPECT_GT(busy_norm, 0.0);
  EXPECT_GE(fresh_norm, busy_norm);
}

// ------------------------------------------------------------------ daemon

/// What the daemon computes for a compress request, done directly
/// against the Engine facade — the byte-determinism oracle.
Bytes engine_reference_compress(const Bytes& field_bytes,
                                const std::string& options_line) {
  OptionSet options = OptionSet::from_line(options_line, "request");
  CompressionOptionRules rules;
  rules.advisor_knobs_need_policy = true;
  const EngineRequest request = parse_compression_options(options, rules);
  options.reject_unknown("request");
  const LoadedField field = load_field(field_bytes);
  Bytes out;
  (void)Engine::shared().compress(field.data, request, out);
  return out;
}

Bytes small_field_bytes() {
  static const Bytes bytes = save_field(
      "Miranda/density", generate_field("Miranda", "density", 0.05, 7));
  return bytes;
}

TEST(Daemon, CompressBytesMatchCliAndEngine) {
  const std::string path = test_socket_path("bytes");
  DaemonConfig config;
  config.unix_path = path;
  config.workers = 2;
  Daemon daemon(config);
  daemon.start();

  const Bytes field_bytes = small_field_bytes();
  for (const char* options : {"eb=1e-3 backend=sz3",
                              "eb=1e-3 policy=adaptive block_slabs=4"}) {
    Client client = Client::connect_unix(path);
    std::string stats_line;
    const Bytes via_daemon =
        client.compress("tenant-a", field_bytes, options, &stats_line);
    EXPECT_EQ(via_daemon, engine_reference_compress(field_bytes, options))
        << options;
    EXPECT_NE(stats_line.find("raw="), std::string::npos);
  }
  daemon.shutdown();
}

TEST(Daemon, DecompressRoundTripsThroughService) {
  const std::string path = test_socket_path("roundtrip");
  DaemonConfig config;
  config.unix_path = path;
  config.workers = 2;
  Daemon daemon(config);
  daemon.start();

  const Bytes field_bytes = small_field_bytes();
  Client client = Client::connect_unix(path);
  const Bytes blob =
      client.compress("tenant-a", field_bytes, "eb=1e-3 backend=sz3");
  const Bytes back = client.decompress("tenant-a", blob);

  const LoadedField original = load_field(field_bytes);
  const LoadedField decoded = load_field(back);
  ASSERT_TRUE(decoded.data.shape() == original.data.shape());
  daemon.shutdown();
}

TEST(Daemon, PingAndBadOptionsOverTcp) {
  DaemonConfig config;
  config.tcp_port = 0;  // ephemeral
  Daemon daemon(config);
  daemon.start();
  ASSERT_GT(daemon.tcp_port(), 0);

  Client client = Client::connect_tcp("127.0.0.1", daemon.tcp_port());
  client.ping();
  try {
    (void)client.compress("t", small_field_bytes(), "bogus_knob=1");
    FAIL() << "expected RequestRejected";
  } catch (const RequestRejected& e) {
    EXPECT_EQ(e.code(), "bad-request");
    EXPECT_NE(std::string(e.what()).find("bogus_knob"), std::string::npos);
  }
  daemon.shutdown();
}

/// Raw connection helper for malformed-bytes tests (Client refuses to
/// send garbage, so speak to the socket directly).
int raw_unix_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

TEST(Daemon, GarbageFrameGetsErrorThenClose) {
  const std::string path = test_socket_path("garbage");
  DaemonConfig config;
  config.unix_path = path;
  config.workers = 1;
  Daemon daemon(config);
  daemon.start();

  const int fd = raw_unix_connect(path);
  const std::uint32_t len = 9;
  ASSERT_EQ(::write(fd, &len, sizeof(len)), static_cast<ssize_t>(sizeof(len)));
  ASSERT_EQ(::write(fd, "XXXXXXXXX", 9), 9);
  const auto reply = read_frame(fd, kDefaultMaxFrameBytes);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(reply->options, error_code::kBadRequest);
  // The daemon drops the connection after a protocol violation.
  EXPECT_FALSE(read_frame(fd, kDefaultMaxFrameBytes).has_value());
  ::close(fd);
  daemon.shutdown();
}

TEST(Daemon, ClientHangingUpBeforeItsResponseDoesNotKillTheDaemon) {
  const std::string path = test_socket_path("hangup");
  DaemonConfig config;
  config.unix_path = path;
  config.workers = 1;
  Daemon daemon(config);
  daemon.start();

  // Each client sends a compress request and closes without reading.
  // The ~1 MB field takes milliseconds to compress while close()
  // follows the write within microseconds, so every response goes to
  // a vanished peer. A plain write() there raises SIGPIPE and kills
  // this whole process.
  std::vector<float> values(64 * 64 * 64);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)));
  }
  const Bytes big_field = save_field(
      "hangup/sine", FloatArray(Shape(64, 64, 64), std::move(values)));
  for (std::uint64_t id = 1; id <= 2; ++id) {
    const int fd = raw_unix_connect(path);
    Frame request;
    request.type = FrameType::kCompress;
    request.id = id;
    request.tenant = "hangup";
    request.options = "eb=1e-3 backend=sz3";
    request.payload = big_field;
    write_frame(fd, request);
    ::close(fd);
  }

  // The daemon survives and still serves the next client.
  const Bytes field_bytes = small_field_bytes();
  Client client = Client::connect_unix(path);
  EXPECT_EQ(client.compress("tenant-b", field_bytes, "eb=1e-3 backend=sz3"),
            engine_reference_compress(field_bytes, "eb=1e-3 backend=sz3"));
  daemon.shutdown();  // drains the hung-up requests' responses too
  EXPECT_EQ(daemon.stats().requests_ok, 3u);
}

TEST(Daemon, OversizedFrameRejectedBeforeBuffering) {
  const std::string path = test_socket_path("oversized");
  DaemonConfig config;
  config.unix_path = path;
  config.workers = 1;
  config.max_frame_bytes = 1 << 16;
  Daemon daemon(config);
  daemon.start();

  const int fd = raw_unix_connect(path);
  const std::uint32_t len = 1 << 20;  // past the configured cap
  ASSERT_EQ(::write(fd, &len, sizeof(len)), static_cast<ssize_t>(sizeof(len)));
  const auto reply = read_frame(fd, kDefaultMaxFrameBytes);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(reply->options, error_code::kBadRequest);
  EXPECT_FALSE(read_frame(fd, kDefaultMaxFrameBytes).has_value());
  ::close(fd);
  daemon.shutdown();
}

TEST(Daemon, OversizedResponseAnswersErrorInsteadOfHanging) {
  const Bytes field_bytes = small_field_bytes();
  const Bytes blob =
      engine_reference_compress(field_bytes, "eb=1e-3 backend=sz3");
  // Cap sized so the decompress request fits but its response (the
  // decompressed field, larger than the blob) does not.
  const std::size_t cap = blob.size() + 1024;
  ASSERT_GT(field_bytes.size(), cap);

  const std::string path = test_socket_path("bigresp");
  DaemonConfig config;
  config.unix_path = path;
  config.workers = 1;
  config.max_frame_bytes = cap;
  Daemon daemon(config);
  daemon.start();

  Client client = Client::connect_unix(path);
  try {
    (void)client.decompress("tenant-a", blob);
    FAIL() << "expected RequestRejected";
  } catch (const RequestRejected& e) {
    EXPECT_EQ(e.code(), error_code::kInternal);
    EXPECT_NE(std::string(e.what()).find("frame-size cap"),
              std::string::npos);
  }
  // The connection survives: the error frame was a reply, not a
  // protocol violation.
  client.ping();
  daemon.shutdown();
}

/// An OCZ1 header declaring `shape` (sz3-interp, float), with no
/// payload sections: all a reader needs to learn the field's size.
Bytes ocz_header_only(const Shape& shape) {
  BytesWriter out;
  const std::uint8_t magic[] = {'O', 'C', 'Z', '1'};
  out.put_bytes(magic);
  out.put(std::uint8_t{0});  // float
  out.put(std::uint8_t{2});  // sz3-interp
  out.put(1e-3);
  out.put_varint(32768);
  out.put_varint(64);
  out.put_varint(6);
  write_shape(out, shape);
  out.put_varint(0);  // no sections
  return out.take();
}

TEST(Daemon, DeclaredShapeOverTheFrameCapAnswersBeforeAllocating) {
  // 256^3 floats = 64 MiB of response against a 1 MiB cap: the daemon
  // must refuse from the header alone, before decode allocates the
  // field, for a bare blob and for a container index alike.
  const Shape huge(256, 256, 256);
  const Bytes blob = ocz_header_only(huge);
  const Bytes container = build_block_container(huge, 256, {blob});

  const std::string path = test_socket_path("bigshape");
  DaemonConfig config;
  config.unix_path = path;
  config.workers = 1;
  config.max_frame_bytes = 1 << 20;
  Daemon daemon(config);
  daemon.start();

  Client client = Client::connect_unix(path);
  for (const Bytes* request : {&blob, &container}) {
    try {
      (void)client.decompress("tenant-a", *request);
      FAIL() << "expected RequestRejected";
    } catch (const RequestRejected& e) {
      EXPECT_EQ(e.code(), error_code::kInternal);
      EXPECT_NE(std::string(e.what()).find("frame-size cap"),
                std::string::npos)
          << e.what();
    }
  }
  client.ping();
  daemon.shutdown();
  EXPECT_EQ(daemon.stats().requests_error, 2u);
}

/// Sends one raw request frame and returns the daemon's reply.
Frame call_raw(const std::string& path, FrameType type,
               const std::string& options, const Bytes& payload) {
  const int fd = raw_unix_connect(path);
  Frame request;
  request.type = type;
  request.id = 7;
  request.tenant = "tenant-a";
  request.options = options;
  request.payload = payload;
  write_frame(fd, request);
  auto reply = read_frame(fd, kDefaultMaxFrameBytes);
  ::close(fd);
  EXPECT_TRUE(reply.has_value());
  return reply.value_or(Frame{});
}

TEST(Daemon, WrappingFieldShapeAnswersBadRequest) {
  // A 21-byte OCF1 field: rank 1, 2^62 + 1 elements and a 4-byte
  // payload. The element count times 4 wraps to 4, so only the shared
  // shape reader's element cap stops it before the field is sized.
  BytesWriter field;
  const std::uint8_t magic[] = {'O', 'C', 'F', '1'};
  field.put_bytes(magic);
  field.put_string("x");
  write_shape(field, Shape((std::size_t{1} << 62) + 1));
  const std::uint8_t payload[4] = {};
  field.put_blob(payload);
  const Bytes ocf = field.take();
  ASSERT_EQ(ocf.size(), 21u);

  const std::string path = test_socket_path("wrapshape");
  DaemonConfig config;
  config.unix_path = path;
  config.workers = 1;
  Daemon daemon(config);
  daemon.start();
  const Frame reply = call_raw(path, FrameType::kCompress, "eb=1e-3", ocf);
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(reply.options, error_code::kBadRequest);
  daemon.shutdown();
  EXPECT_EQ(daemon.stats().requests_error, 1u);
}

TEST(Daemon, WorkersAboveTheHostLimitAnswersBadRequest) {
  // Every codec thread of a request starts at once, so a request may
  // not ask for more than the host's hardware threads. The 3-block
  // container and the 1-block compress below keep the threads this
  // test could start, had the check been missing, at 3.
  std::vector<float> values(6 * 16 * 16);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<float>(std::sin(0.05 * static_cast<double>(i)));
  }
  const Bytes field_bytes = save_field(
      "workers/sine", FloatArray(Shape(6, 16, 16), std::move(values)));
  const Bytes container = engine_reference_compress(
      field_bytes, "eb=1e-3 policy=adaptive block_slabs=2 workers=1");
  ASSERT_EQ(read_block_index(container).blocks.size(), 3u);
  const std::string too_many =
      "workers=" + std::to_string(Engine::resolve_workers(0) + 1);
  const std::string limit = std::to_string(Engine::resolve_workers(0));

  const std::string path = test_socket_path("workers");
  DaemonConfig config;
  config.unix_path = path;
  config.workers = 1;
  Daemon daemon(config);
  daemon.start();

  for (const auto& [type, options, payload] :
       {std::tuple{FrameType::kDecompress, too_many, container},
        std::tuple{FrameType::kCompress,
                   "eb=1e-3 policy=adaptive block_slabs=64 " + too_many,
                   field_bytes}}) {
    const Frame reply = call_raw(path, type, options, payload);
    EXPECT_EQ(reply.type, FrameType::kError) << options;
    EXPECT_EQ(reply.options, error_code::kBadRequest) << options;
    const std::string message(reply.payload.begin(), reply.payload.end());
    EXPECT_NE(message.find("limit of " + limit), std::string::npos)
        << message;
  }

  const Frame reply =
      call_raw(path, FrameType::kDecompress, "workers=1", container);
  ASSERT_EQ(reply.type, FrameType::kOk);
  const FloatArray expected = Engine::shared().decompress(container, 1);
  EXPECT_EQ(reply.payload, save_field("decompressed", expected));
  daemon.shutdown();
}

TEST(Daemon, QuotaFloodSurfacesBusyBackpressure) {
  const std::string path = test_socket_path("quota");
  DaemonConfig config;
  config.unix_path = path;
  config.workers = 1;
  TenantQuota tight;
  tight.max_queued = 1;
  config.tenant_quotas.emplace_back("flooder", tight);
  Daemon daemon(config);
  daemon.start();

  // A field that takes milliseconds to compress keeps the one worker
  // busy while the burst arrives; the 17 KB field can compress faster
  // than eight loaded client threads connect, and then none is refused.
  const Bytes field_bytes = save_field(
      "Miranda/density", generate_field("Miranda", "density", 0.15, 7));
  std::atomic<int> ok{0};
  std::atomic<int> busy{0};
  std::vector<std::thread> clients;
  clients.reserve(8);
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&] {
      Client client = Client::connect_unix(path);
      try {
        (void)client.compress("flooder", field_bytes, "eb=1e-3");
        ++ok;
      } catch (const RequestRejected& e) {
        EXPECT_EQ(e.code(), "busy");
        ++busy;
      }
    });
  }
  for (auto& t : clients) t.join();
  // With one worker and a queue bound of one, an 8-way burst cannot
  // all be admitted; and at least one request must succeed.
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(busy.load(), 1);
  EXPECT_EQ(ok.load() + busy.load(), 8);
  daemon.shutdown();
}

TEST(Daemon, ConcurrentTenantsStayByteDeterministic) {
  const std::string path = test_socket_path("concurrent");
  DaemonConfig config;
  config.unix_path = path;
  config.workers = 4;
  Daemon daemon(config);
  daemon.start();

  const Bytes field_bytes = small_field_bytes();
  const std::string options = "eb=1e-3 policy=adaptive block_slabs=4";
  const Bytes expected = engine_reference_compress(field_bytes, options);

  std::vector<Bytes> results(6);
  std::vector<std::thread> clients;
  clients.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    clients.emplace_back([&, i] {
      Client client = Client::connect_unix(path);
      results[i] = client.compress("tenant-" + std::to_string(i % 3),
                                   field_bytes, options);
    });
  }
  for (auto& t : clients) t.join();
  for (const Bytes& blob : results) {
    EXPECT_EQ(blob, expected);
  }
  daemon.shutdown();
}

TEST(Daemon, GracefulDrainAnswersEveryRequest) {
  const std::string path = test_socket_path("drain");
  DaemonConfig config;
  config.unix_path = path;
  config.workers = 2;
  Daemon daemon(config);
  daemon.start();

  const Bytes field_bytes = small_field_bytes();
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  clients.reserve(6);
  for (int i = 0; i < 6; ++i) {
    clients.emplace_back([&] {
      try {
        Client client = Client::connect_unix(path);
        (void)client.compress("t", field_bytes, "eb=1e-3");
        ++answered;
      } catch (const RequestRejected&) {
        ++answered;  // draining/busy rejection is still an answer
      } catch (const Error&) {
        // Connection raced the listener teardown; acceptable, but the
        // daemon must not hang — reaching here still counts the thread.
        ++answered;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  daemon.shutdown();  // drain: queued + in-flight work still completes
  for (auto& t : clients) t.join();
  EXPECT_EQ(answered.load(), 6);

  const Daemon::Stats stats = daemon.stats();
  EXPECT_EQ(stats.scheduler.queued, 0u);  // nothing abandoned in queue
  daemon.shutdown();  // idempotent
}

}  // namespace
}  // namespace ocelot::server
