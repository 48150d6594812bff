#include "server/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"

namespace ocelot::server {

namespace {

/// Reads exactly `n` bytes. Returns false on EOF before the first
/// byte; throws CorruptStream on EOF mid-buffer and Error on a socket
/// error.
bool read_exact(int fd, std::uint8_t* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, out + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0) return false;
      throw CorruptStream("connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    throw Error(std::string("socket read failed: ") + std::strerror(errno));
  }
  return true;
}

/// Writes all `n` bytes to socket `fd`. MSG_NOSIGNAL turns a vanished
/// peer into an EPIPE error (thrown as Error) instead of a SIGPIPE that
/// would kill the whole process.
void write_all(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (r > 0) {
      sent += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    throw Error(std::string("socket write failed: ") + std::strerror(errno));
  }
}

}  // namespace

Bytes encode_frame(const Frame& frame) {
  Bytes out;
  out.reserve(64 + frame.tenant.size() + frame.options.size() +
              frame.payload.size());
  // Length-prefix placeholder, back-patched once the body is known.
  out.resize(4);
  ByteSink sink(out);
  sink.put_bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kFrameMagic), 4));
  sink.put<std::uint8_t>(static_cast<std::uint8_t>(frame.type));
  sink.put_varint(frame.id);
  sink.put_string(frame.tenant);
  sink.put_string(frame.options);
  sink.put_blob(frame.payload);
  const std::size_t body = out.size() - 4;
  require(body <= 0xffffffffu, "frame body exceeds the u32 wire limit");
  // Little-endian by spec, independent of host byte order.
  out[0] = static_cast<std::uint8_t>(body & 0xff);
  out[1] = static_cast<std::uint8_t>((body >> 8) & 0xff);
  out[2] = static_cast<std::uint8_t>((body >> 16) & 0xff);
  out[3] = static_cast<std::uint8_t>((body >> 24) & 0xff);
  return out;
}

Frame decode_frame(std::span<const std::uint8_t> body) {
  BytesReader reader(body);
  const auto magic = reader.get_bytes(4);
  if (std::memcmp(magic.data(), kFrameMagic, 4) != 0) {
    throw CorruptStream("bad frame magic (expected OCR1)");
  }
  Frame frame;
  const std::uint8_t type = reader.get<std::uint8_t>();
  switch (static_cast<FrameType>(type)) {
    case FrameType::kCompress:
    case FrameType::kDecompress:
    case FrameType::kPing:
    case FrameType::kOk:
    case FrameType::kError:
      frame.type = static_cast<FrameType>(type);
      break;
    default:
      throw CorruptStream("unknown frame type: " + std::to_string(type));
  }
  frame.id = reader.get_varint();
  frame.tenant = reader.get_string();
  frame.options = reader.get_string();
  const auto payload = reader.get_blob();
  frame.payload.assign(payload.begin(), payload.end());
  if (!reader.exhausted()) {
    throw CorruptStream("trailing bytes after frame body");
  }
  return frame;
}

void write_frame(int fd, const Frame& frame, std::size_t max_frame_bytes) {
  const Bytes wire = encode_frame(frame);
  require(wire.size() - 4 <= max_frame_bytes,
          "frame exceeds the frame-size cap");
  write_all(fd, wire.data(), wire.size());
}

void write_wire(int fd, std::span<const std::uint8_t> wire) {
  write_all(fd, wire.data(), wire.size());
}

std::optional<Frame> read_frame(int fd, std::size_t max_frame_bytes) {
  std::uint8_t len_bytes[4];
  if (!read_exact(fd, len_bytes, sizeof(len_bytes))) return std::nullopt;
  const std::uint32_t body_len =
      static_cast<std::uint32_t>(len_bytes[0]) |
      static_cast<std::uint32_t>(len_bytes[1]) << 8 |
      static_cast<std::uint32_t>(len_bytes[2]) << 16 |
      static_cast<std::uint32_t>(len_bytes[3]) << 24;
  if (body_len > max_frame_bytes) {
    throw CorruptStream("frame length " + std::to_string(body_len) +
                        " exceeds cap " + std::to_string(max_frame_bytes));
  }
  // The smallest valid body: magic + type + three zero varints.
  if (body_len < 8) {
    throw CorruptStream("frame length " + std::to_string(body_len) +
                        " below minimum body size");
  }
  Bytes body(body_len);
  if (!read_exact(fd, body.data(), body.size())) {
    throw CorruptStream("connection closed mid-frame");
  }
  return decode_frame(body);
}

Frame make_error(std::uint64_t id, const std::string& code,
                 const std::string& message) {
  Frame frame;
  frame.type = FrameType::kError;
  frame.id = id;
  frame.options = code;
  frame.payload.assign(message.begin(), message.end());
  return frame;
}

Frame make_ok(std::uint64_t id, Bytes payload, std::string stats_line) {
  Frame frame;
  frame.type = FrameType::kOk;
  frame.id = id;
  frame.options = std::move(stats_line);
  frame.payload = std::move(payload);
  return frame;
}

}  // namespace ocelot::server
