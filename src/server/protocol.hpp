#pragma once
// ocelotd wire protocol: length-prefixed request/response frames.
//
// Every message on an ocelotd connection (TCP or unix socket) is one
// frame:
//
//   u32 little-endian body length | body
//
// and the body is serialized with the repo's ByteSink primitives:
//
//   magic "OCR1" (4 bytes)
//   u8    frame type            (FrameType below)
//   varint request id           (echoed verbatim in the response)
//   varint-prefixed tenant      (admission / fair-share key)
//   varint-prefixed options     (key=value line, OptionSet::from_line)
//   varint-prefixed payload     (OCF1 field bytes on compress requests,
//                                OCZ/OCB1 bytes on compress responses;
//                                reversed for decompress; the error
//                                message on kError frames)
//
// The protocol is versioned by the magic: an incompatible layout
// change bumps "OCR1" to "OCR2" (see CONTRIBUTING). Decoding is strict
// — bad magic, unknown type, truncated body, or trailing bytes all
// throw CorruptStream, and read_frame enforces a frame-size cap before
// buffering a body, so a garbage length prefix cannot balloon memory.
//
// Payload bytes are exactly what the CLI reads/writes for the same
// formats: a compress response carries the same container bytes
// `ocelot compress` would have written for the same input and options.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "common/bytes.hpp"

namespace ocelot::server {

inline constexpr char kFrameMagic[4] = {'O', 'C', 'R', '1'};

/// Hard cap on one frame's body; read_frame rejects larger lengths
/// before allocating (CorruptStream), write_frame before sending.
inline constexpr std::size_t kDefaultMaxFrameBytes = 256u << 20;

enum class FrameType : std::uint8_t {
  // Requests.
  kCompress = 1,    ///< payload: OCF1 field; options: compression knobs
  kDecompress = 2,  ///< payload: OCZ blob or OCB1 container
  kPing = 3,        ///< liveness probe; payload/options empty
  // Responses.
  kOk = 16,     ///< payload: result bytes; options: result stats line
  kError = 17,  ///< payload: message; options: machine-readable code
};

/// Machine-readable codes carried in a kError frame's options field.
/// kBusy and kDraining are backpressure: the request was well-formed
/// but admission refused it — retry later (or elsewhere).
namespace error_code {
inline constexpr const char* kBusy = "busy";
inline constexpr const char* kDraining = "draining";
inline constexpr const char* kBadRequest = "bad-request";
inline constexpr const char* kInternal = "internal";
}  // namespace error_code

struct Frame {
  FrameType type = FrameType::kPing;
  std::uint64_t id = 0;  ///< request id, echoed in the response
  std::string tenant;
  std::string options;
  Bytes payload;
};

/// Serializes a frame to full wire bytes (length prefix included).
[[nodiscard]] Bytes encode_frame(const Frame& frame);

/// Decodes one frame body (without the length prefix). Throws
/// CorruptStream on bad magic, unknown type, truncation, or trailing
/// bytes.
[[nodiscard]] Frame decode_frame(std::span<const std::uint8_t> body);

/// Writes one frame to socket `fd`, handling short writes; throws Error
/// when the peer is gone (never raises SIGPIPE) and InvalidArgument
/// when the frame exceeds `max_frame_bytes`.
void write_frame(int fd, const Frame& frame,
                 std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

/// Writes pre-encoded wire bytes (from encode_frame) to socket `fd`,
/// handling short writes; throws Error when the peer is gone (never
/// raises SIGPIPE). Lets callers
/// size-check the encoded frame themselves before committing to send.
void write_wire(int fd, std::span<const std::uint8_t> wire);

/// Reads one frame from `fd`. Returns nullopt on clean EOF (connection
/// closed between frames); throws CorruptStream on mid-frame EOF, a
/// body length above `max_frame_bytes`, or a malformed body.
[[nodiscard]] std::optional<Frame> read_frame(
    int fd, std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

/// Convenience constructors for the two response shapes.
[[nodiscard]] Frame make_error(std::uint64_t id, const std::string& code,
                               const std::string& message);
[[nodiscard]] Frame make_ok(std::uint64_t id, Bytes payload,
                            std::string stats_line = {});

}  // namespace ocelot::server
