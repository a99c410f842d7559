#include "net/framing.h"

#include "common/strings.h"

namespace miniraid {
namespace {

/// Sanity bound on a frame body; a longer declared length is corrupt.
constexpr uint32_t kMaxFrameBytes = 16u << 20;  // 16 MiB

/// A frame buffer grown past this by a large frame is released once
/// consumed.
constexpr size_t kMaxRetainedFrameBytes = 1 << 20;

}  // namespace

uint32_t FrameLength(const uint8_t* header) {
  return uint32_t{header[0]} | (uint32_t{header[1]} << 8) |
         (uint32_t{header[2]} << 16) | (uint32_t{header[3]} << 24);
}

void AppendFrame(const std::vector<uint8_t>& body, std::vector<uint8_t>& out) {
  const auto length = static_cast<uint32_t>(body.size());
  const uint8_t header[kFrameHeaderBytes] = {
      static_cast<uint8_t>(length), static_cast<uint8_t>(length >> 8),
      static_cast<uint8_t>(length >> 16), static_cast<uint8_t>(length >> 24)};
  out.insert(out.end(), header, header + kFrameHeaderBytes);
  out.insert(out.end(), body.begin(), body.end());
}

Result<size_t> DeliverFrames(const uint8_t* data, size_t size,
                             MessageHandler& handler) {
  size_t begin = 0;
  while (size - begin >= kFrameHeaderBytes) {
    const uint8_t* frame = data + begin;
    const uint32_t length = FrameLength(frame);
    if (length > kMaxFrameBytes) {
      return Status::Corruption(
          StrFormat("oversized frame (%u bytes)", length));
    }
    if (size - begin - kFrameHeaderBytes < length) break;
    Result<Message> decoded = DecodeMessage(frame + kFrameHeaderBytes, length);
    if (!decoded.ok()) {
      return Status::Corruption("undecodable frame: " +
                                decoded.status().ToString());
    }
    begin += kFrameHeaderBytes + length;
    handler.OnMessage(*decoded);
  }
  return begin;
}

void ResetFrameBuffer(std::vector<uint8_t>& buf) {
  buf.clear();
  if (buf.capacity() > kMaxRetainedFrameBytes) {
    std::vector<uint8_t>().swap(buf);
  }
}

}  // namespace miniraid
