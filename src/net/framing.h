#ifndef MINIRAID_NET_FRAMING_H_
#define MINIRAID_NET_FRAMING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "net/transport.h"

namespace miniraid {

/// The frame format of the real transports, over a socket (TcpTransport)
/// or without one (InProcTransport): a u32 little-endian body length, then
/// the EncodeMessage bytes.
constexpr size_t kFrameHeaderBytes = 4;

/// The body length declared by the header at `header`.
uint32_t FrameLength(const uint8_t* header);

/// Appends `body` to `out` as one frame.
void AppendFrame(const std::vector<uint8_t>& body, std::vector<uint8_t>& out);

/// Decodes every complete frame at the front of [data, data + size) in
/// place and hands each message to `handler` inline, in order. Returns the
/// bytes consumed, which end where the first incomplete frame starts. A
/// frame longer than 16 MiB (judged from its header alone, so a corrupt
/// length never sizes a buffer) or one that does not decode is an error,
/// returned after the frames before it have been delivered.
Result<size_t> DeliverFrames(const uint8_t* data, size_t size,
                             MessageHandler& handler);

/// Empties a frame buffer for reuse. Its storage is kept unless a large
/// frame grew it past 1 MiB, so one recovery-info table does not pin its
/// high-water mark for the life of the connection.
void ResetFrameBuffer(std::vector<uint8_t>& buf);

}  // namespace miniraid

#endif  // MINIRAID_NET_FRAMING_H_
