#ifndef MINIRAID_METRICS_CHANNEL_STATS_H_
#define MINIRAID_METRICS_CHANNEL_STATS_H_

#include <cstdint>

namespace miniraid {

/// Counters kept by one ReliableChannel endpoint (see
/// net/reliable_channel.h). Everything is cumulative from channel
/// construction; clusters aggregate them across endpoints into
/// ClusterStats.
struct ChannelCounters {
  // -- sender side ---------------------------------------------------------
  /// Data messages given a sequence number and sent at least once.
  uint64_t data_sent = 0;
  /// Retransmissions after an RTO expiry (per message copy, not per timer).
  uint64_t retransmits = 0;
  /// Messages abandoned after 8 unacknowledged retransmissions (the
  /// reliable channel's fixed limit); the protocol layer's own timeouts
  /// own the failure from here.
  uint64_t abandoned = 0;
  /// Sequence numbers acknowledged by the peer (cumulative-ack advances).
  uint64_t acked = 0;

  // -- receiver side -------------------------------------------------------
  /// In-order messages delivered up the stack (exactly once each).
  uint64_t delivered = 0;
  /// Duplicates suppressed (seq below the delivery frontier, or already
  /// buffered); each still triggers a re-ack.
  uint64_t dup_suppressed = 0;
  /// Messages that arrived ahead of the frontier and were buffered until
  /// the gap filled (per-pair FIFO is preserved for the upper layer).
  uint64_t out_of_order_buffered = 0;
  /// Standalone ChannelAck messages emitted (piggybacked acks not counted).
  uint64_t acks_sent = 0;

  ChannelCounters& operator+=(const ChannelCounters& o) {
    data_sent += o.data_sent;
    retransmits += o.retransmits;
    abandoned += o.abandoned;
    acked += o.acked;
    delivered += o.delivered;
    dup_suppressed += o.dup_suppressed;
    out_of_order_buffered += o.out_of_order_buffered;
    acks_sent += o.acks_sent;
    return *this;
  }
};

}  // namespace miniraid

#endif  // MINIRAID_METRICS_CHANNEL_STATS_H_
