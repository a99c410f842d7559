#ifndef MINIRAID_NET_RELIABLE_CHANNEL_H_
#define MINIRAID_NET_RELIABLE_CHANNEL_H_

#include <map>

#include "common/rng.h"
#include "common/runtime.h"
#include "common/thread_annotations.h"
#include "metrics/channel_stats.h"
#include "net/transport.h"

namespace miniraid {

struct ReliableChannelOptions {
  /// Master switch, read where a cluster wires its endpoints: on, every
  /// endpoint sends and receives through its own ReliableChannel. Off by
  /// default: no channel is built, so messages travel with seq = 0 and no
  /// acks, which is what the paper's reliable-network experiments assume.
  bool enabled = false;
};

/// At-least-once delivery with receiver-side dedup over any Transport —
/// the repo's answer to dropping the paper's "no messages were lost"
/// assumption (see docs/PROTOCOL.md, reliable delivery).
///
/// One channel instance fronts one endpoint (site or managing site): it is
/// the Transport the endpoint sends through, and the MessageHandler the
/// inner transport delivers to. Per destination it assigns sequence
/// numbers (from 1), buffers unacknowledged sends, and retransmits with
/// exponential backoff + jitter until the peer's cumulative ack covers
/// them or 8 retransmissions have gone unanswered (then it abandons the
/// message). The retransmission timeout is fixed: 100 ms for the first
/// re-send, doubled per attempt up to 2 s, plus a uniform jitter in
/// [0, 20 ms] so synchronized senders decorrelate instead of
/// retransmitting in lockstep; each channel seeds its jitter stream with
/// 1 + its endpoint id. Per source it delivers in
/// sequence order exactly once — duplicates (retransmissions or
/// the fault layer's copies) are suppressed and re-acked, gaps are
/// buffered — so the upper layer keeps the per-pair FIFO ordering the
/// protocol was built on (paper assumption 1), now also under loss.
///
/// Acks are cumulative and piggyback on every outbound data message, and
/// every data arrival (in order, duplicate or out of order) also sends a
/// standalone kChannelAck, whether or not data is going the other way.
/// Acks themselves travel with seq = 0 and are never acked or
/// retransmitted (the next data arrival re-triggers one).
///
/// Retransmissions re-enter the inner transport's Send per attempt; the
/// real transports encode into reused scratch space and append to a
/// reused frame buffer, so a retry storm re-sends frames without
/// allocating one buffer per attempt.
///
/// The channel is modelled below the protocol engine (kernel/NIC level):
/// a simulated Site crash does not reset channel state, so sequence
/// numbers stay continuous across failure and recovery, and messages to a
/// down site are still acked at the channel and then ignored by the site —
/// exactly how a dead process behind a live kernel behaves.
///
/// Threading: all calls (Send, OnMessage, timers) must run in the owning
/// endpoint's execution context, like every other per-site object. Like
/// SiteRuntime this is per-instance confinement, which MR_RUNS_ON cannot
/// name — the methods carry MR_RUNS_ON(any), recording only that they are
/// confinement- and blocking-clean wherever the instance lives.
class ReliableChannel : public Transport, public MessageHandler {
 public:
  ReliableChannel(SiteId self, Transport* inner, SiteRuntime* runtime,
                  MessageHandler* upper);
  ~ReliableChannel() override;

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// Late wiring for construction cycles (channel before site); must be
  /// set before any message flows.
  MR_RUNS_ON(any) void set_upper(MessageHandler* upper) { upper_ = upper; }

  /// Outbound path: stamps seq/ack, records the message for retransmission,
  /// and forwards to the inner transport.
  MR_RUNS_ON(any) Status Send(const Message& msg) override;

  /// Inbound path: ack processing, dedup/reorder, in-order delivery to the
  /// upper handler.
  MR_RUNS_ON(any) void OnMessage(const Message& msg) override;

  MR_RUNS_ON(any) const ChannelCounters& counters() const {
    return counters_;
  }

 private:
  /// Sender-side state for one destination.
  struct SendState {
    uint64_t next_seq = 1;
    /// Highest in-order seq delivered FROM this peer (the value we ack).
    uint64_t deliver_frontier = 0;
    /// Unacknowledged sends, keyed by seq, with per-message attempt count.
    struct Pending {
      Message msg;
      uint32_t attempts = 0;  // retransmissions so far
      TimePoint due = 0;
    };
    std::map<uint64_t, Pending> unacked;
    TimerId timer = kInvalidTimer;
  };

  /// Receiver-side state for one source (held inside the same per-peer
  /// record; a peer is both a source and a destination).
  struct RecvState {
    /// Out-of-order arrivals waiting for the gap to fill.
    std::map<uint64_t, Message> buffered;
  };

  struct PeerState {
    SendState send;
    RecvState recv;
  };

  PeerState& Peer(SiteId peer) { return peers_[peer]; }

  /// Forwards to the inner transport with the current cumulative ack
  /// stamped (retransmissions refresh it too).
  void SendRaw(SiteId peer, Message msg);

  /// Processes the cumulative ack carried by any inbound message.
  void HandleAck(SiteId peer, uint64_t ack);

  /// (Re)arms the per-destination retransmit timer for the earliest due
  /// pending message; cancels it when nothing is pending.
  void ArmTimer(SiteId peer);
  void OnRetransmitTimer(SiteId peer);

  /// Emits a standalone ack to `peer` for its current frontier.
  void SendStandaloneAck(SiteId peer);

  Duration RtoFor(uint32_t attempts);

  const SiteId self_;
  Transport* const inner_;
  SiteRuntime* const runtime_;
  /// Channel state lives in its endpoint's loop context (see cluster.h):
  /// OnMessage, timers, and Send all run on that loop thread. upper_ is
  /// additionally written once by set_upper() during wiring, before the loop
  /// starts delivering — the phases cannot overlap.
  MessageHandler* upper_ MR_CONTEXT_CONFINED(loop);
  Rng jitter_rng_;
  std::map<SiteId, PeerState> peers_;
  ChannelCounters counters_ MR_CONTEXT_CONFINED(loop);
};

}  // namespace miniraid

#endif  // MINIRAID_NET_RELIABLE_CHANNEL_H_
