#include "net/reliable_channel.h"

#include <algorithm>
#include <utility>

namespace miniraid {
namespace {

/// Retransmission timeout for the first re-send, multiplied by kBackoff
/// per attempt up to kMaxRto, plus a uniform jitter in [0, kRtoJitter].
constexpr Duration kInitialRto = Milliseconds(100);
constexpr Duration kMaxRto = Seconds(2);
constexpr double kBackoff = 2.0;
constexpr Duration kRtoJitter = Milliseconds(20);
/// Retransmissions per message before the channel gives up and drops it
/// (at-least-once, not exactly-always: a partitioned peer must not pin
/// memory and timers forever). The protocol's own timeouts — coordinator
/// phase timeouts, participant patience, the client timeout — own the
/// failure from there.
constexpr uint32_t kMaxRetransmits = 8;

}  // namespace

ReliableChannel::ReliableChannel(SiteId self, Transport* inner,
                                 SiteRuntime* runtime, MessageHandler* upper)
    : self_(self),
      inner_(inner),
      runtime_(runtime),
      upper_(upper),
      jitter_rng_(1 + uint64_t{self}) {}

ReliableChannel::~ReliableChannel() {
  for (auto& [peer, state] : peers_) {
    (void)peer;
    if (state.send.timer != kInvalidTimer) {
      runtime_->CancelTimer(state.send.timer);
    }
  }
}

Status ReliableChannel::Send(const Message& msg) {
  PeerState& peer = Peer(msg.to);
  Message stamped = msg;
  stamped.seq = peer.send.next_seq++;
  ++counters_.data_sent;
  SendState::Pending pending;
  pending.msg = stamped;
  pending.due = runtime_->Now() + RtoFor(0);
  peer.send.unacked.emplace(stamped.seq, std::move(pending));
  SendRaw(msg.to, std::move(stamped));
  ArmTimer(msg.to);
  return Status::Ok();
}

void ReliableChannel::OnMessage(const Message& msg) {
  HandleAck(msg.from, msg.ack);
  if (msg.type == MsgType::kChannelAck) return;  // header-only, never data
  if (msg.seq == 0) {
    // Unreliable datagram from a channel-less sender; pass straight up.
    upper_->OnMessage(msg);
    return;
  }
  PeerState& peer = Peer(msg.from);
  uint64_t& frontier = peer.send.deliver_frontier;
  if (msg.seq <= frontier || peer.recv.buffered.count(msg.seq) != 0) {
    // Retransmission or transport-level duplicate: our ack was lost or is
    // in flight. Suppress, but re-ack so the sender can stop.
    ++counters_.dup_suppressed;
    SendStandaloneAck(msg.from);
    return;
  }
  if (msg.seq != frontier + 1) {
    // Ahead of the gap left by a dropped message; hold it so the upper
    // layer keeps seeing per-pair FIFO order.
    ++counters_.out_of_order_buffered;
    peer.recv.buffered.emplace(msg.seq, msg);
    SendStandaloneAck(msg.from);
    return;
  }
  // In-sequence: deliver it and everything it unblocks, then ack the new
  // frontier once.
  frontier = msg.seq;
  ++counters_.delivered;
  upper_->OnMessage(msg);
  auto it = peer.recv.buffered.begin();
  while (it != peer.recv.buffered.end() && it->first == frontier + 1) {
    frontier = it->first;
    Message next = std::move(it->second);
    it = peer.recv.buffered.erase(it);
    ++counters_.delivered;
    upper_->OnMessage(next);
  }
  SendStandaloneAck(msg.from);
}

void ReliableChannel::SendRaw(SiteId peer_id, Message msg) {
  msg.ack = Peer(peer_id).send.deliver_frontier;
  (void)inner_->Send(msg);
}

void ReliableChannel::HandleAck(SiteId peer_id, uint64_t ack) {
  if (ack == 0) return;
  PeerState& peer = Peer(peer_id);
  auto& unacked = peer.send.unacked;
  bool advanced = false;
  while (!unacked.empty() && unacked.begin()->first <= ack) {
    unacked.erase(unacked.begin());
    ++counters_.acked;
    advanced = true;
  }
  if (advanced) ArmTimer(peer_id);
}

void ReliableChannel::ArmTimer(SiteId peer_id) {
  SendState& send = Peer(peer_id).send;
  if (send.timer != kInvalidTimer) {
    runtime_->CancelTimer(send.timer);
    send.timer = kInvalidTimer;
  }
  if (send.unacked.empty()) return;
  TimePoint earliest = send.unacked.begin()->second.due;
  for (const auto& [seq, pending] : send.unacked) {
    (void)seq;
    earliest = std::min(earliest, pending.due);
  }
  Duration delay = std::max<Duration>(0, earliest - runtime_->Now());
  send.timer = runtime_->ScheduleAfter(
      delay, [this, peer_id] { OnRetransmitTimer(peer_id); });
}

void ReliableChannel::OnRetransmitTimer(SiteId peer_id) {
  SendState& send = Peer(peer_id).send;
  send.timer = kInvalidTimer;
  const TimePoint now = runtime_->Now();
  auto it = send.unacked.begin();
  while (it != send.unacked.end()) {
    SendState::Pending& pending = it->second;
    if (pending.due > now) {
      ++it;
      continue;
    }
    if (pending.attempts >= kMaxRetransmits) {
      // Give up; the protocol layer's own timeouts take over from here.
      ++counters_.abandoned;
      it = send.unacked.erase(it);
      continue;
    }
    ++pending.attempts;
    ++counters_.retransmits;
    pending.due = now + RtoFor(pending.attempts);
    SendRaw(peer_id, pending.msg);
    ++it;
  }
  ArmTimer(peer_id);
}

void ReliableChannel::SendStandaloneAck(SiteId peer_id) {
  ++counters_.acks_sent;
  Message ack = MakeMessage(self_, peer_id, ChannelAckArgs{});
  SendRaw(peer_id, std::move(ack));  // seq stays 0: acks are not acked
}

Duration ReliableChannel::RtoFor(uint32_t attempts) {
  double rto = double(kInitialRto);
  for (uint32_t i = 0; i < attempts; ++i) {
    rto *= kBackoff;
    if (rto >= double(kMaxRto)) break;
  }
  const Duration base = std::min<Duration>(Duration(rto), kMaxRto);
  return base + Duration(jitter_rng_.NextBounded(uint64_t(kRtoJitter) + 1));
}

}  // namespace miniraid
