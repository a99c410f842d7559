#ifndef MINIRAID_NET_TRANSPORT_H_
#define MINIRAID_NET_TRANSPORT_H_

#include "common/status.h"
#include "common/thread_annotations.h"
#include "msg/codec.h"
#include "msg/message.h"

namespace miniraid {

/// Consumer of incoming messages. Each site implements this; the transport
/// invokes it in the site's execution context (see SiteRuntime's threading
/// contract).
///
/// OnMessage is MR_RUNS_ON(any) as a *delivery contract*: each transport
/// guarantees by construction that it invokes the handler in the receiving
/// endpoint's own execution context (posting to its EventLoop, calling it
/// from that loop's own socket callback, or scheduling on the simulator),
/// so callers of the virtual boundary are context-clean wherever they run.
/// miniraid-analyze re-anchors its call-graph walk at this annotation; the
/// concrete overrides (Site: loop, ManagingSite: managing) carry their real
/// confinement.
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  MR_RUNS_ON(any) virtual void OnMessage(const Message& msg) = 0;
};

/// Asynchronous, per-pair-FIFO message channel. A transport only delivers:
/// each accepted message arrives once, in the order sent per (from, to)
/// pair, unless a real backend loses it on connection failure. Loss and
/// duplication are injected above it, by the FaultLayer (net/faults.h) a
/// cluster stacks on every endpoint when ClusterOptions::faults asks for
/// them. The paper's assumption 1 ("no messages were lost; messages
/// arrived and were processed in the order that they were sent") then no
/// longer holds. It is restored for the protocol engine by stacking a
/// ReliableChannel (net/reliable_channel.h) on top, which turns the lossy
/// substrate into AT-LEAST-ONCE delivery via retransmission with
/// exponential backoff, and then into exactly-once in-order delivery via
/// receiver-side sequence-number dedup and reorder buffering. Code sending
/// directly through a raw transport must tolerate silent loss; code
/// receiving behind a ReliableChannel may assume per-pair FIFO and no
/// duplicates, because the channel is the only layer that re-sends (the
/// protocol engine sends each message once). The protocol handlers still
/// tolerate duplicates, which reach them when the channel is off and the
/// fault layer injects copies.
///
/// What stays true on every backend: messages that are delivered arrive
/// in the order sent per (from, to) pair, and Send never blocks on the
/// receiver. The simulator schedules each delivery as an event. The two
/// real backends append a frame (net/framing.h) to a per-destination
/// buffer of the sender's and hand each buffer over once per turn of the
/// sender's loop, in one posted flush task: InProcTransport moves it into
/// the receiver's inbox, which one posted task drains on the receiver's
/// loop, and TCP writes it to a non-blocking socket, parking what the
/// socket cannot take until it is writable. (TCP's one blocking call is
/// the lazy loopback connect on the first Send to a peer, which does not
/// wait for the peer's loop.)
class Transport {
 public:
  virtual ~Transport() = default;

  /// Queues `msg` for delivery to `msg.to`. Fire-and-forget: an OK return
  /// means the message was accepted — not that it was delivered (a fault
  /// layer may have dropped it) nor that it was processed.
  /// MR_RUNS_ON(any): Send never blocks on the receiver and every backend
  /// accepts it from any execution context.
  MR_RUNS_ON(any) virtual Status Send(const Message& msg) = 0;
};

}  // namespace miniraid

#endif  // MINIRAID_NET_TRANSPORT_H_
