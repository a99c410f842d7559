#ifndef MINIRAID_NET_INPROC_TRANSPORT_H_
#define MINIRAID_NET_INPROC_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/event_loop.h"
#include "net/transport.h"

namespace miniraid {

struct InProcTransportOptions {
  /// One-way delivery delay, emulating the inter-site link latency the
  /// simulator models (SimTransportOptions::message_latency; the paper
  /// measured 9 ms per message). 0 = deliver as soon as the destination
  /// loop gets to it. Timer-based: each frame joins the destination's
  /// inbox `message_latency` after its Send, so every message waits the
  /// full delay, no thread ever blocks, and per-pair FIFO is preserved
  /// (equal deadlines fire in insertion order).
  Duration message_latency = 0;
};

/// Real message passing between sites running as threads in one process —
/// the closest analogue of the paper's "database sites ... implemented as
/// Unix processes (on one processor with one process per site)". It is
/// TcpTransport without the socket, and hands frames over the way TCP
/// writes them: once per loop turn. Send encodes the message into the
/// sender's outbox for the destination; the first frame since the last
/// flush posts one flush task to the sender's own EventLoop, which runs
/// once the loop's current turn ends. The flush gives each destination all
/// of the turn's frames under one lock of its inbox, and the hand-over
/// that fills an empty inbox posts the one drain task that delivers them
/// on the destination's loop with TCP's decode loop (DeliverFrames in
/// net/framing.h). A sender with no registered loop (a test thread, say)
/// has no turn to end: its Send runs the same hand-over at once. Per-pair
/// FIFO follows from each sender's frames to one destination passing
/// through one outbox and one inbox, both in append order.
class InProcTransport : public Transport {
 public:
  explicit InProcTransport(
      const InProcTransportOptions& options = InProcTransportOptions{});

  /// Registers `site`'s loop and handler: frames sent to `site` are
  /// delivered on `loop`, and the frames `site` sends are handed over from
  /// it once per turn. Each site registers once. Not thread-safe against
  /// Send; register all sites before starting traffic.
  MR_RUNS_ON(client)
  void Register(SiteId site, EventLoop* loop, MessageHandler* handler);

  MR_RUNS_ON(any) Status Send(const Message& msg) override;

  /// Messages accepted for delivery so far. Safe from any thread.
  MR_RUNS_ON(any) uint64_t messages_sent() const {
    return messages_sent_.load();
  }

 private:
  /// A registered endpoint's receiving half: the frames handed over to it
  /// and not yet delivered. Held by shared_ptr: every sender's outbox to
  /// it and the drain tasks queued on its loop hold it too, so they stay
  /// safe after the transport is destroyed. It holds nothing itself.
  struct Inbox {
    Inbox(EventLoop* loop, MessageHandler* handler)
        : loop(loop), handler(handler) {}

    /// Set by Register and never written again, so any thread reads them
    /// without a lock.
    EventLoop* const loop;
    MessageHandler* const handler;
    /// Taken once per hand-over (one per sender turn) and once per drain,
    /// and never while another lock is held.
    Mutex mu;
    /// Non-empty exactly while a drain is posted and has not yet swapped
    /// the frames out: the hand-over that fills an empty inbox posts it.
    std::vector<uint8_t> frames MR_GUARDED_BY(mu);
    /// The frames the running drain delivers, swapped out of `frames`
    /// under `mu`. Only drains touch it, and they all run on `loop`.
    std::vector<uint8_t> draining MR_CONTEXT_CONFINED(loop);
  };

  /// The frames one sender has queued for one destination this turn.
  struct Outbox {
    std::shared_ptr<Inbox> to;
    std::vector<uint8_t> frames;
  };

  /// A sender's half: one outbox per registered destination. Held by
  /// shared_ptr, like Inbox: its flush task and its delayed-frame timers
  /// hold it too.
  struct Sender : std::enable_shared_from_this<Sender> {
    explicit Sender(EventLoop* loop) : loop(loop) {}

    /// Queues one frame of `body` for the destination at `to`.
    void Append(size_t to, const std::vector<uint8_t>& body) MR_REQUIRES(mu);
    /// Ends the turn that appended frames for `to`. A sender with a loop
    /// posts its flush, once for every frame until that flush runs. One
    /// with no loop has no turn to wait for: the frames move to `now`,
    /// for the caller to hand over once it has released `mu`.
    void EndTurn(size_t to, std::vector<uint8_t>& now) MR_REQUIRES(mu);

    /// The sender's own loop, which runs its flushes and its delayed
    /// frames; null for the senders with no registered loop. Never
    /// written after construction.
    EventLoop* const loop;
    /// Sends lock it; on a registered sender's own loop nothing else
    /// contends for it. No inbox mutex is taken while it is held.
    Mutex mu MR_ACQUIRED_BEFORE(loop->mu_);
    Encoder scratch MR_GUARDED_BY(mu);
    /// Indexed by Endpoint::index; Register gives every sender an outbox
    /// to every endpoint, here and in `flushing`.
    std::vector<Outbox> outboxes MR_GUARDED_BY(mu);
    bool flush_posted MR_GUARDED_BY(mu) = false;
    /// The outboxes the running flush hands over, swapped with `outboxes`
    /// under `mu`. Only flushes touch it once Register has filled it, and
    /// they all run on `loop`.
    std::vector<Outbox> flushing MR_CONTEXT_CONFINED(loop);
  };

  struct Endpoint {
    size_t index;  // registration order: the slot in every sender's outboxes
    std::shared_ptr<Inbox> inbox;
    std::shared_ptr<Sender> sender;
  };

  /// Appends `body` for the destination `to` (at `index`) to `sender`'s
  /// outbox `delay` from now, on a timer of `loop`, as a turn of its own.
  MR_RUNS_ON(any)
  static void EnqueueAfter(const std::shared_ptr<Sender>& sender,
                           EventLoop* loop, const std::shared_ptr<Inbox>& to,
                           size_t index, Duration delay,
                           std::vector<uint8_t> body);
  /// The posted flush: hands the turn's outboxes to their inboxes.
  MR_RUNS_ON(loop) static void Flush(Sender& sender);
  /// Moves `frames` into `to`'s inbox under one lock of it (a swap when
  /// the inbox is empty, and then the one drain is posted).
  MR_RUNS_ON(any)
  static void HandOver(const std::shared_ptr<Inbox>& to,
                       std::vector<uint8_t>& frames);
  MR_RUNS_ON(loop) static void Drain(Inbox& inbox);

  InProcTransportOptions options_;
  /// Populated by Register() during cluster wiring, before any site thread
  /// starts; steady-state Send() from loop/managing threads only reads it.
  /// The phases cannot overlap, so no lock is needed on the map itself.
  std::unordered_map<SiteId, Endpoint> endpoints_ MR_CONTEXT_CONFINED(client);
  /// The one sender shared by every site id with no registered endpoint;
  /// it has no loop, so each of its Sends hands over at once.
  std::shared_ptr<Sender> unregistered_ = std::make_shared<Sender>(nullptr);
  std::atomic<uint64_t> messages_sent_{0};
};

}  // namespace miniraid

#endif  // MINIRAID_NET_INPROC_TRANSPORT_H_
